// Reproduces Table 1 of the paper: database sizes and bulkload times for
// the mass-storage systems A-F. Absolute values differ from the paper
// (550 MHz Pentium III + disk vs this machine + main memory); the shape to
// check is the spread: the native store (D) loads fastest and stays
// smallest, the fragmented mapping (B) and the heavier native mappings
// carry the most overhead.
//
// The parallel bulkload pipeline: every system loads with --threads workers
// (default hardware_concurrency) and with the threads=1 serial ablation,
// and the speedup column isolates the pipeline (LoadPair orders the
// loads so neither column is favoured). --json emits the machine-readable
// form archived as BENCH_PR3.json.

#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "util/table_printer.h"
#include "xmark/runner.h"

namespace xmark::bench {
namespace {

struct PaperRow {
  char system;
  const char* size;
  const char* bulkload;
};

constexpr PaperRow kPaperTable1[] = {
    {'A', "241 MB", "414 s"}, {'B', "280 MB", "781 s"},
    {'C', "238 MB", "548 s"}, {'D', "142 MB", "50 s"},
    {'E', "302 MB", "96 s"},  {'F', "345 MB", "215 s"},
};

// One bulkload of `id` at the given thread count; its time in ms.
StatusOr<double> LoadOnce(BenchmarkRunner& runner, SystemId id,
                          unsigned threads) {
  runner.set_load_threads(threads);
  runner.UnloadSystem(id);
  XMARK_RETURN_IF_ERROR(runner.LoadSystem(id));
  return runner.load_info(id).bulkload_ms;
}

// Best-of-reps serial and `threads`-wide bulkloads of the system at
// position `index`. One untimed load goes first: a system's first load in
// the process ran 20-35% slower than its later ones at either thread
// count (sf 0.05, 4-vCPU container). The timed loads interleave: rep r
// runs the serial load first when r + index is even, so the order flips
// from rep to rep and from system to system. At one thread both are the
// same load, timed once.
Status LoadPair(BenchmarkRunner& runner, SystemId id, size_t index,
                unsigned threads, int reps, double* serial_ms,
                double* parallel_ms) {
  *serial_ms = *parallel_ms = 0;
  XMARK_RETURN_IF_ERROR(LoadOnce(runner, id, 1).status());
  for (int r = 0; r < reps; ++r) {
    const bool serial_first = (r + index) % 2 == 0;
    for (const bool serial : {serial_first, !serial_first}) {
      if (!serial && threads == 1) continue;
      XMARK_ASSIGN_OR_RETURN(const double ms,
                             LoadOnce(runner, id, serial ? 1 : threads));
      double* best = serial ? serial_ms : parallel_ms;
      if (r == 0 || ms < *best) *best = ms;
    }
  }
  if (threads == 1) *parallel_ms = *serial_ms;
  return Status::OK();
}

int Main(int argc, char** argv) {
  const double sf = FlagDouble(argc, argv, "sf", 0.05);
  const int reps = FlagInt(argc, argv, "reps", 1);
  const int threads_flag = FlagInt(argc, argv, "threads", 0);
  if (threads_flag < 0) {
    std::fprintf(stderr, "--threads must be >= 0 (0 = hardware)\n");
    return 1;
  }
  const unsigned threads = static_cast<unsigned>(threads_flag);
  const bool json = FlagBool(argc, argv, "json");
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned effective = threads != 0 ? threads : (hw == 0 ? 1 : hw);

  BenchmarkRunner runner(sf);
  if (!json) {
    std::printf("=== Table 1: Database sizes and bulkload times ===\n");
    std::printf("scaling factor %g (paper used 1.0 = 100 MB), "
                "threads %u (hardware %u), serial ablation threads=1\n\n",
                sf, effective, hw);
    std::printf("document: %s\n\n",
                HumanBytes(runner.document().size()).c_str());
  }

  struct Result {
    SystemId id;
    double parallel_ms = 0;
    double serial_ms = 0;
    size_t bytes = 0;
    size_t catalog = 0;
  };
  std::vector<Result> results;
  for (const SystemId id : kMassStorageSystems) {
    Result res;
    res.id = id;
    const Status st = LoadPair(runner, id, results.size(), effective, reps,
                               &res.serial_ms, &res.parallel_ms);
    if (!st.ok()) {
      std::fprintf(stderr, "load %c failed: %s\n", SystemLabel(id),
                   st.ToString().c_str());
      return 1;
    }
    res.bytes = runner.load_info(id).database_bytes;
    res.catalog = runner.load_info(id).catalog_entries;
    results.push_back(res);
  }

  if (json) {
    JsonWriter w;
    w.BeginObject();
    w.Key("bench").Value(std::string_view("table1_bulkload"));
    w.Key("scale").Value(sf);
    w.Key("reps").Value(reps);
    w.Key("threads").Value(static_cast<int64_t>(effective));
    w.Key("hardware_concurrency").Value(static_cast<int64_t>(hw));
    w.Key("document_bytes").Value(runner.document().size());
    w.Key("systems").BeginArray();
    for (const Result& res : results) {
      w.BeginObject();
      w.Key("system").Value(std::string(1, SystemLabel(res.id)));
      w.Key("database_bytes").Value(res.bytes);
      w.Key("catalog_entries").Value(res.catalog);
      w.Key("bulkload_ms").Value(res.parallel_ms);
      w.Key("bulkload_serial_ms").Value(res.serial_ms);
      w.Key("speedup").Value(
          res.parallel_ms > 0 ? res.serial_ms / res.parallel_ms : 0.0);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }

  TablePrinter table({"System", "Size", "Bulkload time", "Serial (t=1)",
                      "Speedup", "Catalog entries", "Paper size",
                      "Paper bulkload"});
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& res = results[i];
    table.AddRow({std::string(1, SystemLabel(res.id)), HumanBytes(res.bytes),
                  StringPrintf("%.1f ms", res.parallel_ms),
                  StringPrintf("%.1f ms", res.serial_ms),
                  StringPrintf("%.2fx", res.parallel_ms > 0
                                            ? res.serial_ms / res.parallel_ms
                                            : 0.0),
                  std::to_string(res.catalog), kPaperTable1[i].size,
                  kPaperTable1[i].bulkload});
  }
  std::printf("%s\n", table.ToString().c_str());

  std::printf("shape checks (paper):\n");
  const auto ratio = [&](SystemId a, SystemId b) {
    double ams = 0, bms = 0;
    for (const Result& res : results) {
      if (res.id == a) ams = res.parallel_ms;
      if (res.id == b) bms = res.parallel_ms;
    }
    return ams / bms;
  };
  std::printf("  D loads fastest of all systems (paper: 50 s minimum): "
              "D/A = %.2fx, D/B = %.2fx\n",
              ratio(SystemId::kD, SystemId::kA),
              ratio(SystemId::kD, SystemId::kB));
  std::printf("  B is the slowest relational bulkload (paper: 781 s): "
              "B/A = %.2fx, B/C = %.2fx\n",
              ratio(SystemId::kB, SystemId::kA),
              ratio(SystemId::kB, SystemId::kC));
  return 0;
}

}  // namespace
}  // namespace xmark::bench

int main(int argc, char** argv) { return xmark::bench::Main(argc, argv); }
