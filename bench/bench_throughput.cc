// Concurrent query serving throughput: N client threads, each with its own
// EngineSession against one shared loaded store, draining a mixed Q1-Q20
// workload. Reports QPS and latency percentiles per thread count — the
// serving-side scaling the paper's single-user protocol (Tables 2/3) never
// measures, enabled by immutable-after-load stores, the shared plan cache
// and per-run evaluator state.
//
// Flags:
//   --sf=0.05          scaling factor of the generated document
//   --system=D         engine (A..F; G reloads per query and serves poorly
//                      by design, but is accepted for contrast)
//   --threads=0        max client threads (0 = hardware_concurrency);
//                      measures 1, 2, 4, ... up to the max
//   --iters=3          passes over the query mix per client thread
//   --deadline-ms=0    per-query deadline applied to every client session
//                      (0 = no deadline); queries killed by the deadline
//                      are counted per StatusCode, not treated as fatal
//   --corpus=0         documents in the catalog (0 = single-document
//                      protocol). With N > 0 the workload mixes
//                      doc("corpus-XX.xml")-scoped queries (round-robin
//                      over the corpus) with collection() fan-out queries
//                      (every 5th query), exercising catalog routing and
//                      cross-document concatenation under concurrency
//   --json             machine-readable output (docs/BENCHMARKS.md schema)

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "util/logging.h"
#include "util/table_printer.h"
#include "util/timer.h"
#include "xmark/queries.h"
#include "xmark/runner.h"

namespace xmark::bench {
namespace {

// One request of the serving mix: a benchmark query, possibly rewritten
// to a catalog scope (doc("corpus-XX.xml") or collection()).
struct WorkItem {
  int query = 0;
  std::string text;
  bool collection = false;
};

// The serving mix: every benchmark query. Heavier queries (Q10-Q12)
// dominate tail latency exactly as construction/join-heavy requests would
// in a real mixed workload. With `corpus_documents` > 0 every 5th query
// fans out over the whole corpus via collection() and the rest bind one
// document round-robin, so concurrent clients hit disjoint documents and
// the shared fan-out path at once.
std::vector<WorkItem> Workload(size_t corpus_documents) {
  std::vector<WorkItem> items;
  for (int q = 1; q <= 20; ++q) {
    WorkItem item;
    item.query = q;
    if (corpus_documents == 0) {
      item.text = std::string(GetQuery(q).text);
    } else if (q % 5 == 0) {
      item.collection = true;
      item.text = RewriteEntryCalls(GetQuery(q).text, "collection()");
    } else {
      const size_t doc = static_cast<size_t>(q) % corpus_documents;
      item.text = RewriteEntryCalls(
          GetQuery(q).text,
          StringPrintf("doc(\"corpus-%02zu.xml\")", doc));
    }
    items.push_back(std::move(item));
  }
  return items;
}

struct RunResult {
  unsigned threads = 0;
  size_t queries = 0;  // completed queries (outcomes.ok)
  double wall_ms = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t plan_cache_hits = 0;    // delta across this run
  uint64_t plan_cache_misses = 0;  // delta across this run
  QueryOutcomes outcomes;          // per-StatusCode deltas for this run
};

// Governed rejections are expected outcomes of a deadline run, not bench
// failures; anything else (parse error, internal error) still aborts.
bool IsGovernedRejection(const Status& status) {
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kCancelled:
    case StatusCode::kResourceExhausted:
      return true;
    default:
      return false;
  }
}

double Percentile(std::vector<double>* latencies, double p) {
  if (latencies->empty()) return 0;
  std::sort(latencies->begin(), latencies->end());
  const size_t idx = std::min(
      latencies->size() - 1,
      static_cast<size_t>(p * static_cast<double>(latencies->size())));
  return (*latencies)[idx];
}

// One throughput measurement: `threads` clients, each with a private
// session, each running `iters` passes over the workload. Each client
// offsets its start position in the mix so concurrent clients are not in
// lock-step on the same query.
StatusOr<RunResult> MeasureThreads(Engine* engine, unsigned threads,
                                   int iters,
                                   const std::vector<WorkItem>& workload,
                                   const query::RunOptions& run_options) {
  std::vector<std::unique_ptr<EngineSession>> sessions;
  for (unsigned t = 0; t < threads; ++t) {
    XMARK_ASSIGN_OR_RETURN(auto session, engine->CreateSession());
    (*session).set_run_options(run_options);
    sessions.push_back(std::move(session));
  }
  const query::PlanCacheStats before = engine->plan_cache_stats();
  const QueryOutcomes outcomes_before = engine->outcomes();

  std::vector<std::vector<double>> latencies(threads);
  std::vector<Status> failures(threads, Status::OK());
  PhaseTimer wall;
  {
    std::vector<std::thread> clients;
    clients.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      clients.emplace_back([&, t] {
        EngineSession* session = sessions[t].get();
        std::vector<double>& lat = latencies[t];
        lat.reserve(workload.size() * static_cast<size_t>(iters));
        for (int pass = 0; pass < iters; ++pass) {
          for (size_t i = 0; i < workload.size(); ++i) {
            const WorkItem& item =
                workload[(i + t * 7) % workload.size()];  // de-phase clients
            PhaseTimer timer;
            auto result = session->Run(item.text);
            if (!result.ok()) {
              // Governed rejections (deadline, budget) are counted in the
              // shared outcome counters; latency is only recorded for
              // completed queries.
              if (!IsGovernedRejection(result.status())) {
                failures[t] = result.status();
                return;
              }
              continue;
            }
            lat.push_back(timer.ElapsedWallMillis());
          }
        }
      });
    }
    for (std::thread& c : clients) c.join();
  }
  RunResult out;
  out.wall_ms = wall.ElapsedWallMillis();
  for (const Status& st : failures) {
    if (!st.ok()) return st;
  }

  std::vector<double> merged;
  for (const auto& lat : latencies) {
    merged.insert(merged.end(), lat.begin(), lat.end());
  }
  const query::PlanCacheStats after = engine->plan_cache_stats();
  const QueryOutcomes outcomes_after = engine->outcomes();
  out.outcomes.ok = outcomes_after.ok - outcomes_before.ok;
  out.outcomes.deadline_exceeded =
      outcomes_after.deadline_exceeded - outcomes_before.deadline_exceeded;
  out.outcomes.cancelled = outcomes_after.cancelled - outcomes_before.cancelled;
  out.outcomes.resource_exhausted = outcomes_after.resource_exhausted -
                                    outcomes_before.resource_exhausted;
  out.outcomes.invalid_query =
      outcomes_after.invalid_query - outcomes_before.invalid_query;
  out.outcomes.other_error =
      outcomes_after.other_error - outcomes_before.other_error;
  out.threads = threads;
  out.queries = merged.size();
  out.qps = out.wall_ms > 0
                ? 1000.0 * static_cast<double>(merged.size()) / out.wall_ms
                : 0;
  out.p50_ms = Percentile(&merged, 0.50);
  out.p99_ms = Percentile(&merged, 0.99);
  out.plan_cache_hits = after.hits - before.hits;
  out.plan_cache_misses = after.misses - before.misses;
  return out;
}

SystemId ParseSystem(int argc, char** argv) {
  const std::string prefix = "--system=";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind(prefix, 0) == 0) {
      const char label = argv[i][prefix.size()];
      for (SystemId id : kAllSystems) {
        if (SystemLabel(id) == label) return id;
      }
    }
  }
  return SystemId::kD;
}

int Main(int argc, char** argv) {
  const double sf = FlagDouble(argc, argv, "sf", 0.05);
  const int iters = FlagInt(argc, argv, "iters", 3);
  const bool json = FlagBool(argc, argv, "json");
  const int deadline_ms = FlagInt(argc, argv, "deadline-ms", 0);
  const size_t corpus =
      static_cast<size_t>(std::max(0, FlagInt(argc, argv, "corpus", 0)));
  const unsigned hardware = std::thread::hardware_concurrency();
  unsigned max_threads =
      static_cast<unsigned>(FlagInt(argc, argv, "threads", 0));
  if (max_threads == 0) max_threads = std::max(1u, hardware);
  const SystemId system = ParseSystem(argc, argv);

  BenchmarkRunner runner(sf);
  if (corpus > 0) runner.set_corpus_documents(corpus);
  const Status st = runner.LoadSystem(system);
  if (!st.ok()) {
    std::fprintf(stderr, "load %c: %s\n", SystemLabel(system),
                 st.ToString().c_str());
    return 1;
  }
  Engine* engine = runner.engine(system);

  const std::vector<WorkItem> workload = Workload(corpus);
  size_t collection_queries = 0;
  for (const WorkItem& item : workload) {
    if (item.collection) ++collection_queries;
  }
  // Warmup: one serial pass primes the plan cache (and the allocator), so
  // measured runs see steady-state serving.
  {
    auto warm = engine->CreateSession();
    if (!warm.ok()) {
      std::fprintf(stderr, "session: %s\n",
                   warm.status().ToString().c_str());
      return 1;
    }
    for (const WorkItem& item : workload) {
      auto result = (*warm)->Run(item.text);
      if (!result.ok()) {
        std::fprintf(stderr, "warmup Q%d: %s\n", item.query,
                     result.status().ToString().c_str());
        return 1;
      }
    }
  }

  std::vector<unsigned> thread_counts;
  for (unsigned t = 1; t < max_threads; t *= 2) thread_counts.push_back(t);
  thread_counts.push_back(max_threads);

  query::RunOptions run_options;
  run_options.deadline_ms = deadline_ms;

  std::vector<RunResult> runs;
  for (unsigned threads : thread_counts) {
    auto result = MeasureThreads(engine, threads, iters, workload,
                                 run_options);
    if (!result.ok()) {
      std::fprintf(stderr, "%u threads: %s\n", threads,
                   result.status().ToString().c_str());
      return 1;
    }
    runs.push_back(*result);
  }

  if (!json) {
    std::printf("=== Concurrent serving throughput: system %c, sf %g ===\n",
                SystemLabel(system), sf);
    std::printf("hardware_concurrency %u, %d passes over Q1-Q20 per "
                "client\n\n",
                hardware, iters);
    if (deadline_ms > 0) {
      std::printf("per-query deadline: %d ms\n", deadline_ms);
    }
    if (corpus > 0) {
      std::printf("corpus: %zu documents (%zu collection() queries per "
                  "pass, rest doc()-scoped round-robin)\n",
                  corpus, collection_queries);
    }
    TablePrinter table({"threads", "queries", "wall (ms)", "QPS",
                        "p50 (ms)", "p99 (ms)", "cache hits", "misses",
                        "deadline", "resource"});
    for (const RunResult& run : runs) {
      table.AddRow({std::to_string(run.threads),
                    std::to_string(run.queries),
                    StringPrintf("%.1f", run.wall_ms),
                    StringPrintf("%.1f", run.qps),
                    StringPrintf("%.2f", run.p50_ms),
                    StringPrintf("%.2f", run.p99_ms),
                    std::to_string(run.plan_cache_hits),
                    std::to_string(run.plan_cache_misses),
                    std::to_string(run.outcomes.deadline_exceeded),
                    std::to_string(run.outcomes.resource_exhausted)});
    }
    std::printf("%s", table.ToString().c_str());
    if (runs.size() > 1) {
      std::printf("\nscaling: %.2fx QPS at %u threads vs 1 thread\n",
                  runs.back().qps / std::max(1e-6, runs.front().qps),
                  runs.back().threads);
    }
  } else {
    JsonWriter w;
    w.BeginObject();
    w.Key("bench").Value(std::string_view("throughput"));
    w.Key("scale").Value(sf);
    const char label[2] = {SystemLabel(system), '\0'};
    w.Key("system").Value(std::string_view(label));
    w.Key("hardware_concurrency").Value(static_cast<int64_t>(hardware));
    w.Key("iters").Value(iters);
    w.Key("deadline_ms").Value(deadline_ms);
    w.Key("corpus_documents").Value(corpus);
    w.Key("collection_queries").Value(collection_queries);
    w.Key("catalog_bytes").Value(engine->StorageBytes());
    w.Key("runs").BeginArray();
    for (const RunResult& run : runs) {
      w.BeginObject();
      w.Key("threads").Value(static_cast<int64_t>(run.threads));
      w.Key("queries").Value(run.queries);
      w.Key("wall_ms").Value(run.wall_ms);
      w.Key("qps").Value(run.qps);
      w.Key("p50_ms").Value(run.p50_ms);
      w.Key("p99_ms").Value(run.p99_ms);
      w.Key("plan_cache_hits").Value(static_cast<int64_t>(run.plan_cache_hits));
      w.Key("plan_cache_misses")
          .Value(static_cast<int64_t>(run.plan_cache_misses));
      w.Key("outcomes").BeginObject();
      w.Key("ok").Value(static_cast<int64_t>(run.outcomes.ok));
      w.Key("deadline_exceeded")
          .Value(static_cast<int64_t>(run.outcomes.deadline_exceeded));
      w.Key("cancelled").Value(static_cast<int64_t>(run.outcomes.cancelled));
      w.Key("resource_exhausted")
          .Value(static_cast<int64_t>(run.outcomes.resource_exhausted));
      w.Key("invalid_query")
          .Value(static_cast<int64_t>(run.outcomes.invalid_query));
      w.Key("other_error")
          .Value(static_cast<int64_t>(run.outcomes.other_error));
      w.EndObject();
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace xmark::bench

int main(int argc, char** argv) { return xmark::bench::Main(argc, argv); }
