// Reproduces Table 3 of the paper: per-query execution times (ms) of the
// queries discussed in section 7 on the six mass-storage systems A-F,
// extended with the Q15/Q16 long-path observation ("Systems A, B and C
// needed about 8 times longer to execute Q16 than ... Q15").
//
// Shape to check against the paper (not absolute numbers):
//   - Q1 cheap everywhere; C/D lead (id lookup through schema/index).
//   - Q2/Q3 hit the relational mappings; C is the best relational system.
//   - Q6/Q7 collapse on D (structural summary), expensive elsewhere.
//   - Q8/Q9 cheap on hash-join systems; Q9 > Q8.
//   - Q10 dominated by result construction; fragmented B suffers most.
//   - Q11/Q12 giant theta joins; Q12 < Q11 (lazy-let pruning).
//   - Q17/Q20 moderate everywhere.

#include <cstdio>

#include "bench/bench_util.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "util/logging.h"
#include "util/table_printer.h"
#include "util/timer.h"
#include "xmark/runner.h"

namespace xmark::bench {
namespace {

// Edge-store profile: Q1-Q20 on system A's store and options, per-query
// best-of CPU time plus the evaluator counters that prove each mechanism
// engaged (descendant cursors, band joins, constructor templates, fused
// pipelines).
struct EdgeProfile {
  double ms[20] = {};
  double total_ms = 0;
  query::EvalStats stats;  // summed over Q1-Q20 (last rep of each)
};

EdgeProfile RunEdgeProfile(Engine* engine, int reps) {
  EdgeProfile out;
  for (int q = 1; q <= 20; ++q) {
    auto parsed = query::ParseQueryText(GetQuery(q).text);
    XMARK_CHECK(parsed.ok());
    query::Evaluator evaluator(engine->store(), engine->evaluator_options());
    double best = 0;
    for (int r = 0; r < reps; ++r) {
      PhaseTimer timer;
      auto result = evaluator.Run(*parsed);
      XMARK_CHECK(result.ok());
      // CPU time, not wall: best-of-CPU is stable on noisy shared hardware
      // where wall-clock scatter exceeds per-query differences.
      const double ms = timer.ElapsedCpuMillis();
      if (r == 0 || ms < best) best = ms;
    }
    out.ms[q - 1] = best;
    out.total_ms += best;
    out.stats.MergeFrom(evaluator.stats());
  }
  return out;
}

// --explain: dump the optimizer's plan for Q1-Q20 against the edge store
// with every optimization on (the configuration the CI fallback check
// pins).
int DumpPlans(double sf) {
  BenchmarkRunner runner(sf);
  const Status st = runner.LoadSystem(SystemId::kA);
  if (!st.ok()) {
    std::fprintf(stderr, "load A: %s\n", st.ToString().c_str());
    return 1;
  }
  Engine* engine = runner.engine(SystemId::kA);
  query::EvaluatorOptions all_on;  // defaults: every optimization enabled
  engine->set_evaluator_options(all_on);
  for (int q = 1; q <= 20; ++q) {
    auto text = engine->Explain(GetQuery(q).text);
    if (!text.ok()) {
      std::fprintf(stderr, "explain Q%d: %s\n", q,
                   text.status().ToString().c_str());
      return 1;
    }
    std::printf("=== Q%d ===\n%s\n", q, text->c_str());
  }
  return 0;
}

struct PaperRow {
  int query;
  double ms[6];  // A..F
};

// Table 3 of the paper (ms, scaling factor 1.0 on 550 MHz hardware).
constexpr PaperRow kPaperTable3[] = {
    {1, {689, 784, 257, 120, 1597, 2814}},
    {2, {3171, 1971, 707, 2900, 4659, 7481}},
    {3, {41030, 6389, 1942, 3900, 4630, 8074}},
    {5, {259, 221, 237, 160, 246, 204}},
    {6, {293, 331, 509, 10, 336, 508}},
    {7, {719, 741, 1520, 10, 287, 2845}},
    {8, {1684, 1466, 667, 470, 3849, 9143}},
    {9, {3530, 10189, 92534, 980, 5994, 13698}},
    {10, {3414285, 86886, 1568, 22000, 54721, 69422}},
    {11, {205675, 2551760, 2533738, 8700, 602223, 741730}},
    {12, {126127, 965118, 976026, 7500, 268644, 270577}},
    {17, {1008, 1117, 240, 250, 2103, 3598}},
    {20, {821, 939, 1254, 620, 1065, 1759}},
};

int Main(int argc, char** argv) {
  const double sf = FlagDouble(argc, argv, "sf", 0.05);
  const int reps = FlagInt(argc, argv, "reps", 1);
  const bool json = FlagBool(argc, argv, "json");
  // With --reps > 1 the repetitions compile through the shared plan cache
  // (first rep pays the full parse + catalog + lowering, later reps hit
  // the cache) instead of re-parsing per iteration.
  // --no-prepared-cache restores the re-parse-per-rep behavior.
  const bool prepared_cache =
      reps > 1 && !FlagBool(argc, argv, "no-prepared-cache");
  if (FlagBool(argc, argv, "explain")) return DumpPlans(sf);
  if (!json) {
    std::printf("=== Table 3: Query performance (ms), systems A-F ===\n");
    std::printf("scaling factor %g (paper used 1.0)\n\n", sf);
  }

  BenchmarkRunner runner(sf);
  runner.set_use_prepared_cache(prepared_cache);
  for (SystemId id : kMassStorageSystems) {
    const Status st = runner.LoadSystem(id);
    if (!st.ok()) {
      std::fprintf(stderr, "load %c: %s\n", SystemLabel(id),
                   st.ToString().c_str());
      return 1;
    }
  }

  TablePrinter table(
      {"Query", "A", "B", "C", "D", "E", "F", "items", "paper (A..F)"});
  std::map<int, std::array<double, 6>> measured;
  std::map<int, std::array<double, 6>> first_compile;
  std::map<int, std::array<double, 6>> cached_compile;
  std::map<int, size_t> result_items;
  for (const PaperRow& row : kPaperTable3) {
    std::vector<std::string> cells{StringPrintf("Q%d", row.query)};
    size_t items = 0;
    for (size_t s = 0; s < kMassStorageSystems.size(); ++s) {
      auto timing = runner.RunQuery(kMassStorageSystems[s], row.query, reps);
      if (!timing.ok()) {
        std::fprintf(stderr, "Q%d on %c: %s\n", row.query,
                     SystemLabel(kMassStorageSystems[s]),
                     timing.status().ToString().c_str());
        return 1;
      }
      measured[row.query][s] = timing->total_ms();
      first_compile[row.query][s] = timing->first_compile_ms;
      cached_compile[row.query][s] = timing->cached_compile_ms;
      cells.push_back(StringPrintf("%.1f", timing->total_ms()));
      items = timing->result_items;
    }
    result_items[row.query] = items;
    cells.push_back(std::to_string(items));
    cells.push_back(StringPrintf("%.0f %.0f %.0f %.0f %.0f %.0f",
                                 row.ms[0], row.ms[1], row.ms[2], row.ms[3],
                                 row.ms[4], row.ms[5]));
    table.AddRow(std::move(cells));
  }
  if (!json) std::printf("%s\n", table.ToString().c_str());

  if (prepared_cache && !json) {
    // Compile-cost amortization: totals across the Table 3 queries, first
    // repetition (full compile, cache miss) vs best cached repetition
    // (one shard-map probe).
    std::printf("--- prepared-query cache: compile ms across Table 3 "
                "queries, first vs cached rep ---\n");
    for (size_t s = 0; s < kMassStorageSystems.size(); ++s) {
      double first_total = 0;
      double cached_total = 0;
      for (const PaperRow& row : kPaperTable3) {
        first_total += first_compile[row.query][s];
        cached_total += cached_compile[row.query][s];
      }
      const auto stats =
          runner.engine(kMassStorageSystems[s])->plan_cache_stats();
      std::printf("  %c: first %.3f ms, cached %.3f ms (%.1fx; cache "
                  "hits=%llu misses=%llu)\n",
                  SystemLabel(kMassStorageSystems[s]), first_total,
                  cached_total, first_total / std::max(1e-6, cached_total),
                  static_cast<unsigned long long>(stats.hits),
                  static_cast<unsigned long long>(stats.misses));
    }
    std::printf("\n");
  }

  // Section 7's Q15/Q16 long-path observation.
  TablePrinter paths({"Query", "A", "B", "C", "D", "E", "F", "items"});
  std::map<int, std::array<double, 6>> path_ms;
  for (int q : {15, 16}) {
    std::vector<std::string> cells{StringPrintf("Q%d", q)};
    size_t items = 0;
    for (size_t s = 0; s < kMassStorageSystems.size(); ++s) {
      auto timing = runner.RunQuery(kMassStorageSystems[s], q, reps);
      if (!timing.ok()) return 1;
      path_ms[q][s] = timing->total_ms();
      cells.push_back(StringPrintf("%.1f", timing->total_ms()));
      items = timing->result_items;
    }
    result_items[q] = items;
    cells.push_back(std::to_string(items));
    paths.AddRow(std::move(cells));
  }
  if (!json) {
    std::printf("--- Q15/Q16 path-length observation (section 7) ---\n");
    std::printf("%s", paths.ToString().c_str());
    std::printf("paper: Q16 took ~8x longer than Q15 on A, B, C. measured: "
                "A %.1fx, B %.1fx, C %.1fx\n\n",
                path_ms[16][0] / std::max(0.001, path_ms[15][0]),
                path_ms[16][1] / std::max(0.001, path_ms[15][1]),
                path_ms[16][2] / std::max(0.001, path_ms[15][2]));

    // Shape checks.
    auto m = [&](int q, int s) { return measured[q][s]; };
    std::printf("shape checks (see docs/BENCHMARKS.md for discussion):\n");
    std::printf("  Q6 on D vs A: %.2fx faster (paper: 29x)\n",
                m(6, 0) / std::max(0.001, m(6, 3)));
    std::printf("  Q7 on D vs F: %.2fx faster (paper: 284x)\n",
                m(7, 5) / std::max(0.001, m(7, 3)));
    std::printf("  Q3 relational best is C: C=%.1f vs A=%.1f, B=%.1f\n",
                m(3, 2), m(3, 0), m(3, 1));
    std::printf("  Q12 < Q11 on lazy-let systems: A %.2fx, D %.2fx\n",
                m(11, 0) / std::max(0.001, m(12, 0)),
                m(11, 3) / std::max(0.001, m(12, 3)));
    std::printf("  Q9 > Q8 everywhere: A %.1fx, D %.1fx, F %.1fx\n",
                m(9, 0) / std::max(0.001, m(8, 0)),
                m(9, 3) / std::max(0.001, m(8, 3)),
                m(9, 5) / std::max(0.001, m(8, 5)));
  }

  // Edge-store profile (system A): Q1-Q20 timings and evaluator counters.
  const int profile_reps = reps > 2 ? reps : 2;
  const EdgeProfile ep =
      RunEdgeProfile(runner.engine(SystemId::kA), profile_reps);
  const query::EvalStats& es = ep.stats;
  if (!json) {
    std::printf("\n--- edge store profile: Q1-Q20, best of %d ---\n",
                profile_reps);
    TablePrinter at({"Query", "cpu (ms)"});
    for (int q = 1; q <= 20; ++q) {
      at.AddRow({StringPrintf("Q%d", q), StringPrintf("%.2f", ep.ms[q - 1])});
    }
    std::printf("%s", at.ToString().c_str());
    std::printf("total: %.1f ms\n", ep.total_ms);
    std::printf("band join: %lld domains built, %lld rows by binary search\n",
                static_cast<long long>(es.band_joins_built),
                static_cast<long long>(es.band_join_rows));
    std::printf("construction: %lld arena nodes, %lld templates\n",
                static_cast<long long>(es.nodes_constructed),
                static_cast<long long>(es.construct_templates_built));
    std::printf("stats: %lld cursor scans, %lld descendant scans, "
                "%lld compare-path materializations\n",
                static_cast<long long>(es.cursor_scans),
                static_cast<long long>(es.descendant_scans),
                static_cast<long long>(es.compare_allocs));
    std::printf("pipelines: %lld fused batches, %lld virtual batches "
                "(fused fraction %.1f%%)\n",
                static_cast<long long>(es.pipeline_batches_fused),
                static_cast<long long>(es.virtual_batches),
                100.0 * static_cast<double>(es.pipeline_batches_fused) /
                    std::max<double>(1.0, static_cast<double>(
                                              es.pipeline_batches_fused +
                                              es.virtual_batches)));
  }

  if (json) {
    JsonWriter w;
    w.BeginObject();
    w.Key("bench").Value(std::string_view("table3_queries"));
    w.Key("scale").Value(sf);
    w.Key("reps").Value(reps);
    w.Key("prepared_cache").Value(prepared_cache);
    w.Key("queries").BeginArray();
    auto emit_query = [&](int q, const std::array<double, 6>& ms) {
      w.BeginObject();
      w.Key("query").Value(q);
      w.Key("items").Value(result_items[q]);
      w.Key("ms").BeginObject();
      for (size_t s = 0; s < kMassStorageSystems.size(); ++s) {
        const char label[2] = {SystemLabel(kMassStorageSystems[s]), '\0'};
        w.Key(label).Value(ms[s]);
      }
      w.EndObject();
      if (prepared_cache && first_compile.count(q)) {
        w.Key("first_compile_ms").BeginObject();
        for (size_t s = 0; s < kMassStorageSystems.size(); ++s) {
          const char label[2] = {SystemLabel(kMassStorageSystems[s]), '\0'};
          w.Key(label).Value(first_compile[q][s]);
        }
        w.EndObject();
        w.Key("cached_compile_ms").BeginObject();
        for (size_t s = 0; s < kMassStorageSystems.size(); ++s) {
          const char label[2] = {SystemLabel(kMassStorageSystems[s]), '\0'};
          w.Key(label).Value(cached_compile[q][s]);
        }
        w.EndObject();
      }
      w.EndObject();
    };
    for (const PaperRow& row : kPaperTable3) emit_query(row.query,
                                                        measured[row.query]);
    for (int q : {15, 16}) emit_query(q, path_ms[q]);
    w.EndArray();
    if (prepared_cache) {
      w.Key("plan_cache").BeginObject();
      for (size_t s = 0; s < kMassStorageSystems.size(); ++s) {
        const auto stats =
            runner.engine(kMassStorageSystems[s])->plan_cache_stats();
        const char label[2] = {SystemLabel(kMassStorageSystems[s]), '\0'};
        w.Key(label).BeginObject();
        w.Key("hits").Value(static_cast<int64_t>(stats.hits));
        w.Key("misses").Value(static_cast<int64_t>(stats.misses));
        w.EndObject();
      }
      w.EndObject();
    }
    // Kept under its historical key: the committed BENCH_PR2-PR9 files
    // hold the same object plus the retired no_* ablation columns.
    w.Key("ablation").BeginObject();
    w.Key("store").Value(std::string_view("edge table"));
    w.Key("reps").Value(profile_reps);
    w.Key("queries").BeginArray();
    for (int q = 1; q <= 20; ++q) {
      w.BeginObject();
      w.Key("query").Value(q);
      w.Key("fast_ms").Value(ep.ms[q - 1]);
      w.EndObject();
    }
    w.EndArray();
    w.Key("fast_total_ms").Value(ep.total_ms);
    w.Key("cursor_scans").Value(es.cursor_scans);
    w.Key("descendant_scans").Value(es.descendant_scans);
    w.Key("pipeline_batches_fused").Value(es.pipeline_batches_fused);
    w.Key("virtual_batches").Value(es.virtual_batches);
    w.Key("band_joins_built").Value(es.band_joins_built);
    w.Key("band_join_rows").Value(es.band_join_rows);
    w.Key("nodes_constructed").Value(es.nodes_constructed);
    w.Key("construct_templates_built").Value(es.construct_templates_built);
    w.Key("compare_allocs_fast").Value(es.compare_allocs);
    w.EndObject();
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace xmark::bench

int main(int argc, char** argv) { return xmark::bench::Main(argc, argv); }
