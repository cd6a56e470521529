// Ablation bench for the paper-profile features: each optimizer flag is
// toggled on the same store, and each index is compared with the same
// native store built without it (the switch systems D, E and F differ
// by), and the affected queries re-timed. This grounds the Table 3
// contrasts in their mechanisms:
//   - structural summary              -> Q6, Q7 (regular path expressions)
//   - ID index                        -> Q1 (exact match)
//   - hash-join decorrelation         -> Q8, Q9 (reference chasing)
//   - lazy let evaluation             -> Q12 (pruned value join)
//   - invariant-path caching          -> Q11 (repeated rooted paths)
// plus the compiled-pipeline contrast on the edge store (fused queries
// with hash_join on vs off, which also turns pipeline fusion off).

#include <cstdio>

#include "bench/bench_util.h"
#include "gen/generator.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "store/dom_store.h"
#include "store/edge_store.h"
#include "util/logging.h"
#include "util/table_printer.h"
#include "util/timer.h"
#include "xmark/queries.h"

namespace xmark::bench {
namespace {

double TimeQuery(const query::StorageAdapter* store,
                 const query::EvaluatorOptions& opts, int q) {
  auto parsed = query::ParseQueryText(GetQuery(q).text);
  XMARK_CHECK(parsed.ok());
  query::Evaluator evaluator(store, opts);
  // Best-of-3 CPU time: single cold wall-clock runs are dominated by
  // first-touch warmup and scheduler noise at sub-millisecond scales.
  double best = 0;
  for (int r = 0; r < 3; ++r) {
    PhaseTimer timer;
    auto result = evaluator.Run(*parsed);
    XMARK_CHECK(result.ok());
    const double ms = timer.ElapsedCpuMillis();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

int Main(int argc, char** argv) {
  const double sf = FlagDouble(argc, argv, "sf", 0.05);
  const bool json = FlagBool(argc, argv, "json");
  if (!json) {
    std::printf("=== Ablation: optimizer features on the native store ===\n");
    std::printf("scaling factor %g\n\n", sf);
  }

  gen::GeneratorOptions gopts;
  gopts.scale = sf;
  const std::string doc_text = gen::XmlGen(gopts).GenerateToString();

  store::DomStore::Options dopts;  // all indexes built
  auto store = store::DomStore::Load(doc_text, dopts);
  XMARK_CHECK(store.ok());
  store::DomStore::Options no_summary_opts;
  no_summary_opts.build_path_summary = false;
  auto no_summary = store::DomStore::Load(doc_text, no_summary_opts);
  XMARK_CHECK(no_summary.ok());
  store::DomStore::Options no_id_opts;
  no_id_opts.build_id_index = false;
  auto no_id = store::DomStore::Load(doc_text, no_id_opts);
  XMARK_CHECK(no_id.ok());

  query::EvaluatorOptions all_on;  // defaults: everything enabled

  struct Ablation {
    const char* feature;
    std::vector<int> queries;
    query::EvaluatorOptions off;
    query::EvaluatorOptions on;  // baseline for this row (default: all on)
    // The store the "off" side runs on (default: the fully indexed one).
    const query::StorageAdapter* off_store = nullptr;
  };
  std::vector<Ablation> ablations;
  {
    Ablation a{"structural summary", {6, 7}, all_on, all_on};
    a.off_store = no_summary->get();
    ablations.push_back(std::move(a));
  }
  {
    Ablation a{"ID index", {1}, all_on, all_on};
    a.off_store = no_id->get();
    ablations.push_back(std::move(a));
  }
  {
    Ablation a{"hash-join decorrelation", {8, 9}, all_on, all_on};
    a.off.hash_join = false;
    ablations.push_back(std::move(a));
  }
  // The band join removes Q11/Q12's inner loop entirely, so the lazy-let
  // and invariant-cache rows time both sides with hash_join (which gates
  // the band join) off — these features prune/memoize that loop, which is
  // what the ablation must isolate.
  {
    Ablation a{"lazy let evaluation", {12}, all_on, all_on};
    a.on.hash_join = false;
    a.off.hash_join = false;
    a.off.lazy_let = false;
    ablations.push_back(std::move(a));
  }
  {
    Ablation a{"invariant-path caching", {11}, all_on, all_on};
    a.on.hash_join = false;
    a.off.hash_join = false;
    a.off.cache_invariant_paths = false;
    ablations.push_back(std::move(a));
  }

  TablePrinter table({"Feature", "Query", "on (ms)", "off (ms)", "speedup"});
  for (const Ablation& ab : ablations) {
    for (int q : ab.queries) {
      const double on_ms = TimeQuery(store->get(), ab.on, q);
      const double off_ms = TimeQuery(
          ab.off_store != nullptr ? ab.off_store : store->get(), ab.off, q);
      table.AddRow({ab.feature, StringPrintf("Q%d", q),
                    StringPrintf("%.2f", on_ms), StringPrintf("%.2f", off_ms),
                    StringPrintf("%.1fx", off_ms / std::max(0.001, on_ms))});
    }
  }
  if (!json) std::printf("%s\n", table.ToString().c_str());

  // Compiled-pipeline contrast on the edge store, whose descendant cursor
  // scans its dense id->tag column (the BENCH_PR9 numbers). Same tree, fused queries, pipelines on vs off: hash_join off
  // leaves these queries' plans unchanged apart from the fusion, since
  // none of them has a join.
  struct PipeRow {
    int query;
    double pipeline_ms;
    double no_pipeline_ms;
  };
  std::vector<PipeRow> pipe_rows;
  {
    auto edge = store::EdgeStore::Load(doc_text);
    XMARK_CHECK(edge.ok());
    query::EvaluatorOptions fused;  // defaults: everything on
    query::EvaluatorOptions unfused = fused;
    unfused.hash_join = false;
    for (int q : {1, 5, 6, 14}) {
      PipeRow row{q, TimeQuery(edge->get(), fused, q),
                  TimeQuery(edge->get(), unfused, q)};
      pipe_rows.push_back(row);
    }
  }
  if (!json) {
    std::printf("--- compiled pipelines: edge store, fused queries ---\n");
    TablePrinter pt({"Query", "pipeline (ms)", "no pipeline (ms)", "speedup"});
    for (const PipeRow& r : pipe_rows) {
      pt.AddRow({StringPrintf("Q%d", r.query),
                 StringPrintf("%.2f", r.pipeline_ms),
                 StringPrintf("%.2f", r.no_pipeline_ms),
                 StringPrintf("%.2fx", r.no_pipeline_ms /
                                           std::max(0.001, r.pipeline_ms))});
    }
    std::printf("%s\n", pt.ToString().c_str());
  }

  if (json) {
    JsonWriter w;
    w.BeginObject();
    w.Key("bench").Value(std::string_view("ablation_optimizer"));
    w.Key("scale").Value(sf);
    w.Key("compiled_pipelines").BeginObject();
    w.Key("store").Value(std::string_view("edge table"));
    w.Key("queries").BeginArray();
    for (const PipeRow& r : pipe_rows) {
      w.BeginObject();
      w.Key("query").Value(r.query);
      w.Key("pipeline_ms").Value(r.pipeline_ms);
      w.Key("no_pipeline_ms").Value(r.no_pipeline_ms);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace xmark::bench

int main(int argc, char** argv) { return xmark::bench::Main(argc, argv); }
