// Planner-layer tests: golden Explain() text for Q8/Q11/Q12 (hash join vs
// band join chosen), store capability advertisement, and band-join
// semantics (byte-identical to the generic nested loop, hash_join off,
// across every comparison direction and operand order).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gen/generator.h"
#include "query/evaluator.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "query/plan.h"
#include "query/value.h"
#include "store/dom_store.h"
#include "store/edge_store.h"
#include "store/fragmented_store.h"
#include "store/inlined_store.h"
#include "util/logging.h"
#include "xmark/engine.h"
#include "xmark/queries.h"
#include "xml/dtd.h"

namespace xmark::query {
namespace {

const std::string& TestDocument() {
  static const std::string* const kDoc = [] {
    gen::GeneratorOptions opts;
    opts.scale = 0.002;
    return new std::string(gen::XmlGen(opts).GenerateToString());
  }();
  return *kDoc;
}

const store::DomStore& Dom() {
  static const store::DomStore* const kStore = [] {
    store::DomStore::Options options;  // all indexes on
    auto store = store::DomStore::Load(TestDocument(), options);
    XMARK_CHECK(store.ok());
    return store->release();
  }();
  return *kStore;
}

const store::EdgeStore& Edge() {
  static const store::EdgeStore* const kStore = [] {
    auto store = store::EdgeStore::Load(TestDocument());
    XMARK_CHECK(store.ok());
    return store->release();
  }();
  return *kStore;
}

std::string ExplainText(const StorageAdapter& store, std::string_view text,
                        const EvaluatorOptions& options) {
  auto parsed = ParseQueryText(text);
  XMARK_CHECK(parsed.ok());
  QueryPlan plan;
  BuildPlan(*parsed, store, options, plan.mutable_annotations());
  return plan.Explain(*parsed);
}

std::string ExplainQuery(const StorageAdapter& store, int query,
                         const EvaluatorOptions& options) {
  return ExplainText(store, bench::GetQuery(query).text, options);
}

TEST(ExplainGolden, Q8ChoosesHashJoin) {
  const std::string text = ExplainQuery(Dom(), 8, EvaluatorOptions{});
  EXPECT_NE(text.find("flwor strategy=hash-join key=$t/buyer/@person "
                      "probe=$p/@id"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("summary: hash-join=1 band-count-join=0 construct-template=1 "
                      "joinable-nested-loop=0"),
            std::string::npos)
      << text;
}

TEST(ExplainGolden, Q11ChoosesBandJoin) {
  const std::string text = ExplainQuery(Edge(), 11, EvaluatorOptions{});
  EXPECT_NE(
      text.find("let $l := band-count-join op=> "
                "domain=document()/site/open_auctions/open_auction/initial "
                "[sort domain keys once, binary-search each probe]"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("summary: hash-join=0 band-count-join=1 construct-template=1 "
                      "joinable-nested-loop=0"),
            std::string::npos)
      << text;
}

TEST(ExplainGolden, Q12ChoosesBandJoin) {
  const std::string text = ExplainQuery(Edge(), 12, EvaluatorOptions{});
  EXPECT_NE(text.find("band-count-join op=>"), std::string::npos) << text;
  EXPECT_NE(text.find("summary: hash-join=0 band-count-join=1 construct-template=1 "
                      "joinable-nested-loop=0"),
            std::string::npos)
      << text;
}

TEST(ExplainGolden, BandJoinOffFallsBackToNestedLoop) {
  EvaluatorOptions options;
  options.hash_join = false;  // also gates the band join
  const std::string text = ExplainQuery(Edge(), 11, options);
  EXPECT_EQ(text.find("band-count-join op"), std::string::npos) << text;
  EXPECT_NE(text.find("nested-loop (band-shape)"), std::string::npos) << text;
  EXPECT_NE(text.find("joinable-nested-loop=1"), std::string::npos) << text;
}

// Compiled-pipeline fusion goldens: the hot Table 3 shapes must lower to
// fused loops, rendered with their stage chain and counted in the
// CI-parsable summary line.
TEST(ExplainGolden, Q1FusesIdFilterPipeline) {
  const std::string text = ExplainQuery(Edge(), 1, EvaluatorOptions{});
  // The [@id = "person0"] filter belongs to the domain path, which the
  // path evaluator answers with the ID index.
  EXPECT_NE(text.find("pipeline 0 fused=[scan|emit]"), std::string::npos)
      << text;
  EXPECT_NE(text.find("person[1 pred] access=[child-cursor,child-cursor,"
                      "child-cursor+id-index]"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("compiled-pipeline=1"), std::string::npos) << text;
}

TEST(ExplainGolden, Q5FusesCompareFilter) {
  const std::string text = ExplainQuery(Edge(), 5, EvaluatorOptions{});
  EXPECT_NE(text.find("pipeline 0 fused=[scan|filter|emit]"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("compiled-pipeline=1"), std::string::npos) << text;
}

// (An `=` conjunct against a literal would plan a hash join instead.)
TEST(ExplainGolden, AndWhereOverTwoChainsFuses) {
  const std::string text = ExplainText(
      Edge(),
      "for $p in document(\"auction.xml\")/site/people/person "
      "where $p/profile/income > 5000 and $p/name < \"x\" return $p/@id",
      EvaluatorOptions{});
  EXPECT_NE(text.find("pipeline 0 fused=[scan|filter|emit]"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("compiled-pipeline=1"), std::string::npos) << text;
}

TEST(ExplainGolden, NonLiteralWhereOperandDoesNotFuse) {
  for (const char* where :
       {"$p/profile/income > $p/profile/age", "$p/name = \"x\" or $p = \"y\"",
        "contains($p/name, $p/@id)"}) {
    const std::string text = ExplainText(
        Edge(),
        std::string("for $p in document(\"auction.xml\")/site/people/person "
                    "where ") +
            where + " return $p/@id",
        EvaluatorOptions{});
    EXPECT_EQ(text.find("pipeline 0 fused"), std::string::npos)
        << where << "\n" << text;
    EXPECT_NE(text.find("compiled-pipeline=0"), std::string::npos)
        << where << "\n" << text;
  }
}

TEST(ExplainGolden, Q6FusesCountOnlyPipeline) {
  const std::string text = ExplainQuery(Edge(), 6, EvaluatorOptions{});
  EXPECT_NE(text.find("pipeline 0 fused=[scan|count]"), std::string::npos)
      << text;
  EXPECT_NE(text.find("compiled-pipeline=1"), std::string::npos) << text;
}

TEST(ExplainGolden, Q14FusesContainsPipeline) {
  const std::string text = ExplainQuery(Edge(), 14, EvaluatorOptions{});
  EXPECT_NE(text.find("pipeline 0 fused=[scan|filter|emit]"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("compiled-pipeline=1"), std::string::npos) << text;
}

TEST(ExplainGolden, PipelinesOffFallBackToGenericOperators) {
  EvaluatorOptions options;
  options.hash_join = false;  // also gates pipeline fusion
  const std::string text = ExplainQuery(Edge(), 6, options);
  EXPECT_EQ(text.find("pipeline 0 fused"), std::string::npos) << text;
  EXPECT_NE(text.find("compiled-pipeline=0"), std::string::npos) << text;
}

TEST(ExplainGolden, HashJoinOffIsFlaggedJoinable) {
  EvaluatorOptions options;
  options.hash_join = false;
  const std::string text = ExplainQuery(Dom(), 8, options);
  EXPECT_NE(text.find("nested-loop (joinable!)"), std::string::npos) << text;
  EXPECT_NE(text.find("joinable-nested-loop=1"), std::string::npos) << text;
}

TEST(Capabilities, StoresAdvertiseTheirStructures) {
  const StorageCapabilities edge = Edge().Capabilities();
  EXPECT_TRUE(edge.id_lookup);
  EXPECT_FALSE(edge.path_index);

  const StorageCapabilities dom = Dom().Capabilities();
  EXPECT_TRUE(dom.id_lookup);
  EXPECT_TRUE(dom.path_index);

  store::DomStore::Options bare_options;
  bare_options.build_tag_index = false;
  bare_options.build_id_index = false;
  bare_options.build_path_summary = false;
  auto bare = store::DomStore::Load(TestDocument(), bare_options);
  ASSERT_TRUE(bare.ok());
  EXPECT_FALSE((*bare)->Capabilities().id_lookup);
  EXPECT_FALSE((*bare)->Capabilities().path_index);

  auto fragmented = store::FragmentedStore::Load(TestDocument());
  ASSERT_TRUE(fragmented.ok());
  const StorageCapabilities frag = (*fragmented)->Capabilities();
  EXPECT_TRUE(frag.id_lookup);
  EXPECT_TRUE(frag.path_index);

  auto inlined = store::InlinedStore::Load(TestDocument(), xml::kAuctionDtd);
  ASSERT_TRUE(inlined.ok());
  const StorageCapabilities inl = (*inlined)->Capabilities();
  EXPECT_TRUE(inl.id_lookup);
  EXPECT_FALSE(inl.path_index);
}

// Band-join semantics: every comparison direction and operand order must
// match the generic nested loop byte for byte.
class BandJoinSemantics : public ::testing::Test {
 protected:
  static std::string Naive(const ParsedQuery& query) {
    EvaluatorOptions options;
    options.hash_join = false;
    Evaluator evaluator(&Dom(), options);
    auto result = evaluator.Run(query);
    XMARK_CHECK(result.ok());
    return SerializeSequence(*result);
  }

  static std::string Banded(const ParsedQuery& query, int64_t* rows) {
    Evaluator evaluator(&Dom(), EvaluatorOptions{});  // band join on
    auto result = evaluator.Run(query);
    XMARK_CHECK(result.ok());
    EXPECT_GE(evaluator.stats().band_joins_built, 1)
        << "band join did not engage";
    if (rows != nullptr) *rows = evaluator.stats().band_join_rows;
    return SerializeSequence(*result);
  }

  static std::string BandQuery(std::string_view predicate) {
    return std::string(R"(
for $p in document("auction.xml")/site/people/person
let $l := for $i in document("auction.xml")/site/open_auctions/open_auction/initial
          where )") +
           std::string(predicate) + R"(
          return $i
return <items name="{$p/name/text()}">{count($l)}</items>
)";
  }
};

TEST_F(BandJoinSemantics, AllComparisonDirectionsMatchInterpreter) {
  const char* predicates[] = {
      "$p/profile/income > 5000 * $i/text()",
      "$p/profile/income >= 5000 * $i/text()",
      "$p/profile/income < 5000 * $i/text()",
      "$p/profile/income <= 5000 * $i/text()",
      // Swapped operand order: the optimizer must normalize the direction.
      "5000 * $i/text() < $p/profile/income",
      "5000 * $i/text() >= $p/profile/income",
  };
  for (const char* predicate : predicates) {
    auto parsed = ParseQueryText(BandQuery(predicate));
    ASSERT_TRUE(parsed.ok()) << predicate;
    int64_t rows = 0;
    EXPECT_EQ(Banded(*parsed, &rows), Naive(*parsed)) << predicate;
  }
}

TEST_F(BandJoinSemantics, Q11AndQ12MatchInterpreterWithStats) {
  for (int q : {11, 12}) {
    auto parsed = ParseQueryText(bench::GetQuery(q).text);
    ASSERT_TRUE(parsed.ok());
    int64_t rows = 0;
    EXPECT_EQ(Banded(*parsed, &rows), Naive(*parsed)) << "Q" << q;
    EXPECT_GT(rows, 0) << "Q" << q << " band probes produced no rows";
  }
}

TEST_F(BandJoinSemantics, NonCountUseFallsBackAndStaysCorrect) {
  // $l is also returned directly, so the count-only analysis must refuse
  // the rewrite and the results must still match.
  const std::string query = R"(
for $p in document("auction.xml")/site/people/person
let $l := for $i in document("auction.xml")/site/open_auctions/open_auction/initial
          where $p/profile/income > 5000 * $i/text()
          return $i
return <items>{count($l)}{$l}</items>
)";
  auto parsed = ParseQueryText(query);
  ASSERT_TRUE(parsed.ok());
  Evaluator evaluator(&Dom(), EvaluatorOptions{});
  auto result = evaluator.Run(*parsed);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(evaluator.stats().band_joins_built, 0)
      << "rewrite must not fire when $l escapes count()";
  EXPECT_EQ(SerializeSequence(*result), Naive(*parsed));
}

TEST_F(BandJoinSemantics, EagerLetProbesAtBindTime) {
  // Under eager-let semantics (systems E-G) the probe must run at bind
  // time and still match the nested loop byte for byte.
  for (int q : {11, 12}) {
    auto parsed = ParseQueryText(bench::GetQuery(q).text);
    ASSERT_TRUE(parsed.ok());
    EvaluatorOptions eager;
    eager.lazy_let = false;
    Evaluator banded(&Dom(), eager);
    auto a = banded.Run(*parsed);
    ASSERT_TRUE(a.ok());
    EXPECT_GE(banded.stats().band_joins_built, 1);
    EvaluatorOptions naive = eager;
    naive.hash_join = false;
    Evaluator nested(&Dom(), naive);
    auto b = nested.Run(*parsed);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(SerializeSequence(*a), SerializeSequence(*b)) << "Q" << q;
  }
}

TEST_F(BandJoinSemantics, ProbeInputReboundRefusesRewrite) {
  // A later clause rebinds $p, which the band FLWOR's probe side reads:
  // the rewrite must refuse (the probe would otherwise see the rebound
  // value at the count() site) and results must match the nested loop
  // under both let-evaluation policies.
  const std::string query = R"(
for $p in document("auction.xml")/site/people/person
let $l := for $i in document("auction.xml")/site/open_auctions/open_auction/initial
          where $p/profile/income > 5000 * $i/text()
          return $i
for $p in document("auction.xml")/site/open_auctions/open_auction
return count($l)
)";
  auto parsed = ParseQueryText(query);
  ASSERT_TRUE(parsed.ok());
  for (bool lazy : {true, false}) {
    EvaluatorOptions planned;
    planned.lazy_let = lazy;
    Evaluator with_planner(&Dom(), planned);
    auto a = with_planner.Run(*parsed);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(with_planner.stats().band_joins_built, 0)
        << "rewrite must refuse when a probe input is rebound";
    EvaluatorOptions naive = planned;
    naive.hash_join = false;
    Evaluator nested(&Dom(), naive);
    auto b = nested.Run(*parsed);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(SerializeSequence(*a), SerializeSequence(*b))
        << "lazy_let=" << lazy;
  }
}

// Child-path kernel engagement: on A-E (hash_join on) the child chains of
// Q10, Q17 and Q20 are lowered — Explain marks each such path
// `child-kernel` and each native step predicate `native-predicate`, and
// the summary's trailing field counts the chains. F and G, the byte
// oracle, lower none.
// Explain lines ending in `suffix` that contain `needle`.
size_t CountLines(const std::string& text, const std::string& needle,
                  const std::string& suffix) {
  size_t count = 0;
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(begin, end - begin);
    if (line.find(needle) != std::string::npos && line.size() >= suffix.size() &&
        line.compare(line.size() - suffix.size(), suffix.size(), suffix) == 0) {
      ++count;
    }
    begin = end + 1;
  }
  return count;
}

// Explain lines of path `spec` that carry the kernel marker.
size_t KernelLines(const std::string& text, const std::string& spec) {
  return CountLines(text, "path " + spec + " access=", " child-kernel");
}

TEST(ChildKernelEngagement, LoweredOnAThroughEAndNeverOnFG) {
  const std::vector<std::string> q10_chains = {
      "$t/profile/gender/text()", "$t/profile/age/text()",
      "$t/profile/education/text()", "$t/profile/income/text()",
      "$t/name/text()", "$t/address/street/text()",
      "$t/address/city/text()", "$t/address/country/text()",
      "$t/emailaddress/text()", "$t/homepage/text()",
      "$t/creditcard/text()",
      "$t/profile/interest/@category",  // the hash-join key
  };
  for (int s = 0; s < 7; ++s) {
    const bench::SystemId id = static_cast<bench::SystemId>(s);
    const bool kernel = id != bench::SystemId::kF && id != bench::SystemId::kG;
    std::unique_ptr<bench::Engine> engine = bench::Engine::Create(id);
    ASSERT_TRUE(engine
                    ->LoadDocument(bench::Engine::kDefaultDocumentId,
                                   TestDocument())
                    .ok());
    auto explain = [&](int q) {
      auto text = engine->Explain(bench::GetQuery(q).text);
      XMARK_CHECK(text.ok());
      return *text;
    };
    const std::string label(1, bench::SystemLabel(id));
    // The fusable Table 3 queries fuse wherever the kernel runs.
    for (int q : {1, 5, 6, 14}) {
      EXPECT_EQ(explain(q).find(" pipeline 0 fused=[scan") != std::string::npos,
                kernel)
          << label << " Q" << q;
    }
    const std::string q10 = explain(10);
    const std::string q17 = explain(17);
    const std::string q20 = explain(20);
    if (!kernel) {
      for (const std::string* text : {&q10, &q17, &q20}) {
        EXPECT_EQ(text->find("child-kernel "), std::string::npos) << label;
        EXPECT_EQ(text->find("native-predicate"), std::string::npos) << label;
        EXPECT_NE(text->find("compiled-pipeline=0 child-kernels=0\n"),
                  std::string::npos)
            << label << "\n" << *text;
      }
      continue;
    }
    for (const std::string& chain : q10_chains) {
      EXPECT_EQ(KernelLines(q10, chain), 1u) << label << " " << chain;
    }
    EXPECT_NE(q10.find(" child-kernels=12\n"), std::string::npos)
        << label << "\n" << q10;
    // Q17: the where clause's empty() operand and the attribute value
    // template.
    EXPECT_EQ(KernelLines(q17, "$p/homepage/text()"), 1u) << label;
    EXPECT_EQ(KernelLines(q17, "$p/name/text()"), 1u) << label;
    EXPECT_NE(q17.find(" child-kernels=2\n"), std::string::npos) << label;
    // Q20: three native predicates over four `income` chains, plus the
    // empty() operand.
    EXPECT_EQ(CountLines(q20, "op ", " native-predicate"), 3u) << label;
    EXPECT_EQ(KernelLines(q20, "/income"), 4u) << label << "\n" << q20;
    EXPECT_EQ(KernelLines(q20, "$p/profile/income"), 1u) << label;
    EXPECT_NE(q20.find(" child-kernels=5\n"), std::string::npos) << label;
  }
}

// contains/starts-with step predicates go native where the kernel runs
// (A-E) and stay on the generic Focus on F.
TEST(ChildKernelEngagement, StringPredicatesGoNativeOnAThroughE) {
  const char* const text =
      "count(document(\"auction.xml\")/site/people/person"
      "[contains(name, \"x\")][starts-with(@id, \"person1\")])";
  for (int s = 0; s < 6; ++s) {
    const bench::SystemId id = static_cast<bench::SystemId>(s);
    std::unique_ptr<bench::Engine> engine = bench::Engine::Create(id);
    ASSERT_TRUE(engine
                    ->LoadDocument(bench::Engine::kDefaultDocumentId,
                                   TestDocument())
                    .ok());
    auto explain = engine->Explain(text);
    ASSERT_TRUE(explain.ok()) << explain.status();
    const size_t native = id == bench::SystemId::kF ? 0u : 2u;
    EXPECT_EQ(CountLines(*explain, "call ", " native-predicate"), native)
        << bench::SystemLabel(id) << "\n" << *explain;
  }
}

// Hash tables built by the plan's run: its filled join_state slots.
size_t JoinTablesBuilt(const QueryPlan& plan) {
  return static_cast<size_t>(
      std::count_if(plan.join_state.begin(), plan.join_state.end(),
                    [](const auto& table) { return table != nullptr; }));
}

// The plan of the last run is exposed for inspection; per-run caches live
// inside it, so two runs over different stores can never share join state.
TEST(PlanLifetime, FreshPlanPerRun) {
  auto parsed = ParseQueryText(bench::GetQuery(8).text);
  ASSERT_TRUE(parsed.ok());
  Evaluator dom_eval(&Dom(), EvaluatorOptions{});
  ASSERT_TRUE(dom_eval.Run(*parsed).ok());
  ASSERT_NE(dom_eval.plan(), nullptr);
  // Q8's decorrelated inner loop: exactly one hash table, built this run.
  EXPECT_EQ(JoinTablesBuilt(*dom_eval.plan()), 1u);
  EXPECT_EQ(dom_eval.plan()->ann().store_name, "native DOM");
  ASSERT_TRUE(dom_eval.Run(*parsed).ok());
  EXPECT_EQ(JoinTablesBuilt(*dom_eval.plan()), 1u);

  Evaluator edge_eval(&Edge(), EvaluatorOptions{});
  ASSERT_TRUE(edge_eval.Run(*parsed).ok());
  // The edge run's plan was built against the edge store; nothing from the
  // DOM run's caches is visible to it.
  EXPECT_EQ(edge_eval.plan()->ann().store_name, "edge table");
  EXPECT_EQ(JoinTablesBuilt(*edge_eval.plan()), 1u);
}

}  // namespace
}  // namespace xmark::query
