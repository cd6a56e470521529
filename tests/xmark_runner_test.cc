#include "xmark/runner.h"

#include <gtest/gtest.h>

#include "xmark/result_check.h"

namespace xmark::bench {
namespace {

BenchmarkRunner& SharedRunner() {
  static BenchmarkRunner* const kRunner = new BenchmarkRunner(0.002);
  return *kRunner;
}

TEST(RunnerTest, GeneratesDocumentOnce) {
  BenchmarkRunner& runner = SharedRunner();
  EXPECT_GT(runner.document().size(), 10000u);
  EXPECT_DOUBLE_EQ(runner.scale(), 0.002);
}

TEST(RunnerTest, LoadRecordsTable1Metrics) {
  BenchmarkRunner& runner = SharedRunner();
  ASSERT_TRUE(runner.LoadSystem(SystemId::kA).ok());
  const LoadInfo& info = runner.load_info(SystemId::kA);
  EXPECT_GT(info.bulkload_ms, 0.0);
  EXPECT_GT(info.database_bytes, 0u);
  EXPECT_EQ(info.catalog_entries, 2u);  // edge + attr relations
}

TEST(RunnerTest, RunQueryReportsPhases) {
  BenchmarkRunner& runner = SharedRunner();
  auto timing = runner.RunQuery(SystemId::kD, 1, /*repetitions=*/2);
  ASSERT_TRUE(timing.ok()) << timing.status();
  EXPECT_EQ(timing->query, 1);
  EXPECT_EQ(timing->system, SystemId::kD);
  EXPECT_GE(timing->compile.wall_ms, 0.0);
  EXPECT_GE(timing->execute.wall_ms, 0.0);
  EXPECT_EQ(timing->result_items, 1u);  // Q1 returns one name
  EXPECT_GT(timing->total_ms(), 0.0);
}

TEST(RunnerTest, RunQueryValidatesQueryNumber) {
  // GetQuery CHECKs on out-of-range numbers; valid edge numbers work.
  BenchmarkRunner& runner = SharedRunner();
  EXPECT_TRUE(runner.RunQuery(SystemId::kD, 20).ok());
}

TEST(ResultCheckTest, IdenticalResultsEquivalent) {
  query::Sequence a{query::Item(1.0), query::Item(std::string("x"))};
  query::Sequence b{query::Item(1.0), query::Item(std::string("x"))};
  EXPECT_TRUE(ResultsEquivalent(a, b));
}

TEST(ResultCheckTest, CardinalityMismatchExplained) {
  query::Sequence a{query::Item(1.0)};
  query::Sequence b{};
  EquivalenceOptions options;
  const std::string diff = ExplainDifference(a, b, options);
  EXPECT_NE(diff.find("cardinality"), std::string::npos);
}

TEST(ResultCheckTest, ItemDifferenceExplained) {
  query::Sequence a{query::Item(std::string("left"))};
  query::Sequence b{query::Item(std::string("right"))};
  EquivalenceOptions options;
  const std::string diff = ExplainDifference(a, b, options);
  EXPECT_NE(diff.find("item 0"), std::string::npos);
}

TEST(ResultCheckTest, AttributeOrderCanonicalized) {
  // Constructed nodes live in a NodeArena; static-storage views stay valid.
  auto arena = std::make_shared<query::NodeArena>();
  query::ConstructedNode* e1 = arena->AllocateNode();
  e1->tag = "a";
  e1->attributes = {{"x", "1"}, {"y", "2"}};
  query::ConstructedNode* e2 = arena->AllocateNode();
  e2->tag = "a";
  e2->attributes = {{"y", "2"}, {"x", "1"}};
  query::Sequence a{query::Item(query::ConstructedPtr(arena, e1))};
  query::Sequence b{query::Item(query::ConstructedPtr(arena, e2))};
  EquivalenceOptions options;
  EXPECT_TRUE(ResultsEquivalent(a, b, options));
  options.canonical_attributes = false;
  EXPECT_FALSE(ResultsEquivalent(a, b, options));
}

TEST(ResultCheckTest, UnorderedComparison) {
  query::Sequence a{query::Item(std::string("x")),
                    query::Item(std::string("y"))};
  query::Sequence b{query::Item(std::string("y")),
                    query::Item(std::string("x"))};
  EquivalenceOptions ordered;
  EXPECT_FALSE(ResultsEquivalent(a, b, ordered));
  EquivalenceOptions unordered;
  unordered.ignore_item_order = true;
  EXPECT_TRUE(ResultsEquivalent(a, b, unordered));
}

TEST(RunnerTest, EmbeddedSystemGReloadsPerQuery) {
  // System G's execute phase includes the document load: its Q1 must cost
  // materially more than D's on the same document.
  BenchmarkRunner& runner = SharedRunner();
  auto g = runner.RunQuery(SystemId::kG, 1, 2);
  auto d = runner.RunQuery(SystemId::kD, 1, 2);
  ASSERT_TRUE(g.ok() && d.ok());
  EXPECT_GT(g->execute.wall_ms, d->execute.wall_ms * 5);
}

}  // namespace
}  // namespace xmark::bench
