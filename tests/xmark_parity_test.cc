// Cross-system parity: the serialized results of Q1-Q20 on systems A-D
// (the four physical mappings, each under its own engine options) must be
// byte-identical to System F's — the no-index, nested-loop-only profile
// that is the structural oracle. Also pins the Q1 acceptance property: the
// equality predicate path performs no per-node string materialization.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "gen/generator.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "query/value.h"
#include "util/logging.h"
#include "xmark/engine.h"
#include "xmark/queries.h"

namespace xmark::bench {
namespace {

const std::string& TestDocument() {
  static const std::string* const kDoc = [] {
    gen::GeneratorOptions opts;
    opts.scale = 0.01;
    return new std::string(gen::XmlGen(opts).GenerateToString());
  }();
  return *kDoc;
}

// The four physical mappings: A=edge, B=fragmented, C=inlined, D=dom.
constexpr SystemId kStores[] = {SystemId::kA, SystemId::kB, SystemId::kC,
                                SystemId::kD};

Engine* LoadedEngine(SystemId id) {
  static std::map<SystemId, std::unique_ptr<Engine>>* const kEngines =
      new std::map<SystemId, std::unique_ptr<Engine>>();
  auto it = kEngines->find(id);
  if (it == kEngines->end()) {
    auto engine = Engine::Create(id);
    Status st =
        engine->LoadDocument(Engine::kDefaultDocumentId, TestDocument());
    XMARK_CHECK(st.ok());
    it = kEngines->emplace(id, std::move(engine)).first;
  }
  return it->second.get();
}

std::string RunSerialized(SystemId id, int query) {
  Engine* engine = LoadedEngine(id);
  auto parsed = query::ParseQueryText(GetQuery(query).text);
  XMARK_CHECK(parsed.ok());
  query::Evaluator evaluator(engine->store(), engine->evaluator_options());
  auto result = evaluator.Run(*parsed);
  XMARK_CHECK(result.ok());
  return SerializeSequence(*result);
}

class ParityTest : public ::testing::TestWithParam<int> {};

TEST_P(ParityTest, ByteIdenticalToSystemF) {
  const int query = GetParam();
  const std::string reference = RunSerialized(SystemId::kF, query);
  for (SystemId id : kStores) {
    EXPECT_EQ(RunSerialized(id, query), reference)
        << "system " << SystemLabel(id) << " Q" << query
        << " diverges from system F";
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, ParityTest, ::testing::Range(1, 21));

// Acceptance property of the zero-copy layer: Q1's [@id = "..."] equality
// path resolves entirely through attribute views — zero per-node string
// materializations on every store.
TEST(ZeroCopyStats, Q1EqualityPathMaterializesNothing) {
  for (SystemId id : kStores) {
    Engine* engine = LoadedEngine(id);
    auto parsed = query::ParseQueryText(GetQuery(1).text);
    ASSERT_TRUE(parsed.ok());
    query::Evaluator evaluator(engine->store(), engine->evaluator_options());
    auto result = evaluator.Run(*parsed);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(evaluator.stats().compare_allocs, 0)
        << "system " << SystemLabel(id)
        << " materialized strings on the Q1 equality path";
  }
}

// Navigation inside constructed elements is Unimplemented; the streaming
// comparison must surface that error instead of silently returning
// false/empty.
TEST(ZeroCopyStats, ConstructedNavigationErrorsMatchGenericPath) {
  Engine* engine = LoadedEngine(SystemId::kD);
  // `name` must be a tag the store's dictionary knows, or the step
  // short-circuits to an empty result before touching the item.
  auto parsed = query::ParseQueryText(
      "for $v in <x><name>1</name></x> return $v/name = \"1\"");
  ASSERT_TRUE(parsed.ok());
  query::Evaluator evaluator(engine->store(), engine->evaluator_options());
  auto result = evaluator.Run(*parsed);
  EXPECT_FALSE(result.ok())
      << "streaming comparison silently evaluated constructed-node "
         "navigation";
}

// The cursors actually engage: Q6 (descendant walk) on the edge store
// reports batched child scans on its child steps and one batched interval
// scan per descendant step input.
TEST(ZeroCopyStats, CursorScansReported) {
  Engine* engine = LoadedEngine(SystemId::kA);
  auto parsed = query::ParseQueryText(GetQuery(6).text);
  ASSERT_TRUE(parsed.ok());
  query::EvaluatorOptions opts = engine->evaluator_options();
  // Pin the generic operators: Q6 otherwise runs as a compiled pipeline,
  // whose scans are accounted separately.
  opts.hash_join = false;
  query::Evaluator evaluator(engine->store(), opts);
  ASSERT_TRUE(evaluator.Run(*parsed).ok());
  EXPECT_GT(evaluator.stats().cursor_scans, 0);
  EXPECT_GT(evaluator.stats().descendant_scans, 0);
}

// Acceptance property of the transparent hash-join index: the Q8/Q9 probe
// loops touch the index with string_view keys straight out of the store
// heap — every probe runs, none materializes a per-probe std::string.
TEST(ZeroCopyStats, JoinProbesMaterializeNothing) {
  for (SystemId id : kStores) {
    Engine* engine = LoadedEngine(id);
    for (int q : {8, 9}) {
      auto parsed = query::ParseQueryText(GetQuery(q).text);
      ASSERT_TRUE(parsed.ok());
      query::EvaluatorOptions opts = engine->evaluator_options();
      opts.hash_join = true;
      query::Evaluator evaluator(engine->store(), opts);
      ASSERT_TRUE(evaluator.Run(*parsed).ok());
      EXPECT_GT(evaluator.stats().join_probes, 0)
          << "system " << SystemLabel(id) << " Q" << q
          << " never probed the join index";
      EXPECT_EQ(evaluator.stats().join_probe_allocs, 0)
          << "system " << SystemLabel(id) << " Q" << q
          << " materialized strings on the join probe path";
    }
  }
}

}  // namespace
}  // namespace xmark::bench
