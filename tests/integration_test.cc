// End-to-end invariants across the whole stack: generator -> parser ->
// stores -> query processor, checked across scales and seeds.

#include <gtest/gtest.h>

#include "gen/generator.h"
#include "query/value.h"
#include "util/string_util.h"
#include "xmark/engine.h"
#include "xmark/queries.h"
#include "xml/serializer.h"

namespace xmark {
namespace {

using bench::Engine;
using bench::GetQuery;
using bench::SystemId;

std::unique_ptr<Engine> LoadEngine(SystemId id, double scale, uint64_t seed) {
  gen::GeneratorOptions options;
  options.scale = scale;
  options.seed = seed;
  auto engine = Engine::Create(id);
  const Status st = engine->LoadDocument(
      Engine::kDefaultDocumentId, gen::XmlGen(options).GenerateToString());
  EXPECT_TRUE(st.ok()) << st;
  return engine;
}

double NumberResult(Engine& engine, std::string_view query) {
  auto result = engine.Run(query);
  EXPECT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 1u);
  return result->front().number();
}

TEST(IntegrationTest, QueryCardinalitiesMatchGeneratorModel) {
  gen::GeneratorOptions options;
  options.scale = 0.005;
  gen::XmlGen gen(options);
  auto engine = Engine::Create(SystemId::kD);
  ASSERT_TRUE(
      engine->LoadDocument(Engine::kDefaultDocumentId, gen.GenerateToString())
          .ok());

  EXPECT_EQ(NumberResult(*engine, "count(//person)"),
            static_cast<double>(gen.counts().persons));
  EXPECT_EQ(NumberResult(*engine, "count(//open_auction)"),
            static_cast<double>(gen.counts().open_auctions));
  EXPECT_EQ(NumberResult(*engine, "count(//closed_auction)"),
            static_cast<double>(gen.counts().closed_auctions));
  // Q6's invariant: items on all continents == open + closed auctions.
  EXPECT_EQ(NumberResult(*engine, "count(/site/regions//item)"),
            static_cast<double>(gen.counts().items));
}

TEST(IntegrationTest, Q17FractionTracksHomepageProbability) {
  // ~50% of persons lack a homepage (the "rather high" fraction of §6.11).
  auto engine = LoadEngine(SystemId::kD, 0.01, 42);
  auto result = engine->Run(GetQuery(17).text);
  ASSERT_TRUE(result.ok());
  const double fraction = static_cast<double>(result->size()) /
                          gen::EntityCounts::ForScale(0.01).persons;
  EXPECT_GT(fraction, 0.35);
  EXPECT_LT(fraction, 0.65);
}

TEST(IntegrationTest, Q5SelectivityTracksPriceDistribution) {
  // price ~ 1 + Exp(mean 80): P(price >= 40) ~ exp(-39/80) ~ 0.61.
  auto engine = LoadEngine(SystemId::kD, 0.01, 42);
  auto result = engine->Run(GetQuery(5).text);
  ASSERT_TRUE(result.ok());
  const double count = result->front().number();
  const double fraction =
      count / gen::EntityCounts::ForScale(0.01).closed_auctions;
  EXPECT_GT(fraction, 0.45);
  EXPECT_LT(fraction, 0.75);
}

TEST(IntegrationTest, Q2ReturnsOneIncreasePerAuction) {
  auto engine = LoadEngine(SystemId::kD, 0.005, 42);
  auto result = engine->Run(GetQuery(2).text);
  ASSERT_TRUE(result.ok());
  // One constructed <increase> element per open auction (possibly empty).
  EXPECT_EQ(result->size(),
            static_cast<size_t>(gen::EntityCounts::ForScale(0.005)
                                    .open_auctions));
}

TEST(IntegrationTest, Q19IsSorted) {
  auto engine = LoadEngine(SystemId::kD, 0.005, 42);
  auto result = engine->Run(GetQuery(19).text);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->size(), 10u);
  std::string prev;
  for (const query::Item& item : *result) {
    ASSERT_TRUE(item.is_constructed());
    const std::string location = query::ConstructedStringValue(
        *item.constructed());
    EXPECT_LE(prev, location);
    prev = location;
  }
}

TEST(IntegrationTest, Q20GroupsPartitionAllPersons) {
  auto engine = LoadEngine(SystemId::kD, 0.01, 42);
  auto result = engine->Run(GetQuery(20).text);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  // <result><preferred>a</preferred><standard>b</standard>... — the four
  // groups partition the person set.
  const auto& root = *result->front().constructed();
  double total = 0;
  ASSERT_EQ(root.children().size(), 4u);
  for (const query::Item& child : root.children()) {
    const auto value =
        ParseDouble(query::ConstructedStringValue(*child.constructed()));
    ASSERT_TRUE(value.has_value());
    total += *value;
  }
  EXPECT_EQ(total, gen::EntityCounts::ForScale(0.01).persons);
}

TEST(IntegrationTest, Q18ConvertsEveryReserve) {
  auto engine = LoadEngine(SystemId::kD, 0.005, 42);
  auto result = engine->Run(GetQuery(18).text);
  ASSERT_TRUE(result.ok());
  for (const query::Item& item : *result) {
    ASSERT_TRUE(item.is_number());
    EXPECT_GT(item.number(), 0.0);
  }
}

TEST(IntegrationTest, ResultsStableAcrossSeedsInShape) {
  // Different seeds give different documents but the same structural
  // cardinalities (counts are seed-independent).
  auto e1 = LoadEngine(SystemId::kD, 0.005, 1);
  auto e2 = LoadEngine(SystemId::kD, 0.005, 2);
  EXPECT_EQ(NumberResult(*e1, "count(//person)"),
            NumberResult(*e2, "count(//person)"));
  EXPECT_EQ(NumberResult(*e1, "count(//item)"),
            NumberResult(*e2, "count(//item)"));
  // But the content differs.
  auto r1 = e1->Run(GetQuery(1).text);
  auto r2 = e2->Run(GetQuery(1).text);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_NE(query::SerializeSequence(*r1), query::SerializeSequence(*r2));
}

TEST(IntegrationTest, SerializerRoundTripsGeneratedDocument) {
  gen::GeneratorOptions options;
  options.scale = 0.002;
  const std::string original = gen::XmlGen(options).GenerateToString();
  auto doc = xml::Document::Parse(original);
  ASSERT_TRUE(doc.ok());
  const std::string once = xml::SerializeDocument(*doc);
  auto doc2 = xml::Document::Parse(once);
  ASSERT_TRUE(doc2.ok());
  EXPECT_EQ(xml::SerializeDocument(*doc2), once);
  EXPECT_EQ(doc->num_nodes(), doc2->num_nodes());
}

TEST(IntegrationTest, ScalingPreservesQueryShape) {
  // Result cardinalities scale roughly linearly with the factor for the
  // per-entity queries.
  auto small = LoadEngine(SystemId::kD, 0.005, 42);
  auto large = LoadEngine(SystemId::kD, 0.02, 42);
  for (int q : {2, 8, 11, 17}) {
    auto rs = small->Run(GetQuery(q).text);
    auto rl = large->Run(GetQuery(q).text);
    ASSERT_TRUE(rs.ok() && rl.ok()) << q;
    const double ratio =
        static_cast<double>(rl->size()) / static_cast<double>(rs->size());
    EXPECT_GT(ratio, 2.5) << "Q" << q;
    EXPECT_LT(ratio, 6.5) << "Q" << q;
  }
}

}  // namespace
}  // namespace xmark
