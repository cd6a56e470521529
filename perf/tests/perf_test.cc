// The benchmark's own tests: the percentile rule, failure counting, seeded
// request sequences, and a deterministic plan-cache miss count. Run with
// `python3 perf/run.py --test`.

#include <gtest/gtest.h>

#include <numeric>

#include "perf/src/harness.h"
#include "perf/src/workloads.h"
#include "query/value.h"
#include "xmark/engine.h"

namespace xmark::perf {
namespace {

using bench::Engine;
using bench::SystemId;

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(HonestPercentile, NeedsTenSamplesBeyondTheRank) {
  // p99 of 1..1000 is rank 990: exactly ten samples lie beyond it.
  EXPECT_EQ(HonestPercentile(OneTo(1000), 0.99), 990.0);
  // With 999 samples the p99 rank is 990 and only nine lie beyond it.
  EXPECT_FALSE(HonestPercentile(OneTo(999), 0.99).has_value());
  // 60 samples (BENCH_PR10's p99): the p99 is the maximum, so unreported.
  EXPECT_FALSE(HonestPercentile(OneTo(60), 0.99).has_value());
  EXPECT_EQ(HonestPercentile(OneTo(20), 0.5), 10.0);
  EXPECT_FALSE(HonestPercentile(OneTo(19), 0.5).has_value());
  EXPECT_FALSE(HonestPercentile({}, 0.5).has_value());
}

TEST(Statistics, MedianAndGeoMean) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_NEAR(GeoMean({1, 100}), 10.0, 1e-9);
}

TEST(Statistics, LoadRateIsBytesOverTotalLoadTime) {
  LoadCounter setup;
  LoadCounter loop;
  setup.Add(SystemId::kA, 10, 1000000);
  loop.Add(SystemId::kB, 30, 1000000);
  loop.Add(SystemId::kB, 60, 3000000);
  // 5 MB in 100 ms, however the loads split between systems.
  EXPECT_NEAR(LoadCounter::MbPerSecond({&setup, &loop}), 50.0, 1e-9);
}

class FailureCounting : public ::testing::Test {
 protected:
  void SetUp() override {
    docs_ = GenerateDocuments(0.002, 3, 2);
    auto engine = LoadEngine(SystemId::kD,
                             {{"a.xml", docs_[0]}, {"b.xml", docs_[1]}}, 1,
                             false, nullptr, nullptr);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(*engine);
    auto session = engine_->CreateSession();
    ASSERT_TRUE(session.ok());
    session_ = std::move(*session);
    const ReadResult r = ReadSession(*session_, text_, nullptr, 0, 1, 3, 0);
    ASSERT_TRUE(r.status.ok());
    expected_ = DigestOf(r.bytes);
  }

  std::vector<std::string> docs_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<bench::EngineSession> session_;
  const std::string text_ = ScopedQuery(1, DocEntry("b.xml"));
  Digest expected_;
};

TEST_F(FailureCounting, MatchingResultPasses) {
  Tally tally;
  const ReadResult r = ReadSession(*session_, text_, nullptr, 0, 1, 3, 0);
  EXPECT_TRUE(tally.Check(r.status, r.bytes, expected_, "Q1"));
  EXPECT_EQ(tally.attempted, 1u);
  EXPECT_EQ(tally.failed, 0u);
}

TEST_F(FailureCounting, InjectedWrongResultIsAFailure) {
  Tally tally;
  ReadResult r = ReadSession(*session_, text_, nullptr, 0, 1, 3, 0);
  ASSERT_TRUE(r.status.ok());
  ASSERT_FALSE(r.bytes.empty());
  r.bytes[0] ^= 1;  // one corrupted byte
  EXPECT_FALSE(tally.Check(r.status, r.bytes, expected_, "Q1"));
  EXPECT_EQ(tally.failed, 1u);
  EXPECT_EQ(tally.mismatches, 1u);
  EXPECT_DOUBLE_EQ(tally.fail_ratio(), 1.0);
}

TEST_F(FailureCounting, NonOkStatusIsAFailure) {
  ASSERT_TRUE(engine_->DropDocument("b.xml").ok());
  Tally tally;
  const ReadResult r = ReadSession(*session_, text_, nullptr, 0, 1, 3, 0);
  EXPECT_FALSE(r.status.ok());
  EXPECT_FALSE(tally.Check(r.status, r.bytes, expected_, "Q1"));
  EXPECT_TRUE(tally.Count(Status::OK(), "load"));
  EXPECT_FALSE(tally.Count(Status::NotFound("gone"), "drop"));
  EXPECT_EQ(tally.attempted, 3u);
  EXPECT_EQ(tally.failed, 2u);
  EXPECT_EQ(tally.errors, 2u);
  EXPECT_NEAR(tally.fail_ratio(), 2.0 / 3.0, 1e-12);
}

TEST(CollectionReference, IsTheConcatenationOfDocumentResults) {
  const std::vector<std::string> docs = GenerateDocuments(0.002, 5, 2);
  auto engine = LoadEngine(SystemId::kD, {{"a.xml", docs[0]}, {"b.xml", docs[1]}},
                           1, false, nullptr, nullptr);
  ASSERT_TRUE(engine.ok());
  auto session = (*engine)->CreateSession();
  ASSERT_TRUE(session.ok());
  for (int q : {1, 5, 20}) {
    std::vector<query::Sequence> parts;
    for (const char* id : {"a.xml", "b.xml"}) {
      auto prepared = (*engine)->Prepare(ScopedQuery(q, DocEntry(id)));
      ASSERT_TRUE(prepared.ok());
      auto result = (*engine)->Execute(*prepared);
      ASSERT_TRUE(result.ok());
      parts.push_back(std::move(*result));
    }
    const ReadResult collection = ReadSession(
        **session, ScopedQuery(q, kCollectionEntry), nullptr, 0, q, 3, 2);
    ASSERT_TRUE(collection.status.ok());
    EXPECT_EQ(collection.bytes, SerializeConcatenation({&parts[0], &parts[1]}))
        << "Q" << q;
  }
}

Config SmallConfig(const std::string& workload, uint64_t seed) {
  Config config;
  config.workload = workload;
  config.seed = seed;
  config.seconds = 0.5;
  config.sf = 0.002;
  return config;
}

TEST(RequestSequence, SameSeedSameSequenceOtherSeedDiffers) {
  for (const std::string& workload : WorkloadNames()) {
    auto a = DescribeRequests(SmallConfig(workload, 11), 300);
    auto b = DescribeRequests(SmallConfig(workload, 11), 300);
    auto c = DescribeRequests(SmallConfig(workload, 12), 300);
    ASSERT_TRUE(a.ok()) << workload << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok() && c.ok()) << workload;
    EXPECT_GE(a->size(), 300u) << workload;
    EXPECT_EQ(*a, *b) << workload;
    EXPECT_NE(*a, *c) << workload;
  }
}

TEST(ServeCorpus, PlanCacheMissesRepeatForOneSeed) {
  Config config = SmallConfig("serve_corpus", 21);
  config.max_requests = 400;
  auto first = ServeCorpusMisses(config);
  auto second = ServeCorpusMisses(config);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT(*first, 0u);  // cold literals miss by design
  EXPECT_EQ(*first, *second);
}

TEST(Workloads, SmallRunsAreCorrect) {
  for (const std::string& workload : WorkloadNames()) {
    Config config = SmallConfig(workload, 31);
    config.max_requests = 30;
    auto report = RunWorkload(config);
    ASSERT_TRUE(report.ok()) << workload << ": " << report.status().ToString();
    EXPECT_TRUE(report->correct) << workload;
    EXPECT_GT(report->tally.attempted, 0u) << workload;
    EXPECT_EQ(report->tally.failed, 0u)
        << workload << ": " << report->tally.first_failure;
    ASSERT_NE(report->Find("setup_s"), nullptr) << workload;
    ASSERT_NE(report->Find("qps"), nullptr) << workload;
  }
}

TEST(Workloads, AnExhaustedSequenceFailsTheRun) {
  // A loop allowed more requests than the sequence holds stands for a
  // program fast enough to outrun it: the run must not pass as correct.
  for (const std::string workload : {"serve_corpus", "ingest_churn"}) {
    Config config = SmallConfig(workload, 31);
    config.max_requests = 100000;
    auto report = RunWorkload(config);
    ASSERT_TRUE(report.ok()) << workload << ": " << report.status().ToString();
    EXPECT_FALSE(report->correct) << workload;
    EXPECT_EQ(report->tally.failed, 0u) << workload;
  }
}

}  // namespace
}  // namespace xmark::perf
