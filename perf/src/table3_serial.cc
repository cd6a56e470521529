// table3_serial: the paper's single-user protocol (Table 3). One client;
// each request is an uncached Engine::Prepare, Engine::Execute and
// query::SerializeSequence of one of Q1-Q20 on one of systems A-E, all
// loaded from one sf-0.05 document at one load thread.
//
// Time goes to the store access paths, the planner (rebuilt inside every
// uncached Execute), the executor and the serializer across all four
// mappings. The plan cache, catalog fan-out and concurrency are bypassed,
// so an optimisation of those should leave this workload unchanged.
// Systems F (nested-loop Q8-Q12 would be ~90% of the wall time) and G
// (reloads the document per query) are reference profiles, not serving
// targets, and are left out.

#include <array>
#include <cstdio>

#include "perf/src/workloads.h"
#include "xmark/queries.h"

namespace xmark::perf {
namespace {

using bench::Engine;
using bench::SystemId;

constexpr double kScale = 0.05;
constexpr std::array<SystemId, 5> kSystems = {
    SystemId::kA, SystemId::kB, SystemId::kC, SystemId::kD, SystemId::kE};
constexpr size_t kKinds = 20 * kSystems.size();
constexpr std::string_view kDocId = "auction.xml";

class Table3Serial final : public Workload {
 public:
  Status Prepare(const Config& config) override {
    seed_ = config.seed;
    sf_ = config.sf > 0 ? config.sf : kScale;
    docs_ = GenerateDocuments(sf_, seed_, 1);
    corpus_ = {{std::string(kDocId), docs_[0]}};
    for (int q = 1; q <= 20; ++q) {
      texts_[q - 1] = std::string(bench::GetQuery(q).text);
    }
    // References on the edge and DOM mappings, which must agree: every
    // system is then checked against a mapping other than its own, and
    // systems A-E agree with each other.
    XMARK_ASSIGN_OR_RETURN(auto edge,
                           LoadEngine(SystemId::kA, corpus_, 1, false,
                                      nullptr, nullptr));
    XMARK_ASSIGN_OR_RETURN(auto dom,
                           LoadEngine(SystemId::kD, corpus_, 1, false,
                                      nullptr, nullptr));
    for (int q = 1; q <= 20; ++q) {
      const ReadResult e = ReadUncached(*edge, texts_[q - 1], nullptr, 0, q, 0);
      const ReadResult d = ReadUncached(*dom, texts_[q - 1], nullptr, 0, q, 3);
      XMARK_RETURN_IF_ERROR(e.status);
      XMARK_RETURN_IF_ERROR(d.status);
      expected_[q - 1] = DigestOf(e.bytes);
      if (e.bytes != d.bytes) {
        notes_.push_back("Q" + std::to_string(q) +
                         ": edge and DOM references differ; every request "
                         "of it counts as failed");
        expected_[q - 1] = kNoAgreedResult;
      }
    }
    return Status::OK();
  }

  void Teardown() override { engines_.clear(); }

  Status Setup(SpanLog* log, LoadCounter* loads, Tally* warm) override {
    ScopedSpan span(log, SpanName::kSetup);
    for (SystemId system : kSystems) {
      XMARK_ASSIGN_OR_RETURN(auto engine,
                             LoadEngine(system, corpus_, LoadThreads(), false,
                                        log, loads));
      engines_.push_back(std::move(engine));
    }
    for (int q = 1; q <= 20; ++q) {
      for (size_t s = 0; s < kSystems.size(); ++s) {
        const ReadResult r = ReadUncached(*engines_[s], texts_[q - 1], log, 0,
                                          q, static_cast<int>(kSystems[s]));
        warm->Check(r.status, r.bytes, expected_[q - 1], Kind(q, s));
      }
    }
    return Status::OK();
  }

  StatusOr<LoopStats> Loop(double seconds, size_t max_requests,
                           size_t /*clients*/,
                           const std::vector<SpanLog*>& logs) override {
    SpanLog* log = logs.empty() ? nullptr : logs[0];
    LoopStats out;
    std::vector<EngineCounters> before;
    for (const auto& e : engines_) before.push_back(EngineCounters::Of(*e));
    out.samples.reserve(static_cast<size_t>(seconds * 2000) + 16);
    const uint64_t start = NowNs();
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    std::vector<int> block;
    for (size_t i = 0;; ++i) {
      if (max_requests != 0 ? i >= max_requests : NowNs() >= deadline) break;
      if (i % kKinds == 0) block = Block(i / kKinds);
      const int kind = block[i % kKinds];
      const int q = kind / static_cast<int>(kSystems.size()) + 1;
      const size_t s = static_cast<size_t>(kind) % kSystems.size();
      const uint64_t t0 = NowNs();
      const ReadResult r = ReadUncached(*engines_[s], texts_[q - 1], log, i + 1,
                                        q, static_cast<int>(kSystems[s]));
      const uint64_t t1 = NowNs();
      ++out.ops;
      out.samples.push_back({static_cast<float>(MsBetween(t0, t1)),
                             static_cast<uint32_t>(kind), false});
      out.tally.Check(r.status, r.bytes, expected_[q - 1], Kind(q, s));
    }
    out.wall_s = MsBetween(start, NowNs()) / 1e3;
    for (size_t s = 0; s < engines_.size(); ++s) {
      before[s].AddDeltaTo(*engines_[s], &out);
    }
    return out;
  }

  double DbBytesPerDocByte() const override {
    double stored = 0;
    for (const auto& e : engines_) stored += static_cast<double>(e->StorageBytes());
    return stored / static_cast<double>(docs_[0].size() * engines_.size());
  }

  size_t Kinds() const override { return kKinds; }
  size_t Clients() const override { return 1; }
  unsigned LoadThreads() const override { return 1; }
  const std::vector<std::string>& Documents() const override { return docs_; }
  std::vector<std::string> ProbeTexts() const override {
    return {texts_.begin(), texts_.end()};
  }

  std::vector<std::string> Describe() const override {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "table3_serial: sf %g, 1 document of %zu bytes (seed %llu), "
                  "systems A-E, uncached prepare, %zu request kinds",
                  sf_, docs_[0].size(),
                  static_cast<unsigned long long>(seed_), kKinds);
    std::vector<std::string> lines = {line};
    lines.insert(lines.end(), notes_.begin(), notes_.end());
    return lines;
  }

  std::vector<std::string> RequestKeys(size_t count) const override {
    std::vector<std::string> keys;
    std::vector<int> block;
    for (size_t i = 0; i < count; ++i) {
      if (i % kKinds == 0) block = Block(i / kKinds);
      const int kind = block[i % kKinds];
      keys.push_back(Kind(kind / static_cast<int>(kSystems.size()) + 1,
                          static_cast<size_t>(kind) % kSystems.size()));
    }
    return keys;
  }

  void DropAll(SpanLog* log) override {
    for (size_t s = 0; s < engines_.size(); ++s) {
      ScopedSpan span(log, SpanName::kDrop);
      span.Tag(static_cast<int64_t>(kSystems[s]));
      (void)engines_[s]->DropDocument(kDocId);
    }
  }

 private:
  // Requests come in blocks that each hold every (query, system) kind
  // once, in a seeded order, so every run issues the same mix.
  std::vector<int> Block(size_t index) const {
    std::vector<int> block(kKinds);
    for (size_t k = 0; k < kKinds; ++k) block[k] = static_cast<int>(k);
    Rng rng(seed_, 1000 + index);
    rng.Shuffle(&block);
    return block;
  }

  static std::string Kind(int q, size_t s) {
    return "Q" + std::to_string(q) + "@" + bench::SystemLabel(kSystems[s]);
  }

  uint64_t seed_ = 0;
  double sf_ = kScale;
  std::vector<std::string> notes_;
  std::vector<std::string> docs_;
  std::vector<store::CorpusDocument> corpus_;
  std::array<std::string, 20> texts_;
  std::array<Digest, 20> expected_{};
  std::vector<std::unique_ptr<Engine>> engines_;
};

}  // namespace

std::unique_ptr<Workload> MakeTable3Serial() {
  return std::make_unique<Table3Serial>();
}

}  // namespace xmark::perf
