// ingest_churn: writes beside reads, one client. Systems A-D take turns;
// each keeps a rolling catalog of a few documents. One cycle LoadDocuments
// a new sf-0.02 document at two load threads, runs doc()-scoped Q1-Q20
// against it through a session (cold: a new store id misses the plan
// cache), runs one collection() over the window, and DropDocuments the
// oldest document.
//
// Bulkload dominates: parse, store build, index build, catalog commit,
// through the intra-document parallel load path. The reads measure what a
// fresh document costs the query side, so a change that moves work from
// load to first query shows here as a trade-off, not a gain. The plan
// cache never evicts and store ids are never reused, so entries for
// dropped documents pile up; rss_peak_mb shows it.

#include <array>
#include <cstdio>
#include <deque>
#include <map>

#include "perf/src/workloads.h"
#include "query/value.h"

namespace xmark::perf {
namespace {

using bench::Engine;
using bench::EngineSession;
using bench::SystemId;

constexpr double kScale = 0.02;
constexpr size_t kPool = 4;    // distinct document contents
constexpr size_t kWindow = 3;  // documents each catalog keeps between cycles
constexpr unsigned kLoadThreads = 2;
constexpr std::array<SystemId, 4> kSystems = {SystemId::kA, SystemId::kB,
                                              SystemId::kC, SystemId::kD};
// Cycles in the fixed sequence per second of loop. The loop runs 26-40
// cycles/s on a 4-vCPU host, so a program up to about 10x faster still
// ends its loops on time; one that outruns the sequence fails the run.
constexpr size_t kCyclesPerSecond = 400;
constexpr size_t kKinds = 20 * kSystems.size();  // query x system
constexpr uint32_t kNoKind = ~0u;                  // collection() samples

std::string DocId(size_t n) {
  char id[32];
  std::snprintf(id, sizeof(id), "doc-%06zu.xml", n);
  return id;
}

class IngestChurn final : public Workload {
 public:
  Status Prepare(const Config& config) override {
    seed_ = config.seed;
    sf_ = config.sf > 0 ? config.sf : kScale;
    pool_ = GenerateDocuments(sf_, seed_, kPool);
    Rng rng(seed_, 500);
    for (auto& window : initial_) {
      for (uint8_t& content : window) {
        content = static_cast<uint8_t>(rng.Below(kPool));
      }
    }
    const size_t cycles = std::max<size_t>(
        8, static_cast<size_t>(config.seconds / kSetups * kCyclesPerSecond));
    for (size_t c = 0; c < cycles; ++c) {
      Cycle cycle;
      cycle.system = static_cast<uint8_t>(c % kSystems.size());
      cycle.content = static_cast<uint8_t>(rng.Below(kPool));
      std::vector<int> order(20);
      for (int q = 0; q < 20; ++q) order[static_cast<size_t>(q)] = q + 1;
      rng.Shuffle(&order);
      for (size_t i = 0; i < 20; ++i) {
        cycle.order[i] = static_cast<uint8_t>(order[i]);
      }
      cycle.collection_query = static_cast<uint8_t>(rng.Below(20) + 1);
      cycles_.push_back(cycle);
    }
    return ComputeReferences();
  }

  void Teardown() override {
    for (auto& s : sessions_) s.reset();
    for (auto& e : engines_) e.reset();
  }

  Status Setup(SpanLog* log, LoadCounter* loads, Tally* warm) override {
    ScopedSpan span(log, SpanName::kSetup);
    // Fresh engines hold each system's initial window.
    next_id_ = 0;
    for (size_t s = 0; s < kSystems.size(); ++s) {
      windows_[s].clear();
      std::vector<store::CorpusDocument> docs;
      for (uint8_t content : initial_[s]) {
        windows_[s].push_back({DocId(next_id_++), content});
        docs.push_back({windows_[s].back().id, pool_[content]});
      }
      XMARK_ASSIGN_OR_RETURN(
          engines_[s], LoadEngine(kSystems[s], docs, kLoadThreads, false, log,
                                  loads));
      XMARK_ASSIGN_OR_RETURN(sessions_[s], engines_[s]->CreateSession());
    }
    for (size_t s = 0; s < kSystems.size(); ++s) {
      for (const WindowDoc& doc : windows_[s]) {
        for (int q = 1; q <= 20; ++q) {
          const ReadResult r =
              ReadSession(*sessions_[s], ScopedQuery(q, DocEntry(doc.id)), log,
                          0, q, static_cast<int>(kSystems[s]), 0);
          warm->Check(r.status, r.bytes, reads_[q - 1][doc.content],
                      "warm-up " + doc.id);
        }
      }
    }
    return Status::OK();
  }

  StatusOr<LoopStats> Loop(double seconds, size_t max_requests,
                           size_t /*clients*/,
                           const std::vector<SpanLog*>& logs) override {
    SpanLog* log = logs.empty() ? nullptr : logs[0];
    LoopStats out;
    std::array<EngineCounters, kSystems.size()> before;
    for (size_t s = 0; s < kSystems.size(); ++s) {
      before[s] = EngineCounters::Of(*engines_[s]);
    }
    out.samples.reserve(cycles_.size() * 21);
    const uint64_t start = NowNs();
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    uint64_t request = 0;
    for (size_t c = 0;; ++c) {
      if (max_requests != 0 ? c >= max_requests : NowNs() >= deadline) break;
      if (c == cycles_.size()) {
        out.sequence_exhausted = true;
        break;
      }
      const Cycle& cycle = cycles_[c];
      const size_t s = cycle.system;
      const SystemId system = kSystems[s];
      Engine& engine = *engines_[s];
      EngineSession& session = *sessions_[s];

      const std::string id = DocId(next_id_++);
      const std::string& xml = pool_[cycle.content];
      {
        ScopedSpan span(log, SpanName::kLoad, ++request);
        span.Tag(static_cast<int64_t>(system), 1,
                 static_cast<int64_t>(xml.size()));
        const uint64_t t0 = NowNs();
        const Status status = engine.LoadDocument(id, xml);
        out.loads.Add(system, MsBetween(t0, NowNs()), xml.size());
        ++out.ops;
        out.tally.Count(status, "LoadDocument " + id);
      }
      windows_[s].push_back({id, cycle.content});

      const std::string entry = DocEntry(id);
      for (uint8_t q : cycle.order) {
        const std::string text = ScopedQuery(q, entry);
        const uint64_t t0 = NowNs();
        const ReadResult r = ReadSession(session, text, log, ++request, q,
                                         static_cast<int>(system), 0);
        const uint64_t t1 = NowNs();
        ++out.ops;
        out.samples.push_back(
            {static_cast<float>(MsBetween(t0, t1)),
             static_cast<uint32_t>((q - 1) * kSystems.size() + s), false});
        out.tally.Check(r.status, r.bytes, reads_[q - 1][cycle.content], text);
      }

      {
        const std::string text =
            ScopedQuery(cycle.collection_query, kCollectionEntry);
        const uint64_t t0 = NowNs();
        const ReadResult r =
            ReadSession(session, text, log, ++request, cycle.collection_query,
                        static_cast<int>(system),
                        static_cast<int>(windows_[s].size()));
        const uint64_t t1 = NowNs();
        ++out.ops;
        out.samples.push_back(
            {static_cast<float>(MsBetween(t0, t1)), kNoKind, true});
        out.tally.Check(r.status, r.bytes, collections_[c], text);
      }

      {
        const std::string oldest = windows_[s].front().id;
        windows_[s].pop_front();
        ScopedSpan span(log, SpanName::kDrop, ++request);
        span.Tag(static_cast<int64_t>(system));
        const Status status = engine.DropDocument(oldest);
        ++out.ops;
        out.tally.Count(status, "DropDocument " + oldest);
      }
    }
    out.wall_s = MsBetween(start, NowNs()) / 1e3;
    for (size_t s = 0; s < kSystems.size(); ++s) {
      before[s].AddDeltaTo(*engines_[s], &out);
    }
    return out;
  }

  double DbBytesPerDocByte() const override {
    double stored = 0;
    double xml = 0;
    for (size_t s = 0; s < kSystems.size(); ++s) {
      stored += static_cast<double>(engines_[s]->StorageBytes());
      for (const WindowDoc& d : windows_[s]) {
        xml += static_cast<double>(pool_[d.content].size());
      }
    }
    return stored / xml;
  }

  size_t Kinds() const override { return kKinds; }
  size_t Clients() const override { return 1; }
  unsigned LoadThreads() const override { return kLoadThreads; }
  const std::vector<std::string>& Documents() const override { return pool_; }

  std::vector<std::string> ProbeTexts() const override {
    std::vector<std::string> texts;
    for (size_t c = 0; c < cycles_.size() && texts.size() < 400; ++c) {
      for (uint8_t q : cycles_[c].order) {
        texts.push_back(ScopedQuery(q, DocEntry(DocId(c))));
      }
      texts.push_back(
          ScopedQuery(cycles_[c].collection_query, kCollectionEntry));
    }
    return texts;
  }

  std::vector<std::string> Describe() const override {
    size_t bytes = 0;
    for (const std::string& d : pool_) bytes += d.size();
    char line[320];
    std::snprintf(
        line, sizeof(line),
        "ingest_churn: sf %g, pool of %zu documents = %zu bytes (seeds "
        "%llu..%llu), systems A-D in turn, window %zu documents, load "
        "threads %u, sequence %zu cycles (load + 20 reads + collection() + "
        "drop)",
        sf_, kPool, bytes, static_cast<unsigned long long>(seed_),
        static_cast<unsigned long long>(seed_ + kPool - 1), kWindow,
        kLoadThreads, cycles_.size());
    std::vector<std::string> lines = {line};
    lines.insert(lines.end(), notes_.begin(), notes_.end());
    return lines;
  }

  std::vector<std::string> RequestKeys(size_t count) const override {
    std::vector<std::string> keys;
    for (size_t c = 0; c < cycles_.size() && keys.size() < count; ++c) {
      const Cycle& cycle = cycles_[c];
      const std::string sys(1, bench::SystemLabel(kSystems[cycle.system]));
      keys.push_back("load " + sys + " content " +
                     std::to_string(cycle.content));
      for (uint8_t q : cycle.order) {
        keys.push_back("Q" + std::to_string(q) + "@" + sys);
      }
      keys.push_back("collection Q" + std::to_string(cycle.collection_query) +
                     "@" + sys);
      keys.push_back("drop " + sys);
    }
    keys.resize(std::min(keys.size(), count));
    return keys;
  }

  void DropAll(SpanLog* log) override {
    for (size_t s = 0; s < kSystems.size(); ++s) {
      for (const WindowDoc& d : windows_[s]) {
        ScopedSpan span(log, SpanName::kDrop);
        span.Tag(static_cast<int64_t>(kSystems[s]));
        (void)engines_[s]->DropDocument(d.id);
      }
    }
  }

 private:
  struct Cycle {
    uint8_t system = 0;
    uint8_t content = 0;
    std::array<uint8_t, 20> order{};
    uint8_t collection_query = 1;
  };
  struct WindowDoc {
    std::string id;
    uint8_t content = 0;
  };

  // References on the edge and DOM mappings for every (query, content),
  // which must agree; each collection() reference is the id-order
  // concatenation of its window's per-document edge results.
  Status ComputeReferences() {
    std::vector<store::CorpusDocument> docs;
    for (size_t i = 0; i < kPool; ++i) {
      docs.push_back({"pool-" + std::to_string(i) + ".xml", pool_[i]});
    }
    XMARK_ASSIGN_OR_RETURN(auto edge, LoadEngine(SystemId::kA, docs, 1, false,
                                                 nullptr, nullptr));
    XMARK_ASSIGN_OR_RETURN(auto dom, LoadEngine(SystemId::kD, docs, 1, false,
                                                nullptr, nullptr));
    // Declared after the engines: results are released first.
    std::array<std::array<query::Sequence, kPool>, 20> results;
    for (int q = 1; q <= 20; ++q) {
      for (size_t i = 0; i < kPool; ++i) {
        const std::string text = ScopedQuery(q, DocEntry(docs[i].id));
        XMARK_ASSIGN_OR_RETURN(bench::PreparedQuery e, edge->Prepare(text));
        XMARK_ASSIGN_OR_RETURN(results[q - 1][i], edge->Execute(e));
        const ReadResult d = ReadUncached(*dom, text, nullptr, 0, q,
                                          static_cast<int>(SystemId::kD));
        XMARK_RETURN_IF_ERROR(d.status);
        reads_[q - 1][i] = DigestOf(query::SerializeSequence(results[q - 1][i]));
        if (reads_[q - 1][i] != DigestOf(d.bytes)) {
          notes_.push_back("Q" + std::to_string(q) + " on pool document " +
                           std::to_string(i) +
                           ": edge and DOM references differ; its requests "
                           "count as failed");
          reads_[q - 1][i] = kNoAgreedResult;
        }
      }
    }
    std::array<std::deque<uint8_t>, kSystems.size()> windows;
    for (size_t s = 0; s < kSystems.size(); ++s) {
      windows[s].assign(initial_[s].begin(), initial_[s].end());
    }
    std::map<std::string, Digest> memo;
    for (const Cycle& cycle : cycles_) {
      std::deque<uint8_t>& window = windows[cycle.system];
      window.push_back(cycle.content);
      std::string key = std::to_string(cycle.collection_query) + ":";
      std::vector<const query::Sequence*> parts;
      for (uint8_t content : window) {
        key += static_cast<char>('0' + content);
        parts.push_back(&results[cycle.collection_query - 1][content]);
      }
      auto it = memo.find(key);
      if (it == memo.end()) {
        it = memo.emplace(key, DigestOf(SerializeConcatenation(parts))).first;
      }
      collections_.push_back(it->second);
      window.pop_front();
    }
    return Status::OK();
  }

  uint64_t seed_ = 0;
  double sf_ = kScale;
  std::vector<std::string> notes_;
  std::vector<std::string> pool_;
  std::array<std::array<uint8_t, kWindow>, kSystems.size()> initial_{};
  std::vector<Cycle> cycles_;
  std::array<std::array<Digest, kPool>, 20> reads_{};  // [query - 1][content]
  std::vector<Digest> collections_;  // per cycle

  std::array<std::unique_ptr<Engine>, kSystems.size()> engines_;
  std::array<std::unique_ptr<EngineSession>, kSystems.size()> sessions_;
  std::array<std::deque<WindowDoc>, kSystems.size()> windows_;
  size_t next_id_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeIngestChurn() {
  return std::make_unique<IngestChurn>();
}

}  // namespace xmark::perf
