// serve_corpus: concurrent serving on a warm corpus. Two EngineSession
// clients on System D share one catalog of 8 sf-0.02 documents loaded by
// LoadCorpus at one load thread. Every request goes through the plan
// cache (EngineSession::Prepare, Execute, SerializeSequence); four in five
// bind one document with doc("corpus-NN.xml"), one in five fans out with
// collection().
//
// The literals of Q1, Q4, Q5, Q14 and Q20 vary: most requests draw one of
// a few hot values (skewed), the rest take a value never used before, so a
// fixed share of requests misses the plan cache by design. This exercises
// what the paper never measured: plan-cache hits and misses, the scope
// memo and catalog routing, the per-document compiles inside
// collection(), and session concurrency. Uncached compilation and
// mappings A-C are bypassed.

#include <array>
#include <cstdio>
#include <map>
#include <thread>

#include "gen/generator.h"
#include "gen/wordlist.h"
#include "perf/src/workloads.h"
#include "query/value.h"
#include "xmark/queries.h"

namespace xmark::perf {
namespace {

using bench::Engine;
using bench::EngineSession;
using bench::SystemId;

constexpr double kScale = 0.02;
constexpr size_t kDocs = 8;
constexpr size_t kClients = 2;
constexpr SystemId kSystem = SystemId::kD;
constexpr size_t kHot = 4;           // hot literal values per query
constexpr uint64_t kColdOneIn = 4;   // parameterized requests with a new value
constexpr uint64_t kCollectionOneIn = 5;
// Requests per client per second of loop in the fixed sequence. Two
// clients serve 520-710 requests/s each on a 4-vCPU host, so a program up
// to about 7x faster still ends its loops on time; one that outruns the
// sequence fails the run. The cold literals of one slice must fit the
// domains below, which holds up to about 15 s runs.
constexpr size_t kSequencePerSecond = 5000;
constexpr size_t kKinds = 20 * 2;  // query x {doc(), collection()}
constexpr int kCollectionScope = -1;

// A query whose literals the workload varies, and the literals it rewrites.
struct ParamSpec {
  int query;
  std::vector<std::string_view> literals;
};
const std::array<ParamSpec, 5>& Params() {
  static const std::array<ParamSpec, 5> params = {{
      {1, {"\"person0\""}},
      {4, {"\"person20\"", "\"person51\""}},
      {5, {">= 40"}},
      {14, {"\"gold\""}},
      {20, {"100000", "30000"}},
  }};
  return params;
}

std::string Quoted(const std::string& s) { return "\"" + s + "\""; }

// Seeded values of one parameterized query, each valid for the document:
// person ids below EntityCounts::persons, generator words, price and
// income thresholds.
std::vector<std::vector<std::string>> Domain(int q, double sf, Rng* rng) {
  const int64_t persons = gen::EntityCounts::ForScale(sf).persons;
  std::vector<std::vector<std::string>> values;
  auto person = [](int64_t id) { return Quoted("person" + std::to_string(id)); };
  switch (q) {
    case 1:
      for (int64_t id = 0; id < persons; ++id) values.push_back({person(id)});
      break;
    case 4:
      for (int i = 0; i < 4096; ++i) {
        const int64_t a = static_cast<int64_t>(rng->Below(persons));
        const int64_t b = (a + 1 + static_cast<int64_t>(rng->Below(persons - 1))) %
                          persons;
        values.push_back({person(a), person(b)});
      }
      break;
    case 5:
      for (int t = 0; t < 500; ++t) values.push_back({">= " + std::to_string(t)});
      break;
    case 14: {
      const gen::WordList& words = gen::WordList::Instance();
      for (size_t rank = 0; rank < std::min<size_t>(3000, words.size()); ++rank) {
        values.push_back({Quoted(words.word(rank))});
      }
      break;
    }
    case 20:
      for (int hi = 40; hi <= 200; ++hi) {
        for (int lo = 5; lo < 40; ++lo) {
          values.push_back({std::to_string(hi * 1000), std::to_string(lo * 1000)});
        }
      }
      break;
  }
  rng->Shuffle(&values);
  return values;
}

// Replaces every literal at once, so a replacement never feeds the next.
StatusOr<std::string> Substitute(std::string text,
                                 const std::vector<std::string_view>& literals,
                                 const std::vector<std::string>& values) {
  for (size_t i = 0; i < literals.size(); ++i) {
    XMARK_ASSIGN_OR_RETURN(
        text, ReplaceLiteral(std::move(text), literals[i],
                             "\x01" + std::to_string(i) + "\x01"));
  }
  for (size_t i = 0; i < literals.size(); ++i) {
    XMARK_ASSIGN_OR_RETURN(
        text, ReplaceLiteral(std::move(text),
                             "\x01" + std::to_string(i) + "\x01", values[i]));
  }
  return text;
}

std::string CorpusId(size_t d) {
  char id[32];
  std::snprintf(id, sizeof(id), "corpus-%02zu.xml", d);
  return id;
}

class ServeCorpus final : public Workload {
 public:
  Status Prepare(const Config& config) override {
    seed_ = config.seed;
    sf_ = config.sf > 0 ? config.sf : kScale;
    docs_ = GenerateDocuments(sf_, seed_, kDocs);
    for (size_t d = 0; d < kDocs; ++d) corpus_.push_back({CorpusId(d), docs_[d]});
    const size_t length = std::max<size_t>(
        64, static_cast<size_t>(config.seconds / kSetups * kSequencePerSecond));
    XMARK_RETURN_IF_ERROR(BuildSequences(length));
    return ComputeReferences();
  }

  void Teardown() override { engine_.reset(); }

  Status Setup(SpanLog* log, LoadCounter* loads, Tally* warm) override {
    ScopedSpan span(log, SpanName::kSetup);
    XMARK_ASSIGN_OR_RETURN(engine_, LoadEngine(kSystem, corpus_, LoadThreads(),
                                               true, log, loads));
    XMARK_ASSIGN_OR_RETURN(std::unique_ptr<EngineSession> session,
                           engine_->CreateSession());
    for (uint32_t t : warm_) {
      const ReadResult r = Read(*session, t, log, 0);
      warm->Check(r.status, r.bytes, texts_[t].expected, texts_[t].text);
    }
    return Status::OK();
  }

  StatusOr<LoopStats> Loop(double seconds, size_t max_requests, size_t clients,
                           const std::vector<SpanLog*>& logs) override {
    std::vector<std::unique_ptr<EngineSession>> sessions;
    for (size_t c = 0; c < clients; ++c) {
      XMARK_ASSIGN_OR_RETURN(std::unique_ptr<EngineSession> s,
                             engine_->CreateSession());
      sessions.push_back(std::move(s));
    }
    const EngineCounters before = EngineCounters::Of(*engine_);
    std::vector<LoopStats> per_client(clients);
    const uint64_t start = NowNs();
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    {
      std::vector<std::thread> threads;
      for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          const std::vector<uint32_t>& seq = sequences_[c];
          SpanLog* log = c < logs.size() ? logs[c] : nullptr;
          LoopStats& out = per_client[c];
          size_t i = 0;
          for (; i < seq.size(); ++i) {
            if (max_requests != 0 ? i >= max_requests : NowNs() >= deadline) {
              break;
            }
            const TextEntry& t = texts_[seq[i]];
            const uint64_t t0 = NowNs();
            const ReadResult r =
                Read(*sessions[c], seq[i], log, (c << 40) + i + 1);
            const uint64_t t1 = NowNs();
            ++out.ops;
            const bool collection = t.scope == kCollectionScope;
            out.samples.push_back(
                {static_cast<float>(MsBetween(t0, t1)),
                 static_cast<uint32_t>((t.query - 1) * 2 + (collection ? 1 : 0)),
                 collection});
            out.tally.Check(r.status, r.bytes, t.expected, t.text);
          }
          out.sequence_exhausted = i == seq.size();
        });
      }
      for (std::thread& t : threads) t.join();
    }
    LoopStats out;
    out.wall_s = MsBetween(start, NowNs()) / 1e3;
    for (LoopStats& c : per_client) {
      c.wall_s = 0;
      out.Merge(c);
    }
    before.AddDeltaTo(*engine_, &out);
    return out;
  }

  double DbBytesPerDocByte() const override {
    size_t bytes = 0;
    for (const std::string& d : docs_) bytes += d.size();
    return static_cast<double>(engine_->StorageBytes()) /
           static_cast<double>(bytes);
  }

  size_t Kinds() const override { return kKinds; }
  size_t Clients() const override { return kClients; }
  unsigned LoadThreads() const override { return 1; }
  const std::vector<std::string>& Documents() const override { return docs_; }

  std::vector<std::string> ProbeTexts() const override {
    std::vector<std::string> out;
    for (size_t i = 0; i < texts_.size() && out.size() < 400; ++i) {
      out.push_back(texts_[i].text);
    }
    return out;
  }

  std::vector<std::string> Describe() const override {
    size_t bytes = 0;
    for (const std::string& d : docs_) bytes += d.size();
    size_t requests = 0;
    for (const auto& s : sequences_) requests += s.size();
    char line[320];
    std::snprintf(
        line, sizeof(line),
        "serve_corpus: sf %g x %zu documents = %zu bytes (seeds %llu..%llu), "
        "system D, %zu clients, sequence %zu requests/client per slice, %zu "
        "distinct texts, %zu cold requests (%.2f%% of the sequence miss the "
        "plan cache by design), warm-up %zu requests",
        sf_, kDocs, bytes, static_cast<unsigned long long>(seed_),
        static_cast<unsigned long long>(seed_ + kDocs - 1), kClients,
        sequences_.empty() ? 0 : sequences_[0].size(), texts_.size(), cold_,
        requests == 0 ? 0.0 : 100.0 * static_cast<double>(cold_) /
                                  static_cast<double>(requests),
        warm_.size());
    return {line};
  }

  std::vector<std::string> RequestKeys(size_t count) const override {
    std::vector<std::string> keys;
    for (size_t c = 0; c < sequences_.size(); ++c) {
      for (size_t i = 0; i < count && i < sequences_[c].size(); ++i) {
        keys.push_back(std::to_string(c) + ":" + texts_[sequences_[c][i]].text);
      }
    }
    return keys;
  }

  void DropAll(SpanLog* log) override {
    for (const store::CorpusDocument& d : corpus_) {
      ScopedSpan span(log, SpanName::kDrop);
      span.Tag(static_cast<int64_t>(kSystem));
      (void)engine_->DropDocument(d.id);
    }
  }

 private:
  struct Variant {
    int query = 0;
    std::string text;  // literals substituted, document("auction.xml") entry
  };
  struct TextEntry {
    uint32_t variant = 0;
    int query = 0;
    int scope = 0;  // document index, or kCollectionScope
    std::string text;
    Digest expected;
  };

  ReadResult Read(EngineSession& session, uint32_t t, SpanLog* log,
                  uint64_t request) const {
    const TextEntry& e = texts_[t];
    return ReadSession(session, e.text, log, request, e.query,
                       static_cast<int>(kSystem),
                       e.scope == kCollectionScope ? static_cast<int>(kDocs) : 0);
  }

  uint32_t InternVariant(int q, std::string text) {
    auto [it, inserted] =
        variant_ids_.emplace(text, static_cast<uint32_t>(variants_.size()));
    if (inserted) variants_.push_back({q, std::move(text)});
    return it->second;
  }

  uint32_t InternText(uint32_t variant, int scope) {
    auto [it, inserted] = text_ids_.emplace(
        std::make_pair(variant, scope), static_cast<uint32_t>(texts_.size()));
    if (inserted) {
      const Variant& v = variants_[variant];
      texts_.push_back(
          {variant, v.query, scope,
           WithEntry(v.text, scope == kCollectionScope
                                 ? std::string(kCollectionEntry)
                                 : DocEntry(CorpusId(static_cast<size_t>(scope)))),
           {}});
    }
    return it->second;
  }

  Status BuildSequences(size_t length) {
    // Per query: the fixed text, or the seeded domain of literal values.
    std::array<std::vector<uint32_t>, 21> hot;  // variant ids, by query
    std::array<std::vector<std::vector<std::string>>, 21> domain;
    std::array<const ParamSpec*, 21> param{};
    for (const ParamSpec& p : Params()) param[p.query] = &p;
    for (int q = 1; q <= 20; ++q) {
      const std::string base(bench::GetQuery(q).text);
      if (param[q] == nullptr) {
        hot[q].push_back(InternVariant(q, base));
        continue;
      }
      Rng rng(seed_, 200 + static_cast<uint64_t>(q));
      domain[q] = Domain(q, sf_, &rng);
      for (size_t h = 0; h < kHot; ++h) {
        XMARK_ASSIGN_OR_RETURN(std::string text,
                               Substitute(base, param[q]->literals, domain[q][h]));
        hot[q].push_back(InternVariant(q, std::move(text)));
      }
    }
    // Warm-up: every fixed and hot text in every scope.
    for (int q = 1; q <= 20; ++q) {
      for (uint32_t v : hot[q]) {
        for (int scope = kCollectionScope; scope < static_cast<int>(kDocs); ++scope) {
          warm_.push_back(InternText(v, scope));
        }
      }
    }
    sequences_.assign(kClients, {});
    cold_ = 0;
    for (size_t c = 0; c < kClients; ++c) {
      Rng rng(seed_, 300 + c);
      std::array<size_t, 21> next_cold{};
      std::vector<int> block(20);
      std::vector<uint32_t>& seq = sequences_[c];
      seq.reserve(length);
      for (size_t i = 0; i < length; ++i) {
        if (i % 20 == 0) {
          for (int q = 0; q < 20; ++q) block[static_cast<size_t>(q)] = q + 1;
          rng.Shuffle(&block);
        }
        const int q = block[i % 20];
        const int scope = rng.Below(kCollectionOneIn) == 0
                              ? kCollectionScope
                              : static_cast<int>(rng.Below(kDocs));
        uint32_t variant = hot[q][0];
        if (param[q] != nullptr) {
          if (rng.Below(kColdOneIn) == 0) {
            // Cold values are partitioned between clients, so each is new.
            const size_t cold_index = kHot + c + kClients * next_cold[q]++;
            if (cold_index >= domain[q].size()) {
              return Status::InvalidArgument(
                  "Q" + std::to_string(q) + " has " +
                  std::to_string(domain[q].size()) +
                  " literal values, too few for the cold requests of a " +
                  std::to_string(length) + "-request sequence");
            }
            ++cold_;
            XMARK_ASSIGN_OR_RETURN(
                std::string text,
                Substitute(std::string(bench::GetQuery(q).text),
                           param[q]->literals, domain[q][cold_index]));
            variant = InternVariant(q, std::move(text));
          } else {
            // Skewed among the hot values: weights 12:6:4:3.
            const uint64_t r = rng.Below(25);
            variant = hot[q][r < 12 ? 0 : r < 18 ? 1 : r < 22 ? 2 : 3];
          }
        }
        seq.push_back(InternText(variant, scope));
      }
    }
    return Status::OK();
  }

  // References on the edge mapping (System A), which differs from D's:
  // each document's result, and for collection() the serialization of the
  // documents' results concatenated in id order.
  Status ComputeReferences() {
    XMARK_ASSIGN_OR_RETURN(
        auto reference,
        LoadEngine(SystemId::kA, corpus_, 1, true, nullptr, nullptr));
    std::vector<std::vector<uint32_t>> by_variant(variants_.size());
    for (uint32_t t = 0; t < texts_.size(); ++t) {
      by_variant[texts_[t].variant].push_back(t);
    }
    for (uint32_t v = 0; v < variants_.size(); ++v) {
      std::array<bool, kDocs> needed{};
      bool collection = false;
      for (uint32_t t : by_variant[v]) {
        if (texts_[t].scope == kCollectionScope) {
          collection = true;
        } else {
          needed[static_cast<size_t>(texts_[t].scope)] = true;
        }
      }
      std::array<query::Sequence, kDocs> results;
      for (size_t d = 0; d < kDocs; ++d) {
        if (!needed[d] && !collection) continue;
        const std::string text =
            WithEntry(variants_[v].text, DocEntry(CorpusId(d)));
        XMARK_ASSIGN_OR_RETURN(bench::PreparedQuery prepared,
                               reference->Prepare(text));
        XMARK_ASSIGN_OR_RETURN(results[d], reference->Execute(prepared));
      }
      for (uint32_t t : by_variant[v]) {
        if (texts_[t].scope == kCollectionScope) {
          std::vector<const query::Sequence*> parts;
          for (const query::Sequence& r : results) parts.push_back(&r);
          texts_[t].expected = DigestOf(SerializeConcatenation(parts));
        } else {
          texts_[t].expected = DigestOf(query::SerializeSequence(
              results[static_cast<size_t>(texts_[t].scope)]));
        }
      }
    }
    return Status::OK();
  }

  uint64_t seed_ = 0;
  double sf_ = kScale;
  std::vector<std::string> docs_;
  std::vector<store::CorpusDocument> corpus_;
  std::vector<Variant> variants_;
  std::map<std::string, uint32_t> variant_ids_;
  std::vector<TextEntry> texts_;
  std::map<std::pair<uint32_t, int>, uint32_t> text_ids_;
  std::vector<uint32_t> warm_;
  std::vector<std::vector<uint32_t>> sequences_;
  size_t cold_ = 0;
  std::unique_ptr<Engine> engine_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeCorpus() {
  return std::make_unique<ServeCorpus>();
}

}  // namespace xmark::perf
