// Per-layer side calls of a traced run, and the per-layer metrics.
//
// Each metric comes from spans around calls the benchmark makes into a
// layer's public functions. Where the workload's own loop makes a call,
// its loop spans are used; otherwise the probe's side calls over the
// workload's own documents and texts supply it (for example uncached
// Engine::Prepare on serve_corpus, which only serves through the plan
// cache). The SAX parse and the direct store loads are always side calls.

#include <algorithm>
#include <array>
#include <map>
#include <thread>

#include "perf/src/workloads.h"
#include "query/parser.h"
#include "store/dom_store.h"
#include "store/edge_store.h"
#include "store/fragmented_store.h"
#include "store/inlined_store.h"
#include "xml/dtd.h"
#include "xml/sax_parser.h"

namespace xmark::perf {
namespace {

using bench::Engine;
using bench::EngineSession;
using bench::SystemId;

class NullHandler final : public xml::SaxHandler {
 public:
  Status OnStartElement(std::string_view,
                        const std::vector<xml::SaxAttribute>&) override {
    return Status::OK();
  }
  Status OnEndElement(std::string_view) override { return Status::OK(); }
  Status OnCharacters(std::string_view) override { return Status::OK(); }
};

enum Mapping : int { kEdge, kFragmented, kInlined, kDom, kMappings };
constexpr std::array<const char*, kMappings> kMappingNames = {
    "edge", "fragmented", "inlined", "dom"};

// The mapping System A-D serves from; -1 for E (DOM without its indexes).
int MappingOf(int64_t system) {
  switch (static_cast<SystemId>(system)) {
    case SystemId::kA:
      return kEdge;
    case SystemId::kB:
      return kFragmented;
    case SystemId::kC:
      return kInlined;
    case SystemId::kD:
      return kDom;
    default:
      return -1;
  }
}

// Loads `xml` straight into one store and returns its StorageBytes().
StatusOr<size_t> LoadStore(int mapping, std::string_view xml,
                           const store::LoadOptions& options) {
  switch (mapping) {
    case kEdge: {
      XMARK_ASSIGN_OR_RETURN(auto s, store::EdgeStore::Load(xml, options));
      return s->StorageBytes();
    }
    case kFragmented: {
      XMARK_ASSIGN_OR_RETURN(auto s,
                             store::FragmentedStore::Load(xml, options));
      return s->StorageBytes();
    }
    case kInlined: {
      XMARK_ASSIGN_OR_RETURN(
          auto s, store::InlinedStore::Load(xml, xml::kAuctionDtd, options));
      return s->StorageBytes();
    }
    default: {
      XMARK_ASSIGN_OR_RETURN(
          auto s, store::DomStore::Load(xml, store::DomStore::Options{},
                                        options));
      return s->StorageBytes();
    }
  }
}

constexpr std::array<SystemId, 5> kProbeSystems = {
    SystemId::kA, SystemId::kB, SystemId::kC, SystemId::kD, SystemId::kE};
constexpr std::string_view kProbeDoc = "probe.xml";

// Queries per second of `clients` sessions running Q1-Q20 round-robin on
// `engine` for `seconds`.
double SessionQps(Engine& engine, const std::vector<std::string>& texts,
                  size_t clients, double seconds) {
  std::vector<uint64_t> done(clients, 0);
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto session = engine.CreateSession();
      if (!session.ok()) return;
      for (size_t i = c * 7; NowNs() < deadline; ++i) {
        if ((*session)->Run(texts[i % texts.size()]).ok()) ++done[c];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  uint64_t total = 0;
  for (uint64_t d : done) total += d;
  return static_cast<double>(total) / (MsBetween(start, NowNs()) / 1e3);
}

}  // namespace

StatusOr<double> RunProbe(const Workload& workload, SpanLog* log,
                          bool measure_scaling, double scaling_seconds) {
  const std::vector<std::string>& docs = workload.Documents();
  store::LoadOptions options;
  options.threads = workload.LoadThreads();

  // xml: SAX parse of every document into a no-op handler.
  NullHandler handler;
  for (int rep = 0; rep < 3; ++rep) {
    for (const std::string& doc : docs) {
      ScopedSpan span(log, SpanName::kSaxParse);
      span.Tag(0, 0, static_cast<int64_t>(doc.size()));
      xml::SaxParser parser;
      XMARK_RETURN_IF_ERROR(parser.Parse(doc, &handler));
    }
  }

  // store: each mapping loads every document, at least three loads each.
  const size_t reps = (3 + docs.size() - 1) / docs.size();
  for (int m = 0; m < kMappings; ++m) {
    for (size_t rep = 0; rep < reps; ++rep) {
      for (const std::string& doc : docs) {
        ScopedSpan span(log, SpanName::kStoreLoad);
        XMARK_ASSIGN_OR_RETURN(size_t bytes, LoadStore(m, doc, options));
        span.Tag(m, static_cast<int64_t>(doc.size()),
                 static_cast<int64_t>(bytes));
      }
    }
  }

  // query: the parser alone, on the workload's own request texts.
  for (const std::string& text : workload.ProbeTexts()) {
    ScopedSpan span(log, SpanName::kQueryParse);
    XMARK_RETURN_IF_ERROR(query::ParseQueryText(text).status());
  }

  // xmark + query: per-system engine calls on the first document.
  const std::vector<store::CorpusDocument> probe_docs = {
      {std::string(kProbeDoc), docs[0]}};
  uint64_t request = 0;
  for (SystemId system : kProbeSystems) {
    const int sys = static_cast<int>(system);
    XMARK_ASSIGN_OR_RETURN(
        std::unique_ptr<Engine> engine,
        LoadEngine(system, probe_docs, workload.LoadThreads(), false, log,
                   nullptr));
    XMARK_ASSIGN_OR_RETURN(std::unique_ptr<EngineSession> session,
                           engine->CreateSession());
    for (int q = 1; q <= 20; ++q) {
      ++request;
      const std::string text = ScopedQuery(q, DocEntry(kProbeDoc));
      StatusOr<bench::PreparedQuery> prepared = [&] {
        ScopedSpan span(log, SpanName::kEnginePrepare, request);
        return engine->Prepare(text);
      }();
      XMARK_RETURN_IF_ERROR(prepared.status());
      {
        // First compile of this text: a plan-cache miss.
        ScopedSpan span(log, SpanName::kPrepareCached, request);
        auto cached = engine->PrepareCached(text);
        XMARK_RETURN_IF_ERROR(cached.status());
        span.Tag(cached->cache_hit ? 1 : 0);
      }
      {
        ScopedSpan span(log, SpanName::kSessionPrepare, request);
        auto hit = session->Prepare(text);
        XMARK_RETURN_IF_ERROR(hit.status());
        span.Tag(hit->cache_hit ? 1 : 0);
      }
      {
        const std::string collection = ScopedQuery(q, kCollectionEntry);
        StatusOr<bench::PreparedQuery> miss = [&] {
          ScopedSpan span(log, SpanName::kSessionPrepare, request);
          auto p = session->Prepare(collection);
          span.Tag(p.ok() && p->cache_hit ? 1 : 0);
          return p;
        }();
        XMARK_RETURN_IF_ERROR(miss.status());
        ScopedSpan span(log, SpanName::kExecute, request);
        span.Tag(q, sys, 1);
        XMARK_RETURN_IF_ERROR(session->Execute(*miss).status());
      }
      for (int rep = 0; rep < 3; ++rep) {
        ScopedSpan span(log, SpanName::kExecute, request);
        span.Tag(q, sys, 0);
        XMARK_RETURN_IF_ERROR(engine->Execute(*prepared).status());
      }
    }
    ScopedSpan span(log, SpanName::kDrop);
    span.Tag(sys);
    XMARK_RETURN_IF_ERROR(engine->DropDocument(kProbeDoc));
  }

  if (!measure_scaling) return 0.0;
  // xmark sessions: the same Q1-Q20 mix at one and at two clients on D.
  XMARK_ASSIGN_OR_RETURN(
      std::unique_ptr<Engine> engine,
      LoadEngine(SystemId::kD, probe_docs, workload.LoadThreads(), false,
                 nullptr, nullptr));
  std::vector<std::string> texts;
  for (int q = 1; q <= 20; ++q) {
    texts.push_back(ScopedQuery(q, DocEntry(kProbeDoc)));
  }
  const double one = SessionQps(*engine, texts, 1, scaling_seconds);
  const double two = SessionQps(*engine, texts, 2, scaling_seconds);
  return one > 0 ? two / (2 * one) : 0.0;
}

void AddLayerMetrics(const TracedRun& run, Report* report) {
  using Pred = std::function<bool(const Span&)>;
  auto select = [&](SpanName name, Phase phase, const Pred& pred) {
    std::vector<const Span*> out;
    for (const Span& s : run.spans) {
      if (s.name == name && s.phase == phase && pred(s)) out.push_back(&s);
    }
    return out;
  };
  // Loop spans where the workload makes the call, else the probe's.
  auto pick = [&](SpanName name, const Pred& pred) {
    std::vector<const Span*> out = select(name, Phase::kLoop, pred);
    return out.empty() ? select(name, Phase::kProbe, pred) : out;
  };
  auto any = [](const Span&) { return true; };
  auto median_ms = [](const std::vector<const Span*>& spans) {
    std::vector<double> ms;
    for (const Span* s : spans) ms.push_back(s->ms());
    return Median(ms);
  };

  // xml
  {
    double bytes = 0;
    double ms = 0;
    for (const Span* s : select(SpanName::kSaxParse, Phase::kProbe, any)) {
      bytes += static_cast<double>(s->value);
      ms += s->ms();
    }
    report->Add("xml.sax_mb_s", ms > 0 ? (bytes / 1e6) / (ms / 1e3) : 0,
                "MB/s");
  }

  // store
  std::array<double, kMappings> store_ms{};
  for (int m = 0; m < kMappings; ++m) {
    const auto spans = select(SpanName::kStoreLoad, Phase::kProbe,
                              [m](const Span& s) { return s.a == m; });
    double xml_bytes = 0;
    double stored = 0;
    for (const Span* s : spans) {
      xml_bytes += static_cast<double>(s->b);
      stored += static_cast<double>(s->value);
    }
    store_ms[m] = median_ms(spans);
    report->Add(std::string("store.load_ms.") + kMappingNames[m], store_ms[m],
                "ms");
    report->Add(std::string("store.bytes_per_doc_byte.") + kMappingNames[m],
                xml_bytes > 0 ? stored / xml_bytes : 0, "ratio");
  }

  // store (catalog) via xmark: engine load minus the direct store load.
  {
    std::vector<double> commit;
    for (const Span& s : run.spans) {
      if (s.name != SpanName::kLoad || s.phase == Phase::kProbe) continue;
      const int m = MappingOf(s.a);
      if (m < 0 || s.b <= 0) continue;
      commit.push_back(s.ms() / static_cast<double>(s.b) - store_ms[m]);
    }
    report->Add("catalog.commit_ms", Median(commit), "ms");
    report->Add("catalog.drop_ms", median_ms(pick(SpanName::kDrop, any)),
                "ms");
  }

  // query: parser, optimizer
  report->Add(
      "query.parse_us",
      median_ms(select(SpanName::kQueryParse, Phase::kProbe, any)) * 1e3,
      "us");
  {
    std::map<uint64_t, double> uncached;
    for (const Span* s : select(SpanName::kEnginePrepare, Phase::kProbe, any)) {
      uncached[s->request] = s->ms();
    }
    std::vector<double> plan;
    for (const Span* s :
         select(SpanName::kPrepareCached, Phase::kProbe,
                [](const Span& s) { return s.a == 0; })) {
      auto it = uncached.find(s->request);
      if (it != uncached.end()) plan.push_back(s->ms() - it->second);
    }
    report->Add("query.plan_us", Median(plan) * 1e3, "us");
  }

  // xmark: prepare paths
  report->Add("engine.prepare_us",
              median_ms(pick(SpanName::kEnginePrepare, any)) * 1e3, "us");
  report->Add("engine.prepare_hit_us",
              median_ms(pick(SpanName::kSessionPrepare,
                             [](const Span& s) { return s.a == 1; })) *
                  1e3,
              "us");
  report->Add("engine.prepare_miss_us",
              median_ms(pick(SpanName::kSessionPrepare,
                             [](const Span& s) { return s.a == 0; })) *
                  1e3,
              "us");

  // query: plan cache over the traced loop
  const query::PlanCacheStats& cache = run.traced_loop.cache_delta;
  const uint64_t lookups = cache.hits + cache.misses;
  report->Add("plan_cache.hits", static_cast<double>(cache.hits), "count");
  report->Add("plan_cache.misses", static_cast<double>(cache.misses), "count");
  report->Add("plan_cache.hit_ratio",
              lookups == 0 ? 0.0
                           : static_cast<double>(cache.hits) /
                                 static_cast<double>(lookups),
              "ratio");

  // query exec + store access
  for (int q = 1; q <= 20; ++q) {
    report->Add("engine.execute_ms.Q" + std::to_string(q),
                median_ms(pick(SpanName::kExecute,
                               [q](const Span& s) {
                                 return s.a == q && s.value == 0;
                               })),
                "ms");
  }
  for (SystemId system : kProbeSystems) {
    const int sys = static_cast<int>(system);
    std::vector<double> per_query;
    for (int q = 1; q <= 20; ++q) {
      per_query.push_back(median_ms(select(
          SpanName::kExecute, Phase::kProbe, [q, sys](const Span& s) {
            return s.a == q && s.b == sys && s.value == 0;
          })));
    }
    report->Add(std::string("engine.execute_geomean_ms.") +
                    bench::SystemLabel(system),
                GeoMean(per_query), "ms");
  }

  // query: value serialization
  {
    const auto spans = select(SpanName::kSerialize, Phase::kLoop, any);
    double bytes = 0;
    for (const Span* s : spans) bytes += static_cast<double>(s->value);
    report->Add("query.serialize_us", median_ms(spans) * 1e3, "us");
    report->Add("query.result_kib",
                spans.empty() ? 0
                              : bytes / static_cast<double>(spans.size()) /
                                    1024.0,
                "KiB");
  }

  // xmark: collection() fan-out and sessions
  {
    std::vector<double> per_doc;
    for (const Span* s : pick(SpanName::kExecute,
                              [](const Span& s) { return s.value > 0; })) {
      per_doc.push_back(s->ms() / static_cast<double>(s->value));
    }
    report->Add("collection.ms_per_doc", Median(per_doc), "ms");
  }
  report->Add("session.scaling_2v1", run.session_scaling, "ratio");
  report->Add("engine.failed_ops",
              static_cast<double>(run.traced_loop.outcome_errors +
                                  run.traced_loop.tally.mismatches),
              "count");
  report->Add("trace.overhead_ratio",
              run.untraced_qps > 0 ? run.traced_loop.qps() / run.untraced_qps
                                   : 0,
              "ratio");
}

}  // namespace xmark::perf
