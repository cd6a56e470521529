#include "perf/src/workloads.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <thread>

#include "gen/generator.h"
#include "query/value.h"

namespace xmark::perf {

using bench::Engine;
using bench::EngineSession;
using bench::PreparedQuery;
using bench::SystemId;

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "table3_serial", "serve_corpus", "ingest_churn"};
  return names;
}

namespace {

StatusOr<std::unique_ptr<Workload>> MakeWorkload(const std::string& name) {
  if (name == "table3_serial") return MakeTable3Serial();
  if (name == "serve_corpus") return MakeServeCorpus();
  if (name == "ingest_churn") return MakeIngestChurn();
  return Status::InvalidArgument("unknown workload \"" + name + "\"");
}

std::string Fmt(const char* format, double a) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, a);
  return buf;
}

// "read latency: n=4512 p50 1.2340 ms p99 9.3060 ms max 12.8569 ms"; the
// p99 only when at least 10 samples lie beyond it.
std::string LatencyLine(const char* what, const std::vector<double>& ms) {
  std::string line = std::string(what) + ": n=" + std::to_string(ms.size());
  if (ms.empty()) return line;
  line += " p50 " + Fmt("%.4f", Median(ms)) + " ms";
  const std::optional<double> p99 = HonestPercentile(ms, 0.99);
  line += p99 ? " p99 " + Fmt("%.4f", *p99) + " ms"
              : std::string(" p99 not reported (fewer than 10 samples "
                            "beyond it)");
  line += " max " + Fmt("%.4f", *std::max_element(ms.begin(), ms.end())) +
          " ms";
  return line;
}

void AddEndToEnd(const Workload& workload, const std::vector<double>& setup_s,
                 const LoadCounter& setup_loads, double db_ratio,
                 const LoopStats& loop, Report* report) {
  std::vector<double> reads;
  std::vector<double> collections;
  std::vector<std::vector<double>> by_kind(workload.Kinds());
  reads.reserve(loop.samples.size());
  for (const Sample& s : loop.samples) {
    reads.push_back(s.ms);
    if (s.collection) collections.push_back(s.ms);
    if (s.kind < by_kind.size()) by_kind[s.kind].push_back(s.ms);
  }
  std::vector<double> kind_medians;
  for (const std::vector<double>& k : by_kind) {
    if (!k.empty()) kind_medians.push_back(Median(k));
  }
  const double load_bytes =
      static_cast<double>(setup_loads.TotalBytes() + loop.loads.TotalBytes());

  report->Add("setup_s", Median(setup_s), "s");
  report->Add("qps", loop.qps(), "req/s");
  report->Add("latency_p50_ms", Median(reads), "ms");
  report->Add("load_mb_s",
              LoadCounter::MbPerSecond({&setup_loads, &loop.loads}), "MB/s");
  report->Add("db_bytes_per_doc_byte", db_ratio, "ratio");
  report->Add("rss_peak_mb", PeakRssMiB(), "MiB");

  std::string setups = "setup_s samples:";
  for (double s : setup_s) setups += " " + Fmt("%.4f", s);
  report->Note(setups);
  report->Note(LatencyLine("read latency", reads));
  if (!collections.empty()) {
    report->Note(LatencyLine("collection() latency", collections));
  }
  report->Note("geomean of per-kind median latencies " +
               Fmt("%.4f", GeoMean(kind_medians)) + " ms over " +
               std::to_string(kind_medians.size()) + " of " +
               std::to_string(workload.Kinds()) + " request kinds");
  report->Note("measured " + std::to_string(loop.ops) + " operations in " +
               Fmt("%.3f", loop.wall_s) + " s; loaded " +
               Fmt("%.1f", load_bytes / 1e6) + " MB in " +
               std::to_string(setup_loads.loads.size() +
                              loop.loads.loads.size()) +
               " load calls");
  {
    std::map<int, std::vector<double>> ms;
    for (const LoadCounter* c : {&setup_loads, &loop.loads}) {
      for (const LoadCounter::Load& l : c->loads) ms[l.system].push_back(l.ms);
    }
    for (const auto& [system, values] : ms) {
      report->Note(std::string("load calls on ") +
                   bench::SystemLabel(static_cast<bench::SystemId>(system)) +
                   ": n=" + std::to_string(values.size()) + " median " +
                   Fmt("%.3f", Median(values)) + " ms min " +
                   Fmt("%.3f", *std::min_element(values.begin(), values.end())) +
                   " ms max " +
                   Fmt("%.3f", *std::max_element(values.begin(), values.end())) +
                   " ms");
    }
  }
  report->Note("plan cache over the loop: hits " +
               std::to_string(loop.cache_delta.hits) + " misses " +
               std::to_string(loop.cache_delta.misses));
  report->Note("fail_ratio " + Fmt("%.6f", loop.tally.fail_ratio()) + " (" +
               std::to_string(loop.tally.failed) + " of " +
               std::to_string(loop.tally.attempted) + ")");
}

// A loop that used up its sequence measured less than its time, so the
// run is not correct. The sequence length is in the set-up lines.
void CheckSequence(const LoopStats& loop, Report* report) {
  if (!loop.sequence_exhausted) return;
  report->correct = false;
  report->Note("the request sequence ran out after " +
               std::to_string(loop.ops) + " operations in " +
               Fmt("%.3f", loop.wall_s) +
               " s: the program outran the sequence's headroom");
}

}  // namespace

void LoopStats::Merge(const LoopStats& other) {
  samples.insert(samples.end(), other.samples.begin(), other.samples.end());
  ops += other.ops;
  wall_s += other.wall_s;
  tally.Merge(other.tally);
  loads.loads.insert(loads.loads.end(), other.loads.loads.begin(),
                     other.loads.loads.end());
  cache_delta.hits += other.cache_delta.hits;
  cache_delta.misses += other.cache_delta.misses;
  outcome_errors += other.outcome_errors;
  sequence_exhausted |= other.sequence_exhausted;
}

EngineCounters EngineCounters::Of(const Engine& engine) {
  const bench::QueryOutcomes outcomes = engine.outcomes();
  return {engine.plan_cache_stats(), outcomes.total() - outcomes.ok};
}

void EngineCounters::AddDeltaTo(const Engine& engine, LoopStats* out) const {
  const EngineCounters now = Of(engine);
  out->cache_delta.hits += now.cache.hits - cache.hits;
  out->cache_delta.misses += now.cache.misses - cache.misses;
  out->outcome_errors += now.errors - errors;
}

double LoadCounter::MbPerSecond(
    const std::vector<const LoadCounter*>& counters) {
  double bytes = 0;
  double ms = 0;
  for (const LoadCounter* counter : counters) {
    for (const Load& load : counter->loads) {
      bytes += static_cast<double>(load.bytes);
      ms += load.ms;
    }
  }
  return ms > 0 ? bytes / 1e3 / ms : 0;
}

uint64_t LoadCounter::TotalBytes() const {
  uint64_t total = 0;
  for (const Load& load : loads) total += load.bytes;
  return total;
}

std::vector<std::string> GenerateDocuments(double sf, uint64_t seed,
                                           size_t count) {
  std::vector<std::string> docs;
  for (size_t i = 0; i < count; ++i) {
    gen::GeneratorOptions options;
    options.scale = sf;
    options.seed = seed + i;
    docs.push_back(gen::XmlGen(options).GenerateToString());
  }
  return docs;
}

ReadResult ReadUncached(Engine& engine, const std::string& text, SpanLog* log,
                        uint64_t request, int query, int system) {
  ReadResult out;
  ScopedSpan span(log, SpanName::kRequest, request);
  StatusOr<PreparedQuery> prepared = [&] {
    ScopedSpan s(log, SpanName::kEnginePrepare, request);
    return engine.Prepare(text);
  }();
  if (!prepared.ok()) {
    out.status = prepared.status();
    return out;
  }
  StatusOr<query::Sequence> result = [&] {
    ScopedSpan s(log, SpanName::kExecute, request);
    s.Tag(query, system);
    return engine.Execute(*prepared);
  }();
  if (!result.ok()) {
    out.status = result.status();
    return out;
  }
  ScopedSpan s(log, SpanName::kSerialize, request);
  out.bytes = query::SerializeSequence(*result);
  s.Tag(0, 0, static_cast<int64_t>(out.bytes.size()));
  return out;
}

ReadResult ReadSession(EngineSession& session, const std::string& text,
                       SpanLog* log, uint64_t request, int query, int system,
                       int fanout) {
  ReadResult out;
  ScopedSpan span(log, SpanName::kRequest, request);
  StatusOr<PreparedQuery> prepared = [&] {
    ScopedSpan s(log, SpanName::kSessionPrepare, request);
    StatusOr<PreparedQuery> p = session.Prepare(text);
    s.Tag(p.ok() && p->cache_hit ? 1 : 0);
    return p;
  }();
  if (!prepared.ok()) {
    out.status = prepared.status();
    return out;
  }
  out.cache_hit = prepared->cache_hit;
  StatusOr<query::Sequence> result = [&] {
    ScopedSpan s(log, SpanName::kExecute, request);
    s.Tag(query, system, fanout);
    return session.Execute(*prepared);
  }();
  if (!result.ok()) {
    out.status = result.status();
    return out;
  }
  ScopedSpan s(log, SpanName::kSerialize, request);
  out.bytes = query::SerializeSequence(*result);
  s.Tag(0, 0, static_cast<int64_t>(out.bytes.size()));
  return out;
}

StatusOr<std::unique_ptr<Engine>> LoadEngine(
    SystemId system, const std::vector<store::CorpusDocument>& docs,
    unsigned load_threads, bool as_corpus, SpanLog* log, LoadCounter* loads) {
  std::unique_ptr<Engine> engine = Engine::Create(system);
  store::LoadOptions options;
  options.threads = load_threads;
  engine->set_load_options(options);
  auto timed_load = [&](auto&& load, size_t count, size_t bytes) -> Status {
    ScopedSpan s(log, SpanName::kLoad);
    s.Tag(static_cast<int64_t>(system), static_cast<int64_t>(count),
          static_cast<int64_t>(bytes));
    const uint64_t start = NowNs();
    const Status status = load();
    if (loads != nullptr) loads->Add(system, MsBetween(start, NowNs()), bytes);
    return status;
  };
  if (as_corpus) {
    size_t bytes = 0;
    for (const store::CorpusDocument& d : docs) bytes += d.xml.size();
    XMARK_RETURN_IF_ERROR(timed_load(
        [&] { return engine->LoadCorpus(docs); }, docs.size(), bytes));
  } else {
    for (const store::CorpusDocument& d : docs) {
      XMARK_RETURN_IF_ERROR(timed_load(
          [&] { return engine->LoadDocument(d.id, d.xml); }, 1,
          d.xml.size()));
    }
  }
  return engine;
}

StatusOr<Report> RunWorkload(const Config& config) {
  XMARK_ASSIGN_OR_RETURN(std::unique_ptr<Workload> workload,
                         MakeWorkload(config.workload));
  Report report;
  XMARK_RETURN_IF_ERROR(workload->Prepare(config));
  report.Note("workload " + config.workload + " seed " +
              std::to_string(config.seed) + " seconds " +
              Fmt("%g", config.seconds) + " trace " +
              (config.trace ? "1" : "0"));
  for (const std::string& line : workload->Describe()) report.Note(line);
  report.Note("nproc " + std::to_string(OnlineCpus()) +
              " hardware_concurrency " +
              std::to_string(std::thread::hardware_concurrency()) +
              " load_threads " + std::to_string(workload->LoadThreads()) +
              " client_threads " + std::to_string(workload->Clients()));

  // The run is kSetups slices, each a timed set-up followed by the
  // measured loop, which replays the request sequence from its start.
  std::vector<double> setup_s;
  LoadCounter setup_loads;
  Tally warm;
  LoopStats loop;
  std::string slice_qps = "qps per slice:";
  double db_ratio = 0;
  const double slice_s = config.seconds / kSetups;
  for (int k = 0; k < kSetups; ++k) {
    workload->Teardown();
    const uint64_t start = NowNs();
    XMARK_RETURN_IF_ERROR(workload->Setup(nullptr, &setup_loads, &warm));
    setup_s.push_back(MsBetween(start, NowNs()) / 1e3);
    if (k == 0) db_ratio = workload->DbBytesPerDocByte();
    XMARK_ASSIGN_OR_RETURN(
        LoopStats slice, workload->Loop(slice_s, config.max_requests,
                                        workload->Clients(), {}));
    slice_qps += " " + Fmt("%.1f", slice.qps());
    loop.Merge(slice);
  }
  report.Note(slice_qps);
  if (warm.failed > 0) {
    report.correct = false;
    report.Note("warm-up failures: " + std::to_string(warm.failed) + " (" +
                warm.first_failure + ")");
  }
  report.tally = loop.tally;
  if (!loop.tally.first_failure.empty()) {
    report.Note("first failure: " + loop.tally.first_failure);
  }
  CheckSequence(loop, &report);

  if (!config.trace) {
    AddEndToEnd(*workload, setup_s, setup_loads, db_ratio, loop, &report);
    return report;
  }

  // Traced run: one traced slice, a single-client slice for the session
  // scaling ratio, then the per-layer side calls.
  Tracer tracer;
  std::vector<SpanLog*> logs;
  for (size_t c = 0; c < workload->Clients(); ++c) {
    logs.push_back(tracer.NewLog());
  }
  tracer.SetPhase(Phase::kSetup);
  LoadCounter traced_loads;
  workload->Teardown();
  XMARK_RETURN_IF_ERROR(workload->Setup(logs[0], &traced_loads, &warm));
  tracer.SetPhase(Phase::kLoop);
  TracedRun run;
  run.untraced_qps = loop.qps();
  XMARK_ASSIGN_OR_RETURN(
      run.traced_loop, workload->Loop(slice_s, config.max_requests,
                                      workload->Clients(), logs));
  report.tally.Merge(run.traced_loop.tally);
  CheckSequence(run.traced_loop, &report);

  if (workload->Clients() > 1) {
    LoadCounter ignored;
    workload->Teardown();
    XMARK_RETURN_IF_ERROR(workload->Setup(nullptr, &ignored, &warm));
    XMARK_ASSIGN_OR_RETURN(
        LoopStats single,
        workload->Loop(slice_s, config.max_requests, 1, {}));
    report.tally.Merge(single.tally);
    CheckSequence(single, &report);
    run.session_scaling =
        single.qps() > 0
            ? loop.qps() / (static_cast<double>(workload->Clients()) *
                            single.qps())
            : 0;
  }
  tracer.SetPhase(Phase::kProbe);
  workload->DropAll(logs[0]);
  XMARK_ASSIGN_OR_RETURN(
      double probe_scaling,
      RunProbe(*workload, logs[0], run.session_scaling == 0,
               std::min(config.seconds / 4, 3.0)));
  if (run.session_scaling == 0) run.session_scaling = probe_scaling;

  run.spans = tracer.AllSpans();
  AddLayerMetrics(run, &report);
  for (const std::string& line : tracer.Summary()) report.Note(line);
  if (!config.trace_dir.empty()) {
    const std::string path = config.trace_dir + "/" + config.workload +
                             "-seed" + std::to_string(config.seed) +
                             ".spans.jsonl";
    XMARK_RETURN_IF_ERROR(tracer.Write(path));
    report.Note("spans written to " + path);
  }
  return report;
}

StatusOr<std::vector<std::string>> DescribeRequests(const Config& config,
                                                    size_t count) {
  XMARK_ASSIGN_OR_RETURN(std::unique_ptr<Workload> workload,
                         MakeWorkload(config.workload));
  XMARK_RETURN_IF_ERROR(workload->Prepare(config));
  return workload->RequestKeys(count);
}

StatusOr<uint64_t> ServeCorpusMisses(const Config& config) {
  std::unique_ptr<Workload> workload = MakeServeCorpus();
  XMARK_RETURN_IF_ERROR(workload->Prepare(config));
  LoadCounter loads;
  Tally warm;
  XMARK_RETURN_IF_ERROR(workload->Setup(nullptr, &loads, &warm));
  XMARK_ASSIGN_OR_RETURN(
      LoopStats loop, workload->Loop(config.seconds / kSetups,
                                     config.max_requests,
                                     workload->Clients(), {}));
  if (loop.tally.failed > 0 || warm.failed > 0) {
    return Status::Internal("serve_corpus run failed: " +
                            loop.tally.first_failure + warm.first_failure);
  }
  return loop.cache_delta.misses;
}

}  // namespace xmark::perf
