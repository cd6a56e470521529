// The benchmark's three closed-loop workloads and RunWorkload, which runs
// one of them: inputs and references first (outside every clock), then
// kSetups slices, each a timed set-up followed by the measured loop
// replaying the request sequence from its start; a traced run adds one
// traced slice and the per-layer side calls (probe.cc).

#ifndef XMARK_PERF_WORKLOADS_H_
#define XMARK_PERF_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perf/src/harness.h"
#include "store/document_catalog.h"
#include "util/status.h"
#include "xmark/engine.h"

namespace xmark::perf {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  // where a traced run writes its spans

  // Overrides for the benchmark's own tests; 0 keeps the workload default.
  double sf = 0;
  size_t max_requests = 0;  // per client: ends the loop after this many
};

/// Set-ups per run. Each is followed by a measured loop of 1/kSetups of
/// the run's seconds, so setup_s is a median and a slow stretch of a
/// shared host moves no metric alone.
inline constexpr int kSetups = 5;

const std::vector<std::string>& WorkloadNames();

/// Runs one workload end to end and returns its report: end-to-end
/// metrics when untraced, per-layer metrics when traced.
StatusOr<Report> RunWorkload(const Config& config);

/// The request sequence a workload issues for `seed`, one line per
/// request, for the benchmark's tests (same seed, same sequence).
StatusOr<std::vector<std::string>> DescribeRequests(const Config& config,
                                                    size_t count);

/// Plan-cache misses of a serve_corpus run capped by `max_requests`.
StatusOr<uint64_t> ServeCorpusMisses(const Config& config);

// ---------------------------------------------------------------------------
// Shared by the workloads (workloads.cc)
// ---------------------------------------------------------------------------

/// Generated documents: `count` documents at scale `sf` from seeds
/// seed, seed+1, ...
std::vector<std::string> GenerateDocuments(double sf, uint64_t seed,
                                           size_t count);

/// A read request's outcome: the serialized result or the failing status.
struct ReadResult {
  Status status;
  std::string bytes;
  bool cache_hit = false;
};

/// Uncached Engine::Prepare, Engine::Execute, query::SerializeSequence.
ReadResult ReadUncached(bench::Engine& engine, const std::string& text,
                        SpanLog* log, uint64_t request, int query,
                        int system);
/// EngineSession::Prepare (plan cache), Execute, SerializeSequence.
/// `fanout` is the number of documents a collection() covers (0 for a
/// single-document request).
ReadResult ReadSession(bench::EngineSession& session, const std::string& text,
                       SpanLog* log, uint64_t request, int query, int system,
                       int fanout);

/// Time spent inside Engine::LoadDocument/LoadCorpus, one entry per call.
struct LoadCounter {
  struct Load {
    int system = 0;
    double ms = 0;
    uint64_t bytes = 0;
  };
  std::vector<Load> loads;

  void Add(bench::SystemId system, double ms, uint64_t bytes) {
    loads.push_back({static_cast<int>(system), ms, bytes});
  }
  /// XML bytes loaded ÷ total time inside the load calls, in MB/s.
  static double MbPerSecond(const std::vector<const LoadCounter*>& counters);
  uint64_t TotalBytes() const;
};

/// Loads `docs` into a fresh engine of `system` at `load_threads` and
/// records the time spent inside each load call.
StatusOr<std::unique_ptr<bench::Engine>> LoadEngine(
    bench::SystemId system, const std::vector<store::CorpusDocument>& docs,
    unsigned load_threads, bool as_corpus, SpanLog* log, LoadCounter* loads);

/// One read sample of a measured loop.
struct Sample {
  float ms = 0;
  uint32_t kind = 0;  // request kind for the geometric mean
  bool collection = false;
};

/// What a measured loop produced.
struct LoopStats {
  std::vector<Sample> samples;
  uint64_t ops = 0;  // every completed operation: reads, loads, drops
  double wall_s = 0;
  Tally tally;
  LoadCounter loads;  // loads issued inside the loop
  query::PlanCacheStats cache_delta;
  uint64_t outcome_errors = 0;  // non-OK deltas of Engine::outcomes()
  // The loop used up its fixed request sequence before its time; the run
  // then fails, because a shorter loop would change the workload.
  bool sequence_exhausted = false;
  double qps() const {
    return wall_s > 0 ? static_cast<double>(ops) / wall_s : 0;
  }
  /// Adds another slice of the same run.
  void Merge(const LoopStats& other);
};

/// An engine's plan-cache and outcome counters, to take a loop's deltas.
struct EngineCounters {
  query::PlanCacheStats cache;
  uint64_t errors = 0;  // non-OK outcomes

  static EngineCounters Of(const bench::Engine& engine);
  /// Adds what `engine` counted since this snapshot to `out`.
  void AddDeltaTo(const bench::Engine& engine, LoopStats* out) const;
};

/// Interface each workload implements; RunWorkload drives it.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Inputs, request sequence and reference results. Not timed. The
  /// sequence covers one slice, config.seconds / kSetups, with headroom.
  virtual Status Prepare(const Config& config) = 0;
  /// Releases the serving state of the previous set-up (not timed).
  virtual void Teardown() = 0;
  /// Builds the serving state: every bulkload plus the warm-up, and puts
  /// the request sequence back at its start. Timed by the caller as one
  /// set-up.
  virtual Status Setup(SpanLog* log, LoadCounter* loads, Tally* warm) = 0;
  /// Runs the measured loop on the current state with `clients` clients.
  virtual StatusOr<LoopStats> Loop(double seconds, size_t max_requests,
                                   size_t clients,
                                   const std::vector<SpanLog*>& logs) = 0;
  /// Storage bytes ÷ XML bytes of the current serving state.
  virtual double DbBytesPerDocByte() const = 0;
  /// Number of request kinds the geometric mean runs over.
  virtual size_t Kinds() const = 0;
  virtual size_t Clients() const = 0;
  virtual unsigned LoadThreads() const = 0;
  /// The documents, systems and request texts the probe side calls use.
  virtual const std::vector<std::string>& Documents() const = 0;
  virtual std::vector<std::string> ProbeTexts() const = 0;
  /// Recorded set-up lines (seed, sf, bytes, threads ...).
  virtual std::vector<std::string> Describe() const = 0;
  /// Request keys, for the sequence-determinism tests.
  virtual std::vector<std::string> RequestKeys(size_t count) const = 0;
  /// Drops every document of the serving state, one DropDocument span
  /// each (traced runs only; workloads that drop in their loop may no-op).
  virtual void DropAll(SpanLog* log) = 0;
};

std::unique_ptr<Workload> MakeTable3Serial();
std::unique_ptr<Workload> MakeServeCorpus();
std::unique_ptr<Workload> MakeIngestChurn();

// ---------------------------------------------------------------------------
// Per-layer metrics of a traced run (probe.cc)
// ---------------------------------------------------------------------------

struct TracedRun {
  std::vector<Span> spans;  // setup + loop + probe phases
  LoopStats traced_loop;
  double untraced_qps = 0;
  double session_scaling = 0;  // 0: the probe measures it
};

/// Side calls into each layer over the workload's own inputs: SAX parse,
/// the four Store::Load functions, and per-system engine calls. Spans go
/// to `log` in the probe phase. Returns the session scaling probe's ratio
/// when `measure_scaling` is set.
StatusOr<double> RunProbe(const Workload& workload, SpanLog* log,
                          bool measure_scaling, double scaling_seconds);

/// Computes the per-layer metrics from a traced run's spans.
void AddLayerMetrics(const TracedRun& run, Report* report);

}  // namespace xmark::perf

#endif  // XMARK_PERF_WORKLOADS_H_
