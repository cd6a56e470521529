// Shared pieces of the end-to-end benchmark: the seeded request PRNG, the
// statistics (with the honest-percentile rule), the output oracle's
// failure tally, in-memory tracing spans, and the result line.
//
// The harness talks to the library only through public entry points the
// serving layer keeps: Engine::Create defaults, set_load_options,
// sessions, Prepare/PrepareCached/Execute, the catalog calls,
// StorageBytes, plan_cache_stats, outcomes, ParseQueryText,
// SerializeSequence, the four Store::Load functions and SaxParser. It
// sets no evaluator toggle and reads no evaluator statistics.

#ifndef XMARK_PERF_HARNESS_H_
#define XMARK_PERF_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "query/value.h"
#include "util/status.h"
#include "xmark/engine.h"

namespace xmark::perf {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double MsBetween(uint64_t start_ns, uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

/// splitmix64 stream. The benchmark owns its PRNG so that a request
/// sequence is a function of the seed alone, not of library internals.
class Rng {
 public:
  explicit Rng(uint64_t seed, uint64_t stream = 0)
      : state_(seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL +
               0x2545F4914F6CDD1DULL) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }

  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Below(i)]);
    }
  }

 private:
  uint64_t state_;
};

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Samples that must lie beyond a percentile before it is reported.
inline constexpr size_t kMinSamplesBeyond = 10;

double Median(std::vector<double> values);
double GeoMean(const std::vector<double>& values);

/// Nearest-rank `p`-quantile (0 < p < 1) of `values`, or nullopt when
/// fewer than kMinSamplesBeyond samples lie strictly above its rank — a
/// percentile without that support is just the run's maximum.
std::optional<double> HonestPercentile(std::vector<double> values, double p);

// ---------------------------------------------------------------------------
// Output oracle
// ---------------------------------------------------------------------------

/// Fingerprint of a serialized result: length plus a 64-bit hash. Holding
/// fingerprints instead of bytes keeps thousands of references cheap.
struct Digest {
  size_t length = 0;
  uint64_t hash = 0;
  bool operator==(const Digest& o) const {
    return length == o.length && hash == o.hash;
  }
  bool operator!=(const Digest& o) const { return !(*this == o); }
};
Digest DigestOf(std::string_view bytes);
/// Matches no result: the expectation when two reference mappings
/// disagree, so every request of that query counts as failed.
inline constexpr Digest kNoAgreedResult = {~size_t{0}, 0};

/// Attempted and failed operations. A failure is a non-OK Status or a
/// result whose bytes differ from the reference.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t errors = 0;      // non-OK statuses
  uint64_t mismatches = 0;  // OK results that differ from the reference
  std::string first_failure;

  /// Counts one operation whose result is compared with `expected`;
  /// returns whether it succeeded.
  bool Check(const Status& status, std::string_view bytes,
             const Digest& expected, std::string_view what);
  /// Counts one operation without a result (load, drop).
  bool Count(const Status& status, std::string_view what);
  void Merge(const Tally& other);
  double fail_ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// Result of serializing the concatenation of `parts` — the reference a
/// collection() result must equal.
std::string SerializeConcatenation(
    const std::vector<const query::Sequence*>& parts);

// ---------------------------------------------------------------------------
// Query texts
// ---------------------------------------------------------------------------

/// `text` with every document("auction.xml") entry call replaced by
/// `entry` (doc("id") or collection()). Kept here rather than taken from
/// bench/bench_util.h so that the benchmark depends on src/ alone.
std::string WithEntry(std::string_view text, std::string_view entry);
/// Benchmark query `q` (1..20) under `entry`.
std::string ScopedQuery(int q, std::string_view entry);
std::string DocEntry(std::string_view id);
inline constexpr std::string_view kCollectionEntry = "collection()";

/// Replaces every occurrence of `from` in `text`; fails when there is none,
/// so a change to the query texts breaks the benchmark loudly instead of
/// silently serving one literal.
StatusOr<std::string> ReplaceLiteral(std::string text, std::string_view from,
                                     std::string_view to);

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// Boundaries the benchmark times: one per call it makes into a layer.
enum class SpanName : uint8_t {
  kSetup,           // one set-up (loads + warm-up)
  kRequest,         // one read request: prepare + execute + serialize
  kQueryParse,      // query::ParseQueryText
  kEnginePrepare,   // Engine::Prepare (uncached)
  kPrepareCached,   // Engine::PrepareCached
  kSessionPrepare,  // EngineSession::Prepare; a = 1 on a plan-cache hit
  kExecute,         // Engine/EngineSession::Execute; a = query, b = system,
                    // value = documents fanned out (0: single document)
  kSerialize,       // query::SerializeSequence; value = bytes
  kLoad,            // Engine::LoadDocument/LoadCorpus; a = system,
                    // b = documents, value = XML bytes
  kDrop,            // Engine::DropDocument; a = system
  kSaxParse,        // xml::SaxParser::Parse; value = XML bytes
  kStoreLoad,       // <Mapping>Store::Load; a = mapping, b = XML bytes,
                    // value = StorageBytes()
};
const char* SpanNameText(SpanName name);

enum class Phase : uint8_t { kSetup, kLoop, kProbe };
const char* PhaseText(Phase phase);

struct Span {
  SpanName name = SpanName::kRequest;
  Phase phase = Phase::kLoop;
  uint32_t thread = 0;
  uint32_t id = 0;      // unique within its thread's log
  uint32_t parent = 0;  // 0: root
  uint64_t request = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t a = 0;
  int64_t b = 0;
  int64_t value = 0;
  double ms() const { return MsBetween(start_ns, end_ns); }
};

/// One thread's spans, kept in memory until the run ends.
class SpanLog {
 public:
  explicit SpanLog(uint32_t thread) : thread_(thread) { spans_.reserve(1 << 16); }

  void set_phase(Phase phase) { phase_ = phase; }
  size_t Begin(SpanName name, uint64_t request);
  void End(size_t index, int64_t a, int64_t b, int64_t value);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t thread_;
  Phase phase_ = Phase::kSetup;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;  // ids of open spans, innermost last
};

/// Times one call when `log` is non-null; free when it is null, so
/// untraced runs pay no clock reads for it.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanName name, uint64_t request = 0)
      : log_(log), index_(log == nullptr ? 0 : log->Begin(name, request)) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_, a_, b_, value_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Tag(int64_t a, int64_t b = 0, int64_t value = 0) {
    a_ = a;
    b_ = b;
    value_ = value;
  }

 private:
  SpanLog* log_;
  size_t index_;
  int64_t a_ = 0;
  int64_t b_ = 0;
  int64_t value_ = 0;
};

/// Owns every thread's SpanLog of a traced run.
class Tracer {
 public:
  SpanLog* NewLog();
  void SetPhase(Phase phase);
  std::vector<Span> AllSpans() const;
  /// Writes one JSON object per span to `path`.
  Status Write(const std::string& path) const;
  /// Human-readable per-span-name totals with self time (span minus the
  /// part its children cover), for the `#` lines of the report.
  std::vector<std::string> Summary() const;

 private:
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  Tally tally;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // printed as "# ..." lines

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Note(std::string line) { notes.push_back(std::move(line)); }
  const Metric* Find(std::string_view name) const;
};

/// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultLine(const Report& report);

/// Peak resident set of this process, MiB.
double PeakRssMiB();
/// CPUs this process may run on.
unsigned OnlineCpus();

}  // namespace xmark::perf

#endif  // XMARK_PERF_HARNESS_H_
