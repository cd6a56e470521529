#include "perf/src/harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>

#include "xmark/queries.h"

namespace xmark::perf {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(std::max(v, 1e-9));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::optional<double> HonestPercentile(std::vector<double> values, double p) {
  const size_t n = values.size();
  if (n == 0) return std::nullopt;
  // Nearest rank: the smallest value with at least p*n samples at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  const size_t index = rank - 1;
  if (n - 1 - index < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

Digest DigestOf(std::string_view bytes) {
  return {bytes.size(), std::hash<std::string_view>{}(bytes)};
}

bool Tally::Check(const Status& status, std::string_view bytes,
                  const Digest& expected, std::string_view what) {
  ++attempted;
  if (!status.ok()) {
    ++failed;
    ++errors;
    if (first_failure.empty()) {
      first_failure = std::string(what) + ": " + status.ToString();
    }
    return false;
  }
  if (DigestOf(bytes) != expected) {
    ++failed;
    ++mismatches;
    if (first_failure.empty()) {
      first_failure = std::string(what) + ": result differs from reference (" +
                      std::to_string(bytes.size()) + " bytes, reference " +
                      std::to_string(expected.length) + ")";
    }
    return false;
  }
  return true;
}

bool Tally::Count(const Status& status, std::string_view what) {
  ++attempted;
  if (status.ok()) return true;
  ++failed;
  ++errors;
  if (first_failure.empty()) {
    first_failure = std::string(what) + ": " + status.ToString();
  }
  return false;
}

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  errors += other.errors;
  mismatches += other.mismatches;
  if (first_failure.empty()) first_failure = other.first_failure;
}

std::string SerializeConcatenation(
    const std::vector<const query::Sequence*>& parts) {
  query::Sequence all;
  for (const query::Sequence* part : parts) {
    all.insert(all.end(), part->begin(), part->end());
  }
  return query::SerializeSequence(all);
}

std::string WithEntry(std::string_view text, std::string_view entry) {
  constexpr std::string_view kNeedle = "document(\"auction.xml\")";
  std::string out;
  size_t pos = 0;
  while (true) {
    const size_t hit = text.find(kNeedle, pos);
    if (hit == std::string_view::npos) break;
    out.append(text.substr(pos, hit - pos));
    out.append(entry);
    pos = hit + kNeedle.size();
  }
  out.append(text.substr(pos));
  return out;
}

std::string ScopedQuery(int q, std::string_view entry) {
  return WithEntry(bench::GetQuery(q).text, entry);
}

std::string DocEntry(std::string_view id) {
  return "doc(\"" + std::string(id) + "\")";
}

StatusOr<std::string> ReplaceLiteral(std::string text, std::string_view from,
                                     std::string_view to) {
  size_t pos = text.find(from);
  if (pos == std::string::npos) {
    return Status::InvalidArgument("literal " + std::string(from) +
                                   " not found in query text");
  }
  while (pos != std::string::npos) {
    text.replace(pos, from.size(), to);
    pos = text.find(from, pos + to.size());
  }
  return text;
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

const char* SpanNameText(SpanName name) {
  switch (name) {
    case SpanName::kSetup:
      return "setup";
    case SpanName::kRequest:
      return "request";
    case SpanName::kQueryParse:
      return "query.parse";
    case SpanName::kEnginePrepare:
      return "engine.prepare";
    case SpanName::kPrepareCached:
      return "engine.prepare_cached";
    case SpanName::kSessionPrepare:
      return "session.prepare";
    case SpanName::kExecute:
      return "engine.execute";
    case SpanName::kSerialize:
      return "query.serialize";
    case SpanName::kLoad:
      return "engine.load";
    case SpanName::kDrop:
      return "engine.drop";
    case SpanName::kSaxParse:
      return "xml.sax_parse";
    case SpanName::kStoreLoad:
      return "store.load";
  }
  return "?";
}

const char* PhaseText(Phase phase) {
  switch (phase) {
    case Phase::kSetup:
      return "setup";
    case Phase::kLoop:
      return "loop";
    case Phase::kProbe:
      return "probe";
  }
  return "?";
}

size_t SpanLog::Begin(SpanName name, uint64_t request) {
  Span span;
  span.name = name;
  span.phase = phase_;
  span.thread = thread_;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = open_.empty() ? 0 : open_.back();
  span.request = request;
  open_.push_back(span.id);
  spans_.push_back(span);
  spans_.back().start_ns = NowNs();
  return spans_.size() - 1;
}

void SpanLog::End(size_t index, int64_t a, int64_t b, int64_t value) {
  Span& span = spans_[index];
  span.end_ns = NowNs();
  span.a = a;
  span.b = b;
  span.value = value;
  open_.pop_back();
}

SpanLog* Tracer::NewLog() {
  logs_.push_back(
      std::make_unique<SpanLog>(static_cast<uint32_t>(logs_.size())));
  return logs_.back().get();
}

void Tracer::SetPhase(Phase phase) {
  for (auto& log : logs_) log->set_phase(phase);
}

std::vector<Span> Tracer::AllSpans() const {
  std::vector<Span> all;
  for (const auto& log : logs_) {
    all.insert(all.end(), log->spans().begin(), log->spans().end());
  }
  return all;
}

Status Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot write trace " + path);
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      char line[384];
      std::snprintf(
          line, sizeof(line),
          "{\"name\":\"%s\",\"phase\":\"%s\",\"thread\":%u,\"id\":%u,"
          "\"parent\":%u,\"request\":%llu,\"start_ns\":%llu,\"end_ns\":%llu,"
          "\"a\":%lld,\"b\":%lld,\"value\":%lld}\n",
          SpanNameText(s.name), PhaseText(s.phase), s.thread, s.id, s.parent,
          static_cast<unsigned long long>(s.request),
          static_cast<unsigned long long>(s.start_ns),
          static_cast<unsigned long long>(s.end_ns),
          static_cast<long long>(s.a), static_cast<long long>(s.b),
          static_cast<long long>(s.value));
      out << line;
    }
  }
  return out ? Status::OK() : Status::IoError("short write to " + path);
}

std::vector<std::string> Tracer::Summary() const {
  struct Totals {
    uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::pair<int, int>, Totals> by_name;  // (phase, name)
  for (const auto& log : logs_) {
    const std::vector<Span>& spans = log->spans();
    // Children are nested inside their parent and run one after another
    // on the parent's thread, so the part they cover is their sum.
    std::vector<double> child_ms(spans.size() + 1, 0.0);
    for (const Span& s : spans) {
      if (s.parent != 0) child_ms[s.parent] += s.ms();
    }
    for (const Span& s : spans) {
      Totals& t = by_name[{static_cast<int>(s.phase),
                           static_cast<int>(s.name)}];
      ++t.count;
      t.total_ms += s.ms();
      t.self_ms += s.ms() - child_ms[s.id];
    }
  }
  std::vector<std::string> lines;
  for (const auto& [key, t] : by_name) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "span %-5s %-22s count %8llu  total %10.2f ms  self "
                  "%10.2f ms",
                  PhaseText(static_cast<Phase>(key.first)),
                  SpanNameText(static_cast<SpanName>(key.second)),
                  static_cast<unsigned long long>(t.count), t.total_ms,
                  t.self_ms);
    lines.push_back(line);
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

const Metric* Report::Find(std::string_view name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string ResultLine(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.correct && report.tally.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.tally.attempted);
  out += ", \"failed\": " + std::to_string(report.tally.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

unsigned OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return 1;
}

}  // namespace xmark::perf
