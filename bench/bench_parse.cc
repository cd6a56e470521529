// Reproduces the parser baseline of section 7: "it took the XML parser
// expat 4.9 seconds ... to scan the benchmark document" (100 MB, 550 MHz
// Pentium III) — i.e. ~20 MB/s tokenization with no semantic actions.
// We time our SAX scanner (tokenization + entity decoding, no-op handler)
// and the full DOM build for comparison, the latter also through the
// chunked parallel parse at 2 and 4 threads.

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <map>

#include "gen/generator.h"
#include "xml/dom.h"
#include "xml/sax_parser.h"

namespace xmark::bench {
namespace {

const std::string& Doc(double scale) {
  static std::map<double, std::string>* const kDocs =
      new std::map<double, std::string>();
  auto it = kDocs->find(scale);
  if (it == kDocs->end()) {
    gen::GeneratorOptions opts;
    opts.scale = scale;
    it = kDocs->emplace(scale, gen::XmlGen(opts).GenerateToString()).first;
  }
  return it->second;
}

class NullHandler : public xml::SaxHandler {
 public:
  Status OnStartElement(std::string_view,
                        const std::vector<xml::SaxAttribute>&) override {
    return Status::OK();
  }
  Status OnEndElement(std::string_view) override { return Status::OK(); }
  Status OnCharacters(std::string_view) override { return Status::OK(); }
};

void BM_SaxScan(benchmark::State& state) {
  const double scale = static_cast<double>(state.range(0)) / 1000.0;
  const std::string& doc = Doc(scale);
  for (auto _ : state) {
    NullHandler handler;
    xml::SaxParser parser;
    const Status st = parser.Parse(doc, &handler);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
  state.counters["doc_bytes"] = static_cast<double>(doc.size());
}
BENCHMARK(BM_SaxScan)->Arg(10)->Arg(50)->Unit(benchmark::kMillisecond);

int64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

// Args: scale in thousandths, parse threads. minor_faults is the
// process's page touches per parse (every thread counts).
void BM_DomBuild(benchmark::State& state) {
  const double scale = static_cast<double>(state.range(0)) / 1000.0;
  const std::string& doc = Doc(scale);
  xml::ParseOptions options;
  options.threads = static_cast<unsigned>(state.range(1));
  const int64_t faults = MinorFaults();
  for (auto _ : state) {
    auto parsed = xml::Document::Parse(doc, options);
    if (!parsed.ok()) state.SkipWithError(parsed.status().ToString().c_str());
    benchmark::DoNotOptimize(parsed->num_nodes());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
  state.counters["minor_faults"] = benchmark::Counter(
      static_cast<double>(MinorFaults() - faults),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_DomBuild)
    ->ArgsProduct({{20, 200}, {1, 2, 4}})
    ->ArgNames({"sf_milli", "threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xmark::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::printf("\npaper baseline: expat scanned the 100 MB document in 4.9 s "
              "(~20 MB/s on a 550 MHz Pentium III).\n"
              "Scale the bytes_per_second counters above against that "
              "figure; the shape check is simply that scanning is\n"
              "linear in document size and far cheaper than any bulkload in "
              "Table 1.\n");
  return 0;
}
