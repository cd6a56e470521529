// Quickstart: generate an XMark document, load it into a query engine and
// run benchmark queries.
//
//   ./quickstart [--sf=0.01]
//
// This walks the three layers of the library:
//   1. gen::XmlGen        — the scalable auction-document generator,
//   2. bench::Engine      — a storage mapping + query processor (system D:
//                           native store with structural summary),
//   3. bench::AllQueries  — the twenty benchmark queries.

#include <cstdio>
#include <cstring>
#include <string>

#include "gen/generator.h"
#include "query/value.h"
#include "xmark/engine.h"
#include "xmark/queries.h"

namespace {

double ParseScale(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--sf=", 5) == 0) return std::atof(argv[i] + 5);
  }
  return 0.01;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xmark;

  // 1. Generate a benchmark document (deterministic in scale and seed).
  gen::GeneratorOptions options;
  options.scale = ParseScale(argc, argv);
  options.seed = 42;
  gen::XmlGen generator(options);
  const std::string document = generator.GenerateToString();
  std::printf("generated %.1f KB document: %lld persons, %lld items, "
              "%lld open + %lld closed auctions\n\n",
              document.size() / 1024.0,
              static_cast<long long>(generator.counts().persons),
              static_cast<long long>(generator.counts().items),
              static_cast<long long>(generator.counts().open_auctions),
              static_cast<long long>(generator.counts().closed_auctions));

  // 2. Load it into an engine (System D: native store, all indexes).
  auto engine = bench::Engine::Create(bench::SystemId::kD);
  const Status load_status =
      engine->LoadDocument(bench::Engine::kDefaultDocumentId, document);
  if (!load_status.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 load_status.ToString().c_str());
    return 1;
  }
  std::printf("loaded into '%s' (%zu KB in store)\n\n",
              std::string(engine->store()->mapping_name()).c_str(),
              engine->StorageBytes() / 1024);

  // 3. Run a few queries.
  for (int q : {1, 5, 8, 14}) {
    const bench::QuerySpec& spec = bench::GetQuery(q);
    std::printf("Q%d (%s): %s\n", spec.number,
                std::string(spec.category).c_str(),
                std::string(spec.statement).c_str());
    auto result = engine->Run(spec.text);
    if (!result.ok()) {
      std::fprintf(stderr, "  failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("  -> %zu item(s)", result->size());
    if (!result->empty()) {
      std::string first = query::SerializeItem(result->front());
      if (first.size() > 70) first = first.substr(0, 70) + "...";
      std::printf(", first: %s", first.c_str());
    }
    std::printf("\n\n");
  }
  return 0;
}
