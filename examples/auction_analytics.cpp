// Auction-site analytics: the "large-scale analytical XML processing" the
// paper positions XMark around, expressed as XQuery against an Engine.
//
//   ./auction_analytics [--sf=0.02]

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "gen/generator.h"
#include "xmark/engine.h"

namespace {

double ParseScale(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--sf=", 5) == 0) return std::atof(argv[i] + 5);
  }
  return 0.02;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xmark;

  gen::GeneratorOptions options;
  options.scale = ParseScale(argc, argv);
  const std::string document = gen::XmlGen(options).GenerateToString();

  auto engine = bench::Engine::Create(bench::SystemId::kD);
  if (!engine->LoadDocument(bench::Engine::kDefaultDocumentId, document).ok()) {
    return 1;
  }

  std::printf("== XQuery: five most expensive closed auctions ==\n");
  auto expensive = engine->Run(R"(
    for $t in document("auction.xml")/site/closed_auctions/closed_auction
    where $t/price/text() >= 300
    return <sale price="{$t/price/text()}" buyer="{$t/buyer/@person}"/>
  )");
  if (!expensive.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 expensive.status().ToString().c_str());
    return 1;
  }
  size_t shown = 0;
  for (const query::Item& item : *expensive) {
    if (shown++ == 5) break;
    std::printf("  %s\n", query::SerializeItem(item).c_str());
  }
  std::printf("  (%zu sales >= 300 in total)\n", expensive->size());
  return 0;
}
