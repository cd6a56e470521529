// Property test: the evaluator must produce identical results under every
// combination of the paper-profile flags and the store's index structures
// — both may only change cost, never semantics. Runs Q1-Q20 under all 2^4
// flag combinations against the fully-indexed and the bare native store
// and compares the serialized bytes with System F (bare store, nested
// loops only, eager lets), plus the same matrix over doc()/collection()
// catalog scans and System F parity of the four physical mappings.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gen/generator.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "query/value.h"
#include "store/dom_store.h"
#include "store/edge_store.h"
#include "store/fragmented_store.h"
#include "store/inlined_store.h"
#include "store/document_catalog.h"
#include "util/logging.h"
#include "xmark/engine.h"
#include "xmark/queries.h"
#include "xml/dtd.h"

namespace xmark::query {
namespace {

const std::string& TestDocument() {
  static const std::string* const kDoc = [] {
    gen::GeneratorOptions options;
    options.scale = 0.002;
    return new std::string(gen::XmlGen(options).GenerateToString());
  }();
  return *kDoc;
}

// System D's native store (every index built) or System F's (none).
const store::DomStore& Store(bool bare = false) {
  static const store::DomStore* const kStores[2] = {
      [] {
        store::DomStore::Options dom_options;
        auto store = store::DomStore::Load(TestDocument(), dom_options);
        XMARK_CHECK(store.ok());
        return store->release();
      }(),
      [] {
        store::DomStore::Options dom_options;
        dom_options.build_tag_index = false;
        dom_options.build_id_index = false;
        dom_options.build_path_summary = false;
        auto store = store::DomStore::Load(TestDocument(), dom_options);
        XMARK_CHECK(store.ok());
        return store->release();
      }()};
  return *kStores[bare ? 1 : 0];
}

// Parameters 0-15 are the flag masks over the indexed store, 16-31 the
// same masks over the bare one.
EvaluatorOptions FromMask(int param) {
  EvaluatorOptions options;
  options.hash_join = param & 1;
  options.lazy_let = param & 2;
  options.cache_invariant_paths = param & 4;
  options.copy_results = param & 8;
  return options;
}
bool BareFromMask(int param) { return (param & 16) != 0; }

// The structural oracle: System F's profile, run on System F's store.
EvaluatorOptions Reference() {
  return bench::Engine::Create(bench::SystemId::kF)->evaluator_options();
}

// Q1-Q20 parsed once; every run shares the (immutable) module.
const ParsedQuery& Parsed(int q) {
  static const std::vector<ParsedQuery>* const kQueries = [] {
    auto* queries = new std::vector<ParsedQuery>();
    for (int i = 1; i <= 20; ++i) {
      auto parsed = ParseQueryText(bench::GetQuery(i).text);
      XMARK_CHECK(parsed.ok());
      queries->push_back(std::move(*parsed));
    }
    return queries;
  }();
  return (*kQueries)[q - 1];
}

std::string RunSerialized(const StorageAdapter* store,
                          const EvaluatorOptions& options, int q) {
  Evaluator evaluator(store, options);
  auto result = evaluator.Run(Parsed(q));
  if (!result.ok()) {
    ADD_FAILURE() << "Q" << q << ": " << result.status();
    return "<error>";
  }
  return SerializeSequence(*result);
}

// System F's bytes are mask-independent: computed once per query.
const std::string& ReferenceBytes(int q) {
  static std::map<int, std::string>* const kBytes =
      new std::map<int, std::string>();
  auto it = kBytes->find(q);
  if (it == kBytes->end()) {
    it = kBytes->emplace(q, RunSerialized(&Store(/*bare=*/true), Reference(),
                                          q))
             .first;
  }
  return it->second;
}

class OptionsMatrix : public ::testing::TestWithParam<int> {};

TEST_P(OptionsMatrix, SameBytesAsSystemF) {
  const EvaluatorOptions options = FromMask(GetParam());
  const StorageAdapter* store = &Store(BareFromMask(GetParam()));
  for (int q = 1; q <= 20; ++q) {
    EXPECT_EQ(RunSerialized(store, options, q), ReferenceBytes(q))
        << "Q" << q << " differs from system F under option mask "
        << GetParam();
  }
}

// Catalog scans under the full matrix: a corpus ingested with 4 threads
// and queried through doc("id") / collection() must serialize identically
// to System F's run under every flag mask, on System D's stores and on
// System F's, with the collection fan-out running across the shared pool —
// the catalog layer may only route and concatenate, never change
// semantics.
bench::Engine* MatrixCatalogEngine(bench::SystemId system) {
  static std::map<bench::SystemId, bench::Engine*>* const kEngines =
      new std::map<bench::SystemId, bench::Engine*>();
  bench::Engine*& slot = (*kEngines)[system];
  if (slot == nullptr) {
    std::unique_ptr<bench::Engine> engine = bench::Engine::Create(system);
    store::LoadOptions load;
    load.threads = 4;
    engine->set_load_options(load);
    std::vector<store::CorpusDocument> docs;
    for (int i = 0; i < 3; ++i) {
      gen::GeneratorOptions g;
      g.scale = 0.002;
      g.seed = 50 + i;
      store::CorpusDocument doc;
      doc.id = "m-" + std::to_string(i) + ".xml";
      doc.xml = gen::XmlGen(g).GenerateToString();
      docs.push_back(std::move(doc));
    }
    XMARK_CHECK(engine->LoadCorpus(docs).ok());
    slot = engine.release();
  }
  return slot;
}

std::string RunCatalogSerialized(bench::SystemId system,
                                 const EvaluatorOptions& options,
                                 const std::string& text) {
  bench::Engine* engine = MatrixCatalogEngine(system);
  engine->set_evaluator_options(options);
  auto result = engine->Run(text);
  if (!result.ok()) {
    ADD_FAILURE() << text << ": " << result.status().message();
    return "<error>";
  }
  return SerializeSequence(*result);
}

TEST_P(OptionsMatrix, CatalogScansMatchSystemF) {
  constexpr std::string_view kNeedle = "document(\"auction.xml\")";
  for (int q : {1, 8, 10, 20}) {
    for (const char* entry : {"doc(\"m-1.xml\")", "collection()"}) {
      std::string text{bench::GetQuery(q).text};
      for (size_t hit = text.find(kNeedle); hit != std::string::npos;
           hit = text.find(kNeedle, hit)) {
        text.replace(hit, kNeedle.size(), entry);
      }
      // Reference (System F) is mask-independent: compute it once.
      static std::map<std::string, std::string>* const kBaselines =
          new std::map<std::string, std::string>();
      auto baseline = kBaselines->find(text);
      if (baseline == kBaselines->end()) {
        baseline = kBaselines
                       ->emplace(text, RunCatalogSerialized(
                                           bench::SystemId::kF, Reference(),
                                           text))
                       .first;
      }
      const std::string& expected = baseline->second;
      const bench::SystemId system = BareFromMask(GetParam())
                                         ? bench::SystemId::kF
                                         : bench::SystemId::kD;
      EXPECT_EQ(RunCatalogSerialized(system, FromMask(GetParam()), text),
                expected)
          << "Q" << q << " via " << entry << " differs under option mask "
          << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCombinations, OptionsMatrix,
                         ::testing::Range(0, 32));

// Cross-store parity: Q1-Q20 on all four physical mappings.
class PlannerStoreParity : public ::testing::TestWithParam<int> {
 protected:
  static const StorageAdapter* StoreByIndex(int index) {
    static const store::EdgeStore* const kEdge = [] {
      auto s = store::EdgeStore::Load(TestDocument());
      XMARK_CHECK(s.ok());
      return s->release();
    }();
    static const store::FragmentedStore* const kFragmented = [] {
      auto s = store::FragmentedStore::Load(TestDocument());
      XMARK_CHECK(s.ok());
      return s->release();
    }();
    static const store::InlinedStore* const kInlined = [] {
      auto s = store::InlinedStore::Load(TestDocument(), xml::kAuctionDtd);
      XMARK_CHECK(s.ok());
      return s->release();
    }();
    switch (index) {
      case 0:
        return kEdge;
      case 1:
        return kFragmented;
      case 2:
        return kInlined;
      default:
        return &Store();
    }
  }
};

// Every mapping, under the default (every rewrite on) options, answers
// through its own cursors and index structures and must serialize exactly
// System F's bytes.
TEST_P(PlannerStoreParity, MatchesSystemF) {
  const int query = GetParam();
  for (int s = 0; s < 4; ++s) {
    const StorageAdapter* store = StoreByIndex(s);
    EXPECT_EQ(RunSerialized(store, EvaluatorOptions{}, query),
              ReferenceBytes(query))
        << store->mapping_name() << " Q" << query << " differs from system F";
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, PlannerStoreParity,
                         ::testing::Range(1, 21));

}  // namespace
}  // namespace xmark::query
