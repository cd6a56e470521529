// Property test: the evaluator must produce identical results under every
// combination of the paper-profile flags — the flags may only change cost,
// never semantics. Runs Q1-Q20 under all 2^6 combinations against the
// fully-indexed native store and compares the serialized bytes with
// System F's options (no indexes, nested loops only, eager lets), plus
// the same matrix over doc()/collection() catalog scans and byte-parity
// of morsel-parallel execution across the four physical mappings.

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
#include "util/thread_pool.h"
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

const store::DomStore& Store() {
  static const store::DomStore* const kStore = [] {
    store::DomStore::Options dom_options;
    auto store = store::DomStore::Load(TestDocument(), dom_options);
    XMARK_CHECK(store.ok());
    return store->release();
  }();
  return *kStore;
}

EvaluatorOptions FromMask(int mask) {
  EvaluatorOptions options;
  options.use_id_index = mask & 1;
  options.use_path_index = mask & 2;
  options.hash_join = mask & 4;
  options.lazy_let = mask & 8;
  options.cache_invariant_paths = mask & 16;
  options.copy_results = mask & 32;
  return options;
}

// The structural oracle: System F's profile.
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

std::string RunSerialized(const EvaluatorOptions& options, int q) {
  Evaluator evaluator(&Store(), options);
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
    it = kBytes->emplace(q, RunSerialized(Reference(), q)).first;
  }
  return it->second;
}

class OptionsMatrix : public ::testing::TestWithParam<int> {};

TEST_P(OptionsMatrix, SameBytesAsSystemF) {
  const EvaluatorOptions options = FromMask(GetParam());
  for (int q = 1; q <= 20; ++q) {
    EXPECT_EQ(RunSerialized(options, q), ReferenceBytes(q))
        << "Q" << q << " differs from system F under option mask "
        << GetParam();
  }
}

// Catalog scans under the full matrix: a corpus ingested with 4 threads
// and queried through doc("id") / collection() must serialize identically
// to System F's serial run under every flag mask, with the collection
// fan-out running across the exec pool — the catalog layer may only route
// and concatenate, never change semantics.
bench::Engine* MatrixCatalogEngine() {
  static bench::Engine* const kEngine = [] {
    std::unique_ptr<bench::Engine> engine =
        bench::Engine::Create(bench::SystemId::kD);
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
    return engine.release();
  }();
  return kEngine;
}

std::string RunCatalogSerialized(const EvaluatorOptions& options,
                                 const std::string& text) {
  bench::Engine* engine = MatrixCatalogEngine();
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
      // Reference (System F, serial) is mask-independent: compute it once.
      static std::map<std::string, std::string>* const kBaselines =
          new std::map<std::string, std::string>();
      auto baseline = kBaselines->find(text);
      if (baseline == kBaselines->end()) {
        baseline = kBaselines
                       ->emplace(text, RunCatalogSerialized(Reference(), text))
                       .first;
      }
      const std::string& expected = baseline->second;
      EvaluatorOptions subject = FromMask(GetParam());
      subject.parallel_exec.enabled = true;
      subject.parallel_exec.min_morsel_ids = 1;
      EXPECT_EQ(RunCatalogSerialized(subject, text), expected)
          << "Q" << q << " via " << entry << " differs under option mask "
          << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCombinations, OptionsMatrix,
                         ::testing::Range(0, 64));

// Cross-store parallel parity: Q1-Q20 on all four physical mappings.
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

// Morsel-parallel execution is pure scheduling: chunked descendant scans
// merge in deterministic chunk order and the band-domain sort is a
// deterministic parallel stable sort, so results must be byte-identical
// for any worker count. min_morsel_ids=1 forces the morsel path even at
// this tiny scale. Each worker count gets its own pool, so the 4-worker
// case runs multi-threaded whatever the host's core count.
TEST_P(PlannerStoreParity, ParallelExecByteIdentical) {
  const int query = GetParam();
  auto parsed = ParseQueryText(bench::GetQuery(query).text);
  ASSERT_TRUE(parsed.ok());
  for (int s = 0; s < 4; ++s) {
    const StorageAdapter* store = StoreByIndex(s);
    EvaluatorOptions serial;  // defaults: every flag on, parallel off
    Evaluator base(store, serial);
    auto a = base.Run(*parsed);
    ASSERT_TRUE(a.ok()) << store->mapping_name() << " Q" << query << ": "
                        << a.status();
    for (unsigned threads : {1u, 4u}) {
      EvaluatorOptions par = serial;
      par.parallel_exec.enabled = true;
      par.parallel_exec.min_morsel_ids = 1;
      ThreadPool pool(threads);
      Evaluator subject(store, par);
      subject.set_exec_pool(&pool);
      auto b = subject.Run(*parsed);
      ASSERT_TRUE(b.ok()) << store->mapping_name() << " Q" << query << ": "
                          << b.status();
      EXPECT_EQ(SerializeSequence(*a), SerializeSequence(*b))
          << store->mapping_name() << " Q" << query << " diverges with "
          << threads << " exec threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, PlannerStoreParity,
                         ::testing::Range(1, 21));

}  // namespace
}  // namespace xmark::query
