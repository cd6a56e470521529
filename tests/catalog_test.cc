// Differential harness for the document catalog.
//
// Ground truth is the single-document engine the paper's benchmarks run:
// one catalog holding K documents and queried through doc("id") must be
// byte-identical to K independent engines each loaded with one document,
// across every physical mapping, Q1-Q20 and ingest thread counts; a
// collection() query must equal the deterministic concatenation of the
// per-document results in document-id order. Edge cases — empty catalog,
// duplicate ids, drop-then-requery against a warm plan cache, mixed-size
// corpora — ride in the same binary so the sanitizer matrix covers them.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gen/generator.h"
#include "query/value.h"
#include "store/document_catalog.h"
#include "util/logging.h"
#include "xmark/engine.h"
#include "xmark/queries.h"

namespace xmark::bench {
namespace {

// The four physical mappings: A=edge, B=fragmented, C=inlined, D=dom.
constexpr SystemId kStores[] = {SystemId::kA, SystemId::kB, SystemId::kC,
                                SystemId::kD};

// Distinct (scale, seed) per document so per-document results differ —
// a routing bug cannot cancel out in the comparison. Ids are chosen
// already sorted: catalog order == declaration order.
struct CorpusSpec {
  const char* id;
  double scale;
  uint64_t seed;
};
constexpr CorpusSpec kCorpus[] = {
    {"doc-a.xml", 0.004, 7},
    {"doc-b.xml", 0.007, 11},
    {"doc-c.xml", 0.010, 42},
};
constexpr size_t kCorpusSize = sizeof(kCorpus) / sizeof(kCorpus[0]);

std::string GenerateDocument(double scale, uint64_t seed) {
  gen::GeneratorOptions opts;
  opts.scale = scale;
  opts.seed = seed;
  return gen::XmlGen(opts).GenerateToString();
}

const std::vector<store::CorpusDocument>& CorpusDocs() {
  static const std::vector<store::CorpusDocument>* const kDocs = [] {
    auto* docs = new std::vector<store::CorpusDocument>();
    for (const CorpusSpec& spec : kCorpus) {
      store::CorpusDocument doc;
      doc.id = spec.id;
      doc.xml = GenerateDocument(spec.scale, spec.seed);
      docs->push_back(std::move(doc));
    }
    return docs;
  }();
  return *kDocs;
}

// Replaces every `document("auction.xml")` entry call of a benchmark
// query with `replacement` (e.g. `doc("doc-b.xml")` or `collection()`).
std::string RewriteEntryCalls(std::string_view query_text,
                              std::string_view replacement) {
  constexpr std::string_view kNeedle = "document(\"auction.xml\")";
  std::string out;
  size_t pos = 0;
  while (true) {
    const size_t hit = query_text.find(kNeedle, pos);
    if (hit == std::string_view::npos) break;
    out.append(query_text.substr(pos, hit - pos));
    out.append(replacement);
    pos = hit + kNeedle.size();
  }
  XMARK_CHECK(pos > 0);  // every benchmark query is rooted
  out.append(query_text.substr(pos));
  return out;
}

// One single-document reference engine per (system, corpus slot).
Engine* ReferenceEngine(SystemId id, size_t slot) {
  static std::map<std::pair<SystemId, size_t>,
                  std::unique_ptr<Engine>>* const kEngines =
      new std::map<std::pair<SystemId, size_t>, std::unique_ptr<Engine>>();
  auto key = std::make_pair(id, slot);
  auto it = kEngines->find(key);
  if (it == kEngines->end()) {
    auto engine = Engine::Create(id);
    XMARK_CHECK(engine->Load(CorpusDocs()[slot].xml).ok());
    it = kEngines->emplace(key, std::move(engine)).first;
  }
  return it->second.get();
}

// One catalog engine per (system, ingest thread count), loaded with the
// whole corpus in a single parallel LoadCorpus.
Engine* CatalogEngine(SystemId id, unsigned threads) {
  static std::map<std::pair<SystemId, unsigned>,
                  std::unique_ptr<Engine>>* const kEngines =
      new std::map<std::pair<SystemId, unsigned>, std::unique_ptr<Engine>>();
  auto key = std::make_pair(id, threads);
  auto it = kEngines->find(key);
  if (it == kEngines->end()) {
    auto engine = Engine::Create(id);
    store::LoadOptions load;
    load.threads = threads;
    engine->set_load_options(load);
    XMARK_CHECK(engine->LoadCorpus(CorpusDocs()).ok());
    it = kEngines->emplace(key, std::move(engine)).first;
  }
  return it->second.get();
}

std::string RunSerialized(Engine* engine, std::string_view query_text) {
  auto result = engine->Run(query_text);
  if (!result.ok()) {
    ADD_FAILURE() << "query failed: " << result.status().message();
    return "<error: " + result.status().message() + ">";
  }
  return SerializeSequence(*result);
}

class CatalogParityTest : public ::testing::TestWithParam<int> {};

// doc("id") against a K-document catalog == the single-document engine
// holding that document, byte for byte, for every mapping and ingest
// thread count.
TEST_P(CatalogParityTest, DocScopeMatchesSingleDocumentEngine) {
  const int query = GetParam();
  for (SystemId id : kStores) {
    for (size_t slot = 0; slot < kCorpusSize; ++slot) {
      const std::string reference =
          RunSerialized(ReferenceEngine(id, slot), GetQuery(query).text);
      const std::string scoped = RewriteEntryCalls(
          GetQuery(query).text,
          std::string("doc(\"") + kCorpus[slot].id + "\")");
      for (unsigned threads : {1u, 4u}) {
        EXPECT_EQ(RunSerialized(CatalogEngine(id, threads), scoped),
                  reference)
            << "system " << SystemLabel(id) << " Q" << query << " doc "
            << kCorpus[slot].id << " ingest-threads " << threads;
      }
    }
  }
}

// collection() == concatenation of the per-document results in document-id
// order. The oracle concatenates Items (not serialized strings): the
// serializer's separator depends on atom adjacency at document boundaries,
// so a string-level concat would not be the same oracle.
TEST_P(CatalogParityTest, CollectionScopeMatchesConcatenationOracle) {
  const int query = GetParam();
  for (SystemId id : kStores) {
    query::Sequence combined;
    for (size_t slot = 0; slot < kCorpusSize; ++slot) {
      auto result = ReferenceEngine(id, slot)->Run(GetQuery(query).text);
      ASSERT_TRUE(result.ok()) << result.status().message();
      for (query::Item& item : *result) combined.push_back(std::move(item));
    }
    const std::string reference = SerializeSequence(combined);
    const std::string rewritten =
        RewriteEntryCalls(GetQuery(query).text, "collection()");
    for (unsigned threads : {1u, 4u}) {
      EXPECT_EQ(RunSerialized(CatalogEngine(id, threads), rewritten),
                reference)
          << "system " << SystemLabel(id) << " Q" << query
          << " ingest-threads " << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, CatalogParityTest,
                         ::testing::Range(1, 21));

// --------------------------------------------------------------------------
// Edge cases
// --------------------------------------------------------------------------

TEST(CatalogEdgeTest, EmptyCatalogQueriesFailCoded) {
  auto engine = Engine::Create(SystemId::kD);
  for (const char* text :
       {"for $x in doc(\"a.xml\")/site return $x",
        "for $x in collection()/site return $x",
        "for $x in document(\"auction.xml\")/site return $x"}) {
    auto result = engine->Run(text);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_EQ(result.status().code(), StatusCode::kNotFound) << text;
    EXPECT_NE(result.status().message().find("[empty-catalog]"),
              std::string::npos)
        << result.status().message();
  }
  EXPECT_TRUE(engine->ListDocuments().empty());
  EXPECT_EQ(engine->DocumentCount(), 0u);
}

// After the last document is dropped a session's doc("id") fails coded,
// like the engine's, instead of binding the default store the session
// retains; default-scope queries keep that snapshot, as documented.
TEST(CatalogEdgeTest, SessionDocScopeFailsOnceCatalogIsEmpty) {
  auto engine = Engine::Create(SystemId::kD);
  ASSERT_TRUE(engine->LoadDocument("only.xml", GenerateDocument(0.001, 4)).ok());
  auto session = engine->CreateSession();
  ASSERT_TRUE(session.ok());
  const std::string doc_q =
      "for $p in doc(\"only.xml\")/site/people/person return $p/name";
  const std::string default_q = "for $p in /site/people/person return $p/name";
  auto before = (*session)->Run(doc_q);
  ASSERT_TRUE(before.ok());
  auto default_before = (*session)->Run(default_q);
  ASSERT_TRUE(default_before.ok());

  ASSERT_TRUE((*session)->DropDocument("only.xml").ok());
  ASSERT_EQ(engine->DocumentCount(), 0u);
  auto gone = (*session)->Run(doc_q);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
  EXPECT_NE(gone.status().message().find("[empty-catalog]"),
            std::string::npos)
      << gone.status().message();
  auto engine_gone = engine->Run(doc_q);
  ASSERT_FALSE(engine_gone.ok());
  EXPECT_EQ(engine_gone.status().code(), StatusCode::kNotFound);

  auto default_after = (*session)->Run(default_q);
  ASSERT_TRUE(default_after.ok()) << default_after.status().ToString();
  EXPECT_EQ(SerializeSequence(*default_after),
            SerializeSequence(*default_before));
}

TEST(CatalogEdgeTest, DuplicateAndEmptyIdsRejectedCoded) {
  const std::string xml = GenerateDocument(0.001, 3);
  auto engine = Engine::Create(SystemId::kA);
  ASSERT_TRUE(engine->LoadDocument("dup.xml", xml).ok());

  Status dup = engine->LoadDocument("dup.xml", xml);
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dup.message().find("[duplicate-document-id]"),
            std::string::npos)
      << dup.message();

  // Within-batch duplicates are rejected before any store is built, and
  // the batch is all-or-nothing: nothing from it lands in the catalog.
  std::vector<store::CorpusDocument> batch(2);
  batch[0].id = "same.xml";
  batch[0].xml = xml;
  batch[1].id = "same.xml";
  batch[1].xml = xml;
  Status batch_dup = engine->LoadCorpus(batch);
  ASSERT_FALSE(batch_dup.ok());
  EXPECT_EQ(batch_dup.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(batch_dup.message().find("[duplicate-document-id]"),
            std::string::npos);
  EXPECT_EQ(engine->DocumentCount(), 1u);

  Status empty_id = engine->LoadDocument("", xml);
  ASSERT_FALSE(empty_id.ok());
  EXPECT_EQ(empty_id.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(empty_id.message().find("[empty-document-id]"),
            std::string::npos);
}

// Dropping a document invalidates doc() routing immediately; plan-cache
// entries compiled against the dropped store become unreachable (store
// uids are never recycled) and a re-added document under the same id gets
// a fresh store — queries see the new content, never the stale entry.
TEST(CatalogEdgeTest, DropThenRequeryMissesCleanly) {
  const std::string first = GenerateDocument(0.002, 5);
  const std::string second = GenerateDocument(0.002, 6);
  const std::string keeper = GenerateDocument(0.002, 9);
  ASSERT_NE(first, second);

  auto engine = Engine::Create(SystemId::kB);
  ASSERT_TRUE(engine->LoadDocument("victim.xml", first).ok());
  ASSERT_TRUE(engine->LoadDocument("keeper.xml", keeper).ok());

  const std::string victim_q =
      "for $p in doc(\"victim.xml\")/site/people/person return $p/name";
  const std::string keeper_q =
      "for $p in doc(\"keeper.xml\")/site/people/person return $p/name";

  // Warm the plan cache through the serving path.
  auto session = engine->CreateSession();
  ASSERT_TRUE(session.ok());
  auto warm = (*session)->Run(victim_q);
  ASSERT_TRUE(warm.ok());
  const std::string first_result = SerializeSequence(*warm);
  ASSERT_TRUE((*session)->Run(keeper_q).ok());
  auto held = (*session)->Prepare(victim_q);
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(held->cache_hit);
  const uint64_t victim_uid = held->cached->annotations->store_uid;
  auto keeper_prepared = (*session)->Prepare(keeper_q);
  ASSERT_TRUE(keeper_prepared.ok());
  const uint64_t keeper_uid = keeper_prepared->cached->annotations->store_uid;
  ASSERT_GT(engine->plan_cache_entries(victim_uid), 0u);

  // Dropping the document erases its plan-cache entries (its store uid is
  // never reused, so they could only leak); the sibling's entries stay,
  // and a PreparedQuery handed out earlier keeps its entry alive.
  ASSERT_TRUE(engine->DropDocument("victim.xml").ok());
  EXPECT_EQ(engine->plan_cache_entries(victim_uid), 0u);
  EXPECT_GT(engine->plan_cache_entries(keeper_uid), 0u);
  EXPECT_EQ(held->cached->annotations->store_uid, victim_uid);
  auto held_run = (*session)->Execute(*held);
  ASSERT_FALSE(held_run.ok());
  EXPECT_EQ(held_run.status().code(), StatusCode::kNotFound);
  auto gone = (*session)->Run(victim_q);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
  EXPECT_NE(gone.status().message().find("[unknown-document]"),
            std::string::npos)
      << gone.status().message();

  Status drop_again = engine->DropDocument("victim.xml");
  ASSERT_FALSE(drop_again.ok());
  EXPECT_EQ(drop_again.code(), StatusCode::kNotFound);

  // Sibling documents keep serving through the warm cache.
  ASSERT_TRUE((*session)->Run(keeper_q).ok());

  // Re-add under the same id with different content: the id compiles
  // again, against the new store, and the old entry never resurfaces.
  ASSERT_TRUE((*session)->LoadDocument("victim.xml", second).ok());
  auto recompiled = (*session)->Prepare(victim_q);
  ASSERT_TRUE(recompiled.ok());
  EXPECT_FALSE(recompiled->cache_hit);
  EXPECT_NE(recompiled->cached->annotations->store_uid, victim_uid);
  auto requeried = (*session)->Run(victim_q);
  ASSERT_TRUE(requeried.ok());

  // A session drop erases entries just like the engine's.
  const uint64_t second_uid = recompiled->cached->annotations->store_uid;
  ASSERT_GT(engine->plan_cache_entries(second_uid), 0u);
  ASSERT_TRUE((*session)->DropDocument("victim.xml").ok());
  EXPECT_EQ(engine->plan_cache_entries(second_uid), 0u);
  ASSERT_TRUE((*session)->LoadDocument("victim.xml", second).ok());
  requeried = (*session)->Run(victim_q);
  ASSERT_TRUE(requeried.ok());

  auto oracle = Engine::Create(SystemId::kB);
  ASSERT_TRUE(oracle->Load(second).ok());
  auto expected = oracle->Run(
      "for $p in document(\"auction.xml\")/site/people/person "
      "return $p/name");
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(SerializeSequence(*requeried), SerializeSequence(*expected));
  EXPECT_NE(SerializeSequence(*requeried), first_result);
}

// One sf=0.05 document among many tiny ones: the parallel ingest stages
// unevenly sized bulkloads, and routing still binds each id exactly.
TEST(CatalogEdgeTest, MixedSizeCorpus) {
  std::vector<store::CorpusDocument> docs;
  store::CorpusDocument big;
  big.id = "big.xml";
  big.xml = GenerateDocument(0.05, 17);
  docs.push_back(std::move(big));
  for (int i = 0; i < 6; ++i) {
    store::CorpusDocument tiny;
    tiny.id = "tiny-" + std::to_string(i) + ".xml";
    tiny.xml = GenerateDocument(0.001, 100 + i);
    docs.push_back(std::move(tiny));
  }

  auto engine = Engine::Create(SystemId::kC);
  store::LoadOptions load;
  load.threads = 4;
  engine->set_load_options(load);
  ASSERT_TRUE(engine->LoadCorpus(docs).ok());
  ASSERT_EQ(engine->DocumentCount(), docs.size());

  auto oracle = Engine::Create(SystemId::kC);
  ASSERT_TRUE(oracle->Load(docs[0].xml).ok());
  const std::string big_q = RewriteEntryCalls(GetQuery(1).text,
                                              "doc(\"big.xml\")");
  EXPECT_EQ(RunSerialized(engine.get(), big_q),
            RunSerialized(oracle.get(), GetQuery(1).text));

  // collection() spans all 7 documents: one root element each.
  auto roots = engine->Run("for $s in collection()/site return $s/@id");
  ASSERT_TRUE(roots.ok());
  auto count = engine->Run(
      "count(for $p in collection()/site/people/person return $p)");
  ASSERT_TRUE(count.ok());
  // Per-document evaluation: one count per document, in id order.
  EXPECT_EQ(count->size(), docs.size());
}

// The CI ingest-determinism gate in test form: an 8-document corpus
// loaded with 1, 2 and 8 ingest threads dumps byte-identical catalog
// state (document order, global id ranges, per-store layout) on every
// mapping.
TEST(CatalogEdgeTest, IngestDeterministicAcrossThreadCounts) {
  std::vector<store::CorpusDocument> docs;
  for (int i = 0; i < 8; ++i) {
    store::CorpusDocument doc;
    doc.id = "d" + std::to_string(i) + ".xml";
    doc.xml = GenerateDocument(0.002, 200 + i);
    docs.push_back(std::move(doc));
  }
  for (SystemId id : kStores) {
    std::string reference;
    for (unsigned threads : {1u, 2u, 8u}) {
      auto engine = Engine::Create(id);
      store::LoadOptions load;
      load.threads = threads;
      engine->set_load_options(load);
      ASSERT_TRUE(engine->LoadCorpus(docs).ok());
      std::string dump;
      engine->DumpCatalogState(&dump);
      if (threads == 1u) {
        reference = std::move(dump);
        ASSERT_FALSE(reference.empty());
      } else {
        EXPECT_EQ(dump, reference)
            << "system " << SystemLabel(id) << " ingest with " << threads
            << " threads diverged from single-threaded ingest";
      }
    }
  }
}

// Multi-document scope conflicts are a static, coded compile error.
TEST(CatalogEdgeTest, ConflictingScopesRejected) {
  auto engine = Engine::Create(SystemId::kA);
  ASSERT_TRUE(engine->LoadDocument("a.xml", GenerateDocument(0.001, 1))
                  .ok());
  auto conflict = engine->Run(
      "for $x in doc(\"a.xml\")/site, $y in collection()/site "
      "return $x");
  ASSERT_FALSE(conflict.ok());
  EXPECT_EQ(conflict.status().code(), StatusCode::kInvalidQuery);
  EXPECT_NE(conflict.status().message().find("[multi-document-scope]"),
            std::string::npos)
      << conflict.status().message();
}

// Explain must name the document scope the plan binds — doc()/collection()
// routing is part of the plan's observable surface, not a hidden rewrite.
TEST(CatalogEdgeTest, ExplainRendersScopeAndCatalog) {
  auto engine = Engine::Create(SystemId::kD);
  std::vector<store::CorpusDocument> docs;
  for (int i = 0; i < 2; ++i) {
    store::CorpusDocument doc;
    doc.id = "ex-" + std::to_string(i) + ".xml";
    doc.xml = GenerateDocument(0.001, 60 + i);
    docs.push_back(std::move(doc));
  }
  ASSERT_TRUE(engine->LoadCorpus(docs).ok());

  auto coll = engine->Explain("count(collection()/site)");
  ASSERT_TRUE(coll.ok()) << coll.status().message();
  EXPECT_NE(coll->find("scope: collection"), std::string::npos) << *coll;
  EXPECT_NE(coll->find("catalog: documents=2"), std::string::npos) << *coll;

  auto scoped = engine->Explain("count(doc(\"ex-1.xml\")/site)");
  ASSERT_TRUE(scoped.ok()) << scoped.status().message();
  EXPECT_NE(scoped->find("scope: doc(ex-1.xml)"), std::string::npos)
      << *scoped;

  auto plain = engine->Explain("count(doc(\"ex-0.xml\")//item)");
  ASSERT_TRUE(plain.ok());
  EXPECT_NE(plain->find("scope: doc(ex-0.xml)"), std::string::npos);
}

// System G (embedded, reload-per-query) stays single-document.
TEST(CatalogEdgeTest, EmbeddedEngineRejectsCorpora) {
  auto engine = Engine::Create(SystemId::kG);
  ASSERT_TRUE(engine->Load(GenerateDocument(0.001, 2)).ok());
  Status more = engine->LoadDocument("extra.xml", GenerateDocument(0.001, 3));
  ASSERT_FALSE(more.ok());
  EXPECT_EQ(more.code(), StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace xmark::bench
