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

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen/generator.h"
#include "query/exec_context.h"
#include "query/value.h"
#include "store/document_catalog.h"
#include "store/dom_store.h"
#include "util/logging.h"
#include "util/thread_pool.h"
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
    XMARK_CHECK(engine
                    ->LoadDocument(Engine::kDefaultDocumentId,
                                   CorpusDocs()[slot].xml)
                    .ok());
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
// like the engine's, and so does the default scope: it is resolved at
// every call, so no handle keeps serving the dropped document.
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
  ASSERT_FALSE(default_after.ok());
  EXPECT_EQ(default_after.status().code(), StatusCode::kNotFound);
  EXPECT_NE(default_after.status().message().find("[empty-catalog]"),
            std::string::npos)
      << default_after.status().message();
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
  const uint64_t victim_uid = held->annotations->store_uid;
  auto keeper_prepared = (*session)->Prepare(keeper_q);
  ASSERT_TRUE(keeper_prepared.ok());
  const uint64_t keeper_uid = keeper_prepared->annotations->store_uid;
  ASSERT_GT(engine->plan_cache_entries(victim_uid), 0u);

  // Dropping the document erases its plan-cache entries (its store uid is
  // never reused, so they could only leak); the sibling's entries stay,
  // and a PreparedQuery handed out earlier keeps its entry alive.
  ASSERT_TRUE(engine->DropDocument("victim.xml").ok());
  EXPECT_EQ(engine->plan_cache_entries(victim_uid), 0u);
  EXPECT_GT(engine->plan_cache_entries(keeper_uid), 0u);
  EXPECT_EQ(held->annotations->store_uid, victim_uid);
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
  EXPECT_NE(recompiled->annotations->store_uid, victim_uid);
  auto requeried = (*session)->Run(victim_q);
  ASSERT_TRUE(requeried.ok());

  // A session drop erases entries just like the engine's.
  const uint64_t second_uid = recompiled->annotations->store_uid;
  ASSERT_GT(engine->plan_cache_entries(second_uid), 0u);
  ASSERT_TRUE((*session)->DropDocument("victim.xml").ok());
  EXPECT_EQ(engine->plan_cache_entries(second_uid), 0u);
  ASSERT_TRUE((*session)->LoadDocument("victim.xml", second).ok());
  requeried = (*session)->Run(victim_q);
  ASSERT_TRUE(requeried.ok());

  auto oracle = Engine::Create(SystemId::kB);
  ASSERT_TRUE(oracle->LoadDocument(Engine::kDefaultDocumentId, second).ok());
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
  ASSERT_TRUE(
      oracle->LoadDocument(Engine::kDefaultDocumentId, docs[0].xml).ok());
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

// --------------------------------------------------------------------------
// Parallel collection() fan-out
// --------------------------------------------------------------------------

// The collection() oracle for `query` on `id`: the single-document
// engines' results concatenated as Items in document-id order.
std::string CollectionOracle(SystemId id, int query) {
  query::Sequence combined;
  for (size_t slot = 0; slot < kCorpusSize; ++slot) {
    auto result = ReferenceEngine(id, slot)->Run(GetQuery(query).text);
    XMARK_CHECK(result.ok());
    for (query::Item& item : *result) combined.push_back(std::move(item));
  }
  return SerializeSequence(combined);
}

// Sessions sharing one engine fan collection() out concurrently: legs of
// different requests interleave on the one process pool, and every
// session still gets the exact id-order concatenation.
TEST(CatalogEdgeTest, ConcurrentCollectionSessionsMatchOracle) {
  constexpr int kSessions = 4;
  std::vector<std::string> rewritten;
  std::vector<std::string> expected;
  for (int q = 1; q <= 20; ++q) {
    rewritten.push_back(RewriteEntryCalls(GetQuery(q).text, "collection()"));
    expected.push_back(CollectionOracle(SystemId::kD, q));
  }
  Engine* engine = CatalogEngine(SystemId::kD, 1);
  std::vector<std::string> errors(kSessions);
  std::vector<std::thread> clients;
  for (int t = 0; t < kSessions; ++t) {
    auto session_or = engine->CreateSession();
    ASSERT_TRUE(session_or.ok()) << session_or.status().message();
    clients.emplace_back([&, t, session = std::shared_ptr<EngineSession>(
                                 std::move(*session_or))] {
      // Each session starts at a different query, so the legs in flight
      // at any moment belong to different queries.
      for (int k = 0; k < 20; ++k) {
        const int i = (k + 5 * t) % 20;
        auto result = session->Run(rewritten[i]);
        if (!result.ok()) {
          errors[t] = "Q" + std::to_string(i + 1) + ": " +
                      result.status().message();
          return;
        }
        if (SerializeSequence(*result) != expected[i]) {
          errors[t] = "Q" + std::to_string(i + 1) +
                      " diverged from the concatenation oracle";
          return;
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  for (int t = 0; t < kSessions; ++t) EXPECT_EQ(errors[t], "") << t;
}

// Query execution starts no thread once the process pool exists: the
// collection() fan-out builds no pool of its own, and a doc() query runs
// on its caller.
TEST(CatalogEdgeTest, QueriesStartNoThreads) {
  auto engine = Engine::Create(SystemId::kD);
  ASSERT_TRUE(engine->LoadCorpus(CorpusDocs()).ok());
  auto session = engine->CreateSession();
  ASSERT_TRUE(session.ok());
  const std::string fan_out =
      RewriteEntryCalls(GetQuery(8).text, "collection()");
  // Q14: a descendant scan (site//item) of one document.
  const std::string scan =
      RewriteEntryCalls(GetQuery(14).text, "doc(\"doc-c.xml\")");
  for (const std::string* text : {&fan_out, &scan}) {
    ASSERT_TRUE((*session)->Run(*text).ok());  // warm-up
    const uint64_t started = ThreadPool::ThreadsStarted();
    EXPECT_GE(started, ThreadPool::Shared().worker_count() - 1u);
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE((*session)->Run(*text).ok());
    }
    EXPECT_EQ(ThreadPool::ThreadsStarted(), started) << *text;
  }
}

// Loads start no thread once the process pool exists either: every
// bulkload pass is a ForkJoin on it, at any thread count, across the
// documents of a corpus load and in System G's per-query reload.
TEST(CatalogEdgeTest, LoadsStartNoThreads) {
  const std::string& xml = CorpusDocs()[0].xml;
  std::vector<store::CorpusDocument> corpus(4);
  for (size_t i = 0; i < corpus.size(); ++i) {
    corpus[i].id = "n" + std::to_string(i) + ".xml";
    corpus[i].xml = GenerateDocument(0.002, 400 + i);
  }
  ThreadPool::Shared();
  uint64_t started = ThreadPool::ThreadsStarted();
  auto expect_none_started = [&started](const std::string& what) {
    EXPECT_EQ(ThreadPool::ThreadsStarted(), started) << what;
    started = ThreadPool::ThreadsStarted();
  };

  for (SystemId id : kStores) {
    for (unsigned threads : {1u, 2u, 8u}) {
      auto engine = Engine::Create(id);
      engine->set_load_options(store::LoadOptions{threads});
      ASSERT_TRUE(engine->LoadDocument(Engine::kDefaultDocumentId, xml).ok())
          << SystemLabel(id) << " threads=" << threads;
      expect_none_started(std::string("LoadDocument on ") + SystemLabel(id) +
                          " at " + std::to_string(threads) + " threads");
    }
  }

  auto catalog = Engine::Create(SystemId::kD);
  catalog->set_load_options(store::LoadOptions{4});
  ASSERT_TRUE(catalog->LoadCorpus(corpus).ok());
  expect_none_started("LoadCorpus of 4 documents at 4 threads");

  // System G rebuilds its store on every query, with the default load
  // threads (hardware_concurrency).
  auto embedded = Engine::Create(SystemId::kG);
  ASSERT_TRUE(embedded->LoadDocument(Engine::kDefaultDocumentId, xml).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(embedded->Run(GetQuery(1).text).ok());
  }
  expect_none_started("5 System G queries");
}

// Loads and collection() fan-outs share the one pool: while two sessions
// of one engine run collection() Q8 and Q10, other engines load and drop
// documents at 4 threads in a loop, and every fan-out still returns the
// exact id-order concatenation.
TEST(CatalogEdgeTest, LoadsBesideFanOutsShareThePool) {
  const std::string fan_outs[] = {
      RewriteEntryCalls(GetQuery(8).text, "collection()"),
      RewriteEntryCalls(GetQuery(10).text, "collection()")};
  const std::string expected[] = {CollectionOracle(SystemId::kD, 8),
                                  CollectionOracle(SystemId::kD, 10)};
  Engine* serving = CatalogEngine(SystemId::kD, 1);
  constexpr int kSessions = 2;
  std::vector<std::shared_ptr<EngineSession>> sessions;
  for (int t = 0; t < kSessions; ++t) {
    auto session_or = serving->CreateSession();
    ASSERT_TRUE(session_or.ok()) << session_or.status().message();
    sessions.push_back(std::move(*session_or));
  }

  // The loader runs until every session is done, and at least one cycle
  // per mapping.
  std::atomic<int> sessions_running{kSessions};
  std::string load_error;
  std::thread loader([&] {
    std::vector<std::unique_ptr<Engine>> loaders;
    for (SystemId id : kStores) {
      loaders.push_back(Engine::Create(id));
      loaders.back()->set_load_options(store::LoadOptions{4});
    }
    for (size_t cycle = 0;
         sessions_running.load() > 0 || cycle < loaders.size(); ++cycle) {
      Engine& engine = *loaders[cycle % loaders.size()];
      Status status = engine.LoadDocument("churn.xml", CorpusDocs()[1].xml);
      if (status.ok()) status = engine.DropDocument("churn.xml");
      if (!status.ok()) {
        load_error = status.message();
        return;
      }
    }
  });
  std::vector<std::string> errors(kSessions);
  std::vector<std::thread> clients;
  for (int t = 0; t < kSessions; ++t) {
    clients.emplace_back([&, t] {
      for (int round = 0; round < 3 && errors[t].empty(); ++round) {
        for (size_t q = 0; q < 2; ++q) {
          auto result = sessions[t]->Run(fan_outs[q]);
          if (!result.ok()) {
            errors[t] = result.status().message();
          } else if (SerializeSequence(*result) != expected[q]) {
            errors[t] = fan_outs[q] + " diverged from the oracle";
          }
        }
      }
      sessions_running.fetch_sub(1);
    });
  }
  for (std::thread& c : clients) c.join();
  loader.join();
  EXPECT_EQ(load_error, "");
  for (int t = 0; t < kSessions; ++t) EXPECT_EQ(errors[t], "") << t;
}

// A cancelled collection() fails coded, whatever leg observes the
// cancellation first, and the next call serves the exact bytes.
TEST(CatalogEdgeTest, CancelledCollectionFailsThenServesExactBytes) {
  Engine* engine = CatalogEngine(SystemId::kD, 1);
  auto prepared = engine->Prepare(
      RewriteEntryCalls(GetQuery(10).text, "collection()"));
  ASSERT_TRUE(prepared.ok()) << prepared.status().message();
  query::ExecContext ctx;
  ctx.Cancel();
  auto cancelled = engine->Execute(*prepared, &ctx);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled)
      << cancelled.status().message();

  auto retry = engine->Execute(*prepared);
  ASSERT_TRUE(retry.ok()) << retry.status().message();
  EXPECT_EQ(SerializeSequence(*retry), CollectionOracle(SystemId::kD, 10));
}

// A corpus load splits its thread budget across the builds it runs at
// once: width = min(threads, documents) builds, each with
// max(1, threads / width) load threads.
TEST(CatalogEdgeTest, CorpusLoadSplitsThreadsAcrossBuilds) {
  struct Case {
    size_t documents;
    unsigned threads;
    unsigned per_build;
  };
  for (const Case& c : {Case{8, 4, 1}, Case{2, 8, 4}, Case{2, 3, 1}}) {
    std::atomic<unsigned> calls{0};
    std::atomic<unsigned> wrong{0};  // a per-build count other than expected
    const store::DocumentCatalog::StoreBuilder recording =
        [&](std::string_view xml, const store::LoadOptions& load)
        -> StatusOr<std::shared_ptr<query::StorageAdapter>> {
      ++calls;
      if (load.threads != c.per_build) wrong = load.threads;
      XMARK_ASSIGN_OR_RETURN(
          std::unique_ptr<store::DomStore> built,
          store::DomStore::Load(xml, store::DomStore::Options{}, load));
      return std::shared_ptr<query::StorageAdapter>(std::move(built));
    };
    std::vector<store::CorpusDocument> docs(c.documents);
    for (size_t i = 0; i < c.documents; ++i) {
      docs[i].id = "t" + std::to_string(i) + ".xml";
      docs[i].xml = GenerateDocument(0.001, 300 + i);
    }
    store::LoadOptions load;
    load.threads = c.threads;
    store::DocumentCatalog catalog;
    ASSERT_TRUE(catalog.LoadCorpus(docs, recording, load).ok());
    EXPECT_EQ(calls.load(), c.documents);
    EXPECT_EQ(wrong.load(), 0u)
        << c.documents << " documents at " << c.threads
        << " threads: a build got " << wrong.load() << " instead of "
        << c.per_build;
  }
}

// System G (embedded, reload-per-query) stays single-document.
TEST(CatalogEdgeTest, EmbeddedEngineRejectsCorpora) {
  auto engine = Engine::Create(SystemId::kG);
  ASSERT_TRUE(engine
                  ->LoadDocument(Engine::kDefaultDocumentId,
                                 GenerateDocument(0.001, 2))
                  .ok());
  Status more = engine->LoadDocument("extra.xml", GenerateDocument(0.001, 3));
  ASSERT_FALSE(more.ok());
  EXPECT_EQ(more.code(), StatusCode::kUnimplemented);
}

// --------------------------------------------------------------------------
// Engine::LoadCorpusFromDir
// --------------------------------------------------------------------------

// A directory under the test temp dir, removed when the test ends.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(std::filesystem::path(::testing::TempDir()) /
              (name + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  void Write(const std::string& relative, const std::string& content) const {
    const std::filesystem::path file = path_ / relative;
    std::filesystem::create_directories(file.parent_path());
    std::ofstream(file, std::ios::binary) << content;
  }
  std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

// Only the directory's own regular *.xml files load, under their file
// names, in sorted order, as one batch.
TEST(CatalogEdgeTest, LoadCorpusFromDirLoadsRegularXmlFiles) {
  ScratchDir dir("corpus-dir-files");
  const std::string b = GenerateDocument(0.001, 21);
  dir.Write("b.xml", b);
  dir.Write("a.xml", GenerateDocument(0.001, 20));
  dir.Write("notes.txt", GenerateDocument(0.001, 22));
  dir.Write("nested/c.xml", GenerateDocument(0.001, 23));
  std::filesystem::create_directories(dir.path() + "/folder.xml");

  auto engine = Engine::Create(SystemId::kD);
  auto loaded = engine->LoadCorpusFromDir(dir.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, 2u);
  EXPECT_EQ(engine->ListDocuments(),
            (std::vector<std::string>{"a.xml", "b.xml"}));
  auto oracle = Engine::Create(SystemId::kD);
  ASSERT_TRUE(oracle->LoadDocument("b.xml", b).ok());
  const std::string names =
      "for $p in doc(\"b.xml\")/site/people/person return $p/name";
  EXPECT_EQ(RunSerialized(engine.get(), names),
            RunSerialized(oracle.get(), names));
}

TEST(CatalogEdgeTest, LoadCorpusFromDirMissingDirFailsCoded) {
  auto engine = Engine::Create(SystemId::kD);
  auto loaded = engine->LoadCorpusFromDir(::testing::TempDir() +
                                          "/no-such-corpus-dir");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  EXPECT_NE(loaded.status().message().find("[corpus-dir]"),
            std::string::npos)
      << loaded.status();
}

// One malformed file fails the whole batch: nothing from the directory
// lands in the catalog.
TEST(CatalogEdgeTest, LoadCorpusFromDirMalformedFileFailsWholeBatch) {
  ScratchDir dir("corpus-dir-malformed");
  dir.Write("good.xml", GenerateDocument(0.001, 24));
  dir.Write("torn.xml", "<site><people><person id=\"p0\">");

  auto engine = Engine::Create(SystemId::kA);
  ASSERT_TRUE(
      engine->LoadDocument("kept.xml", GenerateDocument(0.001, 25)).ok());
  auto loaded = engine->LoadCorpusFromDir(dir.path());
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(engine->DocumentCount(), 1u);
  EXPECT_EQ(engine->ListDocuments(), std::vector<std::string>{"kept.xml"});
}

}  // namespace
}  // namespace xmark::bench
