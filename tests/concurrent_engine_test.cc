// Concurrent serving correctness: N client threads with private
// EngineSessions against one shared loaded store must produce results
// byte-identical to serial execution, the plan cache must compile each
// (query, store, options) key exactly once, sessions must survive engine
// teardown, shared statistics must merge exactly, and one parsed module
// must serve several stores at once. Run under ThreadSanitizer in CI
// (-DSANITIZE=thread).

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "gen/generator.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "query/value.h"
#include "util/logging.h"
#include "xmark/engine.h"
#include "xmark/queries.h"

namespace xmark::bench {
namespace {

constexpr unsigned kClientThreads = 4;

// Mixed workload covering every execution feature: id lookup, regular
// paths, tag/path indexes, hash join, band join, ordered access,
// aggregation, template-heavy construction.
const int kWorkload[] = {1, 2, 6, 7, 8, 10, 11, 12, 13, 20};

const std::string& TestDocument() {
  static const std::string* const kDoc = [] {
    gen::GeneratorOptions options;
    options.scale = 0.002;
    return new std::string(gen::XmlGen(options).GenerateToString());
  }();
  return *kDoc;
}

std::unique_ptr<Engine> LoadedEngine(SystemId id) {
  std::unique_ptr<Engine> engine = Engine::Create(id);
  XMARK_CHECK(
      engine->LoadDocument(Engine::kDefaultDocumentId, TestDocument()).ok());
  return engine;
}

// The benchmark texts of the mixed workload.
std::vector<std::string> WorkloadTexts() {
  std::vector<std::string> texts;
  for (int q : kWorkload) texts.emplace_back(GetQuery(q).text);
  return texts;
}

// Serial reference: one result string per query text, computed through
// the uncached single-threaded path.
std::vector<std::string> SerialResults(Engine* engine,
                                       const std::vector<std::string>& texts) {
  std::vector<std::string> expected;
  for (const std::string& text : texts) {
    auto result = engine->Run(text);
    XMARK_CHECK(result.ok());
    expected.push_back(query::SerializeSequence(*result));
  }
  return expected;
}

// Runs `texts` on `threads` concurrent sessions of `engine`; every
// (thread, query) result must serialize identically to `expected`.
// `passes` > 1 re-runs the mix so later iterations exercise the warm
// plan cache.
void RunConcurrentAndCompare(Engine* engine,
                             const std::vector<std::string>& texts,
                             const std::vector<std::string>& expected,
                             unsigned threads, int passes) {
  std::vector<std::string> errors(threads);
  std::vector<std::thread> clients;
  for (unsigned t = 0; t < threads; ++t) {
    auto session_or = engine->CreateSession();
    ASSERT_TRUE(session_or.ok()) << session_or.status();
    clients.emplace_back(
        [&, t, session = std::shared_ptr<EngineSession>(
                 std::move(*session_or))] {
          for (int pass = 0; pass < passes; ++pass) {
            for (size_t i = 0; i < texts.size(); ++i) {
              // De-phase the clients so they are not in lock-step on the
              // same query.
              const size_t pick = (i + t * 3) % texts.size();
              auto result = session->Run(texts[pick]);
              if (!result.ok()) {
                errors[t] = result.status().ToString();
                return;
              }
              if (query::SerializeSequence(*result) != expected[pick]) {
                errors[t] = "diverged from serial result: " +
                            texts[pick].substr(0, 80);
                return;
              }
            }
          }
        });
  }
  for (std::thread& c : clients) c.join();
  for (unsigned t = 0; t < threads; ++t) {
    EXPECT_EQ(errors[t], "") << "client " << t;
  }
}

TEST(ConcurrentEngine, SessionsMatchSerialByteForByte) {
  std::unique_ptr<Engine> engine = LoadedEngine(SystemId::kD);
  const std::vector<std::string> texts = WorkloadTexts();
  const std::vector<std::string> expected = SerialResults(engine.get(), texts);
  RunConcurrentAndCompare(engine.get(), texts, expected, kClientThreads,
                          /*passes=*/2);
}

TEST(ConcurrentEngine, EdgeStoreSessionsMatchSerial) {
  std::unique_ptr<Engine> engine = LoadedEngine(SystemId::kA);
  const std::vector<std::string> texts = WorkloadTexts();
  const std::vector<std::string> expected = SerialResults(engine.get(), texts);
  RunConcurrentAndCompare(engine.get(), texts, expected, kClientThreads,
                          /*passes=*/1);
}

TEST(ConcurrentEngine, FragmentedStoreSessionsMatchSerial) {
  std::unique_ptr<Engine> engine = LoadedEngine(SystemId::kB);
  const std::vector<std::string> texts = WorkloadTexts();
  const std::vector<std::string> expected = SerialResults(engine.get(), texts);
  RunConcurrentAndCompare(engine.get(), texts, expected, kClientThreads,
                          /*passes=*/1);
}

// System G sessions reload the document into a private store per Execute:
// concurrent G clients share nothing but the plan-cache shell (which G
// bypasses) and must still match serial results.
TEST(ConcurrentEngine, ReloadPerQuerySessionsMatchSerial) {
  std::unique_ptr<Engine> engine = LoadedEngine(SystemId::kG);
  // Small subset: G reloads the document per query, so the full mix would
  // dominate test time without covering anything new.
  std::vector<std::string> expected;
  const int subset[] = {1, 8, 13};
  for (int q : subset) {
    auto result = engine->Run(GetQuery(q).text);
    ASSERT_TRUE(result.ok()) << result.status();
    expected.push_back(query::SerializeSequence(*result));
  }
  std::vector<std::string> errors(2);
  std::vector<std::thread> clients;
  for (unsigned t = 0; t < 2; ++t) {
    auto session_or = engine->CreateSession();
    ASSERT_TRUE(session_or.ok()) << session_or.status();
    clients.emplace_back([&, t, session = std::shared_ptr<EngineSession>(
                                 std::move(*session_or))] {
      for (size_t i = 0; i < std::size(subset); ++i) {
        auto result = session->Run(GetQuery(subset[i]).text);
        if (!result.ok()) {
          errors[t] = result.status().ToString();
          return;
        }
        if (query::SerializeSequence(*result) != expected[i]) {
          errors[t] = "Q" + std::to_string(subset[i]) + " diverged";
          return;
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(errors[0], "");
  EXPECT_EQ(errors[1], "");
}

// Replaces every `document("auction.xml")` entry call of a benchmark
// query with `entry` (a doc() call or collection()).
std::string WithEntry(std::string_view text, std::string_view entry) {
  constexpr std::string_view kNeedle = "document(\"auction.xml\")";
  std::string out(text);
  for (size_t pos = out.find(kNeedle); pos != std::string::npos;
       pos = out.find(kNeedle, pos + entry.size())) {
    out.replace(pos, kNeedle.size(), entry);
  }
  return out;
}

// Construction-heavy corpus serving: 4 sessions run the doc() and
// collection() forms of Q8, Q10, Q13 and Q19 at once. Every collection()
// leg builds its results in its own arena on a pool thread, beside the
// other clients' arenas; each result must equal the serial run's bytes.
TEST(ConcurrentEngine, CorpusConstructionMatchesSerial) {
  std::unique_ptr<Engine> engine = Engine::Create(SystemId::kD);
  std::vector<store::CorpusDocument> corpus;
  for (uint64_t d = 0; d < 4; ++d) {
    gen::GeneratorOptions options;
    options.scale = 0.002;
    options.seed = 11 + d;
    corpus.push_back({"corpus-" + std::to_string(d) + ".xml",
                      gen::XmlGen(options).GenerateToString()});
  }
  ASSERT_TRUE(engine->LoadCorpus(corpus).ok());
  std::vector<std::string> texts;
  for (int q : {8, 10, 13, 19}) {
    texts.push_back(WithEntry(GetQuery(q).text, "doc(\"corpus-2.xml\")"));
    texts.push_back(WithEntry(GetQuery(q).text, "collection()"));
  }
  const std::vector<std::string> expected = SerialResults(engine.get(), texts);
  for (const std::string& bytes : expected) ASSERT_FALSE(bytes.empty());
  RunConcurrentAndCompare(engine.get(), texts, expected, kClientThreads,
                          /*passes=*/2);
}

// Node ids come from per-arena ranges: nodes of two arenas (as a
// collection() result concatenates them) order by arena creation first,
// then by node creation, whichever thread built them and in whatever
// interleaving.
TEST(ConcurrentEngine, SortDedupOrdersArenasThenNodesByCreation) {
  auto first = std::make_shared<query::NodeArena>();
  auto second = std::make_shared<query::NodeArena>();
  const query::ConstructedNode* b[2];
  std::thread([&] {  // the later arena fills first, on another thread
    b[0] = second->AllocateNode();
    b[1] = second->AllocateNode();
  }).join();
  const query::ConstructedNode* a[2] = {first->AllocateNode(),
                                        first->AllocateNode()};
  query::Sequence seq;
  for (const query::ConstructedNode* n : {b[1], a[1], b[0], a[0], b[1]}) {
    const bool in_first = first->Owns(*n);
    seq.push_back(query::Item(
        query::ConstructedPtr(in_first ? first : second, n)));
  }
  query::SortDedupNodes(&seq);
  ASSERT_EQ(seq.size(), 4u);
  EXPECT_EQ(seq[0].constructed().get(), a[0]);
  EXPECT_EQ(seq[1].constructed().get(), a[1]);
  EXPECT_EQ(seq[2].constructed().get(), b[0]);
  EXPECT_EQ(seq[3].constructed().get(), b[1]);
}

// Concurrent clients through the serving path, each query on its calling
// thread: same bytes as the serial engine.
TEST(ConcurrentEngine, ParallelExecSessionsMatchSerial) {
  std::unique_ptr<Engine> engine = LoadedEngine(SystemId::kD);
  const std::vector<std::string> texts = WorkloadTexts();
  const std::vector<std::string> expected = SerialResults(engine.get(), texts);
  RunConcurrentAndCompare(engine.get(), texts, expected, /*threads=*/2,
                          /*passes=*/1);
}

// Fused FLWORs through the serving path: Q1, Q5, Q6 and Q14 on the edge
// store (descendant cursors over its id->tag column) must stay
// byte-identical to the serial engine while concurrent clients share the
// store and plan cache.
TEST(ConcurrentEngine, FusedPipelineSessionsMatchSerial) {
  std::unique_ptr<Engine> engine = LoadedEngine(SystemId::kA);
  std::vector<std::string> expected;
  const int fusable[] = {1, 5, 6, 14};
  for (int q : fusable) {
    auto result = engine->Run(GetQuery(q).text);
    ASSERT_TRUE(result.ok()) << result.status();
    expected.push_back(query::SerializeSequence(*result));
  }
  ASSERT_TRUE(engine->evaluator_options().hash_join);  // A serves fused plans
  std::vector<std::string> errors(kClientThreads);
  std::vector<std::thread> clients;
  for (unsigned t = 0; t < kClientThreads; ++t) {
    auto session_or = engine->CreateSession();
    ASSERT_TRUE(session_or.ok()) << session_or.status();
    clients.emplace_back([&, t, session = std::shared_ptr<EngineSession>(
                                 std::move(*session_or))] {
      for (int pass = 0; pass < 2; ++pass) {
        for (size_t i = 0; i < std::size(fusable); ++i) {
          auto result = session->Run(GetQuery(fusable[i]).text);
          if (!result.ok()) {
            errors[t] = result.status().ToString();
            return;
          }
          if (query::SerializeSequence(*result) != expected[i]) {
            errors[t] = "Q" + std::to_string(fusable[i]) +
                        " fused run diverged from serial result";
            return;
          }
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  for (unsigned t = 0; t < kClientThreads; ++t) {
    EXPECT_EQ(errors[t], "") << "client " << t;
  }
}

// The cache compiles each (query text, store, options) key exactly once:
// with T threads x P passes over W distinct queries, misses == W and
// every other prepare is a hit.
TEST(ConcurrentEngine, PlanCacheCompilesOncePerKey) {
  std::unique_ptr<Engine> engine = LoadedEngine(SystemId::kD);
  const std::vector<std::string> texts = WorkloadTexts();
  const std::vector<std::string> expected = SerialResults(engine.get(), texts);
  ASSERT_EQ(engine->plan_cache_stats().hits, 0u);
  ASSERT_EQ(engine->plan_cache_stats().misses, 0u);  // Engine::Run is uncached

  constexpr int kPasses = 3;
  RunConcurrentAndCompare(engine.get(), texts, expected, kClientThreads,
                          kPasses);

  const query::PlanCacheStats stats = engine->plan_cache_stats();
  const uint64_t total =
      uint64_t{kClientThreads} * kPasses * std::size(kWorkload);
  EXPECT_EQ(stats.misses, std::size(kWorkload));
  EXPECT_EQ(stats.hits, total - std::size(kWorkload));
}

TEST(ConcurrentEngine, PreparedQueryReportsCacheHit) {
  std::unique_ptr<Engine> engine = LoadedEngine(SystemId::kD);
  auto first = engine->PrepareCached(GetQuery(1).text);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->cache_hit);
  auto second = engine->PrepareCached(GetQuery(1).text);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->cache_hit);
  // Both views resolve to the same shared compilation.
  EXPECT_EQ(first->annotations.get(), second->annotations.get());
  // Compilation statistics survive the cache round-trip.
  EXPECT_EQ(first->name_tests, second->name_tests);
  EXPECT_EQ(first->catalog_probes, second->catalog_probes);
  // The uncached Table 2 path never touches the cache.
  const query::PlanCacheStats before = engine->plan_cache_stats();
  ASSERT_TRUE(engine->Prepare(GetQuery(1).text).ok());
  const query::PlanCacheStats after = engine->plan_cache_stats();
  EXPECT_EQ(before.hits, after.hits);
  EXPECT_EQ(before.misses, after.misses);
}

// A people/person document of `persons` people. With `decoy_first`, a
// decoy subtree introduces the same tags in reverse order before the
// people, so every tag the queries name gets a different NameId than in
// the plain document.
std::string PeopleDocument(int persons, bool decoy_first) {
  std::string xml = "<site>";
  if (decoy_first) {
    xml += "<decoy><age/><profile/><name/><person/><people/></decoy>";
  }
  xml += "<people>";
  for (int i = 0; i < persons; ++i) {
    const int age = decoy_first ? 20 + (i * 7) % 30 : 18 + (i * 5) % 40;
    xml += "<person id=\"p" + std::to_string(i) + "\"><name>" +
           (decoy_first ? "B" : "A") + std::to_string(i) +
           "</name><profile><age>" + std::to_string(age) +
           "</age></profile></person>";
  }
  return xml + "</people></site>";
}

// One parsed module runs on several stores at once: each run takes its
// NameIds from its own store's plan, never from the shared module. Four
// threads alternate every run between two stores that number the same
// tags differently, under System F's options and store, so every step runs
// through ApplyStep (no path index, no fusion). Each result must equal
// that store's solo run.
TEST(ConcurrentEngine, SharedModuleServesStoresWithDifferentNameIds) {
  const query::EvaluatorOptions options =
      Engine::Create(SystemId::kF)->evaluator_options();
  ASSERT_FALSE(options.hash_join);
  std::vector<std::unique_ptr<Engine>> engines;
  for (bool decoy_first : {false, true}) {
    engines.push_back(Engine::Create(SystemId::kF));
    const std::string xml = PeopleDocument(24, decoy_first);
    ASSERT_TRUE(engines.back()->LoadDocument("people.xml", xml).ok());
  }
  const query::StorageAdapter* stores[] = {engines[0]->store(),
                                           engines[1]->store()};
  ASSERT_NE(stores[0]->names().Lookup("person"),
            stores[1]->names().Lookup("person"));
  ASSERT_FALSE(stores[0]->Capabilities().path_index);

  const char* const shapes[] = {
      // An unfused FLWOR over a child path.
      "for $p in /site/people/person return $p/name/text()",
      // A path with a predicate.
      "/site/people/person[profile/age > 40]/name/text()",
      // A streamed comparison.
      "for $p in /site/people/person where $p/profile/age > 30 "
      "return $p/@id",
  };
  std::vector<query::ParsedQuery> modules;
  std::vector<std::array<std::string, 2>> expected;
  for (const char* text : shapes) {
    auto parsed = query::ParseQueryText(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    modules.push_back(std::move(*parsed));
    std::array<std::string, 2> solo;
    for (size_t s = 0; s < 2; ++s) {
      query::Evaluator evaluator(stores[s], options);
      auto result = evaluator.Run(modules.back());
      ASSERT_TRUE(result.ok()) << result.status();
      solo[s] = query::SerializeSequence(*result);
    }
    ASSERT_NE(solo[0], solo[1]) << text;
    expected.push_back(std::move(solo));
  }

  constexpr int kRuns = 4000;
  std::vector<std::string> errors(kClientThreads);
  std::vector<std::thread> clients;
  for (unsigned t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      query::Evaluator evaluators[] = {
          query::Evaluator(stores[0], options),
          query::Evaluator(stores[1], options)};
      for (int run = 0; run < kRuns; ++run) {
        const size_t s = (t + run) % 2;
        const size_t q = run % modules.size();
        auto result = evaluators[s].Run(modules[q]);
        if (!result.ok()) {
          errors[t] = result.status().ToString();
          return;
        }
        if (query::SerializeSequence(*result) != expected[q][s]) {
          errors[t] = "run " + std::to_string(run) + " of \"" + shapes[q] +
                      "\" on store " + std::to_string(s) +
                      " diverged from its solo run";
          return;
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  for (unsigned t = 0; t < kClientThreads; ++t) {
    EXPECT_EQ(errors[t], "") << "client " << t;
  }
}

// Sessions share the store and serving state by shared_ptr: destroying
// the engine while sessions live must leave them fully functional.
TEST(ConcurrentEngine, SessionOutlivesEngine) {
  std::unique_ptr<Engine> engine = LoadedEngine(SystemId::kD);
  auto baseline = engine->Run(GetQuery(8).text);
  ASSERT_TRUE(baseline.ok());
  const std::string expected = query::SerializeSequence(*baseline);

  auto session_or = engine->CreateSession();
  ASSERT_TRUE(session_or.ok()) << session_or.status();
  std::unique_ptr<EngineSession> session = std::move(*session_or);
  engine.reset();  // teardown with the session still live

  auto result = session->Run(GetQuery(8).text);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(query::SerializeSequence(*result), expected);
}

// Per-run statistics merge exactly into the shared cumulative counters at
// query completion.
TEST(ConcurrentEngine, CumulativeStatsMergeExactly) {
  std::unique_ptr<Engine> engine = LoadedEngine(SystemId::kD);
  auto prepared = engine->Prepare(GetQuery(2).text);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(engine->Execute(*prepared).ok());
  const int64_t per_run = engine->last_stats().nodes_visited;
  ASSERT_TRUE(engine->Execute(*prepared).ok());
  ASSERT_TRUE(engine->Execute(*prepared).ok());

  EXPECT_EQ(engine->queries_executed(), 3u);
  EXPECT_EQ(engine->cumulative_stats().nodes_visited, 3 * per_run);
}

// Explain surfaces the serving cache counters.
TEST(ConcurrentEngine, ExplainReportsPlanCacheCounters) {
  std::unique_ptr<Engine> engine = LoadedEngine(SystemId::kD);
  auto before = engine->Explain(GetQuery(1).text);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_NE(before->find("plan-cache: hits=0 misses=0"), std::string::npos)
      << *before;
  ASSERT_TRUE(engine->PrepareCached(GetQuery(1).text).ok());
  ASSERT_TRUE(engine->PrepareCached(GetQuery(1).text).ok());
  auto after = engine->Explain(GetQuery(1).text);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_NE(after->find("plan-cache: hits=1 misses=1"), std::string::npos)
      << *after;
}

}  // namespace
}  // namespace xmark::bench
