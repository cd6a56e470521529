// Resource governance for the serving layer: deadlines, cooperative
// cancellation, memory/step budgets, error taxonomy, and fault-injection
// coverage. The invariants under test:
//   - a violated limit surfaces as the matching StatusCode, promptly, and
//     the run's NodeArena is freed (no result memory outlives a failure);
//   - governance is per-run: a cancelled query leaves the shared plan
//     cache and every sibling session byte-identical to serial execution;
//   - with RunOptions unset, governed and ungoverned results are
//     byte-identical (governance is opt-in, zero behavior change);
//   - every registered fault site fails as a clean Status, never a crash
//     (compiled in with -DFAULT_INJECTION=ON; CI runs this under ASan).

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "gen/generator.h"
#include "query/evaluator.h"
#include "query/exec_context.h"
#include "query/parser.h"
#include "query/value.h"
#include "store/document_catalog.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "xmark/engine.h"
#include "xmark/queries.h"

namespace xmark::bench {
namespace {

using query::ExecContext;
using query::RunOptions;

// Wall-clock bound for a deadline rejection. The serving target is 25 ms
// (checks happen at batch boundaries, never more than one batch after the
// clock expires); sanitizer and fault-injection builds run the same code
// several times slower, so they get a loose bound instead of flakes.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define XMARK_TEST_SLOW_BUILD 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    XMARK_FAULT_INJECTION
#define XMARK_TEST_SLOW_BUILD 1
#endif
#ifdef XMARK_TEST_SLOW_BUILD
constexpr std::chrono::milliseconds kDeadlineWallBound{1000};
#else
constexpr std::chrono::milliseconds kDeadlineWallBound{25};
#endif

const std::string& TestDocument() {
  static const std::string* const kDoc = [] {
    gen::GeneratorOptions options;
    options.scale = 0.002;
    return new std::string(gen::XmlGen(options).GenerateToString());
  }();
  return *kDoc;
}

std::unique_ptr<Engine> LoadedEngine(SystemId id = SystemId::kD) {
  std::unique_ptr<Engine> engine = Engine::Create(id);
  XMARK_CHECK(
      engine->LoadDocument(Engine::kDefaultDocumentId, TestDocument()).ok());
  return engine;
}

std::string RunSerialized(Engine* engine, int q) {
  auto result = engine->Run(GetQuery(q).text);
  XMARK_CHECK(result.ok());
  return query::SerializeSequence(*result);
}

// Deadline options that have already expired once ExpireDeadline() has
// slept past them: the first cooperative check consults the clock (stride
// checks start at tick 1), so the rejection is deterministic regardless of
// query or scale. (ExecContext is pinned — non-copyable — hence the
// two-step helper instead of returning a context by value.)
RunOptions ExpiredDeadlineOptions() {
  RunOptions options;
  options.deadline_ms = 1;
  return options;
}

void ExpireDeadline() {
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
}

// --------------------------------------------------------------------------
// Deadlines
// --------------------------------------------------------------------------

TEST(ResourceGovernance, DeadlineExceededPromptlyOnConstructionHeavyQuery) {
  std::unique_ptr<Engine> engine = LoadedEngine();
  auto prepared = engine->Prepare(GetQuery(10).text);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  ExecContext ctx(ExpiredDeadlineOptions());
  ExpireDeadline();
  const auto start = std::chrono::steady_clock::now();
  auto result = engine->Execute(*prepared, &ctx);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status();
  EXPECT_LT(elapsed, kDeadlineWallBound);
  EXPECT_EQ(engine->outcomes().deadline_exceeded, 1u);
  EXPECT_EQ(engine->outcomes().ok, 0u);

  // The engine keeps serving after the rejection.
  auto retry = engine->Execute(*prepared);
  EXPECT_TRUE(retry.ok()) << retry.status();
  EXPECT_EQ(engine->outcomes().ok, 1u);
}

TEST(ResourceGovernance, BandJoinQueryHonorsDeadline) {
  std::unique_ptr<Engine> engine = LoadedEngine();
  auto prepared = engine->Prepare(GetQuery(11).text);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  ExecContext ctx(ExpiredDeadlineOptions());
  ExpireDeadline();
  auto result = engine->Execute(*prepared, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

// A generous deadline changes nothing: governed results stay byte-identical
// to ungoverned ones, and the run reports its cooperative check count.
TEST(ResourceGovernance, GovernedRunMatchesUngovernedByteForByte) {
  std::unique_ptr<Engine> engine = LoadedEngine();
  const std::string expected = RunSerialized(engine.get(), 10);
  EXPECT_EQ(engine->last_stats().governance_checks, 0);

  RunOptions options;
  options.deadline_ms = 60'000;
  engine->set_run_options(options);
  auto governed = engine->Run(GetQuery(10).text);
  ASSERT_TRUE(governed.ok()) << governed.status();
  EXPECT_EQ(query::SerializeSequence(*governed), expected);
  EXPECT_GT(engine->last_stats().governance_checks, 0);
}

// --------------------------------------------------------------------------
// Memory and step budgets
// --------------------------------------------------------------------------

// A tight result budget must fail the run as kResourceExhausted, and
// destroying the evaluator must free the arena — no failed run leaks
// result memory (weak_ptr expiry proves it). The budget is scanned
// upward until the violation lands after Q10's first arena block, so the
// arena provably exists mid-run when the query is killed; a 1-byte
// budget additionally pins the earliest rejection (Sequence growth,
// before any construction).
TEST(ResourceGovernance, MemoryBudgetFreesArenaOnFailure) {
  std::unique_ptr<Engine> engine = LoadedEngine();
  auto parsed = query::ParseQueryText(GetQuery(10).text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  {
    query::Evaluator evaluator(engine->store(), engine->evaluator_options());
    RunOptions options;
    options.max_result_bytes = 1;
    ExecContext ctx(options);
    evaluator.set_exec_context(&ctx);
    auto result = evaluator.Run(*parsed);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
        << result.status();
    EXPECT_GT(evaluator.stats().governance_checks, 0);
  }

  for (size_t budget = size_t{1} << 12; budget <= (size_t{1} << 30);
       budget <<= 1) {
    auto evaluator = std::make_unique<query::Evaluator>(
        engine->store(), engine->evaluator_options());
    RunOptions options;
    options.max_result_bytes = budget;
    ExecContext ctx(options);
    evaluator->set_exec_context(&ctx);
    auto result = evaluator->Run(*parsed);
    ASSERT_NE(evaluator->plan(), nullptr);
    if (result.ok()) {
      // Budget no longer binds at this scale; the run completed without a
      // mid-construction kill to observe. (Unreachable in practice: Q10's
      // total charge is far above its charge at first construction.)
      ASSERT_NE(evaluator->plan()->arena, nullptr);
      FAIL() << "budget " << budget
             << " succeeded before a mid-construction violation was seen";
    }
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
        << result.status();
    if (evaluator->plan()->arena == nullptr) continue;  // killed too early

    std::weak_ptr<const query::NodeArena> weak = evaluator->plan()->arena;
    EXPECT_FALSE(weak.expired());
    // Destroy the evaluator (and with it the per-run QueryPlan): the
    // failed run's arena must die with it.
    evaluator.reset();
    EXPECT_TRUE(weak.expired()) << "failed run leaked its NodeArena";
    return;
  }
  FAIL() << "no budget produced a mid-construction kill";
}

// copy_results copies land in the run's arena, so the result budget covers
// them: a result that fits the budget as stored nodes fails the run once it
// is copied (the run checks the budget after its copy loop), and without
// the budget the copies serialize to exactly the stored bytes.
TEST(ResourceGovernance, CopiedResultsAreChargedToTheBudget) {
  constexpr std::string_view kQuery = "document(\"auction.xml\")/site/regions";
  std::unique_ptr<Engine> engine = LoadedEngine();
  auto stored = engine->Run(kQuery);
  ASSERT_TRUE(stored.ok()) << stored.status();
  const std::string expected = query::SerializeSequence(*stored);

  RunOptions budget;
  budget.max_result_bytes = 256 * 1024;
  engine->set_run_options(budget);
  auto fits = engine->Run(kQuery);
  ASSERT_TRUE(fits.ok()) << fits.status();
  EXPECT_EQ(query::SerializeSequence(*fits), expected);

  query::EvaluatorOptions copying = engine->evaluator_options();
  copying.copy_results = true;
  engine->set_evaluator_options(copying);
  auto copied = engine->Run(kQuery);
  ASSERT_FALSE(copied.ok());
  EXPECT_EQ(copied.status().code(), StatusCode::kResourceExhausted)
      << copied.status();

  engine->set_run_options(RunOptions{});
  auto ungoverned = engine->Run(kQuery);
  ASSERT_TRUE(ungoverned.ok()) << ungoverned.status();
  ASSERT_EQ(ungoverned->size(), 1u);
  EXPECT_TRUE(ungoverned->front().is_constructed());
  EXPECT_EQ(query::SerializeSequence(*ungoverned), expected);
}

// The step budget is a deterministic work limit: Q10 needs far more than
// 100 cooperative steps, so the engine-level RunOptions must reject it —
// and clearing the options must restore exact results through the same
// engine (the plan cache and store are untouched by the failure).
TEST(ResourceGovernance, StepBudgetDeterministicRejectAndRecover) {
  std::unique_ptr<Engine> engine = LoadedEngine();
  const std::string expected = RunSerialized(engine.get(), 10);

  RunOptions options;
  options.max_eval_steps = 100;
  engine->set_run_options(options);
  auto limited = engine->Run(GetQuery(10).text);
  ASSERT_FALSE(limited.ok());
  EXPECT_EQ(limited.status().code(), StatusCode::kResourceExhausted)
      << limited.status();

  engine->set_run_options(RunOptions{});
  auto recovered = engine->Run(GetQuery(10).text);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(query::SerializeSequence(*recovered), expected);
  EXPECT_EQ(engine->outcomes().resource_exhausted, 1u);
}

// --------------------------------------------------------------------------
// Cancellation and session isolation
// --------------------------------------------------------------------------

// Four concurrent sessions; one is cancelled before it starts. The
// cancelled session must observe kCancelled, the other three must stay
// byte-identical to serial results, and the cancelled session must serve
// the same query correctly immediately afterwards (shared plan cache and
// store unharmed).
TEST(ResourceGovernance, CancelledSessionLeavesSiblingsUntouched) {
  std::unique_ptr<Engine> engine = LoadedEngine();
  const int workload[] = {8, 10, 11, 13};
  std::vector<std::string> expected;
  for (int q : workload) expected.push_back(RunSerialized(engine.get(), q));

  constexpr unsigned kThreads = 4;  // thread t runs workload[t]
  std::vector<std::string> errors(kThreads);
  ExecContext cancelled_ctx;
  cancelled_ctx.Cancel();

  std::vector<std::unique_ptr<EngineSession>> sessions;
  for (unsigned t = 0; t < kThreads; ++t) {
    auto session_or = engine->CreateSession();
    ASSERT_TRUE(session_or.ok()) << session_or.status();
    sessions.push_back(std::move(*session_or));
  }

  std::vector<std::thread> clients;
  for (unsigned t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      ExecContext* ctx = (t == 0) ? &cancelled_ctx : nullptr;
      auto result = sessions[t]->Run(GetQuery(workload[t]).text, ctx);
      if (t == 0) {
        if (result.ok()) {
          errors[t] = "cancelled run unexpectedly succeeded";
        } else if (result.status().code() != StatusCode::kCancelled) {
          errors[t] = "wrong code: " + result.status().ToString();
        }
        return;
      }
      if (!result.ok()) {
        errors[t] = result.status().ToString();
      } else if (query::SerializeSequence(*result) != expected[t]) {
        errors[t] = "Q" + std::to_string(workload[t]) + " diverged";
      }
    });
  }
  for (std::thread& c : clients) c.join();
  for (unsigned t = 0; t < kThreads; ++t) EXPECT_EQ(errors[t], "") << t;

  EXPECT_GE(engine->outcomes().cancelled, 1u);

  // The cancelled session reuses the shared plan-cache entry and serves
  // the exact serial bytes.
  auto retry = sessions[0]->Run(GetQuery(workload[0]).text);
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_EQ(query::SerializeSequence(*retry), expected[0]);
}

// --------------------------------------------------------------------------
// Corpus ingest governance
// --------------------------------------------------------------------------

std::vector<store::CorpusDocument> TinyCorpus(int count, uint64_t seed_base,
                                              double scale = 0.002) {
  std::vector<store::CorpusDocument> docs;
  for (int i = 0; i < count; ++i) {
    gen::GeneratorOptions options;
    options.scale = scale;
    options.seed = seed_base + i;
    store::CorpusDocument doc;
    doc.id = "gov-" + std::to_string(i) + ".xml";
    doc.xml = gen::XmlGen(options).GenerateToString();
    docs.push_back(std::move(doc));
  }
  return docs;
}

// A memory-budget violation mid-corpus-load unwinds the whole batch:
// nothing from it lands in the catalog, the violation is booked in the
// outcome taxonomy, and the documents loaded before the batch keep
// serving exact bytes through the same engine. Clearing the limit lets
// the identical batch load.
TEST(ResourceGovernance, BudgetViolationMidCorpusLoadUnwindsCleanly) {
  std::unique_ptr<Engine> engine = LoadedEngine();
  const std::string expected = RunSerialized(engine.get(), 1);
  const std::vector<store::CorpusDocument> docs = TinyCorpus(2, 300);

  RunOptions options;
  options.max_result_bytes = 1;  // any bulkload's charge exceeds this
  engine->set_run_options(options);
  Status st = engine->LoadCorpus(docs);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
  EXPECT_EQ(engine->DocumentCount(), 1u);
  EXPECT_GE(engine->outcomes().resource_exhausted, 1u);

  engine->set_run_options(RunOptions{});
  EXPECT_EQ(RunSerialized(engine.get(), 1), expected);

  ASSERT_TRUE(engine->LoadCorpus(docs).ok());
  EXPECT_EQ(engine->DocumentCount(), 3u);
  auto spanned = engine->Run(
      "count(for $p in collection()/site/people/person return $p)");
  ASSERT_TRUE(spanned.ok()) << spanned.status();
  EXPECT_EQ(spanned->size(), 3u);  // one per-document count, in id order
}

// A deadline expiring partway through a multi-document bulkload aborts
// the batch all-or-nothing. The builds are real (multi-megabyte parses),
// so a 1 ms deadline must trip at one of the per-document checks.
TEST(ResourceGovernance, DeadlineMidCorpusLoadUnwindsCleanly) {
  std::unique_ptr<Engine> engine = LoadedEngine();
  const std::string expected = RunSerialized(engine.get(), 1);

  RunOptions options;
  options.deadline_ms = 1;
  engine->set_run_options(options);
  Status st = engine->LoadCorpus(TinyCorpus(3, 400, 0.02));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st;
  EXPECT_EQ(engine->DocumentCount(), 1u);

  engine->set_run_options(RunOptions{});
  EXPECT_EQ(RunSerialized(engine.get(), 1), expected);
}

// --------------------------------------------------------------------------
// Error taxonomy observability
// --------------------------------------------------------------------------

TEST(ResourceGovernance, OutcomeCountersAndExplainLine) {
  std::unique_ptr<Engine> engine = LoadedEngine();
  ASSERT_TRUE(engine->Run(GetQuery(1).text).ok());
  ASSERT_FALSE(engine->Run("for $x in").ok());  // parse rejection

  const QueryOutcomes outcomes = engine->outcomes();
  EXPECT_EQ(outcomes.ok, 1u);
  EXPECT_EQ(outcomes.invalid_query, 1u);
  EXPECT_EQ(outcomes.total(), 2u);

  auto explain = engine->Explain(GetQuery(1).text);
  ASSERT_TRUE(explain.ok()) << explain.status();
  EXPECT_NE(explain->find("outcomes: ok=1"), std::string::npos) << *explain;
}

// --------------------------------------------------------------------------
// Fault injection (compiled in with -DFAULT_INJECTION=ON)
// --------------------------------------------------------------------------

#if XMARK_FAULT_INJECTION

// Pool-saturation degradation: with "thread_pool/submit" stuck failing,
// every collection() helper is refused admission and the caller runs
// every leg itself — same bytes, clean success.
TEST(ResourceGovernance, PoolSaturationFallsBackToSerialDrain) {
  std::unique_ptr<Engine> engine = Engine::Create(SystemId::kD);
  ASSERT_TRUE(engine->LoadCorpus(TinyCorpus(4, 500)).ok());
  const std::string text =
      "for $i in collection()/site//item "
      "where contains($i/description, \"gold\") return $i/name/text()";
  auto expected = engine->Run(text);
  ASSERT_TRUE(expected.ok()) << expected.status();

  fault::ArmSticky("thread_pool/submit");
  auto result = engine->Run(text);
  const int hits = fault::ArmedSiteHits();
  fault::Disarm();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(query::SerializeSequence(*result),
            query::SerializeSequence(*expected));
  if (ThreadPool::Shared().worker_count() > 1) {
    EXPECT_GT(hits, 0) << "the fan-out never consulted the pool";
  }
}

// Every registered fault site, armed in a full serving flow (load,
// prepare cached, execute queries covering hash joins, band joins,
// construction and a fused FLWOR), must either never fire or fail the
// operation with a clean error Status — no crash, no wedged engine. The
// fused loop's site must fire: Q14 is fused on D. After disarming, the
// same engine instance must serve exact results again.
TEST(ResourceGovernance, EveryFaultSiteFailsCleanAndRecovers) {
  for (std::string_view site : fault::FaultSites()) {
    SCOPED_TRACE(std::string(site));
    fault::Arm(site, 0);

    std::unique_ptr<Engine> engine = Engine::Create(SystemId::kD);
    Status load =
        engine->LoadDocument(Engine::kDefaultDocumentId, TestDocument());
    if (load.ok()) {
      // Q10: hash join + construction; Q11: band join; Q14: fused FLWOR
      // over a descendant domain.
      for (int q : {10, 11, 14}) {
        auto session_or = engine->CreateSession();
        ASSERT_TRUE(session_or.ok()) << session_or.status();
        auto result = (*session_or)->Run(GetQuery(q).text);
        if (site == "exec/pipeline_drain" && q == 14) {
          ASSERT_FALSE(result.ok()) << "the fused loop never hit its site";
          EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
        }
        if (!result.ok()) {
          // A clean structured failure: never OK-with-garbage, never a
          // crash. Message must name fault injection, not corrupt state.
          EXPECT_NE(result.status().message().find("fault injection"),
                    std::string::npos)
              << result.status();
        }
      }
    } else {
      EXPECT_EQ(load.code(), StatusCode::kResourceExhausted) << load;
    }
    fault::Disarm();

    // Disarmed, the same engine (reloaded if the load was the victim)
    // serves correct bytes — no residue from the injected failure.
    if (!load.ok()) {
      ASSERT_TRUE(
          engine->LoadDocument(Engine::kDefaultDocumentId, TestDocument())
              .ok());
    }
    auto after = engine->Run(GetQuery(8).text);
    EXPECT_TRUE(after.ok()) << site << ": " << after.status();
  }
}

// Parse counts, read from the "parser/module" site armed at a countdown
// it never reaches: a collection() parses one module that every leg then
// shares. A cold cached request parses at most twice (once for its scope,
// at most once to compile) while still booking one plan-cache miss per
// document; the uncached form parses once; a warm request never parses.
TEST(ResourceGovernance, CollectionSharesOneParsedModule) {
  constexpr int kDocs = 4;
  std::unique_ptr<Engine> engine = Engine::Create(SystemId::kD);
  ASSERT_TRUE(engine->LoadCorpus(TinyCorpus(kDocs, 700)).ok());
  auto session_or = engine->CreateSession();
  ASSERT_TRUE(session_or.ok()) << session_or.status();
  EngineSession& session = **session_or;
  const std::string text =
      "for $p in collection()/site/people/person return $p/name/text()";
  auto parses = [](const std::function<Status()>& request) {
    fault::Arm("parser/module", 1 << 30);
    const Status status = request();
    const int hits = fault::ArmedSiteHits();
    fault::Disarm();
    EXPECT_TRUE(status.ok()) << status;
    return hits;
  };
  auto run_cached = [&] { return session.Run(text).status(); };

  EXPECT_LE(parses(run_cached), 2);
  EXPECT_EQ(engine->plan_cache_stats().misses, uint64_t{kDocs});
  EXPECT_EQ(parses(run_cached), 0);
  EXPECT_EQ(parses([&] { return engine->Run(text).status(); }), 1);
}

// A store bulkload failing partway through a parallel corpus load (the
// armed countdown lets two documents build, the third is refused) aborts
// the batch with a clean Status, commits nothing, and the engine loads
// the identical batch once the fault clears.
TEST(ResourceGovernance, MidBatchLoadFaultLeavesCatalogUnchanged) {
  std::unique_ptr<Engine> engine = LoadedEngine();
  const std::vector<store::CorpusDocument> docs = TinyCorpus(4, 500);

  fault::Arm("engine/load_store", 2);
  Status st = engine->LoadCorpus(docs);
  fault::Disarm();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("fault injection"), std::string::npos) << st;
  EXPECT_EQ(engine->DocumentCount(), 1u);

  ASSERT_TRUE(engine->LoadCorpus(docs).ok());
  EXPECT_EQ(engine->DocumentCount(), 5u);
  EXPECT_TRUE(engine->Run(GetQuery(1).text).ok());
}

#endif  // XMARK_FAULT_INJECTION

}  // namespace
}  // namespace xmark::bench
