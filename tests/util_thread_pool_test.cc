// ForkJoin, the primitive every parallel region runs on (collection()
// legs and bulkload passes). The contract under test: every index runs
// exactly once, on at most the width asked for; the caller works too and
// never waits on the pool as a whole, so concurrent callers, calls from
// inside the pool's own tasks and refused submits are all safe; and
// helpers that start after the call has returned touch nothing of it.
// Run under ASan and TSan in CI.

#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "util/fault_injection.h"
#include "util/mutex.h"

namespace xmark {
namespace {

TEST(ForkJoinTest, RunsEveryIndexExactlyOnce) {
  for (unsigned workers : {1u, 4u}) {
    ThreadPool pool(workers);
    for (size_t n : {0u, 1u, 7u, 1000u}) {
      std::vector<std::atomic<int>> runs(n);
      ForkJoin(pool, n, [&runs](size_t i) { runs[i].fetch_add(1); });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(runs[i].load(), 1)
            << "index " << i << " of " << n << " on " << workers
            << " workers";
      }
    }
  }
}

TEST(ForkJoinTest, OneWorkerRunsEveryIndexOnTheCallerInOrder) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  bool on_caller = true;
  ForkJoin(pool, 100, [&](size_t i) {
    order.push_back(i);
    on_caller = on_caller && std::this_thread::get_id() == caller;
  });
  ASSERT_EQ(order.size(), 100u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_TRUE(on_caller);
}

TEST(ForkJoinTest, ConcurrentCallersGetTheirOwnResults) {
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  std::vector<int> wrong(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &wrong, c] {
      for (int rep = 0; rep < 50; ++rep) {
        std::vector<size_t> out(500, 0);
        ForkJoin(pool, out.size(),
                 [&out, c](size_t i) { out[i] = i * 10 + c; });
        for (size_t i = 0; i < out.size(); ++i) {
          if (out[i] != i * 10 + c) ++wrong[c];
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) EXPECT_EQ(wrong[c], 0) << "caller " << c;
}

// ForkJoin never waits on the pool as a whole, so a ForkJoin issued from
// inside one of the pool's tasks (here: every index of an outer ForkJoin,
// some of them running on helpers) returns.
TEST(ForkJoinTest, CallFromInsideAPoolTaskReturns) {
  for (unsigned workers : {1u, 4u}) {
    ThreadPool pool(workers);
    std::atomic<size_t> nested{0};
    ForkJoin(pool, 8, [&](size_t) {
      ForkJoin(pool, 100, [&](size_t) { nested.fetch_add(1); });
    });
    EXPECT_EQ(nested.load(), 800u) << workers << " workers";
  }
}

// Returns once every task queued on `pool` before the call has run: two
// indices that each wait for the other, so one of them must run on a
// helper, which the FIFO hands out after everything queued before it.
void AwaitQueuedTasks(ThreadPool& pool) {
  std::atomic<int> arrived{0};
  ForkJoin(pool, 2, [&arrived](size_t) {
    arrived.fetch_add(1);
    while (arrived.load() < 2) std::this_thread::yield();
  });
}

// The pool's only background worker is busy with a blocked index of
// another caller's ForkJoin, so the helper this ForkJoin submits stays
// queued and the caller runs every index and returns. The callable and
// its data are then freed before the helper runs: a helper that claimed
// an index or read the callable would be a use-after-free (caught by
// ASan) or a race (caught by TSan).
TEST(ForkJoinTest, HelperStartingAfterReturnTouchesNothing) {
  ThreadPool pool(2);
  std::atomic<int> blocked{0};
  std::atomic<bool> release{false};
  // Two indices that block until released: the other caller runs one,
  // and the worker must be running the other.
  std::thread other([&] {
    ForkJoin(pool, 2, [&](size_t) {
      blocked.fetch_add(1);
      while (!release) std::this_thread::yield();
    });
  });
  while (blocked.load() < 2) std::this_thread::yield();

  auto runs = std::make_unique<std::vector<int>>(64, 0);
  auto fn = std::make_unique<std::function<void(size_t)>>(
      [data = runs.get()](size_t i) { ++(*data)[i]; });
  ForkJoin(pool, runs->size(), *fn);
  for (int r : *runs) EXPECT_EQ(r, 1);
  fn.reset();
  runs.reset();

  release = true;
  other.join();
  AwaitQueuedTasks(pool);  // the stale helper has run, finding nothing
}

// A width cap bounds the threads a ForkJoin runs on, whatever the pool's
// size; a cap of 1 runs every index on the caller, in order. Each index
// sleeps, so uncapped helpers would have time to claim some.
TEST(ForkJoinTest, WidthCapBoundsTheThreads) {
  ThreadPool pool(4);
  for (size_t cap : {1u, 2u}) {
    util::Mutex mu;
    std::set<std::thread::id> threads;
    std::vector<size_t> order;
    ForkJoin(
        pool, 200,
        [&](size_t i) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          util::MutexLock lock(mu);
          threads.insert(std::this_thread::get_id());
          order.push_back(i);
        },
        cap);
    EXPECT_LE(threads.size(), cap);
    ASSERT_EQ(order.size(), 200u);
    if (cap == 1) {
      EXPECT_EQ(*threads.begin(), std::this_thread::get_id());
      for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
    }
  }
}

// The bulkload form at one thread runs every index on the caller, in
// order.
TEST(ForkJoinTest, SharedFormAtOneThreadRunsInlineInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  bool on_caller = true;
  ForkJoinShared(1, 50, [&](size_t i) {
    order.push_back(i);
    on_caller = on_caller && std::this_thread::get_id() == caller;
  });
  ASSERT_EQ(order.size(), 50u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_TRUE(on_caller);
}

#if XMARK_FAULT_INJECTION
// A pool that refuses every submit ("thread_pool/submit" armed sticky)
// leaves every index to the caller.
TEST(ForkJoinTest, RefusedSubmitsLeaveEveryIndexToTheCaller) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(100);
  fault::ArmSticky("thread_pool/submit");
  ForkJoin(pool, ran_on.size(),
           [&](size_t i) { ran_on[i] = std::this_thread::get_id(); });
  const int hits = fault::ArmedSiteHits();
  fault::Disarm();
  EXPECT_GT(hits, 0);
  for (const std::thread::id& id : ran_on) EXPECT_EQ(id, caller);
}
#endif

TEST(SharedPoolTest, OneProcessPoolSizedToTheHardware) {
  ThreadPool& shared = ThreadPool::Shared();
  EXPECT_EQ(&shared, &ThreadPool::Shared());
  const unsigned hardware = std::thread::hardware_concurrency();
  EXPECT_EQ(shared.worker_count(), std::max(1u, hardware));

  const uint64_t before = ThreadPool::ThreadsStarted();
  { ThreadPool four(4); }
  EXPECT_EQ(ThreadPool::ThreadsStarted(), before + 3);
}

}  // namespace
}  // namespace xmark
