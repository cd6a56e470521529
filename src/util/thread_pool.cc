#include "util/thread_pool.h"

#include <atomic>
#include <memory>
#include <utility>

#include "util/fault_injection.h"

namespace xmark {
namespace {

std::atomic<uint64_t> g_threads_started{0};

// ForkJoin admission: helpers are refused once this many are already
// queued — far above anything a healthy run reaches (each call submits at
// most worker_count() - 1 helpers), low enough that a pathological fan-out
// degrades to caller-run indices instead of queueing unboundedly.
constexpr size_t kMaxPendingHelpers = 1024;

// Before sleeping on its condition variable, a ForkJoin caller re-checks
// this many times, yielding in between. Helpers usually finish tiny
// indices within that window, and sleeping costs a futex wait plus a wake
// from the helper that ends last — several microseconds, more than a
// cheap collection() leg.
constexpr int kAwaitSpins = 100;

// Claim state of one ForkJoin call, shared by the caller and its helper
// tasks. A helper registers in `running` before it claims, so once the
// caller has seen every index claimed, waiting for `running == 0` waits
// exactly for the indices still in flight on helpers. A helper that runs
// after the call returned registers, claims nothing and leaves: it never
// dereferences `fn`, which may be gone by then.
struct ForkJoinState {
  ForkJoinState(size_t n, const std::function<void(size_t)>* fn)
      : n(n), fn(fn) {}

  // Claims and runs indices until none are left.
  void Drain() {
    for (size_t i = next++; i < n; i = next++) (*fn)(i);
  }

  // A helper task's body.
  void Help() {
    {
      util::MutexLock lock(mu);
      ++running;
    }
    Drain();
    util::MutexLock lock(mu);
    if (--running == 0) idle.NotifyAll();
  }

  // Blocks until no helper is inside Help().
  void AwaitHelpers() {
    for (int spin = 0; spin < kAwaitSpins; ++spin) {
      {
        util::MutexLock lock(mu);
        if (running == 0) return;
      }
      std::this_thread::yield();
    }
    util::MutexLock lock(mu);
    while (running != 0) idle.Wait(mu);
  }

  const size_t n;
  const std::function<void(size_t)>* const fn;
  std::atomic<size_t> next{0};
  util::Mutex mu;
  util::CondVar idle;
  size_t running GUARDED_BY(mu) = 0;
};

}  // namespace

ThreadPool& ThreadPool::Shared() {
  // Leaked on purpose: destroying it would join its workers during static
  // destruction, racing client threads that are still submitting.
  static ThreadPool* const pool = new ThreadPool(0);
  return *pool;
}

uint64_t ThreadPool::ThreadsStarted() {
  return g_threads_started.load();
}

ThreadPool::ThreadPool(unsigned threads)
    : workers_(threads != 0
                   ? threads
                   : std::max(1u, std::thread::hardware_concurrency())) {
  threads_.reserve(workers_ - 1);
  for (unsigned i = 1; i < workers_; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
    ++g_threads_started;
  }
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(mu_);
    stop_ = true;
  }
  wake_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

bool ThreadPool::TrySubmit(std::function<void()>& fn, size_t max_pending) {
  if (XMARK_FAULT_POINT("thread_pool/submit")) return false;
  {
    util::MutexLock lock(mu_);
    if (tasks_.size() >= max_pending) return false;
    tasks_.push_back(std::move(fn));
  }
  wake_.NotifyOne();
  return true;
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      util::MutexLock lock(mu_);
      while (!stop_ && tasks_.empty()) wake_.Wait(mu_);
      if (stop_) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ForkJoin(ThreadPool& pool, size_t n,
              const std::function<void(size_t)>& fn, size_t max_width) {
  // The caller plus up to width - 1 helpers.
  const size_t width = std::min({n, size_t{pool.worker_count()}, max_width});
  if (width <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto state = std::make_shared<ForkJoinState>(n, &fn);
  for (size_t h = 1; h < width; ++h) {
    std::function<void()> task = [state] { state->Help(); };
    if (!pool.TrySubmit(task, kMaxPendingHelpers)) break;
  }
  state->Drain();
  state->AwaitHelpers();
}

void ForkJoinShared(unsigned threads, size_t n,
                    const std::function<void(size_t)>& fn) {
  if (threads <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ForkJoin(ThreadPool::Shared(), n, fn, threads);
}

}  // namespace xmark
