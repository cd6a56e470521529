#include "util/thread_pool.h"

#include "util/fault_injection.h"
#include "util/logging.h"

namespace xmark {
namespace {

std::atomic<uint64_t> g_threads_started{0};

// ForkJoin admission: helpers are refused once this many tasks are already
// in flight — far above anything a healthy run reaches (each call submits
// at most worker_count() - 1 helpers), low enough that a pathological
// fan-out degrades to caller-run indices instead of queueing unboundedly.
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
  static ThreadPool* const pool = [] {
    auto* p = new ThreadPool(0);
    p->shared_ = true;
    return p;
  }();
  return *pool;
}

uint64_t ThreadPool::ThreadsStarted() {
  return g_threads_started.load();
}

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  // Backstop against wrapped or absurd requests (e.g. a negative flag
  // cast to unsigned): more workers than this never helps a bulkload.
  constexpr unsigned kMaxWorkers = 256;
  if (threads > kMaxWorkers) threads = kMaxWorkers;
  queues_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  threads_.reserve(threads - 1);
  for (unsigned i = 1; i < threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
    ++g_threads_started;
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    util::MutexLock lock(wake_mu_);
    stop_.store(true, std::memory_order_release);
  }
  wake_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  const unsigned q = next_queue_.fetch_add(1, std::memory_order_relaxed) %
                     queues_.size();
  {
    util::MutexLock lock(queues_[q]->mu);
    queues_[q]->tasks.push_back(std::move(fn));
  }
  // pending_ changes under wake_mu_ so sleeping workers and Wait() cannot
  // miss the state change between their predicate check and the wait.
  {
    util::MutexLock lock(wake_mu_);
    pending_.fetch_add(1, std::memory_order_release);
  }
  wake_.NotifyOne();
}

bool ThreadPool::TrySubmit(std::function<void()>& fn, size_t max_pending) {
  if (XMARK_FAULT_POINT("thread_pool/submit")) return false;
  if (pending_.load(std::memory_order_acquire) >= max_pending) return false;
  Submit(std::move(fn));
  return true;
}

bool ThreadPool::RunOne(unsigned self) {
  std::function<void()> task;
  {
    // Own deque: newest first (cache-hot).
    Queue& own = *queues_[self];
    util::MutexLock lock(own.mu);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.back());
      own.tasks.pop_back();
    }
  }
  if (!task) {
    // Steal oldest-first from the other deques.
    for (size_t i = 1; i < queues_.size() && !task; ++i) {
      Queue& victim = *queues_[(self + i) % queues_.size()];
      util::MutexLock lock(victim.mu);
      if (!victim.tasks.empty()) {
        task = std::move(victim.tasks.front());
        victim.tasks.pop_front();
      }
    }
  }
  if (!task) return false;
  task();
  size_t left;
  {
    util::MutexLock lock(wake_mu_);
    left = pending_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  }
  if (left == 0) idle_.NotifyAll();
  return true;
}

bool ThreadPool::HasRunnable() {
  for (const auto& q : queues_) {
    util::MutexLock lock(q->mu);
    if (!q->tasks.empty()) return true;
  }
  return false;
}

void ThreadPool::WorkerLoop(unsigned self) {
  while (true) {
    if (RunOne(self)) continue;
    util::MutexLock lock(wake_mu_);
    wake_.Wait(wake_mu_, [this] {
      return stop_.load(std::memory_order_acquire) ||
             (pending_.load(std::memory_order_acquire) > 0 && HasRunnable());
    });
    if (stop_.load(std::memory_order_acquire) && !HasRunnable()) return;
  }
}

void ThreadPool::Wait() {
  XMARK_CHECK(!shared_);  // ForkJoin is the only way onto the shared pool
  // The caller works too: drain tasks until none remain in flight.
  while (pending_.load(std::memory_order_acquire) > 0) {
    if (RunOne(0)) continue;
    // Nothing runnable here, but tasks are still in flight on other
    // workers (or nested submissions may yet arrive).
    util::MutexLock lock(wake_mu_);
    idle_.Wait(wake_mu_, [this] {
      return pending_.load(std::memory_order_acquire) == 0 || HasRunnable();
    });
  }
}

void ForkJoin(ThreadPool& pool, size_t n,
              const std::function<void(size_t)>& fn) {
  // The caller plus up to width - 1 helpers.
  const size_t width = std::min<size_t>(n, pool.worker_count());
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

}  // namespace xmark
