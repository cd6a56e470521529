#ifndef XMARK_UTIL_THREAD_POOL_H_
#define XMARK_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace xmark {

/// Small work-stealing thread pool.
///
/// The pool owns `worker_count() - 1` background threads; the caller is
/// worker 0 and participates in execution inside Wait(), so a pool of size
/// 1 runs everything inline on the calling thread. Tasks are pushed to
/// per-worker deques (round-robin from the submitting thread, LIFO for the
/// owner); idle workers steal from the front of other deques (FIFO), which
/// keeps large submitted ranges flowing oldest-first to thieves while
/// owners stay cache-hot on their newest work.
///
/// Two ways to use it. Bulkload builds a private pool per load and runs
/// phases with Submit + Wait (ParallelFor). The engine runs the legs of a
/// collection() fan-out, the one place a query forks, as a ForkJoin on
/// the one process-wide Shared() pool, which never waits on the pool as a
/// whole and so is safe for concurrent callers and for calls from inside
/// the pool's own tasks.
///
/// The scheduling policy never affects results: every helper below is
/// written so its output is identical for any worker count and any steal
/// interleaving (disjoint writes, ordered merges).
class ThreadPool {
 public:
  /// Creates a pool with `threads` workers total (including the caller).
  /// 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool collection() legs run on: hardware_concurrency()
  /// workers, created on first use and never destroyed (so no join at exit
  /// races client threads). With one hardware thread it has no background
  /// thread and every ForkJoin runs inline. Use it only through ForkJoin:
  /// Wait() on it fails an XMARK_CHECK.
  static ThreadPool& Shared();

  /// Background threads started by every pool in this process so far.
  static uint64_t ThreadsStarted();

  unsigned worker_count() const {
    return static_cast<unsigned>(queues_.size());
  }

  /// Submits one task. Thread-safe; may be called from inside a task
  /// (nested submissions are drained by the enclosing Wait()).
  void Submit(std::function<void()> fn);

  /// Admission-controlled Submit: refuses (returns false, leaving `fn`
  /// unmoved) when more than `max_pending` tasks are already in flight —
  /// the saturation signal ForkJoin uses to run its indices on the caller
  /// instead of piling unbounded work onto a loaded pool. Also the
  /// "thread_pool/submit" fault-injection site.
  bool TrySubmit(std::function<void()>& fn, size_t max_pending);

  /// Runs tasks until every submitted task (including ones submitted while
  /// waiting) has finished. The caller executes and steals work itself, so
  /// Wait() never blocks while runnable tasks exist. Only the thread that
  /// owns the pool phase may call Wait(), and never from inside one of the
  /// pool's tasks: the running task counts as pending until it returns, so
  /// such a Wait() never returns.
  void Wait();

 private:
  struct Queue {
    util::Mutex mu;
    std::deque<std::function<void()>> tasks GUARDED_BY(mu);
  };

  // Pops from own deque back, else steals from other fronts. Returns false
  // when every deque is empty.
  bool RunOne(unsigned self);
  bool HasRunnable();
  void WorkerLoop(unsigned self);

  std::vector<std::unique_ptr<Queue>> queues_;  // [0] is the caller's
  std::vector<std::thread> threads_;
  // Sleep/wake protocol: pending_ only changes with wake_mu_ held (though
  // it stays atomic so Wait()'s fast path may read it lock-free), so a
  // sleeper that saw pending_ == 0 under the lock cannot miss the
  // notification of a concurrent Submit.
  util::Mutex wake_mu_;
  util::CondVar wake_;
  util::CondVar idle_;
  std::atomic<size_t> pending_{0};  // submitted but not yet finished
  std::atomic<unsigned> next_queue_{0};
  std::atomic<bool> stop_{false};
  bool shared_ = false;  // the Shared() pool: Wait() is forbidden
};

/// Runs fn(i) exactly once for every i in [0, n) and returns after all of
/// them have finished. The calling thread claims indices from a shared
/// counter itself, and up to min(n, worker_count()) - 1 helper tasks,
/// submitted with TrySubmit, claim from the same counter; a refused submit
/// (saturation, or the "thread_pool/submit" fault site) just leaves more
/// indices to the caller. The caller never blocks while an index is
/// unclaimed, and at the end waits only for indices helpers are still
/// running. The claim state is reference-counted, so a helper that starts
/// after the call returned finds nothing to claim and touches nothing
/// else. It never calls Wait(), which makes it safe for concurrent callers
/// on one pool and for calls from inside the pool's own tasks. On a
/// 1-worker pool (or n <= 1) every index runs on the caller, in order.
void ForkJoin(ThreadPool& pool, size_t n,
              const std::function<void(size_t)>& fn);

/// Deterministic partition of [0, n) into ~threads*4 ranges for the
/// bulkload passes: bounds depend only on n and the thread count (never
/// on scheduling), which is what lets per-chunk results merge in chunk
/// order and produce identical output for any worker interleaving.
/// Returns chunk edges: bounds[k]..bounds[k+1] is chunk k.
inline std::vector<size_t> ChunkBounds(size_t n, unsigned threads) {
  const size_t chunks = std::max<size_t>(1, size_t{threads} * 4);
  std::vector<size_t> bounds;
  bounds.reserve(chunks + 1);
  for (size_t i = 0; i <= chunks; ++i) bounds.push_back(i * n / chunks);
  return bounds;
}

/// Runs fn(begin, end) over [begin, end) split into chunks of at least
/// `grain` items, in parallel on `pool`. Serial (direct call) when the pool
/// is null, has one worker, or the range fits one grain. `fn` must be safe
/// to run concurrently on disjoint subranges; writes must be disjoint for
/// determinism.
template <typename Fn>
void ParallelFor(ThreadPool* pool, size_t begin, size_t end, size_t grain,
                 Fn&& fn) {
  if (grain == 0) grain = 1;
  const size_t n = end > begin ? end - begin : 0;
  if (pool == nullptr || pool->worker_count() <= 1 || n <= grain) {
    if (n > 0) fn(begin, end);
    return;
  }
  // At most ~4 chunks per worker: enough slack for stealing to balance
  // skewed chunks without drowning the deques in tiny tasks.
  const size_t max_chunks = static_cast<size_t>(pool->worker_count()) * 4;
  const size_t chunk = std::max(grain, (n + max_chunks - 1) / max_chunks);
  for (size_t b = begin; b < end; b += chunk) {
    const size_t e = std::min(end, b + chunk);
    pool->Submit([&fn, b, e] { fn(b, e); });
  }
  pool->Wait();
}

/// Deterministic parallel stable sort: partitions [begin, end) into one
/// run per worker, stable-sorts the runs as one ForkJoin, then merges
/// adjacent runs pairwise (one ForkJoin per round) with
/// std::inplace_merge. Stability of both phases makes the result identical
/// to std::stable_sort regardless of worker count. A null or 1-worker pool
/// is a plain std::stable_sort.
template <typename It, typename Comp>
void ParallelStableSort(ThreadPool* pool, It begin, It end, Comp comp) {
  const size_t n = static_cast<size_t>(end - begin);
  constexpr size_t kSerialCutoff = 1 << 13;
  if (pool == nullptr || pool->worker_count() <= 1 || n <= kSerialCutoff) {
    std::stable_sort(begin, end, comp);
    return;
  }
  const size_t parts = std::min<size_t>(pool->worker_count(),
                                        (n + kSerialCutoff - 1) / kSerialCutoff);
  std::vector<size_t> bounds;
  bounds.reserve(parts + 1);
  for (size_t i = 0; i <= parts; ++i) bounds.push_back(i * n / parts);
  ForkJoin(*pool, parts, [begin, &bounds, &comp](size_t i) {
    std::stable_sort(begin + bounds[i], begin + bounds[i + 1], comp);
  });
  // log2(parts) rounds of pairwise merges; merge m of a round joins runs
  // [2m*width, (2m+1)*width) and [(2m+1)*width, (2m+2)*width).
  for (size_t width = 1; width < parts; width *= 2) {
    const size_t merges = (parts - width + 2 * width - 1) / (2 * width);
    ForkJoin(*pool, merges, [begin, &bounds, &comp, parts, width](size_t m) {
      const size_t i = m * 2 * width;
      const size_t lo = bounds[i];
      const size_t mid = bounds[i + width];
      const size_t hi = bounds[std::min(i + 2 * width, parts)];
      std::inplace_merge(begin + lo, begin + mid, begin + hi, comp);
    });
  }
}

}  // namespace xmark

#endif  // XMARK_UTIL_THREAD_POOL_H_
