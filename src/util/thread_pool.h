#ifndef XMARK_UTIL_THREAD_POOL_H_
#define XMARK_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace xmark {

/// The process's one pool of helper threads.
///
/// `worker_count() - 1` background threads take tasks from one FIFO. The
/// only tasks are ForkJoin helpers, and every helper claims indices from
/// its call's shared counter, so a plain queue balances as well as work
/// stealing would. Everything that runs in parallel — the legs of a
/// collection() fan-out and every bulkload pass — is a ForkJoin on the
/// Shared() pool; nothing else constructs one (tools/check_layering.py
/// enforces it), so no operation starts a thread once that pool exists.
/// The scheduling never affects results: every helper below writes
/// disjoint slots and merges in index order.
class ThreadPool {
 public:
  /// Creates a pool with `threads` workers total (including the caller,
  /// so `threads - 1` background threads). 0 means
  /// std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);
  /// Stops the workers after their current task; helpers still queued
  /// are dropped, and each one's caller runs the indices it left.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool: hardware_concurrency() workers, created on
  /// first use and never destroyed (so no join at exit races client
  /// threads). With one hardware thread it has no background thread and
  /// every ForkJoin runs inline.
  static ThreadPool& Shared();

  /// Background threads started by every pool in this process so far.
  static uint64_t ThreadsStarted();

  unsigned worker_count() const { return workers_; }

  /// Queues `fn` for a background worker, or refuses (returns false,
  /// leaving `fn` unmoved) when `max_pending` tasks are already queued —
  /// the saturation signal ForkJoin uses to run its indices on the caller
  /// instead of piling unbounded work onto a loaded pool. Also the
  /// "thread_pool/submit" fault-injection site.
  bool TrySubmit(std::function<void()>& fn, size_t max_pending);

 private:
  void WorkerLoop();

  const unsigned workers_;
  std::vector<std::thread> threads_;
  util::Mutex mu_;
  util::CondVar wake_;
  std::deque<std::function<void()>> tasks_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
};

/// Runs fn(i) exactly once for every i in [0, n) and returns after all of
/// them have finished. The calling thread claims indices from a shared
/// counter itself, and up to min(n, worker_count(), max_width) - 1 helper
/// tasks, submitted with TrySubmit, claim from the same counter; a refused
/// submit (saturation, or the "thread_pool/submit" fault site) just leaves
/// more indices to the caller. The caller never blocks while an index is
/// unclaimed, and at the end waits only for indices helpers are still
/// running. The claim state is reference-counted, so a helper that starts
/// after the call returned finds nothing to claim and touches nothing
/// else. That makes it safe for concurrent callers on one pool and for
/// calls from inside the pool's own tasks. With a width of 1 (a 1-worker
/// pool, max_width <= 1 or n <= 1) every index runs on the caller, in
/// order.
void ForkJoin(ThreadPool& pool, size_t n,
              const std::function<void(size_t)>& fn,
              size_t max_width = std::numeric_limits<size_t>::max());

/// A bulkload pass's ForkJoin: on ThreadPool::Shared(), at most `threads`
/// wide. With threads <= 1 (or n <= 1) every index runs on the caller, in
/// order, without naming the shared pool, so a serial load never creates
/// it.
void ForkJoinShared(unsigned threads, size_t n,
                    const std::function<void(size_t)>& fn);

/// Deterministic partition of [0, n) into threads*4 ranges for the
/// bulkload passes: bounds depend only on n and the thread count (never
/// on the pool or on scheduling), which is what lets per-chunk results
/// merge in chunk order and produce identical output for any interleaving.
/// Returns chunk edges: bounds[k]..bounds[k+1] is chunk k.
inline std::vector<size_t> ChunkBounds(size_t n, unsigned threads) {
  const size_t chunks = std::max<size_t>(1, size_t{threads} * 4);
  std::vector<size_t> bounds;
  bounds.reserve(chunks + 1);
  for (size_t i = 0; i <= chunks; ++i) bounds.push_back(i * n / chunks);
  return bounds;
}

/// Runs fn(begin, end) over [begin, end) split into at most threads*4
/// chunks of at least `grain` items, as a ForkJoinShared `threads` wide.
/// A direct call when threads <= 1 or the range fits one grain. `fn` must
/// be safe to run concurrently on disjoint subranges; writes must be
/// disjoint for determinism.
template <typename Fn>
void ParallelFor(unsigned threads, size_t begin, size_t end, size_t grain,
                 Fn&& fn) {
  if (grain == 0) grain = 1;
  const size_t n = end > begin ? end - begin : 0;
  if (threads <= 1 || n <= grain) {
    if (n > 0) fn(begin, end);
    return;
  }
  const size_t max_chunks = size_t{threads} * 4;
  const size_t chunk = std::max(grain, (n + max_chunks - 1) / max_chunks);
  ForkJoinShared(threads, (n + chunk - 1) / chunk,
                 [&fn, begin, end, chunk](size_t c) {
                   const size_t b = begin + c * chunk;
                   fn(b, std::min(end, b + chunk));
                 });
}

}  // namespace xmark

#endif  // XMARK_UTIL_THREAD_POOL_H_
