#ifndef XMARK_UTIL_MUTEX_H_
#define XMARK_UTIL_MUTEX_H_

// Annotated mutex wrappers for Clang's compile-time thread-safety
// analysis.
//
// libstdc++'s std::mutex carries no capability attributes, so
// GUARDED_BY(some_std_mutex) is invisible to the analysis. These wrappers
// are the thinnest possible annotated shims over the standard primitives;
// every mutex outside util/ must be a util::Mutex (enforced by
// tools/check_layering.py) so the whole tree stays analyzable.

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace xmark::util {

/// Annotated exclusive mutex. Same cost as std::mutex; the annotations
/// exist purely for -Wthread-safety.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII guard, the annotated analogue of std::lock_guard<std::mutex>.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable usable with util::Mutex. Wait() is annotated
/// REQUIRES(mu): the analysis checks the caller holds the mutex, and the
/// wait re-acquires it before returning, so guarded state stays guarded
/// across the wait from the analysis' point of view.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified. The mutex is released while blocked and held
  /// again on return. Spurious wakeups are possible: callers loop on
  /// their predicate, or use the predicate overload below.
  void Wait(Mutex& mu) REQUIRES(mu) { cv_.wait(mu); }

  /// Blocks until `pred()` is true (checked with the mutex held).
  template <typename Predicate>
  void Wait(Mutex& mu, Predicate pred) REQUIRES(mu) {
    cv_.wait(mu, std::move(pred));
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  // condition_variable_any waits on any BasicLockable — util::Mutex
  // qualifies — at the cost of one extra internal mutex per CondVar,
  // irrelevant at the wait frequencies of a thread pool.
  std::condition_variable_any cv_;
};

}  // namespace xmark::util

#endif  // XMARK_UTIL_MUTEX_H_
