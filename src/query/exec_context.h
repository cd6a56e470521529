#ifndef XMARK_QUERY_EXEC_CONTEXT_H_
#define XMARK_QUERY_EXEC_CONTEXT_H_

// Per-run resource governance for the serving layer.
//
// An ExecContext is created per Execute from RunOptions (deadline, memory
// budget, step budget) and checked *cooperatively*: physical operators and
// the evaluator call Check() at batch boundaries (never per item), so a
// governed run stops within one batch of the violation while an ungoverned
// run (null context) pays a single pointer test. Memory is charged where
// it is allocated — NodeArena blocks and Sequence heap growth in
// query/value.cc — through a thread-local budget pointer installed for the
// duration of the run (by each collection() leg on its own thread),
// because allocation sites cannot return a Status; the overrun surfaces as
// kResourceExhausted at the next cooperative check.
//
// Violations are sticky: the first failure fixes the context's error, every
// later Check() on any thread returns the same Status, which is what stops
// the sibling legs of a collection() fan-out deterministically.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "util/status.h"

namespace xmark::query {

/// Per-run limits. Zero means "unlimited" for every field, making the
/// default RunOptions a no-op: Engine/EngineSession skip context creation
/// entirely and execution is byte- and instruction-identical to PR 7.
struct RunOptions {
  /// Wall-clock deadline for one Execute, measured from context creation.
  int64_t deadline_ms = 0;
  /// Bytes of result memory (NodeArena blocks, interned text, Sequence
  /// heap growth) one run may allocate.
  size_t max_result_bytes = 0;
  /// Cooperative evaluation steps (one per Check()) one run may spend —
  /// a deterministic work limit, unlike the wall-clock deadline.
  int64_t max_eval_steps = 0;

  bool engaged() const {
    return deadline_ms > 0 || max_result_bytes > 0 || max_eval_steps > 0;
  }
};

/// Result-memory budget shared by every thread of one run. Charging never
/// fails (allocation sites cannot unwind); an overrun raises the exceeded
/// flag, reported by the next ExecContext::Check().
class MemoryBudget {
 public:
  MemoryBudget() = default;
  explicit MemoryBudget(size_t limit_bytes) : limit_(limit_bytes) {}

  void Charge(size_t bytes) {
    if (limit_ == 0) return;  // unlimited
    const size_t now =
        used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (now > limit_) exceeded_.store(true, std::memory_order_relaxed);
  }
  bool exceeded() const { return exceeded_.load(std::memory_order_relaxed); }
  size_t used() const { return used_.load(std::memory_order_relaxed); }
  size_t limit() const { return limit_; }

 private:
  size_t limit_ = 0;
  std::atomic<size_t> used_{0};
  std::atomic<bool> exceeded_{false};
};

class ExecContext {
 public:
  /// Ungoverned but cancellable context (all limits off).
  ExecContext() : ExecContext(RunOptions{}) {}
  explicit ExecContext(const RunOptions& options);

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// Requests cooperative cancellation; thread-safe, sticky. The running
  /// query observes it at its next Check() and unwinds with kCancelled.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Cooperative checkpoint, called at batch boundaries from any thread of
  /// the run. Counts one eval step; consults the cancel flag, the memory
  /// budget and the step budget every call, the clock every kCheckStride
  /// calls (and on the first, so an already-expired deadline fails
  /// immediately). Returns the sticky first violation ever after.
  Status Check();

  /// Check() variant for coarse checkpoints (one per document bulkload,
  /// not one per evaluated batch): consults the deadline clock on every
  /// call instead of every kCheckStride ticks — at millisecond-granular
  /// work a strided clock read would skip an expired deadline entirely.
  Status CheckCoarse();

  /// The budget charged by NodeArena / Sequence growth (see
  /// ScopedMemoryBudget), from every collection() leg's thread.
  MemoryBudget* memory_budget() { return &budget_; }

  /// Checks performed so far (stats: EvalStats::governance_checks).
  int64_t checks() const { return ticks_.load(std::memory_order_relaxed); }

  const RunOptions& options() const { return options_; }

 private:
  enum class Violation : int {
    kNone = 0,
    kCancelled,
    kDeadline,
    kMemory,
    kSteps,
  };

  // Consults the deadline clock between strides.
  static constexpr uint64_t kCheckStride = 64;

  Status Fail(Violation v);
  Status ErrorFor(Violation v) const;

  RunOptions options_;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  MemoryBudget budget_;
  std::atomic<uint64_t> ticks_{0};
  std::atomic<bool> cancelled_{false};
  // First violation, sticky; all threads converge on the same Status.
  std::atomic<int> violation_{static_cast<int>(Violation::kNone)};
};

/// RAII install of `budget` as this thread's allocation-charge target
/// (null = uninstall). Evaluator::Run installs the run's budget on its
/// calling thread: a collection() leg on the pool thread that runs it.
class ScopedMemoryBudget {
 public:
  explicit ScopedMemoryBudget(MemoryBudget* budget);
  ~ScopedMemoryBudget();

  ScopedMemoryBudget(const ScopedMemoryBudget&) = delete;
  ScopedMemoryBudget& operator=(const ScopedMemoryBudget&) = delete;

 private:
  MemoryBudget* prev_;
};

/// Charges `bytes` to the thread's installed budget; no-op without one.
/// Called from the value-layer allocation sites.
void ChargeThreadMemoryBudget(size_t bytes);

}  // namespace xmark::query

#endif  // XMARK_QUERY_EXEC_CONTEXT_H_
