// Shared prepared-query cache for concurrent serving.
//
// A compiled query is (parsed module, optimizer annotations), both
// immutable after compilation. The module is store-independent: every
// entry compiled from one module shares it by shared_ptr, so the legs of
// a collection() fan-out run the caller's module, each with its own
// store's annotations. The annotations carry everything store-specific,
// step NameIds included. The key is (query text, store uid, options
// fingerprint), so an entry can only ever be executed against the exact
// store + option set it was compiled for, which is what lets
// Evaluator::Run adopt the annotations without revalidation.

#ifndef XMARK_QUERY_PLAN_CACHE_H_
#define XMARK_QUERY_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "query/ast.h"
#include "query/plan.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace xmark::query {

/// One cached compilation, shared immutably by every execution that hits
/// it. `module` is the parsed query, possibly shared with entries for
/// other stores; `annotations` carries the optimizer's plan of that module
/// for the (store uid, options fingerprint) the entry was keyed under.
/// `catalog_probes` / `name_tests` preserve the compilation-cost
/// statistics the benches report (Table 2).
struct CachedQuery {
  std::shared_ptr<const ParsedQuery> module;
  std::shared_ptr<const PlanAnnotations> annotations;
  size_t catalog_probes = 0;
  size_t name_tests = 0;
};

struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
};

/// Sharded (query text, store uid, options fingerprint) -> CachedQuery
/// map. Lookups take one shard mutex briefly; compilation of a missing
/// entry runs under the same shard lock, so concurrent first requests for
/// one query compile it once (requests hashing to other shards proceed
/// unblocked). Failed compilations are not cached — every caller sees the
/// error, and a later retry recompiles.
class PlanCache {
 public:
  using CompileFn = std::function<StatusOr<CachedQuery>()>;

  /// Returns the cached entry for the key, compiling it via `compile`
  /// under the shard lock on miss.
  StatusOr<std::shared_ptr<const CachedQuery>> GetOrCompile(
      std::string_view query_text, uint64_t store_uid,
      uint64_t options_fingerprint, const CompileFn& compile);

  /// Hit/miss counters since construction (monotone; approximate ordering
  /// under concurrency, exact totals).
  PlanCacheStats stats() const {
    return {hits_.load(std::memory_order_relaxed),
            misses_.load(std::memory_order_relaxed)};
  }

  /// Erases every entry compiled for `store_uid` (its annotations'
  /// store_uid). Called when a document is dropped: uids are never
  /// recycled, so those entries could only leak. A module dies with the
  /// last entry or PreparedQuery that holds it; handed-out entries stay
  /// valid through their shared_ptr.
  void EraseStore(uint64_t store_uid);

  /// Number of cached entries (test hook; takes every shard lock).
  size_t size() const;
  /// Number of entries compiled for `store_uid` (test hook).
  size_t EntriesForStore(uint64_t store_uid) const;

 private:
  static constexpr size_t kShards = 8;
  struct Shard {
    mutable util::Mutex mu;
    std::unordered_map<std::string, std::shared_ptr<const CachedQuery>>
        entries GUARDED_BY(mu);
  };

  Shard shards_[kShards];
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace xmark::query

#endif  // XMARK_QUERY_PLAN_CACHE_H_
