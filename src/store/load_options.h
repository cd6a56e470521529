#ifndef XMARK_STORE_LOAD_OPTIONS_H_
#define XMARK_STORE_LOAD_OPTIONS_H_

#include <algorithm>
#include <thread>

namespace xmark::store {

/// Bulkload configuration shared by every store's Load. Every store runs
/// one pipeline — parse, per-table fills, sorts and index builds; with
/// `threads == 1` each pass runs inline on the caller (the serial
/// baseline of the Table 1 bench), larger values run each pass as a
/// ForkJoin on the process's shared pool, at most that many threads wide
/// — chunked parallel parse, partitioned sorts with merge, concurrent
/// fills and index builds. The loaded store is byte-identical, and the
/// same size, for every thread count: preorder ids, name-table numbering,
/// heap layout, table order and table sizes are all deterministic.
struct LoadOptions {
  /// Threads for bulkload; 0 means hardware_concurrency.
  unsigned threads = 0;

  /// The thread count a load runs with. It also sizes the work: passes
  /// split into threads*4 chunks, and DomStore keeps chunks x names tag
  /// buckets, so a wrapped request (a negative flag cast to unsigned) is
  /// capped at kMaxThreads.
  unsigned EffectiveThreads() const {
    constexpr unsigned kMaxThreads = 256;
    const unsigned t =
        threads != 0 ? threads : std::thread::hardware_concurrency();
    return std::clamp(t, 1u, kMaxThreads);
  }
};

}  // namespace xmark::store

#endif  // XMARK_STORE_LOAD_OPTIONS_H_
