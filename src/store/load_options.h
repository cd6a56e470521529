#ifndef XMARK_STORE_LOAD_OPTIONS_H_
#define XMARK_STORE_LOAD_OPTIONS_H_

#include <thread>

namespace xmark::store {

/// Bulkload configuration shared by every store's Load. Every store runs
/// one pipeline — parse, per-table fills, sorts and index builds; with
/// `threads == 1` each pass runs inline on the caller (the serial
/// baseline of the Table 1 bench), larger values run them on a pool —
/// chunked parallel parse, partitioned sorts with merge, concurrent fills
/// and index builds. The loaded store is byte-identical, and the same
/// size, for every thread count: preorder ids, name-table numbering, heap
/// layout, table order and table sizes are all deterministic.
struct LoadOptions {
  /// Worker threads for bulkload; 0 means hardware_concurrency.
  unsigned threads = 0;

  unsigned EffectiveThreads() const {
    if (threads != 0) return threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }
};

}  // namespace xmark::store

#endif  // XMARK_STORE_LOAD_OPTIONS_H_
