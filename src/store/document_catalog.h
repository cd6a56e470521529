#ifndef XMARK_STORE_DOCUMENT_CATALOG_H_
#define XMARK_STORE_DOCUMENT_CATALOG_H_

// Multi-document catalog: N independently bulkloaded stores keyed by a
// stable document id, presented as one corpus.
//
// Each document is a complete store instance (edge, fragmented, inlined or
// DOM — the catalog never mixes mappings), so every per-document structure
// (preorder ids, name table, indexes) stays exactly what the single-
// document bulkload produces. The catalog's own contribution is the
// corpus-level bookkeeping: a sorted-by-id entry table, prefix-summed
// global id ranges (document i's nodes occupy [base_i, base_i + n_i) in
// the corpus-wide id space), and a deterministic per-document DumpState.
//
// Ingest parallelizes ACROSS documents: each document's bulkload runs as
// one thread-pool task (itself serial or chunked-parallel per
// LoadOptions), results commit into index-ordered staging slots, and the
// snapshot assembles in sorted-id order — so the loaded catalog is
// byte-identical for any thread count and any task interleaving.
//
// Concurrency: mutations (Add/LoadCorpus/Drop) swap an immutable snapshot
// under a mutex (copy-on-write); readers grab the snapshot shared_ptr and
// never block. A query holding a snapshot keeps its stores alive across a
// concurrent DropDocument.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "query/storage.h"
#include "store/load_options.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace xmark::store {

/// One document of a corpus batch, before ingest.
struct CorpusDocument {
  std::string id;
  std::string xml;
};

/// Resource-governance hooks for corpus ingest, supplied by the serving
/// layer (which owns the ExecContext); the catalog stays below query/'s
/// execution machinery. Both are optional and must be thread-safe.
struct IngestGovernance {
  /// Cooperative checkpoint: non-OK aborts the batch (deadline, cancel,
  /// budget — sticky, so every remaining document fails fast).
  std::function<Status()> check;
  /// Charges loaded store bytes against the run's memory budget.
  std::function<void(size_t)> charge_bytes;
};

class DocumentCatalog {
 public:
  /// Builds one document's store from its XML. Supplied by the engine
  /// layer (which knows the system's mapping); the catalog itself stays
  /// below the xmark/ layer.
  using StoreBuilder =
      std::function<StatusOr<std::shared_ptr<query::StorageAdapter>>(
          std::string_view xml, const LoadOptions& options)>;

  /// One loaded document: its store plus the corpus-wide id range
  /// [base_id, base_id + node_count) assigned by prefix summation in
  /// sorted-id order.
  struct Entry {
    std::string id;
    std::shared_ptr<const query::StorageAdapter> store;
    uint64_t base_id = 0;
    size_t node_count = 0;
  };

  /// Immutable corpus view; `docs` is sorted by document id.
  struct Snapshot {
    std::vector<Entry> docs;
    uint64_t total_nodes = 0;

    const Entry* Find(std::string_view id) const;
  };

  /// Loads one document. Fails with kInvalidArgument
  /// "[duplicate-document-id]" when `id` is already present, and with
  /// kInvalidArgument "[empty-document-id]" for an empty id.
  Status AddDocument(std::string_view id, std::string_view xml,
                     const StoreBuilder& builder, const LoadOptions& options);

  /// Loads a batch, parallelizing across documents: min(threads, docs)
  /// pool workers each run one document's bulkload (which itself honors
  /// `options.threads`). All-or-nothing: duplicate ids (within the batch
  /// or against loaded documents) are rejected before any build, and on
  /// any build failure the catalog is left exactly as it was. The first
  /// failure in batch order is returned (deterministic under any
  /// interleaving). `governance` (optional) is consulted before and after
  /// every document build, so a deadline/cancel/budget violation unwinds
  /// the whole batch while prior documents stay queryable.
  Status LoadCorpus(const std::vector<CorpusDocument>& batch,
                    const StoreBuilder& builder, const LoadOptions& options,
                    const IngestGovernance* governance = nullptr);

  /// Removes a document and returns its store; kNotFound
  /// "[unknown-document]" when absent. Queries holding a snapshot keep the
  /// dropped store alive.
  StatusOr<std::shared_ptr<const query::StorageAdapter>> Drop(
      std::string_view id);

  /// Current corpus view (never null; empty catalog = empty docs).
  std::shared_ptr<const Snapshot> snapshot() const;

  /// Document ids in sorted order.
  std::vector<std::string> ListDocuments() const;

  /// Store of one document, or null when absent.
  std::shared_ptr<const query::StorageAdapter> Find(std::string_view id) const;

  size_t size() const { return snapshot()->docs.size(); }

  /// Deterministic corpus dump: a catalog header, then one section per
  /// document in sorted-id order — id, global id range, mapping — each
  /// followed by the store's own DumpState. Byte-identical for any ingest
  /// thread count (the CI determinism gate diffs threads=1 vs threads=8).
  void DumpState(std::string* out) const;

 private:
  // Rebuilds sorted order + prefix-summed id ranges; returns the new
  // snapshot assembled from `docs`.
  static std::shared_ptr<const Snapshot> Assemble(std::vector<Entry> docs);

  mutable util::Mutex mu_;
  std::shared_ptr<const Snapshot> snapshot_ GUARDED_BY(mu_) =
      std::make_shared<const Snapshot>();
};

}  // namespace xmark::store

#endif  // XMARK_STORE_DOCUMENT_CATALOG_H_
