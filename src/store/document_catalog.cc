#include "store/document_catalog.h"

#include <algorithm>
#include <utility>

#include "util/string_util.h"
#include "util/thread_pool.h"

namespace xmark::store {

const DocumentCatalog::Entry* DocumentCatalog::Snapshot::Find(
    std::string_view id) const {
  const auto it = std::lower_bound(
      docs.begin(), docs.end(), id,
      [](const Entry& e, std::string_view key) { return e.id < key; });
  if (it == docs.end() || it->id != id) return nullptr;
  return &*it;
}

std::shared_ptr<const DocumentCatalog::Snapshot> DocumentCatalog::Assemble(
    std::vector<Entry> docs) {
  std::sort(docs.begin(), docs.end(),
            [](const Entry& a, const Entry& b) { return a.id < b.id; });
  uint64_t base = 0;
  for (Entry& e : docs) {
    e.node_count = e.store->NodeCount();
    e.base_id = base;
    base += e.node_count;
  }
  auto snap = std::make_shared<Snapshot>();
  snap->docs = std::move(docs);
  snap->total_nodes = base;
  return snap;
}

Status DocumentCatalog::AddDocument(std::string_view id, std::string_view xml,
                                    const StoreBuilder& builder,
                                    const LoadOptions& options) {
  std::vector<CorpusDocument> batch(1);
  batch[0].id = std::string(id);
  batch[0].xml = std::string(xml);
  return LoadCorpus(batch, builder, options);
}

Status DocumentCatalog::LoadCorpus(const std::vector<CorpusDocument>& batch,
                                   const StoreBuilder& builder,
                                   const LoadOptions& options,
                                   const IngestGovernance* governance) {
  if (batch.empty()) return Status::OK();
  // Validate ids before building anything (all-or-nothing, cheap first).
  {
    std::shared_ptr<const Snapshot> current = snapshot();
    std::vector<std::string_view> ids;
    ids.reserve(batch.size());
    for (const CorpusDocument& doc : batch) {
      if (doc.id.empty()) {
        return Status::InvalidArgument(
            "[empty-document-id] document ids must be non-empty");
      }
      if (current->Find(doc.id) != nullptr) {
        return Status::InvalidArgument(
            "[duplicate-document-id] document \"" + doc.id +
            "\" is already loaded");
      }
      ids.push_back(doc.id);
    }
    std::sort(ids.begin(), ids.end());
    const auto dup = std::adjacent_find(ids.begin(), ids.end());
    if (dup != ids.end()) {
      return Status::InvalidArgument(
          "[duplicate-document-id] document \"" + std::string(*dup) +
          "\" appears twice in the batch");
    }
  }

  // Build every document as an independent pool task. Slots are written by
  // exactly one task each and read only after Wait(), so the commit below
  // is identical for any worker count or steal order.
  std::vector<StatusOr<std::shared_ptr<query::StorageAdapter>>> built(
      batch.size(), Status::Internal("document build did not run"));
  const unsigned width = static_cast<unsigned>(
      std::min<size_t>(options.EffectiveThreads(), batch.size()));
  ThreadPool pool(width);
  for (size_t i = 0; i < batch.size(); ++i) {
    pool.Submit([&, i] {
      // Governance spans the corpus load: once the shared context trips
      // (deadline, cancel, budget), remaining documents fail fast instead
      // of paying full bulkloads.
      if (governance != nullptr && governance->check) {
        Status governed = governance->check();
        if (!governed.ok()) {
          built[i] = governed;
          return;
        }
      }
      built[i] = builder(batch[i].xml, options);
      if (governance != nullptr && built[i].ok()) {
        // Loaded bytes count against the run's memory budget, so a
        // max_result_bytes limit also bounds corpus residency.
        if (governance->charge_bytes) {
          governance->charge_bytes((*built[i])->StorageBytes());
        }
        if (governance->check) {
          Status governed = governance->check();
          if (!governed.ok()) built[i] = governed;
        }
      }
    });
  }
  pool.Wait();

  // First failure in batch order wins; nothing commits.
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!built[i].ok()) return built[i].status();
  }

  util::MutexLock lock(mu_);
  std::vector<Entry> docs = snapshot_->docs;
  docs.reserve(docs.size() + batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    // Re-check against concurrent mutators that won the lock first.
    for (const Entry& e : docs) {
      if (e.id == batch[i].id) {
        return Status::InvalidArgument(
            "[duplicate-document-id] document \"" + batch[i].id +
            "\" is already loaded");
      }
    }
    Entry e;
    e.id = batch[i].id;
    e.store = std::move(*built[i]);
    docs.push_back(std::move(e));
  }
  snapshot_ = Assemble(std::move(docs));
  return Status::OK();
}

StatusOr<std::shared_ptr<const query::StorageAdapter>> DocumentCatalog::Drop(
    std::string_view id) {
  util::MutexLock lock(mu_);
  std::vector<Entry> docs = snapshot_->docs;
  const auto it =
      std::find_if(docs.begin(), docs.end(),
                   [&](const Entry& e) { return e.id == id; });
  if (it == docs.end()) {
    return Status::NotFound("[unknown-document] no document \"" +
                            std::string(id) + "\" in catalog");
  }
  std::shared_ptr<const query::StorageAdapter> dropped = it->store;
  docs.erase(it);
  snapshot_ = Assemble(std::move(docs));
  return dropped;
}

std::shared_ptr<const DocumentCatalog::Snapshot> DocumentCatalog::snapshot()
    const {
  util::MutexLock lock(mu_);
  return snapshot_;
}

std::vector<std::string> DocumentCatalog::ListDocuments() const {
  std::shared_ptr<const Snapshot> snap = snapshot();
  std::vector<std::string> ids;
  ids.reserve(snap->docs.size());
  for (const Entry& e : snap->docs) ids.push_back(e.id);
  return ids;
}

std::shared_ptr<const query::StorageAdapter> DocumentCatalog::Find(
    std::string_view id) const {
  const Entry* e = snapshot()->Find(id);
  return e == nullptr ? nullptr : e->store;
}

void DocumentCatalog::DumpState(std::string* out) const {
  std::shared_ptr<const Snapshot> snap = snapshot();
  out->append(StringPrintf("catalog documents=%zu total-nodes=%llu\n",
                           snap->docs.size(),
                           (unsigned long long)snap->total_nodes));
  for (const Entry& e : snap->docs) {
    out->append("-- document id=" + e.id + " mapping=" +
                std::string(e.store->mapping_name()) +
                StringPrintf(" ids=[%llu,%llu)\n",
                             (unsigned long long)e.base_id,
                             (unsigned long long)(e.base_id + e.node_count)));
    e.store->DumpState(out);
  }
}

}  // namespace xmark::store
