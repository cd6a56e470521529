#include "store/inlined_store.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <unordered_set>

#include "store/bulkload.h"
#include "util/logging.h"

namespace xmark::store {
namespace {

// True when `child` occurs exactly once in the content model and is not
// repeatable (no '*' or '+' right after it): the DTD guarantees at most
// one such child per parent, so it can be inlined as a direct slot.
bool AtMostOnce(const std::string& model, const std::string& child) {
  size_t occurrences = 0;
  bool repeatable = false;
  size_t pos = 0;
  auto is_name_char = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == '.' || c == ':';
  };
  while ((pos = model.find(child, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_name_char(model[pos - 1]);
    const size_t end = pos + child.size();
    const bool right_ok = end >= model.size() || !is_name_char(model[end]);
    if (left_ok && right_ok) {
      ++occurrences;
      // Skip an optional '?' — optional children still inline.
      size_t after = end;
      if (after < model.size() && model[after] == '?') ++after;
      if (after < model.size() && (model[after] == '*' || model[after] == '+')) {
        repeatable = true;
      }
      // A ')' followed by * / + makes the whole group repeatable; treat any
      // group-closing star conservatively as repeatable.
    }
    pos = end;
  }
  if (occurrences != 1 || repeatable) return false;
  // Conservative group check: if the model ends with ")*" or ")+" the
  // group repeats and nothing inside may be inlined.
  const size_t last = model.find_last_of(')');
  if (last != std::string::npos && last + 1 < model.size() &&
      (model[last + 1] == '*' || model[last + 1] == '+')) {
    return false;
  }
  return true;
}

}  // namespace

StatusOr<std::unique_ptr<InlinedStore>> InlinedStore::Load(
    std::string_view xml, std::string_view dtd_text,
    const LoadOptions& options) {
  XMARK_ASSIGN_OR_RETURN(xml::Dtd dtd, xml::Dtd::Parse(dtd_text));
  const std::unique_ptr<ThreadPool> pool = MakeLoadPool(options);
  xml::ParseOptions popts;
  popts.pool = pool.get();
  XMARK_ASSIGN_OR_RETURN(xml::Document doc, xml::Document::Parse(xml, popts));
  std::unique_ptr<InlinedStore> store(new InlinedStore());
  store->dtd_elements_ = dtd.elements().size();
  const size_t n = doc.num_nodes();
  const xml::NameId id_attr = doc.names().Lookup("id");

  auto as_handle = [](xml::NodeId id) {
    return id == xml::kInvalidNode ? query::kInvalidHandle
                                   : static_cast<query::NodeHandle>(id);
  };

  // Dense structure arrays and attribute rows, straight from the
  // document's columns; text and values stay in its heap, adopted below.
  store->parent_.resize(n);
  store->first_child_.resize(n);
  store->next_sibling_.resize(n);
  store->tag_.resize(n);
  store->text_span_.resize(n, {0, 0});
  store->attrs_.resize(doc.num_attributes());
  ParallelFor(pool.get(), 0, n, 4096, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      const xml::NodeId node = static_cast<xml::NodeId>(i);
      store->parent_[i] = as_handle(doc.parent(node));
      store->first_child_[i] = as_handle(doc.first_child(node));
      store->next_sibling_[i] = as_handle(doc.next_sibling(node));
      store->tag_[i] = doc.name(node);
      if (!doc.IsElement(node)) {
        const uint32_t begin = doc.heap_offset(node);
        store->text_span_[i] = {begin, doc.heap_offset(node + 1) - begin};
      }
      for (uint32_t a = doc.attribute_begin(node);
           a < doc.attribute_begin(node + 1); ++a) {
        const xml::AttributeRow& attr = doc.attribute_row(a);
        store->attrs_[a] = AttrRow{node, attr.name, attr.offset, attr.length};
      }
    }
  });
  // Dense per-tag row numbers, in document order.
  std::vector<uint32_t> tag_total(doc.names().size(), 0);
  store->row_of_.resize(n);
  store->attr_begin_.resize(n);
  for (xml::NodeId i = 0; i < n; ++i) {
    store->row_of_[i] = doc.IsElement(i) ? tag_total[doc.name(i)]++ : 0;
    store->attr_begin_[i] = FirstAttributeRow(doc, i);
  }
  for (size_t t = 0; t < tag_total.size(); ++t) {
    if (tag_total[t] > 0) {
      store->tag_cardinality_[static_cast<xml::NameId>(t)] = tag_total[t];
    }
  }
  for (auto& [value, node] : CollectIdValues<query::NodeHandle>(doc, id_attr)) {
    store->id_index_.emplace(std::move(value), node);
  }
  // The parse interned names in the order the store's dictionary would,
  // so store NameId == document NameId and both tables are adopted.
  store->heap_ = doc.ReleaseHeap();
  store->names_ = doc.ReleaseNames();

  // Direct child slots: the child-chain scans run per chunk; the cheap
  // slot-vector writes replay serially in chunk (= document) order.
  std::unordered_set<uint64_t> inlineable;
  for (const xml::DtdElement& elem : dtd.elements()) {
    const xml::NameId parent_tag = store->names_.Lookup(elem.name);
    if (parent_tag == xml::kInvalidName) continue;  // tag absent from doc
    for (const std::string& child : elem.children) {
      const xml::NameId child_tag = store->names_.Lookup(child);
      if (child_tag == xml::kInvalidName) continue;
      if (AtMostOnce(elem.model, child)) {
        inlineable.insert(SlotKey(parent_tag, child_tag));
      }
    }
  }
  struct SlotEntry {
    uint64_t key;
    uint32_t parent_row;
    query::NodeHandle child;
  };
  const std::vector<size_t> bounds =
      ChunkBounds(n, pool == nullptr ? 1 : pool->worker_count());
  const size_t chunks = bounds.size() - 1;
  std::vector<std::vector<SlotEntry>> slot_entries(chunks);
  ParallelFor(pool.get(), 0, chunks, 1, [&](size_t kb, size_t ke) {
    for (size_t k = kb; k < ke; ++k) {
      for (size_t i = bounds[k]; i < bounds[k + 1]; ++i) {
        const xml::NameId ptag = store->tag_[i];
        if (ptag == xml::kInvalidName) continue;
        for (query::NodeHandle c = store->first_child_[i];
             c != query::kInvalidHandle; c = store->next_sibling_[c]) {
          const xml::NameId ctag = store->tag_[c];
          if (ctag == xml::kInvalidName) continue;
          const uint64_t key = SlotKey(ptag, ctag);
          if (!inlineable.count(key)) continue;
          slot_entries[k].push_back(SlotEntry{key, store->row_of_[i], c});
        }
      }
    }
  });
  for (const std::vector<SlotEntry>& entries : slot_entries) {
    for (const SlotEntry& entry : entries) {
      auto& slot = store->slots_[entry.key];
      if (slot.empty()) {
        slot.assign(tag_total[static_cast<xml::NameId>(entry.key >> 32)],
                    query::kInvalidHandle);
      }
      slot[entry.parent_row] = entry.child;
    }
  }

  store->root_ = doc.root();
  return store;
}

void InlinedStore::DumpState(std::string* out) const {
  out->append("inlined-store v1\n");
  out->append("names ");
  out->append(std::to_string(names_.size()));
  out->push_back('\n');
  for (xml::NameId i = 0; i < names_.size(); ++i) {
    out->append(names_.Spelling(i));
    out->push_back('\n');
  }
  out->append(StringPrintf("root %llu dtd_elements %zu\n",
                           static_cast<unsigned long long>(root_),
                           dtd_elements_));
  out->append("nodes\n");
  for (size_t i = 0; i < tag_.size(); ++i) {
    out->append(StringPrintf(
        "%llu %llu %llu %u %u %u %u\n",
        static_cast<unsigned long long>(parent_[i]),
        static_cast<unsigned long long>(first_child_[i]),
        static_cast<unsigned long long>(next_sibling_[i]), tag_[i],
        row_of_[i], text_span_[i].first, text_span_[i].second));
  }
  out->append("tag_cardinality\n");
  {
    std::map<xml::NameId, uint32_t> sorted(tag_cardinality_.begin(),
                                           tag_cardinality_.end());
    for (const auto& [tag, count] : sorted) {
      out->append(StringPrintf("%u %u\n", tag, count));
    }
  }
  out->append("slots\n");
  {
    std::map<uint64_t, const std::vector<query::NodeHandle>*> sorted;
    for (const auto& [key, slot] : slots_) sorted.emplace(key, &slot);
    for (const auto& [key, slot] : sorted) {
      out->append(StringPrintf("%llu:", static_cast<unsigned long long>(key)));
      for (query::NodeHandle h : *slot) {
        out->push_back(' ');
        out->append(std::to_string(h));
      }
      out->push_back('\n');
    }
  }
  out->append("attrs\n");
  for (const AttrRow& a : attrs_) {
    out->append(StringPrintf("%u %u %u %u\n", a.owner, a.name, a.value_begin,
                             a.value_len));
  }
  out->append("attr_begin\n");
  for (uint32_t v : attr_begin_) {
    out->append(std::to_string(v));
    out->push_back(' ');
  }
  out->append("\nheap ");
  out->append(std::to_string(heap_.size()));
  out->push_back('\n');
  out->append(heap_);
  out->append("\nid_index\n");
  {
    std::map<std::string, query::NodeHandle> sorted(id_index_.begin(),
                                                    id_index_.end());
    for (const auto& [value, node] : sorted) {
      out->append(value);
      out->push_back(' ');
      out->append(std::to_string(node));
      out->push_back('\n');
    }
  }
}

std::string_view InlinedStore::TextView(query::NodeHandle n) const {
  const auto& [begin, len] = text_span_[n];
  return std::string_view(heap_).substr(begin, len);
}

void InlinedStore::AppendStringValue(query::NodeHandle n,
                                     std::string* out) const {
  if (tag_[n] == xml::kInvalidName) {
    const auto& [begin, len] = text_span_[n];
    out->append(std::string_view(heap_).substr(begin, len));
    return;
  }
  for (query::NodeHandle c = first_child_[n]; c != query::kInvalidHandle;
       c = next_sibling_[c]) {
    AppendStringValue(c, out);
  }
}

std::optional<std::string_view> InlinedStore::AttributeView(
    query::NodeHandle n, std::string_view name) const {
  const xml::NameId id = names_.Lookup(name);
  if (id == xml::kInvalidName) return std::nullopt;
  for (size_t i = attr_begin_[n]; i < attrs_.size() && attrs_[i].owner == n;
       ++i) {
    if (attrs_[i].name == id) {
      return std::string_view(heap_).substr(attrs_[i].value_begin,
                                            attrs_[i].value_len);
    }
  }
  return std::nullopt;
}

void InlinedStore::OpenChildCursor(query::NodeHandle parent,
                                   query::ChildFilter filter, xml::NameId tag,
                                   query::ChildCursor* cur) const {
  cur->u0 = cur->Init(this, parent, filter, tag) ? first_child_[parent]
                                                 : query::kInvalidHandle;
}

size_t InlinedStore::AdvanceChildCursor(query::ChildCursor* cur,
                                        query::NodeHandle* out,
                                        size_t cap) const {
  size_t n = 0;
  query::NodeHandle c = cur->u0;
  while (n < cap && c != query::kInvalidHandle) {
    if (query::MatchesChildFilter(cur->filter, tag_[c], cur->tag)) {
      out[n++] = c;
    }
    c = next_sibling_[c];
  }
  cur->u0 = c;
  return n;
}

query::NodeHandle InlinedStore::RawSubtreeEnd(query::NodeHandle n) const {
  // Subtree end: the next sibling of n or of its nearest ancestor with
  // one (preorder ids), else the end of the node table.
  query::NodeHandle end = next_sibling_[n];
  for (query::NodeHandle a = n;
       end == query::kInvalidHandle && a != query::kInvalidHandle;) {
    a = parent_[a];
    end = a == query::kInvalidHandle ? tag_.size() : next_sibling_[a];
  }
  return end;
}

void InlinedStore::OpenDescendantCursor(query::NodeHandle base,
                                        query::ChildFilter filter,
                                        xml::NameId tag,
                                        query::DescendantCursor* cur) const {
  if (!cur->Init(this, base, filter, tag)) return;  // u0 == u1: exhausted
  cur->u0 = base + 1;
  cur->u1 = RawSubtreeEnd(base);
}

size_t InlinedStore::AdvanceDescendantCursor(query::DescendantCursor* cur,
                                             query::NodeHandle* out,
                                             size_t cap) const {
  size_t id = static_cast<size_t>(cur->u0);
  const size_t end = static_cast<size_t>(cur->u1);
  size_t n = 0;
  while (n < cap && id < end) {
    if (query::MatchesChildFilter(cur->filter, tag_[id], cur->tag)) {
      out[n++] = id;
    }
    ++id;
  }
  cur->u0 = id;
  return n;
}

std::vector<std::pair<std::string, std::string>> InlinedStore::Attributes(
    query::NodeHandle n) const {
  std::vector<std::pair<std::string, std::string>> out;
  for (size_t i = attr_begin_[n]; i < attrs_.size() && attrs_[i].owner == n;
       ++i) {
    out.emplace_back(std::string(names_.Spelling(attrs_[i].name)),
                     std::string(std::string_view(heap_).substr(
                         attrs_[i].value_begin, attrs_[i].value_len)));
  }
  return out;
}

query::NodeHandle InlinedStore::NodeById(std::string_view id) const {
  const auto it = id_index_.find(id);
  return it == id_index_.end() ? query::kInvalidHandle : it->second;
}

std::optional<std::vector<query::NodeHandle>> InlinedStore::ChildrenByTag(
    query::NodeHandle n, xml::NameId tag) const {
  if (tag_[n] == xml::kInvalidName) return std::vector<query::NodeHandle>{};
  const auto it = slots_.find(SlotKey(tag_[n], tag));
  if (it == slots_.end()) return std::nullopt;  // not inlined: generic walk
  const query::NodeHandle child = it->second[row_of_[n]];
  if (child == query::kInvalidHandle) {
    return std::vector<query::NodeHandle>{};
  }
  return std::vector<query::NodeHandle>{child};
}

size_t InlinedStore::StorageBytes() const {
  size_t bytes = heap_.capacity() + attrs_.capacity() * sizeof(AttrRow) +
                 attr_begin_.capacity() * sizeof(uint32_t) +
                 parent_.capacity() * sizeof(query::NodeHandle) * 3 +
                 tag_.capacity() * sizeof(xml::NameId) +
                 row_of_.capacity() * sizeof(uint32_t) +
                 text_span_.capacity() * sizeof(std::pair<uint32_t, uint32_t>);
  for (const auto& [key, slot] : slots_) {
    bytes += sizeof(key) + slot.capacity() * sizeof(query::NodeHandle);
  }
  for (const auto& [id, node] : id_index_) {
    bytes += id.size() + sizeof(node) + 32;
  }
  return bytes;
}

size_t InlinedStore::CatalogEntries() const {
  return dtd_elements_ + slots_.size();
}

}  // namespace xmark::store
