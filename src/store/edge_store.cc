#include "store/edge_store.h"

#include <algorithm>

#include "store/bulkload.h"
#include "util/string_util.h"

namespace xmark::store {

StatusOr<std::unique_ptr<EdgeStore>> EdgeStore::Load(
    std::string_view xml, const LoadOptions& options) {
  const std::unique_ptr<ThreadPool> pool = MakeLoadPool(options);
  xml::ParseOptions popts;
  popts.pool = pool.get();
  XMARK_ASSIGN_OR_RETURN(xml::Document doc, xml::Document::Parse(xml, popts));
  std::unique_ptr<EdgeStore> store(new EdgeStore());
  const size_t n = doc.num_nodes();
  const xml::NameId id_attr = doc.names().Lookup("id");

  // Sibling ordinals: each child is written exactly once, by its parent.
  std::vector<uint32_t> ord_of_node(n, 0);
  ParallelFor(pool.get(), 0, n, 1024, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      uint32_t ord = 0;
      for (xml::NodeId c = doc.first_child(static_cast<xml::NodeId>(i));
           c != xml::kInvalidNode; c = doc.next_sibling(c)) {
        ord_of_node[c] = ord++;
      }
    }
  });

  // Shred the columns into the edge and attribute relations. Text and
  // attribute values stay where the parse put them: the relations keep
  // the spans, and the store adopts the document's heap below.
  store->rows_.resize(n);
  store->attrs_.resize(doc.num_attributes());
  ParallelFor(pool.get(), 0, n, 4096, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      const xml::NodeId node = static_cast<xml::NodeId>(i);
      EdgeRow row{};
      row.id = node;
      row.parent = doc.parent(node) == xml::kInvalidNode ? kNoParent
                                                         : doc.parent(node);
      row.ord = ord_of_node[i];
      row.tag = doc.name(node);
      if (!doc.IsElement(node)) {
        row.text_begin = doc.heap_offset(node);
        row.text_len = doc.heap_offset(node + 1) - row.text_begin;
      }
      store->rows_[i] = row;
      for (uint32_t a = doc.attribute_begin(node);
           a < doc.attribute_begin(node + 1); ++a) {
        const xml::AttributeRow& attr = doc.attribute_row(a);
        store->attrs_[a] = AttrRow{node, attr.name, attr.offset, attr.length};
      }
    }
  });
  store->id_value_index_ = CollectIdValues<uint32_t>(doc, id_attr);
  // (value, id) pairs are unique, so the stable sort is a plain sort.
  ParallelStableSort(pool.get(), store->id_value_index_.begin(),
                     store->id_value_index_.end(),
                     [](const auto& a, const auto& b) { return a < b; });
  // The parse interned tag and attribute names in preorder, the order the
  // store's dictionary would assign, so both are adopted as they are.
  store->heap_ = doc.ReleaseHeap();
  store->names_ = doc.ReleaseNames();

  // Cluster on (parent, ord): keys are unique, so the order is the same
  // for any thread count.
  ParallelStableSort(pool.get(), store->rows_.begin(), store->rows_.end(),
                     [](const EdgeRow& a, const EdgeRow& b) {
                       if (a.parent != b.parent) return a.parent < b.parent;
                       return a.ord < b.ord;
                     });

  // Index builds: disjoint writes throughout.
  store->pos_of_id_.resize(n);
  // Dense preorder id->tag projection for the compiled-pipeline raw scans.
  store->tag_by_id_.resize(n);
  store->child_begin_.assign(n, static_cast<uint32_t>(n));
  ParallelFor(pool.get(), 0, n, 4096, [&](size_t b, size_t e) {
    for (size_t pos = b; pos < e; ++pos) {
      const EdgeRow& row = store->rows_[pos];
      store->pos_of_id_[row.id] = static_cast<uint32_t>(pos);
      store->tag_by_id_[row.id] = row.tag;
      if (row.parent != kNoParent &&
          (pos == 0 || store->rows_[pos - 1].parent != row.parent)) {
        store->child_begin_[row.parent] = static_cast<uint32_t>(pos);
      }
    }
  });
  // Subtree intervals and first attribute rows come straight from the
  // document's columns.
  store->subtree_end_.resize(n);
  store->attr_begin_.resize(n);
  for (xml::NodeId i = 0; i < n; ++i) {
    store->subtree_end_[i] = doc.SubtreeEnd(i);
    store->attr_begin_[i] = FirstAttributeRow(doc, i);
  }
  store->root_ = doc.root();
  return store;
}

void EdgeStore::DumpState(std::string* out) const {
  out->append("edge-store v1\n");
  out->append("names ");
  out->append(std::to_string(names_.size()));
  out->push_back('\n');
  for (xml::NameId i = 0; i < names_.size(); ++i) {
    out->append(names_.Spelling(i));
    out->push_back('\n');
  }
  out->append(StringPrintf("root %llu\n",
                           static_cast<unsigned long long>(root_)));
  out->append("rows\n");
  for (const EdgeRow& r : rows_) {
    out->append(StringPrintf("%u %u %u %u %u %u\n", r.id, r.parent, r.ord,
                             r.tag, r.text_begin, r.text_len));
  }
  out->append("pos_of_id\n");
  for (uint32_t v : pos_of_id_) out->append(std::to_string(v)), out->push_back(' ');
  out->append("\nchild_begin\n");
  for (uint32_t v : child_begin_) out->append(std::to_string(v)), out->push_back(' ');
  out->append("\nsubtree_end\n");
  for (uint32_t v : subtree_end_) out->append(std::to_string(v)), out->push_back(' ');
  out->append("\nattrs\n");
  for (const AttrRow& a : attrs_) {
    out->append(StringPrintf("%u %u %u %u\n", a.owner, a.name, a.value_begin,
                             a.value_len));
  }
  out->append("attr_begin\n");
  for (uint32_t v : attr_begin_) out->append(std::to_string(v)), out->push_back(' ');
  out->append("\nheap ");
  out->append(std::to_string(heap_.size()));
  out->push_back('\n');
  out->append(heap_);
  out->append("\nid_index\n");
  for (const auto& [value, node] : id_value_index_) {
    out->append(value);
    out->push_back(' ');
    out->append(std::to_string(node));
    out->push_back('\n');
  }
}

bool EdgeStore::IsElement(query::NodeHandle n) const {
  return RowOf(n).tag != xml::kInvalidName;
}

xml::NameId EdgeStore::NameOf(query::NodeHandle n) const {
  return RowOf(n).tag;
}

query::NodeHandle EdgeStore::Parent(query::NodeHandle n) const {
  const uint32_t p = RowOf(n).parent;
  return p == kNoParent ? query::kInvalidHandle : p;
}

query::NodeHandle EdgeStore::FirstChild(query::NodeHandle n) const {
  // Probe the clustered relation for (parent == n, ord == 0).
  const auto it = std::lower_bound(
      rows_.begin(), rows_.end(), n, [](const EdgeRow& row, uint64_t parent) {
        return row.parent < parent;
      });
  if (it == rows_.end() || it->parent != n) return query::kInvalidHandle;
  return it->id;
}

query::NodeHandle EdgeStore::NextSibling(query::NodeHandle n) const {
  const uint32_t pos = pos_of_id_[n];
  if (pos + 1 >= rows_.size()) return query::kInvalidHandle;
  const EdgeRow& next = rows_[pos + 1];
  if (next.parent != rows_[pos].parent) return query::kInvalidHandle;
  return next.id;
}

std::string_view EdgeStore::TextView(query::NodeHandle n) const {
  const EdgeRow& row = RowOf(n);
  return HeapString(row.text_begin, row.text_len);
}

void EdgeStore::AppendStringValue(query::NodeHandle n, std::string* out) const {
  const EdgeRow& row = RowOf(n);
  if (row.tag == xml::kInvalidName) {
    out->append(HeapString(row.text_begin, row.text_len));
    return;
  }
  // Scan the clustered child range directly: O(1) positioning instead of a
  // FirstChild probe plus a PK-index hop per sibling.
  const auto begin = rows_.begin() + child_begin_[n];
  for (auto it = begin; it != rows_.end() && it->parent == n; ++it) {
    if (it->tag == xml::kInvalidName) {
      out->append(HeapString(it->text_begin, it->text_len));
    } else {
      AppendStringValue(it->id, out);
    }
  }
}

std::optional<std::string_view> EdgeStore::AttributeView(
    query::NodeHandle n, std::string_view name) const {
  const xml::NameId id = names_.Lookup(name);
  if (id == xml::kInvalidName) return std::nullopt;
  for (size_t i = attr_begin_[n]; i < attrs_.size() && attrs_[i].owner == n;
       ++i) {
    if (attrs_[i].name == id) {
      return HeapString(attrs_[i].value_begin, attrs_[i].value_len);
    }
  }
  return std::nullopt;
}

void EdgeStore::OpenChildCursor(query::NodeHandle parent,
                                query::ChildFilter filter, xml::NameId tag,
                                query::ChildCursor* cur) const {
  cur->u0 = cur->Init(this, parent, filter, tag) ? child_begin_[parent]
                                                 : rows_.size();
}

void EdgeStore::OpenDescendantCursor(query::NodeHandle base,
                                     query::ChildFilter filter,
                                     xml::NameId tag,
                                     query::DescendantCursor* cur) const {
  if (cur->Init(this, base, filter, tag)) {
    cur->u0 = base + 1;
    cur->u1 = subtree_end_[base];
  }  // else u0 == u1 == 0: exhausted
}

size_t EdgeStore::AdvanceChildCursor(query::ChildCursor* cur,
                                     query::NodeHandle* out,
                                     size_t cap) const {
  const uint32_t parent = static_cast<uint32_t>(cur->parent);
  size_t pos = static_cast<size_t>(cur->u0);
  size_t n = 0;
  while (n < cap && pos < rows_.size() && rows_[pos].parent == parent) {
    const EdgeRow& row = rows_[pos++];
    if (query::MatchesChildFilter(cur->filter, row.tag, cur->tag)) {
      out[n++] = row.id;
    }
  }
  cur->u0 = pos;
  return n;
}

size_t EdgeStore::AdvanceDescendantCursor(query::DescendantCursor* cur,
                                          query::NodeHandle* out,
                                          size_t cap) const {
  size_t id = static_cast<size_t>(cur->u0);
  const size_t end = static_cast<size_t>(cur->u1);
  size_t n = 0;
  while (n < cap && id < end) {
    if (query::MatchesChildFilter(cur->filter, RowOf(id).tag, cur->tag)) {
      out[n++] = id;
    }
    ++id;
  }
  cur->u0 = id;
  return n;
}

std::vector<std::pair<std::string, std::string>> EdgeStore::Attributes(
    query::NodeHandle n) const {
  std::vector<std::pair<std::string, std::string>> out;
  for (size_t i = attr_begin_[n]; i < attrs_.size() && attrs_[i].owner == n;
       ++i) {
    out.emplace_back(
        std::string(names_.Spelling(attrs_[i].name)),
        std::string(HeapString(attrs_[i].value_begin, attrs_[i].value_len)));
  }
  return out;
}

query::NodeHandle EdgeStore::NodeById(std::string_view id) const {
  const auto it = std::lower_bound(
      id_value_index_.begin(), id_value_index_.end(), id,
      [](const std::pair<std::string, uint32_t>& entry, std::string_view key) {
        return std::string_view(entry.first) < key;
      });
  if (it == id_value_index_.end() || it->first != id) {
    return query::kInvalidHandle;
  }
  return it->second;
}

size_t EdgeStore::StorageBytes() const {
  size_t bytes = rows_.capacity() * sizeof(EdgeRow) +
                 pos_of_id_.capacity() * sizeof(uint32_t) +
                 child_begin_.capacity() * sizeof(uint32_t) +
                 subtree_end_.capacity() * sizeof(uint32_t) +
                 tag_by_id_.capacity() * sizeof(xml::NameId) +
                 attrs_.capacity() * sizeof(AttrRow) +
                 attr_begin_.capacity() * sizeof(uint32_t) + heap_.capacity();
  for (const auto& [value, node] : id_value_index_) {
    bytes += value.size() + sizeof(node) + 16;
  }
  return bytes;
}

}  // namespace xmark::store
