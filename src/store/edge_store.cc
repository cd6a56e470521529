#include "store/edge_store.h"

#include <algorithm>

#include "store/bulkload.h"
#include "util/string_util.h"

namespace xmark::store {

StatusOr<std::unique_ptr<EdgeStore>> EdgeStore::Load(
    std::string_view xml, const LoadOptions& options) {
  const unsigned threads = options.EffectiveThreads();
  XMARK_ASSIGN_OR_RETURN(
      xml::Document doc,
      xml::Document::Parse(xml, xml::ParseOptions{.threads = threads}));
  std::unique_ptr<EdgeStore> store(new EdgeStore());
  const size_t n = doc.num_nodes();
  const xml::NameId id_attr = doc.names().Lookup("id");

  // Sibling ordinals, and each node's child count in child_begin_: each
  // child is written exactly once, by its parent.
  std::vector<uint32_t> ord_of_node(n, 0);
  std::vector<uint32_t>& child_begin = store->child_begin_;
  child_begin.resize(n);
  ParallelFor(threads, 0, n, 1024, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      uint32_t ord = 0;
      for (xml::NodeId c = doc.first_child(static_cast<xml::NodeId>(i));
           c != xml::kInvalidNode; c = doc.next_sibling(c)) {
        ord_of_node[c] = ord++;
      }
      child_begin[i] = ord;
    }
  });

  // The relation is clustered on (parent, ord) with the root last, so each
  // row's position is counted, not sorted for: the children of all earlier
  // parents, plus its ordinal. The prefix sum turns the counts into first
  // child positions (n for leaves).
  uint32_t rows_before = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t children = child_begin[i];
    child_begin[i] = children > 0 ? rows_before : static_cast<uint32_t>(n);
    rows_before += children;
  }

  // Shred the columns into the edge and attribute relations, each row
  // straight to its clustered position. Text and attribute values stay
  // where the parse put them: the relations keep the spans, and the store
  // adopts the document's heap below.
  store->rows_.resize(n);
  store->pos_of_id_.resize(n);
  // Dense preorder id->tag projection for the descendant cursors.
  store->tag_by_id_.resize(n);
  store->attrs_.resize(doc.num_attributes());
  ParallelFor(threads, 0, n, 4096, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      const xml::NodeId node = static_cast<xml::NodeId>(i);
      const xml::NodeId parent = doc.parent(node);
      EdgeRow row{};
      row.id = node;
      row.parent = parent == xml::kInvalidNode ? kNoParent : parent;
      row.ord = ord_of_node[i];
      row.tag = doc.name(node);
      if (!doc.IsElement(node)) {
        row.text_begin = doc.heap_offset(node);
        row.text_len = doc.heap_offset(node + 1) - row.text_begin;
      }
      const uint32_t pos = parent == xml::kInvalidNode
                               ? static_cast<uint32_t>(n - 1)
                               : child_begin[parent] + row.ord;
      store->rows_[pos] = row;
      store->pos_of_id_[i] = pos;
      store->tag_by_id_[i] = row.tag;
      for (uint32_t a = doc.attribute_begin(node);
           a < doc.attribute_begin(node + 1); ++a) {
        const xml::AttributeRow& attr = doc.attribute_row(a);
        store->attrs_[a] = AttrRow{node, attr.name, attr.offset, attr.length};
      }
    }
  });
  store->id_value_index_ = CollectIdValues<uint32_t>(doc, id_attr);
  // (value, id) pairs are unique, so the stable sort is a plain sort.
  std::stable_sort(store->id_value_index_.begin(),
                   store->id_value_index_.end());
  // The parse interned tag and attribute names in preorder, the order the
  // store's dictionary would assign, so both are adopted as they are.
  store->heap_ = doc.ReleaseHeap();
  store->names_ = doc.ReleaseNames();

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

xml::NameId EdgeStore::NameOf(query::NodeHandle n) const {
  return RowOf(n).tag;
}

query::NodeHandle EdgeStore::Parent(query::NodeHandle n) const {
  const uint32_t p = RowOf(n).parent;
  return p == kNoParent ? query::kInvalidHandle : p;
}

std::string_view EdgeStore::TextView(query::NodeHandle n) const {
  const EdgeRow& row = RowOf(n);
  return HeapString(row.text_begin, row.text_len);
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
  return query::ScanIdInterval(tag_by_id_.data(), cur->filter, cur->tag,
                               &cur->u0, cur->u1, out, cap);
}

void EdgeStore::ForEachAttribute(query::NodeHandle n,
                                 query::AttributeVisitor visit) const {
  for (size_t i = attr_begin_[n]; i < attrs_.size() && attrs_[i].owner == n;
       ++i) {
    visit(attrs_[i].name,
          HeapString(attrs_[i].value_begin, attrs_[i].value_len));
  }
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
