#include "store/fragmented_store.h"

#include <algorithm>
#include <cstddef>
#include <memory_resource>

#include "store/bulkload.h"
#include "util/string_util.h"

namespace xmark::store {

StatusOr<std::unique_ptr<FragmentedStore>> FragmentedStore::Load(
    std::string_view xml, const LoadOptions& options) {
  const unsigned threads = options.EffectiveThreads();
  XMARK_ASSIGN_OR_RETURN(
      xml::Document doc,
      xml::Document::Parse(xml, xml::ParseOptions{.threads = threads}));
  std::unique_ptr<FragmentedStore> store(new FragmentedStore());
  const size_t n = doc.num_nodes();
  // The dictionary is "#text" followed by the document's own (first-
  // occurrence) order, so document NameId u is store id u + 1.
  store->text_tag_ = store->names_.Intern("#text");
  for (xml::NameId u = 0; u < doc.names().size(); ++u) {
    store->names_.Intern(doc.names().Spelling(u));
  }
  const xml::NameId id_attr = doc.names().Lookup("id");

  // Path discovery is sequential: path ids are assigned in order of first
  // appearance, and a node's path extends its parent's (parents precede
  // children in preorder). The pass touches no heap bytes or attributes.
  store->path_names_.push_back("");  // virtual document node
  store->paths_.push_back(PathInfo{});
  store->path_of_.resize(n);
  store->idx_in_path_.resize(n);
  std::vector<uint32_t> path_rows{0};  // rows per path, for exact sizing
  for (xml::NodeId i = 0; i < n; ++i) {
    const xml::NodeId parent = doc.parent(i);
    const uint32_t parent_path =
        parent == xml::kInvalidNode ? 0 : store->path_of_[parent];
    const xml::NameId tag =
        doc.IsElement(i) ? doc.name(i) + 1 : store->text_tag_;
    uint32_t path_id = 0;
    for (uint32_t child : store->paths_[parent_path].child_paths) {
      if (store->paths_[child].tag == tag) {
        path_id = child;
        break;
      }
    }
    if (path_id == 0) {
      path_id = static_cast<uint32_t>(store->paths_.size());
      PathInfo info;
      info.parent_path = parent_path;
      info.tag = tag;
      info.depth = store->paths_[parent_path].depth + 1;
      store->paths_.push_back(std::move(info));
      store->paths_[parent_path].child_paths.push_back(path_id);
      store->paths_by_tag_[tag].push_back(path_id);
      store->path_names_.push_back(store->path_names_[parent_path] + "/" +
                                   store->names_.Spelling(tag));
      path_rows.push_back(0);
    }
    store->path_of_[i] = path_id;
    store->idx_in_path_[i] = path_rows[path_id]++;
  }
  for (size_t p = 0; p < store->paths_.size(); ++p) {
    store->paths_[p].rows.resize(path_rows[p]);
  }

  // Per-path table and attribute fills: every row slot is fixed by the
  // discovery pass and every attribute row by the document, so writes are
  // disjoint. Text and values stay in the document's heap, adopted below.
  store->attrs_.resize(doc.num_attributes());
  ParallelFor(threads, 0, n, 4096, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      const xml::NodeId node = static_cast<xml::NodeId>(i);
      Row row{};
      row.id = node;
      row.parent = doc.parent(node) == xml::kInvalidNode ? 0xffffffffu
                                                         : doc.parent(node);
      row.subtree_end = doc.SubtreeEnd(node);
      if (!doc.IsElement(node)) {
        row.text_begin = doc.heap_offset(node);
        row.text_len = doc.heap_offset(node + 1) - row.text_begin;
      }
      store->paths_[store->path_of_[i]].rows[store->idx_in_path_[i]] = row;
      for (uint32_t a = doc.attribute_begin(node);
           a < doc.attribute_begin(node + 1); ++a) {
        const xml::AttributeRow& attr = doc.attribute_row(a);
        store->attrs_[a] =
            AttrRow{node, attr.name + 1, attr.offset, attr.length};
      }
    }
  });
  store->attr_begin_.resize(n);
  for (xml::NodeId i = 0; i < n; ++i) {
    store->attr_begin_[i] = FirstAttributeRow(doc, i);
  }
  store->id_value_index_ = CollectIdValues<uint32_t>(doc, id_attr);
  std::stable_sort(store->id_value_index_.begin(),
                   store->id_value_index_.end());
  store->heap_ = doc.ReleaseHeap();
  store->root_ = doc.root();
  return store;
}

void FragmentedStore::DumpState(std::string* out) const {
  out->append("fragmented-store v1\n");
  out->append("names ");
  out->append(std::to_string(names_.size()));
  out->push_back('\n');
  for (xml::NameId i = 0; i < names_.size(); ++i) {
    out->append(names_.Spelling(i));
    out->push_back('\n');
  }
  out->append(StringPrintf("root %llu text_tag %u\n",
                           static_cast<unsigned long long>(root_), text_tag_));
  out->append("paths ");
  out->append(std::to_string(paths_.size()));
  out->push_back('\n');
  for (size_t p = 0; p < paths_.size(); ++p) {
    const PathInfo& info = paths_[p];
    out->append(StringPrintf("path %zu parent %u tag %u depth %d name %s\n",
                             p, info.parent_path, info.tag, info.depth,
                             path_names_[p].c_str()));
    out->append("children");
    for (uint32_t c : info.child_paths) {
      out->push_back(' ');
      out->append(std::to_string(c));
    }
    out->append("\nrows\n");
    for (const Row& r : info.rows) {
      out->append(StringPrintf("%u %u %u %u %u\n", r.id, r.parent,
                               r.subtree_end, r.text_begin, r.text_len));
    }
  }
  out->append("path_of\n");
  for (uint32_t v : path_of_) {
    out->append(std::to_string(v));
    out->push_back(' ');
  }
  out->append("\nidx_in_path\n");
  for (uint32_t v : idx_in_path_) {
    out->append(std::to_string(v));
    out->push_back(' ');
  }
  out->append("\npaths_by_tag\n");
  for (xml::NameId tag = 0; tag < names_.size(); ++tag) {
    const auto it = paths_by_tag_.find(tag);
    if (it == paths_by_tag_.end()) continue;
    out->append(std::to_string(tag));
    for (uint32_t p : it->second) {
      out->push_back(' ');
      out->append(std::to_string(p));
    }
    out->push_back('\n');
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
  for (const auto& [value, node] : id_value_index_) {
    out->append(value);
    out->push_back(' ');
    out->append(std::to_string(node));
    out->push_back('\n');
  }
}

xml::NameId FragmentedStore::NameOf(query::NodeHandle n) const {
  const xml::NameId tag = paths_[path_of_[n]].tag;
  return tag == text_tag_ ? xml::kInvalidName : tag;
}

query::NodeHandle FragmentedStore::Parent(query::NodeHandle n) const {
  const uint32_t p = RowOf(n).parent;
  return p == 0xffffffffu ? query::kInvalidHandle : p;
}

std::pair<size_t, size_t> FragmentedStore::Slice(const PathInfo& p,
                                                 uint32_t lo,
                                                 uint32_t hi) const {
  const auto begin = std::lower_bound(
      p.rows.begin(), p.rows.end(), lo,
      [](const Row& row, uint32_t key) { return row.id < key; });
  const auto end = std::lower_bound(
      begin, p.rows.end(), hi,
      [](const Row& row, uint32_t key) { return row.id < key; });
  return {static_cast<size_t>(begin - p.rows.begin()),
          static_cast<size_t>(end - p.rows.begin())};
}

query::NodeHandle FragmentedStore::FirstChild(query::NodeHandle n) const {
  // Merge across every child path table: the child with the smallest id.
  const PathInfo& path = paths_[path_of_[n]];
  const Row& row = RowOf(n);
  query::NodeHandle best = query::kInvalidHandle;
  for (uint32_t child_path : path.child_paths) {
    const PathInfo& cp = paths_[child_path];
    const auto [b, e] = Slice(cp, static_cast<uint32_t>(n) + 1,
                              row.subtree_end);
    if (b != e && (best == query::kInvalidHandle || cp.rows[b].id < best)) {
      best = cp.rows[b].id;
    }
  }
  return best;
}

query::NodeHandle FragmentedStore::NextSibling(query::NodeHandle n) const {
  const uint32_t parent = RowOf(n).parent;
  if (parent == 0xffffffffu) return query::kInvalidHandle;
  const Row& parent_row = RowOf(parent);
  // The next sibling is the smallest child id greater than the end of n's
  // subtree.
  const uint32_t after = RowOf(n).subtree_end;
  const PathInfo& parent_path = paths_[path_of_[parent]];
  query::NodeHandle best = query::kInvalidHandle;
  for (uint32_t child_path : parent_path.child_paths) {
    const PathInfo& cp = paths_[child_path];
    const auto [b, e] = Slice(cp, after, parent_row.subtree_end);
    if (b != e && (best == query::kInvalidHandle || cp.rows[b].id < best)) {
      best = cp.rows[b].id;
    }
  }
  return best;
}

size_t FragmentedStore::SiblingWalk(query::ChildCursor* cur,
                                    query::NodeHandle* out,
                                    size_t cap) const {
  size_t n = 0;
  query::NodeHandle c = cur->u0;
  while (n < cap && c != query::kInvalidHandle) {
    if (query::MatchesChildFilter(cur->filter, NameOf(c), cur->tag)) {
      out[n++] = c;
    }
    c = NextSibling(c);
  }
  cur->u0 = c;
  return n;
}

size_t FragmentedStore::PreorderWalk(query::DescendantCursor* cur,
                                     query::NodeHandle* out,
                                     size_t cap) const {
  size_t n = 0;
  query::NodeHandle c = cur->u0;
  while (n < cap && c != query::kInvalidHandle) {
    if (query::MatchesChildFilter(cur->filter, NameOf(c), cur->tag)) {
      out[n++] = c;
    }
    // Preorder successor within the subtree: first child, else the next
    // sibling of the nearest ancestor at or below base (exclusive).
    query::NodeHandle next = FirstChild(c);
    while (next == query::kInvalidHandle && c != cur->base &&
           c != query::kInvalidHandle) {
      next = NextSibling(c);
      if (next == query::kInvalidHandle) c = Parent(c);
    }
    c = (c == cur->base) ? query::kInvalidHandle : next;
  }
  cur->u0 = c;
  return n;
}

std::string_view FragmentedStore::TextView(query::NodeHandle n) const {
  const Row& row = RowOf(n);
  return std::string_view(heap_).substr(row.text_begin, row.text_len);
}

void FragmentedStore::OpenChildCursor(query::NodeHandle parent,
                                      query::ChildFilter filter,
                                      xml::NameId tag,
                                      query::ChildCursor* cur) const {
  if (filter != query::ChildFilter::kTag &&
      filter != query::ChildFilter::kText) {
    // Generic scan: the sibling chain, merging across child path tables.
    cur->Init(this, parent, filter, tag);
    cur->u0 = FirstChild(parent);
    return;
  }
  // A filtered scan is a slice of exactly one child path table (text
  // children all live in the parent path's #text table).
  if (!cur->Init(this, parent, filter, tag)) return;  // empty slice
  const xml::NameId want = filter == query::ChildFilter::kText ? text_tag_ : tag;
  const PathInfo& path = paths_[path_of_[parent]];
  for (uint32_t child_path : path.child_paths) {
    if (paths_[child_path].tag != want) continue;
    const auto [b, e] = Slice(paths_[child_path],
                              static_cast<uint32_t>(parent) + 1,
                              RowOf(parent).subtree_end);
    cur->u0 = b;
    cur->u1 = e;
    cur->u2 = child_path;
    return;
  }
}

size_t FragmentedStore::AdvanceChildCursor(query::ChildCursor* cur,
                                           query::NodeHandle* out,
                                           size_t cap) const {
  if (cur->filter != query::ChildFilter::kTag &&
      cur->filter != query::ChildFilter::kText) {
    return SiblingWalk(cur, out, cap);
  }
  if (cur->u0 >= cur->u1) return 0;
  const PathInfo& path = paths_[cur->u2];
  size_t n = 0;
  size_t pos = static_cast<size_t>(cur->u0);
  const size_t end = static_cast<size_t>(cur->u1);
  while (n < cap && pos < end) out[n++] = path.rows[pos++].id;
  cur->u0 = pos;
  return n;
}

size_t FragmentedStore::CandidatePaths(xml::NameId want, uint32_t base_path,
                                       uint32_t* out, size_t cap) const {
  size_t n = 0;
  if (want == text_tag_) {
    // The #text child of every path in the path subtree under base_path;
    // a #text path is always a leaf.
    for (const uint32_t child : paths_[base_path].child_paths) {
      if (n == cap) break;
      if (paths_[child].tag == text_tag_) {
        out[n++] = child;
      } else {
        n += CandidatePaths(want, child, out + n, cap - n);
      }
    }
    return n;
  }
  const auto it = paths_by_tag_.find(want);
  if (it == paths_by_tag_.end()) return 0;
  for (const uint32_t path_id : it->second) {
    if (n == cap) break;
    if (PathExtends(path_id, base_path)) out[n++] = path_id;
  }
  return n;
}

void FragmentedStore::OpenDescendantCursor(
    query::NodeHandle base, query::ChildFilter filter, xml::NameId tag,
    query::DescendantCursor* cur) const {
  if (filter != query::ChildFilter::kTag &&
      filter != query::ChildFilter::kText) {
    // Generic filters merge across every child table per node: the
    // preorder walk over the sibling/parent links.
    cur->Init(this, base, filter, tag);
    cur->u0 = FirstChild(base);
    return;
  }
  if (!cur->Init(this, base, filter, tag)) {
    cur->u2 = 1;  // single-slice mode, u0 == u1: exhausted
    return;
  }
  const xml::NameId want =
      filter == query::ChildFilter::kText ? text_tag_ : tag;
  const uint32_t lo = static_cast<uint32_t>(base) + 1;
  const uint32_t hi = RowOf(base).subtree_end;
  uint32_t found[2];
  const size_t candidates = CandidatePaths(want, path_of_[base], found, 2);
  if (candidates == 1) {
    // The common case: one path table holds every match below base — its
    // subtree slice is the whole answer, already in document order.
    const auto [b, e] = Slice(paths_[found[0]], lo, hi);
    cur->u0 = b;
    cur->u1 = e;
    cur->u2 = static_cast<uint64_t>(found[0]) << 1 | 1;
    return;
  }
  if (candidates == 0) {
    cur->u2 = 1;  // single-slice mode, empty
    return;
  }
  // Merge mode (u2 == 0): document-order merge across the candidate path
  // tables, tracked by the lower id bound alone.
  cur->u0 = lo;
  cur->u1 = hi;
}

size_t FragmentedStore::AdvanceDescendantCursor(query::DescendantCursor* cur,
                                                query::NodeHandle* out,
                                                size_t cap) const {
  if (cur->filter != query::ChildFilter::kTag &&
      cur->filter != query::ChildFilter::kText) {
    return PreorderWalk(cur, out, cap);
  }
  if (cur->u2 != 0) {  // single-slice mode
    const PathInfo& path = paths_[cur->u2 >> 1];
    size_t pos = static_cast<size_t>(cur->u0);
    const size_t end = static_cast<size_t>(cur->u1);
    size_t n = 0;
    while (n < cap && pos < end) out[n++] = path.rows[pos++].id;
    cur->u0 = pos;
    return n;
  }
  // Merge mode: collect the candidate tables, re-slice each from the
  // current lower bound and emit the smallest front id until the batch is
  // full. Ids and fronts are per-call locals, on this frame up to
  // kInlinePaths candidates, so the persistent state stays within the
  // cursor words.
  if (cap == 0) return 0;  // must not conflate "no room" with "exhausted"
  const uint32_t lo = static_cast<uint32_t>(cur->u0);
  const uint32_t hi = static_cast<uint32_t>(cur->u1);
  if (lo >= hi) return 0;
  const xml::NameId want =
      cur->filter == query::ChildFilter::kText ? text_tag_ : cur->tag;
  const uint32_t base_path = path_of_[static_cast<uint32_t>(cur->base)];
  struct Front {
    const PathInfo* path;
    size_t pos;
    size_t end;
  };
  constexpr size_t kInlinePaths = 64;
  alignas(Front) std::byte
      local[kInlinePaths * (sizeof(Front) + sizeof(uint32_t))];
  std::pmr::monotonic_buffer_resource mem(local, sizeof(local));
  std::pmr::vector<uint32_t> ids(kInlinePaths, &mem);
  ids.resize(CandidatePaths(want, base_path, ids.data(), ids.size()));
  if (ids.size() == kInlinePaths) {  // there may be more: room for every path
    ids.resize(paths_.size());
    ids.resize(CandidatePaths(want, base_path, ids.data(), ids.size()));
  }
  std::pmr::vector<Front> fronts(&mem);
  fronts.reserve(ids.size());
  for (const uint32_t id : ids) {
    const auto [b, e] = Slice(paths_[id], lo, hi);
    if (b != e) fronts.push_back(Front{&paths_[id], b, e});
  }
  size_t n = 0;
  while (n < cap && !fronts.empty()) {
    size_t best = 0;
    for (size_t f = 1; f < fronts.size(); ++f) {
      if (fronts[f].path->rows[fronts[f].pos].id <
          fronts[best].path->rows[fronts[best].pos].id) {
        best = f;
      }
    }
    out[n++] = fronts[best].path->rows[fronts[best].pos].id;
    if (++fronts[best].pos == fronts[best].end) {
      fronts[best] = fronts.back();
      fronts.pop_back();
    }
  }
  cur->u0 = n > 0 ? static_cast<uint64_t>(out[n - 1]) + 1 : hi;
  return n;
}

void FragmentedStore::ForEachAttribute(query::NodeHandle n,
                                       query::AttributeVisitor visit) const {
  for (size_t i = attr_begin_[n]; i < attrs_.size() && attrs_[i].owner == n;
       ++i) {
    visit(attrs_[i].name, std::string_view(heap_).substr(
                              attrs_[i].value_begin, attrs_[i].value_len));
  }
}

query::NodeHandle FragmentedStore::NodeById(std::string_view id) const {
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

bool FragmentedStore::PathExtends(uint32_t candidate, uint32_t base) const {
  // True when `base`'s path is a proper prefix of `candidate`'s.
  const int base_depth = paths_[base].depth;
  int depth = paths_[candidate].depth;
  uint32_t walk = candidate;
  while (depth > base_depth) {
    walk = paths_[walk].parent_path;
    --depth;
  }
  return walk == base && candidate != base;
}

std::optional<std::vector<query::NodeHandle>> FragmentedStore::PathExtent(
    const std::vector<xml::NameId>& path) const {
  uint32_t idx = 0;
  for (const xml::NameId tag : path) {
    uint32_t next = 0;
    for (uint32_t child : paths_[idx].child_paths) {
      if (paths_[child].tag == tag) {
        next = child;
        break;
      }
    }
    if (next == 0) return std::vector<query::NodeHandle>{};
    idx = next;
  }
  std::vector<query::NodeHandle> out;
  out.reserve(paths_[idx].rows.size());
  for (const Row& row : paths_[idx].rows) out.push_back(row.id);
  return out;
}

size_t FragmentedStore::ResolveName(std::string_view name) const {
  // Catalog scan: every path table's name is inspected for a matching last
  // segment — the metadata-access cost of a highly fragmented schema, and
  // the driver of System B's expensive compilation phase in Table 2.
  const std::string suffix = "/" + std::string(name);
  size_t matches = 0;
  for (const std::string& path_name : path_names_) {
    if (path_name.size() >= suffix.size() &&
        path_name.compare(path_name.size() - suffix.size(), suffix.size(),
                          suffix) == 0) {
      ++matches;
    }
  }
  // Entries inspected plus matches: the count depends on every compare,
  // so the compiler cannot drop them.
  return path_names_.size() + matches;
}

size_t FragmentedStore::StorageBytes() const {
  size_t bytes = heap_.capacity() +
                 path_of_.capacity() * sizeof(uint32_t) +
                 idx_in_path_.capacity() * sizeof(uint32_t) +
                 attrs_.capacity() * sizeof(AttrRow) +
                 attr_begin_.capacity() * sizeof(uint32_t);
  for (const PathInfo& p : paths_) {
    bytes += sizeof(PathInfo) + p.rows.capacity() * sizeof(Row) +
             p.child_paths.capacity() * sizeof(uint32_t);
  }
  for (const auto& [value, node] : id_value_index_) {
    bytes += value.size() + sizeof(node) + 16;
  }
  return bytes;
}

}  // namespace xmark::store
