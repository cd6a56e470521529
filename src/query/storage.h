#ifndef XMARK_QUERY_STORAGE_H_
#define XMARK_QUERY_STORAGE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "xml/names.h"

namespace xmark::query {

/// Opaque node handle within one storage engine.
using NodeHandle = uint64_t;

inline constexpr NodeHandle kInvalidHandle = ~uint64_t{0};

class StorageAdapter;

/// Node-test filter applied by a child scan inside the store, so the
/// evaluator does not pay a virtual IsElement/NameOf call pair per child.
enum class ChildFilter : uint8_t {
  kAll,       // every child
  kElements,  // element children only (wildcard step)
  kText,      // text children only (text() step)
  kTag,       // element children with a specific tag
};

/// Whether a node whose tag id is `tag` (xml::kInvalidName for text nodes)
/// passes `filter`, with `want` naming the kTag target. The single source
/// of truth for the filter semantics shared by every store's cursor scan
/// and the evaluator's node tests. Callers must not pass kTag with
/// `want == kInvalidName` (it would conflate text nodes with the missing
/// tag); cursor opens guard that case by producing an empty scan.
inline bool MatchesChildFilter(ChildFilter filter, xml::NameId tag,
                               xml::NameId want) {
  switch (filter) {
    case ChildFilter::kAll:
      return true;
    case ChildFilter::kElements:
      return tag != xml::kInvalidName;
    case ChildFilter::kText:
      return tag == xml::kInvalidName;
    case ChildFilter::kTag:
      return tag == want;
  }
  return false;
}

/// Scans the dense preorder ids [*pos, end) of a store whose tag of id `i`
/// is `tags[i]` (xml::kInvalidName for text nodes), writing up to `cap`
/// ids that pass `filter` into `out` in document order and advancing
/// `*pos`; returns the count. The one interval loop behind every
/// descendant cursor that walks such a column: the edge relation's id->tag
/// projection, the inlined mapping's tag array and the native document's
/// name column. The kTag and kText paths (every `//tag` step and every
/// string value) are branch-free: each id is written, and kept only when
/// its tag matches (xml::kInvalidName for kText).
inline size_t ScanIdInterval(const xml::NameId* tags, ChildFilter filter,
                             xml::NameId want, uint64_t* pos, uint64_t end,
                             NodeHandle* out, size_t cap) {
  uint64_t id = *pos;
  size_t n = 0;
  if (filter == ChildFilter::kTag || filter == ChildFilter::kText) {
    if (filter == ChildFilter::kText) want = xml::kInvalidName;
    while (n < cap && id < end) {
      // At most one id is kept per step, so `stop` cannot overrun `out`.
      const uint64_t stop = std::min<uint64_t>(end, id + (cap - n));
      for (; id < stop; ++id) {
        out[n] = id;
        n += tags[id] == want ? 1 : 0;
      }
    }
  } else {
    for (; n < cap && id < end; ++id) {
      if (MatchesChildFilter(filter, tags[id], want)) out[n++] = id;
    }
  }
  *pos = id;
  return n;
}

/// Reusable, allocation-free cursor over the (optionally filtered) children
/// of one node: the query layer's only way to a child step's nodes.
/// Opened through StorageAdapter::OpenChildCursor; each store interprets
/// the state words according to its physical layout (a clustered row
/// position for the edge table, a path-table slice for the fragmented
/// mapping, a DTD child slot or a sibling pointer for the inlined arrays, a
/// subtree-end hop for the native document). The evaluator drains it in
/// batches, paying one virtual call per batch instead of one per child.
class ChildCursor {
 public:
  /// Copies up to `cap` matching child handles into `out`; returns the
  /// number written. 0 signals exhaustion.
  inline size_t Fill(NodeHandle* out, size_t cap);

  /// Fills the header fields and zeroes the state words. Returns false
  /// when the scan is trivially empty — kTag with an unknown tag, which
  /// must not fall through to a tag comparison (text nodes' NameOf is
  /// also kInvalidName) — in which case the store leaves the cursor
  /// exhausted. Every OpenChildCursor implementation starts here.
  bool Init(const StorageAdapter* s, NodeHandle p, ChildFilter f,
            xml::NameId t) {
    store = s;
    parent = p;
    filter = f;
    tag = t;
    u0 = u1 = u2 = 0;
    return !(f == ChildFilter::kTag && t == xml::kInvalidName);
  }

  // --- cursor state, written by the owning store ------------------------
  const StorageAdapter* store = nullptr;
  NodeHandle parent = kInvalidHandle;
  ChildFilter filter = ChildFilter::kAll;
  xml::NameId tag = xml::kInvalidName;  // for ChildFilter::kTag
  // Store-interpreted words (row positions, slice bounds, sibling links).
  uint64_t u0 = 0;
  uint64_t u1 = 0;
  uint64_t u2 = 0;
};

/// Reusable, allocation-free cursor over the (optionally filtered)
/// descendants of one node, in document order, excluding the node itself.
/// Opened through StorageAdapter::OpenDescendantCursor, it is the query
/// layer's only way to a descendant step's nodes, fused FLWOR domains
/// and `count($v//tag)` emits included, and to a stored subtree: string
/// values (kText) and the serialization and copy walk (kAll). Every
/// store's handles are preorder ids, so a
/// subtree is the contiguous handle interval (base, subtree_end) and each
/// store scans whatever physical encoding of that interval it keeps: a
/// dense tag column (ScanIdInterval), the native store's tag-index slices,
/// or the fragmented mapping's path-table slices (its unfiltered and
/// element scans walk the subtree in preorder, merging child tables per
/// node). The evaluator drains it in batches on the calling thread.
class DescendantCursor {
 public:
  /// Copies up to `cap` matching descendant handles into `out` in document
  /// order; returns the number written. 0 signals exhaustion.
  inline size_t Fill(NodeHandle* out, size_t cap);

  /// Fills the header fields and zeroes the state words. Returns false for
  /// the trivially empty kTag-with-unknown-tag scan (same guard as
  /// ChildCursor::Init). Every OpenDescendantCursor implementation starts
  /// here.
  bool Init(const StorageAdapter* s, NodeHandle b, ChildFilter f,
            xml::NameId t) {
    store = s;
    base = b;
    filter = f;
    tag = t;
    u0 = u1 = u2 = 0;
    return !(f == ChildFilter::kTag && t == xml::kInvalidName);
  }

  // --- cursor state, written by the owning store ------------------------
  const StorageAdapter* store = nullptr;
  NodeHandle base = kInvalidHandle;
  ChildFilter filter = ChildFilter::kAll;
  xml::NameId tag = xml::kInvalidName;  // for ChildFilter::kTag
  // Store-interpreted words (id intervals, slice bounds, walk positions).
  uint64_t u0 = 0;
  uint64_t u1 = 0;
  uint64_t u2 = 0;
};

/// Non-owning reference to a callable `void(xml::NameId, std::string_view)`
/// that receives the attributes of one stored element (see
/// StorageAdapter::ForEachAttribute): the callable's address plus one
/// function pointer, so a visit allocates nothing. Build it from a lambda
/// in the call: the lambda must outlive the visit.
class AttributeVisitor {
 public:
  template <typename Fn,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<Fn>, AttributeVisitor>>>
  AttributeVisitor(Fn&& fn)  // NOLINT: implicit, like std::function
      : fn_(&fn), call_([](const void* f, xml::NameId name,
                           std::string_view value) {
          (*static_cast<const std::remove_reference_t<Fn>*>(f))(name, value);
        }) {}

  void operator()(xml::NameId name, std::string_view value) const {
    call_(fn_, name, value);
  }

 private:
  const void* fn_;
  void (*call_)(const void*, xml::NameId, std::string_view);
};

/// Plan-time advertisement of the index structures a store built. The
/// optimizer reads it once per query (an id probe for [@id = "lit"] steps
/// and id(), a path-table/summary probe for rooted child prefixes); every
/// other physical choice (path-table slices, DTD slots, tag-index slices,
/// dense id intervals) lives in the store's own cursors.
struct StorageCapabilities {
  bool id_lookup = false;   // NodeById
  bool path_index = false;  // PathExtent (structural summary)
};

/// Abstract physical XML mapping. The query evaluator is written entirely
/// against this interface; the systems of the paper's evaluation (A-G)
/// differ in how they implement it (edge table, fragmented tables,
/// DTD-inlined tables, native DOM with or without indexes), which is what
/// produces the performance contrasts of Tables 1-3.
///
/// Navigation must behave like the XPath data model over the loaded
/// document: elements and text nodes only (the benchmark document has no
/// other node kinds), attributes exposed through dedicated accessors.
///
/// One primitive per concern. A store implements NameOf, Parent, TextView,
/// ForEachAttribute, its child and descendant cursors (the only
/// navigation), the index probes and the accounting. The base class
/// derives the rest, non-virtually: IsElement from NameOf,
/// AppendStringValue from the kText descendant scan, VisitSubtree (the
/// walk behind serialization and DeepCopyNode) from the kAll scan, and
/// AttributeView from ForEachAttribute.
///
/// String access is zero-copy: every store keeps character data in a
/// contiguous heap it owns, so TextView, ForEachAttribute and
/// AttributeView hand out views valid for the store's lifetime.
class StorageAdapter {
 public:
  StorageAdapter() : uid_(NextStoreUid()) {}
  virtual ~StorageAdapter() = default;

  /// Process-unique, never-recycled identity of this store instance. Plan
  /// annotations record it and plan-cache entries are keyed by it: a raw
  /// `this` pointer can be recycled by the allocator after a store is
  /// destroyed, which would silently validate a plan's stale NameIds.
  uint64_t store_uid() const { return uid_; }

  /// Human-readable mapping name ("edge table", "native DOM", ...).
  virtual std::string_view mapping_name() const = 0;

  /// The name table used by this store's NameIds.
  virtual const xml::NameTable& names() const = 0;

  /// The document element.
  virtual NodeHandle Root() const = 0;

  /// Tag id for elements; xml::kInvalidName for text nodes.
  virtual xml::NameId NameOf(NodeHandle n) const = 0;
  bool IsElement(NodeHandle n) const { return NameOf(n) != xml::kInvalidName; }
  virtual NodeHandle Parent(NodeHandle n) const = 0;

  // --- Zero-copy string access ------------------------------------------

  /// Content of a text node as a view into the store's heap; valid for the
  /// lifetime of the store.
  virtual std::string_view TextView(NodeHandle n) const = 0;

  /// Appends the XPath string-value (concatenated descendant text) of `n`
  /// to `*out`, so callers can reuse one scratch buffer across nodes: a
  /// text node's content, or the text of an element's kText descendant
  /// scan in document order.
  void AppendStringValue(NodeHandle n, std::string* out) const {
    if (!IsElement(n)) {
      out->append(TextView(n));
      return;
    }
    DescendantCursor cur;
    OpenDescendantCursor(n, ChildFilter::kText, xml::kInvalidName, &cur);
    NodeHandle batch[kSubtreeBatch];
    for (size_t got; (got = cur.Fill(batch, kSubtreeBatch)) > 0;) {
      for (size_t i = 0; i < got; ++i) out->append(TextView(batch[i]));
    }
  }

  /// Calls `visit(name, value)` for every attribute of `n`, in document
  /// order, straight from the store's attribute rows: `name` is an id in
  /// names(), `value` a view into the store's heap.
  virtual void ForEachAttribute(NodeHandle n,
                                AttributeVisitor visit) const = 0;

  /// Value of the first attribute of `n` named `name` (an id in names(),
  /// which the plan resolves once), as a view into the store's heap;
  /// nullopt when there is none. kInvalidName matches no attribute.
  std::optional<std::string_view> AttributeView(NodeHandle n,
                                                xml::NameId name) const {
    std::optional<std::string_view> found;
    if (name == xml::kInvalidName) return found;
    ForEachAttribute(n, [&](xml::NameId a, std::string_view value) {
      if (a == name && !found.has_value()) found = value;
    });
    return found;
  }

  /// The preorder walk of the subtree rooted at `n` (n included), over
  /// the store's kAll descendant cursor: `open(element, tag)` on entering
  /// an element, `text(view)` for a text node, `close(tag)` on leaving an
  /// element. Open elements wait on a stack until a node arrives whose
  /// Parent is not on top, so no store navigates child by child.
  template <typename Open, typename Text, typename Close>
  void VisitSubtree(NodeHandle n, Open&& open, Text&& text,
                    Close&& close) const {
    const xml::NameId tag = NameOf(n);
    if (tag == xml::kInvalidName) {
      text(TextView(n));
      return;
    }
    struct OpenElement {
      NodeHandle node;
      xml::NameId tag;
    };
    // On this frame up to 32 levels, so a walk allocates nothing.
    alignas(OpenElement) std::byte stack_bytes[64 * sizeof(OpenElement)];
    std::pmr::monotonic_buffer_resource stack_mem(stack_bytes,
                                                  sizeof(stack_bytes));
    std::pmr::vector<OpenElement> stack({{n, tag}}, &stack_mem);
    open(n, tag);
    DescendantCursor cur;
    OpenDescendantCursor(n, ChildFilter::kAll, xml::kInvalidName, &cur);
    NodeHandle batch[kSubtreeBatch];
    for (size_t got; (got = cur.Fill(batch, kSubtreeBatch)) > 0;) {
      for (size_t i = 0; i < got; ++i) {
        const NodeHandle c = batch[i];
        // `n` is an ancestor of every node the cursor yields, so the
        // stack never empties here.
        for (const NodeHandle p = Parent(c); stack.back().node != p;
             stack.pop_back()) {
          close(stack.back().tag);
        }
        const xml::NameId c_tag = NameOf(c);
        if (c_tag == xml::kInvalidName) {
          text(TextView(c));
        } else {
          open(c, c_tag);
          stack.push_back({c, c_tag});
        }
      }
    }
    for (; !stack.empty(); stack.pop_back()) close(stack.back().tag);
  }

  // --- Batched child scans ----------------------------------------------

  /// Positions `cur` at the start of `parent`'s child list, restricted to
  /// `filter` (with `tag` naming the element tag for ChildFilter::kTag),
  /// over the store's physical layout.
  virtual void OpenChildCursor(NodeHandle parent, ChildFilter filter,
                               xml::NameId tag, ChildCursor* cur) const = 0;

  /// Advances `cur`, writing up to `cap` handles into `out`; returns the
  /// count (0 = exhausted). Called through ChildCursor::Fill.
  virtual size_t AdvanceChildCursor(ChildCursor* cur, NodeHandle* out,
                                    size_t cap) const = 0;

  // --- Batched descendant scans -----------------------------------------

  /// Positions `cur` at the start of `base`'s descendant set (excluding
  /// `base`), restricted to `filter`, over the store's physical layout.
  virtual void OpenDescendantCursor(NodeHandle base, ChildFilter filter,
                                    xml::NameId tag,
                                    DescendantCursor* cur) const = 0;

  /// Advances `cur`, writing up to `cap` handles into `out` in document
  /// order; returns the count (0 = exhausted). Called through
  /// DescendantCursor::Fill.
  virtual size_t AdvanceDescendantCursor(DescendantCursor* cur,
                                         NodeHandle* out,
                                         size_t cap) const = 0;

  // --- Index structures -------------------------------------------------

  /// What this store built (see StorageCapabilities); each store states it
  /// once, and plans snapshot it.
  virtual StorageCapabilities Capabilities() const = 0;

  /// Lookup of an element by its ID attribute value (capability
  /// id_lookup); kInvalidHandle when absent or without the index.
  virtual NodeHandle NodeById(std::string_view /*id*/) const {
    return kInvalidHandle;
  }

  /// Resolves an element name against the mapping's catalog during query
  /// compilation; returns the number of catalog entries inspected (the
  /// fragmented mapping adds its matches). For a
  /// monolithic mapping this is one dictionary probe, for a highly
  /// fragmented mapping it scans the table catalog — the effect Table 2
  /// reports as compilation-cost differences between systems A and B.
  virtual size_t ResolveName(std::string_view name) const {
    return names().Lookup(name) != xml::kInvalidName ? 1 : 0;
  }

  /// Structural summary (capability path_index): resolve a root-to-node
  /// child path to its extent without touching the document (System D's
  /// trick that makes Q6/Q7 "surprisingly fast").
  virtual std::optional<std::vector<NodeHandle>> PathExtent(
      const std::vector<xml::NameId>& /*path*/) const {
    return std::nullopt;
  }

  // --- Accounting --------------------------------------------------------

  /// Bytes of memory held by the mapping (Table 1's "database size").
  virtual size_t StorageBytes() const = 0;

  /// Number of catalog entries (tables/paths) the mapping exposes; drives
  /// the metadata-access cost during query compilation (Table 2).
  virtual size_t CatalogEntries() const = 0;

  /// Total node count of the mapping (elements + text nodes). The document
  /// catalog prefix-sums these into per-document global id ranges.
  virtual size_t NodeCount() const = 0;

  /// Deterministic full-state dump: byte-identical for any load thread
  /// count (the bulkload-determinism and catalog-ingest CI gates diff
  /// these). Every store implements it; the catalog concatenates them into
  /// per-document sections.
  virtual void DumpState(std::string* out) const = 0;

 private:
  // Handles per cursor batch of AppendStringValue and VisitSubtree.
  static constexpr size_t kSubtreeBatch = 64;

  static uint64_t NextStoreUid() {
    static std::atomic<uint64_t> counter{0};
    return ++counter;  // 0 stays reserved as "never resolved"
  }

  uint64_t uid_;
};

inline size_t ChildCursor::Fill(NodeHandle* out, size_t cap) {
  return store == nullptr ? 0 : store->AdvanceChildCursor(this, out, cap);
}

inline size_t DescendantCursor::Fill(NodeHandle* out, size_t cap) {
  return store == nullptr ? 0 : store->AdvanceDescendantCursor(this, out, cap);
}

}  // namespace xmark::query

#endif  // XMARK_QUERY_STORAGE_H_
