#include "query/value.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "query/exec_context.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace xmark::query {

// ---------------------------------------------------------------------------
// NodeArena
// ---------------------------------------------------------------------------

namespace {

// Arenas in creation order: arena k owns the node ids
// [(k + 1) * kIdsPerArena, (k + 2) * kIdsPerArena).
std::atomic<uint64_t> g_arenas_created{0};

}  // namespace

NodeArena::NodeArena()
    : first_id_((g_arenas_created.fetch_add(1, std::memory_order_relaxed) +
                 1) *
                kIdsPerArena) {}

void* NodeArena::BlockResource::do_allocate(size_t bytes, size_t alignment) {
  size_t at = (used_ + alignment - 1) & ~(alignment - 1);
  if (at + bytes > cap_ || blocks_.empty()) {
    // Oversized requests get a dedicated block; everything else bumps
    // through fixed 64 KiB blocks (operator new char[] is aligned to
    // __STDCPP_DEFAULT_NEW_ALIGNMENT__, enough for any Item/pair).
    cap_ = std::max(kTextBlockBytes, bytes + alignment);
    ChargeThreadMemoryBudget(cap_);
    blocks_.push_back(std::make_unique_for_overwrite<char[]>(cap_));
    used_ = 0;
    at = 0;
    void* p = blocks_.back().get();
    size_t space = cap_;
    std::align(alignment, bytes, p, space);
    at = static_cast<size_t>(static_cast<char*>(p) - blocks_.back().get());
  }
  used_ = at + bytes;
  return blocks_.back().get() + at;
}

ConstructedNode* NodeArena::AllocateNode() {
  if (node_blocks_.empty() || node_blocks_.back()->used == kNodesPerBlock) {
    XMARK_CHECK(static_cast<uint64_t>(nodes_allocated_) + kNodesPerBlock <=
                kIdsPerArena);
    ChargeThreadMemoryBudget(sizeof(NodeBlock));
    node_blocks_.push_back(std::make_unique<NodeBlock>());
  }
  NodeBlock& block = *node_blocks_.back();
  ConstructedNode* node =
      new (block.storage + block.used * sizeof(ConstructedNode))
          ConstructedNode(&pool_, first_id_ + nodes_allocated_);
  ++block.used;
  ++nodes_allocated_;
  return node;
}

namespace {

// Non-owning ConstructedPtr for an interior edge of an arena tree: the
// tree's root item aliases the arena's shared_ptr and keeps it alive, so a
// per-child refcount would be pure overhead (two atomic RMWs per node),
// and an owning pointer stored inside an arena node would cycle the
// arena's refcount and leak it.
ConstructedPtr InteriorRef(const ConstructedNode* node) {
  return ConstructedPtr(ConstructedPtr(), node);
}

}  // namespace

void NodeArena::AppendChild(ConstructedNode* parent,
                            const ConstructedNode* child) {
  XMARK_DCHECK(Owns(*child));
  parent->children_.emplace_back(InteriorRef(child));
}

void NodeArena::AppendChild(ConstructedNode* parent, Item child) {
  XMARK_CHECK(!child.is_atomic());
  if (child.is_constructed()) {
    if (!Owns(*child.constructed())) retained_.push_back(child.constructed());
    child = Item(InteriorRef(child.constructed().get()));
  }
  parent->children_.push_back(std::move(child));
}

std::string_view NodeArena::InternText(std::string_view text) {
  if (text.empty()) return std::string_view("", 0);
  if (text_used_ + text.size() > text_cap_) {
    text_cap_ = std::max(kTextBlockBytes, text.size());
    ChargeThreadMemoryBudget(text_cap_);
    text_blocks_.push_back(std::make_unique_for_overwrite<char[]>(text_cap_));
    text_used_ = 0;
  }
  char* dst = text_blocks_.back().get() + text_used_;
  std::memcpy(dst, text.data(), text.size());
  text_used_ += text.size();
  text_bytes_ += text.size();
  return std::string_view(dst, text.size());
}

namespace {

void AppendAttribute(std::string_view name, std::string_view value,
                     std::string& out) {
  out.push_back(' ');
  out.append(name);
  out.append("=\"");
  AppendXmlEscaped(out, value);
  out.push_back('"');
}

// Writes a stored subtree's markup from the one subtree walk, through views
// only. A start tag stays open (`<tag attrs`) until a child arrives, so a
// childless element closes as `/>`.
void SerializeStoredNode(const StorageAdapter& store, NodeHandle n,
                         std::string& out) {
  const xml::NameTable& names = store.names();
  bool start_tag_open = false;
  const auto end_start_tag = [&] {
    if (start_tag_open) out.push_back('>');
    start_tag_open = false;
  };
  store.VisitSubtree(
      n,
      [&](NodeHandle element, xml::NameId tag) {
        end_start_tag();
        out.push_back('<');
        out.append(names.Spelling(tag));
        store.ForEachAttribute(
            element, [&](xml::NameId name, std::string_view value) {
              AppendAttribute(names.Spelling(name), value, out);
            });
        start_tag_open = true;
      },
      [&](std::string_view text) {
        end_start_tag();
        AppendXmlEscaped(out, text);
      },
      [&](xml::NameId tag) {
        if (start_tag_open) {
          out.append("/>");
        } else {
          out.append("</").append(names.Spelling(tag)).push_back('>');
        }
        start_tag_open = false;
      });
}

void SerializeConstructed(const ConstructedNode& node, std::string& out) {
  if (node.is_text()) {
    AppendXmlEscaped(out, node.text);
    return;
  }
  out.push_back('<');
  out.append(node.tag);
  for (const ConstructedAttribute& attr : node.attributes) {
    AppendAttribute(attr.name, attr.value, out);
  }
  if (node.children().empty()) {
    out.append("/>");
    return;
  }
  out.push_back('>');
  for (const Item& child : node.children()) {
    if (child.is_node()) {
      SerializeStoredNode(*child.node().store, child.node().handle, out);
    } else {
      SerializeConstructed(*child.constructed(), out);
    }
  }
  out.append("</");
  out.append(node.tag);
  out.push_back('>');
}

void AppendConstructedStringValue(const ConstructedNode& node,
                                  std::string& out) {
  if (node.is_text()) {
    out.append(node.text);
    return;
  }
  for (const Item& child : node.children()) {
    if (child.is_constructed()) {
      AppendConstructedStringValue(*child.constructed(), out);
    } else {
      out.append(ItemStringValue(child));
    }
  }
}

}  // namespace

void Sequence::Grow(size_t cap) {
  if (cap < kInlineItems * 2) cap = kInlineItems * 2;
  ChargeThreadMemoryBudget(cap * sizeof(Item));
  Item* heap = static_cast<Item*>(::operator new(
      cap * sizeof(Item), std::align_val_t{alignof(Item)}));
  for (size_t i = 0; i < size_; ++i) {
    new (heap + i) Item(std::move(data_[i]));
    data_[i].~Item();
  }
  if (data_ != inline_ptr()) {
    ::operator delete(data_, std::align_val_t{alignof(Item)});
  }
  data_ = heap;
  capacity_ = static_cast<uint32_t>(cap);
}

std::string ConstructedStringValue(const ConstructedNode& node) {
  std::string out;
  AppendConstructedStringValue(node, out);
  return out;
}

std::string ItemStringValue(const Item& item) {
  if (item.is_node()) {
    std::string out;
    item.node().store->AppendStringValue(item.node().handle, &out);
    return out;
  }
  if (item.is_constructed()) return ConstructedStringValue(*item.constructed());
  if (item.is_boolean()) return item.boolean() ? "true" : "false";
  if (item.is_number()) return FormatDouble(item.number());
  return item.string();
}

std::string_view ItemStringView(const Item& item, std::string* scratch,
                                bool* materialized) {
  if (materialized != nullptr) *materialized = false;
  if (item.is_node()) {
    const StorageAdapter& store = *item.node().store;
    if (!store.IsElement(item.node().handle)) {
      return store.TextView(item.node().handle);
    }
    scratch->clear();
    store.AppendStringValue(item.node().handle, scratch);
    if (materialized != nullptr) *materialized = true;
    return *scratch;
  }
  if (item.is_string()) return item.string();
  if (item.is_boolean()) return item.boolean() ? "true" : "false";
  if (materialized != nullptr) *materialized = true;
  if (item.is_constructed()) {
    scratch->clear();
    AppendConstructedStringValue(*item.constructed(), *scratch);
    return *scratch;
  }
  *scratch = FormatDouble(item.number());
  return *scratch;
}

std::optional<double> ItemNumberValue(const Item& item) {
  if (item.is_number()) return item.number();
  if (item.is_boolean()) return item.boolean() ? 1.0 : 0.0;
  // View-based: text nodes and string atomics parse without allocating.
  std::string scratch;
  return ParseDouble(ItemStringView(item, &scratch));
}

bool EffectiveBooleanValue(const Sequence& seq) {
  if (seq.empty()) return false;
  const Item& first = seq.front();
  if (first.is_node() || first.is_constructed()) return true;
  if (seq.size() > 1) return true;  // relaxed (see header)
  if (first.is_boolean()) return first.boolean();
  if (first.is_number()) {
    return first.number() != 0.0 && !std::isnan(first.number());
  }
  return !first.string().empty();
}

namespace {

// Streaming serializer core: every item kind appends straight into the
// caller-owned buffer — no per-item std::string temporary.
void AppendSerializedItem(const Item& item, std::string& out) {
  if (item.is_node()) {
    SerializeStoredNode(*item.node().store, item.node().handle, out);
    return;
  }
  if (item.is_constructed()) {
    SerializeConstructed(*item.constructed(), out);
    return;
  }
  if (item.is_string()) {
    out.append(item.string());
    return;
  }
  if (item.is_boolean()) {
    out.append(item.boolean() ? "true" : "false");
    return;
  }
  out.append(FormatDouble(item.number()));
}

}  // namespace

std::string SerializeItem(const Item& item) {
  std::string out;
  AppendSerializedItem(item, out);
  return out;
}

ConstructedNode* DeepCopyNode(const NodeRef& ref, NodeArena& arena) {
  // The one subtree walk allocates each node in preorder and appends it to
  // the copy of the innermost open element.
  const StorageAdapter& store = *ref.store;
  const xml::NameTable& names = store.names();
  ConstructedNode* root = nullptr;
  std::vector<ConstructedNode*> open;
  const auto add = [&] {
    ConstructedNode* node = arena.AllocateNode();
    if (!open.empty()) arena.AppendChild(open.back(), node);
    if (root == nullptr) root = node;
    return node;
  };
  store.VisitSubtree(
      ref.handle,
      [&](NodeHandle element, xml::NameId tag) {
        ConstructedNode* node = add();
        node->tag = arena.InternText(names.Spelling(tag));
        store.ForEachAttribute(
            element, [&](xml::NameId name, std::string_view value) {
              node->attributes.push_back(
                  {arena.InternText(names.Spelling(name)),
                   arena.InternText(value)});
            });
        open.push_back(node);
      },
      [&](std::string_view text) { add()->text = arena.InternText(text); },
      [&](xml::NameId) { open.pop_back(); });
  return root;
}

namespace {

// Total order over sequence items for SortDedupNodes: stored nodes first
// (by preorder handle), then constructed nodes (by node_id: creation order
// inside an arena, arenas in creation order), then atomics (all
// equivalent — relative order preserved by the stable sort). A genuine
// strict weak ordering, unlike comparing only node pairs, which violates
// transitivity of incomparability on mixed sequences.
std::pair<int, uint64_t> DocOrderKey(const Item& item) {
  if (item.is_node()) return {0, item.node().handle};
  if (item.is_constructed()) return {1, item.constructed()->node_id()};
  return {2, 0};
}

// Identity equality for the dedup pass: atomics are never duplicates;
// constructed nodes compare by stable node_id, not shared_ptr identity
// (aliasing arena pointers have distinct control blocks for one node).
bool SameNodeIdentity(const Item& a, const Item& b) {
  if (a.is_node() && b.is_node()) return a.node() == b.node();
  if (a.is_constructed() && b.is_constructed()) {
    return a.constructed()->node_id() == b.constructed()->node_id();
  }
  return false;
}

}  // namespace

void SortDedupNodes(Sequence* seq) {
  // Fast path: cursor-backed steps already emit strictly increasing
  // document order, so one scan usually replaces the sort + unique pass.
  bool sorted_unique = true;
  for (size_t i = 1; i < seq->size(); ++i) {
    const Item& a = (*seq)[i - 1];
    const Item& b = (*seq)[i];
    if (!a.is_node() || !b.is_node() ||
        !(a.node().handle < b.node().handle)) {
      sorted_unique = false;
      break;
    }
  }
  if (sorted_unique) return;
  std::stable_sort(seq->begin(), seq->end(),
                   [](const Item& a, const Item& b) {
                     return DocOrderKey(a) < DocOrderKey(b);
                   });
  seq->erase(std::unique(seq->begin(), seq->end(), SameNodeIdentity),
             seq->end());
}

size_t EstimateSerializedSize(const Sequence& seq) {
  size_t est = seq.size();  // one separator per item
  for (size_t i = 0; i < seq.size(); ++i) {
    const Item& item = seq[i];
    if (item.is_string()) {
      // Escape expansion worst case is 6x ("&quot;"); 2x covers real text.
      est += 2 * item.string().size() + 1;
    } else if (item.is_boolean()) {
      est += 5;
    } else if (item.is_number()) {
      est += 24;
    } else if (item.is_node()) {
      const NodeRef& ref = item.node();
      if (!ref.store->IsElement(ref.handle)) {
        est += 2 * ref.store->TextView(ref.handle).size() + 1;
      } else {
        est += 64;
      }
    } else {
      est += 64;  // constructed: flat guess, trees are query-built & small
    }
  }
  return est;
}

std::string SerializeSequence(const Sequence& seq) {
  std::string out;
  out.reserve(EstimateSerializedSize(seq));
  bool prev_atomic = false;
  for (size_t i = 0; i < seq.size(); ++i) {
    const bool atomic = seq[i].is_atomic();
    if (i > 0) out.push_back((atomic && prev_atomic) ? ' ' : '\n');
    AppendSerializedItem(seq[i], out);
    prev_atomic = atomic;
  }
  return out;
}

}  // namespace xmark::query
