#ifndef XMARK_QUERY_VALUE_H_
#define XMARK_QUERY_VALUE_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <memory_resource>
#include <new>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "query/storage.h"
#include "util/status.h"

namespace xmark::query {

struct ConstructedNode;
class Item;
class NodeArena;
class Sequence;

/// Reference to a node inside a storage engine.
struct NodeRef {
  const StorageAdapter* store = nullptr;
  NodeHandle handle = kInvalidHandle;

  bool operator==(const NodeRef& other) const {
    return store == other.store && handle == other.handle;
  }
};

/// One attribute of a constructed element. Both views point into the
/// NodeArena that holds the element (or into static storage).
struct ConstructedAttribute {
  std::string_view name;
  std::string_view value;
};

/// Element or text node built by a query: constructor results (the
/// Q10/Q13/Q19 reconstructions) and, under copy_results, deep copies of
/// stored nodes. Every node lives in a NodeArena, the only code that can
/// create one or add a child to it. Its tag, text and attributes are views
/// into memory that arena owns, and its children own nothing either, so
/// the arena frees its nodes without destroying them one by one.
struct ConstructedNode {
  std::string_view tag;   // empty => text node
  std::string_view text;  // a text node's content
  std::pmr::vector<ConstructedAttribute> attributes;

  /// Text and nested constructed nodes (non-owning references: the tree's
  /// root item keeps the arena alive) and references to stored nodes.
  const std::pmr::vector<Item>& children() const { return children_; }

  /// Stable identity in creation order (see NodeArena): SortDedupNodes
  /// orders and dedups constructed items by it — never by shared_ptr
  /// identity, which arena aliasing pointers would break (two distinct
  /// control blocks can reference the same node).
  uint64_t node_id() const { return node_id_; }
  bool is_text() const { return tag.empty(); }

 private:
  friend class NodeArena;
  /// `children`/`attributes` storage comes from `mem`, the arena's block
  /// pool, so building a template instance allocates no single vector.
  ConstructedNode(std::pmr::memory_resource* mem, uint64_t id)
      : attributes(mem), children_(mem), node_id_(id) {}

  std::pmr::vector<Item> children_;
  uint64_t node_id_;
};

using ConstructedPtr = std::shared_ptr<const ConstructedNode>;

/// Per-run bump/pool allocator for constructed result trees (the Q10/Q13
/// reconstruction workload). ConstructedNodes are placement-allocated in
/// fixed-size blocks and text content is appended into shared character
/// blocks (stable addresses — blocks never move or shrink), so a template
/// instantiation costs zero individual node/control-block/string
/// allocations. Owned by the QueryPlan of the current run via shared_ptr;
/// every arena-backed ConstructedPtr aliases that shared_ptr, so results
/// keep the arena alive after the run (and across Evaluator destruction)
/// without per-node reference counts of their own. Nodes are only
/// reclaimed when the arena dies — discarded intermediate constructors
/// accumulate until the end of the run, which the benchmark queries (whose
/// constructed nodes are all result nodes) never notice.
///
/// One thread writes an arena: the thread that drives the run. Node ids
/// need no shared counter per node: an arena takes one range of
/// kIdsPerArena ids from a process-wide counter when it is created and
/// numbers its nodes from it, so ids order nodes by creation inside an
/// arena and arenas by creation.
class NodeArena {
 public:
  static constexpr uint64_t kIdsPerArena = uint64_t{1} << 32;

  NodeArena();
  NodeArena(const NodeArena&) = delete;
  NodeArena& operator=(const NodeArena&) = delete;

  /// Placement-allocates one node with empty views and no children; the
  /// pointer is stable for the arena's lifetime.
  ConstructedNode* AllocateNode();

  /// Copies `text` into the shared text buffer; the returned view is
  /// stable for the arena's lifetime.
  std::string_view InternText(std::string_view text);

  /// Whether `node` was allocated by this arena.
  bool Owns(const ConstructedNode& node) const {
    return node.node_id() - first_id_ < static_cast<uint64_t>(nodes_allocated_);
  }

  /// Reserves room for `count` more children of `parent`.
  void ReserveChildren(ConstructedNode* parent, size_t count) {
    parent->children_.reserve(parent->children_.size() + count);
  }

  /// Appends `child`, a node of this arena, to `parent`'s children.
  void AppendChild(ConstructedNode* parent, const ConstructedNode* child);

  /// Appends a node item — a stored node, or a constructed tree of this
  /// arena or of another — to `parent`'s children. A tree of another arena
  /// is kept alive by this arena; no child owns anything. Atomics are not
  /// children: the caller turns them into text nodes.
  void AppendChild(ConstructedNode* parent, Item child);

  int64_t nodes_allocated() const { return nodes_allocated_; }
  size_t text_bytes() const { return text_bytes_; }

 private:
  static constexpr size_t kNodesPerBlock = 64;
  static constexpr size_t kTextBlockBytes = size_t{1} << 16;

  struct NodeBlock {
    alignas(ConstructedNode) unsigned char
        storage[kNodesPerBlock * sizeof(ConstructedNode)];
    size_t used = 0;
  };

  /// Bump allocator over fixed 64 KiB blocks (deallocate is a no-op; the
  /// whole pool dies with the arena). Unlike monotonic_buffer_resource,
  /// block sizes never grow: every underlying allocation stays below
  /// glibc's mmap threshold, so freed blocks return to the allocator's
  /// free lists and the next run's arena reuses warm pages instead of
  /// faulting fresh mmap'd ones in (measurably dominant on the Q10 bench).
  class BlockResource final : public std::pmr::memory_resource {
   public:
    BlockResource() = default;

   private:
    void* do_allocate(size_t bytes, size_t alignment) override;
    void do_deallocate(void*, size_t, size_t) override {}
    bool do_is_equal(
        const std::pmr::memory_resource& other) const noexcept override {
      return this == &other;
    }

    std::vector<std::unique_ptr<char[]>> blocks_;
    size_t cap_ = 0;   // capacity of the current (last) block
    size_t used_ = 0;  // bytes used in the current block
  };

  // Backs every arena node's children/attributes vectors.
  BlockResource pool_;
  // Nodes are never destroyed one by one: a node owns no memory (its views
  // point into this arena, its children are non-owning references), so
  // the blocks are freed as they are.
  std::vector<std::unique_ptr<NodeBlock>> node_blocks_;
  // Owning pointers to the trees of other arenas that children reference.
  std::vector<ConstructedPtr> retained_;
  std::vector<std::unique_ptr<char[]>> text_blocks_;
  size_t text_cap_ = 0;   // capacity of the current (last) text block
  size_t text_used_ = 0;  // bytes used in the current text block
  const uint64_t first_id_;  // this arena's first node id
  int64_t nodes_allocated_ = 0;
  size_t text_bytes_ = 0;
};

/// One XQuery item: a stored node, a constructed node, or an atomic value.
class Item {
 public:
  Item() : value_(false) {}
  explicit Item(bool b) : value_(b) {}
  explicit Item(double d) : value_(d) {}
  explicit Item(std::string s) : value_(std::move(s)) {}
  explicit Item(NodeRef n) : value_(n) {}
  explicit Item(ConstructedPtr c) : value_(std::move(c)) {}

  bool is_node() const { return std::holds_alternative<NodeRef>(value_); }
  bool is_constructed() const {
    return std::holds_alternative<ConstructedPtr>(value_);
  }
  bool is_boolean() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const {
    return std::holds_alternative<std::string>(value_);
  }
  bool is_atomic() const { return !is_node() && !is_constructed(); }

  const NodeRef& node() const { return std::get<NodeRef>(value_); }
  const ConstructedPtr& constructed() const {
    return std::get<ConstructedPtr>(value_);
  }
  bool boolean() const { return std::get<bool>(value_); }
  double number() const { return std::get<double>(value_); }
  const std::string& string() const { return std::get<std::string>(value_); }

 private:
  std::variant<bool, double, std::string, NodeRef, ConstructedPtr> value_;
};

/// XQuery value: an ordered sequence of items.
///
/// Small-buffer-optimized vector: up to kInlineItems items live inside the
/// object, so the overwhelmingly common single-item sequences of the
/// generic Eval loop (one per FLWOR binding, predicate evaluation and
/// comparison operand) never touch the heap. The API is the subset of
/// std::vector the engine uses; iterators are plain Item pointers.
class Sequence {
 public:
  using value_type = Item;
  using iterator = Item*;
  using const_iterator = const Item*;

  static constexpr size_t kInlineItems = 2;

  Sequence() noexcept : data_(inline_ptr()) {}
  Sequence(std::initializer_list<Item> items) : data_(inline_ptr()) {
    reserve(items.size());
    for (const Item& item : items) emplace_back(item);
  }
  Sequence(const Sequence& other) : data_(inline_ptr()) {
    reserve(other.size_);
    for (size_t i = 0; i < other.size_; ++i) emplace_back(other.data_[i]);
  }
  Sequence(Sequence&& other) noexcept : data_(inline_ptr()) {
    MoveFrom(std::move(other));
  }
  Sequence& operator=(const Sequence& other) {
    if (this == &other) return *this;
    clear();
    reserve(other.size_);
    for (size_t i = 0; i < other.size_; ++i) emplace_back(other.data_[i]);
    return *this;
  }
  Sequence& operator=(Sequence&& other) noexcept {
    if (this == &other) return *this;
    Deallocate();
    data_ = inline_ptr();
    capacity_ = kInlineItems;
    size_ = 0;
    MoveFrom(std::move(other));
    return *this;
  }
  ~Sequence() { Deallocate(); }

  iterator begin() { return data_; }
  iterator end() { return data_ + size_; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }
  const_iterator cbegin() const { return data_; }
  const_iterator cend() const { return data_ + size_; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }
  Item* data() { return data_; }
  const Item* data() const { return data_; }

  Item& operator[](size_t i) { return data_[i]; }
  const Item& operator[](size_t i) const { return data_[i]; }
  Item& front() { return data_[0]; }
  const Item& front() const { return data_[0]; }
  Item& back() { return data_[size_ - 1]; }
  const Item& back() const { return data_[size_ - 1]; }

  void reserve(size_t cap) {
    if (cap > capacity_) Grow(cap);
  }

  void clear() {
    for (size_t i = 0; i < size_; ++i) data_[i].~Item();
    size_ = 0;
  }

  void push_back(const Item& item) { emplace_back(item); }
  void push_back(Item&& item) { emplace_back(std::move(item)); }

  template <typename... Args>
  Item& emplace_back(Args&&... args) {
    if (size_ == capacity_) Grow(capacity_ * 2);
    Item* slot = new (data_ + size_) Item(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void pop_back() {
    data_[--size_].~Item();
  }

  iterator erase(iterator first, iterator last) {
    const size_t removed = static_cast<size_t>(last - first);
    if (removed == 0) return first;
    for (Item* p = first; last != end(); ++p, ++last) *p = std::move(*last);
    for (size_t i = size_ - removed; i < size_; ++i) data_[i].~Item();
    size_ -= static_cast<uint32_t>(removed);
    return first;
  }

  /// Inserts [first, last) before `pos`. Accepts any forward/random-access
  /// iterator (including move_iterator); invalidates iterators on growth.
  template <typename It>
  iterator insert(const_iterator pos, It first, It last) {
    const size_t at = static_cast<size_t>(pos - data_);
    const size_t count = static_cast<size_t>(std::distance(first, last));
    if (count == 0) return data_ + at;
    if (size_ + count > capacity_) {
      size_t cap = capacity_;
      while (cap < size_ + count) cap *= 2;
      Grow(cap);
    }
    for (; first != last; ++first) {
      new (data_ + size_) Item(*first);
      ++size_;
    }
    if (at + count != size_) {
      std::rotate(data_ + at, data_ + size_ - count, data_ + size_);
    }
    return data_ + at;
  }

 private:
  Item* inline_ptr() { return reinterpret_cast<Item*>(inline_); }

  void MoveFrom(Sequence&& other) {
    if (other.data_ != other.inline_ptr()) {
      // Steal the heap allocation.
      data_ = other.data_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.data_ = other.inline_ptr();
      other.capacity_ = kInlineItems;
      other.size_ = 0;
      return;
    }
    for (size_t i = 0; i < other.size_; ++i) {
      new (data_ + i) Item(std::move(other.data_[i]));
      other.data_[i].~Item();
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  void Grow(size_t cap);

  void Deallocate() {
    clear();
    if (data_ != inline_ptr()) {
      ::operator delete(data_, std::align_val_t{alignof(Item)});
    }
  }

  Item* data_;
  uint32_t size_ = 0;
  uint32_t capacity_ = kInlineItems;
  alignas(Item) unsigned char inline_[kInlineItems * sizeof(Item)];
};

/// String-value of an item (node string-value, atomic lexical form).
std::string ItemStringValue(const Item& item);

/// Zero-copy string-value: returns a view of the item's string value.
/// Text nodes and string atomics yield views into store/item memory;
/// element string-values, constructed nodes and numbers are materialized
/// into `*scratch` (cleared first), letting callers reuse one buffer
/// across many items. When `materialized` is non-null it is set to whether
/// scratch was written.
std::string_view ItemStringView(const Item& item, std::string* scratch,
                                bool* materialized = nullptr);

/// Numeric value; nullopt when the lexical form is not a number.
std::optional<double> ItemNumberValue(const Item& item);

/// XQuery effective boolean value of a sequence. Errors on multi-item
/// atomic-only sequences are relaxed to "true if non-empty" — the queries
/// in the benchmark never rely on that error.
bool EffectiveBooleanValue(const Sequence& seq);

/// Serializes an item the way query results are printed: markup for nodes,
/// lexical form for atomics.
std::string SerializeItem(const Item& item);

/// Serializes a whole sequence, separating top-level atomics with spaces
/// and nodes with newlines. Streams every item into one caller-owned
/// buffer pre-reserved from EstimateSerializedSize — no per-item string
/// temporaries.
std::string SerializeSequence(const Sequence& seq);

/// Cheap size estimate for SerializeSequence's output, used to pre-reserve
/// the result buffer: exact-ish for atomics and text nodes, flat constants
/// for elements and constructed trees. A hint, not a bound.
size_t EstimateSerializedSize(const Sequence& seq);

/// String-value of a constructed node (concatenated text).
std::string ConstructedStringValue(const ConstructedNode& node);

/// Deep-copies a stored node into `arena` (copy_results: System G's copy
/// semantics, for holes and for the run's final result): tags, attributes
/// and text are interned there, so the copy outlives the store. Returns
/// the copy's root, which the caller links into a tree or wraps in an
/// owning ConstructedPtr.
ConstructedNode* DeepCopyNode(const NodeRef& ref, NodeArena& arena);

/// Sorts a node sequence into stable document order and removes duplicate
/// nodes. Stored nodes order by handle (preorder id in every store);
/// constructed nodes order by their `node_id()` (creation order inside an
/// arena, arenas in creation order) and sort after all stored nodes;
/// atomics compare equivalent to each other (their relative order is
/// preserved, and they are never deduplicated).
/// Identity, not shared_ptr equality, drives the dedup: two aliasing
/// ConstructedPtrs to the same arena node collapse into one.
void SortDedupNodes(Sequence* seq);

}  // namespace xmark::query

#endif  // XMARK_QUERY_VALUE_H_
