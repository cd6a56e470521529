// Physical operator layer: pull-time execution of planned decisions.
//
// Layer contract: operators here run WITHIN one Evaluator::Run, on the
// thread that calls it, and only execute what the plan layer already
// decided — a NodeScan or ChildPathWalker never chooses a physical access
// (it drains the store's own cursor, and the store decides how to answer
// it), ConstructExec never analyzes constructor structure (it instantiates
// a ConstructPlan), the join operators never detect join shapes (they
// Build from a HashJoinPlan/BandJoinPlan). Runtime adaptivity is limited
// to the safety fallback the plan explicitly allows (an invalid band
// domain). Operators evaluate subexpressions only through the EvalFn
// callback, so this layer never depends on the Evaluator class.
//
// Cache ownership rule: operator instances that carry per-run state
// (HashJoinExec tables, BandJoinIndex domains, ConstructExec's arena and
// interned constant strings) are owned by the QueryPlan of the current
// run — never by the Evaluator, never static — so state cannot leak
// across runs or documents. NodeScan and ChildPathWalker instances are
// transient (stack-owned by the evaluator loop) and hold no cross-run
// state.

#ifndef XMARK_QUERY_EXEC_H_
#define XMARK_QUERY_EXEC_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "query/ast.h"
#include "query/exec_context.h"
#include "query/plan.h"
#include "query/storage.h"
#include "query/value.h"
#include "util/status.h"
#include "util/string_util.h"

namespace xmark::query {

// ---------------------------------------------------------------------------
// Execution state
// ---------------------------------------------------------------------------

/// Dynamic focus of a predicate/step evaluation (context item, position()
/// and last()).
struct Focus {
  Item item;
  int64_t position = 1;
  int64_t size = 1;
};

/// Slot-indexed variable frame: the parser interned every variable name of
/// the query into a dense slot space at compile time, so binding and
/// lookup are vector indexing instead of a linear string-keyed search over a
/// binding stack. Shadowing (nested FLWORs, UDF recursion) is handled by
/// saving the previous slot content on a side stack and restoring it on Pop.
struct Environment {
  struct Binding {
    Sequence value;
    const AstNode* lazy_expr = nullptr;  // unevaluated `let`
    /// Non-null: count-only band-join binding. count($var) probes the
    /// sorted band domain instead of materializing the inner loop;
    /// `lazy_expr` stays set so any other use falls back to the generic
    /// nested-loop materialization.
    const BandJoinPlan* band = nullptr;
    int64_t band_count = -1;  // cached probe result (-1 = not probed)
    bool evaluated = false;
    bool bound = false;
  };
  std::vector<Binding> slots;
  std::vector<std::pair<int, Binding>> saved;  // LIFO scope-restore stack

  explicit Environment(size_t slot_count) : slots(slot_count) {}

  void Push(int slot, Sequence value) {
    saved.emplace_back(slot, std::move(slots[slot]));
    Binding& b = slots[slot];
    b.value = std::move(value);
    b.lazy_expr = nullptr;
    b.band = nullptr;
    b.band_count = -1;
    b.evaluated = true;
    b.bound = true;
  }
  void PushLazy(int slot, const AstNode* expr) {
    saved.emplace_back(slot, std::move(slots[slot]));
    Binding& b = slots[slot];
    b.value.clear();
    b.lazy_expr = expr;
    b.band = nullptr;
    b.band_count = -1;
    b.evaluated = false;
    b.bound = true;
  }
  void PushBand(int slot, const AstNode* expr, const BandJoinPlan* band) {
    PushLazy(slot, expr);
    slots[slot].band = band;
  }
  void Pop() {
    auto& [slot, binding] = saved.back();
    slots[slot] = std::move(binding);
    saved.pop_back();
  }

  Binding* Find(int slot) {
    if (slot < 0 || static_cast<size_t>(slot) >= slots.size() ||
        !slots[slot].bound) {
      return nullptr;
    }
    return &slots[slot];
  }
};

/// Callback into the expression evaluator; physical operators use it to
/// evaluate key/domain subexpressions without depending on the Evaluator
/// class.
using EvalFn =
    std::function<StatusOr<Sequence>(const AstNode&, Environment&,
                                     const Focus*)>;

// ---------------------------------------------------------------------------
// NodeScan: batch-pull scan over one store cursor
// ---------------------------------------------------------------------------

/// Physical operator producing the nodes a child or descendant step
/// selects from one base node: it drains the store's cursor for the axis
/// in batches. One NodeScan instance is reused across the input sequence
/// of a step.
class NodeScan {
 public:
  /// Positions the scan on the children (Axis::kChild) or descendants
  /// (Axis::kDescendant) of `base` that pass `filter`.
  void Open(const StorageAdapter* store, NodeHandle base, Axis axis,
            ChildFilter filter, xml::NameId tag, EvalStats* stats);

  /// Copies up to `cap` matching handles into `out` in document order;
  /// returns the number written. 0 signals exhaustion. Every non-empty
  /// batch counts toward EvalStats::virtual_batches — the generic-path
  /// denominator of the compiled-pipeline fusion ratio.
  size_t Fill(NodeHandle* out, size_t cap);

 private:
  EvalStats* stats_ = nullptr;
  bool descendant_ = false;
  ChildCursor child_cursor_;
  DescendantCursor descendant_cursor_;
};

// ---------------------------------------------------------------------------
// ChildPathWalker: the child-path kernel
// ---------------------------------------------------------------------------

/// One item a child chain selects: a node (kNodes / kText terminals), or
/// for kAttribute the attribute's value on element `node`.
struct ChildPathHit {
  NodeHandle node = kInvalidHandle;
  std::string_view attribute;
};

/// String value of a hit, as the generic comparison reads it: the
/// attribute value, a text node's content (both views into the store), or
/// an element's string value materialized into `*scratch`.
std::string_view ChildPathValue(const StorageAdapter* store,
                                const ChildPath& path, const ChildPathHit& hit,
                                std::string* scratch);

/// `cmp` (a three-way comparison result) read through comparison `op`.
bool CompareResult(int cmp, BinaryOp op);

/// The start items of a kernel walk of `chain`, as [*begin, *end): the
/// evaluated binding of its variable, or the focus item of a relative
/// chain. False when the chain must take the generic path instead: no
/// focus, an unbound variable or an unevaluated let (the generic path
/// materializes it), or a constructed start item, whose navigation error
/// the generic path raises. The range aliases the binding: walk it before
/// anything rebinds the variable.
bool ChainStartItems(const ChildPath& chain, Environment& env,
                     const Focus* focus, const Item** begin,
                     const Item** end);

/// The child-path kernel: walks one ChildPath (see query/plan.h) from
/// start nodes and hands each selected item to a visitor, in the generic
/// evaluator's order — a depth-first walk over nested child scans, which
/// for child steps equals the step-by-step concatenation. Each level
/// drains the store's tag-filtered child cursor, like NodeScan; a text()
/// terminal is a text-filtered cursor. A positional level (`[k]`,
/// `[last()]`) reads its cursor only up to the child it keeps and descends
/// into that one, which is what the generic predicate keeps of each
/// parent's group. No Sequence and no per-node Item or string is built,
/// and the visitor stops the walk whenever it has its answer.
/// One governance check per child batch when `ctx` is set. A walker holds
/// no per-walk state beyond its status, so walks may nest freely.
class ChildPathWalker {
 public:
  ChildPathWalker(const StorageAdapter* store, const ChildPath& path,
                  EvalStats* stats, ExecContext* ctx)
      : store_(store),
        path_(path),
        stats_(stats),
        ctx_(ctx),
        levels_(path.steps.size() +
                (path.terminal == ChildPath::Terminal::kText ? 1 : 0)) {}

  /// Calls `visit(const ChildPathHit&)` on every item the chain selects
  /// from `start`, in document order, until it returns true. Returns
  /// whether the walk stopped early: on the visitor's request, or on a
  /// failed governance check (then status() is not OK).
  template <typename Visit>
  bool Walk(NodeHandle start, Visit&& visit) {
    return !path_.absent && Descend(0, start, visit);
  }
  /// The same over the stored nodes among the start items [begin, end).
  /// Atomics have no children and are skipped; callers route constructed
  /// start items to the generic path, which raises their navigation error.
  template <typename Visit>
  bool Walk(const Item* begin, const Item* end, Visit&& visit) {
    for (const Item* item = begin; item != end; ++item) {
      if (item->is_node() && Walk(item->node().handle, visit)) return true;
    }
    return false;
  }
  const Status& status() const { return status_; }

 private:
  static constexpr size_t kBatch = 16;

  /// Opens the child cursor of level `depth` (a tag-filtered cursor, or
  /// the text-filtered one of a text() terminal) under `parent`. In
  /// query/exec.cc: the one place in query/ that opens child cursors.
  void Open(size_t depth, NodeHandle parent, ChildCursor* cursor) const;

  template <typename Visit>
  bool Descend(size_t depth, NodeHandle node, Visit& visit) {
    if (depth == levels_) {
      ChildPathHit hit;
      hit.node = node;
      if (path_.terminal == ChildPath::Terminal::kAttribute) {
        const std::optional<std::string_view> value =
            store_->AttributeView(node, path_.attribute);
        if (!value.has_value()) return false;
        hit.attribute = *value;
      }
      return visit(static_cast<const ChildPathHit&>(hit));
    }
    ChildCursor cursor;
    Open(depth, node, &cursor);
    NodeHandle buf[kBatch];
    size_t n;
    const int32_t position = depth < path_.steps.size()
                                 ? path_.steps[depth].position
                                 : ChildPath::Step::kAll;
    if (position == ChildPath::Step::kAll) {
      while ((n = cursor.Fill(buf, kBatch)) > 0) {
        if (Visited(n)) return true;
        for (size_t i = 0; i < n; ++i) {
          if (Descend(depth + 1, buf[i], visit)) return true;
        }
      }
      return false;
    }
    // A positional level keeps one child of `node`: the k-th or the last.
    NodeHandle kept = kInvalidHandle;
    size_t before = 0;  // children in the batches already read
    while ((n = cursor.Fill(buf, kBatch)) > 0) {
      if (Visited(n)) return true;
      if (position == ChildPath::Step::kLast) {
        kept = buf[n - 1];
      } else if (before + n >= static_cast<size_t>(position)) {
        kept = buf[static_cast<size_t>(position) - before - 1];
        break;
      } else {
        before += n;
      }
    }
    return kept != kInvalidHandle && Descend(depth + 1, kept, visit);
  }

  /// Books a batch of `n` nodes read and runs the governance check; true
  /// when the check failed (status() holds why).
  bool Visited(size_t n) {
    stats_->nodes_visited += static_cast<int64_t>(n);
    if (ctx_ != nullptr) {
      status_ = ctx_->Check();
      if (!status_.ok()) return true;
    }
    return false;
  }

  const StorageAdapter* store_;
  const ChildPath& path_;
  EvalStats* stats_;
  ExecContext* ctx_;
  size_t levels_;  // name steps, plus one for a text() terminal
  Status status_;
};

/// Walks `chain` from its start items (ChainStartItems), calling
/// `visit(const ChildPathHit&)` on each selected item until it returns
/// true. nullopt, with nothing walked, when the chain must take the
/// generic path; else whether the walk stopped early.
template <typename Visit>
StatusOr<std::optional<bool>> WalkChain(const StorageAdapter* store,
                                        const ChildPath& chain,
                                        Environment& env, const Focus* focus,
                                        EvalStats* stats, ExecContext* ctx,
                                        Visit&& visit) {
  const Item* begin;
  const Item* end;
  if (!ChainStartItems(chain, env, focus, &begin, &end)) {
    return std::optional<bool>();
  }
  ChildPathWalker walker(store, chain, stats, ctx);
  const bool stopped = walker.Walk(begin, end, visit);
  XMARK_RETURN_IF_ERROR(walker.status());
  return std::optional<bool>(stopped);
}

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

/// Built hash-join table for one decorrelated FLWOR: the invariant inner
/// bindings plus a transparent-hash index from key string to binding rows.
/// Owned by the QueryPlan of the current run.
class HashJoinExec {
 public:
  /// Evaluates the invariant domain and indexes every binding by its inner
  /// key string(s).
  Status Build(const HashJoinPlan& plan, size_t slot_count,
               const EvalFn& eval, EvalStats* stats);

  /// Appends the distinct binding rows whose key equals `key`, in build
  /// order, to `*rows`.
  void Probe(std::string_view key, std::vector<size_t>* rows) const;

  const Sequence& bindings() const { return bindings_; }

 private:
  Sequence bindings_;
  // Transparent hash/eq: probes pass the key as a string_view straight out
  // of the store heap, so no per-probe std::string is built.
  std::unordered_multimap<std::string, size_t, TransparentStringHash,
                          std::equal_to<>>
      index_;
};

// ---------------------------------------------------------------------------
// Sort-merge band join
// ---------------------------------------------------------------------------

/// Built band-join domain: the numeric keys of the invariant inner side,
/// sorted ascending. A probe answers `count of domain items matching
/// (v OP key)` with one binary search — the sort + sweep that replaces the
/// Q11/Q12 O(n*m) nested loop. Owned by the QueryPlan of the current run.
class BandJoinIndex {
 public:
  /// Evaluates the domain and the numeric inner side per binding. When any
  /// binding's inner side fails to evaluate or yields a non-number, the
  /// index is marked invalid and the caller falls back to the nested loop
  /// (which reproduces the interpreter's behavior, including its errors).
  Status Build(const BandJoinPlan& plan, size_t slot_count,
               const EvalFn& eval, EvalStats* stats);

  bool valid() const { return valid_; }
  size_t domain_size() const { return keys_.size(); }
  /// Domain cardinality before unmatchable items were dropped. 0 means
  /// the interpreter would never have evaluated the predicate at all.
  size_t raw_domain_size() const { return raw_domain_size_; }

  /// Number of domain items whose key satisfies `probe OP key`, where OP
  /// is the plan's comparison with the outer value on the left.
  int64_t ProbeCount(double probe, BinaryOp op) const;

 private:
  bool valid_ = false;
  size_t raw_domain_size_ = 0;
  std::vector<double> keys_;  // sorted ascending; unmatchable items omitted
};

/// Numeric value of an item under the evaluator's untyped comparison rules
/// (numbers pass through, booleans become 0/1, everything else parses its
/// string value; nullopt when the lexical form is not a number). Shared by
/// the band-join probe and build so both sides cast identically.
std::optional<double> BandNumericValue(const Item& item,
                                       std::string* scratch);

// ---------------------------------------------------------------------------
// Arena-backed result construction
// ---------------------------------------------------------------------------

/// Instantiates ConstructPlan templates into the per-run NodeArena: one
/// batch of block-allocated nodes per instantiation, the template's
/// constant strings (tags, constant attributes, text segments) interned
/// into the arena once per run and shared by every instantiation, dynamic
/// text and attribute values appended into the arena's shared buffer.
/// Holes and attribute value parts that carry a child chain are walked on
/// the child-path kernel straight into the arena; the rest are evaluated
/// through `eval`. Every produced ConstructedPtr aliases the arena's
/// shared_ptr, so results stay valid for as long as anything references
/// them, without a per-node control block. Owned by the QueryPlan of the
/// current run, and used only by the thread that drives the run.
class ConstructExec {
 public:
  /// `store`, `stats` and `ctx` (may be null) are the run's, for the
  /// kernel walks.
  ConstructExec(std::shared_ptr<NodeArena> arena, const StorageAdapter* store,
                EvalStats* stats, ExecContext* ctx)
      : arena_(std::move(arena)), store_(store), stats_(stats), ctx_(ctx) {}

  /// Builds one instance of `plan` under the given bindings/focus.
  /// `copy_results` mirrors EvaluatorOptions::copy_results: stored nodes
  /// produced by holes are deep-copied into constructed trees.
  StatusOr<Item> Instantiate(const ConstructPlan& plan, Environment& env,
                             const Focus* focus, const EvalFn& eval,
                             bool copy_results);

  /// Deep-copies a stored node into the arena (copy_results).
  Item Copy(const NodeRef& ref) {
    return Item(ConstructedPtr(arena_, DeepCopyNode(ref, *arena_)));
  }

  const NodeArena& arena() const { return *arena_; }

 private:
  /// One template's constant strings, interned into this run's arena.
  struct Interned {
    struct Element {
      std::string_view tag;
      /// By ConstructPlan::Element::attrs index; a dynamic attribute's
      /// value is empty here and built per instance.
      std::vector<ConstructedAttribute> attrs;
    };
    std::vector<Element> elements;     // by ConstructPlan::elements index
    std::vector<std::string_view> texts;  // by const_texts index
  };

  StatusOr<ConstructedNode*> BuildElement(const ConstructPlan& plan,
                                          size_t element_index,
                                          const Interned& interned,
                                          Environment& env, const Focus* focus,
                                          const EvalFn& eval,
                                          bool copy_results);
  /// Appends to `node` what hole `chain` selects, as the generic path
  /// appends the hole's Sequence: stored nodes (deep copies under
  /// `copy_results`), or attribute values as text nodes separated by
  /// single spaces; `remaining` static slots follow the hole. False, with
  /// nothing appended, when the chain must take the generic path (see
  /// ChainStartItems).
  StatusOr<bool> WalkHole(const ChildPath& chain, Environment& env,
                          const Focus* focus, ConstructedNode* node,
                          size_t remaining, bool copy_results);
  ConstructedNode* NewTextNode(std::string_view interned_text);
  /// The template's constant strings, interned into the arena on first use
  /// of the template this run.
  const Interned& Intern(const ConstructPlan& plan);

  std::shared_ptr<NodeArena> arena_;
  const StorageAdapter* store_;
  EvalStats* stats_;
  ExecContext* ctx_;
  // Indexed by the template's plan slot (ConstructPlan::source). unique_ptr
  // values: Instantiate re-enters through hole evaluation, and growth must
  // not invalidate the entry a caller still reads.
  std::vector<std::unique_ptr<Interned>> interned_;
  // A hole's kernel hits, collected to size the node's children exactly.
  // Filled and drained with no evaluation in between, so re-entrant
  // instantiations never see each other's hits.
  std::vector<ChildPathHit> hits_;
  std::string scratch_;
  // Dynamic attribute values are built at the end of this buffer and
  // interned; a nested instantiation (a constructor inside an attribute
  // expression) appends after its caller's bytes and truncates back.
  std::string attr_scratch_;
};

}  // namespace xmark::query

#endif  // XMARK_QUERY_EXEC_H_
