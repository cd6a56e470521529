// Logical plan layer.
//
// Layer contract: everything in this file is decided ONCE PER RUN, before
// the first tuple flows. The optimizer (query/optimizer.cc) lowers the AST
// into a QueryPlan — per-step NameIds and index probes, FLWOR join
// strategies, band-join lets, constructor templates — from one store's
// dictionary and StorageCapabilities and the EvaluatorOptions toggles; the
// evaluator and the physical operators (query/exec.h) then only *execute*
// those decisions, never revisit them. This is the store-dependent half of
// compilation: the parsed module itself is store-independent and
// immutable, so one module serves many stores, each through its own
// annotations. Anything that varies per binding (predicate values,
// probe keys, dynamic constructor holes) is deliberately NOT here: it
// belongs to pull time in query/exec.h.
//
// Cache ownership rule: every per-run mutable executor state (hash-join
// tables, band domains, invariant-path memos, the construction arena)
// lives INSIDE the QueryPlan instance, and a fresh QueryPlan is built per
// Evaluator::Run. Caches therefore cannot survive into a run over a
// different document or option set by construction.
//
// Slot rule: the parser numbers every AST node of a module densely
// (AstNode::plan_slot), so annotations and per-run state are vectors
// indexed by that number, never maps keyed by node address; a plan reads
// its node's slot with one index. Annotations point into the AST they
// were lowered from and must never outlive it.

#ifndef XMARK_QUERY_PLAN_H_
#define XMARK_QUERY_PLAN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "query/ast.h"
#include "query/storage.h"
#include "query/value.h"

namespace xmark::query {

class HashJoinExec;
class BandJoinIndex;
class ConstructExec;

/// Optimizer toggles: the paper-profile knobs. Each engine configuration
/// (systems A-G) enables the subset its architecture plausibly provides;
/// the differences drive the Table 3 contrasts. They are resolved once per
/// query into a QueryPlan and the evaluator just executes the chosen plan.
/// Which indexes a plan probes is not a toggle: it follows the store's
/// StorageCapabilities, i.e. what the store built.
struct EvaluatorOptions {
  /// The optimizer's join and fusion rewrites, on for systems whose
  /// optimizer decorrelates joins (A-E), off for the nested-loop-only
  /// executors (F, G):
  ///   - decorrelate nested equi-join FLWORs into hash joins;
  ///   - rewrite the Q11/Q12 numeric band shape (`outer > k * inner`, used
  ///     only under count()) into a sort-merge band join that sorts the
  ///     invariant domain once and answers each probe by binary search;
  ///   - fuse `for $v in <rooted path> [where ...] return ...` FLWORs into
  ///     CompiledPipeline loops: the path evaluator's domain, a native
  ///     where per binding, and an emit with no per-binding Eval;
  ///   - lower child chains (`$t/profile/age/text()`) into the child-path
  ///     kernel, and and/or step predicates over them into native
  ///     per-candidate tests.
  /// Off runs the generic operators and nested loops, the reference the
  /// rewrites are tested against; output is byte-identical either way.
  bool hash_join = true;
  /// Defer `let` evaluation until first use (prunes Q12's inner loop).
  bool lazy_let = true;
  /// Memoize absolute-path subexpressions across loop iterations.
  bool cache_invariant_paths = true;
  /// Deep-copy node results into constructed trees (the embedded System G
  /// returns copies, a large part of its overhead).
  bool copy_results = false;
};

/// Order-independent fingerprint of every option that affects plan
/// construction or execution strategy. The plan cache keys on it: two
/// sessions share a compiled query only when their toggles agree.
uint64_t OptionsFingerprint(const EvaluatorOptions& options);

/// Statistics from one evaluator run (exposed for ablation benchmarks).
struct EvalStats {
  int64_t nodes_visited = 0;       // adapter navigation calls
  int64_t hash_joins_built = 0;    // decorrelated inner loops
  int64_t band_joins_built = 0;    // sorted band-join domains built
  int64_t band_join_rows = 0;      // rows answered by band-join probes
                                   // (matches the nested loop would emit)
  int64_t index_lookups = 0;       // id/tag/path index hits
  int64_t cursor_scans = 0;        // batched child scans opened
  int64_t descendant_scans = 0;    // batched descendant scans opened
  int64_t compare_allocs = 0;      // strings materialized on compare paths
  int64_t join_probes = 0;         // hash-join index probes
  int64_t join_probe_allocs = 0;   // probe keys that materialized a string
  int64_t nodes_constructed = 0;     // ConstructedNodes created in the
                                     // per-run NodeArena
  int64_t construct_templates_built = 0;  // ConstructPlans lowered by the
                                          // optimizer for this run
  int64_t governance_checks = 0;  // cooperative ExecContext checkpoints
                                  // performed (0 for ungoverned runs)
  int64_t pipeline_batches_fused = 0;  // batches of up to 256 bindings run
                                       // by fused FLWOR loops
  int64_t virtual_batches = 0;  // batches pulled through the virtual
                                // operator boundary (NodeScan::Fill)

  /// Accumulates `other` into this (engine-level cumulative serving
  /// stats: each run's counters are merged under the engine's mutex at
  /// query completion, so concurrent sessions never share a counter).
  void MergeFrom(const EvalStats& other) {
    nodes_visited += other.nodes_visited;
    hash_joins_built += other.hash_joins_built;
    band_joins_built += other.band_joins_built;
    band_join_rows += other.band_join_rows;
    index_lookups += other.index_lookups;
    cursor_scans += other.cursor_scans;
    descendant_scans += other.descendant_scans;
    compare_allocs += other.compare_allocs;
    join_probes += other.join_probes;
    join_probe_allocs += other.join_probe_allocs;
    nodes_constructed += other.nodes_constructed;
    construct_templates_built += other.construct_templates_built;
    governance_checks += other.governance_checks;
    pipeline_batches_fused += other.pipeline_batches_fused;
    virtual_batches += other.virtual_batches;
  }
};

/// Plan for one path step in one store. The access follows the axis: a
/// child or descendant step drains the store's child or descendant cursor,
/// an attribute step probes AttributeView, a self step filters its input.
struct StepPlan {
  /// The step's name test (a tag, or an attribute name on the attribute
  /// axis) resolved against the planned store's dictionary. kInvalidName
  /// for non-name tests, and for a name the store never saw (the step then
  /// selects nothing).
  xml::NameId name = xml::kInvalidName;
  /// Non-null: the step carries an [@id = "literal"] predicate and the
  /// store supports ID lookup — resolve through NodeById first.
  const AstNode* id_literal = nullptr;
};

/// A child chain lowered for the child-path kernel (ChildPathWalker in
/// query/exec.h): a path that starts at a bound variable or at the context
/// item, has only child name steps, each with no predicate or with one
/// positional `[k]` (an integer literal k >= 1) or `[last()]`, and may end
/// in text() or @name — `$t/profile/age/text()`, `$t/buyer/@person`,
/// `$b/bidder[last()]/increase/text()`, or `income` inside
/// `profile[income >= 100000]`. The kernel walks it per start node over
/// the store's tag-filtered child cursors without building a Sequence; a
/// positional step keeps one child per parent, as the generic predicate
/// does over each parent's group.
struct ChildPath {
  /// Levels the walker recurses through (name steps plus a text() level);
  /// deeper chains stay on the generic operators.
  static constexpr size_t kMaxLevels = 16;

  /// One child name step.
  struct Step {
    /// `position` of a step that keeps every matching child.
    static constexpr int32_t kAll = 0;
    /// `position` of a `[last()]` step.
    static constexpr int32_t kLast = -1;

    xml::NameId tag = xml::kInvalidName;
    /// kAll, kLast, or k >= 1 for `[k]`: the matching child of each
    /// parent that the step keeps.
    int32_t position = kAll;
  };

  enum class Terminal : uint8_t {
    kNodes,      // the elements the last name step selects
    kText,       // their text() children
    kAttribute,  // the value of `attribute` on them
  };
  /// Slot of the root variable; -1 when the chain starts at the context
  /// item (a relative path).
  int var_slot = -1;
  std::vector<Step> steps;  // the child name steps, in order
  Terminal terminal = Terminal::kNodes;
  xml::NameId attribute = xml::kInvalidName;  // kAttribute: its name
  /// A step names a tag the store never saw: the chain selects nothing.
  bool absent = false;
};

/// Plan for one kPath expression.
struct PathPlan {
  /// Loop-invariant rooted path: memoize the result across iterations.
  bool cacheable = false;
  /// Number of leading child-name steps resolvable through the structural
  /// summary (PathExtent) in one probe. 0 = path index not applicable.
  size_t path_index_steps = 0;
  std::vector<StepPlan> steps;  // one entry per AST step
  /// Set when the path is a child chain and the kernel is on (hash_join).
  std::optional<ChildPath> chain;
};

/// A predicate answered natively per candidate node: an and/or tree whose
/// leaves test a child chain of the candidate against a literal
/// (`income >= 100000`, `@person = "person20"`, `contains(name, "x")`).
/// It answers step predicates (chains rooted at the context item) and the
/// where clause of a fused FLWOR (chains rooted at its variable). The
/// evaluator walks each leaf's chain from the candidate and compares
/// through views — no Focus, no Eval, no Sequence per candidate.
struct NativePredicate {
  struct Node {
    /// What a leaf tests: `chain op literal`, existential over the chain's
    /// values, or contains/starts-with(chain, literal) over its first
    /// value ("" when the chain selects nothing).
    enum class Leaf : uint8_t { kCompare, kContains, kStartsWith };
    /// kAnd / kOr: an inner node over `lhs` and `rhs`. Any comparison op:
    /// a kCompare leaf (normalized with the chain on the left).
    BinaryOp op = BinaryOp::kEq;
    Leaf leaf = Leaf::kCompare;
    size_t lhs = 0;
    size_t rhs = 0;
    ChildPath chain;
    Item literal;  // the literal's value, exactly as Eval would yield it
  };
  std::vector<Node> nodes;  // nodes[0] is the root
};

/// Decorrelated equi-join plan for a FLWOR (the Q8/Q9/Q10 shape):
/// `for $v in <invariant> where <inner_key($v)> = <outer_key> ...`.
struct HashJoinPlan {
  const AstNode* in_expr = nullptr;
  std::string var;
  int var_slot = -1;
  const AstNode* inner_key = nullptr;  // depends only on `var`
  const AstNode* outer_key = nullptr;  // independent of `var`
  std::vector<const AstNode*> residue;
};

/// Sort-merge band join plan for the Q11/Q12 shape:
///   let $l := for $v in <invariant domain>
///             where <outer> OP <numeric inner($v)> return $v
/// where every use of $l is count($l). The domain's numeric keys are
/// sorted once per run; each probe evaluates the outer side to a number
/// and answers count($l) with one binary search.
struct BandJoinPlan {
  const AstNode* flwor = nullptr;      // the inner FLWOR
  const AstNode* domain = nullptr;     // invariant domain expression
  int var_slot = -1;                   // the domain variable's slot
  const AstNode* inner_expr = nullptr; // numeric side, depends only on var
  const AstNode* outer_expr = nullptr; // probe side, independent of var
  BinaryOp op = BinaryOp::kGt;         // outer OP inner
};

/// Plan-time template for one element-constructor subtree (the Q10/Q13
/// reconstruction shape). The static shell of the constructor — nested
/// element structure, constant attributes, constant text segments — is
/// compiled once per run; only the dynamic holes (enclosed expressions)
/// and dynamic attribute values are evaluated per instantiation.
/// ConstructExec (query/exec.h) instantiates the template into the
/// per-run NodeArena: child vectors are reserved from the pre-counted
/// slot counts, constant text is interned into the arena once per run and
/// shared by every instantiation, and dynamic text is appended into the
/// arena's shared buffer instead of allocating a std::string per node.
/// A hole or attribute value part that the optimizer lowered to a child
/// chain (`{$t/name/text()}`, `name="{$i/@id}"`) carries the chain: the
/// instantiation walks it from the bound variable straight into the
/// arena, with no Eval and no Sequence, unless the binding is an
/// unevaluated let, unbound, or holds a constructed item; those take the
/// generic path, which materializes the let or raises the error.
struct ConstructPlan {
  struct Child {
    enum class Kind : uint8_t {
      kConstText,  // `index` into const_texts
      kElement,    // `index` into elements (a nested static element)
      kHole,       // `expr`: evaluated per instantiation
    };
    Kind kind = Kind::kHole;
    size_t index = 0;
    const AstNode* expr = nullptr;
    /// kHole: `expr`'s child chain when the optimizer lowered one.
    const ChildPath* chain = nullptr;
  };
  struct Attr {
    std::string name;
    /// Non-null: dynamic value, evaluate `src->parts` per instantiation.
    const AttrConstructor* src = nullptr;
    /// By `src->parts` index: the part's lowered child chain, or null.
    std::vector<const ChildPath*> chains;
    /// src == nullptr: the value is this constant, folded at plan time.
    std::string const_value;
  };
  struct Element {
    std::string tag;
    std::vector<Attr> attrs;
    std::vector<Child> children;  // pre-counted child slots
  };

  /// The kElementConstructor root; ConstructExec keys its per-run
  /// interned-segment cache by its plan slot.
  const AstNode* source = nullptr;
  std::vector<Element> elements;    // [0] is the root element
  std::vector<std::string> const_texts;  // deduplicated constant segments
  size_t hole_count = 0;
  size_t const_attr_count = 0;
  size_t dyn_attr_count = 0;
};

/// A FLWOR fused at plan time (the Q1/Q5/Q6/Q14 class):
///   for $v in <rooted path> [where <predicate($v)>] return <emit($v)>
/// with one `for` clause, no `order by`, and the nested-loop strategy. The
/// domain is a rooted path of child and descendant steps (any node test,
/// any predicates), so it yields stored nodes only; the where is a
/// NativePredicate over child chains of $v; the return is $v, a child
/// chain of $v, or count($v//tag). The evaluator runs it as one loop: the
/// path evaluator builds the domain, and each binding is tested and
/// emitted with no Environment binding and no Eval. Any other FLWOR gets
/// no entry here and runs on the nested loop — byte-identical either way.
struct CompiledPipeline {
  /// What each surviving binding contributes to the result.
  enum class Emit : uint8_t {
    kVar,        // the binding itself
    kTailNodes,  // the items `tail` selects from the binding
    kCount,      // count($v//tag): one number per binding
  };

  const AstNode* flwor = nullptr;  // the FLWOR this pipeline replaces
  size_t pipeline_id = 0;          // dense per-plan index (Explain)
  /// The where clause, its leaf chains rooted at the binding; unset when
  /// the FLWOR has none.
  std::optional<NativePredicate> where;
  Emit emit = Emit::kVar;
  ChildPath tail;  // kTailNodes: a child chain of the variable
  /// kCount: the descendant tag; kInvalidName when the store never saw
  /// it (every count is 0).
  xml::NameId count_tag = xml::kInvalidName;
  /// Fused stage list ("scan|filter|emit", Explain + the CI gate).
  std::string stages;
};

/// Join strategy chosen for one FLWOR node.
struct FlworPlan {
  enum class Strategy : uint8_t { kNestedLoop, kHashJoin };
  Strategy strategy = Strategy::kNestedLoop;
  /// The FLWOR matches a decorrelatable join shape (even if the strategy
  /// toggle left it on the nested loop — surfaced by Explain/CI as a
  /// fallback).
  bool join_shape = false;
  /// The FLWOR matches the band comparison shape (conversion happens at
  /// the enclosing `let`; a band shape with no band_lets entry is likewise
  /// a fallback).
  bool band_shape = false;
  HashJoinPlan hash;
};

/// Every plan the optimizer made for one AST node: one plan slot. Null
/// where it made none; a node has at most the plans of its kind.
struct NodePlan {
  std::unique_ptr<const PathPlan> path;    // kPath (every one is planned)
  std::unique_ptr<const FlworPlan> flwor;  // kFlwor (every one is planned)
  /// A kFlwor bound by a count-only `let`, planned as a band join.
  std::unique_ptr<const BandJoinPlan> band_let;
  /// A kFlwor fused into a compiled pipeline.
  std::unique_ptr<const CompiledPipeline> pipeline;
  /// kElementConstructor outside another constructor's static shell.
  std::unique_ptr<const ConstructPlan> construct;
  /// The root expression of a step predicate answered natively.
  std::unique_ptr<const NativePredicate> predicate;

  /// The child chain a kPath was lowered to (the kernel walks it), else
  /// null.
  const ChildPath* chain() const {
    return path != nullptr && path->chain.has_value() ? &*path->chain
                                                      : nullptr;
  }
};

/// The compile-time half of a lowered query: strategy annotations filled
/// by the optimizer for one (module, store uid, options fingerprint)
/// triple. Immutable once built, which is what lets the plan cache hand
/// one instance to any number of concurrent runs via shared_ptr<const>.
/// One plan slot per AST node, indexed by AstNode::plan_slot; annotations
/// must never outlive the ParsedQuery they were lowered from (a cache
/// entry and a PreparedQuery hold both), and plans point into each other
/// (a constructor hole's chain), so annotations are never copied.
struct PlanAnnotations {
  std::string store_name;       // mapping_name at plan time (Explain)
  std::string doc_scope;        // document scope ("" = default document)
  uint64_t store_uid = 0;       // store identity the plan was built for
  StorageCapabilities caps;     // capability snapshot at plan time
  EvaluatorOptions options;     // toggles the plan was built under
  std::vector<NodePlan> nodes;  // ParsedQuery::node_count entries

  const NodePlan& of(const AstNode& node) const {
    return nodes[node.plan_slot];
  }
};

/// A query lowered against one store + option set: per-node strategy
/// annotations plus the per-run executor state (hash-join tables, band
/// domains, invariant-path memos). One QueryPlan instance belongs to one
/// Evaluator::Run — caches cannot survive into a run over a different
/// document by construction. The annotations half may instead be ADOPTED
/// from the plan cache (shared, const); the per-run state below is always
/// exclusive to this run, one slot per AST node like the annotations.
class QueryPlan {
 public:
  QueryPlan();
  ~QueryPlan();
  QueryPlan(const QueryPlan&) = delete;
  QueryPlan& operator=(const QueryPlan&) = delete;

  /// The active annotation view: the shared (cached) annotations when one
  /// was adopted, else the locally built ones.
  const PlanAnnotations& ann() const { return shared_ ? *shared_ : local_; }
  /// The locally owned annotations (optimizer output target).
  PlanAnnotations* mutable_annotations() { return &local_; }
  /// Adopts a cached compilation; ann() then returns it.
  void AdoptShared(std::shared_ptr<const PlanAnnotations> shared) {
    shared_ = std::move(shared);
  }

  /// Renders the plan as indented text (bench --explain, golden tests).
  std::string Explain(const ParsedQuery& query) const;

  struct Summary {
    int hash_joins = 0;
    int band_joins = 0;
    int construct_templates = 0;
    /// Join-shaped FLWORs left on the naive nested loop (hash_join off, or
    /// a band shape whose let is not count-only).
    int joinable_nested_loops = 0;
    /// FLWORs fused into compiled pipelines.
    int compiled_pipelines = 0;
    /// Paths lowered into child-path kernel chains.
    int child_kernels = 0;
  };
  Summary Summarize() const;

 private:
  std::shared_ptr<const PlanAnnotations> shared_;
  PlanAnnotations local_;

 public:
  // --- per-run executor state, by plan slot ------------------------------
  /// Sized to the module's node count before the run's first tuple; an
  /// entry is filled on first use of its node.
  void SizeRunState(size_t node_count);
  std::vector<std::unique_ptr<HashJoinExec>> join_state;  // by kFlwor
  /// By the band-join FLWOR.
  std::vector<std::unique_ptr<BandJoinIndex>> band_state;
  std::vector<std::unique_ptr<const Sequence>> invariant_cache;  // by kPath
  /// Arena backing this run's constructed results. shared_ptr because
  /// every arena-backed ConstructedPtr in a result aliases it: the arena
  /// outlives the plan for exactly as long as results reference it.
  std::shared_ptr<NodeArena> arena;
  std::unique_ptr<ConstructExec> construct_state;
};

}  // namespace xmark::query

#endif  // XMARK_QUERY_PLAN_H_
