#ifndef XMARK_QUERY_EVALUATOR_H_
#define XMARK_QUERY_EVALUATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "query/ast.h"
#include "query/exec.h"
#include "query/exec_context.h"
#include "query/plan.h"
#include "query/storage.h"
#include "query/value.h"
#include "util/status.h"

namespace xmark::query {

/// XQuery-subset engine over a StorageAdapter, layered as
///   optimizer (query/optimizer.cc): AST -> QueryPlan once per run
///   physical operators (query/exec.h): scans, hash joins, band joins
///   evaluator (this class): expression semantics driving the operators.
///
/// One Evaluator instance may be reused across queries; every Run() builds
/// a fresh QueryPlan, which owns all per-run caches (hash-join tables,
/// band-join domains, invariant-path memos) — stale caches across
/// documents are impossible by construction. Run only reads the module:
/// everything it needs from the store (step NameIds, index probes) comes
/// from the plan, so any number of evaluators over different stores may
/// run one parsed module at once. A run executes entirely on the thread
/// that calls Run.
class Evaluator {
 public:
  Evaluator(const StorageAdapter* store, const EvaluatorOptions& options);
  ~Evaluator();

  /// Evaluates a module produced by the parser (slots already resolved)
  /// and returns the result sequence. `shared_annotations` (optional) is a
  /// compilation lowered from this same module, e.g. a plan-cache entry:
  /// it is adopted — skipping BuildPlan — when it was built for this
  /// store (uid) under the same options fingerprint, and ignored
  /// otherwise, since its NameIds belong to that store. Per-run executor
  /// state is always private to this run.
  StatusOr<Sequence> Run(
      const ParsedQuery& query,
      std::shared_ptr<const PlanAnnotations> shared_annotations = nullptr);

  /// Installs the governance context (borrowed, not owned) consulted by
  /// the next Run: cooperative deadline/cancellation/budget checks at
  /// batch boundaries, result-memory charging on the calling thread. Null
  /// (the default) disables every check — the hot path then pays one
  /// pointer test per Eval dispatch, keeping ungoverned runs byte- and
  /// plan-identical to earlier releases.
  void set_exec_context(ExecContext* ctx) { ctx_ = ctx; }

  const EvaluatorOptions& options() const { return options_; }

  /// Statistics from the last Run (exposed for ablation benchmarks).
  using Stats = EvalStats;
  const Stats& stats() const { return stats_; }

  /// The plan of the last Run (Explain, tests). Null before the first run.
  const QueryPlan* plan() const { return plan_.get(); }

 private:
  StatusOr<Sequence> Eval(const AstNode& node, Environment& env,
                          const Focus* focus);
  StatusOr<Sequence> EvalPath(const AstNode& node, Environment& env,
                              const Focus* focus);
  StatusOr<Sequence> EvalFlwor(const AstNode& node, Environment& env,
                               const Focus* focus);
  StatusOr<Sequence> EvalFused(const CompiledPipeline& pipe, Environment& env,
                               const Focus* focus);
  StatusOr<Sequence> EvalQuantified(const AstNode& node, Environment& env,
                                    const Focus* focus);
  StatusOr<Sequence> EvalBinary(const AstNode& node, Environment& env,
                                const Focus* focus);
  StatusOr<Sequence> EvalFunction(const AstNode& node, Environment& env,
                                  const Focus* focus);
  /// A call of a prolog function (AstNode::function_index).
  StatusOr<Sequence> CallFunction(const AstNode& node, Environment& env,
                                  const Focus* focus);
  /// id(): the elements whose id attribute carries one of `values`.
  StatusOr<Sequence> EvalId(const Sequence& values);
  StatusOr<Sequence> EvalConstructor(const AstNode& node, Environment& env,
                                     const Focus* focus);
  /// The run's construction state and arena, created on first use.
  ConstructExec& Construction();
  /// The plans of `node`'s slot in this run's annotations.
  const NodePlan& PlanOf(const AstNode& node) const {
    return nodes_[node.plan_slot];
  }

  Status ApplyStep(const Step& step, const StepPlan& step_plan,
                   const Sequence& input, Environment& env, Sequence* output);
  Status ApplyPredicates(const std::vector<AstPtr>& predicates,
                         Environment& env, Sequence* group);
  StatusOr<Sequence> EvalComparison(const AstNode& node, Environment& env,
                                    const Focus* focus);
  StatusOr<Sequence> EvalArithmetic(const AstNode& node, Environment& env,
                                    const Focus* focus);

  /// The binding in `slot`, materialized first when it is an unevaluated
  /// let; null when the slot is unbound.
  StatusOr<Environment::Binding*> Bound(int slot, Environment& env);

  // --- child-path kernel ------------------------------------------------
  /// Resolves `chain`'s start items into [*begin, *end): the variable's
  /// binding (a lazy let is materialized first) or the focus item. False
  /// when the chain must take the generic path — no focus, an unbound
  /// variable, or a constructed start item, whose navigation error the
  /// generic path raises. The range aliases the binding: walk it before
  /// evaluating anything else.
  StatusOr<bool> ChainStarts(const ChildPath& chain, Environment& env,
                             const Focus* focus, const Item** begin,
                             const Item** end);
  /// Walks `chain` from its start items, calling `visit(const
  /// ChildPathHit&)` on each selected item until it returns true. nullopt,
  /// with nothing walked, when the chain must take the generic path (see
  /// ChainStarts); else whether the walk stopped early.
  template <typename Visit>
  StatusOr<std::optional<bool>> WalkChain(const ChildPath& chain,
                                          Environment& env,
                                          const Focus* focus, Visit&& visit);
  /// CompareItems(hit, o, op) for a chain hit given as its string value:
  /// the hit is a stored node (`node_hit`) or an attribute string.
  bool CompareChainValue(std::string_view value, bool node_hit, const Item& o,
                         BinaryOp op);
  /// Node `index` of a native predicate, for candidate `cand`.
  StatusOr<bool> EvalNative(const NativePredicate& pred, size_t index,
                            NodeHandle cand);

  StatusOr<Sequence> EvalHashJoin(const AstNode& node,
                                  const HashJoinPlan& plan, Environment& env,
                                  const Focus* focus);

  /// Answers count($var) for the band-join binding in `slot`: builds the
  /// sorted domain on first probe, then binary-searches. Falls back to
  /// materializing the binding when the domain fails to build.
  StatusOr<int64_t> BandCount(int slot, Environment& env, const Focus* focus);

  // General comparison under XQuery's untyped rules, consuming operands
  // through zero-copy views (member scratch buffers amortize the rare
  // materializations).
  bool CompareItems(const Item& a, const Item& b, BinaryOp op);
  /// Existential comparison of two sequences.
  bool AnyPairMatches(const Sequence& lhs, const Sequence& rhs, BinaryOp op);

  const StorageAdapter* store_;
  EvaluatorOptions options_;
  /// Built once: the Eval callback handed to physical operators (hash
  /// join / band join builds, constructor-template instantiation).
  EvalFn eval_fn_;
  Stats stats_;
  size_t slot_count_ = 0;
  std::string cmp_scratch_a_;
  std::string cmp_scratch_b_;

  const std::vector<FunctionDecl>* functions_ = nullptr;  // the module's
  std::unique_ptr<QueryPlan> plan_;  // per-run plan + caches
  const NodePlan* nodes_ = nullptr;  // plan_'s annotations, by plan slot
  ExecContext* ctx_ = nullptr;  // borrowed per-run governance (may be null)
  int udf_depth_ = 0;
};

}  // namespace xmark::query

#endif  // XMARK_QUERY_EVALUATOR_H_
