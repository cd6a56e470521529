// Optimizer layer: AST -> QueryPlan, once per run.
//
// Layer contract: this is the only place that READS StorageCapabilities
// and the EvaluatorOptions toggles to make choices — id and path index
// probes, join decorrelation, band-shape recognition, invariant-path
// cacheability, constructor-template lowering, child-chain lowering,
// native predicates and FLWOR fusion. Everything it emits is an
// immutable annotation in the QueryPlan; nothing here touches documents,
// evaluates expressions or allocates executor state (BuildPlan is pure
// analysis and must stay cheap enough to run per query).

#ifndef XMARK_QUERY_OPTIMIZER_H_
#define XMARK_QUERY_OPTIMIZER_H_

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "query/ast.h"
#include "query/plan.h"
#include "query/storage.h"

namespace xmark::query {

// ---------------------------------------------------------------------------
// Static analysis
// ---------------------------------------------------------------------------

/// Invokes `fn` on every direct child expression of `node`.
void VisitChildren(const AstNode& node,
                   const std::function<void(const AstNode&)>& fn);

/// Free variable names of an expression (respecting FLWOR/quantifier
/// scoping).
std::set<std::string> FreeVars(const AstNode& node);

/// True when evaluation depends on the dynamic focus (context item,
/// position() or last()), which makes memoization unsound.
bool DependsOnFocus(const AstNode& node);

/// A call the parser resolved to the document()/doc() builtin (either
/// spelling, with or without `fn:`, and not shadowed by a prolog function).
bool IsDocumentCall(const AstNode& node);

/// A call resolved to the collection() builtin (corpus-wide scan entry).
bool IsCollectionCall(const AstNode& node);

/// Either document entry point: a path starting here is rooted, so every
/// rooted-path optimization (invariant caching, path-index prefixes,
/// fused FLWOR domains) applies to doc() and collection() scans alike.
bool IsRootedEntryCall(const AstNode& node);

/// Document scope a query statically binds to, extracted from its entry
/// calls (doc("id")/document("id") string-literal URIs and collection()).
struct QueryScope {
  enum class Kind {
    kDefault,     // no entry call, dynamic URI, or absolute path only
    kDocument,    // every entry call names the same single document
    kCollection,  // collection(): fan out over the whole corpus
  };
  Kind kind = Kind::kDefault;
  std::string doc_uri;  // set for kDocument
};

/// Walks the whole module (body + user functions). Fails with
/// kInvalidQuery "[multi-document-scope]" when entry calls disagree (two
/// distinct literal URIs, or doc() mixed with collection()) — cross-
/// document joins are not supported; a query addresses one document or
/// the uniform collection.
StatusOr<QueryScope> ExtractQueryScope(const ParsedQuery& query);

/// Rooted, variable-free, focus-free path: safe to memoize across loop
/// iterations.
bool IsCacheableInvariant(const AstNode& node);

/// `a <op> b` == `b <SwapComparison(op)> a`.
BinaryOp SwapComparison(BinaryOp op);

/// The general comparisons: = != < <= > >=.
bool IsComparisonOp(BinaryOp op);

/// A string or number literal.
bool IsLiteral(const AstNode& n);

/// The optimizer's one child-chain matcher: `path` (a kPath) starts at a
/// variable or at the context item, has only child name steps, each with
/// no predicate or one `[k]` (integer literal k >= 1) or `[last()]`, and
/// may end in text() or @name. Lowers it against the planned `steps` (one
/// StepPlan per AST step); nullopt for any other shape, or a chain deeper
/// than ChildPath::kMaxLevels.
std::optional<ChildPath> LowerChildChain(const AstNode& path,
                                         const std::vector<StepPlan>& steps);

// ---------------------------------------------------------------------------
// Plan construction
// ---------------------------------------------------------------------------

/// True when `flwor` matches the band shape
///   for $v in <invariant> where <outer> OP <numeric inner($v)> return $v
/// (OP a non-equality comparison). Fills `out` with the normalized plan
/// (outer side on the left of `op`).
bool AnalyzeBandShape(const AstNode& flwor, BandJoinPlan* out);

/// True when clause `clause_index` of `outer_flwor` is a `let` over a
/// band-shaped FLWOR whose variable is used only as count($var) within the
/// outer FLWOR. Fills `out` on success.
bool AnalyzeBandLet(const AstNode& outer_flwor, size_t clause_index,
                    BandJoinPlan* out);

/// Compiles one kElementConstructor subtree into a ConstructPlan template:
/// the static element shell (nested constructors folded in), constant
/// attributes and constant text segments resolved at plan time, dynamic
/// holes recorded as expression pointers. Pure structure analysis — no
/// options or capabilities involved.
ConstructPlan LowerConstructor(const AstNode& ctor);

/// Lowers a parsed query against one store + option set. Fills path plans
/// (with every step's NameId resolved in `store`'s dictionary, and child
/// chains lowered for the kernel), FLWOR strategies, band-join lets,
/// constructor templates (with their holes' chains), native step
/// predicates and fused FLWORs into the annotation set's plan slots (a
/// QueryPlan's local annotations, or a standalone PlanAnnotations
/// destined for the plan cache), in one walk over each body. Reads
/// `query` only.
void BuildPlan(const ParsedQuery& query, const StorageAdapter& store,
               const EvaluatorOptions& options, PlanAnnotations* plan);

}  // namespace xmark::query

#endif  // XMARK_QUERY_OPTIMIZER_H_
