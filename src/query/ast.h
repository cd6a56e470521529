#ifndef XMARK_QUERY_AST_H_
#define XMARK_QUERY_AST_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "xml/names.h"

namespace xmark::query {

struct AstNode;
using AstPtr = std::unique_ptr<AstNode>;

/// Expression kinds of the XQuery subset (DESIGN.md §5).
enum class AstKind {
  kStringLiteral,
  kNumberLiteral,
  kVarRef,
  kContextItem,
  kPath,
  kFlwor,
  kQuantified,
  kIf,
  kBinary,
  kUnaryMinus,
  kFunctionCall,
  kElementConstructor,
  kSequenceExpr,
};

enum class BinaryOp {
  kOr,
  kAnd,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kBefore,  // << node-order comparison
  kAfter,   // >>
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
};

const char* BinaryOpName(BinaryOp op);

enum class Axis { kChild, kDescendant, kAttribute, kSelf };

/// One path step: axis + node test + predicates.
struct Step {
  enum class Test { kName, kWildcard, kText, kAnyNode };

  Axis axis = Axis::kChild;
  Test test = Test::kName;
  std::string name;  // for Test::kName and kAttribute
  std::vector<AstPtr> predicates;

  // Per-store name-resolution cache maintained by the evaluator: `name`
  // is interned against the active store's dictionary on first use, so a
  // step applied millions of times pays one dictionary probe. Keyed on the
  // store's never-recycled uid (0 = unresolved), not its address, so a
  // freed store cannot validate a stale NameId. The id is published before
  // the uid (release/acquire), so concurrent evaluations of one AST
  // against a single store — the plan-cache arrangement — are safe;
  // evaluating one AST against different stores concurrently is not.
  mutable std::atomic<uint64_t> name_cache_uid{0};
  mutable std::atomic<xml::NameId> name_cache_id{xml::kInvalidName};

  // The atomics delete the implicit copy/move members; steps only ever
  // migrate single-threaded (parser construction), so a relaxed snapshot
  // of the cache is enough.
  Step() = default;
  Step(Step&& other) noexcept
      : axis(other.axis),
        test(other.test),
        name(std::move(other.name)),
        predicates(std::move(other.predicates)),
        name_cache_uid(other.name_cache_uid.load(std::memory_order_relaxed)),
        name_cache_id(other.name_cache_id.load(std::memory_order_relaxed)) {}
  Step& operator=(Step&& other) noexcept {
    axis = other.axis;
    test = other.test;
    name = std::move(other.name);
    predicates = std::move(other.predicates);
    name_cache_uid.store(other.name_cache_uid.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    name_cache_id.store(other.name_cache_id.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    return *this;
  }
};

/// for/let clause of a FLWOR (or the binding list of a quantifier).
struct ForLetClause {
  bool is_let = false;
  std::string var;
  int var_slot = -1;  // assigned by ResolveVariableSlots
  AstPtr expr;
};

struct OrderSpec {
  AstPtr key;
  bool descending = false;
};

/// One piece of an attribute value template: literal text or {expr}.
struct AttrPart {
  std::string text;
  AstPtr expr;  // non-null => expression part
};

struct AttrConstructor {
  std::string name;
  std::vector<AttrPart> parts;
};

/// A single heterogeneous AST node (variant-style; the fields used depend
/// on `kind`). Keeping one node type makes the recursive parser and
/// evaluator compact.
struct AstNode {
  explicit AstNode(AstKind k) : kind(k) {}

  AstKind kind;

  // kStringLiteral / kVarRef / kFunctionCall (name)
  std::string str_value;
  // kVarRef: environment slot assigned by ResolveVariableSlots (-1 until
  // resolution runs). The evaluator binds and looks variables up by this
  // index instead of comparing names.
  int var_slot = -1;
  // kNumberLiteral
  double num_value = 0.0;

  // kPath
  bool absolute = false;  // starts with '/' or '//'
  AstPtr start;           // non-null when the path begins with a primary
  std::vector<Step> steps;

  // kFlwor / kQuantified (bindings)
  std::vector<ForLetClause> clauses;
  AstPtr where;  // FLWOR where; quantifier `satisfies`
  std::vector<OrderSpec> order_by;
  AstPtr ret;
  bool is_every = false;  // quantifier flavor

  // kBinary (args[0], args[1]) / kIf (args[0..2]) / kFunctionCall /
  // kSequenceExpr / kUnaryMinus (args[0])
  BinaryOp op = BinaryOp::kOr;
  std::vector<AstPtr> args;

  // kElementConstructor
  std::string tag;
  std::vector<AttrConstructor> attrs;
  std::vector<AstPtr> content;  // children: literals and embedded exprs
};

/// User-defined function from the query prolog (Q18's currency converter).
struct FunctionDecl {
  std::string name;
  std::vector<std::string> params;
  std::vector<int> param_slots;  // assigned by ResolveVariableSlots
  AstPtr body;
};

/// A parsed query module: prolog functions plus the body expression.
struct ParsedQuery {
  std::vector<FunctionDecl> functions;
  AstPtr body;
  // Distinct variable names in the module, indexed by slot (filled by
  // ResolveVariableSlots; ParseQueryText resolves before returning).
  std::vector<std::string> var_names;
  // Set by ResolveVariableSlots(ParsedQuery&). Evaluator::Run resolves
  // only while this is false, so a parsed module shared by concurrent
  // runs (the plan cache) is never mutated after compilation.
  bool slots_resolved = false;
};

/// Interns every variable name of the module into a dense slot space:
/// each distinct name gets one slot, shared by all its (possibly shadowing)
/// bindings — the evaluator saves and restores the slot on scope entry and
/// exit, turning variable lookup into a vector index instead of a linear
/// string-keyed search. Idempotent; deterministic for a given AST.
void ResolveVariableSlots(ParsedQuery& query);

/// Renders the AST as an s-expression (debugging, plan tests).
std::string AstToString(const AstNode& node);

}  // namespace xmark::query

#endif  // XMARK_QUERY_AST_H_
