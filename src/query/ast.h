#ifndef XMARK_QUERY_AST_H_
#define XMARK_QUERY_AST_H_

#include <memory>
#include <string>
#include <vector>

namespace xmark::query {

struct AstNode;
using AstPtr = std::unique_ptr<AstNode>;

/// Expression kinds of the XQuery subset that `Parser` accepts (parser.h;
/// README, "Architecture map").
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
};

/// for/let clause of a FLWOR (or the binding list of a quantifier).
struct ForLetClause {
  bool is_let = false;
  std::string var;
  int var_slot = -1;  // assigned by the parser
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
  // kVarRef: environment slot assigned by the parser. The evaluator binds
  // and looks variables up by this index instead of comparing names.
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
  std::vector<int> param_slots;  // assigned by the parser
  AstPtr body;
};

/// A parsed query module: prolog functions plus the body expression.
/// Immutable once the parser returns it, and store-independent: every
/// store-specific decision (access paths, step NameIds, join strategies)
/// lives in the PlanAnnotations the optimizer lowers per store, keyed by
/// this module's node addresses. So one module, held by shared_ptr<const>,
/// serves any number of stores and threads at once.
struct ParsedQuery {
  std::vector<FunctionDecl> functions;
  AstPtr body;
  // Distinct variable names in the module, indexed by slot. The parser
  // interns every variable into one dense slot space before it returns:
  // each distinct name gets one slot, shared by all its (possibly
  // shadowing) bindings, and the evaluator saves and restores the slot on
  // scope entry and exit.
  std::vector<std::string> var_names;
};

/// Renders the AST as an s-expression (debugging, plan tests).
std::string AstToString(const AstNode& node);

}  // namespace xmark::query

#endif  // XMARK_QUERY_AST_H_
