#include "query/optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace xmark::query {

// ---------------------------------------------------------------------------
// Static analysis
// ---------------------------------------------------------------------------

void VisitChildren(const AstNode& node,
                   const std::function<void(const AstNode&)>& fn) {
  if (node.start) fn(*node.start);
  for (const Step& s : node.steps) {
    for (const AstPtr& p : s.predicates) fn(*p);
  }
  for (const ForLetClause& c : node.clauses) {
    if (c.expr) fn(*c.expr);
  }
  if (node.where) fn(*node.where);
  for (const OrderSpec& o : node.order_by) fn(*o.key);
  if (node.ret) fn(*node.ret);
  for (const AstPtr& a : node.args) fn(*a);
  for (const AttrConstructor& attr : node.attrs) {
    for (const AttrPart& part : attr.parts) {
      if (part.expr) fn(*part.expr);
    }
  }
  for (const AstPtr& c : node.content) fn(*c);
}

namespace {

void CollectFreeVars(const AstNode& node, std::set<std::string>& bound,
                     std::set<std::string>* free_vars) {
  if (node.kind == AstKind::kVarRef) {
    if (!bound.count(node.str_value)) free_vars->insert(node.str_value);
    return;
  }
  if (node.kind == AstKind::kFlwor || node.kind == AstKind::kQuantified) {
    // Clauses bind sequentially; later clause expressions see earlier vars.
    std::vector<std::string> introduced;
    for (const ForLetClause& c : node.clauses) {
      if (c.expr) CollectFreeVars(*c.expr, bound, free_vars);
      if (!bound.count(c.var)) {
        bound.insert(c.var);
        introduced.push_back(c.var);
      }
    }
    if (node.where) CollectFreeVars(*node.where, bound, free_vars);
    for (const OrderSpec& o : node.order_by) {
      CollectFreeVars(*o.key, bound, free_vars);
    }
    if (node.ret) CollectFreeVars(*node.ret, bound, free_vars);
    for (const std::string& v : introduced) bound.erase(v);
    return;
  }
  VisitChildren(node,
                [&](const AstNode& child) {
                  CollectFreeVars(child, bound, free_vars);
                });
}

}  // namespace

std::set<std::string> FreeVars(const AstNode& node) {
  std::set<std::string> bound, free_vars;
  CollectFreeVars(node, bound, &free_vars);
  return free_vars;
}

bool IsDocumentCall(const AstNode& node) {
  return node.kind == AstKind::kFunctionCall && node.builtin == Builtin::kDoc;
}

bool IsCollectionCall(const AstNode& node) {
  return node.kind == AstKind::kFunctionCall &&
         node.builtin == Builtin::kCollection;
}

bool IsRootedEntryCall(const AstNode& node) {
  return IsDocumentCall(node) || IsCollectionCall(node);
}

namespace {

// Folds one entry call into the scope; reports conflicts.
Status MergeScope(const AstNode& node, QueryScope* scope) {
  if (IsCollectionCall(node)) {
    if (scope->kind == QueryScope::Kind::kDocument) {
      return Status::InvalidQuery(
          "[multi-document-scope] collection() cannot be combined with "
          "doc(\"" + scope->doc_uri + "\")");
    }
    scope->kind = QueryScope::Kind::kCollection;
    return Status::OK();
  }
  // doc()/document() with a non-literal (or absent) URI keeps the legacy
  // "bind the default document, ignore the URI" semantics.
  if (node.args.size() != 1 ||
      node.args[0]->kind != AstKind::kStringLiteral) {
    return Status::OK();
  }
  const std::string& uri = node.args[0]->str_value;
  if (scope->kind == QueryScope::Kind::kCollection) {
    return Status::InvalidQuery(
        "[multi-document-scope] doc(\"" + uri +
        "\") cannot be combined with collection()");
  }
  if (scope->kind == QueryScope::Kind::kDocument && scope->doc_uri != uri) {
    return Status::InvalidQuery(
        "[multi-document-scope] query addresses both \"" + scope->doc_uri +
        "\" and \"" + uri + "\"; cross-document joins are not supported");
  }
  scope->kind = QueryScope::Kind::kDocument;
  scope->doc_uri = uri;
  return Status::OK();
}

Status CollectScope(const AstNode& node, QueryScope* scope) {
  if (node.kind == AstKind::kFunctionCall && IsRootedEntryCall(node)) {
    XMARK_RETURN_IF_ERROR(MergeScope(node, scope));
  }
  Status status = Status::OK();
  VisitChildren(node, [&](const AstNode& child) {
    if (!status.ok()) return;
    status = CollectScope(child, scope);
  });
  return status;
}

}  // namespace

StatusOr<QueryScope> ExtractQueryScope(const ParsedQuery& query) {
  QueryScope scope;
  for (const FunctionDecl& f : query.functions) {
    XMARK_RETURN_IF_ERROR(CollectScope(*f.body, &scope));
  }
  XMARK_RETURN_IF_ERROR(CollectScope(*query.body, &scope));
  return scope;
}

bool DependsOnFocus(const AstNode& node) {
  if (node.kind == AstKind::kContextItem) return true;
  if (node.kind == AstKind::kFunctionCall &&
      (node.builtin == Builtin::kPosition || node.builtin == Builtin::kLast)) {
    return true;
  }
  if (node.kind == AstKind::kPath && !node.absolute && !node.start) {
    return true;  // relative path starts at the context item
  }
  bool found = false;
  VisitChildren(node, [&](const AstNode& child) {
    // Predicates establish their own focus, so focus uses inside step
    // predicates do not leak out; recursing everywhere is conservative
    // but safe — a false positive only disables a cache.
    if (!found && DependsOnFocus(child)) found = true;
  });
  return found;
}

bool IsCacheableInvariant(const AstNode& node) {
  if (node.kind != AstKind::kPath) return false;
  const bool rooted =
      node.absolute || (node.start && IsRootedEntryCall(*node.start));
  if (!rooted) return false;
  if (!FreeVars(node).empty()) return false;
  if (DependsOnFocus(node)) return false;
  return true;
}

BinaryOp SwapComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;
  }
}

bool IsLiteral(const AstNode& n) {
  return n.kind == AstKind::kStringLiteral || n.kind == AstKind::kNumberLiteral;
}

bool IsComparisonOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// Step / path plans
// ---------------------------------------------------------------------------

namespace {

// [@id = "literal"] shape of the step's first predicate (Q1's lookup).
const AstNode* IdLiteralOf(const Step& step) {
  if (step.predicates.empty()) return nullptr;
  const AstNode& p = *step.predicates.front();
  if (p.kind != AstKind::kBinary || p.op != BinaryOp::kEq) return nullptr;
  auto is_id_path = [](const AstNode& n) {
    return n.kind == AstKind::kPath && !n.absolute && !n.start &&
           n.steps.size() == 1 && n.steps[0].axis == Axis::kAttribute &&
           n.steps[0].name == "id";
  };
  if (is_id_path(*p.args[0]) && p.args[1]->kind == AstKind::kStringLiteral) {
    return p.args[1].get();
  }
  if (is_id_path(*p.args[1]) && p.args[0]->kind == AstKind::kStringLiteral) {
    return p.args[0].get();
  }
  return nullptr;
}

// Plan for one step: its NameId (tag or attribute name), and the id probe
// that replaces the child scan when the store built an ID index.
StepPlan ComputeStepPlan(const Step& step, const StorageCapabilities& caps,
                         const xml::NameTable& names) {
  StepPlan plan;
  if (step.test == Step::Test::kName) {
    plan.name = names.Lookup(step.name);
    if (step.axis == Axis::kChild && caps.id_lookup) {
      plan.id_literal = IdLiteralOf(step);
    }
  }
  return plan;
}

// Which matching children of each parent a child name step keeps, as a
// ChildPath::Step position: every one when it has no predicate, the k-th
// for one integer literal `[k]` (k >= 1), the last for `[last()]`. nullopt
// for any other predicate list, which stays on the generic operators.
std::optional<int32_t> StepPosition(const Step& step) {
  if (step.predicates.empty()) return ChildPath::Step::kAll;
  if (step.predicates.size() != 1) return std::nullopt;
  const AstNode& p = *step.predicates[0];
  if (p.kind == AstKind::kNumberLiteral && p.num_value >= 1 &&
      p.num_value <= std::numeric_limits<int32_t>::max() &&
      p.num_value == std::floor(p.num_value)) {
    return static_cast<int32_t>(p.num_value);
  }
  if (p.kind == AstKind::kFunctionCall && p.builtin == Builtin::kLast &&
      p.args.empty()) {
    return ChildPath::Step::kLast;
  }
  return std::nullopt;
}

}  // namespace

std::optional<ChildPath> LowerChildChain(const AstNode& path,
                                         const std::vector<StepPlan>& steps) {
  if (path.kind != AstKind::kPath || path.absolute || path.steps.empty()) {
    return std::nullopt;
  }
  ChildPath chain;
  if (path.start != nullptr) {
    if (path.start->kind != AstKind::kVarRef) return std::nullopt;
    chain.var_slot = path.start->var_slot;
  }
  chain.steps.reserve(path.steps.size());
  for (size_t i = 0; i < path.steps.size(); ++i) {
    const Step& s = path.steps[i];
    const bool last = i + 1 == path.steps.size();
    if (s.axis == Axis::kChild && s.test == Step::Test::kName) {
      const std::optional<int32_t> position = StepPosition(s);
      if (!position.has_value()) return std::nullopt;
      chain.steps.push_back({steps[i].name, *position});
      if (steps[i].name == xml::kInvalidName) chain.absent = true;
    } else if (!s.predicates.empty()) {
      return std::nullopt;
    } else if (last && s.axis == Axis::kChild &&
               s.test == Step::Test::kText) {
      chain.terminal = ChildPath::Terminal::kText;
    } else if (last && s.axis == Axis::kAttribute &&
               s.test == Step::Test::kName) {
      chain.terminal = ChildPath::Terminal::kAttribute;
      chain.attribute = steps[i].name;
    } else {
      return std::nullopt;
    }
  }
  const size_t levels =
      chain.steps.size() +
      (chain.terminal == ChildPath::Terminal::kText ? 1 : 0);
  if (levels > ChildPath::kMaxLevels) return std::nullopt;
  return chain;
}

namespace {

// Plan for one kPath node (cacheability, path-index prefix, step names
// and id probes, and the kernel chain when the path is one).
PathPlan ComputePathPlan(const AstNode& path, const EvaluatorOptions& options,
                         const StorageCapabilities& caps,
                         const xml::NameTable& names) {
  PathPlan plan;
  plan.cacheable =
      options.cache_invariant_paths && IsCacheableInvariant(path);
  const bool rooted =
      path.absolute || (path.start && IsRootedEntryCall(*path.start));
  if (rooted && caps.path_index) {
    for (const Step& s : path.steps) {
      if (s.axis != Axis::kChild || s.test != Step::Test::kName ||
          !s.predicates.empty()) {
        break;
      }
      ++plan.path_index_steps;
    }
  }
  plan.steps.reserve(path.steps.size());
  for (const Step& s : path.steps) {
    plan.steps.push_back(ComputeStepPlan(s, caps, names));
  }
  // The kernel is part of the optimizer's rewrites: F and G keep the
  // generic operators as the byte oracle.
  if (options.hash_join) plan.chain = LowerChildChain(path, plan.steps);
  return plan;
}

}  // namespace

// ---------------------------------------------------------------------------
// Join analysis
// ---------------------------------------------------------------------------

namespace {

// Join analysis for one FLWOR: detects the decorrelatable equi-join shape
// and picks the strategy allowed by `options`. Also flags the band
// comparison shape (strategy selection for bands happens at the enclosing
// `let`, see AnalyzeBandLet).
void AnalyzeFlworJoin(const AstNode& flwor, const EvaluatorOptions& options,
                      FlworPlan* out) {
  *out = FlworPlan{};
  out->band_shape = AnalyzeBandShape(flwor, nullptr);

  do {
    if (flwor.clauses.size() != 1 || flwor.clauses[0].is_let) break;
    if (flwor.where == nullptr || !flwor.order_by.empty()) break;
    const ForLetClause& clause = flwor.clauses[0];
    if (!FreeVars(*clause.expr).empty()) break;
    if (DependsOnFocus(*clause.expr)) break;

    // Flatten top-level `and` conjuncts.
    std::vector<const AstNode*> conjuncts;
    std::vector<const AstNode*> pending{flwor.where.get()};
    while (!pending.empty()) {
      const AstNode* n = pending.back();
      pending.pop_back();
      if (n->kind == AstKind::kBinary && n->op == BinaryOp::kAnd) {
        pending.push_back(n->args[0].get());
        pending.push_back(n->args[1].get());
      } else {
        conjuncts.push_back(n);
      }
    }

    HashJoinPlan& hash = out->hash;
    for (const AstNode* c : conjuncts) {
      if (hash.inner_key == nullptr && c->kind == AstKind::kBinary &&
          c->op == BinaryOp::kEq) {
        const AstNode* lhs = c->args[0].get();
        const AstNode* rhs = c->args[1].get();
        auto only_var = [&](const AstNode* n) {
          const auto fv = FreeVars(*n);
          return fv.size() == 1 && *fv.begin() == clause.var &&
                 !DependsOnFocus(*n);
        };
        auto without_var = [&](const AstNode* n) {
          return FreeVars(*n).count(clause.var) == 0 && !DependsOnFocus(*n);
        };
        if (only_var(lhs) && without_var(rhs)) {
          hash.inner_key = lhs;
          hash.outer_key = rhs;
          continue;
        }
        if (only_var(rhs) && without_var(lhs)) {
          hash.inner_key = rhs;
          hash.outer_key = lhs;
          continue;
        }
      }
      hash.residue.push_back(c);
    }
    if (hash.inner_key == nullptr) break;
    out->join_shape = true;
    hash.in_expr = clause.expr.get();
    hash.var = clause.var;
    hash.var_slot = clause.var_slot;
    if (options.hash_join) out->strategy = FlworPlan::Strategy::kHashJoin;
  } while (false);
}

}  // namespace

bool AnalyzeBandShape(const AstNode& flwor, BandJoinPlan* out) {
  if (flwor.kind != AstKind::kFlwor) return false;
  if (flwor.clauses.size() != 1 || flwor.clauses[0].is_let) return false;
  if (flwor.where == nullptr || !flwor.order_by.empty()) return false;
  const ForLetClause& clause = flwor.clauses[0];
  // The return must emit exactly the loop variable so the match count
  // equals the result cardinality.
  if (flwor.ret == nullptr || flwor.ret->kind != AstKind::kVarRef ||
      flwor.ret->str_value != clause.var) {
    return false;
  }
  if (!FreeVars(*clause.expr).empty()) return false;
  if (DependsOnFocus(*clause.expr)) return false;

  const AstNode& where = *flwor.where;
  if (where.kind != AstKind::kBinary) return false;
  BinaryOp op = where.op;
  if (op != BinaryOp::kLt && op != BinaryOp::kLe && op != BinaryOp::kGt &&
      op != BinaryOp::kGe) {
    return false;
  }
  // The inner side must be guaranteed numeric (top-level arithmetic or a
  // number literal) so the band comparison is a double ordering, never the
  // string ordering the generic comparison would fall back to.
  auto numeric_shape = [](const AstNode& n) {
    if (n.kind == AstKind::kNumberLiteral ||
        n.kind == AstKind::kUnaryMinus) {
      return true;
    }
    if (n.kind != AstKind::kBinary) return false;
    switch (n.op) {
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul:
      case BinaryOp::kDiv:
      case BinaryOp::kMod:
        return true;
      default:
        return false;
    }
  };
  auto only_var = [&](const AstNode& n) {
    const auto fv = FreeVars(n);
    return fv.size() == 1 && *fv.begin() == clause.var &&
           !DependsOnFocus(n);
  };
  auto without_var = [&](const AstNode& n) {
    return FreeVars(n).count(clause.var) == 0 && !DependsOnFocus(n);
  };

  const AstNode* lhs = where.args[0].get();
  const AstNode* rhs = where.args[1].get();
  const AstNode* inner = nullptr;
  const AstNode* outer = nullptr;
  if (only_var(*rhs) && numeric_shape(*rhs) && without_var(*lhs)) {
    inner = rhs;
    outer = lhs;  // already outer OP inner
  } else if (only_var(*lhs) && numeric_shape(*lhs) && without_var(*rhs)) {
    inner = lhs;
    outer = rhs;
    op = SwapComparison(op);  // normalize to outer OP inner
  } else {
    return false;
  }
  if (out != nullptr) {
    out->flwor = &flwor;
    out->domain = clause.expr.get();
    out->var_slot = clause.var_slot;
    out->inner_expr = inner;
    out->outer_expr = outer;
    out->op = op;
  }
  return true;
}

namespace {

// Every reference to `var` inside `node` appears as the sole argument of a
// count() call. Shadowing rebinds of the same name bail out conservatively.
bool CountOnlyUses(const AstNode& node, const std::string& var) {
  if (node.kind == AstKind::kVarRef) return node.str_value != var;
  if (node.kind == AstKind::kFunctionCall && node.builtin == Builtin::kCount &&
      node.args.size() == 1 && node.args[0]->kind == AstKind::kVarRef) {
    return true;  // count($x) — the one permitted use site
  }
  if (node.kind == AstKind::kFlwor || node.kind == AstKind::kQuantified) {
    for (const ForLetClause& c : node.clauses) {
      if (c.var == var) return false;  // shadowing: give up
    }
  }
  bool ok = true;
  VisitChildren(node, [&](const AstNode& child) {
    if (ok && !CountOnlyUses(child, var)) ok = false;
  });
  return ok;
}

}  // namespace

bool AnalyzeBandLet(const AstNode& outer_flwor, size_t clause_index,
                    BandJoinPlan* out) {
  if (outer_flwor.kind != AstKind::kFlwor) return false;
  const ForLetClause& clause = outer_flwor.clauses[clause_index];
  if (!clause.is_let || clause.expr == nullptr) return false;
  if (!AnalyzeBandShape(*clause.expr, out)) return false;
  // The probe may run as late as the count() site, so later clauses must
  // not rebind anything the band FLWOR reads (its free variables are the
  // probe side's inputs). The let variable itself must be consumed only
  // through count() in the rest of the outer FLWOR's scope: later
  // clauses, where, order by, return.
  const std::set<std::string> inner_free = FreeVars(*clause.expr);
  for (size_t i = clause_index + 1; i < outer_flwor.clauses.size(); ++i) {
    const ForLetClause& later = outer_flwor.clauses[i];
    if (later.var == clause.var) return false;  // rebind: give up
    if (inner_free.count(later.var)) return false;  // probe input rebound
    if (later.expr && !CountOnlyUses(*later.expr, clause.var)) return false;
  }
  if (outer_flwor.where && !CountOnlyUses(*outer_flwor.where, clause.var)) {
    return false;
  }
  for (const OrderSpec& o : outer_flwor.order_by) {
    if (!CountOnlyUses(*o.key, clause.var)) return false;
  }
  if (outer_flwor.ret && !CountOnlyUses(*outer_flwor.ret, clause.var)) {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Constructor templates
// ---------------------------------------------------------------------------

namespace {

// Appends the template element for `ctor` (and, recursively, its nested
// static constructors) to `plan->elements`; returns its index.
size_t LowerConstructorElement(const AstNode& ctor, ConstructPlan* plan) {
  const size_t index = plan->elements.size();
  plan->elements.emplace_back();
  plan->elements[index].tag = ctor.tag;

  std::vector<ConstructPlan::Attr> attrs;
  attrs.reserve(ctor.attrs.size());
  for (const AttrConstructor& attr : ctor.attrs) {
    ConstructPlan::Attr out;
    out.name = attr.name;
    const bool constant =
        std::all_of(attr.parts.begin(), attr.parts.end(),
                    [](const AttrPart& p) { return p.expr == nullptr; });
    if (constant) {
      for (const AttrPart& p : attr.parts) out.const_value += p.text;
      ++plan->const_attr_count;
    } else {
      out.src = &attr;
      out.chains.assign(attr.parts.size(), nullptr);
      ++plan->dyn_attr_count;
    }
    attrs.push_back(std::move(out));
  }

  std::vector<ConstructPlan::Child> children;
  children.reserve(ctor.content.size());
  for (const AstPtr& content : ctor.content) {
    ConstructPlan::Child child;
    if (content->kind == AstKind::kStringLiteral) {
      child.kind = ConstructPlan::Child::Kind::kConstText;
      // Intern equal constant segments once per template: every
      // instantiation then shares one arena copy per distinct segment.
      const auto found =
          std::find(plan->const_texts.begin(), plan->const_texts.end(),
                    content->str_value);
      child.index = static_cast<size_t>(found - plan->const_texts.begin());
      if (found == plan->const_texts.end()) {
        plan->const_texts.push_back(content->str_value);
      }
    } else if (content->kind == AstKind::kElementConstructor) {
      child.kind = ConstructPlan::Child::Kind::kElement;
      child.index = LowerConstructorElement(*content, plan);
    } else {
      child.kind = ConstructPlan::Child::Kind::kHole;
      child.expr = content.get();
      ++plan->hole_count;
    }
    children.push_back(child);
  }
  // The recursion above may have grown plan->elements; write through the
  // index, not a reference captured before the loop.
  plan->elements[index].attrs = std::move(attrs);
  plan->elements[index].children = std::move(children);
  return index;
}

}  // namespace

ConstructPlan LowerConstructor(const AstNode& ctor) {
  ConstructPlan plan;
  plan.source = &ctor;
  LowerConstructorElement(ctor, &plan);
  return plan;
}

// ---------------------------------------------------------------------------
// Whole-query lowering
// ---------------------------------------------------------------------------

namespace {

// Appends the native form of predicate subtree `n` to `out->nodes`: an
// and/or tree whose leaves test a child chain (already lowered into
// `plan`) rooted at `var_slot` (-1: the context item) against a literal —
// a comparison in either operand order, or contains/starts-with with a
// string needle. False for any other shape.
bool AppendNativeNode(const AstNode& n, int var_slot,
                      const PlanAnnotations& plan, NativePredicate* out) {
  const size_t index = out->nodes.size();
  out->nodes.emplace_back();
  const AstNode* chain = nullptr;
  const AstNode* literal = nullptr;
  if (n.kind == AstKind::kFunctionCall && n.args.size() == 2) {
    if (n.builtin == Builtin::kContains) {
      out->nodes[index].leaf = NativePredicate::Node::Leaf::kContains;
    } else if (n.builtin == Builtin::kStartsWith) {
      out->nodes[index].leaf = NativePredicate::Node::Leaf::kStartsWith;
    } else {
      return false;
    }
    chain = n.args[0].get();
    literal = n.args[1].get();
    if (literal->kind != AstKind::kStringLiteral) return false;
  } else if (n.kind == AstKind::kBinary &&
             (n.op == BinaryOp::kAnd || n.op == BinaryOp::kOr)) {
    // Write through the index: the recursion grows the vector.
    out->nodes[index].op = n.op;
    out->nodes[index].lhs = out->nodes.size();
    if (!AppendNativeNode(*n.args[0], var_slot, plan, out)) return false;
    out->nodes[index].rhs = out->nodes.size();
    return AppendNativeNode(*n.args[1], var_slot, plan, out);
  } else if (n.kind == AstKind::kBinary && IsComparisonOp(n.op)) {
    chain = n.args[0].get();
    literal = n.args[1].get();
    out->nodes[index].op = n.op;
    if (IsLiteral(*chain)) {
      std::swap(chain, literal);
      out->nodes[index].op = SwapComparison(n.op);
    }
    if (!IsLiteral(*literal)) return false;
  } else {
    return false;
  }
  const ChildPath* lowered = plan.of(*chain).chain();
  if (lowered == nullptr || lowered->var_slot != var_slot) return false;
  NativePredicate::Node& leaf = out->nodes[index];
  leaf.chain = *lowered;
  leaf.literal = literal->kind == AstKind::kNumberLiteral
                     ? Item(literal->num_value)
                     : Item(literal->str_value);
  return true;
}

// The emit of a fused FLWOR's return clause: $v itself, a child chain of
// $v, or count($v//tag).
bool MatchEmit(const AstNode& ret, int var_slot, const PlanAnnotations& plan,
               CompiledPipeline* pipe) {
  if (ret.kind == AstKind::kVarRef) {
    pipe->emit = CompiledPipeline::Emit::kVar;
    return ret.var_slot == var_slot;
  }
  if (ret.kind == AstKind::kPath) {
    const ChildPath* chain = plan.of(ret).chain();
    pipe->emit = CompiledPipeline::Emit::kTailNodes;
    if (chain != nullptr && chain->var_slot == var_slot) {
      pipe->tail = *chain;
      return true;
    }
    return false;
  }
  if (ret.kind != AstKind::kFunctionCall || ret.builtin != Builtin::kCount ||
      ret.args.size() != 1) {
    return false;
  }
  const AstNode& a = *ret.args[0];
  if (a.kind != AstKind::kPath || a.start == nullptr ||
      a.start->kind != AstKind::kVarRef || a.start->var_slot != var_slot ||
      a.steps.size() != 1) {
    return false;
  }
  const Step& s = a.steps[0];
  if (s.axis != Axis::kDescendant || s.test != Step::Test::kName ||
      !s.predicates.empty()) {
    return false;
  }
  pipe->emit = CompiledPipeline::Emit::kCount;
  pipe->count_tag = plan.of(a).path->steps[0].name;
  return true;
}

// One BuildPlan walk: fills `plan`'s slots for every node it reaches.
class Lowering {
 public:
  Lowering(const EvaluatorOptions& options, const xml::NameTable& names,
           PlanAnnotations* plan)
      : options_(options), names_(names), plan_(plan) {}

  void Lower(const AstNode& node) {
    NodePlan& slot = plan_->nodes[node.plan_slot];
    if (node.kind == AstKind::kPath) {
      slot.path = std::make_unique<const PathPlan>(
          ComputePathPlan(node, options_, plan_->caps, names_));
    } else if (node.kind == AstKind::kFlwor) {
      FlworPlan fp;
      AnalyzeFlworJoin(node, options_, &fp);
      slot.flwor = std::make_unique<const FlworPlan>(fp);
      if (options_.hash_join) {
        for (size_t i = 0; i < node.clauses.size(); ++i) {
          BandJoinPlan band;
          if (AnalyzeBandLet(node, i, &band)) {
            plan_->nodes[node.clauses[i].expr->plan_slot].band_let =
                std::make_unique<const BandJoinPlan>(band);
          }
        }
      }
    } else if (node.kind == AstKind::kElementConstructor) {
      slot.construct = std::make_unique<const ConstructPlan>(
          LowerTemplate(node));
      return;
    }
    VisitChildren(node, [&](const AstNode& child) { Lower(child); });
    // Native predicates and fusion read the lowered chains of the
    // subexpressions (above), which exist only under hash_join, so F and G
    // keep the generic Focus and the nested loop.
    if (!options_.hash_join) return;
    if (node.kind == AstKind::kPath) {
      for (const Step& s : node.steps) {
        for (const AstPtr& pred : s.predicates) {
          NativePredicate native;
          if (AppendNativeNode(*pred, -1, *plan_, &native)) {
            plan_->nodes[pred->plan_slot].predicate =
                std::make_unique<const NativePredicate>(std::move(native));
          }
        }
      }
    } else if (node.kind == AstKind::kFlwor) {
      TryFuse(node);
    }
  }

 private:
  // The template folds the whole static shell (nested constructors
  // included), so lowering continues only into the dynamic parts: hole
  // expressions and dynamic attribute value parts, each of which keeps
  // the chain it was lowered to. A constructor inside a hole gets its own
  // template when the recursion reaches it.
  ConstructPlan LowerTemplate(const AstNode& ctor) {
    ConstructPlan lowered = LowerConstructor(ctor);
    for (ConstructPlan::Element& element : lowered.elements) {
      for (ConstructPlan::Attr& attr : element.attrs) {
        if (attr.src == nullptr) continue;
        for (size_t p = 0; p < attr.src->parts.size(); ++p) {
          const AttrPart& part = attr.src->parts[p];
          if (part.expr == nullptr) continue;
          Lower(*part.expr);
          attr.chains[p] = plan_->of(*part.expr).chain();
        }
      }
      for (ConstructPlan::Child& child : element.children) {
        if (child.kind != ConstructPlan::Child::Kind::kHole) continue;
        Lower(*child.expr);
        child.chain = plan_->of(*child.expr).chain();
      }
    }
    return lowered;
  }

  // Fuses `flwor` (its subexpressions already lowered) when it has the
  // CompiledPipeline shape: one `for` over a rooted path of child and
  // descendant steps, no `order by`, the nested-loop strategy and no
  // band-join let, a native where, and one of the three emits.
  void TryFuse(const AstNode& flwor) {
    if (flwor.clauses.size() != 1 || flwor.clauses[0].is_let ||
        !flwor.order_by.empty()) {
      return;
    }
    const NodePlan& slot = plan_->of(flwor);
    if (slot.flwor->strategy != FlworPlan::Strategy::kNestedLoop ||
        slot.band_let != nullptr) {
      return;
    }
    const ForLetClause& clause = flwor.clauses[0];
    const AstNode& domain = *clause.expr;
    if (domain.kind != AstKind::kPath || domain.steps.empty() ||
        !(domain.absolute ||
          (domain.start != nullptr && IsRootedEntryCall(*domain.start)))) {
      return;
    }
    for (const Step& s : domain.steps) {
      if (s.axis != Axis::kChild && s.axis != Axis::kDescendant) return;
    }
    CompiledPipeline pipe;
    pipe.stages = "scan";
    if (flwor.where != nullptr) {
      pipe.where.emplace();
      if (!AppendNativeNode(*flwor.where, clause.var_slot, *plan_,
                            &*pipe.where)) {
        return;
      }
      pipe.stages += "|filter";
    }
    if (!MatchEmit(*flwor.ret, clause.var_slot, *plan_, &pipe)) return;
    pipe.stages +=
        pipe.emit == CompiledPipeline::Emit::kCount ? "|count" : "|emit";
    pipe.flwor = &flwor;
    pipe.pipeline_id = pipelines_++;
    plan_->nodes[flwor.plan_slot].pipeline =
        std::make_unique<const CompiledPipeline>(std::move(pipe));
  }

  const EvaluatorOptions& options_;
  const xml::NameTable& names_;
  PlanAnnotations* plan_;
  size_t pipelines_ = 0;
};

}  // namespace

void BuildPlan(const ParsedQuery& query, const StorageAdapter& store,
               const EvaluatorOptions& options, PlanAnnotations* plan) {
  plan->store_name = std::string(store.mapping_name());
  plan->store_uid = store.store_uid();
  plan->caps = store.Capabilities();
  plan->options = options;
  // Scope is a rendering annotation here (Explain's "scope:" line); the
  // engine routes execution. Scope conflicts surface at Prepare, so a
  // failed extraction just leaves the default label.
  if (StatusOr<QueryScope> scope = ExtractQueryScope(query); scope.ok()) {
    switch (scope->kind) {
      case QueryScope::Kind::kDefault:
        break;
      case QueryScope::Kind::kDocument:
        plan->doc_scope = "doc(" + scope->doc_uri + ")";
        break;
      case QueryScope::Kind::kCollection:
        plan->doc_scope = "collection";
        break;
    }
  }
  plan->nodes.clear();
  plan->nodes.resize(query.node_count);
  Lowering lowering(options, store.names(), plan);
  for (const FunctionDecl& f : query.functions) lowering.Lower(*f.body);
  lowering.Lower(*query.body);
}

}  // namespace xmark::query
