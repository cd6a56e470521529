#include "query/pipeline.h"

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "query/optimizer.h"

namespace xmark::query {
namespace {

// [@id = "literal"] shape of a step's first predicate. Mirrors the
// optimizer's file-local IdLiteralOf so the pass recognizes Q1's lookup
// step independently of whether the ID index resolves it.
const AstNode* StepIdLiteral(const Step& step) {
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

// The loop variable itself (as an empty chain) or a child chain of it,
// read from the annotations the optimizer's chain matcher lowered — the
// only var-rooted shapes the fused filter and tail walks take. A chain
// through a tag the document never saw is refused: the generic path
// short-circuits it to an empty result anyway, so fusing buys nothing.
bool VarChain(const AstNode& n, int var_slot, const PlanAnnotations& plan,
              ChildPath* out) {
  if (n.kind == AstKind::kVarRef) {
    if (n.var_slot != var_slot) return false;
    *out = ChildPath{};
    out->var_slot = var_slot;
    return true;
  }
  const auto it = plan.paths.find(&n);
  if (it == plan.paths.end() || !it->second.chain.has_value()) return false;
  const ChildPath& chain = *it->second.chain;
  if (chain.var_slot != var_slot || chain.absent) return false;
  *out = chain;
  return true;
}

struct DomainShape {
  CompiledPipeline::Scan scan = CompiledPipeline::Scan::kPrefixOnly;
  std::vector<std::string> prefix;
  std::string scan_name;
  bool id_filter = false;
  std::string id_value;
};

// Rooted path of predicate-free child name steps, with the last step
// optionally a descendant name step (Q14) or a child step carrying the
// [@id = "lit"] predicate (Q1). The first step always stays in the prefix
// family: rooted paths test the document root itself on step 0, which the
// prefix resolver reproduces — a descendant or predicated step 0 would
// not, so those shapes are refused.
bool MatchDomain(const AstNode& n, DomainShape* out) {
  if (n.kind != AstKind::kPath) return false;
  const bool rooted =
      n.absolute || (n.start != nullptr && IsRootedEntryCall(*n.start));
  if (!rooted || n.steps.empty()) return false;
  const size_t last = n.steps.size() - 1;
  for (size_t i = 0; i < last; ++i) {
    const Step& s = n.steps[i];
    if (s.axis != Axis::kChild || s.test != Step::Test::kName ||
        !s.predicates.empty()) {
      return false;
    }
    out->prefix.push_back(s.name);
  }
  const Step& s = n.steps[last];
  if (s.test != Step::Test::kName) return false;
  if (s.axis == Axis::kDescendant) {
    if (!s.predicates.empty() || last == 0) return false;
    out->scan = CompiledPipeline::Scan::kDescendants;
    out->scan_name = s.name;
    return true;
  }
  if (s.axis != Axis::kChild) return false;
  if (s.predicates.empty()) {
    out->prefix.push_back(s.name);
    out->scan = CompiledPipeline::Scan::kPrefixOnly;
    return true;
  }
  // A predicated last step fuses only as the one-predicate id lookup, and
  // only below a non-empty prefix (step 0 predicates apply to the root
  // test, not to a child scan).
  if (s.predicates.size() != 1 || last == 0) return false;
  const AstNode* lit = StepIdLiteral(s);
  if (lit == nullptr) return false;
  out->scan = CompiledPipeline::Scan::kChildren;
  out->scan_name = s.name;
  out->id_filter = true;
  out->id_value = lit->str_value;
  return true;
}

// The evaluator strips a leading "fn:" before its UDF lookup, so a prolog
// function named e.g. "contains" shadows both spellings of the builtin.
bool ShadowedBuiltin(const std::set<std::string>& udfs,
                     std::string_view name) {
  if (name.substr(0, 3) == "fn:") name = name.substr(3);
  return udfs.count(std::string(name)) != 0;
}

// Where clause: absent, contains/starts-with($v-path, "lit"), or the
// existential literal compare <$v-path> OP <literal> (either operand
// order; normalized literal-right via SwapComparison, which preserves the
// evaluator's CompareItems outcome exactly).
bool MatchWhere(const AstNode* where, int var_slot,
                const std::set<std::string>& udfs,
                const PlanAnnotations& plan, CompiledPipeline* pipe) {
  if (where == nullptr) {
    pipe->filter = CompiledPipeline::FilterKind::kNone;
    return true;
  }
  const AstNode& w = *where;
  if (w.kind == AstKind::kFunctionCall) {
    CompiledPipeline::FilterKind kind;
    if (w.str_value == "contains" || w.str_value == "fn:contains") {
      kind = CompiledPipeline::FilterKind::kContains;
    } else if (w.str_value == "starts-with" ||
               w.str_value == "fn:starts-with") {
      kind = CompiledPipeline::FilterKind::kStartsWith;
    } else {
      return false;
    }
    if (ShadowedBuiltin(udfs, w.str_value)) return false;
    if (w.args.size() != 2) return false;
    if (!VarChain(*w.args[0], var_slot, plan, &pipe->filter_path)) {
      return false;
    }
    if (w.args[1]->kind != AstKind::kStringLiteral) return false;
    pipe->filter = kind;
    pipe->needle = w.args[1]->str_value;
    return true;
  }
  if (w.kind != AstKind::kBinary || !IsComparisonOp(w.op)) return false;
  const AstNode* lhs = w.args[0].get();
  const AstNode* rhs = w.args[1].get();
  BinaryOp op = w.op;
  if (IsLiteral(*lhs) && !IsLiteral(*rhs)) {
    std::swap(lhs, rhs);
    op = SwapComparison(op);
  }
  if (!IsLiteral(*rhs)) return false;
  if (!VarChain(*lhs, var_slot, plan, &pipe->filter_path)) return false;
  pipe->filter = CompiledPipeline::FilterKind::kCompare;
  pipe->cmp_op = op;
  pipe->cmp_numeric = rhs->kind == AstKind::kNumberLiteral;
  pipe->cmp_number = rhs->num_value;
  pipe->cmp_str = rhs->str_value;
  return true;
}

// Return clause: $v (emit the binding), a child chain of $v (Q1/Q14
// tails), or count($v//tag) (Q6).
bool MatchRet(const AstNode& ret, int var_slot,
              const std::set<std::string>& udfs, const PlanAnnotations& plan,
              CompiledPipeline* pipe, std::string* count_name) {
  if (VarChain(ret, var_slot, plan, &pipe->tail)) {
    pipe->emit = ret.kind == AstKind::kVarRef
                     ? CompiledPipeline::Emit::kVar
                     : CompiledPipeline::Emit::kTailNodes;
    return true;
  }
  if (ret.kind == AstKind::kFunctionCall &&
      (ret.str_value == "count" || ret.str_value == "fn:count") &&
      !ShadowedBuiltin(udfs, ret.str_value) && ret.args.size() == 1) {
    const AstNode& a = *ret.args[0];
    if (a.kind != AstKind::kPath || a.absolute || a.start == nullptr) {
      return false;
    }
    if (a.start->kind != AstKind::kVarRef || a.start->var_slot != var_slot) {
      return false;
    }
    if (a.steps.size() != 1) return false;
    const Step& s = a.steps[0];
    if (s.axis != Axis::kDescendant || s.test != Step::Test::kName ||
        !s.predicates.empty()) {
      return false;
    }
    *count_name = s.name;
    pipe->emit = CompiledPipeline::Emit::kCount;
    return true;
  }
  return false;
}

void TryFuse(const AstNode& flwor, const std::set<std::string>& udfs,
             const StorageAdapter& store, PlanAnnotations* plan) {
  if (flwor.clauses.size() != 1 || flwor.clauses[0].is_let ||
      flwor.clauses[0].expr == nullptr) {
    return;
  }
  if (!flwor.order_by.empty() || flwor.ret == nullptr) return;
  // Only the plain nested loop fuses: a hash-join strategy already beats
  // the pipeline, and a FLWOR registered as a band-join let must keep its
  // generic fallback semantics when the band index is invalid.
  const auto fit = plan->flwors.find(&flwor);
  if (fit == plan->flwors.end() ||
      fit->second.strategy != FlworPlan::Strategy::kNestedLoop) {
    return;
  }
  if (plan->band_lets.count(&flwor) != 0) return;

  const ForLetClause& clause = flwor.clauses[0];
  DomainShape dom;
  if (!MatchDomain(*clause.expr, &dom)) return;

  CompiledPipeline pipe;
  std::string count_name;
  if (!MatchWhere(flwor.where.get(), clause.var_slot, udfs, *plan, &pipe)) {
    return;
  }
  if (!MatchRet(*flwor.ret, clause.var_slot, udfs, *plan, &pipe,
                &count_name)) {
    return;
  }

  // Every tag resolves against the store dictionary at plan time; a name
  // the document never saw keeps the generic path (which short-circuits
  // unknown tags to empty results anyway — fusing them buys nothing).
  const auto resolve = [&store](const std::string& name, xml::NameId* out) {
    *out = store.names().Lookup(name);
    return *out != xml::kInvalidName;
  };
  pipe.prefix.reserve(dom.prefix.size());
  for (const std::string& name : dom.prefix) {
    xml::NameId id = xml::kInvalidName;
    if (!resolve(name, &id)) return;
    pipe.prefix.push_back(id);
  }
  if (!dom.scan_name.empty() && !resolve(dom.scan_name, &pipe.scan_tag)) {
    return;
  }
  if (!count_name.empty() && !resolve(count_name, &pipe.count_tag)) return;

  pipe.flwor = &flwor;
  pipe.scan = dom.scan;
  pipe.id_filter = dom.id_filter;
  pipe.id_value = std::move(dom.id_value);
  // Mirrors ComputeStepPlan's id_literal condition: the probe replaces the
  // child scan when the store built an ID index.
  pipe.id_lookup = dom.id_filter && plan->caps.id_lookup;
  pipe.dispatch = PipelineDispatch(pipe.filter, pipe.cmp_op, pipe.cmp_numeric);
  pipe.stages = "scan";
  if (pipe.id_filter || pipe.filter == CompiledPipeline::FilterKind::kContains ||
      pipe.filter == CompiledPipeline::FilterKind::kStartsWith) {
    pipe.stages += "|filter";
  }
  if (pipe.filter == CompiledPipeline::FilterKind::kCompare) {
    pipe.stages += "|compare";
  }
  pipe.stages +=
      pipe.emit == CompiledPipeline::Emit::kCount ? "|count" : "|emit";
  pipe.pipeline_id = plan->pipelines.size();
  plan->pipelines.emplace(&flwor, std::move(pipe));
}

void Walk(const AstNode& node, const std::set<std::string>& udfs,
          const StorageAdapter& store, PlanAnnotations* plan) {
  if (node.kind == AstKind::kFlwor) TryFuse(node, udfs, store, plan);
  VisitChildren(node, [&](const AstNode& child) {
    Walk(child, udfs, store, plan);
  });
}

}  // namespace

void FusePipelines(const ParsedQuery& query, const AstNode& root,
                   const StorageAdapter& store, PlanAnnotations* plan) {
  std::set<std::string> udfs;
  for (const FunctionDecl& f : query.functions) udfs.insert(f.name);
  Walk(root, udfs, store, plan);
}

}  // namespace xmark::query
