#include "query/plan.h"

#include <string>

#include "query/exec.h"
#include "util/string_util.h"

namespace xmark::query {

QueryPlan::QueryPlan() = default;
QueryPlan::~QueryPlan() = default;

uint64_t OptionsFingerprint(const EvaluatorOptions& o) {
  uint64_t f = 0;
  const auto bit = [&f](bool b) { f = (f << 1) | (b ? 1u : 0u); };
  bit(o.hash_join);
  bit(o.lazy_let);
  bit(o.cache_invariant_paths);
  bit(o.copy_results);
  return f;
}

namespace {

// Renders the AST with the plan's annotations as indented text. The format
// is pinned by golden tests (tests/query_plan_test.cc) and parsed by the
// CI nested-loop-fallback check, so keep the `strategy=` / `summary:` line
// shapes stable (new summary fields go last).
class ExplainPrinter {
 public:
  explicit ExplainPrinter(const QueryPlan& plan) : plan_(plan) {}

  std::string Render(const ParsedQuery& query) {
    Header();
    for (const FunctionDecl& f : query.functions) {
      Line(0, "function " + f.name);
      Node(*f.body, 1);
    }
    Node(*query.body, 0);
    Footer();
    return std::move(out_);
  }

 private:
  void Header() {
    const PlanAnnotations& a = plan_.ann();
    const EvaluatorOptions& o = a.options;
    out_ += "plan store=" + (a.store_name.empty() ? std::string("?")
                                                  : a.store_name) +
            "\n";
    out_ += "scope: " +
            (a.doc_scope.empty() ? std::string("default-document")
                                 : a.doc_scope) +
            "\n";
    out_ += StringPrintf(
        "options: hash-join=%d lazy-let=%d invariant-cache=%d "
        "copy-results=%d\n",
        o.hash_join, o.lazy_let, o.cache_invariant_paths, o.copy_results);
    const StorageCapabilities& c = a.caps;
    out_ += StringPrintf("capabilities: id-lookup=%d path-index=%d\n",
                         c.id_lookup, c.path_index);
  }

  void Footer() {
    const QueryPlan::Summary s = plan_.Summarize();
    out_ += StringPrintf(
        "summary: hash-join=%d band-count-join=%d construct-template=%d "
        "joinable-nested-loop=%d compiled-pipeline=%d child-kernels=%d\n",
        s.hash_joins, s.band_joins, s.construct_templates,
        s.joinable_nested_loops, s.compiled_pipelines, s.child_kernels);
  }

  void Line(int depth, const std::string& text) {
    out_.append(static_cast<size_t>(depth) * 2, ' ');
    out_ += text;
    out_ += '\n';
  }

  // The access a step's axis takes (see StepPlan).
  static const char* StepAccess(Axis axis) {
    switch (axis) {
      case Axis::kChild:
        return "child-cursor";
      case Axis::kDescendant:
        return "descendant-cursor";
      case Axis::kAttribute:
        return "attribute";
      case Axis::kSelf:
        return "self-filter";
      case Axis::kDescendantOrSelf:
        return "self+descendant-cursor";
    }
    return "?";
  }

  static std::string StepSpec(const Step& s) {
    std::string spec;
    switch (s.axis) {
      case Axis::kChild:
        spec = "/";
        break;
      case Axis::kDescendant:
        spec = "//";
        break;
      case Axis::kAttribute:
        spec = "/@";
        break;
      case Axis::kSelf:
        spec = "/self::";
        break;
      case Axis::kDescendantOrSelf:
        spec = "/descendant-or-self::";
        break;
    }
    switch (s.test) {
      case Step::Test::kName:
        spec += s.name;
        break;
      case Step::Test::kWildcard:
        spec += "*";
        break;
      case Step::Test::kText:
        spec += "text()";
        break;
      case Step::Test::kAnyNode:
        spec += "node()";
        break;
    }
    if (!s.predicates.empty()) {
      spec += StringPrintf("[%zu pred]", s.predicates.size());
    }
    return spec;
  }

  // One-line spelling of a path expression: "$v/a//b[1 pred]/text()".
  static std::string PathSpec(const AstNode& n) {
    std::string spec;
    if (n.start != nullptr) {
      if (n.start->kind == AstKind::kVarRef) {
        spec += "$" + n.start->str_value;
      } else if (IsCollectionCallName(*n.start)) {
        spec += "collection()";
      } else if (IsDocCallName(*n.start)) {
        spec += "document()";
      } else {
        spec += "(...)";
      }
    }
    for (const Step& s : n.steps) spec += StepSpec(s);
    if (spec.empty()) spec = n.absolute ? "/" : ".";
    return spec;
  }

  static bool IsDocCallName(const AstNode& n) {
    return n.kind == AstKind::kFunctionCall &&
           (n.str_value == "document" || n.str_value == "doc" ||
            n.str_value == "fn:doc" || n.str_value == "collection" ||
            n.str_value == "fn:collection");
  }

  static bool IsCollectionCallName(const AstNode& n) {
    return n.kind == AstKind::kFunctionCall &&
           (n.str_value == "collection" || n.str_value == "fn:collection");
  }

  void Path(const AstNode& n, int depth) {
    std::string line = "path " + PathSpec(n);
    const PathPlan* pp = plan_.FindPath(&n);
    if (pp != nullptr) {
      line += " access=[";
      for (size_t i = 0; i < pp->steps.size(); ++i) {
        if (i > 0) line += ",";
        line += i < pp->path_index_steps ? "path-index"
                                         : StepAccess(n.steps[i].axis);
        if (pp->steps[i].id_literal != nullptr) line += "+id-index";
      }
      line += "]";
      if (pp->cacheable) line += " invariant-cached";
      if (pp->chain.has_value()) line += " child-kernel";
    }
    Line(depth, line);
    if (n.start != nullptr && n.start->kind != AstKind::kVarRef &&
        !IsDocCallName(*n.start)) {
      Node(*n.start, depth + 1);
    }
    for (const Step& s : n.steps) {
      for (const AstPtr& p : s.predicates) Node(*p, depth + 1);
    }
  }

  void Flwor(const AstNode& n, int depth) {
    std::string line = "flwor strategy=";
    const FlworPlan* fp = plan_.FindFlwor(&n);
    if (fp != nullptr && fp->strategy == FlworPlan::Strategy::kHashJoin) {
      line += "hash-join key=" + PathSpecOf(fp->hash.inner_key) +
              " probe=" + PathSpecOf(fp->hash.outer_key);
      if (!fp->hash.residue.empty()) {
        line += StringPrintf(" residue=%zu", fp->hash.residue.size());
      }
    } else {
      line += "nested-loop";
      if (fp != nullptr && fp->join_shape) line += " (joinable!)";
      if (fp != nullptr && fp->band_shape &&
          plan_.ann().band_lets.find(&n) == plan_.ann().band_lets.end()) {
        line += " (band-shape)";
      }
    }
    Line(depth, line);
    const CompiledPipeline* pipe = plan_.FindPipeline(&n);
    if (pipe != nullptr) {
      Line(depth + 1, StringPrintf("pipeline %zu fused=[%s]",
                                   pipe->pipeline_id, pipe->stages.c_str()));
    }
    for (const ForLetClause& c : n.clauses) {
      const BandJoinPlan* band =
          c.is_let && c.expr ? plan_.FindBandLet(c.expr.get()) : nullptr;
      if (band != nullptr) {
        Line(depth + 1,
             "let $" + c.var + " := band-count-join op=" +
                 BinaryOpName(band->op) +
                 " domain=" + PathSpecOf(band->domain) +
                 " [sort domain keys once, binary-search each probe]");
        Node(*c.expr, depth + 2);
        continue;
      }
      Line(depth + 1, (c.is_let ? "let $" : "for $") + c.var + " :=");
      if (c.expr) Node(*c.expr, depth + 2);
    }
    if (n.where) {
      Line(depth + 1, "where");
      Node(*n.where, depth + 2);
    }
    for (const OrderSpec& o : n.order_by) {
      Line(depth + 1, o.descending ? "order-by descending" : "order-by");
      Node(*o.key, depth + 2);
    }
    if (n.ret) {
      Line(depth + 1, "return");
      Node(*n.ret, depth + 2);
    }
  }

  static std::string PathSpecOf(const AstNode* n) {
    if (n == nullptr) return "?";
    if (n->kind == AstKind::kPath) return PathSpec(*n);
    if (n->kind == AstKind::kVarRef) return "$" + n->str_value;
    if (n->kind == AstKind::kBinary) {
      return std::string("(") + PathSpecOf(n->args[0].get()) + " " +
             BinaryOpName(n->op) + " " + PathSpecOf(n->args[1].get()) + ")";
    }
    if (n->kind == AstKind::kNumberLiteral) {
      return StringPrintf("%g", n->num_value);
    }
    if (n->kind == AstKind::kStringLiteral) return "\"" + n->str_value + "\"";
    return "(...)";
  }

  void Node(const AstNode& n, int depth) {
    switch (n.kind) {
      case AstKind::kPath:
        Path(n, depth);
        return;
      case AstKind::kFlwor:
        Flwor(n, depth);
        return;
      case AstKind::kQuantified: {
        Line(depth, n.is_every ? "every" : "some");
        for (const ForLetClause& c : n.clauses) {
          Line(depth + 1, "for $" + c.var + " in");
          if (c.expr) Node(*c.expr, depth + 2);
        }
        if (n.where) {
          Line(depth + 1, "satisfies");
          Node(*n.where, depth + 2);
        }
        return;
      }
      case AstKind::kBinary: {
        Line(depth, std::string("op ") + BinaryOpName(n.op) +
                        (plan_.FindPredicate(&n) != nullptr
                             ? " native-predicate"
                             : ""));
        for (const AstPtr& a : n.args) Node(*a, depth + 1);
        return;
      }
      case AstKind::kFunctionCall: {
        Line(depth, "call " + n.str_value +
                        (plan_.FindPredicate(&n) != nullptr
                             ? " native-predicate"
                             : ""));
        for (const AstPtr& a : n.args) Node(*a, depth + 1);
        return;
      }
      case AstKind::kElementConstructor: {
        std::string line = "constructor <" + n.tag + ">";
        const ConstructPlan* cp = plan_.FindConstruct(&n);
        if (cp != nullptr) {
          // Arena template: the static shell (nested elements, constant
          // attrs/text) is instantiated per binding from one per-run
          // compiled form; only the holes are evaluated dynamically.
          line += StringPrintf(
              " template=[elements=%zu const-text=%zu holes=%zu "
              "const-attrs=%zu dyn-attrs=%zu]",
              cp->elements.size(), cp->const_texts.size(), cp->hole_count,
              cp->const_attr_count, cp->dyn_attr_count);
        }
        Line(depth, line);
        for (const AttrConstructor& attr : n.attrs) {
          for (const AttrPart& part : attr.parts) {
            if (part.expr) Node(*part.expr, depth + 1);
          }
        }
        for (const AstPtr& c : n.content) Node(*c, depth + 1);
        return;
      }
      case AstKind::kIf: {
        Line(depth, "if");
        for (const AstPtr& a : n.args) Node(*a, depth + 1);
        return;
      }
      case AstKind::kSequenceExpr: {
        Line(depth, "sequence");
        for (const AstPtr& a : n.args) Node(*a, depth + 1);
        return;
      }
      case AstKind::kUnaryMinus: {
        Line(depth, "negate");
        Node(*n.args[0], depth + 1);
        return;
      }
      case AstKind::kVarRef:
        Line(depth, "var $" + n.str_value);
        return;
      case AstKind::kStringLiteral:
        Line(depth, "literal \"" + n.str_value + "\"");
        return;
      case AstKind::kNumberLiteral:
        Line(depth, StringPrintf("literal %g", n.num_value));
        return;
      case AstKind::kContextItem:
        Line(depth, "context-item");
        return;
    }
    Line(depth, "expr");
  }

  const QueryPlan& plan_;
  std::string out_;
};

}  // namespace

std::string QueryPlan::Explain(const ParsedQuery& query) const {
  return ExplainPrinter(*this).Render(query);
}

QueryPlan::Summary QueryPlan::Summarize() const {
  const PlanAnnotations& a = ann();
  Summary s;
  s.band_joins = static_cast<int>(a.band_lets.size());
  s.construct_templates = static_cast<int>(a.constructs.size());
  s.compiled_pipelines = static_cast<int>(a.pipelines.size());
  for (const auto& [node, pp] : a.paths) {
    if (pp.chain.has_value()) ++s.child_kernels;
  }
  for (const auto& [node, fp] : a.flwors) {
    if (fp.strategy == FlworPlan::Strategy::kHashJoin) {
      ++s.hash_joins;
    } else if (fp.join_shape) {
      ++s.joinable_nested_loops;  // decorrelatable, hash_join off
    } else if (fp.band_shape &&
               a.band_lets.find(node) == a.band_lets.end()) {
      ++s.joinable_nested_loops;  // band shape not converted
    }
  }
  return s;
}

}  // namespace xmark::query
