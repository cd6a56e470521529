#include "query/parser.h"

#include <cctype>
#include <unordered_map>

#include "util/fault_injection.h"
#include "util/string_util.h"

namespace xmark::query {
namespace {

AstPtr MakeNode(AstKind kind) { return std::make_unique<AstNode>(kind); }

AstPtr MakeBinary(BinaryOp op, AstPtr lhs, AstPtr rhs) {
  AstPtr node = MakeNode(AstKind::kBinary);
  node->op = op;
  node->args.push_back(std::move(lhs));
  node->args.push_back(std::move(rhs));
  return node;
}

bool IsXmlNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsXmlNameChar(char c) {
  return IsXmlNameStart(c) || std::isdigit(static_cast<unsigned char>(c)) ||
         c == '-' || c == '.' || c == ':';
}

// Interns every variable name of a module into a dense slot space: each
// distinct name gets one slot, shared by all its (possibly shadowing)
// bindings, so variable lookup is a vector index instead of a
// string-keyed search. Deterministic for a given AST.
class SlotResolver {
 public:
  explicit SlotResolver(std::vector<std::string>* names) : names_(names) {}

  int SlotOf(const std::string& name) {
    const auto [it, inserted] =
        slots_.emplace(name, static_cast<int>(slots_.size()));
    if (inserted) names_->push_back(name);
    return it->second;
  }

  void Visit(AstNode& node) {
    if (node.kind == AstKind::kVarRef) {
      node.var_slot = SlotOf(node.str_value);
    }
    if (node.start) Visit(*node.start);
    for (Step& s : node.steps) {
      for (AstPtr& p : s.predicates) Visit(*p);
    }
    for (ForLetClause& c : node.clauses) {
      c.var_slot = SlotOf(c.var);
      if (c.expr) Visit(*c.expr);
    }
    if (node.where) Visit(*node.where);
    for (OrderSpec& o : node.order_by) Visit(*o.key);
    if (node.ret) Visit(*node.ret);
    for (AstPtr& a : node.args) Visit(*a);
    for (AttrConstructor& attr : node.attrs) {
      for (AttrPart& part : attr.parts) {
        if (part.expr) Visit(*part.expr);
      }
    }
    for (AstPtr& c : node.content) Visit(*c);
  }

 private:
  std::unordered_map<std::string, int> slots_;
  std::vector<std::string>* names_;
};

void ResolveVariableSlots(ParsedQuery& query) {
  SlotResolver resolver(&query.var_names);
  for (FunctionDecl& f : query.functions) {
    for (const std::string& p : f.params) {
      f.param_slots.push_back(resolver.SlotOf(p));
    }
    resolver.Visit(*f.body);
  }
  resolver.Visit(*query.body);
}

}  // namespace

Parser::Parser(std::string_view input) : lexer_(input) {
  // cur_ is filled by the first Advance() in the Parse* entry points.
}

Status Parser::Advance() {
  StatusOr<Token> tok = lexer_.Next();
  if (!tok.ok()) {
    return FailAt(ParseErrorCode::kLexError, lexer_.position(),
                  tok.status().message());
  }
  cur_ = *tok;
  return Status::OK();
}

Status Parser::Expect(TokenKind kind, const char* what) {
  if (cur_.kind != kind) {
    return Fail(ParseErrorCode::kUnexpectedToken, std::string("expected ") + what);
  }
  return Advance();
}

StatusOr<Token> Parser::PeekNext() {
  const size_t save = lexer_.position();
  StatusOr<Token> tok = lexer_.Next();
  lexer_.SetPosition(save);
  if (!tok.ok()) {
    return FailAt(ParseErrorCode::kLexError, save, tok.status().message());
  }
  return tok;
}

Status Parser::Fail(ParseErrorCode code, const std::string& message) const {
  return FailAt(code, cur_.begin, message);
}

Status Parser::FailAt(ParseErrorCode code, size_t offset,
                      const std::string& message) const {
  const std::string_view src = lexer_.input();
  offset = std::min(offset, src.size());
  size_t line = 1;
  size_t bol = 0;  // offset of the current line's first character
  for (size_t i = 0; i < offset; ++i) {
    if (src[i] == '\n') {
      ++line;
      bol = i + 1;
    }
  }
  std::string near(
      src.substr(offset, std::min<size_t>(20, src.size() - offset)));
  return Status::InvalidQuery(
      "[" + std::string(ParseErrorCodeSlug(code)) + "] " +
      std::to_string(line) + ":" + std::to_string(offset - bol + 1) + ": " +
      message + " (near '" + near + "')");
}

StatusOr<ParsedQuery> Parser::ParseQuery() {
  XMARK_RETURN_IF_ERROR(Advance());
  ParsedQuery query;
  // Prolog: declare function name($p, ...) { Expr };
  while (CurIsIdent("declare")) {
    XMARK_RETURN_IF_ERROR(Advance());
    if (!CurIsIdent("function")) return Fail(ParseErrorCode::kUnexpectedToken, "expected 'function'");
    XMARK_RETURN_IF_ERROR(Advance());
    if (!CurIs(TokenKind::kIdent)) return Fail(ParseErrorCode::kUnexpectedToken, "expected function name");
    FunctionDecl decl;
    decl.name = cur_.text;
    XMARK_RETURN_IF_ERROR(Advance());
    XMARK_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
    while (!CurIs(TokenKind::kRParen)) {
      if (!CurIs(TokenKind::kVar)) return Fail(ParseErrorCode::kUnexpectedToken, "expected parameter");
      decl.params.push_back(cur_.text);
      XMARK_RETURN_IF_ERROR(Advance());
      // Optional "as type" annotations are skipped.
      if (CurIsIdent("as")) {
        XMARK_RETURN_IF_ERROR(Advance());
        if (!CurIs(TokenKind::kIdent)) return Fail(ParseErrorCode::kUnexpectedToken, "expected type name");
        XMARK_RETURN_IF_ERROR(Advance());
        if (CurIs(TokenKind::kStar)) XMARK_RETURN_IF_ERROR(Advance());
      }
      if (CurIs(TokenKind::kComma)) XMARK_RETURN_IF_ERROR(Advance());
    }
    XMARK_RETURN_IF_ERROR(Advance());  // ')'
    XMARK_RETURN_IF_ERROR(Expect(TokenKind::kLBrace, "'{'"));
    XMARK_ASSIGN_OR_RETURN(decl.body, ParseExpr());
    XMARK_RETURN_IF_ERROR(Expect(TokenKind::kRBrace, "'}'"));
    XMARK_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'"));
    query.functions.push_back(std::move(decl));
  }
  XMARK_ASSIGN_OR_RETURN(query.body, ParseExpr());
  if (!CurIs(TokenKind::kEof)) return Fail(ParseErrorCode::kTrailingInput, "trailing input");
  // Compile-time variable interning: bindings and references resolve to
  // environment slots here, so a returned module is never written again.
  ResolveVariableSlots(query);
  return query;
}

StatusOr<AstPtr> Parser::ParseExpression() {
  XMARK_RETURN_IF_ERROR(Advance());
  XMARK_ASSIGN_OR_RETURN(AstPtr expr, ParseExpr());
  if (!CurIs(TokenKind::kEof)) return Fail(ParseErrorCode::kTrailingInput, "trailing input");
  return expr;
}

StatusOr<AstPtr> Parser::ParseExpr() {
  XMARK_ASSIGN_OR_RETURN(AstPtr first, ParseExprSingle());
  if (!CurIs(TokenKind::kComma)) return first;
  AstPtr seq = MakeNode(AstKind::kSequenceExpr);
  seq->args.push_back(std::move(first));
  while (CurIs(TokenKind::kComma)) {
    XMARK_RETURN_IF_ERROR(Advance());
    XMARK_ASSIGN_OR_RETURN(AstPtr next, ParseExprSingle());
    seq->args.push_back(std::move(next));
  }
  return seq;
}

StatusOr<AstPtr> Parser::ParseExprSingle() {
  DepthGuard depth(this);
  if (depth_ > kMaxExprDepth) {
    return Fail(ParseErrorCode::kNestingTooDeep,
                "expression nesting exceeds " +
                std::to_string(kMaxExprDepth) + " levels");
  }
  if (cur_.kind == TokenKind::kIdent) {
    // Keywords are contextual: "for" is a FLWOR only when followed by $var.
    if (cur_.text == "for" || cur_.text == "let") {
      XMARK_ASSIGN_OR_RETURN(Token next, PeekNext());
      if (next.kind == TokenKind::kVar) return ParseFlwor();
    } else if (cur_.text == "some" || cur_.text == "every") {
      XMARK_ASSIGN_OR_RETURN(Token next, PeekNext());
      if (next.kind == TokenKind::kVar) return ParseQuantified();
    } else if (cur_.text == "if") {
      XMARK_ASSIGN_OR_RETURN(Token next, PeekNext());
      if (next.kind == TokenKind::kLParen) return ParseIf();
    }
  }
  return ParseOr();
}

StatusOr<AstPtr> Parser::ParseFlwor() {
  AstPtr node = MakeNode(AstKind::kFlwor);
  while (true) {
    if (CurIsIdent("for")) {
      XMARK_RETURN_IF_ERROR(Advance());
      while (true) {
        if (!CurIs(TokenKind::kVar)) return Fail(ParseErrorCode::kUnexpectedToken, "expected $var after 'for'");
        ForLetClause clause;
        clause.is_let = false;
        clause.var = cur_.text;
        XMARK_RETURN_IF_ERROR(Advance());
        if (!CurIsIdent("in")) return Fail(ParseErrorCode::kUnexpectedToken, "expected 'in'");
        XMARK_RETURN_IF_ERROR(Advance());
        XMARK_ASSIGN_OR_RETURN(clause.expr, ParseExprSingle());
        node->clauses.push_back(std::move(clause));
        if (!CurIs(TokenKind::kComma)) break;
        XMARK_RETURN_IF_ERROR(Advance());
      }
    } else if (CurIsIdent("let")) {
      XMARK_RETURN_IF_ERROR(Advance());
      while (true) {
        if (!CurIs(TokenKind::kVar)) return Fail(ParseErrorCode::kUnexpectedToken, "expected $var after 'let'");
        ForLetClause clause;
        clause.is_let = true;
        clause.var = cur_.text;
        XMARK_RETURN_IF_ERROR(Advance());
        XMARK_RETURN_IF_ERROR(Expect(TokenKind::kAssign, "':='"));
        XMARK_ASSIGN_OR_RETURN(clause.expr, ParseExprSingle());
        node->clauses.push_back(std::move(clause));
        if (!CurIs(TokenKind::kComma)) break;
        XMARK_RETURN_IF_ERROR(Advance());
      }
    } else {
      break;
    }
  }
  if (node->clauses.empty()) return Fail(ParseErrorCode::kUnexpectedToken, "FLWOR without clauses");
  if (CurIsIdent("where")) {
    XMARK_RETURN_IF_ERROR(Advance());
    XMARK_ASSIGN_OR_RETURN(node->where, ParseExprSingle());
  }
  if (CurIsIdent("stable")) XMARK_RETURN_IF_ERROR(Advance());
  if (CurIsIdent("order") || CurIsIdent("sort")) {
    XMARK_RETURN_IF_ERROR(Advance());
    if (!CurIsIdent("by")) return Fail(ParseErrorCode::kUnexpectedToken, "expected 'by'");
    XMARK_RETURN_IF_ERROR(Advance());
    while (true) {
      OrderSpec spec;
      XMARK_ASSIGN_OR_RETURN(spec.key, ParseExprSingle());
      if (CurIsIdent("ascending")) {
        XMARK_RETURN_IF_ERROR(Advance());
      } else if (CurIsIdent("descending")) {
        spec.descending = true;
        XMARK_RETURN_IF_ERROR(Advance());
      }
      node->order_by.push_back(std::move(spec));
      if (!CurIs(TokenKind::kComma)) break;
      XMARK_RETURN_IF_ERROR(Advance());
    }
  }
  if (!CurIsIdent("return")) return Fail(ParseErrorCode::kUnexpectedToken, "expected 'return'");
  XMARK_RETURN_IF_ERROR(Advance());
  XMARK_ASSIGN_OR_RETURN(node->ret, ParseExprSingle());
  return node;
}

StatusOr<AstPtr> Parser::ParseQuantified() {
  AstPtr node = MakeNode(AstKind::kQuantified);
  node->is_every = CurIsIdent("every");
  XMARK_RETURN_IF_ERROR(Advance());
  while (true) {
    if (!CurIs(TokenKind::kVar)) return Fail(ParseErrorCode::kUnexpectedToken, "expected $var in quantifier");
    ForLetClause clause;
    clause.var = cur_.text;
    XMARK_RETURN_IF_ERROR(Advance());
    if (!CurIsIdent("in")) return Fail(ParseErrorCode::kUnexpectedToken, "expected 'in'");
    XMARK_RETURN_IF_ERROR(Advance());
    XMARK_ASSIGN_OR_RETURN(clause.expr, ParseExprSingle());
    node->clauses.push_back(std::move(clause));
    if (!CurIs(TokenKind::kComma)) break;
    XMARK_RETURN_IF_ERROR(Advance());
  }
  if (!CurIsIdent("satisfies")) return Fail(ParseErrorCode::kUnexpectedToken, "expected 'satisfies'");
  XMARK_RETURN_IF_ERROR(Advance());
  XMARK_ASSIGN_OR_RETURN(node->where, ParseExprSingle());
  return node;
}

StatusOr<AstPtr> Parser::ParseIf() {
  XMARK_RETURN_IF_ERROR(Advance());  // 'if'
  XMARK_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
  AstPtr node = MakeNode(AstKind::kIf);
  XMARK_ASSIGN_OR_RETURN(AstPtr cond, ParseExpr());
  XMARK_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
  if (!CurIsIdent("then")) return Fail(ParseErrorCode::kUnexpectedToken, "expected 'then'");
  XMARK_RETURN_IF_ERROR(Advance());
  XMARK_ASSIGN_OR_RETURN(AstPtr then_branch, ParseExprSingle());
  if (!CurIsIdent("else")) return Fail(ParseErrorCode::kUnexpectedToken, "expected 'else'");
  XMARK_RETURN_IF_ERROR(Advance());
  XMARK_ASSIGN_OR_RETURN(AstPtr else_branch, ParseExprSingle());
  node->args.push_back(std::move(cond));
  node->args.push_back(std::move(then_branch));
  node->args.push_back(std::move(else_branch));
  return node;
}

StatusOr<AstPtr> Parser::ParseOr() {
  XMARK_ASSIGN_OR_RETURN(AstPtr lhs, ParseAnd());
  while (CurIsIdent("or")) {
    XMARK_RETURN_IF_ERROR(Advance());
    XMARK_ASSIGN_OR_RETURN(AstPtr rhs, ParseAnd());
    lhs = MakeBinary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

StatusOr<AstPtr> Parser::ParseAnd() {
  XMARK_ASSIGN_OR_RETURN(AstPtr lhs, ParseComparison());
  while (CurIsIdent("and")) {
    XMARK_RETURN_IF_ERROR(Advance());
    XMARK_ASSIGN_OR_RETURN(AstPtr rhs, ParseComparison());
    lhs = MakeBinary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

StatusOr<AstPtr> Parser::ParseComparison() {
  XMARK_ASSIGN_OR_RETURN(AstPtr lhs, ParseAdditive());
  BinaryOp op;
  bool has_op = true;
  switch (cur_.kind) {
    case TokenKind::kEq:
      op = BinaryOp::kEq;
      break;
    case TokenKind::kNe:
      op = BinaryOp::kNe;
      break;
    case TokenKind::kLt:
      op = BinaryOp::kLt;
      break;
    case TokenKind::kLe:
      op = BinaryOp::kLe;
      break;
    case TokenKind::kGt:
      op = BinaryOp::kGt;
      break;
    case TokenKind::kGe:
      op = BinaryOp::kGe;
      break;
    case TokenKind::kLtLt:
      op = BinaryOp::kBefore;
      break;
    case TokenKind::kGtGt:
      op = BinaryOp::kAfter;
      break;
    case TokenKind::kIdent:
      // Value comparison spellings map onto the general comparisons.
      if (cur_.text == "eq") {
        op = BinaryOp::kEq;
      } else if (cur_.text == "ne") {
        op = BinaryOp::kNe;
      } else if (cur_.text == "lt") {
        op = BinaryOp::kLt;
      } else if (cur_.text == "le") {
        op = BinaryOp::kLe;
      } else if (cur_.text == "gt") {
        op = BinaryOp::kGt;
      } else if (cur_.text == "ge") {
        op = BinaryOp::kGe;
      } else {
        has_op = false;
      }
      break;
    default:
      has_op = false;
  }
  if (!has_op) return lhs;
  XMARK_RETURN_IF_ERROR(Advance());
  XMARK_ASSIGN_OR_RETURN(AstPtr rhs, ParseAdditive());
  return MakeBinary(op, std::move(lhs), std::move(rhs));
}

StatusOr<AstPtr> Parser::ParseAdditive() {
  XMARK_ASSIGN_OR_RETURN(AstPtr lhs, ParseMultiplicative());
  while (CurIs(TokenKind::kPlus) || CurIs(TokenKind::kMinus)) {
    const BinaryOp op =
        CurIs(TokenKind::kPlus) ? BinaryOp::kAdd : BinaryOp::kSub;
    XMARK_RETURN_IF_ERROR(Advance());
    XMARK_ASSIGN_OR_RETURN(AstPtr rhs, ParseMultiplicative());
    lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

StatusOr<AstPtr> Parser::ParseMultiplicative() {
  XMARK_ASSIGN_OR_RETURN(AstPtr lhs, ParseUnary());
  while (CurIs(TokenKind::kStar) || CurIsIdent("div") || CurIsIdent("mod")) {
    BinaryOp op = BinaryOp::kMul;
    if (CurIsIdent("div")) op = BinaryOp::kDiv;
    if (CurIsIdent("mod")) op = BinaryOp::kMod;
    XMARK_RETURN_IF_ERROR(Advance());
    XMARK_ASSIGN_OR_RETURN(AstPtr rhs, ParseUnary());
    lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

StatusOr<AstPtr> Parser::ParseUnary() {
  // Direct self-recursion ("----1") bypasses ParseExprSingle, so it
  // carries its own depth guard.
  DepthGuard depth(this);
  if (depth_ > kMaxExprDepth) {
    return Fail(ParseErrorCode::kNestingTooDeep,
                "expression nesting exceeds " +
                std::to_string(kMaxExprDepth) + " levels");
  }
  if (CurIs(TokenKind::kMinus)) {
    XMARK_RETURN_IF_ERROR(Advance());
    XMARK_ASSIGN_OR_RETURN(AstPtr operand, ParseUnary());
    AstPtr node = MakeNode(AstKind::kUnaryMinus);
    node->args.push_back(std::move(operand));
    return node;
  }
  return ParsePath();
}

Status Parser::ParsePredicates(std::vector<AstPtr>* predicates) {
  while (CurIs(TokenKind::kLBracket)) {
    XMARK_RETURN_IF_ERROR(Advance());
    XMARK_ASSIGN_OR_RETURN(AstPtr pred, ParseExpr());
    XMARK_RETURN_IF_ERROR(Expect(TokenKind::kRBracket, "']'"));
    predicates->push_back(std::move(pred));
  }
  return Status::OK();
}

Status Parser::ParseStep(Axis axis, std::vector<Step>* steps) {
  Step step;
  step.axis = axis;
  if (CurIs(TokenKind::kAt)) {
    XMARK_RETURN_IF_ERROR(Advance());
    if (!CurIs(TokenKind::kIdent)) return Fail(ParseErrorCode::kUnexpectedToken, "expected attribute name");
    if (axis == Axis::kDescendant) {
      // `//@x` is descendant-or-self::node()/attribute::x.
      Step all;
      all.axis = Axis::kDescendantOrSelf;
      all.test = Step::Test::kAnyNode;
      steps->push_back(std::move(all));
    }
    step.axis = Axis::kAttribute;
    step.name = cur_.text;
    XMARK_RETURN_IF_ERROR(Advance());
  } else if (CurIs(TokenKind::kStar)) {
    step.test = Step::Test::kWildcard;
    XMARK_RETURN_IF_ERROR(Advance());
  } else if (CurIs(TokenKind::kDot)) {
    step.axis = Axis::kSelf;
    step.test = Step::Test::kAnyNode;
    XMARK_RETURN_IF_ERROR(Advance());
  } else if (CurIs(TokenKind::kIdent)) {
    if (cur_.text == "text" || cur_.text == "node") {
      XMARK_ASSIGN_OR_RETURN(Token next, PeekNext());
      if (next.kind == TokenKind::kLParen) {
        step.test =
            cur_.text == "text" ? Step::Test::kText : Step::Test::kAnyNode;
        XMARK_RETURN_IF_ERROR(Advance());
        XMARK_RETURN_IF_ERROR(Advance());  // '('
        XMARK_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
        XMARK_RETURN_IF_ERROR(ParsePredicates(&step.predicates));
        steps->push_back(std::move(step));
        return Status::OK();
      }
    }
    step.name = cur_.text;
    XMARK_RETURN_IF_ERROR(Advance());
  } else {
    return Fail(ParseErrorCode::kUnexpectedToken, "expected a path step");
  }
  XMARK_RETURN_IF_ERROR(ParsePredicates(&step.predicates));
  steps->push_back(std::move(step));
  return Status::OK();
}

StatusOr<AstPtr> Parser::ParsePath() {
  AstPtr path = MakeNode(AstKind::kPath);

  if (CurIs(TokenKind::kSlash) || CurIs(TokenKind::kSlashSlash)) {
    path->absolute = true;
    Axis axis =
        CurIs(TokenKind::kSlashSlash) ? Axis::kDescendant : Axis::kChild;
    XMARK_RETURN_IF_ERROR(Advance());
    // A lone '/' denotes the root.
    if (axis == Axis::kChild && !CurIs(TokenKind::kIdent) &&
        !CurIs(TokenKind::kStar) && !CurIs(TokenKind::kAt) &&
        !CurIs(TokenKind::kDot)) {
      return path;
    }
    XMARK_RETURN_IF_ERROR(ParseStep(axis, &path->steps));
  } else {
    // Leading primary or name-test step.
    bool is_primary = false;
    switch (cur_.kind) {
      case TokenKind::kVar:
      case TokenKind::kString:
      case TokenKind::kNumber:
      case TokenKind::kLParen:
      case TokenKind::kLt:
        is_primary = true;
        break;
      case TokenKind::kIdent: {
        // A name followed by '(' is a function call — except the node-kind
        // tests text() / node().
        if (cur_.text != "text" && cur_.text != "node") {
          XMARK_ASSIGN_OR_RETURN(Token next, PeekNext());
          is_primary = (next.kind == TokenKind::kLParen);
        }
        break;
      }
      default:
        is_primary = false;
    }
    if (is_primary) {
      XMARK_ASSIGN_OR_RETURN(path->start, ParsePrimary());
      if (CurIs(TokenKind::kLBracket)) {
        Step self;
        self.axis = Axis::kSelf;
        self.test = Step::Test::kAnyNode;
        XMARK_RETURN_IF_ERROR(ParsePredicates(&self.predicates));
        path->steps.push_back(std::move(self));
      }
    } else {
      XMARK_RETURN_IF_ERROR(ParseStep(Axis::kChild, &path->steps));
    }
  }

  while (CurIs(TokenKind::kSlash) || CurIs(TokenKind::kSlashSlash)) {
    const Axis axis =
        CurIs(TokenKind::kSlashSlash) ? Axis::kDescendant : Axis::kChild;
    XMARK_RETURN_IF_ERROR(Advance());
    XMARK_RETURN_IF_ERROR(ParseStep(axis, &path->steps));
  }

  // Collapse trivial wrappers: a primary with no steps is just the primary.
  if (path->start != nullptr && path->steps.empty() && !path->absolute) {
    return std::move(path->start);
  }
  return path;
}

StatusOr<AstPtr> Parser::ParsePrimary() {
  switch (cur_.kind) {
    case TokenKind::kVar: {
      AstPtr node = MakeNode(AstKind::kVarRef);
      node->str_value = cur_.text;
      XMARK_RETURN_IF_ERROR(Advance());
      return node;
    }
    case TokenKind::kString: {
      AstPtr node = MakeNode(AstKind::kStringLiteral);
      node->str_value = cur_.text;
      XMARK_RETURN_IF_ERROR(Advance());
      return node;
    }
    case TokenKind::kNumber: {
      AstPtr node = MakeNode(AstKind::kNumberLiteral);
      node->num_value = cur_.number;
      XMARK_RETURN_IF_ERROR(Advance());
      return node;
    }
    case TokenKind::kLParen: {
      XMARK_RETURN_IF_ERROR(Advance());
      if (CurIs(TokenKind::kRParen)) {  // () — the empty sequence
        XMARK_RETURN_IF_ERROR(Advance());
        return MakeNode(AstKind::kSequenceExpr);
      }
      XMARK_ASSIGN_OR_RETURN(AstPtr inner, ParseExpr());
      XMARK_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      return inner;
    }
    case TokenKind::kLt: {
      size_t resume = 0;
      XMARK_ASSIGN_OR_RETURN(AstPtr node,
                             ParseConstructorAt(cur_.begin, &resume));
      lexer_.SetPosition(resume);
      XMARK_RETURN_IF_ERROR(Advance());
      return node;
    }
    case TokenKind::kIdent: {
      AstPtr node = MakeNode(AstKind::kFunctionCall);
      node->str_value = cur_.text;
      XMARK_RETURN_IF_ERROR(Advance());
      XMARK_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
      while (!CurIs(TokenKind::kRParen)) {
        XMARK_ASSIGN_OR_RETURN(AstPtr arg, ParseExprSingle());
        node->args.push_back(std::move(arg));
        if (CurIs(TokenKind::kComma)) {
          XMARK_RETURN_IF_ERROR(Advance());
        } else {
          break;
        }
      }
      XMARK_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      return node;
    }
    default:
      return Fail(ParseErrorCode::kUnexpectedToken, "expected a primary expression");
  }
}

StatusOr<AstPtr> Parser::ParseEmbeddedExpr(size_t pos, size_t* resume) {
  // pos points at '{'. Hand the region to the token-level parser.
  lexer_.SetPosition(pos + 1);
  XMARK_RETURN_IF_ERROR(Advance());
  XMARK_ASSIGN_OR_RETURN(AstPtr expr, ParseExpr());
  if (!CurIs(TokenKind::kRBrace)) return Fail(ParseErrorCode::kUnexpectedToken, "expected '}'");
  *resume = cur_.end;
  return expr;
}

StatusOr<AstPtr> Parser::ParseConstructorAt(size_t pos, size_t* resume) {
  // Nested constructors ("<a><a><a>…") recurse here directly, outside
  // ParseExprSingle, so this entry point guards its own depth.
  DepthGuard depth(this);
  if (depth_ > kMaxExprDepth) {
    return Fail(ParseErrorCode::kNestingTooDeep,
                "expression nesting exceeds " +
                std::to_string(kMaxExprDepth) + " levels");
  }
  const std::string_view src = lexer_.input();
  if (pos >= src.size() || src[pos] != '<') {
    return FailAt(ParseErrorCode::kBadConstructor, pos,
                  "constructor must start with '<'");
  }
  size_t p = pos + 1;
  if (p >= src.size() || !IsXmlNameStart(src[p])) {
    return FailAt(ParseErrorCode::kBadConstructor, p,
                  "expected element name in constructor");
  }
  AstPtr node = MakeNode(AstKind::kElementConstructor);
  const size_t name_start = p;
  while (p < src.size() && IsXmlNameChar(src[p])) ++p;
  node->tag = std::string(src.substr(name_start, p - name_start));

  auto skip_ws = [&] {
    while (p < src.size() && std::isspace(static_cast<unsigned char>(src[p]))) {
      ++p;
    }
  };

  // Attributes.
  bool self_closing = false;
  while (true) {
    skip_ws();
    if (p >= src.size()) {
      return FailAt(ParseErrorCode::kUnterminatedConstructor, p,
                    "unterminated constructor");
    }
    if (src[p] == '>') {
      ++p;
      break;
    }
    if (src[p] == '/' && p + 1 < src.size() && src[p + 1] == '>') {
      self_closing = true;
      p += 2;
      break;
    }
    if (!IsXmlNameStart(src[p])) {
      return FailAt(ParseErrorCode::kBadConstructorAttr, p,
                    "malformed constructor attribute");
    }
    AttrConstructor attr;
    const size_t an = p;
    while (p < src.size() && IsXmlNameChar(src[p])) ++p;
    attr.name = std::string(src.substr(an, p - an));
    skip_ws();
    if (p >= src.size() || src[p] != '=') {
      return FailAt(ParseErrorCode::kBadConstructorAttr, p,
                    "expected '=' in constructor attribute");
    }
    ++p;
    skip_ws();
    if (p >= src.size() || (src[p] != '"' && src[p] != '\'')) {
      return FailAt(ParseErrorCode::kBadConstructorAttr, p,
                    "expected quoted attribute value");
    }
    const char quote = src[p];
    ++p;
    std::string literal;
    while (true) {
      if (p >= src.size()) {
        return FailAt(ParseErrorCode::kUnterminatedConstructor, p,
                      "unterminated attribute value");
      }
      const char c = src[p];
      if (c == quote) {
        ++p;
        break;
      }
      if (c == '{') {
        if (p + 1 < src.size() && src[p + 1] == '{') {
          literal.push_back('{');
          p += 2;
          continue;
        }
        if (!literal.empty()) {
          attr.parts.push_back(AttrPart{std::move(literal), nullptr});
          literal.clear();
        }
        size_t after = 0;
        XMARK_ASSIGN_OR_RETURN(AstPtr expr, ParseEmbeddedExpr(p, &after));
        attr.parts.push_back(AttrPart{"", std::move(expr)});
        p = after;
        continue;
      }
      if (c == '}') {
        if (p + 1 < src.size() && src[p + 1] == '}') {
          literal.push_back('}');
          p += 2;
          continue;
        }
        return FailAt(ParseErrorCode::kUnescapedBrace, p,
                      "unescaped '}' in attribute value");
      }
      literal.push_back(c);
      ++p;
    }
    if (!literal.empty()) {
      attr.parts.push_back(AttrPart{std::move(literal), nullptr});
    }
    node->attrs.push_back(std::move(attr));
  }

  if (self_closing) {
    *resume = p;
    return node;
  }

  // Content: text, embedded expressions, nested constructors.
  std::string text;
  auto flush_text = [&] {
    // Boundary-space policy: whitespace-only runs between tags are dropped
    // (the XQuery default).
    if (TrimWhitespace(text).empty()) {
      text.clear();
      return;
    }
    AstPtr lit = MakeNode(AstKind::kStringLiteral);
    lit->str_value = std::move(text);
    text.clear();
    node->content.push_back(std::move(lit));
  };

  while (true) {
    if (p >= src.size()) {
      return FailAt(ParseErrorCode::kUnterminatedConstructor, p,
                    "unterminated constructor content");
    }
    const char c = src[p];
    if (c == '<') {
      if (p + 1 < src.size() && src[p + 1] == '/') {
        flush_text();
        size_t q = p + 2;
        const size_t en = q;
        while (q < src.size() && IsXmlNameChar(src[q])) ++q;
        if (src.substr(en, q - en) != node->tag) {
          return FailAt(ParseErrorCode::kMismatchedEndTag, p,
                        "mismatched constructor end tag </" +
                            std::string(src.substr(en, q - en)) + ">");
        }
        while (q < src.size() &&
               std::isspace(static_cast<unsigned char>(src[q]))) {
          ++q;
        }
        if (q >= src.size() || src[q] != '>') {
          return FailAt(ParseErrorCode::kMismatchedEndTag, q,
                        "malformed constructor end tag");
        }
        *resume = q + 1;
        return node;
      }
      flush_text();
      size_t after = 0;
      XMARK_ASSIGN_OR_RETURN(AstPtr child, ParseConstructorAt(p, &after));
      node->content.push_back(std::move(child));
      p = after;
      continue;
    }
    if (c == '{') {
      if (p + 1 < src.size() && src[p + 1] == '{') {
        text.push_back('{');
        p += 2;
        continue;
      }
      flush_text();
      size_t after = 0;
      XMARK_ASSIGN_OR_RETURN(AstPtr expr, ParseEmbeddedExpr(p, &after));
      node->content.push_back(std::move(expr));
      p = after;
      continue;
    }
    if (c == '}') {
      if (p + 1 < src.size() && src[p + 1] == '}') {
        text.push_back('}');
        p += 2;
        continue;
      }
      return FailAt(ParseErrorCode::kUnescapedBrace, p,
                    "unescaped '}' in constructor content");
    }
    text.push_back(c);
    ++p;
  }
}

std::string_view ParseErrorCodeSlug(ParseErrorCode code) {
  switch (code) {
    case ParseErrorCode::kUnexpectedToken:
      return "unexpected-token";
    case ParseErrorCode::kTrailingInput:
      return "trailing-input";
    case ParseErrorCode::kNestingTooDeep:
      return "nesting-too-deep";
    case ParseErrorCode::kBadConstructor:
      return "bad-constructor";
    case ParseErrorCode::kBadConstructorAttr:
      return "bad-constructor-attr";
    case ParseErrorCode::kUnterminatedConstructor:
      return "unterminated-constructor";
    case ParseErrorCode::kMismatchedEndTag:
      return "mismatched-end-tag";
    case ParseErrorCode::kUnescapedBrace:
      return "unescaped-brace";
    case ParseErrorCode::kLexError:
      return "lex-error";
    case ParseErrorCode::kUnknown:
      break;
  }
  return "unknown";
}

ParseErrorCode ParseErrorCodeOf(const Status& status) {
  const std::string& m = status.message();
  if (m.empty() || m[0] != '[') return ParseErrorCode::kUnknown;
  const size_t close = m.find(']');
  if (close == std::string::npos) return ParseErrorCode::kUnknown;
  const std::string_view slug(m.data() + 1, close - 1);
  for (ParseErrorCode code :
       {ParseErrorCode::kUnexpectedToken, ParseErrorCode::kTrailingInput,
        ParseErrorCode::kNestingTooDeep, ParseErrorCode::kBadConstructor,
        ParseErrorCode::kBadConstructorAttr,
        ParseErrorCode::kUnterminatedConstructor,
        ParseErrorCode::kMismatchedEndTag, ParseErrorCode::kUnescapedBrace,
        ParseErrorCode::kLexError}) {
    if (slug == ParseErrorCodeSlug(code)) return code;
  }
  return ParseErrorCode::kUnknown;
}

StatusOr<ParsedQuery> ParseQueryText(std::string_view text) {
  if (XMARK_FAULT_POINT("parser/module")) {
    return Status::InvalidQuery(
        "[fault-injection] 1:1: fault injection: parser/module (near '')");
  }
  return Parser(text).ParseQuery();
}

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kOr:
      return "or";
    case BinaryOp::kAnd:
      return "and";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "!=";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kBefore:
      return "<<";
    case BinaryOp::kAfter:
      return ">>";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "div";
    case BinaryOp::kMod:
      return "mod";
  }
  return "?";
}

std::string AstToString(const AstNode& node) {
  auto join_args = [](const AstNode& n) {
    std::string out;
    for (const AstPtr& a : n.args) {
      out += " " + AstToString(*a);
    }
    return out;
  };
  switch (node.kind) {
    case AstKind::kStringLiteral:
      return "\"" + node.str_value + "\"";
    case AstKind::kNumberLiteral:
      return FormatDouble(node.num_value);
    case AstKind::kVarRef:
      return "$" + node.str_value;
    case AstKind::kContextItem:
      return ".";
    case AstKind::kPath: {
      std::string out = "(path";
      if (node.absolute) out += " /";
      if (node.start) out += " " + AstToString(*node.start);
      for (const Step& s : node.steps) {
        out += s.axis == Axis::kDescendant         ? " //"
               : s.axis == Axis::kDescendantOrSelf ? " /descendant-or-self::"
                                                   : " /";
        switch (s.test) {
          case Step::Test::kName:
            out += (s.axis == Axis::kAttribute ? "@" : "") + s.name;
            break;
          case Step::Test::kWildcard:
            out += "*";
            break;
          case Step::Test::kText:
            out += "text()";
            break;
          case Step::Test::kAnyNode:
            out += "node()";
            break;
        }
        for (const AstPtr& p : s.predicates) {
          out += "[" + AstToString(*p) + "]";
        }
      }
      return out + ")";
    }
    case AstKind::kFlwor: {
      std::string out = "(flwor";
      for (const ForLetClause& c : node.clauses) {
        out += std::string(c.is_let ? " (let $" : " (for $") + c.var + " " +
               AstToString(*c.expr) + ")";
      }
      if (node.where) out += " (where " + AstToString(*node.where) + ")";
      for (const OrderSpec& o : node.order_by) {
        out += " (order " + AstToString(*o.key) +
               (o.descending ? " desc)" : ")");
      }
      out += " (return " + AstToString(*node.ret) + "))";
      return out;
    }
    case AstKind::kQuantified: {
      std::string out = node.is_every ? "(every" : "(some";
      for (const ForLetClause& c : node.clauses) {
        out += " ($" + c.var + " " + AstToString(*c.expr) + ")";
      }
      return out + " satisfies " + AstToString(*node.where) + ")";
    }
    case AstKind::kIf:
      return "(if" + join_args(node) + ")";
    case AstKind::kBinary:
      return std::string("(") + BinaryOpName(node.op) + join_args(node) + ")";
    case AstKind::kUnaryMinus:
      return "(neg" + join_args(node) + ")";
    case AstKind::kFunctionCall:
      return "(" + node.str_value + join_args(node) + ")";
    case AstKind::kElementConstructor: {
      std::string out = "(elem " + node.tag;
      for (const AttrConstructor& a : node.attrs) {
        out += " @" + a.name;
      }
      for (const AstPtr& c : node.content) {
        out += " " + AstToString(*c);
      }
      return out + ")";
    }
    case AstKind::kSequenceExpr:
      return "(seq" + join_args(node) + ")";
  }
  return "?";
}

}  // namespace xmark::query
