#ifndef XMARK_QUERY_PARSER_H_
#define XMARK_QUERY_PARSER_H_

#include <string_view>

#include "query/ast.h"
#include "query/lexer.h"
#include "util/status.h"

namespace xmark::query {

/// Stable machine-readable categories for query rejections. Every parse
/// error Status carries `[slug] line:col: message (near '...')` where slug
/// is ParseErrorCodeSlug(code); slugs are part of the serving API and must
/// never be renamed (clients and tests dispatch on them).
enum class ParseErrorCode {
  kUnexpectedToken,          // token stream diverges from the grammar
  kTrailingInput,            // query parsed but input continues
  kNestingTooDeep,           // expression depth exceeds kMaxExprDepth
  kBadConstructor,           // malformed direct element constructor head
  kBadConstructorAttr,       // malformed constructor attribute
  kUnterminatedConstructor,  // input ends inside a constructor
  kMismatchedEndTag,         // </b> closing <a>
  kUnescapedBrace,           // bare '}' in constructor content
  kLexError,                 // tokenizer rejection (bad char, bad literal)
  kUnknown,                  // status not produced by this parser
};

/// The stable slug embedded in error messages ("unexpected-token", ...).
std::string_view ParseErrorCodeSlug(ParseErrorCode code);

/// Recovers the code from a parse-error Status (kUnknown when the message
/// does not carry a recognized "[slug]" prefix).
ParseErrorCode ParseErrorCodeOf(const Status& status);

/// Recursive-descent parser for the XQuery subset used by the twenty XMark
/// queries: FLWOR, quantifiers, path expressions with predicates, direct
/// element constructors with embedded expressions, prolog function
/// declarations, and the operator grammar (or/and/comparisons incl. `<<`
/// node order, additive, multiplicative).
class Parser {
 public:
  explicit Parser(std::string_view input);

  /// Parses a complete query module (prolog + body), numbers its nodes
  /// (AstNode::plan_slot), interns its variables into environment slots
  /// and resolves every call to a builtin or a prolog function, so the
  /// module is ready to plan and run and is never written again.
  StatusOr<ParsedQuery> ParseQuery();

  /// Parses a standalone expression (tests / interactive use).
  StatusOr<AstPtr> ParseExpression();

 private:
  // Token plumbing.
  Status Advance();
  bool CurIs(TokenKind kind) const { return cur_.kind == kind; }
  bool CurIsIdent(std::string_view text) const {
    return cur_.kind == TokenKind::kIdent && cur_.text == text;
  }
  Status Expect(TokenKind kind, const char* what);
  StatusOr<Token> PeekNext();
  // Coded rejection anchored at the current token (Fail) or at a raw input
  // offset (FailAt, used by the character-level constructor sub-parser).
  // Both render "[slug] line:col: message (near '<snippet>')" as a
  // kInvalidQuery status.
  Status Fail(ParseErrorCode code, const std::string& message) const;
  Status FailAt(ParseErrorCode code, size_t offset,
                const std::string& message) const;

  // Grammar productions.
  StatusOr<AstPtr> ParseExpr();         // Expr ::= ExprSingle ("," ...)*
  StatusOr<AstPtr> ParseExprSingle();
  StatusOr<AstPtr> ParseFlwor();
  StatusOr<AstPtr> ParseQuantified();
  StatusOr<AstPtr> ParseIf();
  StatusOr<AstPtr> ParseOr();
  StatusOr<AstPtr> ParseAnd();
  StatusOr<AstPtr> ParseComparison();
  StatusOr<AstPtr> ParseAdditive();
  StatusOr<AstPtr> ParseMultiplicative();
  StatusOr<AstPtr> ParseUnary();
  StatusOr<AstPtr> ParsePath();
  StatusOr<AstPtr> ParsePrimary();
  Status ParseStep(Axis axis, std::vector<Step>* steps);
  Status ParsePredicates(std::vector<AstPtr>* predicates);

  // Direct element constructor; scans raw source starting at `pos` (which
  // points at '<'), returns the node and sets *resume to the offset just
  // past the constructor.
  StatusOr<AstPtr> ParseConstructorAt(size_t pos, size_t* resume);
  // Parses "{ Expr }" raw-embedded at `pos` (pointing at '{').
  StatusOr<AstPtr> ParseEmbeddedExpr(size_t pos, size_t* resume);

  // RAII guard bounding expression-nesting recursion. Every recursive
  // production passes through ParseExprSingle, so one counter there
  // bounds the whole grammar; without it a hostile query of 64K open
  // parens overflows the stack (found by fuzz/fuzz_query_parser.cc —
  // queries are untrusted serving input, a crash is a DoS).
  class DepthGuard {
   public:
    explicit DepthGuard(Parser* parser) : parser_(parser) {
      ++parser_->depth_;
    }
    ~DepthGuard() { --parser_->depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;

   private:
    Parser* parser_;
  };

  // Deep enough for any legitimate query (Q1-Q20 nest < 40 levels, and a
  // level costs ~10 recursive productions), shallow enough that the worst
  // case stays far inside an 8 MiB thread stack. Bounds AST depth too, so
  // the recursive AstNode destructor inherits the same guarantee.
  static constexpr int kMaxExprDepth = 512;

  Lexer lexer_;
  Token cur_;
  int depth_ = 0;
};

/// The name a kFunctionCall is resolved under: its spelling without a
/// leading "fn:" (what error messages name).
std::string_view CalledName(const AstNode& call);

/// Convenience wrapper: parse a whole query text.
StatusOr<ParsedQuery> ParseQueryText(std::string_view text);

}  // namespace xmark::query

#endif  // XMARK_QUERY_PARSER_H_
