#include "query/parser.h"

#include <cctype>

#include "base/logging.h"
#include "base/metrics.h"
#include "base/trace.h"
#include "query/lower.h"

namespace ccdb {

namespace {

enum class TokenKind {
  kEnd,
  kIdent,
  kNumber,
  kLParen,
  kRParen,
  kLBracket,
  kRBracket,
  kComma,
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kCaret,
  kRelOp,
  kDefine,  // :=
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  RelOp op = RelOp::kEq;
  std::size_t position = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) { Advance(); }

  const Token& current() const { return current_; }

  Status Advance() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(
                                      text_[pos_]))) {
      ++pos_;
    }
    current_ = Token();
    current_.position = pos_;
    if (pos_ >= text_.size()) {
      current_.kind = TokenKind::kEnd;
      return Status::Ok();
    }
    char c = text_[pos_];
    auto single = [&](TokenKind kind) {
      current_.kind = kind;
      current_.text = std::string(1, c);
      ++pos_;
      return Status::Ok();
    };
    switch (c) {
      case '(':
        return single(TokenKind::kLParen);
      case ')':
        return single(TokenKind::kRParen);
      case '[':
        return single(TokenKind::kLBracket);
      case ']':
        return single(TokenKind::kRBracket);
      case ',':
        return single(TokenKind::kComma);
      case '+':
        return single(TokenKind::kPlus);
      case '-':
        return single(TokenKind::kMinus);
      case '*':
        return single(TokenKind::kStar);
      case '/':
        return single(TokenKind::kSlash);
      case '^':
        return single(TokenKind::kCaret);
      default:
        break;
    }
    if (c == ':') {
      if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '=') {
        current_.kind = TokenKind::kDefine;
        current_.text = ":=";
        pos_ += 2;
        return Status::Ok();
      }
      return Status::InvalidArgument("stray ':' at position " +
                                     std::to_string(pos_));
    }
    if (c == '<' || c == '>' || c == '=' || c == '!') {
      current_.kind = TokenKind::kRelOp;
      bool has_eq = pos_ + 1 < text_.size() && text_[pos_ + 1] == '=';
      switch (c) {
        case '<':
          current_.op = has_eq ? RelOp::kLe : RelOp::kLt;
          break;
        case '>':
          current_.op = has_eq ? RelOp::kGe : RelOp::kGt;
          break;
        case '=':
          current_.op = RelOp::kEq;
          has_eq = false;
          break;
        case '!':
          if (!has_eq) {
            return Status::InvalidArgument("stray '!' at position " +
                                           std::to_string(pos_));
          }
          current_.op = RelOp::kNeq;
          break;
      }
      pos_ += has_eq ? 2 : 1;
      return Status::Ok();
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '.')) {
        ++pos_;
      }
      current_.kind = TokenKind::kNumber;
      current_.text = std::string(text_.substr(start, pos_ - start));
      return Status::Ok();
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_')) {
        ++pos_;
      }
      current_.kind = TokenKind::kIdent;
      current_.text = std::string(text_.substr(start, pos_ - start));
      return Status::Ok();
    }
    return Status::InvalidArgument(std::string("unexpected character '") + c +
                                   "' at position " + std::to_string(pos_));
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  Token current_;
};

bool IsKeyword(const Token& token, const char* keyword) {
  return token.kind == TokenKind::kIdent && token.text == keyword;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : lexer_(text) {}

  StatusOr<std::shared_ptr<const QFormula>> ParseFormulaToEnd() {
    CCDB_ASSIGN_OR_RETURN(auto formula, ParseOr());
    if (lexer_.current().kind != TokenKind::kEnd) {
      return Status::InvalidArgument(
          "trailing input at position " +
          std::to_string(lexer_.current().position));
    }
    return formula;
  }

  StatusOr<std::shared_ptr<const QTerm>> ParseTermToEnd() {
    CCDB_ASSIGN_OR_RETURN(auto term, ParseSum());
    if (lexer_.current().kind != TokenKind::kEnd) {
      return Status::InvalidArgument(
          "trailing input at position " +
          std::to_string(lexer_.current().position));
    }
    return term;
  }

  StatusOr<ParsedRelationDef> ParseRelationDefToEnd() {
    if (lexer_.current().kind != TokenKind::kIdent) {
      return Status::InvalidArgument("expected relation name");
    }
    ParsedRelationDef def;
    def.name = lexer_.current().text;
    CCDB_RETURN_IF_ERROR(lexer_.Advance());
    CCDB_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "("));
    while (true) {
      if (lexer_.current().kind != TokenKind::kIdent) {
        return Status::InvalidArgument("expected column variable name");
      }
      def.column_names.push_back(lexer_.current().text);
      CCDB_RETURN_IF_ERROR(lexer_.Advance());
      if (lexer_.current().kind == TokenKind::kComma) {
        CCDB_RETURN_IF_ERROR(lexer_.Advance());
        continue;
      }
      break;
    }
    CCDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen, ")"));
    CCDB_RETURN_IF_ERROR(Expect(TokenKind::kDefine, ":="));
    CCDB_ASSIGN_OR_RETURN(auto body, ParseOr());
    if (lexer_.current().kind != TokenKind::kEnd) {
      return Status::InvalidArgument("trailing input in relation definition");
    }
    // Lower to a quantifier-free constraint relation over the columns.
    VarEnv env;
    for (const std::string& column : def.column_names) env.Intern(column);
    int arity = env.next_index;
    CCDB_ASSIGN_OR_RETURN(Formula lowered, LowerFormula(*body, &env));
    if (!lowered.is_quantifier_free() || lowered.has_relation_symbols()) {
      return Status::InvalidArgument(
          "relation definitions must be quantifier-free constraint "
          "formulas");
    }
    for (int v : lowered.FreeVars()) {
      if (v >= arity) {
        return Status::InvalidArgument(
            "relation definition mentions a non-column variable");
      }
    }
    CCDB_ASSIGN_OR_RETURN(std::vector<GeneralizedTuple> tuples,
                          ToDnf(lowered));
    def.relation = ConstraintRelation(arity, std::move(tuples));
    return def;
  }

 private:
  // Recursive descent bounds its own stack: pathological inputs such as
  // ten thousand '(' must come back as kInvalidArgument, not overflow.
  static constexpr int kMaxDepth = 200;

  struct DepthGuard {
    explicit DepthGuard(int* depth) : depth(depth) { ++*depth; }
    ~DepthGuard() { --*depth; }
    int* depth;
  };

  Status CheckDepth() const {
    if (depth_ > kMaxDepth) {
      return Status::InvalidArgument(
          "formula nesting deeper than " + std::to_string(kMaxDepth) +
          " levels");
    }
    return Status::Ok();
  }

  Status Expect(TokenKind kind, const char* what) {
    if (lexer_.current().kind != kind) {
      return Status::InvalidArgument(
          std::string("expected '") + what + "' at position " +
          std::to_string(lexer_.current().position));
    }
    return lexer_.Advance();
  }

  StatusOr<std::shared_ptr<const QFormula>> ParseOr() {
    CCDB_ASSIGN_OR_RETURN(auto left, ParseAnd());
    std::vector<std::shared_ptr<const QFormula>> parts{left};
    while (IsKeyword(lexer_.current(), "or")) {
      CCDB_RETURN_IF_ERROR(lexer_.Advance());
      CCDB_ASSIGN_OR_RETURN(auto right, ParseAnd());
      parts.push_back(right);
    }
    if (parts.size() == 1) return parts[0];
    return QFormula::Connective(QFormula::Kind::kOr, std::move(parts));
  }

  StatusOr<std::shared_ptr<const QFormula>> ParseAnd() {
    CCDB_ASSIGN_OR_RETURN(auto left, ParseUnary());
    std::vector<std::shared_ptr<const QFormula>> parts{left};
    while (IsKeyword(lexer_.current(), "and")) {
      CCDB_RETURN_IF_ERROR(lexer_.Advance());
      CCDB_ASSIGN_OR_RETURN(auto right, ParseUnary());
      parts.push_back(right);
    }
    if (parts.size() == 1) return parts[0];
    return QFormula::Connective(QFormula::Kind::kAnd, std::move(parts));
  }

  StatusOr<std::shared_ptr<const QFormula>> ParseUnary() {
    DepthGuard guard(&depth_);
    CCDB_RETURN_IF_ERROR(CheckDepth());
    const Token& token = lexer_.current();
    if (IsKeyword(token, "not")) {
      CCDB_RETURN_IF_ERROR(lexer_.Advance());
      CCDB_ASSIGN_OR_RETURN(auto inner, ParseUnary());
      return QFormula::Not(inner);
    }
    if (IsKeyword(token, "true")) {
      CCDB_RETURN_IF_ERROR(lexer_.Advance());
      return QFormula::True();
    }
    if (IsKeyword(token, "false")) {
      CCDB_RETURN_IF_ERROR(lexer_.Advance());
      return QFormula::False();
    }
    if (IsKeyword(token, "exists") || IsKeyword(token, "forall")) {
      bool is_exists = token.text == "exists";
      CCDB_RETURN_IF_ERROR(lexer_.Advance());
      std::vector<std::string> vars;
      while (lexer_.current().kind == TokenKind::kIdent &&
             !IsKeyword(lexer_.current(), "exists") &&
             !IsKeyword(lexer_.current(), "forall")) {
        vars.push_back(lexer_.current().text);
        CCDB_RETURN_IF_ERROR(lexer_.Advance());
      }
      if (vars.empty()) {
        return Status::InvalidArgument("quantifier without variables");
      }
      CCDB_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "("));
      CCDB_ASSIGN_OR_RETURN(auto body, ParseOr());
      CCDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen, ")"));
      return QFormula::Quantifier(is_exists ? QFormula::Kind::kExists
                                            : QFormula::Kind::kForall,
                                  std::move(vars), body);
    }
    if (token.kind == TokenKind::kIdent) {
      auto aggregate = AggregateKindFromName(token.text);
      if (aggregate.ok()) {
        return ParseAggregate(*aggregate);
      }
    }
    if (token.kind == TokenKind::kLParen) {
      // Could be a parenthesized formula or a parenthesized term starting a
      // comparison. Try formula first by lookahead: save is hard with our
      // one-token lexer, so parse as formula only when it cannot be a term:
      // we instead parse a term and, if a relop follows, continue as a
      // comparison; if 'and'/'or'/')'/end follows and the term was reducible
      // to a formula, reject. Simplest robust rule: parenthesized formulas
      // are only recognized when the contents parse as a formula — do that
      // by snapshotting the lexer.
      Parser snapshot = *this;
      auto as_formula = TryParseParenFormula();
      if (as_formula.ok()) return *as_formula;
      *this = snapshot;
      // Fall through to a comparison whose lhs starts with '('.
    }
    return ParseComparisonOrRelation();
  }

  StatusOr<std::shared_ptr<const QFormula>> TryParseParenFormula() {
    CCDB_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "("));
    CCDB_ASSIGN_OR_RETURN(auto inner, ParseOr());
    CCDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen, ")"));
    // If a relational operator follows, the parenthesis was a term.
    if (lexer_.current().kind == TokenKind::kRelOp ||
        lexer_.current().kind == TokenKind::kPlus ||
        lexer_.current().kind == TokenKind::kMinus ||
        lexer_.current().kind == TokenKind::kStar ||
        lexer_.current().kind == TokenKind::kSlash ||
        lexer_.current().kind == TokenKind::kCaret) {
      return Status::InvalidArgument("parenthesized term, not formula");
    }
    return inner;
  }

  StatusOr<std::shared_ptr<const QFormula>> ParseAggregate(
      AggregateKind kind) {
    CCDB_RETURN_IF_ERROR(lexer_.Advance());  // aggregate name
    CCDB_RETURN_IF_ERROR(Expect(TokenKind::kLBracket, "["));
    std::vector<std::string> agg_vars;
    while (true) {
      if (lexer_.current().kind != TokenKind::kIdent) {
        return Status::InvalidArgument("expected aggregation variable");
      }
      agg_vars.push_back(lexer_.current().text);
      CCDB_RETURN_IF_ERROR(lexer_.Advance());
      if (lexer_.current().kind == TokenKind::kComma) {
        CCDB_RETURN_IF_ERROR(lexer_.Advance());
        continue;
      }
      break;
    }
    CCDB_RETURN_IF_ERROR(Expect(TokenKind::kRBracket, "]"));
    CCDB_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "("));
    CCDB_ASSIGN_OR_RETURN(auto body, ParseOr());
    CCDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen, ")"));
    CCDB_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "("));
    std::vector<std::string> outputs;
    while (true) {
      if (lexer_.current().kind != TokenKind::kIdent) {
        return Status::InvalidArgument("expected aggregate output variable");
      }
      outputs.push_back(lexer_.current().text);
      CCDB_RETURN_IF_ERROR(lexer_.Advance());
      if (lexer_.current().kind == TokenKind::kComma) {
        CCDB_RETURN_IF_ERROR(lexer_.Advance());
        continue;
      }
      break;
    }
    CCDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen, ")"));
    return QFormula::Aggregate(kind, std::move(agg_vars), body,
                               std::move(outputs));
  }

  StatusOr<std::shared_ptr<const QFormula>> ParseComparisonOrRelation() {
    // Relation atom: IDENT '(' ... ')' where IDENT is not a function name.
    if (lexer_.current().kind == TokenKind::kIdent &&
        !AnalyticKindFromName(lexer_.current().text).ok()) {
      Parser snapshot = *this;
      std::string name = lexer_.current().text;
      Status advanced = lexer_.Advance();
      if (advanced.ok() && lexer_.current().kind == TokenKind::kLParen) {
        auto args = ParseRelationArgs();
        if (args.ok() && lexer_.current().kind != TokenKind::kRelOp) {
          return QFormula::Relation(std::move(name), std::move(*args));
        }
      }
      *this = snapshot;
    }
    CCDB_ASSIGN_OR_RETURN(auto lhs, ParseSum());
    if (lexer_.current().kind != TokenKind::kRelOp) {
      return Status::InvalidArgument(
          "expected comparison operator at position " +
          std::to_string(lexer_.current().position));
    }
    RelOp op = lexer_.current().op;
    CCDB_RETURN_IF_ERROR(lexer_.Advance());
    CCDB_ASSIGN_OR_RETURN(auto rhs, ParseSum());
    return QFormula::Compare(lhs, op, rhs);
  }

  StatusOr<std::vector<std::shared_ptr<const QTerm>>> ParseRelationArgs() {
    CCDB_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "("));
    std::vector<std::shared_ptr<const QTerm>> args;
    while (true) {
      CCDB_ASSIGN_OR_RETURN(auto arg, ParseSum());
      args.push_back(arg);
      if (lexer_.current().kind == TokenKind::kComma) {
        CCDB_RETURN_IF_ERROR(lexer_.Advance());
        continue;
      }
      break;
    }
    CCDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen, ")"));
    return args;
  }

  StatusOr<std::shared_ptr<const QTerm>> ParseSum() {
    CCDB_ASSIGN_OR_RETURN(auto left, ParseProduct());
    while (lexer_.current().kind == TokenKind::kPlus ||
           lexer_.current().kind == TokenKind::kMinus) {
      bool plus = lexer_.current().kind == TokenKind::kPlus;
      CCDB_RETURN_IF_ERROR(lexer_.Advance());
      CCDB_ASSIGN_OR_RETURN(auto right, ParseProduct());
      left = QTerm::Binary(plus ? QTerm::Kind::kAdd : QTerm::Kind::kSub, left,
                           right);
    }
    return left;
  }

  StatusOr<std::shared_ptr<const QTerm>> ParseProduct() {
    CCDB_ASSIGN_OR_RETURN(auto left, ParsePower());
    while (lexer_.current().kind == TokenKind::kStar ||
           lexer_.current().kind == TokenKind::kSlash) {
      bool star = lexer_.current().kind == TokenKind::kStar;
      CCDB_RETURN_IF_ERROR(lexer_.Advance());
      CCDB_ASSIGN_OR_RETURN(auto right, ParsePower());
      left = QTerm::Binary(star ? QTerm::Kind::kMul : QTerm::Kind::kDiv, left,
                           right);
    }
    return left;
  }

  StatusOr<std::shared_ptr<const QTerm>> ParsePower() {
    DepthGuard guard(&depth_);
    CCDB_RETURN_IF_ERROR(CheckDepth());
    // Unary minus binds looser than '^': -x^2 is -(x^2).
    if (lexer_.current().kind == TokenKind::kMinus) {
      CCDB_RETURN_IF_ERROR(lexer_.Advance());
      CCDB_ASSIGN_OR_RETURN(auto inner, ParsePower());
      return QTerm::Neg(inner);
    }
    CCDB_ASSIGN_OR_RETURN(auto base, ParseAtomTerm());
    if (lexer_.current().kind == TokenKind::kCaret) {
      CCDB_RETURN_IF_ERROR(lexer_.Advance());
      if (lexer_.current().kind != TokenKind::kNumber) {
        return Status::InvalidArgument("expected natural exponent after ^");
      }
      CCDB_ASSIGN_OR_RETURN(Rational exponent,
                            Rational::FromString(lexer_.current().text));
      if (!exponent.is_integer() || exponent.sign() < 0 ||
          !exponent.numerator().FitsInt64()) {
        return Status::InvalidArgument("exponent must be a natural number");
      }
      CCDB_RETURN_IF_ERROR(lexer_.Advance());
      return QTerm::Pow(base,
                        static_cast<std::uint32_t>(
                            exponent.numerator().ToInt64()));
    }
    return base;
  }

  StatusOr<std::shared_ptr<const QTerm>> ParseAtomTerm() {
    DepthGuard guard(&depth_);
    CCDB_RETURN_IF_ERROR(CheckDepth());
    const Token& token = lexer_.current();
    switch (token.kind) {
      case TokenKind::kNumber: {
        CCDB_ASSIGN_OR_RETURN(Rational value,
                              Rational::FromString(token.text));
        CCDB_RETURN_IF_ERROR(lexer_.Advance());
        return QTerm::Const(std::move(value));
      }
      case TokenKind::kLParen: {
        CCDB_RETURN_IF_ERROR(lexer_.Advance());
        CCDB_ASSIGN_OR_RETURN(auto inner, ParseSum());
        CCDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen, ")"));
        return inner;
      }
      case TokenKind::kIdent: {
        std::string name = token.text;
        auto func = AnalyticKindFromName(name);
        CCDB_RETURN_IF_ERROR(lexer_.Advance());
        if (func.ok()) {
          CCDB_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "("));
          CCDB_ASSIGN_OR_RETURN(auto arg, ParseSum());
          CCDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen, ")"));
          return QTerm::Func(*func, arg);
        }
        return QTerm::Var(std::move(name));
      }
      default:
        return Status::InvalidArgument(
            "unexpected token in term at position " +
            std::to_string(token.position));
    }
  }

  Lexer lexer_;
  int depth_ = 0;
};

}  // namespace

StatusOr<std::shared_ptr<const QFormula>> ParseFormula(
    std::string_view text, std::int64_t* elapsed_us) {
  TraceSpan span("parse.formula");
  CCDB_METRIC_COUNT("parser.formulas", 1);
  Parser parser(text);
  StatusOr<std::shared_ptr<const QFormula>> parsed =
      parser.ParseFormulaToEnd();
  if (elapsed_us != nullptr) *elapsed_us = span.ElapsedUs();
  return parsed;
}

StatusOr<std::shared_ptr<const QTerm>> ParseTerm(std::string_view text) {
  Parser parser(text);
  return parser.ParseTermToEnd();
}

StatusOr<ParsedRelationDef> ParseRelationDef(std::string_view text) {
  CCDB_TRACE_SPAN("parse.relation_def");
  CCDB_METRIC_COUNT("parser.relation_defs", 1);
  Parser parser(text);
  return parser.ParseRelationDefToEnd();
}

}  // namespace ccdb
