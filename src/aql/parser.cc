#include "aql/parser.h"

#include "aql/lexer.h"

namespace simdb::aql {

AExprPtr MakeVar(std::string name) {
  auto e = std::make_shared<AExpr>();
  e->kind = AExpr::Kind::kVar;
  e->name = std::move(name);
  return e;
}

AExprPtr MakeLiteral(adm::Value v) {
  auto e = std::make_shared<AExpr>();
  e->kind = AExpr::Kind::kLiteral;
  e->literal = std::move(v);
  return e;
}

AExprPtr MakeField(AExprPtr base, std::string field) {
  auto e = std::make_shared<AExpr>();
  e->kind = AExpr::Kind::kField;
  e->name = std::move(field);
  e->children.push_back(std::move(base));
  return e;
}

AExprPtr MakeCall(std::string fn, std::vector<AExprPtr> args) {
  auto e = std::make_shared<AExpr>();
  e->kind = AExpr::Kind::kCall;
  e->name = std::move(fn);
  e->children = std::move(args);
  return e;
}

namespace {

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Program> ParseProgram();
  Result<AExprPtr> ParseSingleExpression();

 private:
  const Token& Peek(int ahead = 0) const {
    size_t i = pos_ + static_cast<size_t>(ahead);
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }

  bool AtSymbol(std::string_view s, int ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokenKind::kSymbol && t.text == s;
  }
  bool AtKeyword(std::string_view kw, int ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokenKind::kIdentifier && t.text == kw;
  }
  bool ConsumeSymbol(std::string_view s) {
    if (AtSymbol(s)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ConsumeKeyword(std::string_view kw) {
    if (AtKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Err(const std::string& msg) const {
    return Status::ParseError(msg + " near offset " +
                              std::to_string(Peek().offset) + " (token '" +
                              Peek().text + "')");
  }
  Status ExpectSymbol(std::string_view s) {
    if (!ConsumeSymbol(s)) return Err("expected '" + std::string(s) + "'");
    return Status::OK();
  }
  Status ExpectKeyword(std::string_view kw) {
    if (!ConsumeKeyword(kw)) return Err("expected '" + std::string(kw) + "'");
    return Status::OK();
  }
  Result<std::string> ExpectIdentifier(const std::string& what) {
    if (Peek().kind != TokenKind::kIdentifier) return Err("expected " + what);
    return Advance().text;
  }
  Result<std::string> ExpectVariable() {
    if (Peek().kind != TokenKind::kVariable) return Err("expected variable");
    return Advance().text;
  }

  bool AtFlworStart() const {
    return AtKeyword("for") || AtKeyword("let") || AtKeyword("join");
  }

  /// One level of nesting for as long as it lives: every expression,
  /// unary operator and FLWOR holds one while it parses what it contains.
  class Nesting {
   public:
    explicit Nesting(int& depth) : depth_(depth) { ++depth_; }
    ~Nesting() { --depth_; }
    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;
    bool too_deep() const { return depth_ > kMaxParseDepth; }

   private:
    int& depth_;
  };
  Status TooDeep() const {
    return Err("query nests deeper than " + std::to_string(kMaxParseDepth) +
               " levels");
  }

  Result<Statement> ParseStatement();
  Result<FlworPtr> ParseFlwor();
  Result<Clause> ParseClause(bool* done);
  Result<AExprPtr> ParseExpr();
  Result<AExprPtr> ParseOr();
  Result<AExprPtr> ParseAnd();
  Result<AExprPtr> ParseComparison();
  Result<AExprPtr> ParseAdditive();
  Result<AExprPtr> ParseMultiplicative();
  Result<AExprPtr> ParseUnary();
  Result<AExprPtr> ParsePostfix();
  Result<AExprPtr> ParsePrimary();
  Result<AExprPtr> ParseParenthesized();

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  // see Nesting
};

Result<Program> Parser::ParseProgram() {
  Program program;
  while (Peek().kind != TokenKind::kEnd) {
    SIMDB_ASSIGN_OR_RETURN(Statement stmt, ParseStatement());
    program.statements.push_back(std::move(stmt));
    while (ConsumeSymbol(";")) {
    }
  }
  return program;
}

Result<AExprPtr> Parser::ParseSingleExpression() {
  AExprPtr e;
  if (AtFlworStart()) {
    auto sub = std::make_shared<AExpr>();
    sub->kind = AExpr::Kind::kSubquery;
    SIMDB_ASSIGN_OR_RETURN(sub->subquery, ParseFlwor());
    e = std::move(sub);
  } else {
    SIMDB_ASSIGN_OR_RETURN(e, ParseExpr());
  }
  ConsumeSymbol(";");
  if (Peek().kind != TokenKind::kEnd) return Err("trailing tokens");
  return e;
}

Result<Statement> Parser::ParseStatement() {
  Statement stmt;
  if (ConsumeKeyword("use")) {
    SIMDB_RETURN_IF_ERROR(ExpectKeyword("dataverse"));
    SIMDB_ASSIGN_OR_RETURN(stmt.name, ExpectIdentifier("dataverse name"));
    stmt.kind = Statement::Kind::kUseDataverse;
    return stmt;
  }
  if (AtKeyword("set") && Peek(1).kind == TokenKind::kIdentifier &&
      Peek(2).kind == TokenKind::kString) {
    Advance();
    stmt.kind = Statement::Kind::kSet;
    stmt.name = Advance().text;
    stmt.set_value = Advance().text;
    return stmt;
  }
  if (ConsumeKeyword("create")) {
    if (ConsumeKeyword("dataset")) {
      stmt.kind = Statement::Kind::kCreateDataset;
      SIMDB_ASSIGN_OR_RETURN(stmt.dataset, ExpectIdentifier("dataset name"));
      SIMDB_RETURN_IF_ERROR(ExpectKeyword("primary"));
      SIMDB_RETURN_IF_ERROR(ExpectKeyword("key"));
      SIMDB_ASSIGN_OR_RETURN(stmt.pk_field, ExpectIdentifier("key field"));
      if (ConsumeKeyword("partitions")) {
        if (Peek().kind != TokenKind::kInteger) return Err("expected count");
        stmt.partitions = static_cast<int>(Advance().int_value);
      }
      return stmt;
    }
    if (ConsumeKeyword("index")) {
      stmt.kind = Statement::Kind::kCreateIndex;
      SIMDB_ASSIGN_OR_RETURN(stmt.name, ExpectIdentifier("index name"));
      SIMDB_RETURN_IF_ERROR(ExpectKeyword("on"));
      SIMDB_ASSIGN_OR_RETURN(stmt.dataset, ExpectIdentifier("dataset name"));
      SIMDB_RETURN_IF_ERROR(ExpectSymbol("("));
      SIMDB_ASSIGN_OR_RETURN(stmt.field, ExpectIdentifier("field name"));
      SIMDB_RETURN_IF_ERROR(ExpectSymbol(")"));
      SIMDB_RETURN_IF_ERROR(ExpectKeyword("type"));
      SIMDB_ASSIGN_OR_RETURN(stmt.index_type, ExpectIdentifier("index type"));
      if (stmt.index_type == "ngram") {
        SIMDB_RETURN_IF_ERROR(ExpectSymbol("("));
        if (Peek().kind != TokenKind::kInteger) return Err("expected n");
        stmt.gram_len = static_cast<int>(Advance().int_value);
        SIMDB_RETURN_IF_ERROR(ExpectSymbol(")"));
      } else if (stmt.index_type != "keyword" && stmt.index_type != "btree") {
        return Err("unknown index type " + stmt.index_type);
      }
      return stmt;
    }
    if (ConsumeKeyword("function")) {
      stmt.kind = Statement::Kind::kCreateFunction;
      SIMDB_ASSIGN_OR_RETURN(stmt.name, ExpectIdentifier("function name"));
      SIMDB_RETURN_IF_ERROR(ExpectSymbol("("));
      if (!AtSymbol(")")) {
        do {
          SIMDB_ASSIGN_OR_RETURN(std::string p, ExpectVariable());
          stmt.params.push_back(std::move(p));
        } while (ConsumeSymbol(","));
      }
      SIMDB_RETURN_IF_ERROR(ExpectSymbol(")"));
      SIMDB_RETURN_IF_ERROR(ExpectSymbol("{"));
      SIMDB_ASSIGN_OR_RETURN(stmt.body, ParseExpr());
      SIMDB_RETURN_IF_ERROR(ExpectSymbol("}"));
      return stmt;
    }
    return Err("expected dataset/index/function after 'create'");
  }
  if (ConsumeKeyword("explain")) {
    stmt.kind = Statement::Kind::kExplain;
    if (AtFlworStart()) {
      auto sub = std::make_shared<AExpr>();
      sub->kind = AExpr::Kind::kSubquery;
      SIMDB_ASSIGN_OR_RETURN(sub->subquery, ParseFlwor());
      stmt.body = std::move(sub);
    } else {
      SIMDB_ASSIGN_OR_RETURN(stmt.body, ParseExpr());
    }
    return stmt;
  }
  if (ConsumeKeyword("insert")) {
    SIMDB_RETURN_IF_ERROR(ExpectKeyword("into"));
    stmt.kind = Statement::Kind::kInsert;
    SIMDB_ASSIGN_OR_RETURN(stmt.dataset, ExpectIdentifier("dataset name"));
    SIMDB_ASSIGN_OR_RETURN(stmt.body, ParseExpr());
    return stmt;
  }
  if (ConsumeKeyword("delete")) {
    stmt.kind = Statement::Kind::kDelete;
    SIMDB_ASSIGN_OR_RETURN(stmt.var, ExpectVariable());
    SIMDB_RETURN_IF_ERROR(ExpectKeyword("from"));
    SIMDB_RETURN_IF_ERROR(ExpectKeyword("dataset"));
    SIMDB_ASSIGN_OR_RETURN(stmt.dataset, ExpectIdentifier("dataset name"));
    if (ConsumeKeyword("where")) {
      SIMDB_ASSIGN_OR_RETURN(stmt.condition, ParseExpr());
    }
    return stmt;
  }
  if (AtKeyword("load") && AtKeyword("dataset", 1)) {
    Advance();
    Advance();
    stmt.kind = Statement::Kind::kLoad;
    SIMDB_ASSIGN_OR_RETURN(stmt.dataset, ExpectIdentifier("dataset name"));
    SIMDB_RETURN_IF_ERROR(ExpectKeyword("from"));
    if (Peek().kind != TokenKind::kString) return Err("expected file path");
    stmt.path = Advance().text;
    return stmt;
  }
  // Otherwise: a query expression (a bare FLWOR is allowed at top level).
  stmt.kind = Statement::Kind::kQuery;
  if (AtFlworStart()) {
    auto sub = std::make_shared<AExpr>();
    sub->kind = AExpr::Kind::kSubquery;
    SIMDB_ASSIGN_OR_RETURN(sub->subquery, ParseFlwor());
    stmt.body = std::move(sub);
  } else {
    SIMDB_ASSIGN_OR_RETURN(stmt.body, ParseExpr());
  }
  return stmt;
}

Result<FlworPtr> Parser::ParseFlwor() {
  Nesting nest(depth_);
  if (nest.too_deep()) return TooDeep();
  auto flwor = std::make_shared<Flwor>();
  bool done = false;
  while (!done) {
    if (ConsumeKeyword("return")) {
      SIMDB_ASSIGN_OR_RETURN(flwor->return_expr, ParseExpr());
      break;
    }
    SIMDB_ASSIGN_OR_RETURN(Clause clause, ParseClause(&done));
    if (!done) flwor->clauses.push_back(std::move(clause));
  }
  if (flwor->return_expr == nullptr) return Err("FLWOR missing 'return'");
  return flwor;
}

Result<Clause> Parser::ParseClause(bool* done) {
  Clause clause;
  *done = false;
  bool hash_hint = false;
  while (Peek().kind == TokenKind::kHint) {
    if (Advance().text == "hash") hash_hint = true;
  }
  if (ConsumeKeyword("for")) {
    clause.kind = Clause::Kind::kFor;
    SIMDB_ASSIGN_OR_RETURN(clause.var, ExpectVariable());
    if (ConsumeKeyword("at")) {
      SIMDB_ASSIGN_OR_RETURN(clause.pos_var, ExpectVariable());
    }
    SIMDB_RETURN_IF_ERROR(ExpectKeyword("in"));
    SIMDB_ASSIGN_OR_RETURN(clause.source, ParseExpr());
    return clause;
  }
  if (ConsumeKeyword("let")) {
    clause.kind = Clause::Kind::kLet;
    SIMDB_ASSIGN_OR_RETURN(clause.var, ExpectVariable());
    SIMDB_RETURN_IF_ERROR(ExpectSymbol(":="));
    SIMDB_ASSIGN_OR_RETURN(clause.source, ParseExpr());
    return clause;
  }
  if (ConsumeKeyword("where")) {
    clause.kind = Clause::Kind::kWhere;
    SIMDB_ASSIGN_OR_RETURN(clause.condition, ParseExpr());
    return clause;
  }
  if (AtKeyword("group") && AtKeyword("by", 1)) {
    Advance();
    Advance();
    clause.kind = Clause::Kind::kGroupBy;
    clause.hash_hint = hash_hint;
    do {
      SIMDB_ASSIGN_OR_RETURN(std::string k, ExpectVariable());
      SIMDB_RETURN_IF_ERROR(ExpectSymbol(":="));
      SIMDB_ASSIGN_OR_RETURN(AExprPtr e, ParseExpr());
      clause.group_keys.emplace_back(std::move(k), std::move(e));
    } while (ConsumeSymbol(","));
    SIMDB_RETURN_IF_ERROR(ExpectKeyword("with"));
    do {
      SIMDB_ASSIGN_OR_RETURN(std::string v, ExpectVariable());
      clause.with_vars.push_back(std::move(v));
    } while (ConsumeSymbol(","));
    return clause;
  }
  if (AtKeyword("order") && AtKeyword("by", 1)) {
    Advance();
    Advance();
    clause.kind = Clause::Kind::kOrderBy;
    do {
      SIMDB_ASSIGN_OR_RETURN(AExprPtr e, ParseExpr());
      bool asc = true;
      if (ConsumeKeyword("desc")) {
        asc = false;
      } else {
        ConsumeKeyword("asc");
      }
      clause.order_keys.emplace_back(std::move(e), asc);
    } while (ConsumeSymbol(","));
    return clause;
  }
  if (ConsumeKeyword("limit")) {
    clause.kind = Clause::Kind::kLimit;
    if (Peek().kind != TokenKind::kInteger) return Err("expected limit count");
    clause.limit = Advance().int_value;
    return clause;
  }
  if (ConsumeKeyword("join")) {
    clause.kind = Clause::Kind::kJoin;
    do {
      SIMDB_ASSIGN_OR_RETURN(std::string v, ExpectVariable());
      SIMDB_RETURN_IF_ERROR(ExpectKeyword("in"));
      SIMDB_ASSIGN_OR_RETURN(AExprPtr src, ParseExpr());
      clause.join_bindings.emplace_back(std::move(v), std::move(src));
    } while (ConsumeSymbol(","));
    SIMDB_RETURN_IF_ERROR(ExpectKeyword("on"));
    SIMDB_ASSIGN_OR_RETURN(clause.join_condition, ParseExpr());
    return clause;
  }
  return Err("expected a FLWOR clause");
}

Result<AExprPtr> Parser::ParseExpr() {
  Nesting nest(depth_);
  if (nest.too_deep()) return TooDeep();
  return ParseOr();
}

Result<AExprPtr> Parser::ParseOr() {
  SIMDB_ASSIGN_OR_RETURN(AExprPtr left, ParseAnd());
  while (ConsumeKeyword("or")) {
    SIMDB_ASSIGN_OR_RETURN(AExprPtr right, ParseAnd());
    left = MakeCall("or", {left, right});
  }
  return left;
}

Result<AExprPtr> Parser::ParseAnd() {
  SIMDB_ASSIGN_OR_RETURN(AExprPtr left, ParseComparison());
  while (ConsumeKeyword("and")) {
    SIMDB_ASSIGN_OR_RETURN(AExprPtr right, ParseComparison());
    left = MakeCall("and", {left, right});
  }
  return left;
}

Result<AExprPtr> Parser::ParseComparison() {
  SIMDB_ASSIGN_OR_RETURN(AExprPtr left, ParseAdditive());
  static const struct {
    const char* symbol;
    const char* fn;
  } kOps[] = {{"=", "eq"},  {"!=", "neq"}, {"<=", "le"},
              {">=", "ge"}, {"<", "lt"},   {">", "gt"},
              {"~=", "sim-eq"}};
  for (const auto& op : kOps) {
    if (AtSymbol(op.symbol)) {
      Advance();
      // A bcast hint directly after the comparison marks a broadcast join
      // for this conjunct (paper Figure 11 line 19).
      bool bcast = false;
      while (Peek().kind == TokenKind::kHint) {
        if (Advance().text == "bcast") bcast = true;
      }
      SIMDB_ASSIGN_OR_RETURN(AExprPtr right, ParseAdditive());
      AExprPtr call = MakeCall(op.fn, {left, right});
      call->bcast_hint = bcast;
      return call;
    }
  }
  return left;
}

Result<AExprPtr> Parser::ParseAdditive() {
  SIMDB_ASSIGN_OR_RETURN(AExprPtr left, ParseMultiplicative());
  for (;;) {
    if (ConsumeSymbol("+")) {
      SIMDB_ASSIGN_OR_RETURN(AExprPtr right, ParseMultiplicative());
      left = MakeCall("add", {left, right});
    } else if (ConsumeSymbol("-")) {
      SIMDB_ASSIGN_OR_RETURN(AExprPtr right, ParseMultiplicative());
      left = MakeCall("sub", {left, right});
    } else {
      return left;
    }
  }
}

Result<AExprPtr> Parser::ParseMultiplicative() {
  SIMDB_ASSIGN_OR_RETURN(AExprPtr left, ParseUnary());
  for (;;) {
    if (ConsumeSymbol("*")) {
      SIMDB_ASSIGN_OR_RETURN(AExprPtr right, ParseUnary());
      left = MakeCall("mul", {left, right});
    } else if (ConsumeSymbol("/")) {
      SIMDB_ASSIGN_OR_RETURN(AExprPtr right, ParseUnary());
      left = MakeCall("div", {left, right});
    } else {
      return left;
    }
  }
}

Result<AExprPtr> Parser::ParseUnary() {
  const bool negate = ConsumeSymbol("-");
  if (negate || ConsumeKeyword("not")) {
    Nesting nest(depth_);
    if (nest.too_deep()) return TooDeep();
    SIMDB_ASSIGN_OR_RETURN(AExprPtr inner, ParseUnary());
    if (negate) {
      return MakeCall("sub", {MakeLiteral(adm::Value::Int64(0)), inner});
    }
    return MakeCall("not", {inner});
  }
  return ParsePostfix();
}

Result<AExprPtr> Parser::ParsePostfix() {
  SIMDB_ASSIGN_OR_RETURN(AExprPtr base, ParsePrimary());
  while (AtSymbol(".")) {
    Advance();
    SIMDB_ASSIGN_OR_RETURN(std::string field, ExpectIdentifier("field name"));
    base = MakeField(std::move(base), std::move(field));
  }
  return base;
}

Result<AExprPtr> Parser::ParseParenthesized() {
  // '(' already consumed: either a FLWOR subquery or a plain expression.
  AExprPtr out;
  if (AtFlworStart()) {
    auto e = std::make_shared<AExpr>();
    e->kind = AExpr::Kind::kSubquery;
    SIMDB_ASSIGN_OR_RETURN(e->subquery, ParseFlwor());
    out = e;
  } else {
    SIMDB_ASSIGN_OR_RETURN(out, ParseExpr());
  }
  SIMDB_RETURN_IF_ERROR(ExpectSymbol(")"));
  return out;
}

Result<AExprPtr> Parser::ParsePrimary() {
  const Token& tok = Peek();
  switch (tok.kind) {
    case TokenKind::kVariable:
      return MakeVar(Advance().text);
    case TokenKind::kMetaVar: {
      auto e = std::make_shared<AExpr>();
      e->kind = AExpr::Kind::kMetaVar;
      e->name = Advance().text;
      return e;
    }
    case TokenKind::kMetaClause: {
      auto e = std::make_shared<AExpr>();
      e->kind = AExpr::Kind::kMetaClause;
      e->name = Advance().text;
      return e;
    }
    case TokenKind::kString:
      return MakeLiteral(adm::Value::String(Advance().text));
    case TokenKind::kInteger:
      return MakeLiteral(adm::Value::Int64(Advance().int_value));
    case TokenKind::kDouble:
      return MakeLiteral(adm::Value::Double(Advance().double_value));
    default:
      break;
  }
  if (ConsumeSymbol("(")) return ParseParenthesized();
  if (AtSymbol("{")) {
    Advance();
    auto e = std::make_shared<AExpr>();
    e->kind = AExpr::Kind::kRecord;
    if (!AtSymbol("}")) {
      do {
        std::string name;
        if (Peek().kind == TokenKind::kString ||
            Peek().kind == TokenKind::kIdentifier) {
          name = Advance().text;
        } else {
          return Err("expected field name");
        }
        if (!ConsumeSymbol(":")) {
          // allow `'a': e` with ':' lexed as part of ':=': only ':' exists
          return Err("expected ':' in record");
        }
        SIMDB_ASSIGN_OR_RETURN(AExprPtr value, ParseExpr());
        e->field_names.push_back(std::move(name));
        e->children.push_back(std::move(value));
      } while (ConsumeSymbol(","));
    }
    SIMDB_RETURN_IF_ERROR(ExpectSymbol("}"));
    return AExprPtr(e);
  }
  if (AtSymbol("[")) {
    Advance();
    auto e = std::make_shared<AExpr>();
    e->kind = AExpr::Kind::kList;
    if (!AtSymbol("]")) {
      do {
        SIMDB_ASSIGN_OR_RETURN(AExprPtr item, ParseExpr());
        e->children.push_back(std::move(item));
      } while (ConsumeSymbol(","));
    }
    SIMDB_RETURN_IF_ERROR(ExpectSymbol("]"));
    return AExprPtr(e);
  }
  if (tok.kind == TokenKind::kIdentifier) {
    if (tok.text == "true" || tok.text == "false") {
      Advance();
      return MakeLiteral(adm::Value::Boolean(tok.text == "true"));
    }
    if (tok.text == "null") {
      Advance();
      return MakeLiteral(adm::Value::Null());
    }
    if (tok.text == "dataset") {
      Advance();
      auto e = std::make_shared<AExpr>();
      e->kind = AExpr::Kind::kDatasetRef;
      if (ConsumeSymbol("(")) {
        if (Peek().kind != TokenKind::kString) return Err("expected name");
        e->name = Advance().text;
        SIMDB_RETURN_IF_ERROR(ExpectSymbol(")"));
      } else {
        SIMDB_ASSIGN_OR_RETURN(e->name, ExpectIdentifier("dataset name"));
      }
      return AExprPtr(e);
    }
    if (tok.text == "union" && AtSymbol("(", 1)) {
      Advance();
      Advance();  // union (
      auto e = std::make_shared<AExpr>();
      e->kind = AExpr::Kind::kUnion;
      do {
        SIMDB_RETURN_IF_ERROR(ExpectSymbol("("));
        if (!AtFlworStart()) return Err("union branch must be a FLWOR");
        SIMDB_ASSIGN_OR_RETURN(FlworPtr branch, ParseFlwor());
        e->branches.push_back(std::move(branch));
        SIMDB_RETURN_IF_ERROR(ExpectSymbol(")"));
      } while (ConsumeSymbol(","));
      SIMDB_RETURN_IF_ERROR(ExpectSymbol(")"));
      if (e->branches.size() < 2) return Err("union needs two branches");
      return AExprPtr(e);
    }
    // Function call or bare identifier (not allowed).
    if (AtSymbol("(", 1)) {
      std::string fn = Advance().text;
      Advance();  // (
      std::vector<AExprPtr> args;
      if (!AtSymbol(")")) {
        do {
          if (AtFlworStart()) {
            auto sub = std::make_shared<AExpr>();
            sub->kind = AExpr::Kind::kSubquery;
            SIMDB_ASSIGN_OR_RETURN(sub->subquery, ParseFlwor());
            args.push_back(std::move(sub));
          } else {
            SIMDB_ASSIGN_OR_RETURN(AExprPtr a, ParseExpr());
            args.push_back(std::move(a));
          }
        } while (ConsumeSymbol(","));
      }
      SIMDB_RETURN_IF_ERROR(ExpectSymbol(")"));
      return MakeCall(std::move(fn), std::move(args));
    }
  }
  return Err("expected an expression");
}

}  // namespace

Result<Program> ParseProgram(std::string_view text) {
  SIMDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  return Parser(std::move(tokens)).ParseProgram();
}

Result<AExprPtr> ParseExpression(std::string_view text) {
  SIMDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  return Parser(std::move(tokens)).ParseSingleExpression();
}

}  // namespace simdb::aql
