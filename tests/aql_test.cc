#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "aql/lexer.h"
#include "aql/parser.h"
#include "aql/translator.h"
#include "core/query_processor.h"
#include "storage/file_util.h"

namespace simdb::aql {
namespace {

using algebricks::LOpKind;

// ---------- lexer ----------

TEST(LexerTest, BasicTokens) {
  auto tokens = *Lex("for $t in dataset X where $t.a >= 0.5f return $t");
  ASSERT_GE(tokens.size(), 10u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[0].text, "for");
  EXPECT_EQ(tokens[1].kind, TokenKind::kVariable);
  EXPECT_EQ(tokens[1].text, "t");
}

TEST(LexerTest, FloatSuffixAndLeadingDot) {
  auto tokens = *Lex(".5f 0.8 2 'str'");
  EXPECT_EQ(tokens[0].kind, TokenKind::kDouble);
  EXPECT_DOUBLE_EQ(tokens[0].double_value, 0.5);
  EXPECT_EQ(tokens[1].kind, TokenKind::kDouble);
  EXPECT_EQ(tokens[2].kind, TokenKind::kInteger);
  EXPECT_EQ(tokens[3].kind, TokenKind::kString);
  EXPECT_EQ(tokens[3].text, "str");
}

TEST(LexerTest, MetaTokensAndHints) {
  auto tokens = *Lex("##LEFT $$PK /*+ bcast */ /* plain comment */ ~=");
  EXPECT_EQ(tokens[0].kind, TokenKind::kMetaClause);
  EXPECT_EQ(tokens[0].text, "LEFT");
  EXPECT_EQ(tokens[1].kind, TokenKind::kMetaVar);
  EXPECT_EQ(tokens[1].text, "PK");
  EXPECT_EQ(tokens[2].kind, TokenKind::kHint);
  EXPECT_EQ(tokens[2].text, "bcast");
  EXPECT_EQ(tokens[3].kind, TokenKind::kSymbol);
  EXPECT_EQ(tokens[3].text, "~=");
}

TEST(LexerTest, DashedIdentifiers) {
  auto tokens = *Lex("similarity-jaccard(word-tokens($x))");
  EXPECT_EQ(tokens[0].text, "similarity-jaccard");
  EXPECT_EQ(tokens[2].text, "word-tokens");
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Lex("'unterminated").ok());
  EXPECT_FALSE(Lex("/* unterminated").ok());
  EXPECT_FALSE(Lex("$").ok());
  EXPECT_FALSE(Lex("@").ok());
}

// ---------- parser ----------

TEST(ParserTest, SimpleFlwor) {
  auto program = *ParseProgram(
      "for $t in dataset Reviews where $t.id = 3 return $t.summary");
  ASSERT_EQ(program.statements.size(), 1u);
  const Statement& stmt = program.statements[0];
  EXPECT_EQ(stmt.kind, Statement::Kind::kQuery);
  ASSERT_EQ(stmt.body->kind, AExpr::Kind::kSubquery);
  const Flwor& flwor = *stmt.body->subquery;
  ASSERT_EQ(flwor.clauses.size(), 2u);
  EXPECT_EQ(flwor.clauses[0].kind, Clause::Kind::kFor);
  EXPECT_EQ(flwor.clauses[0].var, "t");
  EXPECT_EQ(flwor.clauses[0].source->kind, AExpr::Kind::kDatasetRef);
  EXPECT_EQ(flwor.clauses[1].kind, Clause::Kind::kWhere);
  EXPECT_EQ(flwor.return_expr->kind, AExpr::Kind::kField);
}

TEST(ParserTest, Statements) {
  auto program = *ParseProgram(R"(
    use dataverse TextStore;
    set simfunction 'jaccard';
    set simthreshold '0.5';
    create dataset AmazonReview primary key id partitions 4;
    create index nix on AmazonReview(reviewerName) type ngram(2);
    create index smix on AmazonReview(summary) type keyword;
    create index bt on AmazonReview(reviewerName) type btree;
    create function my-sim($a, $b) { similarity-jaccard($a, $b) };
  )");
  ASSERT_EQ(program.statements.size(), 8u);
  EXPECT_EQ(program.statements[1].kind, Statement::Kind::kSet);
  EXPECT_EQ(program.statements[1].set_value, "jaccard");
  EXPECT_EQ(program.statements[3].partitions, 4);
  EXPECT_EQ(program.statements[4].index_type, "ngram");
  EXPECT_EQ(program.statements[4].gram_len, 2);
  EXPECT_EQ(program.statements[7].kind, Statement::Kind::kCreateFunction);
  EXPECT_EQ(program.statements[7].params.size(), 2u);
}

TEST(ParserTest, SimilarityOperator) {
  auto program = *ParseProgram(
      "for $a in dataset X for $b in dataset X "
      "where word-tokens($a.s) ~= word-tokens($b.s) return {'a': $a}");
  const Flwor& flwor = *program.statements[0].body->subquery;
  const AExprPtr& cond = flwor.clauses[2].condition;
  EXPECT_EQ(cond->kind, AExpr::Kind::kCall);
  EXPECT_EQ(cond->name, "sim-eq");
}

TEST(ParserTest, GroupByOrderByHints) {
  auto program = *ParseProgram(R"(
    for $t in dataset X
    for $tok in word-tokens($t.s)
    /*+ hash */
    group by $g := $tok with $t
    order by count($t), $g desc
    return $g
  )");
  const Flwor& flwor = *program.statements[0].body->subquery;
  const Clause& group = flwor.clauses[2];
  EXPECT_EQ(group.kind, Clause::Kind::kGroupBy);
  EXPECT_TRUE(group.hash_hint);
  EXPECT_EQ(group.group_keys[0].first, "g");
  EXPECT_EQ(group.with_vars[0], "t");
  const Clause& order = flwor.clauses[3];
  EXPECT_EQ(order.kind, Clause::Kind::kOrderBy);
  ASSERT_EQ(order.order_keys.size(), 2u);
  EXPECT_TRUE(order.order_keys[0].second);
  EXPECT_FALSE(order.order_keys[1].second);
}

TEST(ParserTest, PositionalForAndSubquery) {
  auto program = *ParseProgram(R"(
    for $t in dataset X
    for $r at $i in (for $u in dataset Y order by $u.id return $u.id)
    where $t.id = $r
    return $i
  )");
  const Flwor& flwor = *program.statements[0].body->subquery;
  EXPECT_EQ(flwor.clauses[1].pos_var, "i");
  EXPECT_EQ(flwor.clauses[1].source->kind, AExpr::Kind::kSubquery);
}

TEST(ParserTest, BcastHintOnEquality) {
  auto program = *ParseProgram(
      "for $a in dataset X for $b in dataset Y "
      "where $a.k = /*+ bcast */ $b.k return $a");
  const AExprPtr& cond =
      program.statements[0].body->subquery->clauses[2].condition;
  EXPECT_EQ(cond->name, "eq");
  EXPECT_TRUE(cond->bcast_hint);
}

TEST(ParserTest, UnionAndMetaClauses) {
  auto expr = *ParseExpression(
      "for $t in union((for $l in ##LEFT return $$LK), "
      "(for $r in ##RIGHT return $$RK)) return $t");
  const Clause& clause = expr->subquery->clauses[0];
  EXPECT_EQ(clause.source->kind, AExpr::Kind::kUnion);
  EXPECT_EQ(clause.source->branches.size(), 2u);
}

TEST(ParserTest, ExplicitJoinClause) {
  auto expr = *ParseExpression(
      "join $l in ##LEFT, $r in ##RIGHT on $l.id = $r.id return $l");
  const Clause& clause = expr->subquery->clauses[0];
  EXPECT_EQ(clause.kind, Clause::Kind::kJoin);
  EXPECT_EQ(clause.join_bindings.size(), 2u);
  ASSERT_NE(clause.join_condition, nullptr);
}

TEST(ParserTest, RecordAndListConstructors) {
  auto expr = *ParseExpression("{'a': 1, 'b': [1, 2.5, 'x'], 'c': {'d': true}}");
  EXPECT_EQ(expr->kind, AExpr::Kind::kRecord);
  EXPECT_EQ(expr->field_names.size(), 3u);
  EXPECT_EQ(expr->children[1]->kind, AExpr::Kind::kList);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseProgram("for $t in").ok());
  EXPECT_FALSE(ParseProgram("for $t in dataset X").ok());  // missing return
  EXPECT_FALSE(ParseProgram("create index i on X field type keyword").ok());
  EXPECT_FALSE(ParseExpression("1 +").ok());
  EXPECT_FALSE(ParseExpression("{'a' 1}").ok());
}

// ---------- translator ----------

Result<TranslationResult> Translate(const std::string& text) {
  SIMDB_ASSIGN_OR_RETURN(AExprPtr expr, ParseExpression(text));
  Translator translator;
  return translator.TranslateQuery(expr);
}

TEST(TranslatorTest, ScanSelectProject) {
  auto tr = Translate(
      "for $t in dataset X where $t.id = 3 return $t.summary");
  ASSERT_TRUE(tr.ok()) << tr.status().ToString();
  // Project <- Assign <- Select <- DataScan
  EXPECT_EQ(tr->plan->kind, LOpKind::kProject);
  EXPECT_EQ(tr->plan->inputs[0]->kind, LOpKind::kAssign);
  EXPECT_EQ(tr->plan->inputs[0]->inputs[0]->kind, LOpKind::kSelect);
  EXPECT_EQ(tr->plan->inputs[0]->inputs[0]->inputs[0]->kind,
            LOpKind::kDataScan);
}

TEST(TranslatorTest, TwoForsBecomeJoin) {
  auto tr = Translate(
      "for $a in dataset X for $b in dataset Y "
      "where $a.id = $b.id return {'a': $a, 'b': $b}");
  ASSERT_TRUE(tr.ok()) << tr.status().ToString();
  const auto& select = tr->plan->inputs[0]->inputs[0];
  EXPECT_EQ(select->kind, LOpKind::kSelect);
  EXPECT_EQ(select->inputs[0]->kind, LOpKind::kJoin);
}

TEST(TranslatorTest, CountQuery) {
  auto tr = Translate("count(for $t in dataset X return $t)");
  ASSERT_TRUE(tr.ok()) << tr.status().ToString();
  EXPECT_TRUE(tr->is_count);
}

TEST(TranslatorTest, UnnestCorrelatedSource) {
  auto tr = Translate(
      "for $t in dataset X for $w in word-tokens($t.s) return $w");
  ASSERT_TRUE(tr.ok()) << tr.status().ToString();
  EXPECT_EQ(tr->plan->inputs[0]->inputs[0]->kind, LOpKind::kUnnest);
}

TEST(TranslatorTest, GroupByRebindsVariables) {
  auto tr = Translate(R"(
    for $t in dataset X
    for $tok in word-tokens($t.s)
    group by $g := $tok with $t
    return { 'token': $g, 'n': count($t) }
  )");
  ASSERT_TRUE(tr.ok()) << tr.status().ToString();
  const auto& group = tr->plan->inputs[0]->inputs[0];
  EXPECT_EQ(group->kind, LOpKind::kGroupBy);
  EXPECT_EQ(group->group_aggs.size(), 1u);
}

TEST(TranslatorTest, NamedSubquerySharedAcrossUses) {
  auto tr = Translate(R"(
    let $ranked := (for $u in dataset Y order by $u.id return $u.id)
    for $a in dataset X
    for $r1 at $i in $ranked
    where $a.id = $r1
    return $i
  )");
  ASSERT_TRUE(tr.ok()) << tr.status().ToString();
}

TEST(TranslatorTest, UnboundVariableFails) {
  auto tr = Translate("for $t in dataset X return $nope");
  EXPECT_FALSE(tr.ok());
}

TEST(TranslatorTest, ScalarSubqueryRejected) {
  auto tr = Translate(
      "for $t in dataset X return len(for $u in dataset Y return $u)");
  EXPECT_FALSE(tr.ok());
}

TEST(TranslatorTest, MetaBindingsResolve) {
  MetaBindings bindings;
  bindings.clauses["LEFT"] = {algebricks::MakeDataScan("X", "xrec"), "xrec"};
  bindings.vars["PK"] = algebricks::LExpr::Field(
      algebricks::LExpr::Var("xrec"), "id");
  auto expr = *ParseExpression("for $l in ##LEFT return $$PK");
  Translator translator(bindings);
  auto tr = translator.TranslateQuery(expr);
  ASSERT_TRUE(tr.ok()) << tr.status().ToString();
}

TEST(TranslatorTest, UnboundMetaClauseFails) {
  auto expr = *ParseExpression("for $l in ##NOPE return $l");
  Translator translator;
  EXPECT_FALSE(translator.TranslateQuery(expr).ok());
}

TEST(TranslatorTest, UdfInlining) {
  std::map<std::string, Translator::FunctionDefAst> fns;
  auto body = *ParseExpression("similarity-jaccard($a, $b)");
  fns["my-sim"] = {{"a", "b"}, body};
  auto expr = *ParseExpression(
      "for $t in dataset X where my-sim(word-tokens($t.s), "
      "word-tokens('x')) >= 0.5 return $t");
  Translator translator({}, &fns);
  auto tr = translator.TranslateQuery(expr);
  ASSERT_TRUE(tr.ok()) << tr.status().ToString();
  // The inlined call must appear in the select condition.
  EXPECT_NE(tr->plan->ToString().find("similarity-jaccard"), std::string::npos);
}

// ---------- nesting limit ----------

std::string Repeat(const std::string& s, int n) {
  std::string out;
  out.reserve(s.size() * static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

/// `n` nested parentheses, list constructors or record constructors around
/// the literal 1.
std::string Parens(int n) { return Repeat("(", n) + "1" + Repeat(")", n); }
std::string Lists(int n) { return Repeat("[", n) + "1" + Repeat("]", n); }
std::string Records(int n) {
  return Repeat("{'a': ", n) + "1" + Repeat("}", n);
}

// Recursive descent without a bound overflows the stack on input like this;
// each shape must come back as a parse error instead.
TEST(ParserDepthTest, TenThousandDeepInputsAreParseErrors) {
  const int n = 10000;
  const std::string inputs[] = {
      Parens(n),
      "let $x := " + Records(n) + " return $x",
      Lists(n),
      Repeat("- ", n) + "1",
      Repeat("not ", n) + "true",
      Repeat("count(for $x in [1] return ", n) + "1" + Repeat(")", n),
  };
  for (const std::string& text : inputs) {
    Result<Program> program = ParseProgram(text);
    ASSERT_FALSE(program.ok()) << text.substr(0, 40);
    EXPECT_EQ(program.status().code(), StatusCode::kParseError)
        << program.status().ToString();
    EXPECT_NE(program.status().message().find("nests deeper than"),
              std::string::npos)
        << program.status().ToString();
    EXPECT_EQ(ParseExpression(text).status().code(), StatusCode::kParseError);
  }
}

// The limit counts one level per expression: a statement's expression is
// level 1, so kMaxParseDepth - 1 parentheses are the deepest that parse.
TEST(ParserDepthTest, LimitIsExact) {
  EXPECT_TRUE(ParseProgram(Parens(kMaxParseDepth - 1)).ok());
  EXPECT_EQ(ParseProgram(Parens(kMaxParseDepth)).status().code(),
            StatusCode::kParseError);
  EXPECT_TRUE(ParseProgram(Lists(kMaxParseDepth - 1)).ok());
  EXPECT_EQ(ParseProgram(Lists(kMaxParseDepth)).status().code(),
            StatusCode::kParseError);
}

// Input just under the limit goes through every later pass (translation,
// rewrites, job generation, evaluation, JSON output) and answers.
TEST(ParserDepthTest, QueryJustUnderTheLimitAnswers) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("simdb_aql_depth_" + std::to_string(::getpid())))
          .string();
  {
    core::EngineOptions options;
    options.data_dir = dir;
    options.topology = {2, 2};
    options.num_threads = 2;
    core::QueryProcessor engine(options);
    const int depth = kMaxParseDepth - 1;
    const std::string expected[] = {"1", Lists(depth), Records(depth)};
    const std::string queries[] = {Parens(depth), Lists(depth),
                                   Records(depth)};
    for (size_t i = 0; i < 3; ++i) {
      core::QueryResult result;
      Status s = engine.Execute(queries[i], &result);
      ASSERT_TRUE(s.ok()) << s.ToString();
      ASSERT_EQ(result.rows.size(), 1u);
      std::string want = expected[i];
      std::erase(want, ' ');
      std::replace(want.begin(), want.end(), '\'', '"');
      EXPECT_EQ(result.rows[0].ToJson(), want);
    }
    core::QueryResult result;
    ASSERT_TRUE(engine
                    .Execute("let $x := " + Records(depth - 1) +
                                 " return $x",
                             &result)
                    .ok());
    ASSERT_EQ(result.rows.size(), 1u);
  }
  storage::RemoveAllBestEffort(dir);
}

}  // namespace
}  // namespace simdb::aql
