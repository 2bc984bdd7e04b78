// Systematic coverage of the scalar function library (hyracks/functions.cc):
// every builtin's happy path, type errors, and MISSING/NULL behaviour.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <random>

#include "core/query_processor.h"
#include "hyracks/expr.h"
#include "hyracks/functions.h"
#include "similarity/edit_distance.h"
#include "similarity/similarity_function.h"
#include "storage/file_util.h"

namespace simdb::hyracks {
namespace {

using adm::Value;

Result<Value> Eval(const std::string& fn, std::vector<Value> args) {
  const FunctionDef* def = FunctionRegistry::Global().Find(fn);
  if (def == nullptr) return Status::NotFound("no function " + fn);
  return def->fn(args);
}

Value Str(const char* s) { return Value::String(s); }
Value I(int64_t v) { return Value::Int64(v); }
Value D(double v) { return Value::Double(v); }
Value B(bool v) { return Value::Boolean(v); }
Value Tokens(std::vector<const char*> items) {
  Value::Array a;
  for (const char* s : items) a.push_back(Str(s));
  return Value::MakeArray(std::move(a));
}

// ---------- logical ----------

TEST(FunctionsTest, AndOrShortSemantics) {
  EXPECT_TRUE((*Eval("and", {B(true), B(true)})).AsBoolean());
  EXPECT_FALSE((*Eval("and", {B(true), B(false)})).AsBoolean());
  EXPECT_TRUE((*Eval("or", {B(false), B(true)})).AsBoolean());
  EXPECT_FALSE((*Eval("or", {B(false), B(false)})).AsBoolean());
  EXPECT_TRUE((*Eval("and", {B(true), B(true), B(true)})).AsBoolean());
  EXPECT_FALSE(Eval("and", {B(true), I(1)}).ok());  // non-boolean
}

// CallExpr evaluates up to four arguments in a stack buffer and more in a
// vector: n-ary `and` across that boundary, with arguments read from a row.
TEST(FunctionsTest, NaryAndAcrossTheInlineArgumentBoundary) {
  for (int n : {4, 5, 6}) {
    std::vector<ExprPtr> args;
    for (int i = 0; i < n; ++i) args.push_back(Col(i, "c" + std::to_string(i)));
    Result<ExprPtr> call = Call("and", args);
    ASSERT_TRUE(call.ok()) << call.status().ToString();
    Tuple row(static_cast<size_t>(n), B(true));
    EXPECT_TRUE((*(*call)->Eval(row)).AsBoolean()) << n;
    for (int i = 0; i < n; ++i) {
      Tuple one_false = row;
      one_false[static_cast<size_t>(i)] = B(false);
      EXPECT_FALSE((*(*call)->Eval(one_false)).AsBoolean()) << n << " " << i;
    }
    Tuple last_not_boolean = row;
    last_not_boolean.back() = I(1);
    EXPECT_EQ((*call)->Eval(last_not_boolean).status().code(),
              StatusCode::kTypeError);
    // Arguments evaluate left to right: the first failing one is reported.
    Tuple short_row(2, B(true));
    Result<Value> missing_columns = (*call)->Eval(short_row);
    ASSERT_FALSE(missing_columns.ok());
    EXPECT_NE(missing_columns.status().message().find("column index 2 "),
              std::string::npos)
        << missing_columns.status().ToString();
  }
}

TEST(FunctionsTest, Not) {
  EXPECT_FALSE((*Eval("not", {B(true)})).AsBoolean());
  EXPECT_FALSE(Eval("not", {I(0)}).ok());
}

// ---------- comparisons ----------

TEST(FunctionsTest, ComparisonOperators) {
  EXPECT_TRUE((*Eval("eq", {I(3), I(3)})).AsBoolean());
  EXPECT_TRUE((*Eval("eq", {I(3), D(3.0)})).AsBoolean());  // numeric coercion
  EXPECT_TRUE((*Eval("neq", {I(3), I(4)})).AsBoolean());
  EXPECT_TRUE((*Eval("lt", {I(3), I(4)})).AsBoolean());
  EXPECT_TRUE((*Eval("le", {I(3), I(3)})).AsBoolean());
  EXPECT_TRUE((*Eval("gt", {Str("b"), Str("a")})).AsBoolean());
  EXPECT_TRUE((*Eval("ge", {Str("a"), Str("a")})).AsBoolean());
}

TEST(FunctionsTest, ComparisonsWithMissingNullAreFalse) {
  for (const char* cmp : {"eq", "neq", "lt", "le", "gt", "ge"}) {
    EXPECT_FALSE((*Eval(cmp, {Value::Missing(), I(1)})).AsBoolean()) << cmp;
    EXPECT_FALSE((*Eval(cmp, {I(1), Value::Null()})).AsBoolean()) << cmp;
  }
}

// ---------- arithmetic ----------

TEST(FunctionsTest, IntegerArithmeticStaysInt) {
  Value v = *Eval("add", {I(2), I(3)});
  EXPECT_TRUE(v.is_int64());
  EXPECT_EQ(v.AsInt64(), 5);
  EXPECT_EQ((*Eval("sub", {I(2), I(3)})).AsInt64(), -1);
  EXPECT_EQ((*Eval("mul", {I(4), I(3)})).AsInt64(), 12);
}

TEST(FunctionsTest, MixedArithmeticWidens) {
  Value v = *Eval("add", {I(2), D(0.5)});
  EXPECT_TRUE(v.is_double());
  EXPECT_DOUBLE_EQ(v.AsDoubleExact(), 2.5);
}

TEST(FunctionsTest, DivisionAlwaysDoubleAndChecksZero) {
  EXPECT_DOUBLE_EQ((*Eval("div", {I(7), I(2)})).AsDoubleExact(), 3.5);
  EXPECT_FALSE(Eval("div", {I(1), I(0)}).ok());
}

TEST(FunctionsTest, ArithmeticTypeErrors) {
  EXPECT_FALSE(Eval("add", {Str("a"), I(1)}).ok());
}

// ---------- misc ----------

TEST(FunctionsTest, IsMissing) {
  EXPECT_TRUE((*Eval("is-missing", {Value::Missing()})).AsBoolean());
  EXPECT_FALSE((*Eval("is-missing", {Value::Null()})).AsBoolean());
}

TEST(FunctionsTest, IfThenElse) {
  EXPECT_EQ((*Eval("if-then-else", {B(true), I(1), I(2)})).AsInt64(), 1);
  EXPECT_EQ((*Eval("if-then-else", {B(false), I(1), I(2)})).AsInt64(), 2);
  EXPECT_FALSE(Eval("if-then-else", {I(1), I(1), I(2)}).ok());
}

TEST(FunctionsTest, LenOnStringsAndLists) {
  EXPECT_EQ((*Eval("len", {Str("abcd")})).AsInt64(), 4);
  EXPECT_EQ((*Eval("len", {Tokens({"a", "b"})})).AsInt64(), 2);
  EXPECT_FALSE(Eval("len", {I(1)}).ok());
}

TEST(FunctionsTest, GetField) {
  Value rec = Value::MakeObject({{"x", I(7)}});
  EXPECT_EQ((*Eval("get-field", {rec, Str("x")})).AsInt64(), 7);
  EXPECT_TRUE((*Eval("get-field", {rec, Str("y")})).is_missing());
  EXPECT_FALSE(Eval("get-field", {rec, I(1)}).ok());
}

// ---------- tokenizers ----------

TEST(FunctionsTest, WordTokensBuiltin) {
  Value v = *Eval("word-tokens", {Str("Great Product!")});
  ASSERT_EQ(v.AsList().size(), 2u);
  EXPECT_EQ(v.AsList()[0].AsString(), "great");
  // MISSING tokenizes to an empty list (records without the field are
  // simply not matched rather than failing the query).
  EXPECT_TRUE((*Eval("word-tokens", {Value::Missing()})).AsList().empty());
  EXPECT_FALSE(Eval("word-tokens", {I(3)}).ok());
}

TEST(FunctionsTest, GramTokensBuiltin) {
  Value v = *Eval("gram-tokens", {Str("abcd"), I(2)});
  EXPECT_EQ(v.AsList().size(), 3u);
  Value padded = *Eval("gram-tokens", {Str("ab"), I(3), B(true)});
  EXPECT_EQ(padded.AsList().size(), 4u);
  EXPECT_FALSE(Eval("gram-tokens", {Str("ab"), Str("x")}).ok());
}

TEST(FunctionsTest, SortList) {
  Value v = *Eval("sort-list", {Tokens({"c", "a", "b"})});
  EXPECT_EQ(v.AsList()[0].AsString(), "a");
  EXPECT_EQ(v.AsList()[2].AsString(), "c");
  // Mixed types sort by the cross-type order.
  Value mixed = *Eval("sort-list", {Value::MakeArray({Str("a"), I(5)})});
  EXPECT_TRUE(mixed.AsList()[0].is_int64());
  EXPECT_FALSE(Eval("sort-list", {I(1)}).ok());
}

TEST(FunctionsTest, DedupOccurrencesBuiltin) {
  Value v = *Eval("dedup-occurrences", {Tokens({"a", "a", "b"})});
  ASSERT_EQ(v.AsList().size(), 3u);
  EXPECT_EQ(v.AsList()[1].AsString(), "a#1");
}

// ---------- similarity ----------

TEST(FunctionsTest, EditDistanceBuiltins) {
  EXPECT_EQ((*Eval("edit-distance", {Str("james"), Str("jamie")})).AsInt64(),
            2);
  EXPECT_TRUE(
      (*Eval("edit-distance-check", {Str("james"), Str("jamie"), I(2)}))
          .AsBoolean());
  EXPECT_FALSE(
      (*Eval("edit-distance-check", {Str("james"), Str("jamie"), I(1)}))
          .AsBoolean());
  EXPECT_FALSE(Eval("edit-distance-check", {Str("a"), Str("b"), Str("x")})
                   .ok());
}

// The builtin verifies two strings with Myers' bit-parallel kernel (the
// banded DP past 64 characters); it must agree with the reference banded DP
// on every k, including bytes >= 0x80 and patterns longer than one word.
TEST(FunctionsTest, EditDistanceCheckMatchesReference) {
  std::mt19937 rng(2024);
  const std::string alphabet = "abc\x80\xc3\xff";
  auto random_string = [&](size_t len) {
    std::string out;
    for (size_t i = 0; i < len; ++i) out += alphabet[rng() % alphabet.size()];
    return out;
  };
  for (int iter = 0; iter < 600; ++iter) {
    const std::string a = random_string(rng() % 90);
    // Mostly a few edits away from `a`, so every k sees matches.
    std::string b = a;
    const int edits = static_cast<int>(rng() % 5);
    for (int e = 0; e < edits; ++e) {
      const size_t pos = b.empty() ? 0 : rng() % (b.size() + 1);
      switch (rng() % 3) {
        case 0:
          b.insert(pos, 1, alphabet[rng() % alphabet.size()]);
          break;
        case 1:
          if (pos < b.size()) b.erase(pos, 1);
          break;
        default:
          if (pos < b.size()) b[pos] = alphabet[rng() % alphabet.size()];
          break;
      }
    }
    if (iter % 10 == 0) b = random_string(rng() % 90);
    for (int k : {-1, 0, 1, 2, 3}) {
      Result<Value> got = Eval("edit-distance-check", {Str(a.c_str()),
                                                       Str(b.c_str()), I(k)});
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->AsBoolean(), similarity::EditDistanceCheck(a, b, k) >= 0)
          << "a=" << a << " b=" << b << " k=" << k;
    }
  }
}

TEST(FunctionsTest, JaccardBuiltins) {
  Value a = Tokens({"good", "product"});
  Value b = Tokens({"product"});
  EXPECT_DOUBLE_EQ((*Eval("similarity-jaccard", {a, b})).AsDoubleExact(), 0.5);
  EXPECT_TRUE((*Eval("similarity-jaccard-check", {a, b, D(0.5)})).AsBoolean());
  EXPECT_FALSE((*Eval("similarity-jaccard-check", {a, b, D(0.6)})).AsBoolean());
}

TEST(FunctionsTest, JaccardOnIntegerLists) {
  // The three-stage join verifies on rank (int) lists.
  Value a = Value::MakeArray({I(1), I(2), I(3)});
  Value b = Value::MakeArray({I(2), I(3), I(4)});
  EXPECT_DOUBLE_EQ((*Eval("similarity-jaccard", {a, b})).AsDoubleExact(), 0.5);
}

TEST(FunctionsTest, DiceAndCosineBuiltins) {
  Value a = Tokens({"one", "two", "three"});
  Value b = Tokens({"one", "two", "six"});
  EXPECT_NEAR((*Eval("similarity-dice", {a, b})).AsDoubleExact(), 2.0 / 3, 1e-9);
  EXPECT_NEAR((*Eval("similarity-cosine", {a, b})).AsDoubleExact(), 2.0 / 3,
              1e-9);
}

TEST(FunctionsTest, ContainsBuiltin) {
  EXPECT_TRUE((*Eval("contains", {Str("KX750-A11"), Str("750")})).AsBoolean());
  EXPECT_FALSE((*Eval("contains", {Str("abc"), Str("z")})).AsBoolean());
  EXPECT_FALSE(Eval("contains", {Str("abc"), I(1)}).ok());
}

// ---------- prefix-filter helpers ----------

TEST(FunctionsTest, PrefixLenJaccardBuiltin) {
  EXPECT_EQ((*Eval("prefix-len-jaccard", {I(4), D(0.5)})).AsInt64(), 3);
  EXPECT_FALSE(Eval("prefix-len-jaccard", {Str("x"), D(0.5)}).ok());
}

TEST(FunctionsTest, SubsetCollectionBuiltin) {
  Value list = Tokens({"a", "b", "c", "d"});
  Value v = *Eval("subset-collection", {list, I(1), I(2)});
  ASSERT_EQ(v.AsList().size(), 2u);
  EXPECT_EQ(v.AsList()[0].AsString(), "b");
  // Out-of-range windows clamp instead of failing.
  EXPECT_EQ((*Eval("subset-collection", {list, I(3), I(10)})).AsList().size(),
            1u);
  EXPECT_TRUE(
      (*Eval("subset-collection", {list, I(-5), I(0)})).AsList().empty());
}

TEST(FunctionsTest, EditDistanceTOccurrenceBuiltin) {
  // |G("marla")| - k*n = 4 - 2 = 2 (paper's running example).
  EXPECT_EQ((*Eval("edit-distance-t-occurrence", {Str("marla"), I(2), I(1)}))
                .AsInt64(),
            2);
  EXPECT_EQ((*Eval("edit-distance-t-occurrence", {Str("marla"), I(2), I(3)}))
                .AsInt64(),
            -2);
}

// ---------- registry behaviour ----------

TEST(FunctionsTest, UnknownFunctionAndArityValidation) {
  EXPECT_EQ(FunctionRegistry::Global().Find("no-such-fn"), nullptr);
  EXPECT_FALSE(Call("len", {}).ok());                      // too few
  EXPECT_FALSE(Call("len", {Lit(I(1)), Lit(I(2))}).ok());  // too many
}

TEST(FunctionsTest, UserRegistrationAndOverride) {
  FunctionRegistry::Global().Register(
      {"test-triple", 1, 1, [](std::span<const Value> a) -> Result<Value> {
         return Value::Int64(a[0].AsInt64() * 3);
       }});
  EXPECT_EQ((*Eval("test-triple", {I(4)})).AsInt64(), 12);
  FunctionRegistry::Global().Register(
      {"test-triple", 1, 1, [](std::span<const Value> a) -> Result<Value> {
         return Value::Int64(a[0].AsInt64() * 30);
       }});
  EXPECT_EQ((*Eval("test-triple", {I(4)})).AsInt64(), 120);
}

TEST(FunctionsTest, NamesListsBuiltins) {
  std::vector<std::string> names = FunctionRegistry::Global().Names();
  EXPECT_GT(names.size(), 25u);
}

// A measure registered under a builtin's name without a `check`: the
// `-check` builtin the rewrite plans for `edit-distance(...) <= 1` falls back
// to the measure's `eval` and ThresholdSense instead of calling an empty
// std::function.
TEST(FunctionsTest, CheckFallsBackToEvalForAMeasureWithoutCheck) {
  auto& measures = similarity::SimilarityFunctionRegistry::Global();
  const similarity::SimilarityFunction saved_measure =
      *measures.Find("edit-distance");
  const FunctionDef saved_def = *FunctionRegistry::Global().Find("edit-distance");

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("simdb_functions_" + std::to_string(::getpid())))
          .string();
  std::vector<int64_t> got;
  std::vector<int64_t> expected;
  {
    core::EngineOptions options;
    options.data_dir = dir;
    options.topology = {2, 2};
    options.num_threads = 2;
    core::QueryProcessor engine(options);
    ASSERT_TRUE(engine.Execute("create dataset D primary key id;").ok());
    const char* names[] = {"maria", "marla", "mario", "mary",
                           "james", "maria ", "ma", "amria"};
    for (int64_t id = 0; id < 8; ++id) {
      ASSERT_TRUE(engine
                      .Insert("D", Value::MakeObject(
                                       {{"id", I(id)}, {"n", Str(names[id])}}))
                      .ok());
      Value d = *saved_measure.eval(Str(names[id]), Str("maria"));
      if (d.AsNumber() <= 1) expected.push_back(id);
    }
    engine.RegisterSimilarityUdf({.name = "edit-distance",
                                  .sense = saved_measure.sense,
                                  .eval = saved_measure.eval,
                                  .check = nullptr});
    core::QueryResult result;
    Status s = engine.Execute(
        "for $t in dataset D where edit-distance($t.n, 'maria') <= 1 "
        "return $t.id",
        &result);
    // The registry is process-global: restore the builtin before asserting.
    measures.Register(saved_measure);
    FunctionRegistry::Global().Register(saved_def);
    ASSERT_TRUE(s.ok()) << s.ToString();
    for (const Value& v : result.rows) got.push_back(v.AsInt64());
  }
  storage::RemoveAllBestEffort(dir);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
  EXPECT_EQ(expected.size(), 4u);  // maria, marla, mario, "maria "
  EXPECT_TRUE(static_cast<bool>(measures.Find("edit-distance")->check));
}

}  // namespace
}  // namespace simdb::hyracks
