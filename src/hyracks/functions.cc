#include "hyracks/functions.h"

#include <algorithm>
#include <cmath>

#include "similarity/edit_distance.h"
#include "similarity/jaccard.h"
#include "similarity/similarity_function.h"
#include "similarity/tokenizer.h"

namespace simdb::hyracks {

using adm::Value;

namespace {

using Args = std::span<const Value>;

Status ExpectNumeric(const Value& v, const char* fn) {
  if (!v.is_numeric()) {
    return Status::TypeError(std::string(fn) + " expects numeric arguments");
  }
  return Status::OK();
}

Result<Value> EvalCompare(Args args, int want_lo, int want_hi) {
  // MISSING/NULL propagate as per three-valued semantics simplified to
  // "comparison with missing/null is false".
  if (args[0].is_missing() || args[0].is_null() || args[1].is_missing() ||
      args[1].is_null()) {
    return Value::Boolean(false);
  }
  int c = Value::Compare(args[0], args[1]);
  return Value::Boolean(c >= want_lo && c <= want_hi);
}

Value TokensToValue(std::vector<std::string> tokens) {
  Value::Array items;
  items.reserve(tokens.size());
  for (std::string& t : tokens) items.push_back(Value::String(std::move(t)));
  return Value::MakeArray(std::move(items));
}

Result<Value> EvalArith(Args args, char op) {
  SIMDB_RETURN_IF_ERROR(ExpectNumeric(args[0], "arithmetic"));
  SIMDB_RETURN_IF_ERROR(ExpectNumeric(args[1], "arithmetic"));
  if (args[0].is_int64() && args[1].is_int64() && op != '/') {
    int64_t a = args[0].AsInt64(), b = args[1].AsInt64();
    switch (op) {
      case '+':
        return Value::Int64(a + b);
      case '-':
        return Value::Int64(a - b);
      case '*':
        return Value::Int64(a * b);
    }
  }
  double a = args[0].AsNumber(), b = args[1].AsNumber();
  switch (op) {
    case '+':
      return Value::Double(a + b);
    case '-':
      return Value::Double(a - b);
    case '*':
      return Value::Double(a * b);
    case '/':
      if (b == 0) return Status::InvalidArgument("division by zero");
      return Value::Double(a / b);
  }
  return Status::Internal("bad arithmetic op");
}

/// Whether `a` and `b` satisfy `threshold` under measure `m`: its `check`
/// when it has one, else its `eval` compared to the threshold in the
/// measure's ThresholdSense, exactly as `le`/`ge` would compare them (a
/// MISSING or NULL score satisfies nothing). A UDF registered under a
/// builtin's name may come without a `check`.
Result<bool> CheckMeasure(const similarity::SimilarityFunction& m,
                          const Value& a, const Value& b, double threshold) {
  if (m.check) return m.check(a, b, threshold);
  SIMDB_ASSIGN_OR_RETURN(Value score, m.eval(a, b));
  if (score.is_missing() || score.is_null()) return false;
  int c = Value::Compare(score, Value::Double(threshold));
  return m.sense == similarity::ThresholdSense::kDistanceAtMost ? c <= 0
                                                                : c >= 0;
}

}  // namespace

FunctionRegistry& FunctionRegistry::Global() {
  static FunctionRegistry* registry = new FunctionRegistry;
  return *registry;
}

void FunctionRegistry::Register(FunctionDef def) {
  functions_[def.name] = std::move(def);
}

const FunctionDef* FunctionRegistry::Find(std::string_view name) const {
  auto it = functions_.find(name);
  return it == functions_.end() ? nullptr : &it->second;
}

std::vector<std::string> FunctionRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(functions_.size());
  for (const auto& [name, def] : functions_) names.push_back(name);
  return names;
}

FunctionRegistry::FunctionRegistry() {
  auto add = [this](std::string name, int min_args, int max_args,
                    std::function<Result<Value>(Args)> fn) {
    Register({std::move(name), min_args, max_args, std::move(fn)});
  };

  // --- logical ---
  add("and", 2, FunctionDef::kVarArgs, [](Args args) -> Result<Value> {
    for (const Value& v : args) {
      if (!v.is_boolean()) return Status::TypeError("and expects booleans");
      if (!v.AsBoolean()) return Value::Boolean(false);
    }
    return Value::Boolean(true);
  });
  add("or", 2, FunctionDef::kVarArgs, [](Args args) -> Result<Value> {
    for (const Value& v : args) {
      if (!v.is_boolean()) return Status::TypeError("or expects booleans");
      if (v.AsBoolean()) return Value::Boolean(true);
    }
    return Value::Boolean(false);
  });
  add("not", 1, 1, [](Args args) -> Result<Value> {
    if (!args[0].is_boolean()) return Status::TypeError("not expects boolean");
    return Value::Boolean(!args[0].AsBoolean());
  });

  // --- comparisons ---
  add("eq", 2, 2, [](Args a) { return EvalCompare(a, 0, 0); });
  add("neq", 2, 2, [](Args a) -> Result<Value> {
    if (a[0].is_missing() || a[0].is_null() || a[1].is_missing() ||
        a[1].is_null()) {
      return Value::Boolean(false);
    }
    return Value::Boolean(Value::Compare(a[0], a[1]) != 0);
  });
  add("lt", 2, 2, [](Args a) { return EvalCompare(a, -1, -1); });
  add("le", 2, 2, [](Args a) { return EvalCompare(a, -1, 0); });
  add("gt", 2, 2, [](Args a) { return EvalCompare(a, 1, 1); });
  add("ge", 2, 2, [](Args a) { return EvalCompare(a, 0, 1); });

  // --- arithmetic ---
  add("add", 2, 2, [](Args a) { return EvalArith(a, '+'); });
  add("sub", 2, 2, [](Args a) { return EvalArith(a, '-'); });
  add("mul", 2, 2, [](Args a) { return EvalArith(a, '*'); });
  add("div", 2, 2, [](Args a) { return EvalArith(a, '/'); });

  // --- misc ---
  add("is-missing", 1, 1, [](Args a) -> Result<Value> {
    return Value::Boolean(a[0].is_missing());
  });
  add("if-then-else", 3, 3, [](Args a) -> Result<Value> {
    if (!a[0].is_boolean()) {
      return Status::TypeError("if-then-else expects boolean condition");
    }
    return a[0].AsBoolean() ? a[1] : a[2];
  });
  add("len", 1, 1, [](Args a) -> Result<Value> {
    if (a[0].is_string()) {
      return Value::Int64(static_cast<int64_t>(a[0].AsString().size()));
    }
    if (a[0].is_list()) {
      return Value::Int64(static_cast<int64_t>(a[0].AsList().size()));
    }
    return Status::TypeError("len expects a string or list");
  });
  add("get-field", 2, 2, [](Args a) -> Result<Value> {
    if (!a[1].is_string()) return Status::TypeError("get-field name");
    return a[0].GetField(a[1].AsString());
  });

  // --- tokenizers ---
  add("word-tokens", 1, 1, [](Args a) -> Result<Value> {
    if (a[0].is_missing() || a[0].is_null()) {
      return Value::MakeArray({});
    }
    if (!a[0].is_string()) return Status::TypeError("word-tokens expects string");
    return TokensToValue(similarity::WordTokens(a[0].AsString()));
  });
  add("gram-tokens", 2, 3, [](Args a) -> Result<Value> {
    if (a[0].is_missing() || a[0].is_null()) {
      return Value::MakeArray({});
    }
    if (!a[0].is_string() || !a[1].is_int64()) {
      return Status::TypeError("gram-tokens expects (string, int)");
    }
    bool pad = a.size() > 2 && a[2].is_boolean() && a[2].AsBoolean();
    return TokensToValue(similarity::GramTokens(
        a[0].AsString(), static_cast<int>(a[1].AsInt64()), pad));
  });
  add("sort-list", 1, 1, [](Args a) -> Result<Value> {
    if (!a[0].is_list()) return Status::TypeError("sort-list expects a list");
    Value::Array items = a[0].AsList();
    std::sort(items.begin(), items.end(),
              [](const Value& x, const Value& y) {
                return Value::Compare(x, y) < 0;
              });
    return Value::MakeArray(std::move(items));
  });
  add("edit-distance-t-occurrence", 3, 3, [](Args a) -> Result<Value> {
    if (!a[0].is_string() || !a[1].is_int64() || !a[2].is_numeric()) {
      return Status::TypeError(
          "edit-distance-t-occurrence expects (string, int, int)");
    }
    return Value::Int64(similarity::EditDistanceTOccurrence(
        static_cast<int>(a[0].AsString().size()),
        static_cast<int>(a[1].AsInt64()),
        static_cast<int>(a[2].AsNumber())));
  });
  add("dedup-occurrences", 1, 1, [](Args a) -> Result<Value> {
    SIMDB_ASSIGN_OR_RETURN(std::vector<std::string> tokens,
                           similarity::ValueToTokens(a[0]));
    return TokensToValue(similarity::DedupOccurrences(tokens));
  });

  // --- similarity measures ---
  // Looked up once: SimilarityFunctionRegistry::Register replaces a measure
  // in place, so these pointers also reach a measure a user re-registers.
  const auto& measures = similarity::SimilarityFunctionRegistry::Global();
  const similarity::SimilarityFunction* ed = measures.Find("edit-distance");
  const similarity::SimilarityFunction* jaccard =
      measures.Find("similarity-jaccard");
  const similarity::SimilarityFunction* dice = measures.Find("similarity-dice");
  const similarity::SimilarityFunction* cosine =
      measures.Find("similarity-cosine");
  add("edit-distance", 2, 2,
      [ed](Args a) -> Result<Value> { return ed->eval(a[0], a[1]); });
  add("edit-distance-check", 3, 3, [ed](Args a) -> Result<Value> {
    if (!a[2].is_numeric()) return Status::TypeError("threshold must be numeric");
    SIMDB_ASSIGN_OR_RETURN(bool ok,
                           CheckMeasure(*ed, a[0], a[1], a[2].AsNumber()));
    return Value::Boolean(ok);
  });
  add("similarity-jaccard", 2, 2, [jaccard](Args a) -> Result<Value> {
    return jaccard->eval(a[0], a[1]);
  });
  add("similarity-jaccard-check", 3, 3, [jaccard](Args a) -> Result<Value> {
    if (!a[2].is_numeric()) return Status::TypeError("threshold must be numeric");
    SIMDB_ASSIGN_OR_RETURN(bool ok,
                           CheckMeasure(*jaccard, a[0], a[1], a[2].AsNumber()));
    return Value::Boolean(ok);
  });
  add("similarity-dice", 2, 2,
      [dice](Args a) -> Result<Value> { return dice->eval(a[0], a[1]); });
  add("similarity-cosine", 2, 2,
      [cosine](Args a) -> Result<Value> { return cosine->eval(a[0], a[1]); });
  add("contains", 2, 2, [](Args a) -> Result<Value> {
    if (!a[0].is_string() || !a[1].is_string()) {
      return Status::TypeError("contains expects strings");
    }
    return Value::Boolean(a[0].AsString().find(a[1].AsString()) !=
                          std::string::npos);
  });

  // --- prefix filtering helpers (paper Section 4.2.2) ---
  add("prefix-len-jaccard", 2, 2, [](Args a) -> Result<Value> {
    if (!a[0].is_int64() || !a[1].is_numeric()) {
      return Status::TypeError("prefix-len-jaccard expects (int, double)");
    }
    return Value::Int64(similarity::PrefixLenJaccard(
        static_cast<int>(a[0].AsInt64()), a[1].AsNumber()));
  });
  add("subset-collection", 3, 3, [](Args a) -> Result<Value> {
    if (!a[0].is_list() || !a[1].is_int64() || !a[2].is_int64()) {
      return Status::TypeError("subset-collection expects (list, int, int)");
    }
    const Value::Array& items = a[0].AsList();
    int64_t start = a[1].AsInt64();
    int64_t len = a[2].AsInt64();
    if (start < 0) start = 0;
    if (len < 0) len = 0;
    Value::Array out;
    for (int64_t i = start;
         i < start + len && i < static_cast<int64_t>(items.size()); ++i) {
      out.push_back(items[static_cast<size_t>(i)]);
    }
    return Value::MakeArray(std::move(out));
  });
}

}  // namespace simdb::hyracks
