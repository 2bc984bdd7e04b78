#include "similarity/similarity_function.h"

#include <algorithm>
#include <mutex>

#include "similarity/edit_distance.h"
#include "similarity/jaccard.h"
#include "similarity/simd_kernels.h"

namespace simdb::similarity {

using adm::Value;

Result<std::vector<std::string>> ValueToTokens(const Value& v) {
  if (!v.is_list()) {
    return Status::TypeError("expected a list of tokens, got " +
                             std::string(adm::ValueTypeToString(v.type())));
  }
  std::vector<std::string> tokens;
  tokens.reserve(v.AsList().size());
  for (const Value& item : v.AsList()) {
    if (!item.is_string()) {
      return Status::TypeError("token list elements must be strings");
    }
    tokens.push_back(item.AsString());
  }
  return tokens;
}

namespace {

Result<Value> EvalEditDistance(const Value& a, const Value& b) {
  if (a.is_string() && b.is_string()) {
    return Value::Int64(EditDistance(a.AsString(), b.AsString()));
  }
  if (a.is_array() && b.is_array()) {
    SIMDB_ASSIGN_OR_RETURN(std::vector<std::string> ta, ValueToTokens(a));
    SIMDB_ASSIGN_OR_RETURN(std::vector<std::string> tb, ValueToTokens(b));
    return Value::Int64(EditDistance(ta, tb));
  }
  return Status::TypeError(
      "edit-distance expects two strings or two ordered lists");
}

Result<bool> CheckEditDistance(const Value& a, const Value& b,
                               double threshold) {
  int k = static_cast<int>(threshold);
  if (a.is_string() && b.is_string()) {
    // Myers' bit-parallel kernel; the banded DP stays the reference the
    // kernel tests compare it against.
    return simd::EditDistanceCheck(a.AsString(), b.AsString(), k) >= 0;
  }
  if (a.is_array() && b.is_array()) {
    SIMDB_ASSIGN_OR_RETURN(std::vector<std::string> ta, ValueToTokens(a));
    SIMDB_ASSIGN_OR_RETURN(std::vector<std::string> tb, ValueToTokens(b));
    return EditDistanceCheck(ta, tb, k) >= 0;
  }
  return Status::TypeError(
      "edit-distance expects two strings or two ordered lists");
}

bool AllStrings(const Value& v) {
  for (const Value& item : v.AsList()) {
    if (!item.is_string()) return false;
  }
  return true;
}

bool AllInt64(const Value& v) {
  for (const Value& item : v.AsList()) {
    if (!item.is_int64()) return false;
  }
  return true;
}

std::vector<int64_t> ToInt64s(const Value& v) {
  std::vector<int64_t> out;
  out.reserve(v.AsList().size());
  for (const Value& item : v.AsList()) out.push_back(item.AsInt64());
  return out;
}

/// Multiset Jaccard over lists of arbitrary comparable values (used when the
/// three-stage join verifies on integer rank lists).
double JaccardValues(Value::Array a, Value::Array b) {
  if (a.empty() && b.empty()) return 0.0;
  auto less = [](const Value& x, const Value& y) {
    return Value::Compare(x, y) < 0;
  };
  std::sort(a.begin(), a.end(), less);
  std::sort(b.begin(), b.end(), less);
  size_t i = 0, j = 0, inter = 0;
  while (i < a.size() && j < b.size()) {
    int c = Value::Compare(a[i], b[j]);
    if (c == 0) {
      ++inter;
      ++i;
      ++j;
    } else if (c < 0) {
      ++i;
    } else {
      ++j;
    }
  }
  return static_cast<double>(inter) /
         static_cast<double>(a.size() + b.size() - inter);
}

Result<Value> EvalJaccard(const Value& a, const Value& b) {
  if (!a.is_list() || !b.is_list()) {
    return Status::TypeError("similarity-jaccard expects two lists");
  }
  if (AllStrings(a) && AllStrings(b)) {
    SIMDB_ASSIGN_OR_RETURN(std::vector<std::string> ta, ValueToTokens(a));
    SIMDB_ASSIGN_OR_RETURN(std::vector<std::string> tb, ValueToTokens(b));
    return Value::Double(Jaccard(std::move(ta), std::move(tb)));
  }
  if (AllInt64(a) && AllInt64(b)) {
    // Integer rank lists (the three-stage join's stage-2 verify): sort and
    // merge native int64s instead of boxed Values.
    std::vector<int64_t> ia = ToInt64s(a), ib = ToInt64s(b);
    std::sort(ia.begin(), ia.end());
    std::sort(ib.begin(), ib.end());
    return Value::Double(JaccardSortedInt64(ia, ib));
  }
  return Value::Double(JaccardValues(a.AsList(), b.AsList()));
}

Result<bool> CheckJaccard(const Value& a, const Value& b, double delta) {
  if (!a.is_list() || !b.is_list()) {
    return Status::TypeError("similarity-jaccard expects two lists");
  }
  if (AllStrings(a) && AllStrings(b)) {
    SIMDB_ASSIGN_OR_RETURN(std::vector<std::string> ta, ValueToTokens(a));
    SIMDB_ASSIGN_OR_RETURN(std::vector<std::string> tb, ValueToTokens(b));
    std::sort(ta.begin(), ta.end());
    std::sort(tb.begin(), tb.end());
    return JaccardCheckSorted(ta, tb, delta) >= 0;
  }
  if (AllInt64(a) && AllInt64(b)) {
    std::vector<int64_t> ia = ToInt64s(a), ib = ToInt64s(b);
    std::sort(ia.begin(), ia.end());
    std::sort(ib.begin(), ib.end());
    return JaccardCheckSortedInt64(ia, ib, delta) >= 0;
  }
  return JaccardValues(a.AsList(), b.AsList()) >= delta;
}

}  // namespace

Result<Value> EvalDice(const Value& a, const Value& b) {
  SIMDB_ASSIGN_OR_RETURN(std::vector<std::string> ta, ValueToTokens(a));
  SIMDB_ASSIGN_OR_RETURN(std::vector<std::string> tb, ValueToTokens(b));
  std::sort(ta.begin(), ta.end());
  std::sort(tb.begin(), tb.end());
  return Value::Double(DiceSorted(ta, tb));
}

Result<Value> EvalCosine(const Value& a, const Value& b) {
  SIMDB_ASSIGN_OR_RETURN(std::vector<std::string> ta, ValueToTokens(a));
  SIMDB_ASSIGN_OR_RETURN(std::vector<std::string> tb, ValueToTokens(b));
  std::sort(ta.begin(), ta.end());
  std::sort(tb.begin(), tb.end());
  return Value::Double(CosineSorted(ta, tb));
}

SimilarityFunctionRegistry::SimilarityFunctionRegistry() {
  Register({.name = "edit-distance",
            .sense = ThresholdSense::kDistanceAtMost,
            .eval = EvalEditDistance,
            .check = CheckEditDistance});
  Register({.name = "similarity-jaccard",
            .sense = ThresholdSense::kSimilarityAtLeast,
            .eval = EvalJaccard,
            .check = CheckJaccard});
  Register({.name = "similarity-dice",
            .sense = ThresholdSense::kSimilarityAtLeast,
            .eval = EvalDice,
            .check = nullptr});
  Register({.name = "similarity-cosine",
            .sense = ThresholdSense::kSimilarityAtLeast,
            .eval = EvalCosine,
            .check = nullptr});
}

SimilarityFunctionRegistry& SimilarityFunctionRegistry::Global() {
  static SimilarityFunctionRegistry* registry = new SimilarityFunctionRegistry;
  return *registry;
}

void SimilarityFunctionRegistry::Register(SimilarityFunction fn) {
  for (auto& existing : functions_) {
    if (existing->name == fn.name) {
      *existing = std::move(fn);
      return;
    }
  }
  functions_.push_back(std::make_unique<SimilarityFunction>(std::move(fn)));
}

const SimilarityFunction* SimilarityFunctionRegistry::Find(
    std::string_view name) const {
  for (const auto& fn : functions_) {
    if (fn->name == name) return fn.get();
  }
  return nullptr;
}

const SimilarityFunction* SimilarityFunctionRegistry::FindByAlias(
    std::string_view alias) const {
  if (alias == "jaccard") return Find("similarity-jaccard");
  if (alias == "dice") return Find("similarity-dice");
  if (alias == "cosine") return Find("similarity-cosine");
  if (alias == "edit-distance" || alias == "ed") return Find("edit-distance");
  return Find(alias);
}

std::vector<std::string> SimilarityFunctionRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(functions_.size());
  for (const auto& fn : functions_) names.push_back(fn->name);
  return names;
}

}  // namespace simdb::similarity
