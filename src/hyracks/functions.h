#ifndef SIMDB_HYRACKS_FUNCTIONS_H_
#define SIMDB_HYRACKS_FUNCTIONS_H_

#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "adm/value.h"
#include "common/result.h"

namespace simdb::hyracks {

/// A scalar builtin (or user-registered) function evaluated row-at-a-time by
/// CallExpr. Arity is validated at plan-compile time.
struct FunctionDef {
  std::string name;
  int min_args = 0;
  int max_args = 0;  // inclusive; use kVarArgs for unbounded
  std::function<Result<adm::Value>(std::span<const adm::Value>)> fn;

  static constexpr int kVarArgs = 1 << 20;
};

/// Registry of scalar functions available to queries. Pre-populated with the
/// engine builtins (comparisons, arithmetic, tokenizers, similarity
/// functions, prefix helpers). Users may Register additional functions (the
/// paper's external-UDF path).
class FunctionRegistry {
 public:
  static FunctionRegistry& Global();

  void Register(FunctionDef def);
  /// nullptr when unknown.
  const FunctionDef* Find(std::string_view name) const;

  std::vector<std::string> Names() const;

 private:
  FunctionRegistry();

  std::map<std::string, FunctionDef, std::less<>> functions_;
};

}  // namespace simdb::hyracks

#endif  // SIMDB_HYRACKS_FUNCTIONS_H_
