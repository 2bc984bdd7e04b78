#ifndef SIMDB_AQL_TRANSLATOR_H_
#define SIMDB_AQL_TRANSLATOR_H_

#include <map>
#include <string>

#include "algebricks/lop.h"
#include "aql/ast.h"
#include "common/result.h"

namespace simdb::aql {

/// AQL+ bindings supplied by a rewrite rule when compiling a template: `##X`
/// meta-clauses resolve to already-built logical subplans (with their primary
/// output variable), `$$X` meta-variables resolve to logical expressions over
/// those subplans' variables (paper Section 5.2, Table 1).
struct MetaBindings {
  struct ClauseBinding {
    algebricks::LOpPtr plan;
    std::string out_var;  // variable the template's `for $v in ##X` binds to
  };
  std::map<std::string, ClauseBinding> clauses;
  std::map<std::string, algebricks::LExprPtr> vars;
};

/// The result of translating a query: a logical plan plus the variable
/// holding each output row's value.
struct TranslationResult {
  algebricks::LOpPtr plan;
  std::string out_var;
  /// Set when the root was count(<subquery>): the caller should return the
  /// row count of `plan` instead of its rows. `plan` then outputs no
  /// variable and `out_var` is empty.
  bool is_count = false;
};

/// Translates an AQL (or AQL+) query expression into a logical plan.
/// User-defined AQL functions are inlined via `functions` (name -> params +
/// body). Translation is compositional and never optimizes; rewrite rules
/// and the job generator handle that.
class Translator {
 public:
  struct FunctionDefAst {
    std::vector<std::string> params;
    AExprPtr body;
  };

  explicit Translator(MetaBindings bindings = {},
                      const std::map<std::string, FunctionDefAst>* functions =
                          nullptr)
      : bindings_(std::move(bindings)), functions_(functions) {}

  Result<TranslationResult> TranslateQuery(const AExprPtr& root);

 private:
  /// Lazily-translated let-bound subqueries, cached by AST node so that every
  /// use — including uses in nested subqueries — shares one subplan
  /// (materialize/reuse, paper Figure 20).
  struct CachedSource {
    TranslationResult tr;
    std::string rank_var;  // set once a positional (`at`) use ranks the plan
  };

  struct Scope {
    algebricks::LOpPtr plan;  // null until the first source
    std::map<std::string, algebricks::LExprPtr> var_map;
    /// let-bound subqueries visible in this scope (inherited by nested
    /// subqueries). Values are AST nodes; plans live in the shared cache.
    std::map<std::string, AExprPtr> named_sources;
    std::shared_ptr<std::map<const AExpr*, CachedSource>> named_cache;
  };

  Result<TranslationResult> TranslateFlwor(const Flwor& flwor,
                                           const Scope* parent = nullptr);
  Status TranslateClause(const Clause& clause, Scope* scope);
  Status AddForBinding(const std::string& var, const std::string& pos_var,
                       const AExprPtr& source, Scope* scope);
  /// Attaches an independent source subplan (cross joins with the current
  /// plan; selection pushes refine it later).
  void AttachSource(algebricks::LOpPtr source, Scope* scope);
  Result<algebricks::LExprPtr> TranslateExpr(const AExprPtr& expr,
                                             Scope& scope, int depth = 0);
  /// Translates a source that yields a collection plan (subquery / union /
  /// named let). Returns plan + the item variable.
  Result<TranslationResult> TranslateCollection(const AExprPtr& expr,
                                                Scope& scope);

  std::string FreshVar(const std::string& hint);

  MetaBindings bindings_;
  const std::map<std::string, FunctionDefAst>* functions_;
};

}  // namespace simdb::aql

#endif  // SIMDB_AQL_TRANSLATOR_H_
