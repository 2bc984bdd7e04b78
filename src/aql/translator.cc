#include "aql/translator.h"

#include <atomic>

namespace simdb::aql {

using algebricks::LAgg;
using algebricks::LExpr;
using algebricks::LExprPtr;
using algebricks::LOpPtr;
using algebricks::LSortKey;

namespace {

/// Globally unique plan-variable names: template instantiations and user
/// queries may be composed into one plan, so names must never collide.
std::atomic<int> g_var_counter{0};

constexpr int kMaxInlineDepth = 32;

}  // namespace

std::string Translator::FreshVar(const std::string& hint) {
  return "v" + std::to_string(g_var_counter++) + "_" + hint;
}

Result<TranslationResult> Translator::TranslateQuery(const AExprPtr& root) {
  if (root == nullptr) return Status::PlanError("empty query");
  if (root->kind == AExpr::Kind::kSubquery) {
    return TranslateFlwor(*root->subquery);
  }
  if (root->kind == AExpr::Kind::kCall && root->name == "count" &&
      root->children.size() == 1 &&
      root->children[0]->kind == AExpr::Kind::kSubquery) {
    SIMDB_ASSIGN_OR_RETURN(TranslationResult inner,
                           TranslateFlwor(*root->children[0]->subquery));
    // Only the number of rows is read: the FLWOR's PROJECT keeps no
    // variable, so liveness and the split-record rewrite see the returned
    // value as unread.
    inner.plan->project_vars.clear();
    inner.out_var.clear();
    inner.is_count = true;
    return inner;
  }
  // A scalar expression: evaluate over a single constant tuple.
  Scope scope;
  scope.named_cache = std::make_shared<std::map<const AExpr*, CachedSource>>();
  scope.plan = algebricks::MakeConstantTuple();
  SIMDB_ASSIGN_OR_RETURN(LExprPtr e, TranslateExpr(root, scope));
  std::string rv = FreshVar("ret");
  LOpPtr plan = algebricks::MakeAssign(scope.plan, {{rv, e}});
  plan = algebricks::MakeProject(plan, {rv});
  return TranslationResult{plan, rv, false};
}

Result<TranslationResult> Translator::TranslateFlwor(const Flwor& flwor,
                                                     const Scope* parent) {
  Scope scope;
  if (parent != nullptr) {
    scope.named_sources = parent->named_sources;
    scope.named_cache = parent->named_cache;
  } else {
    scope.named_cache =
        std::make_shared<std::map<const AExpr*, CachedSource>>();
  }
  for (const Clause& clause : flwor.clauses) {
    SIMDB_RETURN_IF_ERROR(TranslateClause(clause, &scope));
  }
  if (flwor.return_expr == nullptr) {
    return Status::PlanError("FLWOR without return");
  }
  SIMDB_ASSIGN_OR_RETURN(LExprPtr ret, TranslateExpr(flwor.return_expr, scope));
  if (scope.plan == nullptr) scope.plan = algebricks::MakeConstantTuple();
  std::string rv = FreshVar("ret");
  LOpPtr plan = algebricks::MakeAssign(scope.plan, {{rv, ret}});
  plan = algebricks::MakeProject(plan, {rv});
  return TranslationResult{plan, rv, false};
}

void Translator::AttachSource(LOpPtr source, Scope* scope) {
  if (scope->plan == nullptr) {
    scope->plan = std::move(source);
  } else {
    scope->plan = algebricks::MakeJoin(
        scope->plan, std::move(source),
        LExpr::Lit(adm::Value::Boolean(true)));
  }
}

Result<TranslationResult> Translator::TranslateCollection(const AExprPtr& expr,
                                                          Scope& scope) {
  if (expr->kind == AExpr::Kind::kSubquery) {
    return TranslateFlwor(*expr->subquery, &scope);
  }
  if (expr->kind == AExpr::Kind::kUnion) {
    std::string common = FreshVar("u");
    LOpPtr combined;
    for (const FlworPtr& branch : expr->branches) {
      SIMDB_ASSIGN_OR_RETURN(TranslationResult tr,
                             TranslateFlwor(*branch, &scope));
      LOpPtr renamed = algebricks::MakeAssign(
          tr.plan, {{common, LExpr::Var(tr.out_var)}});
      renamed = algebricks::MakeProject(renamed, {common});
      combined = combined == nullptr
                     ? renamed
                     : algebricks::MakeUnionAll(combined, renamed, {common});
    }
    return TranslationResult{combined, common, false};
  }
  (void)scope;
  return Status::PlanError("expected a collection-valued source");
}

Status Translator::AddForBinding(const std::string& var,
                                 const std::string& pos_var,
                                 const AExprPtr& source, Scope* scope) {
  switch (source->kind) {
    case AExpr::Kind::kDatasetRef: {
      if (!pos_var.empty()) {
        return Status::PlanError("'at' is not defined over datasets");
      }
      std::string sv = FreshVar(var);
      scope->var_map[var] = LExpr::Var(sv);
      AttachSource(algebricks::MakeDataScan(source->name, sv), scope);
      return Status::OK();
    }
    case AExpr::Kind::kMetaClause: {
      auto it = bindings_.clauses.find(source->name);
      if (it == bindings_.clauses.end()) {
        return Status::PlanError("unbound meta-clause ##" + source->name);
      }
      if (!pos_var.empty()) {
        return Status::PlanError("'at' is not defined over meta-clauses");
      }
      scope->var_map[var] = LExpr::Var(it->second.out_var);
      AttachSource(it->second.plan, scope);
      return Status::OK();
    }
    case AExpr::Kind::kSubquery:
    case AExpr::Kind::kUnion: {
      SIMDB_ASSIGN_OR_RETURN(TranslationResult tr,
                             TranslateCollection(source, *scope));
      std::string rank_var;
      if (!pos_var.empty()) {
        rank_var = FreshVar(pos_var);
        tr.plan = algebricks::MakeRank(tr.plan, rank_var);
      }
      scope->var_map[var] = LExpr::Var(tr.out_var);
      if (!pos_var.empty()) scope->var_map[pos_var] = LExpr::Var(rank_var);
      AttachSource(tr.plan, scope);
      return Status::OK();
    }
    case AExpr::Kind::kVar: {
      auto named = scope->named_sources.find(source->name);
      if (named != scope->named_sources.end()) {
        // let-bound subquery used as a source; translate once and share the
        // subplan across all uses (materialize/reuse, paper Figure 20). The
        // cache is keyed by AST node and shared with nested subqueries.
        const AExpr* key = named->second.get();
        auto cached = scope->named_cache->find(key);
        if (cached == scope->named_cache->end()) {
          SIMDB_ASSIGN_OR_RETURN(TranslationResult tr,
                                 TranslateCollection(named->second, *scope));
          cached = scope->named_cache->emplace(key, CachedSource{tr, ""}).first;
        }
        CachedSource& entry = cached->second;
        if (!pos_var.empty() && entry.rank_var.empty()) {
          entry.rank_var = FreshVar("rank");
          entry.tr.plan = algebricks::MakeRank(entry.tr.plan, entry.rank_var);
        }
        scope->var_map[var] = LExpr::Var(entry.tr.out_var);
        if (!pos_var.empty()) {
          scope->var_map[pos_var] = LExpr::Var(entry.rank_var);
        }
        AttachSource(entry.tr.plan, scope);
        return Status::OK();
      }
      break;  // fall through: correlated iteration over a bound variable
    }
    default:
      break;
  }
  // Correlated source: unnest an expression over the current bindings.
  SIMDB_ASSIGN_OR_RETURN(LExprPtr list, TranslateExpr(source, *scope));
  if (scope->plan == nullptr) scope->plan = algebricks::MakeConstantTuple();
  std::string iv = FreshVar(var);
  std::string pv = pos_var.empty() ? "" : FreshVar(pos_var);
  scope->plan = algebricks::MakeUnnest(scope->plan, list, iv, pv);
  scope->var_map[var] = LExpr::Var(iv);
  if (!pos_var.empty()) scope->var_map[pos_var] = LExpr::Var(pv);
  return Status::OK();
}

Status Translator::TranslateClause(const Clause& clause, Scope* scope) {
  switch (clause.kind) {
    case Clause::Kind::kFor:
      return AddForBinding(clause.var, clause.pos_var, clause.source, scope);
    case Clause::Kind::kLet: {
      if (clause.source->kind == AExpr::Kind::kSubquery ||
          clause.source->kind == AExpr::Kind::kUnion) {
        scope->named_sources[clause.var] = clause.source;
        return Status::OK();
      }
      SIMDB_ASSIGN_OR_RETURN(LExprPtr e, TranslateExpr(clause.source, *scope));
      if (scope->plan == nullptr) {
        scope->plan = algebricks::MakeConstantTuple();
      }
      std::string fv = FreshVar(clause.var);
      scope->plan = algebricks::MakeAssign(scope->plan, {{fv, e}});
      scope->var_map[clause.var] = LExpr::Var(fv);
      return Status::OK();
    }
    case Clause::Kind::kWhere: {
      if (scope->plan == nullptr) {
        return Status::PlanError("'where' before any 'for'");
      }
      SIMDB_ASSIGN_OR_RETURN(LExprPtr cond,
                             TranslateExpr(clause.condition, *scope));
      scope->plan = algebricks::MakeSelect(scope->plan, cond);
      return Status::OK();
    }
    case Clause::Kind::kGroupBy: {
      if (scope->plan == nullptr) {
        return Status::PlanError("'group by' before any 'for'");
      }
      std::vector<std::pair<std::string, LExprPtr>> keys;
      std::vector<std::pair<std::string, std::string>> key_bindings;
      for (const auto& [user_var, expr] : clause.group_keys) {
        SIMDB_ASSIGN_OR_RETURN(LExprPtr e, TranslateExpr(expr, *scope));
        std::string kv = FreshVar(user_var);
        keys.emplace_back(kv, std::move(e));
        key_bindings.emplace_back(user_var, kv);
      }
      std::vector<LAgg> aggs;
      std::vector<std::pair<std::string, std::string>> agg_bindings;
      for (const std::string& wv : clause.with_vars) {
        auto bound = scope->var_map.find(wv);
        if (bound == scope->var_map.end()) {
          return Status::PlanError("'with' of unbound variable $" + wv);
        }
        LAgg agg;
        agg.kind = LAgg::Kind::kListify;
        agg.input = bound->second;
        agg.out_var = FreshVar(wv);
        agg_bindings.emplace_back(wv, agg.out_var);
        aggs.push_back(std::move(agg));
      }
      scope->plan = algebricks::MakeGroupBy(scope->plan, std::move(keys),
                                            std::move(aggs));
      scope->var_map.clear();
      for (const auto& [user_var, kv] : key_bindings) {
        scope->var_map[user_var] = LExpr::Var(kv);
      }
      for (const auto& [user_var, av] : agg_bindings) {
        scope->var_map[user_var] = LExpr::Var(av);
      }
      return Status::OK();
    }
    case Clause::Kind::kOrderBy: {
      if (scope->plan == nullptr) {
        return Status::PlanError("'order by' before any 'for'");
      }
      std::vector<LSortKey> keys;
      for (const auto& [expr, asc] : clause.order_keys) {
        SIMDB_ASSIGN_OR_RETURN(LExprPtr e, TranslateExpr(expr, *scope));
        keys.push_back({std::move(e), asc});
      }
      scope->plan = algebricks::MakeOrderBy(scope->plan, std::move(keys));
      return Status::OK();
    }
    case Clause::Kind::kLimit: {
      if (scope->plan == nullptr) {
        return Status::PlanError("'limit' before any 'for'");
      }
      scope->plan = algebricks::MakeLimit(scope->plan, clause.limit);
      return Status::OK();
    }
    case Clause::Kind::kJoin: {
      // AQL+ explicit join: bind every source, then apply the condition; the
      // optimizer's select rules merge it into the synthesized joins.
      for (const auto& [var, source] : clause.join_bindings) {
        SIMDB_RETURN_IF_ERROR(AddForBinding(var, "", source, scope));
      }
      SIMDB_ASSIGN_OR_RETURN(LExprPtr cond,
                             TranslateExpr(clause.join_condition, *scope));
      scope->plan = algebricks::MakeSelect(scope->plan, cond);
      return Status::OK();
    }
  }
  return Status::Internal("unreachable clause kind");
}

Result<LExprPtr> Translator::TranslateExpr(const AExprPtr& expr, Scope& scope,
                                           int depth) {
  if (depth > kMaxInlineDepth) {
    return Status::PlanError("function inlining too deep (cycle?)");
  }
  switch (expr->kind) {
    case AExpr::Kind::kVar: {
      auto it = scope.var_map.find(expr->name);
      if (it == scope.var_map.end()) {
        if (scope.named_sources.count(expr->name) > 0) {
          return Status::PlanError(
              "subquery-valued variable $" + expr->name +
              " can only be used as a 'for' source");
        }
        return Status::PlanError("unbound variable $" + expr->name);
      }
      return it->second;
    }
    case AExpr::Kind::kLiteral:
      return LExpr::Lit(expr->literal);
    case AExpr::Kind::kField: {
      SIMDB_ASSIGN_OR_RETURN(LExprPtr base,
                             TranslateExpr(expr->children[0], scope, depth));
      return LExpr::Field(std::move(base), expr->name);
    }
    case AExpr::Kind::kCall: {
      // Inline user-defined AQL functions.
      if (functions_ != nullptr) {
        auto fn = functions_->find(expr->name);
        if (fn != functions_->end()) {
          if (fn->second.params.size() != expr->children.size()) {
            return Status::PlanError("function " + expr->name +
                                     " arity mismatch");
          }
          Scope fn_scope;
          for (size_t i = 0; i < fn->second.params.size(); ++i) {
            SIMDB_ASSIGN_OR_RETURN(
                LExprPtr arg, TranslateExpr(expr->children[i], scope, depth));
            fn_scope.var_map[fn->second.params[i]] = std::move(arg);
          }
          return TranslateExpr(fn->second.body, fn_scope, depth + 1);
        }
      }
      std::vector<LExprPtr> args;
      args.reserve(expr->children.size());
      for (const AExprPtr& c : expr->children) {
        SIMDB_ASSIGN_OR_RETURN(LExprPtr a, TranslateExpr(c, scope, depth));
        args.push_back(std::move(a));
      }
      LExprPtr call = LExpr::CallF(expr->name, std::move(args));
      if (expr->bcast_hint) {
        auto mutable_call = std::make_shared<LExpr>(*call);
        mutable_call->bcast_hint = true;
        call = mutable_call;
      }
      return call;
    }
    case AExpr::Kind::kRecord: {
      std::vector<LExprPtr> values;
      for (const AExprPtr& c : expr->children) {
        SIMDB_ASSIGN_OR_RETURN(LExprPtr v, TranslateExpr(c, scope, depth));
        values.push_back(std::move(v));
      }
      return LExpr::Record(expr->field_names, std::move(values));
    }
    case AExpr::Kind::kList: {
      std::vector<LExprPtr> items;
      for (const AExprPtr& c : expr->children) {
        SIMDB_ASSIGN_OR_RETURN(LExprPtr v, TranslateExpr(c, scope, depth));
        items.push_back(std::move(v));
      }
      return LExpr::List(std::move(items));
    }
    case AExpr::Kind::kMetaVar: {
      auto it = bindings_.vars.find(expr->name);
      if (it == bindings_.vars.end()) {
        return Status::PlanError("unbound meta-variable $$" + expr->name);
      }
      return it->second;
    }
    case AExpr::Kind::kSubquery:
    case AExpr::Kind::kUnion:
      return Status::PlanError(
          "correlated subqueries in scalar positions are not supported; "
          "use a 'for' source or group-by collection instead");
    case AExpr::Kind::kDatasetRef:
      return Status::PlanError("dataset reference in scalar position");
    case AExpr::Kind::kMetaClause:
      return Status::PlanError("meta-clause in scalar position");
  }
  return Status::Internal("unreachable expr kind");
}

}  // namespace simdb::aql
