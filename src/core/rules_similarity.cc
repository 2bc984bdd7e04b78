#include "core/rules_similarity.h"

#include <atomic>
#include <functional>
#include <set>

#include "algebricks/jobgen.h"
#include "core/sim_predicate.h"
#include "similarity/edit_distance.h"
#include "similarity/similarity_function.h"
#include "similarity/tokenizer.h"

namespace simdb::core {

using algebricks::LExpr;
using algebricks::LExprPtr;
using algebricks::LOp;
using algebricks::LOpKind;
using algebricks::LOpPtr;
using algebricks::OptContext;
using algebricks::RewriteRule;
using algebricks::RuleContract;

namespace {

std::atomic<int> g_rule_var_counter{0};

std::string RuleVar(const std::string& hint) {
  return "r" + std::to_string(g_rule_var_counter++) + "_" + hint;
}

// ---------------------------------------------------------------------------
// ~= sugar
// ---------------------------------------------------------------------------

Result<LExprPtr> RewriteSimEq(const LExprPtr& expr, const OptContext& ctx,
                              bool* changed) {
  if (expr == nullptr) return expr;
  auto copy = std::make_shared<LExpr>(*expr);
  for (LExprPtr& c : copy->children) {
    SIMDB_ASSIGN_OR_RETURN(c, RewriteSimEq(c, ctx, changed));
  }
  if (copy->kind != LExpr::Kind::kCall || copy->name != "sim-eq") {
    return LExprPtr(copy);
  }
  if (copy->children.size() != 2) {
    return Status::PlanError("~= expects two operands");
  }
  const similarity::SimilarityFunction* fn =
      similarity::SimilarityFunctionRegistry::Global().FindByAlias(
          ctx.sim_function_alias);
  if (fn == nullptr) {
    return Status::PlanError("unknown simfunction '" + ctx.sim_function_alias +
                             "'");
  }
  LExprPtr call = LExpr::CallF(fn->name, {copy->children[0], copy->children[1]});
  LExprPtr threshold = LExpr::Lit(adm::Value::Double(ctx.sim_threshold));
  *changed = true;
  if (fn->sense == similarity::ThresholdSense::kDistanceAtMost) {
    return LExpr::CallF("le", {call, threshold});
  }
  return LExpr::CallF("ge", {call, threshold});
}

class SimilaritySugarRule : public RewriteRule {
 public:
  std::string name() const override { return "similarity-sugar"; }

  RuleContract contract() const override {
    RuleContract c;
    c.expression_only = true;
    // Desugaring `~=` is the same rewrite for every parent of a shared node.
    c.shared_mutation_safe = true;
    return c;
  }

  Result<bool> Apply(LOpPtr& op, OptContext& ctx) override {
    bool changed = false;
    if (op->expr != nullptr) {
      SIMDB_ASSIGN_OR_RETURN(op->expr, RewriteSimEq(op->expr, ctx, &changed));
    }
    for (auto& [name, e] : op->assigns) {
      (void)name;
      SIMDB_ASSIGN_OR_RETURN(e, RewriteSimEq(e, ctx, &changed));
    }
    return changed;
  }
};

// ---------------------------------------------------------------------------
// check-variant rewrite (early-terminating verification, paper Section 3.2)
// ---------------------------------------------------------------------------

/// similarity-jaccard(a,b) >= d  ->  similarity-jaccard-check(a,b,d)
/// edit-distance(a,b) <= k       ->  edit-distance-check(a,b,k)
/// (and the literal-first flips). The check variants apply length filters
/// and abort the merge/DP early, so SELECT and join-residual verification is
/// much cheaper. Run as the final rewrite pass: the index rules match the
/// plain forms.
LExprPtr RewriteToCheckVariant(const LExprPtr& expr, bool* changed) {
  if (expr == nullptr) return expr;
  auto copy = std::make_shared<LExpr>(*expr);
  for (LExprPtr& c : copy->children) {
    c = RewriteToCheckVariant(c, changed);
  }
  if (copy->kind != LExpr::Kind::kCall || copy->children.size() != 2) {
    return LExprPtr(copy);
  }
  auto is_lit = [](const LExprPtr& e) {
    return e->kind == LExpr::Kind::kLiteral && e->literal.is_numeric();
  };
  auto is_fn = [](const LExprPtr& e, const char* name) {
    return e->kind == LExpr::Kind::kCall && e->name == name &&
           e->children.size() == 2;
  };
  const LExprPtr& lhs = copy->children[0];
  const LExprPtr& rhs = copy->children[1];
  const char* check_fn = nullptr;
  LExprPtr call, threshold;
  if ((copy->name == "ge" && is_fn(lhs, "similarity-jaccard") && is_lit(rhs)) ||
      (copy->name == "le" && is_fn(rhs, "similarity-jaccard") && is_lit(lhs))) {
    check_fn = "similarity-jaccard-check";
    call = is_lit(rhs) ? lhs : rhs;
    threshold = is_lit(rhs) ? rhs : lhs;
  } else if ((copy->name == "le" && is_fn(lhs, "edit-distance") &&
              is_lit(rhs)) ||
             (copy->name == "ge" && is_fn(rhs, "edit-distance") &&
              is_lit(lhs))) {
    check_fn = "edit-distance-check";
    call = is_lit(rhs) ? lhs : rhs;
    threshold = is_lit(rhs) ? rhs : lhs;
  }
  if (check_fn == nullptr) return LExprPtr(copy);
  *changed = true;
  return LExpr::CallF(check_fn,
                      {call->children[0], call->children[1], threshold});
}

class UseCheckVariantRule : public RewriteRule {
 public:
  std::string name() const override { return "use-check-variants"; }

  RuleContract contract() const override {
    RuleContract c;
    c.expression_only = true;
    // Swapping in the cheaper check variant preserves every parent's output.
    c.shared_mutation_safe = true;
    return c;
  }

  Result<bool> Apply(LOpPtr& op, OptContext&) override {
    if (op->kind != LOpKind::kSelect && op->kind != LOpKind::kJoin) {
      return false;
    }
    bool changed = false;
    op->expr = RewriteToCheckVariant(op->expr, &changed);
    return changed;
  }
};

// ---------------------------------------------------------------------------
// shared helpers for the index rules
// ---------------------------------------------------------------------------

/// True when every row of `plan` maps 1:1 (or 1:0) to a row of its base
/// DATA-SCAN — i.e. the plan is a linear Select/Assign/Project chain over one
/// scan. The surrogate optimization needs this: a row-multiplying outer
/// (join, unnest) would duplicate surrogates and the top-level resolution
/// join would then square the duplication.
bool IsScanChain(const LOpPtr& plan) {
  const LOp* node = plan.get();
  while (node != nullptr) {
    switch (node->kind) {
      case LOpKind::kDataScan:
        return true;
      case LOpKind::kSelect:
      case LOpKind::kAssign:
      case LOpKind::kProject:
      case LOpKind::kLimit:
      case LOpKind::kLocalSort:
        node = node->inputs[0].get();
        break;
      default:
        return false;
    }
  }
  return false;
}

bool ExprHasVars(const LExprPtr& e) {
  std::set<std::string> vars;
  e->CollectVars(&vars);
  return !vars.empty();
}

/// The T-occurrence bound expression for a runtime (join-side) corner-case
/// split: edit-distance-t-occurrence(key, gram_len, k) <= 0 is the corner.
LExprPtr CornerTExpr(const LExprPtr& key, int gram_len, int k) {
  return LExpr::CallF("edit-distance-t-occurrence",
                      {key, LExpr::Lit(adm::Value::Int64(gram_len)),
                       LExpr::Lit(adm::Value::Int64(k))});
}

// ---------------------------------------------------------------------------
// index-based similarity selection (paper Figure 7)
// ---------------------------------------------------------------------------

class IndexSelectRule : public RewriteRule {
 public:
  std::string name() const override { return "introduce-similarity-select-index"; }

  RuleContract contract() const override {
    RuleContract c;
    c.needs_catalog = true;
    c.may_introduce = {LOpKind::kConstantTuple, LOpKind::kIndexSearch,
                       LOpKind::kBtreeSearch,   LOpKind::kLocalSort,
                       LOpKind::kPrimaryLookup, LOpKind::kSelect,
                       LOpKind::kAssign,        LOpKind::kProject,
                       LOpKind::kUnionAll};
    return c;
  }

  Result<bool> Apply(LOpPtr& op, OptContext& ctx) override {
    if (!ctx.enable_index_select || ctx.catalog == nullptr) return false;
    if (op->kind != LOpKind::kSelect) return false;
    const LOpPtr& scan = op->inputs[0];
    if (scan->kind != LOpKind::kDataScan) return false;
    storage::Dataset* ds = ctx.catalog->Find(scan->dataset);
    if (ds == nullptr) return false;

    for (const LExprPtr& conjunct : algebricks::SplitConjuncts(op->expr)) {
      // Exact-match predicates use a secondary B+-tree when available (the
      // paper's exact-match baseline in Figure 22).
      if (conjunct->kind == LExpr::Kind::kCall && conjunct->name == "eq" &&
          conjunct->children.size() == 2) {
        for (int side = 0; side < 2; ++side) {
          std::optional<std::string> eq_field = ExtractFieldRef(
              conjunct->children[static_cast<size_t>(side)], scan->out_var);
          const LExprPtr& eq_const =
              conjunct->children[static_cast<size_t>(1 - side)];
          if (!eq_field.has_value() || ExprHasVars(eq_const)) continue;
          const storage::IndexSpec* btree =
              ds->FindIndexOnField(*eq_field, similarity::IndexKind::kBtree);
          if (btree == nullptr) continue;
          std::string pk_var = RuleVar("pk");
          LOpPtr plan = algebricks::MakeBtreeSearch(
              algebricks::MakeConstantTuple(), scan->dataset, btree->name,
              eq_const, pk_var);
          plan = algebricks::MakeLocalSort(plan, {{LExpr::Var(pk_var), true}});
          plan = algebricks::MakePrimaryLookup(plan, scan->dataset, pk_var,
                                               scan->out_var);
          plan = algebricks::MakeSelect(plan, op->expr);
          plan = algebricks::MakeProject(plan, {scan->out_var});
          op = plan;
          return true;
        }
      }
      std::optional<SimPredicate> pred = MatchSimilarityConjunct(conjunct);
      if (!pred.has_value()) continue;
      // One side must be a field of the scanned record, the other constant.
      LExprPtr const_arg;
      std::optional<std::string> field =
          ExtractFieldRef(pred->arg0, scan->out_var);
      if (field.has_value() && !ExprHasVars(pred->arg1)) {
        const_arg = pred->arg1;
      } else {
        field = ExtractFieldRef(pred->arg1, scan->out_var);
        if (!field.has_value() || ExprHasVars(pred->arg0)) continue;
        const_arg = pred->arg0;
      }
      const storage::IndexSpec* index =
          ds->FindIndexOnField(*field, CompatibleIndexKind(pred->fn));
      if (index == nullptr) continue;

      // Jaccard corner case: delta <= 0 is satisfied by every record
      // (including token-disjoint ones), so T = ceil(delta * len) = 0 and the
      // index cannot produce candidates. Keep the scan plan.
      if (pred->fn == SimPredicate::Fn::kJaccard && pred->threshold <= 0) {
        continue;
      }
      // Compile-time corner-case analysis (edit distance / contains): when
      // T <= 0 the index cannot prune and the scan plan must remain.
      if (pred->fn != SimPredicate::Fn::kJaccard) {
        SIMDB_ASSIGN_OR_RETURN(adm::Value key,
                               algebricks::EvaluateConstant(const_arg));
        if (!key.is_string()) continue;
        int k = pred->fn == SimPredicate::Fn::kEditDistance
                    ? static_cast<int>(pred->threshold)
                    : 0;
        int t = similarity::EditDistanceTOccurrence(
            static_cast<int>(key.AsString().size()), index->gram_len, k);
        if (t <= 0) return false;  // corner case: keep the scan-based plan
      }

      // Replace SCAN+SELECT with the secondary-to-primary index plan.
      std::string pk_var = RuleVar("pk");
      LOpPtr plan = algebricks::MakeIndexSearch(
          algebricks::MakeConstantTuple(), scan->dataset, index->name,
          const_arg, ToSearchSpec(*pred), pk_var);
      plan = algebricks::MakeLocalSort(plan, {{LExpr::Var(pk_var), true}});
      plan = algebricks::MakePrimaryLookup(plan, scan->dataset, pk_var,
                                           scan->out_var);
      plan = algebricks::MakeSelect(plan, op->expr);  // verify everything
      plan = algebricks::MakeProject(plan, {scan->out_var});
      op = plan;
      return true;
    }
    return false;
  }
};

// ---------------------------------------------------------------------------
// index-nested-loop similarity join (paper Figures 10, 14, 19)
// ---------------------------------------------------------------------------

class IndexJoinRule : public RewriteRule {
 public:
  std::string name() const override { return "introduce-similarity-index-join"; }

  RuleContract contract() const override {
    RuleContract c;
    c.needs_catalog = true;
    c.may_introduce = {LOpKind::kDataScan,      LOpKind::kIndexSearch,
                       LOpKind::kLocalSort,     LOpKind::kPrimaryLookup,
                       LOpKind::kSelect,        LOpKind::kAssign,
                       LOpKind::kProject,       LOpKind::kJoin,
                       LOpKind::kUnionAll};
    return c;
  }

  Result<bool> Apply(LOpPtr& op, OptContext& ctx) override {
    if (!ctx.enable_index_join || ctx.catalog == nullptr) return false;
    if (op->kind != LOpKind::kJoin) return false;
    const LOpPtr& outer = op->inputs[0];
    const LOpPtr& inner = op->inputs[1];
    if (inner->kind != LOpKind::kDataScan) return false;
    storage::Dataset* ds = ctx.catalog->Find(inner->dataset);
    if (ds == nullptr) return false;

    SIMDB_ASSIGN_OR_RETURN(std::vector<std::string> outer_vars_list,
                           outer->OutputVars());
    std::set<std::string> outer_vars(outer_vars_list.begin(),
                                     outer_vars_list.end());

    std::vector<LExprPtr> conjuncts = algebricks::SplitConjuncts(op->expr);
    for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
      std::optional<SimPredicate> pred = MatchSimilarityConjunct(conjuncts[ci]);
      if (!pred.has_value()) continue;
      // Identify the inner (indexed) side and the outer key expression.
      std::optional<std::string> field =
          ExtractFieldRef(pred->arg0, inner->out_var);
      LExprPtr outer_key = pred->arg1;
      if (!field.has_value()) {
        field = ExtractFieldRef(pred->arg1, inner->out_var);
        outer_key = pred->arg0;
      }
      if (!field.has_value()) continue;
      if (!outer_key->UsesOnly(outer_vars)) continue;
      // Jaccard delta <= 0 matches token-disjoint pairs, which an inverted
      // index can never surface (T = 0) and the plan has no corner branch for
      // Jaccard keys; only the NL join is complete there.
      if (pred->fn == SimPredicate::Fn::kJaccard && pred->threshold <= 0) {
        continue;
      }
      const storage::IndexSpec* index =
          ds->FindIndexOnField(*field, CompatibleIndexKind(pred->fn));
      if (index == nullptr) continue;

      std::vector<LExprPtr> remaining;
      for (size_t i = 0; i < conjuncts.size(); ++i) {
        if (i != ci) remaining.push_back(conjuncts[i]);
      }
      SIMDB_ASSIGN_OR_RETURN(
          LOpPtr rewritten,
          Build(ctx, op, outer, inner, ds, *index, *pred, outer_key,
                std::move(remaining), outer_vars_list));
      op = rewritten;
      return true;
    }
    return false;
  }

 private:
  Result<LOpPtr> Build(OptContext& ctx, const LOpPtr& join, const LOpPtr& outer,
                       const LOpPtr& inner, storage::Dataset* ds,
                       const storage::IndexSpec& index,
                       const SimPredicate& pred, const LExprPtr& outer_key,
                       std::vector<LExprPtr> remaining,
                       const std::vector<std::string>& outer_vars) {
    (void)join;
    // The primary key of the outer record the key expression reads, if the
    // key is rooted in one scanned record.
    LExprPtr outer_pk;
    std::set<std::string> key_vars;
    outer_key->CollectVars(&key_vars);
    if (key_vars.size() == 1) {
      const LOp* scan = FindScanOfVar(outer, *key_vars.begin());
      storage::Dataset* outer_ds =
          scan != nullptr ? ctx.catalog->Find(scan->dataset) : nullptr;
      if (outer_ds != nullptr) {
        outer_pk = LExpr::Field(LExpr::Var(scan->out_var),
                                outer_ds->spec().pk_field);
      }
    }
    // Surrogate optimization (Figure 19): project the outer branch to
    // (surrogate, key) before broadcasting, then resolve surrogates with a
    // top-level equi join against the full outer branch.
    LExprPtr surrogate_expr;
    if (ctx.enable_surrogate_join && IsScanChain(outer)) {
      surrogate_expr = outer_pk;
    }

    LOpPtr pipeline_input;       // branch feeding the index search
    LExprPtr pipeline_key;       // key expression over that branch
    std::string surrogate_var;   // bound in the projected branch
    LExprPtr verify_conjunct;    // sim conjunct over pipeline vars
    std::vector<std::string> pipeline_vars;
    if (surrogate_expr != nullptr) {
      surrogate_var = RuleVar("surr");
      std::string skey_var = RuleVar("skey");
      // Ship the *raw* secondary-key field, not derived values: when the key
      // expression is a tokenizer call, project its argument and re-apply
      // the tokenizer at the index site (the paper's "only sending the
      // secondary-key fields together with a compact surrogate").
      LExprPtr projected = outer_key;
      if (outer_key->kind == LExpr::Kind::kCall &&
          (outer_key->name == "word-tokens" ||
           outer_key->name == "gram-tokens") &&
          !outer_key->children.empty()) {
        projected = outer_key->children[0];
      }
      pipeline_input = algebricks::MakeProject(
          algebricks::MakeAssign(
              outer, {{surrogate_var, surrogate_expr}, {skey_var, projected}}),
          {surrogate_var, skey_var});
      // Rewrite the key and the sim conjunct to reference the projected
      // column instead of the original outer expression.
      std::function<LExprPtr(const LExprPtr&)> subst =
          [&](const LExprPtr& e) -> LExprPtr {
        if (e == projected) return LExpr::Var(skey_var);
        auto copy = std::make_shared<LExpr>(*e);
        for (LExprPtr& c : copy->children) c = subst(c);
        return copy;
      };
      pipeline_key = subst(outer_key);
      verify_conjunct = subst(pred.original);
      pipeline_vars = {surrogate_var, skey_var};
    } else {
      pipeline_input = outer;
      pipeline_key = outer_key;
      verify_conjunct = pred.original;
      pipeline_vars = outer_vars;
    }

    // Corner-case handling for edit distance / contains: search keys are
    // produced at runtime, so split the stream on T (Figure 14).
    bool needs_corner = pred.fn != SimPredicate::Fn::kJaccard;
    int corner_k = pred.fn == SimPredicate::Fn::kEditDistance
                       ? static_cast<int>(pred.threshold)
                       : 0;

    LOpPtr search_input = pipeline_input;
    if (needs_corner) {
      search_input = algebricks::MakeSelect(
          pipeline_input,
          LExpr::CallF("gt", {CornerTExpr(pipeline_key, index.gram_len,
                                          corner_k),
                              LExpr::Lit(adm::Value::Int64(0))}));
    }

    std::string pk_var = RuleVar("pk");
    LOpPtr plan = algebricks::MakeIndexSearch(search_input, inner->dataset,
                                              index.name, pipeline_key,
                                              ToSearchSpec(pred), pk_var);
    // Conjuncts that read each side only through its primary key (the self
    // join's `$o.id < $i.id`) run directly above INDEX-SEARCH, where the
    // outer key (or its surrogate) first meets the inner pk: the sort, the
    // lookups and the verify see only pairs that can survive. The corner
    // branch keeps its bare -check join, so with one the conjuncts also stay
    // on top for the corner rows.
    if (outer_pk != nullptr) {
      LExprPtr outer_to =
          surrogate_expr != nullptr ? LExpr::Var(surrogate_var) : outer_pk;
      LExprPtr inner_pk =
          LExpr::Field(LExpr::Var(inner->out_var), ds->spec().pk_field);
      std::vector<LExprPtr> on_pairs, on_top;
      for (const LExprPtr& c : remaining) {
        std::optional<LExprPtr> on_pair = RewritePkConjunct(
            c, outer_pk, outer_to, inner_pk, LExpr::Var(pk_var));
        if (on_pair.has_value()) on_pairs.push_back(*on_pair);
        if (!on_pair.has_value() || needs_corner) on_top.push_back(c);
      }
      if (!on_pairs.empty()) {
        plan = algebricks::MakeSelect(
            plan, algebricks::CombineConjuncts(std::move(on_pairs)));
      }
      remaining = std::move(on_top);
    }
    plan = algebricks::MakeLocalSort(plan, {{LExpr::Var(pk_var), true}});
    plan = algebricks::MakePrimaryLookup(plan, inner->dataset, pk_var,
                                         inner->out_var);
    plan = algebricks::MakeSelect(plan, verify_conjunct);

    if (needs_corner) {
      // Corner records (T <= 0) go through a nested-loop join with a scan of
      // the inner dataset; the final answer is the union of both paths. The
      // pipeline input is shared between the two selects (replicate).
      LOpPtr corner_input = algebricks::MakeSelect(
          pipeline_input,
          LExpr::CallF("le", {CornerTExpr(pipeline_key, index.gram_len,
                                          corner_k),
                              LExpr::Lit(adm::Value::Int64(0))}));
      // Put the corner stream on the right so the broadcast NL join ships
      // the (small) corner stream, not the dataset.
      LOpPtr corner_scan = algebricks::MakeDataScan(inner->dataset,
                                                    inner->out_var);
      LOpPtr corner_join = algebricks::MakeJoin(
          corner_scan, corner_input, verify_conjunct,
          algebricks::JoinStrategy::kBroadcastNl);
      std::vector<std::string> union_vars = pipeline_vars;
      union_vars.push_back(inner->out_var);
      plan = algebricks::MakeUnionAll(plan, corner_join, union_vars);
    }

    if (surrogate_expr != nullptr) {
      // Resolve surrogates: top-level equi join with the full outer branch
      // (executed as a parallel hash join).
      plan = algebricks::MakeJoin(
          outer, plan,
          LExpr::CallF("eq", {surrogate_expr, LExpr::Var(surrogate_var)}));
    }
    if (!remaining.empty()) {
      plan = algebricks::MakeSelect(plan,
                                    algebricks::CombineConjuncts(remaining));
    }
    std::vector<std::string> final_vars = outer_vars;
    final_vars.push_back(inner->out_var);
    return algebricks::MakeProject(plan, final_vars);
  }
};

}  // namespace

std::shared_ptr<RewriteRule> MakeSimilaritySugarRule() {
  return std::make_shared<SimilaritySugarRule>();
}

std::shared_ptr<RewriteRule> MakeUseCheckVariantRule() {
  return std::make_shared<UseCheckVariantRule>();
}

std::shared_ptr<RewriteRule> MakeIndexSelectRule() {
  return std::make_shared<IndexSelectRule>();
}

std::shared_ptr<RewriteRule> MakeIndexJoinRule() {
  return std::make_shared<IndexJoinRule>();
}

}  // namespace simdb::core
