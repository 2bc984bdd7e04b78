#include "algebricks/rules.h"

#include <functional>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace simdb::algebricks {

namespace {

void CollectSharedNodesImpl(const LOpPtr& op,
                            std::unordered_map<const LOp*, int>& parents) {
  for (const LOpPtr& in : op->inputs) {
    if (++parents[in.get()] == 1) CollectSharedNodesImpl(in, parents);
  }
}

/// Depth-first application of `rule` over the DAG hanging off the edge `op`
/// of the plan `root`. After every firing the shared-node set is rebuilt so
/// rules always see current sharing, and the verify hook (if any) re-checks
/// the rule's contract plus full-plan invariants.
Result<bool> ApplyRuleOnce(LOpPtr& op, LOpPtr& root, RewriteRule& rule,
                           OptContext& ctx,
                           std::unordered_set<const LOp*>& visited,
                           std::unordered_set<const LOp*>& shared) {
  bool changed = false;
  if (ctx.check_hook != nullptr) ctx.check_hook->BeforeApply(rule, op, root);
  SIMDB_ASSIGN_OR_RETURN(bool top_changed, rule.Apply(op, ctx));
  if (ctx.check_hook != nullptr) {
    SIMDB_RETURN_IF_ERROR(
        ctx.check_hook->AfterApply(rule, op, root, top_changed));
  }
  if (top_changed) {
    ctx.fired_rules.push_back(rule.name());
    shared = CollectSharedNodes(root);
    changed = true;
  }
  if (visited.insert(op.get()).second) {
    for (LOpPtr& input : op->inputs) {
      SIMDB_ASSIGN_OR_RETURN(
          bool sub, ApplyRuleOnce(input, root, rule, ctx, visited, shared));
      changed = changed || sub;
    }
  }
  return changed;
}

}  // namespace

std::unordered_set<const LOp*> CollectSharedNodes(const LOpPtr& root) {
  std::unordered_map<const LOp*, int> parents;
  CollectSharedNodesImpl(root, parents);
  std::unordered_set<const LOp*> shared;
  for (const auto& [node, count] : parents) {
    if (count > 1) shared.insert(node);
  }
  return shared;
}

Result<bool> ApplyRuleSet(LOpPtr& root, const RuleSet& set, OptContext& ctx) {
  std::unordered_set<const LOp*> shared = CollectSharedNodes(root);
  const std::unordered_set<const LOp*>* prev_shared = ctx.shared_nodes;
  ctx.shared_nodes = &shared;
  auto run = [&]() -> Result<bool> {
    bool any = false;
    for (int pass = 0; pass < set.max_iterations; ++pass) {
      bool changed = false;
      for (const auto& rule : set.rules) {
        std::unordered_set<const LOp*> visited;
        SIMDB_ASSIGN_OR_RETURN(
            bool c, ApplyRuleOnce(root, root, *rule, ctx, visited, shared));
        changed = changed || c;
      }
      any = any || changed;
      if (!changed) break;
    }
    return any;
  };
  Result<bool> result = run();
  ctx.shared_nodes = prev_shared;
  return result;
}

namespace {

class PushSelectIntoJoinRule : public RewriteRule {
 public:
  std::string name() const override { return "push-select-into-join"; }

  RuleContract contract() const override {
    RuleContract c;
    c.may_introduce = {};  // reuses the child join node
    return c;
  }

  Result<bool> Apply(LOpPtr& op, OptContext& ctx) override {
    if (op->kind != LOpKind::kSelect) return false;
    LOpPtr join = op->inputs[0];
    if (join->kind != LOpKind::kJoin) return false;
    // Merging this select's condition changes the join's output, which is
    // wrong for any *other* parent of a shared join (e.g. the gt/le corner
    // selects the index-join rewrite hangs off one reused subplan).
    if (ctx.IsShared(join.get())) return false;
    std::vector<LExprPtr> conjuncts = SplitConjuncts(join->expr);
    std::vector<LExprPtr> extra = SplitConjuncts(op->expr);
    conjuncts.insert(conjuncts.end(), extra.begin(), extra.end());
    // Drop TRUE literals.
    std::vector<LExprPtr> kept;
    for (const LExprPtr& c : conjuncts) {
      if (c->kind == LExpr::Kind::kLiteral && c->literal.is_boolean() &&
          c->literal.AsBoolean()) {
        continue;
      }
      kept.push_back(c);
    }
    join->expr = CombineConjuncts(std::move(kept));
    op = join;
    return true;
  }
};

class PushSelectBelowJoinRule : public RewriteRule {
 public:
  std::string name() const override { return "push-select-below-join"; }

  RuleContract contract() const override {
    RuleContract c;
    c.may_introduce = {LOpKind::kSelect};
    // Pushing its own conjuncts below a join leaves the join's output
    // unchanged, so rewriting a shared join is safe for every parent.
    c.shared_mutation_safe = true;
    return c;
  }

  Result<bool> Apply(LOpPtr& op, OptContext&) override {
    if (op->kind != LOpKind::kJoin) return false;
    SIMDB_ASSIGN_OR_RETURN(std::vector<std::string> lv,
                           op->inputs[0]->OutputVars());
    SIMDB_ASSIGN_OR_RETURN(std::vector<std::string> rv,
                           op->inputs[1]->OutputVars());
    std::set<std::string> left_vars(lv.begin(), lv.end());
    std::set<std::string> right_vars(rv.begin(), rv.end());

    std::vector<LExprPtr> keep, to_left, to_right;
    for (const LExprPtr& c : SplitConjuncts(op->expr)) {
      if (c->kind == LExpr::Kind::kLiteral && c->literal.is_boolean() &&
          c->literal.AsBoolean()) {
        continue;  // TRUE conjunct
      }
      std::set<std::string> used;
      c->CollectVars(&used);
      if (used.empty()) {
        keep.push_back(c);  // constant non-true condition stays on the join
      } else if (c->UsesOnly(left_vars)) {
        to_left.push_back(c);
      } else if (c->UsesOnly(right_vars)) {
        to_right.push_back(c);
      } else {
        keep.push_back(c);
      }
    }
    if (to_left.empty() && to_right.empty()) return false;
    if (!to_left.empty()) {
      op->inputs[0] =
          MakeSelect(op->inputs[0], CombineConjuncts(std::move(to_left)));
    }
    if (!to_right.empty()) {
      op->inputs[1] =
          MakeSelect(op->inputs[1], CombineConjuncts(std::move(to_right)));
    }
    op->expr = CombineConjuncts(std::move(keep));
    return true;
  }
};

class RemoveTrivialSelectRule : public RewriteRule {
 public:
  std::string name() const override { return "remove-trivial-select"; }

  RuleContract contract() const override {
    RuleContract c;
    c.may_introduce = {};  // only unlinks a node
    return c;
  }

  Result<bool> Apply(LOpPtr& op, OptContext&) override {
    if (op->kind != LOpKind::kSelect) return false;
    const LExprPtr& cond = op->expr;
    if (cond->kind == LExpr::Kind::kLiteral && cond->literal.is_boolean() &&
        cond->literal.AsBoolean()) {
      op = op->inputs[0];
      return true;
    }
    return false;
  }
};

// ---- count/listify rewrite ----

/// Walks every expression in the plan, invoking `fn` with a mutable pointer
/// so expressions can be replaced in place.
void ForEachExpr(const LOpPtr& op, std::unordered_set<const LOp*>& visited,
                 const std::function<void(LExprPtr*)>& fn) {
  if (!visited.insert(op.get()).second) return;
  if (op->expr) fn(&op->expr);
  for (auto& [name, e] : op->assigns) {
    (void)name;
    fn(&e);
  }
  for (auto& [name, e] : op->group_keys) {
    (void)name;
    fn(&e);
  }
  for (LAgg& agg : op->group_aggs) {
    if (agg.input) fn(&agg.input);
  }
  for (LSortKey& k : op->sort_keys) fn(&k.expr);
  for (const LOpPtr& in : op->inputs) ForEachExpr(in, visited, fn);
}

/// Counts how often `var` occurs in `expr`, and how many of those occurrences
/// are exactly count($var)/len($var).
void CountUses(const LExprPtr& expr, const std::string& var, int* total,
               int* as_count_arg) {
  if (expr == nullptr) return;
  if (expr->kind == LExpr::Kind::kVar && expr->name == var) {
    ++*total;
    return;
  }
  if (expr->kind == LExpr::Kind::kCall &&
      (expr->name == "count" || expr->name == "len") &&
      expr->children.size() == 1 &&
      expr->children[0]->kind == LExpr::Kind::kVar &&
      expr->children[0]->name == var) {
    ++*total;
    ++*as_count_arg;
    return;
  }
  for (const LExprPtr& c : expr->children) {
    CountUses(c, var, total, as_count_arg);
  }
}

LExprPtr ReplaceCountCalls(const LExprPtr& expr, const std::string& var) {
  if (expr == nullptr) return nullptr;
  if (expr->kind == LExpr::Kind::kCall &&
      (expr->name == "count" || expr->name == "len") &&
      expr->children.size() == 1 &&
      expr->children[0]->kind == LExpr::Kind::kVar &&
      expr->children[0]->name == var) {
    return LExpr::Var(var);
  }
  auto copy = std::make_shared<LExpr>(*expr);
  for (LExprPtr& c : copy->children) c = ReplaceCountCalls(c, var);
  return copy;
}

void CollectGroupBys(const LOpPtr& op, std::unordered_set<const LOp*>& visited,
                     std::vector<LOp*>* out) {
  if (!visited.insert(op.get()).second) return;
  if (op->kind == LOpKind::kGroupBy) out->push_back(op.get());
  for (const LOpPtr& in : op->inputs) CollectGroupBys(in, visited, out);
}

}  // namespace

Result<bool> ApplyCountListifyRewrite(LOpPtr& root, OptContext& ctx) {
  std::vector<LOp*> group_bys;
  {
    std::unordered_set<const LOp*> visited;
    CollectGroupBys(root, visited, &group_bys);
  }
  bool changed = false;
  for (LOp* gb : group_bys) {
    for (LAgg& agg : gb->group_aggs) {
      if (agg.kind != LAgg::Kind::kListify) continue;
      int total = 0, as_count = 0;
      {
        std::unordered_set<const LOp*> visited;
        ForEachExpr(root, visited, [&](LExprPtr* e) {
          CountUses(*e, agg.out_var, &total, &as_count);
        });
      }
      if (total == 0 || total != as_count) continue;
      // Every use is count($v)/len($v): aggregate a count instead and let
      // the variable itself carry the number.
      agg.kind = LAgg::Kind::kCount;
      agg.input = nullptr;
      {
        std::unordered_set<const LOp*> visited;
        ForEachExpr(root, visited, [&](LExprPtr* e) {
          *e = ReplaceCountCalls(*e, agg.out_var);
        });
      }
      ctx.fired_rules.push_back("count-listify-to-count");
      changed = true;
    }
  }
  if (changed && ctx.check_hook != nullptr) {
    SIMDB_RETURN_IF_ERROR(
        ctx.check_hook->AfterGlobalRewrite("count-listify-to-count", root));
  }
  return changed;
}

std::shared_ptr<RewriteRule> MakePushSelectIntoJoinRule() {
  return std::make_shared<PushSelectIntoJoinRule>();
}

std::shared_ptr<RewriteRule> MakePushSelectBelowJoinRule() {
  return std::make_shared<PushSelectBelowJoinRule>();
}

std::shared_ptr<RewriteRule> MakeRemoveTrivialSelectRule() {
  return std::make_shared<RemoveTrivialSelectRule>();
}

}  // namespace simdb::algebricks
