#include "algebricks/rules.h"

#include <cctype>
#include <functional>
#include <map>
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

/// Every node of the DAG under `op`, once each, in depth-first preorder.
void CollectNodes(const LOpPtr& op, std::unordered_set<const LOp*>& visited,
                  std::vector<LOpPtr>* out) {
  if (!visited.insert(op.get()).second) return;
  out->push_back(op);
  for (const LOpPtr& in : op->inputs) CollectNodes(in, visited, out);
}

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

// ---- split-record rewrite ----

bool ContainsCall(const LExprPtr& expr) {
  if (expr->kind == LExpr::Kind::kCall) return true;
  for (const LExprPtr& c : expr->children) {
    if (ContainsCall(c)) return true;
  }
  return false;
}

bool IsFieldOfVar(const LExprPtr& expr) {
  return expr->kind == LExpr::Kind::kField && expr->children.size() == 1 &&
         expr->children[0]->kind == LExpr::Kind::kVar;
}

/// How one record-constructor variable is bound and read across the plan.
struct RecordUse {
  LExprPtr ctor;  // every binding site builds this same constructor
  bool keep_whole = false;
  std::set<std::string> read_fields;
};

/// Notes each read of a candidate in `expr`: `$v.f` reads field f; any other
/// occurrence of `$v` reads the record whole.
void NoteReads(const LExprPtr& expr, std::map<std::string, RecordUse>* uses) {
  if (expr == nullptr) return;
  if (IsFieldOfVar(expr)) {
    auto it = uses->find(expr->children[0]->name);
    if (it != uses->end()) it->second.read_fields.insert(expr->name);
    return;
  }
  if (expr->kind == LExpr::Kind::kVar) {
    auto it = uses->find(expr->name);
    if (it != uses->end()) it->second.keep_whole = true;
    return;
  }
  for (const LExprPtr& c : expr->children) NoteReads(c, uses);
}

/// Split variable -> (field name -> field variable).
using FieldVars = std::map<std::string, std::map<std::string, std::string>>;

/// Rewrites each `$v.f` of a split `$v` to its field variable, or to MISSING
/// when the constructor has no field f. Returns `expr` itself when nothing
/// in it changed.
LExprPtr RewriteFieldReads(const LExprPtr& expr, const FieldVars& split) {
  if (expr == nullptr) return expr;
  if (IsFieldOfVar(expr)) {
    auto it = split.find(expr->children[0]->name);
    if (it != split.end()) {
      auto field = it->second.find(expr->name);
      return field == it->second.end() ? LExpr::Lit(adm::Value::Missing())
                                       : LExpr::Var(field->second);
    }
  }
  std::shared_ptr<LExpr> copy;
  for (size_t i = 0; i < expr->children.size(); ++i) {
    LExprPtr c = RewriteFieldReads(expr->children[i], split);
    if (c == expr->children[i]) continue;
    if (copy == nullptr) copy = std::make_shared<LExpr>(*expr);
    copy->children[i] = std::move(c);
  }
  return copy != nullptr ? copy : expr;
}

/// One pass of the split-record rewrite. Returns whether it split anything.
Result<bool> SplitRecordsOnce(LOpPtr& root) {
  // Owning pointers: unlinking an emptied ASSIGN must not free a node this
  // pass still visits.
  std::vector<LOpPtr> nodes;
  {
    std::unordered_set<const LOp*> visited;
    CollectNodes(root, visited, &nodes);
  }
  std::map<std::string, RecordUse> uses;
  std::set<std::string> bound;       // every variable name the plan binds
  std::set<std::string> non_record;  // ... by anything but a record ASSIGN
  for (const LOpPtr& op : nodes) {
    for (const auto& [name, e] : op->assigns) {
      bound.insert(name);
      if (e->kind != LExpr::Kind::kRecord) {
        non_record.insert(name);
        continue;
      }
      auto [it, inserted] = uses.try_emplace(name);
      if (inserted) {
        it->second.ctor = e;
      } else if (it->second.ctor->ToString() != e->ToString()) {
        it->second.keep_whole = true;  // two different records, one name
      }
    }
    for (const std::string* name : {&op->out_var, &op->pos_var, &op->pk_var}) {
      if (!name->empty()) non_record.insert(*name);
    }
    for (const auto& [name, e] : op->group_keys) non_record.insert(name);
    for (const LAgg& agg : op->group_aggs) non_record.insert(agg.out_var);
  }
  bound.insert(non_record.begin(), non_record.end());
  if (uses.empty()) return false;

  auto keep_whole = [&uses](const std::string& var) {
    auto it = uses.find(var);
    if (it != uses.end()) it->second.keep_whole = true;
  };
  for (const std::string& v : non_record) keep_whole(v);
  SIMDB_ASSIGN_OR_RETURN(std::vector<std::string> root_vars,
                         root->OutputVars());
  for (const std::string& v : root_vars) keep_whole(v);
  for (const LOpPtr& op : nodes) {
    if (op->kind == LOpKind::kUnionAll) {
      for (const std::string& v : op->project_vars) keep_whole(v);
    }
  }
  {
    std::unordered_set<const LOp*> visited;
    ForEachExpr(root, visited, [&uses](LExprPtr* e) { NoteReads(*e, &uses); });
  }

  FieldVars split;
  for (const auto& [var, use] : uses) {
    if (use.keep_whole) continue;
    const std::vector<std::string>& names = use.ctor->field_names;
    bool ok = std::set<std::string>(names.begin(), names.end()).size() ==
              names.size();
    for (size_t i = 0; ok && i < names.size(); ++i) {
      ok = use.read_fields.count(names[i]) > 0 ||
           !ContainsCall(use.ctor->children[i]);
    }
    if (!ok) continue;
    std::map<std::string, std::string>& fields = split[var];
    for (const std::string& f : names) {
      if (use.read_fields.count(f) == 0) continue;
      std::string base = var + "_";
      for (char c : f) {
        base += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
      }
      std::string fresh = base;
      for (int n = 1; !bound.insert(fresh).second; ++n) {
        fresh = base + "_" + std::to_string(n);
      }
      fields[f] = fresh;
    }
  }
  if (split.empty()) return false;

  {
    std::unordered_set<const LOp*> visited;
    ForEachExpr(root, visited,
                [&split](LExprPtr* e) { *e = RewriteFieldReads(*e, split); });
  }
  for (const LOpPtr& op : nodes) {
    std::vector<std::pair<std::string, LExprPtr>> assigns;
    for (const auto& [name, e] : op->assigns) {
      auto it = split.find(name);
      if (it == split.end()) {
        assigns.emplace_back(name, e);
        continue;
      }
      // Field variables in constructor order: evaluation order, and so the
      // first error raised, stay those of the record they replace.
      for (size_t i = 0; i < e->field_names.size(); ++i) {
        auto field = it->second.find(e->field_names[i]);
        if (field != it->second.end()) {
          assigns.emplace_back(field->second, e->children[i]);
        }
      }
    }
    op->assigns = std::move(assigns);
    if (op->kind == LOpKind::kProject) {
      std::vector<std::string> vars;
      for (const std::string& v : op->project_vars) {
        auto it = split.find(v);
        if (it == split.end()) {
          vars.push_back(v);
          continue;
        }
        for (const std::string& f : uses[v].ctor->field_names) {
          auto field = it->second.find(f);
          if (field != it->second.end()) vars.push_back(field->second);
        }
      }
      op->project_vars = std::move(vars);
    }
  }
  // An ASSIGN whose only records were never read is left with nothing.
  auto skip_empty = [](LOpPtr& edge) {
    while (edge->kind == LOpKind::kAssign && edge->assigns.empty()) {
      edge = edge->inputs[0];
    }
  };
  skip_empty(root);
  for (const LOpPtr& op : nodes) {
    for (LOpPtr& in : op->inputs) skip_empty(in);
  }
  return true;
}

}  // namespace

Result<bool> ApplySplitRecordRewrite(LOpPtr& root, OptContext& ctx) {
  bool changed = false;
  // Splitting `$v` can leave a record read only by field behind it, e.g. the
  // `{b: ...}` of `$v := {a: {b: ...}}` read as `$v.a.b`.
  for (;;) {
    SIMDB_ASSIGN_OR_RETURN(bool split, SplitRecordsOnce(root));
    if (!split) break;
    changed = true;
  }
  if (changed) {
    ctx.fired_rules.push_back("split-records-read-by-field");
    if (ctx.check_hook != nullptr) {
      SIMDB_RETURN_IF_ERROR(ctx.check_hook->AfterGlobalRewrite(
          "split-records-read-by-field", root));
    }
  }
  return changed;
}

Result<bool> ApplyCountListifyRewrite(LOpPtr& root, OptContext& ctx) {
  std::vector<LOpPtr> nodes;
  {
    std::unordered_set<const LOp*> visited;
    CollectNodes(root, visited, &nodes);
  }
  bool changed = false;
  for (const LOpPtr& gb : nodes) {
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
