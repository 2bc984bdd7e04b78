#include "algebricks/jobgen.h"

#include <functional>
#include <set>
#include <unordered_set>

#include "hyracks/ops_basic.h"
#include "hyracks/ops_exchange.h"
#include "hyracks/ops_group.h"
#include "hyracks/ops_join.h"
#include "hyracks/ops_scan.h"

namespace simdb::algebricks {

using hyracks::AggSpec;
using hyracks::ExprPtr;
using hyracks::RowSchema;

Result<ExprPtr> CompileLExpr(const LExprPtr& expr,
                             const std::map<std::string, int>& vars) {
  if (expr == nullptr) return Status::PlanError("null expression");
  switch (expr->kind) {
    case LExpr::Kind::kVar: {
      auto it = vars.find(expr->name);
      if (it == vars.end()) {
        return Status::PlanError("unbound variable $" + expr->name);
      }
      return hyracks::Col(it->second, expr->name);
    }
    case LExpr::Kind::kLiteral:
      return hyracks::Lit(expr->literal);
    case LExpr::Kind::kField: {
      SIMDB_ASSIGN_OR_RETURN(ExprPtr base, CompileLExpr(expr->children[0], vars));
      return ExprPtr(
          std::make_shared<hyracks::FieldAccessExpr>(base, expr->name));
    }
    case LExpr::Kind::kCall: {
      std::vector<ExprPtr> args;
      args.reserve(expr->children.size());
      for (const LExprPtr& c : expr->children) {
        SIMDB_ASSIGN_OR_RETURN(ExprPtr a, CompileLExpr(c, vars));
        args.push_back(std::move(a));
      }
      // `count` over a list value is its length at the expression level.
      std::string fn = expr->name == "count" ? "len" : expr->name;
      return hyracks::Call(std::move(fn), std::move(args));
    }
    case LExpr::Kind::kRecord: {
      std::vector<ExprPtr> values;
      for (const LExprPtr& c : expr->children) {
        SIMDB_ASSIGN_OR_RETURN(ExprPtr v, CompileLExpr(c, vars));
        values.push_back(std::move(v));
      }
      return ExprPtr(std::make_shared<hyracks::RecordConstructorExpr>(
          expr->field_names, std::move(values)));
    }
    case LExpr::Kind::kList: {
      std::vector<ExprPtr> items;
      for (const LExprPtr& c : expr->children) {
        SIMDB_ASSIGN_OR_RETURN(ExprPtr v, CompileLExpr(c, vars));
        items.push_back(std::move(v));
      }
      return ExprPtr(
          std::make_shared<hyracks::ListConstructorExpr>(std::move(items)));
    }
  }
  return Status::Internal("unreachable expr kind");
}

namespace {

void AddVars(const LExprPtr& expr, std::set<std::string>* out) {
  if (expr != nullptr) expr->CollectVars(out);
}

/// A listify or count aggregate is computed only when a parent reads it.
/// Neither kind can raise an error, so dropping an unread one hides none.
bool AggIsLive(const LAgg& agg, const std::set<std::string>& live) {
  return (agg.kind != LAgg::Kind::kListify &&
          agg.kind != LAgg::Kind::kCount) ||
         live.count(agg.out_var) > 0;
}

/// The variables `op` reads from its inputs when its parents read `live`
/// from its output. Both inputs of a join or union get the same set: a
/// variable is bound on one side only, and narrowing keeps only the
/// variables a side binds.
std::set<std::string> ReadsFromInputs(const LOp& op,
                                      const std::set<std::string>& live) {
  std::set<std::string> reads;
  switch (op.kind) {
    case LOpKind::kDataScan:
    case LOpKind::kConstantTuple:
      break;
    case LOpKind::kSelect:
    case LOpKind::kJoin:
    case LOpKind::kLimit:
    case LOpKind::kOrderBy:
    case LOpKind::kLocalSort:
      reads = live;
      AddVars(op.expr, &reads);
      for (const LSortKey& k : op.sort_keys) AddVars(k.expr, &reads);
      break;
    case LOpKind::kAssign:
      reads = live;
      for (const auto& [name, e] : op.assigns) reads.erase(name);
      // Every assignment is computed, read or not: its inputs are live.
      for (const auto& [name, e] : op.assigns) AddVars(e, &reads);
      break;
    case LOpKind::kGroupBy:
      for (const auto& [name, e] : op.group_keys) AddVars(e, &reads);
      for (const LAgg& agg : op.group_aggs) {
        if (AggIsLive(agg, live)) AddVars(agg.input, &reads);
      }
      break;
    case LOpKind::kUnnest:
      reads = live;
      reads.erase(op.out_var);
      reads.erase(op.pos_var);
      AddVars(op.expr, &reads);
      break;
    case LOpKind::kRank:
      reads = live;
      reads.erase(op.pos_var);
      break;
    case LOpKind::kProject:
    case LOpKind::kUnionAll:
      // Both keep only their live variables (see LiveProjectVars).
      for (const std::string& v : op.project_vars) {
        if (live.count(v) > 0) reads.insert(v);
      }
      break;
    case LOpKind::kIndexSearch:
    case LOpKind::kBtreeSearch:
      reads = live;
      reads.erase(op.pk_var);
      AddVars(op.expr, &reads);
      break;
    case LOpKind::kPrimaryLookup:
      reads = live;
      reads.erase(op.out_var);
      reads.insert(op.pk_var);
      break;
  }
  return reads;
}

}  // namespace

Result<adm::Value> EvaluateConstant(const LExprPtr& expr) {
  SIMDB_ASSIGN_OR_RETURN(ExprPtr compiled, CompileLExpr(expr, {}));
  return compiled->Eval(hyracks::Tuple{});
}

Result<ExprPtr> JobGenerator::CompileExpr(
    const LExprPtr& expr, const std::map<std::string, int>& vars) {
  return CompileLExpr(expr, vars);
}

RowSchema JobGenerator::SchemaOf(const Compiled& c) const {
  std::vector<std::string> cols(static_cast<size_t>(c.width));
  for (size_t i = 0; i < cols.size(); ++i) cols[i] = "_c" + std::to_string(i);
  for (const auto& [name, col] : c.vars) {
    cols[static_cast<size_t>(col)] = name;
  }
  return RowSchema(std::move(cols));
}

int JobGenerator::AddNode(std::unique_ptr<hyracks::Operator> op,
                          std::vector<int> inputs, RowSchema schema) {
  if (!merge_equal_nodes_) {
    return job_.Add(std::move(op), std::move(inputs), std::move(schema));
  }
  const size_t slot = inputs.empty() ? 0 : static_cast<size_t>(inputs[0]) + 1;
  for (int id : by_first_input_[slot]) {
    const hyracks::Job::Node& node = job_.nodes()[static_cast<size_t>(id)];
    if (node.inputs == inputs && node.op->SameAs(*op)) return id;
  }
  int id = job_.Add(std::move(op), std::move(inputs), std::move(schema));
  by_first_input_[slot].push_back(id);
  by_first_input_.emplace_back();
  return id;
}

Result<std::vector<int>> JobGenerator::MaterializeColumns(
    Compiled* plan, const std::vector<LExprPtr>& exprs,
    const std::string& label) {
  std::vector<int> cols(exprs.size(), -1);
  std::vector<ExprPtr> to_assign;
  std::vector<size_t> assign_positions;
  for (size_t i = 0; i < exprs.size(); ++i) {
    if (exprs[i]->kind == LExpr::Kind::kVar) {
      auto it = plan->vars.find(exprs[i]->name);
      if (it != plan->vars.end()) {
        cols[i] = it->second;
        continue;
      }
    }
    SIMDB_ASSIGN_OR_RETURN(ExprPtr compiled, CompileExpr(exprs[i], plan->vars));
    to_assign.push_back(std::move(compiled));
    assign_positions.push_back(i);
  }
  if (!to_assign.empty()) {
    std::vector<std::string> names;
    for (size_t i = 0; i < to_assign.size(); ++i) {
      names.push_back("_" + label + std::to_string(i));
    }
    int base = plan->width;
    // Widen before attaching the schema: the assign node's declared schema
    // must include the columns it appends.
    plan->width = base + static_cast<int>(assign_positions.size());
    plan->node = AddNode(
        std::make_unique<hyracks::AssignOp>(std::move(to_assign), names),
        {plan->node}, SchemaOf(*plan));
    for (size_t i = 0; i < assign_positions.size(); ++i) {
      cols[assign_positions[i]] = base + static_cast<int>(i);
    }
  }
  return cols;
}

Status JobGenerator::ComputeLiveness(const LOpPtr& root) {
  live_.clear();
  // Reverse postorder visits every parent before its inputs, so a node's
  // live set is complete (the union over its parents) when it is expanded.
  std::vector<const LOp*> order;
  std::unordered_set<const LOp*> seen;
  std::function<void(const LOp*)> visit = [&](const LOp* op) {
    if (!seen.insert(op).second) return;
    for (const LOpPtr& in : op->inputs) visit(in.get());
    order.push_back(op);
  };
  visit(root.get());
  SIMDB_ASSIGN_OR_RETURN(std::vector<std::string> out, root->OutputVars());
  live_[root.get()].insert(out.begin(), out.end());
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    std::set<std::string> reads = ReadsFromInputs(**it, live_[*it]);
    for (const LOpPtr& in : (*it)->inputs) {
      live_[in.get()].insert(reads.begin(), reads.end());
    }
  }
  return Status::OK();
}

const std::set<std::string>& JobGenerator::Live(const LOp* op) const {
  static const std::set<std::string> kNone;
  auto it = live_.find(op);
  return it == live_.end() ? kNone : it->second;
}

std::vector<std::string> JobGenerator::LiveProjectVars(const LOp& op) const {
  const std::set<std::string>& live = Live(&op);
  std::vector<std::string> vars;
  for (const std::string& v : op.project_vars) {
    if (live.count(v) > 0) vars.push_back(v);
  }
  return vars;
}

void JobGenerator::Narrow(Compiled* plan, const std::set<std::string>& keep,
                          std::vector<int>* key_cols) {
  std::vector<bool> kept(static_cast<size_t>(plan->width), false);
  for (const auto& [name, col] : plan->vars) {
    if (keep.count(name) > 0) kept[static_cast<size_t>(col)] = true;
  }
  if (key_cols != nullptr) {
    for (int c : *key_cols) kept[static_cast<size_t>(c)] = true;
  }
  std::vector<int> columns;
  std::vector<int> remap(kept.size(), -1);
  for (size_t c = 0; c < kept.size(); ++c) {
    if (!kept[c]) continue;
    remap[c] = static_cast<int>(columns.size());
    columns.push_back(static_cast<int>(c));
  }
  if (columns.size() == kept.size()) return;
  Compiled projected;
  for (const auto& [name, col] : plan->vars) {
    int to = remap[static_cast<size_t>(col)];
    if (to >= 0) projected.vars[name] = to;
  }
  projected.width = static_cast<int>(columns.size());
  projected.node = AddNode(
      std::make_unique<hyracks::ProjectOp>(std::move(columns)), {plan->node},
      SchemaOf(projected));
  if (key_cols != nullptr) {
    for (int& c : *key_cols) c = remap[static_cast<size_t>(c)];
  }
  *plan = std::move(projected);
}

Result<JobGenerator::Compiled> JobGenerator::CompileJoin(const LOpPtr& op) {
  SIMDB_ASSIGN_OR_RETURN(Compiled left, Compile(op->inputs[0]));
  SIMDB_ASSIGN_OR_RETURN(Compiled right, Compile(op->inputs[1]));

  std::set<std::string> left_vars, right_vars;
  for (const auto& [v, c] : left.vars) {
    (void)c;
    left_vars.insert(v);
  }
  for (const auto& [v, c] : right.vars) {
    (void)c;
    right_vars.insert(v);
  }

  // Classify conjuncts into equi pairs and residual conditions.
  std::vector<LExprPtr> left_keys, right_keys, residual;
  bool bcast = op->join_strategy == JoinStrategy::kBroadcastHash ||
               op->join_strategy == JoinStrategy::kBroadcastNl;
  for (const LExprPtr& c : SplitConjuncts(op->expr)) {
    if (c->kind == LExpr::Kind::kLiteral && c->literal.is_boolean() &&
        c->literal.AsBoolean()) {
      continue;
    }
    if (c->bcast_hint) bcast = true;
    bool is_equi = false;
    if (c->kind == LExpr::Kind::kCall && c->name == "eq" &&
        c->children.size() == 2) {
      const LExprPtr& a = c->children[0];
      const LExprPtr& b = c->children[1];
      std::set<std::string> va, vb;
      a->CollectVars(&va);
      b->CollectVars(&vb);
      auto subset = [](const std::set<std::string>& s,
                       const std::set<std::string>& of) {
        for (const std::string& v : s) {
          if (of.count(v) == 0) return false;
        }
        return !s.empty();
      };
      if (subset(va, left_vars) && subset(vb, right_vars)) {
        left_keys.push_back(a);
        right_keys.push_back(b);
        is_equi = true;
      } else if (subset(vb, left_vars) && subset(va, right_vars)) {
        left_keys.push_back(b);
        right_keys.push_back(a);
        is_equi = true;
      }
    }
    if (!is_equi) residual.push_back(c);
  }

  bool nested_loop =
      left_keys.empty() || op->join_strategy == JoinStrategy::kBroadcastNl;

  if (nested_loop) {
    // Broadcast the right side and run a local theta join.
    std::set<std::string> keep = Live(op.get());
    AddVars(op->expr, &keep);
    Narrow(&right, keep, nullptr);
    right.node = AddNode(std::make_unique<hyracks::BroadcastExchangeOp>(),
                         {right.node}, SchemaOf(right));
    Compiled out;
    out.width = left.width + right.width;
    out.vars = left.vars;
    for (const auto& [v, c] : right.vars) out.vars[v] = left.width + c;
    std::vector<LExprPtr> all = left_keys.empty()
                                    ? residual
                                    : SplitConjuncts(op->expr);
    LExprPtr cond = CombineConjuncts(std::move(all));
    SIMDB_ASSIGN_OR_RETURN(ExprPtr pred, CompileExpr(cond, out.vars));
    out.node =
        AddNode(std::make_unique<hyracks::NestedLoopJoinOp>(std::move(pred)),
                {left.node, right.node}, SchemaOf(out));
    return out;
  }

  SIMDB_ASSIGN_OR_RETURN(std::vector<int> lcols,
                         MaterializeColumns(&left, left_keys, "ljk"));
  SIMDB_ASSIGN_OR_RETURN(std::vector<int> rcols,
                         MaterializeColumns(&right, right_keys, "rjk"));

  // The equi keys travel as columns; a key such as `$l.id` ships without
  // the record it was read from unless something else reads the record.
  std::set<std::string> keep = Live(op.get());
  for (const LExprPtr& c : residual) AddVars(c, &keep);
  if (bcast) {
    Narrow(&right, keep, &rcols);
    right.node = AddNode(std::make_unique<hyracks::BroadcastExchangeOp>(),
                         {right.node}, SchemaOf(right));
  } else {
    Narrow(&left, keep, &lcols);
    Narrow(&right, keep, &rcols);
    left.node = AddNode(std::make_unique<hyracks::HashExchangeOp>(lcols),
                        {left.node}, SchemaOf(left));
    right.node = AddNode(std::make_unique<hyracks::HashExchangeOp>(rcols),
                         {right.node}, SchemaOf(right));
  }

  Compiled out;
  out.width = left.width + right.width;
  out.vars = left.vars;
  for (const auto& [v, c] : right.vars) out.vars[v] = left.width + c;
  ExprPtr residual_pred;
  if (!residual.empty()) {
    SIMDB_ASSIGN_OR_RETURN(
        residual_pred, CompileExpr(CombineConjuncts(residual), out.vars));
  }
  out.node = AddNode(
      std::make_unique<hyracks::HashJoinOp>(lcols, rcols, residual_pred),
      {left.node, right.node}, SchemaOf(out));
  return out;
}

Result<JobGenerator::Compiled> JobGenerator::Compile(const LOpPtr& op) {
  auto cached = cache_.find(op.get());
  if (cached != cache_.end()) return cached->second;

  Compiled out;
  switch (op->kind) {
    case LOpKind::kDataScan: {
      out.node = AddNode(std::make_unique<hyracks::DataScanOp>(op->dataset),
                         {}, RowSchema({op->out_var}));
      out.vars[op->out_var] = 0;
      out.width = 1;
      break;
    }
    case LOpKind::kConstantTuple: {
      out.node = AddNode(std::make_unique<hyracks::ConstantSourceOp>(
                              hyracks::Rows{hyracks::Tuple{}}),
                         {}, RowSchema());
      out.width = 0;
      break;
    }
    case LOpKind::kSelect: {
      SIMDB_ASSIGN_OR_RETURN(out, Compile(op->inputs[0]));
      SIMDB_ASSIGN_OR_RETURN(ExprPtr pred, CompileExpr(op->expr, out.vars));
      out.node = AddNode(std::make_unique<hyracks::SelectOp>(std::move(pred)),
                         {out.node}, SchemaOf(out));
      break;
    }
    case LOpKind::kAssign: {
      SIMDB_ASSIGN_OR_RETURN(out, Compile(op->inputs[0]));
      std::vector<ExprPtr> exprs;
      std::vector<std::string> names;
      for (const auto& [name, e] : op->assigns) {
        SIMDB_ASSIGN_OR_RETURN(ExprPtr compiled, CompileExpr(e, out.vars));
        exprs.push_back(std::move(compiled));
        names.push_back(name);
        out.vars[name] = out.width + static_cast<int>(names.size()) - 1;
      }
      int new_width = out.width + static_cast<int>(names.size());
      out.node =
          AddNode(std::make_unique<hyracks::AssignOp>(std::move(exprs), names),
                  {out.node}, SchemaOf(Compiled{out.node, out.vars, new_width}));
      out.width = new_width;
      break;
    }
    case LOpKind::kJoin: {
      SIMDB_ASSIGN_OR_RETURN(out, CompileJoin(op));
      break;
    }
    case LOpKind::kGroupBy: {
      SIMDB_ASSIGN_OR_RETURN(out, Compile(op->inputs[0]));
      std::vector<LExprPtr> key_exprs;
      for (const auto& [name, e] : op->group_keys) {
        (void)name;
        key_exprs.push_back(e);
      }
      SIMDB_ASSIGN_OR_RETURN(std::vector<int> key_cols,
                             MaterializeColumns(&out, key_exprs, "gk"));
      const std::set<std::string>& live = Live(op.get());
      std::vector<const LAgg*> live_aggs;
      std::set<std::string> keep;
      for (const LAgg& agg : op->group_aggs) {
        if (!AggIsLive(agg, live)) continue;
        live_aggs.push_back(&agg);
        AddVars(agg.input, &keep);
      }
      Narrow(&out, keep, &key_cols);
      out.node = AddNode(std::make_unique<hyracks::HashExchangeOp>(key_cols),
                         {out.node}, SchemaOf(out));
      std::vector<ExprPtr> keys;
      for (size_t i = 0; i < key_cols.size(); ++i) {
        keys.push_back(hyracks::Col(key_cols[i], op->group_keys[i].first));
      }
      std::vector<AggSpec> aggs;
      for (const LAgg* live_agg : live_aggs) {
        const LAgg& agg = *live_agg;
        AggSpec spec;
        switch (agg.kind) {
          case LAgg::Kind::kListify:
            spec.kind = AggSpec::Kind::kListify;
            break;
          case LAgg::Kind::kCount:
            spec.kind = AggSpec::Kind::kCount;
            break;
          case LAgg::Kind::kSum:
            spec.kind = AggSpec::Kind::kSum;
            break;
          case LAgg::Kind::kMin:
            spec.kind = AggSpec::Kind::kMin;
            break;
          case LAgg::Kind::kMax:
            spec.kind = AggSpec::Kind::kMax;
            break;
          case LAgg::Kind::kFirst:
            spec.kind = AggSpec::Kind::kFirst;
            break;
        }
        if (agg.input != nullptr) {
          SIMDB_ASSIGN_OR_RETURN(spec.input, CompileExpr(agg.input, out.vars));
        }
        spec.out_name = agg.out_var;
        aggs.push_back(std::move(spec));
      }
      Compiled grouped;
      int col = 0;
      for (const auto& [name, e] : op->group_keys) {
        (void)e;
        grouped.vars[name] = col++;
      }
      for (const LAgg* agg : live_aggs) grouped.vars[agg->out_var] = col++;
      grouped.width = col;
      grouped.node = AddNode(
          std::make_unique<hyracks::HashGroupOp>(std::move(keys), std::move(aggs)),
          {out.node}, SchemaOf(grouped));
      out = grouped;
      break;
    }
    case LOpKind::kOrderBy:
    case LOpKind::kLocalSort: {
      SIMDB_ASSIGN_OR_RETURN(out, Compile(op->inputs[0]));
      std::vector<LExprPtr> key_exprs;
      for (const LSortKey& k : op->sort_keys) key_exprs.push_back(k.expr);
      SIMDB_ASSIGN_OR_RETURN(std::vector<int> cols,
                             MaterializeColumns(&out, key_exprs, "sk"));
      // ORDER-BY's merge-gather ships rows; a local sort moves none.
      if (op->kind == LOpKind::kOrderBy) Narrow(&out, Live(op.get()), &cols);
      std::vector<hyracks::SortKey> keys;
      for (size_t i = 0; i < cols.size(); ++i) {
        keys.push_back({cols[i], op->sort_keys[i].ascending});
      }
      out.node = AddNode(std::make_unique<hyracks::SortOp>(keys), {out.node},
                         SchemaOf(out));
      if (op->kind == LOpKind::kOrderBy) {
        out.node = AddNode(std::make_unique<hyracks::MergeGatherOp>(keys),
                           {out.node}, SchemaOf(out));
      }
      break;
    }
    case LOpKind::kUnnest: {
      SIMDB_ASSIGN_OR_RETURN(out, Compile(op->inputs[0]));
      SIMDB_ASSIGN_OR_RETURN(ExprPtr list, CompileExpr(op->expr, out.vars));
      bool with_pos = !op->pos_var.empty();
      out.vars[op->out_var] = out.width;
      if (with_pos) out.vars[op->pos_var] = out.width + 1;
      out.width += with_pos ? 2 : 1;
      out.node = AddNode(
          std::make_unique<hyracks::UnnestOp>(std::move(list), with_pos),
          {out.node}, SchemaOf(out));
      break;
    }
    case LOpKind::kRank: {
      SIMDB_ASSIGN_OR_RETURN(out, Compile(op->inputs[0]));
      out.vars[op->pos_var] = out.width;
      out.width += 1;
      out.node = AddNode(std::make_unique<hyracks::RankAssignOp>(/*start=*/1),
                         {out.node}, SchemaOf(out));
      break;
    }
    case LOpKind::kProject: {
      SIMDB_ASSIGN_OR_RETURN(out, Compile(op->inputs[0]));
      std::vector<int> keep;
      Compiled projected;
      for (const std::string& v : LiveProjectVars(*op)) {
        auto it = out.vars.find(v);
        if (it == out.vars.end()) {
          return Status::PlanError("project of unbound variable $" + v);
        }
        projected.vars[v] = static_cast<int>(keep.size());
        keep.push_back(it->second);
      }
      projected.width = static_cast<int>(keep.size());
      projected.node = AddNode(std::make_unique<hyracks::ProjectOp>(keep),
                               {out.node}, SchemaOf(projected));
      out = projected;
      break;
    }
    case LOpKind::kLimit: {
      SIMDB_ASSIGN_OR_RETURN(out, Compile(op->inputs[0]));
      out.node = AddNode(std::make_unique<hyracks::LimitOp>(op->limit),
                         {out.node}, SchemaOf(out));
      break;
    }
    case LOpKind::kUnionAll: {
      SIMDB_ASSIGN_OR_RETURN(Compiled left, Compile(op->inputs[0]));
      SIMDB_ASSIGN_OR_RETURN(Compiled right, Compile(op->inputs[1]));
      const std::vector<std::string> union_vars = LiveProjectVars(*op);
      auto project_side = [&](Compiled& side) -> Status {
        std::vector<int> keep;
        for (const std::string& v : union_vars) {
          auto it = side.vars.find(v);
          if (it == side.vars.end()) {
            return Status::PlanError("union branch missing variable $" + v);
          }
          keep.push_back(it->second);
        }
        Compiled projected;
        for (size_t i = 0; i < union_vars.size(); ++i) {
          projected.vars[union_vars[i]] = static_cast<int>(i);
        }
        projected.width = static_cast<int>(keep.size());
        projected.node = AddNode(std::make_unique<hyracks::ProjectOp>(keep),
                                 {side.node}, SchemaOf(projected));
        side = projected;
        return Status::OK();
      };
      SIMDB_RETURN_IF_ERROR(project_side(left));
      SIMDB_RETURN_IF_ERROR(project_side(right));
      out = left;
      out.node = AddNode(std::make_unique<hyracks::UnionAllOp>(),
                         {left.node, right.node}, SchemaOf(out));
      break;
    }
    case LOpKind::kIndexSearch: {
      SIMDB_ASSIGN_OR_RETURN(out, Compile(op->inputs[0]));
      std::set<std::string> keep = Live(op.get());
      keep.erase(op->pk_var);
      AddVars(op->expr, &keep);
      Narrow(&out, keep, nullptr);
      out.node = AddNode(std::make_unique<hyracks::BroadcastExchangeOp>(),
                         {out.node}, SchemaOf(out));
      SIMDB_ASSIGN_OR_RETURN(ExprPtr key, CompileExpr(op->expr, out.vars));
      out.vars[op->pk_var] = out.width;
      out.width += 1;
      out.node = AddNode(std::make_unique<hyracks::InvertedIndexSearchOp>(
                              op->dataset, op->index_name, std::move(key),
                              op->sim_spec),
                         {out.node}, SchemaOf(out));
      break;
    }
    case LOpKind::kBtreeSearch: {
      SIMDB_ASSIGN_OR_RETURN(out, Compile(op->inputs[0]));
      std::set<std::string> keep = Live(op.get());
      keep.erase(op->pk_var);
      AddVars(op->expr, &keep);
      Narrow(&out, keep, nullptr);
      out.node = AddNode(std::make_unique<hyracks::BroadcastExchangeOp>(),
                         {out.node}, SchemaOf(out));
      SIMDB_ASSIGN_OR_RETURN(ExprPtr key, CompileExpr(op->expr, out.vars));
      out.vars[op->pk_var] = out.width;
      out.width += 1;
      out.node = AddNode(std::make_unique<hyracks::BtreeSearchOp>(
                              op->dataset, op->index_name, std::move(key)),
                         {out.node}, SchemaOf(out));
      break;
    }
    case LOpKind::kPrimaryLookup: {
      SIMDB_ASSIGN_OR_RETURN(out, Compile(op->inputs[0]));
      auto it = out.vars.find(op->pk_var);
      if (it == out.vars.end()) {
        return Status::PlanError("primary lookup of unbound pk $" + op->pk_var);
      }
      int pk_col = it->second;
      out.vars[op->out_var] = out.width;
      out.width += 1;
      out.node = AddNode(
          std::make_unique<hyracks::PrimaryLookupOp>(op->dataset, pk_col),
          {out.node}, SchemaOf(out));
      break;
    }
  }
  cache_[op.get()] = out;
  return out;
}

Status JobGenerator::Generate(const LOpPtr& root, hyracks::Job* out_job) {
  job_ = hyracks::Job();
  cache_.clear();
  by_first_input_.assign(1, {});
  SIMDB_RETURN_IF_ERROR(ComputeLiveness(root));
  SIMDB_ASSIGN_OR_RETURN(Compiled root_compiled, Compile(root));
  AddNode(std::make_unique<hyracks::GatherOp>(), {root_compiled.node},
          SchemaOf(root_compiled));
  *out_job = std::move(job_);
  return Status::OK();
}

}  // namespace simdb::algebricks
