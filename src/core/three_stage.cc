#include "core/three_stage.h"

#include <cmath>
#include <cstdio>
#include <set>

#include "aql/parser.h"
#include "aql/translator.h"
#include "common/stopwatch.h"
#include "core/sim_predicate.h"

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

/// Replaces every occurrence of `from` in `text` with `to`.
std::string ReplaceAll(std::string text, const std::string& from,
                       const std::string& to) {
  size_t pos = 0;
  while ((pos = text.find(from, pos)) != std::string::npos) {
    text.replace(pos, from.size(), to);
    pos += to.size();
  }
  return text;
}

/// Per-side information needed by the template.
struct SideInfo {
  LOpPtr plan;
  std::string record_var;  // bound by `for $x in ##SIDE`
  LExprPtr tokens;         // occurrence-deduped token expression
  LExprPtr pk;             // primary-key expression
  std::string dataset;     // base dataset of the key's scan (for self detect)
};

/// Resolves one join side: the key expression must be rooted in exactly one
/// variable that a DATA-SCAN in this side binds, so the primary key is
/// available for rid-pair generation and the stage-3 joins.
Result<SideInfo> ResolveSide(OptContext& ctx, const LOpPtr& side,
                             const LExprPtr& key_arg) {
  std::set<std::string> key_vars;
  key_arg->CollectVars(&key_vars);
  if (key_vars.size() != 1) {
    return Status::Unsupported("three-stage join needs a single-record key");
  }
  const LOp* scan = FindScanOfVar(side, *key_vars.begin());
  if (scan == nullptr) {
    return Status::Unsupported("three-stage join key is not scan-rooted");
  }
  storage::Dataset* ds =
      ctx.catalog != nullptr ? ctx.catalog->Find(scan->dataset) : nullptr;
  if (ds == nullptr) return Status::Unsupported("unknown dataset");
  SideInfo info;
  info.plan = side;
  info.record_var = scan->out_var;
  info.tokens = LExpr::CallF("dedup-occurrences", {key_arg});
  info.pk = LExpr::Field(LExpr::Var(scan->out_var), ds->spec().pk_field);
  info.dataset = scan->dataset;
  return info;
}

/// Renders `e` as function-call AQL for the template's @PAIR_FILTER@:
/// calls (their names are AQL identifiers), `$var.field` paths and
/// non-negative numeric literals, which read back as the same expression.
/// Anything else returns nullopt and its conjunct stays on top of the join.
std::optional<std::string> RenderAql(const LExprPtr& e) {
  switch (e->kind) {
    case LExpr::Kind::kVar:
      return "$" + e->name;
    case LExpr::Kind::kField: {
      std::optional<std::string> base = RenderAql(e->children[0]);
      if (!base.has_value()) return std::nullopt;
      return *base + "." + e->name;
    }
    case LExpr::Kind::kLiteral: {
      const adm::Value& v = e->literal;
      if (!v.is_numeric() || !std::isfinite(v.AsNumber()) ||
          std::signbit(v.AsNumber())) {
        return std::nullopt;
      }
      if (v.is_int64()) return std::to_string(v.AsInt64());
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v.AsNumber());
      std::string out = buf;
      // Keep it a double literal: "5" would read back as an int64.
      if (out.find_first_of(".e") == std::string::npos) out += ".0";
      return out;
    }
    case LExpr::Kind::kCall: {
      std::string out = e->name + "(";
      for (size_t i = 0; i < e->children.size(); ++i) {
        std::optional<std::string> arg = RenderAql(e->children[i]);
        if (!arg.has_value()) return std::nullopt;
        out += (i > 0 ? ", " : "") + *arg;
      }
      return out + ")";
    }
    default:
      return std::nullopt;
  }
}

}  // namespace

std::string ThreeStageTemplateText(double delta, bool self_like,
                                   const std::string& pair_filter) {
  // Stage 1 (token ordering), stage 2 (rid-pair generation via prefix
  // filtering), stage 3 (record join) — expressed in AQL+ (cf. Figure 17).
  std::string order_source = self_like
                                 ? "(for $l1 in ##LEFT1 "
                                   "for $t1 in $$LTOKENS1 return $t1)"
                                 : "union((for $l1 in ##LEFT1 "
                                   "for $t1 in $$LTOKENS1 return $t1), "
                                   "(for $r1 in ##RIGHT1 "
                                   "for $t2 in $$RTOKENS1 return $t2))";
  std::string text = R"AQL(
let $rankedTokens := (
  for $tok in @ORDER_SOURCE@
  /*+ hash */
  group by $tokenGrouped := $tok with $tok
  order by count($tok), $tokenGrouped
  return $tokenGrouped
)
let $leftRanks := (
  for $l2 in ##LEFT2
  for $tu in $$LTOKENS2
  for $rt at $i in $rankedTokens
  where $tu = /*+ bcast */ $rt
  group by $lid := $$LPK2 with $i
  return { 'id': $lid, 'ranks': sort-list($i) }
)
let $rightRanks := (
  for $r2 in ##RIGHT2
  for $tu2 in $$RTOKENS2
  for $rt2 at $i2 in $rankedTokens
  where $tu2 = /*+ bcast */ $rt2
  group by $rid := $$RPK2 with $i2
  return { 'id': $rid, 'ranks': sort-list($i2) }
)
let $leftPrefix := (
  for $lr in $leftRanks
  for $pt in subset-collection($lr.ranks, 0,
                               prefix-len-jaccard(len($lr.ranks), @DELTA@))
  return { 'id': $lr.id, 'ranks': $lr.ranks, 'pt': $pt }
)
let $rightPrefix := (
  for $rr in $rightRanks
  for $pt2 in subset-collection($rr.ranks, 0,
                                prefix-len-jaccard(len($rr.ranks), @DELTA@))
  return { 'id': $rr.id, 'ranks': $rr.ranks, 'pt': $pt2 }
)
let $ridpairs := (
  for $lp in $leftPrefix
  for $rp in $rightPrefix
  where $lp.pt = $rp.pt @PAIR_FILTER@
  /* ranks are integer positions in $rankedTokens, so this verify runs on
     the int64 Jaccard kernel, not the generic Value comparator */
  let $sim := similarity-jaccard($lp.ranks, $rp.ranks)
  where $sim >= @DELTA@
  group by $glid := $lp.id, $grid := $rp.id with $sim
  return { 'lid': $glid, 'rid': $grid }
)
for $pair in $ridpairs
for $l3 in ##LEFT3
where $pair.lid = $$LPK3
for $r3 in ##RIGHT3
where $pair.rid = $$RPK3
return true
)AQL";
  text = ReplaceAll(text, "@ORDER_SOURCE@", order_source);
  text = ReplaceAll(text, "@DELTA@", std::to_string(delta));
  text = ReplaceAll(text, "@PAIR_FILTER@",
                    pair_filter.empty() ? "" : "and " + pair_filter);
  return text;
}

namespace {

class ThreeStageJoinRule : public RewriteRule {
 public:
  std::string name() const override { return "three-stage-similarity-join"; }

  RuleContract contract() const override {
    RuleContract c;
    c.needs_catalog = true;
    // The instantiated AQL+ template is a full translated subplan: it may
    // contain any relational operator the translator emits.
    c.may_introduce = {LOpKind::kDataScan, LOpKind::kSelect,
                       LOpKind::kAssign,   LOpKind::kJoin,
                       LOpKind::kGroupBy,  LOpKind::kOrderBy,
                       LOpKind::kUnnest,   LOpKind::kProject,
                       LOpKind::kLimit,    LOpKind::kRank,
                       LOpKind::kUnionAll, LOpKind::kConstantTuple};
    return c;
  }

  Result<bool> Apply(LOpPtr& op, OptContext& ctx) override {
    if (!ctx.enable_three_stage_join) return false;
    if (op->kind != LOpKind::kJoin) return false;
    const LOpPtr& left = op->inputs[0];
    const LOpPtr& right = op->inputs[1];
    SIMDB_ASSIGN_OR_RETURN(std::vector<std::string> lv, left->OutputVars());
    SIMDB_ASSIGN_OR_RETURN(std::vector<std::string> rv, right->OutputVars());
    std::set<std::string> left_vars(lv.begin(), lv.end());
    std::set<std::string> right_vars(rv.begin(), rv.end());

    std::vector<LExprPtr> conjuncts = algebricks::SplitConjuncts(op->expr);
    for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
      std::optional<SimPredicate> pred = MatchSimilarityConjunct(conjuncts[ci]);
      if (!pred.has_value() || pred->fn != SimPredicate::Fn::kJaccard) {
        continue;
      }
      // The rid-pair stage only finds pairs sharing a prefix token, which is
      // incomplete for delta <= 0 (token-disjoint pairs qualify too). Leave
      // such joins to the NL plan.
      if (pred->threshold <= 0) continue;
      // Orient the operands: one must cover the left side, one the right.
      LExprPtr left_key = pred->arg0, right_key = pred->arg1;
      if (!(left_key->UsesOnly(left_vars) && right_key->UsesOnly(right_vars))) {
        std::swap(left_key, right_key);
        if (!(left_key->UsesOnly(left_vars) &&
              right_key->UsesOnly(right_vars))) {
          continue;
        }
      }
      Result<SideInfo> left_info = ResolveSide(ctx, left, left_key);
      Result<SideInfo> right_info = ResolveSide(ctx, right, right_key);
      if (!left_info.ok() || !right_info.ok()) continue;

      // A conjunct that reads each side only through its primary key runs
      // in stage 2, where both keys first meet: the pt join then drops
      // mirror and self pairs before they are verified, grouped, shipped
      // and joined back. Stage 3 joins the pairs back on pk equality, so
      // the answer is the same. Every other conjunct stays on top.
      std::string pair_filter;
      std::vector<LExprPtr> remaining;
      for (size_t i = 0; i < conjuncts.size(); ++i) {
        if (i == ci) continue;
        std::optional<LExprPtr> on_pair = RewritePkConjunct(
            conjuncts[i], left_info->pk, LExpr::Field(LExpr::Var("lp"), "id"),
            right_info->pk, LExpr::Field(LExpr::Var("rp"), "id"));
        std::optional<std::string> aql =
            on_pair.has_value() ? RenderAql(*on_pair) : std::nullopt;
        if (aql.has_value()) {
          pair_filter += (pair_filter.empty() ? "" : " and ") + *aql;
        } else {
          remaining.push_back(conjuncts[i]);
        }
      }
      // jaccard > d (strict) is verified again on top since the template
      // tests >= d.
      if (pred->original->name == "gt") remaining.push_back(pred->original);

      SIMDB_ASSIGN_OR_RETURN(
          LOpPtr rewritten,
          Instantiate(ctx, *left_info, *right_info, pred->threshold,
                      pair_filter, std::move(remaining), lv, rv));
      op = rewritten;
      return true;
    }
    return false;
  }

 private:
  /// Runs the AQL+ two-step rewrite: substitute placeholders, parse the
  /// template, bind meta-clauses/meta-variables, translate, splice.
  Result<LOpPtr> Instantiate(OptContext& ctx, const SideInfo& left,
                             const SideInfo& right, double delta,
                             const std::string& pair_filter,
                             std::vector<LExprPtr> remaining,
                             const std::vector<std::string>& left_out,
                             const std::vector<std::string>& right_out) {
    Stopwatch sw;
    // The single-sided token order is only sound when both sides are the
    // same unfiltered scan (the paper's self-join, Figure 11); any filter or
    // subplan difference requires ranking over the union of both sides.
    bool self_like = left.dataset == right.dataset &&
                     left.plan->kind == LOpKind::kDataScan &&
                     right.plan->kind == LOpKind::kDataScan;
    std::string text = ThreeStageTemplateText(delta, self_like, pair_filter);
    SIMDB_ASSIGN_OR_RETURN(aql::AExprPtr ast, aql::ParseExpression(text));

    aql::MetaBindings bindings;
    auto bind_side = [&](const std::string& prefix, const SideInfo& side) {
      // Without subplan reuse each stage gets an independent deep copy
      // (ablation of Figure 20's materialize/reuse).
      for (int stage = 1; stage <= 3; ++stage) {
        LOpPtr plan = ctx.enable_subplan_reuse ? side.plan
                                               : algebricks::CloneTree(side.plan);
        bindings.clauses[prefix + std::to_string(stage)] = {plan,
                                                            side.record_var};
      }
    };
    bind_side("LEFT", left);
    bind_side("RIGHT", right);
    for (int stage = 1; stage <= 3; ++stage) {
      std::string s = std::to_string(stage);
      bindings.vars["LTOKENS" + s] = left.tokens;
      bindings.vars["RTOKENS" + s] = right.tokens;
      bindings.vars["LPK" + s] = left.pk;
      bindings.vars["RPK" + s] = right.pk;
    }

    aql::Translator translator(std::move(bindings));
    SIMDB_ASSIGN_OR_RETURN(aql::TranslationResult tr,
                           translator.TranslateQuery(ast));
    // Strip the template's `return true` (Project over Assign) to expose the
    // full stage-3 variable space, then restore the original join's output.
    if (tr.plan->kind != LOpKind::kProject ||
        tr.plan->inputs[0]->kind != LOpKind::kAssign) {
      return Status::Internal("unexpected template plan shape");
    }
    LOpPtr plan = tr.plan->inputs[0]->inputs[0];
    if (!remaining.empty()) {
      plan = algebricks::MakeSelect(plan,
                                    algebricks::CombineConjuncts(remaining));
    }
    std::vector<std::string> out_vars = left_out;
    out_vars.insert(out_vars.end(), right_out.begin(), right_out.end());
    plan = algebricks::MakeProject(plan, out_vars);
    ctx.aqlplus_seconds += sw.ElapsedSeconds();
    return plan;
  }
};

}  // namespace

std::shared_ptr<RewriteRule> MakeThreeStageJoinRule() {
  return std::make_shared<ThreeStageJoinRule>();
}

}  // namespace simdb::core
