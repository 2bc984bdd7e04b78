#include "core/sim_predicate.h"

namespace simdb::core {

using algebricks::LExpr;
using algebricks::LExprPtr;
using algebricks::LOp;
using algebricks::LOpKind;
using algebricks::LOpPtr;

namespace {

bool IsCall(const LExprPtr& e, std::string_view name) {
  return e != nullptr && e->kind == LExpr::Kind::kCall && e->name == name;
}

std::optional<double> LiteralNumber(const LExprPtr& e) {
  if (e != nullptr && e->kind == LExpr::Kind::kLiteral &&
      e->literal.is_numeric()) {
    return e->literal.AsNumber();
  }
  return std::nullopt;
}

/// Structural equality of variable/field paths (`$v`, `$v.f`, `$v.f.g`).
bool SamePath(const LExpr& a, const LExpr& b) {
  if (a.kind != b.kind || a.name != b.name) return false;
  if (a.kind == LExpr::Kind::kVar) return true;
  return a.kind == LExpr::Kind::kField &&
         SamePath(*a.children[0], *b.children[0]);
}

}  // namespace

std::optional<SimPredicate> MatchSimilarityConjunct(const LExprPtr& conjunct) {
  if (conjunct == nullptr || conjunct->kind != LExpr::Kind::kCall) {
    return std::nullopt;
  }
  // contains(a, b) stands alone.
  if (IsCall(conjunct, "contains") && conjunct->children.size() == 2) {
    SimPredicate pred;
    pred.fn = SimPredicate::Fn::kContains;
    pred.arg0 = conjunct->children[0];
    pred.arg1 = conjunct->children[1];
    pred.original = conjunct;
    return pred;
  }
  if (conjunct->children.size() != 2) return std::nullopt;
  const std::string& cmp = conjunct->name;
  if (cmp != "ge" && cmp != "gt" && cmp != "le" && cmp != "lt") {
    return std::nullopt;
  }
  // Normalize to (fn-call, literal, effective-comparison-direction).
  LExprPtr call = conjunct->children[0];
  std::optional<double> lit = LiteralNumber(conjunct->children[1]);
  bool call_first = true;
  if (!lit.has_value() || call->kind != LExpr::Kind::kCall) {
    call = conjunct->children[1];
    lit = LiteralNumber(conjunct->children[0]);
    call_first = false;
    if (!lit.has_value() || call == nullptr ||
        call->kind != LExpr::Kind::kCall) {
      return std::nullopt;
    }
  }
  // Direction as seen by the function value: "at least" or "at most".
  bool at_least = call_first ? (cmp == "ge" || cmp == "gt")
                             : (cmp == "le" || cmp == "lt");
  bool strict = cmp == "gt" || cmp == "lt";

  SimPredicate pred;
  pred.original = conjunct;
  if (IsCall(call, "similarity-jaccard") && call->children.size() == 2) {
    if (!at_least) return std::nullopt;  // jaccard <= d is not indexable
    pred.fn = SimPredicate::Fn::kJaccard;
    pred.threshold = *lit;  // for strict >, using d as T bound stays complete
    (void)strict;
  } else if (IsCall(call, "edit-distance") && call->children.size() == 2) {
    if (at_least) return std::nullopt;  // edit-distance >= k not indexable
    pred.fn = SimPredicate::Fn::kEditDistance;
    // dist < k is dist <= k-1.
    pred.threshold = strict ? *lit - 1 : *lit;
  } else {
    return std::nullopt;
  }
  pred.arg0 = call->children[0];
  pred.arg1 = call->children[1];
  return pred;
}

std::optional<std::string> ExtractFieldRef(const LExprPtr& expr,
                                           const std::string& record_var) {
  if (expr == nullptr) return std::nullopt;
  const LExpr* e = expr.get();
  if (e->kind == LExpr::Kind::kCall &&
      (e->name == "word-tokens" || e->name == "gram-tokens") &&
      !e->children.empty()) {
    e = e->children[0].get();
  }
  if (e->kind == LExpr::Kind::kField && !e->children.empty() &&
      e->children[0]->kind == LExpr::Kind::kVar &&
      e->children[0]->name == record_var) {
    return e->name;
  }
  return std::nullopt;
}

std::optional<LExprPtr> RewritePkConjunct(const LExprPtr& conjunct,
                                          const LExprPtr& left_pk,
                                          const LExprPtr& left_to,
                                          const LExprPtr& right_pk,
                                          const LExprPtr& right_to) {
  if (SamePath(*conjunct, *left_pk)) return left_to;
  if (SamePath(*conjunct, *right_pk)) return right_to;
  if (conjunct->kind == LExpr::Kind::kVar) return std::nullopt;
  auto copy = std::make_shared<LExpr>(*conjunct);
  for (LExprPtr& c : copy->children) {
    std::optional<LExprPtr> rewritten =
        RewritePkConjunct(c, left_pk, left_to, right_pk, right_to);
    if (!rewritten.has_value()) return std::nullopt;
    c = *std::move(rewritten);
  }
  return LExprPtr(copy);
}

similarity::IndexKind CompatibleIndexKind(SimPredicate::Fn fn) {
  switch (fn) {
    case SimPredicate::Fn::kJaccard:
      return similarity::IndexKind::kKeyword;
    case SimPredicate::Fn::kEditDistance:
    case SimPredicate::Fn::kContains:
      return similarity::IndexKind::kNGram;
  }
  return similarity::IndexKind::kKeyword;
}

hyracks::SimSearchSpec ToSearchSpec(const SimPredicate& pred) {
  hyracks::SimSearchSpec spec;
  switch (pred.fn) {
    case SimPredicate::Fn::kJaccard:
      spec.fn = hyracks::SimSearchSpec::Fn::kJaccard;
      break;
    case SimPredicate::Fn::kEditDistance:
      spec.fn = hyracks::SimSearchSpec::Fn::kEditDistance;
      break;
    case SimPredicate::Fn::kContains:
      spec.fn = hyracks::SimSearchSpec::Fn::kContains;
      break;
  }
  spec.threshold = pred.threshold;
  return spec;
}

const LOp* FindScanOfVar(const LOpPtr& plan, const std::string& var) {
  if (plan == nullptr) return nullptr;
  if (plan->kind == LOpKind::kDataScan && plan->out_var == var) {
    return plan.get();
  }
  for (const LOpPtr& input : plan->inputs) {
    const LOp* found = FindScanOfVar(input, var);
    if (found != nullptr) return found;
  }
  return nullptr;
}

}  // namespace simdb::core
