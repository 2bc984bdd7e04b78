#include "hyracks/batch.h"

#include <algorithm>

namespace simdb::hyracks {

namespace {

bool AllStrings(const adm::Value& v) {
  for (const adm::Value& item : v.AsList()) {
    if (!item.is_string()) return false;
  }
  return true;
}

bool AllInt64(const adm::Value& v) {
  for (const adm::Value& item : v.AsList()) {
    if (!item.is_int64()) return false;
  }
  return true;
}

}  // namespace

std::optional<SimBatchCall> MatchSimCheckCall(const ExprPtr& expr) {
  const auto* call = dynamic_cast<const CallExpr*>(expr.get());
  if (call == nullptr || call->args().size() != 3) return std::nullopt;
  SimBatchCall out;
  if (call->name() == "similarity-jaccard-check") {
    out.kind = SimBatchCall::Kind::kJaccardCheck;
  } else if (call->name() == "edit-distance-check") {
    out.kind = SimBatchCall::Kind::kEditDistanceCheck;
  } else {
    return std::nullopt;
  }
  // Only a numeric literal threshold: its value feeds the kernel directly
  // and can never raise the tuple path's "threshold must be numeric" error.
  const auto* lit = dynamic_cast<const LiteralExpr*>(call->args()[2].get());
  if (lit == nullptr || !lit->value().is_numeric()) return std::nullopt;
  out.arg_a = call->args()[0];
  out.arg_b = call->args()[1];
  out.threshold = lit->value().AsNumber();
  return out;
}

bool ColumnRange(const Expr* expr, int* min_col, int* max_col) {
  if (const auto* col = dynamic_cast<const ColumnExpr*>(expr)) {
    *min_col = std::min(*min_col, col->index());
    *max_col = std::max(*max_col, col->index());
    return true;
  }
  if (dynamic_cast<const LiteralExpr*>(expr) != nullptr) return true;
  if (const auto* fa = dynamic_cast<const FieldAccessExpr*>(expr)) {
    return ColumnRange(fa->base().get(), min_col, max_col);
  }
  if (const auto* call = dynamic_cast<const CallExpr*>(expr)) {
    for (const ExprPtr& arg : call->args()) {
      if (!ColumnRange(arg.get(), min_col, max_col)) return false;
    }
    return true;
  }
  if (const auto* rec = dynamic_cast<const RecordConstructorExpr*>(expr)) {
    for (const ExprPtr& e : rec->exprs()) {
      if (!ColumnRange(e.get(), min_col, max_col)) return false;
    }
    return true;
  }
  if (const auto* lst = dynamic_cast<const ListConstructorExpr*>(expr)) {
    for (const ExprPtr& e : lst->exprs()) {
      if (!ColumnRange(e.get(), min_col, max_col)) return false;
    }
    return true;
  }
  return false;
}

bool CannotFail(const Expr* expr) {
  if (const auto* fa = dynamic_cast<const FieldAccessExpr*>(expr)) {
    return CannotFail(fa->base().get());
  }
  return dynamic_cast<const ColumnExpr*>(expr) != nullptr ||
         dynamic_cast<const LiteralExpr*>(expr) != nullptr;
}

uint32_t TokenIdEncoder::IdFor(Occ& o) {
  if (o.epoch != epoch_) {
    o.epoch = epoch_;
    o.occ = 0;
  } else {
    ++o.occ;
  }
  if (o.occ == 0) return o.first_id;
  while (o.more.size() < o.occ) o.more.push_back(next_id_++);
  return o.more[o.occ - 1];
}

void TokenIdEncoder::EncodeStrings(const adm::Value& v,
                                   std::vector<uint32_t>* out) {
  ++epoch_;
  out->clear();
  for (const adm::Value& item : v.AsList()) {
    std::string_view sv = item.AsString();
    auto it = str_ids_.find(sv);
    if (it == str_ids_.end()) {
      it = str_ids_.try_emplace(std::string(sv), Occ{next_id_++, {}, 0, 0})
               .first;
    }
    out->push_back(IdFor(it->second));
  }
  std::sort(out->begin(), out->end());
}

void TokenIdEncoder::EncodeInts(const adm::Value& v,
                                std::vector<uint32_t>* out) {
  ++epoch_;
  out->clear();
  for (const adm::Value& item : v.AsList()) {
    auto it = int_ids_.find(item.AsInt64());
    if (it == int_ids_.end()) {
      it = int_ids_.try_emplace(item.AsInt64(), Occ{next_id_++, {}, 0, 0})
               .first;
    }
    out->push_back(IdFor(it->second));
  }
  std::sort(out->begin(), out->end());
}

bool TokenIdEncoder::EncodeValue(const adm::Value& v,
                                 std::vector<uint32_t>* out) {
  if (!v.is_list()) return false;
  if (AllStrings(v)) {
    EncodeStrings(v, out);
    return true;
  }
  if (AllInt64(v)) {
    EncodeInts(v, out);
    return true;
  }
  return false;
}

}  // namespace simdb::hyracks
