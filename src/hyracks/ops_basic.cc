#include "hyracks/ops_basic.h"

#include <algorithm>

namespace simdb::hyracks {

using adm::Value;

bool SelectOp::SameAs(const Operator& other) const {
  const auto* o = dynamic_cast<const SelectOp*>(&other);
  return o != nullptr && SameExpr(o->predicate_, predicate_);
}

Result<Rows> SelectOp::ExecutePartition(ExecContext&, int,
                                        const std::vector<const Rows*>& inputs) {
  const Rows& in = *inputs[0];
  Rows out(in.width());
  for (Row row : in) {
    SIMDB_ASSIGN_OR_RETURN(Value v, predicate_->Eval(row));
    if (v.is_boolean()) {
      if (v.AsBoolean()) out.Append(row);
    } else if (!v.is_missing() && !v.is_null()) {
      return Status::TypeError("SELECT predicate must return boolean");
    }
  }
  return out;
}

bool AssignOp::SameAs(const Operator& other) const {
  const auto* o = dynamic_cast<const AssignOp*>(&other);
  return o != nullptr && SameExprs(o->exprs_, exprs_);
}

std::string AssignOp::name() const {
  std::string out = "ASSIGN(";
  for (size_t i = 0; i < names_.size(); ++i) {
    if (i > 0) out += ", ";
    out += names_[i] + ":=" + exprs_[i]->ToString();
  }
  out += ")";
  return out;
}

Result<Rows> AssignOp::ExecutePartition(ExecContext&, int,
                                        const std::vector<const Rows*>& inputs) {
  const Rows& in = *inputs[0];
  const size_t width = in.width();
  Rows out(width + exprs_.size());
  for (Row row : in) {
    // The whole row is reserved up front; each expression is evaluated
    // against the part appended so far, so later expressions may reference
    // the columns produced by earlier ones.
    std::span<Value> cells = out.Append(row);
    for (size_t e = 0; e < exprs_.size(); ++e) {
      SIMDB_ASSIGN_OR_RETURN(cells[width + e],
                             exprs_[e]->Eval(Row(cells.data(), width + e)));
    }
  }
  return out;
}

bool ProjectOp::SameAs(const Operator& other) const {
  const auto* o = dynamic_cast<const ProjectOp*>(&other);
  return o != nullptr && o->keep_ == keep_;
}

Result<Rows> ProjectOp::ExecutePartition(
    ExecContext&, int, const std::vector<const Rows*>& inputs) {
  const Rows& in = *inputs[0];
  Rows out(keep_.size());
  if (in.empty()) return out;
  for (int k : keep_) {
    if (k < 0 || static_cast<size_t>(k) >= in.width()) {
      return Status::Internal("PROJECT column out of range");
    }
  }
  for (Row row : in) {
    std::span<Value> cells = out.Append();
    for (size_t j = 0; j < keep_.size(); ++j) {
      cells[j] = row[static_cast<size_t>(keep_[j])];
    }
  }
  return out;
}

bool SortOp::SameAs(const Operator& other) const {
  const auto* o = dynamic_cast<const SortOp*>(&other);
  return o != nullptr && o->keys_ == keys_;
}

Result<Rows> SortOp::ExecutePartition(ExecContext&, int,
                                      const std::vector<const Rows*>& inputs) {
  // Sorts a permutation of row pointers, then appends the rows in its order.
  const Rows& in = *inputs[0];
  std::vector<const Value*> order;
  order.reserve(in.size());
  for (Row row : in) order.push_back(row.data());
  std::stable_sort(order.begin(), order.end(),
                   [this](const Value* a, const Value* b) {
                     for (const SortKey& k : keys_) {
                       int c = Value::Compare(a[k.column], b[k.column]);
                       if (c != 0) return k.ascending ? c < 0 : c > 0;
                     }
                     return false;
                   });
  Rows out(in.width());
  for (const Value* row : order) out.Append(Row(row, in.width()));
  return out;
}

bool UnnestOp::SameAs(const Operator& other) const {
  const auto* o = dynamic_cast<const UnnestOp*>(&other);
  return o != nullptr && o->with_position_ == with_position_ &&
         SameExpr(o->list_expr_, list_expr_);
}

Result<Rows> UnnestOp::ExecutePartition(ExecContext&, int,
                                        const std::vector<const Rows*>& inputs) {
  const Rows& in = *inputs[0];
  const size_t width = in.width();
  Rows out(width + (with_position_ ? 2 : 1));
  for (Row row : in) {
    SIMDB_ASSIGN_OR_RETURN(Value list, list_expr_->Eval(row));
    if (list.is_missing() || list.is_null()) continue;
    if (!list.is_list()) {
      return Status::TypeError(
          "UNNEST expects a list, got " +
          std::string(adm::ValueTypeToString(list.type())));
    }
    int64_t pos = 1;
    for (const Value& item : list.AsList()) {
      std::span<Value> cells = out.Append(row, Row(&item, 1));
      if (with_position_) cells[width + 1] = Value::Int64(pos);
      ++pos;
    }
  }
  return out;
}

bool UnionAllOp::SameAs(const Operator& other) const {
  return dynamic_cast<const UnionAllOp*>(&other) != nullptr;
}

Result<Rows> UnionAllOp::ExecutePartition(
    ExecContext&, int, const std::vector<const Rows*>& inputs) {
  Rows out(inputs[0]->width());
  for (const Rows* in : inputs) {
    if (!in->empty() && in->width() != out.width()) {
      return Status::Internal("UNION-ALL inputs differ in width");
    }
    for (Row row : *in) out.Append(row);
  }
  return out;
}

bool RankAssignOp::SameAs(const Operator& other) const {
  const auto* o = dynamic_cast<const RankAssignOp*>(&other);
  return o != nullptr && o->start_ == start_;
}

Result<PartitionedRows> RankAssignOp::Execute(
    ExecContext&, const std::vector<const PartitionedRows*>& inputs,
    OpStats*) {
  if (inputs.size() != 1) return Status::Internal("RANK-ASSIGN input");
  const PartitionedRows& in = *inputs[0];
  for (size_t p = 1; p < in.size(); ++p) {
    if (!in[p].empty()) {
      return Status::Internal(
          "RANK-ASSIGN requires a gathered (single-partition) input");
    }
  }
  PartitionedRows out(in.size(), Rows(RowsWidth(in) + 1));
  int64_t rank = start_;
  if (!in.empty()) {
    for (Row row : in[0]) {
      const Value r = Value::Int64(rank++);
      out[0].Append(row, Row(&r, 1));
    }
  }
  return out;
}

bool LimitOp::SameAs(const Operator& other) const {
  const auto* o = dynamic_cast<const LimitOp*>(&other);
  return o != nullptr && o->limit_ == limit_;
}

Result<PartitionedRows> LimitOp::Execute(
    ExecContext&, const std::vector<const PartitionedRows*>& inputs,
    OpStats*) {
  if (inputs.size() != 1) return Status::Internal("LIMIT input");
  const PartitionedRows& in = *inputs[0];
  PartitionedRows out(in.size(), Rows(RowsWidth(in)));
  int64_t remaining = limit_;
  for (size_t p = 0; p < in.size() && remaining > 0; ++p) {
    for (Row row : in[p]) {
      if (remaining-- <= 0) break;
      out[p].Append(row);
    }
  }
  return out;
}

}  // namespace simdb::hyracks
