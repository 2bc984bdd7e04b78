#include "hyracks/ops_basic.h"

#include <algorithm>

namespace simdb::hyracks {

using adm::Value;

Result<Rows> SelectOp::ExecutePartition(ExecContext&, int,
                                        const std::vector<const Rows*>& inputs) {
  Rows out;
  for (const Tuple& row : *inputs[0]) {
    SIMDB_ASSIGN_OR_RETURN(Value v, predicate_->Eval(row));
    if (v.is_boolean()) {
      if (v.AsBoolean()) out.push_back(row);
    } else if (!v.is_missing() && !v.is_null()) {
      return Status::TypeError("SELECT predicate must return boolean");
    }
  }
  return out;
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
  Rows out;
  out.reserve(in.size());
  for (const Tuple& row : in) {
    Tuple extended = row;
    // Evaluate against the growing tuple so later expressions may
    // reference the columns produced by earlier ones.
    for (const ExprPtr& e : exprs_) {
      SIMDB_ASSIGN_OR_RETURN(Value v, e->Eval(extended));
      extended.push_back(std::move(v));
    }
    out.push_back(std::move(extended));
  }
  return out;
}

Result<Rows> ProjectOp::ExecutePartition(
    ExecContext&, int, const std::vector<const Rows*>& inputs) {
  Rows out;
  out.reserve(inputs[0]->size());
  for (const Tuple& row : *inputs[0]) {
    Tuple projected;
    projected.reserve(keep_.size());
    for (int k : keep_) {
      if (k < 0 || static_cast<size_t>(k) >= row.size()) {
        return Status::Internal("PROJECT column out of range");
      }
      projected.push_back(row[static_cast<size_t>(k)]);
    }
    out.push_back(std::move(projected));
  }
  return out;
}

Result<Rows> SortOp::ExecutePartition(ExecContext&, int,
                                      const std::vector<const Rows*>& inputs) {
  Rows out = *inputs[0];  // copy, then sort in place
  std::stable_sort(out.begin(), out.end(),
                   [this](const Tuple& a, const Tuple& b) {
                     for (const SortKey& k : keys_) {
                       int c = Value::Compare(a[static_cast<size_t>(k.column)],
                                              b[static_cast<size_t>(k.column)]);
                       if (c != 0) return k.ascending ? c < 0 : c > 0;
                     }
                     return false;
                   });
  return out;
}

Result<Rows> UnnestOp::ExecutePartition(ExecContext&, int,
                                        const std::vector<const Rows*>& inputs) {
  Rows out;
  for (const Tuple& row : *inputs[0]) {
    SIMDB_ASSIGN_OR_RETURN(Value list, list_expr_->Eval(row));
    if (list.is_missing() || list.is_null()) continue;
    if (!list.is_list()) {
      return Status::TypeError(
          "UNNEST expects a list, got " +
          std::string(adm::ValueTypeToString(list.type())));
    }
    int64_t pos = 1;
    for (const Value& item : list.AsList()) {
      Tuple extended = row;
      extended.push_back(item);
      if (with_position_) extended.push_back(Value::Int64(pos));
      out.push_back(std::move(extended));
      ++pos;
    }
  }
  return out;
}

Result<Rows> UnionAllOp::ExecutePartition(
    ExecContext&, int, const std::vector<const Rows*>& inputs) {
  size_t total = 0;
  for (const Rows* in : inputs) total += in->size();
  Rows out;
  out.reserve(total);
  for (const Rows* in : inputs) {
    out.insert(out.end(), in->begin(), in->end());
  }
  return out;
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
  PartitionedRows out(in.size());
  int64_t rank = start_;
  if (!in.empty()) {
    out[0].reserve(in[0].size());
    for (const Tuple& row : in[0]) {
      Tuple extended = row;
      extended.push_back(Value::Int64(rank++));
      out[0].push_back(std::move(extended));
    }
  }
  return out;
}

Result<PartitionedRows> LimitOp::Execute(
    ExecContext&, const std::vector<const PartitionedRows*>& inputs,
    OpStats*) {
  if (inputs.size() != 1) return Status::Internal("LIMIT input");
  const PartitionedRows& in = *inputs[0];
  PartitionedRows out(in.size());
  int64_t remaining = limit_;
  for (size_t p = 0; p < in.size() && remaining > 0; ++p) {
    for (const Tuple& row : in[p]) {
      if (remaining-- <= 0) break;
      out[p].push_back(row);
    }
  }
  return out;
}

}  // namespace simdb::hyracks
