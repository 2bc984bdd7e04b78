#include "hyracks/ops_basic.h"

#include <algorithm>

namespace simdb::hyracks {

using adm::Value;

namespace {

/// Scalar SELECT decision for one row: 1 keep, 0 drop, error on a
/// non-boolean non-missing/null predicate value. Shared by the tuple path
/// and the batch path's per-row fallback so their semantics cannot drift.
Result<int> SelectDecision(const ExprPtr& predicate, const Tuple& row) {
  SIMDB_ASSIGN_OR_RETURN(Value v, predicate->Eval(row));
  if (v.is_boolean() && v.AsBoolean()) return 1;
  if (!v.is_boolean() && !v.is_missing() && !v.is_null()) {
    return Status::TypeError("SELECT predicate must return boolean");
  }
  return 0;
}

}  // namespace

Result<Rows> SelectOp::ExecutePartition(ExecContext& ctx, int,
                                        const std::vector<const Rows*>& inputs) {
  const Rows& in = *inputs[0];
  BatchStats bs;
  Rows out;
  if (!ctx.batch_execution || !batch_.has_value()) {
    for (const Tuple& row : in) {
      SIMDB_ASSIGN_OR_RETURN(int keep, SelectDecision(predicate_, row));
      if (keep != 0) out.push_back(row);
    }
    bs.fallback_rows = in.size();
    bs.Emit(ctx);
    return out;
  }

  const SimBatchCall& call = *batch_;
  TokenIdEncoder encoder;
  std::vector<uint32_t> enc_a, enc_b;
  SimIdBatch ids;
  SimCharBatch chars;
  std::vector<int8_t> verdict;  // 0 drop, 1 keep, 2 awaiting kernel
  for (size_t base = 0; base < in.size(); base += kBatchSize) {
    const size_t n = std::min(kBatchSize, in.size() - base);
    verdict.assign(n, 0);
    ids.Clear();
    chars.Clear();
    for (size_t r = 0; r < n; ++r) {
      const Tuple& row = in[base + r];
      // Arguments evaluate in CallExpr order so evaluation errors surface
      // exactly where the tuple path surfaces them; the threshold is a
      // literal and cannot error.
      SIMDB_ASSIGN_OR_RETURN(Value va, call.arg_a->Eval(row));
      SIMDB_ASSIGN_OR_RETURN(Value vb, call.arg_b->Eval(row));
      bool staged = false;
      if (call.kind == SimBatchCall::Kind::kJaccardCheck) {
        if (encoder.EncodePair(va, vb, &enc_a, &enc_b)) {
          ids.Push(static_cast<uint32_t>(r), enc_a, enc_b);
          staged = true;
        }
      } else if (va.is_string() && vb.is_string()) {
        chars.Push(static_cast<uint32_t>(r), va.AsString(), vb.AsString());
        staged = true;
      }
      if (staged) {
        verdict[r] = 2;
        ++bs.rows;
      } else {
        ++bs.fallback_rows;
        SIMDB_ASSIGN_OR_RETURN(int keep, SelectDecision(predicate_, row));
        verdict[r] = static_cast<int8_t>(keep);
      }
    }
    if (!ids.rows.empty()) {
      ++bs.batches;
      ids.out.resize(ids.size());
      simd::JaccardCheckPairs(ids.a_ids.data(), ids.a_offsets.data(),
                              ids.b_ids.data(), ids.b_offsets.data(),
                              ids.size(), call.threshold, ids.out.data(),
                              /*assume_unique=*/true);
      for (size_t i = 0; i < ids.size(); ++i) {
        verdict[ids.rows[i]] = ids.out[i] >= 0 ? 1 : 0;
      }
    }
    if (!chars.rows.empty()) {
      ++bs.batches;
      chars.out.resize(chars.size());
      simd::EditDistanceCheckPairs(
          chars.a_chars.data(), chars.a_offsets.data(), chars.b_chars.data(),
          chars.b_offsets.data(), chars.size(),
          static_cast<int>(call.threshold), chars.out.data());
      for (size_t i = 0; i < chars.size(); ++i) {
        verdict[chars.rows[i]] = chars.out[i] >= 0 ? 1 : 0;
      }
    }
    for (size_t r = 0; r < n; ++r) {
      if (verdict[r] == 1) out.push_back(in[base + r]);
    }
  }
  bs.Emit(ctx);
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

Result<Rows> AssignOp::ExecutePartition(ExecContext& ctx, int,
                                        const std::vector<const Rows*>& inputs) {
  const Rows& in = *inputs[0];
  BatchStats bs;
  Rows out;
  out.reserve(in.size());
  if (!ctx.batch_execution || !batch_.has_value()) {
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
    bs.fallback_rows = in.size();
    bs.Emit(ctx);
    return out;
  }

  // Batch path: the last expression is similarity-jaccard(a, b). Earlier
  // columns evaluate per row as usual; encodable (a, b) pairs are staged
  // into a CSR batch whose kernel result fills the final column after each
  // chunk. Rows are appended in input order either way.
  const SimBatchCall& call = *batch_;
  TokenIdEncoder encoder;
  std::vector<uint32_t> enc_a, enc_b;
  SimIdBatch ids;
  for (size_t base = 0; base < in.size(); base += kBatchSize) {
    const size_t n = std::min(kBatchSize, in.size() - base);
    ids.Clear();
    for (size_t r = 0; r < n; ++r) {
      Tuple extended = in[base + r];
      for (size_t e = 0; e + 1 < exprs_.size(); ++e) {
        SIMDB_ASSIGN_OR_RETURN(Value v, exprs_[e]->Eval(extended));
        extended.push_back(std::move(v));
      }
      // Same argument evaluation order as the tuple path's final CallExpr.
      SIMDB_ASSIGN_OR_RETURN(Value va, call.arg_a->Eval(extended));
      SIMDB_ASSIGN_OR_RETURN(Value vb, call.arg_b->Eval(extended));
      if (encoder.EncodePair(va, vb, &enc_a, &enc_b)) {
        ++bs.rows;
        ids.Push(static_cast<uint32_t>(out.size()), enc_a, enc_b);
        out.push_back(std::move(extended));  // final column filled below
      } else {
        ++bs.fallback_rows;
        SIMDB_ASSIGN_OR_RETURN(Value v, exprs_.back()->Eval(extended));
        extended.push_back(std::move(v));
        out.push_back(std::move(extended));
      }
    }
    if (!ids.rows.empty()) {
      ++bs.batches;
      ids.out.resize(ids.size());
      simd::JaccardEvalPairs(ids.a_ids.data(), ids.a_offsets.data(),
                             ids.b_ids.data(), ids.b_offsets.data(),
                             ids.size(), ids.out.data(),
                             /*assume_unique=*/true);
      for (size_t i = 0; i < ids.size(); ++i) {
        out[ids.rows[i]].push_back(Value::Double(ids.out[i]));
      }
    }
  }
  bs.Emit(ctx);
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
