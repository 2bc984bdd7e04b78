#include "hyracks/ops_join.h"

#include <algorithm>
#include <utility>

#include "hyracks/key_table.h"

namespace simdb::hyracks {

using adm::Value;

namespace {

bool HasMissingKey(Row row, const std::vector<int>& keys) {
  for (int c : keys) {
    const Value& v = row[static_cast<size_t>(c)];
    if (v.is_missing() || v.is_null()) return true;
  }
  return false;
}

Status CheckKeyColumns(const Rows& rows, const std::vector<int>& keys) {
  if (rows.empty()) return Status::OK();
  for (int c : keys) {
    if (c < 0 || static_cast<size_t>(c) >= rows.width()) {
      return Status::Internal("HASH-JOIN key column out of range");
    }
  }
  return Status::OK();
}

}  // namespace

bool HashJoinOp::SameAs(const Operator& other) const {
  const auto* o = dynamic_cast<const HashJoinOp*>(&other);
  return o != nullptr && o->left_keys_ == left_keys_ &&
         o->right_keys_ == right_keys_ && SameExpr(o->residual_, residual_);
}

Result<Rows> HashJoinOp::ExecutePartition(
    ExecContext& ctx, int, const std::vector<const Rows*>& inputs) {
  const Rows& left = *inputs[0];
  const Rows& right = *inputs[1];
  if (left_keys_.size() != right_keys_.size()) {
    return Status::Internal("HASH-JOIN sides have different key counts");
  }
  SIMDB_RETURN_IF_ERROR(CheckKeyColumns(left, left_keys_));
  SIMDB_RETURN_IF_ERROR(CheckKeyColumns(right, right_keys_));
  uint64_t probe_matches = 0;
  uint64_t residual_dropped = 0;
  // Build on the right side: one table entry per distinct key, found by its
  // hash and compared in place against a right row that holds it.
  KeyTable table;
  table.Reserve(right.size());
  std::vector<uint32_t> key_row;        // [key] a right row holding the key
  std::vector<uint32_t> key_begin;      // [key] row count, then run start
  std::vector<uint32_t> row_key(right.size(), KeyTable::kNone);
  for (size_t r = 0; r < right.size(); ++r) {
    Row row = right[r];
    if (HasMissingKey(row, right_keys_)) continue;
    uint64_t hash = HashColumns(row, right_keys_);
    uint32_t key = table.Find(hash, [&](uint32_t k) {
      return ColumnsEqual(right[key_row[k]], right_keys_, row, right_keys_);
    });
    if (key == KeyTable::kNone) {
      key = table.Insert(hash);
      key_row.push_back(static_cast<uint32_t>(r));
      key_begin.push_back(0);
    }
    row_key[r] = key;
    ++key_begin[key];
  }
  // Lay each key's rows out as one run of `build_rows`, in build order.
  uint32_t offset = 0;
  for (uint32_t& begin : key_begin) offset += std::exchange(begin, offset);
  key_begin.push_back(offset);
  std::vector<uint32_t> build_rows(offset);
  {
    std::vector<uint32_t> cursor(key_begin.begin(), key_begin.end() - 1);
    for (size_t r = 0; r < right.size(); ++r) {
      if (row_key[r] != KeyTable::kNone) {
        build_rows[cursor[row_key[r]]++] = static_cast<uint32_t>(r);
      }
    }
  }
  // Probe with the left side: matches come out in probe order, and within
  // one probe row in build order. A match the residual rejects is dropped
  // right after it was appended.
  Rows rows(left.width() + right.width());
  for (Row lrow : left) {
    if (HasMissingKey(lrow, left_keys_)) continue;
    uint32_t key = table.Find(HashColumns(lrow, left_keys_), [&](uint32_t k) {
      return ColumnsEqual(right[key_row[k]], right_keys_, lrow, left_keys_);
    });
    if (key == KeyTable::kNone) continue;
    for (uint32_t j = key_begin[key]; j < key_begin[key + 1]; ++j) {
      ++probe_matches;
      std::span<Value> combined = rows.Append(lrow, right[build_rows[j]]);
      if (residual_ != nullptr) {
        SIMDB_ASSIGN_OR_RETURN(Value keep, residual_->Eval(combined));
        if (!keep.is_boolean() || !keep.AsBoolean()) {
          ++residual_dropped;
          rows.PopBack();
        }
      }
    }
  }
  if (ctx.counters != nullptr) {
    CountOp(ctx, "join.build_rows", right.size());
    CountOp(ctx, "join.probe_rows", left.size());
    CountOp(ctx, "join.matches", probe_matches);
    CountOp(ctx, "join.residual_dropped", residual_dropped);
  }
  return rows;
}

bool NestedLoopJoinOp::SameAs(const Operator& other) const {
  const auto* o = dynamic_cast<const NestedLoopJoinOp*>(&other);
  return o != nullptr && SameExpr(o->predicate_, predicate_);
}

Result<Rows> NestedLoopJoinOp::ExecutePartition(
    ExecContext& ctx, int, const std::vector<const Rows*>& inputs) {
  const Rows& left = *inputs[0];
  const Rows& right = *inputs[1];
  const size_t left_width = left.width();
  uint64_t matches = 0;
  BatchStats bs;
  Rows rows(left_width + right.width());

  // The batch path needs one argument to read only left columns and the
  // other only right columns (checked against this partition's actual left
  // width), so each side can be tokenized once instead of once per pair.
  // arg_a on the left is the tuple path's own order; arg_b on the left
  // swaps the arguments, which only arguments that cannot fail allow.
  const int lw = static_cast<int>(left_width);
  const int width = static_cast<int>(rows.width());
  const bool a_left = a_max_ < lw && b_min_ >= lw && b_max_ < width;
  const bool b_left =
      swappable_ && b_max_ < lw && a_min_ >= lw && a_max_ < width;
  const bool use_batch = ctx.batch_execution && batch_.has_value() &&
                         sides_pure_ && !left.empty() && !right.empty() &&
                         (a_left || b_left);
  // Appends the pair, evaluates the predicate on it in place and drops it
  // again unless it holds.
  auto append_if = [&](Row lrow, Row rrow) -> Status {
    std::span<Value> combined = rows.Append(lrow, rrow);
    SIMDB_ASSIGN_OR_RETURN(Value keep, predicate_->Eval(combined));
    if (keep.is_boolean() && keep.AsBoolean()) {
      ++matches;
    } else {
      rows.PopBack();
    }
    return Status::OK();
  };
  if (!use_batch) {
    for (Row lrow : left) {
      for (Row rrow : right) SIMDB_RETURN_IF_ERROR(append_if(lrow, rrow));
    }
    bs.fallback_rows = left.size() * right.size();
    if (ctx.counters != nullptr) {
      CountOp(ctx, "nljoin.pairs", left.size() * right.size());
      CountOp(ctx, "nljoin.matches", matches);
    }
    bs.Emit(ctx);
    return rows;
  }

  const SimBatchCall& call = *batch_;
  const bool jaccard = call.kind == SimBatchCall::Kind::kJaccardCheck;
  const Expr& left_arg = a_left ? *call.arg_a : *call.arg_b;
  const Expr& right_arg = a_left ? *call.arg_b : *call.arg_a;
  TokenIdEncoder encoder;

  // Evaluate the left argument for the first left row before precomputing
  // the right side: the tuple path touches arg_a(l0) first, then
  // arg_b(r0..rn), then arg_a(l1)... — evaluating in that order keeps the
  // first error (if any) identical to the tuple path's.
  SIMDB_ASSIGN_OR_RETURN(Value va0, left_arg.Eval(left[0]));

  // Precompute the right argument per right row over a left-width padded
  // scratch row (it reads no left column, so the padding is never touched).
  // The CSR keeps one entry per right row — empty for unencodable rows,
  // which are tracked separately in right_ok since an empty list is a valid
  // encoding.
  std::vector<char> right_ok(right.size(), 0);
  std::vector<uint32_t> r_ids;
  std::vector<char> r_chars;
  std::vector<size_t> r_offsets{0};
  std::vector<uint32_t> enc;
  {
    Tuple padded(rows.width());
    for (Row rrow : right) {
      std::copy(rrow.begin(), rrow.end(), padded.begin() + left_width);
      SIMDB_ASSIGN_OR_RETURN(Value vb, right_arg.Eval(padded));
      if (jaccard) {
        if (encoder.EncodeValue(vb, &enc)) {
          right_ok[r_offsets.size() - 1] = 1;
          r_ids.insert(r_ids.end(), enc.begin(), enc.end());
        }
        r_offsets.push_back(r_ids.size());
      } else {
        if (vb.is_string()) {
          right_ok[r_offsets.size() - 1] = 1;
          const std::string& s = vb.AsString();
          r_chars.insert(r_chars.end(), s.begin(), s.end());
        }
        r_offsets.push_back(r_chars.size());
      }
    }
  }

  std::vector<uint32_t> probe;
  std::vector<double> jacc_out;
  std::vector<int> ed_out;
  for (size_t l = 0; l < left.size(); ++l) {
    Value va;
    if (l == 0) {
      va = std::move(va0);
    } else {
      SIMDB_ASSIGN_OR_RETURN(va, left_arg.Eval(left[l]));
    }
    bool left_ok;
    if (jaccard) {
      left_ok = encoder.EncodeValue(va, &probe);
      if (left_ok) {
        ++bs.batches;
        jacc_out.resize(right.size());
        simd::JaccardCheckBatch(probe.data(), probe.size(), r_ids.data(),
                                r_offsets.data(), right.size(),
                                call.threshold, jacc_out.data(),
                                /*assume_unique=*/true);
      }
    } else {
      left_ok = va.is_string();
      if (left_ok) {
        ++bs.batches;
        ed_out.resize(right.size());
        simd::EditDistancePattern pattern(va.AsString());
        pattern.CheckBatch(r_chars.data(), r_offsets.data(), right.size(),
                           static_cast<int>(call.threshold), ed_out.data());
      }
    }
    for (size_t j = 0; j < right.size(); ++j) {
      if (left_ok && right_ok[j] != 0) {
        ++bs.rows;
        const bool keep = jaccard ? jacc_out[j] >= 0 : ed_out[j] >= 0;
        if (keep) {
          ++matches;
          rows.Append(left[l], right[j]);
        }
      } else {
        ++bs.fallback_rows;
        SIMDB_RETURN_IF_ERROR(append_if(left[l], right[j]));
      }
    }
  }
  if (ctx.counters != nullptr) {
    CountOp(ctx, "nljoin.pairs", left.size() * right.size());
    CountOp(ctx, "nljoin.matches", matches);
  }
  bs.Emit(ctx);
  return rows;
}

}  // namespace simdb::hyracks
