#include "hyracks/ops_join.h"

#include <unordered_map>

namespace simdb::hyracks {

using adm::Value;

Result<Rows> HashJoinOp::ExecutePartition(
    ExecContext& ctx, int, const std::vector<const Rows*>& inputs) {
  const Rows& left = *inputs[0];
  const Rows& right = *inputs[1];
  uint64_t probe_matches = 0;
  uint64_t residual_dropped = 0;
  // Build on the right side.
  std::unordered_map<Tuple, std::vector<const Tuple*>, KeyHash, KeyEq> table;
  for (const Tuple& row : right) {
    Tuple keys;
    keys.reserve(right_keys_.size());
    bool missing = false;
    for (int c : right_keys_) {
      const Value& v = row[static_cast<size_t>(c)];
      if (v.is_missing() || v.is_null()) {
        missing = true;
        break;
      }
      keys.push_back(v);
    }
    if (missing) continue;
    table[std::move(keys)].push_back(&row);
  }
  // Probe with the left side. One buffer builds each match: a match the
  // residual drops leaves its capacity to the next one.
  Rows rows;
  Tuple combined;
  for (const Tuple& lrow : left) {
    Tuple keys;
    keys.reserve(left_keys_.size());
    bool missing = false;
    for (int c : left_keys_) {
      const Value& v = lrow[static_cast<size_t>(c)];
      if (v.is_missing() || v.is_null()) {
        missing = true;
        break;
      }
      keys.push_back(v);
    }
    if (missing) continue;
    auto it = table.find(keys);
    if (it == table.end()) continue;
    for (const Tuple* rrow : it->second) {
      ++probe_matches;
      combined.clear();
      combined.reserve(lrow.size() + rrow->size());
      combined.insert(combined.end(), lrow.begin(), lrow.end());
      combined.insert(combined.end(), rrow->begin(), rrow->end());
      if (residual_ != nullptr) {
        SIMDB_ASSIGN_OR_RETURN(Value keep, residual_->Eval(combined));
        if (!keep.is_boolean() || !keep.AsBoolean()) {
          ++residual_dropped;
          continue;
        }
      }
      rows.push_back(std::move(combined));
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

Result<Rows> NestedLoopJoinOp::ExecutePartition(
    ExecContext& ctx, int, const std::vector<const Rows*>& inputs) {
  const Rows& left = *inputs[0];
  const Rows& right = *inputs[1];
  const size_t left_width = left.empty() ? 0 : left[0].size();
  uint64_t matches = 0;
  BatchStats bs;
  Rows rows;

  // The batch path needs arg_a to read only left columns and arg_b only
  // right columns (checked against this partition's actual left width), so
  // each side can be tokenized once instead of once per pair.
  const bool use_batch =
      ctx.batch_execution && batch_.has_value() && sides_pure_ &&
      !left.empty() && !right.empty() &&
      a_max_ < static_cast<int>(left_width) &&
      b_min_ >= static_cast<int>(left_width) &&
      b_max_ < static_cast<int>(left_width + right[0].size());
  if (!use_batch) {
    for (const Tuple& lrow : left) {
      for (const Tuple& rrow : right) {
        Tuple combined = lrow;
        combined.insert(combined.end(), rrow.begin(), rrow.end());
        SIMDB_ASSIGN_OR_RETURN(Value keep, predicate_->Eval(combined));
        if (keep.is_boolean() && keep.AsBoolean()) {
          ++matches;
          rows.push_back(std::move(combined));
        }
      }
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
  TokenIdEncoder encoder;

  // Evaluate arg_a for the first left row before precomputing the right
  // side: the tuple path touches arg_a(l0) first, then arg_b(r0..rn), then
  // arg_a(l1)... — evaluating in that order keeps the first error (if any)
  // identical to the tuple path's.
  SIMDB_ASSIGN_OR_RETURN(Value va0, call.arg_a->Eval(left[0]));

  // Precompute arg_b per right row over a left-width padded tuple (arg_b
  // reads no left column, so the padding values are never touched). The CSR
  // keeps one entry per right row — empty for unencodable rows, which are
  // tracked separately in right_ok since an empty list is a valid encoding.
  std::vector<char> right_ok(right.size(), 0);
  std::vector<uint32_t> r_ids;
  std::vector<char> r_chars;
  std::vector<size_t> r_offsets{0};
  std::vector<uint32_t> enc;
  {
    Tuple padded(left_width);
    for (const Tuple& rrow : right) {
      padded.resize(left_width);
      padded.insert(padded.end(), rrow.begin(), rrow.end());
      SIMDB_ASSIGN_OR_RETURN(Value vb, call.arg_b->Eval(padded));
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
      SIMDB_ASSIGN_OR_RETURN(va, call.arg_a->Eval(left[l]));
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
          Tuple combined = left[l];
          combined.insert(combined.end(), right[j].begin(), right[j].end());
          rows.push_back(std::move(combined));
        }
      } else {
        ++bs.fallback_rows;
        Tuple combined = left[l];
        combined.insert(combined.end(), right[j].begin(), right[j].end());
        SIMDB_ASSIGN_OR_RETURN(Value keep, predicate_->Eval(combined));
        if (keep.is_boolean() && keep.AsBoolean()) {
          ++matches;
          rows.push_back(std::move(combined));
        }
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
