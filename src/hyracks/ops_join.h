#ifndef SIMDB_HYRACKS_OPS_JOIN_H_
#define SIMDB_HYRACKS_OPS_JOIN_H_

#include <climits>
#include <string>
#include <vector>

#include "hyracks/batch.h"
#include "hyracks/exec.h"
#include "hyracks/expr.h"

namespace simdb::hyracks {

/// Local per-partition equi hash join. Inputs must already be co-partitioned
/// on the join keys (via HashExchange) or one side broadcast. Output rows
/// are left columns followed by right columns, in probe (left) order and,
/// within one probe row, in build (right) order. `residual` (over the
/// combined row) filters matches when set; MISSING/NULL keys never match.
class HashJoinOp : public PartitionOperator {
 public:
  HashJoinOp(std::vector<int> left_keys, std::vector<int> right_keys,
             ExprPtr residual = nullptr)
      : left_keys_(std::move(left_keys)),
        right_keys_(std::move(right_keys)),
        residual_(std::move(residual)) {}
  std::string name() const override { return "HASH-JOIN"; }
  bool SameAs(const Operator& other) const override;
  int num_inputs() const override { return 2; }
  Result<Rows> ExecutePartition(ExecContext& ctx, int p,
                                const std::vector<const Rows*>& inputs)
      override;
  const std::vector<int>& left_keys() const { return left_keys_; }
  const std::vector<int>& right_keys() const { return right_keys_; }
  const ExprPtr& residual() const { return residual_; }

 private:
  std::vector<int> left_keys_;
  std::vector<int> right_keys_;
  ExprPtr residual_;
};

/// Local per-partition nested-loop theta join: emits left×right pairs where
/// `predicate` (over the combined tuple) holds. Broadcast one side first for
/// a parallel NL join.
///
/// When the predicate is a recognized similarity check whose first argument
/// reads only left columns and second argument only right columns, the batch
/// path encodes/tokenizes each side once (instead of per pair) and verifies
/// a whole right batch per left row through the SIMD kernels; pairs the
/// encoder cannot handle fall back to the combined-tuple evaluator. Both
/// checks are symmetric, so a check whose first argument reads the right
/// side takes the batch path with its arguments swapped, when neither
/// argument can raise an error (CannotFail): the order the arguments are
/// evaluated in then shows nowhere.
class NestedLoopJoinOp : public PartitionOperator {
 public:
  explicit NestedLoopJoinOp(ExprPtr predicate)
      : predicate_(std::move(predicate)), batch_(MatchSimCheckCall(predicate_)) {
    if (batch_.has_value()) {
      sides_pure_ = ColumnRange(batch_->arg_a.get(), &a_min_, &a_max_) &&
                    ColumnRange(batch_->arg_b.get(), &b_min_, &b_max_);
      swappable_ = CannotFail(batch_->arg_a.get()) &&
                   CannotFail(batch_->arg_b.get());
    }
  }
  std::string name() const override {
    return "NL-JOIN(" + predicate_->ToString() + ")";
  }
  bool SameAs(const Operator& other) const override;
  int num_inputs() const override { return 2; }
  Result<Rows> ExecutePartition(ExecContext& ctx, int p,
                                const std::vector<const Rows*>& inputs)
      override;
  const ExprPtr& predicate() const { return predicate_; }

 private:
  ExprPtr predicate_;
  std::optional<SimBatchCall> batch_;
  bool sides_pure_ = false;
  bool swappable_ = false;
  int a_min_ = INT_MAX, a_max_ = -1;
  int b_min_ = INT_MAX, b_max_ = -1;
};

}  // namespace simdb::hyracks

#endif  // SIMDB_HYRACKS_OPS_JOIN_H_
