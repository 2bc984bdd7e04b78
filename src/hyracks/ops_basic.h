#ifndef SIMDB_HYRACKS_OPS_BASIC_H_
#define SIMDB_HYRACKS_OPS_BASIC_H_

#include <memory>
#include <string>
#include <vector>

#include "hyracks/exec.h"
#include "hyracks/expr.h"

namespace simdb::hyracks {

/// Filters rows where `predicate` evaluates to boolean true.
class SelectOp : public PartitionOperator {
 public:
  explicit SelectOp(ExprPtr predicate) : predicate_(std::move(predicate)) {}
  std::string name() const override {
    return "SELECT(" + predicate_->ToString() + ")";
  }
  bool SameAs(const Operator& other) const override;
  Result<Rows> ExecutePartition(ExecContext& ctx, int p,
                                const std::vector<const Rows*>& inputs)
      override;
  const ExprPtr& predicate() const { return predicate_; }

 private:
  ExprPtr predicate_;
};

/// Appends one computed column per expression to each row.
class AssignOp : public PartitionOperator {
 public:
  AssignOp(std::vector<ExprPtr> exprs, std::vector<std::string> names)
      : exprs_(std::move(exprs)), names_(std::move(names)) {}
  std::string name() const override;
  bool SameAs(const Operator& other) const override;
  Result<Rows> ExecutePartition(ExecContext& ctx, int p,
                                const std::vector<const Rows*>& inputs)
      override;
  const std::vector<ExprPtr>& exprs() const { return exprs_; }

 private:
  std::vector<ExprPtr> exprs_;
  std::vector<std::string> names_;
};

/// Keeps only the listed column positions, in the given order.
class ProjectOp : public PartitionOperator {
 public:
  explicit ProjectOp(std::vector<int> keep) : keep_(std::move(keep)) {}
  std::string name() const override { return "PROJECT"; }
  bool SameAs(const Operator& other) const override;
  Result<Rows> ExecutePartition(ExecContext& ctx, int p,
                                const std::vector<const Rows*>& inputs)
      override;
  const std::vector<int>& columns() const { return keep_; }

 private:
  std::vector<int> keep_;
};

struct SortKey {
  int column;
  bool ascending = true;

  friend bool operator==(const SortKey&, const SortKey&) = default;
};

/// Per-partition sort. Combine with MergeGatherOp for a global order.
class SortOp : public PartitionOperator {
 public:
  explicit SortOp(std::vector<SortKey> keys) : keys_(std::move(keys)) {}
  std::string name() const override { return "SORT"; }
  bool SameAs(const Operator& other) const override;
  Result<Rows> ExecutePartition(ExecContext& ctx, int p,
                                const std::vector<const Rows*>& inputs)
      override;
  const std::vector<SortKey>& keys() const { return keys_; }

 private:
  std::vector<SortKey> keys_;
};

/// Expands a list-valued expression: one output row per element, keeping the
/// input columns and appending the element (and its 1-based position when
/// `with_position`, supporting AQL's `for $x at $i in ...`).
class UnnestOp : public PartitionOperator {
 public:
  UnnestOp(ExprPtr list_expr, bool with_position)
      : list_expr_(std::move(list_expr)), with_position_(with_position) {}
  std::string name() const override {
    return "UNNEST(" + list_expr_->ToString() + ")";
  }
  bool SameAs(const Operator& other) const override;
  Result<Rows> ExecutePartition(ExecContext& ctx, int p,
                                const std::vector<const Rows*>& inputs)
      override;
  const ExprPtr& list_expr() const { return list_expr_; }
  bool with_position() const { return with_position_; }

 private:
  ExprPtr list_expr_;
  bool with_position_;
};

/// Concatenates any number of inputs partition-wise (UNION ALL).
class UnionAllOp : public PartitionOperator {
 public:
  std::string name() const override { return "UNION-ALL"; }
  bool SameAs(const Operator& other) const override;
  int num_inputs() const override { return -1; }
  Result<Rows> ExecutePartition(ExecContext& ctx, int p,
                                const std::vector<const Rows*>& inputs)
      override;
};

/// Appends an int64 rank column start, start+1, ... in row order. Input must
/// already be gathered into partition 0 (used to materialize the global token
/// order of the three-stage join's stage 1; AQL's `at $i` is 1-based).
/// A pipeline barrier: the whole input must exist before ranks are assigned.
class RankAssignOp : public BarrierOperator {
 public:
  explicit RankAssignOp(int64_t start = 0) : start_(start) {}
  std::string name() const override { return "RANK-ASSIGN"; }
  bool SameAs(const Operator& other) const override;
  Result<PartitionedRows> Execute(
      ExecContext& ctx, const std::vector<const PartitionedRows*>& inputs,
      OpStats* stats) override;

 private:
  int64_t start_;
};

/// Caps the total number of output rows (first `limit` rows by partition
/// order; apply after a gather for deterministic results). A pipeline
/// barrier: the cap spans partitions.
class LimitOp : public BarrierOperator {
 public:
  explicit LimitOp(int64_t limit) : limit_(limit) {}
  std::string name() const override {
    return "LIMIT(" + std::to_string(limit_) + ")";
  }
  bool SameAs(const Operator& other) const override;
  Result<PartitionedRows> Execute(
      ExecContext& ctx, const std::vector<const PartitionedRows*>& inputs,
      OpStats* stats) override;

 private:
  int64_t limit_;
};

}  // namespace simdb::hyracks

#endif  // SIMDB_HYRACKS_OPS_BASIC_H_
