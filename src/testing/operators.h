#ifndef SIMDB_TESTING_OPERATORS_H_
#define SIMDB_TESTING_OPERATORS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hyracks/exec.h"

namespace simdb::testing {

/// Deterministic source: `per_partition` int64 rows per partition, valued
/// p * 1000 + i so every partition's rows are distinct.
class IntSourceOp : public hyracks::PartitionOperator {
 public:
  explicit IntSourceOp(int per_partition) : per_partition_(per_partition) {}
  std::string name() const override { return "INT-SOURCE"; }
  int num_inputs() const override { return 0; }
  Result<hyracks::Rows> ExecutePartition(
      hyracks::ExecContext&, int p,
      const std::vector<const hyracks::Rows*>&) override {
    hyracks::Rows rows(1);
    for (int i = 0; i < per_partition_; ++i) {
      rows.Append()[0] = adm::Value::Int64(p * 1000 + i);
    }
    return rows;
  }

 private:
  int per_partition_;
};

/// Source of a fixed partitioned input: partition p emits a copy of rows[p].
/// Feeds hand-built partitions into an operator under test.
class RowsSourceOp : public hyracks::PartitionOperator {
 public:
  explicit RowsSourceOp(hyracks::PartitionedRows rows)
      : rows_(std::move(rows)) {}
  std::string name() const override { return "ROWS-SOURCE"; }
  int num_inputs() const override { return 0; }
  Result<hyracks::Rows> ExecutePartition(
      hyracks::ExecContext&, int p,
      const std::vector<const hyracks::Rows*>&) override {
    if (static_cast<size_t>(p) >= rows_.size()) {
      return Status::Internal("ROWS-SOURCE has only " +
                              std::to_string(rows_.size()) + " partitions");
    }
    return rows_[static_cast<size_t>(p)];
  }

 private:
  hyracks::PartitionedRows rows_;
};

/// Runs `op` through Executor::Run — the path production jobs take — as the
/// root of a job whose inputs are RowsSourceOp nodes over `inputs` (each with
/// ctx.topology.total_partitions() partitions). `stats`, when non-null,
/// receives the operator's OpStats; ctx.stats is not touched.
inline Result<hyracks::PartitionedRows> RunOperator(
    const hyracks::ExecContext& ctx, std::unique_ptr<hyracks::Operator> op,
    const std::vector<const hyracks::PartitionedRows*>& inputs,
    hyracks::OpStats* stats = nullptr) {
  hyracks::Job job;
  std::vector<int> sources;
  for (const hyracks::PartitionedRows* in : inputs) {
    sources.push_back(job.Add(std::make_unique<RowsSourceOp>(*in), {},
                              hyracks::RowSchema()));
  }
  int root = job.Add(std::move(op), sources, hyracks::RowSchema());
  hyracks::ExecStats exec_stats;
  hyracks::ExecContext run_ctx = ctx;
  run_ctx.stats = &exec_stats;
  Result<hyracks::PartitionedRows> out = hyracks::Executor::Run(job, run_ctx);
  for (hyracks::OpStats& s : exec_stats.ops) {
    if (stats != nullptr && s.node_id == root) *stats = std::move(s);
  }
  return out;
}

}  // namespace simdb::testing

#endif  // SIMDB_TESTING_OPERATORS_H_
