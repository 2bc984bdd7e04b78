#ifndef SIMDB_HYRACKS_OPS_SCAN_H_
#define SIMDB_HYRACKS_OPS_SCAN_H_

#include <string>
#include <vector>

#include "hyracks/exec.h"
#include "hyracks/expr.h"
#include "storage/catalog.h"

namespace simdb::hyracks {

/// Scans a dataset's primary index; partition p of the output holds the
/// records of dataset partition p (one record-object column). The dataset's
/// partition count must equal the cluster's total partition count
/// (co-location, as in AsterixDB).
class DataScanOp : public PartitionOperator {
 public:
  explicit DataScanOp(std::string dataset) : dataset_(std::move(dataset)) {}
  std::string name() const override { return "DATA-SCAN(" + dataset_ + ")"; }
  bool SameAs(const Operator& other) const override;
  int num_inputs() const override { return 0; }
  Status Prepare(ExecContext& ctx) override;
  Result<Rows> ExecutePartition(ExecContext& ctx, int p,
                                const std::vector<const Rows*>& inputs)
      override;
  const std::string& dataset() const { return dataset_; }

 private:
  std::string dataset_;
  storage::Dataset* ds_ = nullptr;  // resolved by Prepare
};

/// Emits fixed rows into partition 0 (used for constant search keys, which
/// the coordinator then broadcasts — paper Figure 6 step 1).
class ConstantSourceOp : public PartitionOperator {
 public:
  explicit ConstantSourceOp(Rows rows) : rows_(std::move(rows)) {}
  std::string name() const override { return "CONSTANT-SOURCE"; }
  int num_inputs() const override { return 0; }
  Result<Rows> ExecutePartition(ExecContext& ctx, int p,
                                const std::vector<const Rows*>& inputs)
      override;

 private:
  Rows rows_;
};

/// Looks up each input row's pk (int64 column `pk_column`) in the local
/// partition of the dataset's primary index and appends the record object.
/// Rows whose pk does not exist locally are dropped — by construction the
/// upstream secondary-index search produced pks of the same partition. Each
/// partition runs through one storage::LsmIndex::PointReader, so the pk
/// sort the plans put first turns the lookups into one forward pass per run;
/// any input order gives the same rows.
class PrimaryLookupOp : public PartitionOperator {
 public:
  PrimaryLookupOp(std::string dataset, int pk_column)
      : dataset_(std::move(dataset)), pk_column_(pk_column) {}
  std::string name() const override {
    return "PRIMARY-LOOKUP(" + dataset_ + ")";
  }
  bool SameAs(const Operator& other) const override;
  Status Prepare(ExecContext& ctx) override;
  Result<Rows> ExecutePartition(ExecContext& ctx, int p,
                                const std::vector<const Rows*>& inputs)
      override;
  const std::string& dataset() const { return dataset_; }
  int pk_column() const { return pk_column_; }

 private:
  std::string dataset_;
  int pk_column_;
  storage::Dataset* ds_ = nullptr;  // resolved by Prepare
};

}  // namespace simdb::hyracks

#endif  // SIMDB_HYRACKS_OPS_SCAN_H_
