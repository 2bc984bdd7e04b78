#ifndef SIMDB_HYRACKS_OPS_GROUP_H_
#define SIMDB_HYRACKS_OPS_GROUP_H_

#include <string>
#include <vector>

#include "hyracks/exec.h"
#include "hyracks/expr.h"

namespace simdb::hyracks {

/// One aggregate computed per group by HashGroupOp.
struct AggSpec {
  enum class Kind { kCount, kSum, kMin, kMax, kFirst, kListify };
  Kind kind = Kind::kCount;
  /// Input expression (ignored for kCount, which counts rows).
  ExprPtr input;
  std::string out_name;
};

/// Local (per-partition) hash aggregation. For a global group-by the plan
/// inserts a HashExchange on the grouping keys first, so equal keys meet in
/// one partition (the paper's `/*+ hash */` group hint maps here; sort-based
/// grouping is not modeled). Groups come out in the order their keys were
/// first seen, each keyed by its first-seen value.
class HashGroupOp : public PartitionOperator {
 public:
  HashGroupOp(std::vector<ExprPtr> key_exprs, std::vector<AggSpec> aggs)
      : key_exprs_(std::move(key_exprs)), aggs_(std::move(aggs)) {}
  std::string name() const override { return "HASH-GROUP"; }
  bool SameAs(const Operator& other) const override;
  Result<Rows> ExecutePartition(ExecContext& ctx, int p,
                                const std::vector<const Rows*>& inputs)
      override;
  const std::vector<ExprPtr>& key_exprs() const { return key_exprs_; }
  const std::vector<AggSpec>& aggs() const { return aggs_; }

 private:
  std::vector<ExprPtr> key_exprs_;
  std::vector<AggSpec> aggs_;
};

}  // namespace simdb::hyracks

#endif  // SIMDB_HYRACKS_OPS_GROUP_H_
