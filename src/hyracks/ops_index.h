#ifndef SIMDB_HYRACKS_OPS_INDEX_H_
#define SIMDB_HYRACKS_OPS_INDEX_H_

#include <string>
#include <vector>

#include "hyracks/exec.h"
#include "hyracks/expr.h"
#include "storage/catalog.h"

namespace simdb::hyracks {

/// Similarity predicate driving an inverted-index search.
struct SimSearchSpec {
  enum class Fn { kJaccard, kEditDistance, kContains };
  Fn fn = Fn::kJaccard;
  /// Jaccard threshold delta, edit-distance bound k, unused for contains.
  double threshold = 0.5;

  friend bool operator==(const SimSearchSpec&, const SimSearchSpec&) = default;
};

/// Secondary-to-primary index search: for each input row (already broadcast
/// to every partition), evaluates `key_expr`, tokenizes it per the index
/// spec, computes the T-occurrence bound for the predicate, and probes the
/// local inverted index. Emits input columns + candidate pk. Rows whose T
/// bound is non-positive (edit-distance corner case) produce nothing here —
/// the corner-case path of the plan (paper Figure 14) covers them.
/// Partition-local: probing is thread-safe (the decoded posting-list cache
/// is mutex-guarded), so partitions may run concurrently with other ops.
class InvertedIndexSearchOp : public PartitionOperator {
 public:
  InvertedIndexSearchOp(std::string dataset, std::string index,
                        ExprPtr key_expr, SimSearchSpec spec)
      : dataset_(std::move(dataset)),
        index_(std::move(index)),
        key_expr_(std::move(key_expr)),
        spec_(spec) {}
  std::string name() const override {
    return "INVERTED-SEARCH(" + dataset_ + "." + index_ + ")";
  }
  bool SameAs(const Operator& other) const override;
  Status Prepare(ExecContext& ctx) override;
  Result<Rows> ExecutePartition(ExecContext& ctx, int p,
                                const std::vector<const Rows*>& inputs)
      override;
  const std::string& dataset() const { return dataset_; }
  const ExprPtr& key_expr() const { return key_expr_; }
  const SimSearchSpec& spec() const { return spec_; }

 private:
  std::string dataset_;
  std::string index_;
  ExprPtr key_expr_;
  SimSearchSpec spec_;
  storage::Dataset* ds_ = nullptr;                 // resolved by Prepare
  const storage::IndexSpec* index_spec_ = nullptr;  // resolved by Prepare
};

/// Exact-match search on a secondary B+-tree: emits input columns + pk for
/// every local record whose indexed field equals the key expression.
class BtreeSearchOp : public PartitionOperator {
 public:
  BtreeSearchOp(std::string dataset, std::string index, ExprPtr key_expr)
      : dataset_(std::move(dataset)),
        index_(std::move(index)),
        key_expr_(std::move(key_expr)) {}
  std::string name() const override {
    return "BTREE-SEARCH(" + dataset_ + "." + index_ + ")";
  }
  bool SameAs(const Operator& other) const override;
  Status Prepare(ExecContext& ctx) override;
  Result<Rows> ExecutePartition(ExecContext& ctx, int p,
                                const std::vector<const Rows*>& inputs)
      override;
  const std::string& dataset() const { return dataset_; }
  const ExprPtr& key_expr() const { return key_expr_; }

 private:
  std::string dataset_;
  std::string index_;
  ExprPtr key_expr_;
  storage::Dataset* ds_ = nullptr;  // resolved by Prepare
};

}  // namespace simdb::hyracks

#endif  // SIMDB_HYRACKS_OPS_INDEX_H_
