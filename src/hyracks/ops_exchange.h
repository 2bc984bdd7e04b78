#ifndef SIMDB_HYRACKS_OPS_EXCHANGE_H_
#define SIMDB_HYRACKS_OPS_EXCHANGE_H_

#include <string>
#include <vector>

#include "hyracks/exec.h"
#include "hyracks/ops_basic.h"

namespace simdb::hyracks {

/// A pipeline barrier that reroutes tuples between partitions. Execution is
/// split into two phases so the expensive part parallelizes:
///
///   1. Route(): one pass over the materialized input computing per-row
///      destinations (only ops that need them, e.g. hash). Runs once, before
///      any destination build, so builds never race on routing decisions.
///   2. BuildDestination(dst): produces destination partition `dst`'s rows
///      and accounts its share of the traffic. The executor runs all
///      destinations in parallel and merges the per-destination counters in
///      destination order, so OpStats are identical under any pool size.
///
/// When the executor exclusively owns the input (this exchange is its sole
/// consumer) it passes a mutable `steal` view: builds may then move cells
/// out of its frames instead of copying. Destinations own disjoint rows (a
/// row's cells are moved only by the destination it routes to), so
/// concurrent moves write disjoint cells. Every destination has the input's
/// width (RowsWidth), also when it receives no row.
class ExchangeOperator : public Operator {
 public:
  struct Routing {
    /// destinations[src][i] = destination partition of row i of source
    /// partition src. Empty when routing is implicit (broadcast, gather).
    std::vector<std::vector<int>> destinations;
  };

  /// Default: no routing table (implicit routing).
  virtual Result<Routing> Route(ExecContext& ctx, const PartitionedRows& in);

  /// Builds destination partition `dst`. Routing decisions must come from
  /// `in`/`routing` (shared read-only across concurrent builds); cells may
  /// be moved out of `steal` when non-null. Traffic goes into `stats`
  /// (a destination-private sink, merged by the caller).
  virtual Result<Rows> BuildDestination(ExecContext& ctx, int dst,
                                        const PartitionedRows& in,
                                        const Routing& routing,
                                        PartitionedRows* steal,
                                        OpStats* stats) = 0;
};

/// Repartitions rows by the hash of the listed key columns (HashColumns, the
/// hash tables' own key hash). Rows with equal keys land on the same
/// partition ("Hash repartition" in the paper's plan diagrams). Traffic
/// crossing node boundaries is accounted.
class HashExchangeOp : public ExchangeOperator {
 public:
  explicit HashExchangeOp(std::vector<int> key_columns)
      : key_columns_(std::move(key_columns)) {}
  std::string name() const override { return "HASH-EXCHANGE"; }
  bool SameAs(const Operator& other) const override;
  Result<Routing> Route(ExecContext& ctx,
                        const PartitionedRows& in) override;
  Result<Rows> BuildDestination(ExecContext& ctx, int dst,
                                const PartitionedRows& in,
                                const Routing& routing, PartitionedRows* steal,
                                OpStats* stats) override;
  const std::vector<int>& key_columns() const { return key_columns_; }

 private:
  std::vector<int> key_columns_;
};

/// Replicates every row to every partition ("Broadcast to all nodes").
/// Replication inherently copies; the per-destination builds parallelize it.
class BroadcastExchangeOp : public ExchangeOperator {
 public:
  std::string name() const override { return "BROADCAST-EXCHANGE"; }
  bool SameAs(const Operator& other) const override;
  Result<Rows> BuildDestination(ExecContext& ctx, int dst,
                                const PartitionedRows& in,
                                const Routing& routing, PartitionedRows* steal,
                                OpStats* stats) override;
};

/// Collects all rows into partition 0 (the coordinator).
class GatherOp : public ExchangeOperator {
 public:
  std::string name() const override { return "GATHER"; }
  bool SameAs(const Operator& other) const override;
  Result<Rows> BuildDestination(ExecContext& ctx, int dst,
                                const PartitionedRows& in,
                                const Routing& routing, PartitionedRows* steal,
                                OpStats* stats) override;
};

/// Collects into partition 0 while merging partitions that are already
/// sorted on `keys` ("Hash repartition merge" / sort-merge gather). The
/// merge is a binary heap with a deterministic partition-index tiebreak.
class MergeGatherOp : public ExchangeOperator {
 public:
  explicit MergeGatherOp(std::vector<SortKey> keys) : keys_(std::move(keys)) {}
  std::string name() const override { return "MERGE-GATHER"; }
  bool SameAs(const Operator& other) const override;
  Result<Rows> BuildDestination(ExecContext& ctx, int dst,
                                const PartitionedRows& in,
                                const Routing& routing, PartitionedRows* steal,
                                OpStats* stats) override;
  const std::vector<SortKey>& keys() const { return keys_; }

 private:
  std::vector<SortKey> keys_;
};

}  // namespace simdb::hyracks

#endif  // SIMDB_HYRACKS_OPS_EXCHANGE_H_
