#ifndef SIMDB_CLUSTER_COST_MODEL_H_
#define SIMDB_CLUSTER_COST_MODEL_H_

#include <string>

#include "hyracks/exec.h"

namespace simdb::cluster {

/// Network parameters of the simulated cluster. Defaults approximate the
/// paper's testbed (1 GbE per node; payload bandwidth ~117 MiB/s) with
/// frame-granularity transfer latency.
struct NetworkModel {
  double bandwidth_bytes_per_sec = 117.0 * 1024 * 1024;
  double frame_bytes = 32 * 1024;
  double frame_latency_sec = 3e-5;
};

/// A simulated parallel execution time ("makespan") derived from measured
/// per-partition compute times and counted exchange traffic.
///
/// The makespan (`critical_path_seconds`, also `total_seconds()`) is the
/// longest dependency chain through the per-(node, partition) task DAG that
/// OpStats::node_id / input_ops describe. A partition-local task is ready
/// when the same partition of each input is done; a barrier (exchange /
/// whole-node operator) waits for every partition of every input and
/// additionally pays its network time before its outputs start. This is the
/// makespan a dependency-scheduled runtime achieves with unbounded workers,
/// and it preserves the paper's scale-out/speed-up shapes on a single
/// machine (see DESIGN.md).
///
/// Two components are reported beside it: `compute_seconds` sums over
/// operators the max-over-nodes of each node's partition compute seconds,
/// and `network_seconds` is the modeled time to move every exchange's remote
/// bytes through the per-node NICs.
struct MakespanReport {
  double compute_seconds = 0;
  double network_seconds = 0;
  double critical_path_seconds = 0;
  /// True when the run built its exchange destinations remotely
  /// (ExecStats::network_measured). The round-trip time is then already
  /// inside the exchange partition_seconds — charging the
  /// modeled formula on top would double-count — so `network_seconds` stays
  /// 0 and the measured transport time is reported here instead.
  bool network_measured = false;
  /// Sum of the exchanges' measured fragment wire seconds (informational;
  /// already contained in compute_seconds / the critical path).
  double measured_network_seconds = 0;
  /// Sum of the exchanges' worker-reported fragment compute seconds (socket
  /// transport — see docs/DISTRIBUTED.md). Like
  /// measured_network_seconds this is informational: the parent times the
  /// whole fragment round trip inside the build's partition_seconds, so the
  /// worker compute is already contained in compute_seconds / the critical
  /// path. Nonzero only when destinations were actually built remotely.
  double remote_compute_seconds = 0;

  double total_seconds() const { return critical_path_seconds; }
};

MakespanReport ComputeMakespan(const hyracks::ExecStats& stats,
                               const hyracks::ClusterTopology& topology,
                               const NetworkModel& net = {});

/// Modeled seconds to push `remote_bytes` through the per-node NICs — the
/// exact figure the makespan charges an exchange. Exposed so the
/// observability layer can emit the same modeled network time as trace spans
/// next to the measured compute spans.
double ModeledNetworkSeconds(uint64_t remote_bytes, int nodes,
                             const NetworkModel& net = {});

/// One-line rendering for bench output.
std::string FormatMakespan(const MakespanReport& report);

}  // namespace simdb::cluster

#endif  // SIMDB_CLUSTER_COST_MODEL_H_
