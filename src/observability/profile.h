#ifndef SIMDB_OBSERVABILITY_PROFILE_H_
#define SIMDB_OBSERVABILITY_PROFILE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cost_model.h"
#include "hyracks/exec.h"
#include "observability/trace.h"

namespace simdb::obs {

/// One operator's slice of a query profile, derived from its OpStats.
struct OperatorProfile {
  std::string name;
  int node_id = -1;
  std::vector<int> input_ops;
  bool barrier = false;
  int stage = 0;
  /// Sum / max of the measured per-partition compute seconds.
  double seconds = 0;
  double max_partition_seconds = 0;
  /// max / mean over partitions (1.0 = perfectly balanced). 1.0 when the
  /// operator did no measurable work.
  double skew = 1.0;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  std::vector<uint64_t> partition_rows;
  uint64_t local_bytes = 0;
  uint64_t remote_bytes = 0;
  uint64_t remote_transfers = 0;
  /// Modeled NIC time for this operator's remote bytes (cost model figure).
  /// Zero when the run built its exchanges remotely (socket backend) — the
  /// real time is then in `transport_seconds` (and inside `seconds`).
  double network_seconds = 0;
  /// Measured wire time of the exchange's fragment round trips (already
  /// contained in `seconds`; zero under the modeled backend).
  double transport_seconds = 0;
  /// Operator-specific counters, sorted by name (see docs/OBSERVABILITY.md).
  std::vector<std::pair<std::string, uint64_t>> counters;
};

/// Aggregate over all operators of one pipeline stage (stage = number of
/// barriers on the longest path from a source; see ComputeStages).
struct StageProfile {
  int stage = 0;
  int num_ops = 0;
  double seconds = 0;
  double network_seconds = 0;
  uint64_t rows_out = 0;
};

/// Everything `EngineOptions::profile_queries` attaches to a query result:
/// per-operator breakdowns, per-stage rollups, and the raw task spans.
class QueryProfile {
 public:
  std::vector<OperatorProfile> operators;  // job-node order
  double wall_seconds = 0;
  /// Cost-model figures for the same run (critical path preferred).
  double makespan_seconds = 0;
  double compute_seconds = 0;
  double network_seconds = 0;
  /// Task/exchange spans drained from the collector plus one synthetic
  /// "network" span per remote-traffic exchange (pid -1 track, modeled
  /// duration from the cost model).
  std::vector<TraceEvent> events;
  uint64_t trace_dropped = 0;

  /// Per-stage rollup, ascending stage order.
  std::vector<StageProfile> Stages() const;

  /// EXPLAIN PROFILE-style text tree: one line per operator (time, share of
  /// total compute, rows, skew, traffic, counters), rendered from the root
  /// down, followed by a per-stage summary. See docs/OBSERVABILITY.md for a
  /// reading guide.
  std::string RenderTree() const;

  /// Machine-readable profile ({"operators": [...], "stages": [...], ...});
  /// bench binaries embed this in BENCH_kernels.json and the CI catalogue
  /// check parses counter names out of it.
  std::string ToJson() const;

  /// Writes the spans as Chrome trace_event JSON for chrome://tracing or
  /// Perfetto.
  Status ExportTrace(const std::string& path) const;
};

/// Assembles a profile from a finished run: `stats` from the executor,
/// `events` drained from the run's TraceCollector. Synthesizes the modeled
/// network spans and computes the cost-model makespan with `net`.
QueryProfile BuildQueryProfile(const hyracks::ExecStats& stats,
                               const hyracks::ClusterTopology& topology,
                               std::vector<TraceEvent> events,
                               uint64_t trace_dropped = 0,
                               const cluster::NetworkModel& net = {});

}  // namespace simdb::obs

#endif  // SIMDB_OBSERVABILITY_PROFILE_H_
