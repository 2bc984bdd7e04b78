#include "cluster/cost_model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <unordered_map>
#include <vector>

namespace simdb::cluster {

namespace {

/// Modeled seconds to push `remote_bytes` through the per-node NICs: bytes
/// flow roughly evenly, frame latency is charged per 32 KiB frame, also
/// spread across nodes. Shared by network_seconds and the critical path.
double NetworkSeconds(uint64_t remote_bytes, int nodes,
                      const NetworkModel& net) {
  if (remote_bytes == 0) return 0;
  double per_node_bytes = static_cast<double>(remote_bytes) / nodes;
  double frames =
      std::ceil(static_cast<double>(remote_bytes) / net.frame_bytes) / nodes;
  return per_node_bytes / net.bandwidth_bytes_per_sec +
         frames * net.frame_latency_sec;
}

double PartitionSeconds(const hyracks::OpStats& op, int p) {
  return static_cast<size_t>(p) < op.partition_seconds.size()
             ? op.partition_seconds[static_cast<size_t>(p)]
             : 0.0;
}

/// Longest dependency chain through the per-(node, partition) task DAG.
/// done(i, p) = ready(i, p) + partition_seconds(i, p), where a local task is
/// ready when partition p of each input is done, and a barrier waits for all
/// partitions of all inputs plus its own network time.
double CriticalPathSeconds(const hyracks::ExecStats& stats, int parts,
                           int nodes, const NetworkModel& net) {
  std::unordered_map<int, const hyracks::OpStats*> by_node;
  for (const hyracks::OpStats& op : stats.ops) {
    if (op.node_id >= 0) by_node[op.node_id] = &op;
  }
  std::unordered_map<int, std::vector<double>> done;
  double longest = 0;
  // ops are pushed in node order (topological), so inputs resolve first.
  for (const hyracks::OpStats& op : stats.ops) {
    if (op.node_id < 0) continue;
    std::vector<double>& d =
        done.emplace(op.node_id, std::vector<double>(
                                     static_cast<size_t>(parts), 0.0))
            .first->second;
    if (op.barrier) {
      double ready = 0;
      for (int in : op.input_ops) {
        auto it = done.find(in);
        if (it == done.end()) continue;
        for (double v : it->second) ready = std::max(ready, v);
      }
      ready += NetworkSeconds(op.remote_bytes, nodes, net);
      for (int p = 0; p < parts; ++p) {
        d[static_cast<size_t>(p)] = ready + PartitionSeconds(op, p);
      }
    } else {
      for (int p = 0; p < parts; ++p) {
        double ready = 0;
        for (int in : op.input_ops) {
          auto it = done.find(in);
          if (it == done.end()) continue;
          ready = std::max(ready, it->second[static_cast<size_t>(p)]);
        }
        d[static_cast<size_t>(p)] = ready + PartitionSeconds(op, p);
      }
    }
    for (double v : d) longest = std::max(longest, v);
  }
  return longest;
}

}  // namespace

MakespanReport ComputeMakespan(const hyracks::ExecStats& stats,
                               const hyracks::ClusterTopology& topology,
                               const NetworkModel& net) {
  MakespanReport report;
  report.network_measured = stats.network_measured;
  int nodes = std::max(1, topology.num_nodes);
  for (const hyracks::OpStats& op : stats.ops) {
    // Compute: the slowest node bounds the stage.
    std::vector<double> node_seconds(static_cast<size_t>(nodes), 0.0);
    for (size_t p = 0; p < op.partition_seconds.size(); ++p) {
      int node = topology.NodeOfPartition(static_cast<int>(p));
      if (node >= 0 && node < nodes) {
        node_seconds[static_cast<size_t>(node)] += op.partition_seconds[p];
      }
    }
    double stage = 0;
    for (double s : node_seconds) stage = std::max(stage, s);
    report.compute_seconds += stage;
    // Measured runs already paid transport inside the build times; the
    // modeled charge would double-count the same bytes.
    if (!stats.network_measured) {
      report.network_seconds += NetworkSeconds(op.remote_bytes, nodes, net);
    }
    report.measured_network_seconds += op.transport_seconds;
    report.remote_compute_seconds += op.remote_compute_seconds;
  }
  NetworkModel effective = net;
  if (stats.network_measured) {
    // Zero out the modeled barrier charge; ship time is inside
    // partition_seconds already.
    effective.bandwidth_bytes_per_sec = std::numeric_limits<double>::infinity();
    effective.frame_latency_sec = 0;
  }
  report.critical_path_seconds = CriticalPathSeconds(
      stats, std::max(1, topology.total_partitions()), nodes, effective);
  return report;
}

double ModeledNetworkSeconds(uint64_t remote_bytes, int nodes,
                             const NetworkModel& net) {
  return NetworkSeconds(remote_bytes, std::max(1, nodes), net);
}

std::string FormatMakespan(const MakespanReport& report) {
  char buf[160];
  if (report.network_measured) {
    if (report.remote_compute_seconds > 0) {
      std::snprintf(buf, sizeof(buf),
                    "%.3fs critical path (measured network %.3fs, remote "
                    "compute %.3fs inside compute)",
                    report.total_seconds(), report.measured_network_seconds,
                    report.remote_compute_seconds);
      return buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "%.3fs critical path (measured network %.3fs inside "
                  "compute)",
                  report.total_seconds(), report.measured_network_seconds);
    return buf;
  }
  std::snprintf(buf, sizeof(buf),
                "%.3fs critical path (compute %.3fs, network %.3fs)",
                report.total_seconds(), report.compute_seconds,
                report.network_seconds);
  return buf;
}

}  // namespace simdb::cluster
