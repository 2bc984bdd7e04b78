// Pins the simulated-makespan formula of cluster/cost_model.h against
// DESIGN.md: per-operator compute is bounded by the slowest node (sum of its
// partitions' seconds), network time charges remote bytes through per-node
// NICs plus per-frame latency. Covers the degenerate shapes: no operators,
// single-node topologies, and exchange-only operators (compute == 0).
#include <gtest/gtest.h>

#include <cmath>

#include "cluster/cost_model.h"

namespace simdb::cluster {
namespace {

using hyracks::ClusterTopology;
using hyracks::ExecStats;
using hyracks::OpStats;

TEST(ComputeMakespanTest, ZeroOpsIsZero) {
  ExecStats stats;
  MakespanReport report = ComputeMakespan(stats, {4, 2});
  EXPECT_EQ(report.compute_seconds, 0.0);
  EXPECT_EQ(report.network_seconds, 0.0);
  EXPECT_EQ(report.total_seconds(), 0.0);
}

TEST(ComputeMakespanTest, SingleNodeSumsAllPartitions) {
  // On a 1-node topology every partition shares the one node, so the stage
  // time is the plain sum, not a max across nodes.
  ExecStats stats;
  OpStats op;
  op.name = "SCAN";
  op.partition_seconds = {0.5, 0.25, 0.125, 0.125};
  stats.ops.push_back(op);
  MakespanReport report = ComputeMakespan(stats, ClusterTopology{1, 4});
  EXPECT_DOUBLE_EQ(report.compute_seconds, 1.0);
  EXPECT_EQ(report.network_seconds, 0.0);
}

TEST(ComputeMakespanTest, SlowestNodeBoundsTheStage) {
  // 2 nodes x 2 partitions: node 0 holds partitions {0,1}, node 1 holds
  // {2,3}. Node sums are 0.7 and 0.3 -> the stage costs 0.7.
  ExecStats stats;
  OpStats op;
  op.partition_seconds = {0.4, 0.3, 0.2, 0.1};
  stats.ops.push_back(op);
  MakespanReport report = ComputeMakespan(stats, ClusterTopology{2, 2});
  EXPECT_DOUBLE_EQ(report.compute_seconds, 0.7);
}

TEST(ComputeMakespanTest, ComputeSumsPerOperatorMaxima) {
  // compute_seconds adds up each operator's slowest-node time.
  ExecStats stats;
  OpStats a, b;
  a.partition_seconds = {0.4, 0.1};  // 1 node -> 0.5
  b.partition_seconds = {0.2, 0.2};  // 1 node -> 0.4
  stats.ops.push_back(a);
  stats.ops.push_back(b);
  MakespanReport report = ComputeMakespan(stats, ClusterTopology{1, 2});
  EXPECT_DOUBLE_EQ(report.compute_seconds, 0.9);
}

TEST(ComputeMakespanTest, ExchangeOnlyOpChargesOnlyNetwork) {
  // An exchange with no measured compute (compute_seconds == 0): the model
  // must charge exactly per_node_bytes / bandwidth + frames * latency, with
  // both the bytes and the frames spread across the nodes' NICs.
  ExecStats stats;
  OpStats exchange;
  exchange.name = "HASH-EXCHANGE";
  exchange.remote_bytes = 4 * 1024 * 1024;  // 4 MiB
  stats.ops.push_back(exchange);

  NetworkModel net;
  net.bandwidth_bytes_per_sec = 1024 * 1024;  // 1 MiB/s -> easy arithmetic
  net.frame_bytes = 32 * 1024;
  net.frame_latency_sec = 1e-3;

  const int nodes = 2;
  MakespanReport report =
      ComputeMakespan(stats, ClusterTopology{nodes, 2}, net);
  EXPECT_EQ(report.compute_seconds, 0.0);
  double per_node_bytes = 4.0 * 1024 * 1024 / nodes;
  double frames = std::ceil(4.0 * 1024 * 1024 / (32 * 1024)) / nodes;
  EXPECT_DOUBLE_EQ(report.network_seconds,
                   per_node_bytes / (1024 * 1024) + frames * 1e-3);
}

TEST(ComputeMakespanTest, LocalBytesAreFree) {
  // Only remote_bytes cost network time; same-node traffic is free in the
  // model (the paper's testbed bottleneck is the NIC).
  ExecStats stats;
  OpStats exchange;
  exchange.local_bytes = 1 << 30;
  exchange.remote_bytes = 0;
  stats.ops.push_back(exchange);
  MakespanReport report = ComputeMakespan(stats, ClusterTopology{2, 2});
  EXPECT_EQ(report.network_seconds, 0.0);
}

TEST(CriticalPathTest, ChainOfLocalOpsFollowsSlowestPartitionChain) {
  // Two chained partition-local ops: the critical path is the slowest
  // per-partition chain (0.4 + 0.2 = 0.6), not the sum of per-stage maxima
  // — partitions overlap across stages in the task-graph runtime.
  ExecStats stats;
  OpStats a, b;
  a.name = "SCAN";
  a.node_id = 0;
  a.partition_seconds = {0.4, 0.1};
  b.name = "SELECT";
  b.node_id = 1;
  b.input_ops = {0};
  b.partition_seconds = {0.2, 0.2};
  stats.ops.push_back(a);
  stats.ops.push_back(b);
  MakespanReport report = ComputeMakespan(stats, ClusterTopology{1, 2});
  EXPECT_DOUBLE_EQ(report.critical_path_seconds, 0.6);
  EXPECT_DOUBLE_EQ(report.total_seconds(), 0.6);
  // The per-operator maxima add up to 0.5 + 0.4 = 0.9 for the same stats.
  EXPECT_DOUBLE_EQ(report.compute_seconds, 0.9);
}

TEST(CriticalPathTest, BarrierWaitsForAllPartitionsOfAllInputs) {
  // A barrier op cannot start any partition until every input partition is
  // done: ready = max(0.4, 0.1) = 0.4, then its own partition times.
  ExecStats stats;
  OpStats a, b;
  a.node_id = 0;
  a.partition_seconds = {0.4, 0.1};
  b.node_id = 1;
  b.input_ops = {0};
  b.barrier = true;
  b.partition_seconds = {0.05, 0.3};
  stats.ops.push_back(a);
  stats.ops.push_back(b);
  MakespanReport report = ComputeMakespan(stats, ClusterTopology{1, 2});
  EXPECT_DOUBLE_EQ(report.critical_path_seconds, 0.7);
}

TEST(CriticalPathTest, BarrierChargesNetworkBeforeItsOutputs) {
  // An exchange's modeled network time delays the start of its outputs on
  // the critical path (and is charged once, not per partition).
  ExecStats stats;
  OpStats a, x;
  a.node_id = 0;
  a.partition_seconds = {0.1, 0.1};
  x.name = "HASH-EXCHANGE";
  x.node_id = 1;
  x.input_ops = {0};
  x.barrier = true;
  x.remote_bytes = 2 * 1024 * 1024;
  stats.ops.push_back(a);
  stats.ops.push_back(x);

  NetworkModel net;
  net.bandwidth_bytes_per_sec = 1024 * 1024;
  net.frame_bytes = 32 * 1024;
  net.frame_latency_sec = 0;

  const int nodes = 2;
  MakespanReport report =
      ComputeMakespan(stats, ClusterTopology{nodes, 1}, net);
  // 0.1 compute, then 2 MiB spread over 2 NICs at 1 MiB/s = 1.0s.
  EXPECT_DOUBLE_EQ(report.critical_path_seconds, 1.1);
}

TEST(CriticalPathTest, HandBuiltStatsWithoutNodeIdsHaveNoPath) {
  // Stats without task-DAG shape contribute compute but no critical path.
  ExecStats stats;
  OpStats op;
  op.partition_seconds = {0.4, 0.1};
  stats.ops.push_back(op);
  MakespanReport report = ComputeMakespan(stats, ClusterTopology{1, 2});
  EXPECT_DOUBLE_EQ(report.compute_seconds, 0.5);
  EXPECT_EQ(report.total_seconds(), 0.0);
}

TEST(FormatMakespanTest, RendersCriticalPathAndComponents) {
  MakespanReport report;
  report.compute_seconds = 1.25;
  report.network_seconds = 0.75;
  report.critical_path_seconds = 1.5;
  std::string s = FormatMakespan(report);
  EXPECT_NE(s.find("1.500s critical path"), std::string::npos);
  EXPECT_NE(s.find("compute 1.250s"), std::string::npos);
  EXPECT_NE(s.find("network 0.750s"), std::string::npos);
}

}  // namespace
}  // namespace simdb::cluster
