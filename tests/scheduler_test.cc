// Cross-checks the task-graph executor against itself at pool size 1 (the
// serial oracle: one worker runs tasks one at a time in submission order):
// identical outputs (byte-identical serialization, not just multisets),
// identical OpStats traffic counters, and byte-identical error strings for
// injected per-partition failures — under pool sizes 2 and 8 and with no
// pool at all. Diamond and REPLICATE (shared-node) job shapes, exchanges
// (hash, broadcast, gather, merge-gather) and barrier operators (RANK-ASSIGN
// and a misbehaving one) are all exercised.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "hyracks/exec.h"
#include "hyracks/expr.h"
#include "hyracks/ops_basic.h"
#include "hyracks/ops_exchange.h"
#include "hyracks/ops_group.h"
#include "hyracks/ops_scan.h"
#include "testing/operators.h"

namespace simdb::hyracks {
namespace {

using adm::Value;
using testing::IntSourceOp;

/// Passes rows through, failing on the listed partitions.
class FailOp : public PartitionOperator {
 public:
  explicit FailOp(std::set<int> bad) : bad_(std::move(bad)) {}
  std::string name() const override { return "FAIL"; }
  Result<Rows> ExecutePartition(ExecContext&, int p,
                                const std::vector<const Rows*>& inputs)
      override {
    if (bad_.count(p) > 0) {
      return Status::Internal("boom " + std::to_string(p));
    }
    return *inputs[0];
  }

 private:
  std::set<int> bad_;
};

/// A barrier that returns one partition too few.
class WrongPartitionCountOp : public BarrierOperator {
 public:
  std::string name() const override { return "WRONG-PARTS"; }
  Result<PartitionedRows> Execute(
      ExecContext&, const std::vector<const PartitionedRows*>& inputs,
      OpStats*) override {
    return PartitionedRows(inputs[0]->size() - 1);
  }
};

/// Exact serialization: partition order and row order must match, not just
/// the multiset — the executor is deterministic under any pool size.
std::string Serialize(const PartitionedRows& rows) {
  std::string out;
  for (size_t p = 0; p < rows.size(); ++p) {
    out += "p" + std::to_string(p) + ":";
    for (Row t : rows[p]) {
      out += "[";
      for (const Value& v : t) out += v.ToJson() + ",";
      out += "]";
    }
    out += "\n";
  }
  return out;
}

/// Everything in OpStats that must be identical across pool sizes (timings
/// excluded).
std::vector<std::string> SummarizeOps(const ExecStats& stats) {
  std::vector<std::string> out;
  for (const OpStats& op : stats.ops) {
    std::string s = std::to_string(op.node_id) + " " + op.name + " in=[";
    for (int in : op.input_ops) s += std::to_string(in) + ",";
    s += "] barrier=" + std::to_string(op.barrier) +
         " stage=" + std::to_string(op.stage) +
         " rows_in=" + std::to_string(op.rows_in) +
         " rows=" + std::to_string(op.rows_out) +
         " local=" + std::to_string(op.local_bytes) +
         " remote=" + std::to_string(op.remote_bytes) +
         " transfers=" + std::to_string(op.remote_transfers) + " parts=[";
    for (uint64_t r : op.partition_rows) s += std::to_string(r) + ",";
    s += "]";
    out.push_back(std::move(s));
  }
  return out;
}

struct RunOutcome {
  Status status = Status::OK();
  std::string rows;
  std::vector<std::string> ops;
  ExecStats stats;
};

RunOutcome RunJob(const Job& job, size_t pool_size) {
  std::unique_ptr<ThreadPool> pool;
  if (pool_size > 0) pool = std::make_unique<ThreadPool>(pool_size);
  RunOutcome o;
  ExecContext ctx;
  ctx.pool = pool.get();
  ctx.topology = {2, 2};  // 2 nodes x 2 partitions
  ctx.stats = &o.stats;
  Result<PartitionedRows> out = Executor::Run(job, ctx);
  if (out.ok()) {
    o.rows = Serialize(*out);
    o.ops = SummarizeOps(o.stats);
  } else {
    o.status = out.status();
  }
  return o;
}

constexpr size_t kPoolSizes[] = {0, 1, 2, 8};  // 0 = no pool (inline)

/// Diamond: one source feeding two branches that reunite, then a hash
/// repartition, group, per-partition sort and a merge gather.
Job MakeDiamondJob() {
  Job job;
  int src =
      job.Add(std::make_unique<IntSourceOp>(50), {}, RowSchema({"v"}));
  int hi = job.Add(std::make_unique<SelectOp>(
                       *Call("gt", {Col(0, "v"), Lit(Value::Int64(1500))})),
                   {src}, RowSchema({"v"}));
  int doubled = job.Add(
      std::make_unique<AssignOp>(
          std::vector<ExprPtr>{*Call("mul", {Col(0, "v"),
                                             Lit(Value::Int64(2))})},
          std::vector<std::string>{"v2"}),
      {src}, RowSchema({"v", "v2"}));
  int proj = job.Add(std::make_unique<ProjectOp>(std::vector<int>{1}),
                     {doubled}, RowSchema({"v2"}));
  int uni = job.Add(std::make_unique<UnionAllOp>(), {hi, proj},
                    RowSchema({"v"}));
  int hx = job.Add(std::make_unique<HashExchangeOp>(std::vector<int>{0}),
                   {uni}, RowSchema({"v"}));
  int grp = job.Add(
      std::make_unique<HashGroupOp>(
          std::vector<ExprPtr>{Col(0, "v")},
          std::vector<AggSpec>{{AggSpec::Kind::kCount, nullptr, "cnt"}}),
      {hx}, RowSchema({"v", "cnt"}));
  int sorted = job.Add(std::make_unique<SortOp>(std::vector<SortKey>{{0, true}}),
                       {grp}, RowSchema({"v", "cnt"}));
  job.Add(std::make_unique<MergeGatherOp>(std::vector<SortKey>{{0, true}}),
          {sorted}, RowSchema({"v", "cnt"}));
  return job;
}

/// REPLICATE: a shared node with two consumers (one through a broadcast),
/// gathered and rank-assigned (a barrier operator) at the root.
Job MakeReplicateJob() {
  Job job;
  int src =
      job.Add(std::make_unique<IntSourceOp>(20), {}, RowSchema({"v"}));
  int shared = job.Add(
      std::make_unique<AssignOp>(
          std::vector<ExprPtr>{*Call("mul", {Col(0, "v"),
                                             Lit(Value::Int64(3))})},
          std::vector<std::string>{"v3"}),
      {src}, RowSchema({"v", "v3"}));
  int branch_a = job.Add(std::make_unique<ProjectOp>(std::vector<int>{1}),
                         {shared}, RowSchema({"v3"}));
  int branch_b = job.Add(std::make_unique<ProjectOp>(std::vector<int>{0}),
                         {shared}, RowSchema({"v"}));
  int bcast = job.Add(std::make_unique<BroadcastExchangeOp>(), {branch_b},
                      RowSchema({"v"}));
  int uni = job.Add(std::make_unique<UnionAllOp>(), {branch_a, bcast},
                    RowSchema({"x"}));
  int gather =
      job.Add(std::make_unique<GatherOp>(), {uni}, RowSchema({"x"}));
  job.Add(std::make_unique<RankAssignOp>(), {gather},
          RowSchema({"x", "rank"}));
  return job;
}

TEST(SchedulerTest, DiamondIdenticalAcrossPoolSizes) {
  Job job = MakeDiamondJob();
  RunOutcome base = RunJob(job, 1);
  ASSERT_TRUE(base.status.ok()) << base.status.ToString();
  EXPECT_FALSE(base.rows.empty());
  for (size_t pool : kPoolSizes) {
    RunOutcome o = RunJob(job, pool);
    ASSERT_TRUE(o.status.ok()) << o.status.ToString();
    EXPECT_EQ(o.rows, base.rows) << "pool " << pool;
    EXPECT_EQ(o.ops, base.ops) << "pool " << pool;
  }
}

TEST(SchedulerTest, ReplicateIdenticalAcrossPoolSizes) {
  Job job = MakeReplicateJob();
  RunOutcome base = RunJob(job, 1);
  ASSERT_TRUE(base.status.ok()) << base.status.ToString();
  for (size_t pool : kPoolSizes) {
    RunOutcome o = RunJob(job, pool);
    ASSERT_TRUE(o.status.ok()) << o.status.ToString();
    EXPECT_EQ(o.rows, base.rows) << "pool " << pool;
    EXPECT_EQ(o.ops, base.ops) << "pool " << pool;
  }
}

TEST(SchedulerTest, LowestFailingPartitionWinsUnderAnyInterleaving) {
  Job job;
  int src = job.Add(std::make_unique<IntSourceOp>(5), {}, RowSchema({"v"}));
  int fail = job.Add(std::make_unique<FailOp>(std::set<int>{1, 3}), {src},
                     RowSchema({"v"}));
  job.Add(std::make_unique<GatherOp>(), {fail}, RowSchema({"v"}));
  const std::string expected = "node 1 (FAIL): partition 1: boom 1";
  for (size_t pool : kPoolSizes) {
    for (int trial = 0; trial < 5; ++trial) {
      RunOutcome o = RunJob(job, pool);
      ASSERT_FALSE(o.status.ok());
      EXPECT_EQ(o.status.message(), expected) << "pool " << pool;
      // Every partition task ran to completion and recorded its time slot,
      // the failing ones included.
      ASSERT_GE(o.stats.ops.size(), 2u);
      EXPECT_EQ(o.stats.ops[1].name, "FAIL");
      EXPECT_EQ(o.stats.ops[1].partition_seconds.size(), 4u);
    }
  }
}

TEST(SchedulerTest, LowestFailingNodeWinsAcrossParallelBranches) {
  // Two independent branches fail; the lower node id must be reported no
  // matter which branch's task happens to fail first on the pool.
  Job job;
  int src = job.Add(std::make_unique<IntSourceOp>(5), {}, RowSchema({"v"}));
  int f1 = job.Add(std::make_unique<FailOp>(std::set<int>{3}), {src},
                   RowSchema({"v"}));
  int f2 = job.Add(std::make_unique<FailOp>(std::set<int>{0}), {src},
                   RowSchema({"v"}));
  int uni =
      job.Add(std::make_unique<UnionAllOp>(), {f1, f2}, RowSchema({"v"}));
  job.Add(std::make_unique<GatherOp>(), {uni}, RowSchema({"v"}));
  const std::string expected = "node 1 (FAIL): partition 3: boom 3";
  for (size_t pool : kPoolSizes) {
    for (int trial = 0; trial < 5; ++trial) {
      RunOutcome o = RunJob(job, pool);
      ASSERT_FALSE(o.status.ok());
      EXPECT_EQ(o.status.message(), expected) << "pool " << pool;
    }
  }
}

TEST(SchedulerTest, ExchangeRoutingErrorsMatch) {
  Job job;
  int src = job.Add(std::make_unique<IntSourceOp>(5), {}, RowSchema({"v"}));
  job.Add(std::make_unique<HashExchangeOp>(std::vector<int>{5}), {src},
          RowSchema({"v"}));
  const std::string expected =
      "node 1 (HASH-EXCHANGE): HASH-EXCHANGE key column out of range";
  for (size_t pool : kPoolSizes) {
    RunOutcome o = RunJob(job, pool);
    ASSERT_FALSE(o.status.ok());
    EXPECT_EQ(o.status.message(), expected) << "pool " << pool;
  }
}

TEST(SchedulerTest, BarrierOperatorErrorsMatch) {
  Job job;
  int src = job.Add(std::make_unique<IntSourceOp>(5), {}, RowSchema({"v"}));
  job.Add(std::make_unique<RankAssignOp>(), {src}, RowSchema({"v", "rank"}));
  const std::string expected =
      "node 1 (RANK-ASSIGN): RANK-ASSIGN requires a gathered "
      "(single-partition) input";
  for (size_t pool : kPoolSizes) {
    RunOutcome o = RunJob(job, pool);
    ASSERT_FALSE(o.status.ok());
    EXPECT_EQ(o.status.message(), expected) << "pool " << pool;
  }
}

TEST(SchedulerTest, BarrierWrongPartitionCountNamesTheNode) {
  // A barrier must return one Rows per partition; a short output fails the
  // node with the same "node N (NAME): " prefix as every other node failure.
  Job job;
  int src = job.Add(std::make_unique<IntSourceOp>(5), {}, RowSchema({"v"}));
  job.Add(std::make_unique<WrongPartitionCountOp>(), {src}, RowSchema({"v"}));
  const std::string expected =
      "node 1 (WRONG-PARTS): produced 3 partitions, expected 4";
  for (size_t pool : kPoolSizes) {
    RunOutcome o = RunJob(job, pool);
    ASSERT_FALSE(o.status.ok());
    EXPECT_EQ(o.status.code(), StatusCode::kInternal);
    EXPECT_EQ(o.status.message(), expected) << "pool " << pool;
  }
}

TEST(SchedulerTest, ValidationErrorsMatch) {
  // A missing dataset fails in Prepare, at graph build, before any task
  // runs — the error string must not depend on the pool.
  Job job;
  job.Add(std::make_unique<DataScanOp>("nonexistent"), {}, RowSchema({"t"}));
  RunOutcome base = RunJob(job, 1);
  ASSERT_FALSE(base.status.ok());
  EXPECT_NE(base.status.message().find("node 0"), std::string::npos);
  for (size_t pool : kPoolSizes) {
    RunOutcome o = RunJob(job, pool);
    ASSERT_FALSE(o.status.ok());
    EXPECT_EQ(o.status.message(), base.status.message());
    EXPECT_EQ(o.status.code(), base.status.code());
  }
}

TEST(SchedulerTest, SharedInputIsNotCorruptedByExchangeStealing) {
  // One node feeds both a gather and a hash exchange. Tuple stealing must
  // not fire for shared inputs, so both consumers see full data.
  Job job;
  int src = job.Add(std::make_unique<IntSourceOp>(10), {}, RowSchema({"v"}));
  int g = job.Add(std::make_unique<GatherOp>(), {src}, RowSchema({"v"}));
  int hx = job.Add(std::make_unique<HashExchangeOp>(std::vector<int>{0}),
                   {src}, RowSchema({"v"}));
  job.Add(std::make_unique<UnionAllOp>(), {g, hx}, RowSchema({"v"}));
  RunOutcome base = RunJob(job, 1);
  ASSERT_TRUE(base.status.ok()) << base.status.ToString();
  // Every source row reaches the root twice, once through each consumer.
  for (int p = 0; p < 4; ++p) {
    for (int i = 0; i < 10; ++i) {
      std::string row = "[" + std::to_string(p * 1000 + i) + ",]";
      size_t copies = 0;
      for (size_t at = base.rows.find(row); at != std::string::npos;
           at = base.rows.find(row, at + 1)) {
        ++copies;
      }
      EXPECT_EQ(copies, 2u) << row;
    }
  }
  for (size_t pool : kPoolSizes) {
    RunOutcome o = RunJob(job, pool);
    ASSERT_TRUE(o.status.ok()) << o.status.ToString();
    EXPECT_EQ(o.rows, base.rows) << "pool " << pool;
    EXPECT_EQ(o.ops, base.ops) << "pool " << pool;
  }
}

/// Merge gather whose one-shot Route() burns measurable wall time. Routing
/// stays implicit (empty table), like the real MergeGatherOp.
class SlowRouteMergeGatherOp : public MergeGatherOp {
 public:
  using MergeGatherOp::MergeGatherOp;
  std::string name() const override { return "SLOW-MERGE-GATHER"; }
  Result<Routing> Route(ExecContext& ctx, const PartitionedRows& in) override {
    Stopwatch sw;
    while (sw.ElapsedSeconds() < 0.1) {
    }
    return ExchangeOperator::Route(ctx, in);
  }
};

TEST(SchedulerTest, MergeGatherRouteTimeNotChargedToIdleDestinations) {
  // Regression: implicit-routing exchanges (gather, merge-gather, broadcast)
  // used to spread the one-shot Route() cost evenly over every destination
  // partition, so a merge-gather that steals all tuples into destination 0
  // charged idle victims 1/parts of the route time each. With a 100 ms burn
  // and 4 partitions the old even spread puts ~25 ms on each victim; the
  // fixed accounting leaves them at build-only cost (microseconds).
  Job job;
  int src = job.Add(std::make_unique<IntSourceOp>(40), {}, RowSchema({"v"}));
  job.Add(std::make_unique<SlowRouteMergeGatherOp>(
              std::vector<SortKey>{{0, true}}),
          {src}, RowSchema({"v"}));
  for (size_t pool : {size_t{0}, size_t{2}}) {
    RunOutcome o = RunJob(job, pool);
    ASSERT_TRUE(o.status.ok()) << o.status.ToString();
    const OpStats* mg = nullptr;
    for (const OpStats& op : o.stats.ops) {
      if (op.name == "SLOW-MERGE-GATHER") mg = &op;
    }
    ASSERT_NE(mg, nullptr);
    EXPECT_EQ(mg->partition_rows, (std::vector<uint64_t>{160, 0, 0, 0}));
    ASSERT_EQ(mg->partition_seconds.size(), 4u);
    for (int p = 1; p < 4; ++p) {
      EXPECT_LT(mg->partition_seconds[p], 0.010)
          << "victim partition " << p << " charged route time (pool " << pool
          << ")";
    }
  }
}

}  // namespace
}  // namespace simdb::hyracks
