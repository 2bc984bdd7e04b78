// Measures the task-graph executor on a job built to expose scheduling: a
// chain of partition-local operators with skewed per-partition cost over
// more partitions than workers. With no barrier between the local
// operators, fast partitions run ahead through the whole chain while the
// slow ones are still working, so wall time tracks the critical path rather
// than the sum of per-operator maxima.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "cluster/cost_model.h"
#include "common/thread_pool.h"
#include "hyracks/exec.h"
#include "hyracks/ops_exchange.h"

namespace {

using namespace simdb;
using namespace simdb::hyracks;

/// Deterministic CPU burn: xorshift rounds over a seed. The optimizer can't
/// elide it (result feeds the output tuple).
uint64_t Spin(uint64_t seed, int rounds) {
  uint64_t x = seed | 1;
  for (int i = 0; i < rounds; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

class SpinSourceOp : public PartitionOperator {
 public:
  explicit SpinSourceOp(int rows) : rows_(rows) {}
  std::string name() const override { return "SPIN-SOURCE"; }
  int num_inputs() const override { return 0; }
  Result<Rows> ExecutePartition(ExecContext&, int p,
                                const std::vector<const Rows*>&) override {
    Rows rows(1);
    for (int i = 0; i < rows_; ++i) {
      rows.Append()[0] = adm::Value::Int64(p * 100003 + i);
    }
    return rows;
  }

 private:
  int rows_;
};

/// Per-row work scaled by (partition index + 1): partition P-1 costs P times
/// partition 0, the skew that makes per-stage barriers expensive.
class SpinWorkOp : public PartitionOperator {
 public:
  explicit SpinWorkOp(int rounds_per_row) : rounds_(rounds_per_row) {}
  std::string name() const override { return "SPIN-WORK"; }
  Result<Rows> ExecutePartition(ExecContext&, int p,
                                const std::vector<const Rows*>& inputs)
      override {
    Rows out(1);
    for (Row t : *inputs[0]) {
      uint64_t v = static_cast<uint64_t>(t[0].AsInt64());
      v = Spin(v, rounds_ * (p + 1));
      out.Append()[0] = adm::Value::Int64(static_cast<int64_t>(v >> 1));
    }
    return out;
  }

 private:
  int rounds_;
};

constexpr int kStages = 6;
constexpr int kRowsPerPartition = 64;
constexpr int kRoundsPerRow = 2000;

Job MakeChainJob() {
  Job job;
  int prev = job.Add(std::make_unique<SpinSourceOp>(kRowsPerPartition), {},
                     RowSchema({"v"}));
  for (int s = 0; s < kStages; ++s) {
    prev = job.Add(std::make_unique<SpinWorkOp>(kRoundsPerRow), {prev},
                   RowSchema({"v"}));
  }
  job.Add(std::make_unique<GatherOp>(), {prev}, RowSchema({"v"}));
  return job;
}

void BM_TaskGraphScheduler(benchmark::State& state) {
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  const ClusterTopology topology{4, 2};  // 8 partitions
  Job job = MakeChainJob();
  size_t rows = 0;
  for (auto _ : state) {
    ExecContext ctx;
    ctx.pool = &pool;
    ctx.topology = topology;
    Result<PartitionedRows> out = Executor::Run(job, ctx);
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      return;
    }
    rows = RowsCount(*out);
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);

  // Machine-independent figure from the cluster cost model: the critical
  // path through the task DAG, what the executor achieves with enough
  // workers. Wall time above depends on the host's core count; this does
  // not.
  ExecStats stats;
  ExecContext ctx;
  ctx.pool = &pool;
  ctx.topology = topology;
  ctx.stats = &stats;
  Result<PartitionedRows> out = Executor::Run(job, ctx);
  if (out.ok()) {
    cluster::MakespanReport model =
        cluster::ComputeMakespan(stats, topology);
    state.counters["model_critical_path_s"] = model.critical_path_seconds;
  }
}
BENCHMARK(BM_TaskGraphScheduler)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
