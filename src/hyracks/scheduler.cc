#include <deque>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "hyracks/exec.h"
#include "hyracks/fragment.h"
#include "hyracks/ops_exchange.h"
#include "observability/trace.h"
#include "transport/transport.h"

namespace simdb::hyracks {

namespace {

enum class TaskKind { kLocal, kRoute, kBuild, kBarrier };

/// Builds destination `dst` of an exchange (a kBuild task). Remote-first:
/// when the transport executes fragments, the destination is *computed* in
/// the worker that owns its node and only the result crosses back — the
/// parent never materializes it. A handled remote build consumed no tuples
/// from `steal` (its slice is disjoint from every other destination's), so
/// concurrent stealing builds are unaffected. Builds locally when the
/// transport has no remote execution, the query is already cancelled, the
/// operator has no closure, the slice is empty, or the fragment was refused
/// as cancelled. Runs inside the build task's stopwatch, so round-trip
/// seconds land in the exchange's partition time (the wire share is also
/// recorded in `stats->transport_seconds`).
Result<Rows> BuildExchangeDestination(ExecContext& ctx, ExchangeOperator& op,
                                      int dst, const PartitionedRows& in,
                                      const ExchangeOperator::Routing& routing,
                                      PartitionedRows* steal, OpStats* stats) {
  if (ctx.transport != nullptr && ctx.transport->remote_execution() &&
      (ctx.cancel == nullptr || ctx.cancel->Check().ok())) {
    Rows remote_rows;
    bool handled = false;
    SIMDB_RETURN_IF_ERROR(fragment::TryBuildRemote(
        ctx, op, dst, in, routing, stats, &remote_rows, &handled));
    if (handled) return remote_rows;
  }
  return op.BuildDestination(ctx, dst, in, routing, steal, stats);
}

struct Task {
  TaskKind kind;
  int node = -1;
  /// Partition (kLocal) or destination partition (kBuild); -1 otherwise.
  int p = -1;
  /// Unfinished dependency count; duplicate edges are counted on both sides.
  int pending = 0;
  bool dep_failed = false;
  std::vector<int> dependents;
};

/// Per-node execution state shared by the node's tasks.
struct NodeRun {
  /// No tasks were created: the node failed validation or consumes a dead
  /// node's output.
  bool dead = false;
  bool is_exchange = false;
  /// Exchange builds may move tuples out of the input (sole consumer edge).
  bool steal = false;

  // Failure bookkeeping. Within a node the lowest partition wins;
  // partition -1 is a node-level failure (validation, routing) and beats all.
  bool failed = false;
  bool unwrapped = false;  // serving refusal: no "node N (NAME): " prefix
  int fail_partition = 0;
  Status fail_status = Status::OK();

  // Stats, assembled deterministically regardless of task interleaving.
  bool any_ran = false;
  OpStats stats;
  std::vector<OpStats> dest_stats;     // exchange: per-destination traffic
  std::vector<double> build_seconds;   // exchange: per-destination build time
  double route_seconds = 0.0;
  ExchangeOperator::Routing routing;
};

class SchedulerRun {
 public:
  SchedulerRun(const Job& job, ExecContext& ctx)
      : job_(job), ctx_(ctx), parts_(ctx.topology.total_partitions()) {}

  Result<PartitionedRows> Go() {
    if (job_.nodes().empty()) return Status::PlanError("empty job");
    Stopwatch sw;
    BuildGraph();
    RunTasks();
    return Finalize(sw.ElapsedSeconds());
  }

  /// Bytes a task's output will occupy while held by the scheduler; only
  /// computed when a budget is attached (the unbudgeted path never walks
  /// rows).
  static int64_t RowsApproxBytes(const Rows& rows) {
    int64_t bytes = 0;
    for (Row row : rows) bytes += static_cast<int64_t>(TupleBytes(row));
    return bytes;
  }

 private:
  int AddTask(TaskKind kind, int node, int p) {
    int id = static_cast<int>(tasks_.size());
    Task t;
    t.kind = kind;
    t.node = node;
    t.p = p;
    tasks_.push_back(std::move(t));
    return id;
  }

  void AddDep(int producer, int consumer) {
    tasks_[static_cast<size_t>(producer)].dependents.push_back(consumer);
    ++tasks_[static_cast<size_t>(consumer)].pending;
  }

  void BuildGraph() {
    const auto& jnodes = job_.nodes();
    int n = static_cast<int>(jnodes.size());
    nodes_.resize(static_cast<size_t>(n));
    outputs_.assign(static_cast<size_t>(n),
                    PartitionedRows(static_cast<size_t>(parts_)));
    refcount_.assign(static_cast<size_t>(n),
                     std::vector<int>(static_cast<size_t>(parts_), 0));
    producer_.assign(static_cast<size_t>(n),
                     std::vector<int>(static_cast<size_t>(parts_), -1));
    if (ctx_.budget != nullptr) {
      charged_.assign(static_cast<size_t>(n),
                      std::vector<int64_t>(static_cast<size_t>(parts_), 0));
    }

    // Tuples may be moved out of an exchange's input only when the exchange
    // is the input's sole consumer.
    std::vector<bool> planned_steals = Executor::PlannedSteals(job_);
    std::vector<int> stages = ComputeStages(job_);

    for (int i = 0; i < n; ++i) {
      const Job::Node& jn = jnodes[static_cast<size_t>(i)];
      NodeRun& nr = nodes_[static_cast<size_t>(i)];
      Operator* op = jn.op.get();
      auto* exchange = dynamic_cast<ExchangeOperator*>(op);
      nr.is_exchange = exchange != nullptr;
      nr.stats.name = op->name();
      nr.stats.node_id = i;
      nr.stats.input_ops = jn.inputs;
      nr.stats.barrier = !op->partition_local();
      nr.stats.stage = stages[static_cast<size_t>(i)];
      nr.stats.partition_rows.assign(static_cast<size_t>(parts_), 0);

      bool input_dead = false;
      for (int in : jn.inputs) {
        input_dead |= nodes_[static_cast<size_t>(in)].dead;
      }
      if (input_dead) {
        nr.dead = true;
        continue;
      }

      if (op->partition_local()) {
        auto* pop = static_cast<PartitionOperator*>(op);
        Status v = pop->ValidateInputArity(jn.inputs.size());
        if (v.ok()) v = pop->Prepare(ctx_);
        if (!v.ok()) {
          // Recorded (not returned): an earlier node's runtime failure must
          // still win, and upstream nodes always have smaller ids.
          MutexLock lock(mu_);
          RecordFailure(i, -1, v, /*unwrapped=*/false);
          nr.dead = true;
          continue;
        }
        nr.stats.partition_seconds.assign(static_cast<size_t>(parts_), 0.0);
        for (int p = 0; p < parts_; ++p) {
          int tid = AddTask(TaskKind::kLocal, i, p);
          producer_[static_cast<size_t>(i)][static_cast<size_t>(p)] = tid;
          for (int in : jn.inputs) {
            AddDep(producer_[static_cast<size_t>(in)][static_cast<size_t>(p)],
                   tid);
            ++refcount_[static_cast<size_t>(in)][static_cast<size_t>(p)];
          }
        }
      } else if (exchange != nullptr) {
        if (jn.inputs.size() != 1) {
          MutexLock lock(mu_);
          RecordFailure(
              i, -1,
              Status::Internal(op->name() + " expects exactly one input"),
              /*unwrapped=*/false);
          nr.dead = true;
          continue;
        }
        int in = jn.inputs[0];
        nr.steal = planned_steals[static_cast<size_t>(i)];
        nr.dest_stats.resize(static_cast<size_t>(parts_));
        nr.build_seconds.assign(static_cast<size_t>(parts_), 0.0);
        nr.stats.partition_seconds.assign(static_cast<size_t>(parts_), 0.0);
        int route = AddTask(TaskKind::kRoute, i, -1);
        for (int p = 0; p < parts_; ++p) {
          AddDep(producer_[static_cast<size_t>(in)][static_cast<size_t>(p)],
                 route);
        }
        for (int d = 0; d < parts_; ++d) {
          int tid = AddTask(TaskKind::kBuild, i, d);
          producer_[static_cast<size_t>(i)][static_cast<size_t>(d)] = tid;
          AddDep(route, tid);
          // Every build reads the whole input and releases it once.
          for (int p = 0; p < parts_; ++p) {
            ++refcount_[static_cast<size_t>(in)][static_cast<size_t>(p)];
          }
        }
      } else {  // a BarrierOperator, the only other kind of Operator
        int tid = AddTask(TaskKind::kBarrier, i, -1);
        for (int p = 0; p < parts_; ++p) {
          producer_[static_cast<size_t>(i)][static_cast<size_t>(p)] = tid;
        }
        for (int in : jn.inputs) {
          for (int p = 0; p < parts_; ++p) {
            AddDep(producer_[static_cast<size_t>(in)][static_cast<size_t>(p)],
                   tid);
            ++refcount_[static_cast<size_t>(in)][static_cast<size_t>(p)];
          }
        }
      }
    }

    // The root's output must survive every release.
    for (int p = 0; p < parts_; ++p) {
      ++refcount_[static_cast<size_t>(job_.root())][static_cast<size_t>(p)];
    }
  }

  void RunTasks() SIMDB_EXCLUDES(mu_) {
    if (tasks_.empty()) return;
    {
      MutexLock lock(mu_);
      // Pool workers must not block waiting for other workers; a nested run
      // (and the no-pool case) executes inline in topological order instead.
      use_pool_ = ctx_.pool != nullptr && !ThreadPool::OnWorkerThread();
      remaining_ = static_cast<int>(tasks_.size());
      for (int tid = 0; tid < static_cast<int>(tasks_.size()); ++tid) {
        if (tasks_[static_cast<size_t>(tid)].pending == 0) LaunchLocked(tid);
      }
      if (use_pool_) {
        while (remaining_ != 0) done_cv_.Wait(lock);
        return;
      }
    }
    for (;;) {
      int tid;
      {
        MutexLock lock(mu_);
        if (inline_queue_.empty()) break;
        tid = inline_queue_.front();
        inline_queue_.pop_front();
      }
      ExecTask(tid);
    }
    MutexLock lock(mu_);
    SIMDB_CHECK(remaining_ == 0) << "scheduler finished with pending tasks";
  }

  /// Submitting to the pool acquires ThreadPool::mu_ while the scheduler
  /// mutex is held — the nesting that pins kScheduler < kThreadPool in the
  /// rank registry.
  void LaunchLocked(int tid) SIMDB_REQUIRES(mu_) {
    if (use_pool_) {
      ctx_.pool->Submit([this, tid] { ExecTask(tid); });
    } else {
      inline_queue_.push_back(tid);
    }
  }

  /// Records a failure for `node`; the lowest partition wins, node-level
  /// failures (partition -1) beat all partitions. Requires mu_ even from
  /// BuildGraph's single-threaded phase: uniform locking keeps the
  /// thread-safety analysis exact and the uncontended acquire is cheap.
  void RecordFailure(int node, int partition, Status s, bool unwrapped)
      SIMDB_REQUIRES(mu_) {
    NodeRun& nr = nodes_[static_cast<size_t>(node)];
    if (nr.failed && nr.fail_partition <= partition) return;
    nr.failed = true;
    nr.fail_partition = partition;
    nr.fail_status = std::move(s);
    nr.unwrapped = unwrapped;
  }

  /// Cooperative serving checks at task start: cancellation/deadline, then
  /// the task quota. A tripped check records an unwrapped failure (the
  /// client sees the plain "query cancelled" / quota status, not a node
  /// prefix) and skips the task — the graph still drains, downstream tasks
  /// are skipped transitively, and partial outputs are released on the way.
  bool AdmitTaskOrSkip(int tid, Task& t, std::vector<Rows>* freed) {
    Status s = Status::OK();
    if (ctx_.cancel != nullptr) s = ctx_.cancel->Check();
    if (s.ok() && ctx_.budget != nullptr) s = ctx_.budget->ChargeTask();
    if (s.ok()) return true;
    MutexLock lock(mu_);
    ++tasks_skipped_;
    RecordFailure(t.node, t.p, std::move(s), /*unwrapped=*/true);
    CompleteLocked(tid, /*bad=*/true, freed);
    return false;
  }

  /// Charges `bytes` for (node, p) against the budget. On refusal records a
  /// ResourceExhausted failure for the task and completes it as bad (the
  /// output is dropped, not stored).
  bool ChargeOutputLocked(int tid, int node, int p, int64_t bytes,
                          std::vector<Rows>* freed) SIMDB_REQUIRES(mu_) {
    if (ctx_.budget == nullptr) return true;
    Status s = ctx_.budget->ChargeMemory(bytes);
    if (s.ok()) {
      charged_[static_cast<size_t>(node)][static_cast<size_t>(p)] = bytes;
      return true;
    }
    RecordFailure(node, p, std::move(s), /*unwrapped=*/true);
    CompleteLocked(tid, /*bad=*/true, freed);
    return false;
  }

  /// Runs one task, records its outcome, and wakes dependents. Called from
  /// pool workers (or inline); everything after the operator call happens
  /// under the scheduler mutex, which also publishes outputs to dependents.
  void ExecTask(int tid) {
    // Input partitions this task frees. Declared before any lock is taken,
    // so their rows are destroyed after mu_ is released. A local, not a
    // member: once CompleteLocked runs the run may finish and tear down.
    std::vector<Rows> freed;
    Task& t = tasks_[static_cast<size_t>(tid)];
    const Job::Node& jn = job_.nodes()[static_cast<size_t>(t.node)];
    NodeRun& nr = nodes_[static_cast<size_t>(t.node)];
    if (!AdmitTaskOrSkip(tid, t, &freed)) return;
    switch (t.kind) {
      case TaskKind::kLocal: {
        auto* op = static_cast<PartitionOperator*>(jn.op.get());
        std::vector<const Rows*> slice;
        slice.reserve(jn.inputs.size());
        uint64_t rows_in = 0;
        for (int in : jn.inputs) {
          const Rows& part =
              outputs_[static_cast<size_t>(in)][static_cast<size_t>(t.p)];
          rows_in += part.size();
          slice.push_back(&part);
        }
        // Profiling runs the task against a private context copy whose
        // counter sink belongs to this task alone; the sink is merged under
        // the scheduler mutex (per-name sums, order-independent).
        const bool profiling = ctx_.trace != nullptr;
        OpCounterSink sink;
        ExecContext task_ctx = ctx_;
        if (profiling) task_ctx.counters = &sink;
        int64_t start = profiling ? ctx_.trace->NowMicros() : 0;
        Stopwatch sw;
        Result<Rows> r = op->ExecutePartition(task_ctx, t.p, slice);
        double secs = sw.ElapsedSeconds();
        if (profiling && r.ok()) {
          obs::TraceEvent ev;
          ev.category = "task";
          ev.name = nr.stats.name;
          ev.start_us = start;
          ev.dur_us = ctx_.trace->NowMicros() - start;
          ev.pid = ctx_.topology.NodeOfPartition(t.p);
          ev.tid = t.p % ctx_.topology.partitions_per_node;
          ev.args = {{"node", t.node},
                     {"partition", t.p},
                     {"stage", nr.stats.stage},
                     {"rows", static_cast<int64_t>(r.value().size())}};
          ctx_.trace->Record(std::move(ev));
        }
        int64_t out_bytes =
            (ctx_.budget != nullptr && r.ok()) ? RowsApproxBytes(r.value()) : 0;
        MutexLock lock(mu_);
        ++tasks_executed_;
        nr.any_ran = true;
        nr.stats.partition_seconds[static_cast<size_t>(t.p)] = secs;
        nr.stats.rows_in += rows_in;
        if (profiling) MergeCounterSink(nr.stats, sink);
        if (r.ok()) {
          nr.stats.rows_out += r.value().size();
          nr.stats.partition_rows[static_cast<size_t>(t.p)] = r.value().size();
          if (!ChargeOutputLocked(tid, t.node, t.p, out_bytes, &freed)) {
            return;
          }
          outputs_[static_cast<size_t>(t.node)][static_cast<size_t>(t.p)] =
              std::move(r).value();
          CompleteLocked(tid, /*bad=*/false, &freed);
        } else {
          RecordFailure(t.node, t.p, WrapPartitionError(t.p, r.status()),
                        /*unwrapped=*/false);
          CompleteLocked(tid, /*bad=*/true, &freed);
        }
        return;
      }
      case TaskKind::kRoute: {
        auto* op = static_cast<ExchangeOperator*>(jn.op.get());
        const PartitionedRows& in = outputs_[static_cast<size_t>(jn.inputs[0])];
        uint64_t rows_in = RowsCount(in);
        const bool profiling = ctx_.trace != nullptr;
        int64_t start = profiling ? ctx_.trace->NowMicros() : 0;
        Stopwatch sw;
        Result<ExchangeOperator::Routing> r = op->Route(ctx_, in);
        double secs = sw.ElapsedSeconds();
        if (profiling && r.ok()) {
          obs::TraceEvent ev;
          ev.category = "exchange";
          ev.name = nr.stats.name + ":route";
          ev.start_us = start;
          ev.dur_us = ctx_.trace->NowMicros() - start;
          ev.args = {{"node", t.node}, {"stage", nr.stats.stage}};
          ctx_.trace->Record(std::move(ev));
        }
        MutexLock lock(mu_);
        ++tasks_executed_;
        nr.any_ran = true;
        nr.route_seconds = secs;
        nr.stats.rows_in = rows_in;
        if (r.ok()) {
          nr.routing = std::move(r).value();
          CompleteLocked(tid, /*bad=*/false, &freed);
        } else {
          RecordFailure(t.node, -1, r.status(), /*unwrapped=*/false);
          CompleteLocked(tid, /*bad=*/true, &freed);
        }
        return;
      }
      case TaskKind::kBuild: {
        auto* op = static_cast<ExchangeOperator*>(jn.op.get());
        const PartitionedRows& in = outputs_[static_cast<size_t>(jn.inputs[0])];
        PartitionedRows* steal =
            nr.steal ? &outputs_[static_cast<size_t>(jn.inputs[0])] : nullptr;
        OpStats dstats;
        const bool profiling = ctx_.trace != nullptr;
        // Same private-sink pattern as kLocal: remote fragment dispatch
        // emits exec.remote.* op counters through the context.
        OpCounterSink sink;
        ExecContext task_ctx = ctx_;
        if (profiling) task_ctx.counters = &sink;
        int64_t start = profiling ? ctx_.trace->NowMicros() : 0;
        Stopwatch sw;
        Result<Rows> r = BuildExchangeDestination(task_ctx, *op, t.p, in,
                                                  nr.routing, steal, &dstats);
        double secs = sw.ElapsedSeconds();
        if (profiling && r.ok()) {
          obs::TraceEvent ev;
          ev.category = "exchange";
          ev.name = nr.stats.name + ":build";
          ev.start_us = start;
          ev.dur_us = ctx_.trace->NowMicros() - start;
          ev.pid = ctx_.topology.NodeOfPartition(t.p);
          ev.tid = t.p % ctx_.topology.partitions_per_node;
          ev.args = {{"node", t.node},
                     {"partition", t.p},
                     {"stage", nr.stats.stage},
                     {"rows", static_cast<int64_t>(r.value().size())}};
          ctx_.trace->Record(std::move(ev));
        }
        int64_t out_bytes =
            (ctx_.budget != nullptr && r.ok()) ? RowsApproxBytes(r.value()) : 0;
        MutexLock lock(mu_);
        ++tasks_executed_;
        nr.any_ran = true;
        nr.build_seconds[static_cast<size_t>(t.p)] = secs;
        if (profiling) MergeCounterSink(nr.stats, sink);
        if (r.ok()) {
          nr.dest_stats[static_cast<size_t>(t.p)] = std::move(dstats);
          nr.stats.rows_out += r.value().size();
          nr.stats.partition_rows[static_cast<size_t>(t.p)] = r.value().size();
          if (!ChargeOutputLocked(tid, t.node, t.p, out_bytes, &freed)) {
            return;
          }
          outputs_[static_cast<size_t>(t.node)][static_cast<size_t>(t.p)] =
              std::move(r).value();
          CompleteLocked(tid, /*bad=*/false, &freed);
        } else {
          RecordFailure(t.node, t.p, WrapPartitionError(t.p, r.status()),
                        /*unwrapped=*/false);
          CompleteLocked(tid, /*bad=*/true, &freed);
        }
        return;
      }
      case TaskKind::kBarrier: {
        std::vector<const PartitionedRows*> ins;
        ins.reserve(jn.inputs.size());
        uint64_t rows_in = 0;
        for (int in : jn.inputs) {
          const PartitionedRows& pr = outputs_[static_cast<size_t>(in)];
          rows_in += RowsCount(pr);
          ins.push_back(&pr);
        }
        // The barrier owns all of its node's stats slots; no other task of
        // this node exists, so writing them pre-lock is safe.
        nr.stats.rows_in = rows_in;
        const bool profiling = ctx_.trace != nullptr;
        int64_t start = profiling ? ctx_.trace->NowMicros() : 0;
        auto* op = static_cast<BarrierOperator*>(jn.op.get());
        Result<PartitionedRows> r = op->Execute(ctx_, ins, &nr.stats);
        if (profiling && r.ok()) {
          obs::TraceEvent ev;
          ev.category = "task";
          ev.name = nr.stats.name;
          ev.start_us = start;
          ev.dur_us = ctx_.trace->NowMicros() - start;
          ev.args = {{"node", t.node}, {"stage", nr.stats.stage}};
          ctx_.trace->Record(std::move(ev));
        }
        MutexLock lock(mu_);
        ++tasks_executed_;
        nr.any_ran = true;
        if (!r.ok()) {
          RecordFailure(t.node, -1, r.status(), /*unwrapped=*/false);
          CompleteLocked(tid, /*bad=*/true, &freed);
          return;
        }
        PartitionedRows out = std::move(r).value();
        if (static_cast<int>(out.size()) != parts_) {
          RecordFailure(t.node, -1,
                        Status::Internal("produced " +
                                         std::to_string(out.size()) +
                                         " partitions, expected " +
                                         std::to_string(parts_)),
                        /*unwrapped=*/false);
          CompleteLocked(tid, /*bad=*/true, &freed);
          return;
        }
        nr.stats.rows_out = RowsCount(out);
        for (int p = 0; p < parts_; ++p) {
          nr.stats.partition_rows[static_cast<size_t>(p)] =
              out[static_cast<size_t>(p)].size();
        }
        if (ctx_.budget != nullptr) {
          for (int p = 0; p < parts_; ++p) {
            if (!ChargeOutputLocked(
                    tid, t.node, p,
                    RowsApproxBytes(out[static_cast<size_t>(p)]), &freed)) {
              return;  // partial charges are released via DecRef / Finalize
            }
          }
        }
        outputs_[static_cast<size_t>(t.node)] = std::move(out);
        CompleteLocked(tid, /*bad=*/false, &freed);
        return;
      }
    }
  }

  static Status WrapPartitionError(int p, const Status& s) {
    return Status(s.code(),
                  "partition " + std::to_string(p) + ": " + s.message());
  }

  static Status WrapNodeError(int node, const std::string& op_name,
                              const Status& s) {
    return Status(s.code(), "node " + std::to_string(node) + " (" + op_name +
                                "): " + s.message());
  }

  /// Marks `tid` finished (`bad` = failed or skipped), releases its input
  /// claims, and cascades: dependents whose last dependency this was are
  /// launched, or — when any dependency was bad — skipped transitively.
  /// Partitions freed on the way are moved into `*freed`, which the caller
  /// destroys after releasing mu_.
  void CompleteLocked(int tid, bool bad, std::vector<Rows>* freed)
      SIMDB_REQUIRES(mu_) {
    std::deque<std::pair<int, bool>> events;
    events.emplace_back(tid, bad);
    while (!events.empty()) {
      auto [id, was_bad] = events.front();
      events.pop_front();
      ReleaseInputsLocked(id, freed);
      for (int d : tasks_[static_cast<size_t>(id)].dependents) {
        Task& dep = tasks_[static_cast<size_t>(d)];
        dep.dep_failed |= was_bad;
        if (--dep.pending == 0) {
          if (dep.dep_failed) {
            ++tasks_skipped_;
            events.emplace_back(d, true);  // skipped, never executed
          } else {
            LaunchLocked(d);
          }
        }
      }
      --remaining_;
    }
    if (remaining_ == 0) done_cv_.NotifyAll();
  }

  /// Releases the (input, partition) claims this task holds; a partition is
  /// freed when its last consumer finishes. Skipped tasks release too, so
  /// live branches still reclaim memory next to a failed branch.
  void ReleaseInputsLocked(int tid, std::vector<Rows>* freed)
      SIMDB_REQUIRES(mu_) {
    const Task& t = tasks_[static_cast<size_t>(tid)];
    const auto& inputs = job_.nodes()[static_cast<size_t>(t.node)].inputs;
    switch (t.kind) {
      case TaskKind::kLocal:
        for (int in : inputs) DecRefLocked(in, t.p, freed);
        break;
      case TaskKind::kRoute:
        break;  // builds hold the input alive; routing claims nothing
      case TaskKind::kBuild:
        for (int p = 0; p < parts_; ++p) DecRefLocked(inputs[0], p, freed);
        break;
      case TaskKind::kBarrier:
        for (int in : inputs) {
          for (int p = 0; p < parts_; ++p) DecRefLocked(in, p, freed);
        }
        break;
    }
  }

  /// Drops one claim on (node, p). The last claim moves the partition's
  /// rows into `*freed` (destroyed outside mu_) and returns its budget
  /// charge here, under the lock.
  void DecRefLocked(int node, int p, std::vector<Rows>* freed)
      SIMDB_REQUIRES(mu_) {
    int& rc = refcount_[static_cast<size_t>(node)][static_cast<size_t>(p)];
    if (--rc == 0) {
      Rows& rows = outputs_[static_cast<size_t>(node)][static_cast<size_t>(p)];
      if (!rows.empty()) freed->push_back(std::exchange(rows, Rows()));
      if (ctx_.budget != nullptr) {
        int64_t& c = charged_[static_cast<size_t>(node)][static_cast<size_t>(p)];
        if (c != 0) {
          ctx_.budget->ReleaseMemory(c);
          c = 0;
        }
      }
    }
  }

  Result<PartitionedRows> Finalize(double wall_seconds) {
    int n = static_cast<int>(job_.nodes().size());
    // Return every outstanding memory charge (the root's output, anything a
    // failed/cancelled run left behind): after this the query holds zero
    // budget bytes whether it succeeded, failed, or was cancelled.
    if (ctx_.budget != nullptr) {
      for (auto& per_node : charged_) {
        for (int64_t& c : per_node) {
          if (c != 0) {
            ctx_.budget->ReleaseMemory(c);
            c = 0;
          }
        }
      }
    }
    if (ctx_.stats != nullptr) {
      ctx_.stats->tasks_total += tasks_.size();
      ctx_.stats->tasks_executed += tasks_executed_;
      ctx_.stats->tasks_skipped += tasks_skipped_;
    }
    if (ctx_.stats != nullptr) {
      for (int i = 0; i < n; ++i) {
        NodeRun& nr = nodes_[static_cast<size_t>(i)];
        if (!nr.any_ran) continue;
        if (nr.is_exchange) {
          // Merge per-destination traffic in destination order; spread the
          // one-shot routing cost evenly (each source routes its own rows).
          // Implicit-routing exchanges (broadcast, gather, merge-gather)
          // computed no per-row destinations: charging their Route() time to
          // destinations that did no work would misattribute it — e.g. a
          // merge-gather whose entire merge belongs to the stealing
          // destination-0 worker, not to the idle victims.
          double spread = nr.routing.destinations.empty()
                              ? 0.0
                              : nr.route_seconds / parts_;
          for (int d = 0; d < parts_; ++d) {
            const OpStats& ds = nr.dest_stats[static_cast<size_t>(d)];
            nr.stats.local_bytes += ds.local_bytes;
            nr.stats.remote_bytes += ds.remote_bytes;
            nr.stats.remote_transfers += ds.remote_transfers;
            nr.stats.transport_seconds += ds.transport_seconds;
            nr.stats.remote_compute_seconds += ds.remote_compute_seconds;
            nr.stats.remote_builds += ds.remote_builds;
            nr.stats.partition_seconds[static_cast<size_t>(d)] =
                nr.build_seconds[static_cast<size_t>(d)] + spread;
          }
          ctx_.stats->tasks_remote += nr.stats.remote_builds;
        }
        ctx_.stats->ops.push_back(std::move(nr.stats));
      }
      if (ctx_.transport != nullptr && ctx_.transport->remote_execution()) {
        ctx_.stats->network_measured = true;
      }
      ctx_.stats->wall_seconds += wall_seconds;
    }
    for (int i = 0; i < n; ++i) {
      const NodeRun& nr = nodes_[static_cast<size_t>(i)];
      if (!nr.failed) continue;
      if (nr.unwrapped) return nr.fail_status;
      return WrapNodeError(i, job_.nodes()[static_cast<size_t>(i)].op->name(),
                           nr.fail_status);
    }
    return std::move(outputs_[static_cast<size_t>(job_.root())]);
  }

  const Job& job_;
  ExecContext& ctx_;
  int parts_;

  std::vector<Task> tasks_;
  std::vector<NodeRun> nodes_;
  std::vector<PartitionedRows> outputs_;
  std::vector<std::vector<int>> refcount_;  // [node][partition]
  std::vector<std::vector<int>> producer_;  // task producing (node, partition)
  /// [node][partition] bytes charged to the budget for a stored output;
  /// sized only when ctx_.budget != nullptr.
  std::vector<std::vector<int64_t>> charged_;
  uint64_t tasks_executed_ = 0;
  uint64_t tasks_skipped_ = 0;

  /// Publishes task outcomes to dependents and serializes all shared run
  /// state below. outputs_/nodes_/refcount_/charged_ are published through
  /// this mutex too, but pre-barrier reads of a dependency's output happen
  /// after its CompleteLocked and are not annotated (the DAG ordering, not
  /// the lock scope, is the invariant there).
  Mutex mu_{lockrank::Rank::kScheduler, "SchedulerRun::mu_"};
  /// Single waiter (the Go() caller) with one predicate; NotifyAll keeps it
  /// future-proof against a second waiter.
  CondVar done_cv_;
  int remaining_ SIMDB_GUARDED_BY(mu_) = 0;
  bool use_pool_ SIMDB_GUARDED_BY(mu_) = false;
  std::deque<int> inline_queue_ SIMDB_GUARDED_BY(mu_);
};

}  // namespace

Result<PartitionedRows> Executor::Run(const Job& job, ExecContext& ctx) {
  return SchedulerRun(job, ctx).Go();
}

std::vector<bool> Executor::PlannedSteals(const Job& job) {
  const auto& jnodes = job.nodes();
  size_t n = jnodes.size();
  std::vector<int> consumer_edges(n, 0);
  for (const auto& jn : jnodes) {
    for (int in : jn.inputs) ++consumer_edges[static_cast<size_t>(in)];
  }
  std::vector<bool> steals(n, false);
  for (size_t i = 0; i < n; ++i) {
    const Job::Node& jn = jnodes[i];
    if (dynamic_cast<const ExchangeOperator*>(jn.op.get()) == nullptr) continue;
    if (jn.inputs.size() != 1) continue;
    steals[i] = consumer_edges[static_cast<size_t>(jn.inputs[0])] == 1;
  }
  return steals;
}

}  // namespace simdb::hyracks
