#ifndef SIMDB_HYRACKS_EXEC_H_
#define SIMDB_HYRACKS_EXEC_H_

#include <memory>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "hyracks/budget.h"
#include "hyracks/tuple.h"
#include "storage/catalog.h"
#include "storage/inverted_index.h"

namespace simdb::obs {
class TraceCollector;
}  // namespace simdb::obs

namespace simdb::transport {
class Transport;
}  // namespace simdb::transport

namespace simdb::hyracks {

/// Shape of the simulated shared-nothing cluster: partitions are laid out
/// contiguously across nodes (paper: 2 partitions per node, 8 nodes).
struct ClusterTopology {
  int num_nodes = 1;
  int partitions_per_node = 2;

  int total_partitions() const { return num_nodes * partitions_per_node; }
  int NodeOfPartition(int p) const { return p / partitions_per_node; }
};

/// Sink for operator-specific profiling counters (posting-cache hits, join
/// build rows, ...). Each task gets a private sink, so Add needs no
/// synchronization; the executor merges sinks by summing per name, which is
/// order-independent and therefore deterministic under any interleaving.
/// Names are static-lifetime literals — the catalogue in
/// docs/OBSERVABILITY.md is checked against them in CI.
struct OpCounterSink {
  std::vector<std::pair<const char*, uint64_t>> entries;

  void Add(const char* name, uint64_t delta) { entries.emplace_back(name, delta); }
};

/// Per-operator execution counters; the cluster cost model composes these
/// into a simulated makespan (see cluster/cost_model.h).
struct OpStats {
  std::string name;
  /// Job node id and input node ids: the task-DAG shape the cost model needs
  /// to compute a critical-path makespan. -1 / empty in hand-built stats,
  /// which the critical path then ignores.
  int node_id = -1;
  std::vector<int> input_ops;
  /// True for pipeline barriers (exchanges and whole-node operators): every
  /// input partition must be complete before any output partition exists.
  bool barrier = false;
  /// Pipeline stage: the number of barrier operators on the longest path
  /// from any source to this node (sources are stage 0). Set by the
  /// executor via ComputeStages.
  int stage = 0;
  /// Measured compute seconds for each partition's work. For exchanges this
  /// is the per-destination build time (plus routing time spread evenly).
  std::vector<double> partition_seconds;
  uint64_t rows_out = 0;
  /// Total rows consumed across all inputs and partitions.
  uint64_t rows_in = 0;
  /// Rows produced by each output partition (skew diagnosis). Same length
  /// as partition_seconds.
  std::vector<uint64_t> partition_rows;
  /// Exchange traffic (zero for non-exchange operators). Accounted per
  /// destination and merged in destination order, so the counters are
  /// identical under any thread-pool size.
  uint64_t local_bytes = 0;
  uint64_t remote_bytes = 0;
  uint64_t remote_transfers = 0;
  /// Wall-clock seconds the destination builds spent on the wire side of a
  /// fragment round trip (zero under the modeled backend, where no bytes
  /// move). Already contained in partition_seconds — kept separately so the
  /// cost model can report how much of the exchange time was transport.
  double transport_seconds = 0;
  /// Wall-clock seconds of destination builds that executed *inside remote
  /// worker processes* (socket backend). Disjoint from transport_seconds: a
  /// fragment round trip splits into wire time (transport_seconds) and the
  /// worker's own build time (here). Also inside partition_seconds.
  double remote_compute_seconds = 0;
  /// How many of this exchange's destination builds ran remotely.
  uint64_t remote_builds = 0;
  /// Operator-specific counters (name -> summed value), sorted by name.
  /// Populated only when profiling is enabled (ctx.trace != nullptr).
  std::vector<std::pair<std::string, uint64_t>> counters;
};

/// Folds per-task counter sinks into `stats.counters`: sums per name, sorted
/// by name. Deterministic regardless of the order sinks are merged in.
void MergeCounterSink(OpStats& stats, const OpCounterSink& sink);

struct ExecStats {
  std::vector<OpStats> ops;
  double wall_seconds = 0;
  /// True when the run's transport builds exchange destinations remotely
  /// (socket): fragment round trips are then already inside the exchange
  /// partition_seconds, and the cost model must report the measured seconds
  /// instead of charging its modeled network formula.
  bool network_measured = false;
  /// Task accounting. Every planned task is either executed or skipped —
  /// executed + skipped == total proves the graph drained, which is what the
  /// cancellation tests assert: no task is left behind after a cancel.
  uint64_t tasks_total = 0;
  uint64_t tasks_executed = 0;
  uint64_t tasks_skipped = 0;
  /// Exchange build tasks whose destination was produced inside a remote
  /// worker process (see hyracks/fragment.h). Zero everywhere except the
  /// socket backend.
  uint64_t tasks_remote = 0;

  uint64_t TotalRemoteBytes() const {
    uint64_t total = 0;
    for (const OpStats& op : ops) total += op.remote_bytes;
    return total;
  }

  double TotalRemoteComputeSeconds() const {
    double total = 0;
    for (const OpStats& op : ops) total += op.remote_compute_seconds;
    return total;
  }
};

/// Everything an operator needs at runtime. `stats` may be null.
struct ExecContext {
  ThreadPool* pool = nullptr;
  storage::Catalog* catalog = nullptr;
  ClusterTopology topology;
  ExecStats* stats = nullptr;
  storage::TOccurrenceAlgorithm t_occurrence_algorithm =
      storage::TOccurrenceAlgorithm::kScanCount;
  /// Serve inverted-index probes from the decoded posting-list cache. The
  /// cached and uncached paths must be answer-identical (checked by the
  /// differential fuzz harness).
  bool posting_cache_enabled = true;
  /// Batch execution: NL-JOIN encodes each side's token lists once into
  /// dense ids and verifies one probe against all candidates through the
  /// simd:: kernels. Off forces its pair-at-a-time row path; the two must be
  /// answer-identical (checked by the batch differential fuzz seeds). Every
  /// other operator has the row path only.
  bool batch_execution = true;
  /// Exchange transport backend. Null behaves exactly like the modeled
  /// backend: destinations are built in place and no bytes move. When the
  /// backend has remote execution, every non-empty exchange destination is
  /// built as a fragment inside a worker process (see
  /// BuildExchangeDestination in scheduler.cc and hyracks/fragment.h).
  transport::Transport* transport = nullptr;
  /// Non-null enables query profiling: the executor records per-task spans
  /// here and operators emit their specific counters. Null (the default) is
  /// the zero-overhead path — operators test this single pointer and skip
  /// all counter work.
  obs::TraceCollector* trace = nullptr;
  /// Per-task counter sink, valid only for the duration of the current
  /// partition task. Set by the executor (on a per-task copy of the
  /// context) when profiling; operators write through it via CountOp.
  OpCounterSink* counters = nullptr;
  /// Cooperative cancellation: when non-null, the executor polls it before
  /// starting each task. Tasks already running finish; everything else is
  /// skipped, partial outputs released. Null (the default) is the
  /// zero-overhead single-query path.
  const CancellationToken* cancel = nullptr;
  /// Per-query resource quotas (memory held in live intermediate partitions,
  /// task count). Null (the default) disables all accounting.
  ResourceBudget* budget = nullptr;
  /// Serving-layer query id, stamped into every dispatched fragment so a
  /// kCancelFragment broadcast can name the query whose fragments workers
  /// must refuse. 0 means "unattributed" (queries outside the serving
  /// layer); workers never match id 0 against their cancel ledger.
  uint64_t query_id = 0;
};

/// Adds `delta` to the named operator counter when profiling is on; a single
/// predicted-not-taken branch when off.
inline void CountOp(ExecContext& ctx, const char* name, uint64_t delta) {
  if (ctx.counters != nullptr) ctx.counters->Add(name, delta);
}

/// A physical operator. Every operator derives from exactly one of the three
/// kinds the executor schedules — the private constructor admits no others:
/// PartitionOperator (one task per partition), ExchangeOperator
/// (hyracks/ops_exchange.h: one routing task, then one build task per
/// destination) or BarrierOperator (one whole-node task).
class Operator {
 public:
  virtual ~Operator() = default;
  virtual std::string name() const = 0;
  /// True when output partition p is a pure function of partition p of each
  /// input (scan, select, project, join, ...). False for pipeline barriers
  /// (exchanges, rank-assign, limit).
  virtual bool partition_local() const { return false; }
  /// True when `other` is an operator of the same kind with the same
  /// parameters, so that over the same inputs both yield the same rows and
  /// the same errors and one node can stand for both (the job generator
  /// merges such nodes, see algebricks/jobgen.h). Names of columns and
  /// variables are labels and are not compared. The default matches
  /// nothing: a kind without a comparison is never merged.
  virtual bool SameAs(const Operator& other) const {
    (void)other;
    return false;
  }

 private:
  Operator() = default;
  friend class PartitionOperator;
  friend class ExchangeOperator;
  friend class BarrierOperator;
};

/// A partition-local physical operator. The executor calls ExecutePartition
/// once per partition, so one partition can flow through a chain of local
/// operators while sibling partitions run concurrently.
class PartitionOperator : public Operator {
 public:
  bool partition_local() const final { return true; }

  /// Expected input count: >= 0 exact, -1 for one-or-more (UNION-ALL).
  virtual int num_inputs() const { return 1; }

  /// Runs once per job execution before any partition task: resolve catalog
  /// objects, validate the plan. Errors here are node-level (no partition
  /// prefix). Called single-threaded by the executor's graph builder.
  virtual Status Prepare(ExecContext& ctx) {
    (void)ctx;
    return Status::OK();
  }

  /// Computes output partition `p` from partition `p` of each input.
  /// Must be safe to run concurrently with other partitions of this operator
  /// and with other operators' partition tasks.
  virtual Result<Rows> ExecutePartition(
      ExecContext& ctx, int p, const std::vector<const Rows*>& inputs) = 0;

  /// Arity validation shared by the executor's graph builder and the DAG
  /// verifier.
  Status ValidateInputArity(size_t provided) const;
};

/// A pipeline barrier that needs every partition of every input at once
/// (RANK-ASSIGN, LIMIT). The executor runs Execute as a single task after all
/// inputs are complete; it must return exactly total_partitions partitions.
class BarrierOperator : public Operator {
 public:
  virtual Result<PartitionedRows> Execute(
      ExecContext& ctx, const std::vector<const PartitionedRows*>& inputs,
      OpStats* stats) = 0;
};

/// A dataflow DAG of operators. Nodes must be added in topological order
/// (inputs referencing earlier nodes only); the last node is the root whose
/// output the executor returns. A node may feed several consumers — that is
/// the REPLICATE / materialize-reuse pattern of the paper (Figure 20): its
/// output is computed once and shared.
class Job {
 public:
  struct Node {
    std::unique_ptr<Operator> op;
    std::vector<int> inputs;
    RowSchema schema;
  };

  /// Returns the id of the new node.
  int Add(std::unique_ptr<Operator> op, std::vector<int> inputs,
          RowSchema schema);

  const std::vector<Node>& nodes() const { return nodes_; }
  const RowSchema& schema(int id) const { return nodes_[id].schema; }
  int root() const { return static_cast<int>(nodes_.size()) - 1; }

  std::string ToString() const;

 private:
  std::vector<Node> nodes_;
};

/// Executes a Job as a dependency-scheduled task graph and returns the root
/// node's partitioned output (implemented in hyracks/scheduler.cc).
///
/// The job DAG of operators is expanded into a finer task graph:
///   - a partition-local node becomes one kLocal task per partition
///     (ExecutePartition), depending only on the same partition of each
///     input — a partition pipelines through a chain of local operators
///     without waiting for its siblings;
///   - an exchange becomes one kRoute task (Route, after every input
///     partition) plus one kBuild task per destination partition
///     (BuildDestination), all builds running in parallel;
///   - a barrier operator becomes a single kBarrier task (Execute) over its
///     fully materialized inputs.
///
/// Ready tasks are submitted to the context's thread pool; intermediate
/// partitions are released as soon as their per-partition reference count
/// drops to zero. With no pool (or when invoked from a pool worker) the graph
/// runs inline in deterministic topological order.
///
/// Answers and errors are identical under any pool size — the differential
/// tests use pool 1 as the serial oracle for pool N. Every runnable task
/// completes (tasks downstream of a failure are skipped, never aborted
/// mid-flight), then the failure of the lowest node id — and within it the
/// lowest partition — is reported as "node N (NAME): [partition P: ]message".
class Executor {
 public:
  static Result<PartitionedRows> Run(const Job& job, ExecContext& ctx);

  /// The tuple-steal plan Run uses: steals[i] is true iff node i is an
  /// exchange whose single input has exactly one consumer edge. Exposed so
  /// the DAG verifier can check steal legality against the same decision the
  /// executor makes.
  static std::vector<bool> PlannedSteals(const Job& job);
};

/// Pipeline stage per job node: stage(n) = max over inputs i of
/// (stage(i) + barrier(i)), with sources at stage 0. Barriers count on the
/// *producing* side, so the operators consuming an exchange's output are one
/// stage later than the ones feeding it — matching the paper's stage-1/2/3
/// narrative for the three-stage similarity join.
std::vector<int> ComputeStages(const Job& job);

}  // namespace simdb::hyracks

#endif  // SIMDB_HYRACKS_EXEC_H_
