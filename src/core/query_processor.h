#ifndef SIMDB_CORE_QUERY_PROCESSOR_H_
#define SIMDB_CORE_QUERY_PROCESSOR_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "algebricks/jobgen.h"
#include "algebricks/rules.h"
#include "aql/parser.h"
#include "aql/translator.h"
#include "common/cancellation.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "hyracks/budget.h"
#include "hyracks/exec.h"
#include "observability/profile.h"
#include "similarity/similarity_function.h"
#include "storage/catalog.h"
#include "transport/transport.h"

namespace simdb::core {

/// Engine-wide configuration (the scaled-down analogue of paper Table 2).
struct EngineOptions {
  std::string data_dir = "/tmp/simdb_data";
  hyracks::ClusterTopology topology{1, 2};
  storage::LsmOptions lsm;
  /// Worker threads executing partitions (0 = hardware concurrency).
  size_t num_threads = 0;
  storage::TOccurrenceAlgorithm t_occurrence_algorithm =
      storage::TOccurrenceAlgorithm::kScanCount;
  /// Serve inverted-index probes from the decoded posting-list cache.
  bool posting_cache_enabled = true;
  /// Batch execution: NL-JOIN verifies a similarity check one probe against
  /// all candidates through the runtime-dispatched SIMD kernels, encoding
  /// each side once. Off forces its pair-at-a-time row path; the two are
  /// answer-identical. Every other operator has only the row path.
  bool batch_execution = true;
  /// Exchange transport backend (see transport/transport.h and
  /// docs/TRANSPORT.md). kModeled is the paper-figure default; the
  /// SIMDB_TRANSPORT environment variable overrides it at engine
  /// construction so CI can run the whole suite on a real backend. All
  /// backends must be answer- and error-identical (checked by the transport
  /// differential fuzz seeds).
  transport::TransportKind transport = transport::TransportKind::kModeled;
  /// Static verification of every compiled query: the plan verifier runs on
  /// the translated and optimized logical plans, every rewrite-rule
  /// application is checked against the rule's declared contract, and the
  /// generated job passes the task-graph verifier before execution. Off by
  /// default (zero cost); on in tests and the differential fuzz harness.
  bool verify_plans = false;
  /// Attach a QueryProfile (per-operator times/rows/bytes/counters, task
  /// spans, Chrome-trace export) to every query result and roll the figures
  /// into obs::MetricsRegistry::Global(). Off by default; when off the
  /// runtime takes a single never-taken branch per task (verified < 2%
  /// overhead by bench_profile / the observability test).
  bool profile_queries = false;
};

/// Compilation timings, including the AQL+ overhead the paper reports in
/// Section 6.4.1.
struct CompileStats {
  double parse_seconds = 0;
  double translate_seconds = 0;
  double optimize_seconds = 0;
  double aqlplus_seconds = 0;  // template generation inside optimization
  double jobgen_seconds = 0;
  double total_seconds = 0;
};

/// Per-query serving controls threaded from the serving layer down into the
/// executor. Both pointers are owned by the caller (the serving layer's
/// QueryTicket) and must outlive the query. Null members disable the
/// corresponding control.
struct QueryGovernor {
  const CancellationToken* cancel = nullptr;
  hyracks::ResourceBudget* budget = nullptr;
  /// Serving-layer query id stamped into every fragment this query
  /// dispatches to socket workers (0 = unattributed, never cancellable).
  /// Lets CancelRemoteFragments tell the workers to refuse this query's
  /// in-flight fragments after a cancellation or deadline.
  uint64_t query_id = 0;
};

/// Everything a query run produces.
struct QueryResult {
  std::vector<adm::Value> rows;
  hyracks::ExecStats exec;
  CompileStats compile;
  std::string logical_plan;  // optimized plan (explain)
  std::vector<std::string> fired_rules;
  /// Populated when EngineOptions::profile_queries is on; null otherwise.
  /// Shared so results stay cheap to copy.
  std::shared_ptr<const obs::QueryProfile> profile;
};

/// The end-to-end engine facade: owns the catalog, session settings, the
/// optimizer pipeline (normalize -> similarity rule set -> normalize ->
/// count rewrite, paper Section 5.3), the job generator, and the simulated
/// cluster's thread pool.
class QueryProcessor {
 public:
  explicit QueryProcessor(EngineOptions options);

  /// Executes a full AQL program (set/DDL statements and queries). The last
  /// query statement's output is stored into `*result` when non-null.
  /// Takes the engine's state lock exclusively: DDL and data mutation are
  /// serialized against every concurrent query.
  Status Execute(std::string_view aql, QueryResult* result = nullptr);

  /// Executes a read-only AQL program (use/set/explain/query statements)
  /// concurrently with other ExecuteConcurrent callers. Session `set`
  /// statements apply to a per-call copy of the optimizer context, so
  /// concurrent callers cannot observe each other's settings — the engine
  /// keeps no mutable per-query state. DDL and mutation statements are
  /// rejected with InvalidArgument (route them through Execute). `gov`
  /// carries the query's cancellation token and resource budget; when a
  /// memory quota is set, a pre-execution admission estimate (scanned
  /// records x kAdmissionBytesPerRecord) refuses hopeless queries with
  /// ResourceExhausted before any task runs.
  Status ExecuteConcurrent(std::string_view aql, const QueryGovernor& gov,
                           QueryResult* result = nullptr);

  /// Bytes-per-record constant behind the admission estimate: deliberately
  /// coarse (a scan's output is at least this much) and documented so tests
  /// can size quotas above/below the refusal threshold.
  static constexpr int64_t kAdmissionBytesPerRecord = 128;

  /// Compiles (but does not run) the last query in `aql`; returns the
  /// optimized logical plan rendering.
  Result<std::string> Explain(std::string_view aql);

  /// Compiles (but does not run) the last query in `aql` into the job
  /// Execute would run, e.g. to inspect what each exchange ships.
  Result<hyracks::Job> CompileJob(std::string_view aql);

  /// Session + optimizer state: simfunction/simthreshold and the feature
  /// flags used by ablation benchmarks.
  algebricks::OptContext& opt_context() { return opt_; }

  storage::Catalog* catalog() { return &catalog_; }
  const EngineOptions& options() const { return options_; }

  /// Switches the T-occurrence algorithm used by subsequent queries. The
  /// algorithms must be answer-equivalent; the differential fuzz harness
  /// toggles this per execution variant without rebuilding the engine.
  void set_t_occurrence_algorithm(storage::TOccurrenceAlgorithm algorithm) {
    options_.t_occurrence_algorithm = algorithm;
  }

  /// Toggles the inverted-index posting-list cache for subsequent queries.
  /// Cached and uncached execution must be answer-identical; the differential
  /// fuzz harness toggles this per execution variant.
  void set_posting_cache_enabled(bool enabled) {
    options_.posting_cache_enabled = enabled;
  }

  /// Toggles NL-JOIN's batch kernels for subsequent queries. Batch and row
  /// execution must be answer-identical; the batch differential fuzz seeds
  /// toggle this per execution variant.
  void set_batch_execution(bool enabled) {
    options_.batch_execution = enabled;
  }

  /// Toggles query profiling for subsequent queries (see
  /// EngineOptions::profile_queries). Profiling must not change answers —
  /// it only observes.
  void set_profile_queries(bool enabled) {
    options_.profile_queries = enabled;
  }

  /// Switches the exchange transport backend for subsequent queries,
  /// replacing the engine's backend instance (socket workers of the old
  /// backend are shut down). Backends must be answer- and error-identical;
  /// the transport differential fuzz seeds toggle this per variant. Not
  /// thread-safe against in-flight queries — call between queries only, when
  /// the pool's threads are parked and the new workers fork cleanly.
  void set_transport(transport::TransportKind kind) {
    options_.transport = kind;
    transport_ = transport::MakeTransport(kind, options_.topology.num_nodes);
  }

  transport::TransportKind transport_kind() const {
    return options_.transport;
  }

  /// Blocks until the transport has no bytes in flight and its workers are
  /// provably idle (socket: control-channel ping per live worker). The
  /// serving layer calls this after a cancellation or deadline so a dead
  /// query leaves nothing in flight behind it. A positive `timeout_seconds`
  /// bounds the wait (the transport is shared by all concurrent queries, so
  /// an unbounded drain can be starved by unrelated fragments); a timeout
  /// surfaces as kDeadlineExceeded and is safe to retry. Non-positive waits
  /// indefinitely.
  Status DrainTransport(double timeout_seconds = 0.0) {
    return transport_->Drain(timeout_seconds);
  }

  /// Tells every socket worker to refuse further fragments of `query_id`
  /// (recorded in a per-worker cancel ledger; see docs/DISTRIBUTED.md). The
  /// serving layer calls this before DrainTransport when a query dies so a
  /// fragment raced against the cancellation cannot be executed afterwards.
  /// No-op (OK) on backends without remote execution. `timeout_seconds`
  /// bounds the wait exactly like DrainTransport.
  Status CancelRemoteFragments(uint64_t query_id,
                               double timeout_seconds = 0.0) {
    return transport_->CancelFragments(query_id, timeout_seconds);
  }

  /// The engine-owned transport backend instance (tests inspect worker pids
  /// and fragment execution directly). Replaced by set_transport.
  transport::Transport* transport_backend() { return transport_.get(); }

  /// Programmatic data path used by generators and benches (bypasses AQL).
  Result<storage::Dataset*> CreateDataset(const std::string& name,
                                          const std::string& pk_field);
  Status Insert(const std::string& dataset, adm::Value record);

  /// Registers a C++ similarity UDF usable both via `~=` (simfunction alias)
  /// and as a named function in queries.
  void RegisterSimilarityUdf(similarity::SimilarityFunction fn);

 private:
  /// All compilation/execution paths take the optimizer context explicitly:
  /// the legacy single-session path passes the member `opt_` (under the
  /// exclusive lock), the concurrent path passes a per-query copy, so query
  /// compilation never races on shared mutable state. `gov` may be null.
  Status ExecuteStatement(const aql::Statement& stmt, QueryResult* result,
                          algebricks::OptContext& opt,
                          const QueryGovernor* gov, bool concurrent);
  /// Evaluates a constant AST expression (insert payloads).
  Result<adm::Value> EvalConstantAst(const aql::AExprPtr& expr);
  Status RunQuery(const aql::AExprPtr& query, QueryResult* result,
                  algebricks::OptContext& opt, const QueryGovernor* gov);
  Status OptimizePlan(algebricks::LOpPtr& plan, algebricks::OptContext& opt);
  /// Runs the non-query statements of `aql` and returns its last query's
  /// optimized plan (Explain, CompileJob).
  Result<algebricks::LOpPtr> PlanLastQuery(std::string_view aql);

  /// Verifies each optimizer step in verify mode (null otherwise); owned
  /// here, installed into `opt_.check_hook`. Concurrent queries install a
  /// per-query checker instead (the checker is stateful).
  std::unique_ptr<algebricks::PlanCheckHook> check_hook_;

  EngineOptions options_;
  storage::Catalog catalog_;
  /// Engine-owned exchange transport, shared by all concurrent queries.
  /// Declared (so constructed) before pool_: the socket backend forks its
  /// workers while no pool thread can hold a lock the children would
  /// inherit held (see MakeTransport).
  std::unique_ptr<transport::Transport> transport_;
  std::unique_ptr<ThreadPool> pool_;
  /// Guards engine state: concurrent queries hold it shared for their whole
  /// run; Execute / CreateDataset / Insert / RegisterSimilarityUdf hold it
  /// exclusively (DDL, data mutation, session settings, option toggles).
  /// Rank kEngineState — the outermost engine lock: every scheduler, pool,
  /// cache, transport, and metrics lock is taken while a query holds this
  /// shared.
  mutable SharedMutex state_mu_{lockrank::Rank::kEngineState,
                                "QueryProcessor::state_mu_"};
  algebricks::OptContext opt_;
  std::map<std::string, aql::Translator::FunctionDefAst> functions_;
};

}  // namespace simdb::core

#endif  // SIMDB_CORE_QUERY_PROCESSOR_H_
