#ifndef SIMDB_SERVING_QUERY_ENGINE_H_
#define SIMDB_SERVING_QUERY_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/cancellation.h"
#include "common/thread_annotations.h"
#include "common/result.h"
#include "core/query_processor.h"
#include "hyracks/budget.h"
#include "serving/admission.h"

namespace simdb::serving {

/// Serving-layer knobs on top of core::EngineOptions.
struct ServingOptions {
  /// Worker threads = queries in flight at once. When max_concurrent is > 1,
  /// one of them is the reserved cheap slot: it only ever takes cheap
  /// queries, so a selection's p99 stays bounded while heavy joins occupy
  /// every other slot.
  int max_concurrent = 4;
  /// Bounded wait queue; a submit that finds it full is refused immediately
  /// with kOverloaded (load shedding, never blocking the client).
  size_t max_queue = 16;
};

/// Per-query quotas; 0 means unlimited / no deadline.
struct SubmitOptions {
  int64_t memory_quota_bytes = 0;
  int64_t task_quota = 0;
  double deadline_seconds = 0;
};

/// Where a query is in its lifecycle (see docs/SERVING.md).
enum class QueryState { kQueued, kRunning, kDone };

/// The client's handle to one submitted query: await the outcome, cancel it,
/// inspect its resource accounting. Shared between the client thread and the
/// worker executing the query; all state transitions happen under its own
/// mutex, so Wait/Cancel may race Submit/completion freely.
class QueryTicket {
 public:
  uint64_t id() const { return id_; }
  QueryClass query_class() const { return class_; }

  /// Client-initiated cooperative cancel: running tasks finish, everything
  /// else is skipped, the ticket completes with kCancelled. Cancelling a
  /// still-queued query completes it without executing anything. Idempotent;
  /// a no-op once the query finished.
  void Cancel();

  /// Blocks until the query reaches kDone; returns its final status.
  const Status& Wait();

  bool Done() const;
  QueryState state() const;

  /// Valid once Done(); the result is meaningful only when status().ok().
  const Status& status() const;
  const core::QueryResult& result() const;

  /// Time spent queued (admission to execution start) and executing.
  double queue_seconds() const;
  double exec_seconds() const;

  /// The query's resource accounting (memory returns to zero once done).
  const hyracks::ResourceBudget& budget() const { return budget_; }

 private:
  friend class QueryEngine;

  QueryTicket(uint64_t id, QueryClass c, std::string aql,
              int64_t memory_quota_bytes, int64_t task_quota)
      : id_(id),
        class_(c),
        aql_(std::move(aql)),
        budget_(memory_quota_bytes, task_quota) {}

  const uint64_t id_;
  const QueryClass class_;
  const std::string aql_;
  CancellationToken cancel_;
  hyracks::ResourceBudget budget_;

  mutable Mutex mu_{lockrank::Rank::kServingTicket, "QueryTicket::mu_"};
  /// Waiters all share the one "done" predicate; NotifyAll wakes every
  /// client blocked in Wait().
  CondVar cv_;
  QueryState state_ SIMDB_GUARDED_BY(mu_) = QueryState::kQueued;
  Status status_ SIMDB_GUARDED_BY(mu_) = Status::OK();
  core::QueryResult result_ SIMDB_GUARDED_BY(mu_);
  std::chrono::steady_clock::time_point submit_tp_;
  double queue_seconds_ SIMDB_GUARDED_BY(mu_) = 0;
  double exec_seconds_ SIMDB_GUARDED_BY(mu_) = 0;
};

class QueryEngine;

/// A client session: carries a prelude of session `set` statements
/// prepended to every query submitted through it. Sessions are cheap
/// handles — any number may submit concurrently.
class Session {
 public:
  /// Statements prepended to every submit ("set simfunction 'jaccard'; ...").
  void set_prelude(std::string prelude) { prelude_ = std::move(prelude); }

  Result<std::shared_ptr<QueryTicket>> Submit(const std::string& aql,
                                              const SubmitOptions& opts = {});

  uint64_t session_id() const { return session_id_; }
  uint64_t queries_submitted() const {
    return submitted_.load(std::memory_order_relaxed);
  }

 private:
  friend class QueryEngine;
  Session(QueryEngine* engine, uint64_t id)
      : engine_(engine), session_id_(id) {}

  QueryEngine* engine_;
  const uint64_t session_id_;
  std::string prelude_;
  std::atomic<uint64_t> submitted_{0};
};

/// Consistent snapshot of the engine's serving counters. The invariant the
/// stress test asserts: submitted == admitted + rejected_queue_full +
/// rejected_parse, and admitted == completed + failed + cancelled +
/// deadline_exceeded + rejected_quota + queued + running.
struct ServingStats {
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t rejected_queue_full = 0;
  uint64_t rejected_parse = 0;
  uint64_t rejected_quota = 0;  // kResourceExhausted outcomes
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t cancelled = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t queued = 0;   // currently waiting
  uint64_t running = 0;  // currently executing
  uint64_t peak_queue_depth = 0;
};

/// The concurrent serving front-end: owns one core::QueryProcessor (shared
/// catalogs, storage, thread pool) and multiplexes N client sessions onto it.
/// Submit never blocks: a query is admitted into the bounded weighted queue
/// or refused with kOverloaded. max_concurrent worker threads drain the
/// queue, each running its query through QueryProcessor::ExecuteConcurrent
/// under the query's own cancellation token and resource budget.
///
/// DDL / data loading go through processor().Execute(), which serializes
/// exclusively against all in-flight queries (a writer-preferring shared
/// lock inside the processor: a waiting writer holds back new queries
/// until the ones in flight finish) — the serving path itself is read-only.
class QueryEngine {
 public:
  QueryEngine(core::EngineOptions engine_options,
              ServingOptions serving_options);
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// The underlying single-session engine, for setup (DDL, loads) and
  /// sequential baselines. Safe to call concurrently with serving traffic —
  /// its mutating entry points take the state lock exclusively.
  core::QueryProcessor& processor() { return processor_; }

  const ServingOptions& serving_options() const { return serving_; }

  std::shared_ptr<Session> CreateSession();

  /// Admits `aql` (classified cheap/heavy from its AST) or refuses it:
  ///   - kParseError: the program does not parse (serving.rejected.parse)
  ///   - kOverloaded: the wait queue is full (serving.rejected.queue_full)
  /// On success the ticket is queued; await it with ticket->Wait().
  Result<std::shared_ptr<QueryTicket>> Submit(const std::string& aql,
                                              const SubmitOptions& opts = {});

  /// Drains the engine: waits for running queries, completes still-queued
  /// tickets as kCancelled without executing them, joins the workers.
  /// Idempotent; the destructor calls it.
  void Shutdown();

  ServingStats Stats() const;

 private:
  void WorkerLoop(bool cheap_only) SIMDB_EXCLUDES(mu_);
  std::shared_ptr<QueryTicket> NextTicketLocked(bool cheap_only)
      SIMDB_REQUIRES(mu_);
  void RunTicket(const std::shared_ptr<QueryTicket>& ticket);
  void FinishTicket(const std::shared_ptr<QueryTicket>& ticket, Status status,
                    core::QueryResult result, double exec_seconds);

  core::QueryProcessor processor_;
  ServingOptions serving_;

  /// Rank kServingEngine: metric lookups (kMetrics) happen while it is
  /// held, and ticket mutexes (kServingTicket) nest inside worker paths.
  mutable Mutex mu_{lockrank::Rank::kServingEngine, "QueryEngine::mu_"};
  /// Heterogeneous waiters (the reserved cheap-only worker waits on a
  /// different predicate than general workers), so every wake must be
  /// NotifyAll — a NotifyOne could land on a cheap-only worker that goes
  /// right back to sleep while a general query waits (the PR 8 lost-wakeup
  /// pattern; see docs/ANALYSIS.md).
  CondVar work_cv_;
  WeightedQueue queue_ SIMDB_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, std::shared_ptr<QueryTicket>> queued_
      SIMDB_GUARDED_BY(mu_);
  bool shutdown_ SIMDB_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> next_query_id_{1};
  std::atomic<uint64_t> next_session_id_{1};

  // Serving counters (mirrored into obs::MetricsRegistry::Global()).
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> rejected_queue_full_{0};
  std::atomic<uint64_t> rejected_parse_{0};
  std::atomic<uint64_t> rejected_quota_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> running_{0};
  std::atomic<uint64_t> peak_queue_depth_{0};
};

}  // namespace simdb::serving

#endif  // SIMDB_SERVING_QUERY_ENGINE_H_
