#include "serving/query_engine.h"

#include <algorithm>
#include <utility>

#include "aql/parser.h"
#include "observability/metrics.h"

namespace simdb::serving {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void CountRefsExpr(const aql::AExprPtr& e, int* n);

void CountRefsFlwor(const aql::FlworPtr& f, int* n) {
  if (f == nullptr) return;
  for (const aql::Clause& c : f->clauses) {
    CountRefsExpr(c.source, n);
    CountRefsExpr(c.condition, n);
    for (const auto& [key, expr] : c.group_keys) CountRefsExpr(expr, n);
    for (const auto& [expr, asc] : c.order_keys) CountRefsExpr(expr, n);
    for (const auto& [var, expr] : c.join_bindings) CountRefsExpr(expr, n);
    CountRefsExpr(c.join_condition, n);
  }
  CountRefsExpr(f->return_expr, n);
}

void CountRefsExpr(const aql::AExprPtr& e, int* n) {
  if (e == nullptr) return;
  if (e->kind == aql::AExpr::Kind::kDatasetRef) ++*n;
  for (const aql::AExprPtr& c : e->children) CountRefsExpr(c, n);
  CountRefsFlwor(e->subquery, n);
  for (const aql::FlworPtr& b : e->branches) CountRefsFlwor(b, n);
}

/// Two or more dataset references anywhere in the program's queries = a
/// join = heavy. Everything else (selections, lookups, explains) is cheap.
QueryClass ClassifyProgram(const aql::Program& program) {
  int refs = 0;
  for (const aql::Statement& stmt : program.statements) {
    if (stmt.kind == aql::Statement::Kind::kQuery ||
        stmt.kind == aql::Statement::Kind::kExplain) {
      CountRefsExpr(stmt.body, &refs);
    }
  }
  return refs >= 2 ? QueryClass::kHeavy : QueryClass::kCheap;
}

/// Bound on the post-cancel/deadline transport drain. The fragments of the
/// finished query are synchronous and already returned, so the drain is a
/// liveness check on the engine-shared transport, not a correctness step —
/// and unrelated concurrent queries keep dispatching through the same
/// backend, so an unbounded wait could starve the finishing worker
/// indefinitely.
constexpr double kFinishDrainTimeoutSeconds = 1.0;

void BumpMax(std::atomic<uint64_t>& slot, uint64_t candidate) {
  uint64_t cur = slot.load(std::memory_order_relaxed);
  while (candidate > cur && !slot.compare_exchange_weak(
                                cur, candidate, std::memory_order_relaxed)) {
  }
}

/// A cancelled or deadline-exceeded query may have abandoned exchange
/// destinations mid-ship; drain the transport so the dead query leaves no
/// bytes in flight (for the socket backend this also proves every worker is
/// alive and idle). Under fragment dispatch the dead query's id is first
/// recorded in every worker's cancel ledger so a fragment racing the
/// cancellation is refused rather than executed (see docs/DISTRIBUTED.md).
/// Both steps are bounded and their failures are counted — a silent
/// `(void)` discard would hide dead socket workers.
void DrainTransportAfterAbort(core::QueryProcessor& processor,
                              obs::MetricsRegistry& reg, uint64_t query_id) {
  Status cancelled =
      processor.CancelRemoteFragments(query_id, kFinishDrainTimeoutSeconds);
  Status drained = processor.DrainTransport(kFinishDrainTimeoutSeconds);
  if (!cancelled.ok() || !drained.ok()) {
    reg.GetCounter("serving.transport_drain_failures")->Increment();
  }
}

}  // namespace

// ---- QueryTicket ----

void QueryTicket::Cancel() { cancel_.RequestCancel(); }

const Status& QueryTicket::Wait() {
  MutexLock lock(mu_);
  while (state_ != QueryState::kDone) cv_.Wait(lock);
  return status_;
}

bool QueryTicket::Done() const {
  MutexLock lock(mu_);
  return state_ == QueryState::kDone;
}

QueryState QueryTicket::state() const {
  MutexLock lock(mu_);
  return state_;
}

const Status& QueryTicket::status() const {
  MutexLock lock(mu_);
  return status_;
}

const core::QueryResult& QueryTicket::result() const {
  MutexLock lock(mu_);
  return result_;
}

double QueryTicket::queue_seconds() const {
  MutexLock lock(mu_);
  return queue_seconds_;
}

double QueryTicket::exec_seconds() const {
  MutexLock lock(mu_);
  return exec_seconds_;
}

// ---- Session ----

Result<std::shared_ptr<QueryTicket>> Session::Submit(
    const std::string& aql, const SubmitOptions& opts) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  return engine_->Submit(prelude_.empty() ? aql : prelude_ + "\n" + aql, opts);
}

// ---- QueryEngine ----

QueryEngine::QueryEngine(core::EngineOptions engine_options,
                         ServingOptions serving_options)
    : processor_(std::move(engine_options)),
      serving_(serving_options),
      queue_(serving_options.max_queue) {
  // Touch every serving metric so the catalogue check sees the full set even
  // in runs that never hit a given outcome (rejections, deadlines, ...).
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  for (const char* name :
       {"serving.submitted", "serving.admitted", "serving.completed",
        "serving.failed", "serving.cancelled", "serving.deadline_exceeded",
        "serving.rejected.queue_full", "serving.rejected.quota",
        "serving.rejected.parse", "serving.transport_drain_failures"}) {
    reg.GetCounter(name);
  }
  for (const char* name :
       {"serving.queue_depth", "serving.queue_wait_micros",
        "serving.exec_micros", "serving.latency_micros",
        "serving.cheap.latency_micros", "serving.heavy.latency_micros"}) {
    reg.GetHistogram(name);
  }

  int n = std::max(1, serving_.max_concurrent);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    bool cheap_only = n > 1 && i == 0;
    workers_.emplace_back([this, cheap_only] { WorkerLoop(cheap_only); });
  }
}

QueryEngine::~QueryEngine() { Shutdown(); }

std::shared_ptr<Session> QueryEngine::CreateSession() {
  return std::shared_ptr<Session>(new Session(
      this, next_session_id_.fetch_add(1, std::memory_order_relaxed)));
}

Result<std::shared_ptr<QueryTicket>> QueryEngine::Submit(
    const std::string& aql, const SubmitOptions& opts) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  submitted_.fetch_add(1, std::memory_order_relaxed);
  reg.GetCounter("serving.submitted")->Increment();

  // Parse once up front: a malformed program is refused here (distinct
  // metric), and the parse feeds the cheap/heavy classification.
  Result<aql::Program> parsed = aql::ParseProgram(aql);
  if (!parsed.ok()) {
    rejected_parse_.fetch_add(1, std::memory_order_relaxed);
    reg.GetCounter("serving.rejected.parse")->Increment();
    return parsed.status();
  }
  QueryClass qc = ClassifyProgram(parsed.value());

  auto ticket = std::shared_ptr<QueryTicket>(new QueryTicket(
      next_query_id_.fetch_add(1, std::memory_order_relaxed), qc, aql,
      opts.memory_quota_bytes, opts.task_quota));
  ticket->submit_tp_ = Clock::now();
  // The deadline clock starts at admission: it bounds total latency (queue
  // wait included), which is what a client timeout actually means.
  if (opts.deadline_seconds > 0) {
    ticket->cancel_.SetDeadlineAfter(opts.deadline_seconds);
  }

  {
    MutexLock lock(mu_);
    if (shutdown_ || !queue_.TryPush(qc, ticket->id())) {
      rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
      reg.GetCounter("serving.rejected.queue_full")->Increment();
      return Status::Overloaded(
          shutdown_ ? "engine is shutting down"
                    : "admission queue full (" +
                          std::to_string(queue_.max_depth()) + " waiting)");
    }
    queued_[ticket->id()] = ticket;
    admitted_.fetch_add(1, std::memory_order_relaxed);
    reg.GetCounter("serving.admitted")->Increment();
    uint64_t depth = queue_.depth();
    reg.GetHistogram("serving.queue_depth")->Observe(depth);
    BumpMax(peak_queue_depth_, depth);
  }
  work_cv_.NotifyAll();
  return ticket;
}

void QueryEngine::WorkerLoop(bool cheap_only) {
  for (;;) {
    std::shared_ptr<QueryTicket> ticket;
    {
      MutexLock lock(mu_);
      while (!shutdown_ &&
             (cheap_only ? queue_.depth(QueryClass::kCheap) == 0
                         : queue_.empty())) {
        work_cv_.Wait(lock);
      }
      if (shutdown_) return;  // leftovers are cancelled by Shutdown
      ticket = NextTicketLocked(cheap_only);
    }
    if (ticket != nullptr) RunTicket(ticket);
  }
}

std::shared_ptr<QueryTicket> QueryEngine::NextTicketLocked(bool cheap_only) {
  QueryClass c;
  uint64_t id = 0;
  bool got = cheap_only ? queue_.PopClass(QueryClass::kCheap, &c, &id)
                        : queue_.Pop(&c, &id);
  if (!got) return nullptr;
  auto it = queued_.find(id);
  std::shared_ptr<QueryTicket> ticket = std::move(it->second);
  queued_.erase(it);
  return ticket;
}

void QueryEngine::RunTicket(const std::shared_ptr<QueryTicket>& ticket) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  double queue_seconds = SecondsSince(ticket->submit_tp_);
  {
    MutexLock lock(ticket->mu_);
    ticket->state_ = QueryState::kRunning;
    ticket->queue_seconds_ = queue_seconds;
  }
  running_.fetch_add(1, std::memory_order_relaxed);
  reg.GetHistogram("serving.queue_wait_micros")
      ->Observe(static_cast<uint64_t>(queue_seconds * 1e6));

  // A cancel or deadline that fired while queued finishes the ticket
  // without executing anything.
  Status pre = ticket->cancel_.Check();
  if (!pre.ok()) {
    running_.fetch_sub(1, std::memory_order_relaxed);
    FinishTicket(ticket, std::move(pre), core::QueryResult(), 0.0);
    return;
  }

  core::QueryGovernor gov;
  gov.cancel = &ticket->cancel_;
  gov.budget = &ticket->budget_;
  gov.query_id = ticket->id();
  core::QueryResult result;
  Clock::time_point exec_start = Clock::now();
  Status s = processor_.ExecuteConcurrent(ticket->aql_, gov, &result);
  double exec_seconds = SecondsSince(exec_start);
  running_.fetch_sub(1, std::memory_order_relaxed);
  FinishTicket(ticket, std::move(s), std::move(result), exec_seconds);
}

void QueryEngine::FinishTicket(const std::shared_ptr<QueryTicket>& ticket,
                               Status status, core::QueryResult result,
                               double exec_seconds) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  switch (status.code()) {
    case StatusCode::kOk:
      completed_.fetch_add(1, std::memory_order_relaxed);
      reg.GetCounter("serving.completed")->Increment();
      break;
    case StatusCode::kCancelled:
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      reg.GetCounter("serving.cancelled")->Increment();
      DrainTransportAfterAbort(processor_, reg, ticket->id());
      break;
    case StatusCode::kDeadlineExceeded:
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      reg.GetCounter("serving.deadline_exceeded")->Increment();
      DrainTransportAfterAbort(processor_, reg, ticket->id());
      break;
    case StatusCode::kResourceExhausted:
      rejected_quota_.fetch_add(1, std::memory_order_relaxed);
      reg.GetCounter("serving.rejected.quota")->Increment();
      break;
    default:
      failed_.fetch_add(1, std::memory_order_relaxed);
      reg.GetCounter("serving.failed")->Increment();
      break;
  }
  double latency_seconds = SecondsSince(ticket->submit_tp_);
  reg.GetHistogram("serving.exec_micros")
      ->Observe(static_cast<uint64_t>(exec_seconds * 1e6));
  reg.GetHistogram("serving.latency_micros")
      ->Observe(static_cast<uint64_t>(latency_seconds * 1e6));
  reg.GetHistogram(ticket->query_class() == QueryClass::kCheap
                       ? "serving.cheap.latency_micros"
                       : "serving.heavy.latency_micros")
      ->Observe(static_cast<uint64_t>(latency_seconds * 1e6));
  {
    MutexLock lock(ticket->mu_);
    ticket->status_ = std::move(status);
    ticket->result_ = std::move(result);
    ticket->exec_seconds_ = exec_seconds;
    ticket->state_ = QueryState::kDone;
  }
  ticket->cv_.NotifyAll();
}

void QueryEngine::Shutdown() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Queries still waiting never execute: complete them as cancelled so
  // their clients' Wait() returns.
  std::vector<std::shared_ptr<QueryTicket>> leftover;
  {
    MutexLock lock(mu_);
    QueryClass c;
    uint64_t id = 0;
    while (queue_.Pop(&c, &id)) {
      auto it = queued_.find(id);
      if (it != queued_.end()) {
        leftover.push_back(std::move(it->second));
        queued_.erase(it);
      }
    }
  }
  for (const std::shared_ptr<QueryTicket>& t : leftover) {
    FinishTicket(t, Status::Cancelled("engine shutdown"), core::QueryResult(),
                 0.0);
  }
}

ServingStats QueryEngine::Stats() const {
  ServingStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.rejected_queue_full = rejected_queue_full_.load(std::memory_order_relaxed);
  s.rejected_parse = rejected_parse_.load(std::memory_order_relaxed);
  s.rejected_quota = rejected_quota_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.running = running_.load(std::memory_order_relaxed);
  s.peak_queue_depth = peak_queue_depth_.load(std::memory_order_relaxed);
  {
    MutexLock lock(mu_);
    s.queued = queue_.depth();
  }
  return s;
}

}  // namespace simdb::serving
