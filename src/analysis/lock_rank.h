#ifndef SIMDB_ANALYSIS_LOCK_RANK_H_
#define SIMDB_ANALYSIS_LOCK_RANK_H_

#include <cstdint>
#include <string>
#include <vector>

// Runtime lock-rank deadlock detector (see docs/ANALYSIS.md, "Concurrency
// analysis"). Every simdb::Mutex / simdb::SharedMutex carries a static rank
// from the registry below; a thread may only acquire a mutex whose rank is
// STRICTLY GREATER than every rank it already holds (outermost locks have
// the lowest ranks). Any two threads that respect the ordering cannot form a
// cyclic wait, so a rank violation is a deadlock caught before it happens —
// on the first inverted acquisition, not on the unlucky interleaving.
//
// The checks run when SIMDB_LOCK_RANK_CHECKS is 1 (debug and sanitizer
// builds, see thread_annotations.h); Release builds compile the per-acquire
// hooks out entirely (no call, no branch — verified by a symbol check in
// CI's release job). This header itself stays dependency-free so the
// common-layer Mutex wrapper can call into it without a cycle.

namespace simdb::lockrank {

/// The project lock-rank registry, ordered outermost (acquired first,
/// lowest value) to innermost (leaf, highest value). Gaps leave room for new
/// locks without renumbering. The nesting pairs that pin each ordering are
/// documented in docs/ANALYSIS.md; the invariant enforced at runtime is
/// "acquire strictly ascending".
enum class Rank : int {
  /// core::QueryProcessor::state_mu_ — held (shared) for a query's whole
  /// execution, so every other engine lock nests inside it.
  kEngineState = 100,
  /// serving::QueryEngine::mu_ — admission queue; metrics are bumped while
  /// it is held.
  kServingEngine = 200,
  /// serving::QueryTicket::mu_ — per-ticket lifecycle state.
  kServingTicket = 300,
  /// hyracks scheduler run state — pool Submit happens under it.
  kScheduler = 400,
  /// ThreadPool::mu_ — task queue; acquired from LaunchLocked under the
  /// scheduler mutex.
  kThreadPool = 500,
  /// ThreadPool::RunAll per-batch completion state.
  kPoolBatch = 550,
  /// storage::InvertedIndex::cache_mu_ — decoded-posting cache; LSM decode
  /// and logging may happen under it.
  kPostingCache = 600,
  /// socket transport: per-worker channel mutexes. Metric handles may be
  /// materialized while one is held.
  kTransport = 700,
  /// obs::TraceCollector::mu_ — ring registration/drain.
  kTrace = 800,
  /// obs::MetricsRegistry::mu_ — name lookup; leaf of the engine paths.
  kMetrics = 900,
  /// Log-line serialization — callable from under any engine lock.
  kLogging = 1000,
  /// Test-only mutexes that sit below everything.
  kLeaf = 10000,
};

/// One entry of a thread's held-lock stack.
struct HeldLock {
  int rank = 0;
  const char* name = "";
  const void* mutex = nullptr;
};

/// A detected rank inversion. `message` renders both sides of the cycle:
/// the acquiring thread's full held stack plus the recorded stack under
/// which each conflicting mutex was last acquired (the opposing edge).
struct Violation {
  std::string message;
};

/// Handler invoked on every violation. The default logs the report to
/// stderr and aborts (a rank inversion is a latent deadlock; tests must
/// fail loudly). Returns the previous handler so tests can capture reports
/// and restore the default.
using Handler = void (*)(const Violation&);
Handler SetHandlerForTest(Handler handler);

/// Total violations reported by this process (monotonic, all threads).
uint64_t violation_count();

/// Hooks called by simdb::Mutex when SIMDB_LOCK_RANK_CHECKS is 1. OnAcquire
/// checks `rank` against the calling thread's held stack BEFORE blocking on
/// the lock (the whole point is to report the inversion instead of
/// deadlocking) and pushes it; OnRelease pops it. Recursive acquisition of
/// the same mutex is reported as a violation too (rank equal to itself).
void OnAcquire(int rank, const char* name, const void* mutex);
void OnRelease(const void* mutex);

/// The calling thread's current held stack, outermost first (test hook).
std::vector<HeldLock> CurrentThreadHeld();

}  // namespace simdb::lockrank

#endif  // SIMDB_ANALYSIS_LOCK_RANK_H_
