#ifndef SIMDB_TESTING_DIFFERENTIAL_H_
#define SIMDB_TESTING_DIFFERENTIAL_H_

#include <string>
#include <vector>

#include "hyracks/exec.h"
#include "storage/inverted_index.h"
#include "testing/fuzz.h"
#include "transport/transport.h"

namespace simdb::testing {

/// One plan-variant configuration: which optimizer rewrites are allowed and
/// which T-occurrence algorithm the runtime uses. Every variant must return
/// the same answer for every query — that is the paper's semantics-
/// preservation claim this harness checks.
struct ExecVariant {
  std::string label;
  bool enable_index_select = true;
  bool enable_index_join = true;
  bool enable_three_stage_join = true;
  bool enable_surrogate_join = true;
  /// Subplan reuse (paper Figure 20): the three-stage join shares its
  /// inputs across stages and the job generator merges equal job nodes.
  /// Off, each stage compiles a clone and no node merges; both must be
  /// answer-identical.
  bool enable_subplan_reuse = true;
  storage::TOccurrenceAlgorithm t_occurrence =
      storage::TOccurrenceAlgorithm::kScanCount;
  /// Serve inverted-index probes from the decoded posting-list cache.
  bool posting_cache = true;
  /// NL-JOIN's batch similarity kernels. Batch and row execution must be
  /// answer-identical on every query.
  bool batch_execution = true;
  /// Executor pool size. 0 runs on the harness's shared 2-thread engine;
  /// any other value gets an engine of its own with that many threads. Pool
  /// 1 is the serial oracle: every pool size must be answer-identical.
  size_t num_threads = 0;
  /// Exchange transport backend (modeled / socket). Both backends must be
  /// answer- and error-identical on every query: the socket workers run the
  /// parent's build code over a lossless row codec, so remote execution is
  /// an identity on the result.
  transport::TransportKind transport = transport::TransportKind::kModeled;
  /// LSM memtable budget in bytes (0 = the engine default, under which the
  /// fuzz cases never flush). A small budget spreads the records over
  /// flushed runs, merges and a live memtable, so the run read path answers
  /// the queries. A variant that sets it gets an engine of its own.
  size_t memtable_budget_bytes = 0;
};

/// The default plan-variant matrix:
///   scan              - every similarity rewrite disabled (ground truth:
///                       full scans and NL joins)
///   indexed           - all rewrites on (index select / index-nested-loop
///                       join with surrogates / three-stage fallback)
///   indexed-nosurr    - index join without the surrogate optimization
///   threestage        - index joins off; Jaccard joins go three-stage
///   threestage-noreuse - threestage without subplan reuse: cloned stage
///                       plans and no merged job nodes
///   indexed-heapmerge - all rewrites on, heap-merge T-occurrence
///   indexed-nocache   - all rewrites on, posting-list cache disabled
///   indexed-pool1     - all rewrites on, 1-thread executor pool (the serial
///                       oracle for the 2-thread runs)
///   indexed-runs      - all rewrites on, 1 KiB memtable budget: the data
///                       sits in several flushed runs per index (merged
///                       whenever more than max_runs pile up) plus a live
///                       memtable, so index searches and primary lookups
///                       read the on-disk runs
std::vector<ExecVariant> PlanVariantMatrix();

/// The batch-execution differential matrix: the three plan shapes that
/// reach NL-JOIN (indexed, scan, three-stage), each run with batch
/// execution on and off. The on/off pair must be bit-identical per plan
/// shape.
std::vector<ExecVariant> BatchVariantMatrix();

/// The transport differential matrix: the fully-indexed plan shape run under
/// both transport backends (modeled / socket), plus socket on a 1-thread
/// executor pool (fragments then run one at a time). All variants must be
/// bit-identical per query — results and errors.
std::vector<ExecVariant> TransportVariantMatrix();

/// Cluster shapes the matrix runs under: 1x1, 2x2, 4x2
/// (nodes x partitions-per-node).
std::vector<hyracks::ClusterTopology> TopologyMatrix();

std::string TopologyLabel(const hyracks::ClusterTopology& t);

struct DifferentialOptions {
  /// Scratch directory for engine data (one subdirectory per topology);
  /// created and reused, removed by the caller.
  std::string scratch_dir = "/tmp/simdb_fuzz";
  std::vector<ExecVariant> variants = PlanVariantMatrix();
  std::vector<hyracks::ClusterTopology> topologies = TopologyMatrix();
  /// Shrink the dataset to a minimal reproducing prefix on mismatch.
  bool minimize = true;
};

struct DifferentialReport {
  bool ok = true;
  /// Number of (query, variant, topology) executions compared.
  int comparisons = 0;
  /// Diagnostic on failure: seed, query, disagreeing variants, row diff,
  /// minimized record count, and a one-command repro line.
  std::string failure;
};

/// Runs every query of `c` under every (variant x topology) combination and
/// compares order-normalized result sets against the first combination. A
/// query with a twin is also compared against its twin there. Reports the
/// first mismatch (with minimization, for variant mismatches) or ok.
DifferentialReport RunDifferential(const FuzzCase& c,
                                   const DifferentialOptions& options = {});

struct ConcurrentDifferentialOptions {
  std::string scratch_dir = "/tmp/simdb_fuzz_concurrent";
  hyracks::ClusterTopology topology = {2, 2};
  /// Serving-engine concurrency: how many queries execute at once.
  int max_in_flight = 4;
  /// How many times each query of the case is submitted concurrently.
  int repeats = 2;
};

/// Differential check for the concurrent serving path: every query of `c` is
/// first executed on the exclusive single-query path (the expectation), then
/// submitted `repeats` times through a serving::QueryEngine with
/// `max_in_flight` queries executing at once. Every concurrent execution
/// must be bit-identical to its sequential run — same sorted result rows on
/// success, and the same error (normalized for generated variable ids) on
/// failure, no matter how executions interleave.
DifferentialReport RunConcurrentDifferential(
    const FuzzCase& c, const ConcurrentDifferentialOptions& options = {});

}  // namespace simdb::testing

#endif  // SIMDB_TESTING_DIFFERENTIAL_H_
