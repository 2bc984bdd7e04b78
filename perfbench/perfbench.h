// Shared declarations of the repository benchmark (see perfbench/README.md).
//
// The benchmark drives the engine only through its public API: workloads
// call core::QueryProcessor and serving::QueryEngine, the traced run reads
// per-layer figures from QueryResult / ExecStats / QueryTicket and times
// direct calls into the storage and similarity modules. Every span it
// records is taken here, around those calls; nothing inside src/ is traced.
#ifndef SIMDB_PERFBENCH_PERFBENCH_H_
#define SIMDB_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/query_processor.h"
#include "storage/dataset.h"

namespace simdb::perfbench {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b);

/// Nearest-rank percentile (p in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// Command-line settings of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small datasets and short phases: checks the output shape only.
  bool quick = false;
  /// Corrupts one reference answer so the answer check must fail.
  bool perturb_reference = false;
  /// Scratch directory for engine data and trace output (inside the
  /// checkout; the caller removes the data directory afterwards).
  std::string work_dir;
  /// The run's stamp as a JSON object; embedded in the trace file.
  std::string stamp_json = "{}";
  /// Pool threads and load-generator threads: min(4, hardware threads).
  int threads = 4;
};

/// One benchmark-side span: a timed call into one engine layer.
struct Span {
  std::string name;
  int64_t id = 0;
  int64_t parent = 0;   // 0 = root
  int64_t request = 0;  // spans of one request share this id
  double start_us = 0;  // relative to the recorder's epoch
  double end_us = 0;
  uint64_t thread = 0;
  /// Derived spans are placed from figures the engine reports (compile and
  /// execution time inside Execute), not timed by the benchmark.
  bool derived = false;
};

/// In-memory span store, written out once when the run ends. Disabled
/// recorders cost one branch per call site.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }
  int64_t NewRequest();
  /// Records [start, end] and returns the span id (0 when disabled).
  int64_t Record(const std::string& name, int64_t request, int64_t parent,
                 Clock::time_point start, Clock::time_point end,
                 bool derived = false);
  size_t size() const;
  /// Chrome trace_event JSON (loads in chrome://tracing and Perfetto).
  bool WriteChromeTrace(const std::string& path,
                        const std::string& stamp_json) const;

 private:
  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int64_t next_id_ = 1;
  int64_t next_request_ = 1;
};

/// Named metric values with units, in insertion order.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }
  std::string ToJson() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> entries_;
};

/// Per-layer figures folded over every traced query (see layers.cc).
class LayerAccumulator {
 public:
  explicit LayerAccumulator(hyracks::ClusterTopology topology, int threads)
      : topology_(topology), threads_(threads) {}

  void AddQuery(const core::QueryResult& result);
  void Emit(MetricSet* out) const;
  /// "HASH-JOIN 31.2%, ..." — operator compute share by operator name, then
  /// by metric category ("hash_join 30.1%, ...").
  std::string ShareSummary() const;
  /// Mean compile time per query (parse through jobgen).
  double MeanCompileSeconds() const;

 private:
  struct OpAgg {
    double seconds = 0;
    double units = 0;  // rows, probes or pairs (per category)
  };

  hyracks::ClusterTopology topology_;
  const int threads_;
  int64_t queries_ = 0;
  double parse_s_ = 0, translate_s_ = 0, optimize_s_ = 0, aqlplus_s_ = 0,
         jobgen_s_ = 0;
  double wall_s_ = 0, compute_s_ = 0;
  double tasks_ = 0, rows_materialized_ = 0;
  double batch_rows_ = 0, fallback_rows_ = 0;
  double join_matches_ = 0, join_dropped_ = 0;
  double cache_hits_ = 0, cache_misses_ = 0, candidates_ = 0,
         postings_read_ = 0, verified_ = 0;
  double makespan_compute_s_ = 0, makespan_network_s_ = 0, remote_bytes_ = 0;
  std::map<std::string, OpAgg> by_category_;  // metric categories
  std::map<std::string, OpAgg> by_label_;     // operator names, for shares
};

/// Sum of `run_*.dat` files (LSM disk components) under `dir`.
int64_t CountRunFiles(const std::string& dir);

/// Peak resident set of this process, MiB.
double PeakRssMiB();

/// What one run reports: `correct` is false when an answer check failed;
/// `attempted`/`failed` count operations and non-OK or refused outcomes.
struct RunOutcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  MetricSet metrics;
  std::string trace_path;  // traced runs only
  size_t span_count = 0;
};

/// Base records a workload loads (for the stamp); 0 for unknown names.
int64_t BaseRecords(const RunConfig& config);

/// Runs `config.workload` and fills `outcome`; a non-OK status means the
/// run could not complete.
Status RunWorkload(const RunConfig& config, RunOutcome* outcome);

}  // namespace simdb::perfbench

#endif  // SIMDB_PERFBENCH_PERFBENCH_H_
