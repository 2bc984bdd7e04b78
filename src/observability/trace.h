#ifndef SIMDB_OBSERVABILITY_TRACE_H_
#define SIMDB_OBSERVABILITY_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace simdb::obs {

/// One completed span. Maps 1:1 onto a Chrome trace_event "X" (complete)
/// event: `pid` is the simulated cluster node, `tid` the partition lane the
/// work belongs to (route/barrier tasks use lane 0 of their node).
struct TraceEvent {
  /// Static-lifetime category string: "task", "exchange", "network", "query".
  const char* category = "task";
  std::string name;
  int64_t start_us = 0;  // since the collector's epoch
  int64_t dur_us = 0;
  int pid = 0;  // simulated node
  int tid = 0;  // partition lane within the node
  /// Small integer annotations (node id, partition, stage, rows, ...).
  std::vector<std::pair<std::string, int64_t>> args;
};

/// Collects spans from many threads with no lock on the record path: each
/// thread appends into its own fixed-capacity ring buffer, registered once
/// (under a mutex) on that thread's first event. When a ring is full the
/// oldest events are overwritten and counted as dropped — recording never
/// blocks and never allocates after the ring exists.
///
/// Drain() must not race with Record(): the executor only drains after every
/// task of the job has completed, which is exactly the quiescent point.
class TraceCollector {
 public:
  explicit TraceCollector(size_t per_thread_capacity = size_t{1} << 14);
  ~TraceCollector();

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Appends to the calling thread's ring buffer.
  void Record(TraceEvent event);

  /// Microseconds since this collector's construction (steady clock). Spans
  /// built from this are directly comparable across threads.
  int64_t NowMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Merges every thread's ring (oldest-first) and sorts by start time.
  /// Call only when no thread is recording.
  std::vector<TraceEvent> Drain() SIMDB_EXCLUDES(mu_);

  /// Events overwritten because a ring filled up.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  struct Ring {
    explicit Ring(size_t capacity) : slots(capacity) {}
    std::vector<TraceEvent> slots;
    size_t next = 0;       // total events ever written (owner thread only)
  };

  Ring* RingForThisThread() SIMDB_EXCLUDES(mu_);

  const std::chrono::steady_clock::time_point epoch_;
  const size_t capacity_;
  const uint64_t id_;  // process-unique; guards the thread-local ring cache
  std::atomic<uint64_t> dropped_{0};
  /// Guards ring registration and drain only; Record appends through a raw
  /// Ring* cached thread-locally, safe because each ring has exactly one
  /// writer (its owner thread) and Drain runs only at quiescent points.
  Mutex mu_{lockrank::Rank::kTrace, "TraceCollector::mu_"};
  std::vector<std::unique_ptr<Ring>> rings_ SIMDB_GUARDED_BY(mu_);
};

/// Renders spans as a Chrome trace_event JSON document ("traceEvents"
/// array of complete events plus process/thread naming metadata), loadable
/// in chrome://tracing and Perfetto.
std::string ToChromeTraceJson(const std::vector<TraceEvent>& events);

/// Writes ToChromeTraceJson(events) to `path`.
Status WriteChromeTrace(const std::string& path,
                        const std::vector<TraceEvent>& events);

}  // namespace simdb::obs

#endif  // SIMDB_OBSERVABILITY_TRACE_H_
