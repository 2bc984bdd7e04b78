#ifndef SIMDB_HYRACKS_BUDGET_H_
#define SIMDB_HYRACKS_BUDGET_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace simdb::hyracks {

/// Per-query resource quotas, charged cooperatively by the executor:
///   - memory: approximate bytes of live intermediate partitions (TupleBytes
///     of everything the scheduler currently holds). Charged when a task's
///     output is stored, released when the last consumer frees the
///     partition; the executor releases every remaining charge when the run
///     ends, so `memory_in_use` returns to zero whether the query succeeded,
///     failed, or was cancelled.
///   - tasks: number of scheduler tasks started. A runaway query (e.g. an
///     accidental cross product expanded over many partitions) trips the
///     task quota even when each individual task is small.
///
/// A limit of 0 means unlimited. Thread-safe; charging is lock-free.
/// Exceeding a quota returns kResourceExhausted, which the serving layer
/// surfaces to the client distinctly from cancellation and overload.
class ResourceBudget {
 public:
  ResourceBudget() = default;
  ResourceBudget(int64_t max_memory_bytes, int64_t max_tasks)
      : max_memory_bytes_(max_memory_bytes), max_tasks_(max_tasks) {}

  ResourceBudget(const ResourceBudget&) = delete;
  ResourceBudget& operator=(const ResourceBudget&) = delete;

  int64_t max_memory_bytes() const { return max_memory_bytes_; }
  int64_t max_tasks() const { return max_tasks_; }

  /// Claims `bytes` of the memory quota; on refusal nothing is charged.
  Status ChargeMemory(int64_t bytes) {
    if (bytes <= 0) return Status::OK();
    int64_t now = memory_in_use_.fetch_add(bytes, std::memory_order_relaxed) +
                  bytes;
    if (max_memory_bytes_ > 0 && now > max_memory_bytes_) {
      memory_in_use_.fetch_sub(bytes, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          "memory quota exceeded: " + std::to_string(now) + " bytes needed, " +
          std::to_string(max_memory_bytes_) + " allowed");
    }
    UpdatePeak(now);  // peak tracks accepted charges only
    return Status::OK();
  }

  void ReleaseMemory(int64_t bytes) {
    if (bytes > 0) memory_in_use_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  /// Counts one started task against the task quota.
  Status ChargeTask() {
    int64_t now = tasks_started_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (max_tasks_ > 0 && now > max_tasks_) {
      return Status::ResourceExhausted(
          "task quota exceeded: " + std::to_string(max_tasks_) +
          " tasks allowed");
    }
    return Status::OK();
  }

  int64_t memory_in_use() const {
    return memory_in_use_.load(std::memory_order_relaxed);
  }
  int64_t peak_memory_bytes() const {
    return peak_memory_bytes_.load(std::memory_order_relaxed);
  }
  int64_t tasks_started() const {
    return tasks_started_.load(std::memory_order_relaxed);
  }

 private:
  void UpdatePeak(int64_t now) {
    int64_t peak = peak_memory_bytes_.load(std::memory_order_relaxed);
    while (now > peak && !peak_memory_bytes_.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
  }

  int64_t max_memory_bytes_ = 0;  // 0 = unlimited
  int64_t max_tasks_ = 0;         // 0 = unlimited
  std::atomic<int64_t> memory_in_use_{0};
  std::atomic<int64_t> peak_memory_bytes_{0};
  std::atomic<int64_t> tasks_started_{0};
};

}  // namespace simdb::hyracks

#endif  // SIMDB_HYRACKS_BUDGET_H_
