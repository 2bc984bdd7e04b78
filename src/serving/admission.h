#ifndef SIMDB_SERVING_ADMISSION_H_
#define SIMDB_SERVING_ADMISSION_H_

#include <cstddef>
#include <cstdint>
#include <deque>

namespace simdb::serving {

/// Coarse workload class assigned at submit time from the query's AST shape
/// (two or more dataset references = a join = heavy). Drives weighted
/// fairness: cheap selections must not starve behind long similarity joins.
enum class QueryClass { kCheap, kHeavy };

/// Dequeue weights of the two classes: a backlogged queue drains
/// cheap:heavy 3:1.
inline constexpr uint64_t kCheapWeight = 3;
inline constexpr uint64_t kHeavyWeight = 1;

/// Bounded two-class admission queue with weighted fair dequeue.
///
/// Each class is FIFO internally; across classes the next query is chosen by
/// smallest virtual finish time (served_so_far + 1) / weight — classic
/// weighted round robin. A full queue drains cheap:heavy kCheapWeight:
/// kHeavyWeight, so a burst of heavy joins delays a waiting cheap selection
/// by a bounded number of heavy dequeues instead of the whole burst. Ties
/// break toward cheap (lower tail latency is the whole point).
///
/// Push refusal (queue at max_depth) is the engine's load-shedding signal:
/// the caller maps it to kOverloaded, never blocks.
///
/// NOT thread-safe on its own — the engine calls it under its mutex. Kept
/// lock-free of time and randomness so the dequeue order is a pure function
/// of the push/pop history (asserted by the admission unit tests).
class WeightedQueue {
 public:
  explicit WeightedQueue(size_t max_depth) : max_depth_(max_depth) {}

  /// False when the queue is full; nothing is enqueued.
  bool TryPush(QueryClass c, uint64_t id) {
    if (depth() >= max_depth_) return false;
    (c == QueryClass::kCheap ? cheap_ : heavy_).push_back(id);
    return true;
  }

  /// Pops the next id by weighted fairness; false when empty.
  bool Pop(QueryClass* c, uint64_t* id) {
    if (cheap_.empty() && heavy_.empty()) return false;
    QueryClass pick;
    if (cheap_.empty()) {
      pick = QueryClass::kHeavy;
    } else if (heavy_.empty()) {
      pick = QueryClass::kCheap;
    } else {
      // (cheap_served_ + 1) / kCheapWeight <= (heavy_served_ + 1) /
      // kHeavyWeight, cross-multiplied so it stays exact.
      bool cheap_first = (cheap_served_ + 1) * kHeavyWeight <=
                         (heavy_served_ + 1) * kCheapWeight;
      pick = cheap_first ? QueryClass::kCheap : QueryClass::kHeavy;
    }
    return PopClass(pick, c, id);
  }

  /// Pops the oldest entry of exactly `want` (the reserved cheap slot only
  /// ever takes cheap work); false when that class is empty.
  bool PopClass(QueryClass want, QueryClass* c, uint64_t* id) {
    std::deque<uint64_t>& q = want == QueryClass::kCheap ? cheap_ : heavy_;
    if (q.empty()) return false;
    *c = want;
    *id = q.front();
    q.pop_front();
    if (want == QueryClass::kCheap) {
      ++cheap_served_;
    } else {
      ++heavy_served_;
    }
    return true;
  }

  /// Removes `id` wherever it is queued (client cancelled while waiting).
  bool Remove(uint64_t id) {
    for (std::deque<uint64_t>* q : {&cheap_, &heavy_}) {
      for (auto it = q->begin(); it != q->end(); ++it) {
        if (*it == id) {
          q->erase(it);
          return true;
        }
      }
    }
    return false;
  }

  size_t depth() const { return cheap_.size() + heavy_.size(); }
  size_t depth(QueryClass c) const {
    return c == QueryClass::kCheap ? cheap_.size() : heavy_.size();
  }
  size_t max_depth() const { return max_depth_; }
  bool empty() const { return cheap_.empty() && heavy_.empty(); }

 private:
  size_t max_depth_;
  std::deque<uint64_t> cheap_;
  std::deque<uint64_t> heavy_;
  uint64_t cheap_served_ = 0;
  uint64_t heavy_served_ = 0;
};

}  // namespace simdb::serving

#endif  // SIMDB_SERVING_ADMISSION_H_
