#ifndef SIMDB_HYRACKS_BATCH_H_
#define SIMDB_HYRACKS_BATCH_H_

// Columnar batch execution support for the hot similarity operators.
//
// The batch path detects a vectorizable similarity call at plan-build time
// (MatchSimCheckCall / MatchSimEvalCall), encodes token lists into dense
// occurrence-distinct uint32 ids (TokenIdEncoder), stages up to kBatchSize
// rows into CSR scratch batches (SimIdBatch / SimCharBatch with a
// selection vector of source-row positions), and runs the
// runtime-dispatched simd:: kernels over the whole batch. Rows the
// encoder cannot handle fall back to the tuple evaluator one at a time —
// in source-row order, so evaluation errors surface exactly where the
// tuple path surfaces them. Both paths are answer-identical (checked by
// the batch differential fuzz seeds).

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "adm/value.h"
#include "hyracks/exec.h"
#include "hyracks/expr.h"

namespace simdb::hyracks {

/// Rows per columnar scratch batch on the batch path (SELECT and ASSIGN
/// chunk their input by it; INVERTED-SEARCH counts its probes in groups of
/// it).
inline constexpr size_t kBatchSize = 1024;

/// Counters for the vectorized path of a batch-capable operator. The full
/// exec.batch.* trio is emitted (zeros included) whenever profiling is on,
/// so EXPLAIN PROFILE deterministically shows which operators ran
/// vectorized and which fell back.
struct BatchStats {
  uint64_t rows = 0;       // rows (pairs, for joins) through the kernels
  uint64_t batches = 0;    // kernel batch flushes
  uint64_t fallback_rows = 0;  // rows evaluated tuple-at-a-time

  void Emit(ExecContext& ctx) const {
    if (ctx.counters == nullptr) return;
    CountOp(ctx, "exec.batch.rows", rows);
    CountOp(ctx, "exec.batch.batches", batches);
    CountOp(ctx, "exec.batch.fallback_rows", fallback_rows);
  }
};

/// A similarity call the batch path can vectorize.
struct SimBatchCall {
  enum class Kind {
    kJaccardCheck,       // similarity-jaccard-check(a, b, literal-delta)
    kEditDistanceCheck,  // edit-distance-check(a, b, literal-k)
    kJaccardEval,        // similarity-jaccard(a, b)
  };
  Kind kind;
  ExprPtr arg_a;
  ExprPtr arg_b;
  double threshold = 0.0;  // delta (Jaccard) or k (edit distance)
};

/// Matches the verification predicates the optimizer emits for SELECT and
/// NL-JOIN: similarity-jaccard-check / edit-distance-check with a numeric
/// literal threshold.
std::optional<SimBatchCall> MatchSimCheckCall(const ExprPtr& expr);

/// Matches the similarity-jaccard(a, b) ASSIGN expression (the three-stage
/// join's verify column).
std::optional<SimBatchCall> MatchSimEvalCall(const ExprPtr& expr);

/// Accumulates the [min, max] column-reference range of `expr` into
/// *min_col / *max_col. Returns false for expression shapes it does not
/// know (conservative: the caller must not assume side-purity then).
bool ColumnRange(const Expr* expr, int* min_col, int* max_col);

/// Encodes token-list values into sorted dense uint32 id lists such that
/// multiset intersection/union sizes are preserved exactly: the k-th
/// occurrence of a token within one list maps to its own id, consistently
/// across every list this encoder sees, so the unique-id SIMD intersection
/// equals the multiset merge of the original tokens. One encoder instance is
/// local to one operator invocation (ids need not be stable across
/// partitions).
class TokenIdEncoder {
 public:
  /// Pair form mirroring CheckJaccard's dispatch order exactly: both sides
  /// all-strings => string encoding; else both sides all-int64 => int64
  /// encoding; else false (caller falls back to the tuple evaluator).
  bool EncodePair(const adm::Value& a, const adm::Value& b,
                  std::vector<uint32_t>* out_a, std::vector<uint32_t>* out_b);

  /// Single-value form for join sides encoded independently: all-strings
  /// lists use the string id space, all-int64 lists the int64 id space.
  /// Cross-typed pairs then intersect to zero in id space, matching the
  /// boxed-value comparison of the tuple path.
  bool EncodeValue(const adm::Value& v, std::vector<uint32_t>* out);

 private:
  struct Occ {
    uint32_t first_id = 0;
    std::vector<uint32_t> more;  // ids for occurrences 2, 3, ...
    uint32_t epoch = 0;
    uint32_t occ = 0;
  };

  struct SvHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct SvEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const noexcept {
      return a == b;
    }
  };

  uint32_t IdFor(Occ& o);
  void EncodeStrings(const adm::Value& v, std::vector<uint32_t>* out);
  void EncodeInts(const adm::Value& v, std::vector<uint32_t>* out);

  std::unordered_map<std::string, Occ, SvHash, SvEq> str_ids_;
  std::unordered_map<int64_t, Occ> int_ids_;
  uint32_t next_id_ = 0;
  uint32_t epoch_ = 0;
};

/// Columnar scratch batch for Jaccard pairs: two CSR id columns plus the
/// selection vector of source-row positions awaiting a kernel verdict.
struct SimIdBatch {
  std::vector<uint32_t> a_ids, b_ids;
  std::vector<size_t> a_offsets{0}, b_offsets{0};
  std::vector<uint32_t> rows;  // selection vector
  std::vector<double> out;

  size_t size() const { return rows.size(); }
  void Clear() {
    a_ids.clear();
    b_ids.clear();
    a_offsets.assign(1, 0);
    b_offsets.assign(1, 0);
    rows.clear();
  }
  void Push(uint32_t row, const std::vector<uint32_t>& a,
            const std::vector<uint32_t>& b) {
    a_ids.insert(a_ids.end(), a.begin(), a.end());
    b_ids.insert(b_ids.end(), b.begin(), b.end());
    a_offsets.push_back(a_ids.size());
    b_offsets.push_back(b_ids.size());
    rows.push_back(row);
  }
};

/// Columnar scratch batch for edit-distance pairs: two CSR char columns
/// plus the selection vector.
struct SimCharBatch {
  std::vector<char> a_chars, b_chars;
  std::vector<size_t> a_offsets{0}, b_offsets{0};
  std::vector<uint32_t> rows;
  std::vector<int> out;

  size_t size() const { return rows.size(); }
  void Clear() {
    a_chars.clear();
    b_chars.clear();
    a_offsets.assign(1, 0);
    b_offsets.assign(1, 0);
    rows.clear();
  }
  void Push(uint32_t row, const std::string& a, const std::string& b) {
    a_chars.insert(a_chars.end(), a.begin(), a.end());
    b_chars.insert(b_chars.end(), b.begin(), b.end());
    a_offsets.push_back(a_chars.size());
    b_offsets.push_back(b_chars.size());
    rows.push_back(row);
  }
};

}  // namespace simdb::hyracks

#endif  // SIMDB_HYRACKS_BATCH_H_
