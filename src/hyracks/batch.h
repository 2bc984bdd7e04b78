#ifndef SIMDB_HYRACKS_BATCH_H_
#define SIMDB_HYRACKS_BATCH_H_

// Batch execution support for NL-JOIN's similarity verification.
//
// NL-JOIN detects a vectorizable similarity check at plan-build time
// (MatchSimCheckCall), encodes each side's token lists once into dense
// occurrence-distinct uint32 ids (TokenIdEncoder::EncodeValue), and runs
// one probe against all of a partition's candidates through the
// runtime-dispatched simd:: kernels. Pairs the encoder cannot handle fall
// back to the row evaluator. Both paths are answer-identical (checked by
// the batch differential fuzz seeds). Every other operator evaluates
// similarity predicates one row at a time through CallExpr.

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "adm/value.h"
#include "hyracks/exec.h"
#include "hyracks/expr.h"

namespace simdb::hyracks {

/// Counters for NL-JOIN's batch path. The full exec.batch.* trio is
/// emitted (zeros included) whenever profiling is on, so EXPLAIN PROFILE
/// deterministically shows whether a join ran vectorized or fell back.
struct BatchStats {
  uint64_t rows = 0;       // pairs through the kernels
  uint64_t batches = 0;    // kernel calls (one per encodable probe row)
  uint64_t fallback_rows = 0;  // pairs evaluated tuple-at-a-time

  void Emit(ExecContext& ctx) const {
    if (ctx.counters == nullptr) return;
    CountOp(ctx, "exec.batch.rows", rows);
    CountOp(ctx, "exec.batch.batches", batches);
    CountOp(ctx, "exec.batch.fallback_rows", fallback_rows);
  }
};

/// A similarity check NL-JOIN's batch path can vectorize.
struct SimBatchCall {
  enum class Kind {
    kJaccardCheck,       // similarity-jaccard-check(a, b, literal-delta)
    kEditDistanceCheck,  // edit-distance-check(a, b, literal-k)
  };
  Kind kind;
  ExprPtr arg_a;
  ExprPtr arg_b;
  double threshold = 0.0;  // delta (Jaccard) or k (edit distance)
};

/// Matches the verification predicates the optimizer emits for NL-JOIN:
/// similarity-jaccard-check / edit-distance-check with a numeric literal
/// threshold.
std::optional<SimBatchCall> MatchSimCheckCall(const ExprPtr& expr);

/// Accumulates the [min, max] column-reference range of `expr` into
/// *min_col / *max_col. Returns false for expression shapes it does not
/// know (conservative: the caller must not assume side-purity then).
bool ColumnRange(const Expr* expr, int* min_col, int* max_col);

/// True when evaluating `expr` on a row holding its columns can raise no
/// error: a column, a literal, or a field access on one (a field of a
/// non-object is MISSING).
bool CannotFail(const Expr* expr);

/// Encodes token-list values into sorted dense uint32 id lists such that
/// multiset intersection/union sizes are preserved exactly: the k-th
/// occurrence of a token within one list maps to its own id, consistently
/// across every list this encoder sees, so the unique-id SIMD intersection
/// equals the multiset merge of the original tokens. One encoder instance is
/// local to one operator invocation (ids need not be stable across
/// partitions).
class TokenIdEncoder {
 public:
  /// Encodes one join side's list: all-strings lists use the string id
  /// space, all-int64 lists the int64 id space, anything else returns false
  /// (the caller falls back to the row evaluator). Cross-typed pairs then
  /// intersect to zero in id space, matching the boxed-value comparison of
  /// the tuple path.
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

}  // namespace simdb::hyracks

#endif  // SIMDB_HYRACKS_BATCH_H_
