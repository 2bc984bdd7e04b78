#include "similarity/simd_kernels.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdlib>

#include "similarity/edit_distance.h"

#if defined(__x86_64__) || defined(_M_X64)
#define SIMDB_SIMD_X86 1
#include <immintrin.h>
#else
#define SIMDB_SIMD_X86 0
#endif

namespace simdb::simd {

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

namespace {

DispatchLevel DetectMaxLevel() {
#if SIMDB_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return DispatchLevel::kAvx2;
#endif
  return DispatchLevel::kScalar;
}

DispatchLevel InitialLevel() {
  DispatchLevel max_level = DetectMaxLevel();
  const char* env = std::getenv("SIMDB_SIMD");
  if (env == nullptr) return max_level;
  std::string_view v(env);
  if (v == "scalar") return DispatchLevel::kScalar;
  return max_level;  // "avx2" and unknown values both mean "best supported"
}

std::atomic<DispatchLevel>& ActiveLevelSlot() {
  static std::atomic<DispatchLevel> level{InitialLevel()};
  return level;
}

}  // namespace

DispatchLevel MaxSupportedLevel() {
  static const DispatchLevel level = DetectMaxLevel();
  return level;
}

DispatchLevel ActiveLevel() {
  return ActiveLevelSlot().load(std::memory_order_relaxed);
}

const char* LevelName(DispatchLevel level) {
  return level == DispatchLevel::kAvx2 ? "avx2" : "scalar";
}

void SetActiveLevelForTest(DispatchLevel level) {
  if (level > MaxSupportedLevel()) level = MaxSupportedLevel();
  ActiveLevelSlot().store(level, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Kernel 1: sorted-id intersection + Jaccard verification
// ---------------------------------------------------------------------------

namespace {

bool HasSortedDuplicatesScalar(const uint32_t* p, size_t n) {
  for (size_t i = 1; i < n; ++i) {
    if (p[i] == p[i - 1]) return true;
  }
  return false;
}

#if SIMDB_SIMD_X86

/// Adjacent-equality scan, eight pairs per compare: p[i..i+7] vs
/// p[i-1..i+6]. The pre-scan runs on every kernel call, so it must cost a
/// fraction of the merge it guards.
__attribute__((target("avx2"))) inline bool HasSortedDuplicatesAvx2(
    const uint32_t* p, size_t n) {
  size_t i = 1;
  for (; i + 8 <= n; i += 8) {
    __m256i cur =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    __m256i prev =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i - 1));
    if (_mm256_movemask_epi8(_mm256_cmpeq_epi32(cur, prev)) != 0) return true;
  }
  for (; i < n; ++i) {
    if (p[i] == p[i - 1]) return true;
  }
  return false;
}

/// Boundary twin of the scan for calls from baseline-ISA code: the explicit
/// vzeroupper cleans the ymm state the scan dirties, so the dirty-upper
/// merge penalty cannot leak into the caller's legacy-SSE code. The inline
/// scan above deliberately skips per-call cleanup — inside the AVX2 batch
/// drivers a vzeroupper would clobber their ymm-resident constants.
__attribute__((target("avx2"))) bool HasSortedDuplicatesAvx2Clean(
    const uint32_t* p, size_t n) {
  bool r = HasSortedDuplicatesAvx2(p, n);
  _mm256_zeroupper();
  return r;
}

#endif  // SIMDB_SIMD_X86

bool HasSortedDuplicates(const uint32_t* p, size_t n, bool avx2) {
#if SIMDB_SIMD_X86
  if (avx2) return HasSortedDuplicatesAvx2Clean(p, n);
#endif
  (void)avx2;
  return HasSortedDuplicatesScalar(p, n);
}

/// Reference multiset merge — identical to similarity::IntersectSortedIds.
size_t MultisetIntersect(const uint32_t* a, size_t la, const uint32_t* b,
                         size_t lb) {
  size_t i = 0, j = 0, inter = 0;
  while (i < la && j < lb) {
    uint32_t x = a[i], y = b[j];
    if (x == y) {
      ++inter;
      ++i;
      ++j;
    } else if (x < y) {
      ++i;
    } else {
      ++j;
    }
  }
  return inter;
}

/// Galloping intersection for unique sorted lists with heavy size skew
/// (|small| * 16 < |big|): exponential search in the big list per element
/// of the small one. The posting-list shapes after the length filter are
/// exactly this skewed.
size_t GallopIntersect(const uint32_t* small, size_t ls, const uint32_t* big,
                       size_t lb) {
  size_t count = 0;
  const uint32_t* lo = big;
  const uint32_t* end = big + lb;
  for (size_t i = 0; i < ls && lo < end; ++i) {
    uint32_t x = small[i];
    const uint32_t* p = lo;
    size_t step = 1;
    while (p + step < end && p[step] < x) {
      p += step;
      step <<= 1;
    }
    const uint32_t* hi = (p + step + 1 < end) ? p + step + 1 : end;
    lo = std::lower_bound(p, hi, x);
    if (lo < end && *lo == x) {
      ++count;
      ++lo;
    }
  }
  return count;
}

/// Verbatim body of similarity::JaccardCheckSortedNum<uint32_t> on raw
/// pointers — the bit-identity anchor for the AVX2 check below. The body
/// is an always_inline helper so it can be instantiated twice: at the
/// baseline ISA (ScalarJaccardCheck) and VEX-encoded for calls from inside
/// the AVX2 kernels (ScalarJaccardCheckVex).
__attribute__((always_inline)) inline double ScalarJaccardCheckImpl(
    const uint32_t* a, size_t la, const uint32_t* b, size_t lb,
    double delta) {
  double dsum = delta * static_cast<double>(la + lb);
  size_t i = 0, j = 0, inter = 0;
  while (i < la && j < lb) {
    size_t best_inter = inter + std::min(la - i, lb - j);
    if ((1.0 + delta) * static_cast<double>(best_inter) < dsum) {
      double best_jacc = static_cast<double>(best_inter) /
                         static_cast<double>(la + lb - best_inter);
      if (best_jacc < delta) return -1.0;
    }
    uint32_t x = a[i], y = b[j];
    if (x == y) {
      ++inter;
      ++i;
      ++j;
    } else if (x < y) {
      ++i;
    } else {
      ++j;
    }
  }
  double jacc =
      static_cast<double>(inter) / static_cast<double>(la + lb - inter);
  return jacc >= delta ? jacc : -1.0;
}

double ScalarJaccardCheck(const uint32_t* a, size_t la, const uint32_t* b,
                          size_t lb, double delta) {
  return ScalarJaccardCheckImpl(a, la, b, lb, delta);
}

#if SIMDB_SIMD_X86

/// VEX-encoded twin of ScalarJaccardCheck for fallback calls from AVX2
/// context. Calling the legacy-SSE copy from ymm-dirty code is a trap:
/// GCC's vzeroupper pass misses tail-call edges, legacy SSE executed with
/// dirty uppers pays a per-instruction merge penalty, and the dirty state
/// then leaks out to every later legacy-SSE instruction in the process.
/// The VEX encoding has no dirty-upper penalty; results are bit-identical.
__attribute__((target("avx2"))) double ScalarJaccardCheckVex(
    const uint32_t* a, size_t la, const uint32_t* b, size_t lb,
    double delta) {
  return ScalarJaccardCheckImpl(a, la, b, lb, delta);
}

/// 8x8 blocked intersection of unique sorted lists (Schlegel/Lemire style):
/// compare an 8-lane window of `a` against all eight rotations of an 8-lane
/// window of `b`, popcount the matched a-lanes, then advance whichever
/// window has the smaller maximum. Uniqueness guarantees each a-lane is
/// counted at most once across iterations. Returns the count over the
/// blocked region and the scalar resume positions.
/// The eight rotations of a window, as independent shuffle controls: eight
/// chained `permutevar(r, rot1)` steps serialize on a ~3-cycle latency each,
/// while eight permutes of the same source pipeline at one per cycle.
__attribute__((target("avx2"))) inline __m256i RotationControl(int k) {
  return _mm256_setr_epi32(k % 8, (k + 1) % 8, (k + 2) % 8, (k + 3) % 8,
                           (k + 4) % 8, (k + 5) % 8, (k + 6) % 8,
                           (k + 7) % 8);
}

__attribute__((target("avx2"))) size_t IntersectUniqueAvx2(
    const uint32_t* a, size_t la, const uint32_t* b, size_t lb, size_t* ai,
    size_t* bj) {
  const __m256i rot[7] = {RotationControl(1), RotationControl(2),
                          RotationControl(3), RotationControl(4),
                          RotationControl(5), RotationControl(6),
                          RotationControl(7)};
  size_t i = 0, j = 0, count = 0;
  while (i + 8 <= la && j + 8 <= lb) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    __m256i match = _mm256_cmpeq_epi32(va, vb);
    // Lists that survived the length + T-occurrence filters are mostly
    // equal, so fully-matching windows dominate: skip the rotations.
    if (_mm256_movemask_epi8(match) == -1) {
      count += 8;
      i += 8;
      j += 8;
      continue;
    }
    for (int k = 0; k < 7; ++k) {
      match = _mm256_or_si256(
          match,
          _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot[k])));
    }
    count += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(match)))));
    uint32_t amax = a[i + 7], bmax = b[j + 7];
    if (amax <= bmax) i += 8;
    if (bmax <= amax) j += 8;
  }
  *ai = i;
  *bj = j;
  return count;
}

/// JaccardCheck over unique sorted lists: the blocked intersection with the
/// reference's divisionless early-exit screen applied per block. The screen
/// uses a valid upper bound on the final intersection and is confirmed by
/// the exact division, so every early -1.0 agrees with the reference's
/// final `jacc >= delta` test; when no exit fires the exact count feeds the
/// identical division.
__attribute__((target("avx2"))) inline double JaccardCheckUniqueAvx2(
    const uint32_t* a, size_t la, const uint32_t* b, size_t lb,
    double delta) {
  const double dsum = delta * static_cast<double>(la + lb);
  const __m256i rot[7] = {RotationControl(1), RotationControl(2),
                          RotationControl(3), RotationControl(4),
                          RotationControl(5), RotationControl(6),
                          RotationControl(7)};
  // Pre-filter threshold for the per-block screen. It only gates the exact
  // `best_jacc < delta` re-check below, which alone decides the early -1,
  // so the rearranged arithmetic cannot change any verdict.
  const double screen_thresh = dsum / (1.0 + delta);
  size_t i = 0, j = 0, inter = 0;
  while (i + 8 <= la && j + 8 <= lb) {
    size_t best_inter = inter + std::min(la - i, lb - j);
    if (static_cast<double>(best_inter) < screen_thresh) {
      double best_jacc = static_cast<double>(best_inter) /
                         static_cast<double>(la + lb - best_inter);
      if (best_jacc < delta) return -1.0;
    }
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    __m256i match = _mm256_cmpeq_epi32(va, vb);
    // Fully-matching windows dominate on near-duplicate candidates.
    if (_mm256_movemask_epi8(match) == -1) {
      inter += 8;
      i += 8;
      j += 8;
      continue;
    }
    for (int k = 0; k < 7; ++k) {
      match = _mm256_or_si256(
          match,
          _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot[k])));
    }
    inter += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(match)))));
    uint32_t amax = a[i + 7], bmax = b[j + 7];
    if (amax <= bmax) i += 8;
    if (bmax <= amax) j += 8;
  }
  // Screenless scalar tail (< 15 steps): the per-step screen is a pure
  // early-exit optimization — skipping it cannot change the verdict, which
  // the final division decides identically either way.
  while (i < la && j < lb) {
    uint32_t x = a[i], y = b[j];
    if (x == y) {
      ++inter;
      ++i;
      ++j;
    } else if (x < y) {
      ++i;
    } else {
      ++j;
    }
  }
  double jacc =
      static_cast<double>(inter) / static_cast<double>(la + lb - inter);
  return jacc >= delta ? jacc : -1.0;
}

/// Single-pair check with the AVX2 dup-scan and merge inlined.
/// `a_unique`/`b_unique`: -1 = unknown (scan here), 0 = has duplicates,
/// 1 = caller-guaranteed unique (the scan is skipped entirely).
__attribute__((target("avx2"))) inline double JaccardCheckOneAvx2(
    const uint32_t* a, size_t la, const uint32_t* b, size_t lb, double delta,
    int a_unique, int b_unique) {
  if (la == 0 && lb == 0) return 0.0 >= delta ? 0.0 : -1.0;
  double min_len = static_cast<double>(std::min(la, lb));
  double max_len = static_cast<double>(std::max(la, lb));
  if (max_len > 0 && min_len / max_len < delta) return -1.0;
  // Below ~1.5 vector blocks of merge work the scalar merge wins; both
  // paths return identical values, so the cutover is pure tuning.
  if (la >= 8 && lb >= 8 && la + lb >= 24) {
    bool au = a_unique >= 0 ? a_unique == 1 : !HasSortedDuplicatesAvx2(a, la);
    if (au && (b_unique >= 0 ? b_unique == 1
                             : !HasSortedDuplicatesAvx2(b, lb))) {
      return JaccardCheckUniqueAvx2(a, la, b, lb, delta);
    }
  }
  return ScalarJaccardCheckVex(a, la, b, lb, delta);
}

/// Non-inlined boundary for single-pair calls from baseline-ISA code: the
/// explicit vzeroupper guarantees the upper-ymm state is clean on return no
/// matter which internal path ran (the inline helpers above deliberately
/// skip per-call cleanup so batch drivers can keep constants in ymm).
__attribute__((target("avx2"))) double JaccardCheckSingleAvx2(
    const uint32_t* a, size_t la, const uint32_t* b, size_t lb, double delta,
    int a_unique, int b_unique) {
  double r = JaccardCheckOneAvx2(a, la, b, lb, delta, a_unique, b_unique);
  _mm256_zeroupper();
  return r;
}


/// Whole-batch AVX2 driver: one target("avx2") function wrapping the
/// candidate loop so the scan and merge kernels inline into it and their
/// vector constants are hoisted out of the loop — per-candidate call
/// overhead is what the per-pair baseline spends most of its time on.
__attribute__((target("avx2"))) void JaccardCheckBatchAvx2(
    const uint32_t* probe, size_t probe_len, int probe_unique,
    const uint32_t* ids, const size_t* offsets, size_t n, double delta,
    double* out, int cand_unique) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = JaccardCheckOneAvx2(probe, probe_len, ids + offsets[i],
                                 offsets[i + 1] - offsets[i], delta,
                                 probe_unique, cand_unique);
  }
  // Leave with clean upper-ymm state: the caller resumes legacy-SSE code.
  _mm256_zeroupper();
}

__attribute__((target("avx2"))) void JaccardCheckPairsAvx2(
    const uint32_t* a_ids, const size_t* a_offsets, const uint32_t* b_ids,
    const size_t* b_offsets, size_t n, double delta, double* out,
    int unique) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = JaccardCheckOneAvx2(
        a_ids + a_offsets[i], a_offsets[i + 1] - a_offsets[i],
        b_ids + b_offsets[i], b_offsets[i + 1] - b_offsets[i], delta, unique,
        unique);
  }
  _mm256_zeroupper();
}

#endif  // SIMDB_SIMD_X86

size_t IntersectUniqueSorted(const uint32_t* a, size_t la, const uint32_t* b,
                             size_t lb, bool avx2) {
  if (la > lb) {
    std::swap(a, b);
    std::swap(la, lb);
  }
  if (la * 16 < lb) return GallopIntersect(a, la, b, lb);
#if SIMDB_SIMD_X86
  if (avx2 && la >= 8) {
    size_t i = 0, j = 0;
    size_t count = IntersectUniqueAvx2(a, la, b, lb, &i, &j);
    return count + MultisetIntersect(a + i, la - i, b + j, lb - j);
  }
#endif
  (void)avx2;
  return MultisetIntersect(a, la, b, lb);
}

double JaccardCheckDispatch(const uint32_t* a, size_t la, const uint32_t* b,
                            size_t lb, double delta, bool avx2) {
#if SIMDB_SIMD_X86
  if (avx2) {
    return JaccardCheckSingleAvx2(a, la, b, lb, delta, /*a_unique=*/-1,
                                  /*b_unique=*/-1);
  }
#endif
  (void)avx2;
  if (la == 0 && lb == 0) return 0.0 >= delta ? 0.0 : -1.0;
  double min_len = static_cast<double>(std::min(la, lb));
  double max_len = static_cast<double>(std::max(la, lb));
  if (max_len > 0 && min_len / max_len < delta) return -1.0;
  return ScalarJaccardCheck(a, la, b, lb, delta);
}

bool Avx2Active() { return ActiveLevel() == DispatchLevel::kAvx2; }

}  // namespace

size_t IntersectSortedIds(const uint32_t* a, size_t la, const uint32_t* b,
                          size_t lb) {
  if (la == 0 || lb == 0) return 0;
  const bool avx2 = Avx2Active();
  if (HasSortedDuplicates(a, la, avx2) || HasSortedDuplicates(b, lb, avx2)) {
    return MultisetIntersect(a, la, b, lb);
  }
  return IntersectUniqueSorted(a, la, b, lb, avx2);
}

double JaccardSortedIds(const uint32_t* a, size_t la, const uint32_t* b,
                        size_t lb) {
  if (la == 0 && lb == 0) return 0.0;
  size_t inter = IntersectSortedIds(a, la, b, lb);
  size_t uni = la + lb - inter;
  return uni == 0 ? 1.0
                  : static_cast<double>(inter) / static_cast<double>(uni);
}

double JaccardCheckSortedIds(const uint32_t* a, size_t la, const uint32_t* b,
                             size_t lb, double delta) {
  return JaccardCheckDispatch(a, la, b, lb, delta, Avx2Active());
}

void JaccardCheckBatch(const uint32_t* probe, size_t probe_len,
                       const uint32_t* ids, const size_t* offsets, size_t n,
                       double delta, double* out, bool assume_unique) {
#if SIMDB_SIMD_X86
  if (Avx2Active()) {
    // One probe against many candidates: scan the probe for duplicates
    // once instead of once per candidate (or not at all under the
    // caller's uniqueness guarantee).
    const int probe_unique =
        assume_unique
            ? 1
            : (HasSortedDuplicatesAvx2Clean(probe, probe_len) ? 0 : 1);
    JaccardCheckBatchAvx2(probe, probe_len, probe_unique, ids, offsets, n,
                          delta, out, /*cand_unique=*/assume_unique ? 1 : -1);
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) {
    out[i] = JaccardCheckDispatch(probe, probe_len, ids + offsets[i],
                                  offsets[i + 1] - offsets[i], delta, false);
  }
}

void JaccardCheckPairs(const uint32_t* a_ids, const size_t* a_offsets,
                       const uint32_t* b_ids, const size_t* b_offsets,
                       size_t n, double delta, double* out,
                       bool assume_unique) {
#if SIMDB_SIMD_X86
  if (Avx2Active()) {
    JaccardCheckPairsAvx2(a_ids, a_offsets, b_ids, b_offsets, n, delta, out,
                          /*unique=*/assume_unique ? 1 : -1);
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) {
    out[i] = JaccardCheckDispatch(
        a_ids + a_offsets[i], a_offsets[i + 1] - a_offsets[i],
        b_ids + b_offsets[i], b_offsets[i + 1] - b_offsets[i], delta, false);
  }
}

// ---------------------------------------------------------------------------
// Kernel 2: edit-distance verification (Myers bit-parallel DP)
// ---------------------------------------------------------------------------

namespace {

/// Myers/Hyyrö bit-parallel Levenshtein for patterns up to 64 chars: one
/// DP column per text character in O(1) word operations. Exact distance,
/// so the "distance if <= k else -1" decisions match the banded reference.
/// Returns k+1 when the score provably cannot return to <= k (the score
/// changes by at most one per column).
int MyersDistance(const std::array<uint64_t, 256>& peq, size_t m,
                  std::string_view text, int k) {
  const uint64_t hb = 1ull << (m - 1);
  uint64_t pv = ~0ull;
  uint64_t mv = 0;
  int score = static_cast<int>(m);
  const int n = static_cast<int>(text.size());
  for (int j = 0; j < n; ++j) {
    const uint64_t eq = peq[static_cast<unsigned char>(text[j])];
    const uint64_t xv = eq | mv;
    const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    uint64_t ph = mv | ~(xh | pv);
    uint64_t mh = pv & xh;
    if (ph & hb) ++score;
    if (mh & hb) --score;
    ph = (ph << 1) | 1;
    mh <<= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
    if (score - (n - j - 1) > k) return k + 1;
  }
  return score;
}

#if SIMDB_SIMD_X86

/// Four same-length candidates per call: the Myers recurrence on four
/// 64-bit lanes of one __m256i. Bails out (reporting k+1 for every lane)
/// only when all four lanes are past recovery.
__attribute__((target("avx2"))) void MyersDistance4Avx2(
    const std::array<uint64_t, 256>& peq, size_t m,
    const char* const texts[4], size_t tlen, int k, int scores_out[4]) {
  const uint64_t hb = 1ull << (m - 1);
  const __m256i vhb = _mm256_set1_epi64x(static_cast<long long>(hb));
  const __m256i ones = _mm256_set1_epi64x(1);
  const __m256i allset = _mm256_set1_epi64x(-1);
  __m256i pv = allset;
  __m256i mv = _mm256_setzero_si256();
  int scores[4] = {static_cast<int>(m), static_cast<int>(m),
                   static_cast<int>(m), static_cast<int>(m)};
  for (size_t j = 0; j < tlen; ++j) {
    __m256i eq = _mm256_set_epi64x(
        static_cast<long long>(peq[static_cast<unsigned char>(texts[3][j])]),
        static_cast<long long>(peq[static_cast<unsigned char>(texts[2][j])]),
        static_cast<long long>(peq[static_cast<unsigned char>(texts[1][j])]),
        static_cast<long long>(peq[static_cast<unsigned char>(texts[0][j])]));
    __m256i xv = _mm256_or_si256(eq, mv);
    __m256i xh = _mm256_or_si256(
        _mm256_xor_si256(_mm256_add_epi64(_mm256_and_si256(eq, pv), pv), pv),
        eq);
    __m256i ph =
        _mm256_or_si256(mv, _mm256_andnot_si256(_mm256_or_si256(xh, pv),
                                                allset));
    __m256i mh = _mm256_and_si256(pv, xh);
    int ph_mask = _mm256_movemask_pd(_mm256_castsi256_pd(
        _mm256_cmpeq_epi64(_mm256_and_si256(ph, vhb), vhb)));
    int mh_mask = _mm256_movemask_pd(_mm256_castsi256_pd(
        _mm256_cmpeq_epi64(_mm256_and_si256(mh, vhb), vhb)));
    for (int l = 0; l < 4; ++l) {
      scores[l] += (ph_mask >> l) & 1;
      scores[l] -= (mh_mask >> l) & 1;
    }
    ph = _mm256_or_si256(_mm256_slli_epi64(ph, 1), ones);
    mh = _mm256_slli_epi64(mh, 1);
    pv = _mm256_or_si256(mh, _mm256_andnot_si256(_mm256_or_si256(xv, ph),
                                                 allset));
    mv = _mm256_and_si256(ph, xv);
    const int remaining = static_cast<int>(tlen - j - 1);
    if (scores[0] - remaining > k && scores[1] - remaining > k &&
        scores[2] - remaining > k && scores[3] - remaining > k) {
      for (int l = 0; l < 4; ++l) scores_out[l] = k + 1;
      return;
    }
  }
  for (int l = 0; l < 4; ++l) scores_out[l] = scores[l];
}

#endif  // SIMDB_SIMD_X86

/// Longest pattern the Myers recurrence handles: one 64-bit word.
constexpr size_t kMaxBitParallelPattern = 64;

/// What a check returns when no DP is needed to decide it.
constexpr int kNeedsDp = -2;

/// Decides a check without a DP where it can: a negative k, lengths more
/// than k apart (the length filter), or an empty side. Returns kNeedsDp
/// otherwise.
int CheckWithoutDp(int n, int m, int k) {
  if (k < 0 || std::abs(n - m) > k) return -1;
  if (n == 0) return m <= k ? m : -1;
  if (m == 0) return n <= k ? n : -1;
  return kNeedsDp;
}

}  // namespace

EditDistancePattern::EditDistancePattern(std::string_view pattern)
    : pattern_(pattern) {
  bit_parallel_ =
      !pattern_.empty() && pattern_.size() <= kMaxBitParallelPattern;
  if (bit_parallel_) {
    for (size_t i = 0; i < pattern_.size(); ++i) {
      peq_[static_cast<unsigned char>(pattern_[i])] |= 1ull << i;
    }
  }
}

int EditDistancePattern::CheckBitParallel(std::string_view text,
                                          int k) const {
  int d = MyersDistance(peq_, pattern_.size(), text, k);
  return d <= k ? d : -1;
}

int EditDistancePattern::Check(std::string_view text, int k) const {
  const int verdict = CheckWithoutDp(static_cast<int>(pattern_.size()),
                                     static_cast<int>(text.size()), k);
  if (verdict != kNeedsDp) return verdict;
  if (bit_parallel_) return CheckBitParallel(text, k);
  return similarity::internal::EditDistanceCheckImpl(pattern_, text, k);
}

void EditDistancePattern::CheckBatch(const char* chars, const size_t* offsets,
                                     size_t n, int k, int* out) const {
  const int plen = static_cast<int>(pattern_.size());
  std::vector<uint32_t> pending;
  pending.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int tlen = static_cast<int>(offsets[i + 1] - offsets[i]);
    out[i] = CheckWithoutDp(plen, tlen, k);
    if (out[i] == kNeedsDp) pending.push_back(static_cast<uint32_t>(i));
  }
  if (pending.empty()) return;
  if (!bit_parallel_) {
    for (uint32_t i : pending) {
      out[i] = similarity::internal::EditDistanceCheckImpl(
          pattern_,
          std::string_view(chars + offsets[i], offsets[i + 1] - offsets[i]),
          k);
    }
    return;
  }
#if SIMDB_SIMD_X86
  if (ActiveLevel() == DispatchLevel::kAvx2) {
    // Group equal-length candidates so four of them share one DP run.
    std::stable_sort(pending.begin(), pending.end(),
                     [&](uint32_t x, uint32_t y) {
                       return offsets[x + 1] - offsets[x] <
                              offsets[y + 1] - offsets[y];
                     });
    size_t g = 0;
    while (g < pending.size()) {
      const size_t tlen = offsets[pending[g] + 1] - offsets[pending[g]];
      size_t h = g;
      while (h < pending.size() &&
             offsets[pending[h] + 1] - offsets[pending[h]] == tlen) {
        ++h;
      }
      size_t idx = g;
      for (; idx + 4 <= h; idx += 4) {
        const char* texts[4] = {chars + offsets[pending[idx]],
                                chars + offsets[pending[idx + 1]],
                                chars + offsets[pending[idx + 2]],
                                chars + offsets[pending[idx + 3]]};
        int scores[4];
        MyersDistance4Avx2(peq_, pattern_.size(), texts, tlen, k, scores);
        for (int l = 0; l < 4; ++l) {
          out[pending[idx + l]] = scores[l] <= k ? scores[l] : -1;
        }
      }
      for (; idx < h; ++idx) {
        out[pending[idx]] = CheckBitParallel(
            std::string_view(chars + offsets[pending[idx]], tlen), k);
      }
      g = h;
    }
    return;
  }
#endif
  for (uint32_t i : pending) {
    out[i] = CheckBitParallel(
        std::string_view(chars + offsets[i], offsets[i + 1] - offsets[i]), k);
  }
}

int EditDistanceCheck(std::string_view a, std::string_view b, int k) {
  const int verdict = CheckWithoutDp(static_cast<int>(a.size()),
                                     static_cast<int>(b.size()), k);
  if (verdict != kNeedsDp) return verdict;
  if (a.size() > kMaxBitParallelPattern) {
    return similarity::internal::EditDistanceCheckImpl(a, b, k);
  }
  // One pair reads only the match masks of b's bytes. Clearing those
  // instead of a whole 256-entry table (and copying `a`, as
  // EditDistancePattern does) is most of the cost of a check on short
  // strings. Entries of bytes absent from `b` are never read.
  std::array<uint64_t, 256> peq;
  for (char c : b) peq[static_cast<unsigned char>(c)] = 0;
  for (char c : a) peq[static_cast<unsigned char>(c)] = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    peq[static_cast<unsigned char>(a[i])] |= 1ull << i;
  }
  const int d = MyersDistance(peq, a.size(), b, k);
  return d <= k ? d : -1;
}

void EditDistanceCheckPairs(const char* a_chars, const size_t* a_offsets,
                            const char* b_chars, const size_t* b_offsets,
                            size_t n, int k, int* out) {
  for (size_t i = 0; i < n; ++i) {
    EditDistancePattern pattern(
        std::string_view(a_chars + a_offsets[i], a_offsets[i + 1] - a_offsets[i]));
    out[i] = pattern.Check(
        std::string_view(b_chars + b_offsets[i], b_offsets[i + 1] - b_offsets[i]),
        k);
  }
}

// ---------------------------------------------------------------------------
// Kernel 3: batched T-occurrence counting over dense ids
// ---------------------------------------------------------------------------

void TOccurrenceCount(const uint32_t* const* lists, const size_t* sizes,
                      size_t num_lists, int t, TOccurrenceScratch& scratch,
                      std::vector<uint32_t>* result, uint64_t* pruned) {
  for (size_t l = 0; l < num_lists; ++l) {
    const uint32_t* slots = lists[l];
    const size_t n = sizes[l];
    for (size_t i = 0; i < n; ++i) {
      const uint32_t s = slots[i];
      if (scratch.counts[s]++ == 0) scratch.touched.push_back(s);
    }
  }
  for (uint32_t s : scratch.touched) {
    if (static_cast<int>(scratch.counts[s]) >= t) {
      result->push_back(s);
    } else {
      ++*pruned;
    }
    scratch.counts[s] = 0;
  }
  scratch.touched.clear();
}

}  // namespace simdb::simd
