#ifndef SIMDB_SIMILARITY_SIMD_KERNELS_H_
#define SIMDB_SIMILARITY_SIMD_KERNELS_H_

// Runtime-dispatched SIMD kernels for the similarity operators.
//
// Every kernel here has a scalar body that is bit-identical to the
// tuple-path reference in similarity/jaccard.h / similarity/edit_distance.h,
// plus (where profitable) an AVX2 body compiled with
// __attribute__((target("avx2"))) so the translation unit builds under
// plain -march=x86-64 and the tier is chosen per-process from cpuid. The
// batch-on/off differential fuzz seeds rely on the bit-identical contract:
// a kernel may reorder work (blocked intersection, bit-parallel DP) but the
// returned doubles/ints must equal the scalar reference exactly.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace simdb::simd {

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Instruction-set tier a kernel dispatches to.
enum class DispatchLevel { kScalar = 0, kAvx2 = 1 };

/// Highest tier this binary + CPU supports (cpuid probe, cached).
DispatchLevel MaxSupportedLevel();

/// The tier kernels actually run at: MaxSupportedLevel() clamped by the
/// SIMDB_SIMD environment variable ("scalar" | "avx2"), read once. The
/// no-AVX2 CI job pins SIMDB_SIMD=scalar to exercise the fallback
/// end-to-end on AVX2 hardware.
DispatchLevel ActiveLevel();

const char* LevelName(DispatchLevel level);

/// Test hook: pins the active level (clamped to MaxSupportedLevel) so the
/// unit tests can run every kernel at every tier in one process. Not
/// synchronized against concurrently running kernels.
void SetActiveLevelForTest(DispatchLevel level);

// ---------------------------------------------------------------------------
// Kernel 1: sorted-id intersection + Jaccard verification
// ---------------------------------------------------------------------------

/// Multiset intersection size of two sorted uint32 id lists. Drop-in for
/// similarity::IntersectSortedIds on dense token ids. Lists with no
/// duplicates take the galloping/AVX2 path; duplicated inputs fall back to
/// the scalar multiset merge (same result).
size_t IntersectSortedIds(const uint32_t* a, size_t la, const uint32_t* b,
                          size_t lb);

/// Jaccard similarity of two sorted id multisets; mirrors
/// similarity::JaccardSortedIds exactly (both-empty => 0.0, union 0 => 1.0).
double JaccardSortedIds(const uint32_t* a, size_t la, const uint32_t* b,
                        size_t lb);

/// Verification variant: returns the similarity when it is >= delta and
/// -1.0 otherwise, with the same length filter and early termination
/// decisions as similarity::JaccardCheckSortedIds (bit-identical output).
double JaccardCheckSortedIds(const uint32_t* a, size_t la, const uint32_t* b,
                             size_t lb, double delta);

/// Batched check of one sorted probe against `n` candidate id lists in CSR
/// layout (candidate i occupies ids[offsets[i]..offsets[i+1])). Writes the
/// per-candidate JaccardCheckSortedIds result into out[i].
///
/// `assume_unique`: the caller guarantees every id list is duplicate-free,
/// so the kernels skip the multiset pre-scan. The operators' occurrence-
/// distinct TokenIdEncoder output satisfies this by construction; with the
/// guarantee violated the intersection counts (and so the results) are
/// undefined. Defaults to the multiset-safe scan.
void JaccardCheckBatch(const uint32_t* probe, size_t probe_len,
                       const uint32_t* ids, const size_t* offsets, size_t n,
                       double delta, double* out, bool assume_unique = false);

/// Batched check over `n` independent (a, b) pairs, both sides CSR. Writes
/// JaccardCheckSortedIds(a_i, b_i, delta) into out[i]. `assume_unique` as
/// in JaccardCheckBatch. No operator calls it: it is the pair-at-a-time
/// shape perfbench's kernel layer times (`kernel.jaccard_check_ns`).
void JaccardCheckPairs(const uint32_t* a_ids, const size_t* a_offsets,
                       const uint32_t* b_ids, const size_t* b_offsets,
                       size_t n, double delta, double* out,
                       bool assume_unique = false);

// ---------------------------------------------------------------------------
// Kernel 2: edit-distance verification (Myers bit-parallel DP)
// ---------------------------------------------------------------------------

/// One probe string verified against many candidates. Patterns up to 64
/// characters run the Myers bit-parallel recurrence on a per-character
/// match-mask table built once and shared across every candidate; longer
/// patterns fall back to the banded DP reference. All paths return exactly
/// what similarity::EditDistanceCheck returns: the distance when <= k,
/// -1 otherwise.
class EditDistancePattern {
 public:
  explicit EditDistancePattern(std::string_view pattern);

  /// Distance to `text` if <= k, else -1.
  int Check(std::string_view text, int k) const;

  /// Batched verification of `n` candidates in CSR layout (candidate i is
  /// chars[offsets[i]..offsets[i+1])). Candidates of equal length are
  /// verified four at a time in AVX2 lanes when that tier is active.
  void CheckBatch(const char* chars, const size_t* offsets, size_t n, int k,
                  int* out) const;

  bool bit_parallel() const { return bit_parallel_; }

 private:
  int CheckBitParallel(std::string_view text, int k) const;

  std::string pattern_;
  bool bit_parallel_ = false;       // pattern fits one 64-bit word
  std::array<uint64_t, 256> peq_{};  // per-character pattern match masks
};

/// Single-pair form, same results as EditDistancePattern(a).Check(b, k). It
/// sets only the match masks of the bytes it reads instead of building a
/// whole pattern table. The `edit-distance-check` builtin verifies two
/// strings through it.
int EditDistanceCheck(std::string_view a, std::string_view b, int k);

/// Batched check over `n` independent (a, b) string pairs, both sides CSR.
/// No operator calls it: perfbench's kernel layer times it
/// (`kernel.ed_check_ns`).
void EditDistanceCheckPairs(const char* a_chars, const size_t* a_offsets,
                            const char* b_chars, const size_t* b_offsets,
                            size_t n, int k, int* out);

// ---------------------------------------------------------------------------
// Kernel 3: batched T-occurrence counting over dense ids
// ---------------------------------------------------------------------------

/// Reusable scratch for counter-array T-occurrence: a dense uint32 counter
/// per candidate slot plus the list of slots touched by the current probe,
/// so reset cost is proportional to candidates touched, not to the slot
/// universe.
struct TOccurrenceScratch {
  std::vector<uint32_t> counts;
  std::vector<uint32_t> touched;

  /// Grows (never shrinks) the counter array to cover `num_slots` slots.
  void EnsureSlots(size_t num_slots) {
    if (counts.size() < num_slots) counts.resize(num_slots, 0);
  }
};

/// Counts slot occurrences across `num_lists` posting lists of dense slot
/// ids and appends every slot whose count >= t to `result` (unsorted).
/// Slots touched but below threshold are added to *pruned. The caller
/// guarantees that scratch covers every slot id that appears.
void TOccurrenceCount(const uint32_t* const* lists, const size_t* sizes,
                      size_t num_lists, int t, TOccurrenceScratch& scratch,
                      std::vector<uint32_t>* result, uint64_t* pruned);

}  // namespace simdb::simd

#endif  // SIMDB_SIMILARITY_SIMD_KERNELS_H_
