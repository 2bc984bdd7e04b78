#ifndef SIMDB_STORAGE_INVERTED_INDEX_H_
#define SIMDB_STORAGE_INVERTED_INDEX_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "similarity/simd_kernels.h"
#include "storage/lsm_index.h"
#include "storage/token_dictionary.h"

namespace simdb::storage {

/// Algorithm used to solve the T-occurrence problem over posting lists.
enum class TOccurrenceAlgorithm {
  kScanCount,  // count occurrences in a slot-indexed counter array (default)
  kHeapMerge,  // k-way merge of sorted lists counting equal runs
};

/// Counters describing one inverted-index search (reported by Table 6 and
/// the kernel ablation benches).
struct InvertedSearchStats {
  uint64_t lists_probed = 0;
  uint64_t postings_read = 0;
  uint64_t candidates = 0;
  /// Distinct keys whose occurrence count fell below the T threshold — the
  /// candidates the T-occurrence filter pruned.
  uint64_t keys_pruned = 0;
  /// Posting-list cache behaviour: hits served from decoded lists, misses
  /// decoded from the LSM. Probes for tokens unknown to the dictionary touch
  /// neither (they are proven empty without storage access).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

/// One decoded posting list: the sorted pks plus, aligned 1:1, the dense
/// per-index candidate slot of each pk (see the slot registry below).
struct DecodedPostingList {
  std::vector<int64_t> pks;
  std::vector<uint32_t> slots;
};

/// A secondary inverted index on one field, stored as an LSM index with
/// composite keys [token, pk]. Serves both the "keyword" and "n-gram" index
/// types of the paper; the difference is only in how keys are tokenized
/// (see index_tokens.h).
///
/// Tokens are dictionary-encoded to dense uint32 ids (ascending global-
/// frequency order after Open/BulkLoad, see TokenDictionary). The read path
/// decodes each posting list from the LSM once into a flat sorted
/// std::vector<int64_t> and keeps it in a bounded per-partition cache that
/// is invalidated by Insert/Remove/BulkLoad.
class InvertedIndex {
 public:
  static Result<std::unique_ptr<InvertedIndex>> Open(std::string dir,
                                                     LsmOptions options = {});

  /// Adds one posting per token. Tokens must already be occurrence-deduped
  /// (DedupOccurrences) so multiset semantics are preserved.
  Status Insert(const std::vector<std::string>& tokens, int64_t pk);
  Status Remove(const std::vector<std::string>& tokens, int64_t pk);

  /// Sorted bulk load of (token, pk) pairs; input need not be sorted. The
  /// token dictionary is rebuilt in global-frequency order afterwards.
  Status BulkLoad(std::vector<std::pair<std::string, int64_t>> postings);

  /// Returns the sorted pks on the posting list of `token`.
  Result<std::vector<int64_t>> PostingList(const std::string& token) const;

  /// Shared decoded posting list for `token` (empty list when the token is
  /// unknown): pks plus aligned dense slots. Served from the cache when
  /// `use_cache` is set; the returned list stays valid even if the cache is
  /// invalidated afterwards. Callers read spans over the cached arrays —
  /// there is no per-hit copy.
  Result<std::shared_ptr<const DecodedPostingList>> FetchDecoded(
      const std::string& token, bool use_cache = true,
      InvertedSearchStats* stats = nullptr) const;

  /// Solves the T-occurrence problem: returns the sorted pks that appear on
  /// at least `t` of the query tokens' posting lists. `t` must be >= 1 (the
  /// caller is responsible for corner-case detection when t <= 0). Query
  /// tokens must be occurrence-deduped (duplicates are ignored here).
  ///
  /// ScanCount counts occurrences in a dense counter array indexed by
  /// candidate slot, directly over the cached posting arrays: no gather
  /// copy, no per-posting hash. Callers that probe repeatedly pass a
  /// `scratch` to reuse across probes; a null one means a local scratch.
  Result<std::vector<int64_t>> SearchTOccurrence(
      const std::vector<std::string>& query_tokens, int t,
      TOccurrenceAlgorithm algorithm = TOccurrenceAlgorithm::kScanCount,
      InvertedSearchStats* stats = nullptr, bool use_cache = true,
      simd::TOccurrenceScratch* scratch = nullptr) const;

  /// Token -> dense id mapping covering every token this index has stored
  /// (a superset after removes; rebuilt frequency-ordered by Open/BulkLoad).
  const TokenDictionary& dictionary() const { return dict_; }

  /// Test hooks for the posting-list cache. Lowering the budget evicts
  /// already-cached lists down to the new bound.
  void set_cache_budget_postings(size_t budget);
  size_t cached_postings() const;
  size_t cached_lists() const;

  Status Flush() { return lsm_->Flush(); }
  uint64_t DiskSizeBytes() const { return lsm_->DiskSizeBytes(); }
  LsmIndex* lsm() { return lsm_.get(); }

 private:
  explicit InvertedIndex(std::unique_ptr<LsmIndex> lsm)
      : lsm_(std::move(lsm)) {}

  /// Rebuilds the dictionary (frequency-ordered) from a full LSM scan.
  Status RebuildDictionary();

  /// Decodes the posting list of the dictionary token `id` from the LSM,
  /// resolving each pk to its dense slot. A pk missing from the registry is
  /// an internal error.
  Result<DecodedPostingList> DecodePostings(uint32_t id) const;

  /// Registers `pk` in the slot registry (idempotent).
  void RegisterPk(int64_t pk);

  void InvalidateCache();

  /// FIFO-evicts cached lists until the budget holds.
  void EvictOverBudgetLocked() const SIMDB_REQUIRES(cache_mu_);

  std::unique_ptr<LsmIndex> lsm_;
  TokenDictionary dict_;

  /// Dense pk -> slot registry for ScanCount: every pk this index has
  /// stored gets a small dense id (a "slot"), so a probe can count
  /// occurrences in a flat uint32 array instead of hashing 64-bit pks.
  /// Rebuilt by Open/BulkLoad, extended by Insert before its first posting
  /// lands; mutations happen under the same exclusive-DDL regime as the
  /// token dictionary.
  std::unordered_map<int64_t, uint32_t> pk_slot_;
  std::vector<int64_t> slot_pk_;

  /// Decoded-posting-list cache, keyed by token id and bounded by the total
  /// number of cached postings (FIFO eviction). Guarded by a mutex so the
  /// per-partition executor tasks can share an index instance safely.
  mutable Mutex cache_mu_{lockrank::Rank::kPostingCache,
                          "InvertedIndex::cache_mu_"};
  mutable std::unordered_map<uint32_t, std::shared_ptr<const DecodedPostingList>>
      cache_ SIMDB_GUARDED_BY(cache_mu_);
  mutable std::deque<uint32_t> cache_order_ SIMDB_GUARDED_BY(cache_mu_);
  mutable size_t cache_postings_ SIMDB_GUARDED_BY(cache_mu_) = 0;
  size_t cache_budget_postings_ SIMDB_GUARDED_BY(cache_mu_) =
      1u << 22;  // ~32 MB of int64 postings
};

}  // namespace simdb::storage

#endif  // SIMDB_STORAGE_INVERTED_INDEX_H_
