#include "storage/inverted_index.h"

#include <algorithm>
#include <queue>
#include <string_view>
#include <unordered_set>

namespace simdb::storage {

using adm::Value;

Result<std::unique_ptr<InvertedIndex>> InvertedIndex::Open(std::string dir,
                                                           LsmOptions options) {
  SIMDB_ASSIGN_OR_RETURN(auto lsm, LsmIndex::Open(std::move(dir), options));
  auto index = std::unique_ptr<InvertedIndex>(new InvertedIndex(std::move(lsm)));
  SIMDB_RETURN_IF_ERROR(index->RebuildDictionary());
  return index;
}

namespace {

CompositeKey PostingKey(const std::string& token, int64_t pk) {
  return {Value::String(token), Value::Int64(pk)};
}

/// Exclusive upper bound covering every [token, pk] posting: the smallest
/// composite key greater than all of them is the next possible string after
/// `token` ('\0' is the minimum character).
CompositeKey PostingUpperBound(const std::string& token) {
  return {Value::String(token + '\0')};
}

}  // namespace

Status InvertedIndex::RebuildDictionary() {
  std::vector<std::pair<std::string, uint64_t>> counts;
  pk_slot_.clear();
  slot_pk_.clear();
  SIMDB_ASSIGN_OR_RETURN(auto it, lsm_->NewIterator());
  while (it->Valid()) {
    const CompositeKey& key = it->key();
    if (key.size() == 2 && key[0].is_string()) {
      const std::string& token = key[0].AsString();
      if (counts.empty() || counts.back().first != token) {
        counts.emplace_back(token, 1);
      } else {
        ++counts.back().second;
      }
      // The same scan seeds the pk -> slot registry ScanCount counts in.
      RegisterPk(key[1].AsInt64());
    }
    SIMDB_RETURN_IF_ERROR(it->Next());
  }
  dict_.BuildFrequencyOrdered(std::move(counts));
  return Status::OK();
}

void InvertedIndex::RegisterPk(int64_t pk) {
  auto [it, inserted] =
      pk_slot_.emplace(pk, static_cast<uint32_t>(slot_pk_.size()));
  (void)it;
  if (inserted) slot_pk_.push_back(pk);
}

void InvertedIndex::InvalidateCache() {
  MutexLock lock(cache_mu_);
  cache_.clear();
  cache_order_.clear();
  cache_postings_ = 0;
}

size_t InvertedIndex::cached_postings() const {
  MutexLock lock(cache_mu_);
  return cache_postings_;
}

size_t InvertedIndex::cached_lists() const {
  MutexLock lock(cache_mu_);
  return cache_.size();
}

Status InvertedIndex::Insert(const std::vector<std::string>& tokens,
                             int64_t pk) {
  if (tokens.empty()) return Status::OK();
  // Registered before the first posting lands, so even a failed insert
  // leaves no posting without a slot. Remove keeps the slot (a harmless
  // superset).
  RegisterPk(pk);
  for (const std::string& t : tokens) {
    dict_.GetOrAssign(t);
    SIMDB_RETURN_IF_ERROR(lsm_->Put(PostingKey(t, pk), ""));
  }
  InvalidateCache();
  return Status::OK();
}

Status InvertedIndex::Remove(const std::vector<std::string>& tokens,
                             int64_t pk) {
  // The dictionary keeps the removed tokens (a harmless superset); only the
  // decoded lists must go.
  for (const std::string& t : tokens) {
    SIMDB_RETURN_IF_ERROR(lsm_->Delete(PostingKey(t, pk)));
  }
  if (!tokens.empty()) InvalidateCache();
  return Status::OK();
}

Status InvertedIndex::BulkLoad(
    std::vector<std::pair<std::string, int64_t>> postings) {
  std::sort(postings.begin(), postings.end());
  postings.erase(std::unique(postings.begin(), postings.end()),
                 postings.end());
  std::vector<std::pair<CompositeKey, std::string>> entries;
  entries.reserve(postings.size());
  for (const auto& [token, pk] : postings) {
    entries.emplace_back(PostingKey(token, pk), "");
  }
  SIMDB_RETURN_IF_ERROR(lsm_->BulkLoadSorted(entries));
  InvalidateCache();
  // Re-establish frequency-ordered ids over the full index contents (the
  // load may have landed on top of existing runs).
  return RebuildDictionary();
}

Result<DecodedPostingList> InvertedIndex::DecodePostings(uint32_t id) const {
  const std::string& token = dict_.TokenOf(id);
  DecodedPostingList list;
  CompositeKey lower = {Value::String(token)};
  CompositeKey upper = PostingUpperBound(token);
  SIMDB_ASSIGN_OR_RETURN(auto it, lsm_->NewIterator(&lower, &upper));
  while (it->Valid()) {
    const CompositeKey& key = it->key();
    if (key.size() == 2) {
      const int64_t pk = key[1].AsInt64();
      auto slot = pk_slot_.find(pk);
      if (slot == pk_slot_.end()) {
        return Status::Internal("inverted index posting for pk " +
                                std::to_string(pk) +
                                " has no slot in the pk registry");
      }
      list.pks.push_back(pk);
      list.slots.push_back(slot->second);
    }
    SIMDB_RETURN_IF_ERROR(it->Next());
  }
  return list;
}

Result<std::shared_ptr<const DecodedPostingList>> InvertedIndex::FetchDecoded(
    const std::string& token, bool use_cache,
    InvertedSearchStats* stats) const {
  static const std::shared_ptr<const DecodedPostingList> kEmpty =
      std::make_shared<const DecodedPostingList>();
  std::optional<uint32_t> id = dict_.Lookup(token);
  // Unknown to the dictionary == never stored: no LSM probe needed.
  if (!id.has_value()) return kEmpty;
  if (use_cache) {
    MutexLock lock(cache_mu_);
    auto it = cache_.find(*id);
    if (it != cache_.end()) {
      if (stats != nullptr) ++stats->cache_hits;
      return it->second;
    }
  }
  if (stats != nullptr) ++stats->cache_misses;
  SIMDB_ASSIGN_OR_RETURN(DecodedPostingList decoded, DecodePostings(*id));
  auto list = std::make_shared<const DecodedPostingList>(std::move(decoded));
  if (use_cache) {
    MutexLock lock(cache_mu_);
    // Budget read under the lock: set_cache_budget_postings may race with
    // probes (the fuzz harness retunes between variants).
    if (list->pks.size() > cache_budget_postings_) return list;
    auto [it, inserted] = cache_.emplace(*id, list);
    (void)it;
    if (inserted) {
      cache_order_.push_back(*id);
      cache_postings_ += list->pks.size();
      EvictOverBudgetLocked();
    }
  }
  return list;
}

void InvertedIndex::EvictOverBudgetLocked() const {
  while (cache_postings_ > cache_budget_postings_ && !cache_order_.empty()) {
    uint32_t victim = cache_order_.front();
    cache_order_.pop_front();
    auto vit = cache_.find(victim);
    if (vit != cache_.end()) {
      cache_postings_ -= vit->second->pks.size();
      cache_.erase(vit);
    }
  }
}

void InvertedIndex::set_cache_budget_postings(size_t budget) {
  MutexLock lock(cache_mu_);
  cache_budget_postings_ = budget;
  EvictOverBudgetLocked();
}

Result<std::vector<int64_t>> InvertedIndex::PostingList(
    const std::string& token) const {
  SIMDB_ASSIGN_OR_RETURN(auto list, FetchDecoded(token));
  return list->pks;
}

Result<std::vector<int64_t>> InvertedIndex::SearchTOccurrence(
    const std::vector<std::string>& query_tokens, int t,
    TOccurrenceAlgorithm algorithm, InvertedSearchStats* stats, bool use_cache,
    simd::TOccurrenceScratch* scratch) const {
  if (t < 1) {
    return Status::InvalidArgument(
        "SearchTOccurrence requires t >= 1 (corner case must be handled by "
        "the plan)");
  }
  // Ignore duplicate query tokens: occurrence-deduped inputs are unique by
  // construction, but user-supplied token lists may not be.
  std::vector<const std::string*> distinct;
  {
    std::unordered_set<std::string_view> seen;
    seen.reserve(query_tokens.size());
    distinct.reserve(query_tokens.size());
    for (const std::string& q : query_tokens) {
      if (seen.insert(q).second) distinct.push_back(&q);
    }
  }
  InvertedSearchStats local;
  std::vector<int64_t> result;

  // Fetch the decoded lists once (shared, usually from the cache).
  std::vector<std::shared_ptr<const DecodedPostingList>> lists;
  lists.reserve(distinct.size());
  for (const std::string* q : distinct) {
    SIMDB_ASSIGN_OR_RETURN(auto list, FetchDecoded(*q, use_cache, &local));
    ++local.lists_probed;
    local.postings_read += list->pks.size();
    if (!list->pks.empty()) lists.push_back(std::move(list));
  }

  if (algorithm == TOccurrenceAlgorithm::kScanCount) {
    // Count occurrences in a dense counter array indexed by candidate slot,
    // reading the cached slot arrays in place (zero copy, zero hashing).
    // Reset cost is proportional to slots touched.
    simd::TOccurrenceScratch local_scratch;
    if (scratch == nullptr) scratch = &local_scratch;
    scratch->EnsureSlots(slot_pk_.size());
    std::vector<const uint32_t*> slot_lists;
    std::vector<size_t> sizes;
    slot_lists.reserve(lists.size());
    sizes.reserve(lists.size());
    for (const auto& list : lists) {
      slot_lists.push_back(list->slots.data());
      sizes.push_back(list->slots.size());
    }
    std::vector<uint32_t> hit_slots;
    simd::TOccurrenceCount(slot_lists.data(), sizes.data(), slot_lists.size(),
                           t, *scratch, &hit_slots, &local.keys_pruned);
    result.reserve(hit_slots.size());
    for (uint32_t s : hit_slots) result.push_back(slot_pk_[s]);
    std::sort(result.begin(), result.end());
  } else {
    // Heap merge over the sorted posting lists; a pk appearing in >= t lists
    // produces a run of >= t equal heads.
    using Head = std::pair<int64_t, size_t>;  // (pk, list id)
    std::priority_queue<Head, std::vector<Head>, std::greater<Head>> heap;
    std::vector<size_t> pos(lists.size(), 0);
    for (size_t i = 0; i < lists.size(); ++i) {
      heap.push({lists[i]->pks[0], i});
    }
    while (!heap.empty()) {
      int64_t pk = heap.top().first;
      int count = 0;
      while (!heap.empty() && heap.top().first == pk) {
        auto [_, li] = heap.top();
        heap.pop();
        ++count;
        if (++pos[li] < lists[li]->pks.size()) {
          heap.push({lists[li]->pks[pos[li]], li});
        }
      }
      if (count >= t) {
        result.push_back(pk);
      } else {
        ++local.keys_pruned;
      }
    }
  }

  local.candidates = result.size();
  if (stats != nullptr) {
    stats->lists_probed += local.lists_probed;
    stats->postings_read += local.postings_read;
    stats->candidates += local.candidates;
    stats->keys_pruned += local.keys_pruned;
    stats->cache_hits += local.cache_hits;
    stats->cache_misses += local.cache_misses;
  }
  return result;
}

}  // namespace simdb::storage
