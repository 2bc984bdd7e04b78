#include "hyracks/ops_index.h"

#include <unordered_map>

#include "similarity/edit_distance.h"
#include "similarity/jaccard.h"
#include "similarity/simd_kernels.h"
#include "similarity/tokenizer.h"
#include "storage/index_tokens.h"

namespace simdb::hyracks {

using adm::Value;

bool InvertedIndexSearchOp::SameAs(const Operator& other) const {
  const auto* o = dynamic_cast<const InvertedIndexSearchOp*>(&other);
  return o != nullptr && o->dataset_ == dataset_ && o->index_ == index_ &&
         o->spec_ == spec_ && SameExpr(o->key_expr_, key_expr_);
}

Status InvertedIndexSearchOp::Prepare(ExecContext& ctx) {
  if (ctx.catalog == nullptr) return Status::Internal("no catalog");
  ds_ = ctx.catalog->Find(dataset_);
  if (ds_ == nullptr) return Status::NotFound("dataset " + dataset_);
  index_spec_ = ds_->FindIndex(index_);
  if (index_spec_ == nullptr) {
    return Status::NotFound("index " + index_ + " on " + dataset_);
  }
  return Status::OK();
}

Result<Rows> InvertedIndexSearchOp::ExecutePartition(
    ExecContext& ctx, int p, const std::vector<const Rows*>& inputs) {
  storage::InvertedIndex* index = ds_->inverted_index(p, index_);
  if (index == nullptr) {
    return Status::Internal("missing inverted index partition");
  }
  const bool profiling = ctx.counters != nullptr;
  storage::InvertedSearchStats search_stats;
  uint64_t memo_hits = 0;
  uint64_t corner_rows = 0;
  // ScanCount's per-slot counters, reused across every probe of the
  // partition.
  simd::TOccurrenceScratch scratch;
  const Rows& in = *inputs[0];
  const size_t width = in.width();
  Rows rows(width + 1);
  // Appends the input row once per candidate pk.
  auto emit = [&](Row row, const std::vector<int64_t>& pks) {
    for (int64_t pk : pks) rows.Append(row)[width] = Value::Int64(pk);
  };
  // Duplicate search keys are common (e.g. popular outer values after
  // a broadcast); memoize per-key candidate lists for this partition.
  std::unordered_map<std::string, std::vector<int64_t>> memo;
  for (Row row : in) {
    SIMDB_ASSIGN_OR_RETURN(Value key, key_expr_->Eval(row));
    if (key.is_missing() || key.is_null()) continue;
    std::string memo_key = key.ToJson();
    auto cached = memo.find(memo_key);
    if (cached != memo.end()) {
      ++memo_hits;
      emit(row, cached->second);
      continue;
    }
    SIMDB_ASSIGN_OR_RETURN(std::vector<std::string> tokens,
                           storage::ExtractIndexTokens(*index_spec_, key));
    int t = 0;
    switch (spec_.fn) {
      case SimSearchSpec::Fn::kJaccard:
        t = similarity::JaccardTOccurrence(static_cast<int>(tokens.size()),
                                           spec_.threshold);
        break;
      case SimSearchSpec::Fn::kEditDistance: {
        if (!key.is_string()) {
          return Status::TypeError(
              "edit-distance index search requires a string key");
        }
        t = similarity::EditDistanceTOccurrence(
            static_cast<int>(key.AsString().size()), index_spec_->gram_len,
            static_cast<int>(spec_.threshold));
        break;
      }
      case SimSearchSpec::Fn::kContains: {
        // Every gram of the pattern must occur.
        t = static_cast<int>(tokens.size());
        break;
      }
    }
    // Corner case (T <= 0): this operator cannot prune; the plan's
    // corner-case branch (scan + verify) is responsible for the row.
    if (t <= 0 || tokens.empty()) {
      ++corner_rows;
      memo.emplace(std::move(memo_key), std::vector<int64_t>());
      continue;
    }
    SIMDB_ASSIGN_OR_RETURN(
        std::vector<int64_t> pks,
        index->SearchTOccurrence(tokens, t, ctx.t_occurrence_algorithm,
                                 profiling ? &search_stats : nullptr,
                                 ctx.posting_cache_enabled, &scratch));
    emit(row, pks);
    memo.emplace(std::move(memo_key), std::move(pks));
  }
  if (profiling) {
    // The full set is emitted (zeros included) so the profile's counter
    // names are a deterministic function of the operators that ran — the CI
    // catalogue check relies on that.
    CountOp(ctx, "invsearch.lists_probed", search_stats.lists_probed);
    CountOp(ctx, "invsearch.postings_read", search_stats.postings_read);
    CountOp(ctx, "invsearch.candidates", search_stats.candidates);
    CountOp(ctx, "invsearch.keys_pruned", search_stats.keys_pruned);
    CountOp(ctx, "invsearch.cache_hits", search_stats.cache_hits);
    CountOp(ctx, "invsearch.cache_misses", search_stats.cache_misses);
    CountOp(ctx, "invsearch.memo_hits", memo_hits);
    CountOp(ctx, "invsearch.corner_rows", corner_rows);
  }
  return rows;
}

bool BtreeSearchOp::SameAs(const Operator& other) const {
  const auto* o = dynamic_cast<const BtreeSearchOp*>(&other);
  return o != nullptr && o->dataset_ == dataset_ && o->index_ == index_ &&
         SameExpr(o->key_expr_, key_expr_);
}

Status BtreeSearchOp::Prepare(ExecContext& ctx) {
  if (ctx.catalog == nullptr) return Status::Internal("no catalog");
  ds_ = ctx.catalog->Find(dataset_);
  if (ds_ == nullptr) return Status::NotFound("dataset " + dataset_);
  return Status::OK();
}

Result<Rows> BtreeSearchOp::ExecutePartition(
    ExecContext&, int p, const std::vector<const Rows*>& inputs) {
  const Rows& in = *inputs[0];
  const size_t width = in.width();
  Rows rows(width + 1);
  for (Row row : in) {
    SIMDB_ASSIGN_OR_RETURN(Value key, key_expr_->Eval(row));
    if (key.is_missing() || key.is_null()) continue;
    SIMDB_ASSIGN_OR_RETURN(std::vector<int64_t> pks,
                           ds_->BtreeSearch(p, index_, key));
    for (int64_t pk : pks) rows.Append(row)[width] = Value::Int64(pk);
  }
  return rows;
}

}  // namespace simdb::hyracks
