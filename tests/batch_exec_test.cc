// Batch execution path: the columnar/SIMD pipeline must be answer-identical
// to the tuple path, surface its exec.batch.* counters in query profiles,
// and keep the inverted-index posting-cache copy counter at zero (the
// T-occurrence kernel counts directly over the cached dense-slot arrays).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adm/value.h"
#include "core/query_processor.h"
#include "hyracks/batch.h"
#include "observability/profile.h"
#include "similarity/simd_kernels.h"
#include "storage/file_util.h"
#include "storage/inverted_index.h"

namespace simdb {
namespace {

using adm::Value;

class BatchExecTest : public ::testing::Test {
 protected:
  BatchExecTest() {
    static int counter = 0;
    dir_ = (std::filesystem::temp_directory_path() /
            ("simdb_batch_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++)))
               .string();
    core::EngineOptions options;
    options.data_dir = dir_;
    options.topology = {2, 2};
    options.num_threads = 2;
    engine_ = std::make_unique<core::QueryProcessor>(options);
  }
  ~BatchExecTest() override { storage::RemoveAllBestEffort(dir_); }

  void LoadReviews() {
    ASSERT_TRUE(
        engine_->Execute("create dataset Reviews primary key id;").ok());
    struct Row {
      int64_t id;
      const char* name;
      const char* summary;
    };
    const Row rows[] = {
        {1, "james", "this movie touched my heart"},
        {2, "mary", "great product fantastic gift"},
        {3, "mario", "different than my usual but good"},
        {4, "jamie", "better ever than i expected"},
        {5, "maria", "the best car charger i ever bought"},
        {6, "marla", "great product really fantastic gift"},
        {7, "bob", "xy"},
        {8, "al", "great gift"},
    };
    for (const Row& r : rows) {
      ASSERT_TRUE(engine_
                      ->Insert("Reviews",
                               Value::MakeObject(
                                   {{"id", Value::Int64(r.id)},
                                    {"reviewerName", Value::String(r.name)},
                                    {"summary", Value::String(r.summary)}}))
                      .ok());
    }
    ASSERT_TRUE(
        engine_
            ->Execute(
                "create index nix on Reviews(reviewerName) type ngram(2);"
                "create index smix on Reviews(summary) type keyword;")
            .ok());
  }

  /// Runs a query and returns its sorted JSON rows.
  std::vector<std::string> Run(const std::string& aql) {
    core::QueryResult result;
    Status s = engine_->Execute(aql, &result);
    EXPECT_TRUE(s.ok()) << s.ToString() << "\nquery: " << aql;
    last_ = std::move(result);
    std::vector<std::string> rows;
    for (const Value& v : last_.rows) rows.push_back(v.ToJson());
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  /// Sums a counter across every operator of the last profiled query.
  /// Returns -1 when no operator emitted it at all.
  int64_t ProfileCounter(const std::string& name) {
    if (last_.profile == nullptr) return -1;
    bool found = false;
    uint64_t total = 0;
    for (const obs::OperatorProfile& op : last_.profile->operators) {
      for (const auto& [n, v] : op.counters) {
        if (n == name) {
          found = true;
          total += v;
        }
      }
    }
    return found ? static_cast<int64_t>(total) : -1;
  }

  std::string dir_;
  std::unique_ptr<core::QueryProcessor> engine_;
  core::QueryResult last_;
};

const char* kJaccardSelect =
    "for $t in dataset Reviews where "
    "similarity-jaccard(word-tokens($t.summary), "
    "word-tokens('great product fantastic gift')) >= 0.5 "
    "return $t.id";

const char* kEditDistanceSelect =
    "for $t in dataset Reviews "
    "where edit-distance($t.reviewerName, 'marla') <= 1 "
    "return $t.id";

const char* kJaccardJoin =
    "count(for $o in dataset Reviews for $i in dataset Reviews "
    "where similarity-jaccard(word-tokens($o.summary), "
    "word-tokens($i.summary)) >= 0.5 and $o.id < $i.id "
    "return {'o': $o.id, 'i': $i.id})";

// The batch path keeps the posting-cache copy counter at zero: ScanCount
// counts occurrences directly over the cached dense-slot arrays. Forcing
// batch execution off flips the same searches onto the gather path, which
// must report the copies it makes.
TEST_F(BatchExecTest, PostingCacheCopiesDropToZeroOnBatchPath) {
  LoadReviews();
  engine_->set_profile_queries(true);

  std::vector<std::string> batched = Run(kJaccardSelect);
  ASSERT_NE(last_.profile, nullptr);
  EXPECT_EQ(ProfileCounter("invindex.posting_cache.bytes_copied"), 0);
  // The index probe and the verify SELECT vectorize (plain ASSIGNs in the
  // same plan legitimately report fallback rows).
  EXPECT_GT(ProfileCounter("exec.batch.rows"), 0);

  engine_->set_batch_execution(false);
  std::vector<std::string> tuple = Run(kJaccardSelect);
  EXPECT_GT(ProfileCounter("invindex.posting_cache.bytes_copied"), 0);
  EXPECT_EQ(ProfileCounter("exec.batch.rows"), 0);
  EXPECT_GT(ProfileCounter("exec.batch.fallback_rows"), 0);

  EXPECT_EQ(batched, tuple);
}

// Every batch-capable operator always emits the full exec.batch.* trio when
// profiling (zeros included) — the CI catalogue diff relies on profile
// counter names being a deterministic function of the operators that ran.
TEST_F(BatchExecTest, BatchCounterTrioPresentInProfile) {
  LoadReviews();
  engine_->set_profile_queries(true);
  Run(kJaccardSelect);
  ASSERT_NE(last_.profile, nullptr);
  for (const char* name :
       {"exec.batch.rows", "exec.batch.batches", "exec.batch.fallback_rows"}) {
    EXPECT_GE(ProfileCounter(name), 0) << name << " missing from profile";
  }
  EXPECT_GT(ProfileCounter("exec.batch.batches"), 0);
}

// Batch on/off must be answer-identical across plan shapes: indexed
// selection (Jaccard + edit distance), similarity join, and the three-stage
// join (index joins disabled).
TEST_F(BatchExecTest, BatchAndTupleRowsIdentical) {
  LoadReviews();
  const std::string queries[] = {kJaccardSelect, kEditDistanceSelect,
                                 kJaccardJoin};
  std::vector<std::vector<std::string>> batched;
  for (const std::string& q : queries) batched.push_back(Run(q));
  // Three-stage shape.
  engine_->opt_context().enable_index_join = false;
  batched.push_back(Run(kJaccardJoin));
  engine_->opt_context().enable_index_join = true;

  engine_->set_batch_execution(false);
  std::vector<std::vector<std::string>> tuple;
  for (const std::string& q : queries) tuple.push_back(Run(q));
  engine_->opt_context().enable_index_join = false;
  tuple.push_back(Run(kJaccardJoin));

  ASSERT_EQ(batched.size(), tuple.size());
  for (size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i], tuple[i]) << "query " << i;
  }
  EXPECT_FALSE(batched[0].empty());
  EXPECT_FALSE(batched[1].empty());
}

// Chunk boundaries: one partition holding more than two batches of rows
// goes through the scan + jaccard-check SELECT batch path in three chunks
// and must match the tuple path exactly.
TEST(BatchChunkTest, InputSpanningThreeBatchesIsAnswerIdentical) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("simdb_batch_chunk_" + std::to_string(::getpid())))
                        .string();
  storage::RemoveAllBestEffort(dir);
  core::EngineOptions options;
  options.data_dir = dir;
  options.topology = {1, 1};
  options.num_threads = 1;
  options.profile_queries = true;
  core::QueryProcessor engine(options);
  ASSERT_TRUE(engine.Execute("create dataset Bulk primary key id;").ok());
  const char* words[] = {"great", "product", "fantastic", "gift",
                         "car",   "charger", "movie",     "heart"};
  const size_t num_rows = 2 * hyracks::kBatchSize + 52;
  for (size_t i = 0; i < num_rows; ++i) {
    std::string summary = std::string(words[i % 8]) + " " +
                          words[(i / 8) % 8] + " " + words[(i / 64) % 8];
    ASSERT_TRUE(engine
                    .Insert("Bulk", Value::MakeObject(
                                        {{"id", Value::Int64(
                                                    static_cast<int64_t>(i))},
                                         {"summary", Value::String(summary)}}))
                    .ok());
  }
  const char* query =
      "for $t in dataset Bulk where "
      "similarity-jaccard(word-tokens($t.summary), "
      "word-tokens('great product fantastic gift')) >= 0.5 "
      "return $t.id";
  auto run = [&](bool batch, core::QueryResult* result) {
    engine.set_batch_execution(batch);
    Status s = engine.Execute(query, result);
    EXPECT_TRUE(s.ok()) << s.ToString();
    std::vector<std::string> rows;
    for (const Value& v : result->rows) rows.push_back(v.ToJson());
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  core::QueryResult batched_result, tuple_result;
  std::vector<std::string> batched = run(true, &batched_result);
  std::vector<std::string> tuple = run(false, &tuple_result);
  EXPECT_EQ(batched, tuple);
  EXPECT_FALSE(batched.empty());
  // Every row went through the kernels, in three chunks.
  uint64_t kernel_rows = 0, batches = 0;
  for (const obs::OperatorProfile& op : batched_result.profile->operators) {
    for (const auto& [name, v] : op.counters) {
      if (name == "exec.batch.rows") kernel_rows += v;
      if (name == "exec.batch.batches") batches += v;
    }
  }
  EXPECT_EQ(kernel_rows, num_rows);
  EXPECT_EQ(batches, 3u);
  storage::RemoveAllBestEffort(dir);
}

// Direct storage-layer check: SearchTOccurrence with a scratch (counter
// array over dense slots) must return exactly the gather path's pks and
// copy nothing, while the gather path reports its copies.
TEST(InvertedIndexBatchTest, ScratchPathMatchesGatherAndCopiesNothing) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("simdb_batch_idx_" + std::to_string(::getpid())))
                        .string();
  storage::RemoveAllBestEffort(dir);
  auto index = storage::InvertedIndex::Open(dir);
  ASSERT_TRUE(index.ok());
  std::vector<std::pair<std::string, int64_t>> postings;
  for (int64_t pk = 0; pk < 200; ++pk) {
    postings.emplace_back("tok" + std::to_string(pk % 7), pk);
    postings.emplace_back("tok" + std::to_string((pk + 1) % 7), pk);
    postings.emplace_back("rare" + std::to_string(pk % 31), pk);
  }
  ASSERT_TRUE((*index)->BulkLoad(std::move(postings)).ok());

  const std::vector<std::string> query = {"tok1", "tok2", "tok3", "rare5"};
  for (int t = 1; t <= 3; ++t) {
    storage::InvertedSearchStats gather_stats;
    auto gather = (*index)->SearchTOccurrence(
        query, t, storage::TOccurrenceAlgorithm::kScanCount, &gather_stats);
    ASSERT_TRUE(gather.ok());
    EXPECT_GT(gather_stats.bytes_copied, 0u);

    simd::TOccurrenceScratch scratch;
    storage::InvertedSearchStats batch_stats;
    auto batched = (*index)->SearchTOccurrence(
        query, t, storage::TOccurrenceAlgorithm::kScanCount, &batch_stats,
        /*use_cache=*/true, &scratch);
    ASSERT_TRUE(batched.ok());
    EXPECT_EQ(batch_stats.bytes_copied, 0u);
    EXPECT_EQ(*gather, *batched) << "t=" << t;
    EXPECT_TRUE(std::is_sorted(batched->begin(), batched->end()));
  }
  storage::RemoveAllBestEffort(dir);
}

}  // namespace
}  // namespace simdb
