// Batch execution: NL-JOIN's one-probe-against-many kernels must be
// answer-identical to the row path and surface their exec.batch.* counters
// in query profiles; no other operator has a batch path.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "adm/value.h"
#include "core/query_processor.h"
#include "observability/profile.h"
#include "storage/file_util.h"

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

// NL-JOIN always emits the full exec.batch.* trio when profiling (zeros
// included): the CI catalogue diff relies on profile counter names being a
// deterministic function of the operators that ran. It is the only operator
// that emits them.
TEST_F(BatchExecTest, BatchCounterTrioPresentInProfile) {
  LoadReviews();
  engine_->set_profile_queries(true);
  engine_->opt_context().enable_index_join = false;
  engine_->opt_context().enable_three_stage_join = false;
  const std::string join =
      "for $o in dataset Reviews for $i in dataset Reviews "
      "where similarity-jaccard(word-tokens($o.summary), "
      "word-tokens($i.summary)) >= 0.5 return {'o': $o.id, 'i': $i.id}";
  std::vector<std::string> batched = Run(join);
  EXPECT_GT(batched.size(), 8u);  // every review pairs with itself
  ASSERT_NE(last_.profile, nullptr);
  bool nl_join = false;
  for (const obs::OperatorProfile& op : last_.profile->operators) {
    nl_join = nl_join || op.name.rfind("NL-JOIN", 0) == 0;
    for (const auto& [name, v] : op.counters) {
      if (name.rfind("exec.batch.", 0) == 0) {
        EXPECT_EQ(op.name.rfind("NL-JOIN", 0), 0u)
            << name << " emitted by " << op.name;
      }
    }
  }
  EXPECT_TRUE(nl_join);
  for (const char* name :
       {"exec.batch.rows", "exec.batch.batches", "exec.batch.fallback_rows"}) {
    EXPECT_GE(ProfileCounter(name), 0) << name << " missing from profile";
  }
  EXPECT_GT(ProfileCounter("exec.batch.batches"), 0);
  EXPECT_GT(ProfileCounter("exec.batch.rows"), 0);

  engine_->set_batch_execution(false);
  EXPECT_EQ(Run(join), batched);
  EXPECT_EQ(ProfileCounter("exec.batch.rows"), 0);
  EXPECT_GT(ProfileCounter("exec.batch.fallback_rows"), 0);
}

// The index-NL edit-distance join's corner branch plans
// NL-JOIN(edit-distance-check($skey, $i.reviewerName, 1)) with its first
// argument on the right input. Neither argument can fail, so the batch
// path runs the symmetric check with the arguments swapped, and answers as
// the row path does.
TEST_F(BatchExecTest, CheckWithSidesReversedRunsBatched) {
  LoadReviews();
  engine_->set_profile_queries(true);
  const std::string join =
      "set simfunction 'edit-distance'; set simthreshold '1'; "
      "for $o in dataset Reviews for $i in dataset Reviews "
      "where $o.reviewerName ~= $i.reviewerName and $o.id < $i.id "
      "return {'o': $o.id, 'i': $i.id}";
  std::vector<std::string> batched = Run(join);
  ASSERT_NE(last_.profile, nullptr);
  bool reversed = false;
  for (const obs::OperatorProfile& op : last_.profile->operators) {
    if (op.name.rfind("NL-JOIN(edit-distance-check($", 0) != 0) continue;
    reversed = op.name.find("_skey@") < op.name.find(".reviewerName");
  }
  EXPECT_TRUE(reversed);
  EXPECT_GT(ProfileCounter("exec.batch.rows"), 0);
  EXPECT_EQ(ProfileCounter("exec.batch.fallback_rows"), 0);

  engine_->set_batch_execution(false);
  EXPECT_EQ(Run(join), batched);
  EXPECT_EQ(ProfileCounter("exec.batch.rows"), 0);
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

}  // namespace
}  // namespace simdb
