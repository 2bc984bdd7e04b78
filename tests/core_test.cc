#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>

#include "core/query_processor.h"
#include "storage/file_util.h"

namespace simdb::core {
namespace {

using adm::Value;

/// End-to-end engine fixture: a 2-node x 2-partition simulated cluster with
/// a small review dataset resembling the paper's running example.
class CoreTest : public ::testing::Test {
 protected:
  CoreTest() {
    static int counter = 0;
    dir_ = (std::filesystem::temp_directory_path() /
            ("simdb_core_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++)))
               .string();
    EngineOptions options;
    options.data_dir = dir_;
    options.topology = {2, 2};
    options.num_threads = 2;
    engine_ = std::make_unique<QueryProcessor>(options);
  }
  ~CoreTest() override { storage::RemoveAllBestEffort(dir_); }

  void LoadReviews(bool with_indexes) {
    ASSERT_TRUE(engine_
                    ->Execute("create dataset Reviews primary key id;")
                    .ok());
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
    if (with_indexes) {
      ASSERT_TRUE(
          engine_
              ->Execute(
                  "create index nix on Reviews(reviewerName) type ngram(2);"
                  "create index smix on Reviews(summary) type keyword;")
              .ok());
    }
  }

  /// Runs a query and returns its (sorted JSON) result rows.
  std::vector<std::string> Run(const std::string& aql) {
    QueryResult result;
    Status s = engine_->Execute(aql, &result);
    EXPECT_TRUE(s.ok()) << s.ToString() << "\nquery: " << aql;
    last_ = result;
    std::vector<std::string> rows;
    for (const Value& v : result.rows) rows.push_back(v.ToJson());
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  int64_t RunCount(const std::string& aql) {
    QueryResult result;
    Status s = engine_->Execute(aql, &result);
    EXPECT_TRUE(s.ok()) << s.ToString() << "\nquery: " << aql;
    last_ = result;
    if (result.rows.size() != 1 || !result.rows[0].is_int64()) return -1;
    return result.rows[0].AsInt64();
  }

  bool RuleFired(const std::string& name) {
    for (const std::string& r : last_.fired_rules) {
      if (r == name) return true;
    }
    return false;
  }

  std::string dir_;
  std::unique_ptr<QueryProcessor> engine_;
  QueryResult last_;
};

// ---------- DDL and basic queries ----------

TEST_F(CoreTest, DdlAndScan) {
  LoadReviews(false);
  EXPECT_EQ(RunCount("count(for $t in dataset Reviews return $t)"), 8);
}

TEST_F(CoreTest, ProjectionAndFilter) {
  LoadReviews(false);
  std::vector<std::string> rows = Run(
      "for $t in dataset Reviews where $t.id = 5 return $t.reviewerName");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], "\"maria\"");
}

TEST_F(CoreTest, RecordConstructionAndArithmetic) {
  LoadReviews(false);
  std::vector<std::string> rows = Run(
      "for $t in dataset Reviews where $t.id < 3 "
      "return {'i2': $t.id * 10 + 1}");
  EXPECT_EQ(rows, (std::vector<std::string>{"{\"i2\":11}", "{\"i2\":21}"}));
}

TEST_F(CoreTest, OrderByGlobal) {
  LoadReviews(false);
  QueryResult result;
  ASSERT_TRUE(engine_
                  ->Execute("for $t in dataset Reviews order by $t.id desc "
                            "return $t.id",
                            &result)
                  .ok());
  ASSERT_EQ(result.rows.size(), 8u);
  EXPECT_EQ(result.rows.front().AsInt64(), 8);
  EXPECT_EQ(result.rows.back().AsInt64(), 1);
}

TEST_F(CoreTest, GroupByWithCount) {
  LoadReviews(false);
  std::vector<std::string> rows = Run(R"(
    for $t in dataset Reviews
    for $w in word-tokens($t.summary)
    group by $g := $w with $t
    where count($t) >= 3
    return $g
  )");
  // Tokens appearing >= 3 times across all summaries.
  // "great" appears in ids 2, 6, 8 -> 3 times; so it must be present.
  EXPECT_TRUE(std::find(rows.begin(), rows.end(), "\"great\"") != rows.end());
}

// ---------- similarity selections (paper Figures 5, 7, 21) ----------

TEST_F(CoreTest, EditDistanceSelectionScan) {
  LoadReviews(false);
  std::vector<std::string> rows = Run(
      "for $t in dataset Reviews "
      "where edit-distance($t.reviewerName, 'marla') <= 1 "
      "return $t.reviewerName");
  // ed("mary","marla") = 2, so only "maria" and "marla" qualify at k=1.
  EXPECT_EQ(rows, (std::vector<std::string>{"\"maria\"", "\"marla\""}));
  EXPECT_FALSE(RuleFired("introduce-similarity-select-index"));
}

TEST_F(CoreTest, EditDistanceSelectionIndexMatchesScan) {
  LoadReviews(true);
  std::vector<std::string> rows = Run(
      "for $t in dataset Reviews "
      "where edit-distance($t.reviewerName, 'marla') <= 1 "
      "return $t.reviewerName");
  EXPECT_TRUE(RuleFired("introduce-similarity-select-index"));
  EXPECT_EQ(rows, (std::vector<std::string>{"\"maria\"", "\"marla\""}));
}

TEST_F(CoreTest, EditDistanceCornerCaseStaysOnScan) {
  LoadReviews(true);
  // T = |G("marla")| - 2k = 4 - 6 <= 0: the optimizer must keep the scan.
  std::vector<std::string> rows = Run(
      "for $t in dataset Reviews "
      "where edit-distance($t.reviewerName, 'marla') <= 3 "
      "return $t.reviewerName");
  EXPECT_FALSE(RuleFired("introduce-similarity-select-index"));
  EXPECT_GE(rows.size(), 4u);  // also matches "maria","marla","mary","mario"
}

TEST_F(CoreTest, JaccardSelectionIndexMatchesScan) {
  std::string query =
      "for $t in dataset Reviews "
      "where similarity-jaccard(word-tokens($t.summary), "
      "word-tokens('great product fantastic gift')) >= 0.5 "
      "return $t.id";
  LoadReviews(true);
  std::vector<std::string> with_index = Run(query);
  EXPECT_TRUE(RuleFired("introduce-similarity-select-index"));
  engine_->opt_context().enable_index_select = false;
  std::vector<std::string> without_index = Run(query);
  EXPECT_FALSE(RuleFired("introduce-similarity-select-index"));
  EXPECT_EQ(with_index, without_index);
  // {great, gift} vs the query tokens gives 2/4 = 0.5 for id 8 too.
  EXPECT_EQ(with_index, (std::vector<std::string>{"2", "6", "8"}));
}

TEST_F(CoreTest, SimilarityOperatorSugarSelection) {
  LoadReviews(true);
  std::vector<std::string> rows = Run(
      "set simfunction 'edit-distance'; set simthreshold '1'; "
      "for $t in dataset Reviews where $t.reviewerName ~= 'marla' "
      "return $t.reviewerName");
  EXPECT_TRUE(RuleFired("similarity-sugar"));
  EXPECT_EQ(rows.size(), 2u);  // maria, marla
}

TEST_F(CoreTest, ContainsSelectionUsesNgramIndex) {
  LoadReviews(true);
  std::vector<std::string> rows = Run(
      "for $t in dataset Reviews where contains($t.reviewerName, 'ari') "
      "return $t.reviewerName");
  EXPECT_TRUE(RuleFired("introduce-similarity-select-index"));
  EXPECT_EQ(rows, (std::vector<std::string>{"\"maria\"", "\"mario\""}));
}

// ---------- similarity joins (paper Figures 8, 10, 14, 19) ----------

std::string JaccardJoinQuery(double threshold) {
  return "count(for $o in dataset Reviews for $i in dataset Reviews "
         "where similarity-jaccard(word-tokens($o.summary), "
         "word-tokens($i.summary)) >= " +
         std::to_string(threshold) +
         " and $o.id < $i.id return {'o': $o.id, 'i': $i.id})";
}

TEST_F(CoreTest, JaccardJoinAllPlansAgree) {
  LoadReviews(true);
  // Index-nested-loop plan.
  int64_t with_index = RunCount(JaccardJoinQuery(0.5));
  EXPECT_TRUE(RuleFired("introduce-similarity-index-join"));
  // Three-stage plan.
  engine_->opt_context().enable_index_join = false;
  int64_t three_stage = RunCount(JaccardJoinQuery(0.5));
  EXPECT_TRUE(RuleFired("three-stage-similarity-join"));
  // Plain nested-loop plan.
  engine_->opt_context().enable_three_stage_join = false;
  int64_t nested_loop = RunCount(JaccardJoinQuery(0.5));
  EXPECT_FALSE(RuleFired("three-stage-similarity-join"));
  EXPECT_EQ(nested_loop, with_index);
  EXPECT_EQ(nested_loop, three_stage);
  // Pairs (2,6) and (2,8)/(6,8)? verify ground truth by hand: at least (2,6).
  EXPECT_GE(nested_loop, 1);
}

TEST_F(CoreTest, JaccardJoinThresholdSweepAgrees) {
  LoadReviews(true);
  for (double threshold : {0.2, 0.5, 0.8}) {
    int64_t indexed = RunCount(JaccardJoinQuery(threshold));
    engine_->opt_context().enable_index_join = false;
    int64_t three_stage = RunCount(JaccardJoinQuery(threshold));
    engine_->opt_context().enable_three_stage_join = false;
    int64_t nested_loop = RunCount(JaccardJoinQuery(threshold));
    EXPECT_EQ(indexed, nested_loop) << "threshold " << threshold;
    EXPECT_EQ(three_stage, nested_loop) << "threshold " << threshold;
    engine_->opt_context().enable_index_join = true;
    engine_->opt_context().enable_three_stage_join = true;
  }
}

std::string EdJoinQuery(int k) {
  return "count(for $o in dataset Reviews for $i in dataset Reviews "
         "where edit-distance($o.reviewerName, $i.reviewerName) <= " +
         std::to_string(k) +
         " and $o.id < $i.id return {'o': $o.id, 'i': $i.id})";
}

TEST_F(CoreTest, EditDistanceJoinIndexMatchesNl) {
  LoadReviews(true);
  // The dataset contains short names ("al", "xy"-adjacent "bob") that hit
  // the runtime corner case (T <= 0), exercising the union plan (Fig. 14).
  for (int k : {1, 2}) {
    int64_t indexed = RunCount(EdJoinQuery(k));
    EXPECT_TRUE(RuleFired("introduce-similarity-index-join"));
    engine_->opt_context().enable_index_join = false;
    int64_t nested_loop = RunCount(EdJoinQuery(k));
    engine_->opt_context().enable_index_join = true;
    EXPECT_EQ(indexed, nested_loop) << "k=" << k;
  }
}

TEST_F(CoreTest, SurrogateAblationSameResults) {
  LoadReviews(true);
  int64_t with_surrogate = RunCount(JaccardJoinQuery(0.5));
  engine_->opt_context().enable_surrogate_join = false;
  int64_t without_surrogate = RunCount(JaccardJoinQuery(0.5));
  EXPECT_EQ(with_surrogate, without_surrogate);
}

TEST_F(CoreTest, SubplanReuseAblationSameResults) {
  LoadReviews(true);
  engine_->opt_context().enable_index_join = false;
  int64_t shared = RunCount(JaccardJoinQuery(0.5));
  engine_->opt_context().enable_subplan_reuse = false;
  int64_t cloned = RunCount(JaccardJoinQuery(0.5));
  EXPECT_EQ(shared, cloned);
}

TEST_F(CoreTest, SimilarityOperatorSugarJoin) {
  LoadReviews(true);
  int64_t count = RunCount(
      "set simfunction 'jaccard'; set simthreshold '0.5'; "
      "count(for $o in dataset Reviews for $i in dataset Reviews "
      "where word-tokens($o.summary) ~= word-tokens($i.summary) "
      "and $o.id < $i.id return {'o': $o.id})");
  EXPECT_EQ(count, RunCount(JaccardJoinQuery(0.5)));
}

// ---------- multi-way joins (paper Figures 18, 26) ----------

TEST_F(CoreTest, MultiWaySimilarityJoin) {
  LoadReviews(true);
  std::string query =
      "count(for $o in dataset Reviews for $i in dataset Reviews "
      "where similarity-jaccard(word-tokens($o.summary), "
      "word-tokens($i.summary)) >= 0.3 "
      "and edit-distance($o.reviewerName, $i.reviewerName) <= 2 "
      "and $o.id < $i.id return {'o': $o.id, 'i': $i.id})";
  int64_t optimized = RunCount(query);
  engine_->opt_context().enable_index_join = false;
  engine_->opt_context().enable_three_stage_join = false;
  int64_t nested_loop = RunCount(query);
  EXPECT_EQ(optimized, nested_loop);
}

TEST_F(CoreTest, ThreeDatasetPipeline) {
  LoadReviews(true);
  ASSERT_TRUE(engine_->Execute("create dataset Probe primary key id;").ok());
  ASSERT_TRUE(engine_
                  ->Insert("Probe", Value::MakeObject(
                                        {{"id", Value::Int64(1)},
                                         {"summary", Value::String(
                                              "great product fantastic "
                                              "gift")}}))
                  .ok());
  int64_t count = RunCount(
      "count(for $p in dataset Probe for $i in dataset Reviews "
      "where similarity-jaccard(word-tokens($p.summary), "
      "word-tokens($i.summary)) >= 0.5 return {'i': $i.id})");
  EXPECT_EQ(count, 3);  // reviews 2, 6 and 8
}

// ---------- UDFs ----------

TEST_F(CoreTest, UserDefinedAqlFunction) {
  LoadReviews(false);
  int64_t count = RunCount(
      "create function sim-overlap($x, $y) "
      "{ similarity-jaccard(word-tokens($x), word-tokens($y)) }; "
      "count(for $t in dataset Reviews "
      "where sim-overlap($t.summary, 'great product fantastic gift') >= 0.5 "
      "return $t)");
  EXPECT_EQ(count, 3);
}

TEST_F(CoreTest, RegisteredCppUdfViaSugar) {
  LoadReviews(false);
  engine_->RegisterSimilarityUdf(
      {.name = "similarity-first-char",
       .sense = similarity::ThresholdSense::kSimilarityAtLeast,
       .eval =
           [](const Value& a, const Value& b) -> Result<Value> {
             if (!a.is_string() || !b.is_string()) {
               return Status::TypeError("expected strings");
             }
             bool same = !a.AsString().empty() && !b.AsString().empty() &&
                         a.AsString()[0] == b.AsString()[0];
             return Value::Double(same ? 1.0 : 0.0);
           },
       .check = nullptr});
  int64_t count = RunCount(
      "set simfunction 'similarity-first-char'; set simthreshold '1.0'; "
      "count(for $t in dataset Reviews where $t.reviewerName ~= 'mike' "
      "return $t)");
  EXPECT_EQ(count, 4);  // mary, mario, maria, marla
}

// ---------- explain / plan shapes ----------

TEST_F(CoreTest, ExplainShowsIndexPlan) {
  LoadReviews(true);
  auto plan = engine_->Explain(
      "for $t in dataset Reviews "
      "where edit-distance($t.reviewerName, 'marla') <= 1 return $t");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("INDEX-SEARCH"), std::string::npos);
  EXPECT_NE(plan->find("PRIMARY-LOOKUP"), std::string::npos);
}

TEST_F(CoreTest, ExplainShowsThreeStagePieces) {
  LoadReviews(false);  // no index -> three-stage
  auto plan = engine_->Explain(JaccardJoinQuery(0.5));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("GROUP-BY"), std::string::npos);
  EXPECT_NE(plan->find("RANK"), std::string::npos);
  EXPECT_NE(plan->find("prefix-len-jaccard"), std::string::npos);
}

TEST_F(CoreTest, CompileStatsPopulated) {
  LoadReviews(false);
  QueryResult result;
  ASSERT_TRUE(engine_->Execute(JaccardJoinQuery(0.5), &result).ok());
  EXPECT_GT(result.compile.total_seconds, 0.0);
  EXPECT_GT(result.compile.aqlplus_seconds, 0.0);  // three-stage fired
  EXPECT_GT(result.exec.wall_seconds, 0.0);
}

// ---------- error handling ----------

TEST_F(CoreTest, ErrorsSurfaceCleanly) {
  LoadReviews(false);
  QueryResult result;
  EXPECT_FALSE(engine_->Execute("for $t in dataset Nope return $t", &result)
                   .ok());
  EXPECT_FALSE(engine_->Execute("this is not aql", &result).ok());
  EXPECT_FALSE(
      engine_->Execute("create dataset Reviews primary key id", &result).ok());
}

// `insert into` has AsterixDB INSERT semantics: a duplicate id fails with
// kAlreadyExists and leaves the stored record, the count and the indexes
// as they were.
TEST_F(CoreTest, InsertIntoDuplicateIdIsAlreadyExists) {
  LoadReviews(/*with_indexes=*/true);
  Status dup =
      engine_->Execute("insert into Reviews {'id': 2, 'reviewerName': 'zed'};");
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists) << dup.ToString();
  EXPECT_EQ(RunCount("count(for $t in dataset Reviews return $t)"), 8);
  EXPECT_EQ(Run("for $t in dataset Reviews where $t.id = 2 "
                "return $t.reviewerName"),
            (std::vector<std::string>{"\"mary\""}));
  EXPECT_TRUE(Run("for $t in dataset Reviews "
                  "where edit-distance($t.reviewerName, 'zed') <= 0 "
                  "return $t.id")
                  .empty());
}

}  // namespace
}  // namespace simdb::core
