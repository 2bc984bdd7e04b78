#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <regex>

#include "aql/parser.h"
#include "core/query_processor.h"
#include "core/sim_predicate.h"
#include "core/three_stage.h"
#include "storage/file_util.h"

namespace simdb::core {
namespace {

using adm::Value;

class CoreExtendedTest : public ::testing::Test {
 protected:
  CoreExtendedTest() {
    static int counter = 0;
    dir_ = (std::filesystem::temp_directory_path() /
            ("simdb_corex_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++)))
               .string();
    EngineOptions options;
    options.data_dir = dir_;
    options.topology = {2, 2};
    options.num_threads = 2;
    engine_ = std::make_unique<QueryProcessor>(options);
  }
  ~CoreExtendedTest() override { storage::RemoveAllBestEffort(dir_); }

  void Load(const std::string& dataset,
            const std::vector<std::pair<std::string, std::string>>& rows) {
    ASSERT_TRUE(
        engine_->Execute("create dataset " + dataset + " primary key id;")
            .ok());
    int64_t id = 1;
    for (const auto& [name, text] : rows) {
      ASSERT_TRUE(engine_
                      ->Insert(dataset,
                               Value::MakeObject(
                                   {{"id", Value::Int64(id++)},
                                    {"name", Value::String(name)},
                                    {"text", Value::String(text)}}))
                      .ok());
    }
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
    return std::find(last_.fired_rules.begin(), last_.fired_rules.end(),
                     name) != last_.fired_rules.end();
  }

  std::string dir_;
  std::unique_ptr<QueryProcessor> engine_;
  QueryResult last_;
};

// ---------- cross-dataset three-stage join (union token order) ----------

TEST_F(CoreExtendedTest, CrossDatasetThreeStageMatchesNl) {
  Load("Left", {{"a", "red apple pie"},
                {"b", "green apple pie"},
                {"c", "blue sky high"},
                {"d", ""}});
  Load("Right", {{"x", "red apple pie"},
                 {"y", "totally different words here"},
                 {"z", "green apple tart"},
                 {"w", ""}});
  std::string query =
      "count(for $l in dataset Left for $r in dataset Right "
      "where similarity-jaccard(word-tokens($l.text), "
      "word-tokens($r.text)) >= 0.5 return {'l': $l.id, 'r': $r.id})";
  int64_t three_stage = RunCount(query);
  EXPECT_TRUE(RuleFired("three-stage-similarity-join"));
  engine_->opt_context().enable_three_stage_join = false;
  int64_t nested = RunCount(query);
  EXPECT_FALSE(RuleFired("three-stage-similarity-join"));
  EXPECT_EQ(three_stage, nested);
  EXPECT_GE(three_stage, 2);  // at least (a,x) and the apple-pie overlaps
}

TEST_F(CoreExtendedTest, FilteredSidesStillAgree) {
  Load("Docs", {{"a", "one two three"},
                {"b", "one two three"},
                {"c", "one two four"},
                {"d", "five six seven"},
                {"e", "one two three"}});
  // Different filters on the two sides force the union-based token order.
  std::string query =
      "count(for $l in dataset Docs for $r in dataset Docs "
      "where similarity-jaccard(word-tokens($l.text), "
      "word-tokens($r.text)) >= 0.6 and $l.id <= 3 and $r.id >= 2 "
      "return {'l': $l.id, 'r': $r.id})";
  int64_t three_stage = RunCount(query);
  engine_->opt_context().enable_three_stage_join = false;
  int64_t nested = RunCount(query);
  EXPECT_EQ(three_stage, nested);
}

// ---------- contains() join through the n-gram index ----------

TEST_F(CoreExtendedTest, ContainsJoinIndexMatchesNl) {
  Load("Serials", {{"KX750-A11", "p1"},
                   {"KX750-B20", "p2"},
                   {"QM300-C05", "p3"},
                   {"X7", "p4"}});
  Load("Fragments", {{"750", "f1"}, {"300-C", "f2"}, {"Q", "f3"}});
  ASSERT_TRUE(engine_
                  ->Execute("create index six on Serials(name) type ngram(2);")
                  .ok());
  std::string query =
      "count(for $f in dataset Fragments for $s in dataset Serials "
      "where contains($s.name, $f.name) return {'f': $f.id, 's': $s.id})";
  int64_t indexed = RunCount(query);
  EXPECT_TRUE(RuleFired("introduce-similarity-index-join"));
  engine_->opt_context().enable_index_join = false;
  int64_t nested = RunCount(query);
  engine_->opt_context().enable_index_join = true;
  // "Q" is shorter than the gram length -> runtime corner-case path.
  EXPECT_EQ(indexed, nested);
  EXPECT_EQ(indexed, 2 + 1 + 1);  // 750 in two serials, 300-C in one, Q in one
}

// ---------- exact-match via the secondary B+-tree ----------

TEST_F(CoreExtendedTest, ExactMatchSelectionUsesBtree) {
  Load("Users", {{"maria", "t"}, {"james", "t"}, {"maria", "u"}});
  ASSERT_TRUE(
      engine_->Execute("create index nbt on Users(name) type btree;").ok());
  int64_t count = RunCount(
      "count(for $u in dataset Users where $u.name = 'maria' return $u)");
  EXPECT_EQ(count, 2);
  EXPECT_TRUE(RuleFired("introduce-similarity-select-index"));
  std::string plan = last_.logical_plan;
  EXPECT_NE(plan.find("BTREE-SEARCH"), std::string::npos);
}

// ---------- dice / cosine and the sugar operator ----------

TEST_F(CoreExtendedTest, DiceAndCosineMeasures) {
  Load("Docs", {{"a", "one two three"}, {"b", "one two six"},
                {"c", "seven eight nine"}});
  // dice({one,two,three},{one,two,six}) = 2*2/6 = 0.667.
  int64_t dice = RunCount(
      "set simfunction 'dice'; set simthreshold '0.6'; "
      "count(for $l in dataset Docs for $r in dataset Docs "
      "where word-tokens($l.text) ~= word-tokens($r.text) "
      "and $l.id < $r.id return {'l': $l.id})");
  EXPECT_EQ(dice, 1);
  int64_t cosine = RunCount(
      "set simfunction 'cosine'; set simthreshold '0.6'; "
      "count(for $l in dataset Docs for $r in dataset Docs "
      "where word-tokens($l.text) ~= word-tokens($r.text) "
      "and $l.id < $r.id return {'l': $l.id})");
  EXPECT_EQ(cosine, 1);  // cos = 2/3 ~ 0.667
}

// ---------- edit distance over ordered lists (paper Section 3.1) ----------

TEST_F(CoreExtendedTest, EditDistanceOnOrderedLists) {
  Load("Docs", {{"a", "better than i expected"},
                {"b", "better than expected"},
                {"c", "nothing alike at all"}});
  int64_t count = RunCount(
      "count(for $l in dataset Docs for $r in dataset Docs "
      "where edit-distance(word-tokens($l.text), word-tokens($r.text)) <= 1 "
      "and $l.id < $r.id return {'l': $l.id})");
  EXPECT_EQ(count, 1);  // a vs b: one word deleted
}

// ---------- T-occurrence algorithm option ----------

TEST_F(CoreExtendedTest, HeapMergeAlgorithmGivesSameAnswers) {
  std::string dir2 = dir_ + "_heap";
  EngineOptions options;
  options.data_dir = dir2;
  options.topology = {2, 2};
  options.num_threads = 2;
  options.t_occurrence_algorithm = storage::TOccurrenceAlgorithm::kHeapMerge;
  QueryProcessor heap_engine(options);
  for (QueryProcessor* engine : {engine_.get(), &heap_engine}) {
    ASSERT_TRUE(
        engine->Execute("create dataset D primary key id;"
                        "create index ix on D(text) type keyword;")
            .ok());
    for (int64_t i = 0; i < 50; ++i) {
      ASSERT_TRUE(engine
                      ->Insert("D", Value::MakeObject(
                                        {{"id", Value::Int64(i)},
                                         {"text", Value::String(
                                              "tok" + std::to_string(i % 7) +
                                              " tok" + std::to_string(i % 5) +
                                              " tok" + std::to_string(i % 3))}}))
                      .ok());
    }
  }
  std::string query =
      "count(for $d in dataset D where "
      "similarity-jaccard(word-tokens($d.text), "
      "word-tokens('tok1 tok2 tok0')) >= 0.5 return $d)";
  QueryResult scan_result, heap_result;
  ASSERT_TRUE(engine_->Execute(query, &scan_result).ok());
  ASSERT_TRUE(heap_engine.Execute(query, &heap_result).ok());
  EXPECT_EQ(scan_result.rows[0].AsInt64(), heap_result.rows[0].AsInt64());
  storage::RemoveAllBestEffort(dir2);
}

// ---------- template text exposure ----------

TEST_F(CoreExtendedTest, ThreeStageTemplateTextIsValidAqlPlus) {
  for (bool self_like : {true, false}) {
    for (std::string filter : {"", "lt($lp.id, $rp.id)"}) {
      std::string text = ThreeStageTemplateText(0.5, self_like, filter);
      EXPECT_NE(text.find("##LEFT2"), std::string::npos);
      EXPECT_NE(text.find("$$LPK2"), std::string::npos);
      EXPECT_NE(text.find("prefix-len-jaccard"), std::string::npos);
      // Every @...@ placeholder is substituted.
      EXPECT_FALSE(std::regex_search(text, std::regex("@[A-Z_0-9]+@")))
          << text;
      EXPECT_EQ(text.find("where $lp.pt = $rp.pt and lt($lp.id, $rp.id)") !=
                    std::string::npos,
                !filter.empty())
          << text;
      if (!self_like) {
        EXPECT_NE(text.find("union("), std::string::npos);
      }
      EXPECT_TRUE(aql::ParseExpression(text).ok()) << text;
    }
  }
}

// ---------- pk-only join conjuncts run where both keys first meet ----------

TEST_F(CoreExtendedTest, PkConjunctMovesOnlyWhenReadingPksAlone) {
  using algebricks::LExpr;
  using algebricks::LExprPtr;
  LExprPtr l = LExpr::Var("l"), r = LExpr::Var("r");
  LExprPtr lpk = LExpr::Field(l, "id"), rpk = LExpr::Field(r, "id");
  LExprPtr x = LExpr::Var("x"), y = LExpr::Var("y");
  auto moved = [&](const LExprPtr& c) {
    std::optional<LExprPtr> out = RewritePkConjunct(c, lpk, x, rpk, y);
    return out.has_value() ? (*out)->ToString() : std::string("<stays>");
  };
  EXPECT_EQ(moved(LExpr::CallF("lt", {lpk, rpk})), "lt($x, $y)");
  EXPECT_EQ(moved(LExpr::CallF("neq", {rpk, lpk})), "neq($y, $x)");
  EXPECT_EQ(moved(LExpr::CallF(
                "le", {LExpr::CallF("add", {lpk, LExpr::Lit(Value::Int64(2))}),
                       rpk})),
            "le(add($x, 2), $y)");
  // Reads a non-pk field, a whole record or a foreign variable: stays.
  LExprPtr names = LExpr::CallF(
      "neq", {LExpr::Field(l, "name"), LExpr::Field(r, "name")});
  EXPECT_EQ(moved(names), "<stays>");
  EXPECT_EQ(moved(LExpr::CallF("or", {LExpr::CallF("lt", {lpk, rpk}), names})),
            "<stays>");
  EXPECT_EQ(moved(LExpr::CallF("eq", {l, r})), "<stays>");
  EXPECT_EQ(moved(LExpr::CallF("lt", {lpk, LExpr::Var("k")})), "<stays>");
}

class PkConjunctPlacementTest : public CoreExtendedTest {
 protected:
  void SetUp() override {
    Load("People", {{"maria", "red apple pie"},
                    {"marla", "red apple tart"},
                    {"mario", "green apple pie"},
                    {"a", "red apple pie"},
                    {"b", "blue sky high"},
                    {"maria", "blue sky"},
                    {"jon", "red apple pie"},
                    {"john", "apple pie red"},
                    {"joan", "green tea"},
                    {"x", "green tea cup"}});
    ASSERT_TRUE(engine_
                    ->Execute("create index kw on People(text) type keyword;"
                              "create index ng on People(name) type ngram(2);")
                    .ok());
  }

  static std::string JaccardJoin(const std::string& cond) {
    return "for $l in dataset People for $r in dataset People "
           "where similarity-jaccard(word-tokens($l.text), "
           "word-tokens($r.text)) >= 0.5 and " + cond +
           " return {'l': $l.id, 'r': $r.id}";
  }
  // The ed-join benchmark's shape: `~=` under the edit-distance session.
  static std::string EdJoin(const std::string& cond) {
    return "set simfunction 'edit-distance'; set simthreshold '1'; "
           "for $l in dataset People for $r in dataset People "
           "where $l.name ~= $r.name and " + cond +
           " return {'l': $l.id, 'r': $r.id}";
  }

  void UsePlans(bool index_join, bool three_stage, bool surrogate = true) {
    algebricks::OptContext& opt = engine_->opt_context();
    opt.enable_index_join = index_join;
    opt.enable_three_stage_join = three_stage;
    opt.enable_surrogate_join = surrogate;
  }

  std::vector<std::string> Rows(const std::string& aql) {
    QueryResult result;
    Status s = engine_->Execute(aql, &result);
    EXPECT_TRUE(s.ok()) << s.ToString() << "\nquery: " << aql;
    std::vector<std::string> rows;
    for (const Value& v : result.rows) rows.push_back(v.ToJson());
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  std::string Plan(const std::string& aql) {
    Result<std::string> plan = engine_->Explain(aql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? *plan : std::string();
  }

  /// The plan lines above the three-stage join's rid-pair GROUP-BY (the
  /// stage-3 joins back to the records) and the rest (stages 1 and 2).
  static std::pair<std::string, std::string> SplitAtRidPairs(
      const std::string& plan) {
    size_t at = plan.find("GROUP-BY $");
    while (at != std::string::npos &&
           plan.substr(at, plan.find('\n', at) - at).find("_glid:=") ==
               std::string::npos) {
      at = plan.find("GROUP-BY $", at + 1);
    }
    EXPECT_NE(at, std::string::npos) << plan;
    if (at == std::string::npos) return {plan, ""};
    return {plan.substr(0, at), plan.substr(at)};
  }
};

TEST_F(PkConjunctPlacementTest, ThreeStageAppliesPkConjunctInStageTwo) {
  UsePlans(/*index_join=*/false, /*three_stage=*/true);
  std::string plan = Plan(JaccardJoin("$l.id < $r.id"));
  auto [stage3, below] = SplitAtRidPairs(plan);
  // The stage-2 pt join drops mirror and self pairs as its residual. The
  // `{id, ranks, pt}` records are split, so it reads their field variables...
  EXPECT_TRUE(std::regex_search(
      below, std::regex(R"(JOIN cond=and\(eq\(\$v\d+_ret_pt, )"
                        R"(\$v\d+_ret_pt\), lt\(\$v\d+_ret_id, )"
                        R"(\$v\d+_ret_id\)\))")))
      << plan;
  // ...and no join above the rid-pair GROUP-BY applies it again.
  EXPECT_EQ(stage3.find("lt("), std::string::npos) << plan;
  EXPECT_NE(stage3.find("JOIN cond=eq("), std::string::npos) << plan;
}

// Every exchange ships only the columns something above it reads: the
// rid-pair group's exchange ships the two pks alone, and each stage-2 pt
// exchange the three fields of the split `{id, ranks, pt}` record.
TEST_F(PkConjunctPlacementTest, ThreeStageExchangesShipOnlyLiveColumns) {
  UsePlans(/*index_join=*/false, /*three_stage=*/true);
  Result<hyracks::Job> job = engine_->CompileJob(JaccardJoin("$l.id < $r.id"));
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  auto columns = [&](int node) {
    return job->nodes()[static_cast<size_t>(node)].schema.columns();
  };
  auto ends_with = [](const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  const std::regex pk(R"(v\d+_ret_id)");
  int rid_pair_groups = 0, pt_joins = 0;
  for (const hyracks::Job::Node& node : job->nodes()) {
    const std::vector<std::string>& cols = node.schema.columns();
    if (node.op->name() == "HASH-GROUP" && !cols.empty() &&
        ends_with(cols[0], "_glid")) {
      ++rid_pair_groups;
      const hyracks::Job::Node& exchange =
          job->nodes()[static_cast<size_t>(node.inputs[0])];
      EXPECT_EQ(exchange.op->name(), "HASH-EXCHANGE");
      ASSERT_EQ(exchange.schema.size(), 2u) << exchange.schema.ToString();
      for (const std::string& c : exchange.schema.columns()) {
        EXPECT_TRUE(std::regex_match(c, pk)) << exchange.schema.ToString();
      }
    }
    bool reads_pt = std::any_of(cols.begin(), cols.end(), [&](const auto& c) {
      return ends_with(c, "_pt");
    });
    if (node.op->name() == "HASH-JOIN" && reads_pt) {
      ++pt_joins;
      for (int input : node.inputs) {
        std::vector<std::string> shipped = columns(input);
        EXPECT_EQ(job->nodes()[static_cast<size_t>(input)].op->name(),
                  "HASH-EXCHANGE");
        ASSERT_EQ(shipped.size(), 3u);
        std::string record = shipped[0].substr(0, shipped[0].rfind('_'));
        EXPECT_EQ(shipped, (std::vector<std::string>{record + "_id",
                                                     record + "_ranks",
                                                     record + "_pt"}));
      }
    }
  }
  EXPECT_EQ(rid_pair_groups, 1);
  EXPECT_EQ(pt_joins, 1);
}

// Equal job nodes run once: the self-join's sides compile to the same
// nodes, so the job scans People once, tokenizes it once and ranks each
// record once, and the stage-2 pt HASH-JOIN reads one exchange on both
// inputs. With reuse off each stage keeps its cloned subplan and nothing
// merges; the answers are the same.
TEST_F(PkConjunctPlacementTest, ThreeStageSelfJoinRunsEachSideOnce) {
  UsePlans(/*index_join=*/false, /*three_stage=*/true);
  const std::string query = JaccardJoin("$l.id < $r.id");
  struct Shape {
    size_t nodes = 0;
    int scans = 0, tokenizations = 0, rank_lists = 0;
    bool pt_join_reads_one_node = false;
  };
  auto shape_of = [&]() {
    Result<hyracks::Job> job = engine_->CompileJob(query);
    EXPECT_TRUE(job.ok()) << job.status().ToString();
    Shape shape;
    if (!job.ok()) return shape;
    shape.nodes = job->nodes().size();
    for (const hyracks::Job::Node& node : job->nodes()) {
      const std::string name = node.op->name();
      shape.scans += name.rfind("DATA-SCAN", 0) == 0;
      shape.tokenizations += name.rfind("UNNEST(", 0) == 0 &&
                             name.find("word-tokens") != std::string::npos;
      shape.rank_lists += name.rfind("ASSIGN(", 0) == 0 &&
                          name.find("sort-list") != std::string::npos;
      const std::vector<std::string>& cols = node.schema.columns();
      bool reads_pt = std::any_of(cols.begin(), cols.end(), [](const auto& c) {
        return c.size() > 3 && c.compare(c.size() - 3, 3, "_pt") == 0;
      });
      if (name == "HASH-JOIN" && reads_pt) {
        shape.pt_join_reads_one_node = node.inputs[0] == node.inputs[1];
      }
    }
    return shape;
  };
  Shape merged = shape_of();
  EXPECT_EQ(merged.nodes, 42u);
  EXPECT_EQ(merged.scans, 1);
  EXPECT_EQ(merged.tokenizations, 1);
  EXPECT_EQ(merged.rank_lists, 1);
  EXPECT_TRUE(merged.pt_join_reads_one_node);
  std::vector<std::string> merged_rows = Rows(query);
  EXPECT_FALSE(merged_rows.empty());

  engine_->opt_context().enable_subplan_reuse = false;
  Shape cloned = shape_of();
  EXPECT_EQ(cloned.nodes, 62u);
  EXPECT_EQ(cloned.scans, 5);
  EXPECT_EQ(cloned.tokenizations, 3);
  EXPECT_EQ(cloned.rank_lists, 2);
  EXPECT_FALSE(cloned.pt_join_reads_one_node);
  EXPECT_EQ(Rows(query), merged_rows);
  engine_->opt_context().enable_subplan_reuse = true;
}

// The index-NL edit-distance join's corner branch (an NL-JOIN over the
// records whose T bound is not positive) shares the outer side's scan.
TEST_F(PkConjunctPlacementTest, EdJoinCornerBranchSharesTheScan) {
  UsePlans(/*index_join=*/true, /*three_stage=*/false);
  auto scans = [&]() {
    Result<hyracks::Job> job = engine_->CompileJob(EdJoin("$l.id < $r.id"));
    EXPECT_TRUE(job.ok()) << job.status().ToString();
    int n = 0;
    bool nl_join = false;
    for (const hyracks::Job::Node& node : job->nodes()) {
      n += node.op->name().rfind("DATA-SCAN", 0) == 0;
      nl_join |= node.op->name().rfind("NL-JOIN", 0) == 0;
    }
    EXPECT_TRUE(nl_join);
    return n;
  };
  EXPECT_EQ(scans(), 1);
  engine_->opt_context().enable_subplan_reuse = false;
  EXPECT_EQ(scans(), 2);
  engine_->opt_context().enable_subplan_reuse = true;
}

// count(...) reads only how many rows its subquery returns: the returned
// record is never built, and the root GATHER ships zero-width rows. A
// returned record with a call among its fields is still computed, so the
// call's error surfaces.
TEST_F(PkConjunctPlacementTest, CountBuildsAndShipsNoRecords) {
  UsePlans(/*index_join=*/false, /*three_stage=*/false);
  const std::string pairs =
      "for $l in dataset People for $r in dataset People "
      "where $l.id < $r.id return {'l': $l.id, 'r': $r.id}";
  Result<hyracks::Job> job = engine_->CompileJob("count(" + pairs + ")");
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  for (const hyracks::Job::Node& node : job->nodes()) {
    EXPECT_EQ(node.op->name().find('{'), std::string::npos)
        << node.op->name();
  }
  const hyracks::Job::Node& root =
      job->nodes()[static_cast<size_t>(job->root())];
  EXPECT_EQ(root.op->name(), "GATHER");
  EXPECT_EQ(root.schema.size(), 0u) << root.schema.ToString();
  EXPECT_EQ(RunCount("count(" + pairs + ")"), 45);
  EXPECT_EQ(Rows(pairs).size(), 45u);

  QueryResult result;
  Status s = engine_->Execute(
      "count(for $x in dataset People return {'a': $x.id, 'b': len($x.id)})",
      &result);
  EXPECT_EQ(s.code(), StatusCode::kTypeError) << s.ToString();
}

TEST_F(PkConjunctPlacementTest, IndexJoinAppliesPkConjunctAboveIndexSearch) {
  UsePlans(/*index_join=*/true, /*three_stage=*/true);
  std::string plan = Plan(EdJoin("$l.id < $r.id"));
  EXPECT_TRUE(std::regex_search(
      plan, std::regex(R"(SELECT cond=lt\(\$r\d+_surr, \$r\d+_pk\)\n)"
                       R"(\s*INDEX-SEARCH)")))
      << plan;
  // The surrogate-resolution join keeps it for the corner rows.
  EXPECT_TRUE(std::regex_search(
      plan, std::regex(R"(JOIN cond=and\(eq\(\$v\d+_l\.id, \$r\d+_surr\), )"
                       R"(lt\(\$v\d+_l\.id, \$v\d+_r\.id\)\))")))
      << plan;
  // Without a corner branch (Jaccard) nothing above INDEX-SEARCH re-tests it.
  plan = Plan(JaccardJoin("$l.id < $r.id"));
  EXPECT_TRUE(std::regex_search(
      plan, std::regex(R"(SELECT cond=lt\(\$r\d+_surr, \$r\d+_pk\)\n)"
                       R"(\s*INDEX-SEARCH)")))
      << plan;
  EXPECT_EQ(plan.find("lt($v"), std::string::npos) << plan;
}

TEST_F(PkConjunctPlacementTest, ConjunctReadingNonPkFieldStaysOnTop) {
  const std::string cond = "($l.id < $r.id or $l.name = $r.name)";
  UsePlans(/*index_join=*/false, /*three_stage=*/true);
  std::string plan = Plan(JaccardJoin(cond));
  auto [stage3, below] = SplitAtRidPairs(plan);
  EXPECT_NE(stage3.find("or(lt($v"), std::string::npos) << plan;
  EXPECT_EQ(below.find("or("), std::string::npos) << plan;
  EXPECT_EQ(below.find("lt("), std::string::npos) << plan;

  UsePlans(/*index_join=*/true, /*three_stage=*/true);
  plan = Plan(EdJoin(cond));
  EXPECT_TRUE(std::regex_search(plan, std::regex(R"(LOCAL-SORT\n\s*INDEX-SEARCH)")))
      << plan;
  EXPECT_TRUE(std::regex_search(
      plan, std::regex(R"(JOIN cond=and\(eq\(\$v\d+_l\.id, \$r\d+_surr\), )"
                       R"(or\(lt\()")))
      << plan;

  for (const std::string& aql : {JaccardJoin(cond), EdJoin(cond)}) {
    UsePlans(false, false);
    std::vector<std::string> nl = Rows(aql);
    EXPECT_FALSE(nl.empty());
    UsePlans(false, true);
    EXPECT_EQ(Rows(aql), nl) << aql;
    UsePlans(true, true);
    EXPECT_EQ(Rows(aql), nl) << aql;
  }
}

TEST_F(PkConjunctPlacementTest, EveryComparatorMatchesNestedLoop) {
  for (const char* cmp : {"<", "<=", ">", ">=", "!=", "="}) {
    for (bool swapped : {false, true}) {
      std::string cond = swapped ? "$r.id " + std::string(cmp) + " $l.id"
                                 : "$l.id " + std::string(cmp) + " $r.id";
      for (const std::string& aql : {JaccardJoin(cond), EdJoin(cond)}) {
        UsePlans(/*index_join=*/false, /*three_stage=*/false);
        std::vector<std::string> nl = Rows(aql);
        EXPECT_FALSE(nl.empty()) << aql;
        UsePlans(/*index_join=*/false, /*three_stage=*/true);
        EXPECT_EQ(Rows(aql), nl) << "three-stage: " << aql;
        UsePlans(/*index_join=*/true, /*three_stage=*/true);
        EXPECT_EQ(Rows(aql), nl) << "index-NL: " << aql;
        UsePlans(/*index_join=*/true, /*three_stage=*/true,
                 /*surrogate=*/false);
        EXPECT_EQ(Rows(aql), nl) << "index-NL, no surrogate: " << aql;
      }
    }
  }
  UsePlans(true, true);
}

// ---------- misc query features ----------

TEST_F(CoreExtendedTest, LimitClause) {
  Load("Docs", {{"a", "x"}, {"b", "x"}, {"c", "x"}, {"d", "x"}});
  QueryResult result;
  ASSERT_TRUE(engine_
                  ->Execute("for $d in dataset Docs order by $d.id "
                            "limit 2 return $d.id",
                            &result)
                  .ok());
  EXPECT_EQ(result.rows.size(), 2u);
}

TEST_F(CoreExtendedTest, OrderByMultipleKeysMixedDirections) {
  Load("Docs", {{"b", "1"}, {"a", "1"}, {"a", "2"}});
  QueryResult result;
  ASSERT_TRUE(engine_
                  ->Execute("for $d in dataset Docs "
                            "order by $d.name asc, $d.id desc "
                            "return $d.id",
                            &result)
                  .ok());
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_EQ(result.rows[0].AsInt64(), 3);  // (a, id 3), (a, id 2), (b, id 1)
  EXPECT_EQ(result.rows[1].AsInt64(), 2);
  EXPECT_EQ(result.rows[2].AsInt64(), 1);
}

TEST_F(CoreExtendedTest, ExplicitJoinClause) {
  Load("Docs", {{"a", "x"}, {"b", "y"}});
  Load("Others", {{"a", "z"}});
  int64_t count = RunCount(
      "count(join $d in dataset Docs, $o in dataset Others "
      "on $d.name = $o.name return {'d': $d.id})");
  EXPECT_EQ(count, 1);
}

// int64 1 and double 1.0 compare equal (`1 = 1.0` is true), so HASH-JOIN and
// HASH-GROUP must key them as one value, as the NL join and the hash
// exchange do. NULL and MISSING join keys still match nothing.
TEST_F(CoreExtendedTest, MixedIntDoubleKeysJoinAndGroupAsEqual) {
  ASSERT_TRUE(engine_
                  ->Execute("create dataset L primary key id;"
                            "create dataset R primary key id;")
                  .ok());
  for (int64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine_
                    ->Insert("L", Value::MakeObject({{"id", Value::Int64(i)},
                                                     {"k", Value::Int64(i)}}))
                    .ok());
    ASSERT_TRUE(
        engine_
            ->Insert("R",
                     Value::MakeObject(
                         {{"id", Value::Int64(i)},
                          {"k", Value::Double(static_cast<double>(i))}}))
            .ok());
  }
  for (const char* dataset : {"L", "R"}) {
    ASSERT_TRUE(engine_
                    ->Insert(dataset, Value::MakeObject({{"id", Value::Int64(4)},
                                                         {"k", Value::Null()}}))
                    .ok());
    ASSERT_TRUE(
        engine_->Insert(dataset, Value::MakeObject({{"id", Value::Int64(5)}}))
            .ok());
  }

  EXPECT_EQ(RunCount("count(for $l in dataset L for $r in dataset R "
                     "where $l.k = $r.k return $l.id)"),
            4);
  EXPECT_EQ(RunCount("count(for $l in dataset L for $r in dataset R "
                     "where $l.k <= $r.k and $l.k >= $r.k return $l.id)"),
            4);
  EXPECT_EQ(RunCount("count(for $l in dataset L for $r in dataset L "
                     "where $l.id = $r.id + 0.0 return $l.id)"),
            6);

  QueryResult result;
  ASSERT_TRUE(engine_
                  ->Execute("for $x in [1, 1.0, 2, 2.0] "
                            "group by $g := $x with $x return $g",
                            &result)
                  .ok());
  std::vector<std::string> groups;
  for (const Value& row : result.rows) groups.push_back(row.ToJson());
  std::sort(groups.begin(), groups.end());
  EXPECT_EQ(groups, (std::vector<std::string>{"1", "2"}));
}

// A record read only by field is never built: each read field gets its own
// variable. The answers are those of the whole record: an absent field reads
// MISSING, a null field null, and `$r.inner.name` still reaches the nested
// record's field.
TEST_F(CoreExtendedTest, SplitRecordsAnswerAsWholeRecords) {
  Load("P", {{"ann", "red apple"}, {"bob", "blue sky"}});
  const std::string let =
      "for $x in dataset P let $r := {'id': $x.id, 'nil': null, "
      "'inner': {'name': $x.name}, 'unused': $x.text} ";
  const std::string reads = "return [$r.id, $r.nil, $r.absent, $r.inner.name]";
  QueryResult split;
  ASSERT_TRUE(engine_->Execute(let + reads, &split).ok());
  EXPECT_NE(std::find(split.fired_rules.begin(), split.fired_rules.end(),
                      "split-records-read-by-field"),
            split.fired_rules.end());
  EXPECT_EQ(split.logical_plan.find("{id:"), std::string::npos)
      << split.logical_plan;
  // One whole read of $r keeps it whole.
  QueryResult whole;
  ASSERT_TRUE(
      engine_->Execute(let + "where not(is-missing($r)) " + reads, &whole).ok());
  EXPECT_NE(whole.logical_plan.find("{id:"), std::string::npos)
      << whole.logical_plan;

  auto sorted = [](const QueryResult& r) {
    std::vector<std::string> rows;
    for (const Value& v : r.rows) rows.push_back(v.ToJson());
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  EXPECT_EQ(sorted(split), sorted(whole));
  ASSERT_EQ(split.rows.size(), 2u);
  for (const Value& row : split.rows) {
    const Value::Array& items = row.AsList();
    ASSERT_EQ(items.size(), 4u);
    EXPECT_TRUE(items[1].is_null());
    EXPECT_TRUE(items[2].is_missing());
    EXPECT_TRUE(items[3].is_string());
  }
}

// A record stays whole when it is returned, feeds a UNION-ALL, repeats a
// field name, or has an unread field that calls a function: dropping that
// call would hide its error.
TEST_F(CoreExtendedTest, SplitRecordsLeavesOtherRecordsWhole) {
  Load("P", {{"ann", "red apple"}, {"bob", "blue sky"}});
  for (const std::string aql :
       {"for $x in dataset P let $r := {'a': $x.id, 'b': $x.name} return $r",
        "for $y in union((for $x in dataset P return {'a': $x.id}), "
        "(for $x in dataset P return {'a': $x.id + 100})) return $y.a",
        "for $x in dataset P let $r := {'a': $x.id, 'a': $x.name} return $r.a"}) {
    QueryResult result;
    ASSERT_TRUE(engine_->Execute(aql, &result).ok()) << aql;
    EXPECT_EQ(std::find(result.fired_rules.begin(), result.fired_rules.end(),
                        "split-records-read-by-field"),
              result.fired_rules.end())
        << aql << "\n" << result.logical_plan;
    EXPECT_NE(result.logical_plan.find("{a:"), std::string::npos) << aql;
  }
  QueryResult result;
  Status s = engine_->Execute(
      "for $x in dataset P let $r := {'a': $x.id, 'b': len($x.id)} "
      "return $r.a",
      &result);
  EXPECT_EQ(s.code(), StatusCode::kTypeError) << s.ToString();
}

// NaN equals NaN and sorts above every other number (PostgreSQL's rule), and
// every NaN hashes alike whatever its sign and payload bits. Comparisons,
// hash joins, hash groups and sorts all see that one order.
TEST_F(CoreExtendedTest, NaNIsOneKeyAboveEveryNumber) {
  const std::string nan = "let $n := 1e308 * 10.0 - 1e308 * 10.0 ";
  QueryResult result;
  ASSERT_TRUE(
      engine_->Execute(nan + "return [$n = 1, $n = $n, $n < 1, $n > 1]", &result)
          .ok());
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].ToJson(), "[false,true,false,true]");

  // Only 1-1, 2-2 and NaN-NaN match.
  EXPECT_EQ(RunCount("count(" + nan +
                     "for $a in [1, 2, $n] for $b in [1, 2, $n] "
                     "where $a = $b return $a)"),
            3);

  ASSERT_TRUE(engine_->Execute("create dataset N primary key id;").ok());
  const double quiet = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Value> values = {Value::Double(quiet), Value::Int64(1),
                                     Value::Double(-quiet),
                                     Value::Double(std::nan("7")),
                                     Value::Double(2.5)};
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_TRUE(engine_
                    ->Insert("N", Value::MakeObject(
                                      {{"id", Value::Int64(static_cast<int64_t>(i))},
                                       {"v", values[i]}}))
                    .ok());
  }
  ASSERT_TRUE(engine_
                  ->Execute("for $x in dataset N group by $g := $x.v with $x "
                            "order by $g return count($x)",
                            &result)
                  .ok());
  std::vector<std::string> counts;
  for (const Value& row : result.rows) counts.push_back(row.ToJson());
  EXPECT_EQ(counts, (std::vector<std::string>{"1", "1", "3"}));

  // Half NaN, half numbers in a scrambled order: the numbers come back
  // ascending, then every NaN.
  ASSERT_TRUE(engine_->Execute("create dataset S primary key id;").ok());
  const int kRows = 3000;
  for (int i = 0; i < kRows; ++i) {
    double v = i % 2 == 0 ? quiet : static_cast<double>((i * 7919) % 1009);
    ASSERT_TRUE(engine_
                    ->Insert("S", Value::MakeObject({{"id", Value::Int64(i)},
                                                     {"v", Value::Double(v)}}))
                    .ok());
  }
  ASSERT_TRUE(
      engine_->Execute("for $x in dataset S order by $x.v return $x.v", &result)
          .ok());
  ASSERT_EQ(result.rows.size(), static_cast<size_t>(kRows));
  int misplaced = 0;
  for (int i = 0; i < kRows; ++i) {
    double v = result.rows[static_cast<size_t>(i)].AsNumber();
    bool in_place = std::isnan(v) == (i >= kRows / 2) &&
                    (i == 0 || i >= kRows / 2 ||
                     result.rows[static_cast<size_t>(i) - 1].AsNumber() <= v);
    if (!in_place) ++misplaced;
  }
  EXPECT_EQ(misplaced, 0);
}

TEST_F(CoreExtendedTest, DataPersistsAcrossEngineInstances) {
  Load("Docs", {{"a", "persisted text"}});
  ASSERT_TRUE(engine_->catalog()->Find("Docs")->FlushAll().ok());
  // A new engine over the same directory re-opens the LSM components; the
  // catalog metadata is session-scoped, so re-declare and re-attach.
  EngineOptions options;
  options.data_dir = dir_;
  options.topology = {2, 2};
  QueryProcessor engine2(options);
  ASSERT_TRUE(engine2.Execute("create dataset Docs primary key id;").ok());
  QueryResult result;
  ASSERT_TRUE(engine2.Execute(
      "count(for $d in dataset Docs return $d)", &result).ok());
  EXPECT_EQ(result.rows[0].AsInt64(), 1);
}

TEST_F(CoreExtendedTest, CornerCaseOnlyJoinStillCorrect) {
  // Every outer key is shorter than the gram length: the entire stream goes
  // through the corner-case path (Figure 14's lower branch).
  Load("Short", {{"a", "t"}, {"b", "u"}});
  Load("Names", {{"ab", "x"}, {"xy", "y"}});
  ASSERT_TRUE(
      engine_->Execute("create index nx on Names(name) type ngram(2);").ok());
  std::string query =
      "count(for $s in dataset Short for $n in dataset Names "
      "where edit-distance($s.name, $n.name) <= 1 "
      "return {'s': $s.id, 'n': $n.id})";
  int64_t indexed = RunCount(query);
  engine_->opt_context().enable_index_join = false;
  int64_t nested = RunCount(query);
  engine_->opt_context().enable_index_join = true;
  EXPECT_EQ(indexed, nested);
  EXPECT_EQ(indexed, 2);  // "a"->"ab", "b"? ed("b","ab")=1 yes; "xy" no
}

// ---------- DML statements ----------

TEST_F(CoreExtendedTest, InsertStatement) {
  ASSERT_TRUE(engine_->Execute("create dataset Docs primary key id;").ok());
  ASSERT_TRUE(engine_
                  ->Execute("insert into Docs {'id': 1, 'name': 'a'};"
                            "insert into Docs [{'id': 2, 'name': 'b'},"
                            "                  {'id': 3, 'name': 'c'}];")
                  .ok());
  EXPECT_EQ(RunCount("count(for $d in dataset Docs return $d)"), 3);
}

TEST_F(CoreExtendedTest, InsertMaintainsIndexes) {
  ASSERT_TRUE(engine_
                  ->Execute("create dataset Docs primary key id;"
                            "create index nx on Docs(name) type ngram(2);"
                            "insert into Docs {'id': 1, 'name': 'maria'};")
                  .ok());
  int64_t count = RunCount(
      "count(for $d in dataset Docs "
      "where edit-distance($d.name, 'marla') <= 1 return $d)");
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(RuleFired("introduce-similarity-select-index"));
}

TEST_F(CoreExtendedTest, DeleteStatement) {
  Load("Docs", {{"a", "keep"}, {"b", "drop"}, {"c", "drop"}});
  ASSERT_TRUE(
      engine_->Execute("delete $d from dataset Docs where $d.text = 'drop'")
          .ok());
  EXPECT_EQ(RunCount("count(for $d in dataset Docs return $d)"), 1);
  // Delete-all (no where clause).
  ASSERT_TRUE(engine_->Execute("delete $d from dataset Docs").ok());
  EXPECT_EQ(RunCount("count(for $d in dataset Docs return $d)"), 0);
}

TEST_F(CoreExtendedTest, DeleteWithSimilarityPredicate) {
  Load("Docs", {{"maria", "x"}, {"marla", "x"}, {"james", "x"}});
  ASSERT_TRUE(engine_
                  ->Execute("delete $d from dataset Docs "
                            "where edit-distance($d.name, 'maria') <= 1")
                  .ok());
  EXPECT_EQ(RunCount("count(for $d in dataset Docs return $d)"), 1);
}

TEST_F(CoreExtendedTest, LoadStatement) {
  std::string path = dir_ + "_load.json";
  ASSERT_TRUE(storage::WriteFileAtomic(
                  path,
                  "{\"id\": 1, \"name\": \"a\"}\n"
                  "\n"
                  "{\"id\": 2, \"name\": \"b\"}\n")
                  .ok());
  ASSERT_TRUE(engine_
                  ->Execute("create dataset Docs primary key id;"
                            "load dataset Docs from '" + path + "'")
                  .ok());
  EXPECT_EQ(RunCount("count(for $d in dataset Docs return $d)"), 2);
  storage::RemoveAllBestEffort(path);
}

TEST_F(CoreExtendedTest, LoadRejectsBadJson) {
  std::string path = dir_ + "_bad.json";
  ASSERT_TRUE(storage::WriteFileAtomic(path, "{not json}\n").ok());
  ASSERT_TRUE(engine_->Execute("create dataset Docs primary key id;").ok());
  EXPECT_FALSE(
      engine_->Execute("load dataset Docs from '" + path + "'").ok());
  storage::RemoveAllBestEffort(path);
}

TEST_F(CoreExtendedTest, InsertRejectsNonConstant) {
  ASSERT_TRUE(engine_->Execute("create dataset Docs primary key id;").ok());
  EXPECT_FALSE(
      engine_->Execute("insert into Docs {'id': $x}").ok());
  EXPECT_FALSE(engine_->Execute("insert into Docs 42").ok());
}

TEST_F(CoreExtendedTest, RowMultiplyingOuterDoesNotDuplicateSurrogates) {
  // Regression: when the outer branch of an index join is itself a join that
  // yields several rows per base record, the surrogate optimization must not
  // apply (duplicate surrogates would square the duplication at the
  // resolution join). Probe has two rows matching the same review group.
  Load("Reviews", {{"a", "one two three"},
                   {"b", "one two three"},
                   {"c", "four five six"}});
  ASSERT_TRUE(engine_
                  ->Execute("create index kw on Reviews(text) type keyword;"
                            "create dataset Probe primary key id;"
                            "insert into Probe [{'id': 1, 'tag': 'x'},"
                            "                   {'id': 2, 'tag': 'x'}];")
                  .ok());
  // Give every review the same tag so each probe row matches every review.
  std::string query =
      "count(for $p in dataset Probe for $o in dataset Reviews "
      "for $i in dataset Reviews "
      "where $p.tag = 'x' "
      "and similarity-jaccard(word-tokens($o.text), word-tokens($i.text)) "
      ">= 0.9 and $o.id < $i.id return {'p': $p.id, 'o': $o.id})";
  int64_t optimized = RunCount(query);
  engine_->opt_context().enable_index_join = false;
  engine_->opt_context().enable_three_stage_join = false;
  int64_t nested = RunCount(query);
  engine_->opt_context().enable_index_join = true;
  engine_->opt_context().enable_three_stage_join = true;
  EXPECT_EQ(optimized, nested);
  EXPECT_EQ(nested, 2);  // pair (a,b), seen through each of the 2 probe rows
}

TEST_F(CoreExtendedTest, VerificationUsesCheckVariants) {
  Load("Docs", {{"maria", "one two"}, {"marla", "one three"}});
  // A scan-based selection keeps the predicate in a SELECT, where the
  // finalize pass must swap in the check variant. (The three-stage join
  // verifies on rank lists and never exposes a plain ge(jaccard) conjunct.)
  auto plan = engine_->Explain(
      "for $t in dataset Docs "
      "where similarity-jaccard(word-tokens($t.text), "
      "word-tokens('one two five')) >= 0.5 return $t");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // The final pass swaps verification predicates for the early-terminating
  // check variants (paper Section 3.2).
  EXPECT_NE(plan->find("similarity-jaccard-check"), std::string::npos);
  // And the answers stay the same as the plain-function evaluation.
  int64_t count = RunCount(
      "count(for $l in dataset Docs for $r in dataset Docs "
      "where similarity-jaccard(word-tokens($l.text), "
      "word-tokens($r.text)) >= 0.3 and $l.id < $r.id return $l)");
  EXPECT_EQ(count, 1);  // {one,two} vs {one,three}: 1/3 >= 0.3
}

TEST_F(CoreExtendedTest, ExplainStatement) {
  Load("Docs", {{"maria", "x"}});
  ASSERT_TRUE(
      engine_->Execute("create index nx on Docs(name) type ngram(2);").ok());
  QueryResult result;
  ASSERT_TRUE(engine_
                  ->Execute("explain for $d in dataset Docs "
                            "where edit-distance($d.name, 'marla') <= 1 "
                            "return $d",
                            &result)
                  .ok());
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_NE(result.rows[0].AsString().find("INDEX-SEARCH"),
            std::string::npos);
  // Explain must not execute anything: the dataset stays intact and another
  // query still runs.
  EXPECT_EQ(RunCount("count(for $d in dataset Docs return $d)"), 1);
}

}  // namespace
}  // namespace simdb::core
