// Tests for the static analysis subsystem: hand-crafted invalid plans with
// precise deterministic diagnostics (plan verifier), task-graph
// well-formedness (dag verifier), rewrite-rule contract enforcement, and
// the regressions the verifiers originally surfaced.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "algebricks/jobgen.h"
#include "algebricks/lexpr.h"
#include "algebricks/lop.h"
#include "algebricks/rules.h"
#include "analysis/dag_verifier.h"
#include "analysis/plan_verifier.h"
#include "analysis/rule_contract.h"
#include "core/query_processor.h"
#include "hyracks/expr.h"
#include "hyracks/ops_basic.h"
#include "hyracks/ops_exchange.h"
#include "hyracks/ops_group.h"
#include "hyracks/ops_scan.h"
#include "storage/file_util.h"

namespace simdb::analysis {
namespace {

using adm::Value;
using algebricks::LExpr;
using algebricks::LExprPtr;
using algebricks::LOp;
using algebricks::LOpKind;
using algebricks::LOpPtr;

LExprPtr Field(const std::string& var, const std::string& field) {
  return LExpr::Field(LExpr::Var(var), field);
}

LExprPtr IntLit(int64_t v) { return LExpr::Lit(Value::Int64(v)); }

/// gt and le selects over one join shared by both union branches, the shape
/// the index-join corner split produces. Stores the shared join in `*join`.
LOpPtr SharedJoinPlan(LOpPtr* join) {
  *join = algebricks::MakeJoin(
      algebricks::MakeDataScan("D", "d"), algebricks::MakeDataScan("E", "e"),
      LExpr::CallF("eq", {Field("d", "id"), Field("e", "id")}));
  LOpPtr gt = algebricks::MakeProject(
      algebricks::MakeSelect(*join,
                             LExpr::CallF("gt", {Field("d", "len"), IntLit(5)})),
      {"d"});
  LOpPtr le = algebricks::MakeProject(
      algebricks::MakeSelect(*join,
                             LExpr::CallF("le", {Field("d", "len"), IntLit(5)})),
      {"d"});
  return algebricks::MakeUnionAll(gt, le, {"d"});
}

// ---------------------------------------------------------------------------
// Plan verifier: invalid-plan classes with deterministic diagnostics
// ---------------------------------------------------------------------------

TEST(PlanVerifier, AcceptsSimpleValidPlan) {
  LOpPtr plan = algebricks::MakeSelect(
      algebricks::MakeDataScan("D", "d"),
      LExpr::CallF("gt", {Field("d", "len"), IntLit(5)}));
  EXPECT_TRUE(PlanVerifier::Verify(plan).ok());
}

TEST(PlanVerifier, AcceptsSharedPlan) {
  LOpPtr join;
  LOpPtr plan = SharedJoinPlan(&join);
  // The join node is reached from both union branches through one pointer.
  EXPECT_EQ(algebricks::CollectSharedNodes(plan).size(), 1u);
  EXPECT_TRUE(PlanVerifier::Verify(plan).ok());
}

TEST(PlanVerifier, RejectsDanglingVariable) {
  // $x is used by the select but never produced upstream.
  LOpPtr plan = algebricks::MakeSelect(
      algebricks::MakeDataScan("D", "d"),
      LExpr::CallF("gt", {LExpr::Var("x"), IntLit(1)}));
  Status s = PlanVerifier::Verify(plan);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.message(),
            "plan verifier: SELECT: condition uses unbound variable $x in "
            "gt($x, 1)");
}

TEST(PlanVerifier, RejectsDuplicateBinding) {
  // The assign rebinds $d, which the scan already produces.
  LOpPtr plan = algebricks::MakeAssign(algebricks::MakeDataScan("D", "d"),
                                       {{"d", IntLit(7)}});
  Status s = PlanVerifier::Verify(plan);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "plan verifier: ASSIGN: duplicate variable binding $d");
}

TEST(PlanVerifier, RejectsJaccardDeltaGuardViolation) {
  // A jaccard T-occurrence search with threshold <= 0 would need T = 0; the
  // rewrite rules guard this and the verifier enforces it in every plan.
  hyracks::SimSearchSpec spec;
  spec.fn = hyracks::SimSearchSpec::Fn::kJaccard;
  spec.threshold = 0.0;
  LOpPtr plan = algebricks::MakeIndexSearch(
      algebricks::MakeConstantTuple(), "D", "idx_kw",
      LExpr::Lit(Value::String("needle")), spec, "pk");
  Status s = PlanVerifier::Verify(plan);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("INDEX-SEARCH: jaccard search with threshold"),
            std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find("(delta guard)"), std::string::npos);
}

TEST(PlanVerifier, RejectsRankOverNonGatheredInput) {
  LOpPtr plan = algebricks::MakeRank(algebricks::MakeDataScan("D", "d"), "i");
  Status s = PlanVerifier::Verify(plan);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.message(),
            "plan verifier: RANK: requires a gathered (globally ordered) "
            "input; got DATA-SCAN");
}

TEST(PlanVerifier, AcceptsRankOverOrderBy) {
  LOpPtr plan = algebricks::MakeRank(
      algebricks::MakeOrderBy(algebricks::MakeDataScan("D", "d"),
                              {{Field("d", "id"), true}}),
      "i");
  EXPECT_TRUE(PlanVerifier::Verify(plan).ok());
}

TEST(PlanVerifier, RejectsMisalignedPrimaryLookup) {
  // $pk is computed by an assign, so partition p may hold pks of other
  // partitions; a partition-local primary lookup would drop rows.
  LOpPtr assign = algebricks::MakeAssign(algebricks::MakeDataScan("D", "d"),
                                         {{"pk", Field("d", "id")}});
  LOpPtr plan = algebricks::MakePrimaryLookup(assign, "D", "pk", "rec");
  Status s = PlanVerifier::Verify(plan);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.message(),
            "plan verifier: PRIMARY-LOOKUP: pk $pk is not partition-aligned "
            "with dataset D");
}

TEST(PlanVerifier, RejectsCyclicPlan) {
  auto a = std::make_shared<LOp>();
  a->kind = LOpKind::kSelect;
  a->expr = LExpr::Lit(Value::Boolean(true));
  auto b = std::make_shared<LOp>();
  b->kind = LOpKind::kSelect;
  b->expr = LExpr::Lit(Value::Boolean(true));
  a->inputs = {b};
  b->inputs = {a};
  Status s = PlanVerifier::Verify(a);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "plan verifier: cycle in logical plan at SELECT");
  // Break the cycle so the shared_ptr pair does not leak under ASan.
  b->inputs.clear();
}

TEST(PlanVerifier, RejectsOverlappingJoinBranches) {
  LOpPtr plan = algebricks::MakeJoin(
      algebricks::MakeDataScan("D", "d"), algebricks::MakeDataScan("E", "d"),
      LExpr::Lit(Value::Boolean(true)));
  Status s = PlanVerifier::Verify(plan);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.message(),
            "plan verifier: JOIN: variable $d is bound by both join branches");
}

TEST(PlanVerifier, RejectsUnknownFunctionCall) {
  LOpPtr plan = algebricks::MakeSelect(
      algebricks::MakeDataScan("D", "d"),
      LExpr::CallF("no-such-function", {Field("d", "x")}));
  Status s = PlanVerifier::Verify(plan);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("call to unknown function no-such-function"),
            std::string::npos)
      << s.message();
}

TEST(PlanVerifier, RejectsUnionBranchMissingVariable) {
  LOpPtr left = algebricks::MakeProject(algebricks::MakeDataScan("D", "d"),
                                        {"d"});
  LOpPtr right = algebricks::MakeDataScan("E", "e");
  LOpPtr plan = algebricks::MakeUnionAll(left, right, {"d"});
  Status s = PlanVerifier::Verify(plan);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.message(),
            "plan verifier: UNION-ALL: branch 1 does not produce union "
            "variable $d");
}

// ---------------------------------------------------------------------------
// Dag verifier: task-graph well-formedness
// ---------------------------------------------------------------------------

TEST(DagVerifier, EdgeShape) {
  EXPECT_TRUE(DagVerifier::VerifyEdges(2, {{}, {0}}).ok());

  Status cyclic = DagVerifier::VerifyEdges(2, {{1}, {0}});
  ASSERT_FALSE(cyclic.ok());
  EXPECT_EQ(cyclic.message(),
            "dag verifier: node 0: input 1 is not an earlier node (cycle or "
            "forward edge)");

  Status dangling = DagVerifier::VerifyEdges(1, {{5}});
  ASSERT_FALSE(dangling.ok());
  EXPECT_EQ(dangling.message(),
            "dag verifier: node 0: input 5 does not exist");
}

hyracks::RowSchema Schema(std::vector<std::string> cols) {
  return hyracks::RowSchema(std::move(cols));
}

TEST(DagVerifier, RejectsDoubleConsumerSteal) {
  hyracks::Job job;
  int scan = job.Add(std::make_unique<hyracks::DataScanOp>("D"), {},
                     Schema({"d"}));
  int gather =
      job.Add(std::make_unique<hyracks::GatherOp>(), {scan}, Schema({"d"}));
  job.Add(std::make_unique<hyracks::SelectOp>(
              hyracks::Lit(Value::Boolean(true))),
          {scan}, Schema({"d"}));
  (void)gather;

  // The scheduler's own plan must be legal: the scan has two consumers, so
  // the gather may not steal it.
  std::vector<bool> planned = hyracks::Executor::PlannedSteals(job);
  EXPECT_FALSE(planned[static_cast<size_t>(gather)]);
  EXPECT_TRUE(DagVerifier::VerifySteals(job, planned).ok());

  std::vector<bool> illegal(job.nodes().size(), false);
  illegal[static_cast<size_t>(gather)] = true;
  Status s = DagVerifier::VerifySteals(job, illegal);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.message(),
            "dag verifier: node 1 (GATHER): steals the output of node 0 "
            "which has 2 consumers");
}

TEST(DagVerifier, RejectsWrongPartitionProperty) {
  // A hash group over a raw scan on a multi-partition cluster: equal keys
  // never meet without a hash exchange on the grouping keys.
  hyracks::Job job;
  int scan = job.Add(std::make_unique<hyracks::DataScanOp>("D"), {},
                     Schema({"d"}));
  job.Add(std::make_unique<hyracks::HashGroupOp>(
              std::vector<hyracks::ExprPtr>{hyracks::Col(0, "d")},
              std::vector<hyracks::AggSpec>{}),
          {scan}, Schema({"d"}));

  hyracks::ClusterTopology multi{2, 2};
  Status s = DagVerifier::Verify(job, multi);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.message(),
            "dag verifier: node 1 (HASH-GROUP): input is not "
            "hash-partitioned on the grouping keys");

  // The same job is fine on a single partition (no colocation obligations).
  hyracks::ClusterTopology single{1, 1};
  EXPECT_TRUE(DagVerifier::Verify(job, single).ok());
}

TEST(DagVerifier, AcceptsHashExchangedGroupAndChecksSchemas) {
  hyracks::Job job;
  int scan = job.Add(std::make_unique<hyracks::DataScanOp>("D"), {},
                     Schema({"d"}));
  int exchange = job.Add(
      std::make_unique<hyracks::HashExchangeOp>(std::vector<int>{0}), {scan},
      Schema({"d"}));
  job.Add(std::make_unique<hyracks::HashGroupOp>(
              std::vector<hyracks::ExprPtr>{hyracks::Col(0, "d")},
              std::vector<hyracks::AggSpec>{}),
          {exchange}, Schema({"d"}));
  hyracks::ClusterTopology multi{2, 2};
  EXPECT_TRUE(DagVerifier::Verify(job, multi).ok());
}

TEST(DagVerifier, RejectsSchemaWidthMismatch) {
  hyracks::Job job;
  int scan = job.Add(std::make_unique<hyracks::DataScanOp>("D"), {},
                     Schema({"d"}));
  // Select preserves width, but the declared schema invents a column.
  job.Add(std::make_unique<hyracks::SelectOp>(
              hyracks::Lit(Value::Boolean(true))),
          {scan}, Schema({"d", "ghost"}));
  hyracks::ClusterTopology single{1, 1};
  Status s = DagVerifier::Verify(job, single);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("declared schema has 2 columns, operator "
                             "produces 1"),
            std::string::npos)
      << s.message();
}

// ---------------------------------------------------------------------------
// Rule contracts
// ---------------------------------------------------------------------------

/// Deliberately broken rule: narrows a multi-variable project to its first
/// variable, violating the default preserves_output_vars contract.
class DropVarRule : public algebricks::RewriteRule {
 public:
  std::string name() const override { return "drop-var-rule"; }
  Result<bool> Apply(LOpPtr& op, algebricks::OptContext&) override {
    if (op->kind != LOpKind::kProject || op->project_vars.size() < 2) {
      return false;
    }
    op = algebricks::MakeProject(op->inputs[0], {op->project_vars[0]});
    return true;
  }
};

TEST(RuleContract, ReportsOffendingRuleWithDiff) {
  LOpPtr plan = algebricks::MakeProject(
      algebricks::MakeAssign(algebricks::MakeDataScan("D", "d"),
                             {{"x", Field("d", "len")}}),
      {"d", "x"});

  algebricks::RuleSet set;
  set.name = "broken";
  set.rules = {std::make_shared<DropVarRule>()};

  RuleContractChecker checker(nullptr);
  algebricks::OptContext ctx;
  ctx.check_hook = &checker;
  Result<bool> changed = algebricks::ApplyRuleSet(plan, set, ctx);
  ASSERT_FALSE(changed.ok());
  const std::string& msg = changed.status().message();
  EXPECT_NE(msg.find("rule 'drop-var-rule' dropped output variable $x"),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("seed plan:"), std::string::npos);
  EXPECT_NE(msg.find("minimized diff:"), std::string::npos);
  // The diff is minimized to the changed lines: both renderings of the
  // project edge appear, prefixed with -/+.
  EXPECT_NE(msg.find("- PROJECT"), std::string::npos);
  EXPECT_NE(msg.find("+ PROJECT"), std::string::npos);
}

TEST(RuleContract, CleanRuleSetPassesUnderChecker) {
  LOpPtr join = algebricks::MakeJoin(
      algebricks::MakeDataScan("D", "d"), algebricks::MakeDataScan("E", "e"),
      LExpr::CallF("eq", {Field("d", "id"), Field("e", "id")}));
  LOpPtr plan = algebricks::MakeSelect(
      join, LExpr::CallF("gt", {Field("d", "len"), IntLit(5)}));

  algebricks::RuleSet set;
  set.name = "normalize";
  set.rules = {algebricks::MakePushSelectIntoJoinRule(),
               algebricks::MakePushSelectBelowJoinRule(),
               algebricks::MakeRemoveTrivialSelectRule()};

  RuleContractChecker checker(nullptr);
  algebricks::OptContext ctx;
  ctx.check_hook = &checker;
  Result<bool> changed = algebricks::ApplyRuleSet(plan, set, ctx);
  ASSERT_TRUE(changed.ok()) << changed.status().ToString();
  EXPECT_TRUE(changed.value());
  EXPECT_TRUE(PlanVerifier::Verify(plan).ok());
}

// ---------------------------------------------------------------------------
// Regressions surfaced by the verifiers
// ---------------------------------------------------------------------------

TEST(RuleContract, SelectMergeSkipsSharedJoin) {
  // Regression: PushSelectIntoJoin used to merge an outer select's condition
  // into a join shared by another parent (the index-join corner split shares
  // the join pipeline between gt/le selects). Merging both contradictory
  // conditions into the shared node emptied both branches.
  LOpPtr join;
  LOpPtr plan = SharedJoinPlan(&join);

  const std::string join_cond_before = join->expr->ToString();

  algebricks::RuleSet set;
  set.name = "normalize";
  set.rules = {algebricks::MakePushSelectIntoJoinRule()};
  algebricks::OptContext ctx;
  Result<bool> changed = algebricks::ApplyRuleSet(plan, set, ctx);
  ASSERT_TRUE(changed.ok()) << changed.status().ToString();

  // The shared join's condition is untouched and both selects survive.
  EXPECT_EQ(join->expr->ToString(), join_cond_before);
  ASSERT_EQ(plan->inputs[0]->inputs[0]->kind, LOpKind::kSelect);
  ASSERT_EQ(plan->inputs[1]->inputs[0]->kind, LOpKind::kSelect);
  EXPECT_TRUE(PlanVerifier::Verify(plan).ok());
}

TEST(RuleContract, SelectMergeStillFiresOnUnsharedJoin) {
  LOpPtr plan = algebricks::MakeSelect(
      algebricks::MakeJoin(algebricks::MakeDataScan("D", "d"),
                           algebricks::MakeDataScan("E", "e"),
                           LExpr::CallF("eq",
                                        {Field("d", "id"), Field("e", "id")})),
      LExpr::CallF("gt", {Field("d", "len"), IntLit(5)}));

  algebricks::RuleSet set;
  set.name = "normalize";
  set.rules = {algebricks::MakePushSelectIntoJoinRule()};
  algebricks::OptContext ctx;
  Result<bool> changed = algebricks::ApplyRuleSet(plan, set, ctx);
  ASSERT_TRUE(changed.ok());
  EXPECT_TRUE(changed.value());
  EXPECT_EQ(plan->kind, LOpKind::kJoin);
}

TEST(DagVerifier, MaterializedAssignSchemaIncludesAppendedColumns) {
  // Regression: the job generator attached the assign node's schema before
  // widening the plan, so materialized group-by keys were missing from the
  // declared schema.
  LOpPtr plan = algebricks::MakeGroupBy(
      algebricks::MakeDataScan("D", "d"), {{"g", Field("d", "cat")}},
      {{algebricks::LAgg::Kind::kCount, nullptr, "c"}});

  hyracks::Job job;
  algebricks::JobGenerator jobgen;
  ASSERT_TRUE(jobgen.Generate(plan, &job).ok());

  bool saw_assign = false;
  for (size_t i = 0; i < job.nodes().size(); ++i) {
    const hyracks::Job::Node& node = job.nodes()[i];
    const auto* assign = dynamic_cast<const hyracks::AssignOp*>(node.op.get());
    if (assign == nullptr) continue;
    saw_assign = true;
    EXPECT_EQ(node.schema.size(),
              job.schema(node.inputs[0]).size() + assign->exprs().size());
  }
  EXPECT_TRUE(saw_assign);

  hyracks::ClusterTopology multi{2, 2};
  EXPECT_TRUE(DagVerifier::Verify(job, multi).ok());
}

// ---------------------------------------------------------------------------
// End-to-end: engine with verify_plans enabled
// ---------------------------------------------------------------------------

TEST(VerifiedEngine, SimilarityQueriesPassVerification) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("simdb_verify_" + std::to_string(::getpid())))
                        .string();
  storage::RemoveAllBestEffort(dir);
  core::EngineOptions options;
  options.data_dir = dir;
  options.topology = {2, 2};
  options.num_threads = 2;
  options.verify_plans = true;
  core::QueryProcessor engine(options);

  ASSERT_TRUE(engine
                  .Execute("create dataset R primary key id;"
                           "create index R_kw on R(summary) type keyword;"
                           "create index R_ng on R(name) type ngram(2);")
                  .ok());
  const char* names[] = {"james", "jamie", "mary", "maria", "marla"};
  const char* summaries[] = {
      "great product fantastic gift", "great product really fantastic gift",
      "this movie touched my heart", "the best charger i ever bought",
      "great gift"};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine
                    .Insert("R", Value::MakeObject(
                                     {{"id", Value::Int64(i + 1)},
                                      {"name", Value::String(names[i])},
                                      {"summary", Value::String(summaries[i])}}))
                    .ok());
  }

  core::QueryResult result;
  Status jaccard = engine.Execute(
      "set simfunction \"jaccard\"; set simthreshold \"0.5\";"
      "for $r in dataset R "
      "where word-tokens($r.summary) ~= word-tokens(\"great fantastic "
      "product gift\") return $r.id;",
      &result);
  ASSERT_TRUE(jaccard.ok()) << jaccard.ToString();
  EXPECT_FALSE(result.rows.empty());

  Status ed_join = engine.Execute(
      "set simfunction \"edit-distance\"; set simthreshold \"2\";"
      "for $a in dataset R for $b in dataset R "
      "where $a.name ~= $b.name and $a.id < $b.id "
      "return {\"a\": $a.id, \"b\": $b.id};",
      &result);
  ASSERT_TRUE(ed_join.ok()) << ed_join.ToString();
  EXPECT_FALSE(result.rows.empty());

  storage::RemoveAllBestEffort(dir);
}

}  // namespace
}  // namespace simdb::analysis
