#include <gtest/gtest.h>

#include <functional>

#include "algebricks/jobgen.h"
#include "algebricks/lexpr.h"
#include "algebricks/lop.h"
#include "algebricks/rules.h"

namespace simdb::algebricks {
namespace {

using adm::Value;

// ---------- LExpr ----------

TEST(LExprTest, ToStringForms) {
  LExprPtr e = LExpr::CallF(
      "ge", {LExpr::CallF("similarity-jaccard",
                          {LExpr::Field(LExpr::Var("t"), "summary"),
                           LExpr::Lit(Value::String("x"))}),
             LExpr::Lit(Value::Double(0.5))});
  EXPECT_EQ(e->ToString(),
            "ge(similarity-jaccard($t.summary, \"x\"), 0.5)");
}

TEST(LExprTest, CollectAndUsesVars) {
  LExprPtr e = LExpr::CallF("eq", {LExpr::Field(LExpr::Var("a"), "x"),
                                   LExpr::Var("b")});
  std::set<std::string> vars;
  e->CollectVars(&vars);
  EXPECT_EQ(vars, (std::set<std::string>{"a", "b"}));
  EXPECT_TRUE(e->UsesOnly({"a", "b", "c"}));
  EXPECT_FALSE(e->UsesOnly({"a"}));
  EXPECT_TRUE(e->UsesAny({"b"}));
  EXPECT_FALSE(e->UsesAny({"z"}));
}

TEST(LExprTest, SplitAndCombineConjuncts) {
  LExprPtr a = LExpr::Var("a"), b = LExpr::Var("b"), c = LExpr::Var("c");
  LExprPtr cond = LExpr::CallF("and", {LExpr::CallF("and", {a, b}), c});
  std::vector<LExprPtr> conjuncts = SplitConjuncts(cond);
  EXPECT_EQ(conjuncts.size(), 3u);
  LExprPtr combined = CombineConjuncts(conjuncts);
  EXPECT_EQ(SplitConjuncts(combined).size(), 3u);
  // Empty conjunct list is the TRUE literal.
  LExprPtr empty = CombineConjuncts({});
  EXPECT_EQ(empty->kind, LExpr::Kind::kLiteral);
  EXPECT_TRUE(empty->literal.AsBoolean());
}

TEST(LExprTest, SubstituteVars) {
  LExprPtr e = LExpr::CallF("eq", {LExpr::Var("a"), LExpr::Var("b")});
  LExprPtr out = SubstituteVars(e, {{"a", LExpr::Lit(Value::Int64(1))}});
  EXPECT_EQ(out->children[0]->kind, LExpr::Kind::kLiteral);
  EXPECT_EQ(out->children[1]->kind, LExpr::Kind::kVar);
}

TEST(LExprTest, EvaluateConstant) {
  LExprPtr e = LExpr::CallF(
      "add", {LExpr::Lit(Value::Int64(2)), LExpr::Lit(Value::Int64(3))});
  EXPECT_EQ((*EvaluateConstant(e)).AsInt64(), 5);
  EXPECT_FALSE(EvaluateConstant(LExpr::Var("free")).ok());
}

// ---------- LOp ----------

TEST(LOpTest, OutputVarsPerKind) {
  LOpPtr scan = MakeDataScan("X", "t");
  EXPECT_EQ(*scan->OutputVars(), (std::vector<std::string>{"t"}));

  LOpPtr assign = MakeAssign(scan, {{"a", LExpr::Lit(Value::Int64(1))}});
  EXPECT_EQ(*assign->OutputVars(), (std::vector<std::string>{"t", "a"}));

  LOpPtr scan2 = MakeDataScan("Y", "u");
  LOpPtr join = MakeJoin(assign, scan2, LExpr::Lit(Value::Boolean(true)));
  EXPECT_EQ(*join->OutputVars(), (std::vector<std::string>{"t", "a", "u"}));

  LOpPtr group = MakeGroupBy(join, {{"k", LExpr::Var("a")}},
                             {{LAgg::Kind::kCount, nullptr, "n"}});
  EXPECT_EQ(*group->OutputVars(), (std::vector<std::string>{"k", "n"}));

  LOpPtr project = MakeProject(group, {"n"});
  EXPECT_EQ(*project->OutputVars(), (std::vector<std::string>{"n"}));
}

TEST(LOpTest, CloneTreeIsDeep) {
  LOpPtr scan = MakeDataScan("X", "t");
  LOpPtr select = MakeSelect(scan, LExpr::Lit(Value::Boolean(true)));
  LOpPtr clone = CloneTree(select);
  EXPECT_NE(clone.get(), select.get());
  EXPECT_NE(clone->inputs[0].get(), scan.get());
  EXPECT_EQ(clone->inputs[0]->dataset, "X");
}

// ---------- rewrite rules ----------

OptContext Ctx() {
  OptContext ctx;
  return ctx;
}

TEST(RulesTest, PushSelectIntoJoin) {
  LOpPtr join = MakeJoin(MakeDataScan("X", "a"), MakeDataScan("Y", "b"),
                         LExpr::Lit(Value::Boolean(true)));
  LOpPtr root = MakeSelect(
      join, LExpr::CallF("eq", {LExpr::Field(LExpr::Var("a"), "k"),
                                LExpr::Field(LExpr::Var("b"), "k")}));
  OptContext ctx = Ctx();
  RuleSet set{"s", {MakePushSelectIntoJoinRule()}, 4};
  ASSERT_TRUE(*ApplyRuleSet(root, set, ctx));
  EXPECT_EQ(root->kind, LOpKind::kJoin);
  EXPECT_EQ(root->expr->name, "eq");
}

TEST(RulesTest, PushSelectBelowJoinSplitsSingleSideConjuncts) {
  LExprPtr left_only = LExpr::CallF(
      "gt", {LExpr::Field(LExpr::Var("a"), "id"), LExpr::Lit(Value::Int64(3))});
  LExprPtr both = LExpr::CallF("eq", {LExpr::Field(LExpr::Var("a"), "k"),
                                      LExpr::Field(LExpr::Var("b"), "k")});
  LOpPtr root = MakeJoin(MakeDataScan("X", "a"), MakeDataScan("Y", "b"),
                         LExpr::CallF("and", {left_only, both}));
  OptContext ctx = Ctx();
  RuleSet set{"s", {MakePushSelectBelowJoinRule()}, 4};
  ASSERT_TRUE(*ApplyRuleSet(root, set, ctx));
  EXPECT_EQ(root->inputs[0]->kind, LOpKind::kSelect);  // pushed to the left
  EXPECT_EQ(root->inputs[1]->kind, LOpKind::kDataScan);
  EXPECT_EQ(SplitConjuncts(root->expr).size(), 1u);  // only the equi stays
}

TEST(RulesTest, RemoveTrivialSelect) {
  LOpPtr root = MakeSelect(MakeDataScan("X", "a"),
                           LExpr::Lit(Value::Boolean(true)));
  OptContext ctx = Ctx();
  RuleSet set{"s", {MakeRemoveTrivialSelectRule()}, 4};
  ASSERT_TRUE(*ApplyRuleSet(root, set, ctx));
  EXPECT_EQ(root->kind, LOpKind::kDataScan);
}

TEST(RulesTest, CountListifyRewrite) {
  // group by collects $t but every use is count($t) -> becomes a count agg.
  LOpPtr scan = MakeDataScan("X", "t");
  LOpPtr group = MakeGroupBy(
      scan, {{"k", LExpr::Field(LExpr::Var("t"), "f")}},
      {{LAgg::Kind::kListify, LExpr::Var("t"), "collected"}});
  LOpPtr root = MakeSelect(
      group, LExpr::CallF("gt", {LExpr::CallF("count", {LExpr::Var("collected")}),
                                 LExpr::Lit(Value::Int64(2))}));
  OptContext ctx = Ctx();
  ASSERT_TRUE(*ApplyCountListifyRewrite(root, ctx));
  EXPECT_EQ(group->group_aggs[0].kind, LAgg::Kind::kCount);
  // The count() call collapsed to the bare variable.
  EXPECT_EQ(root->expr->children[0]->kind, LExpr::Kind::kVar);
}

TEST(RulesTest, CountListifyKeepsListWhenUsedDirectly) {
  LOpPtr scan = MakeDataScan("X", "t");
  LOpPtr group = MakeGroupBy(
      scan, {{"k", LExpr::Field(LExpr::Var("t"), "f")}},
      {{LAgg::Kind::kListify, LExpr::Var("t"), "collected"}});
  // One use is the raw list -> rewrite must NOT fire.
  LOpPtr root = MakeAssign(
      group, {{"out", LExpr::CallF("sort-list", {LExpr::Var("collected")})}});
  OptContext ctx = Ctx();
  EXPECT_FALSE(*ApplyCountListifyRewrite(root, ctx));
  EXPECT_EQ(group->group_aggs[0].kind, LAgg::Kind::kListify);
}

// ---------- split-record rewrite ----------

LExprPtr FieldOf(const std::string& var, const std::string& field) {
  return LExpr::Field(LExpr::Var(var), field);
}

TEST(RulesTest, SplitRecordReadOnlyByField) {
  // $r := {a: $t.x, b: {c: $t.y}, d: $t.z}; PROJECT $r; read $r.a, $r.b.c
  // and the absent $r.e. $r.d is never read and is not a call: dropped.
  LOpPtr build = MakeAssign(
      MakeDataScan("X", "t"),
      {{"r", LExpr::Record({"a", "b", "d"},
                           {FieldOf("t", "x"),
                            LExpr::Record({"c"}, {FieldOf("t", "y")}),
                            FieldOf("t", "z")})}});
  LOpPtr root = MakeProject(
      MakeAssign(MakeProject(build, {"r"}),
                 {{"out", LExpr::List({FieldOf("r", "a"),
                                       LExpr::Field(FieldOf("r", "b"), "c"),
                                       FieldOf("r", "e")})}}),
      {"out"});
  OptContext ctx = Ctx();
  ASSERT_TRUE(*ApplySplitRecordRewrite(root, ctx));
  EXPECT_EQ(ctx.fired_rules,
            (std::vector<std::string>{"split-records-read-by-field"}));
  // The nested {c: ...} was read only as $r.b.c, so a second pass split it.
  EXPECT_EQ(root->ToString(),
            "PROJECT $out\n"
            "  ASSIGN $out:=[$r_a, $r_b_c, missing]\n"
            "    PROJECT $r_a $r_b_c\n"
            "      ASSIGN $r_a:=$t.x $r_b_c:=$t.y\n"
            "        DATA-SCAN X -> $t\n");
  EXPECT_FALSE(*ApplySplitRecordRewrite(root, ctx));
}

TEST(RulesTest, SplitRecordUnlinksAnAssignLeftEmpty) {
  // Nothing reads $r's fields: its ASSIGN has nothing left to bind.
  LOpPtr root = MakeProject(
      MakeAssign(MakeDataScan("X", "t"),
                 {{"r", LExpr::Record({"a"}, {FieldOf("t", "x")})}}),
      {"t"});
  OptContext ctx = Ctx();
  ASSERT_TRUE(*ApplySplitRecordRewrite(root, ctx));
  EXPECT_EQ(root->ToString(), "PROJECT $t\n  DATA-SCAN X -> $t\n");
}

TEST(RulesTest, SplitRecordKeepsRecordsReadWhole) {
  auto plan_with_read = [](LExprPtr ctor, LExprPtr read) {
    return MakeProject(
        MakeAssign(MakeAssign(MakeDataScan("X", "t"), {{"r", ctor}}),
                   {{"out", read}}),
        {"out"});
  };
  LExprPtr ab = LExpr::Record({"a", "b"}, {FieldOf("t", "x"), FieldOf("t", "y")});
  const std::vector<std::pair<const char*, LOpPtr>> cases = {
      {"passed to a function",
       plan_with_read(ab, LExpr::CallF("is-missing", {LExpr::Var("r")}))},
      {"read whole inside a list", plan_with_read(ab, LExpr::List({LExpr::Var("r")}))},
      {"repeated field name",
       plan_with_read(LExpr::Record({"a", "a"}, {FieldOf("t", "x"),
                                                 FieldOf("t", "y")}),
                      FieldOf("r", "a"))},
      {"unread call-valued field",
       plan_with_read(LExpr::Record({"a", "b"},
                                    {FieldOf("t", "x"),
                                     LExpr::CallF("len", {FieldOf("t", "y")})}),
                      FieldOf("r", "a"))},
      {"in the root's output",
       MakeAssign(MakeDataScan("X", "t"), {{"r", ab}})},
      {"named by a UNION-ALL",
       MakeAssign(MakeUnionAll(MakeAssign(MakeDataScan("X", "t"), {{"r", ab}}),
                               MakeAssign(MakeDataScan("X", "t"), {{"r", ab}}),
                               {"r"}),
                  {{"out", FieldOf("r", "a")}})},
  };
  for (const auto& [why, plan] : cases) {
    LOpPtr root = plan;
    std::string before = root->ToString();
    OptContext ctx = Ctx();
    EXPECT_FALSE(*ApplySplitRecordRewrite(root, ctx)) << why;
    EXPECT_EQ(root->ToString(), before) << why;
  }
}

TEST(RulesTest, RuleSetStopsAtFixpoint) {
  LOpPtr root = MakeSelect(MakeDataScan("X", "a"),
                           LExpr::Lit(Value::Boolean(true)));
  OptContext ctx = Ctx();
  RuleSet set{"s", {MakeRemoveTrivialSelectRule()}, 8};
  ASSERT_TRUE(*ApplyRuleSet(root, set, ctx));
  EXPECT_FALSE(*ApplyRuleSet(root, set, ctx));  // nothing left to do
  EXPECT_EQ(ctx.fired_rules.size(), 1u);
}

// ---------- job generation shapes ----------

TEST(JobGenTest, ScanSelectProject) {
  LOpPtr plan = MakeProject(
      MakeSelect(MakeDataScan("X", "t"),
                 LExpr::CallF("eq", {LExpr::Field(LExpr::Var("t"), "id"),
                                     LExpr::Lit(Value::Int64(1))})),
      {"t"});
  JobGenerator gen;
  hyracks::Job job;
  ASSERT_TRUE(gen.Generate(plan, &job).ok());
  std::string rendered = job.ToString();
  EXPECT_NE(rendered.find("DATA-SCAN"), std::string::npos);
  EXPECT_NE(rendered.find("SELECT"), std::string::npos);
  EXPECT_NE(rendered.find("GATHER"), std::string::npos);
}

TEST(JobGenTest, EquiJoinUsesHashExchanges) {
  LOpPtr join = MakeJoin(
      MakeDataScan("X", "a"), MakeDataScan("Y", "b"),
      LExpr::CallF("eq", {LExpr::Field(LExpr::Var("a"), "k"),
                          LExpr::Field(LExpr::Var("b"), "k")}));
  JobGenerator gen;
  hyracks::Job job;
  ASSERT_TRUE(gen.Generate(join, &job).ok());
  std::string rendered = job.ToString();
  EXPECT_NE(rendered.find("HASH-EXCHANGE"), std::string::npos);
  EXPECT_NE(rendered.find("HASH-JOIN"), std::string::npos);
  EXPECT_EQ(rendered.find("NL-JOIN"), std::string::npos);
}

TEST(JobGenTest, ThetaJoinFallsBackToBroadcastNl) {
  LOpPtr join = MakeJoin(
      MakeDataScan("X", "a"), MakeDataScan("Y", "b"),
      LExpr::CallF("lt", {LExpr::Field(LExpr::Var("a"), "k"),
                          LExpr::Field(LExpr::Var("b"), "k")}));
  JobGenerator gen;
  hyracks::Job job;
  ASSERT_TRUE(gen.Generate(join, &job).ok());
  std::string rendered = job.ToString();
  EXPECT_NE(rendered.find("BROADCAST-EXCHANGE"), std::string::npos);
  EXPECT_NE(rendered.find("NL-JOIN"), std::string::npos);
}

TEST(JobGenTest, BroadcastHintHonored) {
  auto eq = std::make_shared<LExpr>();
  eq->kind = LExpr::Kind::kCall;
  eq->name = "eq";
  eq->children = {LExpr::Field(LExpr::Var("a"), "k"),
                  LExpr::Field(LExpr::Var("b"), "k")};
  eq->bcast_hint = true;
  LOpPtr join = MakeJoin(MakeDataScan("X", "a"), MakeDataScan("Y", "b"),
                         LExprPtr(eq));
  JobGenerator gen;
  hyracks::Job job;
  ASSERT_TRUE(gen.Generate(join, &job).ok());
  std::string rendered = job.ToString();
  EXPECT_NE(rendered.find("BROADCAST-EXCHANGE"), std::string::npos);
  EXPECT_NE(rendered.find("HASH-JOIN"), std::string::npos);
}

TEST(JobGenTest, SharedNodeCompiledOnce) {
  LOpPtr scan = MakeDataScan("X", "a");
  // The same scan feeds both sides of a join (replicate pattern).
  LOpPtr assign = MakeAssign(scan, {{"id", LExpr::Field(LExpr::Var("a"), "id")}});
  LOpPtr join = MakeJoin(assign, assign, LExpr::Lit(Value::Boolean(true)));
  JobGenerator gen;
  hyracks::Job job;
  ASSERT_TRUE(gen.Generate(join, &job).ok());
  int scans = 0;
  for (const auto& node : job.nodes()) {
    if (node.op->name().rfind("DATA-SCAN", 0) == 0) ++scans;
  }
  EXPECT_EQ(scans, 1);  // compiled once, consumed twice
}

TEST(JobGenTest, UnboundVariableIsPlanError) {
  LOpPtr plan = MakeSelect(MakeDataScan("X", "t"),
                           LExpr::CallF("eq", {LExpr::Var("nope"),
                                               LExpr::Lit(Value::Int64(1))}));
  JobGenerator gen;
  hyracks::Job job;
  Status s = gen.Generate(plan, &job);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kPlanError);
}

TEST(JobGenTest, ProjectOfUnboundVariableFails) {
  LOpPtr plan = MakeProject(MakeDataScan("X", "t"), {"ghost"});
  JobGenerator gen;
  hyracks::Job job;
  EXPECT_FALSE(gen.Generate(plan, &job).ok());
}

// ---------- equal job nodes merge ----------

/// UNION-ALL of two branches returning $o: `branch` builds each from its own
/// scan (of X bound to $l, and of `right_dataset` bound to $r), its record
/// variable and whether it is the right one.
using Branch = std::function<LOpPtr(LOpPtr scan, const std::string& var,
                                    bool right)>;
LOpPtr TwoBranches(const Branch& branch,
                   const std::string& right_dataset = "X") {
  return MakeUnionAll(branch(MakeDataScan("X", "l"), "l", false),
                      branch(MakeDataScan(right_dataset, "r"), "r", true),
                      {"o"});
}

/// The nodes of `plan`'s job whose operator name starts with `prefix`.
int CountNodes(const LOpPtr& plan, const std::string& prefix,
               bool merge = true) {
  JobGenerator gen(merge);
  hyracks::Job job;
  Status s = gen.Generate(plan, &job);
  EXPECT_TRUE(s.ok()) << s.ToString();
  int n = 0;
  for (const auto& node : job.nodes()) {
    if (node.op->name().rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

TEST(JobGenMergeTest, EqualBranchesRunOnceUnlessReuseIsOff) {
  LOpPtr plan = TwoBranches([](LOpPtr scan, const std::string& v, bool) {
    return MakeAssign(scan, {{"o", LExpr::CallF("add", {FieldOf(v, "a"),
                                                       LExpr::Lit(Value::Int64(1))})}});
  });
  EXPECT_EQ(CountNodes(plan, "DATA-SCAN"), 1);
  EXPECT_EQ(CountNodes(plan, "ASSIGN"), 1);
  EXPECT_EQ(CountNodes(plan, "DATA-SCAN", /*merge=*/false), 2);
  EXPECT_EQ(CountNodes(plan, "ASSIGN", /*merge=*/false), 2);
}

TEST(JobGenMergeTest, LiteralsOfDifferentTypesStayApart) {
  LOpPtr plan = TwoBranches([](LOpPtr scan, const std::string& v, bool right) {
    Value one = right ? Value::Double(1.0) : Value::Int64(1);
    return MakeAssign(scan, {{"o", LExpr::CallF("add", {FieldOf(v, "a"),
                                                       LExpr::Lit(one)})}});
  });
  EXPECT_EQ(CountNodes(plan, "DATA-SCAN"), 1);
  EXPECT_EQ(CountNodes(plan, "ASSIGN"), 2);
}

TEST(JobGenMergeTest, DifferentFieldsStayApart) {
  LOpPtr plan = TwoBranches([](LOpPtr scan, const std::string& v, bool right) {
    return MakeAssign(scan, {{"o", FieldOf(v, right ? "b" : "a")}});
  });
  EXPECT_EQ(CountNodes(plan, "ASSIGN"), 2);
}

TEST(JobGenMergeTest, DifferentHashKeysStayApart) {
  // Both branches ship the same two columns; one groups by $a and collects
  // $b, the other the other way round.
  auto grouped = [](bool swap) {
    return [swap](LOpPtr scan, const std::string& v, bool right) {
      LOpPtr fields = MakeAssign(scan, {{"a", FieldOf(v, "a")},
                                        {"b", FieldOf(v, "b")}});
      bool by_b = swap && right;
      return MakeGroupBy(fields, {{"g", LExpr::Var(by_b ? "b" : "a")}},
                         {{LAgg::Kind::kListify, LExpr::Var(by_b ? "a" : "b"),
                           "o"}});
    };
  };
  EXPECT_EQ(CountNodes(TwoBranches(grouped(false)), "HASH-EXCHANGE"), 1);
  EXPECT_EQ(CountNodes(TwoBranches(grouped(false)), "HASH-GROUP"), 1);
  EXPECT_EQ(CountNodes(TwoBranches(grouped(true)), "HASH-EXCHANGE"), 2);
  EXPECT_EQ(CountNodes(TwoBranches(grouped(true)), "HASH-GROUP"), 2);
}

TEST(JobGenMergeTest, DifferentSortDirectionsStayApart) {
  auto sorted = [](bool flip) {
    return [flip](LOpPtr scan, const std::string& v, bool right) {
      LOpPtr field = MakeAssign(scan, {{"o", FieldOf(v, "a")}});
      return MakeLocalSort(field, {{LExpr::Var("o"), !(flip && right)}});
    };
  };
  EXPECT_EQ(CountNodes(TwoBranches(sorted(false)), "SORT"), 1);
  EXPECT_EQ(CountNodes(TwoBranches(sorted(true)), "SORT"), 2);
  EXPECT_EQ(CountNodes(TwoBranches(sorted(true)), "ASSIGN"), 1);
}

TEST(JobGenMergeTest, UnnestWithAndWithoutPositionStayApart) {
  LOpPtr plan = TwoBranches([](LOpPtr scan, const std::string& v, bool right) {
    return MakeUnnest(scan, FieldOf(v, "tags"), "o", right ? "at" : "");
  });
  EXPECT_EQ(CountNodes(plan, "UNNEST"), 2);
  EXPECT_EQ(CountNodes(plan, "DATA-SCAN"), 1);
}

TEST(JobGenMergeTest, CountAndListifyStayApart) {
  LOpPtr plan = TwoBranches([](LOpPtr scan, const std::string& v, bool right) {
    LOpPtr field = MakeAssign(scan, {{"a", FieldOf(v, "a")}});
    LAgg agg = right ? LAgg{LAgg::Kind::kListify, LExpr::Var("a"), "o"}
                     : LAgg{LAgg::Kind::kCount, nullptr, "o"};
    return MakeGroupBy(field, {{"g", LExpr::Var("a")}}, {agg});
  });
  EXPECT_EQ(CountNodes(plan, "HASH-EXCHANGE"), 1);
  EXPECT_EQ(CountNodes(plan, "HASH-GROUP"), 2);
}

TEST(JobGenMergeTest, ScansOfTwoDatasetsStayApart) {
  LOpPtr plan = TwoBranches(
      [](LOpPtr scan, const std::string& v, bool) {
        return MakeAssign(scan, {{"o", FieldOf(v, "a")}});
      },
      "Y");
  EXPECT_EQ(CountNodes(plan, "DATA-SCAN"), 2);
  EXPECT_EQ(CountNodes(plan, "ASSIGN"), 2);
}

}  // namespace
}  // namespace simdb::algebricks
