#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "hyracks/exec.h"
#include "hyracks/expr.h"
#include "hyracks/ops_basic.h"
#include "hyracks/ops_exchange.h"
#include "hyracks/ops_group.h"
#include "hyracks/ops_index.h"
#include "hyracks/ops_join.h"
#include "hyracks/ops_scan.h"
#include "storage/file_util.h"
#include "testing/operators.h"

namespace simdb::hyracks {
namespace {

using adm::Value;

class HyracksTest : public ::testing::Test {
 protected:
  HyracksTest() {
    static int counter = 0;
    dir_ = (std::filesystem::temp_directory_path() /
            ("simdb_hyx_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++)))
               .string();
    SIMDB_CHECK(storage::EnsureDir(dir_).ok()) << dir_;
    catalog_ = std::make_unique<storage::Catalog>(dir_);
    pool_ = std::make_unique<ThreadPool>(2);
    ctx_.pool = pool_.get();
    ctx_.catalog = catalog_.get();
    ctx_.topology = {2, 2};  // 2 nodes x 2 partitions
    ctx_.stats = &stats_;
  }
  ~HyracksTest() override { storage::RemoveAllBestEffort(dir_); }

  /// Builds a partitioned input by round-robin over int values.
  PartitionedRows MakeInts(const std::vector<int64_t>& values) {
    PartitionedRows rows(4, Rows(1));
    for (size_t i = 0; i < values.size(); ++i) {
      rows[i % 4].Append()[0] = Value::Int64(values[i]);
    }
    return rows;
  }

  std::vector<int64_t> CollectInts(const PartitionedRows& rows, int col = 0) {
    std::vector<int64_t> out;
    for (const Rows& part : rows) {
      for (Row t : part) {
        out.push_back(t[static_cast<size_t>(col)].AsInt64());
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  Result<PartitionedRows> RunOp(std::unique_ptr<Operator> op,
                                std::vector<const PartitionedRows*> inputs,
                                OpStats* stats = nullptr) {
    return testing::RunOperator(ctx_, std::move(op), inputs, stats);
  }

  std::string dir_;
  std::unique_ptr<storage::Catalog> catalog_;
  std::unique_ptr<ThreadPool> pool_;
  ExecStats stats_;
  ExecContext ctx_;
};

TEST_F(HyracksTest, SchemaLookups) {
  RowSchema s({"a", "b"});
  EXPECT_EQ(s.IndexOf("b"), 1);
  EXPECT_EQ(s.IndexOf("z"), -1);
  EXPECT_FALSE(s.Require("z").ok());
  RowSchema c = RowSchema::Concat(s, RowSchema({"c"}));
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.IndexOf("c"), 2);
}

TEST_F(HyracksTest, ExprEvaluation) {
  Tuple row = {Value::Int64(10), Value::String("hi")};
  ExprPtr e = *Call("add", {Col(0, "x"), Lit(Value::Int64(5))});
  EXPECT_EQ((*e->Eval(row)).AsInt64(), 15);
  ExprPtr cmp = *Call("lt", {Col(0, "x"), Lit(Value::Int64(3))});
  EXPECT_FALSE((*cmp->Eval(row)).AsBoolean());
}

TEST_F(HyracksTest, ExprUnknownFunctionFailsAtBuild) {
  EXPECT_FALSE(Call("bogus-fn", {}).ok());
  EXPECT_FALSE(Call("add", {Lit(Value::Int64(1))}).ok());  // arity
}

// SameAs compares structure: column positions, literal types and values,
// field and function names. Column names are labels.
TEST_F(HyracksTest, ExprSameAsComparesStructureNotNames) {
  auto add = [](ExprPtr a, Value lit) { return *Call("add", {a, Lit(lit)}); };
  auto field = [](int col, const std::string& name) {
    return ExprPtr(std::make_shared<FieldAccessExpr>(Col(col, "x"), name));
  };
  EXPECT_TRUE(add(Col(0, "x"), Value::Int64(1))
                  ->SameAs(*add(Col(0, "renamed"), Value::Int64(1))));
  EXPECT_FALSE(add(Col(0, "x"), Value::Int64(1))
                   ->SameAs(*add(Col(0, "x"), Value::Double(1.0))));
  EXPECT_FALSE(add(Col(0, "x"), Value::Double(0.0))
                   ->SameAs(*add(Col(0, "x"), Value::Double(-0.0))));
  EXPECT_FALSE(add(Col(0, "x"), Value::Int64(1))
                   ->SameAs(*add(Col(1, "x"), Value::Int64(1))));
  EXPECT_FALSE(add(Col(0, "x"), Value::Int64(1))
                   ->SameAs(**Call("sub", {Col(0, "x"), Lit(Value::Int64(1))})));
  EXPECT_TRUE(field(0, "a")->SameAs(*field(0, "a")));
  EXPECT_FALSE(field(0, "a")->SameAs(*field(0, "b")));
  EXPECT_FALSE(field(0, "a")->SameAs(*Col(0, "x")));
  Value list_int = Value::MakeArray({Value::Int64(1)});
  Value list_double = Value::MakeArray({Value::Double(1.0)});
  EXPECT_TRUE(Lit(list_int)->SameAs(*Lit(Value::MakeArray({Value::Int64(1)}))));
  EXPECT_FALSE(Lit(list_int)->SameAs(*Lit(list_double)));
  EXPECT_FALSE(
      Lit(list_int)->SameAs(*Lit(Value::MakeMultiset({Value::Int64(1)}))));
  EXPECT_TRUE(SameExpr(nullptr, nullptr));
  EXPECT_FALSE(SameExpr(Col(0, "x"), nullptr));
}

// Operators of one kind are the same when every parameter is: one
// parameter apart keeps them apart, and a kind with no comparison
// (CONSTANT-SOURCE) never matches, not even itself.
TEST_F(HyracksTest, OperatorSameAsComparesEveryParameter) {
  ExprPtr pred = *Call("lt", {Col(0, "x"), Lit(Value::Int64(3))});
  EXPECT_TRUE(SelectOp(pred).SameAs(SelectOp(
      *Call("lt", {Col(0, "y"), Lit(Value::Int64(3))}))));
  EXPECT_FALSE(SelectOp(pred).SameAs(SelectOp(
      *Call("lt", {Col(0, "x"), Lit(Value::Double(3.0))}))));
  EXPECT_FALSE(SelectOp(pred).SameAs(AssignOp({pred}, {"p"})));
  EXPECT_TRUE(AssignOp({pred}, {"p"}).SameAs(AssignOp({pred}, {"q"})));
  EXPECT_FALSE(AssignOp({pred}, {"p"}).SameAs(AssignOp({pred, pred}, {"p", "q"})));
  EXPECT_TRUE(ProjectOp({1, 0}).SameAs(ProjectOp({1, 0})));
  EXPECT_FALSE(ProjectOp({1, 0}).SameAs(ProjectOp({0, 1})));
  EXPECT_TRUE(SortOp({{0, true}}).SameAs(SortOp({{0, true}})));
  EXPECT_FALSE(SortOp({{0, true}}).SameAs(SortOp({{0, false}})));
  EXPECT_FALSE(SortOp({{0, true}}).SameAs(SortOp({{1, true}})));
  EXPECT_FALSE(MergeGatherOp({{0, true}}).SameAs(MergeGatherOp({{0, false}})));
  EXPECT_TRUE(UnnestOp(Col(0, "l"), false).SameAs(UnnestOp(Col(0, "m"), false)));
  EXPECT_FALSE(UnnestOp(Col(0, "l"), false).SameAs(UnnestOp(Col(0, "l"), true)));
  EXPECT_TRUE(HashExchangeOp({0, 2}).SameAs(HashExchangeOp({0, 2})));
  EXPECT_FALSE(HashExchangeOp({0, 2}).SameAs(HashExchangeOp({0, 1})));
  EXPECT_FALSE(HashExchangeOp({0}).SameAs(BroadcastExchangeOp()));
  EXPECT_TRUE(BroadcastExchangeOp().SameAs(BroadcastExchangeOp()));
  EXPECT_TRUE(HashJoinOp({0}, {1}).SameAs(HashJoinOp({0}, {1})));
  EXPECT_FALSE(HashJoinOp({0}, {1}).SameAs(HashJoinOp({1}, {0})));
  EXPECT_FALSE(HashJoinOp({0}, {1}).SameAs(HashJoinOp({0}, {1}, pred)));
  EXPECT_FALSE(NestedLoopJoinOp(pred).SameAs(
      NestedLoopJoinOp(*Call("le", {Col(0, "x"), Lit(Value::Int64(3))}))));
  auto group = [](AggSpec::Kind kind, ExprPtr input, ExprPtr key) {
    return HashGroupOp({std::move(key)},
                       {AggSpec{kind, std::move(input), "out"}});
  };
  EXPECT_TRUE(group(AggSpec::Kind::kCount, nullptr, Col(0, "k"))
                  .SameAs(group(AggSpec::Kind::kCount, nullptr, Col(0, "g"))));
  EXPECT_FALSE(group(AggSpec::Kind::kCount, nullptr, Col(0, "k"))
                   .SameAs(group(AggSpec::Kind::kListify, nullptr, Col(0, "k"))));
  EXPECT_FALSE(group(AggSpec::Kind::kListify, Col(1, "v"), Col(0, "k"))
                   .SameAs(group(AggSpec::Kind::kListify, Col(2, "v"), Col(0, "k"))));
  EXPECT_FALSE(group(AggSpec::Kind::kCount, nullptr, Col(0, "k"))
                   .SameAs(group(AggSpec::Kind::kCount, nullptr, Col(1, "k"))));
  EXPECT_TRUE(DataScanOp("A").SameAs(DataScanOp("A")));
  EXPECT_FALSE(DataScanOp("A").SameAs(DataScanOp("B")));
  EXPECT_FALSE(PrimaryLookupOp("A", 0).SameAs(PrimaryLookupOp("A", 1)));
  EXPECT_FALSE(
      InvertedIndexSearchOp("A", "kw", Col(0, "k"), {SimSearchSpec::Fn::kJaccard, 0.5})
          .SameAs(InvertedIndexSearchOp("A", "kw", Col(0, "k"),
                                        {SimSearchSpec::Fn::kJaccard, 0.6})));
  EXPECT_FALSE(BtreeSearchOp("A", "b1", Col(0, "k"))
                   .SameAs(BtreeSearchOp("A", "b2", Col(0, "k"))));
  EXPECT_TRUE(RankAssignOp(1).SameAs(RankAssignOp(1)));
  EXPECT_FALSE(RankAssignOp(1).SameAs(RankAssignOp(0)));
  EXPECT_FALSE(LimitOp(3).SameAs(LimitOp(4)));
  ConstantSourceOp constant{Rows(0)};
  EXPECT_FALSE(constant.SameAs(constant));
}

TEST_F(HyracksTest, FieldAccess) {
  Value rec = Value::MakeObject({{"name", Value::String("x")}});
  Tuple row = {rec};
  FieldAccessExpr fa(Col(0, "r"), "name");
  EXPECT_EQ((*fa.Eval(row)).AsString(), "x");
  FieldAccessExpr missing(Col(0, "r"), "zzz");
  EXPECT_TRUE((*missing.Eval(row)).is_missing());
}

TEST_F(HyracksTest, SelectFilters) {
  PartitionedRows in = MakeInts({1, 2, 3, 4, 5, 6, 7, 8});
  auto out = *RunOp(std::make_unique<SelectOp>(
                        *Call("gt", {Col(0, "v"), Lit(Value::Int64(4))})),
                    {&in});
  EXPECT_EQ(CollectInts(out), (std::vector<int64_t>{5, 6, 7, 8}));
}

TEST_F(HyracksTest, AssignAppendsColumns) {
  PartitionedRows in = MakeInts({1, 2});
  auto out = *RunOp(
      std::make_unique<AssignOp>(
          std::vector<ExprPtr>{
              *Call("mul", {Col(0, "v"), Lit(Value::Int64(10))})},
          std::vector<std::string>{"v10"}),
      {&in});
  EXPECT_EQ(CollectInts(out, 1), (std::vector<int64_t>{10, 20}));
}

TEST_F(HyracksTest, ProjectReorders) {
  PartitionedRows in(4);
  in[0] = {{Value::Int64(1), Value::String("a")}};
  auto out = *RunOp(std::make_unique<ProjectOp>(std::vector<int>{1, 0}), {&in});
  EXPECT_EQ(out[0][0][0].AsString(), "a");
  EXPECT_EQ(out[0][0][1].AsInt64(), 1);
}

TEST_F(HyracksTest, SortPerPartition) {
  PartitionedRows in(4);
  in[1] = {{Value::Int64(3)}, {Value::Int64(1)}, {Value::Int64(2)}};
  auto out =
      *RunOp(std::make_unique<SortOp>(std::vector<SortKey>{{0, true}}), {&in});
  EXPECT_EQ(out[1][0][0].AsInt64(), 1);
  EXPECT_EQ(out[1][2][0].AsInt64(), 3);
}

TEST_F(HyracksTest, UnnestWithPosition) {
  PartitionedRows in(4);
  in[0] = {{Value::MakeArray(
      {Value::String("x"), Value::String("y"), Value::String("z")})}};
  auto out = *RunOp(
      std::make_unique<UnnestOp>(Col(0, "list"), /*with_position=*/true),
      {&in});
  ASSERT_EQ(out[0].size(), 3u);
  EXPECT_EQ(out[0][0][1].AsString(), "x");
  EXPECT_EQ(out[0][0][2].AsInt64(), 1);  // positions are 1-based
  EXPECT_EQ(out[0][2][2].AsInt64(), 3);
}

TEST_F(HyracksTest, UnnestSkipsMissing) {
  PartitionedRows in(4);
  in[0] = {{Value::Missing()}};
  auto out =
      *RunOp(std::make_unique<UnnestOp>(Col(0, "list"), false), {&in});
  EXPECT_EQ(RowsCount(out), 0u);
}

TEST_F(HyracksTest, HashExchangeGroupsEqualKeys) {
  PartitionedRows in = MakeInts({1, 2, 3, 1, 2, 3, 1, 2});
  OpStats stats;
  auto out = *RunOp(std::make_unique<HashExchangeOp>(std::vector<int>{0}),
                    {&in}, &stats);
  // Equal keys must land in the same partition.
  for (int64_t key : {1, 2, 3}) {
    std::set<size_t> parts;
    for (size_t p = 0; p < out.size(); ++p) {
      for (Row t : out[p]) {
        if (t[0].AsInt64() == key) parts.insert(p);
      }
    }
    EXPECT_EQ(parts.size(), 1u) << "key " << key;
  }
  EXPECT_EQ(CollectInts(out), CollectInts(in));
  EXPECT_GT(stats.local_bytes + stats.remote_bytes, 0u);
}

TEST_F(HyracksTest, BroadcastReplicatesEverywhere) {
  PartitionedRows in = MakeInts({7, 8});
  OpStats stats;
  auto out = *RunOp(std::make_unique<BroadcastExchangeOp>(), {&in}, &stats);
  for (const Rows& part : out) EXPECT_EQ(part.size(), 2u);
  EXPECT_GT(stats.remote_bytes, 0u);  // crosses the 2-node boundary
}

TEST_F(HyracksTest, GatherCollectsIntoPartitionZero) {
  PartitionedRows in = MakeInts({1, 2, 3, 4, 5});
  auto out = *RunOp(std::make_unique<GatherOp>(), {&in});
  EXPECT_EQ(out[0].size(), 5u);
  EXPECT_TRUE(out[1].empty() && out[2].empty() && out[3].empty());
}

TEST_F(HyracksTest, MergeGatherKeepsGlobalOrder) {
  PartitionedRows in(4);
  in[0] = {{Value::Int64(1)}, {Value::Int64(5)}};
  in[1] = {{Value::Int64(2)}, {Value::Int64(6)}};
  in[2] = {{Value::Int64(3)}};
  in[3] = {{Value::Int64(0)}, {Value::Int64(4)}};
  auto out = *RunOp(
      std::make_unique<MergeGatherOp>(std::vector<SortKey>{{0, true}}), {&in});
  ASSERT_EQ(out[0].size(), 7u);
  for (size_t i = 0; i < out[0].size(); ++i) {
    EXPECT_EQ(out[0][i][0].AsInt64(), static_cast<int64_t>(i));
  }
}

TEST_F(HyracksTest, RankAssignNumbersRows) {
  PartitionedRows in(4);
  in[0] = {{Value::String("a")}, {Value::String("b")}};
  auto out = *RunOp(std::make_unique<RankAssignOp>(), {&in});
  EXPECT_EQ(out[0][0][1].AsInt64(), 0);
  EXPECT_EQ(out[0][1][1].AsInt64(), 1);
}

TEST_F(HyracksTest, RankAssignRejectsUngatheredInput) {
  PartitionedRows in = MakeInts({1, 2, 3, 4, 5});
  EXPECT_FALSE(RunOp(std::make_unique<RankAssignOp>(), {&in}).ok());
}

TEST_F(HyracksTest, HashGroupCountsAndListifies) {
  PartitionedRows in(4);
  // All in one partition so grouping is global.
  in[0] = {{Value::String("a"), Value::Int64(1)},
           {Value::String("b"), Value::Int64(2)},
           {Value::String("a"), Value::Int64(3)}};
  auto out = *RunOp(std::make_unique<HashGroupOp>(
                        std::vector<ExprPtr>{Col(0, "k")},
                        std::vector<AggSpec>{
                            {AggSpec::Kind::kCount, nullptr, "cnt"},
                            {AggSpec::Kind::kListify, Col(1, "v"), "vals"},
                            {AggSpec::Kind::kSum, Col(1, "v"), "sum"},
                            {AggSpec::Kind::kMin, Col(1, "v"), "min"}}),
                    {&in});
  ASSERT_EQ(out[0].size(), 2u);
  for (Row row : out[0]) {
    if (row[0].AsString() == "a") {
      EXPECT_EQ(row[1].AsInt64(), 2);
      EXPECT_EQ(row[2].AsList().size(), 2u);
      EXPECT_EQ(row[3].AsInt64(), 4);
      EXPECT_EQ(row[4].AsInt64(), 1);
    } else {
      EXPECT_EQ(row[1].AsInt64(), 1);
      EXPECT_EQ(row[3].AsInt64(), 2);
    }
  }
}

TEST_F(HyracksTest, HashJoinMatchesEqualKeys) {
  PartitionedRows left(4), right(4);
  left[0] = {{Value::Int64(1), Value::String("l1")},
             {Value::Int64(2), Value::String("l2")}};
  right[0] = {{Value::Int64(2), Value::String("r2")},
              {Value::Int64(3), Value::String("r3")}};
  auto out = *RunOp(std::make_unique<HashJoinOp>(std::vector<int>{0},
                                                 std::vector<int>{0}),
                    {&left, &right});
  ASSERT_EQ(RowsCount(out), 1u);
  EXPECT_EQ(out[0][0][1].AsString(), "l2");
  EXPECT_EQ(out[0][0][3].AsString(), "r2");
}

TEST_F(HyracksTest, HashJoinSkipsMissingKeys) {
  PartitionedRows left(4), right(4);
  left[0] = {{Value::Missing()}};
  right[0] = {{Value::Missing()}};
  auto out = *RunOp(std::make_unique<HashJoinOp>(std::vector<int>{0},
                                                 std::vector<int>{0}),
                    {&left, &right});
  EXPECT_EQ(RowsCount(out), 0u);
}

TEST_F(HyracksTest, HashJoinResidualFilters) {
  PartitionedRows left(4), right(4);
  left[0] = {{Value::Int64(1), Value::Int64(10)}};
  right[0] = {{Value::Int64(1), Value::Int64(10)},
              {Value::Int64(1), Value::Int64(99)}};
  auto out = *RunOp(
      std::make_unique<HashJoinOp>(std::vector<int>{0}, std::vector<int>{0},
                                   *Call("eq", {Col(1, "lv"), Col(3, "rv")})),
      {&left, &right});
  EXPECT_EQ(RowsCount(out), 1u);
}

// Matches come out in probe order, and within one probe row in build order;
// int64 1 and double 1.0 are one key.
TEST_F(HyracksTest, HashJoinEmitsProbeOrderThenBuildOrder) {
  PartitionedRows left(4, Rows(2)), right(4, Rows(2));
  left[1] = {{Value::Int64(1), Value::String("a")},
             {Value::Int64(2), Value::String("b")},
             {Value::Double(1.0), Value::String("c")},
             {Value::Int64(3), Value::String("d")}};
  right[1] = {{Value::Int64(1), Value::String("x")},
              {Value::Int64(2), Value::String("y")},
              {Value::Double(1.0), Value::String("z")},
              {Value::Int64(1), Value::String("w")}};
  auto out = *RunOp(std::make_unique<HashJoinOp>(std::vector<int>{0},
                                                 std::vector<int>{0}),
                    {&left, &right});
  std::vector<std::string> pairs;
  for (Row row : out[1]) {
    ASSERT_EQ(row.size(), 4u);
    pairs.push_back(row[1].AsString() + row[3].AsString());
  }
  EXPECT_EQ(pairs, (std::vector<std::string>{"ax", "az", "aw", "by", "cx",
                                             "cz", "cw"}));
  for (const Rows& part : out) EXPECT_EQ(part.width(), 4u);
}

// Groups come out in the order their keys were first seen, keyed by the
// first-seen value; MISSING and NULL are keys of their own.
TEST_F(HyracksTest, HashGroupEmitsGroupsInFirstSeenOrder) {
  PartitionedRows in(4);
  in[2] = {{Value::Int64(3)},     {Value::Int64(1)}, {Value::Double(3.0)},
           {Value::String("k")},  {Value::Int64(1)}, {Value::Null()},
           {Value::Missing()},    {Value::Null()},   {Value::Double(1.0)}};
  std::vector<AggSpec> aggs(1);
  aggs[0].kind = AggSpec::Kind::kCount;
  aggs[0].out_name = "n";
  auto out = *RunOp(
      std::make_unique<HashGroupOp>(std::vector<ExprPtr>{Col(0, "k")}, aggs),
      {&in});
  std::vector<std::string> groups;
  for (Row row : out[2]) {
    groups.push_back(row[0].ToJson() + ":" + row[1].ToJson());
  }
  EXPECT_EQ(groups[0], "3:2");
  EXPECT_TRUE(out[2][0][0].is_int64());
  EXPECT_EQ(groups[1], "1:3");
  EXPECT_EQ(groups[2], "\"k\":1");
  EXPECT_TRUE(out[2][3][0].is_null());
  EXPECT_EQ(out[2][3][1].AsInt64(), 2);
  EXPECT_TRUE(out[2][4][0].is_missing());
  EXPECT_EQ(out[2][4][1].AsInt64(), 1);
  EXPECT_EQ(groups.size(), 5u);
}

// Zero-width rows (all the count root needs) through HASH-JOIN with no keys
// (a cross product) and HASH-GROUP with no keys; empty partitions keep
// their widths.
TEST_F(HyracksTest, ZeroWidthRowsThroughHashJoinAndGroup) {
  PartitionedRows left(4, Rows(0)), right(4, Rows(0));
  for (int i = 0; i < 3; ++i) left[0].Append();
  for (int i = 0; i < 2; ++i) right[0].Append();
  right[3].Append();
  auto joined = *RunOp(
      std::make_unique<HashJoinOp>(std::vector<int>{}, std::vector<int>{}),
      {&left, &right});
  EXPECT_EQ(joined[0].size(), 6u);
  EXPECT_EQ(RowsCount(joined), 6u);
  for (const Rows& part : joined) EXPECT_EQ(part.width(), 0u);

  std::vector<AggSpec> aggs(1);
  aggs[0].kind = AggSpec::Kind::kCount;
  aggs[0].out_name = "n";
  auto counted = *RunOp(
      std::make_unique<HashGroupOp>(std::vector<ExprPtr>{}, aggs), {&joined});
  ASSERT_EQ(counted[0].size(), 1u);
  EXPECT_EQ(counted[0][0][0].AsInt64(), 6);
  for (const Rows& part : counted) EXPECT_EQ(part.width(), 1u);
}

// Rows live in fixed-size frames: a partition spans many of them, a row wider
// than a frame gets one of its own, and appending never moves a row.
TEST_F(HyracksTest, FramesHoldManyRowsAndRowsWiderThanAFrame) {
  Rows narrow(3);
  const Value* first = nullptr;
  for (int64_t i = 0; i < 10000; ++i) {
    std::span<Value> cells = narrow.Append();
    if (i == 0) first = cells.data();
    cells[0] = Value::Int64(i);
    cells[1] = Value::String(std::to_string(i));
    cells[2] = Value::Int64(-i);
  }
  ASSERT_EQ(narrow.size(), 10000u);
  EXPECT_EQ(first, narrow[0].data());
  for (size_t i = 0; i < narrow.size(); i += 97) {
    EXPECT_EQ(narrow[i][1].AsString(), std::to_string(i));
  }
  int64_t next = 0;
  for (Row row : narrow) {
    EXPECT_EQ(row[0].AsInt64(), next);
    EXPECT_EQ(row[2].AsInt64(), -next);
    ++next;
  }

  Rows copy = narrow;
  EXPECT_TRUE(copy == narrow);
  copy.PopBack();
  EXPECT_EQ(copy.size(), 9999u);
  EXPECT_FALSE(copy == narrow);

  // 1,000 cells are more than kFrameBytes.
  ASSERT_GT(1000 * sizeof(Value), kFrameBytes);
  Tuple wide(1000);
  for (size_t c = 0; c < wide.size(); ++c) {
    wide[c] = Value::Int64(static_cast<int64_t>(c));
  }
  Rows big(wide.size());
  for (int64_t r = 0; r < 3; ++r) big.Append(wide)[999] = Value::Int64(-r);
  ASSERT_EQ(big.size(), 3u);
  EXPECT_EQ(big[1][500].AsInt64(), 500);
  EXPECT_EQ(big[2][999].AsInt64(), -2);

  Rows none(0);
  for (int i = 0; i < 5; ++i) none.Append();
  EXPECT_EQ(none.size(), 5u);
  EXPECT_TRUE(none[4].empty());
}

TEST_F(HyracksTest, NestedLoopJoinThetaPredicate) {
  PartitionedRows left(4), right(4);
  left[0] = {{Value::Int64(1)}, {Value::Int64(5)}};
  right[0] = {{Value::Int64(3)}};
  auto out = *RunOp(std::make_unique<NestedLoopJoinOp>(
                        *Call("lt", {Col(0, "l"), Col(1, "r")})),
                    {&left, &right});
  ASSERT_EQ(RowsCount(out), 1u);
  EXPECT_EQ(out[0][0][0].AsInt64(), 1);
}

TEST_F(HyracksTest, UnionAllConcatenates) {
  PartitionedRows a = MakeInts({1, 2});
  PartitionedRows b = MakeInts({3});
  auto out = *RunOp(std::make_unique<UnionAllOp>(), {&a, &b});
  EXPECT_EQ(CollectInts(out), (std::vector<int64_t>{1, 2, 3}));
}

TEST_F(HyracksTest, LimitCapsRows) {
  PartitionedRows in = MakeInts({1, 2, 3, 4, 5, 6});
  auto out = *RunOp(std::make_unique<LimitOp>(4), {&in});
  EXPECT_EQ(RowsCount(out), 4u);
}

// ---------- storage-backed operators ----------

storage::Dataset* MakeReviews(storage::Catalog& catalog, int partitions) {
  auto ds = *catalog.CreateDataset({"reviews", "id", partitions});
  const char* names[] = {"james", "mary", "mario", "jamie", "maria"};
  const char* summaries[] = {
      "this movie touched my heart", "great product fantastic gift",
      "different than my usual but good", "better ever than i expected",
      "the best car charger i ever bought"};
  for (int64_t i = 0; i < 5; ++i) {
    Value rec = Value::MakeObject({
        {"id", Value::Int64(i + 1)},
        {"reviewerName", Value::String(names[i])},
        {"summary", Value::String(summaries[i])},
    });
    SIMDB_CHECK(ds->Insert(rec).ok());
  }
  SIMDB_CHECK(ds->CreateIndex({"nix", "reviewerName",
                               similarity::IndexKind::kNGram, 2, false})
                  .ok());
  SIMDB_CHECK(ds->CreateIndex({"smix", "summary",
                               similarity::IndexKind::kKeyword, 2, false})
                  .ok());
  return ds;
}

TEST_F(HyracksTest, DataScanReadsAllPartitions) {
  MakeReviews(*catalog_, 4);
  auto out = *RunOp(std::make_unique<DataScanOp>("reviews"), {});
  EXPECT_EQ(RowsCount(out), 5u);
}

TEST_F(HyracksTest, DataScanPartitionMismatchFails) {
  auto ds = catalog_->CreateDataset({"tiny", "id", 3});
  ASSERT_TRUE(ds.ok());
  EXPECT_FALSE(RunOp(std::make_unique<DataScanOp>("tiny"), {}).ok());
}

TEST_F(HyracksTest, InvertedSearchPlusLookupSelectsSimilarNames) {
  MakeReviews(*catalog_, 4);
  // Plan fragment of Figure 7: constant -> broadcast -> secondary search ->
  // sort pk -> primary lookup -> verify.
  auto rows = *RunOp(std::make_unique<ConstantSourceOp>(
                         Rows{{Value::String("marla")}}),
                     {});
  auto bcast = *RunOp(std::make_unique<BroadcastExchangeOp>(), {&rows});
  auto candidates = *RunOp(
      std::make_unique<InvertedIndexSearchOp>(
          "reviews", "nix", Col(0, "c"),
          SimSearchSpec{SimSearchSpec::Fn::kEditDistance, 1.0}),
      {&bcast});
  EXPECT_GE(RowsCount(candidates), 3u);  // mary, mario, maria candidates
  auto sorted = *RunOp(
      std::make_unique<SortOp>(std::vector<SortKey>{{1, true}}), {&candidates});
  auto records =
      *RunOp(std::make_unique<PrimaryLookupOp>("reviews", 1), {&sorted});
  auto verified = *RunOp(
      std::make_unique<SelectOp>(*Call(
          "edit-distance-check",
          {*Call("get-field",
                 {Col(2, "rec"), Lit(Value::String("reviewerName"))}),
           Col(0, "c"), Lit(Value::Int64(1))})),
      {&records});
  ASSERT_EQ(RowsCount(verified), 1u);
  for (const Rows& part : verified) {
    for (Row t : part) {
      EXPECT_EQ(t[2].GetField("reviewerName").AsString(), "maria");
    }
  }
}

TEST_F(HyracksTest, InvertedSearchSkipsCornerCaseRows) {
  MakeReviews(*catalog_, 4);
  // "ab" with k=2: T = 1 - 2*2 <= 0, so the index path must emit nothing.
  auto rows = *RunOp(std::make_unique<ConstantSourceOp>(
                         Rows{{Value::String("ab")}}),
                     {});
  auto bcast = *RunOp(std::make_unique<BroadcastExchangeOp>(), {&rows});
  auto out = *RunOp(std::make_unique<InvertedIndexSearchOp>(
                        "reviews", "nix", Col(0, "c"),
                        SimSearchSpec{SimSearchSpec::Fn::kEditDistance, 2.0}),
                    {&bcast});
  EXPECT_EQ(RowsCount(out), 0u);
}

TEST_F(HyracksTest, BtreeSearchOp) {
  auto ds = *catalog_->CreateDataset({"users", "id", 4});
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(ds->Insert(Value::MakeObject(
                               {{"id", Value::Int64(i)},
                                {"grp", Value::Int64(i % 3)}}))
                    .ok());
  }
  ASSERT_TRUE(
      ds->CreateIndex({"bt", "grp", similarity::IndexKind::kBtree, 0, false})
          .ok());
  auto rows = *RunOp(std::make_unique<ConstantSourceOp>(
                         Rows{{Value::Int64(1)}}),
                     {});
  auto bcast = *RunOp(std::make_unique<BroadcastExchangeOp>(), {&rows});
  auto out = *RunOp(
      std::make_unique<BtreeSearchOp>("users", "bt", Col(0, "c")), {&bcast});
  EXPECT_EQ(RowsCount(out), 3u);  // ids 1, 4, 7
}

// ---------- executor / job ----------

TEST_F(HyracksTest, ExecutorRunsDagAndShares) {
  MakeReviews(*catalog_, 4);
  Job job;
  int scan = job.Add(std::make_unique<DataScanOp>("reviews"), {},
                     RowSchema({"t"}));
  // Shared node: the scan feeds both a count-ish branch and a pass-through,
  // exercising the replicate/materialize path.
  int assign = job.Add(
      std::make_unique<AssignOp>(
          std::vector<ExprPtr>{ExprPtr(std::make_shared<FieldAccessExpr>(
              Col(0, "t"), "id"))},
          std::vector<std::string>{"id"}),
      {scan}, RowSchema({"t", "id"}));
  int self_join = job.Add(
      std::make_unique<NestedLoopJoinOp>(
          *Call("eq", {Col(1, "id"), Col(3, "id")})),
      {assign, assign}, RowSchema({"t", "id", "t2", "id2"}));
  int gather = job.Add(std::make_unique<GatherOp>(), {self_join},
                       RowSchema({"t", "id", "t2", "id2"}));
  ExecStats stats;
  ctx_.stats = &stats;
  auto out = Executor::Run(job, ctx_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  (void)gather;
  // NL join is local per partition; ids are unique so each record matches
  // itself within its own partition.
  EXPECT_EQ(RowsCount(*out), 5u);
  EXPECT_EQ(stats.ops.size(), 4u);
  EXPECT_GT(stats.wall_seconds, 0.0);
}

TEST_F(HyracksTest, ExecutorReportsOperatorErrors) {
  Job job;
  job.Add(std::make_unique<DataScanOp>("nonexistent"), {}, RowSchema({"t"}));
  auto result = Executor::Run(job, ctx_);
  EXPECT_FALSE(result.ok());
  // Errors name the failing node so multi-operator jobs stay diagnosable.
  EXPECT_NE(result.status().message().find("node 0"), std::string::npos)
      << result.status().ToString();
}

}  // namespace
}  // namespace simdb::hyracks
