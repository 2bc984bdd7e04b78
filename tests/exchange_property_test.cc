// Property tests on the exchange connectors and executor invariants: every
// repartitioning must preserve the multiset of rows, broadcasts must
// replicate exactly, and the traffic accounting must add up.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/random.h"
#include "common/thread_pool.h"
#include "hyracks/exec.h"
#include "hyracks/ops_basic.h"
#include "hyracks/ops_exchange.h"
#include "hyracks/ops_group.h"
#include "hyracks/ops_join.h"
#include "testing/operators.h"
#include "transport/transport.h"

namespace simdb::hyracks {
namespace {

using adm::Value;

class ExchangeProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  ExchangeProperty() : pool_(2) {
    ctx_.pool = &pool_;
    ctx_.topology = {4, 2};  // 4 nodes x 2 partitions
  }

  /// One socket transport for the suite, built before any fixture's pool_
  /// exists: its workers fork while this is the only thread (see
  /// transport::MakeTransport).
  static void SetUpTestSuite() {
    socket_ = transport::MakeTransport(transport::TransportKind::kSocket,
                                       /*num_nodes=*/4);
  }
  static void TearDownTestSuite() { socket_.reset(); }

  PartitionedRows RandomRows(Random& rng, int max_rows) {
    PartitionedRows rows(
        static_cast<size_t>(ctx_.topology.total_partitions()), Rows(2));
    int n = 1 + static_cast<int>(rng.Uniform(static_cast<uint64_t>(max_rows)));
    for (int i = 0; i < n; ++i) {
      std::span<Value> cells = rows[rng.Uniform(rows.size())].Append();
      cells[0] = Value::Int64(rng.UniformRange(0, 20));
      cells[1] = Value::String(std::string(rng.Uniform(8), 'x'));
    }
    return rows;
  }

  /// Runs `op` over `inputs` through the executor (testing::RunOperator).
  PartitionedRows Run(std::unique_ptr<Operator> op,
                      std::vector<const PartitionedRows*> inputs,
                      OpStats* stats = nullptr) {
    Result<PartitionedRows> out =
        testing::RunOperator(ctx_, std::move(op), inputs, stats);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? std::move(out).value() : PartitionedRows();
  }

  std::multiset<std::string> Flatten(const PartitionedRows& rows) {
    std::multiset<std::string> out;
    for (const Rows& part : rows) {
      for (Row t : part) {
        std::string key;
        for (const Value& v : t) key += v.ToJson() + "|";
        out.insert(key);
      }
    }
    return out;
  }

  static inline std::unique_ptr<transport::Transport> socket_;
  ThreadPool pool_;
  ExecContext ctx_;
};

TEST_P(ExchangeProperty, HashExchangePreservesMultiset) {
  Random rng(GetParam());
  for (int iter = 0; iter < 20; ++iter) {
    PartitionedRows in = RandomRows(rng, 60);
    PartitionedRows out =
        Run(std::make_unique<HashExchangeOp>(std::vector<int>{0}), {&in});
    EXPECT_EQ(Flatten(in), Flatten(out));
    // Co-location: equal keys in one partition.
    std::map<int64_t, std::set<size_t>> where;
    for (size_t p = 0; p < out.size(); ++p) {
      for (Row t : out[p]) where[t[0].AsInt64()].insert(p);
    }
    for (const auto& [k, parts] : where) {
      EXPECT_EQ(parts.size(), 1u) << "key " << k;
    }
  }
}

TEST_P(ExchangeProperty, BroadcastReplicatesExactly) {
  Random rng(GetParam() + 100);
  PartitionedRows in = RandomRows(rng, 30);
  OpStats stats;
  PartitionedRows out =
      Run(std::make_unique<BroadcastExchangeOp>(), {&in}, &stats);
  std::multiset<std::string> original = Flatten(in);
  for (const Rows& part : out) {
    PartitionedRows single(1);
    single[0] = part;
    EXPECT_EQ(Flatten(single), original);
  }
  // Accounting: every tuple crosses to every partition exactly once.
  uint64_t expected_total = 0;
  for (const Rows& part : in) {
    for (Row t : part) expected_total += TupleBytes(t) * out.size();
  }
  EXPECT_EQ(stats.local_bytes + stats.remote_bytes, expected_total);
  EXPECT_GT(stats.remote_bytes, stats.local_bytes);  // 4 nodes: mostly remote
}

TEST_P(ExchangeProperty, GatherMovesEverythingToPartitionZero) {
  Random rng(GetParam() + 200);
  PartitionedRows in = RandomRows(rng, 40);
  PartitionedRows out = Run(std::make_unique<GatherOp>(), {&in});
  EXPECT_EQ(Flatten(in), Flatten(out));
  for (size_t p = 1; p < out.size(); ++p) EXPECT_TRUE(out[p].empty());
}

TEST_P(ExchangeProperty, MergeGatherProducesGlobalOrder) {
  Random rng(GetParam() + 300);
  PartitionedRows in = RandomRows(rng, 50);
  PartitionedRows sorted =
      Run(std::make_unique<SortOp>(std::vector<SortKey>{{0, true}}), {&in});
  PartitionedRows out = Run(
      std::make_unique<MergeGatherOp>(std::vector<SortKey>{{0, true}}),
      {&sorted});
  EXPECT_EQ(Flatten(in), Flatten(out));
  for (size_t i = 1; i < out[0].size(); ++i) {
    EXPECT_LE(out[0][i - 1][0].AsInt64(), out[0][i][0].AsInt64());
  }
}

TEST_P(ExchangeProperty, GroupByCountsMatchNaive) {
  Random rng(GetParam() + 400);
  PartitionedRows in = RandomRows(rng, 80);
  // Naive counts.
  std::map<int64_t, int64_t> expected;
  for (const Rows& part : in) {
    for (Row t : part) ++expected[t[0].AsInt64()];
  }
  // Exchange + group pipeline (what the job generator emits).
  PartitionedRows shuffled =
      Run(std::make_unique<HashExchangeOp>(std::vector<int>{0}), {&in});
  PartitionedRows grouped = Run(
      std::make_unique<HashGroupOp>(
          std::vector<ExprPtr>{Col(0, "k")},
          std::vector<AggSpec>{{AggSpec::Kind::kCount, nullptr, "n"}}),
      {&shuffled});
  std::map<int64_t, int64_t> actual;
  for (const Rows& part : grouped) {
    for (Row t : part) actual[t[0].AsInt64()] = t[1].AsInt64();
  }
  EXPECT_EQ(actual, expected);
}

TEST_P(ExchangeProperty, HashJoinMatchesNaiveJoin) {
  Random rng(GetParam() + 500);
  PartitionedRows left = RandomRows(rng, 40);
  PartitionedRows right = RandomRows(rng, 40);
  // Naive count of matching pairs.
  int64_t expected = 0;
  for (const Rows& lp : left) {
    for (Row lt : lp) {
      for (const Rows& rp : right) {
        for (Row rt : rp) {
          if (lt[0] == rt[0]) ++expected;
        }
      }
    }
  }
  PartitionedRows l =
      Run(std::make_unique<HashExchangeOp>(std::vector<int>{0}), {&left});
  PartitionedRows r =
      Run(std::make_unique<HashExchangeOp>(std::vector<int>{0}), {&right});
  PartitionedRows out = Run(std::make_unique<HashJoinOp>(std::vector<int>{0},
                                                         std::vector<int>{0}),
                            {&l, &r});
  EXPECT_EQ(static_cast<int64_t>(RowsCount(out)), expected);
}

TEST_P(ExchangeProperty, ModeledAndSocketAccountingAgree) {
  // The exchange byte/transfer counters are computed by BuildDestination
  // from routing decisions alone — whether the parent or a socket worker
  // runs that build must not change them. Run the same input through every
  // exchange kind under the modeled and socket backends and compare the
  // counters (these are the exchange.*.{local_bytes,remote_bytes} figures
  // the observability layer exports).
  Random rng(GetParam() + 900);
  std::unique_ptr<transport::Transport> modeled =
      transport::MakeTransport(transport::TransportKind::kModeled,
                               ctx_.topology.num_nodes);
  auto make = [](int kind) -> std::unique_ptr<Operator> {
    if (kind == 0) return std::make_unique<HashExchangeOp>(std::vector<int>{0});
    if (kind == 1) return std::make_unique<BroadcastExchangeOp>();
    return std::make_unique<GatherOp>();
  };
  for (int iter = 0; iter < 10; ++iter) {
    PartitionedRows in = RandomRows(rng, 50);
    auto run = [&](int kind, transport::Transport* t, OpStats* stats) {
      ExecContext ctx = ctx_;
      ctx.transport = t;
      return testing::RunOperator(ctx, make(kind), {&in}, stats);
    };
    for (int kind = 0; kind < 3; ++kind) {
      OpStats m_stats, s_stats;
      auto m = run(kind, modeled.get(), &m_stats);
      auto s = run(kind, socket_.get(), &s_stats);
      const std::string& name = m_stats.name;
      ASSERT_TRUE(m.ok() && s.ok()) << name;
      EXPECT_EQ(Flatten(*m), Flatten(*s)) << name;
      EXPECT_EQ(m_stats.local_bytes, s_stats.local_bytes) << name;
      EXPECT_EQ(m_stats.remote_bytes, s_stats.remote_bytes) << name;
      EXPECT_EQ(m_stats.remote_transfers, s_stats.remote_transfers) << name;
      // Only the socket backend built remotely and spent wire time.
      EXPECT_EQ(m_stats.transport_seconds, 0.0) << name;
      EXPECT_EQ(m_stats.remote_builds, 0u) << name;
      EXPECT_GT(s_stats.transport_seconds, 0.0) << name;
      EXPECT_GT(s_stats.remote_builds, 0u) << name;
    }
  }
}

// Every exchange kind moves partitions that span many frames, rows wider
// than a frame and zero-width rows (what the count root's GATHER ships),
// stealing from its input or copying it, built locally or in socket workers:
// all four runs give the same rows in the same order, and every destination
// keeps the input's width.
TEST_P(ExchangeProperty, FramesCrossEveryExchangeWithAndWithoutStealing) {
  Random rng(GetParam() + 700);
  const size_t parts = static_cast<size_t>(ctx_.topology.total_partitions());
  // Column 0 ascends within each partition, so merge-gather sees sorted runs.
  auto fill = [&](size_t width, int min_rows, int max_rows) {
    PartitionedRows in(parts, Rows(width));
    for (size_t p = 0; p < parts; ++p) {
      int64_t key = 0;
      int n = min_rows + static_cast<int>(rng.Uniform(
                             static_cast<uint64_t>(max_rows - min_rows + 1)));
      for (int i = 0; i < n; ++i) {
        std::span<Value> cells = in[p].Append();
        if (width == 0) continue;
        key += static_cast<int64_t>(rng.Uniform(3));
        cells[0] = Value::Int64(key);
        for (size_t c = 1; c < width; ++c) {
          cells[c] = c % 2 == 0
                         ? Value::Int64(static_cast<int64_t>(p * 100000) + i)
                         : Value::String(std::string(rng.Uniform(12), 'x'));
        }
      }
    }
    return in;
  };
  const PartitionedRows inputs[] = {fill(4, 300, 1200), fill(1000, 0, 3),
                                    fill(0, 0, 6)};
  for (const PartitionedRows& in : inputs) {
    const size_t width = in[0].width();
    const std::vector<int> keys =
        width == 0 ? std::vector<int>{} : std::vector<int>{0};
    std::vector<SortKey> sort_keys;
    for (int k : keys) sort_keys.push_back({k, true});
    auto make = [&](int kind) -> std::unique_ptr<Operator> {
      if (kind == 0) return std::make_unique<HashExchangeOp>(keys);
      if (kind == 1) return std::make_unique<BroadcastExchangeOp>();
      if (kind == 2) return std::make_unique<GatherOp>();
      return std::make_unique<MergeGatherOp>(sort_keys);
    };
    // With `steal` the source feeds only the exchange, whose builds then move
    // cells out of it; otherwise an unread PROJECT shares the source.
    auto run = [&](int kind, bool steal, transport::Transport* t) {
      Job job;
      int src = job.Add(std::make_unique<testing::RowsSourceOp>(in), {},
                        RowSchema());
      if (!steal) {
        job.Add(std::make_unique<ProjectOp>(std::vector<int>{}), {src},
                RowSchema());
      }
      job.Add(make(kind), {src}, RowSchema());
      EXPECT_EQ(Executor::PlannedSteals(job).back(), steal);
      ExecContext ctx = ctx_;
      ctx.transport = t;
      Result<PartitionedRows> out = Executor::Run(job, ctx);
      EXPECT_TRUE(out.ok()) << out.status().ToString();
      return out.ok() ? std::move(out).value() : PartitionedRows();
    };
    for (int kind = 0; kind < 4; ++kind) {
      SCOPED_TRACE("width " + std::to_string(width) + ", kind " +
                   std::to_string(kind));
      PartitionedRows expected = run(kind, /*steal=*/false, nullptr);
      ASSERT_EQ(expected.size(), parts);
      EXPECT_EQ(RowsCount(expected),
                RowsCount(in) * (kind == 1 ? parts : 1));
      if (kind != 1) {
        EXPECT_EQ(Flatten(expected), Flatten(in));
      }
      for (bool steal : {true, false}) {
        for (transport::Transport* t : {static_cast<transport::Transport*>(
                                            nullptr),
                                        socket_.get()}) {
          PartitionedRows out = run(kind, steal, t);
          ASSERT_EQ(out.size(), parts);
          for (size_t p = 0; p < parts; ++p) {
            EXPECT_TRUE(out[p] == expected[p]) << "partition " << p;
            EXPECT_EQ(out[p].width(), width) << "partition " << p;
          }
        }
      }
      if (kind == 3 && width > 0) {
        for (size_t i = 1; i < expected[0].size(); ++i) {
          EXPECT_LE(expected[0][i - 1][0].AsInt64(),
                    expected[0][i][0].AsInt64());
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExchangeProperty,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace simdb::hyracks
