// Observability layer: metrics registry, lock-free trace collector, Chrome
// trace export, per-operator counters on a known 2-node x 2-partition job,
// the end-to-end QueryProfile attached by EngineOptions::profile_queries,
// and a guard that the profile-off path stays cheap.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adm/value.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/query_processor.h"
#include "hyracks/exec.h"
#include "hyracks/expr.h"
#include "hyracks/ops_basic.h"
#include "hyracks/ops_exchange.h"
#include "observability/metrics.h"
#include "observability/profile.h"
#include "observability/trace.h"
#include "storage/file_util.h"
#include "testing/operators.h"

namespace simdb {
namespace {

using adm::Value;
using testing::IntSourceOp;

// ---------- metrics ----------

TEST(MetricsTest, CounterBasics) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsTest, HistogramBucketsAndStats) {
  obs::Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(5);
  h.Observe(1000);
  obs::HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 1006u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_DOUBLE_EQ(s.mean(), 1006.0 / 4);
  // bucket 0 counts v == 0; bucket i counts 2^(i-1) <= v < 2^i.
  ASSERT_GE(s.buckets.size(), 11u);
  EXPECT_EQ(s.buckets[0], 1u);   // 0
  EXPECT_EQ(s.buckets[1], 1u);   // 1
  EXPECT_EQ(s.buckets[3], 1u);   // 4..7
  EXPECT_EQ(s.buckets[10], 1u);  // 512..1023
  h.Reset();
  EXPECT_EQ(h.Snapshot().count, 0u);
}

TEST(MetricsTest, RegistryStablePointersSnapshotAndJson) {
  obs::MetricsRegistry reg;
  // simdb-lint: metric-name-ok (private registry, throwaway names)
  obs::Counter* a = reg.GetCounter("test.a");
  EXPECT_EQ(a, reg.GetCounter("test.a"));  // simdb-lint: metric-name-ok
  a->Add(7);
  // simdb-lint: metric-name-ok (private registry, throwaway names)
  reg.GetHistogram("test.h")->Observe(12);
  obs::MetricsRegistry::Snapshot snap = reg.Snap();
  EXPECT_EQ(snap.counters.at("test.a"), 7u);
  EXPECT_EQ(snap.histograms.at("test.h").count, 1u);

  Result<Value> json = Value::FromJson(reg.ToJson());
  ASSERT_TRUE(json.ok()) << reg.ToJson();
  ASSERT_TRUE(json->is_object());
  EXPECT_EQ(json->GetField("counters").GetField("test.a").AsInt64(), 7);

  reg.ResetAll();
  obs::MetricsRegistry::Snapshot zeroed = reg.Snap();
  EXPECT_EQ(zeroed.counters.at("test.a"), 0u);  // name stays registered
  EXPECT_EQ(zeroed.histograms.at("test.h").count, 0u);
}

// ---------- trace collector ----------

TEST(TraceTest, MultithreadedRecordDrainsSorted) {
  obs::TraceCollector collector;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&collector, t] {
      for (int i = 0; i < 100; ++i) {
        obs::TraceEvent e;
        e.name = "t" + std::to_string(t);
        e.start_us = t * 1000 + i;
        e.dur_us = 1;
        collector.Record(std::move(e));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  std::vector<obs::TraceEvent> events = collector.Drain();
  EXPECT_EQ(events.size(), 400u);
  EXPECT_EQ(collector.dropped(), 0u);
  EXPECT_TRUE(std::is_sorted(
      events.begin(), events.end(),
      [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
        return a.start_us < b.start_us;
      }));
}

TEST(TraceTest, RingOverflowCountsDroppedAndKeepsNewest) {
  obs::TraceCollector collector(/*per_thread_capacity=*/8);
  for (int i = 0; i < 20; ++i) {
    obs::TraceEvent e;
    e.name = "e" + std::to_string(i);
    e.start_us = i;
    collector.Record(std::move(e));
  }
  std::vector<obs::TraceEvent> events = collector.Drain();
  EXPECT_EQ(collector.dropped(), 12u);
  ASSERT_EQ(events.size(), 8u);
  // The newest 8 events survive, oldest-first.
  EXPECT_EQ(events.front().name, "e12");
  EXPECT_EQ(events.back().name, "e19");
}

TEST(TraceTest, ChromeTraceJsonIsValidAndNamesTracks) {
  std::vector<obs::TraceEvent> events;
  obs::TraceEvent task;
  task.name = "SCAN \"quoted\"";
  task.start_us = 10;
  task.dur_us = 5;
  task.pid = 1;
  task.tid = 0;
  task.args = {{"rows", 42}};
  events.push_back(task);
  obs::TraceEvent net;
  net.category = "network";
  net.name = "HASH-EXCHANGE:net";
  net.start_us = 15;
  net.dur_us = 3;
  net.pid = -1;
  events.push_back(net);

  std::string json = obs::ToChromeTraceJson(events);
  Result<Value> parsed = Value::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << json;
  const Value& trace_events = parsed->GetField("traceEvents");
  ASSERT_TRUE(trace_events.is_array());
  // 2 "X" events + process/thread "M" metadata for both tracks.
  EXPECT_GE(trace_events.AsList().size(), 4u);
  EXPECT_NE(json.find("modeled network"), std::string::npos);
  EXPECT_NE(json.find("node 1"), std::string::npos);
}

// ---------- per-operator accounting on a hand-built 2x2 job ----------

/// source -> hash exchange -> gather, on 2 nodes x 2 partitions with 10
/// rows per partition: every exchange's tuple counts are known exactly.
hyracks::Job MakeExchangeJob() {
  hyracks::Job job;
  int src = job.Add(std::make_unique<IntSourceOp>(10), {},
                    hyracks::RowSchema({"v"}));
  int hx = job.Add(
      std::make_unique<hyracks::HashExchangeOp>(std::vector<int>{0}), {src},
      hyracks::RowSchema({"v"}));
  job.Add(std::make_unique<hyracks::GatherOp>(), {hx},
          hyracks::RowSchema({"v"}));
  return job;
}

struct ProfiledRun {
  hyracks::ExecStats stats;
  std::vector<obs::TraceEvent> events;
};

ProfiledRun RunProfiled(const hyracks::Job& job) {
  ProfiledRun run;
  obs::TraceCollector collector;
  hyracks::ExecContext ctx;
  ctx.topology = {2, 2};
  ctx.stats = &run.stats;
  ctx.trace = &collector;
  Result<hyracks::PartitionedRows> out = hyracks::Executor::Run(job, ctx);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  run.events = collector.Drain();
  return run;
}

const hyracks::OpStats* FindOp(const hyracks::ExecStats& stats,
                               const std::string& name) {
  for (const hyracks::OpStats& op : stats.ops) {
    if (op.name == name) return &op;
  }
  return nullptr;
}

TEST(ObservabilityTest, ExchangeTupleCountsExactOnKnownJob) {
  hyracks::Job job = MakeExchangeJob();
  ProfiledRun run = RunProfiled(job);

  const hyracks::OpStats* src = FindOp(run.stats, "INT-SOURCE");
  ASSERT_NE(src, nullptr);
  EXPECT_EQ(src->stage, 0);
  EXPECT_EQ(src->rows_in, 0u);
  EXPECT_EQ(src->rows_out, 40u);
  EXPECT_EQ(src->partition_rows,
            (std::vector<uint64_t>{10, 10, 10, 10}));

  const hyracks::OpStats* hx = FindOp(run.stats, "HASH-EXCHANGE");
  ASSERT_NE(hx, nullptr);
  EXPECT_EQ(hx->stage, 0);  // the barrier belongs to the producing stage
  EXPECT_EQ(hx->rows_in, 40u);
  EXPECT_EQ(hx->rows_out, 40u);
  uint64_t redistributed = 0;
  for (uint64_t r : hx->partition_rows) redistributed += r;
  EXPECT_EQ(redistributed, 40u);

  const hyracks::OpStats* g = FindOp(run.stats, "GATHER");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->stage, 1);
  EXPECT_EQ(g->rows_in, 40u);
  EXPECT_EQ(g->rows_out, 40u);
  EXPECT_EQ(g->partition_rows, (std::vector<uint64_t>{40, 0, 0, 0}));

  // Span names: per-partition task spans plus route/build exchange spans.
  auto has_event = [&run](const std::string& name) {
    for (const obs::TraceEvent& e : run.events) {
      if (e.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_event("INT-SOURCE"));
  EXPECT_TRUE(has_event("HASH-EXCHANGE:route"));
  EXPECT_TRUE(has_event("HASH-EXCHANGE:build"));
  EXPECT_TRUE(has_event("GATHER:build"));
}

TEST(ObservabilityTest, ProfileOffCollectsNoCountersOrSpans) {
  hyracks::Job job = MakeExchangeJob();
  hyracks::ExecStats stats;
  hyracks::ExecContext ctx;
  ctx.topology = {2, 2};
  ctx.stats = &stats;
  Result<hyracks::PartitionedRows> out = hyracks::Executor::Run(job, ctx);
  ASSERT_TRUE(out.ok());
  for (const hyracks::OpStats& op : stats.ops) {
    EXPECT_TRUE(op.counters.empty()) << op.name;
  }
}

// ---------- BuildQueryProfile on the hand-built job ----------

TEST(ObservabilityTest, BuildQueryProfileStagesTreeAndTrace) {
  hyracks::Job job = MakeExchangeJob();
  ProfiledRun run = RunProfiled(job);
  obs::QueryProfile profile =
      obs::BuildQueryProfile(run.stats, {2, 2}, std::move(run.events));
  ASSERT_EQ(profile.operators.size(), 3u);

  std::vector<obs::StageProfile> stages = profile.Stages();
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0].stage, 0);
  EXPECT_EQ(stages[0].num_ops, 2);  // source + hash exchange
  EXPECT_EQ(stages[1].num_ops, 1);  // gather

  std::string tree = profile.RenderTree();
  EXPECT_NE(tree.find("INT-SOURCE"), std::string::npos);
  EXPECT_NE(tree.find("HASH-EXCHANGE"), std::string::npos);
  EXPECT_NE(tree.find("GATHER"), std::string::npos);
  EXPECT_NE(tree.find("stages:"), std::string::npos);

  Result<Value> json = Value::FromJson(profile.ToJson());
  ASSERT_TRUE(json.ok()) << profile.ToJson();
  EXPECT_EQ(json->GetField("operators").AsList().size(), 3u);

  std::string path =
      (std::filesystem::temp_directory_path() /
       ("simdb_trace_" + std::to_string(::getpid()) + ".json"))
          .string();
  ASSERT_TRUE(profile.ExportTrace(path).ok());
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  Result<Value> trace = Value::FromJson(contents);
  ASSERT_TRUE(trace.ok());
  EXPECT_TRUE(trace->GetField("traceEvents").is_array());
}

// ---------- end-to-end: profile_queries on a real similarity query ----------

class ObservabilityQueryTest : public ::testing::Test {
 protected:
  ObservabilityQueryTest() {
    static int counter = 0;
    dir_ = (std::filesystem::temp_directory_path() /
            ("simdb_obs_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++)))
               .string();
    core::EngineOptions options;
    options.data_dir = dir_;
    options.topology = {2, 2};
    options.num_threads = 2;
    engine_ = std::make_unique<core::QueryProcessor>(options);
  }
  ~ObservabilityQueryTest() override { storage::RemoveAllBestEffort(dir_); }

  void LoadReviews() {
    ASSERT_TRUE(
        engine_->Execute("create dataset Reviews primary key id;").ok());
    const char* summaries[] = {
        "this movie touched my heart",
        "great product fantastic gift",
        "different than my usual but good",
        "better ever than i expected",
        "the best car charger i ever bought",
        "great product really fantastic gift",
        "great gift",
        "fantastic product great movie",
    };
    int64_t id = 1;
    for (const char* s : summaries) {
      ASSERT_TRUE(engine_
                      ->Insert("Reviews",
                               Value::MakeObject(
                                   {{"id", Value::Int64(id++)},
                                    {"summary", Value::String(s)}}))
                      .ok());
    }
    ASSERT_TRUE(
        engine_
            ->Execute("create index smix on Reviews(summary) type keyword;")
            .ok());
  }

  std::string dir_;
  std::unique_ptr<core::QueryProcessor> engine_;
};

TEST_F(ObservabilityQueryTest, ThreeStageJoinProducesProfile) {
  LoadReviews();
  const std::string query =
      "count(for $o in dataset Reviews for $i in dataset Reviews "
      "where similarity-jaccard(word-tokens($o.summary), "
      "word-tokens($i.summary)) >= 0.5 and $o.id < $i.id "
      "return {'o': $o.id, 'i': $i.id})";

  core::QueryResult plain;
  ASSERT_TRUE(engine_->Execute(query, &plain).ok());
  EXPECT_EQ(plain.profile, nullptr);  // off by default

  // Force the AQL+ three-stage plan (with the keyword index present the
  // optimizer would otherwise pick the surrogate index-NL join).
  engine_->opt_context().enable_index_join = false;
  engine_->set_profile_queries(true);
  core::QueryResult profiled;
  ASSERT_TRUE(engine_->Execute(query, &profiled).ok());
  ASSERT_NE(profiled.profile, nullptr);
  ASSERT_EQ(plain.rows.size(), 1u);
  ASSERT_EQ(profiled.rows.size(), 1u);
  // Profiling only observes; the answer is identical.
  EXPECT_EQ(plain.rows[0].ToJson(), profiled.rows[0].ToJson());

  const obs::QueryProfile& profile = *profiled.profile;
  EXPECT_GE(profile.operators.size(), 5u);
  // The three-stage similarity join spans at least three pipeline stages.
  std::vector<obs::StageProfile> stages = profile.Stages();
  ASSERT_GE(stages.size(), 3u);
  EXPECT_EQ(profile.trace_dropped, 0u);
  EXPECT_FALSE(profile.events.empty());

  // Operator-specific counters surfaced (the join stage reports its build
  // and probe sides at minimum).
  std::vector<std::string> counter_names;
  for (const obs::OperatorProfile& op : profile.operators) {
    for (const auto& [name, value] : op.counters) {
      counter_names.push_back(name);
    }
  }
  EXPECT_FALSE(counter_names.empty());

  std::string tree = profile.RenderTree();
  EXPECT_NE(tree.find("stages:"), std::string::npos);
  EXPECT_NE(tree.find("%"), std::string::npos);

  Result<Value> json = Value::FromJson(profile.ToJson());
  ASSERT_TRUE(json.ok());

  // Registry rollups accumulated under stable names.
  obs::MetricsRegistry::Snapshot snap = obs::MetricsRegistry::Global().Snap();
  EXPECT_GE(snap.counters.at("query.profiled_count"), 1u);
  EXPECT_GE(snap.histograms.at("query.exec_micros").count, 1u);
}

TEST_F(ObservabilityQueryTest, IndexedSelectionReportsInvsearchCounters) {
  LoadReviews();
  engine_->set_profile_queries(true);
  core::QueryResult result;
  ASSERT_TRUE(engine_
                  ->Execute(
                      "for $t in dataset Reviews where "
                      "similarity-jaccard(word-tokens($t.summary), "
                      "word-tokens('great product fantastic gift')) >= 0.5 "
                      "return $t.id",
                      &result)
                  .ok());
  ASSERT_NE(result.profile, nullptr);
  bool has_invsearch = false;
  for (const obs::OperatorProfile& op : result.profile->operators) {
    for (const auto& [name, value] : op.counters) {
      if (name.rfind("invsearch.", 0) == 0) has_invsearch = true;
    }
  }
  EXPECT_TRUE(has_invsearch)
      << "indexed selection did not surface invsearch.* counters:\n"
      << result.profile->RenderTree();
}

// ---------- profile-off overhead guard ----------

TEST(ObservabilityTest, ProfileOffPathStaysCheap) {
  // A long chain of cheap operators maximizes per-task overhead relative to
  // useful work. The profile-off run must not be slower than the profiled
  // run beyond noise — i.e. the off path really is a single dead branch.
  hyracks::Job job;
  int prev = job.Add(std::make_unique<IntSourceOp>(2000), {},
                     hyracks::RowSchema({"v"}));
  for (int i = 0; i < 20; ++i) {
    prev = job.Add(
        std::make_unique<hyracks::AssignOp>(
            std::vector<hyracks::ExprPtr>{*hyracks::Call(
                "add", {hyracks::Col(0, "v"),
                        hyracks::Lit(Value::Int64(1))})},
            std::vector<std::string>{"v"}),
        {prev}, hyracks::RowSchema({"v", "v"}));
    prev = job.Add(
        std::make_unique<hyracks::ProjectOp>(std::vector<int>{1}), {prev},
        hyracks::RowSchema({"v"}));
  }

  auto run_once = [&job](obs::TraceCollector* collector) {
    hyracks::ExecStats stats;
    hyracks::ExecContext ctx;
    ctx.topology = {2, 2};
    ctx.stats = &stats;
    ctx.trace = collector;
    Stopwatch sw;
    Result<hyracks::PartitionedRows> out = hyracks::Executor::Run(job, ctx);
    EXPECT_TRUE(out.ok());
    return sw.ElapsedSeconds();
  };

  constexpr int kRepeats = 7;
  std::vector<double> off_times, on_times;
  run_once(nullptr);  // warm-up
  for (int i = 0; i < kRepeats; ++i) {
    off_times.push_back(run_once(nullptr));
    obs::TraceCollector collector;
    on_times.push_back(run_once(&collector));
  }
  std::sort(off_times.begin(), off_times.end());
  std::sort(on_times.begin(), on_times.end());
  double off_median = off_times[kRepeats / 2];
  double on_median = on_times[kRepeats / 2];
  // Generous noise allowance — the real < 2% figure is measured by
  // bench_profile; this guards against the off path doing profiling work.
  EXPECT_LE(off_median, on_median * 1.35)
      << "off median " << off_median << "s vs profiled median " << on_median
      << "s";
}

}  // namespace
}  // namespace simdb
