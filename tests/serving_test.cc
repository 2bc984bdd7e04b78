// Concurrency test suite for the serving layer: N client threads against one
// QueryEngine, plus cancellation / deadline / admission / quota / fairness
// regressions. Runs under TSan in CI — the stress tests double as data-race
// detectors for the whole engine stack (scheduler, thread pool, catalogs,
// posting caches, metrics).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "observability/metrics.h"
#include "serving/admission.h"
#include "serving/query_engine.h"
#include "storage/file_util.h"

namespace simdb {
namespace {

using adm::Value;
using serving::QueryClass;
using serving::QueryEngine;
using serving::QueryTicket;
using serving::ServingOptions;
using serving::SubmitOptions;
using serving::WeightedQueue;

// ---------- slow-UDF instrumentation ----------

/// Gate the slow UDF blocks on: tests wait for the query to be provably
/// mid-execution (entered > 0), act (cancel, fill the queue, ...), then
/// open. Timeouts everywhere so a bug fails the test instead of hanging it.
struct SlowGate {
  Mutex mu{lockrank::Rank::kLeaf, "SlowGate::mu"};
  CondVar cv;
  bool open SIMDB_GUARDED_BY(mu) = false;
  int entered SIMDB_GUARDED_BY(mu) = 0;

  void Enter() {
    MutexLock lock(mu);
    ++entered;
    cv.NotifyAll();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!open) {
      if (!cv.WaitUntil(lock, deadline)) break;  // timed out; fail the test
    }
  }
  void Open() {
    {
      MutexLock lock(mu);
      open = true;
    }
    cv.NotifyAll();
  }
  bool AwaitEntered(int n) {
    MutexLock lock(mu);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (entered < n) {
      if (!cv.WaitUntil(lock, deadline)) return entered >= n;
    }
    return true;
  }
};

std::atomic<SlowGate*> g_gate{nullptr};
std::atomic<int> g_sleep_ms{0};

/// String equality as a similarity score, optionally gated/slowed. Lets the
/// tests build reliably long-running joins with controllable timing.
void RegisterSlowUdf(core::QueryProcessor& processor) {
  processor.RegisterSimilarityUdf(
      {.name = "slow-eq",
       .sense = similarity::ThresholdSense::kSimilarityAtLeast,
       .eval =
           [](const Value& a, const Value& b) -> Result<Value> {
             SlowGate* gate = g_gate.load(std::memory_order_acquire);
             if (gate != nullptr) gate->Enter();
             int ms = g_sleep_ms.load(std::memory_order_relaxed);
             if (ms > 0) {
               std::this_thread::sleep_for(std::chrono::milliseconds(ms));
             }
             if (!a.is_string() || !b.is_string()) {
               return Status::TypeError("slow-eq expects strings");
             }
             return Value::Double(a.AsString() == b.AsString() ? 1.0 : 0.0);
           },
       .check = nullptr});
}

// ---------- fixture ----------

class ServingTest : public ::testing::Test {
 protected:
  ServingTest() {
    static int counter = 0;
    dir_ = (std::filesystem::temp_directory_path() /
            ("simdb_serving_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++)))
               .string();
    g_gate.store(nullptr);
    g_sleep_ms.store(0);
  }
  ~ServingTest() override {
    g_gate.store(nullptr);
    engine_.reset();
    storage::RemoveAllBestEffort(dir_);
  }

  /// Builds the engine over a deterministic dataset: `records` rows cycling
  /// through 8 names and composite summaries (enough similarity collisions
  /// for joins to produce non-trivial answers).
  QueryEngine& MakeEngine(ServingOptions serving, int records = 24) {
    core::EngineOptions options;
    options.data_dir = dir_;
    options.topology = {2, 2};
    options.num_threads = 4;
    engine_ = std::make_unique<QueryEngine>(options, serving);
    core::QueryProcessor& p = engine_->processor();
    RegisterSlowUdf(p);
    EXPECT_TRUE(p.Execute("create dataset D primary key id;"
                          "create index kw on D(text) type keyword;"
                          "create index ng on D(name) type ngram(2);")
                    .ok());
    const char* names[] = {"maria", "mario", "marla", "james",
                           "jamie", "mary",  "bob",   "alice"};
    const char* words[] = {"great", "product", "fantastic", "gift",
                           "movie", "heart",   "car",       "charger"};
    for (int i = 0; i < records; ++i) {
      std::string text = std::string(words[i % 8]) + " " +
                         words[(i / 2) % 8] + " " + words[(i / 3) % 8];
      EXPECT_TRUE(p.Insert("D", Value::MakeObject(
                                    {{"id", Value::Int64(i)},
                                     {"name", Value::String(names[i % 8])},
                                     {"text", Value::String(text)}}))
                      .ok());
    }
    return *engine_;
  }

  static std::vector<std::string> SortedRows(const core::QueryResult& r) {
    std::vector<std::string> rows;
    rows.reserve(r.rows.size());
    for (const Value& v : r.rows) rows.push_back(v.ToJson());
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  /// Sequential ground truth through the exclusive single-session path.
  std::vector<std::string> Baseline(const std::string& aql) {
    core::QueryResult result;
    Status s = engine_->processor().Execute(aql, &result);
    EXPECT_TRUE(s.ok()) << s.ToString() << "\nquery: " << aql;
    return SortedRows(result);
  }

  std::string dir_;
  std::unique_ptr<QueryEngine> engine_;
};

const char kCheapJaccard[] =
    "for $t in dataset D where similarity-jaccard(word-tokens($t.text), "
    "word-tokens('great product fantastic')) >= 0.5 return $t;";
const char kCheapEd[] =
    "for $t in dataset D where edit-distance($t.name, 'maria') <= 1 "
    "return $t;";
const char kHeavyJaccard[] =
    "for $o in dataset D for $i in dataset D where "
    "similarity-jaccard(word-tokens($o.text), word-tokens($i.text)) >= 0.6 "
    "and $o.id < $i.id return {'o': $o.id, 'i': $i.id};";
const char kHeavyEd[] =
    "for $o in dataset D for $i in dataset D where "
    "edit-distance($o.name, $i.name) <= 1 and $o.id < $i.id "
    "return {'o': $o.id, 'i': $i.id};";
/// Nested-loop self join through the instrumentable UDF.
const char kSlowJoin[] =
    "for $o in dataset D for $i in dataset D where "
    "slow-eq($o.name, $i.name) >= 0.5 and $o.id < $i.id "
    "return {'o': $o.id, 'i': $i.id};";

// ---------- the concurrency stress test ----------

TEST_F(ServingTest, ConcurrentStressMixedWorkload) {
  obs::MetricsRegistry::Global().ResetAll();
  ServingOptions serving;
  serving.max_concurrent = 4;
  serving.max_queue = 256;
  QueryEngine& engine = MakeEngine(serving);

  const std::vector<std::string> queries = {kCheapJaccard, kCheapEd,
                                            kHeavyJaccard, kHeavyEd};
  std::vector<std::vector<std::string>> expected;
  expected.reserve(queries.size());
  for (const std::string& q : queries) expected.push_back(Baseline(q));

  constexpr int kClients = 32;
  constexpr int kPerClient = 3;
  std::atomic<int> wrong_rows{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int q = 0; q < kPerClient; ++q) {
        size_t qi = static_cast<size_t>(c + q) % queries.size();
        Result<std::shared_ptr<QueryTicket>> ticket =
            engine.Submit(queries[qi]);
        if (!ticket.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const Status& s = ticket.value()->Wait();
        if (!s.ok()) {
          failures.fetch_add(1);
          continue;
        }
        // No lost rows, no duplicated rows, bit-identical content.
        if (SortedRows(ticket.value()->result()) != expected[qi]) {
          wrong_rows.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wrong_rows.load(), 0);

  serving::ServingStats stats = engine.Stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.admitted, stats.submitted);  // queue sized to never shed
  EXPECT_EQ(stats.completed, stats.admitted);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_LE(stats.peak_queue_depth, serving.max_queue);

  // Queue-depth metrics must be consistent with the admission counters: one
  // depth observation per admitted query, counters matching engine stats.
  obs::MetricsRegistry::Snapshot snap = obs::MetricsRegistry::Global().Snap();
  EXPECT_EQ(snap.counters["serving.admitted"], stats.admitted);
  EXPECT_EQ(snap.counters["serving.completed"], stats.completed);
  EXPECT_EQ(snap.histograms["serving.queue_depth"].count, stats.admitted);
  EXPECT_EQ(snap.histograms["serving.latency_micros"].count, stats.admitted);
}

// ---------- cancellation & deadlines ----------

TEST_F(ServingTest, CancelMidJoinDrainsTasksAndReleasesMemory) {
  ServingOptions serving;
  serving.max_concurrent = 2;
  QueryEngine& engine = MakeEngine(serving);

  SlowGate gate;
  g_gate.store(&gate, std::memory_order_release);
  Result<std::shared_ptr<QueryTicket>> ticket = engine.Submit(kSlowJoin);
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(gate.AwaitEntered(1));  // provably mid-join
  ticket.value()->Cancel();
  gate.Open();

  const Status& s = ticket.value()->Wait();
  EXPECT_EQ(s.code(), StatusCode::kCancelled) << s.ToString();

  // The scheduler drained: every planned task either executed or was
  // skipped, nothing is left behind, and the memory quota returned to zero.
  const hyracks::ExecStats& exec = ticket.value()->result().exec;
  EXPECT_GT(exec.tasks_total, 0u);
  EXPECT_EQ(exec.tasks_executed + exec.tasks_skipped, exec.tasks_total);
  EXPECT_GT(exec.tasks_skipped, 0u);
  EXPECT_EQ(ticket.value()->budget().memory_in_use(), 0);

  // The engine is healthy: the identical query now succeeds with the right
  // answer (gate stays open, no sleeping).
  g_gate.store(nullptr, std::memory_order_release);
  std::vector<std::string> expected = Baseline(kSlowJoin);
  Result<std::shared_ptr<QueryTicket>> again = engine.Submit(kSlowJoin);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value()->Wait().ok());
  EXPECT_EQ(SortedRows(again.value()->result()), expected);
}

TEST_F(ServingTest, CancelWhileQueuedNeverExecutes) {
  ServingOptions serving;
  serving.max_concurrent = 1;
  serving.max_queue = 4;
  QueryEngine& engine = MakeEngine(serving, /*records=*/8);

  SlowGate gate;
  g_gate.store(&gate, std::memory_order_release);
  Result<std::shared_ptr<QueryTicket>> blocker = engine.Submit(kSlowJoin);
  ASSERT_TRUE(blocker.ok());
  ASSERT_TRUE(gate.AwaitEntered(1));

  Result<std::shared_ptr<QueryTicket>> queued = engine.Submit(kCheapEd);
  ASSERT_TRUE(queued.ok());
  queued.value()->Cancel();
  gate.Open();
  g_gate.store(nullptr, std::memory_order_release);

  const Status& s = queued.value()->Wait();
  EXPECT_EQ(s.code(), StatusCode::kCancelled) << s.ToString();
  EXPECT_EQ(queued.value()->result().exec.tasks_total, 0u);  // never ran
  EXPECT_TRUE(blocker.value()->Wait().ok());
}

TEST_F(ServingTest, DeadlineExpiresMidExecution) {
  ServingOptions serving;
  serving.max_concurrent = 2;
  QueryEngine& engine = MakeEngine(serving, /*records=*/8);

  g_sleep_ms.store(10);
  SubmitOptions opts;
  opts.deadline_seconds = 0.05;  // expires while join tasks are sleeping
  Result<std::shared_ptr<QueryTicket>> ticket =
      engine.Submit(kSlowJoin, opts);
  ASSERT_TRUE(ticket.ok());
  const Status& s = ticket.value()->Wait();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s.ToString();
  const hyracks::ExecStats& exec = ticket.value()->result().exec;
  EXPECT_EQ(exec.tasks_executed + exec.tasks_skipped, exec.tasks_total);
  EXPECT_EQ(ticket.value()->budget().memory_in_use(), 0);
  EXPECT_EQ(engine.Stats().deadline_exceeded, 1u);
}

TEST_F(ServingTest, DeadlineCoversQueueWait) {
  ServingOptions serving;
  serving.max_concurrent = 1;
  serving.max_queue = 4;
  QueryEngine& engine = MakeEngine(serving, /*records=*/8);

  SlowGate gate;
  g_gate.store(&gate, std::memory_order_release);
  Result<std::shared_ptr<QueryTicket>> blocker = engine.Submit(kSlowJoin);
  ASSERT_TRUE(blocker.ok());
  ASSERT_TRUE(gate.AwaitEntered(1));

  SubmitOptions opts;
  opts.deadline_seconds = 0.02;
  Result<std::shared_ptr<QueryTicket>> queued = engine.Submit(kCheapEd, opts);
  ASSERT_TRUE(queued.ok());
  // Let the deadline lapse while the query is still waiting in the queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.Open();
  g_gate.store(nullptr, std::memory_order_release);

  const Status& s = queued.value()->Wait();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s.ToString();
  EXPECT_EQ(queued.value()->result().exec.tasks_total, 0u);
  EXPECT_TRUE(blocker.value()->Wait().ok());
}

// ---------- admission control ----------

TEST_F(ServingTest, QueueOverflowShedsLoadWithDistinctStatus) {
  ServingOptions serving;
  serving.max_concurrent = 1;
  serving.max_queue = 2;
  QueryEngine& engine = MakeEngine(serving, /*records=*/8);

  SlowGate gate;
  g_gate.store(&gate, std::memory_order_release);
  Result<std::shared_ptr<QueryTicket>> running = engine.Submit(kSlowJoin);
  ASSERT_TRUE(running.ok());
  ASSERT_TRUE(gate.AwaitEntered(1));  // occupies the only worker

  Result<std::shared_ptr<QueryTicket>> q1 = engine.Submit(kCheapEd);
  Result<std::shared_ptr<QueryTicket>> q2 = engine.Submit(kCheapJaccard);
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  Result<std::shared_ptr<QueryTicket>> shed = engine.Submit(kCheapEd);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kOverloaded)
      << shed.status().ToString();

  gate.Open();
  g_gate.store(nullptr, std::memory_order_release);
  EXPECT_TRUE(running.value()->Wait().ok());
  EXPECT_TRUE(q1.value()->Wait().ok());
  EXPECT_TRUE(q2.value()->Wait().ok());

  serving::ServingStats stats = engine.Stats();
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.peak_queue_depth, 2u);
}

TEST_F(ServingTest, MemoryQuotaRefusedBeforeExecution) {
  ServingOptions serving;
  QueryEngine& engine = MakeEngine(serving);  // 24 records

  SubmitOptions opts;
  opts.memory_quota_bytes = 100;  // 24 * 128 estimated scan bytes >> 100
  Result<std::shared_ptr<QueryTicket>> ticket =
      engine.Submit("for $t in dataset D return $t;", opts);
  ASSERT_TRUE(ticket.ok());
  const Status& s = ticket.value()->Wait();
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
  EXPECT_NE(s.message().find("admission:"), std::string::npos)
      << s.ToString();
  // Refused pre-execution: no task was planned or run.
  EXPECT_EQ(ticket.value()->result().exec.tasks_total, 0u);
  EXPECT_EQ(ticket.value()->budget().tasks_started(), 0);
  EXPECT_EQ(engine.Stats().rejected_quota, 1u);
}

TEST_F(ServingTest, TaskQuotaTripsMidExecutionAndDrains) {
  ServingOptions serving;
  QueryEngine& engine = MakeEngine(serving);

  SubmitOptions opts;
  opts.task_quota = 3;  // a distributed join needs far more tasks
  Result<std::shared_ptr<QueryTicket>> ticket =
      engine.Submit(kHeavyJaccard, opts);
  ASSERT_TRUE(ticket.ok());
  const Status& s = ticket.value()->Wait();
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
  EXPECT_NE(s.message().find("task quota"), std::string::npos);
  const hyracks::ExecStats& exec = ticket.value()->result().exec;
  EXPECT_GT(exec.tasks_total, 3u);
  EXPECT_LE(exec.tasks_executed, 3u);
  EXPECT_EQ(exec.tasks_executed + exec.tasks_skipped, exec.tasks_total);
  EXPECT_EQ(ticket.value()->budget().memory_in_use(), 0);
}

TEST_F(ServingTest, MemoryAccountingPeaksThenReturnsToZero) {
  ServingOptions serving;
  QueryEngine& engine = MakeEngine(serving);

  SubmitOptions opts;
  opts.memory_quota_bytes = 1 << 24;  // generous: query must succeed
  std::vector<std::string> expected = Baseline(kHeavyJaccard);
  Result<std::shared_ptr<QueryTicket>> ticket =
      engine.Submit(kHeavyJaccard, opts);
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(ticket.value()->Wait().ok())
      << ticket.value()->status().ToString();
  EXPECT_EQ(SortedRows(ticket.value()->result()), expected);
  EXPECT_GT(ticket.value()->budget().peak_memory_bytes(), 0);
  EXPECT_EQ(ticket.value()->budget().memory_in_use(), 0);
  const hyracks::ExecStats& exec = ticket.value()->result().exec;
  EXPECT_GT(exec.tasks_total, 0u);
  EXPECT_EQ(exec.tasks_executed, exec.tasks_total);
  EXPECT_EQ(exec.tasks_skipped, 0u);
}

TEST_F(ServingTest, ParseErrorsAndDdlAreRefused) {
  ServingOptions serving;
  QueryEngine& engine = MakeEngine(serving, /*records=*/8);

  Result<std::shared_ptr<QueryTicket>> bad = engine.Submit("for $t in (((;");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(engine.Stats().rejected_parse, 1u);

  Result<std::shared_ptr<QueryTicket>> ddl =
      engine.Submit("create dataset X primary key id;");
  ASSERT_TRUE(ddl.ok());  // parses fine; refused at execution
  const Status& s = ddl.value()->Wait();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.message().find("not allowed on a concurrent session"),
            std::string::npos);
}

// One client request nested far past the parser's limit is refused at the
// front door as a parse error; it must not take the serving process down,
// and the next request still answers.
TEST_F(ServingTest, DeeplyNestedQueryIsRefusedAndServingContinues) {
  ServingOptions serving;
  QueryEngine& engine = MakeEngine(serving, /*records=*/8);

  std::string deep;
  for (int i = 0; i < 10000; ++i) deep += "[";
  deep += "1";
  for (int i = 0; i < 10000; ++i) deep += "]";
  Result<std::shared_ptr<QueryTicket>> refused = engine.Submit(deep + ";");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kParseError)
      << refused.status().ToString();
  EXPECT_EQ(engine.Stats().rejected_parse, 1u);

  Result<std::shared_ptr<QueryTicket>> next = engine.Submit(kCheapEd);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  ASSERT_TRUE(next.value()->Wait().ok());
  EXPECT_EQ(SortedRows(next.value()->result()), Baseline(kCheapEd));
  EXPECT_FALSE(next.value()->result().rows.empty());
}

// ---------- fairness ----------

TEST_F(ServingTest, ReservedSlotBoundsCheapLatencyUnderHeavyLoad) {
  ServingOptions serving;
  serving.max_concurrent = 2;
  serving.max_queue = 32;
  QueryEngine& engine = MakeEngine(serving, /*records=*/16);

  g_sleep_ms.store(10);  // each heavy join sleeps for hundreds of ms
  std::vector<std::shared_ptr<QueryTicket>> heavies;
  for (int i = 0; i < 3; ++i) {
    Result<std::shared_ptr<QueryTicket>> t = engine.Submit(kSlowJoin);
    ASSERT_TRUE(t.ok());
    ASSERT_EQ(t.value()->query_class(), QueryClass::kHeavy);
    heavies.push_back(t.value());
  }
  std::vector<std::shared_ptr<QueryTicket>> cheaps;
  for (int i = 0; i < 6; ++i) {
    Result<std::shared_ptr<QueryTicket>> t = engine.Submit(kCheapEd);
    ASSERT_TRUE(t.ok());
    ASSERT_EQ(t.value()->query_class(), QueryClass::kCheap);
    cheaps.push_back(t.value());
  }

  for (const auto& t : cheaps) EXPECT_TRUE(t->Wait().ok());
  // The reserved slot kept cheap queries flowing: when the last selection
  // finished, the heavy backlog (3 serialized joins on the general worker)
  // was still mostly unfinished.
  int heavies_done = 0;
  for (const auto& t : heavies) heavies_done += t->Done() ? 1 : 0;
  EXPECT_LE(heavies_done, 1);

  g_sleep_ms.store(0);
  for (const auto& t : heavies) EXPECT_TRUE(t->Wait().ok());
}

// ---------- determinism across serving paths ----------

TEST_F(ServingTest, RuntimeErrorsIdenticalToSequentialPath) {
  ServingOptions serving;
  QueryEngine& engine = MakeEngine(serving, /*records=*/8);
  const std::string bad_query =
      "for $t in dataset D where edit-distance($t.id, 'x') <= 1 return $t;";

  // Generated variable ids ($v<n>_t) come from a process-global fresh-name
  // counter and differ per compilation; the determinism under test is the
  // node/partition/message, so normalize them away.
  auto normalized = [](const Status& s) {
    std::string text = s.ToString();
    std::string out;
    for (size_t i = 0; i < text.size(); ++i) {
      out.push_back(text[i]);
      if (text[i] == 'v' && i > 0 && text[i - 1] == '$') {
        while (i + 1 < text.size() && std::isdigit(text[i + 1])) ++i;
      }
    }
    return out;
  };

  core::QueryResult sequential;
  Status seq = engine.processor().Execute(bad_query, &sequential);
  ASSERT_FALSE(seq.ok());

  // The concurrent path reports the same error (lowest (node, partition)
  // wins regardless of interleaving), every time.
  for (int i = 0; i < 4; ++i) {
    Result<std::shared_ptr<QueryTicket>> t = engine.Submit(bad_query);
    ASSERT_TRUE(t.ok());
    const Status& s = t.value()->Wait();
    EXPECT_EQ(normalized(s), normalized(seq));
  }
}

TEST_F(ServingTest, SessionSettingsAreIsolated) {
  ServingOptions serving;
  serving.max_concurrent = 4;
  QueryEngine& engine = MakeEngine(serving);

  std::shared_ptr<serving::Session> m_session = engine.CreateSession();
  m_session->set_prelude(
      "set simfunction 'slow-eq'; set simthreshold '1.0';");
  std::shared_ptr<serving::Session> b_session = engine.CreateSession();
  b_session->set_prelude(
      "set simfunction 'slow-eq'; set simthreshold '0.5';");

  // 24 records cycle 8 names, so each name appears exactly 3 times; with
  // threshold 1.0 `~= 'maria'` matches only exact 'maria' rows.
  const std::string query =
      "count(for $t in dataset D where $t.name ~= 'maria' return $t);";
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      serving::Session& session = (c % 2 == 0) ? *m_session : *b_session;
      for (int i = 0; i < 3; ++i) {
        Result<std::shared_ptr<QueryTicket>> t = session.Submit(query);
        if (!t.ok() || !t.value()->Wait().ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        const core::QueryResult& r = t.value()->result();
        // Both preludes pin the same function; thresholds differ but
        // slow-eq only scores 0 or 1, so both sessions must count the 3
        // exact 'maria' rows — if session state leaked mid-optimization
        // (e.g. another session's simfunction), counts would drift.
        if (r.rows.size() != 1 || !r.rows[0].is_int64() ||
            r.rows[0].AsInt64() != 3) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(m_session->queries_submitted(), 12u);
  EXPECT_EQ(b_session->queries_submitted(), 12u);
}

// ---------- engine state lock ----------

// The state lock prefers writers: once a writer waits, a new reader queues
// behind it, so overlapping queries cannot starve Insert and DDL. Ordered by
// the lock's waiter counts, not by sleeps.
TEST(StateLockTest, NewReaderQueuesBehindWaitingWriter) {
  SharedMutex mu(lockrank::Rank::kEngineState, "StateLockTest::mu");
  std::atomic<int> next{0};
  std::atomic<int> writer_at{-1};
  std::atomic<int> reader_at{-1};
  mu.LockShared();  // a query in flight
  std::thread writer([&] {
    WriterLock lock(mu);
    writer_at = next++;
  });
  while (mu.waiting_writers() == 0) std::this_thread::yield();
  std::thread reader([&] {
    ReaderLock lock(mu);
    reader_at = next++;
  });
  // The second reader either queues behind the writer or overtakes it.
  while (mu.waiting_readers() == 0 && reader_at.load() < 0) {
    std::this_thread::yield();
  }
  EXPECT_LT(reader_at.load(), 0) << "a new reader overtook a waiting writer";
  mu.UnlockShared();
  writer.join();
  reader.join();
  EXPECT_EQ(writer_at.load(), 0);
  EXPECT_EQ(reader_at.load(), 1);
  EXPECT_EQ(mu.waiting_writers(), 0);
  EXPECT_EQ(mu.waiting_readers(), 0);
}

// ---------- WeightedQueue unit tests ----------

TEST(WeightedQueueTest, WeightedDequeueOrderIsDeterministic) {
  WeightedQueue q(/*max_depth=*/16);
  for (uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(q.TryPush(QueryClass::kCheap, 100 + i));
    ASSERT_TRUE(q.TryPush(QueryClass::kHeavy, 200 + i));
  }
  std::vector<QueryClass> order;
  QueryClass c;
  uint64_t id = 0;
  while (q.Pop(&c, &id)) order.push_back(c);
  // 3:1 cheap:heavy while both classes are backlogged, ties to cheap, then
  // the heavy tail drains.
  const std::vector<QueryClass> expected = {
      QueryClass::kCheap, QueryClass::kCheap, QueryClass::kCheap,
      QueryClass::kHeavy, QueryClass::kCheap, QueryClass::kCheap,
      QueryClass::kCheap, QueryClass::kHeavy, QueryClass::kHeavy,
      QueryClass::kHeavy, QueryClass::kHeavy, QueryClass::kHeavy};
  EXPECT_EQ(order, expected);
}

TEST(WeightedQueueTest, BoundedDepthAndFifoWithinClass) {
  WeightedQueue q(/*max_depth=*/2);
  EXPECT_TRUE(q.TryPush(QueryClass::kCheap, 1));
  EXPECT_TRUE(q.TryPush(QueryClass::kHeavy, 2));
  EXPECT_FALSE(q.TryPush(QueryClass::kCheap, 3));  // full -> shed
  EXPECT_EQ(q.depth(), 2u);

  QueryClass c;
  uint64_t id = 0;
  ASSERT_TRUE(q.PopClass(QueryClass::kCheap, &c, &id));
  EXPECT_EQ(id, 1u);
  EXPECT_FALSE(q.PopClass(QueryClass::kCheap, &c, &id));
  ASSERT_TRUE(q.Pop(&c, &id));
  EXPECT_EQ(id, 2u);
  EXPECT_TRUE(q.empty());
}

TEST(WeightedQueueTest, RemoveDropsQueuedEntry) {
  WeightedQueue q(/*max_depth=*/8);
  ASSERT_TRUE(q.TryPush(QueryClass::kHeavy, 7));
  ASSERT_TRUE(q.TryPush(QueryClass::kHeavy, 8));
  EXPECT_TRUE(q.Remove(7));
  EXPECT_FALSE(q.Remove(7));
  QueryClass c;
  uint64_t id = 0;
  ASSERT_TRUE(q.Pop(&c, &id));
  EXPECT_EQ(id, 8u);
}

// ---------- CancellationToken / ResourceBudget unit tests ----------

TEST(CancellationTokenTest, CancelWinsOverDeadline) {
  CancellationToken token;
  EXPECT_TRUE(token.Check().ok());
  token.SetDeadlineAfter(-1);  // disarmed
  EXPECT_FALSE(token.deadline_expired());
  token.SetDeadlineAfter(1e-9);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);
  token.RequestCancel();
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
}

TEST(ResourceBudgetTest, MemoryChargeRollsBackOnRefusal) {
  hyracks::ResourceBudget budget(/*max_memory_bytes=*/100, /*max_tasks=*/2);
  EXPECT_TRUE(budget.ChargeMemory(60).ok());
  Status s = budget.ChargeMemory(60);  // would reach 120 > 100
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.memory_in_use(), 60);  // refused charge rolled back
  budget.ReleaseMemory(60);
  EXPECT_EQ(budget.memory_in_use(), 0);
  EXPECT_EQ(budget.peak_memory_bytes(), 60);

  EXPECT_TRUE(budget.ChargeTask().ok());
  EXPECT_TRUE(budget.ChargeTask().ok());
  EXPECT_EQ(budget.ChargeTask().code(), StatusCode::kResourceExhausted);
}

TEST(ResourceBudgetTest, ZeroMeansUnlimited) {
  hyracks::ResourceBudget budget;
  EXPECT_TRUE(budget.ChargeMemory(1 << 30).ok());
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(budget.ChargeTask().ok());
}

}  // namespace
}  // namespace simdb
