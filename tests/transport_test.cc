// Transport backend tests: the row-group codec, the socket backend's
// forked-worker protocol driven through ExecuteFragment (identity through a
// worker, concurrency across nodes, drains, worker death, bad nodes, workers
// that never started), and the engine-level seam (EngineOptions::transport /
// SIMDB_TRANSPORT, measured vs modeled network accounting). This file is in
// the TSan CI pass.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "adm/wire.h"
#include "cluster/cost_model.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/query_processor.h"
#include "hyracks/fragment.h"
#include "hyracks/ops_exchange.h"
#include "storage/file_util.h"
#include "testing/operators.h"
#include "transport/transport.h"

namespace simdb::transport {
namespace {

using adm::Value;
using hyracks::PartitionedRows;
using hyracks::Rows;
namespace fragment = hyracks::fragment;

Rows MakeRows(uint64_t seed, int n) {
  Random rng(seed);
  Rows rows(3);
  for (int i = 0; i < n; ++i) {
    std::span<Value> row = rows.Append();
    row[0] = Value::Int64(static_cast<int64_t>(rng.Uniform(1000)));
    row[1] = Value::String("r" + std::to_string(i));
    row[2] = Value::MakeArray(
        {Value::Double(0.25 * static_cast<double>(i)), Value::Null()});
  }
  return rows;
}

bool RowsEqual(const Rows& a, const Rows& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t c = 0; c < a[i].size(); ++c) {
      if (!(a[i][c] == b[i][c])) return false;
    }
  }
  return true;
}

/// Peak resident set size of this process so far, in MiB.
int64_t PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<int64_t>(usage.ru_maxrss) / 1024;  // Linux: KiB
}

/// `rows` as one framed row group, the way a fragment payload carries them.
std::string FramedRows(const Rows& rows) {
  std::string payload;
  ByteWriter w(&payload);
  fragment::EncodeRows(rows, &w);
  std::string frame;
  adm::WriteFrame(payload, &frame);
  return frame;
}

Result<Rows> UnframeRows(std::string_view frame) {
  ByteReader outer(frame);
  SIMDB_ASSIGN_OR_RETURN(std::string_view payload, adm::ReadFrame(&outer));
  ByteReader r(payload);
  SIMDB_ASSIGN_OR_RETURN(Rows rows, fragment::DecodeRows(&r));
  if (r.remaining() != 0) return Status::Corruption("trailing row bytes");
  return rows;
}

TEST(RowsFrameTest, RoundTripsEmptyAndNonEmpty) {
  for (int n : {0, 1, 7, 100}) {
    Rows rows = MakeRows(42, n);
    Result<Rows> back = UnframeRows(FramedRows(rows));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(RowsEqual(rows, *back)) << "n=" << n;
  }
}

TEST(RowsFrameTest, CorruptionRejected) {
  std::string frame = FramedRows(MakeRows(7, 5));
  std::string bad = frame;
  bad[bad.size() - 1] = static_cast<char>(bad[bad.size() - 1] ^ 0x01);
  EXPECT_FALSE(UnframeRows(bad).ok());
  EXPECT_FALSE(
      UnframeRows(std::string_view(frame).substr(0, frame.size() - 1)).ok());
  // Unframed, every truncation of the row group itself fails.
  std::string payload;
  ByteWriter w(&payload);
  fragment::EncodeRows(MakeRows(7, 5), &w);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    ByteReader r(std::string_view(payload).substr(0, cut));
    EXPECT_FALSE(fragment::DecodeRows(&r).ok()) << "cut=" << cut;
  }
}

TEST(RowsFrameTest, TrailingPayloadRejected) {
  // The codec stops at its own end; a fragment result carrying bytes after
  // its rows must be rejected by the consumer.
  std::string payload;
  ByteWriter w(&payload);
  adm::EncodeFragmentResultHeader(adm::FragmentResultHeader{}, &w);
  fragment::EncodeRows(MakeRows(7, 2), &w);
  payload += "junk";
  Result<fragment::RemoteBuildResult> back =
      fragment::DecodeFragmentResult(payload);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("trailing"), std::string::npos);
}

TEST(RowsFrameTest, HugeCountsAreCorruptionWithoutHugeAllocation) {
  // A lying row count, then one row with a lying column count: neither may
  // size an allocation before the bytes behind it are read.
  std::string lying_rows;
  ByteWriter(&lying_rows).PutU32(0xFFFFFFFF);
  std::string lying_cols;
  ByteWriter cols(&lying_cols);
  cols.PutU32(1);
  cols.PutU32(0xFFFFFFFF);
  int64_t rss_before = PeakRssMib();
  for (const std::string& payload : {lying_rows, lying_cols}) {
    ByteReader r(payload);
    Result<Rows> back = fragment::DecodeRows(&r);
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
  }
  EXPECT_LT(PeakRssMib() - rss_before, 64);
}

TEST(TransportKindTest, NamesAndEnvParsing) {
  EXPECT_STREQ(TransportKindName(TransportKind::kModeled), "modeled");
  EXPECT_STREQ(TransportKindName(TransportKind::kSocket), "socket");
  ::unsetenv("SIMDB_TRANSPORT");
  EXPECT_EQ(KindFromEnv(TransportKind::kModeled), TransportKind::kModeled);
  ::setenv("SIMDB_TRANSPORT", "socket", 1);
  EXPECT_EQ(KindFromEnv(TransportKind::kModeled), TransportKind::kSocket);
  ::setenv("SIMDB_TRANSPORT", "modeled", 1);
  EXPECT_EQ(KindFromEnv(TransportKind::kSocket), TransportKind::kModeled);
  ::setenv("SIMDB_TRANSPORT", "bogus", 1);
  EXPECT_EQ(KindFromEnv(TransportKind::kSocket), TransportKind::kSocket);
  ::unsetenv("SIMDB_TRANSPORT");
}

TEST(ModeledTransportTest, NoRemoteExecutionAndDrainsTrivially) {
  std::unique_ptr<Transport> t = MakeTransport(TransportKind::kModeled, 4);
  EXPECT_FALSE(t->remote_execution());
  EXPECT_TRUE(t->Drain().ok());
}

/// A kFragment request whose worker-side build is exactly `rows`: a
/// broadcast on a {nodes x 1} cluster whose only non-empty source partition
/// holds them, built for destination `node` (so it belongs to that node).
std::string IdentityRequest(int nodes, int node, const Rows& rows) {
  hyracks::ClusterTopology topology{nodes, 1};
  PartitionedRows in(static_cast<size_t>(nodes));
  in[0] = rows;
  adm::FragmentClosure closure;
  EXPECT_TRUE(fragment::ClosureFor(hyracks::BroadcastExchangeOp(), &closure));
  std::string request;
  size_t slice_rows = 0;
  fragment::EncodeFragmentRequest(topology, /*query_id=*/1, closure, node, in,
                                  hyracks::ExchangeOperator::Routing{},
                                  &request, &slice_rows);
  return request;
}

/// Sends `rows` through node `node`'s worker and returns what it built.
Result<Rows> ThroughWorker(Transport& t, int nodes, int node, const Rows& rows,
                           double* seconds) {
  std::string reply;
  SIMDB_RETURN_IF_ERROR(t.ExecuteFragment(
      node, IdentityRequest(nodes, node, rows), &reply, seconds));
  SIMDB_ASSIGN_OR_RETURN(fragment::RemoteBuildResult result,
                         fragment::DecodeFragmentResult(reply));
  return std::move(result.rows);
}

TEST(SocketTransportTest, FragmentCrossesWorkerProcessAndIsIdentity) {
  std::unique_ptr<Transport> t = MakeTransport(TransportKind::kSocket, 2);
  EXPECT_TRUE(t->remote_execution());
  for (int node = 0; node < 2; ++node) {
    Rows rows = MakeRows(static_cast<uint64_t>(node) + 5, 30);
    double seconds = -1;
    Result<Rows> back = ThroughWorker(*t, 2, node, rows, &seconds);
    ASSERT_TRUE(back.ok()) << "node " << node << ": "
                           << back.status().ToString();
    EXPECT_TRUE(RowsEqual(*back, rows)) << "node " << node;
    EXPECT_GT(seconds, 0.0);
  }
  // Drain pings every spawned worker over the control channel.
  EXPECT_TRUE(t->Drain().ok());
}

TEST(SocketTransportTest, ManySequentialFragmentsAndConcurrentNodes) {
  std::unique_ptr<Transport> t = MakeTransport(TransportKind::kSocket, 4);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int node = 0; node < 4; ++node) {
    threads.emplace_back([&, node] {
      for (int s = 0; s < 25; ++s) {
        Rows rows = MakeRows(static_cast<uint64_t>(node * 100 + s), 12);
        double seconds = 0;
        Result<Rows> back = ThroughWorker(*t, 4, node, rows, &seconds);
        if (!back.ok() || !RowsEqual(*back, rows)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(t->Drain().ok());
}

TEST(SocketTransportTest, WorkersForkedEagerlyAndDrainBoundedWhenIdle) {
  // Workers exist (and answer pings) from construction — nothing is forked
  // lazily from pool threads mid-query — so a drain succeeds before any
  // fragment, bounded or not.
  std::unique_ptr<Transport> t = MakeTransport(TransportKind::kSocket, 3);
  EXPECT_TRUE(t->Drain(/*timeout_seconds=*/5.0).ok());
  EXPECT_TRUE(t->Drain().ok());
}

TEST(SocketTransportTest, TimedOutDrainLeavesChannelUsable) {
  // Regression: a bounded drain that times out *after* writing its ping
  // leaves the pong in flight on the stream. The next request on that
  // channel used to read the stale pong as its own reply and desynchronize
  // the protocol; now it drains pending pongs first. An already-expired
  // deadline forces exactly that path deterministically (the ping is
  // written, the bounded wait has zero budget left).
  std::unique_ptr<Transport> t = MakeTransport(TransportKind::kSocket, 2);
  int timed_out = 0;
  for (int i = 0; i < 5; ++i) {
    Status s = t->Drain(/*timeout_seconds=*/1e-9);
    if (!s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
      ++timed_out;
    }
  }
  ASSERT_GT(timed_out, 0);
  // Fragments and unbounded drains must still work on the realigned channel.
  for (int node = 0; node < 2; ++node) {
    Rows rows = MakeRows(static_cast<uint64_t>(node) + 77, 10);
    double seconds = 0;
    Result<Rows> back = ThroughWorker(*t, 2, node, rows, &seconds);
    ASSERT_TRUE(back.ok()) << "node " << node << ": "
                           << back.status().ToString();
    EXPECT_TRUE(RowsEqual(*back, rows));
  }
  EXPECT_TRUE(t->Drain().ok());
}

TEST(SocketTransportTest, BoundedDrainSharesOneDeadlineAcrossWorkers) {
  // The timeout is one budget for the whole drain, not per worker: with N
  // workers and an expired deadline the drain returns once, quickly —
  // it must not serially spend a full timeout on each of the N channels.
  std::unique_ptr<Transport> t = MakeTransport(TransportKind::kSocket, 4);
  // Warm the channels so every worker is known-alive.
  EXPECT_TRUE(t->Drain().ok());
  Stopwatch sw;
  Status s = t->Drain(/*timeout_seconds=*/0.05);
  double elapsed = sw.ElapsedSeconds();
  // Either it finished in time or it timed out; both must respect the
  // *shared* budget with generous scheduling slack (4 x 0.05s serial
  // per-worker deadlines would take at least 0.2s).
  if (!s.ok()) EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, 0.15);
  EXPECT_TRUE(t->Drain().ok());
}

TEST(SocketTransportTest, KilledWorkerSurfacesAsUnavailable) {
  // Worker-death injection: SIGKILL one worker and the failure mode must be
  // deterministic — kUnavailable (programmatically distinct from IO or
  // corruption errors), no hang, bounded drain still returns promptly, and
  // a fresh transport is unaffected.
  std::unique_ptr<Transport> t = MakeTransport(TransportKind::kSocket, 2);
  std::vector<int> pids = t->worker_pids();
  ASSERT_EQ(pids.size(), 2u);
  ASSERT_EQ(::kill(pids[1], SIGKILL), 0);
  // The kernel closes the worker's socket end when the process dies; a
  // fragment dispatch to the dead node must fail kUnavailable.
  double seconds = 0;
  Result<Rows> dead = ThroughWorker(*t, 2, 1, MakeRows(3, 8), &seconds);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(dead.status().message().find("worker gone"), std::string::npos);
  // The healthy worker keeps serving.
  Rows ok_rows = MakeRows(4, 8);
  Result<Rows> alive = ThroughWorker(*t, 2, 0, ok_rows, &seconds);
  ASSERT_TRUE(alive.ok()) << alive.status().ToString();
  EXPECT_TRUE(RowsEqual(*alive, ok_rows));
  // Drains fail (they ping every worker) but return promptly — never hang —
  // and report the dead worker as unavailable.
  Stopwatch sw;
  Status drained = t->Drain(/*timeout_seconds=*/5.0);
  ASSERT_FALSE(drained.ok());
  EXPECT_EQ(drained.code(), StatusCode::kUnavailable);
  EXPECT_LT(sw.ElapsedSeconds(), 5.0);
  // Cancels hit the dead channel too; also kUnavailable, never a hang.
  Status cancelled = t->CancelFragments(9, /*timeout_seconds=*/5.0);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.code(), StatusCode::kUnavailable);
  // A replacement transport forks fresh workers and is fully functional.
  std::unique_ptr<Transport> fresh = MakeTransport(TransportKind::kSocket, 2);
  Rows fresh_rows = MakeRows(5, 8);
  Result<Rows> fresh_back = ThroughWorker(*fresh, 2, 1, fresh_rows, &seconds);
  ASSERT_TRUE(fresh_back.ok()) << fresh_back.status().ToString();
  EXPECT_TRUE(RowsEqual(*fresh_back, fresh_rows));
  EXPECT_TRUE(fresh->Drain().ok());
}

TEST(SocketTransportTest, OutOfRangeNodeFailsLoudly) {
  // Clamping a bad dst_node to worker 0 would mask routing bugs while
  // reporting success; it must be an error instead.
  std::unique_ptr<Transport> t = MakeTransport(TransportKind::kSocket, 2);
  std::string request = IdentityRequest(2, 0, MakeRows(9, 3));
  std::string reply;
  double seconds = 0;
  Status s = t->ExecuteFragment(2, request, &reply, &seconds);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("out-of-range"), std::string::npos);
  EXPECT_FALSE(t->ExecuteFragment(-1, request, &reply, &seconds).ok());
}

TEST(SocketTransportTest, WorkersThatNeverStartedFailEveryDispatch) {
  // Shrink the descriptor limit to the lowest free descriptor so the
  // constructor's first socketpair fails.
  struct rlimit saved {};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  int lowest_free = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  struct rlimit tight = saved;
  tight.rlim_cur = static_cast<rlim_t>(lowest_free);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  std::unique_ptr<Transport> t = MakeTransport(TransportKind::kSocket, 2);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  EXPECT_TRUE(t->worker_pids().empty());
  // Still a remote-executing backend: the executor must dispatch and fail
  // loudly rather than quietly build every destination in the parent.
  EXPECT_TRUE(t->remote_execution());
  hyracks::ExecContext ctx;
  ctx.topology = {2, 1};
  ctx.transport = t.get();
  PartitionedRows in = {MakeRows(1, 4), MakeRows(2, 4)};
  Result<PartitionedRows> out = testing::RunOperator(
      ctx, std::make_unique<hyracks::GatherOp>(), {&in});
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("socketpair failed"),
            std::string::npos)
      << out.status().ToString();
  EXPECT_FALSE(t->Drain().ok());
  EXPECT_FALSE(t->CancelFragments(1, /*timeout_seconds=*/1.0).ok());
}

// --- Engine-level seam -----------------------------------------------------

std::string ScratchDir(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("simdb_transport_test_") + tag + "_" +
           std::to_string(::getpid())))
      .string();
}

core::EngineOptions EngineOptionsFor(const std::string& dir,
                                     TransportKind kind) {
  core::EngineOptions options;
  options.data_dir = dir;
  options.topology = {4, 2};
  options.num_threads = 2;
  options.transport = kind;
  return options;
}

void LoadTinyDataset(core::QueryProcessor& engine) {
  ASSERT_TRUE(engine.CreateDataset("D", "id").ok());
  const char* titles[] = {"data base systems", "database system design",
                          "query processing", "similarity query processing",
                          "large scale data", "parallel data management"};
  for (int i = 0; i < 60; ++i) {
    Value rec = Value::MakeObject(
        {{"id", Value::Int64(i)},
         {"title", Value::String(titles[i % 6])},
         {"score", Value::Int64(i % 10)}});
    ASSERT_TRUE(engine.Insert("D", std::move(rec)).ok());
  }
}

constexpr const char* kJoinQuery =
    "set simfunction \"jaccard\"; set simthreshold \"0.5\"; "
    "for $a in dataset('D') for $b in dataset('D') "
    "where word-tokens($a.title) ~= word-tokens($b.title) "
    "and $a.id < $b.id return { \"a\": $a.id, \"b\": $b.id };";

/// Both backends must return identical rows for an exchange-heavy join, and
/// the socket backend must flip the stats/cost-model to measured-network
/// accounting.
TEST(EngineTransportTest, BackendsAnswerIdenticallyAndAccountingFlips) {
  std::vector<std::string> expected;
  for (TransportKind kind : {TransportKind::kModeled, TransportKind::kSocket}) {
    std::string dir = ScratchDir(TransportKindName(kind));
    storage::RemoveAllBestEffort(dir);
    core::QueryProcessor engine(EngineOptionsFor(dir, kind));
    LoadTinyDataset(engine);
    core::QueryResult result;
    ASSERT_TRUE(engine.Execute(kJoinQuery, &result).ok());
    std::vector<std::string> rows;
    for (const Value& row : result.rows) rows.push_back(row.ToJson());
    std::sort(rows.begin(), rows.end());
    if (kind == TransportKind::kModeled) {
      expected = rows;
      EXPECT_FALSE(result.exec.network_measured);
    } else {
      EXPECT_EQ(rows, expected) << TransportKindName(kind);
      EXPECT_TRUE(result.exec.network_measured) << TransportKindName(kind);
    }
    cluster::MakespanReport report =
        cluster::ComputeMakespan(result.exec, engine.options().topology);
    if (kind == TransportKind::kModeled) {
      EXPECT_FALSE(report.network_measured);
      EXPECT_EQ(report.measured_network_seconds, 0.0);
      EXPECT_GT(report.network_seconds, 0.0);  // remote traffic was charged
    } else {
      EXPECT_TRUE(report.network_measured) << TransportKindName(kind);
      EXPECT_EQ(report.network_seconds, 0.0) << TransportKindName(kind);
      EXPECT_GT(report.measured_network_seconds, 0.0)
          << TransportKindName(kind);
    }
    EXPECT_TRUE(engine.DrainTransport().ok());
    storage::RemoveAllBestEffort(dir);
  }
}

TEST(EngineTransportTest, EnvOverrideSelectsBackend) {
  std::string dir = ScratchDir("env");
  storage::RemoveAllBestEffort(dir);
  ::setenv("SIMDB_TRANSPORT", "socket", 1);
  core::QueryProcessor engine(
      EngineOptionsFor(dir, TransportKind::kModeled));
  ::unsetenv("SIMDB_TRANSPORT");
  EXPECT_EQ(engine.transport_kind(), TransportKind::kSocket);
  EXPECT_EQ(engine.transport_backend()->kind(), TransportKind::kSocket);
  storage::RemoveAllBestEffort(dir);
}

TEST(EngineTransportTest, SetTransportSwitchesBackend) {
  std::string dir = ScratchDir("switch");
  storage::RemoveAllBestEffort(dir);
  core::QueryProcessor engine(
      EngineOptionsFor(dir, TransportKind::kModeled));
  LoadTinyDataset(engine);
  core::QueryResult modeled;
  ASSERT_TRUE(engine.Execute(kJoinQuery, &modeled).ok());
  EXPECT_FALSE(modeled.exec.network_measured);
  engine.set_transport(TransportKind::kSocket);
  core::QueryResult socket;
  ASSERT_TRUE(engine.Execute(kJoinQuery, &socket).ok());
  EXPECT_TRUE(socket.exec.network_measured);
  auto normalize = [](const core::QueryResult& r) {
    std::vector<std::string> rows;
    for (const Value& row : r.rows) rows.push_back(row.ToJson());
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  EXPECT_EQ(normalize(modeled), normalize(socket));
  storage::RemoveAllBestEffort(dir);
}

}  // namespace
}  // namespace simdb::transport
