// Job-fragment dispatch tests: the wire serde (header / closure / result /
// error payloads), the worker-side interpreter's bit-identity with a local
// destination build (rows *and* traffic accounting), the socket transport's
// fragment round trip into a genuinely forked worker process (proven by
// pid), the per-worker cancel ledger, and the engine-level seam
// (tasks_remote / exec.remote.* profile counters, answers identical to the
// modeled backend).
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "adm/wire.h"
#include "cluster/cost_model.h"
#include "common/thread_pool.h"
#include "core/query_processor.h"
#include "hyracks/exec.h"
#include "hyracks/expr.h"
#include "hyracks/fragment.h"
#include "hyracks/ops_basic.h"
#include "hyracks/ops_exchange.h"
#include "hyracks/ops_scan.h"
#include "observability/metrics.h"
#include "storage/file_util.h"
#include "testing/operators.h"
#include "transport/transport.h"

namespace simdb::hyracks {
namespace {

using adm::Value;

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

/// Four partitions of distinct rows; column 0 is the hash/sort key and the
/// rows of each partition are pre-sorted on it so merge-gather is exercised
/// meaningfully.
PartitionedRows MakeInput() {
  PartitionedRows in(4, Rows(2));
  for (int p = 0; p < 4; ++p) {
    for (int i = 0; i < 12; ++i) {
      std::span<Value> row = in[static_cast<size_t>(p)].Append();
      row[0] = Value::Int64(p + 4 * i);
      row[1] = Value::String("s" + std::to_string(p) + "_" +
                             std::to_string(i));
    }
  }
  return in;
}

// --- Wire serde ------------------------------------------------------------

TEST(FragmentSerdeTest, HeaderRoundTrips) {
  adm::FragmentHeader h;
  h.query_id = 0x1122334455667788ULL;
  h.dst_partition = 3;
  h.num_nodes = 2;
  h.partitions_per_node = 2;
  h.num_groups = 4;
  std::string buf;
  ByteWriter w(&buf);
  adm::EncodeFragmentHeader(h, &w);
  ByteReader r(buf);
  Result<adm::FragmentHeader> back = adm::DecodeFragmentHeader(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->query_id, h.query_id);
  EXPECT_EQ(back->dst_partition, h.dst_partition);
  EXPECT_EQ(back->num_nodes, h.num_nodes);
  EXPECT_EQ(back->partitions_per_node, h.partitions_per_node);
  EXPECT_EQ(back->num_groups, h.num_groups);
}

TEST(FragmentSerdeTest, HeaderRejectsInconsistentTopology) {
  adm::FragmentHeader h;
  h.query_id = 1;
  h.dst_partition = 0;
  h.num_nodes = 2;
  h.partitions_per_node = 2;
  h.num_groups = 3;  // != 2 * 2
  std::string buf;
  ByteWriter w(&buf);
  adm::EncodeFragmentHeader(h, &w);
  ByteReader r(buf);
  EXPECT_FALSE(adm::DecodeFragmentHeader(&r).ok());
}

TEST(FragmentSerdeTest, ClosureRoundTripsAllOperators) {
  adm::FragmentClosure cases[4];
  cases[0].op = adm::FragmentOp::kHash;
  cases[0].columns = {0, 2};
  cases[1].op = adm::FragmentOp::kBroadcast;
  cases[2].op = adm::FragmentOp::kGather;
  cases[3].op = adm::FragmentOp::kMergeGather;
  cases[3].columns = {1, 0};
  cases[3].ascending = {1, 0};
  for (const adm::FragmentClosure& c : cases) {
    std::string buf;
    ByteWriter w(&buf);
    adm::EncodeFragmentClosure(c, &w);
    ByteReader r(buf);
    Result<adm::FragmentClosure> back = adm::DecodeFragmentClosure(&r);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->op, c.op);
    EXPECT_EQ(back->columns, c.columns);
    EXPECT_EQ(back->ascending, c.ascending);
  }
}

TEST(FragmentSerdeTest, ClosureRejectsUnknownOperatorTag) {
  std::string buf;
  ByteWriter w(&buf);
  w.PutU8(99);  // not a FragmentOp
  w.PutU32(0);
  w.PutU32(0);
  ByteReader r(buf);
  EXPECT_FALSE(adm::DecodeFragmentClosure(&r).ok());
}

TEST(FragmentSerdeTest, ErrorPayloadCarriesExactStatus) {
  std::string buf;
  adm::EncodeFragmentError(Status::Corruption("bad bits"), &buf);
  Status s = adm::DecodeFragmentError(buf);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_EQ(s.message(), "bad bits");
  // Malformed payloads decode to Corruption rather than a fake OK.
  EXPECT_EQ(adm::DecodeFragmentError("x").code(), StatusCode::kCorruption);
}

// --- Interpreter vs local build -------------------------------------------

struct OpCase {
  std::string label;
  std::unique_ptr<ExchangeOperator> op;
};

std::vector<OpCase> MakeOpCases() {
  std::vector<OpCase> cases;
  cases.push_back({"hash", std::make_unique<HashExchangeOp>(
                               std::vector<int>{0})});
  cases.push_back({"broadcast", std::make_unique<BroadcastExchangeOp>()});
  cases.push_back({"gather", std::make_unique<GatherOp>()});
  cases.push_back({"merge_gather", std::make_unique<MergeGatherOp>(
                                       std::vector<SortKey>{{0, true}})});
  return cases;
}

/// Executes fragments in-process through the interpreter a socket worker
/// runs, so Executor::Run builds every non-empty destination "remotely"
/// without forking. Single-threaded use only (run it without a pool).
class LoopbackTransport : public transport::Transport {
 public:
  transport::TransportKind kind() const override {
    return transport::TransportKind::kSocket;
  }
  bool remote_execution() const override { return true; }
  Status Drain(double) override { return Status::OK(); }
  Status ExecuteFragment(int, const std::string& request, std::string* reply,
                         double* seconds) override {
    transport::FragmentReply r = fragment::InterpretFragment(request);
    if (!r.ok) return adm::DecodeFragmentError(r.payload);
    *reply = std::move(r.payload);
    *seconds = 0;
    return Status::OK();
  }
};

/// The remote build must be bit-identical to the local one — same rows in
/// the same order AND the same local/remote byte accounting — for every
/// operator kind and every destination. This is the invariant that keeps the
/// modeled backend a valid differential oracle for fragment dispatch.
TEST(FragmentInterpreterTest, MatchesLocalBuildExactly) {
  PartitionedRows in = MakeInput();
  std::vector<OpCase> local_ops = MakeOpCases();
  std::vector<OpCase> remote_ops = MakeOpCases();
  LoopbackTransport loopback;
  for (size_t k = 0; k < local_ops.size(); ++k) {
    SCOPED_TRACE(local_ops[k].label);
    ExecContext ctx;
    ctx.topology = {2, 2};
    OpStats local_stats, remote_stats;
    Result<PartitionedRows> local = testing::RunOperator(
        ctx, std::move(local_ops[k].op), {&in}, &local_stats);
    ctx.transport = &loopback;
    Result<PartitionedRows> remote = testing::RunOperator(
        ctx, std::move(remote_ops[k].op), {&in}, &remote_stats);
    ASSERT_TRUE(local.ok()) << local.status().ToString();
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    ASSERT_EQ(local->size(), 4u);
    ASSERT_EQ(remote->size(), 4u);
    for (size_t dst = 0; dst < 4; ++dst) {
      EXPECT_TRUE(RowsEqual((*local)[dst], (*remote)[dst])) << "dst " << dst;
    }
    EXPECT_EQ(local_stats.remote_builds, 0u);
    EXPECT_GT(remote_stats.remote_builds, 0u);
    EXPECT_EQ(remote_stats.local_bytes, local_stats.local_bytes);
    EXPECT_EQ(remote_stats.remote_bytes, local_stats.remote_bytes);
    EXPECT_EQ(remote_stats.remote_transfers, local_stats.remote_transfers);
  }
}

TEST(FragmentInterpreterTest, RejectsTrailingGarbage) {
  PartitionedRows in = MakeInput();
  ExecContext ctx;
  ctx.topology = {2, 2};
  GatherOp op;
  adm::FragmentClosure closure;
  ASSERT_TRUE(fragment::ClosureFor(op, &closure));
  std::string request;
  size_t slice_rows = 0;
  fragment::EncodeFragmentRequest(ctx.topology, 1, closure, 0, in,
                                  ExchangeOperator::Routing{}, &request,
                                  &slice_rows);
  request += "junk";
  transport::FragmentReply reply = fragment::InterpretFragment(request);
  ASSERT_FALSE(reply.ok);
  Status s = adm::DecodeFragmentError(reply.payload);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("trailing"), std::string::npos);
}

// A row group states each row's column count, and every row of a group has
// the group's width: a payload whose rows differ in width is corrupt, not a
// ragged partition. Equal widths decode, zero included (the count root ships
// zero-width rows).
TEST(FragmentSerdeTest, DecodeRowsRejectsRowsOfDifferentWidths) {
  std::string payload;
  ByteWriter w(&payload);
  w.PutU32(3);
  w.PutU32(1);
  Value::Int64(1).Serialize(&w);
  w.PutU32(2);
  Value::Int64(2).Serialize(&w);
  Value::Int64(3).Serialize(&w);
  w.PutU32(1);
  Value::Int64(4).Serialize(&w);
  ByteReader r(payload);
  Result<Rows> ragged = fragment::DecodeRows(&r);
  ASSERT_FALSE(ragged.ok());
  EXPECT_EQ(ragged.status().code(), StatusCode::kCorruption);

  std::string zero;
  ByteWriter zw(&zero);
  zw.PutU32(4);
  for (int i = 0; i < 4; ++i) zw.PutU32(0);
  ByteReader zr(zero);
  Result<Rows> rows = fragment::DecodeRows(&zr);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 4u);
  EXPECT_EQ(rows->width(), 0u);
  EXPECT_EQ(zr.remaining(), 0u);
}

// A fragment frame whose cell nests 1,000,000 one-element arrays decodes to
// kCorruption (the value decoder's depth bound), not a stack overflow.
TEST(FragmentSerdeTest, DecodeRowsRejectsTooDeeplyNestedCells) {
  std::string payload;
  ByteWriter w(&payload);
  w.PutU32(1);  // rows
  w.PutU32(1);  // columns
  for (int i = 0; i < 1000000; ++i) {
    w.PutU8(static_cast<uint8_t>(adm::ValueType::kArray));
    w.PutU32(1);
  }
  Value::Int64(1).Serialize(&w);
  ByteReader r(payload);
  Result<Rows> rows = fragment::DecodeRows(&r);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kCorruption);
}

// Zero-width rows and rows wider than a frame build remotely exactly as
// locally, for every exchange kind: same rows, same widths (empty
// destinations included), same accounting.
TEST(FragmentInterpreterTest, ZeroWidthAndWideRowsMatchLocalBuilds) {
  PartitionedRows zero(4, Rows(0));
  for (size_t p = 0; p < 4; ++p) {
    for (size_t i = 0; i < (p * 3) % 5; ++i) zero[p].Append();
  }
  PartitionedRows wide(4, Rows(1000));
  for (size_t p = 0; p < 4; ++p) {
    for (int64_t i = 0; i < 2; ++i) {
      std::span<Value> cells = wide[p].Append();
      for (size_t c = 0; c < cells.size(); ++c) {
        cells[c] = Value::Int64(static_cast<int64_t>(p) + 4 * i +
                                static_cast<int64_t>(c));
      }
    }
  }
  LoopbackTransport loopback;
  for (const PartitionedRows* in : {&zero, &wide}) {
    const std::vector<int> keys =
        in->front().width() == 0 ? std::vector<int>{} : std::vector<int>{0};
    std::vector<SortKey> sort_keys;
    for (int k : keys) sort_keys.push_back({k, true});
    auto make = [&](int kind) -> std::unique_ptr<Operator> {
      if (kind == 0) return std::make_unique<HashExchangeOp>(keys);
      if (kind == 1) return std::make_unique<BroadcastExchangeOp>();
      if (kind == 2) return std::make_unique<GatherOp>();
      return std::make_unique<MergeGatherOp>(sort_keys);
    };
    for (int kind = 0; kind < 4; ++kind) {
      SCOPED_TRACE("width " + std::to_string(in->front().width()) + ", kind " +
                   std::to_string(kind));
      ExecContext ctx;
      ctx.topology = {2, 2};
      OpStats local_stats, remote_stats;
      Result<PartitionedRows> local =
          testing::RunOperator(ctx, make(kind), {in}, &local_stats);
      ctx.transport = &loopback;
      Result<PartitionedRows> remote =
          testing::RunOperator(ctx, make(kind), {in}, &remote_stats);
      ASSERT_TRUE(local.ok()) << local.status().ToString();
      ASSERT_TRUE(remote.ok()) << remote.status().ToString();
      EXPECT_GT(remote_stats.remote_builds, 0u);
      EXPECT_EQ(RowsCount(*remote), RowsCount(*local));
      for (size_t dst = 0; dst < 4; ++dst) {
        EXPECT_TRUE((*local)[dst] == (*remote)[dst]) << "dst " << dst;
        EXPECT_EQ((*local)[dst].width(), in->front().width());
        EXPECT_EQ((*remote)[dst].width(), in->front().width());
      }
      EXPECT_EQ(remote_stats.local_bytes, local_stats.local_bytes);
      EXPECT_EQ(remote_stats.remote_bytes, local_stats.remote_bytes);
    }
  }
}

/// Peak resident set size of this process so far, in MiB.
int64_t PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<int64_t>(usage.ru_maxrss) / 1024;  // Linux: KiB
}

TEST(FragmentInterpreterTest, HugeGroupCountIsCorruptionWithoutHugeAllocation) {
  // A consistent header announcing 65536 x 65535 row groups, then nothing:
  // the interpreter must reject it before sizing a vector of ~4G groups.
  adm::FragmentHeader header;
  header.num_nodes = 65536;
  header.partitions_per_node = 65535;
  header.num_groups = 65536u * 65535u;
  adm::FragmentClosure closure;
  closure.op = adm::FragmentOp::kGather;
  std::string request;
  ByteWriter w(&request);
  adm::EncodeFragmentHeader(header, &w);
  adm::EncodeFragmentClosure(closure, &w);
  int64_t rss_before = PeakRssMib();
  transport::FragmentReply reply = fragment::InterpretFragment(request);
  ASSERT_FALSE(reply.ok);
  EXPECT_EQ(adm::DecodeFragmentError(reply.payload).code(),
            StatusCode::kCorruption);
  EXPECT_LT(PeakRssMib() - rss_before, 64);
}

// --- Socket transport round trip ------------------------------------------

TEST(TransportFragmentTest, ExecutesInsideForkedWorkerProcess) {
  std::unique_ptr<transport::Transport> t =
      transport::MakeTransport(transport::TransportKind::kSocket, 2);
  ASSERT_TRUE(t->remote_execution());
  PartitionedRows in = MakeInput();
  ExecContext ctx;
  ctx.topology = {2, 2};
  // Broadcast routes implicitly: every destination's slice is the whole
  // input, so no routing table is needed to encode the requests.
  BroadcastExchangeOp op;
  adm::FragmentClosure closure;
  ASSERT_TRUE(fragment::ClosureFor(op, &closure));
  Result<PartitionedRows> local = testing::RunOperator(
      ctx, std::make_unique<BroadcastExchangeOp>(), {&in});
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  std::vector<int> pids = t->worker_pids();
  ASSERT_EQ(pids.size(), 2u);
  for (int dst = 0; dst < 4; ++dst) {
    std::string request;
    size_t slice_rows = 0;
    fragment::EncodeFragmentRequest(ctx.topology, 5, closure, dst, in,
                                    ExchangeOperator::Routing{}, &request,
                                    &slice_rows);
    ASSERT_GT(slice_rows, 0u);
    int node = ctx.topology.NodeOfPartition(dst);
    std::string reply;
    double seconds = 0;
    ASSERT_TRUE(t->ExecuteFragment(node, request, &reply, &seconds).ok());
    EXPECT_GT(seconds, 0.0);
    Result<fragment::RemoteBuildResult> remote =
        fragment::DecodeFragmentResult(reply);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    // The destination was produced in another process: the worker stamped
    // its own pid, which is a live worker of this transport — not ours.
    EXPECT_NE(remote->header.worker_pid, static_cast<int64_t>(::getpid()));
    EXPECT_NE(std::find(pids.begin(), pids.end(),
                        static_cast<int>(remote->header.worker_pid)),
              pids.end());
    EXPECT_TRUE(RowsEqual((*local)[static_cast<size_t>(dst)], remote->rows))
        << "dst " << dst;
  }
  EXPECT_TRUE(t->Drain().ok());
}

TEST(TransportFragmentTest, CancelLedgerRefusesCancelledQueriesOnly) {
  std::unique_ptr<transport::Transport> t =
      transport::MakeTransport(transport::TransportKind::kSocket, 2);
  PartitionedRows in = MakeInput();
  ExecContext ctx;
  ctx.topology = {2, 2};
  GatherOp op;
  adm::FragmentClosure closure;
  ASSERT_TRUE(fragment::ClosureFor(op, &closure));
  auto execute = [&](uint64_t query_id) {
    std::string request;
    size_t slice_rows = 0;
    fragment::EncodeFragmentRequest(ctx.topology, query_id, closure, 0, in,
                                    ExchangeOperator::Routing{}, &request,
                                    &slice_rows);
    std::string reply;
    double seconds = 0;
    return t->ExecuteFragment(0, request, &reply, &seconds);
  };
  ASSERT_TRUE(execute(7).ok());
  ASSERT_TRUE(t->CancelFragments(7, /*timeout_seconds=*/5.0).ok());
  Status refused = execute(7);
  EXPECT_EQ(refused.code(), StatusCode::kCancelled);
  EXPECT_NE(refused.message().find("cancelled"), std::string::npos);
  // Other queries — and unattributed query id 0 — are unaffected.
  EXPECT_TRUE(execute(8).ok());
  ASSERT_TRUE(t->CancelFragments(0, /*timeout_seconds=*/5.0).ok());
  EXPECT_TRUE(execute(0).ok());
  EXPECT_TRUE(t->Drain().ok());
}

TEST(TransportFragmentTest, ModeledBackendHasNoRemoteExecution) {
  std::unique_ptr<transport::Transport> t =
      transport::MakeTransport(transport::TransportKind::kModeled, 2);
  EXPECT_FALSE(t->remote_execution());
  std::string reply;
  double seconds = 0;
  EXPECT_EQ(t->ExecuteFragment(0, "x", &reply, &seconds).code(),
            StatusCode::kUnsupported);
  EXPECT_TRUE(t->CancelFragments(1, 1.0).ok());
  EXPECT_TRUE(t->worker_pids().empty());
}

// --- Engine-level seam -----------------------------------------------------

std::string ScratchDir(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("simdb_fragment_test_") + tag + "_" +
           std::to_string(::getpid())))
      .string();
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

std::vector<std::string> SortedJsonRows(const core::QueryResult& r) {
  std::vector<std::string> rows;
  for (const Value& row : r.rows) rows.push_back(row.ToJson());
  std::sort(rows.begin(), rows.end());
  return rows;
}

uint64_t OpCounterSum(const ExecStats& stats, const std::string& name) {
  uint64_t total = 0;
  for (const OpStats& op : stats.ops) {
    for (const auto& [n, v] : op.counters) {
      if (n == name) total += v;
    }
  }
  return total;
}

/// Under the socket backend, a profiled exchange-heavy query builds its
/// destinations inside worker processes (tasks_remote and exec.remote.* all
/// nonzero, the transport.fragment.dispatched counter moves) and still
/// answers exactly like the modeled backend.
TEST(EngineFragmentTest, SocketQueryBuildsDestinationsRemotely) {
  std::vector<std::string> expected;
  {
    std::string dir = ScratchDir("modeled");
    storage::RemoveAllBestEffort(dir);
    core::EngineOptions options;
    options.data_dir = dir;
    options.topology = {4, 2};
    options.num_threads = 2;
    options.transport = transport::TransportKind::kModeled;
    core::QueryProcessor engine(options);
    // set_transport bypasses the SIMDB_TRANSPORT env override, so the
    // baseline stays modeled even in the transport-socket CI job.
    engine.set_transport(transport::TransportKind::kModeled);
    LoadTinyDataset(engine);
    core::QueryResult result;
    ASSERT_TRUE(engine.Execute(kJoinQuery, &result).ok());
    expected = SortedJsonRows(result);
    EXPECT_EQ(result.exec.tasks_remote, 0u);
    storage::RemoveAllBestEffort(dir);
  }
  std::string dir = ScratchDir("socket");
  storage::RemoveAllBestEffort(dir);
  core::EngineOptions options;
  options.data_dir = dir;
  options.topology = {4, 2};
  options.num_threads = 2;
  options.transport = transport::TransportKind::kSocket;
  options.profile_queries = true;
  core::QueryProcessor engine(options);
  ASSERT_TRUE(engine.transport_backend()->remote_execution());
  uint64_t dispatched_before = obs::MetricsRegistry::Global()
                                   .GetCounter("transport.fragment.dispatched")
                                   ->value();
  LoadTinyDataset(engine);
  core::QueryResult result;
  ASSERT_TRUE(engine.Execute(kJoinQuery, &result).ok());
  EXPECT_EQ(SortedJsonRows(result), expected);
  EXPECT_TRUE(result.exec.network_measured);
  EXPECT_GT(result.exec.tasks_remote, 0u);
  EXPECT_GT(result.exec.TotalRemoteComputeSeconds(), 0.0);
  EXPECT_GT(OpCounterSum(result.exec, "exec.remote.fragments"), 0u);
  EXPECT_GT(OpCounterSum(result.exec, "exec.remote.rows"), 0u);
  EXPECT_GT(OpCounterSum(result.exec, "exec.remote.bytes"), 0u);
  EXPECT_GT(OpCounterSum(result.exec, "exec.remote.compute_nanos"), 0u);
  EXPECT_GT(obs::MetricsRegistry::Global()
                .GetCounter("transport.fragment.dispatched")
                ->value(),
            dispatched_before);
  // The cost model surfaces the worker-side compute it was told about.
  cluster::MakespanReport report =
      cluster::ComputeMakespan(result.exec, engine.options().topology);
  EXPECT_TRUE(report.network_measured);
  EXPECT_GT(report.remote_compute_seconds, 0.0);
  EXPECT_NE(cluster::FormatMakespan(report).find("remote compute"),
            std::string::npos);
  EXPECT_TRUE(engine.DrainTransport().ok());
  storage::RemoveAllBestEffort(dir);
}

}  // namespace
}  // namespace simdb::hyracks
