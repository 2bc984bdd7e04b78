#include "hyracks/fragment.h"

#include <unistd.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "adm/value.h"
#include "common/stopwatch.h"
#include "hyracks/ops_basic.h"
#include "transport/internal.h"

namespace simdb::hyracks::fragment {

namespace {

void EncodeRow(Row row, ByteWriter* w) {
  w->PutU32(static_cast<uint32_t>(row.size()));
  for (const adm::Value& v : row) v.Serialize(w);
}

}  // namespace

void EncodeRows(const Rows& rows, ByteWriter* w) {
  w->PutU32(static_cast<uint32_t>(rows.size()));
  for (Row row : rows) EncodeRow(row, w);
}

Result<Rows> DecodeRows(ByteReader* r) {
  SIMDB_ASSIGN_OR_RETURN(uint32_t nrows, r->GetU32());
  if (nrows == 0) return Rows();
  // The first row decodes into a scratch row, so the frames are sized by
  // decoded values, not by a count field: a lying count fails on truncation
  // before any large allocation. Every later row must have its width.
  SIMDB_ASSIGN_OR_RETURN(uint32_t width, r->GetU32());
  Tuple first;
  for (uint32_t c = 0; c < width; ++c) {
    SIMDB_ASSIGN_OR_RETURN(adm::Value v, adm::Value::Deserialize(r));
    first.push_back(std::move(v));
  }
  Rows rows(width);
  rows.AppendMoved(first);
  for (uint32_t i = 1; i < nrows; ++i) {
    SIMDB_ASSIGN_OR_RETURN(uint32_t ncols, r->GetU32());
    if (ncols != width) {
      return Status::Corruption("row group mixes rows of " +
                                std::to_string(width) + " and " +
                                std::to_string(ncols) + " columns");
    }
    std::span<adm::Value> cells = rows.Append();
    for (adm::Value& cell : cells) {
      SIMDB_ASSIGN_OR_RETURN(cell, adm::Value::Deserialize(r));
    }
  }
  return rows;
}

namespace {

/// Whether the destination's build reads any input at all. Mirrors each
/// BuildDestination's trivial-empty cases so the caller can skip the round
/// trip when the remote build could only produce empty rows and zero
/// accounting.
size_t SliceRowCount(const adm::FragmentClosure& closure, int dst,
                     const PartitionedRows& in,
                     const ExchangeOperator::Routing& routing) {
  size_t total = 0;
  switch (closure.op) {
    case adm::FragmentOp::kHash:
      for (size_t src = 0; src < in.size(); ++src) {
        if (src >= routing.destinations.size()) return 0;
        for (int d : routing.destinations[src]) total += (d == dst);
      }
      return total;
    case adm::FragmentOp::kBroadcast:
      for (const Rows& rows : in) total += rows.size();
      return total;
    case adm::FragmentOp::kGather:
    case adm::FragmentOp::kMergeGather:
      if (dst != 0) return 0;
      for (const Rows& rows : in) total += rows.size();
      return total;
  }
  return 0;
}

/// Reconstructs the exchange operator named by a closure. The worker runs
/// the same BuildDestination code the parent would — that is what makes
/// remote and local builds bit-identical.
Result<std::unique_ptr<ExchangeOperator>> OperatorFromClosure(
    const adm::FragmentClosure& closure) {
  switch (closure.op) {
    case adm::FragmentOp::kHash:
      return std::unique_ptr<ExchangeOperator>(
          std::make_unique<HashExchangeOp>(closure.columns));
    case adm::FragmentOp::kBroadcast:
      return std::unique_ptr<ExchangeOperator>(
          std::make_unique<BroadcastExchangeOp>());
    case adm::FragmentOp::kGather:
      return std::unique_ptr<ExchangeOperator>(std::make_unique<GatherOp>());
    case adm::FragmentOp::kMergeGather: {
      std::vector<SortKey> keys;
      keys.reserve(closure.columns.size());
      for (size_t i = 0; i < closure.columns.size(); ++i) {
        SortKey k;
        k.column = closure.columns[i];
        k.ascending =
            closure.ascending.empty() || closure.ascending[i] != 0;
        keys.push_back(k);
      }
      return std::unique_ptr<ExchangeOperator>(
          std::make_unique<MergeGatherOp>(std::move(keys)));
    }
  }
  return Status::Corruption("fragment closure names an unknown operator");
}

transport::FragmentReply ErrorReply(const Status& status) {
  transport::FragmentReply reply;
  reply.ok = false;
  adm::EncodeFragmentError(status, &reply.payload);
  return reply;
}

Result<transport::FragmentReply> InterpretFragmentOrError(
    std::string_view request_payload) {
  ByteReader r(request_payload);
  SIMDB_ASSIGN_OR_RETURN(adm::FragmentHeader header,
                         adm::DecodeFragmentHeader(&r));
  SIMDB_ASSIGN_OR_RETURN(adm::FragmentClosure closure,
                         adm::DecodeFragmentClosure(&r));
  // Every group carries at least its u32 row count; a group count the
  // payload cannot hold is rejected before sizing the partition vector.
  if (header.num_groups > r.remaining() / 4) {
    return Status::Corruption("fragment request announces " +
                              std::to_string(header.num_groups) +
                              " row groups in " +
                              std::to_string(r.remaining()) + " bytes");
  }
  PartitionedRows in(header.num_groups);
  for (uint32_t g = 0; g < header.num_groups; ++g) {
    SIMDB_ASSIGN_OR_RETURN(in[g], DecodeRows(&r));
  }
  if (r.remaining() != 0) {
    return Status::Corruption("fragment request has " +
                              std::to_string(r.remaining()) +
                              " trailing payload bytes");
  }

  // Synthetic routing: for hash, every shipped row was already routed to
  // this destination by the parent's Route pass; the implicit-routing ops
  // ship with an empty table, exactly like a local build.
  ExchangeOperator::Routing routing;
  if (closure.op == adm::FragmentOp::kHash) {
    routing.destinations.resize(in.size());
    for (size_t src = 0; src < in.size(); ++src) {
      routing.destinations[src].assign(
          in[src].size(), static_cast<int>(header.dst_partition));
    }
  }

  SIMDB_ASSIGN_OR_RETURN(std::unique_ptr<ExchangeOperator> op,
                         OperatorFromClosure(closure));

  // A minimal worker-side context: BuildDestination only consults the
  // topology (for same-node vs cross-node accounting). No pool, transport,
  // trace, or budget exists in the worker; the parent owns all of those.
  ExecContext ctx;
  ctx.topology.num_nodes = static_cast<int>(header.num_nodes);
  ctx.topology.partitions_per_node =
      static_cast<int>(header.partitions_per_node);

  OpStats build_stats;
  Stopwatch sw;
  SIMDB_ASSIGN_OR_RETURN(
      Rows rows,
      op->BuildDestination(ctx, static_cast<int>(header.dst_partition), in,
                           routing, /*steal=*/nullptr, &build_stats));
  double compute_seconds = sw.ElapsedSeconds();

  adm::FragmentResultHeader result;
  result.query_id = header.query_id;
  result.worker_pid = static_cast<int64_t>(::getpid());
  result.local_bytes = build_stats.local_bytes;
  result.remote_bytes = build_stats.remote_bytes;
  result.remote_transfers = build_stats.remote_transfers;
  result.compute_seconds = compute_seconds;

  transport::FragmentReply reply;
  reply.ok = true;
  ByteWriter w(&reply.payload);
  adm::EncodeFragmentResultHeader(result, &w);
  EncodeRows(rows, &w);
  return reply;
}

/// Installs the interpreter during static initialization: single-threaded,
/// pre-main, and therefore before any socket worker is forked — the children
/// inherit the installed pointer. This translation unit is always linked
/// because scheduler.cc calls TryBuildRemote.
[[maybe_unused]] const bool kInterpreterInstalled = [] {
  transport::InstallFragmentInterpreter(&InterpretFragment);
  return true;
}();

}  // namespace

bool ClosureFor(const ExchangeOperator& op, adm::FragmentClosure* closure) {
  if (const auto* hash = dynamic_cast<const HashExchangeOp*>(&op)) {
    closure->op = adm::FragmentOp::kHash;
    closure->columns = hash->key_columns();
    closure->ascending.clear();
    return true;
  }
  if (dynamic_cast<const BroadcastExchangeOp*>(&op) != nullptr) {
    closure->op = adm::FragmentOp::kBroadcast;
    closure->columns.clear();
    closure->ascending.clear();
    return true;
  }
  if (const auto* merge = dynamic_cast<const MergeGatherOp*>(&op)) {
    closure->op = adm::FragmentOp::kMergeGather;
    closure->columns.clear();
    closure->ascending.clear();
    for (const SortKey& k : merge->keys()) {
      closure->columns.push_back(k.column);
      closure->ascending.push_back(k.ascending ? 1 : 0);
    }
    return true;
  }
  if (dynamic_cast<const GatherOp*>(&op) != nullptr) {
    closure->op = adm::FragmentOp::kGather;
    closure->columns.clear();
    closure->ascending.clear();
    return true;
  }
  return false;
}

void EncodeFragmentRequest(const ClusterTopology& topology, uint64_t query_id,
                           const adm::FragmentClosure& closure, int dst,
                           const PartitionedRows& in,
                           const ExchangeOperator::Routing& routing,
                           std::string* payload, size_t* slice_rows) {
  *slice_rows = SliceRowCount(closure, dst, in, routing);
  adm::FragmentHeader header;
  header.query_id = query_id;
  header.dst_partition = static_cast<uint32_t>(dst);
  header.num_nodes = static_cast<uint32_t>(topology.num_nodes);
  header.partitions_per_node =
      static_cast<uint32_t>(topology.partitions_per_node);
  header.num_groups = static_cast<uint32_t>(in.size());
  ByteWriter w(payload);
  adm::EncodeFragmentHeader(header, &w);
  adm::EncodeFragmentClosure(closure, &w);
  const bool hash = closure.op == adm::FragmentOp::kHash;
  for (size_t src = 0; src < in.size(); ++src) {
    if (hash) {
      // Send only this destination's slice, preserving source structure and
      // (src, i) order so the worker's build emits the parent's exact order.
      const std::vector<int>& dsts = routing.destinations[src];
      w.PutU32(static_cast<uint32_t>(
          std::count(dsts.begin(), dsts.end(), dst)));
      for (size_t i = 0; i < dsts.size(); ++i) {
        if (dsts[i] == dst) EncodeRow(in[src][i], &w);
      }
    } else if (*slice_rows == 0) {
      EncodeRows(Rows(), &w);
    } else {
      EncodeRows(in[src], &w);
    }
  }
}

Result<RemoteBuildResult> DecodeFragmentResult(std::string_view payload) {
  ByteReader r(payload);
  RemoteBuildResult result;
  SIMDB_ASSIGN_OR_RETURN(result.header,
                         adm::DecodeFragmentResultHeader(&r));
  SIMDB_ASSIGN_OR_RETURN(result.rows, DecodeRows(&r));
  if (r.remaining() != 0) {
    return Status::Corruption("fragment result has " +
                              std::to_string(r.remaining()) +
                              " trailing payload bytes");
  }
  return result;
}

transport::FragmentReply InterpretFragment(std::string_view request_payload) {
  Result<transport::FragmentReply> reply =
      InterpretFragmentOrError(request_payload);
  if (!reply.ok()) return ErrorReply(reply.status());
  return std::move(reply).value();
}

Status TryBuildRemote(ExecContext& ctx, ExchangeOperator& op, int dst,
                      const PartitionedRows& in,
                      const ExchangeOperator::Routing& routing, OpStats* stats,
                      Rows* out, bool* handled) {
  *handled = false;
  transport::Transport* t = ctx.transport;
  if (t == nullptr || !t->remote_execution()) return Status::OK();
  adm::FragmentClosure closure;
  if (!ClosureFor(op, &closure)) {
    // An exchange kind without a wire closure: build locally. Counted so an
    // operator silently exempting itself from remote execution is visible.
    transport::internal::GetFragmentMetrics().fallbacks->Increment();
    return Status::OK();
  }
  std::string request;
  size_t slice_rows = 0;
  EncodeFragmentRequest(ctx.topology, ctx.query_id, closure, dst, in, routing,
                        &request, &slice_rows);
  if (slice_rows == 0) return Status::OK();  // trivially empty; build locally

  std::string reply;
  double seconds = 0;
  Status dispatched = t->ExecuteFragment(ctx.topology.NodeOfPartition(dst),
                                         request, &reply, &seconds);
  if (dispatched.code() == StatusCode::kCancelled) {
    // The worker refused a cancelled query's fragment. Fall back to the
    // local build: the executor's own cancellation polling decides the
    // query's fate, so answers and errors stay identical across backends.
    return Status::OK();
  }
  SIMDB_RETURN_IF_ERROR(dispatched);
  SIMDB_ASSIGN_OR_RETURN(RemoteBuildResult result,
                         DecodeFragmentResult(reply));
  if (result.header.query_id != ctx.query_id) {
    return Status::Internal(
        "fragment result for query " +
        std::to_string(result.header.query_id) + " on a channel expecting " +
        std::to_string(ctx.query_id));
  }
  if (stats != nullptr) {
    stats->local_bytes += result.header.local_bytes;
    stats->remote_bytes += result.header.remote_bytes;
    stats->remote_transfers += result.header.remote_transfers;
    stats->remote_compute_seconds += result.header.compute_seconds;
    ++stats->remote_builds;
    double wire = seconds - result.header.compute_seconds;
    stats->transport_seconds += wire > 0 ? wire : 0;
  }
  transport::internal::GetFragmentMetrics().remote_compute_micros->Observe(
      static_cast<uint64_t>(result.header.compute_seconds * 1e6));
  CountOp(ctx, "exec.remote.fragments", 1);
  CountOp(ctx, "exec.remote.rows", result.rows.size());
  CountOp(ctx, "exec.remote.bytes", request.size() + reply.size());
  CountOp(ctx, "exec.remote.compute_nanos",
          static_cast<uint64_t>(result.header.compute_seconds * 1e9));
  // An empty result states no width; the destination has its input's.
  const size_t width = RowsWidth(in);
  if (result.rows.empty()) {
    result.rows = Rows(width);
  } else if (result.rows.width() != width) {
    return Status::Corruption(
        "fragment result rows have " + std::to_string(result.rows.width()) +
        " columns, the exchange input " + std::to_string(width));
  }
  *out = std::move(result.rows);
  *handled = true;
  return Status::OK();
}

}  // namespace simdb::hyracks::fragment
