#include "hyracks/ops_exchange.h"

#include <queue>

namespace simdb::hyracks {

using adm::Value;

namespace {

uint64_t HashKeys(const Tuple& row, const std::vector<int>& key_columns) {
  uint64_t h = 0x5150;
  for (int c : key_columns) {
    uint64_t v = row[static_cast<size_t>(c)].Hash();
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

/// Accounts one tuple moving src->dst for the network model.
void AccountMove(const ExecContext& ctx, OpStats* stats, int src, int dst,
                 const Tuple& row) {
  if (stats == nullptr) return;
  uint64_t bytes = TupleBytes(row);
  if (ctx.topology.NodeOfPartition(src) == ctx.topology.NodeOfPartition(dst)) {
    stats->local_bytes += bytes;
  } else {
    stats->remote_bytes += bytes;
    ++stats->remote_transfers;
  }
}

/// Copies, or moves when the executor owns the input exclusively. A tuple is
/// taken only by the one destination it routes to, so concurrent builds
/// moving out of the same source partition touch disjoint rows.
Tuple TakeRow(const PartitionedRows& in, PartitionedRows* steal, size_t src,
              size_t i) {
  if (steal != nullptr) return std::move((*steal)[src][i]);
  return in[src][i];
}

}  // namespace

Result<ExchangeOperator::Routing> ExchangeOperator::Route(
    ExecContext&, const PartitionedRows&) {
  return Routing{};
}

Result<ExchangeOperator::Routing> HashExchangeOp::Route(
    ExecContext&, const PartitionedRows& in) {
  size_t parts = in.size();
  Routing routing;
  routing.destinations.resize(parts);
  for (size_t src = 0; src < parts; ++src) {
    std::vector<int>& dsts = routing.destinations[src];
    dsts.reserve(in[src].size());
    for (const Tuple& row : in[src]) {
      for (int c : key_columns_) {
        if (c < 0 || static_cast<size_t>(c) >= row.size()) {
          return Status::Internal("HASH-EXCHANGE key column out of range");
        }
      }
      dsts.push_back(
          static_cast<int>(HashKeys(row, key_columns_) % parts));
    }
  }
  return routing;
}

Result<Rows> HashExchangeOp::BuildDestination(ExecContext& ctx, int dst,
                                              const PartitionedRows& in,
                                              const Routing& routing,
                                              PartitionedRows* steal,
                                              OpStats* stats) {
  size_t mine = 0;
  for (size_t src = 0; src < in.size(); ++src) {
    for (int d : routing.destinations[src]) mine += (d == dst);
  }
  Rows out;
  out.reserve(mine);
  for (size_t src = 0; src < in.size(); ++src) {
    const std::vector<int>& dsts = routing.destinations[src];
    for (size_t i = 0; i < dsts.size(); ++i) {
      if (dsts[i] != dst) continue;
      AccountMove(ctx, stats, static_cast<int>(src), dst, in[src][i]);
      out.push_back(TakeRow(in, steal, src, i));
    }
  }
  return out;
}

Result<Rows> BroadcastExchangeOp::BuildDestination(ExecContext& ctx, int dst,
                                                   const PartitionedRows& in,
                                                   const Routing&,
                                                   PartitionedRows*,
                                                   OpStats* stats) {
  // Every destination needs its own copy — replication cannot move. The
  // de-copy win here is the exact reserve and one destination per task.
  size_t total = 0;
  for (const Rows& rows : in) total += rows.size();
  Rows out;
  out.reserve(total);
  for (size_t src = 0; src < in.size(); ++src) {
    for (const Tuple& row : in[src]) {
      AccountMove(ctx, stats, static_cast<int>(src), dst, row);
      out.push_back(row);
    }
  }
  return out;
}

Result<Rows> GatherOp::BuildDestination(ExecContext& ctx, int dst,
                                        const PartitionedRows& in,
                                        const Routing&, PartitionedRows* steal,
                                        OpStats* stats) {
  if (dst != 0) return Rows();
  size_t total = 0;
  for (const Rows& rows : in) total += rows.size();
  Rows out;
  out.reserve(total);
  for (size_t src = 0; src < in.size(); ++src) {
    for (size_t i = 0; i < in[src].size(); ++i) {
      AccountMove(ctx, stats, static_cast<int>(src), 0, in[src][i]);
      out.push_back(TakeRow(in, steal, src, i));
    }
  }
  return out;
}

Result<Rows> MergeGatherOp::BuildDestination(ExecContext& ctx, int dst,
                                             const PartitionedRows& in,
                                             const Routing&,
                                             PartitionedRows* steal,
                                             OpStats* stats) {
  if (dst != 0) return Rows();
  // -1 / 0 / 1 over the sort keys (ascending flags applied).
  auto compare = [this](const Tuple& a, const Tuple& b) {
    for (const SortKey& k : keys_) {
      int c = Value::Compare(a[static_cast<size_t>(k.column)],
                             b[static_cast<size_t>(k.column)]);
      if (c != 0) return k.ascending ? c : -c;
    }
    return 0;
  };
  // K-way binary-heap merge. Ties break on the partition index so the output
  // is identical to a sequential first-wins scan (and stable across runs).
  struct Head {
    size_t part;
    size_t pos;
  };
  auto after = [&](const Head& a, const Head& b) {
    int c = compare(in[a.part][a.pos], in[b.part][b.pos]);
    if (c != 0) return c > 0;
    return a.part > b.part;
  };
  std::priority_queue<Head, std::vector<Head>, decltype(after)> heap(after);
  size_t total = 0;
  for (size_t p = 0; p < in.size(); ++p) {
    total += in[p].size();
    if (!in[p].empty()) heap.push({p, 0});
  }
  Rows out;
  out.reserve(total);
  while (!heap.empty()) {
    Head head = heap.top();
    heap.pop();
    AccountMove(ctx, stats, static_cast<int>(head.part), 0,
                in[head.part][head.pos]);
    out.push_back(TakeRow(in, steal, head.part, head.pos));
    if (head.pos + 1 < in[head.part].size()) {
      heap.push({head.part, head.pos + 1});
    }
  }
  return out;
}

}  // namespace simdb::hyracks
