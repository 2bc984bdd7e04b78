#include "hyracks/ops_exchange.h"

#include <queue>

namespace simdb::hyracks {

using adm::Value;

namespace {

/// Accounts one row moving src->dst for the network model.
void AccountMove(const ExecContext& ctx, OpStats* stats, int src, int dst,
                 Row row) {
  if (stats == nullptr) return;
  uint64_t bytes = TupleBytes(row);
  if (ctx.topology.NodeOfPartition(src) == ctx.topology.NodeOfPartition(dst)) {
    stats->local_bytes += bytes;
  } else {
    stats->remote_bytes += bytes;
    ++stats->remote_transfers;
  }
}

/// Appends row i of source partition `src` to `out`: its cells are moved
/// when the executor owns the input exclusively, copied otherwise. A row is
/// taken only by the one destination it routes to, so concurrent builds
/// moving cells out of the same source frames touch disjoint cells.
void TakeRow(const PartitionedRows& in, PartitionedRows* steal, size_t src,
             size_t i, Rows* out) {
  if (steal != nullptr) {
    out->AppendMoved((*steal)[src].MutableRow(i));
  } else {
    out->Append(in[src][i]);
  }
}

}  // namespace

Result<ExchangeOperator::Routing> ExchangeOperator::Route(
    ExecContext&, const PartitionedRows&) {
  return Routing{};
}

bool HashExchangeOp::SameAs(const Operator& other) const {
  const auto* o = dynamic_cast<const HashExchangeOp*>(&other);
  return o != nullptr && o->key_columns_ == key_columns_;
}

Result<ExchangeOperator::Routing> HashExchangeOp::Route(
    ExecContext&, const PartitionedRows& in) {
  size_t parts = in.size();
  Routing routing;
  routing.destinations.resize(parts);
  for (size_t src = 0; src < parts; ++src) {
    if (in[src].empty()) continue;
    for (int c : key_columns_) {
      if (c < 0 || static_cast<size_t>(c) >= in[src].width()) {
        return Status::Internal("HASH-EXCHANGE key column out of range");
      }
    }
    std::vector<int>& dsts = routing.destinations[src];
    dsts.reserve(in[src].size());
    for (Row row : in[src]) {
      dsts.push_back(
          static_cast<int>(HashColumns(row, key_columns_) % parts));
    }
  }
  return routing;
}

Result<Rows> HashExchangeOp::BuildDestination(ExecContext& ctx, int dst,
                                              const PartitionedRows& in,
                                              const Routing& routing,
                                              PartitionedRows* steal,
                                              OpStats* stats) {
  Rows out(RowsWidth(in));
  for (size_t src = 0; src < in.size(); ++src) {
    const std::vector<int>& dsts = routing.destinations[src];
    for (size_t i = 0; i < dsts.size(); ++i) {
      if (dsts[i] != dst) continue;
      AccountMove(ctx, stats, static_cast<int>(src), dst, in[src][i]);
      TakeRow(in, steal, src, i, &out);
    }
  }
  return out;
}

bool BroadcastExchangeOp::SameAs(const Operator& other) const {
  return dynamic_cast<const BroadcastExchangeOp*>(&other) != nullptr;
}

Result<Rows> BroadcastExchangeOp::BuildDestination(ExecContext& ctx, int dst,
                                                   const PartitionedRows& in,
                                                   const Routing&,
                                                   PartitionedRows*,
                                                   OpStats* stats) {
  // Every destination needs its own copy: replication cannot move.
  Rows out(RowsWidth(in));
  for (size_t src = 0; src < in.size(); ++src) {
    for (Row row : in[src]) {
      AccountMove(ctx, stats, static_cast<int>(src), dst, row);
      out.Append(row);
    }
  }
  return out;
}

bool GatherOp::SameAs(const Operator& other) const {
  return dynamic_cast<const GatherOp*>(&other) != nullptr;
}

Result<Rows> GatherOp::BuildDestination(ExecContext& ctx, int dst,
                                        const PartitionedRows& in,
                                        const Routing&, PartitionedRows* steal,
                                        OpStats* stats) {
  Rows out(RowsWidth(in));
  if (dst != 0) return out;
  for (size_t src = 0; src < in.size(); ++src) {
    for (size_t i = 0; i < in[src].size(); ++i) {
      AccountMove(ctx, stats, static_cast<int>(src), 0, in[src][i]);
      TakeRow(in, steal, src, i, &out);
    }
  }
  return out;
}

bool MergeGatherOp::SameAs(const Operator& other) const {
  const auto* o = dynamic_cast<const MergeGatherOp*>(&other);
  return o != nullptr && o->keys_ == keys_;
}

Result<Rows> MergeGatherOp::BuildDestination(ExecContext& ctx, int dst,
                                             const PartitionedRows& in,
                                             const Routing&,
                                             PartitionedRows* steal,
                                             OpStats* stats) {
  Rows out(RowsWidth(in));
  if (dst != 0) return out;
  // -1 / 0 / 1 over the sort keys (ascending flags applied).
  auto compare = [this](Row a, Row b) {
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
  for (size_t p = 0; p < in.size(); ++p) {
    if (!in[p].empty()) heap.push({p, 0});
  }
  while (!heap.empty()) {
    Head head = heap.top();
    heap.pop();
    AccountMove(ctx, stats, static_cast<int>(head.part), 0,
                in[head.part][head.pos]);
    TakeRow(in, steal, head.part, head.pos, &out);
    if (head.pos + 1 < in[head.part].size()) {
      heap.push({head.part, head.pos + 1});
    }
  }
  return out;
}

}  // namespace simdb::hyracks
