#include "hyracks/ops_scan.h"

namespace simdb::hyracks {

using adm::Value;

namespace {

Result<storage::Dataset*> FindDataset(ExecContext& ctx,
                                      const std::string& name) {
  if (ctx.catalog == nullptr) return Status::Internal("no catalog");
  storage::Dataset* ds = ctx.catalog->Find(name);
  if (ds == nullptr) return Status::NotFound("dataset " + name);
  return ds;
}

}  // namespace

bool DataScanOp::SameAs(const Operator& other) const {
  const auto* o = dynamic_cast<const DataScanOp*>(&other);
  return o != nullptr && o->dataset_ == dataset_;
}

Status DataScanOp::Prepare(ExecContext& ctx) {
  SIMDB_ASSIGN_OR_RETURN(ds_, FindDataset(ctx, dataset_));
  int parts = ctx.topology.total_partitions();
  if (ds_->num_partitions() != parts) {
    return Status::PlanError(
        "dataset " + dataset_ + " has " +
        std::to_string(ds_->num_partitions()) +
        " partitions but the cluster expects " + std::to_string(parts));
  }
  return Status::OK();
}

Result<Rows> DataScanOp::ExecutePartition(ExecContext&, int p,
                                          const std::vector<const Rows*>&) {
  SIMDB_ASSIGN_OR_RETURN(std::vector<Value> records, ds_->ScanPartition(p));
  Rows rows(1);
  for (Value& rec : records) rows.AppendMoved(std::span<Value>(&rec, 1));
  return rows;
}

Result<Rows> ConstantSourceOp::ExecutePartition(
    ExecContext&, int p, const std::vector<const Rows*>&) {
  if (p != 0) return Rows(rows_.width());
  return rows_;
}

bool PrimaryLookupOp::SameAs(const Operator& other) const {
  const auto* o = dynamic_cast<const PrimaryLookupOp*>(&other);
  return o != nullptr && o->dataset_ == dataset_ &&
         o->pk_column_ == pk_column_;
}

Status PrimaryLookupOp::Prepare(ExecContext& ctx) {
  SIMDB_ASSIGN_OR_RETURN(ds_, FindDataset(ctx, dataset_));
  return Status::OK();
}

Result<Rows> PrimaryLookupOp::ExecutePartition(
    ExecContext& ctx, int p, const std::vector<const Rows*>& inputs) {
  const Rows& in = *inputs[0];
  uint64_t probes = 0;
  uint64_t hits = 0;
  Rows rows(in.width() + 1);
  // One reader for the whole partition: the plans sort the pks first, so
  // its run cursors only move forward, and a run of equal pks decodes its
  // record once.
  SIMDB_ASSIGN_OR_RETURN(storage::LsmIndex::PointReader reader,
                         ds_->PrimaryReader(p));
  std::optional<Value> record;
  std::optional<int64_t> record_pk;
  for (Row row : in) {
    const Value& pk = row[static_cast<size_t>(pk_column_)];
    if (!pk.is_int64()) {
      return Status::TypeError("PRIMARY-LOOKUP pk must be int64");
    }
    ++probes;
    if (record_pk != pk.AsInt64()) {
      SIMDB_ASSIGN_OR_RETURN(record,
                             storage::Dataset::ReadRecord(reader, pk.AsInt64()));
      record_pk = pk.AsInt64();
    }
    if (!record.has_value()) continue;
    ++hits;
    rows.Append(row, Row(&*record, 1));
  }
  if (ctx.counters != nullptr) {
    CountOp(ctx, "lookup.probes", probes);
    CountOp(ctx, "lookup.hits", hits);
  }
  return rows;
}

}  // namespace simdb::hyracks
