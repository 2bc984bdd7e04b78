#include "storage/dataset.h"

#include <algorithm>

#include "storage/file_util.h"

namespace simdb::storage {

using adm::Value;
using similarity::IndexKind;

Result<std::unique_ptr<Dataset>> Dataset::Create(std::string dir,
                                                 DatasetSpec spec,
                                                 LsmOptions options) {
  if (spec.num_partitions <= 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  SIMDB_RETURN_IF_ERROR(EnsureDir(dir));
  auto dataset =
      std::unique_ptr<Dataset>(new Dataset(dir, std::move(spec), options));
  for (int p = 0; p < dataset->spec_.num_partitions; ++p) {
    auto partition = std::make_unique<Partition>();
    SIMDB_ASSIGN_OR_RETURN(
        partition->primary,
        LsmIndex::Open(dir + "/p" + std::to_string(p) + "/primary", options));
    dataset->partitions_.push_back(std::move(partition));
  }
  return dataset;
}

int Dataset::PartitionOfPk(int64_t pk) const {
  uint64_t h = Value::Int64(pk).Hash();
  return static_cast<int>(h % static_cast<uint64_t>(spec_.num_partitions));
}

Result<int64_t> Dataset::Insert(Value record) {
  if (!record.is_object()) {
    return Status::TypeError("records must be objects");
  }
  const Value& pk_value = record.GetField(spec_.pk_field);
  int64_t pk;
  if (pk_value.is_missing()) {
    pk = next_auto_pk_++;
    Value::Object fields = record.AsObject();
    fields.emplace_back(spec_.pk_field, Value::Int64(pk));
    record = Value::MakeObject(std::move(fields));
  } else if (pk_value.is_int64()) {
    pk = pk_value.AsInt64();
    next_auto_pk_ = std::max(next_auto_pk_, pk + 1);
  } else {
    return Status::TypeError("primary key field '" + spec_.pk_field +
                             "' must be int64");
  }

  int p = PartitionOfPk(pk);
  std::string bytes;
  ByteWriter w(&bytes);
  record.Serialize(&w);
  Status put = partitions_[p]->primary->Insert({Value::Int64(pk)},
                                               std::move(bytes));
  if (put.code() == StatusCode::kAlreadyExists) {
    return Status::AlreadyExists("dataset " + spec_.name + " already holds " +
                                 spec_.pk_field + " " + std::to_string(pk));
  }
  SIMDB_RETURN_IF_ERROR(put);
  SIMDB_RETURN_IF_ERROR(MaintainSecondaries(record, pk, p, /*insert=*/true));
  ++record_count_;
  return pk;
}

Status Dataset::Delete(int64_t pk) {
  int p = PartitionOfPk(pk);
  SIMDB_ASSIGN_OR_RETURN(auto existing, GetByPkInPartition(p, pk));
  if (!existing.has_value()) return Status::OK();
  SIMDB_RETURN_IF_ERROR(
      MaintainSecondaries(*existing, pk, p, /*insert=*/false));
  SIMDB_RETURN_IF_ERROR(partitions_[p]->primary->Delete({Value::Int64(pk)}));
  --record_count_;
  return Status::OK();
}

Status Dataset::MaintainSecondaries(const Value& record, int64_t pk,
                                    int partition, bool insert) {
  Partition& part = *partitions_[partition];
  for (const IndexSpec& spec : index_specs_) {
    const Value& field_value = record.GetField(spec.field);
    if (spec.kind == IndexKind::kBtree) {
      if (field_value.is_missing()) continue;
      CompositeKey key = {field_value, Value::Int64(pk)};
      LsmIndex* btree = part.btrees.at(spec.name).get();
      SIMDB_RETURN_IF_ERROR(insert ? btree->Put(key, "") : btree->Delete(key));
    } else {
      SIMDB_ASSIGN_OR_RETURN(std::vector<std::string> tokens,
                             ExtractIndexTokens(spec, field_value));
      InvertedIndex* inverted = part.inverted.at(spec.name).get();
      SIMDB_RETURN_IF_ERROR(insert ? inverted->Insert(tokens, pk)
                                   : inverted->Remove(tokens, pk));
    }
  }
  return Status::OK();
}

Result<std::optional<Value>> Dataset::GetByPk(int64_t pk) const {
  return GetByPkInPartition(PartitionOfPk(pk), pk);
}

Result<std::optional<Value>> Dataset::GetByPkInPartition(int partition,
                                                         int64_t pk) const {
  SIMDB_ASSIGN_OR_RETURN(LsmIndex::PointReader reader,
                         PrimaryReader(partition));
  return ReadRecord(reader, pk);
}

Result<LsmIndex::PointReader> Dataset::PrimaryReader(int partition) const {
  if (partition < 0 || partition >= spec_.num_partitions) {
    return Status::InvalidArgument("bad partition");
  }
  return LsmIndex::PointReader(*partitions_[partition]->primary);
}

Result<std::optional<Value>> Dataset::ReadRecord(LsmIndex::PointReader& reader,
                                                 int64_t pk) {
  SIMDB_ASSIGN_OR_RETURN(std::optional<std::string_view> bytes,
                         reader.Get({Value::Int64(pk)}));
  if (!bytes.has_value()) return std::optional<Value>();
  ByteReader r(*bytes);
  SIMDB_ASSIGN_OR_RETURN(Value record, Value::Deserialize(&r));
  return std::make_optional(std::move(record));
}

Result<std::vector<Value>> Dataset::ScanPartition(int partition) const {
  if (partition < 0 || partition >= spec_.num_partitions) {
    return Status::InvalidArgument("bad partition");
  }
  std::vector<Value> records;
  SIMDB_ASSIGN_OR_RETURN(auto it, partitions_[partition]->primary->NewIterator());
  while (it->Valid()) {
    ByteReader r(it->value());
    SIMDB_ASSIGN_OR_RETURN(Value record, Value::Deserialize(&r));
    records.push_back(std::move(record));
    SIMDB_RETURN_IF_ERROR(it->Next());
  }
  return records;
}

Status Dataset::CreateIndex(IndexSpec spec) {
  if (FindIndex(spec.name) != nullptr) {
    return Status::AlreadyExists("index " + spec.name);
  }
  // Open the per-partition structures.
  for (int p = 0; p < spec_.num_partitions; ++p) {
    std::string idx_dir =
        dir_ + "/p" + std::to_string(p) + "/idx_" + spec.name;
    if (spec.kind == IndexKind::kBtree) {
      SIMDB_ASSIGN_OR_RETURN(auto btree, LsmIndex::Open(idx_dir, options_));
      partitions_[p]->btrees[spec.name] = std::move(btree);
    } else {
      SIMDB_ASSIGN_OR_RETURN(auto inverted,
                             InvertedIndex::Open(idx_dir, options_));
      partitions_[p]->inverted[spec.name] = std::move(inverted);
    }
  }
  // Bulk build from existing data.
  for (int p = 0; p < spec_.num_partitions; ++p) {
    SIMDB_ASSIGN_OR_RETURN(std::vector<Value> records, ScanPartition(p));
    if (spec.kind == IndexKind::kBtree) {
      std::vector<std::pair<CompositeKey, std::string>> entries;
      for (const Value& rec : records) {
        const Value& field_value = rec.GetField(spec.field);
        if (field_value.is_missing()) continue;
        entries.push_back(
            {{field_value, rec.GetField(spec_.pk_field)}, std::string()});
      }
      std::sort(entries.begin(), entries.end(),
                [](const auto& a, const auto& b) {
                  return CompareKeys(a.first, b.first) < 0;
                });
      SIMDB_RETURN_IF_ERROR(
          partitions_[p]->btrees[spec.name]->BulkLoadSorted(entries));
    } else {
      std::vector<std::pair<std::string, int64_t>> postings;
      for (const Value& rec : records) {
        int64_t pk = rec.GetField(spec_.pk_field).AsInt64();
        SIMDB_ASSIGN_OR_RETURN(
            std::vector<std::string> tokens,
            ExtractIndexTokens(spec, rec.GetField(spec.field)));
        // Growth-preserving reserve: never shrink the doubling schedule.
        if (postings.size() + tokens.size() > postings.capacity()) {
          postings.reserve(std::max(postings.size() + tokens.size(),
                                    postings.capacity() * 2));
        }
        for (std::string& t : tokens) postings.emplace_back(std::move(t), pk);
      }
      SIMDB_RETURN_IF_ERROR(
          partitions_[p]->inverted[spec.name]->BulkLoad(std::move(postings)));
    }
  }
  index_specs_.push_back(std::move(spec));
  return Status::OK();
}

const IndexSpec* Dataset::FindIndex(const std::string& name) const {
  for (const IndexSpec& spec : index_specs_) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

const IndexSpec* Dataset::FindIndexOnField(
    const std::string& field, std::optional<IndexKind> kind) const {
  for (const IndexSpec& spec : index_specs_) {
    if (spec.field == field && (!kind.has_value() || spec.kind == *kind)) {
      return &spec;
    }
  }
  return nullptr;
}

InvertedIndex* Dataset::inverted_index(int partition,
                                       const std::string& name) const {
  auto it = partitions_[partition]->inverted.find(name);
  return it == partitions_[partition]->inverted.end() ? nullptr
                                                      : it->second.get();
}

LsmIndex* Dataset::btree_index(int partition, const std::string& name) const {
  auto it = partitions_[partition]->btrees.find(name);
  return it == partitions_[partition]->btrees.end() ? nullptr
                                                    : it->second.get();
}

Result<std::vector<int64_t>> Dataset::BtreeSearch(
    int partition, const std::string& index_name, const Value& key) const {
  LsmIndex* btree = btree_index(partition, index_name);
  if (btree == nullptr) return Status::NotFound("btree index " + index_name);
  std::vector<int64_t> pks;
  CompositeKey lower = {key};
  SIMDB_ASSIGN_OR_RETURN(auto it, btree->NewIterator(&lower));
  while (it->Valid()) {
    const CompositeKey& k = it->key();
    if (k.size() != 2 || k[0] != key) break;
    pks.push_back(k[1].AsInt64());
    SIMDB_RETURN_IF_ERROR(it->Next());
  }
  return pks;
}

uint64_t Dataset::PrimaryDiskSize() const {
  uint64_t total = 0;
  for (const auto& p : partitions_) total += p->primary->DiskSizeBytes();
  return total;
}

uint64_t Dataset::IndexDiskSize(const std::string& name) const {
  uint64_t total = 0;
  for (const auto& p : partitions_) {
    auto inv = p->inverted.find(name);
    if (inv != p->inverted.end()) total += inv->second->DiskSizeBytes();
    auto bt = p->btrees.find(name);
    if (bt != p->btrees.end()) total += bt->second->DiskSizeBytes();
  }
  return total;
}

Status Dataset::FlushAll() {
  for (const auto& p : partitions_) {
    SIMDB_RETURN_IF_ERROR(p->primary->Flush());
    for (const auto& [name, inv] : p->inverted) {
      (void)name;
      SIMDB_RETURN_IF_ERROR(inv->Flush());
    }
    for (const auto& [name, bt] : p->btrees) {
      (void)name;
      SIMDB_RETURN_IF_ERROR(bt->Flush());
    }
  }
  return Status::OK();
}

}  // namespace simdb::storage
