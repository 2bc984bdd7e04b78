#include "storage/lsm_index.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"
#include "storage/file_util.h"

namespace simdb::storage {

namespace {

/// One source feeding the merged view: either the memtable (age 0, newest) or
/// a disk run (age = 1 + run position, newest first).
struct MergeSource {
  virtual ~MergeSource() = default;
  virtual bool Valid() const = 0;
  virtual const CompositeKey& key() const = 0;
  virtual bool is_tombstone() const = 0;
  virtual std::string_view value() const = 0;
  virtual Status Next() = 0;
};

class MemtableSource : public MergeSource {
 public:
  using Map = std::map<CompositeKey, std::optional<std::string>, KeyLess>;

  MemtableSource(const Map& map, const CompositeKey* lower,
                 const CompositeKey* upper) {
    it_ = lower ? map.lower_bound(*lower) : map.begin();
    end_ = upper ? map.lower_bound(*upper) : map.end();
  }

  bool Valid() const override { return it_ != end_; }
  const CompositeKey& key() const override { return it_->first; }
  bool is_tombstone() const override { return !it_->second.has_value(); }
  std::string_view value() const override { return *it_->second; }
  Status Next() override {
    ++it_;
    return Status::OK();
  }

 private:
  Map::const_iterator it_, end_;
};

class RunSource : public MergeSource {
 public:
  explicit RunSource(std::unique_ptr<SortedRunReader::Iterator> it)
      : it_(std::move(it)) {}

  bool Valid() const override { return it_->Valid(); }
  const CompositeKey& key() const override { return it_->key(); }
  bool is_tombstone() const override {
    return it_->kind() == EntryKind::kTombstone;
  }
  std::string_view value() const override { return it_->value(); }
  Status Next() override { return it_->Next(); }

 private:
  std::unique_ptr<SortedRunReader::Iterator> it_;
};

/// K-way merge honoring LSM precedence: among equal keys the lowest age
/// (newest) wins and older duplicates are consumed silently; a key whose
/// newest entry is a tombstone is skipped.
class MergedIterator : public LsmIndex::Iterator {
 public:
  explicit MergedIterator(std::vector<std::unique_ptr<MergeSource>> sources,
                          const CompositeKey* upper_bound = nullptr)
      : sources_(std::move(sources)),
        upper_bound_(upper_bound ? std::optional<CompositeKey>(*upper_bound)
                                 : std::nullopt) {}

  Status Init() { return FindNext(); }

  bool Valid() const override { return valid_; }
  const CompositeKey& key() const override { return key_; }
  const std::string& value() const override { return value_; }

  Status Next() override { return FindNext(); }

 private:
  Status FindNext() {
    for (;;) {
      // Pick the smallest key; ties resolved by source order (newest first).
      int best = -1;
      for (size_t i = 0; i < sources_.size(); ++i) {
        if (!sources_[i]->Valid()) continue;
        if (best < 0 ||
            CompareKeys(sources_[i]->key(), sources_[best]->key()) < 0) {
          best = static_cast<int>(i);
        }
      }
      if (best < 0) {
        valid_ = false;
        return Status::OK();
      }
      key_ = sources_[best]->key();
      if (upper_bound_.has_value() &&
          CompareKeys(key_, *upper_bound_) >= 0) {
        valid_ = false;
        return Status::OK();
      }
      bool tombstone = sources_[best]->is_tombstone();
      if (!tombstone) value_ = sources_[best]->value();
      // Consume this key from every source that carries it.
      for (auto& src : sources_) {
        while (src->Valid() && CompareKeys(src->key(), key_) == 0) {
          SIMDB_RETURN_IF_ERROR(src->Next());
        }
      }
      if (tombstone) continue;
      valid_ = true;
      return Status::OK();
    }
  }

  std::vector<std::unique_ptr<MergeSource>> sources_;
  std::optional<CompositeKey> upper_bound_;
  bool valid_ = false;
  CompositeKey key_;
  std::string value_;
};

}  // namespace

LsmIndex::LsmIndex(std::string dir, LsmOptions options)
    : dir_(std::move(dir)), options_(options) {}

Result<std::unique_ptr<LsmIndex>> LsmIndex::Open(std::string dir,
                                                 LsmOptions options) {
  SIMDB_RETURN_IF_ERROR(EnsureDir(dir));
  auto index = std::unique_ptr<LsmIndex>(new LsmIndex(dir, options));
  SIMDB_ASSIGN_OR_RETURN(std::vector<std::string> files, ListFiles(dir));
  // Run files are named run_<seq>.dat; newest (highest seq) first.
  std::vector<std::string> run_files;
  for (const std::string& f : files) {
    if (f.rfind("run_", 0) == 0 && f.size() > 8 &&
        f.substr(f.size() - 4) == ".dat") {
      run_files.push_back(f);
    }
  }
  std::sort(run_files.rbegin(), run_files.rend());
  for (const std::string& f : run_files) {
    SIMDB_ASSIGN_OR_RETURN(auto reader, SortedRunReader::Open(dir + "/" + f));
    index->runs_.push_back(std::move(reader));
    uint64_t seq = std::strtoull(f.substr(4, f.size() - 8).c_str(), nullptr, 10);
    index->next_run_seq_ = std::max(index->next_run_seq_, seq + 1);
  }
  return index;
}

std::string LsmIndex::NextRunPath() {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "run_%08llu.dat",
                static_cast<unsigned long long>(next_run_seq_++));
  return dir_ + "/" + buf;
}

Status LsmIndex::Put(const CompositeKey& key, std::string value) {
  size_t delta = EncodeKey(key).size() + value.size() + 64;
  auto [it, inserted] = memtable_.insert_or_assign(key, std::move(value));
  (void)it;
  (void)inserted;
  mem_bytes_ += delta;
  return MaybeFlush();
}

Status LsmIndex::Delete(const CompositeKey& key) {
  mem_bytes_ += EncodeKey(key).size() + 64;
  memtable_.insert_or_assign(key, std::nullopt);
  return MaybeFlush();
}

Status LsmIndex::MaybeFlush() {
  if (mem_bytes_ < options_.memtable_budget_bytes) return Status::OK();
  return Flush();
}

Status LsmIndex::Insert(const CompositeKey& key, std::string value) {
  // One memtable walk decides: a live memtable value is a duplicate, a
  // memtable tombstone may be overwritten, and only a memtable miss asks the
  // runs (newest first) whether the key is live there.
  auto [it, inserted] = memtable_.try_emplace(key);
  if (!inserted && it->second.has_value()) {
    return Status::AlreadyExists("key " + KeyToString(key));
  }
  if (inserted && !runs_.empty()) {
    PointReader runs(RunPointers());
    Result<std::optional<std::pair<EntryKind, std::string_view>>> found =
        runs.Find(key);
    if (!found.ok()) {
      memtable_.erase(it);
      return found.status();
    }
    const std::optional<std::pair<EntryKind, std::string_view>>& entry =
        *found;
    if (entry.has_value() && entry->first == EntryKind::kPut) {
      memtable_.erase(it);
      return Status::AlreadyExists("key " + KeyToString(key));
    }
  }
  mem_bytes_ += EncodeKey(key).size() + value.size() + 64;
  it->second = std::move(value);
  return MaybeFlush();
}

Result<std::optional<std::string>> LsmIndex::Get(
    const CompositeKey& key) const {
  PointReader reader(*this);
  SIMDB_ASSIGN_OR_RETURN(std::optional<std::string_view> value,
                         reader.Get(key));
  if (!value.has_value()) return std::optional<std::string>();
  return std::make_optional(std::string(*value));
}

std::vector<const SortedRunReader*> LsmIndex::RunPointers() const {
  std::vector<const SortedRunReader*> runs;
  runs.reserve(runs_.size());
  for (const auto& run : runs_) runs.push_back(run.get());
  return runs;
}

LsmIndex::PointReader::PointReader(const LsmIndex& index)
    : PointReader(index.RunPointers()) {
  memtable_ = &index.memtable_;
}

LsmIndex::PointReader::PointReader(std::vector<const SortedRunReader*> runs)
    : runs_(std::move(runs)) {
  cursors_.resize(runs_.size());
}

Result<std::optional<std::pair<EntryKind, std::string_view>>>
LsmIndex::PointReader::Find(const CompositeKey& key) {
  using Entry = std::pair<EntryKind, std::string_view>;
  if (memtable_ != nullptr) {
    auto it = memtable_->find(key);
    if (it != memtable_->end()) {
      if (!it->second.has_value()) {
        return std::make_optional(Entry(EntryKind::kTombstone, {}));
      }
      return std::make_optional(Entry(EntryKind::kPut, *it->second));
    }
  }
  for (size_t i = 0; i < runs_.size(); ++i) {
    if (!runs_[i]->InKeyRange(key)) continue;
    std::unique_ptr<SortedRunReader::Iterator>& cursor = cursors_[i];
    if (cursor == nullptr) {
      SIMDB_ASSIGN_OR_RETURN(cursor, runs_[i]->NewIterator(&key));
    } else {
      SIMDB_RETURN_IF_ERROR(cursor->Seek(key));
    }
    if (cursor->Valid() && CompareKeys(cursor->key(), key) == 0) {
      return std::make_optional(Entry(cursor->kind(), cursor->value()));
    }
  }
  return std::optional<Entry>();
}

Result<std::optional<std::string_view>> LsmIndex::PointReader::Get(
    const CompositeKey& key) {
  SIMDB_ASSIGN_OR_RETURN(auto entry, Find(key));
  if (!entry.has_value() || entry->first == EntryKind::kTombstone) {
    return std::optional<std::string_view>();
  }
  return std::make_optional(entry->second);
}

Result<std::unique_ptr<LsmIndex::Iterator>> LsmIndex::NewIterator(
    const CompositeKey* lower_bound, const CompositeKey* upper_bound) const {
  std::vector<std::unique_ptr<MergeSource>> sources;
  sources.push_back(
      std::make_unique<MemtableSource>(memtable_, lower_bound, upper_bound));
  for (const auto& run : runs_) {
    SIMDB_ASSIGN_OR_RETURN(auto it, run->NewIterator(lower_bound));
    sources.push_back(std::make_unique<RunSource>(std::move(it)));
  }
  auto merged = std::make_unique<MergedIterator>(std::move(sources),
                                                 upper_bound);
  SIMDB_RETURN_IF_ERROR(merged->Init());
  return std::unique_ptr<Iterator>(std::move(merged));
}

Status LsmIndex::Flush() {
  if (memtable_.empty()) return Status::OK();
  std::string path = NextRunPath();
  SortedRunWriter writer(path, options_.sparse_interval);
  for (const auto& [key, value] : memtable_) {
    SIMDB_RETURN_IF_ERROR(
        writer.Add(value.has_value() ? EntryKind::kPut : EntryKind::kTombstone,
                   key, value.has_value() ? *value : std::string()));
  }
  SIMDB_RETURN_IF_ERROR(writer.Finish());
  SIMDB_ASSIGN_OR_RETURN(auto reader, SortedRunReader::Open(path));
  runs_.insert(runs_.begin(), std::move(reader));
  memtable_.clear();
  mem_bytes_ = 0;
  return MaybeMerge();
}

Status LsmIndex::MaybeMerge() {
  if (static_cast<int>(runs_.size()) <= options_.max_runs) return Status::OK();
  return Compact();
}

Status LsmIndex::Compact() {
  if (runs_.size() <= 1) return Status::OK();
  // The merge covers the oldest run, so no tombstone has anything left to
  // shadow and all of them drop.
  std::vector<std::unique_ptr<MergeSource>> sources;
  for (const auto& run : runs_) {
    SIMDB_ASSIGN_OR_RETURN(auto it, run->NewIterator(nullptr));
    sources.push_back(std::make_unique<RunSource>(std::move(it)));
  }
  MergedIterator merged(std::move(sources));
  SIMDB_RETURN_IF_ERROR(merged.Init());

  std::string path = NextRunPath();
  SortedRunWriter writer(path, options_.sparse_interval);
  while (merged.Valid()) {
    SIMDB_RETURN_IF_ERROR(
        writer.Add(EntryKind::kPut, merged.key(), merged.value()));
    SIMDB_RETURN_IF_ERROR(merged.Next());
  }
  SIMDB_RETURN_IF_ERROR(writer.Finish());

  std::vector<std::string> old_paths;
  for (const auto& run : runs_) old_paths.push_back(run->path());
  SIMDB_ASSIGN_OR_RETURN(auto reader, SortedRunReader::Open(path));
  runs_.clear();
  runs_.push_back(std::move(reader));
  for (const std::string& p : old_paths) {
    SIMDB_RETURN_IF_ERROR(RemoveAll(p));
  }
  return Status::OK();
}

Status LsmIndex::BulkLoadSorted(
    const std::vector<std::pair<CompositeKey, std::string>>& entries) {
  if (entries.empty()) return Status::OK();
  std::string path = NextRunPath();
  SortedRunWriter writer(path, options_.sparse_interval);
  for (const auto& [key, value] : entries) {
    SIMDB_RETURN_IF_ERROR(writer.Add(EntryKind::kPut, key, value));
  }
  SIMDB_RETURN_IF_ERROR(writer.Finish());
  SIMDB_ASSIGN_OR_RETURN(auto reader, SortedRunReader::Open(path));
  runs_.insert(runs_.begin(), std::move(reader));
  return Status::OK();
}

uint64_t LsmIndex::DiskSizeBytes() const {
  uint64_t total = 0;
  for (const auto& run : runs_) total += run->file_size();
  return total;
}

}  // namespace simdb::storage
