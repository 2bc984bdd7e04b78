#ifndef SIMDB_STORAGE_LSM_INDEX_H_
#define SIMDB_STORAGE_LSM_INDEX_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "storage/key.h"
#include "storage/sorted_run.h"

namespace simdb::storage {

/// Tuning knobs for one LSM index instance (scaled-down analogues of the
/// paper's Table 2 parameters).
struct LsmOptions {
  /// In-memory component budget; a flush is triggered when exceeded.
  size_t memtable_budget_bytes = 8 * 1024 * 1024;
  /// Merge every run into one once the disk-run count exceeds this.
  int max_runs = 6;
  /// Sparse-index granularity inside each run.
  int sparse_interval = 64;
};

/// A log-structured merge index: an in-memory component (std::map) plus a
/// stack of immutable sorted runs, newest first. This is the storage
/// primitive behind the primary index, secondary B+-trees, and the inverted
/// indexes (AsterixDB stores all of these as LSM structures).
class LsmIndex {
 public:
  /// Opens (creating if needed) an index rooted at `dir`; existing runs are
  /// reloaded so data persists across instances.
  static Result<std::unique_ptr<LsmIndex>> Open(std::string dir,
                                                LsmOptions options = {});

  Status Put(const CompositeKey& key, std::string value);
  Status Delete(const CompositeKey& key);

  /// Put-if-absent: kAlreadyExists when `key` has a live value, and then
  /// the index is unchanged. A deleted key may be inserted again.
  Status Insert(const CompositeKey& key, std::string value);

  /// Point lookup across memtable + runs (newest wins; tombstones hide
  /// older entries): a one-shot PointReader.
  Result<std::optional<std::string>> Get(const CompositeKey& key) const;

 private:
  // nullopt value == tombstone.
  using Memtable = std::map<CompositeKey, std::optional<std::string>, KeyLess>;

 public:
  /// Point lookups against a fixed view of the index: the memtable first,
  /// then one positioned cursor per run, newest first. Keys may come in any
  /// order; ascending keys walk every run forward, so a key-sorted probe
  /// stream reads each run block at most once. The reader is valid only
  /// while its index is unmodified (in the engine, queries hold the state
  /// lock shared and inserts and DDL hold it exclusive).
  class PointReader {
   public:
    explicit PointReader(const LsmIndex& index);
    /// Over bare runs, newest first, with no memtable.
    explicit PointReader(std::vector<const SortedRunReader*> runs);

    /// The live value of `key`, or nullopt when it is absent or deleted.
    /// The view stays valid until the next lookup.
    Result<std::optional<std::string_view>> Get(const CompositeKey& key);

    /// The newest entry for `key`, tombstones included, or nullopt. The
    /// view stays valid until the next lookup.
    Result<std::optional<std::pair<EntryKind, std::string_view>>> Find(
        const CompositeKey& key);

   private:
    const Memtable* memtable_ = nullptr;
    std::vector<const SortedRunReader*> runs_;
    // One cursor per run, opened by its first lookup.
    std::vector<std::unique_ptr<SortedRunReader::Iterator>> cursors_;
  };

  /// Merged forward iterator over live entries with key >= lower_bound (all
  /// entries when null) and key < upper_bound (unbounded when null).
  /// Tombstoned keys are skipped.
  class Iterator {
   public:
    virtual ~Iterator() = default;
    virtual bool Valid() const = 0;
    virtual const CompositeKey& key() const = 0;
    virtual const std::string& value() const = 0;
    virtual Status Next() = 0;
  };

  Result<std::unique_ptr<Iterator>> NewIterator(
      const CompositeKey* lower_bound = nullptr,
      const CompositeKey* upper_bound = nullptr) const;

  /// Forces the in-memory component to disk (no-op when empty).
  Status Flush();

  /// Merges all disk runs into one, dropping tombstones.
  Status Compact();

  /// Compacts once the run count exceeds max_runs (called after every
  /// flush; exposed for tests).
  Status MaybeMerge();

  /// Sorted bulk load: writes one run directly, bypassing the memtable.
  /// Entries must be sorted by key and unique.
  Status BulkLoadSorted(
      const std::vector<std::pair<CompositeKey, std::string>>& entries);

  uint64_t DiskSizeBytes() const;
  size_t MemtableBytes() const { return mem_bytes_; }
  size_t num_runs() const { return runs_.size(); }
  const std::string& dir() const { return dir_; }

 private:
  explicit LsmIndex(std::string dir, LsmOptions options);

  Status MaybeFlush();
  /// The runs, newest first, as a PointReader takes them.
  std::vector<const SortedRunReader*> RunPointers() const;
  std::string NextRunPath();

  std::string dir_;
  LsmOptions options_;
  uint64_t next_run_seq_ = 1;
  Memtable memtable_;
  size_t mem_bytes_ = 0;
  // Newest first.
  std::vector<std::unique_ptr<SortedRunReader>> runs_;
};

}  // namespace simdb::storage

#endif  // SIMDB_STORAGE_LSM_INDEX_H_
