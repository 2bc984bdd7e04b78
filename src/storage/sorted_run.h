#ifndef SIMDB_STORAGE_SORTED_RUN_H_
#define SIMDB_STORAGE_SORTED_RUN_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/key.h"

namespace simdb::storage {

/// Whether a run entry is a live value or a tombstone (LSM delete marker).
enum class EntryKind : uint8_t { kPut = 0, kTombstone = 1 };

/// Streams a sorted sequence of entries into an immutable on-disk run:
///   [entry]* [sparse index block] [footer]
/// A sparse index entry (first key of every `sparse_interval`-th entry plus
/// its file offset) is kept so point lookups read at most one small span.
/// Keys must be added in strictly increasing order.
class SortedRunWriter {
 public:
  SortedRunWriter(std::string path, int sparse_interval = 64);

  Status Add(EntryKind kind, const CompositeKey& key, std::string_view value);

  /// Writes the index block and footer, then atomically renames into place.
  Status Finish();

  uint64_t entry_count() const { return entry_count_; }

 private:
  std::string path_;
  std::string tmp_path_;
  std::ofstream out_;
  bool open_failed_ = false;
  int sparse_interval_;
  uint64_t entry_count_ = 0;
  uint64_t offset_ = 0;
  std::optional<CompositeKey> last_key_;
  std::vector<std::pair<std::string, uint64_t>> sparse_index_;  // encoded key, offset
};

/// Read-only view of a run file. Open holds the file as one descriptor for
/// the reader's lifetime and caches the sparse index after checking that
/// its blocks tile the data region in key order; every iterator reads whole
/// sparse blocks through that descriptor with pread, so concurrent readers
/// share it without a lock.
class SortedRunReader {
 public:
  static Result<std::unique_ptr<SortedRunReader>> Open(std::string path);
  ~SortedRunReader();
  SortedRunReader(const SortedRunReader&) = delete;
  SortedRunReader& operator=(const SortedRunReader&) = delete;

  uint64_t entry_count() const { return entry_count_; }
  const std::string& path() const { return path_; }
  uint64_t file_size() const { return file_size_; }

  /// Whether `key` lies between the run's first and last keys, the only
  /// keys a lookup needs to read the run for.
  bool InKeyRange(const CompositeKey& key) const {
    return !sparse_.empty() && CompareKeys(key, sparse_.front().key) >= 0 &&
           CompareKeys(key, last_key_) <= 0;
  }

  /// Cursor over the run's entries. It holds one sparse block at a time in a
  /// buffer it reuses; key() and value() stay valid until the next Next or
  /// Seek. Entries are decoded through bounds-checked views and must come in
  /// strictly increasing key order, each block starting at its sparse key;
  /// anything else is kCorruption.
  class Iterator {
   public:
    bool Valid() const { return valid_; }
    const CompositeKey& key() const { return key_; }
    EntryKind kind() const { return kind_; }
    std::string_view value() const { return value_; }
    Status Next() { return ReadEntry(); }

    /// Positions at the first entry with key >= `target` (invalid when there
    /// is none). A target at or after the current entry walks forward from
    /// it, reading no block it has passed, so ascending targets cost one
    /// pass over the run; any other target repositions through the sparse
    /// index.
    Status Seek(const CompositeKey& target);

   private:
    friend class SortedRunReader;
    explicit Iterator(const SortedRunReader* run) : run_(run) {}

    /// Reads sparse block `block` into block_ (a rewind when it is the
    /// loaded one).
    Status LoadBlock(size_t block);
    /// Repositions at the first entry of sparse block `block`.
    Status StartBlock(size_t block);
    /// Decodes the entry at pos_, moving to the next block at a block end.
    Status ReadEntry();

    const SortedRunReader* run_;
    std::string block_;  // bytes of the loaded sparse block
    size_t block_index_ = 0;
    bool block_loaded_ = false;
    size_t pos_ = 0;               // offset of the next entry in block_
    uint64_t block_entries_ = 0;   // entries decoded from block_ so far
    bool valid_ = false;
    bool at_end_ = false;    // read past the last entry; key_ is the last key
    bool has_prev_ = false;  // prev_key_ is the entry just before key_
    CompositeKey key_;
    CompositeKey prev_key_;
    EntryKind kind_ = EntryKind::kPut;
    std::string_view value_;
  };

  /// A cursor at the first entry with key >= lower_bound (the run start
  /// when lower_bound is null).
  Result<std::unique_ptr<Iterator>> NewIterator(
      const CompositeKey* lower_bound) const;

  /// Point lookup (a one-shot LsmIndex::PointReader over this run); returns
  /// nullopt when the key is absent. A tombstone is reported as a present
  /// entry of kind kTombstone.
  Result<std::optional<std::pair<EntryKind, std::string>>> Get(
      const CompositeKey& key) const;

 private:
  SortedRunReader() = default;

  /// Reads exactly `n` bytes at `offset`.
  Status ReadAt(uint64_t offset, char* dst, size_t n) const;
  /// Last sparse block whose first key is <= key (block 0 when none is).
  size_t BlockFor(const CompositeKey& key) const;
  /// Entries block `block` holds: the interval, or the remainder for the
  /// last one.
  uint64_t BlockEntries(size_t block) const;

  std::string path_;
  int fd_ = -1;
  uint64_t entry_count_ = 0;
  uint64_t data_end_ = 0;  // offset where entries stop (index block start)
  uint64_t file_size_ = 0;
  uint64_t sparse_interval_ = 64;
  // Decoded sparse index: the first key and file offset of each block.
  struct SparseEntry {
    CompositeKey key;
    uint64_t offset;
  };
  std::vector<SparseEntry> sparse_;
  CompositeKey last_key_;  // read from the last block by Open
};

}  // namespace simdb::storage

#endif  // SIMDB_STORAGE_SORTED_RUN_H_
