#ifndef SIMDB_STORAGE_SORTED_RUN_H_
#define SIMDB_STORAGE_SORTED_RUN_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
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

/// Read-only view of a run file. The reader caches the sparse index; each
/// iterator opens its own stream so concurrent scans are independent.
class SortedRunReader {
 public:
  static Result<std::unique_ptr<SortedRunReader>> Open(std::string path);

  uint64_t entry_count() const { return entry_count_; }
  const std::string& path() const { return path_; }
  uint64_t file_size() const { return file_size_; }

  /// Forward iterator over entries, starting at the first key >= lower_bound
  /// (or the run start when lower_bound is null).
  class Iterator {
   public:
    bool Valid() const { return valid_; }
    const CompositeKey& key() const { return key_; }
    EntryKind kind() const { return kind_; }
    const std::string& value() const { return value_; }
    Status Next();

   private:
    friend class SortedRunReader;
    Iterator(const SortedRunReader* run, uint64_t offset, uint64_t index);

    Status ReadEntry();
    /// Bytes between the stream position and the run's data end.
    uint64_t BytesLeft() const { return run_->data_end_ - offset_; }
    /// Reads `n` bytes; false when they would cross the data end or the
    /// stream fails.
    bool ReadBounded(char* dst, uint64_t n);

    const SortedRunReader* run_;
    std::ifstream in_;
    uint64_t offset_;      // file offset of the stream position
    uint64_t next_index_;  // index of the entry ReadEntry will produce
    bool valid_ = false;
    CompositeKey key_;
    EntryKind kind_ = EntryKind::kPut;
    std::string value_;
  };

  Result<std::unique_ptr<Iterator>> NewIterator(
      const CompositeKey* lower_bound) const;

  /// Point lookup; returns nullopt when the key is absent. A tombstone is
  /// reported as a present entry of kind kTombstone.
  Result<std::optional<std::pair<EntryKind, std::string>>> Get(
      const CompositeKey& key) const;

 private:
  SortedRunReader() = default;

  std::string path_;
  uint64_t entry_count_ = 0;
  uint64_t data_end_ = 0;  // offset where entries stop (index block start)
  uint64_t file_size_ = 0;
  int sparse_interval_ = 64;
  // Decoded sparse index: (key, file offset, entry index).
  struct SparseEntry {
    CompositeKey key;
    uint64_t offset;
    uint64_t index;
  };
  std::vector<SparseEntry> sparse_;
};

}  // namespace simdb::storage

#endif  // SIMDB_STORAGE_SORTED_RUN_H_
