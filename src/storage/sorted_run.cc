#include "storage/sorted_run.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/bytes.h"
#include "common/logging.h"
#include "storage/lsm_index.h"

namespace simdb::storage {

namespace {

constexpr uint32_t kRunMagic = 0x53524e31;  // "SRN1"
constexpr size_t kFooterSize = 8 + 8 + 4 + 4;  // index_off, count, interval, magic

void PutU32Stream(std::ofstream& out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out.write(buf, 4);
}

void PutU64Stream(std::ofstream& out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.write(buf, 8);
}

Status ErrnoError(const std::string& what) {
  return Status::IOError(what + ": " + std::generic_category().message(errno));
}

}  // namespace

SortedRunWriter::SortedRunWriter(std::string path, int sparse_interval)
    : path_(std::move(path)),
      tmp_path_(path_ + ".tmp"),
      out_(tmp_path_, std::ios::binary | std::ios::trunc),
      sparse_interval_(sparse_interval > 0 ? sparse_interval : 64) {
  open_failed_ = !out_.is_open();
}

Status SortedRunWriter::Add(EntryKind kind, const CompositeKey& key,
                            std::string_view value) {
  if (open_failed_) return Status::IOError("cannot open " + tmp_path_);
  if (last_key_ && CompareKeys(*last_key_, key) >= 0) {
    return Status::Internal("run entries out of order: " + KeyToString(key));
  }
  last_key_ = key;
  std::string encoded_key = EncodeKey(key);
  if (entry_count_ % static_cast<uint64_t>(sparse_interval_) == 0) {
    sparse_index_.emplace_back(encoded_key, offset_);
  }
  // Entry: [u8 kind][u32 klen][k][u32 vlen][v]
  std::string entry;
  ByteWriter w(&entry);
  w.PutU8(static_cast<uint8_t>(kind));
  w.PutString(encoded_key);
  w.PutString(kind == EntryKind::kPut ? value : std::string_view());
  out_.write(entry.data(), static_cast<std::streamsize>(entry.size()));
  if (!out_) return Status::IOError("write failed on " + tmp_path_);
  offset_ += entry.size();
  ++entry_count_;
  return Status::OK();
}

Status SortedRunWriter::Finish() {
  if (open_failed_) return Status::IOError("cannot open " + tmp_path_);
  uint64_t index_offset = offset_;
  PutU32Stream(out_, static_cast<uint32_t>(sparse_index_.size()));
  for (const auto& [key, off] : sparse_index_) {
    PutU32Stream(out_, static_cast<uint32_t>(key.size()));
    out_.write(key.data(), static_cast<std::streamsize>(key.size()));
    PutU64Stream(out_, off);
  }
  PutU64Stream(out_, index_offset);
  PutU64Stream(out_, entry_count_);
  PutU32Stream(out_, static_cast<uint32_t>(sparse_interval_));
  PutU32Stream(out_, kRunMagic);
  out_.flush();
  if (!out_) return Status::IOError("flush failed on " + tmp_path_);
  out_.close();
  std::error_code ec;
  std::filesystem::rename(tmp_path_, path_, ec);
  if (ec) return Status::IOError("rename " + tmp_path_ + ": " + ec.message());
  return Status::OK();
}

Result<std::unique_ptr<SortedRunReader>> SortedRunReader::Open(
    std::string path) {
  auto reader = std::unique_ptr<SortedRunReader>(new SortedRunReader());
  reader->path_ = std::move(path);
  const std::string& name = reader->path_;
  reader->fd_ = ::open(name.c_str(), O_RDONLY | O_CLOEXEC);
  if (reader->fd_ < 0) return ErrnoError("cannot open run " + name);
  struct stat st {};
  if (::fstat(reader->fd_, &st) != 0) {
    return ErrnoError("cannot stat run " + name);
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size < kFooterSize) return Status::Corruption("run too small: " + name);

  char footer_bytes[kFooterSize];
  SIMDB_RETURN_IF_ERROR(
      reader->ReadAt(size - kFooterSize, footer_bytes, kFooterSize));
  ByteReader footer(std::string_view(footer_bytes, kFooterSize));
  SIMDB_ASSIGN_OR_RETURN(uint64_t index_offset, footer.GetU64());
  SIMDB_ASSIGN_OR_RETURN(uint64_t entry_count, footer.GetU64());
  SIMDB_ASSIGN_OR_RETURN(uint32_t interval, footer.GetU32());
  SIMDB_ASSIGN_OR_RETURN(uint32_t magic, footer.GetU32());
  if (magic != kRunMagic) return Status::Corruption("bad run magic: " + name);
  if (index_offset > size - kFooterSize) {
    return Status::Corruption("bad index offset: " + name);
  }
  if (interval == 0) return Status::Corruption("sparse interval 0: " + name);
  reader->entry_count_ = entry_count;
  reader->data_end_ = index_offset;
  reader->file_size_ = size;
  reader->sparse_interval_ = interval;

  // Load and decode the sparse index block.
  std::string index_block(size - kFooterSize - index_offset, '\0');
  SIMDB_RETURN_IF_ERROR(
      reader->ReadAt(index_offset, index_block.data(), index_block.size()));
  ByteReader br(index_block);
  SIMDB_ASSIGN_OR_RETURN(uint32_t n, br.GetU32());
  // Every sparse entry holds at least a u32 key length and a u64 offset, so
  // a count the block cannot hold is corrupt; reject it before it sizes the
  // reserve.
  if (n > br.remaining() / (4 + 8)) {
    return Status::Corruption("sparse index count " + std::to_string(n) +
                              " exceeds its block: " + name);
  }
  // The iterators trust the index to tile the data region: one block per
  // `interval` entries, the first at offset 0, each starting past the one
  // before at a larger key.
  const uint64_t blocks =
      entry_count / interval + (entry_count % interval != 0 ? 1 : 0);
  if (n != blocks) {
    return Status::Corruption("sparse index holds " + std::to_string(n) +
                              " blocks, " + std::to_string(entry_count) +
                              " entries at interval " +
                              std::to_string(interval) + " need " +
                              std::to_string(blocks) + ": " + name);
  }
  reader->sparse_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SIMDB_ASSIGN_OR_RETURN(std::string_view kbytes, br.GetString());
    SIMDB_ASSIGN_OR_RETURN(uint64_t off, br.GetU64());
    if (off >= reader->data_end_) {
      return Status::Corruption("sparse index offset past data end: " + name);
    }
    if (i == 0 ? off != 0 : off <= reader->sparse_.back().offset) {
      return Status::Corruption("sparse index offsets do not rise from 0: " +
                                name);
    }
    SIMDB_ASSIGN_OR_RETURN(CompositeKey key, DecodeKey(kbytes));
    if (i > 0 && CompareKeys(reader->sparse_.back().key, key) >= 0) {
      return Status::Corruption("sparse index keys out of order: " + name);
    }
    reader->sparse_.push_back({std::move(key), off});
  }
  if (br.remaining() != 0) {
    return Status::Corruption("trailing bytes after sparse index: " + name);
  }
  // Walk the last block once for the run's last key; at the end the cursor
  // keeps it.
  if (n > 0) {
    Iterator last(reader.get());
    SIMDB_RETURN_IF_ERROR(last.StartBlock(n - 1));
    while (last.Valid()) SIMDB_RETURN_IF_ERROR(last.Next());
    reader->last_key_ = std::move(last.key_);
  }
  return reader;
}

SortedRunReader::~SortedRunReader() {
  if (fd_ >= 0) ::close(fd_);
}

Status SortedRunReader::ReadAt(uint64_t offset, char* dst, size_t n) const {
  while (n > 0) {
    ssize_t got = ::pread(fd_, dst, n, static_cast<off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("cannot read run " + path_);
    }
    if (got == 0) {
      return Status::Corruption("run truncated at offset " +
                                std::to_string(offset) + ": " + path_);
    }
    dst += got;
    offset += static_cast<uint64_t>(got);
    n -= static_cast<size_t>(got);
  }
  return Status::OK();
}

size_t SortedRunReader::BlockFor(const CompositeKey& key) const {
  auto it = std::upper_bound(sparse_.begin(), sparse_.end(), key,
                             [](const CompositeKey& k, const SparseEntry& e) {
                               return CompareKeys(k, e.key) < 0;
                             });
  return it == sparse_.begin() ? 0 : static_cast<size_t>(it - sparse_.begin()) - 1;
}

uint64_t SortedRunReader::BlockEntries(size_t block) const {
  return std::min(sparse_interval_, entry_count_ - block * sparse_interval_);
}

Status SortedRunReader::Iterator::LoadBlock(size_t block) {
  if (!block_loaded_ || block != block_index_) {
    const std::vector<SparseEntry>& sparse = run_->sparse_;
    const uint64_t begin = sparse[block].offset;
    const uint64_t end =
        block + 1 < sparse.size() ? sparse[block + 1].offset : run_->data_end_;
    // Open checked the offsets, so a block never exceeds the file.
    block_loaded_ = false;
    block_.resize(end - begin);
    SIMDB_RETURN_IF_ERROR(run_->ReadAt(begin, block_.data(), block_.size()));
    block_index_ = block;
    block_loaded_ = true;
  }
  pos_ = 0;
  block_entries_ = 0;
  return Status::OK();
}

Status SortedRunReader::Iterator::StartBlock(size_t block) {
  SIMDB_RETURN_IF_ERROR(LoadBlock(block));
  valid_ = false;
  at_end_ = false;
  return ReadEntry();
}

Status SortedRunReader::Iterator::ReadEntry() {
  if (!block_loaded_) {
    valid_ = false;
    return Status::OK();
  }
  if (block_entries_ == run_->BlockEntries(block_index_)) {
    if (pos_ != block_.size()) {
      return Status::Corruption("block " + std::to_string(block_index_) +
                                " holds bytes past its entries in " +
                                run_->path_);
    }
    if (block_index_ + 1 == run_->sparse_.size()) {
      at_end_ = valid_ || at_end_;
      valid_ = false;
      return Status::OK();
    }
    // The next block continues the sequence, so its first key is checked
    // against the current one below.
    SIMDB_RETURN_IF_ERROR(LoadBlock(block_index_ + 1));
  }
  // Entry: [u8 kind][u32 klen][k][u32 vlen][v]. The block was read whole, so
  // every length is checked against the bytes it actually holds.
  ByteReader r(std::string_view(block_).substr(pos_));
  auto truncated = [this](const Status& cause) {
    return Status::Corruption("truncated entry in block " +
                              std::to_string(block_index_) + " of " +
                              run_->path_ + ": " + cause.message());
  };
  Result<uint8_t> kind = r.GetU8();
  if (!kind.ok()) return truncated(kind.status());
  if (*kind > static_cast<uint8_t>(EntryKind::kTombstone)) {
    return Status::Corruption("bad entry kind " + std::to_string(*kind) +
                              " in " + run_->path_);
  }
  Result<std::string_view> kbytes = r.GetString();
  if (!kbytes.ok()) return truncated(kbytes.status());
  Result<std::string_view> vbytes = r.GetString();
  if (!vbytes.ok()) return truncated(vbytes.status());
  has_prev_ = valid_;
  if (has_prev_) std::swap(key_, prev_key_);
  valid_ = false;
  SIMDB_RETURN_IF_ERROR(DecodeKeyInto(*kbytes, &key_));
  if (block_entries_ == 0 &&
      CompareKeys(key_, run_->sparse_[block_index_].key) != 0) {
    return Status::Corruption("block " + std::to_string(block_index_) +
                              " does not start at its sparse key in " +
                              run_->path_);
  }
  if (has_prev_ && CompareKeys(prev_key_, key_) >= 0) {
    return Status::Corruption("entries out of key order in " + run_->path_);
  }
  pos_ += r.position();
  ++block_entries_;
  kind_ = static_cast<EntryKind>(*kind);
  value_ = *vbytes;
  valid_ = true;
  return Status::OK();
}

Status SortedRunReader::Iterator::Seek(const CompositeKey& target) {
  const std::vector<SparseEntry>& sparse = run_->sparse_;
  if (sparse.empty()) return Status::OK();
  if (valid_) {
    int c = CompareKeys(key_, target);
    if (c >= 0) {
      // Already there when no earlier entry reaches the target.
      bool run_start = block_index_ == 0 && block_entries_ == 1;
      if (c == 0 || run_start ||
          (has_prev_ && CompareKeys(prev_key_, target) < 0)) {
        return Status::OK();
      }
    } else if (block_index_ + 1 == sparse.size() ||
               CompareKeys(target, sparse[block_index_ + 1].key) < 0) {
      // The target lies ahead in this block (or at the next one's start).
      while (valid_ && CompareKeys(key_, target) < 0) {
        SIMDB_RETURN_IF_ERROR(ReadEntry());
      }
      return Status::OK();
    }
  } else if (at_end_ && CompareKeys(key_, target) < 0) {
    return Status::OK();  // every entry is below the target
  }
  SIMDB_RETURN_IF_ERROR(StartBlock(run_->BlockFor(target)));
  while (valid_ && CompareKeys(key_, target) < 0) {
    SIMDB_RETURN_IF_ERROR(ReadEntry());
  }
  return Status::OK();
}

Result<std::unique_ptr<SortedRunReader::Iterator>> SortedRunReader::NewIterator(
    const CompositeKey* lower_bound) const {
  auto iter = std::unique_ptr<Iterator>(new Iterator(this));
  if (lower_bound != nullptr) {
    SIMDB_RETURN_IF_ERROR(iter->Seek(*lower_bound));
  } else if (!sparse_.empty()) {
    SIMDB_RETURN_IF_ERROR(iter->StartBlock(0));
  }
  return iter;
}

Result<std::optional<std::pair<EntryKind, std::string>>> SortedRunReader::Get(
    const CompositeKey& key) const {
  LsmIndex::PointReader reader({this});
  SIMDB_ASSIGN_OR_RETURN(auto entry, reader.Find(key));
  if (!entry.has_value()) {
    return std::optional<std::pair<EntryKind, std::string>>();
  }
  return std::make_optional(
      std::make_pair(entry->first, std::string(entry->second)));
}

}  // namespace simdb::storage
