#include "storage/sorted_run.h"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "common/bytes.h"
#include "common/logging.h"

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
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open run " + path);
  in.seekg(0, std::ios::end);
  uint64_t size = static_cast<uint64_t>(in.tellg());
  if (size < kFooterSize) return Status::Corruption("run too small: " + path);

  char footer[kFooterSize];
  in.seekg(static_cast<std::streamoff>(size - kFooterSize));
  in.read(footer, kFooterSize);
  if (!in) return Status::IOError("footer read failed: " + path);
  uint64_t index_offset, entry_count;
  uint32_t interval, magic;
  std::memcpy(&index_offset, footer, 8);
  std::memcpy(&entry_count, footer + 8, 8);
  std::memcpy(&interval, footer + 16, 4);
  std::memcpy(&magic, footer + 20, 4);
  if (magic != kRunMagic) return Status::Corruption("bad run magic: " + path);
  if (index_offset > size - kFooterSize) {
    return Status::Corruption("bad index offset: " + path);
  }

  // Load and decode the sparse index block.
  uint64_t index_len = size - kFooterSize - index_offset;
  std::string index_block(index_len, '\0');
  in.seekg(static_cast<std::streamoff>(index_offset));
  in.read(index_block.data(), static_cast<std::streamsize>(index_len));
  if (!in) return Status::IOError("index read failed: " + path);

  auto reader = std::unique_ptr<SortedRunReader>(new SortedRunReader());
  reader->path_ = std::move(path);
  reader->entry_count_ = entry_count;
  reader->data_end_ = index_offset;
  reader->file_size_ = size;
  reader->sparse_interval_ = static_cast<int>(interval);

  ByteReader br(index_block);
  SIMDB_ASSIGN_OR_RETURN(uint32_t n, br.GetU32());
  // Every sparse entry holds at least a u32 key length and a u64 offset, so
  // a count the block cannot hold is corrupt; reject it before it sizes the
  // reserve.
  if (n > br.remaining() / (4 + 8)) {
    return Status::Corruption("sparse index count " + std::to_string(n) +
                              " exceeds its block: " + reader->path_);
  }
  reader->sparse_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SIMDB_ASSIGN_OR_RETURN(std::string_view kbytes, br.GetString());
    SIMDB_ASSIGN_OR_RETURN(uint64_t off, br.GetU64());
    if (off > reader->data_end_) {
      return Status::Corruption("sparse index offset past data end: " +
                                reader->path_);
    }
    SIMDB_ASSIGN_OR_RETURN(CompositeKey key, DecodeKey(kbytes));
    reader->sparse_.push_back(
        {std::move(key), off, static_cast<uint64_t>(i) * interval});
  }
  return reader;
}

SortedRunReader::Iterator::Iterator(const SortedRunReader* run,
                                    uint64_t offset, uint64_t index)
    : run_(run),
      in_(run->path_, std::ios::binary),
      offset_(offset),
      next_index_(index) {
  in_.seekg(static_cast<std::streamoff>(offset));
}

bool SortedRunReader::Iterator::ReadBounded(char* dst, uint64_t n) {
  if (n > BytesLeft()) return false;
  in_.read(dst, static_cast<std::streamsize>(n));
  offset_ += n;
  return static_cast<bool>(in_);
}

Status SortedRunReader::Iterator::ReadEntry() {
  if (next_index_ >= run_->entry_count_) {
    valid_ = false;
    return Status::OK();
  }
  if (!in_) return Status::IOError("iterator stream bad: " + run_->path_);
  auto truncated = [this] {
    return Status::Corruption("truncated entry at offset " +
                              std::to_string(offset_) + " in " + run_->path_);
  };
  // Entry: [u8 kind][u32 klen][k][u32 vlen][v]. Both lengths come from disk:
  // each is bounded by the bytes left before the sparse index block before
  // it sizes a buffer, so a corrupt run cannot demand a huge allocation.
  char head[5];
  if (!ReadBounded(head, sizeof(head))) return truncated();
  const uint8_t kind = static_cast<uint8_t>(head[0]);
  if (kind > static_cast<uint8_t>(EntryKind::kTombstone)) {
    return Status::Corruption("bad entry kind " + std::to_string(kind) +
                              " in " + run_->path_);
  }
  uint32_t klen = 0;
  std::memcpy(&klen, head + 1, 4);
  if (klen > BytesLeft()) return truncated();
  std::string kbytes(klen, '\0');
  char lenbuf[4];
  if (!ReadBounded(kbytes.data(), klen) || !ReadBounded(lenbuf, 4)) {
    return truncated();
  }
  uint32_t vlen = 0;
  std::memcpy(&vlen, lenbuf, 4);
  if (vlen > BytesLeft()) return truncated();
  value_.resize(vlen);
  if (!ReadBounded(value_.data(), vlen)) return truncated();
  SIMDB_ASSIGN_OR_RETURN(key_, DecodeKey(kbytes));
  kind_ = static_cast<EntryKind>(kind);
  ++next_index_;
  valid_ = true;
  return Status::OK();
}

Status SortedRunReader::Iterator::Next() { return ReadEntry(); }

Result<std::unique_ptr<SortedRunReader::Iterator>> SortedRunReader::NewIterator(
    const CompositeKey* lower_bound) const {
  uint64_t offset = 0, index = 0;
  if (lower_bound != nullptr && !sparse_.empty()) {
    // Last sparse entry with key <= lower_bound.
    auto it = std::upper_bound(
        sparse_.begin(), sparse_.end(), *lower_bound,
        [](const CompositeKey& k, const SparseEntry& e) {
          return CompareKeys(k, e.key) < 0;
        });
    if (it != sparse_.begin()) {
      --it;
      offset = it->offset;
      index = it->index;
    }
  }
  auto iter = std::unique_ptr<Iterator>(new Iterator(this, offset, index));
  SIMDB_RETURN_IF_ERROR(iter->ReadEntry());
  // Advance to the first key >= lower_bound.
  if (lower_bound != nullptr) {
    while (iter->Valid() && CompareKeys(iter->key(), *lower_bound) < 0) {
      SIMDB_RETURN_IF_ERROR(iter->Next());
    }
  }
  return iter;
}

Result<std::optional<std::pair<EntryKind, std::string>>> SortedRunReader::Get(
    const CompositeKey& key) const {
  SIMDB_ASSIGN_OR_RETURN(std::unique_ptr<Iterator> it, NewIterator(&key));
  if (it->Valid() && CompareKeys(it->key(), key) == 0) {
    return std::make_optional(std::make_pair(it->kind(), it->value()));
  }
  return std::optional<std::pair<EntryKind, std::string>>();
}

}  // namespace simdb::storage
