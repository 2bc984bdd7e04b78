#include "hyracks/tuple.h"

#include <new>
#include <utility>

#include "common/logging.h"

namespace simdb::hyracks {

using adm::Value;

Rows::Rows(size_t width) : width_(width) {
  size_t fit = width == 0 ? 1 : kFrameBytes / (width * sizeof(Value));
  while ((size_t{2} << shift_) <= fit) ++shift_;
  mask_ = (size_t{1} << shift_) - 1;
}

Rows::Rows(std::initializer_list<Tuple> rows)
    : Rows(rows.size() == 0 ? 0 : rows.begin()->size()) {
  for (const Tuple& row : rows) {
    SIMDB_CHECK(row.size() == width_)
        << "literal rows of " << width_ << " and " << row.size() << " cells";
    Append(row);
  }
}

Rows::Rows(const Rows& other) : Rows(other.width_) { CopyFrom(other); }

Rows& Rows::operator=(const Rows& other) {
  if (this != &other) {
    Rows copy(other);
    *this = std::move(copy);
  }
  return *this;
}

Rows::Rows(Rows&& other) noexcept
    : width_(other.width_),
      size_(std::exchange(other.size_, 0)),
      shift_(other.shift_),
      mask_(other.mask_),
      frames_(std::move(other.frames_)) {
  other.frames_.clear();
}

Rows& Rows::operator=(Rows&& other) noexcept {
  if (this != &other) {
    Clear();
    width_ = other.width_;
    size_ = std::exchange(other.size_, 0);
    shift_ = other.shift_;
    mask_ = other.mask_;
    frames_ = std::move(other.frames_);
    other.frames_.clear();
  }
  return *this;
}

Rows::~Rows() { Clear(); }

void Rows::Clear() {
  for (size_t i = 0; i < size_; ++i) {
    for (Value& cell : MutableRow(i)) cell.~Value();
  }
  for (Value* frame : frames_) ::operator delete(frame);
  frames_.clear();
  size_ = 0;
}

void Rows::CopyFrom(const Rows& other) {
  for (Row row : other) Append(row);
}

Value* Rows::Grow() {
  if (width_ == 0) return nullptr;
  if ((size_ >> shift_) == frames_.size()) {
    frames_.push_back(static_cast<Value*>(
        ::operator new((mask_ + 1) * width_ * sizeof(Value))));
  }
  return frames_[size_ >> shift_] + (size_ & mask_) * width_;
}

std::span<Value> Rows::Append(Row head, Row tail) {
  SIMDB_CHECK(head.size() + tail.size() <= width_)
      << "row of " << head.size() + tail.size() << " cells appended to "
      << width_ << "-wide rows";
  Value* cells = Grow();
  Value* out = cells;
  for (const Value& v : head) new (out++) Value(v);
  for (const Value& v : tail) new (out++) Value(v);
  for (Value* end = cells + width_; out < end; ++out) new (out) Value();
  ++size_;
  return {cells, width_};
}

void Rows::AppendMoved(std::span<Value> cells) {
  SIMDB_CHECK(cells.size() == width_)
      << "row of " << cells.size() << " cells moved into " << width_
      << "-wide rows";
  Value* out = Grow();
  for (Value& v : cells) new (out++) Value(std::move(v));
  ++size_;
}

void Rows::PopBack() {
  for (Value& cell : MutableRow(size_ - 1)) cell.~Value();
  --size_;
}

bool operator==(const Rows& a, const Rows& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    Row x = a[i];
    Row y = b[i];
    if (x.size() != y.size()) return false;
    for (size_t c = 0; c < x.size(); ++c) {
      if (Value::Compare(x[c], y[c]) != 0) return false;
    }
  }
  return true;
}

size_t RowsWidth(const PartitionedRows& parts) {
  for (const Rows& part : parts) {
    if (!part.empty()) return part.width();
  }
  return parts.empty() ? 0 : parts[0].width();
}

uint64_t HashColumns(Row row, std::span<const int> columns) {
  uint64_t h = 0x5150;
  for (int c : columns) {
    h ^= row[static_cast<size_t>(c)].Hash() + 0x9e3779b97f4a7c15ULL +
         (h << 6) + (h >> 2);
  }
  return h;
}

bool ColumnsEqual(Row a, std::span<const int> a_columns, Row b,
                  std::span<const int> b_columns) {
  for (size_t i = 0; i < a_columns.size(); ++i) {
    if (Value::Compare(a[static_cast<size_t>(a_columns[i])],
                       b[static_cast<size_t>(b_columns[i])]) != 0) {
      return false;
    }
  }
  return true;
}

int RowSchema::IndexOf(std::string_view name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

Result<int> RowSchema::Require(std::string_view name) const {
  int i = IndexOf(name);
  if (i < 0) {
    return Status::PlanError("column '" + std::string(name) +
                             "' not found in schema " + ToString());
  }
  return i;
}

RowSchema RowSchema::Concat(const RowSchema& a, const RowSchema& b) {
  std::vector<std::string> cols = a.columns_;
  cols.insert(cols.end(), b.columns_.begin(), b.columns_.end());
  return RowSchema(std::move(cols));
}

std::string RowSchema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns_[i];
  }
  out += ")";
  return out;
}

uint64_t TupleBytes(Row row) {
  uint64_t total = 8;  // framing overhead
  for (const adm::Value& v : row) total += v.MemoryUsage();
  return total;
}

uint64_t RowsCount(const PartitionedRows& rows) {
  uint64_t n = 0;
  for (const Rows& r : rows) n += r.size();
  return n;
}

}  // namespace simdb::hyracks
