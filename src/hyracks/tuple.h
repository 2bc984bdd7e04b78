#ifndef SIMDB_HYRACKS_TUPLE_H_
#define SIMDB_HYRACKS_TUPLE_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "adm/value.h"
#include "common/result.h"

namespace simdb::hyracks {

/// One row flowing between operators: a view of its ADM values, addressed by
/// position. Column names live in the RowSchema attached to the producing
/// operator, not in the row.
using Row = std::span<const adm::Value>;

/// An owned scratch row (residual evaluation, fragment decode, tests). Rows
/// between operators live in frames (Rows), never in one of these each.
using Tuple = std::vector<adm::Value>;

/// Bytes of one frame: AsterixDB's default frame size. Every frame of a
/// partition has the same capacity, so a partition holds memory in equal
/// blocks that the allocator recycles, never in one buffer that grows.
inline constexpr size_t kFrameBytes = 32 * 1024;

/// All rows of one partition, stored row-major in fixed-size frames. Every
/// row has the partition's width, which an operator derives from its inputs,
/// so an empty or zero-width partition still knows its width. A frame holds
/// the largest power-of-two number of rows that fits kFrameBytes, and at
/// least one, so a row wider than a frame gets a frame of its own. Appending
/// never moves a row already in the partition.
class Rows {
 public:
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Row;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Row;

    const_iterator() = default;
    const_iterator(const Rows* rows, size_t i) : rows_(rows), i_(i) {}
    Row operator*() const { return (*rows_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    const Rows* rows_ = nullptr;
    size_t i_ = 0;
  };

  explicit Rows(size_t width = 0);
  /// Rows from literal tuples, which must all have the first one's width.
  Rows(std::initializer_list<Tuple> rows);
  Rows(const Rows& other);
  Rows& operator=(const Rows& other);
  Rows(Rows&& other) noexcept;
  Rows& operator=(Rows&& other) noexcept;
  ~Rows();

  size_t width() const { return width_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  Row operator[](size_t i) const {
    if (width_ == 0) return Row();
    return Row(frames_[i >> shift_] + (i & mask_) * width_, width_);
  }
  /// Cells of row i, for a build that moves them out (a stealing exchange).
  std::span<adm::Value> MutableRow(size_t i) {
    if (width_ == 0) return {};
    return {frames_[i >> shift_] + (i & mask_) * width_, width_};
  }

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

  /// Appends one row whose leading cells copy `head` and then `tail`; the
  /// cells after them start MISSING for the caller to fill. Returns the new
  /// row's cells.
  std::span<adm::Value> Append(Row head = {}, Row tail = {});
  /// Appends one row by moving `cells` (exactly width() of them) in.
  void AppendMoved(std::span<adm::Value> cells);
  /// Drops the last row (one a predicate rejected after it was appended).
  void PopBack();

 private:
  /// Makes room for one more row and returns its first cell, still raw.
  adm::Value* Grow();
  void Clear();
  void CopyFrom(const Rows& other);

  size_t width_ = 0;
  size_t size_ = 0;
  /// Rows per frame are 1 << shift_; mask_ = (1 << shift_) - 1.
  unsigned shift_ = 0;
  size_t mask_ = 0;
  /// Raw frames; only the cells of the first size_ rows are constructed.
  std::vector<adm::Value*> frames_;
};

/// Rows are equal when they hold equal rows in the same order; the widths of
/// two empty partitions are not compared.
bool operator==(const Rows& a, const Rows& b);

/// Operator input/output: one Rows per partition. Every operator in a job
/// produces the same number of partitions (the cluster's total partition
/// count).
using PartitionedRows = std::vector<Rows>;

/// The width of a partitioned input: that of its first non-empty partition
/// (a decoded empty row group states no width), else of its first partition.
size_t RowsWidth(const PartitionedRows& parts);

/// The key hash of HASH-JOIN, HASH-GROUP and HASH-EXCHANGE routing over the
/// listed columns of `row`. It combines Value::Hash, which hashes numbers by
/// their double value, so int64 1 and double 1.0 hash alike, as Value::Compare
/// finds them equal.
uint64_t HashColumns(Row row, std::span<const int> columns);

/// True when every listed column of `a` compares equal (Value::Compare == 0)
/// to the same-position listed column of `b`.
bool ColumnsEqual(Row a, std::span<const int> a_columns, Row b,
                  std::span<const int> b_columns);

/// Ordered column names describing the tuples of one operator's output.
class RowSchema {
 public:
  RowSchema() = default;
  explicit RowSchema(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  size_t size() const { return columns_.size(); }
  const std::string& column(size_t i) const { return columns_[i]; }
  const std::vector<std::string>& columns() const { return columns_; }

  /// Position of `name`, or -1 when absent.
  int IndexOf(std::string_view name) const;
  bool Contains(std::string_view name) const { return IndexOf(name) >= 0; }
  Result<int> Require(std::string_view name) const;

  /// Appends a column, returning its index.
  int Add(std::string name) {
    columns_.push_back(std::move(name));
    return static_cast<int>(columns_.size()) - 1;
  }

  static RowSchema Concat(const RowSchema& a, const RowSchema& b);

  std::string ToString() const;

 private:
  std::vector<std::string> columns_;
};

/// Approximate wire size of a row, used by exchange operators to account
/// network traffic for the cluster cost model.
uint64_t TupleBytes(Row row);

uint64_t RowsCount(const PartitionedRows& rows);

}  // namespace simdb::hyracks

#endif  // SIMDB_HYRACKS_TUPLE_H_
