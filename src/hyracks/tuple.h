#ifndef SIMDB_HYRACKS_TUPLE_H_
#define SIMDB_HYRACKS_TUPLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "adm/value.h"
#include "common/result.h"

namespace simdb::hyracks {

/// One row flowing between operators: a flat vector of ADM values addressed
/// by position. Column names live in the RowSchema attached to the producing
/// operator, not in the tuple.
using Tuple = std::vector<adm::Value>;

/// All rows of one partition.
using Rows = std::vector<Tuple>;

/// The key equality of HASH-JOIN and HASH-GROUP tables: a key tuple hashes by
/// Value::Hash, and two are equal when Value::Compare finds every column
/// equal. So int64 1 and double 1.0 are one key, as they are for `eq` and
/// for the hash exchange's routing.
struct KeyHash {
  size_t operator()(const Tuple& keys) const;
};
struct KeyEq {
  bool operator()(const Tuple& a, const Tuple& b) const;
};

/// Operator input/output: one Rows per partition. Every operator in a job
/// produces the same number of partitions (the cluster's total partition
/// count).
using PartitionedRows = std::vector<Rows>;

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

/// Approximate wire size of a tuple, used by exchange operators to account
/// network traffic for the cluster cost model.
uint64_t TupleBytes(const Tuple& tuple);

uint64_t RowsCount(const PartitionedRows& rows);

}  // namespace simdb::hyracks

#endif  // SIMDB_HYRACKS_TUPLE_H_
