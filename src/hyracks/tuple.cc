#include "hyracks/tuple.h"

namespace simdb::hyracks {

size_t KeyHash::operator()(const Tuple& keys) const {
  uint64_t h = 0x5150;
  for (const adm::Value& v : keys) {
    h ^= v.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return static_cast<size_t>(h);
}

bool KeyEq::operator()(const Tuple& a, const Tuple& b) const {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (adm::Value::Compare(a[i], b[i]) != 0) return false;
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

uint64_t TupleBytes(const Tuple& tuple) {
  uint64_t total = 8;  // framing overhead
  for (const adm::Value& v : tuple) total += v.MemoryUsage();
  return total;
}

uint64_t RowsCount(const PartitionedRows& rows) {
  uint64_t n = 0;
  for (const Rows& r : rows) n += r.size();
  return n;
}

}  // namespace simdb::hyracks
