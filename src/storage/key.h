#ifndef SIMDB_STORAGE_KEY_H_
#define SIMDB_STORAGE_KEY_H_

#include <string>
#include <string_view>
#include <vector>

#include "adm/value.h"
#include "common/result.h"

namespace simdb::storage {

/// Index keys are small tuples of ADM values, e.g. [pk] for the primary
/// index, [token, pk] for inverted indexes, [field, pk] for secondary
/// B+-trees. Ordering is lexicographic over Value::Compare.
using CompositeKey = std::vector<adm::Value>;

int CompareKeys(const CompositeKey& a, const CompositeKey& b);

struct KeyLess {
  bool operator()(const CompositeKey& a, const CompositeKey& b) const {
    return CompareKeys(a, b) < 0;
  }
};

std::string EncodeKey(const CompositeKey& key);
Result<CompositeKey> DecodeKey(std::string_view data);
/// DecodeKey into `key`, reusing its storage (the run iterators' hot path).
Status DecodeKeyInto(std::string_view data, CompositeKey* key);

std::string KeyToString(const CompositeKey& key);

}  // namespace simdb::storage

#endif  // SIMDB_STORAGE_KEY_H_
