#include "storage/key.h"

namespace simdb::storage {

int CompareKeys(const CompositeKey& a, const CompositeKey& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = adm::Value::Compare(a[i], b[i]);
    if (c != 0) return c;
  }
  if (a.size() < b.size()) return -1;
  if (a.size() > b.size()) return 1;
  return 0;
}

std::string EncodeKey(const CompositeKey& key) {
  std::string out;
  ByteWriter w(&out);
  w.PutU32(static_cast<uint32_t>(key.size()));
  for (const adm::Value& v : key) v.Serialize(&w);
  return out;
}

Result<CompositeKey> DecodeKey(std::string_view data) {
  CompositeKey key;
  SIMDB_RETURN_IF_ERROR(DecodeKeyInto(data, &key));
  return key;
}

Status DecodeKeyInto(std::string_view data, CompositeKey* key) {
  ByteReader r(data);
  SIMDB_ASSIGN_OR_RETURN(uint32_t n, r.GetU32());
  // Every value takes at least its one-byte type tag, so a count the bytes
  // cannot hold is corrupt; reject it before it sizes the vector.
  if (n > r.remaining()) {
    return Status::Corruption("key holds " + std::to_string(n) +
                              " values in " + std::to_string(r.remaining()) +
                              " bytes");
  }
  key->clear();
  key->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SIMDB_ASSIGN_OR_RETURN(adm::Value v, adm::Value::Deserialize(&r));
    key->push_back(std::move(v));
  }
  return Status::OK();
}

std::string KeyToString(const CompositeKey& key) {
  std::string out = "[";
  for (size_t i = 0; i < key.size(); ++i) {
    if (i > 0) out += ", ";
    out += key[i].ToJson();
  }
  out += "]";
  return out;
}

}  // namespace simdb::storage
