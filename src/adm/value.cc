#include "adm/value.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace simdb::adm {

std::string_view ValueTypeToString(ValueType t) {
  switch (t) {
    case ValueType::kMissing:
      return "missing";
    case ValueType::kNull:
      return "null";
    case ValueType::kBoolean:
      return "boolean";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
    case ValueType::kArray:
      return "array";
    case ValueType::kMultiset:
      return "multiset";
    case ValueType::kObject:
      return "object";
  }
  return "?";
}

Value Value::MakeObject(Object fields) {
  std::stable_sort(fields.begin(), fields.end(),
                   [](const Field& a, const Field& b) { return a.first < b.first; });
  // Duplicate names keep the last occurrence (JSON semantics).
  Object dedup;
  dedup.reserve(fields.size());
  for (auto& f : fields) {
    if (!dedup.empty() && dedup.back().first == f.first) {
      dedup.back().second = std::move(f.second);
    } else {
      dedup.push_back(std::move(f));
    }
  }
  Value v;
  v.type_ = ValueType::kObject;
  v.data_ = std::make_shared<const Object>(std::move(dedup));
  return v;
}

const Value& MissingValue() {
  static const Value* kMissing = new Value();
  return *kMissing;
}

const Value& Value::GetField(std::string_view name) const {
  if (!is_object()) return MissingValue();
  const Object& fields = AsObject();
  auto it = std::lower_bound(
      fields.begin(), fields.end(), name,
      [](const Field& f, std::string_view n) { return f.first < n; });
  if (it != fields.end() && it->first == name) return it->second;
  return MissingValue();
}

namespace {

// Numeric class shared by int64 and double for cross-type ordering.
int TypeClass(ValueType t) {
  switch (t) {
    case ValueType::kMissing:
      return 0;
    case ValueType::kNull:
      return 1;
    case ValueType::kBoolean:
      return 2;
    case ValueType::kInt64:
    case ValueType::kDouble:
      return 3;
    case ValueType::kString:
      return 4;
    case ValueType::kArray:
      return 5;
    case ValueType::kMultiset:
      return 6;
    case ValueType::kObject:
      return 7;
  }
  return 8;
}

// NaN equals NaN and sorts above every other number (PostgreSQL's rule), so
// the order is total: sorts get a strict weak order and `eq`, hash joins and
// hash groups agree that NaN is one key.
int CompareDouble(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  bool a_nan = std::isnan(a), b_nan = std::isnan(b);
  if (a_nan != b_nan) return a_nan ? 1 : -1;
  return 0;
}

}  // namespace

int Value::Compare(const Value& a, const Value& b) {
  int ca = TypeClass(a.type_), cb = TypeClass(b.type_);
  if (ca != cb) return ca < cb ? -1 : 1;
  switch (a.type_) {
    case ValueType::kMissing:
    case ValueType::kNull:
      return 0;
    case ValueType::kBoolean: {
      int ia = a.AsBoolean() ? 1 : 0, ib = b.AsBoolean() ? 1 : 0;
      return ia - ib;
    }
    case ValueType::kInt64:
    case ValueType::kDouble: {
      if (a.is_int64() && b.is_int64()) {
        int64_t ia = a.AsInt64(), ib = b.AsInt64();
        if (ia < ib) return -1;
        if (ia > ib) return 1;
        return 0;
      }
      return CompareDouble(a.AsNumber(), b.AsNumber());
    }
    case ValueType::kString: {
      int c = a.AsString().compare(b.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case ValueType::kArray:
    case ValueType::kMultiset: {
      const Array& la = a.AsList();
      const Array& lb = b.AsList();
      size_t n = std::min(la.size(), lb.size());
      for (size_t i = 0; i < n; ++i) {
        int c = Compare(la[i], lb[i]);
        if (c != 0) return c;
      }
      if (la.size() < lb.size()) return -1;
      if (la.size() > lb.size()) return 1;
      return 0;
    }
    case ValueType::kObject: {
      const Object& oa = a.AsObject();
      const Object& ob = b.AsObject();
      size_t n = std::min(oa.size(), ob.size());
      for (size_t i = 0; i < n; ++i) {
        int c = oa[i].first.compare(ob[i].first);
        if (c != 0) return c < 0 ? -1 : 1;
        c = Compare(oa[i].second, ob[i].second);
        if (c != 0) return c;
      }
      if (oa.size() < ob.size()) return -1;
      if (oa.size() > ob.size()) return 1;
      return 0;
    }
  }
  return 0;
}

namespace {

uint64_t HashCombine(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

// splitmix64 finalizer: spreads entropy into the low bits, which partition
// routing (hash % P) depends on.
uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t HashBytes(std::string_view s) {
  // FNV-1a.
  uint64_t h = 14695981039346656037ULL;
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

uint64_t Value::Hash() const {
  switch (type_) {
    case ValueType::kMissing:
      return 0x4d495353;
    case ValueType::kNull:
      return 0x4e554c4c;
    case ValueType::kBoolean:
      return AsBoolean() ? 0xb001u : 0xb000u;
    case ValueType::kInt64:
    case ValueType::kDouble: {
      // Hash by numeric (double) value so 1 and 1.0 collide, matching ==.
      double d = AsNumber();
      if (d == 0.0) d = 0.0;  // normalize -0.0
      // Every NaN is one key; their sign and payload bits differ.
      if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
      uint64_t bits;
      std::memcpy(&bits, &d, 8);
      return Mix(HashCombine(0x6e756d, bits));
    }
    case ValueType::kString:
      return HashBytes(AsString());
    case ValueType::kArray:
    case ValueType::kMultiset: {
      uint64_t h = 0xa88a;
      for (const Value& v : AsList()) h = HashCombine(h, v.Hash());
      return h;
    }
    case ValueType::kObject: {
      uint64_t h = 0x0b77;
      for (const Field& f : AsObject()) {
        h = HashCombine(h, HashBytes(f.first));
        h = HashCombine(h, f.second.Hash());
      }
      return h;
    }
  }
  return 0;
}

size_t Value::MemoryUsage() const {
  size_t base = sizeof(Value);
  switch (type_) {
    case ValueType::kString:
      return base + AsString().capacity();
    case ValueType::kArray:
    case ValueType::kMultiset: {
      size_t s = base;
      for (const Value& v : AsList()) s += v.MemoryUsage();
      return s;
    }
    case ValueType::kObject: {
      size_t s = base;
      for (const Field& f : AsObject()) {
        s += f.first.capacity() + f.second.MemoryUsage();
      }
      return s;
    }
    default:
      return base;
  }
}

}  // namespace simdb::adm
