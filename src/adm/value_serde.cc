#include "adm/value.h"

#include <algorithm>

namespace simdb::adm {

namespace {

/// Capacity to reserve for `count` elements read off the wire, each of which
/// encodes to at least `min_bytes` bytes. A lying count must fail on
/// truncation, not first reserve count x sizeof(Value) bytes: the count is
/// capped by what the reader's remaining bytes could possibly hold.
size_t BoundedReserve(uint32_t count, const ByteReader& r, size_t min_bytes) {
  return std::min<size_t>(count, r.remaining() / min_bytes);
}

}  // namespace

void Value::Serialize(ByteWriter* w) const {
  w->PutU8(static_cast<uint8_t>(type_));
  switch (type_) {
    case ValueType::kMissing:
    case ValueType::kNull:
      return;
    case ValueType::kBoolean:
      w->PutU8(AsBoolean() ? 1 : 0);
      return;
    case ValueType::kInt64:
      w->PutI64(AsInt64());
      return;
    case ValueType::kDouble:
      w->PutDouble(AsDoubleExact());
      return;
    case ValueType::kString:
      w->PutString(AsString());
      return;
    case ValueType::kArray:
    case ValueType::kMultiset: {
      const Array& items = AsList();
      w->PutU32(static_cast<uint32_t>(items.size()));
      for (const Value& v : items) v.Serialize(w);
      return;
    }
    case ValueType::kObject: {
      const Object& fields = AsObject();
      w->PutU32(static_cast<uint32_t>(fields.size()));
      for (const Field& f : fields) {
        w->PutString(f.first);
        f.second.Serialize(w);
      }
      return;
    }
  }
}

namespace {

/// Decodes one value nested inside `depth` containers.
Result<Value> Decode(ByteReader* r, int depth) {
  SIMDB_ASSIGN_OR_RETURN(uint8_t tag, r->GetU8());
  if (tag > static_cast<uint8_t>(ValueType::kObject)) {
    return Status::Corruption("bad value type tag " + std::to_string(tag));
  }
  ValueType type = static_cast<ValueType>(tag);
  if (depth == kMaxValueDepth &&
      (type == ValueType::kArray || type == ValueType::kMultiset ||
       type == ValueType::kObject)) {
    return Status::Corruption("value nesting deeper than " +
                              std::to_string(kMaxValueDepth));
  }
  switch (type) {
    case ValueType::kMissing:
      return Value::Missing();
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBoolean: {
      SIMDB_ASSIGN_OR_RETURN(uint8_t b, r->GetU8());
      return Value::Boolean(b != 0);
    }
    case ValueType::kInt64: {
      SIMDB_ASSIGN_OR_RETURN(int64_t i, r->GetI64());
      return Value::Int64(i);
    }
    case ValueType::kDouble: {
      SIMDB_ASSIGN_OR_RETURN(double d, r->GetDouble());
      return Value::Double(d);
    }
    case ValueType::kString: {
      SIMDB_ASSIGN_OR_RETURN(std::string_view s, r->GetString());
      return Value::String(std::string(s));
    }
    case ValueType::kArray:
    case ValueType::kMultiset: {
      SIMDB_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
      Value::Array items;
      items.reserve(BoundedReserve(n, *r, /*min_bytes=*/1));  // type tag
      for (uint32_t i = 0; i < n; ++i) {
        SIMDB_ASSIGN_OR_RETURN(Value v, Decode(r, depth + 1));
        items.push_back(std::move(v));
      }
      return type == ValueType::kArray ? Value::MakeArray(std::move(items))
                                       : Value::MakeMultiset(std::move(items));
    }
    case ValueType::kObject: {
      SIMDB_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
      Value::Object fields;
      // Name length prefix plus the value's type tag.
      fields.reserve(BoundedReserve(n, *r, /*min_bytes=*/5));
      for (uint32_t i = 0; i < n; ++i) {
        SIMDB_ASSIGN_OR_RETURN(std::string_view name, r->GetString());
        std::string name_copy(name);
        SIMDB_ASSIGN_OR_RETURN(Value v, Decode(r, depth + 1));
        fields.emplace_back(std::move(name_copy), std::move(v));
      }
      // Fields were stored sorted; MakeObject re-canonicalizes defensively.
      return Value::MakeObject(std::move(fields));
    }
  }
  return Status::Corruption("unreachable value tag");
}

}  // namespace

Result<Value> Value::Deserialize(ByteReader* r) { return Decode(r, 0); }

}  // namespace simdb::adm
