#ifndef SIMDB_ADM_VALUE_H_
#define SIMDB_ADM_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace simdb::adm {

/// Type tags of the ADM-like data model. The order of enumerators defines the
/// cross-type total order used for sorting heterogeneous values (as in
/// schema-less AsterixDB datasets).
enum class ValueType : uint8_t {
  kMissing = 0,
  kNull = 1,
  kBoolean = 2,
  kInt64 = 3,
  kDouble = 4,
  kString = 5,
  kArray = 6,     // ordered list
  kMultiset = 7,  // unordered list
  kObject = 8,
};

std::string_view ValueTypeToString(ValueType t);

/// A dynamically typed ADM value: the unit of data flowing through every
/// layer (records, index keys, query results). Objects keep fields sorted by
/// name so equality/comparison/hash are canonical.
///
/// Immutability contract. A list (array or multiset) or an object owns its
/// elements through one refcounted, immutable payload, allocated once by
/// MakeArray / MakeMultiset / MakeObject. Copying a Value, or a row of
/// Values, shares that payload and bumps its refcount; it never rebuilds
/// the tree. AsList() and AsObject() are therefore views into a payload
/// that every copy sees: nothing may mutate one (there is no mutable
/// accessor and no copy-on-write). To change a list or object, copy its
/// elements out and make a new Value. Because payloads never change, pool
/// threads may read and copy one Value concurrently. Strings stay inline:
/// tokens and field values are short and fit the small-string buffer, so a
/// shared string would cost an allocation and an atomic where a copy costs
/// neither. A moved-from list or object Value may only be assigned to or
/// destroyed.
class Value {
 public:
  using Array = std::vector<Value>;
  using Field = std::pair<std::string, Value>;
  using Object = std::vector<Field>;  // sorted by field name

  /// Constructs MISSING (absent field), the bottom of the type order.
  Value() : type_(ValueType::kMissing) {}

  static Value Missing() { return Value(); }
  static Value Null() {
    Value v;
    v.type_ = ValueType::kNull;
    return v;
  }
  static Value Boolean(bool b) {
    Value v;
    v.type_ = ValueType::kBoolean;
    v.data_ = b;
    return v;
  }
  static Value Int64(int64_t i) {
    Value v;
    v.type_ = ValueType::kInt64;
    v.data_ = i;
    return v;
  }
  static Value Double(double d) {
    Value v;
    v.type_ = ValueType::kDouble;
    v.data_ = d;
    return v;
  }
  static Value String(std::string s) {
    Value v;
    v.type_ = ValueType::kString;
    v.data_ = std::move(s);
    return v;
  }
  static Value MakeArray(Array items) {
    Value v;
    v.type_ = ValueType::kArray;
    v.data_ = std::make_shared<const Array>(std::move(items));
    return v;
  }
  static Value MakeMultiset(Array items) {
    Value v;
    v.type_ = ValueType::kMultiset;
    v.data_ = std::make_shared<const Array>(std::move(items));
    return v;
  }
  /// Fields are sorted by name; duplicate names keep the last occurrence.
  static Value MakeObject(Object fields);

  ValueType type() const { return type_; }
  bool is_missing() const { return type_ == ValueType::kMissing; }
  bool is_null() const { return type_ == ValueType::kNull; }
  bool is_boolean() const { return type_ == ValueType::kBoolean; }
  bool is_int64() const { return type_ == ValueType::kInt64; }
  bool is_double() const { return type_ == ValueType::kDouble; }
  bool is_numeric() const { return is_int64() || is_double(); }
  bool is_string() const { return type_ == ValueType::kString; }
  bool is_array() const { return type_ == ValueType::kArray; }
  bool is_multiset() const { return type_ == ValueType::kMultiset; }
  bool is_list() const { return is_array() || is_multiset(); }
  bool is_object() const { return type_ == ValueType::kObject; }

  bool AsBoolean() const { return std::get<bool>(data_); }
  int64_t AsInt64() const { return std::get<int64_t>(data_); }
  double AsDoubleExact() const { return std::get<double>(data_); }
  /// Numeric value widened to double (valid for int64 and double).
  double AsNumber() const {
    return is_int64() ? static_cast<double>(AsInt64()) : AsDoubleExact();
  }
  const std::string& AsString() const { return std::get<std::string>(data_); }
  /// The shared, immutable elements of a list (see the class comment).
  const Array& AsList() const { return *std::get<ArrayPtr>(data_); }
  /// The shared, immutable fields of an object, sorted by name.
  const Object& AsObject() const { return *std::get<ObjectPtr>(data_); }

  /// Returns the field value, or MISSING when absent / not an object.
  const Value& GetField(std::string_view name) const;

  /// Total order across all types: MISSING < NULL < bool < numbers (compared
  /// numerically across int64/double; NaN equals NaN and sorts above every
  /// other number) < strings < arrays < multisets < objects. Returns <0, 0,
  /// >0.
  static int Compare(const Value& a, const Value& b);

  bool operator==(const Value& other) const { return Compare(*this, other) == 0; }
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const { return Compare(*this, other) < 0; }

  /// Hash consistent with operator== (numeric values hash by double value;
  /// every NaN hashes alike).
  uint64_t Hash() const;

  /// Compact JSON-style rendering (objects print fields in sorted order).
  std::string ToJson() const;

  /// Parses a JSON document. Integers without fraction/exponent parse as
  /// int64; `{{ ... }}` parses as a multiset (AsterixDB ADM syntax). A
  /// document nesting arrays, objects and multisets more than kMaxJsonDepth
  /// deep is a kParseError.
  static Result<Value> FromJson(std::string_view text);

  /// Binary serialization (storage format). Deserialize returns
  /// kCorruption for a value nesting arrays, objects and multisets more than
  /// kMaxValueDepth deep.
  void Serialize(ByteWriter* w) const;
  static Result<Value> Deserialize(ByteReader* r);

  /// Rough in-memory footprint in bytes of the whole logical value, as if
  /// nothing were shared: every copy reports the full size of its payload.
  /// TupleBytes, the modeled network bytes, memtable budgets and serving
  /// memory quotas all charge this figure, so sharing a payload must not
  /// change it.
  size_t MemoryUsage() const;

 private:
  using ArrayPtr = std::shared_ptr<const Array>;
  using ObjectPtr = std::shared_ptr<const Object>;

  ValueType type_;
  std::variant<std::monostate, bool, int64_t, double, std::string, ArrayPtr,
               ObjectPtr>
      data_;
};

/// Deepest container nesting Value::FromJson accepts. It bounds the parser's
/// recursion, and it is above the AQL parser's kMaxParseDepth, so a value an
/// AQL literal can build always parses back.
inline constexpr int kMaxJsonDepth = 256;

/// Deepest container nesting Value::Deserialize accepts. It bounds the
/// decoder's recursion over run blocks, keys and fragment frames. It is
/// above kMaxJsonDepth with room for the levels a query adds around a
/// stored value (a record of lists of records, ...), so every value the
/// engine builds decodes again.
inline constexpr int kMaxValueDepth = 4 * kMaxJsonDepth;

/// The canonical MISSING singleton returned by failed field lookups.
const Value& MissingValue();

}  // namespace simdb::adm

#endif  // SIMDB_ADM_VALUE_H_
