#include <gtest/gtest.h>
#include <sys/resource.h>

#include <memory>
#include <thread>

#include "adm/value.h"
#include "adm/wire.h"
#include "common/random.h"

namespace simdb::adm {
namespace {

TEST(ValueTest, DefaultIsMissing) {
  Value v;
  EXPECT_TRUE(v.is_missing());
  EXPECT_EQ(v.type(), ValueType::kMissing);
}

TEST(ValueTest, Scalars) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_TRUE(Value::Boolean(true).AsBoolean());
  EXPECT_EQ(Value::Int64(-5).AsInt64(), -5);
  EXPECT_EQ(Value::Double(2.5).AsDoubleExact(), 2.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
}

TEST(ValueTest, NumericCoercionInAsNumber) {
  EXPECT_EQ(Value::Int64(3).AsNumber(), 3.0);
  EXPECT_EQ(Value::Double(3.25).AsNumber(), 3.25);
}

TEST(ValueTest, CrossTypeOrder) {
  // MISSING < NULL < bool < numbers < strings < arrays < multisets < objects.
  std::vector<Value> ordered = {
      Value::Missing(),
      Value::Null(),
      Value::Boolean(false),
      Value::Int64(1),
      Value::String("a"),
      Value::MakeArray({Value::Int64(1)}),
      Value::MakeMultiset({Value::Int64(1)}),
      Value::MakeObject({{"a", Value::Int64(1)}}),
  };
  for (size_t i = 0; i + 1 < ordered.size(); ++i) {
    EXPECT_LT(Value::Compare(ordered[i], ordered[i + 1]), 0)
        << "at index " << i;
  }
}

TEST(ValueTest, IntAndDoubleCompareNumerically) {
  EXPECT_EQ(Value::Compare(Value::Int64(2), Value::Double(2.0)), 0);
  EXPECT_LT(Value::Compare(Value::Int64(2), Value::Double(2.5)), 0);
  EXPECT_GT(Value::Compare(Value::Double(3.1), Value::Int64(3)), 0);
}

TEST(ValueTest, EqualsAndHashAgreeOnMixedNumerics) {
  Value a = Value::Int64(7), b = Value::Double(7.0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(ValueTest, ArrayCompareLexicographic) {
  Value a = Value::MakeArray({Value::Int64(1), Value::Int64(2)});
  Value b = Value::MakeArray({Value::Int64(1), Value::Int64(3)});
  Value c = Value::MakeArray({Value::Int64(1)});
  EXPECT_LT(Value::Compare(a, b), 0);
  EXPECT_LT(Value::Compare(c, a), 0);
  EXPECT_EQ(Value::Compare(a, a), 0);
}

TEST(ValueTest, ObjectFieldsSortedAndDeduped) {
  Value v = Value::MakeObject(
      {{"b", Value::Int64(2)}, {"a", Value::Int64(1)}, {"b", Value::Int64(3)}});
  const Value::Object& fields = v.AsObject();
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0].first, "a");
  EXPECT_EQ(fields[1].first, "b");
  EXPECT_EQ(fields[1].second.AsInt64(), 3);  // last occurrence wins
}

TEST(ValueTest, GetFieldReturnsMissingWhenAbsent) {
  Value v = Value::MakeObject({{"x", Value::Int64(1)}});
  EXPECT_EQ(v.GetField("x").AsInt64(), 1);
  EXPECT_TRUE(v.GetField("y").is_missing());
  EXPECT_TRUE(Value::Int64(5).GetField("x").is_missing());
}

TEST(ValueTest, ObjectOrderInsensitiveEquality) {
  Value a = Value::MakeObject({{"x", Value::Int64(1)}, {"y", Value::Int64(2)}});
  Value b = Value::MakeObject({{"y", Value::Int64(2)}, {"x", Value::Int64(1)}});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(JsonTest, ParseScalars) {
  EXPECT_TRUE((*Value::FromJson("null")).is_null());
  EXPECT_TRUE((*Value::FromJson("true")).AsBoolean());
  EXPECT_FALSE((*Value::FromJson("false")).AsBoolean());
  EXPECT_EQ((*Value::FromJson("42")).AsInt64(), 42);
  EXPECT_EQ((*Value::FromJson("-7")).AsInt64(), -7);
  EXPECT_EQ((*Value::FromJson("2.5")).AsDoubleExact(), 2.5);
  EXPECT_EQ((*Value::FromJson("\"abc\"")).AsString(), "abc");
}

TEST(JsonTest, IntegerStaysInt64) {
  Value v = *Value::FromJson("123");
  EXPECT_TRUE(v.is_int64());
  Value d = *Value::FromJson("123.0");
  EXPECT_TRUE(d.is_double());
  Value e = *Value::FromJson("1e3");
  EXPECT_TRUE(e.is_double());
}

TEST(JsonTest, ParseNested) {
  Result<Value> r = Value::FromJson(
      R"({"id": 1, "tags": ["a", "b"], "inner": {"x": 2.5}})");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Value& v = *r;
  EXPECT_EQ(v.GetField("id").AsInt64(), 1);
  EXPECT_EQ(v.GetField("tags").AsList().size(), 2u);
  EXPECT_EQ(v.GetField("inner").GetField("x").AsDoubleExact(), 2.5);
}

TEST(JsonTest, MultisetSyntax) {
  Result<Value> r = Value::FromJson(R"({{1, 2, 2}})");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->is_multiset());
  EXPECT_EQ(r->AsList().size(), 3u);
}

TEST(JsonTest, StringEscapes) {
  Value v = *Value::FromJson(R"("a\"b\\c\ndA")");
  EXPECT_EQ(v.AsString(), "a\"b\\c\ndA");
}

std::string NestedJson(const std::string& open, const std::string& close,
                       int depth) {
  std::string out;
  for (int i = 0; i < depth; ++i) out += open;
  out += "1";
  for (int i = 0; i < depth; ++i) out += close;
  return out;
}

// Arrays, objects and multisets nest up to kMaxJsonDepth; one level more is
// a parse error, and so is a document deep enough to overflow an unbounded
// recursive descent.
TEST(JsonTest, NestingIsBounded) {
  const std::pair<std::string, std::string> shapes[] = {
      {"[", "]"}, {R"({"a": )", "}"}, {"{{", "}}"}};
  for (const auto& [open, close] : shapes) {
    Result<Value> at_limit =
        Value::FromJson(NestedJson(open, close, kMaxJsonDepth));
    ASSERT_TRUE(at_limit.ok()) << open << " " << at_limit.status().ToString();
    Value v = *at_limit;
    int depth = 0;
    while (v.is_list() || v.is_object()) {
      v = v.is_list() ? v.AsList()[0] : v.GetField("a");
      ++depth;
    }
    EXPECT_EQ(depth, kMaxJsonDepth);
    EXPECT_EQ(v.AsInt64(), 1);
    for (int depth_over : {kMaxJsonDepth + 1, 100000}) {
      Result<Value> over = Value::FromJson(NestedJson(open, close, depth_over));
      ASSERT_FALSE(over.ok()) << open << " " << depth_over;
      EXPECT_EQ(over.status().code(), StatusCode::kParseError);
    }
  }
}

TEST(JsonTest, Errors) {
  EXPECT_FALSE(Value::FromJson("").ok());
  EXPECT_FALSE(Value::FromJson("{").ok());
  EXPECT_FALSE(Value::FromJson("[1,").ok());
  EXPECT_FALSE(Value::FromJson("12abc").ok());
  EXPECT_FALSE(Value::FromJson("\"unterminated").ok());
  EXPECT_FALSE(Value::FromJson("{\"a\":1} trailing").ok());
}

TEST(JsonTest, RoundTrip) {
  const char* docs[] = {
      "null",
      "true",
      "-17",
      "\"hello world\"",
      R"(["a",1,2.5,null,{"k":false}])",
      R"({"a":1,"b":[1,2,3],"c":{"d":"e"}})",
      R"({{"x","x","y"}})",
  };
  for (const char* doc : docs) {
    Value v = *Value::FromJson(doc);
    Value v2 = *Value::FromJson(v.ToJson());
    EXPECT_EQ(v, v2) << doc;
  }
}

Value RandomValue(Random& rng, int depth) {
  switch (rng.Uniform(depth > 2 ? 5 : 8)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Boolean(rng.OneIn(2));
    case 2:
      return Value::Int64(rng.UniformRange(-1000, 1000));
    case 3:
      return Value::Double(static_cast<double>(rng.UniformRange(-99, 99)) / 4);
    case 4: {
      std::string s;
      for (uint64_t i = 0, n = rng.Uniform(10); i < n; ++i) {
        s.push_back(static_cast<char>('a' + rng.Uniform(26)));
      }
      return Value::String(s);
    }
    case 5:
    case 6: {
      Value::Array items;
      for (uint64_t i = 0, n = rng.Uniform(4); i < n; ++i) {
        items.push_back(RandomValue(rng, depth + 1));
      }
      return rng.OneIn(3) ? Value::MakeMultiset(std::move(items))
                          : Value::MakeArray(std::move(items));
    }
    default: {
      Value::Object fields;
      for (uint64_t i = 0, n = rng.Uniform(4); i < n; ++i) {
        fields.emplace_back("f" + std::to_string(i), RandomValue(rng, depth + 1));
      }
      return Value::MakeObject(std::move(fields));
    }
  }
}

TEST(SerdeTest, RandomRoundTrip) {
  Random rng(99);
  for (int i = 0; i < 500; ++i) {
    Value v = RandomValue(rng, 0);
    std::string buf;
    ByteWriter w(&buf);
    v.Serialize(&w);
    ByteReader r(buf);
    Result<Value> back = Value::Deserialize(&r);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(v, *back);
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(SerdeTest, JsonRandomRoundTrip) {
  Random rng(123);
  for (int i = 0; i < 200; ++i) {
    Value v = RandomValue(rng, 0);
    Result<Value> back = Value::FromJson(v.ToJson());
    ASSERT_TRUE(back.ok()) << v.ToJson() << ": " << back.status().ToString();
    EXPECT_EQ(v, *back) << v.ToJson();
  }
}

TEST(SerdeTest, TruncatedBufferFails) {
  Value v = Value::MakeObject({{"a", Value::String("hello")}});
  std::string buf;
  ByteWriter w(&buf);
  v.Serialize(&w);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    ByteReader r(std::string_view(buf).substr(0, cut));
    EXPECT_FALSE(Value::Deserialize(&r).ok()) << "cut=" << cut;
  }
}

/// Peak resident set size of this process so far, in MiB.
int64_t PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<int64_t>(usage.ru_maxrss) / 1024;  // Linux: KiB
}

/// Decodes `[type tag][u32 count = 0xFFFFFFFF]` with nothing after it: the
/// count is a lie the payload cannot back, so the decoder must fail on
/// truncation rather than first reserve 4G elements (~200 GiB of Values).
Status DecodeLyingCount(ValueType type) {
  std::string buf;
  ByteWriter w(&buf);
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU32(0xFFFFFFFF);
  ByteReader r(buf);
  return Value::Deserialize(&r).status();
}

TEST(SerdeTest, HugeArrayCountIsCorruptionWithoutHugeAllocation) {
  int64_t rss_before = PeakRssMib();
  for (ValueType type : {ValueType::kArray, ValueType::kMultiset}) {
    EXPECT_EQ(DecodeLyingCount(type).code(), StatusCode::kCorruption);
  }
  EXPECT_LT(PeakRssMib() - rss_before, 64);
}

TEST(SerdeTest, HugeObjectCountIsCorruptionWithoutHugeAllocation) {
  int64_t rss_before = PeakRssMib();
  EXPECT_EQ(DecodeLyingCount(ValueType::kObject).code(),
            StatusCode::kCorruption);
  EXPECT_LT(PeakRssMib() - rss_before, 64);
}

/// `depth` arrays, each holding the next, around int64 1.
Value NestedArrays(int depth) {
  Value v = Value::Int64(1);
  for (int i = 0; i < depth; ++i) v = Value::MakeArray({v});
  return v;
}

// Arrays, objects and multisets decode nested up to kMaxValueDepth; one
// level more is corrupt, and so is a 5 MB payload of 1,000,000 nested
// one-element arrays, which an unbounded recursive decoder overflows its
// stack on.
TEST(SerdeTest, NestingIsBounded) {
  static_assert(kMaxValueDepth >= kMaxJsonDepth);
  std::string at_limit;
  ByteWriter w(&at_limit);
  NestedArrays(kMaxValueDepth).Serialize(&w);
  ByteReader r(at_limit);
  Result<Value> decoded = Value::Deserialize(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, NestedArrays(kMaxValueDepth));

  std::string over;
  ByteWriter ow(&over);
  NestedArrays(kMaxValueDepth + 1).Serialize(&ow);
  ByteReader or_(over);
  EXPECT_EQ(Value::Deserialize(&or_).status().code(), StatusCode::kCorruption);

  // An object and a multiset one past the limit are corrupt too.
  for (ValueType outer : {ValueType::kObject, ValueType::kMultiset}) {
    std::string wrapped;
    ByteWriter ww(&wrapped);
    ww.PutU8(static_cast<uint8_t>(outer));
    ww.PutU32(1);
    if (outer == ValueType::kObject) ww.PutString("a");
    NestedArrays(kMaxValueDepth).Serialize(&ww);
    ByteReader wr(wrapped);
    EXPECT_EQ(Value::Deserialize(&wr).status().code(), StatusCode::kCorruption)
        << ValueTypeToString(outer);
  }

  std::string deep;
  ByteWriter dw(&deep);
  for (int i = 0; i < 1000000; ++i) {
    dw.PutU8(static_cast<uint8_t>(ValueType::kArray));
    dw.PutU32(1);
  }
  dw.PutU8(static_cast<uint8_t>(ValueType::kMissing));
  EXPECT_EQ(deep.size(), 5000001u);
  ByteReader dr(deep);
  Result<Value> too_deep = Value::Deserialize(&dr);
  ASSERT_FALSE(too_deep.ok());
  EXPECT_EQ(too_deep.status().code(), StatusCode::kCorruption);
}

// --- Wire framing (magic / version / length / CRC-32). The socket transport
// wraps every channel message in one of these frames; a frame
// that survives WriteFrame -> ReadFrame unchanged plus exhaustive rejection
// of damaged frames is what makes the round trip an identity on values.

TEST(WireTest, Crc32KnownVectors) {
  // IEEE 802.3 reference values ("check" input from the CRC catalogue).
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(Crc32("hello"), 0x3610a686u);
}

TEST(WireTest, FrameRoundTripsRandomValues) {
  Random rng(2024);
  for (int i = 0; i < 200; ++i) {
    Value v = RandomValue(rng, 0);
    std::string payload;
    ByteWriter w(&payload);
    v.Serialize(&w);
    std::string frame;
    WriteFrame(payload, &frame);
    ASSERT_EQ(frame.size(), kWireHeaderBytes + payload.size());
    ByteReader r(frame);
    Result<std::string_view> got = ReadFrame(&r);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, payload);
    EXPECT_EQ(r.remaining(), 0u);
    ByteReader pr(*got);
    Result<Value> back = Value::Deserialize(&pr);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(v, *back);
  }
}

TEST(WireTest, EveryTruncationFails) {
  std::string frame;
  WriteFrame("some payload bytes", &frame);
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    ByteReader r(std::string_view(frame).substr(0, cut));
    EXPECT_FALSE(ReadFrame(&r).ok()) << "cut=" << cut;
  }
}

TEST(WireTest, EverySingleByteCorruptionFails) {
  // Flipping any byte of the frame must be detected: header fields are
  // validated individually and the payload is covered by the checksum.
  std::string frame;
  WriteFrame("the quick brown fox", &frame);
  for (size_t i = 0; i < frame.size(); ++i) {
    std::string bad = frame;
    bad[i] = static_cast<char>(bad[i] ^ 0x20);
    ByteReader r(bad);
    Result<std::string_view> got = ReadFrame(&r);
    // A corrupted length byte may also leave trailing bytes behind; either
    // way the frame must not decode to the original payload silently.
    if (got.ok()) {
      EXPECT_NE(*got, std::string_view("the quick brown fox"))
          << "byte " << i;
      ADD_FAILURE() << "corrupted frame accepted at byte " << i;
    }
  }
}

TEST(WireTest, UnknownVersionRejected) {
  std::string frame;
  WriteFrame("payload", &frame);
  frame[4] = static_cast<char>(kWireVersion + 1);  // version byte
  ByteReader r(frame);
  Result<std::string_view> got = ReadFrame(&r);
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("version"), std::string::npos)
      << got.status().ToString();
}

TEST(WireTest, BadMagicRejected) {
  std::string frame;
  WriteFrame("payload", &frame);
  frame[0] = 'X';
  ByteReader r(frame);
  Result<std::string_view> got = ReadFrame(&r);
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("magic"), std::string::npos)
      << got.status().ToString();
}

TEST(WireTest, FramedPayloadWithUnknownValueTagRejected) {
  // A valid frame whose payload is not a valid serialized value: the frame
  // layer accepts it (checksum matches), the value layer must reject it —
  // corruption cannot hide between the layers.
  std::string payload = "\xff\xff\xff\xff";
  std::string frame;
  WriteFrame(payload, &frame);
  ByteReader r(frame);
  Result<std::string_view> got = ReadFrame(&r);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ByteReader pr(*got);
  EXPECT_FALSE(Value::Deserialize(&pr).ok());
}

TEST(WireTest, BackToBackFramesReadSequentially) {
  std::string buf;
  WriteFrame("first", &buf);
  WriteFrame("second", &buf);
  ByteReader r(buf);
  Result<std::string_view> a = ReadFrame(&r);
  Result<std::string_view> b = ReadFrame(&r);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, "first");
  EXPECT_EQ(*b, "second");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(MemoryUsageTest, GrowsWithContent) {
  Value small = Value::Int64(1);
  Value big = Value::String(std::string(1000, 'x'));
  EXPECT_GT(big.MemoryUsage(), small.MemoryUsage() + 900);
}

// --- Shared payloads. Lists and objects hold their elements in one
// immutable, refcounted payload: a copy shares it instead of rebuilding the
// tree, and must be indistinguishable from the original in every other way.

/// A join-side record as the three-stage Jaccard join carries it.
Value RankedRecord(int64_t id) {
  return Value::MakeObject(
      {{"id", Value::Int64(id)},
       {"ranks", Value::MakeArray({Value::Int64(3), Value::Int64(17),
                                   Value::Int64(40), Value::Int64(41)})},
       {"pt", Value::Int64(17)}});
}

std::string SerializedBytes(const Value& v) {
  std::string buf;
  ByteWriter w(&buf);
  v.Serialize(&w);
  return buf;
}

TEST(ValueTest, CopiesShareListAndObjectPayloads) {
  Value array = Value::MakeArray({Value::Int64(1), Value::String("a")});
  Value multiset = Value::MakeMultiset({Value::Int64(2), Value::Int64(2)});
  Value object = RankedRecord(7);
  Value array_copy = array;
  Value multiset_copy = multiset;
  Value object_copy = object;
  EXPECT_EQ(&array_copy.AsList(), &array.AsList());
  EXPECT_EQ(&multiset_copy.AsList(), &multiset.AsList());
  EXPECT_EQ(&object_copy.AsObject(), &object.AsObject());
  // Nested payloads are shared too: copying a row copies no tree.
  std::vector<Value> row = {object, Value::Int64(1)};
  std::vector<Value> row_copy = row;
  EXPECT_EQ(&row_copy[0].GetField("ranks").AsList(),
            &object.GetField("ranks").AsList());
}

TEST(ValueTest, CopyOutlivesOriginal) {
  auto original = std::make_unique<Value>(RankedRecord(9));
  const std::string bytes = SerializedBytes(*original);
  Value copy = *original;
  original.reset();
  EXPECT_EQ(copy.GetField("id").AsInt64(), 9);
  ASSERT_EQ(copy.GetField("ranks").AsList().size(), 4u);
  EXPECT_EQ(copy.GetField("ranks").AsList()[3].AsInt64(), 41);
  EXPECT_EQ(SerializedBytes(copy), bytes);
}

TEST(ValueTest, CopyIsIndistinguishableFromOriginal) {
  Random rng(2024);
  std::vector<Value> originals = {
      RankedRecord(1),
      Value::MakeMultiset({Value::String("x"), Value::Double(1.5)}),
      Value::MakeArray({}),
  };
  for (int i = 0; i < 200; ++i) originals.push_back(RandomValue(rng, 0));
  for (const Value& orig : originals) {
    Value copy = orig;
    EXPECT_EQ(Value::Compare(copy, orig), 0) << orig.ToJson();
    EXPECT_EQ(copy.Hash(), orig.Hash()) << orig.ToJson();
    EXPECT_EQ(SerializedBytes(copy), SerializedBytes(orig)) << orig.ToJson();
    // MemoryUsage is the unshared logical size: a copy charges in full.
    EXPECT_EQ(copy.MemoryUsage(), orig.MemoryUsage()) << orig.ToJson();
  }
  // Budgets and the modeled network bytes charge sizeof(Value) per value.
  EXPECT_EQ(sizeof(Value), 48u);
}

TEST(ValueTest, ConcurrentCopiesOfOneRecord) {
  const Value record = RankedRecord(42);
  const Value::Array* ranks = &record.GetField("ranks").AsList();
  constexpr size_t kThreads = 8;
  constexpr int kIterations = 20000;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        Value copy = record;
        const Value& r = copy.GetField("ranks");
        if (&r.AsList() != ranks || r.AsList().size() != 4 ||
            r.AsList()[1].AsInt64() != 17) {
          ++mismatches[t];
        }
        std::vector<Value> row = {copy, r, Value::Int64(i)};
        if (row[1].AsList().back().AsInt64() != 41) ++mismatches[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
  EXPECT_EQ(record.GetField("ranks").AsList()[0].AsInt64(), 3);
}

}  // namespace
}  // namespace simdb::adm
