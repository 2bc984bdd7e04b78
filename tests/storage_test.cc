#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <random>
#include <set>

#include "common/logging.h"
#include "common/random.h"
#include "similarity/edit_distance.h"
#include "similarity/jaccard.h"
#include "similarity/simd_kernels.h"
#include "similarity/tokenizer.h"
#include "storage/catalog.h"
#include "storage/dataset.h"
#include "storage/file_util.h"
#include "storage/inverted_index.h"
#include "storage/key.h"
#include "storage/lsm_index.h"
#include "storage/sorted_run.h"

namespace simdb::storage {
namespace {

using adm::Value;

class TempDir {
 public:
  TempDir() {
    static int counter = 0;
    path_ = (std::filesystem::temp_directory_path() /
             ("simdb_test_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter++)))
                .string();
    SIMDB_CHECK(EnsureDir(path_).ok()) << path_;
  }
  ~TempDir() { RemoveAllBestEffort(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

CompositeKey IntKey(int64_t v) { return {Value::Int64(v)}; }

// ---------- keys ----------

TEST(KeyTest, CompareLexicographic) {
  CompositeKey a = {Value::String("x"), Value::Int64(1)};
  CompositeKey b = {Value::String("x"), Value::Int64(2)};
  CompositeKey c = {Value::String("y")};
  EXPECT_LT(CompareKeys(a, b), 0);
  EXPECT_LT(CompareKeys(b, c), 0);
  EXPECT_EQ(CompareKeys(a, a), 0);
  EXPECT_LT(CompareKeys(c, {Value::String("y"), Value::Int64(0)}), 0);
}

TEST(KeyTest, EncodeDecodeRoundTrip) {
  CompositeKey key = {Value::String("tok"), Value::Int64(42),
                      Value::Double(1.5)};
  Result<CompositeKey> back = DecodeKey(EncodeKey(key));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(CompareKeys(key, *back), 0);
}

// ---------- sorted runs ----------

TEST(SortedRunTest, WriteReadScan) {
  TempDir dir;
  std::string path = dir.path() + "/run.dat";
  SortedRunWriter writer(path, /*sparse_interval=*/4);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(writer.Add(EntryKind::kPut, IntKey(i * 2),
                           "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());

  auto reader = SortedRunReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->entry_count(), 100u);

  auto it = (*reader)->NewIterator(nullptr);
  ASSERT_TRUE(it.ok());
  int count = 0;
  while ((*it)->Valid()) {
    EXPECT_EQ((*it)->key()[0].AsInt64(), count * 2);
    ASSERT_TRUE((*it)->Next().ok());
    ++count;
  }
  EXPECT_EQ(count, 100);
}

TEST(SortedRunTest, SeekFindsLowerBound) {
  TempDir dir;
  std::string path = dir.path() + "/run.dat";
  SortedRunWriter writer(path, 4);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(writer.Add(EntryKind::kPut, IntKey(i * 10), "").ok());
  }
  ASSERT_TRUE(writer.Finish().ok());
  auto reader = *SortedRunReader::Open(path);

  for (int64_t probe : {-5, 0, 5, 10, 123, 490, 495}) {
    CompositeKey k = IntKey(probe);
    auto it = *reader->NewIterator(&k);
    if (probe <= 490) {
      ASSERT_TRUE(it->Valid()) << probe;
      int64_t expected = ((probe + 9) / 10) * 10;
      if (probe <= 0) expected = 0;
      EXPECT_EQ(it->key()[0].AsInt64(), expected) << probe;
    } else {
      EXPECT_FALSE(it->Valid());
    }
  }
}

TEST(SortedRunTest, GetPointLookup) {
  TempDir dir;
  std::string path = dir.path() + "/run.dat";
  SortedRunWriter writer(path, 8);
  ASSERT_TRUE(writer.Add(EntryKind::kPut, IntKey(1), "one").ok());
  ASSERT_TRUE(writer.Add(EntryKind::kTombstone, IntKey(2), "").ok());
  ASSERT_TRUE(writer.Add(EntryKind::kPut, IntKey(3), "three").ok());
  ASSERT_TRUE(writer.Finish().ok());
  auto reader = *SortedRunReader::Open(path);

  auto v1 = *reader->Get(IntKey(1));
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(v1->second, "one");
  auto v2 = *reader->Get(IntKey(2));
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(v2->first, EntryKind::kTombstone);
  EXPECT_FALSE((*reader->Get(IntKey(99))).has_value());
}

TEST(SortedRunTest, RejectsOutOfOrder) {
  TempDir dir;
  SortedRunWriter writer(dir.path() + "/run.dat", 8);
  ASSERT_TRUE(writer.Add(EntryKind::kPut, IntKey(5), "").ok());
  EXPECT_FALSE(writer.Add(EntryKind::kPut, IntKey(5), "").ok());
  EXPECT_FALSE(writer.Add(EntryKind::kPut, IntKey(4), "").ok());
}

TEST(SortedRunTest, CorruptFileDetected) {
  TempDir dir;
  std::string path = dir.path() + "/bad.dat";
  ASSERT_TRUE(WriteFileAtomic(path, "garbage").ok());
  EXPECT_FALSE(SortedRunReader::Open(path).ok());
}

/// Peak resident set size of this process so far, in MiB.
int64_t PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<int64_t>(usage.ru_maxrss) / 1024;  // Linux: KiB
}

/// Writes a small valid run at `path`, lets `patch` corrupt its bytes, and
/// writes them back.
void WritePatchedRun(const std::string& path,
                     const std::function<void(std::string&)>& patch) {
  SortedRunWriter writer(path, 4);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(writer.Add(EntryKind::kPut, IntKey(i), "v").ok());
  }
  ASSERT_TRUE(writer.Finish().ok());
  Result<std::string> bytes = ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  patch(*bytes);
  ASSERT_TRUE(WriteFileAtomic(path, *bytes).ok());
}

/// Offset of the sparse index block: the footer's first field.
uint64_t IndexOffset(const std::string& bytes) {
  uint64_t offset = 0;
  std::memcpy(&offset, bytes.data() + bytes.size() - 24, 8);
  return offset;
}

TEST(SortedRunTest, HugeKeyLengthIsCorruptionWithoutHugeAllocation) {
  TempDir dir;
  std::string path = dir.path() + "/run.dat";
  WritePatchedRun(path, [](std::string& bytes) {
    // The first entry's key length follows its kind byte.
    uint32_t klen = 0x7FFFFFF0;
    std::memcpy(bytes.data() + 1, &klen, 4);
  });
  int64_t rss_before = PeakRssMib();
  auto reader = SortedRunReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto it = (*reader)->NewIterator(nullptr);
  ASSERT_FALSE(it.ok());
  EXPECT_EQ(it.status().code(), StatusCode::kCorruption);
  EXPECT_LT(PeakRssMib() - rss_before, 64);
}

TEST(SortedRunTest, HugeSparseCountIsCorruptionWithoutHugeAllocation) {
  TempDir dir;
  std::string path = dir.path() + "/run.dat";
  WritePatchedRun(path, [](std::string& bytes) {
    uint32_t count = 0xFFFFFFFF;  // the index block opens with its count
    std::memcpy(bytes.data() + IndexOffset(bytes), &count, 4);
  });
  int64_t rss_before = PeakRssMib();
  auto reader = SortedRunReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
  EXPECT_LT(PeakRssMib() - rss_before, 64);
}

TEST(SortedRunTest, BadEntryKindAndSparseOffsetAreCorruption) {
  TempDir dir;
  std::string path = dir.path() + "/kind.dat";
  WritePatchedRun(path, [](std::string& bytes) { bytes[0] = 7; });
  auto reader = SortedRunReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto it = (*reader)->NewIterator(nullptr);
  ASSERT_FALSE(it.ok());
  EXPECT_EQ(it.status().code(), StatusCode::kCorruption);

  path = dir.path() + "/offset.dat";
  WritePatchedRun(path, [](std::string& bytes) {
    // The first sparse entry: [u32 count][u32 klen][key][u64 offset].
    uint64_t at = IndexOffset(bytes) + 4;
    uint32_t klen = 0;
    std::memcpy(&klen, bytes.data() + at, 4);
    uint64_t past_end = IndexOffset(bytes) + 1;
    std::memcpy(bytes.data() + at + 4 + klen, &past_end, 8);
  });
  auto bad_offset = SortedRunReader::Open(path);
  ASSERT_FALSE(bad_offset.ok());
  EXPECT_EQ(bad_offset.status().code(), StatusCode::kCorruption);
}

/// Offset of the `i`-th sparse entry's file-offset field: the index block
/// is [u32 count] then [u32 klen][key][u64 offset] per entry.
uint64_t SparseOffsetField(const std::string& bytes, int i) {
  uint64_t at = IndexOffset(bytes) + 4;
  for (int j = 0;; ++j) {
    uint32_t klen = 0;
    std::memcpy(&klen, bytes.data() + at, 4);
    if (j == i) return at + 4 + klen;
    at += 4 + klen + 8;
  }
}

void PutU64At(std::string& bytes, uint64_t at, uint64_t v) {
  std::memcpy(bytes.data() + at, &v, 8);
}

/// Open rejects, as kCorruption, every sparse index the block reader could
/// not trust. WritePatchedRun writes 20 entries at interval 4: 5 blocks.
TEST(SortedRunTest, UntrustworthySparseIndexIsCorruption) {
  TempDir dir;
  const std::pair<const char*, std::function<void(std::string&)>> patches[] =
      {
          {"first offset not 0",
           [](std::string& b) { PutU64At(b, SparseOffsetField(b, 0), 1); }},
          {"offsets not strictly increasing",
           [](std::string& b) {
             uint64_t second = 0;
             std::memcpy(&second, b.data() + SparseOffsetField(b, 1), 8);
             PutU64At(b, SparseOffsetField(b, 2), second);
           }},
          {"count != ceil(entries / interval)",
           // The footer's entry count: 21 entries need 6 blocks, not 5.
           [](std::string& b) { PutU64At(b, b.size() - 16, 21); }},
          {"interval 0",
           [](std::string& b) {
             uint32_t zero = 0;
             std::memcpy(b.data() + b.size() - 8, &zero, 4);
           }},
      };
  int n = 0;
  for (const auto& [what, patch] : patches) {
    std::string path = dir.path() + "/run" + std::to_string(n++) + ".dat";
    WritePatchedRun(path, patch);
    auto reader = SortedRunReader::Open(path);
    ASSERT_FALSE(reader.ok()) << what;
    EXPECT_EQ(reader.status().code(), StatusCode::kCorruption) << what;
  }
}

// ---------- LSM ----------

TEST(LsmTest, PutGetDelete) {
  TempDir dir;
  auto lsm = *LsmIndex::Open(dir.path() + "/lsm");
  ASSERT_TRUE(lsm->Put(IntKey(1), "a").ok());
  ASSERT_TRUE(lsm->Put(IntKey(2), "b").ok());
  EXPECT_EQ(**lsm->Get(IntKey(1)), "a");
  ASSERT_TRUE(lsm->Delete(IntKey(1)).ok());
  EXPECT_FALSE((*lsm->Get(IntKey(1))).has_value());
  EXPECT_EQ(**lsm->Get(IntKey(2)), "b");
}

TEST(LsmTest, OverwriteKeepsNewest) {
  TempDir dir;
  auto lsm = *LsmIndex::Open(dir.path() + "/lsm");
  ASSERT_TRUE(lsm->Put(IntKey(1), "old").ok());
  ASSERT_TRUE(lsm->Flush().ok());
  ASSERT_TRUE(lsm->Put(IntKey(1), "new").ok());
  EXPECT_EQ(**lsm->Get(IntKey(1)), "new");
  ASSERT_TRUE(lsm->Flush().ok());
  EXPECT_EQ(**lsm->Get(IntKey(1)), "new");
}

TEST(LsmTest, TombstoneSurvivesFlush) {
  TempDir dir;
  auto lsm = *LsmIndex::Open(dir.path() + "/lsm");
  ASSERT_TRUE(lsm->Put(IntKey(1), "x").ok());
  ASSERT_TRUE(lsm->Flush().ok());
  ASSERT_TRUE(lsm->Delete(IntKey(1)).ok());
  ASSERT_TRUE(lsm->Flush().ok());
  EXPECT_FALSE((*lsm->Get(IntKey(1))).has_value());
  auto it = *lsm->NewIterator();
  EXPECT_FALSE(it->Valid());
}

TEST(LsmTest, PersistsAcrossReopen) {
  TempDir dir;
  {
    auto lsm = *LsmIndex::Open(dir.path() + "/lsm");
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(lsm->Put(IntKey(i), std::to_string(i)).ok());
    }
    ASSERT_TRUE(lsm->Flush().ok());
  }
  auto lsm = *LsmIndex::Open(dir.path() + "/lsm");
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(**lsm->Get(IntKey(i)), std::to_string(i));
  }
}

TEST(LsmTest, CompactMergesRunsAndDropsTombstones) {
  TempDir dir;
  auto lsm = *LsmIndex::Open(dir.path() + "/lsm");
  for (int run = 0; run < 4; ++run) {
    for (int i = run * 10; i < run * 10 + 10; ++i) {
      ASSERT_TRUE(lsm->Put(IntKey(i), "v").ok());
    }
    ASSERT_TRUE(lsm->Flush().ok());
  }
  ASSERT_TRUE(lsm->Delete(IntKey(0)).ok());
  ASSERT_TRUE(lsm->Flush().ok());
  EXPECT_GT(lsm->num_runs(), 1u);
  ASSERT_TRUE(lsm->Compact().ok());
  EXPECT_EQ(lsm->num_runs(), 1u);
  EXPECT_FALSE((*lsm->Get(IntKey(0))).has_value());
  EXPECT_TRUE((*lsm->Get(IntKey(39))).has_value());
}

TEST(LsmTest, AutoFlushOnBudget) {
  TempDir dir;
  LsmOptions options;
  options.memtable_budget_bytes = 4096;
  auto lsm = *LsmIndex::Open(dir.path() + "/lsm", options);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(lsm->Put(IntKey(i), std::string(64, 'x')).ok());
  }
  EXPECT_GT(lsm->num_runs(), 0u);
  EXPECT_GT(lsm->DiskSizeBytes(), 0u);
}

TEST(LsmTest, InsertIsPutIfAbsent) {
  TempDir dir;
  auto lsm = *LsmIndex::Open(dir.path() + "/lsm");
  ASSERT_TRUE(lsm->Insert(IntKey(1), "a").ok());
  EXPECT_EQ(lsm->Insert(IntKey(1), "b").code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(lsm->Flush().ok());
  // Live in a run: still a duplicate, and the refusal leaves no trace.
  EXPECT_EQ(lsm->Insert(IntKey(1), "c").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(lsm->MemtableBytes(), 0u);
  EXPECT_EQ(**lsm->Get(IntKey(1)), "a");
  // A memtable tombstone may be overwritten...
  ASSERT_TRUE(lsm->Delete(IntKey(1)).ok());
  ASSERT_TRUE(lsm->Insert(IntKey(1), "d").ok());
  EXPECT_EQ(**lsm->Get(IntKey(1)), "d");
  // ...and so may a tombstone in a run.
  ASSERT_TRUE(lsm->Delete(IntKey(1)).ok());
  ASSERT_TRUE(lsm->Flush().ok());
  ASSERT_TRUE(lsm->Insert(IntKey(1), "e").ok());
  EXPECT_EQ(**lsm->Get(IntKey(1)), "e");
}

// PointReader against a std::map model over a live memtable and 4 runs at
// sparse interval 4, with overwrites and tombstones across flushes. Stored
// keys are even, so probing every integer from before the first key to
// past the last hits each stored key, the gap on both sides of it, and so
// both sides of every block boundary of every run. One reader answers each
// probe order: ascending with repeats, descending and random.
TEST(LsmTest, PointReaderMatchesModelInAnyProbeOrder) {
  TempDir dir;
  LsmOptions options;
  options.sparse_interval = 4;
  auto lsm = *LsmIndex::Open(dir.path() + "/lsm", options);
  std::map<int64_t, std::string> model;
  Random rng(7);
  auto mutate = [&](int round, int ops) {
    for (int op = 0; op < ops; ++op) {
      int64_t k = 2 * rng.UniformRange(0, 80);
      if (rng.Uniform(4) == 0) {
        ASSERT_TRUE(lsm->Delete(IntKey(k)).ok());
        model.erase(k);
      } else {
        std::string v = std::to_string(round) + "/" + std::to_string(op);
        ASSERT_TRUE(lsm->Put(IntKey(k), v).ok());
        model[k] = v;
      }
    }
  };
  for (int round = 0; round < 4; ++round) {
    mutate(round, 60);
    ASSERT_TRUE(lsm->Flush().ok());
  }
  mutate(4, 30);
  ASSERT_GE(lsm->num_runs(), 3u);
  ASSERT_GT(lsm->MemtableBytes(), 0u);

  std::vector<int64_t> ascending;
  for (int64_t k = -3; k <= 165; ++k) {
    ascending.push_back(k);
    if (k % 3 == 0) ascending.insert(ascending.end(), 2, k);
  }
  std::vector<int64_t> descending(ascending.rbegin(), ascending.rend());
  std::vector<int64_t> shuffled = ascending;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(11));
  for (const std::vector<int64_t>* order :
       {&ascending, &descending, &shuffled}) {
    LsmIndex::PointReader reader(*lsm);
    for (int64_t k : *order) {
      auto got = reader.Get(IntKey(k));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      auto it = model.find(k);
      if (it == model.end()) {
        EXPECT_FALSE(got->has_value()) << "key " << k;
      } else {
        ASSERT_TRUE(got->has_value()) << "key " << k;
        EXPECT_EQ(**got, it->second) << "key " << k;
      }
    }
  }
}

// Property: LSM behaves like std::map under random put/delete/get/scan.
class LsmModelProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LsmModelProperty, MatchesReferenceModel) {
  TempDir dir;
  LsmOptions options;
  options.memtable_budget_bytes = 2048;  // force frequent flushes
  options.max_runs = 3;                  // force compactions
  auto lsm = *LsmIndex::Open(dir.path() + "/lsm", options);
  std::map<int64_t, std::string> model;
  Random rng(GetParam());
  for (int op = 0; op < 2000; ++op) {
    int64_t k = rng.UniformRange(0, 150);
    switch (rng.Uniform(3)) {
      case 0: {
        std::string v = "v" + std::to_string(rng.Uniform(1000));
        ASSERT_TRUE(lsm->Put(IntKey(k), v).ok());
        model[k] = v;
        break;
      }
      case 1:
        ASSERT_TRUE(lsm->Delete(IntKey(k)).ok());
        model.erase(k);
        break;
      default: {
        auto got = *lsm->Get(IntKey(k));
        auto it = model.find(k);
        if (it == model.end()) {
          EXPECT_FALSE(got.has_value()) << "key " << k;
        } else {
          ASSERT_TRUE(got.has_value()) << "key " << k;
          EXPECT_EQ(*got, it->second);
        }
      }
    }
  }
  // MaybeMerge kept the run count within max_runs after every flush.
  EXPECT_LE(lsm->num_runs(), static_cast<size_t>(options.max_runs));
  // Full scan must equal the model.
  auto it = *lsm->NewIterator();
  auto mit = model.begin();
  while (it->Valid()) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(it->key()[0].AsInt64(), mit->first);
    EXPECT_EQ(it->value(), mit->second);
    ASSERT_TRUE(it->Next().ok());
    ++mit;
  }
  EXPECT_EQ(mit, model.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LsmModelProperty,
                         ::testing::Values(1, 22, 333, 4444));

TEST(LsmTest, RangeScanFromLowerBound) {
  TempDir dir;
  auto lsm = *LsmIndex::Open(dir.path() + "/lsm");
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(lsm->Put(IntKey(i), "").ok());
  ASSERT_TRUE(lsm->Flush().ok());
  for (int i = 50; i < 100; ++i) ASSERT_TRUE(lsm->Put(IntKey(i), "").ok());
  CompositeKey lower = IntKey(90);
  auto it = *lsm->NewIterator(&lower);
  int count = 0;
  while (it->Valid()) {
    EXPECT_GE(it->key()[0].AsInt64(), 90);
    ASSERT_TRUE(it->Next().ok());
    ++count;
  }
  EXPECT_EQ(count, 10);
}

TEST(LsmTest, BulkLoadSorted) {
  TempDir dir;
  auto lsm = *LsmIndex::Open(dir.path() + "/lsm");
  std::vector<std::pair<CompositeKey, std::string>> entries;
  for (int i = 0; i < 100; ++i) entries.push_back({IntKey(i), "b"});
  ASSERT_TRUE(lsm->BulkLoadSorted(entries).ok());
  EXPECT_EQ(**lsm->Get(IntKey(50)), "b");
  EXPECT_EQ(lsm->num_runs(), 1u);
}

// ---------- inverted index ----------

TEST(InvertedIndexTest, PaperFigure3Example) {
  // Figure 2/3 of the paper: usernames indexed by 2-grams; query "marla",
  // k=1 => T=2 produces candidates {2,3,5}.
  TempDir dir;
  auto index = *InvertedIndex::Open(dir.path() + "/inv");
  std::vector<std::pair<int64_t, std::string>> users = {
      {1, "james"}, {2, "mary"}, {3, "mario"}, {4, "jamie"}, {5, "maria"}};
  for (const auto& [pk, name] : users) {
    ASSERT_TRUE(index
                    ->Insert(similarity::DedupOccurrences(
                                 similarity::GramTokens(name, 2)),
                             pk)
                    .ok());
  }
  std::vector<std::string> query =
      similarity::DedupOccurrences(similarity::GramTokens("marla", 2));
  auto candidates = *index->SearchTOccurrence(query, 2);
  EXPECT_EQ(candidates, (std::vector<int64_t>{2, 3, 5}));
  // Verification keeps only review-id 5 ("maria" within ed 1 of "marla").
  std::vector<int64_t> verified;
  for (int64_t pk : candidates) {
    const std::string& name = users[static_cast<size_t>(pk - 1)].second;
    if (similarity::EditDistanceCheck(name, "marla", 1) >= 0) {
      verified.push_back(pk);
    }
  }
  EXPECT_EQ(verified, (std::vector<int64_t>{5}));
}

TEST(InvertedIndexTest, ScanCountAndHeapMergeAgree) {
  TempDir dir;
  auto index = *InvertedIndex::Open(dir.path() + "/inv");
  Random rng(5);
  std::vector<std::vector<std::string>> docs;
  for (int64_t pk = 0; pk < 200; ++pk) {
    std::vector<std::string> tokens;
    for (uint64_t i = 0, n = 1 + rng.Uniform(8); i < n; ++i) {
      tokens.push_back("t" + std::to_string(rng.Uniform(30)));
    }
    tokens = similarity::DedupOccurrences(tokens);
    docs.push_back(tokens);
    ASSERT_TRUE(index->Insert(tokens, pk).ok());
  }
  // One caller scratch reused across every probe, as INVERTED-SEARCH runs
  // ScanCount, besides the local scratch a null one means.
  simd::TOccurrenceScratch scratch;
  for (int q = 0; q < 20; ++q) {
    const std::vector<std::string>& query = docs[rng.Uniform(docs.size())];
    for (int t = 1; t <= 3; ++t) {
      auto scan = *index->SearchTOccurrence(query, t,
                                            TOccurrenceAlgorithm::kScanCount);
      auto heap = *index->SearchTOccurrence(query, t,
                                            TOccurrenceAlgorithm::kHeapMerge);
      auto reused = *index->SearchTOccurrence(
          query, t, TOccurrenceAlgorithm::kScanCount, /*stats=*/nullptr,
          /*use_cache=*/true, &scratch);
      EXPECT_EQ(scan, heap) << "t=" << t;
      EXPECT_EQ(reused, heap) << "t=" << t;
    }
  }
}

// One probe over 66,000 distinct indexed tokens: pk 1 is on every list, more
// than a 16-bit occurrence counter can count, pk 2 on every other one.
TEST(InvertedIndexTest, ScanCountCountsPastSixteenBits) {
  TempDir dir;
  auto index = *InvertedIndex::Open(dir.path() + "/inv");
  const int kTokens = 66000;
  std::vector<std::pair<std::string, int64_t>> postings;
  std::vector<std::string> query;
  for (int i = 0; i < kTokens; ++i) {
    query.push_back("tok" + std::to_string(i));
    postings.emplace_back(query.back(), 1);
    if (i % 2 == 0) postings.emplace_back(query.back(), 2);
  }
  postings.emplace_back("other", 3);
  ASSERT_TRUE(index->BulkLoad(std::move(postings)).ok());
  const std::pair<int, std::vector<int64_t>> cases[] = {
      {kTokens, {1}}, {kTokens / 2, {1, 2}}, {1, {1, 2}}};
  for (const auto& [t, want] : cases) {
    simd::TOccurrenceScratch scratch;
    // The caller scratch twice: its counters must be back at zero.
    for (simd::TOccurrenceScratch* s :
         std::vector<simd::TOccurrenceScratch*>{&scratch, &scratch, nullptr}) {
      Result<std::vector<int64_t>> scan = index->SearchTOccurrence(
          query, t, TOccurrenceAlgorithm::kScanCount, nullptr, true, s);
      ASSERT_TRUE(scan.ok()) << scan.status().ToString();
      EXPECT_EQ(*scan, want) << "t=" << t;
    }
    Result<std::vector<int64_t>> heap =
        index->SearchTOccurrence(query, t, TOccurrenceAlgorithm::kHeapMerge);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    EXPECT_EQ(*heap, want) << "t=" << t;
  }
}

TEST(InvertedIndexTest, RejectsNonPositiveT) {
  TempDir dir;
  auto index = *InvertedIndex::Open(dir.path() + "/inv");
  EXPECT_FALSE(index->SearchTOccurrence({"a"}, 0).ok());
}

TEST(InvertedIndexTest, StatsPopulated) {
  TempDir dir;
  auto index = *InvertedIndex::Open(dir.path() + "/inv");
  ASSERT_TRUE(index->Insert({"a", "b"}, 1).ok());
  ASSERT_TRUE(index->Insert({"a"}, 2).ok());
  InvertedSearchStats stats;
  auto result = *index->SearchTOccurrence({"a", "b"}, 1,
                                          TOccurrenceAlgorithm::kScanCount,
                                          &stats);
  EXPECT_EQ(result.size(), 2u);
  EXPECT_EQ(stats.lists_probed, 2u);
  EXPECT_EQ(stats.postings_read, 3u);
  EXPECT_EQ(stats.candidates, 2u);
}

// Two lifetimes over one directory: the first bulk-loads, inserts a few more
// postings and flushes; the second reopens the directory and must serve the
// same T-occurrence answers from the runs alone, with the same dictionary.
TEST(InvertedIndexTest, ReopenServesTheSameAnswers) {
  TempDir dir;
  const std::string path = dir.path() + "/inv";
  Random rng(13);
  std::vector<std::vector<std::string>> docs;
  for (int64_t pk = 0; pk < 150; ++pk) {
    std::string name;
    for (uint64_t i = 0, n = 3 + rng.Uniform(6); i < n; ++i) {
      name.push_back(static_cast<char>('a' + rng.Uniform(6)));
    }
    docs.push_back(
        similarity::DedupOccurrences(similarity::GramTokens(name, 2)));
  }
  std::vector<std::vector<int64_t>> answers;
  size_t dictionary_size = 0;
  {
    auto index = *InvertedIndex::Open(path);
    std::vector<std::pair<std::string, int64_t>> postings;
    for (int64_t pk = 0; pk < 120; ++pk) {
      for (const std::string& t : docs[pk]) postings.emplace_back(t, pk);
    }
    ASSERT_TRUE(index->BulkLoad(std::move(postings)).ok());
    for (int64_t pk = 120; pk < 150; ++pk) {
      ASSERT_TRUE(index->Insert(docs[pk], pk).ok());
    }
    ASSERT_TRUE(index->Flush().ok());
    EXPECT_EQ(index->lsm()->num_runs(), 2u);
    dictionary_size = index->dictionary().size();
    for (const auto& query : docs) {
      for (int t = 1; t <= 3; ++t) {
        answers.push_back(*index->SearchTOccurrence(query, t));
      }
    }
  }
  auto index = *InvertedIndex::Open(path);
  EXPECT_EQ(index->dictionary().size(), dictionary_size);
  size_t i = 0;
  for (const auto& query : docs) {
    for (int t = 1; t <= 3; ++t) {
      auto got = index->SearchTOccurrence(query, t);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, answers[i++]) << "t=" << t;
    }
  }
}

// Property: T-occurrence candidates are a superset of true edit-distance
// answers (no false negatives) whenever T > 0.
class TOccurrenceCompleteness : public ::testing::TestWithParam<int> {};

TEST_P(TOccurrenceCompleteness, NoFalseNegativesForEditDistance) {
  int k = GetParam();
  TempDir dir;
  auto index = *InvertedIndex::Open(dir.path() + "/inv");
  Random rng(101);
  std::vector<std::string> names;
  const char* pool[] = {"maria", "mario", "marla", "mary", "jamie",
                        "james", "marcus", "mark", "martha", "marion"};
  for (int64_t pk = 0; pk < 10; ++pk) {
    names.push_back(pool[pk]);
    ASSERT_TRUE(index
                    ->Insert(similarity::DedupOccurrences(
                                 similarity::GramTokens(pool[pk], 2)),
                             pk)
                    .ok());
  }
  for (const char* q : pool) {
    int t = similarity::EditDistanceTOccurrence(
        static_cast<int>(std::string(q).size()), 2, k);
    if (t <= 0) continue;  // corner case: index is not used
    auto candidates = *index->SearchTOccurrence(
        similarity::DedupOccurrences(similarity::GramTokens(q, 2)), t);
    std::set<int64_t> candidate_set(candidates.begin(), candidates.end());
    for (int64_t pk = 0; pk < 10; ++pk) {
      if (similarity::EditDistanceCheck(names[static_cast<size_t>(pk)], q, k) >=
          0) {
        EXPECT_TRUE(candidate_set.count(pk)) << q << " should match " << pk;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, TOccurrenceCompleteness,
                         ::testing::Values(1, 2));

// ---------- dataset / catalog ----------

Value ReviewRecord(int64_t id, const std::string& name,
                   const std::string& summary) {
  return Value::MakeObject({{"id", Value::Int64(id)},
                            {"reviewerName", Value::String(name)},
                            {"summary", Value::String(summary)}});
}

TEST(DatasetTest, InsertAndGet) {
  TempDir dir;
  auto ds = *Dataset::Create(dir.path() + "/ds", {"reviews", "id", 4});
  ASSERT_TRUE(ds->Insert(ReviewRecord(7, "maria", "great product")).ok());
  auto rec = *ds->GetByPk(7);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->GetField("reviewerName").AsString(), "maria");
  EXPECT_FALSE((*ds->GetByPk(8)).has_value());
}

TEST(DatasetTest, AutoGeneratedPk) {
  TempDir dir;
  auto ds = *Dataset::Create(dir.path() + "/ds", {"reviews", "id", 2});
  Value rec = Value::MakeObject({{"summary", Value::String("no pk here")}});
  int64_t pk1 = *ds->Insert(rec);
  int64_t pk2 = *ds->Insert(rec);
  EXPECT_NE(pk1, pk2);
  EXPECT_EQ((*ds->GetByPk(pk1))->GetField("id").AsInt64(), pk1);
}

TEST(DatasetTest, ScanPartitionsCoverAllRecords) {
  TempDir dir;
  auto ds = *Dataset::Create(dir.path() + "/ds", {"reviews", "id", 4});
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(ds->Insert(ReviewRecord(i, "n" + std::to_string(i), "s")).ok());
  }
  std::set<int64_t> seen;
  size_t nonempty = 0;
  for (int p = 0; p < 4; ++p) {
    auto records = *ds->ScanPartition(p);
    if (!records.empty()) ++nonempty;
    for (const Value& r : records) seen.insert(r.GetField("id").AsInt64());
  }
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(nonempty, 4u);  // hash partitioning spreads the data
}

TEST(DatasetTest, KeywordIndexSearch) {
  TempDir dir;
  auto ds = *Dataset::Create(dir.path() + "/ds", {"reviews", "id", 2});
  ASSERT_TRUE(ds->Insert(ReviewRecord(1, "a", "great product value")).ok());
  ASSERT_TRUE(ds->Insert(ReviewRecord(2, "b", "nice product")).ok());
  ASSERT_TRUE(ds->Insert(ReviewRecord(3, "c", "awful thing")).ok());
  ASSERT_TRUE(ds->CreateIndex({"smix", "summary",
                               similarity::IndexKind::kKeyword, 2, false})
                  .ok());
  // Probe both partitions for records sharing >= 1 token with the query.
  std::vector<std::string> query = similarity::DedupOccurrences(
      similarity::WordTokens("product quality"));
  std::set<int64_t> found;
  for (int p = 0; p < 2; ++p) {
    auto pks = *ds->inverted_index(p, "smix")->SearchTOccurrence(query, 1);
    found.insert(pks.begin(), pks.end());
  }
  EXPECT_EQ(found, (std::set<int64_t>{1, 2}));
}

TEST(DatasetTest, IndexMaintainedOnInsertAndDelete) {
  TempDir dir;
  auto ds = *Dataset::Create(dir.path() + "/ds", {"reviews", "id", 2});
  ASSERT_TRUE(ds->CreateIndex({"nix", "reviewerName",
                               similarity::IndexKind::kNGram, 2, false})
                  .ok());
  ASSERT_TRUE(ds->Insert(ReviewRecord(10, "maria", "x")).ok());
  std::vector<std::string> query =
      similarity::DedupOccurrences(similarity::GramTokens("maria", 2));
  int p = ds->PartitionOfPk(10);
  EXPECT_EQ((*ds->inverted_index(p, "nix")->SearchTOccurrence(query, 4)).size(),
            1u);
  ASSERT_TRUE(ds->Delete(10).ok());
  EXPECT_TRUE((*ds->inverted_index(p, "nix")->SearchTOccurrence(query, 4))
                  .empty());
  EXPECT_FALSE((*ds->GetByPk(10)).has_value());
}

// AsterixDB INSERT semantics: a pk that already holds a record is
// kAlreadyExists, and neither the count nor any secondary index changes.
TEST(DatasetTest, DuplicatePkIsAlreadyExists) {
  TempDir dir;
  auto ds = *Dataset::Create(dir.path() + "/ds", {"reviews", "id", 2});
  ASSERT_TRUE(ds->CreateIndex({"nix", "reviewerName",
                               similarity::IndexKind::kNGram, 2, false})
                  .ok());
  ASSERT_TRUE(ds->Insert(ReviewRecord(10, "maria", "x")).ok());
  Result<int64_t> again = ds->Insert(ReviewRecord(10, "zzzzz", "y"));
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(ds->record_count(), 1);
  EXPECT_EQ((*ds->GetByPk(10))->GetField("reviewerName").AsString(), "maria");
  const int p = ds->PartitionOfPk(10);
  InvertedIndex* nix = ds->inverted_index(p, "nix");
  auto grams = [](const std::string& s) {
    return similarity::DedupOccurrences(similarity::GramTokens(s, 2));
  };
  EXPECT_TRUE((*nix->SearchTOccurrence(grams("zzzzz"), 1)).empty());

  // Once the record is in a run, a duplicate is still refused.
  ASSERT_TRUE(ds->FlushAll().ok());
  EXPECT_EQ(ds->Insert(ReviewRecord(10, "zzzzz", "y")).status().code(),
            StatusCode::kAlreadyExists);

  ASSERT_TRUE(ds->Delete(10).ok());
  EXPECT_EQ(ds->record_count(), 0);
  EXPECT_TRUE((*nix->SearchTOccurrence(grams("maria"), 1)).empty());
  EXPECT_TRUE((*nix->SearchTOccurrence(grams("zzzzz"), 1)).empty());
  // A deleted pk may be inserted again.
  ASSERT_TRUE(ds->Insert(ReviewRecord(10, "zzzzz", "y")).ok());
  EXPECT_EQ(ds->record_count(), 1);
}

TEST(DatasetTest, BtreeIndexSearch) {
  TempDir dir;
  auto ds = *Dataset::Create(dir.path() + "/ds", {"reviews", "id", 2});
  ASSERT_TRUE(ds->Insert(ReviewRecord(1, "maria", "x")).ok());
  ASSERT_TRUE(ds->Insert(ReviewRecord(2, "maria", "y")).ok());
  ASSERT_TRUE(ds->Insert(ReviewRecord(3, "james", "z")).ok());
  ASSERT_TRUE(
      ds->CreateIndex({"bt", "reviewerName", similarity::IndexKind::kBtree,
                       0, false})
          .ok());
  std::set<int64_t> found;
  for (int p = 0; p < 2; ++p) {
    auto pks = *ds->BtreeSearch(p, "bt", Value::String("maria"));
    found.insert(pks.begin(), pks.end());
  }
  EXPECT_EQ(found, (std::set<int64_t>{1, 2}));
}

TEST(DatasetTest, FindIndexOnField) {
  TempDir dir;
  auto ds = *Dataset::Create(dir.path() + "/ds", {"reviews", "id", 2});
  ASSERT_TRUE(ds->CreateIndex({"smix", "summary",
                               similarity::IndexKind::kKeyword, 2, false})
                  .ok());
  EXPECT_NE(ds->FindIndexOnField("summary", similarity::IndexKind::kKeyword),
            nullptr);
  EXPECT_EQ(ds->FindIndexOnField("summary", similarity::IndexKind::kNGram),
            nullptr);
  EXPECT_EQ(ds->FindIndexOnField("other", std::nullopt), nullptr);
}

TEST(DatasetTest, DuplicateIndexRejected) {
  TempDir dir;
  auto ds = *Dataset::Create(dir.path() + "/ds", {"reviews", "id", 2});
  IndexSpec spec{"smix", "summary", similarity::IndexKind::kKeyword, 2, false};
  ASSERT_TRUE(ds->CreateIndex(spec).ok());
  EXPECT_FALSE(ds->CreateIndex(spec).ok());
}

TEST(DatasetTest, DiskSizesReported) {
  TempDir dir;
  auto ds = *Dataset::Create(dir.path() + "/ds", {"reviews", "id", 2});
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        ds->Insert(ReviewRecord(i, "name" + std::to_string(i),
                                "summary text number " + std::to_string(i)))
            .ok());
  }
  ASSERT_TRUE(ds->CreateIndex({"smix", "summary",
                               similarity::IndexKind::kKeyword, 2, false})
                  .ok());
  ASSERT_TRUE(ds->FlushAll().ok());
  EXPECT_GT(ds->PrimaryDiskSize(), 0u);
  EXPECT_GT(ds->IndexDiskSize("smix"), 0u);
}

TEST(CatalogTest, CreateFindDrop) {
  TempDir dir;
  Catalog catalog(dir.path());
  auto ds = catalog.CreateDataset({"reviews", "id", 2});
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(catalog.Find("reviews"), *ds);
  EXPECT_FALSE(catalog.CreateDataset({"reviews", "id", 2}).ok());
  ASSERT_TRUE(catalog.DropDataset("reviews").ok());
  EXPECT_EQ(catalog.Find("reviews"), nullptr);
  EXPECT_FALSE(catalog.DropDataset("reviews").ok());
}

}  // namespace
}  // namespace simdb::storage
