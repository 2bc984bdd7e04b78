// Micro-benchmarks (google-benchmark) of the similarity and storage kernels
// underlying every experiment: tokenizers, edit-distance DP vs. the banded
// verifier, Jaccard merge vs. the early-terminating check, the two
// T-occurrence list-merge algorithms, LSM point operations, and the row copy
// every operator makes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>

#include "adm/value.h"
#include "common/random.h"
#include "hyracks/tuple.h"
#include "similarity/edit_distance.h"
#include "similarity/jaccard.h"
#include "similarity/simd_kernels.h"
#include "similarity/tokenizer.h"
#include "storage/file_util.h"
#include "storage/inverted_index.h"
#include "storage/lsm_index.h"
#include "storage/token_dictionary.h"

namespace {

using namespace simdb;

std::string RandomString(Random& rng, size_t len) {
  std::string s;
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>('a' + rng.Uniform(26)));
  }
  return s;
}

void BM_WordTokens(benchmark::State& state) {
  std::string text =
      "great product fantastic gift better than i ever expected to buy";
  for (auto _ : state) {
    benchmark::DoNotOptimize(similarity::WordTokens(text));
  }
}
BENCHMARK(BM_WordTokens);

void BM_GramTokens(benchmark::State& state) {
  std::string text = "supercalifragilisticexpialidocious";
  for (auto _ : state) {
    benchmark::DoNotOptimize(similarity::GramTokens(text, 2));
  }
}
BENCHMARK(BM_GramTokens);

void BM_EditDistanceFull(benchmark::State& state) {
  Random rng(1);
  std::string a = RandomString(rng, static_cast<size_t>(state.range(0)));
  std::string b = RandomString(rng, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(similarity::EditDistance(a, b));
  }
}
BENCHMARK(BM_EditDistanceFull)->Arg(10)->Arg(40)->Arg(160);

void BM_EditDistanceCheckBanded(benchmark::State& state) {
  Random rng(1);
  std::string a = RandomString(rng, static_cast<size_t>(state.range(0)));
  std::string b = a;
  b[0] = '#';
  for (auto _ : state) {
    benchmark::DoNotOptimize(similarity::EditDistanceCheck(a, b, 2));
  }
}
BENCHMARK(BM_EditDistanceCheckBanded)->Arg(10)->Arg(40)->Arg(160);

std::vector<std::string> RandomTokens(Random& rng, size_t n) {
  std::vector<std::string> tokens;
  for (size_t i = 0; i < n; ++i) {
    tokens.push_back("tok" + std::to_string(rng.Uniform(400)));
  }
  std::sort(tokens.begin(), tokens.end());
  return tokens;
}

void BM_JaccardExact(benchmark::State& state) {
  Random rng(2);
  auto a = RandomTokens(rng, static_cast<size_t>(state.range(0)));
  auto b = RandomTokens(rng, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(similarity::JaccardSorted(a, b));
  }
}
BENCHMARK(BM_JaccardExact)->Arg(8)->Arg(64);

void BM_JaccardCheckEarlyTermination(benchmark::State& state) {
  Random rng(2);
  auto a = RandomTokens(rng, static_cast<size_t>(state.range(0)));
  auto b = RandomTokens(rng, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(similarity::JaccardCheckSorted(a, b, 0.9));
  }
}
BENCHMARK(BM_JaccardCheckEarlyTermination)->Arg(8)->Arg(64);

/// Same token distribution as the string kernels above, dictionary-encoded
/// to dense ids — the representation the verify operators run on once the
/// inverted index hands out integer postings.
std::vector<uint32_t> EncodeIds(storage::TokenDictionary& dict,
                                const std::vector<std::string>& tokens) {
  std::vector<uint32_t> ids;
  ids.reserve(tokens.size());
  for (const std::string& t : tokens) ids.push_back(dict.GetOrAssign(t));
  std::sort(ids.begin(), ids.end());
  return ids;
}

void BM_JaccardExactIds(benchmark::State& state) {
  Random rng(2);
  storage::TokenDictionary dict;
  auto a = EncodeIds(dict, RandomTokens(rng, static_cast<size_t>(state.range(0))));
  auto b = EncodeIds(dict, RandomTokens(rng, static_cast<size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(similarity::JaccardSortedIds(a, b));
  }
}
BENCHMARK(BM_JaccardExactIds)->Arg(8)->Arg(64);

void BM_JaccardCheckIds(benchmark::State& state) {
  Random rng(2);
  storage::TokenDictionary dict;
  auto a = EncodeIds(dict, RandomTokens(rng, static_cast<size_t>(state.range(0))));
  auto b = EncodeIds(dict, RandomTokens(rng, static_cast<size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(similarity::JaccardCheckSortedIds(a, b, 0.9));
  }
}
BENCHMARK(BM_JaccardCheckIds)->Arg(8)->Arg(64);

// ---------------------------------------------------------------------------
// Batch/SIMD kernels (runtime-dispatched; compare against the scalar
// per-pair baselines above).
// ---------------------------------------------------------------------------

void BM_JaccardCheckIdsSimd(benchmark::State& state) {
  Random rng(2);
  storage::TokenDictionary dict;
  auto a = EncodeIds(dict, RandomTokens(rng, static_cast<size_t>(state.range(0))));
  auto b = EncodeIds(dict, RandomTokens(rng, static_cast<size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simd::JaccardCheckSortedIds(a.data(), a.size(), b.data(), b.size(), 0.9));
  }
}
BENCHMARK(BM_JaccardCheckIdsSimd)->Arg(8)->Arg(64);

/// Near-threshold verify workload: candidates that survived the length and
/// T-occurrence filters share most of the probe's tokens, so verification
/// has to merge deep into both lists before it can decide. Ids are
/// occurrence-distinct (always unique within a list), exactly what the
/// operators' TokenIdEncoder produces. Candidate i replaces d random probe
/// ids with fresh ones in place (the lists stay sorted and unique), giving
/// Jaccard (len-d)/(len+d) — a mix of accepts and rejects around 0.9.
struct JaccardWorkload {
  std::vector<uint32_t> probe;
  std::vector<std::vector<uint32_t>> candidates;
  std::vector<uint32_t> ids;        // candidates in CSR form
  std::vector<size_t> offsets{0};
};

JaccardWorkload MakeJaccardWorkload(size_t len, size_t n) {
  Random rng(2);
  JaccardWorkload w;
  for (size_t j = 0; j < len; ++j) {
    w.probe.push_back(static_cast<uint32_t>(1000 * j));
  }
  const uint32_t max_d = static_cast<uint32_t>(len / 10 + 2);
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint32_t> cand = w.probe;
    const uint32_t d = rng.Uniform(max_d + 1);
    for (uint32_t r = 0; r < d; ++r) {
      const size_t p = rng.Uniform(static_cast<uint32_t>(len));
      cand[p] = static_cast<uint32_t>(1000 * p + 1 + rng.Uniform(998));
    }
    w.ids.insert(w.ids.end(), cand.begin(), cand.end());
    w.offsets.push_back(w.ids.size());
    w.candidates.push_back(std::move(cand));
  }
  return w;
}

/// The PR 2 scalar kernel called once per pair over the near-threshold
/// workload — the baseline the batch kernel's per-item time is compared
/// against.
void BM_JaccardCheckIdsScalarBatch(benchmark::State& state) {
  JaccardWorkload w =
      MakeJaccardWorkload(static_cast<size_t>(state.range(0)), 1024);
  std::vector<double> out(w.candidates.size());
  for (auto _ : state) {
    for (size_t i = 0; i < w.candidates.size(); ++i) {
      out[i] = similarity::JaccardCheckSortedIds(w.probe, w.candidates[i], 0.9);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(w.candidates.size()));
}
BENCHMARK(BM_JaccardCheckIdsScalarBatch)->Arg(8)->Arg(64);

/// Verifies 1024 candidates per call through the CSR batch kernel — the
/// shape NL-JOIN's batch path produces. Per-item time against
/// BM_JaccardCheckIdsScalarBatch is the batch-execution speedup.
void BM_JaccardCheckIdsBatch(benchmark::State& state) {
  JaccardWorkload w =
      MakeJaccardWorkload(static_cast<size_t>(state.range(0)), 1024);
  const size_t n = w.candidates.size();
  std::vector<double> out(n);
  for (auto _ : state) {
    simd::JaccardCheckBatch(w.probe.data(), w.probe.size(), w.ids.data(),
                            w.offsets.data(), n, 0.9, out.data(),
                            /*assume_unique=*/true);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_JaccardCheckIdsBatch)->Arg(8)->Arg(64);

void BM_EditDistanceCheckMyers(benchmark::State& state) {
  Random rng(1);
  std::string a = RandomString(rng, static_cast<size_t>(state.range(0)));
  std::string b = a;
  b[0] = '#';
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::EditDistanceCheck(a, b, 2));
  }
}
BENCHMARK(BM_EditDistanceCheckMyers)->Arg(10)->Arg(40);

/// Verifies 1024 candidate strings against one pattern per call (the
/// NL-JOIN batch shape): the bit-parallel pattern is preprocessed once and
/// equal-length candidates run four per AVX2 vector.
void BM_EditDistanceCheckBatch(benchmark::State& state) {
  Random rng(1);
  const size_t n = 1024;
  const size_t len = static_cast<size_t>(state.range(0));
  std::string pattern = RandomString(rng, len);
  std::vector<char> chars;
  std::vector<size_t> offsets{0};
  for (size_t i = 0; i < n; ++i) {
    std::string cand = pattern;
    cand[rng.Uniform(static_cast<uint32_t>(len))] = '#';
    chars.insert(chars.end(), cand.begin(), cand.end());
    offsets.push_back(chars.size());
  }
  std::vector<int> out(n);
  simd::EditDistancePattern prepared(pattern);
  for (auto _ : state) {
    prepared.CheckBatch(chars.data(), offsets.data(), n, 2, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_EditDistanceCheckBatch)->Arg(10)->Arg(40);

/// Shared inverted index used by the T-occurrence benchmarks.
class InvertedIndexFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (index_ != nullptr) return;
    dir_ = (std::filesystem::temp_directory_path() /
            ("simdb_kernels_" + std::to_string(::getpid())))
               .string();
    index_ = *storage::InvertedIndex::Open(dir_ + "/inv");
    Random rng(3);
    for (int64_t pk = 0; pk < 5000; ++pk) {
      std::vector<std::string> tokens;
      for (int t = 0; t < 8; ++t) {
        tokens.push_back("tok" + std::to_string(rng.Uniform(500)));
      }
      // Benchmark setup over a fresh index; an insert failure would
      // surface as wrong benchmark cardinalities.
      (void)index_->Insert(similarity::DedupOccurrences(tokens), pk);
    }
    query_ = similarity::DedupOccurrences(RandomTokens(rng, 8));
  }

  static std::unique_ptr<storage::InvertedIndex> index_;
  static std::vector<std::string> query_;
  static std::string dir_;
};

std::unique_ptr<storage::InvertedIndex> InvertedIndexFixture::index_;
std::vector<std::string> InvertedIndexFixture::query_;
std::string InvertedIndexFixture::dir_;

BENCHMARK_DEFINE_F(InvertedIndexFixture, TOccurrenceScanCount)
(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(index_->SearchTOccurrence(
        query_, 4, storage::TOccurrenceAlgorithm::kScanCount));
  }
}
BENCHMARK_REGISTER_F(InvertedIndexFixture, TOccurrenceScanCount);

BENCHMARK_DEFINE_F(InvertedIndexFixture, TOccurrenceHeapMerge)
(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(index_->SearchTOccurrence(
        query_, 4, storage::TOccurrenceAlgorithm::kHeapMerge));
  }
}
BENCHMARK_REGISTER_F(InvertedIndexFixture, TOccurrenceHeapMerge);

// ScanCount with a caller scratch reused across probes, as INVERTED-SEARCH
// runs it. TOccurrenceScanCount runs the same counter path with a scratch
// built for each call, so the gap is the counter array's allocation.
BENCHMARK_DEFINE_F(InvertedIndexFixture, TOccurrenceBatch)
(benchmark::State& state) {
  simd::TOccurrenceScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index_->SearchTOccurrence(
        query_, 4, storage::TOccurrenceAlgorithm::kScanCount,
        /*stats=*/nullptr, /*use_cache=*/true, &scratch));
  }
}
BENCHMARK_REGISTER_F(InvertedIndexFixture, TOccurrenceBatch);

// Cold path: every probe decodes its posting lists from the LSM instead of
// hitting the decoded-list cache, isolating the cache's contribution.
BENCHMARK_DEFINE_F(InvertedIndexFixture, TOccurrenceScanCountNoCache)
(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(index_->SearchTOccurrence(
        query_, 4, storage::TOccurrenceAlgorithm::kScanCount,
        /*stats=*/nullptr, /*use_cache=*/false));
  }
}
BENCHMARK_REGISTER_F(InvertedIndexFixture, TOccurrenceScanCountNoCache);

void BM_LsmPut(benchmark::State& state) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("simdb_lsmput_" + std::to_string(::getpid())))
                        .string();
  auto lsm = *storage::LsmIndex::Open(dir);
  Random rng(4);
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lsm->Put({adm::Value::Int64(i++)}, "payload-bytes"));
  }
  state.SetItemsProcessed(i);
  lsm.reset();
  storage::RemoveAllBestEffort(dir);
}
BENCHMARK(BM_LsmPut);

void BM_LsmGet(benchmark::State& state) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("simdb_lsmget_" + std::to_string(::getpid())))
                        .string();
  auto lsm = *storage::LsmIndex::Open(dir);
  for (int64_t i = 0; i < 10000; ++i) {
    // Setup writes to a fresh scratch LSM cannot meaningfully fail.
    (void)lsm->Put({adm::Value::Int64(i)}, "payload");
  }
  (void)lsm->Flush();  // setup flush on a fresh scratch LSM
  Random rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lsm->Get({adm::Value::Int64(rng.UniformRange(0, 9999))}));
  }
  lsm.reset();
  storage::RemoveAllBestEffort(dir);
}
BENCHMARK(BM_LsmGet);

// The PRIMARY-LOOKUP access pattern: 10,000 pk-sorted probes with repeats
// (each key about twice), answered through one PointReader over a flushed
// run, so the run cursor only moves forward. Items are probes; compare the
// per-item time with BM_LsmGet's one-shot random lookups.
void BM_LsmGetSorted(benchmark::State& state) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("simdb_lsmgetsorted_" + std::to_string(::getpid())))
                        .string();
  auto lsm = *storage::LsmIndex::Open(dir);
  for (int64_t i = 0; i < 10000; ++i) {
    // Setup writes to a fresh scratch LSM cannot meaningfully fail.
    (void)lsm->Put({adm::Value::Int64(i)}, "payload");
  }
  (void)lsm->Flush();  // setup flush on a fresh scratch LSM
  Random rng(6);
  std::vector<storage::CompositeKey> probes;
  for (int i = 0; i < 10000; ++i) {
    probes.push_back({adm::Value::Int64(rng.UniformRange(0, 4999) * 2)});
  }
  std::sort(probes.begin(), probes.end(), storage::KeyLess());
  int64_t items = 0;
  for (auto _ : state) {
    storage::LsmIndex::PointReader reader(*lsm);
    for (const storage::CompositeKey& key : probes) {
      benchmark::DoNotOptimize(reader.Get(key));
    }
    items += static_cast<int64_t>(probes.size());
  }
  state.SetItemsProcessed(items);
  lsm.reset();
  storage::RemoveAllBestEffort(dir);
}
BENCHMARK(BM_LsmGetSorted);

// Appends one stage-2 row of the three-stage Jaccard join to a partition's
// frame and drops it again: the two {id, ranks[4], pt} prefix records plus
// two int columns. ASSIGN, UNNEST and the hash join append rows like this
// one per output row; a copied record shares its payload, so each item is a
// few refcount bumps into frame cells and back, with no allocation per row.
// Dropping the row keeps the one frame in cache, so the time is the cells'
// copy and destruction alone, not the allocator's or the page cache's.
void BM_TupleCopy(benchmark::State& state) {
  auto record = [](int64_t id, int64_t first_rank) {
    adm::Value::Array ranks;
    for (int64_t i = 0; i < 4; ++i) {
      ranks.push_back(adm::Value::Int64(first_rank + 3 * i));
    }
    return adm::Value::MakeObject(
        {{"id", adm::Value::Int64(id)},
         {"ranks", adm::Value::MakeArray(std::move(ranks))},
         {"pt", adm::Value::Int64(first_rank)}});
  };
  const hyracks::Tuple row = {record(1, 5), record(2, 8),
                              adm::Value::Int64(5), adm::Value::Int64(5)};
  hyracks::Rows frame(row.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(frame.Append(row).data());
    benchmark::ClobberMemory();
    frame.PopBack();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TupleCopy);

}  // namespace

BENCHMARK_MAIN();
