// SIMD kernels vs their scalar references: every kernel must be
// bit-identical to the similarity/ tuple-path implementation at every
// dispatch tier, across adversarial shapes (empty sets, all-equal ids,
// lengths straddling the 8/16-lane boundaries, k=0 edit distance) and
// randomized sweeps. Runs under ASan and TSan in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "similarity/edit_distance.h"
#include "similarity/jaccard.h"
#include "similarity/simd_kernels.h"

namespace simdb {
namespace {

// Runs `fn` once per dispatch tier this machine supports, restoring the
// ambient level afterwards.
template <typename Fn>
void ForEachLevel(Fn fn) {
  const simd::DispatchLevel ambient = simd::ActiveLevel();
  std::vector<simd::DispatchLevel> levels = {simd::DispatchLevel::kScalar};
  if (simd::MaxSupportedLevel() == simd::DispatchLevel::kAvx2) {
    levels.push_back(simd::DispatchLevel::kAvx2);
  }
  for (simd::DispatchLevel level : levels) {
    simd::SetActiveLevelForTest(level);
    fn(level);
  }
  simd::SetActiveLevelForTest(ambient);
}

std::vector<uint32_t> SortedIds(std::vector<uint32_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

void ExpectIntersectMatches(const std::vector<uint32_t>& a,
                            const std::vector<uint32_t>& b) {
  const size_t expected = similarity::IntersectSortedIds(a, b);
  EXPECT_EQ(simd::IntersectSortedIds(a.data(), a.size(), b.data(), b.size()),
            expected)
      << "la=" << a.size() << " lb=" << b.size() << " at "
      << simd::LevelName(simd::ActiveLevel());
}

void ExpectJaccardMatches(const std::vector<uint32_t>& a,
                          const std::vector<uint32_t>& b, double delta) {
  const double check_ref = similarity::JaccardCheckSortedIds(a, b, delta);
  const double check_got =
      simd::JaccardCheckSortedIds(a.data(), a.size(), b.data(), b.size(),
                                  delta);
  // Bit-identical, not approximately equal: the differential seeds compare
  // serialized doubles.
  EXPECT_EQ(check_got, check_ref)
      << "la=" << a.size() << " lb=" << b.size() << " delta=" << delta
      << " at " << simd::LevelName(simd::ActiveLevel());
  EXPECT_EQ(simd::JaccardSortedIds(a.data(), a.size(), b.data(), b.size()),
            similarity::JaccardSortedIds(a, b));
}

TEST(SimdDispatchTest, LevelsAreCoherent) {
  EXPECT_LE(simd::ActiveLevel(), simd::MaxSupportedLevel());
  EXPECT_STREQ(simd::LevelName(simd::DispatchLevel::kScalar), "scalar");
  EXPECT_STREQ(simd::LevelName(simd::DispatchLevel::kAvx2), "avx2");
  // The no-AVX2 CI job pins SIMDB_SIMD=scalar; assert the override took.
  const char* env = std::getenv("SIMDB_SIMD");
  if (env != nullptr && std::string(env) == "scalar") {
    EXPECT_EQ(simd::ActiveLevel(), simd::DispatchLevel::kScalar);
  }
}

TEST(SimdDispatchTest, ForceLevelClampsToSupported) {
  const simd::DispatchLevel ambient = simd::ActiveLevel();
  simd::SetActiveLevelForTest(simd::DispatchLevel::kAvx2);
  EXPECT_LE(simd::ActiveLevel(), simd::MaxSupportedLevel());
  simd::SetActiveLevelForTest(simd::DispatchLevel::kScalar);
  EXPECT_EQ(simd::ActiveLevel(), simd::DispatchLevel::kScalar);
  simd::SetActiveLevelForTest(ambient);
}

TEST(SimdIntersectTest, AdversarialShapes) {
  ForEachLevel([](simd::DispatchLevel) {
    ExpectIntersectMatches({}, {});
    ExpectIntersectMatches({}, {1, 2, 3});
    ExpectIntersectMatches({1, 2, 3}, {});
    // All-equal ids: multiset semantics (min of the multiplicities).
    ExpectIntersectMatches({5, 5, 5, 5}, {5, 5});
    ExpectIntersectMatches(std::vector<uint32_t>(16, 7),
                           std::vector<uint32_t>(9, 7));
    // Disjoint and identical around lane boundaries.
    for (size_t len : {1u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u, 33u, 64u}) {
      std::vector<uint32_t> evens, odds, all;
      for (size_t i = 0; i < len; ++i) {
        evens.push_back(static_cast<uint32_t>(2 * i));
        odds.push_back(static_cast<uint32_t>(2 * i + 1));
        all.push_back(static_cast<uint32_t>(i));
      }
      ExpectIntersectMatches(evens, odds);
      ExpectIntersectMatches(evens, evens);
      ExpectIntersectMatches(all, evens);
      ExpectIntersectMatches(all, all);
    }
    // Heavy skew exercises the galloping path.
    std::vector<uint32_t> big;
    for (uint32_t i = 0; i < 2000; ++i) big.push_back(3 * i);
    ExpectIntersectMatches({0, 3, 4, 2999, 3000, 5997}, big);
  });
}

TEST(SimdIntersectTest, RandomizedAgainstReference) {
  ForEachLevel([](simd::DispatchLevel) {
    std::mt19937 rng(1234);
    for (int iter = 0; iter < 600; ++iter) {
      const size_t la = rng() % 70;
      const size_t lb = rng() % 70;
      const uint32_t universe = 1 + rng() % 90;  // small => dense overlap
      const bool allow_dups = (iter % 3) == 0;
      std::vector<uint32_t> a, b;
      for (size_t i = 0; i < la; ++i) a.push_back(rng() % universe);
      for (size_t i = 0; i < lb; ++i) b.push_back(rng() % universe);
      a = SortedIds(std::move(a));
      b = SortedIds(std::move(b));
      if (!allow_dups) {
        a.erase(std::unique(a.begin(), a.end()), a.end());
        b.erase(std::unique(b.begin(), b.end()), b.end());
      }
      ExpectIntersectMatches(a, b);
    }
  });
}

TEST(SimdJaccardTest, AdversarialShapes) {
  const std::vector<double> deltas = {0.0, 0.1, 0.5, 0.8, 0.9, 1.0};
  ForEachLevel([&](simd::DispatchLevel) {
    for (double delta : deltas) {
      ExpectJaccardMatches({}, {}, delta);
      ExpectJaccardMatches({}, {1, 2, 3}, delta);
      ExpectJaccardMatches({1, 2, 3, 4, 5, 6, 7, 8},
                           {1, 2, 3, 4, 5, 6, 7, 8}, delta);
      ExpectJaccardMatches({5, 5, 5, 5}, {5, 5}, delta);
      for (size_t len : {7u, 8u, 9u, 15u, 16u, 17u, 33u}) {
        std::vector<uint32_t> a, b;
        for (size_t i = 0; i < len; ++i) {
          a.push_back(static_cast<uint32_t>(i));
          b.push_back(static_cast<uint32_t>(i + len / 2));
        }
        ExpectJaccardMatches(a, b, delta);
      }
    }
  });
}

TEST(SimdJaccardTest, RandomizedBitIdentical) {
  ForEachLevel([](simd::DispatchLevel) {
    std::mt19937 rng(99);
    for (int iter = 0; iter < 600; ++iter) {
      const size_t la = rng() % 60;
      const size_t lb = rng() % 60;
      const uint32_t universe = 1 + rng() % 80;
      std::vector<uint32_t> a, b;
      for (size_t i = 0; i < la; ++i) a.push_back(rng() % universe);
      for (size_t i = 0; i < lb; ++i) b.push_back(rng() % universe);
      a = SortedIds(std::move(a));
      b = SortedIds(std::move(b));
      if (iter % 2 == 0) {
        a.erase(std::unique(a.begin(), a.end()), a.end());
        b.erase(std::unique(b.begin(), b.end()), b.end());
      }
      const double delta =
          std::uniform_real_distribution<double>(0.0, 1.0)(rng);
      ExpectJaccardMatches(a, b, delta);
    }
  });
}

TEST(SimdJaccardTest, BatchFormsMatchPerPair) {
  ForEachLevel([](simd::DispatchLevel) {
    std::mt19937 rng(7);
    std::vector<uint32_t> probe;
    for (uint32_t i = 0; i < 24; ++i) probe.push_back(3 * i);
    // CSR candidates, lengths 0..40.
    std::vector<uint32_t> ids;
    std::vector<size_t> offsets = {0};
    const size_t n = 50;
    for (size_t c = 0; c < n; ++c) {
      const size_t len = rng() % 41;
      std::vector<uint32_t> cand;
      for (size_t i = 0; i < len; ++i) cand.push_back(rng() % 80);
      cand = SortedIds(std::move(cand));
      cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
      ids.insert(ids.end(), cand.begin(), cand.end());
      offsets.push_back(ids.size());
    }
    std::vector<double> out(n);
    simd::JaccardCheckBatch(probe.data(), probe.size(), ids.data(),
                            offsets.data(), n, 0.3, out.data());
    for (size_t c = 0; c < n; ++c) {
      EXPECT_EQ(out[c], simd::JaccardCheckSortedIds(
                            probe.data(), probe.size(), ids.data() + offsets[c],
                            offsets[c + 1] - offsets[c], 0.3));
    }
    // Pair form against itself as both sides.
    std::vector<double> check_out(n);
    simd::JaccardCheckPairs(ids.data(), offsets.data(), ids.data(),
                            offsets.data(), n, 0.5, check_out.data());
    for (size_t c = 0; c < n; ++c) {
      const size_t len = offsets[c + 1] - offsets[c];
      EXPECT_EQ(check_out[c],
                simd::JaccardCheckSortedIds(ids.data() + offsets[c], len,
                                            ids.data() + offsets[c], len,
                                            0.5));
    }
  });
}

std::string RandomString(std::mt19937& rng, size_t len, int alphabet) {
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>('a' + rng() % alphabet));
  }
  return s;
}

TEST(SimdEditDistanceTest, AdversarialShapes) {
  ForEachLevel([](simd::DispatchLevel) {
    for (int k : {0, 1, 2, 5}) {
      EXPECT_EQ(simd::EditDistanceCheck("", "", k),
                similarity::EditDistanceCheck("", "", k));
      EXPECT_EQ(simd::EditDistanceCheck("", "abc", k),
                similarity::EditDistanceCheck("", "abc", k));
      EXPECT_EQ(simd::EditDistanceCheck("abc", "", k),
                similarity::EditDistanceCheck("abc", "", k));
      EXPECT_EQ(simd::EditDistanceCheck("kitten", "sitting", k),
                similarity::EditDistanceCheck("kitten", "sitting", k));
      EXPECT_EQ(simd::EditDistanceCheck("same", "same", k),
                similarity::EditDistanceCheck("same", "same", k));
    }
    EXPECT_EQ(simd::EditDistanceCheck("abc", "abd", -1),
              similarity::EditDistanceCheck("abc", "abd", -1));
    // Patterns at the 63/64/65-char word boundary (65 leaves bit-parallel).
    for (size_t plen : {63u, 64u, 65u}) {
      std::string p(plen, 'x');
      std::string q = p;
      q[plen / 2] = 'y';
      for (int k : {0, 1, 3}) {
        EXPECT_EQ(simd::EditDistanceCheck(p, q, k),
                  similarity::EditDistanceCheck(p, q, k))
            << "plen=" << plen << " k=" << k;
      }
      EXPECT_EQ(simd::EditDistancePattern(p).bit_parallel(), plen <= 64);
    }
  });
}

TEST(SimdEditDistanceTest, RandomizedAgainstReference) {
  ForEachLevel([](simd::DispatchLevel) {
    std::mt19937 rng(4242);
    for (int iter = 0; iter < 500; ++iter) {
      const std::string a = RandomString(rng, rng() % 80, 3);
      const std::string b = RandomString(rng, rng() % 80, 3);
      const int k = static_cast<int>(rng() % 7);
      EXPECT_EQ(simd::EditDistanceCheck(a, b, k),
                similarity::EditDistanceCheck(a, b, k))
          << "a=" << a << " b=" << b << " k=" << k;
    }
  });
}

TEST(SimdEditDistanceTest, BatchMatchesSingle) {
  ForEachLevel([](simd::DispatchLevel) {
    std::mt19937 rng(31337);
    const std::string pattern = RandomString(rng, 24, 4);
    simd::EditDistancePattern compiled(pattern);
    // Group sizes 1..9 at a few fixed lengths plus random stragglers, so
    // the 4-lane grouping sees full quads, partial quads, and singletons.
    std::vector<std::string> cands;
    for (size_t len : {22u, 23u, 24u, 25u, 26u}) {
      const size_t group = 1 + rng() % 9;
      for (size_t g = 0; g < group; ++g) {
        cands.push_back(RandomString(rng, len, 4));
      }
    }
    for (int i = 0; i < 20; ++i) {
      cands.push_back(RandomString(rng, rng() % 40, 4));
    }
    cands.emplace_back();  // empty candidate
    std::vector<char> chars;
    std::vector<size_t> offsets = {0};
    for (const std::string& c : cands) {
      chars.insert(chars.end(), c.begin(), c.end());
      offsets.push_back(chars.size());
    }
    for (int k : {0, 1, 2, 4}) {
      std::vector<int> out(cands.size(), -2);
      compiled.CheckBatch(chars.data(), offsets.data(), cands.size(), k,
                          out.data());
      for (size_t i = 0; i < cands.size(); ++i) {
        EXPECT_EQ(out[i], similarity::EditDistanceCheck(pattern, cands[i], k))
            << "cand=" << cands[i] << " k=" << k;
      }
    }
    // Pairs form.
    std::vector<int> pair_out(cands.size(), -2);
    simd::EditDistanceCheckPairs(chars.data(), offsets.data(), chars.data(),
                                 offsets.data(), cands.size(), 1,
                                 pair_out.data());
    for (size_t i = 0; i < cands.size(); ++i) {
      EXPECT_EQ(pair_out[i],
                similarity::EditDistanceCheck(cands[i], cands[i], 1));
    }
  });
}

TEST(SimdTOccurrenceTest, MatchesNaiveCountingAndResets) {
  std::mt19937 rng(55);
  simd::TOccurrenceScratch scratch;
  const size_t num_slots = 500;
  for (int iter = 0; iter < 50; ++iter) {
    const size_t num_lists = 1 + rng() % 12;
    std::vector<std::vector<uint32_t>> lists(num_lists);
    std::map<uint32_t, int> naive;
    for (auto& list : lists) {
      // Unique slots per list, like posting lists (unique pks per token).
      std::vector<uint32_t> slots;
      const size_t len = rng() % 60;
      for (size_t i = 0; i < len; ++i) {
        slots.push_back(rng() % num_slots);
      }
      std::sort(slots.begin(), slots.end());
      slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
      for (uint32_t s : slots) ++naive[s];
      list = std::move(slots);
    }
    const int t = 1 + static_cast<int>(rng() % (num_lists + 2));  // may exceed
    std::vector<const uint32_t*> ptrs;
    std::vector<size_t> sizes;
    for (const auto& list : lists) {
      ptrs.push_back(list.data());
      sizes.push_back(list.size());
    }
    scratch.EnsureSlots(num_slots);
    std::vector<uint32_t> result;
    uint64_t pruned = 0;
    simd::TOccurrenceCount(ptrs.data(), sizes.data(), num_lists, t, scratch,
                           &result, &pruned);
    std::vector<uint32_t> expected;
    uint64_t expected_pruned = 0;
    for (const auto& [slot, count] : naive) {
      if (count >= t) {
        expected.push_back(slot);
      } else {
        ++expected_pruned;
      }
    }
    std::sort(result.begin(), result.end());
    EXPECT_EQ(result, expected) << "iter=" << iter << " t=" << t;
    EXPECT_EQ(pruned, expected_pruned);
    // Scratch must be fully reset between probes: every counter back to 0.
    for (uint16_t c : scratch.counts) {
      ASSERT_EQ(c, 0);
    }
    EXPECT_TRUE(scratch.touched.empty());
  }
}

}  // namespace
}  // namespace simdb
