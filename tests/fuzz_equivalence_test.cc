// Differential plan-equivalence fuzzing: every seed expands into a random
// dataset plus random similarity queries (selections, joins, multi-way
// joins; thresholds include the T <= 0 corner cases), executed under the
// full plan-variant x topology x T-occurrence matrix. All combinations must
// return identical order-normalized result sets.
//
// Modes:
//   (default)      the 50 fixed tier-1 seeds, one gtest case each — ctest
//                  registers them individually as fuzz_equivalence_seed_N
//   --seeds N      additionally fuzz N sequential seeds beyond the fixed set
//   --replay S     run exactly seed S (reproduces a printed failure)
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "storage/file_util.h"
#include "testing/differential.h"
#include "testing/fuzz.h"

namespace simdb::testing {
namespace {

constexpr uint64_t kFixedSeedCount = 50;

std::vector<uint64_t> g_extra_seeds;  // filled by main() from --seeds/--replay

std::string ScratchDir(uint64_t seed) {
  return (std::filesystem::temp_directory_path() /
          ("simdb_fuzz_" + std::to_string(::getpid()) + "_" +
           std::to_string(seed)))
      .string();
}

void RunSeed(uint64_t seed) {
  FuzzCase c = MakeFuzzCase(seed);
  DifferentialOptions options;
  options.scratch_dir = ScratchDir(seed);
  DifferentialReport report = RunDifferential(c, options);
  storage::RemoveAllBestEffort(options.scratch_dir);
  EXPECT_TRUE(report.ok) << report.failure;
  if (report.ok) {
    // >= 3 plan variants x >= 2 topologies per query, per the harness
    // contract; guard against a silently shrunken matrix.
    EXPECT_GE(report.comparisons,
              static_cast<int>(c.queries.size()) * 3 * 2)
        << DescribeFuzzCase(c);
  }
}

/// Batch execution must be invisible to results: the same seed's queries run
/// under the batch-focused variant matrix (indexed / scan / threestage plan
/// shapes, each with batch execution on and off) and every combination must
/// return bit-identical order-normalized rows.
void RunSeedBatch(uint64_t seed) {
  FuzzCase c = MakeFuzzCase(seed);
  DifferentialOptions options;
  options.scratch_dir = ScratchDir(seed) + "_batch";
  options.variants = BatchVariantMatrix();
  options.topologies = {{1, 1}, {2, 2}};
  DifferentialReport report = RunDifferential(c, options);
  storage::RemoveAllBestEffort(options.scratch_dir);
  EXPECT_TRUE(report.ok) << report.failure;
  if (report.ok) {
    // 3 plan shapes x {batch, tuple} x 2 topologies per query.
    EXPECT_GE(report.comparisons,
              static_cast<int>(c.queries.size()) * 6 * 2)
        << DescribeFuzzCase(c);
  }
}

/// The exchange transport must be invisible to results: the same seed's
/// queries run under both transport backends (modeled / socket, plus socket
/// on a 1-thread executor pool) and every combination must return
/// bit-identical order-normalized rows — remote execution is an identity on
/// values. Topologies are 1x1 (where the socket backend still sends every
/// non-empty destination to worker 0, so the row codec is always crossed)
/// and 4x2 (where fragments spread across four worker processes).
void RunSeedTransport(uint64_t seed) {
  FuzzCase c = MakeFuzzCase(seed);
  DifferentialOptions options;
  options.scratch_dir = ScratchDir(seed) + "_transport";
  options.variants = TransportVariantMatrix();
  options.topologies = {{1, 1}, {4, 2}};
  DifferentialReport report = RunDifferential(c, options);
  storage::RemoveAllBestEffort(options.scratch_dir);
  EXPECT_TRUE(report.ok) << report.failure;
  if (report.ok) {
    // 3 transport variants x 2 topologies per query.
    EXPECT_GE(report.comparisons,
              static_cast<int>(c.queries.size()) * 3 * 2)
        << DescribeFuzzCase(c);
  }
}

/// Concurrent serving must be invisible to results: the same seed's queries
/// are executed once sequentially and then pushed through a 4-in-flight
/// serving engine, and every concurrent execution must be bit-identical —
/// including failing queries, which must fail with the sequential error.
void RunSeedConcurrent(uint64_t seed) {
  FuzzCase c = MakeFuzzCase(seed);
  ConcurrentDifferentialOptions options;
  options.scratch_dir = ScratchDir(seed) + "_concurrent";
  DifferentialReport report = RunConcurrentDifferential(c, options);
  EXPECT_TRUE(report.ok) << report.failure;
  if (report.ok) {
    EXPECT_EQ(report.comparisons,
              static_cast<int>(c.queries.size()) * options.repeats)
        << DescribeFuzzCase(c);
  }
}

class FuzzEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzEquivalence, AllVariantsAgree) { RunSeed(GetParam()); }

class BatchEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchEquivalence, BatchMatchesTuple) { RunSeedBatch(GetParam()); }

class TransportEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TransportEquivalence, BackendsAgree) { RunSeedTransport(GetParam()); }

class ConcurrentEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConcurrentEquivalence, MatchesSequential) {
  RunSeedConcurrent(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    FixedSeeds, FuzzEquivalence,
    ::testing::Range<uint64_t>(1, kFixedSeedCount + 1),
    [](const ::testing::TestParamInfo<uint64_t>& info) {
      return "seed" + std::to_string(info.param);
    });

INSTANTIATE_TEST_SUITE_P(
    FixedSeeds, BatchEquivalence,
    ::testing::Range<uint64_t>(1, kFixedSeedCount + 1),
    [](const ::testing::TestParamInfo<uint64_t>& info) {
      return "seed" + std::to_string(info.param);
    });

INSTANTIATE_TEST_SUITE_P(
    FixedSeeds, TransportEquivalence,
    ::testing::Range<uint64_t>(1, kFixedSeedCount + 1),
    [](const ::testing::TestParamInfo<uint64_t>& info) {
      return "seed" + std::to_string(info.param);
    });

INSTANTIATE_TEST_SUITE_P(
    FixedSeeds, ConcurrentEquivalence,
    ::testing::Range<uint64_t>(1, kFixedSeedCount + 1),
    [](const ::testing::TestParamInfo<uint64_t>& info) {
      return "seed" + std::to_string(info.param);
    });

TEST(FuzzEquivalenceExtra, RequestedSeeds) {
  if (g_extra_seeds.empty()) {
    GTEST_SKIP() << "no --seeds/--replay requested";
  }
  for (uint64_t seed : g_extra_seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunSeed(seed);
    RunSeedBatch(seed);
    RunSeedTransport(seed);
    RunSeedConcurrent(seed);
  }
}

}  // namespace
}  // namespace simdb::testing

namespace {

// strtoull-with-teeth: rejects empty, non-digit, and trailing-garbage input
// so `--seeds abc` fails loudly instead of silently fuzzing zero seeds.
bool ParseU64(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  bool replay_only = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    uint64_t n = 0;
    if (arg == "--seeds" && i + 1 < argc && ParseU64(argv[i + 1], &n)) {
      ++i;
      for (uint64_t s = 0; s < n; ++s) {
        simdb::testing::g_extra_seeds.push_back(
            simdb::testing::kFixedSeedCount + 1 + s);
      }
    } else if (arg == "--replay" && i + 1 < argc &&
               ParseU64(argv[i + 1], &n)) {
      ++i;
      simdb::testing::g_extra_seeds.push_back(n);
      replay_only = true;
    } else {
      std::fprintf(stderr,
                   "bad argument: %s (usage: --seeds N | --replay S)\n",
                   arg.c_str());
      return 2;
    }
  }
  if (replay_only) {
    ::testing::GTEST_FLAG(filter) = "FuzzEquivalenceExtra.RequestedSeeds";
  }
  return RUN_ALL_TESTS();
}
