// Fuzz harness for storage::SortedRunReader, the trust boundary every byte
// read back from an on-disk LSM run passes through. Each input is written
// to a file, opened, scanned in full, then probed with ascending Seeks on
// one iterator and with Gets. The property on arbitrary bytes:
//
//   1. every step yields either a Status or entries in strictly increasing
//      key order, and a Seek never lands before its target;
//   2. a probe for a key the clean scan returned finds that entry;
//   3. nothing crashes, hangs, or allocates more than 64 MiB (under ASan
//      the harness caps single allocations at 64 MiB, and the sanitizer
//      aborts on a larger request).
//
// Built only under SIMDB_SANITIZE (tests/fuzz/CMakeLists.txt), with the two
// drivers of wire_frame_fuzzer.cc: libFuzzer under clang with
// SIMDB_FUZZ_LIBFUZZER=ON, otherwise a standalone main() that replays the
// seed corpus (tests/fuzz/sorted_run_corpus/, written by make_corpus.py)
// and then runs a fixed-budget mutation loop.

#include <unistd.h>

#include <climits>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "storage/key.h"
#include "storage/sorted_run.h"

namespace {

using simdb::storage::CompareKeys;
using simdb::storage::CompositeKey;
using simdb::storage::EntryKind;
using simdb::storage::SortedRunReader;

/// More steps than any input this size can hold entries: a scan or seek
/// that gets here is looping.
constexpr uint64_t kMaxSteps = 1 << 20;

[[noreturn]] void Fail(const char* what) {
  std::fprintf(stderr, "sorted_run_fuzzer: %s\n", what);
  __builtin_trap();
}

const std::string& RunPath() {
  static const std::string path =
      (std::filesystem::temp_directory_path() /
       ("sorted_run_fuzzer_" + std::to_string(::getpid()) + ".dat"))
          .string();
  return path;
}

struct Scanned {
  CompositeKey key;
  EntryKind kind;
};

}  // namespace

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SIMDB_FUZZ_ASAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define SIMDB_FUZZ_ASAN 1
#endif

#ifdef SIMDB_FUZZ_ASAN
// A request above 64 MiB is an allocation-size-too-big report, not a
// silent success.
extern "C" const char* __asan_default_options() {
  return "max_allocation_size_mb=64:allocator_may_return_null=0";
}
#endif

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  {
    std::ofstream out(RunPath(), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  }
  auto opened = SortedRunReader::Open(RunPath());
  if (!opened.ok()) return 0;
  const SortedRunReader& run = **opened;

  // Full scan: strictly increasing keys, at most entry_count() of them,
  // until the end or the first Status.
  std::vector<Scanned> entries;
  bool clean = false;
  if (auto it = run.NewIterator(nullptr); it.ok()) {
    SortedRunReader::Iterator& cursor = **it;
    for (uint64_t steps = 0;; ++steps) {
      if (steps > kMaxSteps) Fail("scan does not terminate");
      if (!cursor.Valid()) {
        clean = true;
        break;
      }
      if (!entries.empty() && CompareKeys(entries.back().key, cursor.key()) >= 0) {
        Fail("scan returned keys out of order");
      }
      if (entries.size() == run.entry_count()) {
        Fail("scan returned more entries than the run holds");
      }
      entries.push_back({cursor.key(), cursor.kind()});
      if (!cursor.Next().ok()) break;
    }
  }

  // Ascending Seeks on one iterator: every scanned key, each int64 key
  // preceded by a probe one below it, so the cursor both lands on keys and
  // walks the gaps and block boundaries between them.
  auto cursor = run.NewIterator(nullptr);
  if (cursor.ok()) {
    SortedRunReader::Iterator& c = **cursor;
    auto seek = [&c](const CompositeKey& target) {
      if (!c.Seek(target).ok()) return false;
      if (c.Valid() && CompareKeys(c.key(), target) < 0) {
        Fail("Seek landed before its target");
      }
      return true;
    };
    for (const Scanned& e : entries) {
      if (e.key.size() == 1 && e.key[0].is_int64() &&
          e.key[0].AsInt64() > INT64_MIN) {
        if (!seek({simdb::adm::Value::Int64(e.key[0].AsInt64() - 1)})) break;
      }
      if (!seek(e.key)) break;
      if (clean && (!c.Valid() || CompareKeys(c.key(), e.key) != 0 ||
                    c.kind() != e.kind)) {
        Fail("Seek disagrees with the scan");
      }
    }
  }

  // Gets: each a one-shot lookup, in ascending order.
  for (const Scanned& e : entries) {
    auto got = run.Get(e.key);
    if (!got.ok()) continue;
    if (clean && (!got->has_value() || (*got)->first != e.kind)) {
      Fail("Get disagrees with the scan");
    }
  }
  return 0;
}

#ifndef SIMDB_FUZZ_WITH_LIBFUZZER

#include <chrono>
#include <cstdlib>

namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void RunOne(const std::string& bytes) {
  LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(bytes.data()),
                         bytes.size());
}

}  // namespace

// Standalone driver: replay corpus entries, then mutate them for a fixed
// budget (deterministic seed so runs are reproducible). `--seconds=N`
// switches the mutation loop from an iteration budget to a wall-clock one.
int main(int argc, char** argv) {
  std::vector<std::string> inputs;
  long budget_seconds = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seconds=", 10) == 0) {
      budget_seconds = std::strtol(argv[i] + 10, nullptr, 10);
      continue;
    }
    std::filesystem::path p(argv[i]);
    if (std::filesystem::is_directory(p)) {
      for (const auto& entry : std::filesystem::directory_iterator(p)) {
        if (entry.is_regular_file()) inputs.push_back(entry.path().string());
      }
    } else {
      inputs.push_back(argv[i]);
    }
  }
  std::vector<std::string> seeds;
  for (const std::string& path : inputs) {
    seeds.push_back(ReadAll(path));
    RunOne(seeds.back());
  }

  // Mutation smoke: flip bytes, overwrite a little-endian field with an
  // extreme value, truncate, append garbage or splice two seeds. Every run
  // seed ends in the footer, so truncation and splicing move it.
  std::mt19937 rng(0x5eed12u);
  if (seeds.empty()) seeds.push_back(std::string());
  constexpr int kIterations = 20000;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(budget_seconds);
  int iterations = 0;
  for (int i = 0;
       budget_seconds > 0 ? std::chrono::steady_clock::now() < deadline
                          : i < kIterations;
       ++i, ++iterations) {
    std::string mutated = seeds[rng() % seeds.size()];
    switch (rng() % 5) {
      case 0:  // flip a few bytes
        for (int n = 1 + rng() % 4; n > 0 && !mutated.empty(); --n) {
          mutated[rng() % mutated.size()] ^= static_cast<char>(rng() & 0xff);
        }
        break;
      case 1: {  // a length, count or offset field turned extreme
        if (mutated.size() < 8) break;
        const uint64_t extremes[] = {0, 1, 0x7fffffffu, 0xffffffffu,
                                     0xffffffffffffffffull,
                                     static_cast<uint64_t>(mutated.size())};
        uint64_t v = extremes[rng() % 6];
        size_t width = rng() % 2 == 0 ? 4 : 8;
        std::memcpy(mutated.data() + rng() % (mutated.size() - width + 1), &v,
                    width);
        break;
      }
      case 2:  // truncate
        mutated.resize(mutated.empty() ? 0 : rng() % mutated.size());
        break;
      case 3:  // append garbage
        for (int n = rng() % 16; n > 0; --n) {
          mutated.push_back(static_cast<char>(rng() & 0xff));
        }
        break;
      case 4:  // splice two seeds
        mutated += seeds[rng() % seeds.size()];
        break;
    }
    RunOne(mutated);
  }
  std::filesystem::remove(RunPath());
  std::printf("sorted_run_fuzzer: %zu corpus files + %d mutations, clean\n",
              inputs.size(), iterations);
  return 0;
}

#endif  // SIMDB_FUZZ_WITH_LIBFUZZER
