// Fuzz harness for adm::ReadFrame, the trust boundary every byte crossing
// the socket transport passes through. The harness asserts two
// properties on arbitrary input:
//
//   1. ReadFrame never crashes, overflows, or reads past the buffer
//      (sanitizers catch violations);
//   2. accept implies round-trip identity: any payload ReadFrame accepts,
//      re-framed with WriteFrame, is accepted again byte-identically.
//
// Built only under SIMDB_SANITIZE (tests/fuzz/CMakeLists.txt). Two drivers
// share this file:
//   * with clang's -fsanitize=fuzzer, libFuzzer provides main() and drives
//     LLVMFuzzerTestOneInput coverage-guided;
//   * otherwise a standalone main() replays the seed corpus (file
//     arguments or a corpus directory) and then runs a fixed-budget
//     mutation loop, so the ASan CI smoke works with any compiler.
// The seed corpus (tests/fuzz/corpus/) is generated from the known-CRC
// wire vectors by tests/fuzz/make_corpus.py.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "adm/wire.h"
#include "common/bytes.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view input(reinterpret_cast<const char*>(data), size);

  // Consume frames until the first rejection, mirroring how the socket
  // worker drains a channel carrying several frames back to back.
  simdb::ByteReader reader(input);
  while (reader.remaining() > 0) {
    size_t before = reader.position();
    simdb::Result<std::string_view> frame = simdb::adm::ReadFrame(&reader);
    if (!frame.ok()) break;

    // Accept implies round-trip identity.
    std::string reframed;
    simdb::adm::WriteFrame(*frame, &reframed);
    simdb::ByteReader again(reframed);
    simdb::Result<std::string_view> second = simdb::adm::ReadFrame(&again);
    if (!second.ok() || *second != *frame) {
      std::fprintf(stderr,
                   "wire_frame_fuzzer: round-trip broke on an accepted "
                   "frame (%zu payload bytes)\n",
                   frame->size());
      __builtin_trap();
    }
    // A successful parse must make progress or the drain loop spins.
    if (reader.position() <= before) {
      std::fprintf(stderr, "wire_frame_fuzzer: ReadFrame succeeded without "
                           "consuming bytes\n");
      __builtin_trap();
    }
  }
  return 0;
}

#ifndef SIMDB_FUZZ_WITH_LIBFUZZER

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>

namespace {

void RunOne(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(data.data()),
                         data.size());
}

}  // namespace

// Standalone driver: replay corpus entries, then mutate them for a fixed
// budget (deterministic seed so CI runs are reproducible). `--seconds=N`
// switches the mutation loop from an iteration budget to a wall-clock one
// (the CI smoke runs 30 seconds).
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
  for (const std::string& path : inputs) RunOne(path);

  // Mutation smoke: corrupt random bytes / truncate / extend corpus seeds.
  std::mt19937 rng(0x51f2db01u);
  std::vector<std::string> seeds;
  for (const std::string& path : inputs) {
    std::ifstream in(path, std::ios::binary);
    seeds.emplace_back((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }
  if (seeds.empty()) seeds.push_back(std::string());
  constexpr int kIterations = 200000;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(budget_seconds);
  int iterations = 0;
  for (int i = 0;
       budget_seconds > 0 ? std::chrono::steady_clock::now() < deadline
                          : i < kIterations;
       ++i, ++iterations) {
    std::string mutated = seeds[rng() % seeds.size()];
    switch (rng() % 4) {
      case 0:  // flip a byte
        if (!mutated.empty()) mutated[rng() % mutated.size()] ^= rng() & 0xff;
        break;
      case 1:  // truncate
        mutated.resize(mutated.empty() ? 0 : rng() % mutated.size());
        break;
      case 2:  // append garbage
        for (int n = rng() % 16; n > 0; --n) {
          mutated.push_back(static_cast<char>(rng() & 0xff));
        }
        break;
      case 3:  // splice two seeds
        mutated += seeds[rng() % seeds.size()];
        break;
    }
    LLVMFuzzerTestOneInput(
        reinterpret_cast<const uint8_t*>(mutated.data()), mutated.size());
  }
  std::printf("wire_frame_fuzzer: %zu corpus files + %d mutations, clean\n",
              inputs.size(), iterations);
  return 0;
}

#endif  // SIMDB_FUZZ_WITH_LIBFUZZER
