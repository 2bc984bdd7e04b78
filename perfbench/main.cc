// Repository benchmark binary. Normally launched through perfbench/run.py,
// which builds this binary and supplies the stamp fields:
//
//   simdb_perfbench --workload jaccard-join|ed-join|search-ingest
//                   --seed N --seconds S --trace 0|1 --work-dir DIR
//                   [--quick] [--perturb-reference]
//                   [--commit C] [--source-digest D] [--build-type T]
//
// Prints a stamp line, a few human-readable lines, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}: end-to-end
// metrics when --trace 0, per-layer metrics when --trace 1. Exits 1 when an
// answer check fails (after printing the result) or the run cannot
// complete (without one), 2 on bad arguments.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench.h"
#include "similarity/simd_kernels.h"
#include "storage/file_util.h"

using namespace simdb;
using namespace simdb::perfbench;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload W --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--quick] [--perturb-reference] [--commit C] "
               "[--source-digest D] [--build-type T]\n",
               argv0);
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string commit = "unknown", digest = "unknown", build_type = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    uint64_t n = 0;
    if (arg == "--quick") {
      cfg.quick = true;
    } else if (arg == "--perturb-reference") {
      cfg.perturb_reference = true;
    } else if ((v = value()) == nullptr) {
      return Usage(argv[0]);
    } else if (arg == "--workload") {
      cfg.workload = v;
    } else if (arg == "--seed" && ParseUint(v, &n)) {
      cfg.seed = n;
      have_seed = true;
    } else if (arg == "--seconds" && ParseUint(v, &n) && n >= 1 && n <= 600) {
      cfg.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace" && ParseUint(v, &n) && n <= 1) {
      cfg.trace = n == 1;
      have_trace = true;
    } else if (arg == "--work-dir") {
      cfg.work_dir = v;
    } else if (arg == "--commit") {
      commit = v;
    } else if (arg == "--source-digest") {
      digest = v;
    } else if (arg == "--build-type") {
      build_type = v;
    } else {
      return Usage(argv[0]);
    }
  }
  if (cfg.workload.empty() || cfg.work_dir.empty() || !have_seed ||
      !have_seconds || !have_trace) {
    return Usage(argv[0]);
  }
  int64_t records = BaseRecords(cfg);
  if (records == 0) {
    std::fprintf(stderr, "unknown workload '%s'\n", cfg.workload.c_str());
    return 2;
  }
  if (Status s = storage::EnsureDir(cfg.work_dir); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  cfg.threads = static_cast<int>(std::min(4u, hw));
  int clients = cfg.workload == "search-ingest" ? cfg.threads : 1;
  cfg.stamp_json =
      "{\"commit\": " + Quote(commit) + ", \"source_sha256\": " +
      Quote(digest) + ", \"build_type\": " + Quote(build_type) +
      ", \"nproc\": " + std::to_string(hw) +
      ", \"pool_threads\": " + std::to_string(cfg.threads) +
      ", \"client_threads\": " + std::to_string(clients) + ", \"simd\": " +
      Quote(simd::LevelName(simd::ActiveLevel())) +
      ", \"workload\": " + Quote(cfg.workload) +
      ", \"seed\": " + std::to_string(cfg.seed) +
      ", \"seconds\": " + std::to_string(static_cast<int>(cfg.seconds)) +
      ", \"trace\": " + (cfg.trace ? "1" : "0") +
      ", \"quick\": " + (cfg.quick ? "true" : "false") +
      ", \"base_records\": " + std::to_string(records) + "}";
  std::printf("stamp %s\n", cfg.stamp_json.c_str());
  std::fflush(stdout);

  RunOutcome outcome;
  Status s = RunWorkload(cfg, &outcome);
  if (!s.ok()) {
    std::fprintf(stderr, "run failed: %s\n", s.ToString().c_str());
    return 1;
  }
  for (const auto& [name, v] : outcome.metrics.entries()) {
    std::printf("  %-36s %14.6g %s\n", name.c_str(), v.first,
                v.second.c_str());
  }
  if (!outcome.trace_path.empty()) {
    std::printf("trace: %s (%zu spans)\n", outcome.trace_path.c_str(),
                outcome.span_count);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              outcome.correct ? "true" : "false",
              static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed),
              outcome.metrics.ToJson().c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}
