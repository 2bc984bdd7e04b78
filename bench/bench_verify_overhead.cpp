// Measures the optimizer-path cost of EngineOptions::verify_plans: Explain
// (parse + translate + rewrite + job generation) on identical engines with
// verification off vs on. Verification adds the per-rule contract checker,
// two logical-plan verifier passes, and the task-graph verifier; it is off
// by default, so the "off" series is the production compile path and the
// ratio between the two series is the fuzz/test-tier overhead.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "core/query_processor.h"
#include "storage/file_util.h"

namespace {

constexpr size_t kPoolThreads = 2;

using namespace simdb;

const char* kDdl =
    "create dataset Reviews primary key id;"
    "create index rv_kw on Reviews(summary) type keyword;"
    "create index rv_ng on Reviews(reviewerName) type ngram(2);";

// One selection (index plan + corner-case union) and one self join (runtime
// corner-case union + surrogate projection): the two heaviest rewrites.
const char* kQueries[] = {
    "set simfunction 'jaccard'; set simthreshold '0.8'; "
    "for $r in dataset Reviews "
    "where word-tokens($r.summary) ~= word-tokens('great product') "
    "return $r.id",
    "set simfunction 'edit-distance'; set simthreshold '2'; "
    "for $a in dataset Reviews for $b in dataset Reviews "
    "where $a.reviewerName ~= $b.reviewerName and $a.id < $b.id "
    "return {'a': $a.id, 'b': $b.id}",
};

std::unique_ptr<core::QueryProcessor> MakeEngine(bool verify,
                                                 const std::string& tag) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("simdb_bench_verify_" + tag))
                        .string();
  storage::RemoveAllBestEffort(dir);
  core::EngineOptions options;
  options.data_dir = dir;
  options.topology = {2, 2};
  options.num_threads = kPoolThreads;
  options.verify_plans = verify;
  auto engine = std::make_unique<core::QueryProcessor>(std::move(options));
  Status ddl = engine->Execute(kDdl);
  if (!ddl.ok()) std::abort();
  return engine;
}

void RunExplain(benchmark::State& state, bool verify) {
  auto engine = MakeEngine(verify, verify ? "on" : "off");
  const char* query = kQueries[state.range(0)];
  for (auto _ : state) {
    Result<std::string> plan = engine->Explain(query);
    if (!plan.ok()) {
      state.SkipWithError(plan.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(plan.value());
  }
}

void BM_OptimizeVerifyOff(benchmark::State& state) {
  RunExplain(state, false);
}
BENCHMARK(BM_OptimizeVerifyOff)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_OptimizeVerifyOn(benchmark::State& state) { RunExplain(state, true); }
BENCHMARK(BM_OptimizeVerifyOn)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext("pool_threads", std::to_string(kPoolThreads));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
