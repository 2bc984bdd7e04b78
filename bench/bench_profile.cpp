// Per-operator query profiles: runs a workload chosen to light up every
// operator counter and all four exchange connectors (three-stage jaccard
// join via HASH-EXCHANGE, indexed selection and indexed edit-distance join
// via BROADCAST-EXCHANGE, a nested-loop edit-distance join, an order-by via
// MERGE-GATHER; every query roots in a GATHER), prints each query's profile
// tree, and measures the profiling overhead on the join and, over
// alternating off/on pairs, on the short indexed selection.
//
// Flags:
//   --json <path>    write {"queries": [...], "overhead": {...},
//                    "metrics": {...}} (merged into BENCH_kernels.json by
//                    bench/run_benches.sh)
//   --trace <path>   export the three-stage join's Chrome trace
//   --quick          small dataset / few repeats (CI smoke; numbers are not
//                    meaningful, only the output shape is)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "observability/metrics.h"
#include "observability/profile.h"

using namespace simdb;
using namespace simdb::bench;

namespace {

struct ProfiledQuery {
  std::string name;
  std::string aql;
  /// Disable the index-join rewrites so the AQL+ three-stage (or plain
  /// nested-loop) plan runs instead of the surrogate index-NL join.
  bool no_index_join = false;
  bool no_three_stage = false;
  std::shared_ptr<const obs::QueryProfile> profile;
};

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c != '\'') out.push_back(c);
  }
  return out;
}

constexpr size_t kPoolThreads = 1;

Status Run(bool quick, const std::string& json_path,
           const std::string& trace_path) {
  BenchEnv env({2, 2}, kPoolThreads);
  core::QueryProcessor& engine = env.engine();
  int64_t count = Scaled(quick ? 400 : 4000);

  SIMDB_ASSIGN_OR_RETURN(auto gen,
                         LoadTextDataset(engine, "AmazonReview",
                                         datagen::AmazonProfile(), count));
  SIMDB_RETURN_IF_ERROR(engine.Execute(R"(
    create index smix on AmazonReview(summary) type keyword;
    create index nix on AmazonReview(reviewerName) type ngram(2);
  )"));

  datagen::WorkloadSampler summaries(gen->texts());
  SIMDB_ASSIGN_OR_RETURN(std::string sample, summaries.SampleWithMinWords(3));

  const int64_t nl_cap = quick ? 60 : 200;
  std::vector<ProfiledQuery> queries = {
      {"three_stage_jaccard_join",
       "count(for $l in dataset AmazonReview for $r in dataset AmazonReview "
       "where similarity-jaccard(word-tokens($l.summary), "
       "word-tokens($r.summary)) >= 0.5 and $l.id < $r.id "
       "return {'l': $l.id, 'r': $r.id})",
       /*no_index_join=*/true, false, nullptr},
      {"indexed_jaccard_selection",
       "count(for $t in dataset AmazonReview where "
       "similarity-jaccard(word-tokens($t.summary), word-tokens('" +
           Escape(sample) +
           "')) >= 0.5 return $t)",
       false, false, nullptr},
      {"indexed_ed_join",
       "set simfunction 'edit-distance'; set simthreshold '1'; "
       "count(for $l in dataset AmazonReview for $r in dataset AmazonReview "
       "where $l.reviewerName ~= $r.reviewerName and $l.id < $r.id "
       "return {'l': $l.id, 'r': $r.id})",
       false, false, nullptr},
      {"nested_loop_ed_join",
       "count(for $l in dataset AmazonReview for $r in dataset AmazonReview "
       "where $l.id < " +
           std::to_string(nl_cap) + " and $r.id < " +
           std::to_string(nl_cap) +
           " and edit-distance($l.reviewerName, $r.reviewerName) <= 1 "
           "and $l.id < $r.id return {'l': $l.id, 'r': $r.id})",
       /*no_index_join=*/true, /*no_three_stage=*/true, nullptr},
      {"order_by_merge_gather",
       "for $t in dataset AmazonReview order by $t.summary, $t.id "
       "return $t.id",
       false, false, nullptr},
  };

  engine.set_profile_queries(true);
  for (ProfiledQuery& q : queries) {
    if (q.no_index_join) engine.opt_context().enable_index_join = false;
    if (q.no_three_stage) engine.opt_context().enable_three_stage_join = false;
    core::QueryResult result;
    Status s = engine.Execute(q.aql, &result);
    engine.opt_context().enable_index_join = true;
    engine.opt_context().enable_three_stage_join = true;
    SIMDB_RETURN_IF_ERROR(s);
    if (result.profile == nullptr) {
      return Status::Internal("query " + q.name + " produced no profile");
    }
    q.profile = result.profile;
    std::printf("== %s ==\n%s\n", q.name.c_str(),
                q.profile->RenderTree().c_str());
  }

  if (!trace_path.empty()) {
    SIMDB_RETURN_IF_ERROR(queries[0].profile->ExportTrace(trace_path));
    std::printf("wrote Chrome trace: %s\n", trace_path.c_str());
  }

  // Profile-off overhead on the heaviest query (median of repeats). The
  // docs and EngineOptions::profile_queries promise < 2%; quick mode only
  // checks the plumbing.
  const int repeats = quick ? 3 : 9;
  auto median_time = [&](bool profiled) -> Result<double> {
    engine.set_profile_queries(profiled);
    engine.opt_context().enable_index_join = !queries[0].no_index_join;
    std::vector<double> times;
    for (int i = 0; i < repeats; ++i) {
      core::QueryResult result;
      Stopwatch sw;
      Status s = engine.Execute(queries[0].aql, &result);
      if (!s.ok()) {
        engine.opt_context().enable_index_join = true;
        return s;
      }
      times.push_back(sw.ElapsedSeconds());
    }
    engine.opt_context().enable_index_join = true;
    std::sort(times.begin(), times.end());
    return times[times.size() / 2];
  };
  SIMDB_ASSIGN_OR_RETURN(double off_seconds, median_time(false));
  SIMDB_ASSIGN_OR_RETURN(double on_seconds, median_time(true));
  double overhead_pct =
      on_seconds > 0 ? (on_seconds - off_seconds) / on_seconds * 100.0 : 0;
  std::printf(
      "profile overhead on %s: off %s, on %s (profiling costs %.1f%%)\n",
      queries[0].name.c_str(), Seconds(off_seconds).c_str(),
      Seconds(on_seconds).c_str(), overhead_pct);

  // The same overhead on the short indexed selection, where it can show: one
  // median of a few ~1 s join runs swung from -19% to +11% between runs of
  // one build. Off and on alternate (each pair starts with the other one),
  // and the figure is the median of the per-pair on/off ratios.
  const ProfiledQuery& short_query = queries[1];
  const int pairs = quick ? 5 : 40;
  auto time_once = [&](bool profiled) -> Result<double> {
    engine.set_profile_queries(profiled);
    core::QueryResult result;
    Stopwatch sw;
    SIMDB_RETURN_IF_ERROR(engine.Execute(short_query.aql, &result));
    return sw.ElapsedSeconds();
  };
  std::vector<double> ratios;
  for (int i = 0; i < pairs; ++i) {
    bool on_first = i % 2 == 1;
    SIMDB_ASSIGN_OR_RETURN(double first, time_once(on_first));
    SIMDB_ASSIGN_OR_RETURN(double second, time_once(!on_first));
    double off = on_first ? second : first, on = on_first ? first : second;
    ratios.push_back(off > 0 ? on / off : 1.0);
  }
  std::sort(ratios.begin(), ratios.end());
  const double median_ratio = ratios[ratios.size() / 2];
  std::printf(
      "profile overhead on %s: median on/off ratio %.3f over %d pairs\n",
      short_query.name.c_str(), median_ratio, pairs);

  if (!json_path.empty()) {
    std::string json = "{\n  \"pool_threads\": " +
                       std::to_string(kPoolThreads) + ",\n  \"queries\": [\n";
    for (size_t i = 0; i < queries.size(); ++i) {
      json += "    {\"name\": \"" + queries[i].name +
              "\", \"profile\": " + queries[i].profile->ToJson() + "}";
      json += (i + 1 < queries.size()) ? ",\n" : "\n";
    }
    json += "  ],\n  \"overhead\": {\"query\": \"" + queries[0].name +
            "\", \"off_seconds\": " + std::to_string(off_seconds) +
            ", \"on_seconds\": " + std::to_string(on_seconds) +
            ", \"short_query\": {\"query\": \"" + short_query.name +
            "\", \"pairs\": " + std::to_string(pairs) +
            ", \"median_on_off_ratio\": " + std::to_string(median_ratio) +
            "}},\n";
    json += "  \"metrics\": " + obs::MetricsRegistry::Global().ToJson() +
            "\n}\n";
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) return Status::IOError("cannot write " + json_path);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path, trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--json path] [--trace path]\n",
                   argv[0]);
      return 2;
    }
  }
  Status s = Run(quick, json_path, trace_path);
  if (!s.ok()) {
    std::fprintf(stderr, "bench_profile failed: %s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}
