// Figure 22: average execution time of similarity-selection queries on the
// Amazon-review dataset, with and without an index, plus the exact-match
// baseline. (a) Jaccard on `summary` at thresholds 0.2/0.5/0.8; (b) edit
// distance on `reviewerName` at thresholds 1/2/3.
// Paper shapes: indexed time falls as the Jaccard threshold rises and rises
// with the edit-distance threshold; without an index all queries cost about
// a full scan; exact match with an index is the cheapest.
#include <cstdio>

#include "bench/bench_util.h"

using namespace simdb;
using namespace simdb::bench;

namespace {

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c != '\'') out.push_back(c);
  }
  return out;
}

constexpr size_t kPoolThreads = 1;

Status Run() {
  BenchEnv env({2, 2}, kPoolThreads);
  core::QueryProcessor& engine = env.engine();
  int64_t count = Scaled(20000);
  const int kQueries = 10;

  SIMDB_ASSIGN_OR_RETURN(auto gen,
                         LoadTextDataset(engine, "AmazonReview",
                                         datagen::AmazonProfile(), count));
  SIMDB_RETURN_IF_ERROR(engine.Execute(R"(
    create index smix on AmazonReview(summary) type keyword;
    create index nix on AmazonReview(reviewerName) type ngram(2);
    create index sm_bt on AmazonReview(summary) type btree;
    create index rn_bt on AmazonReview(reviewerName) type btree;
  )"));

  datagen::WorkloadSampler summaries(gen->texts());
  datagen::WorkloadSampler names(gen->names());

  // Runs the same query batch with and without index rewrites enabled.
  auto run_batch = [&](const std::vector<std::string>& queries)
      -> Result<std::pair<double, double>> {
    double with_index = 0, without_index = 0;
    for (const std::string& q : queries) {
      engine.opt_context().enable_index_select = true;
      SIMDB_ASSIGN_OR_RETURN(QueryTiming on, TimeQuery(engine, q));
      with_index += on.makespan_seconds;
      engine.opt_context().enable_index_select = false;
      SIMDB_ASSIGN_OR_RETURN(QueryTiming off, TimeQuery(engine, q));
      without_index += off.makespan_seconds;
      engine.opt_context().enable_index_select = true;
    }
    return std::make_pair(without_index / queries.size(),
                          with_index / queries.size());
  };

  PrintTitle("Figure 22(a): Jaccard selection on `summary`",
             "paper: indexed time falls with the threshold; no-index ~ scan");
  PrintRow({"threshold", "without-index", "with-index"});
  {
    std::vector<std::string> exact;
    for (int q = 0; q < kQueries; ++q) {
      SIMDB_ASSIGN_OR_RETURN(std::string v, summaries.SampleWithMinWords(3));
      exact.push_back("count(for $t in dataset AmazonReview where "
                      "$t.summary = '" + Escape(v) + "' return $t)");
    }
    SIMDB_ASSIGN_OR_RETURN(auto baseline, run_batch(exact));
    PrintRow({"exact match", Seconds(baseline.first),
              Seconds(baseline.second)});
    // The same sampled values are reused across thresholds so rows differ
    // only by the threshold (the paper's protocol).
    std::vector<std::string> values;
    for (int q = 0; q < kQueries; ++q) {
      SIMDB_ASSIGN_OR_RETURN(std::string v, summaries.SampleWithMinWords(3));
      values.push_back(Escape(v));
    }
    for (double threshold : {0.2, 0.5, 0.8}) {
      std::vector<std::string> queries;
      for (const std::string& v : values) {
        queries.push_back(
            "count(for $t in dataset AmazonReview where "
            "similarity-jaccard(word-tokens($t.summary), word-tokens('" + v +
            "')) >= " + std::to_string(threshold) + " return $t)");
      }
      SIMDB_ASSIGN_OR_RETURN(auto row, run_batch(queries));
      PrintRow({std::to_string(threshold).substr(0, 3), Seconds(row.first),
                Seconds(row.second)});
    }
  }

  PrintTitle("Figure 22(b): edit-distance selection on `reviewerName`",
             "paper: indexed time RISES with the threshold (more candidates)");
  PrintRow({"threshold", "without-index", "with-index"});
  {
    std::vector<std::string> exact;
    for (int q = 0; q < kQueries; ++q) {
      SIMDB_ASSIGN_OR_RETURN(std::string v, names.SampleWithMinChars(3));
      exact.push_back("count(for $t in dataset AmazonReview where "
                      "$t.reviewerName = '" + Escape(v) + "' return $t)");
    }
    SIMDB_ASSIGN_OR_RETURN(auto baseline, run_batch(exact));
    PrintRow({"exact match", Seconds(baseline.first),
              Seconds(baseline.second)});
    std::vector<std::string> values;
    for (int q = 0; q < kQueries; ++q) {
      SIMDB_ASSIGN_OR_RETURN(std::string v, names.SampleWithMinChars(8));
      values.push_back(Escape(v));
    }
    for (int k : {1, 2, 3}) {
      std::vector<std::string> queries;
      for (const std::string& v : values) {
        queries.push_back(
            "count(for $t in dataset AmazonReview where "
            "edit-distance($t.reviewerName, '" + v + "') <= " +
            std::to_string(k) + " return $t)");
      }
      SIMDB_ASSIGN_OR_RETURN(auto row, run_batch(queries));
      PrintRow({std::to_string(k), Seconds(row.first), Seconds(row.second)});
    }
  }
  std::printf("records: %lld, %d queries per row; simulated 2x2 cluster "
              "makespans; pool threads: %zu\n",
              static_cast<long long>(count), kQueries, kPoolThreads);
  return Status::OK();
}

}  // namespace

int main() {
  Status status = Run();
  if (!status.ok()) {
    std::fprintf(stderr, "bench failed: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
