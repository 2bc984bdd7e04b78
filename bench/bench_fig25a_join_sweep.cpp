// Figure 25(a): Jaccard self-join (threshold 0.8) execution time as the
// number of records from the outer branch grows, for the three join plans:
// plain nested-loop, index-nested-loop, and three-stage.
// Paper shape: nested-loop is worst and grows drastically; index-nested-loop
// grows linearly with the outer cardinality; the three-stage join pays a
// near-constant token-ordering cost and overtakes index-NL at a crossover
// (~400 records in the paper). Two tables: the records in memtables, then
// the same records flushed to sorted runs.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"

using namespace simdb;
using namespace simdb::bench;

namespace {

/// One sweep over the outer sizes, printed as one table.
Status Sweep(core::QueryProcessor& engine, const std::string& title) {
  auto query = [&](int outer) {
    return "count(for $o in dataset AmazonReview "
           "for $i in dataset AmazonReview "
           "where similarity-jaccard(word-tokens($o.summary), "
           "word-tokens($i.summary)) >= 0.8 and $o.id < " +
           std::to_string(outer) +
           " and $o.id < $i.id return {'o': $o.id})";
  };

  PrintTitle(title,
             "paper: NL worst and steep; three-stage ~flat, overtakes "
             "index-NL as the outer side grows");
  PrintRow({"outer", "nested-loop", "three-stage", "index-NL", "pairs"});
  for (int outer : {25, 50, 100, 200, 400, 600, 800, 1000, 1200, 1400}) {
    auto& opt = engine.opt_context();
    opt.enable_index_join = true;
    opt.enable_three_stage_join = true;
    SIMDB_ASSIGN_OR_RETURN(QueryTiming indexed,
                           TimeQuery(engine, query(outer)));
    opt.enable_index_join = false;
    SIMDB_ASSIGN_OR_RETURN(QueryTiming three_stage,
                           TimeQuery(engine, query(outer)));
    opt.enable_three_stage_join = false;
    SIMDB_ASSIGN_OR_RETURN(QueryTiming nested,
                           TimeQuery(engine, query(outer)));
    opt.enable_index_join = true;
    opt.enable_three_stage_join = true;
    if (indexed.result_count != three_stage.result_count ||
        indexed.result_count != nested.result_count) {
      return Status::Internal("plan disagreement at outer=" +
                              std::to_string(outer));
    }
    PrintRow({std::to_string(outer), Seconds(nested.makespan_seconds),
              Seconds(three_stage.makespan_seconds),
              Seconds(indexed.makespan_seconds),
              std::to_string(indexed.result_count)});
  }
  return Status::OK();
}

Status Run() {
  BenchEnv env({2, 2});
  core::QueryProcessor& engine = env.engine();
  int64_t count = Scaled(5000);

  SIMDB_RETURN_IF_ERROR(LoadTextDataset(engine, "AmazonReview",
                                        datagen::AmazonProfile(), count)
                            .status());
  SIMDB_RETURN_IF_ERROR(engine.Execute(
      "create index smix on AmazonReview(summary) type keyword;"));

  // The loader only inserts, so the first sweep reads memtables. The
  // paper's datasets were on disk: the second sweep reads the same records
  // after a flush, from sorted runs.
  SIMDB_RETURN_IF_ERROR(Sweep(
      engine,
      "Figure 25(a): join time vs. outer-branch records (Jaccard 0.8), "
      "in-memtable"));
  SIMDB_RETURN_IF_ERROR(engine.catalog()->Find("AmazonReview")->FlushAll());
  SIMDB_RETURN_IF_ERROR(Sweep(
      engine,
      "Figure 25(a): join time vs. outer-branch records (Jaccard 0.8), "
      "flushed"));
  std::printf("inner records: %lld; simulated 2x2 cluster makespans\n",
              static_cast<long long>(count));
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
