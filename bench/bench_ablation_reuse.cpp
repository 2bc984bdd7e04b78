// Ablation (paper Section 5.4.2): materializing/reusing the shared subplans
// of the three-stage self-join (Figure 20). With reuse on, each join input
// is one LOp subtree shared by stages 1-3, and the job generator merges job
// nodes of the same kind with the same parameters over the same inputs, so
// the two sides' equal filtered scans, tokenizations and stage-2 rank
// chains run once; with it off, each stage re-derives its input subtree and
// nothing merges. The gap grows when the join inputs are expensive
// subqueries; here they are filtered scans. Exits 1 when the two answers
// differ (CI runs it at SIMDB_BENCH_SCALE=0.1 as that answer check).
#include <cstdio>

#include "bench/bench_util.h"

using namespace simdb;
using namespace simdb::bench;

namespace {

Status Run() {
  BenchEnv env({2, 2});
  core::QueryProcessor& engine = env.engine();
  int64_t count = Scaled(5000);

  SIMDB_RETURN_IF_ERROR(LoadTextDataset(engine, "AmazonReview",
                                        datagen::AmazonProfile(), count)
                            .status());
  // No keyword index: force the three-stage plan. The join inputs carry a
  // deliberately expensive filter (a quadratic edit-distance computation per
  // record), standing in for the paper's "complex computation from a
  // subquery": with reuse OFF every stage re-derives it.
  std::string long_literal(400, 'q');
  std::string expensive =
      "edit-distance($X.summary, '" + long_literal + "') >= 0";
  std::string left = expensive, right = expensive;
  left.replace(left.find("$X"), 2, "$o");
  right.replace(right.find("$X"), 2, "$i");
  std::string query =
      "count(for $o in dataset AmazonReview for $i in dataset AmazonReview "
      "where similarity-jaccard(word-tokens($o.summary), "
      "word-tokens($i.summary)) >= 0.9 "
      "and " + left + " and " + right + " and $o.id < $i.id "
      "return {'o': $o.id})";

  PrintTitle("Ablation 5.4.2: materialize/reuse of shared subplans",
             "reuse on -> each three-stage input subtree computed once");
  PrintRow({"variant", "makespan", "wall", "pairs"});
  engine.opt_context().enable_index_join = false;
  SIMDB_RETURN_IF_ERROR(TimeQuery(engine, query).status());  // warm up
  SIMDB_ASSIGN_OR_RETURN(QueryTiming shared, TimeQuery(engine, query, 2));
  engine.opt_context().enable_subplan_reuse = false;
  SIMDB_ASSIGN_OR_RETURN(QueryTiming cloned, TimeQuery(engine, query, 2));
  engine.opt_context().enable_subplan_reuse = true;
  engine.opt_context().enable_index_join = true;
  PrintRow({"reuse ON", Seconds(shared.makespan_seconds),
            Seconds(shared.wall_seconds), std::to_string(shared.result_count)});
  PrintRow({"reuse OFF", Seconds(cloned.makespan_seconds),
            Seconds(cloned.wall_seconds), std::to_string(cloned.result_count)});
  if (shared.result_count != cloned.result_count) {
    return Status::Internal("reuse ablation changed the answer");
  }
  std::printf("records: %lld; simulated 2x2 cluster\n",
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
