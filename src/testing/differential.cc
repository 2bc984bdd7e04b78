#include "testing/differential.h"

#include <algorithm>
#include <cctype>
#include <memory>
#include <utility>

#include "core/query_processor.h"
#include "serving/query_engine.h"
#include "storage/file_util.h"

namespace simdb::testing {

namespace {

using core::EngineOptions;
using core::QueryProcessor;
using core::QueryResult;

/// Applies a variant's optimizer flags and runtime algorithm to an engine.
void ApplyVariant(QueryProcessor& engine, const ExecVariant& v) {
  algebricks::OptContext& opt = engine.opt_context();
  opt.enable_index_select = v.enable_index_select;
  opt.enable_index_join = v.enable_index_join;
  opt.enable_three_stage_join = v.enable_three_stage_join;
  opt.enable_surrogate_join = v.enable_surrogate_join;
  opt.enable_subplan_reuse = v.enable_subplan_reuse;
  engine.set_t_occurrence_algorithm(v.t_occurrence);
  engine.set_posting_cache_enabled(v.posting_cache);
  engine.set_batch_execution(v.batch_execution);
  if (engine.transport_kind() != v.transport) engine.set_transport(v.transport);
}

/// Executes one query and returns its result set as a sorted vector of JSON
/// rows. Sorting normalizes partitioning/exchange order, which legitimately
/// differs across topologies and join strategies; the multiset of rows must
/// not.
Result<std::vector<std::string>> RunNormalized(QueryProcessor& engine,
                                               const std::string& aql) {
  QueryResult result;
  SIMDB_RETURN_IF_ERROR(engine.Execute(aql + ";", &result));
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const adm::Value& row : result.rows) rows.push_back(row.ToJson());
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Builds a fresh engine over `records` (prefix of the case's stream) with
/// the variant's pool size (0: the harness default of 2), memtable budget
/// and transport. The
/// engine builds the transport before its pool, so a socket variant's
/// workers fork before any pool thread exists.
Result<std::unique_ptr<QueryProcessor>> BuildEngine(
    const FuzzCase& c, const hyracks::ClusterTopology& topology,
    const std::string& dir, int num_records, const ExecVariant& v) {
  storage::RemoveAllBestEffort(dir);
  EngineOptions options;
  options.data_dir = dir;
  options.topology = topology;
  options.num_threads = v.num_threads != 0 ? v.num_threads : 2;
  if (v.memtable_budget_bytes != 0) {
    options.lsm.memtable_budget_bytes = v.memtable_budget_bytes;
  }
  options.transport = v.transport;
  // Every fuzz compilation doubles as a verifier workload: rule contracts,
  // logical-plan invariants, and task-graph well-formedness are checked on
  // each seed; violations surface as query failures with --replay repros.
  options.verify_plans = true;
  auto engine = std::make_unique<QueryProcessor>(options);
  SIMDB_RETURN_IF_ERROR(engine->Execute(c.ddl));
  for (adm::Value& record : MakeRecords(c, num_records)) {
    SIMDB_RETURN_IF_ERROR(engine->Insert("D", std::move(record)));
  }
  return engine;
}

std::string VariantAt(const ExecVariant& v,
                      const hyracks::ClusterTopology& topo) {
  return v.label + "@" + TopologyLabel(topo);
}

/// First row present in `a` but not `b` (both sorted), empty if none.
std::string FirstOnlyIn(const std::vector<std::string>& a,
                        const std::vector<std::string>& b) {
  std::vector<std::string> diff;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(diff));
  return diff.empty() ? "" : diff.front();
}

struct Mismatch {
  const FuzzQuery* query = nullptr;
  ExecVariant baseline_variant, variant;
  hyracks::ClusterTopology baseline_topology, topology;
  std::vector<std::string> baseline_rows, rows;
};

/// Re-runs the two disagreeing configurations on ever-smaller prefixes of
/// the record stream; returns the smallest count that still reproduces the
/// mismatch (prefix-halving, then a linear refinement step back up).
int MinimizeRecords(const FuzzCase& c, const Mismatch& m,
                    const std::string& scratch, int full_count) {
  auto mismatches_at = [&](int count) -> bool {
    auto base = BuildEngine(c, m.baseline_topology, scratch + "/min_a", count,
                            m.baseline_variant);
    auto other = BuildEngine(c, m.topology, scratch + "/min_b", count,
                             m.variant);
    if (!base.ok() || !other.ok()) return false;
    ApplyVariant(**base, m.baseline_variant);
    ApplyVariant(**other, m.variant);
    auto rows_a = RunNormalized(**base, m.query->aql);
    auto rows_b = RunNormalized(**other, m.query->aql);
    if (!rows_a.ok() || !rows_b.ok()) return true;  // an error also repros
    return *rows_a != *rows_b;
  };
  int best = full_count;
  int probe = full_count / 2;
  while (probe >= 1) {
    if (mismatches_at(probe)) {
      best = probe;
      probe /= 2;
    } else {
      // The witness records sit in the upper half; step back up by quarters.
      int step = std::max(1, (best - probe) / 2);
      int refined = probe + step;
      if (refined >= best) break;
      if (mismatches_at(refined)) best = refined;
      break;
    }
  }
  storage::RemoveAllBestEffort(scratch + "/min_a");
  storage::RemoveAllBestEffort(scratch + "/min_b");
  return best;
}

/// Strips the digits from generated variable ids ($v<n>_x -> $v_x): they
/// come from a process-global fresh-name counter, so the same query compiled
/// twice names its variables differently while meaning the same plan.
std::string NormalizeVarIds(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    out.push_back(text[i]);
    if (text[i] == 'v' && i > 0 && text[i - 1] == '$') {
      while (i + 1 < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[i + 1]))) {
        ++i;
      }
    }
  }
  return out;
}

std::string FormatMismatch(const FuzzCase& c, const Mismatch& m,
                           int minimized_records) {
  std::string out;
  out += "SIMDB_FUZZ_FAILURE " + DescribeFuzzCase(c) + "\n";
  out += "  query[" + m.query->label + "]: " + m.query->aql + "\n";
  out += "  " + VariantAt(m.baseline_variant, m.baseline_topology) + ": " +
         std::to_string(m.baseline_rows.size()) + " rows\n";
  out += "  " + VariantAt(m.variant, m.topology) + ": " +
         std::to_string(m.rows.size()) + " rows\n";
  std::string missing = FirstOnlyIn(m.baseline_rows, m.rows);
  std::string extra = FirstOnlyIn(m.rows, m.baseline_rows);
  if (!missing.empty()) out += "  first missing row: " + missing + "\n";
  if (!extra.empty()) out += "  first extra row:   " + extra + "\n";
  if (minimized_records > 0 && minimized_records < c.num_records) {
    out += "  minimized: mismatch reproduces with the first " +
           std::to_string(minimized_records) + " of " +
           std::to_string(c.num_records) + " records\n";
  }
  out += "  repro: fuzz_equivalence_test --replay " + std::to_string(c.seed);
  return out;
}

/// Runs `query`'s twin on the baseline engine and returns a failure report
/// when its rows differ from the query's (`rows`), else "".
std::string CheckTwin(QueryProcessor& engine, const FuzzCase& c,
                      const FuzzQuery& query,
                      const std::vector<std::string>& rows,
                      const std::string& where) {
  std::string out = "SIMDB_FUZZ_FAILURE " + DescribeFuzzCase(c) + "\n  query[" +
                    query.label + "]: " + query.aql + "\n  twin: " +
                    query.twin + "\n";
  const std::string repro =
      "  repro: fuzz_equivalence_test --replay " + std::to_string(c.seed);
  Result<std::vector<std::string>> twin_rows = RunNormalized(engine, query.twin);
  if (!twin_rows.ok()) {
    return out + "  twin failed on " + where + ": " +
           twin_rows.status().ToString() + "\n" + repro;
  }
  if (*twin_rows == rows) return "";
  out += "  " + where + ": query " + std::to_string(rows.size()) +
         " rows, twin " + std::to_string(twin_rows->size()) + " rows\n";
  std::string missing = FirstOnlyIn(*twin_rows, rows);
  std::string extra = FirstOnlyIn(rows, *twin_rows);
  if (!missing.empty()) out += "  first missing row: " + missing + "\n";
  if (!extra.empty()) out += "  first extra row:   " + extra + "\n";
  return out + repro;
}

}  // namespace

std::vector<ExecVariant> PlanVariantMatrix() {
  std::vector<ExecVariant> variants;
  ExecVariant scan;
  scan.label = "scan";
  scan.enable_index_select = false;
  scan.enable_index_join = false;
  scan.enable_three_stage_join = false;
  scan.enable_surrogate_join = false;
  variants.push_back(scan);

  ExecVariant indexed;
  indexed.label = "indexed";
  variants.push_back(indexed);

  ExecVariant nosurr = indexed;
  nosurr.label = "indexed-nosurr";
  nosurr.enable_surrogate_join = false;
  variants.push_back(nosurr);

  ExecVariant threestage = indexed;
  threestage.label = "threestage";
  threestage.enable_index_join = false;
  variants.push_back(threestage);

  // Merging equal job nodes must be invisible to results: the three-stage
  // plans (whose sides merge most) run again with every stage cloned and
  // no node merged.
  ExecVariant noreuse = threestage;
  noreuse.label = "threestage-noreuse";
  noreuse.enable_subplan_reuse = false;
  variants.push_back(noreuse);

  ExecVariant heapmerge = indexed;
  heapmerge.label = "indexed-heapmerge";
  heapmerge.t_occurrence = storage::TOccurrenceAlgorithm::kHeapMerge;
  variants.push_back(heapmerge);

  // The decoded posting-list cache must be invisible to results: run the
  // full indexed configuration again with the cache disabled. Because the
  // cached variants above warm the cache on the same engines, any stale-
  // cache bug shows up as a variant mismatch here.
  ExecVariant nocache = indexed;
  nocache.label = "indexed-nocache";
  nocache.posting_cache = false;
  variants.push_back(nocache);

  // Task interleaving must be invisible to results: run the full indexed
  // configuration once more on a 1-thread pool, where tasks run one at a
  // time in submission order. Every other variant runs on 2 threads, so any
  // scheduling, routing, or tuple-stealing race shows up as a variant
  // mismatch here.
  ExecVariant pool1 = indexed;
  pool1.label = "indexed-pool1";
  pool1.num_threads = 1;
  variants.push_back(pool1);

  // Where the data lives must be invisible to results: with a 1 KiB
  // memtable budget every index flushes every few inserts, so the queries
  // read flushed and merged runs beside a live memtable instead of the
  // memtable alone.
  ExecVariant runs = indexed;
  runs.label = "indexed-runs";
  runs.memtable_budget_bytes = 1024;
  variants.push_back(runs);
  return variants;
}

std::vector<ExecVariant> BatchVariantMatrix() {
  // Batch execution selects NL-JOIN's one-probe-against-many kernels, and
  // three plan shapes reach NL-JOIN: indexed (the edit-distance join's
  // corner branch), scan (every similarity join), and threestage (joins the
  // three-stage rule does not take, such as edit distance). Each shape runs
  // with batch execution on and off; the pair must agree bit-for-bit.
  std::vector<ExecVariant> variants;
  ExecVariant indexed;
  ExecVariant scan;
  scan.enable_index_select = false;
  scan.enable_index_join = false;
  scan.enable_three_stage_join = false;
  scan.enable_surrogate_join = false;
  ExecVariant threestage;
  threestage.enable_index_join = false;
  const std::pair<const char*, ExecVariant> shapes[] = {
      {"indexed", indexed}, {"scan", scan}, {"threestage", threestage}};
  for (const auto& [name, shape] : shapes) {
    ExecVariant batch = shape;
    batch.label = std::string(name) + "-batch";
    batch.batch_execution = true;
    variants.push_back(batch);
    ExecVariant tuple = shape;
    tuple.label = std::string(name) + "-nobatch";
    tuple.batch_execution = false;
    variants.push_back(tuple);
  }
  return variants;
}

std::vector<ExecVariant> TransportVariantMatrix() {
  // The fully-indexed shape reaches every exchange kind (hash repartition,
  // broadcast, gather, merge-gather). The socket backend must agree
  // bit-for-bit with the modeled baseline, also on a 1-thread pool, where no
  // two destination fragments are in flight at once.
  ExecVariant modeled;
  modeled.label = "indexed-modeled";
  ExecVariant socket;
  socket.label = "indexed-socket";
  socket.transport = transport::TransportKind::kSocket;
  ExecVariant pool1 = socket;
  pool1.label = "indexed-socket-pool1";
  pool1.num_threads = 1;
  return {modeled, socket, pool1};
}

std::vector<hyracks::ClusterTopology> TopologyMatrix() {
  return {{1, 1}, {2, 2}, {4, 2}};
}

std::string TopologyLabel(const hyracks::ClusterTopology& t) {
  return std::to_string(t.num_nodes) + "x" +
         std::to_string(t.partitions_per_node);
}

DifferentialReport RunDifferential(const FuzzCase& c,
                                   const DifferentialOptions& options) {
  DifferentialReport report;
  auto fail = [&](std::string message) {
    report.ok = false;
    report.failure = std::move(message);
    return report;
  };
  if (options.variants.empty() || options.topologies.empty()) {
    return fail("empty variant or topology matrix");
  }

  // Baseline: first variant on the first topology.
  struct Baseline {
    std::vector<std::string> rows;
  };
  std::vector<Baseline> baselines(c.queries.size());

  bool first_combination = true;
  for (const hyracks::ClusterTopology& topo : options.topologies) {
    std::string dir = options.scratch_dir + "/topo_" + TopologyLabel(topo);
    Result<std::unique_ptr<QueryProcessor>> engine =
        BuildEngine(c, topo, dir, c.num_records, ExecVariant());
    if (!engine.ok()) {
      return fail("SIMDB_FUZZ_FAILURE " + DescribeFuzzCase(c) +
                  "\n  engine build failed on " + TopologyLabel(topo) + ": " +
                  engine.status().ToString());
    }
    for (const ExecVariant& variant : options.variants) {
      // A variant with its own pool size or memtable budget runs on an
      // engine of its own.
      std::unique_ptr<QueryProcessor> own;
      if (variant.num_threads != 0 || variant.memtable_budget_bytes != 0) {
        Result<std::unique_ptr<QueryProcessor>> built =
            BuildEngine(c, topo, dir + "_" + variant.label, c.num_records,
                        variant);
        if (!built.ok()) {
          return fail("SIMDB_FUZZ_FAILURE " + DescribeFuzzCase(c) +
                      "\n  engine build failed for " +
                      VariantAt(variant, topo) + ": " +
                      built.status().ToString());
        }
        own = std::move(built).value();
      }
      QueryProcessor& run_engine = own != nullptr ? *own : **engine;
      ApplyVariant(run_engine, variant);
      for (size_t qi = 0; qi < c.queries.size(); ++qi) {
        const FuzzQuery& query = c.queries[qi];
        Result<std::vector<std::string>> rows =
            RunNormalized(run_engine, query.aql);
        if (!rows.ok()) {
          return fail("SIMDB_FUZZ_FAILURE " + DescribeFuzzCase(c) +
                      "\n  query[" + query.label + "]: " + query.aql +
                      "\n  " + VariantAt(variant, topo) +
                      " failed: " + rows.status().ToString() +
                      "\n  repro: fuzz_equivalence_test --replay " +
                      std::to_string(c.seed));
        }
        ++report.comparisons;
        if (first_combination && variant.label == options.variants[0].label) {
          if (!query.twin.empty()) {
            std::string twin_failure =
                CheckTwin(run_engine, c, query, *rows,
                          VariantAt(variant, topo));
            if (!twin_failure.empty()) return fail(std::move(twin_failure));
          }
          baselines[qi].rows = std::move(*rows);
          continue;
        }
        if (*rows != baselines[qi].rows) {
          Mismatch m;
          m.query = &query;
          m.baseline_variant = options.variants[0];
          m.baseline_topology = options.topologies[0];
          m.variant = variant;
          m.topology = topo;
          m.baseline_rows = baselines[qi].rows;
          m.rows = std::move(*rows);
          int minimized =
              options.minimize
                  ? MinimizeRecords(c, m, options.scratch_dir, c.num_records)
                  : 0;
          return fail(FormatMismatch(c, m, minimized));
        }
      }
    }
    first_combination = false;
  }
  return report;
}

DifferentialReport RunConcurrentDifferential(
    const FuzzCase& c, const ConcurrentDifferentialOptions& options) {
  DifferentialReport report;
  auto fail = [&](std::string message) {
    report.ok = false;
    report.failure = std::move(message);
    return report;
  };
  auto describe = [&](const std::string& detail) {
    return "SIMDB_FUZZ_CONCURRENT_FAILURE " + DescribeFuzzCase(c) + "\n  " +
           detail + "\n  repro: fuzz_equivalence_test --replay " +
           std::to_string(c.seed);
  };

  storage::RemoveAllBestEffort(options.scratch_dir);
  EngineOptions engine_options;
  engine_options.data_dir = options.scratch_dir;
  engine_options.topology = options.topology;
  engine_options.num_threads = 2;
  engine_options.verify_plans = true;
  serving::ServingOptions serving_options;
  serving_options.max_concurrent = options.max_in_flight;
  // Queue everything up front so max_in_flight queries genuinely overlap;
  // the queue must never shed in this harness.
  serving_options.max_queue =
      c.queries.size() * static_cast<size_t>(options.repeats) + 8;
  serving::QueryEngine engine(engine_options, serving_options);

  Status setup = engine.processor().Execute(c.ddl);
  if (setup.ok()) {
    for (adm::Value& record : MakeRecords(c, c.num_records)) {
      setup = engine.processor().Insert("D", std::move(record));
      if (!setup.ok()) break;
    }
  }
  if (!setup.ok()) {
    storage::RemoveAllBestEffort(options.scratch_dir);
    return fail(describe("engine build failed: " + setup.ToString()));
  }

  // Sequential expectations through the exclusive single-query path, on the
  // same engine configuration the concurrent path will use.
  struct Expected {
    bool ok = false;
    std::vector<std::string> rows;
    std::string error;
  };
  std::vector<Expected> expected(c.queries.size());
  for (size_t qi = 0; qi < c.queries.size(); ++qi) {
    Result<std::vector<std::string>> rows =
        RunNormalized(engine.processor(), c.queries[qi].aql);
    if (rows.ok()) {
      expected[qi].ok = true;
      expected[qi].rows = std::move(*rows);
    } else {
      expected[qi].error = NormalizeVarIds(rows.status().ToString());
    }
  }

  // Submit every (query x repeat) before awaiting anything.
  std::vector<std::pair<size_t, std::shared_ptr<serving::QueryTicket>>>
      tickets;
  tickets.reserve(c.queries.size() * static_cast<size_t>(options.repeats));
  for (int rep = 0; rep < options.repeats; ++rep) {
    for (size_t qi = 0; qi < c.queries.size(); ++qi) {
      Result<std::shared_ptr<serving::QueryTicket>> ticket =
          engine.Submit(c.queries[qi].aql + ";");
      if (!ticket.ok()) {
        engine.Shutdown();
        storage::RemoveAllBestEffort(options.scratch_dir);
        return fail(describe("query[" + c.queries[qi].label +
                             "] refused at submit: " +
                             ticket.status().ToString()));
      }
      tickets.emplace_back(qi, std::move(ticket).value());
    }
  }

  for (const auto& [qi, ticket] : tickets) {
    const FuzzQuery& query = c.queries[qi];
    const Status& status = ticket->Wait();
    ++report.comparisons;
    if (expected[qi].ok) {
      if (!status.ok()) {
        engine.Shutdown();
        storage::RemoveAllBestEffort(options.scratch_dir);
        return fail(describe(
            "query[" + query.label + "]: " + query.aql +
            "\n  concurrent run failed where the sequential run succeeded: " +
            status.ToString()));
      }
      std::vector<std::string> rows;
      rows.reserve(ticket->result().rows.size());
      for (const adm::Value& row : ticket->result().rows) {
        rows.push_back(row.ToJson());
      }
      std::sort(rows.begin(), rows.end());
      if (rows != expected[qi].rows) {
        std::string detail =
            "query[" + query.label + "]: " + query.aql + "\n  sequential: " +
            std::to_string(expected[qi].rows.size()) +
            " rows, concurrent: " + std::to_string(rows.size()) + " rows";
        std::string missing = FirstOnlyIn(expected[qi].rows, rows);
        std::string extra = FirstOnlyIn(rows, expected[qi].rows);
        if (!missing.empty()) detail += "\n  first missing row: " + missing;
        if (!extra.empty()) detail += "\n  first extra row:   " + extra;
        engine.Shutdown();
        storage::RemoveAllBestEffort(options.scratch_dir);
        return fail(describe(detail));
      }
    } else {
      std::string error = NormalizeVarIds(status.ToString());
      if (status.ok() || error != expected[qi].error) {
        engine.Shutdown();
        storage::RemoveAllBestEffort(options.scratch_dir);
        return fail(describe(
            "query[" + query.label + "]: " + query.aql +
            "\n  sequential error: " + expected[qi].error +
            "\n  concurrent outcome: " +
            (status.ok() ? "success" : error)));
      }
    }
  }

  engine.Shutdown();
  storage::RemoveAllBestEffort(options.scratch_dir);
  return report;
}

}  // namespace simdb::testing
