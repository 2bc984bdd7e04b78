// Measurement plumbing: percentiles, the benchmark's span recorder, metric
// output, and the per-layer fold over QueryResult / ExecStats.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "cluster/cost_model.h"
#include "perfbench.h"

namespace simdb::perfbench {

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(p * static_cast<double>(values.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

namespace {

uint64_t ThreadIndex() {
  static std::atomic<uint64_t> next{1};
  thread_local uint64_t index = next.fetch_add(1);
  return index;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(Clock::now()) {}

int64_t SpanRecorder::NewRequest() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_request_++;
}

int64_t SpanRecorder::Record(const std::string& name, int64_t request,
                             int64_t parent, Clock::time_point start,
                             Clock::time_point end, bool derived) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.request = request;
  span.parent = parent;
  span.start_us = SecondsBetween(epoch_, start) * 1e6;
  span.end_us = SecondsBetween(epoch_, end) * 1e6;
  span.thread = ThreadIndex();
  span.derived = derived;
  std::lock_guard<std::mutex> lock(mu_);
  span.id = next_id_++;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanRecorder::WriteChromeTrace(const std::string& path,
                                    const std::string& stamp_json) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"otherData\": %s,\n\"traceEvents\": [\n",
               stamp_json.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %llu, "
                 "\"ts\": %s, \"dur\": %s, \"args\": {\"id\": %lld, "
                 "\"parent\": %lld, \"request\": %lld, \"derived\": %s}}%s\n",
                 JsonEscape(s.name).c_str(),
                 static_cast<unsigned long long>(s.thread),
                 Num(s.start_us).c_str(), Num(s.end_us - s.start_us).c_str(),
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 s.derived ? "true" : "false",
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  entries_.push_back({name, {std::isfinite(value) ? value : 0, unit}});
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const auto& [name, v] = entries_[i];
    out += (i ? ", " : "") + std::string("\"") + name +
           "\": {\"value\": " + Num(v.first) + ", \"unit\": \"" + v.second +
           "\"}";
  }
  return out + "}";
}

namespace {

// Operator categories the per-layer metrics are defined over. `units` says
// what one unit of work is for the category's ns-per-unit figure.
enum class Units { kRowsIn, kRowsOut, kCounter };
struct Category {
  const char* key;
  Units units;
  const char* counter;  // for Units::kCounter
};

const Category* Categorize(const std::string& name) {
  static const Category kHashJoin{"hash_join", Units::kRowsOut, nullptr};
  static const Category kHashGroup{"hash_group", Units::kRowsIn, nullptr};
  static const Category kAssignSim{"assign_sim", Units::kRowsIn, nullptr};
  static const Category kExchange{"exchange", Units::kRowsIn, nullptr};
  static const Category kInvSearch{"inverted_search", Units::kRowsIn,
                                   nullptr};
  static const Category kSort{"sort", Units::kRowsIn, nullptr};
  static const Category kLookup{"primary_lookup", Units::kCounter,
                                "lookup.probes"};
  static const Category kSelectEd{"select_ed", Units::kRowsIn, nullptr};
  static const Category kNlJoin{"nl_join", Units::kCounter, "nljoin.pairs"};
  auto starts = [&](const char* p) { return name.rfind(p, 0) == 0; };
  auto has = [&](const char* p) { return name.find(p) != std::string::npos; };
  if (name == "HASH-JOIN") return &kHashJoin;
  if (name == "HASH-GROUP") return &kHashGroup;
  if (starts("ASSIGN(") && has("similarity-jaccard(")) return &kAssignSim;
  if (has("EXCHANGE") || name == "GATHER" || name == "MERGE-GATHER") {
    return &kExchange;
  }
  if (starts("INVERTED-SEARCH")) return &kInvSearch;
  if (name == "SORT") return &kSort;
  if (starts("PRIMARY-LOOKUP")) return &kLookup;
  if (starts("SELECT(") && has("edit-distance-check(")) return &kSelectEd;
  if (starts("NL-JOIN")) return &kNlJoin;
  return nullptr;
}

uint64_t Counter(const hyracks::OpStats& op, const char* name) {
  for (const auto& [k, v] : op.counters) {
    if (k == name) return v;
  }
  return 0;
}

std::string OpLabel(const std::string& name) {
  return name.substr(0, name.find('('));
}

}  // namespace

void LayerAccumulator::AddQuery(const core::QueryResult& result) {
  ++queries_;
  parse_s_ += result.compile.parse_seconds;
  translate_s_ += result.compile.translate_seconds;
  optimize_s_ += result.compile.optimize_seconds;
  aqlplus_s_ += result.compile.aqlplus_seconds;
  jobgen_s_ += result.compile.jobgen_seconds;
  const hyracks::ExecStats& exec = result.exec;
  wall_s_ += exec.wall_seconds;
  tasks_ += static_cast<double>(exec.tasks_executed);
  remote_bytes_ += static_cast<double>(exec.TotalRemoteBytes());
  for (const hyracks::OpStats& op : exec.ops) {
    double seconds = 0;
    for (double s : op.partition_seconds) seconds += s;
    compute_s_ += seconds;
    rows_materialized_ += static_cast<double>(op.rows_out);
    batch_rows_ += static_cast<double>(Counter(op, "exec.batch.rows"));
    fallback_rows_ +=
        static_cast<double>(Counter(op, "exec.batch.fallback_rows"));
    // Mirror pairs: matches a join's residual predicate ($l.id < $r.id)
    // throws away, counted only on joins that apply one.
    if (uint64_t dropped = Counter(op, "join.residual_dropped")) {
      join_matches_ += static_cast<double>(Counter(op, "join.matches"));
      join_dropped_ += static_cast<double>(dropped);
    }
    cache_hits_ += static_cast<double>(Counter(op, "invsearch.cache_hits"));
    cache_misses_ += static_cast<double>(Counter(op, "invsearch.cache_misses"));
    candidates_ += static_cast<double>(Counter(op, "invsearch.candidates"));
    postings_read_ +=
        static_cast<double>(Counter(op, "invsearch.postings_read"));
    if (op.name.rfind("SELECT(", 0) == 0 &&
        op.name.find("-check(") != std::string::npos) {
      verified_ += static_cast<double>(op.rows_out);
    }
    by_label_[OpLabel(op.name)].seconds += seconds;
    if (const Category* c = Categorize(op.name)) {
      OpAgg& agg = by_category_[c->key];
      agg.seconds += seconds;
      switch (c->units) {
        case Units::kRowsIn:
          agg.units += static_cast<double>(op.rows_in);
          break;
        case Units::kRowsOut:
          agg.units += static_cast<double>(op.rows_out);
          break;
        case Units::kCounter:
          agg.units += static_cast<double>(Counter(op, c->counter));
          break;
      }
    }
  }
  cluster::MakespanReport makespan = cluster::ComputeMakespan(exec, topology_);
  makespan_compute_s_ += makespan.compute_seconds;
  makespan_network_s_ += makespan.network_seconds;
}

void LayerAccumulator::Emit(MetricSet* out) const {
  const double q = static_cast<double>(queries_);
  out->Set("compile.parse_us", Ratio(parse_s_, q) * 1e6, "us");
  out->Set("compile.translate_us", Ratio(translate_s_, q) * 1e6, "us");
  out->Set("compile.optimize_us", Ratio(optimize_s_, q) * 1e6, "us");
  out->Set("compile.aqlplus_us", Ratio(aqlplus_s_, q) * 1e6, "us");
  out->Set("compile.jobgen_us", Ratio(jobgen_s_, q) * 1e6, "us");
  out->Set("exec.wall_ms", Ratio(wall_s_, q) * 1e3, "ms");
  out->Set("exec.compute_ms", Ratio(compute_s_, q) * 1e3, "ms");
  out->Set("exec.busy_share", Ratio(compute_s_, wall_s_ * threads_), "ratio");
  out->Set("exec.tasks", Ratio(tasks_, q), "count");
  auto per_unit = [&](const char* key, double scale) {
    auto it = by_category_.find(key);
    return it == by_category_.end() ? 0.0
                            : Ratio(it->second.seconds, it->second.units) *
                                  scale;
  };
  out->Set("op.hash_join.ns_per_row", per_unit("hash_join", 1e9), "ns");
  out->Set("op.hash_group.ns_per_row", per_unit("hash_group", 1e9), "ns");
  out->Set("op.assign_sim.ns_per_row", per_unit("assign_sim", 1e9), "ns");
  out->Set("op.exchange.ns_per_row", per_unit("exchange", 1e9), "ns");
  out->Set("exec.rows_materialized", Ratio(rows_materialized_, q), "count");
  out->Set("exec.batch.row_share",
           Ratio(batch_rows_, batch_rows_ + fallback_rows_), "ratio");
  out->Set("join.mirror_drop_share", Ratio(join_dropped_, join_matches_),
           "ratio");
  out->Set("op.inverted_search.us_per_probe", per_unit("inverted_search", 1e6),
           "us");
  out->Set("op.sort.ns_per_row", per_unit("sort", 1e9), "ns");
  out->Set("op.primary_lookup.ns_per_probe", per_unit("primary_lookup", 1e9),
           "ns");
  out->Set("op.select_ed.ns_per_row", per_unit("select_ed", 1e9), "ns");
  out->Set("op.nl_join.ns_per_pair", per_unit("nl_join", 1e9), "ns");
  out->Set("makespan.compute_ms", Ratio(makespan_compute_s_, q) * 1e3, "ms");
  out->Set("makespan.network_ms", Ratio(makespan_network_s_, q) * 1e3, "ms");
  out->Set("exchange.remote_mib", Ratio(remote_bytes_, q) / (1024.0 * 1024.0),
           "MiB");
  out->Set("invsearch.cache_hit_ratio",
           Ratio(cache_hits_, cache_hits_ + cache_misses_), "ratio");
  out->Set("invsearch.candidates_per_result", Ratio(candidates_, verified_),
           "ratio");
  auto probes = by_category_.find("inverted_search");
  out->Set("invsearch.postings_per_probe",
           probes == by_category_.end() ? 0.0
                                : Ratio(postings_read_, probes->second.units),
           "count");
}

std::string LayerAccumulator::ShareSummary() const {
  auto render = [&](const std::map<std::string, OpAgg>& groups) {
    std::vector<std::pair<double, std::string>> shares;
    for (const auto& [name, agg] : groups) {
      shares.push_back({Ratio(agg.seconds, compute_s_) * 100.0, name});
    }
    std::sort(shares.rbegin(), shares.rend());
    std::string out;
    for (const auto& [pct, name] : shares) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s%s %.1f%%", out.empty() ? "" : ", ",
                    name.c_str(), pct);
      out += buf;
    }
    return out;
  };
  return render(by_label_) + "; by category: " + render(by_category_);
}

double LayerAccumulator::MeanCompileSeconds() const {
  // AQL+ template time is part of optimize.
  return Ratio(parse_s_ + translate_s_ + optimize_s_ + jobgen_s_,
               static_cast<double>(queries_));
}

int64_t CountRunFiles(const std::string& dir) {
  int64_t runs = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    const std::string file = it->path().filename().string();
    if (file.rfind("run_", 0) == 0 && it->path().extension() == ".dat") {
      ++runs;
    }
  }
  return runs;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace simdb::perfbench
