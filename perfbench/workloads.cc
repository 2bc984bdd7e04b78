// The workloads (see README.md for why each exists):
//   jaccard-join   closed loop, 1 client: the AQL+ three-stage Jaccard join
//   ed-join        closed loop, 1 client through the serving layer: indexed
//                  edit-distance join over flushed sorted runs
//   search-ingest  3 closed-loop selection clients through the serving layer
//                  beside 1 open-loop writer (not gated: too host-sensitive)
// Every answer is checked against a brute-force evaluation computed here
// with similarity:: functions on the same generated records.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>
#include <unordered_map>

#include "cluster/cost_model.h"
#include "common/bytes.h"
#include "common/random.h"
#include "datagen/textgen.h"
#include "perfbench.h"
#include "serving/query_engine.h"
#include "similarity/edit_distance.h"
#include "similarity/jaccard.h"
#include "similarity/simd_kernels.h"
#include "similarity/tokenizer.h"
#include "storage/file_util.h"
#include "storage/index_tokens.h"

namespace simdb::perfbench {
namespace {

constexpr double kJaccardDelta = 0.5;
constexpr int kEditK = 1;
/// search-ingest: open-loop writer rate (inserts per second) and the mean
/// think time each selection client waits between queries. The engine's
/// state lock prefers readers, so three clients with no think time starve
/// the writer and its backlog grows without bound. With think times drawn
/// exponentially (so the clients do not fall into step) the lock is free
/// most of the time and an insert waits at most for the selections in
/// flight. Both are stated in README.md.
constexpr double kIngestRate = 200;
constexpr double kThinkSeconds = 0.015;
/// Selection constants per predicate kind in search-ingest.
constexpr int kConstantsPerKind = 64;


std::string JoinAql(bool jaccard, const std::string& ds) {
  if (jaccard) {
    return "for $l in dataset " + ds + " for $r in dataset " + ds +
           " where similarity-jaccard(word-tokens($l.summary), "
           "word-tokens($r.summary)) >= 0.5 and $l.id < $r.id "
           "return {'l': $l.id, 'r': $r.id}";
  }
  return "set simfunction 'edit-distance'; set simthreshold '1'; "
         "for $l in dataset " + ds + " for $r in dataset " + ds +
         " where $l.reviewerName ~= $r.reviewerName and $l.id < $r.id "
         "return {'l': $l.id, 'r': $r.id}";
}

struct Plan {
  /// Joins cycle over several independently generated datasets so one
  /// seed's data quirks (a few frequent tokens or names) average out.
  int datasets = 1;
  int64_t records = 0;  // base records per dataset
  bool keyword_index = false;
  bool ngram_index = false;
  bool flush = false;
  /// Queries go through serving::QueryEngine instead of Execute.
  bool served = false;
  int setups = 11;  // setup repetitions behind the setup_s median
};

Result<Plan> PlanFor(const RunConfig& cfg) {
  Plan plan;
  plan.setups = cfg.trace || cfg.quick ? 1 : 11;
  if (cfg.workload == "jaccard-join") {
    plan.datasets = cfg.quick ? 4 : 16;
    plan.records = cfg.quick ? 150 : 750;
  } else if (cfg.workload == "ed-join") {
    plan.datasets = cfg.quick ? 4 : 16;
    plan.records = cfg.quick ? 150 : 750;
    plan.ngram_index = true;
    plan.flush = true;
    plan.served = true;
  } else if (cfg.workload == "search-ingest") {
    plan.records = cfg.quick ? 300 : 4000;
    plan.keyword_index = true;
    plan.ngram_index = true;
    plan.flush = true;
    plan.served = true;
  } else {
    return Status::InvalidArgument("unknown workload '" + cfg.workload + "'");
  }
  return plan;
}

/// One dataset's generated inputs: base records (loaded in setup) followed
/// by extra records (inserted while measuring). Derived from the seed only.
struct Inputs {
  std::string name;
  std::vector<adm::Value> records;
  std::vector<std::string> summaries;
  std::vector<std::string> names;
  std::vector<std::vector<std::string>> sorted_tokens;  // of summaries
  int64_t base = 0;
};

/// Dataset `name` from generator stream `stream` of the seed.
Inputs Generate(const std::string& name, uint64_t seed, uint64_t stream,
                int64_t base, int64_t extra) {
  Inputs in;
  in.name = name;
  in.base = base;
  datagen::TextDatasetGenerator gen(datagen::AmazonProfile(),
                                    Random(seed).Fork(stream).NextU64());
  for (int64_t id = 0; id < base + extra; ++id) {
    adm::Value rec = gen.NextRecord(id);
    in.summaries.push_back(rec.GetField("summary").AsString());
    in.names.push_back(rec.GetField("reviewerName").AsString());
    std::vector<std::string> tokens =
        similarity::WordTokens(in.summaries.back());
    std::sort(tokens.begin(), tokens.end());
    in.sorted_tokens.push_back(std::move(tokens));
    in.records.push_back(std::move(rec));
  }
  return in;
}

/// The queried datasets; the first carries `extra` records for inserts.
std::vector<Inputs> MakeInputs(uint64_t seed, const Plan& plan,
                               int64_t extra) {
  std::vector<Inputs> all;
  for (int d = 0; d < plan.datasets; ++d) {
    all.push_back(Generate("Reviews" + std::to_string(d), seed, d,
                           plan.records, d == 0 ? extra : 0));
  }
  return all;
}

/// One engine instance rooted in its own directory under the work dir.
struct Engine {
  std::string dir;
  std::unique_ptr<serving::QueryEngine> serving;
  std::unique_ptr<core::QueryProcessor> processor;

  core::QueryProcessor& qp() {
    return serving ? serving->processor() : *processor;
  }
  storage::Dataset* dataset(const std::string& name) {
    return qp().catalog()->Find(name);
  }
  ~Engine() {
    serving.reset();
    processor.reset();
    storage::RemoveAllBestEffort(dir);
  }
};

/// Engine construction, load, index build and flush: what setup_s times.
Result<std::unique_ptr<Engine>> Setup(const RunConfig& cfg, const Plan& plan,
                                      const std::vector<const Inputs*>& inputs,
                                      int attempt) {
  auto engine = std::make_unique<Engine>();
  engine->dir = cfg.work_dir + "/data-" + std::to_string(::getpid()) + "-" +
                std::to_string(attempt);
  storage::RemoveAllBestEffort(engine->dir);
  core::EngineOptions options;
  options.data_dir = engine->dir;
  options.topology = {2, 2};
  options.num_threads = static_cast<size_t>(cfg.threads);
  options.transport = transport::TransportKind::kModeled;
  if (plan.served) {
    engine->serving = std::make_unique<serving::QueryEngine>(
        options, serving::ServingOptions{});
  } else {
    engine->processor = std::make_unique<core::QueryProcessor>(options);
  }
  core::QueryProcessor& qp = engine->qp();
  for (const Inputs* dataset : inputs) {
    const Inputs& in = *dataset;
    SIMDB_RETURN_IF_ERROR(
        qp.Execute("create dataset " + in.name + " primary key id;"));
    for (int64_t id = 0; id < in.base; ++id) {
      SIMDB_RETURN_IF_ERROR(qp.Insert(in.name, in.records[id]));
    }
    if (plan.keyword_index) {
      SIMDB_RETURN_IF_ERROR(qp.Execute("create index kix on " + in.name +
                                       "(summary) type keyword;"));
    }
    if (plan.ngram_index) {
      SIMDB_RETURN_IF_ERROR(qp.Execute("create index nix on " + in.name +
                                       "(reviewerName) type ngram(2);"));
    }
    if (plan.flush) {
      SIMDB_RETURN_IF_ERROR(engine->dataset(in.name)->FlushAll());
    }
  }
  return engine;
}

/// Repeats setup `plan.setups` times and keeps the last engine; returns the
/// median setup time.
Result<std::unique_ptr<Engine>> TimedSetup(
    const RunConfig& cfg, const Plan& plan,
    const std::vector<const Inputs*>& inputs, double* setup_median_s) {
  std::vector<double> times;
  std::unique_ptr<Engine> engine;
  for (int i = 0; i < plan.setups; ++i) {
    engine.reset();
    Clock::time_point t0 = Clock::now();
    SIMDB_ASSIGN_OR_RETURN(engine, Setup(cfg, plan, inputs, i));
    times.push_back(SecondsBetween(t0, Clock::now()));
  }
  *setup_median_s = Percentile(times, 0.5);
  return engine;
}

// ---------------------------------------------------------------------------
// Answer references
// ---------------------------------------------------------------------------

using PairList = std::vector<std::pair<int64_t, int64_t>>;

bool JaccardMatch(const std::vector<std::string>& a,
                  const std::vector<std::string>& b) {
  return similarity::JaccardSorted(a, b) >= kJaccardDelta;
}

bool EditMatch(const std::string& a, const std::string& b) {
  return similarity::EditDistanceCheck(a, b, kEditK) >= 0;
}

/// Brute-force self-join over the base records: every pair l < r.
PairList JoinReference(const Inputs& in, bool jaccard) {
  PairList pairs;
  for (int64_t l = 0; l < in.base; ++l) {
    for (int64_t r = l + 1; r < in.base; ++r) {
      bool match = jaccard ? JaccardMatch(in.sorted_tokens[l],
                                          in.sorted_tokens[r])
                           : EditMatch(in.names[l], in.names[r]);
      if (match) pairs.emplace_back(l, r);
    }
  }
  return pairs;
}

/// Compares a join's {'l', 'r'} rows with the reference; reports the first
/// difference on stderr.
bool CheckJoin(const std::vector<adm::Value>& rows, const PairList& expected) {
  PairList got;
  got.reserve(rows.size());
  for (const adm::Value& row : rows) {
    const adm::Value& l = row.GetField("l");
    const adm::Value& r = row.GetField("r");
    if (!l.is_int64() || !r.is_int64()) {
      std::fprintf(stderr, "join row is not {l, r}: %s\n",
                   row.ToJson().c_str());
      return false;
    }
    got.emplace_back(l.AsInt64(), r.AsInt64());
  }
  std::sort(got.begin(), got.end());
  if (got == expected) return true;
  PairList missing, extra;
  std::set_difference(expected.begin(), expected.end(), got.begin(), got.end(),
                      std::back_inserter(missing));
  std::set_difference(got.begin(), got.end(), expected.begin(), expected.end(),
                      std::back_inserter(extra));
  std::fprintf(stderr,
               "join answer mismatch: %zu pairs, expected %zu (%zu missing, "
               "%zu extra)\n",
               got.size(), expected.size(), missing.size(), extra.size());
  for (const auto* diff : {&missing, &extra}) {
    if (!diff->empty()) {
      std::fprintf(stderr, "  first %s (%lld, %lld)\n",
                   diff == &missing ? "missing" : "extra",
                   static_cast<long long>(diff->front().first),
                   static_cast<long long>(diff->front().second));
    }
  }
  return false;
}

/// One selection constant of search-ingest with its reference answer over
/// the base records.
struct Selection {
  bool jaccard = false;
  std::string constant;
  std::vector<std::string> sorted_tokens;  // jaccard only
  std::string aql;
  std::vector<int64_t> base_answer;  // sorted ids

  bool Matches(const Inputs& in, int64_t id) const {
    return jaccard ? JaccardMatch(sorted_tokens, in.sorted_tokens[id])
                   : EditMatch(constant, in.names[id]);
  }
};

bool Quotable(const std::string& s) {
  return s.find('\'') == std::string::npos &&
         s.find('\\') == std::string::npos;
}

Result<std::vector<Selection>> MakeSelections(const Inputs& in,
                                              uint64_t seed) {
  datagen::WorkloadSampler summaries(
      {in.summaries.begin(), in.summaries.begin() + in.base}, seed ^ 0x5eed1);
  datagen::WorkloadSampler names({in.names.begin(), in.names.begin() + in.base},
                                 seed ^ 0x5eed2);
  std::vector<Selection> out;
  for (int i = 0; i < 2 * kConstantsPerKind; ++i) {
    Selection sel;
    sel.jaccard = i % 2 == 0;
    do {
      SIMDB_ASSIGN_OR_RETURN(sel.constant,
                             sel.jaccard ? summaries.SampleWithMinWords(3)
                                         : names.SampleWithMinChars(5));
    } while (!Quotable(sel.constant));
    if (sel.jaccard) {
      sel.sorted_tokens = similarity::WordTokens(sel.constant);
      std::sort(sel.sorted_tokens.begin(), sel.sorted_tokens.end());
      sel.aql = "for $t in dataset " + in.name +
                " where similarity-jaccard(word-tokens($t.summary), "
                "word-tokens('" + sel.constant +
                "')) >= 0.5 return {'id': $t.id, 'v': $t.summary}";
    } else {
      sel.aql = "for $t in dataset " + in.name +
                " where edit-distance($t.reviewerName, '" + sel.constant +
                "') <= 1 return {'id': $t.id, 'v': $t.reviewerName}";
    }
    for (int64_t id = 0; id < in.base; ++id) {
      if (sel.Matches(in, id)) sel.base_answer.push_back(id);
    }
    out.push_back(std::move(sel));
  }
  return out;
}

/// Every returned row must satisfy the predicate and carry its record's own
/// field value; no base record that satisfies it may be missing. Records
/// inserted during the run may or may not be visible yet.
bool CheckSelection(const Selection& sel, const std::vector<adm::Value>& rows,
                    const Inputs& in) {
  std::vector<int64_t> ids;
  for (const adm::Value& row : rows) {
    const adm::Value& id = row.GetField("id");
    const adm::Value& v = row.GetField("v");
    if (!id.is_int64() || !v.is_string() || id.AsInt64() < 0 ||
        id.AsInt64() >= static_cast<int64_t>(in.records.size())) {
      std::fprintf(stderr, "selection row malformed: %s\n",
                   row.ToJson().c_str());
      return false;
    }
    const std::string& field = sel.jaccard ? in.summaries[id.AsInt64()]
                                           : in.names[id.AsInt64()];
    if (v.AsString() != field || !sel.Matches(in, id.AsInt64())) {
      std::fprintf(stderr, "selection '%s' returned non-matching row %s\n",
                   sel.constant.c_str(), row.ToJson().c_str());
      return false;
    }
    ids.push_back(id.AsInt64());
  }
  std::sort(ids.begin(), ids.end());
  for (int64_t want : sel.base_answer) {
    if (!std::binary_search(ids.begin(), ids.end(), want)) {
      std::fprintf(stderr, "selection '%s' is missing base record %lld\n",
                   sel.constant.c_str(), static_cast<long long>(want));
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Shared measurement pieces
// ---------------------------------------------------------------------------

/// Outcome counters shared by client threads.
struct Tally {
  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> failed{0};
  std::atomic<bool> correct{true};
};

Clock::duration ToDuration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Derived compile and execution spans under `parent`, placed from the
/// engine's own figures so that they end when the request ended.
void RecordQuerySpans(SpanRecorder& spans, int64_t request, int64_t parent,
                      Clock::time_point end, const core::QueryResult& r) {
  if (!spans.enabled()) return;
  Clock::time_point exec_start = end - ToDuration(r.exec.wall_seconds);
  spans.Record("exec", request, parent, exec_start, end, /*derived=*/true);
  spans.Record("compile", request, parent,
               exec_start - ToDuration(r.compile.total_seconds), exec_start,
               /*derived=*/true);
}

/// One query through the engine's front door: `QueryEngine::Submit` and
/// `Wait` when the workload is served, `QueryProcessor::Execute` otherwise.
struct QueryCall {
  Status status = Status::OK();
  Clock::time_point start, end;
  std::shared_ptr<serving::QueryTicket> ticket;  // served queries
  core::QueryResult executed;                    // Execute

  const core::QueryResult& result() const {
    return ticket ? ticket->result() : executed;
  }
  double latency_s() const { return SecondsBetween(start, end); }
};

/// Runs `aql` and records its spans: an `Execute` root, or a `query` root
/// with `Submit` and `Wait` children; derived compile and exec spans sit
/// under `Execute` / `Wait`.
void CallQuery(Engine& engine, const std::string& aql, SpanRecorder& spans,
               QueryCall* call) {
  int64_t request = spans.NewRequest();
  call->start = Clock::now();
  if (engine.serving == nullptr) {
    call->status = engine.qp().Execute(aql, &call->executed);
    call->end = Clock::now();
    int64_t root = spans.Record("Execute", request, 0, call->start, call->end);
    if (call->status.ok()) {
      RecordQuerySpans(spans, request, root, call->end, call->executed);
    }
    return;
  }
  Result<std::shared_ptr<serving::QueryTicket>> ticket =
      engine.serving->Submit(aql);
  Clock::time_point submitted = Clock::now();
  if (!ticket.ok()) {
    call->status = ticket.status();
    call->end = submitted;
    spans.Record("Submit", request, 0, call->start, submitted);
    return;
  }
  call->ticket = ticket.value();
  call->status = call->ticket->Wait();
  call->end = Clock::now();
  int64_t root = spans.Record("query", request, 0, call->start, call->end);
  spans.Record("Submit", request, root, call->start, submitted);
  int64_t wait = spans.Record("Wait", request, root, submitted, call->end);
  if (call->status.ok()) {
    RecordQuerySpans(spans, request, wait, call->end, call->result());
  }
}

/// Acknowledged records must read back equal.
void CheckReadBack(Engine& engine, const Inputs& in,
                   const std::vector<int64_t>& acked, Tally& tally) {
  storage::Dataset* ds = engine.dataset(in.name);
  for (int64_t id : acked) {
    Result<std::optional<adm::Value>> got = ds->GetByPk(id);
    if (!got.ok() || !got.value().has_value() ||
        *got.value() != in.records[id]) {
      std::fprintf(stderr, "inserted record %lld does not read back\n",
                   static_cast<long long>(id));
      tally.correct = false;
      return;
    }
  }
}

/// Back-to-back inserts with no readers in flight; returns seconds per call.
std::vector<double> TimedInserts(Engine& engine, const Inputs& in,
                                 int64_t* next_id, int count,
                                 SpanRecorder& spans, Tally& tally) {
  std::vector<double> latencies;
  std::vector<int64_t> acked;
  for (int i = 0; i < count; ++i) {
    if (*next_id >= static_cast<int64_t>(in.records.size())) break;
    int64_t id = (*next_id)++;
    tally.attempted++;
    Clock::time_point t0 = Clock::now();
    Status s = engine.qp().Insert(in.name, in.records[id]);
    Clock::time_point t1 = Clock::now();
    spans.Record("Insert", spans.NewRequest(), 0, t0, t1);
    if (!s.ok()) {
      tally.failed++;
      continue;
    }
    latencies.push_back(SecondsBetween(t0, t1));
    acked.push_back(id);
  }
  CheckReadBack(engine, in, acked, tally);
  return latencies;
}

/// Copies the tallies into `outcome` and, in a traced run, writes the spans.
Status Finish(const RunConfig& cfg, const Tally& tally,
              const SpanRecorder& spans, RunOutcome* outcome) {
  outcome->correct = tally.correct;
  outcome->attempted = tally.attempted;
  outcome->failed = tally.failed;
  if (!cfg.trace) return Status::OK();
  outcome->trace_path = cfg.work_dir + "/trace-" + cfg.workload + "-seed" +
                        std::to_string(cfg.seed) + ".json";
  outcome->span_count = spans.size();
  if (!spans.WriteChromeTrace(outcome->trace_path, cfg.stamp_json)) {
    return Status::IOError("cannot write " + outcome->trace_path);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Replay: direct calls into storage and similarity (traced run only)
// ---------------------------------------------------------------------------

/// Times `fn` (which processes `n` items per call) until at least `budget`
/// seconds have passed; returns nanoseconds per item.
template <typename Fn>
double NsPerItem(size_t n, double budget, Fn fn) {
  if (n == 0) return 0;
  size_t calls = 0;
  Clock::time_point t0 = Clock::now();
  double elapsed = 0;
  do {
    fn();
    ++calls;
    elapsed = SecondsBetween(t0, Clock::now());
  } while (elapsed < budget);
  return elapsed / static_cast<double>(calls * n) * 1e9;
}

/// Timings of the direct storage / similarity calls the traced run makes.
struct ReplayFigures {
  double tocc_us = 0;           // mean InvertedIndex::SearchTOccurrence call
  double get_us = 0;            // mean Dataset::GetByPkInPartition call
  double insert_us = 0;         // mean QueryProcessor::Insert, no readers
  double jaccard_check_ns = 0;  // simd::JaccardCheckPairs per pair
  double ed_check_ns = 0;       // simd::EditDistanceCheckPairs per pair
  double runs = 0;              // LSM disk runs under the engine directory
  double space_amp = 0;         // disk bytes / serialized record bytes
};

/// Replays, outside the engine, the storage and kernel calls the workload's
/// plans make, on the workload's first dataset.
class Replayer {
 public:
  Replayer(const RunConfig& cfg, Engine& engine, const Inputs& in,
           SpanRecorder& spans)
      : cfg_(cfg),
        engine_(engine),
        in_(in),
        ds_(engine.dataset(in.name)),
        spans_(spans) {}

  /// `answer_pairs`: the workload's own join answer, the kernel input when
  /// no index produces candidate pairs.
  ReplayFigures Run(const PairList& answer_pairs, int64_t* next_id,
                    Tally& tally) {
    ReplayFigures fig;
    request_ = spans_.NewRequest();
    Clock::time_point t0 = Clock::now();
    Random rng(cfg_.seed ^ 0x7e91a7);
    std::vector<int64_t> probes;
    for (int i = 0; i < (cfg_.quick ? 20 : 200); ++i) {
      probes.push_back(static_cast<int64_t>(
          rng.Uniform(static_cast<uint64_t>(in_.base))));
    }
    if (const storage::IndexSpec* nix = ds_->FindIndex("nix")) {
      for (int64_t id : probes) {
        const std::string& name = in_.names[id];
        int t = similarity::EditDistanceTOccurrence(
            static_cast<int>(name.size()), nix->gram_len, kEditK);
        if (t <= 0) continue;  // corner case: the plan scans instead
        Probe(*nix, name, t, [&](int64_t pk) {
          ed_a_.push_back(name);
          ed_b_.push_back(in_.names[pk]);
        });
      }
    }
    if (const storage::IndexSpec* kix = ds_->FindIndex("kix")) {
      for (int64_t id : probes) {
        int t = similarity::JaccardTOccurrence(
            static_cast<int>(in_.sorted_tokens[id].size()), kJaccardDelta);
        Probe(*kix, in_.summaries[id], t,
              [&](int64_t pk) { jaccard_pairs_.emplace_back(id, pk); });
      }
    }
    if (ds_->indexes().empty()) {
      // No secondary index: point lookups of the probe records' own keys,
      // grouped per partition in sorted order.
      std::vector<std::vector<int64_t>> by_partition(ds_->num_partitions());
      for (int64_t id : probes) {
        by_partition[ds_->PartitionOfPk(id)].push_back(id);
      }
      for (int p = 0; p < ds_->num_partitions(); ++p) {
        std::sort(by_partition[p].begin(), by_partition[p].end());
        TimeGets(p, by_partition[p]);
      }
      jaccard_pairs_.assign(
          answer_pairs.begin(),
          answer_pairs.begin() +
              static_cast<std::ptrdiff_t>(
                  std::min<size_t>(answer_pairs.size(), 20000)));
    }
    fig.tocc_us = tocc_calls_ > 0 ? tocc_s_ / tocc_calls_ * 1e6 : 0;
    fig.get_us = get_calls_ > 0 ? get_s_ / get_calls_ * 1e6 : 0;
    fig.jaccard_check_ns = JaccardKernel();
    fig.ed_check_ns = EditKernel();

    std::vector<double> inserts = TimedInserts(
        engine_, in_, next_id, cfg_.quick ? 20 : 300, spans_, tally);
    double sum = 0;
    for (double s : inserts) sum += s;
    fig.insert_us = inserts.empty() ? 0 : sum / inserts.size() * 1e6;

    fig.runs = static_cast<double>(CountRunFiles(engine_.dir));
    uint64_t disk = ds_->PrimaryDiskSize();
    for (const storage::IndexSpec& spec : ds_->indexes()) {
      disk += ds_->IndexDiskSize(spec.name);
    }
    uint64_t user = 0;
    const int64_t stored = std::min<int64_t>(
        ds_->record_count(), static_cast<int64_t>(in_.records.size()));
    for (int64_t id = 0; id < stored; ++id) {
      std::string bytes;
      ByteWriter w(&bytes);
      in_.records[id].Serialize(&w);
      user += bytes.size();
    }
    fig.space_amp = user > 0 ? static_cast<double>(disk) / user : 0;
    spans_.Record("replay", request_, 0, t0, Clock::now());
    return fig;
  }

 private:
  /// SearchTOccurrence in every partition, then the candidates' primary
  /// lookups in sorted order, as INVERTED-SEARCH -> SORT -> PRIMARY-LOOKUP
  /// does.
  template <typename OnCandidate>
  void Probe(const storage::IndexSpec& spec, const std::string& value, int t,
             OnCandidate on_candidate) {
    Result<std::vector<std::string>> tokens =
        storage::ExtractIndexTokens(spec, adm::Value::String(value));
    if (!tokens.ok() || tokens.value().empty()) return;
    for (int p = 0; p < ds_->num_partitions(); ++p) {
      storage::InvertedIndex* index = ds_->inverted_index(p, spec.name);
      if (index == nullptr) continue;
      Clock::time_point t0 = Clock::now();
      Result<std::vector<int64_t>> keys =
          index->SearchTOccurrence(tokens.value(), t);
      Clock::time_point t1 = Clock::now();
      spans_.Record("replay.SearchTOccurrence", request_, 0, t0, t1);
      tocc_s_ += SecondsBetween(t0, t1);
      ++tocc_calls_;
      if (!keys.ok()) continue;
      std::vector<int64_t> sorted = keys.value();
      std::sort(sorted.begin(), sorted.end());
      TimeGets(p, sorted);
      for (int64_t pk : sorted) {
        if (pk >= 0 && pk < static_cast<int64_t>(in_.records.size())) {
          on_candidate(pk);
        }
      }
    }
  }

  void TimeGets(int partition, const std::vector<int64_t>& pks) {
    if (pks.empty()) return;
    Clock::time_point t0 = Clock::now();
    for (int64_t pk : pks) {
      if (!ds_->GetByPkInPartition(partition, pk).ok()) break;
    }
    Clock::time_point t1 = Clock::now();
    spans_.Record("replay.GetByPkInPartition", request_, 0, t0, t1);
    get_s_ += SecondsBetween(t0, t1);
    get_calls_ += static_cast<double>(pks.size());
  }

  double JaccardKernel() {
    if (jaccard_pairs_.empty()) return 0;
    // Dense ids over occurrence-deduped word tokens: the operators' encoding.
    std::unordered_map<std::string, uint32_t> dict;
    auto encode = [&](int64_t id, std::vector<uint32_t>* ids,
                      std::vector<size_t>* offsets) {
      for (const std::string& tok : similarity::DedupOccurrences(
               similarity::WordTokens(in_.summaries[id]))) {
        ids->push_back(
            dict.emplace(tok, static_cast<uint32_t>(dict.size())).first->second);
      }
      std::sort(ids->begin() + static_cast<std::ptrdiff_t>(offsets->back()),
                ids->end());
      offsets->push_back(ids->size());
    };
    std::vector<uint32_t> a_ids, b_ids;
    std::vector<size_t> a_off{0}, b_off{0};
    for (const auto& [a, b] : jaccard_pairs_) {
      encode(a, &a_ids, &a_off);
      encode(b, &b_ids, &b_off);
    }
    std::vector<double> out(jaccard_pairs_.size());
    Clock::time_point t0 = Clock::now();
    double ns = NsPerItem(out.size(), cfg_.quick ? 0.005 : 0.05, [&] {
      simd::JaccardCheckPairs(a_ids.data(), a_off.data(), b_ids.data(),
                              b_off.data(), out.size(), kJaccardDelta,
                              out.data(), /*assume_unique=*/true);
    });
    spans_.Record("replay.JaccardCheckPairs", request_, 0, t0, Clock::now());
    return ns;
  }

  double EditKernel() {
    if (ed_a_.empty()) return 0;
    std::string a_chars, b_chars;
    std::vector<size_t> a_off{0}, b_off{0};
    for (size_t i = 0; i < ed_a_.size(); ++i) {
      a_chars += ed_a_[i];
      a_off.push_back(a_chars.size());
      b_chars += ed_b_[i];
      b_off.push_back(b_chars.size());
    }
    std::vector<int> out(ed_a_.size());
    Clock::time_point t0 = Clock::now();
    double ns = NsPerItem(out.size(), cfg_.quick ? 0.005 : 0.05, [&] {
      simd::EditDistanceCheckPairs(a_chars.data(), a_off.data(),
                                   b_chars.data(), b_off.data(), out.size(),
                                   kEditK, out.data());
    });
    spans_.Record("replay.EditDistanceCheckPairs", request_, 0, t0,
                  Clock::now());
    return ns;
  }

  const RunConfig& cfg_;
  Engine& engine_;
  const Inputs& in_;
  storage::Dataset* ds_;
  SpanRecorder& spans_;
  int64_t request_ = 0;
  double tocc_s_ = 0, tocc_calls_ = 0, get_s_ = 0, get_calls_ = 0;
  std::vector<std::string> ed_a_, ed_b_;
  PairList jaccard_pairs_;
};

void EmitReplay(const ReplayFigures& fig, MetricSet* m) {
  m->Set("storage.get_us", fig.get_us, "us");
  m->Set("storage.tocc_us", fig.tocc_us, "us");
  m->Set("storage.insert_us", fig.insert_us, "us");
  m->Set("storage.runs", fig.runs, "count");
  m->Set("storage.space_amp", fig.space_amp, "ratio");
  m->Set("kernel.jaccard_check_ns", fig.jaccard_check_ns, "ns");
  m->Set("kernel.ed_check_ns", fig.ed_check_ns, "ns");
}

/// What the traced run confirms about the workload: where operator compute
/// goes, and compile time against the untraced median latency.
void PrintShares(const LayerAccumulator& layers,
                 const std::vector<double>& plain_latency_s) {
  std::printf("operator compute share: %s\n", layers.ShareSummary().c_str());
  double p50 = Percentile(plain_latency_s, 0.5);
  std::printf("compile: %.1f us per query, %.1f%% of the untraced median "
              "latency\n",
              layers.MeanCompileSeconds() * 1e6,
              p50 > 0 ? layers.MeanCompileSeconds() / p50 * 100 : 0.0);
}

double OverheadPct(const std::vector<double>& plain,
                   const std::vector<double>& traced) {
  double base = Percentile(plain, 0.5);
  return base > 0 ? (Percentile(traced, 0.5) - base) / base * 100 : 0;
}

// ---------------------------------------------------------------------------
// Join workloads
// ---------------------------------------------------------------------------

struct JoinSamples {
  // Per dataset: latencies and makespans of its queries.
  std::vector<std::vector<double>> latency_s;
  std::vector<std::vector<double>> makespan_s;
  std::vector<double> queue_s, exec_s;  // served queries
  size_t queries = 0;
  double elapsed_s = 0;
};

/// The workload's percentile: taken per dataset, then averaged over the
/// datasets, so that one dataset's cost does not decide the tail.
double MeanPercentile(const std::vector<std::vector<double>>& per_dataset,
                      double p) {
  double sum = 0;
  for (const std::vector<double>& v : per_dataset) sum += Percentile(v, p);
  return per_dataset.empty() ? 0 : sum / per_dataset.size();
}

std::vector<double> Flatten(const std::vector<std::vector<double>>& nested) {
  std::vector<double> flat;
  for (const std::vector<double>& v : nested) {
    flat.insert(flat.end(), v.begin(), v.end());
  }
  return flat;
}

/// Closed loop, one client: rounds of one query per dataset, back to back,
/// until `seconds` have passed (at least `min_rounds`). Every answer is
/// checked.
void JoinLoop(Engine& engine, bool jaccard, const std::vector<Inputs>& inputs,
              const std::vector<PairList>& refs, double seconds,
              int min_rounds, SpanRecorder& spans, LayerAccumulator* layers,
              Tally& tally, JoinSamples* out) {
  const hyracks::ClusterTopology topology = engine.qp().options().topology;
  out->latency_s.resize(inputs.size());
  out->makespan_s.resize(inputs.size());
  Clock::time_point start = Clock::now();
  for (int round = 0; tally.correct && (round < min_rounds ||
                                        SecondsBetween(start, Clock::now()) <
                                            seconds);
       ++round) {
    for (size_t d = 0; d < inputs.size() && tally.correct; ++d) {
      tally.attempted++;
      QueryCall call;
      CallQuery(engine, JoinAql(jaccard, inputs[d].name), spans, &call);
      if (!call.status.ok()) {
        std::fprintf(stderr, "join failed: %s\n",
                     call.status.ToString().c_str());
        tally.failed++;
        continue;
      }
      const core::QueryResult& result = call.result();
      out->latency_s[d].push_back(call.latency_s());
      out->makespan_s[d].push_back(
          cluster::ComputeMakespan(result.exec, topology).total_seconds());
      if (call.ticket) {
        out->queue_s.push_back(call.ticket->queue_seconds());
        out->exec_s.push_back(call.ticket->exec_seconds());
      }
      ++out->queries;
      if (layers != nullptr) layers->AddQuery(result);
      if (!CheckJoin(result.rows, refs[d])) tally.correct = false;
    }
  }
  out->elapsed_s = SecondsBetween(start, Clock::now());
}

Status RunJoin(const RunConfig& cfg, const Plan& plan, RunOutcome* outcome) {
  const bool jaccard = cfg.workload == "jaccard-join";
  const double seconds = cfg.quick ? std::min(cfg.seconds, 1.0) : cfg.seconds;
  std::vector<Inputs> inputs = MakeInputs(cfg.seed, plan, 400);
  std::vector<const Inputs*> all;
  for (const Inputs& in : inputs) all.push_back(&in);
  double setup_s = 0;
  SIMDB_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                         TimedSetup(cfg, plan, all, &setup_s));
  std::vector<PairList> refs;
  size_t ref_pairs = 0;
  for (const Inputs& in : inputs) {
    refs.push_back(JoinReference(in, jaccard));
    ref_pairs += refs.back().size();
  }
  if (cfg.perturb_reference && !refs[0].empty()) refs[0].pop_back();
  std::printf("reference: %zu pairs over %zu datasets of %lld records\n",
              ref_pairs, inputs.size(), static_cast<long long>(plan.records));
  Tally tally;
  SpanRecorder spans(cfg.trace);
  SpanRecorder off(false);

  // Warm-up: one checked round, not timed.
  JoinSamples warm;
  JoinLoop(*engine, jaccard, inputs, refs, 0, 1, off, nullptr, tally, &warm);

  MetricSet& m = outcome->metrics;
  int64_t next_id = inputs[0].base;
  if (!cfg.trace) {
    JoinSamples js;
    JoinLoop(*engine, jaccard, inputs, refs, seconds, 1, off, nullptr, tally,
             &js);
    m.Set("setup_s", setup_s, "s");
    m.Set("peak_rss_mb", PeakRssMiB(), "MiB");
    m.Set("query_p50_ms", MeanPercentile(js.latency_s, 0.5) * 1e3, "ms");
    m.Set("makespan_p50_ms", MeanPercentile(js.makespan_s, 0.5) * 1e3, "ms");
    std::printf("queries: %zu in %.2f s (%.2f/s), p90 %.2f ms\n", js.queries,
                js.elapsed_s, js.queries / js.elapsed_s,
                MeanPercentile(js.latency_s, 0.9) * 1e3);
  } else {
    // Untraced half first (the overhead baseline), then the traced half.
    JoinSamples plain, traced;
    JoinLoop(*engine, jaccard, inputs, refs, seconds / 2, 1, off, nullptr,
             tally, &plain);
    engine->qp().set_profile_queries(true);
    LayerAccumulator layers(engine->qp().options().topology, cfg.threads);
    JoinLoop(*engine, jaccard, inputs, refs, seconds / 2, 1, spans, &layers,
             tally, &traced);
    engine->qp().set_profile_queries(false);
    layers.Emit(&m);
    Replayer replay(cfg, *engine, inputs[0], spans);
    EmitReplay(replay.Run(refs[0], &next_id, tally), &m);
    // Ticket timings from the untraced half (0 when not served).
    m.Set("serving.queue_ms_p50", Percentile(plain.queue_s, 0.5) * 1e3, "ms");
    m.Set("serving.queue_ms_p99", Percentile(plain.queue_s, 0.99) * 1e3, "ms");
    m.Set("serving.exec_ms_p50", Percentile(plain.exec_s, 0.5) * 1e3, "ms");
    m.Set("serving.peak_queue_depth",
          engine->serving
              ? static_cast<double>(engine->serving->Stats().peak_queue_depth)
              : 0.0,
          "count");
    // No writer runs beside the joins.
    m.Set("gen.lag_ms_p99", 0, "ms");
    m.Set("tail.query_p99_ms", MeanPercentile(plain.latency_s, 0.99) * 1e3,
          "ms");
    m.Set("tail.insert_p99_ms", 0, "ms");
    m.Set("trace.overhead_pct",
          OverheadPct(Flatten(plain.latency_s), Flatten(traced.latency_s)),
          "%");
    PrintShares(layers, Flatten(plain.latency_s));
  }
  return Finish(cfg, tally, spans, outcome);
}

// ---------------------------------------------------------------------------
// search-ingest
// ---------------------------------------------------------------------------

struct SelectionSamples {
  std::vector<double> latency_s, makespan_s, queue_s, exec_s;
};

struct WriterSamples {
  std::vector<double> latency_s;  // from the due time
  std::vector<double> lag_s;      // how late the call started
  std::vector<int64_t> acked;
};

/// Open-loop writer: insert k is due at start + k / rate and is timed from
/// its due time, so a stall also charges the inserts queued behind it.
void WriterLoop(Engine& engine, const Inputs& in, double rate,
                int64_t* next_id, Clock::time_point start,
                Clock::time_point deadline, SpanRecorder& spans, Tally& tally,
                WriterSamples* out) {
  for (int64_t k = 0; *next_id < static_cast<int64_t>(in.records.size());
       ++k) {
    Clock::time_point due =
        start + ToDuration(static_cast<double>(k) / rate);
    if (due >= deadline) break;
    std::this_thread::sleep_until(due);
    int64_t id = (*next_id)++;
    int64_t request = spans.NewRequest();
    tally.attempted++;
    Clock::time_point t0 = Clock::now();
    Status s = engine.qp().Insert(in.name, in.records[id]);
    Clock::time_point t1 = Clock::now();
    int64_t root = spans.Record("insert", request, 0, due, t1);
    spans.Record("generator.lag", request, root, due, t0);
    spans.Record("Insert", request, root, t0, t1);
    if (!s.ok()) {
      tally.failed++;
      continue;
    }
    out->latency_s.push_back(SecondsBetween(due, t1));
    out->lag_s.push_back(SecondsBetween(due, t0));
    out->acked.push_back(id);
  }
}

/// One closed-loop selection client: Submit, Wait, check, think, repeat.
void ReaderLoop(Engine& engine, const std::vector<Selection>& sels,
                const Inputs& in, Random rng, Clock::time_point deadline,
                SpanRecorder& spans, LayerAccumulator* layers,
                std::mutex* layers_mu, Tally& tally, SelectionSamples* out) {
  const hyracks::ClusterTopology topology = engine.qp().options().topology;
  for (bool first = true; Clock::now() < deadline && tally.correct;
       first = false) {
    if (!first) {
      double u = rng.NextDouble();
      std::this_thread::sleep_for(ToDuration(-std::log1p(-u) * kThinkSeconds));
    }
    const Selection& sel = sels[rng.Uniform(sels.size())];
    tally.attempted++;
    QueryCall call;
    CallQuery(engine, sel.aql, spans, &call);
    if (!call.status.ok()) {
      tally.failed++;
      continue;
    }
    const core::QueryResult& result = call.result();
    out->latency_s.push_back(call.latency_s());
    out->makespan_s.push_back(
        cluster::ComputeMakespan(result.exec, topology).total_seconds());
    out->queue_s.push_back(call.ticket->queue_seconds());
    out->exec_s.push_back(call.ticket->exec_seconds());
    if (layers != nullptr) {
      std::lock_guard<std::mutex> lock(*layers_mu);
      layers->AddQuery(result);
    }
    if (!CheckSelection(sel, result.rows, in)) tally.correct = false;
  }
}

/// Readers and the writer side by side for `seconds`; `stream` separates
/// the clients' random constant choices between phases.
void IngestPhase(const RunConfig& cfg, Engine& engine,
                 const std::vector<Selection>& sels, const Inputs& in,
                 int64_t* next_id, double seconds, uint64_t stream,
                 SpanRecorder& spans, LayerAccumulator* layers, Tally& tally,
                 SelectionSamples* reads, WriterSamples* writes,
                 double* elapsed_s) {
  const int readers = std::max(1, cfg.threads - 1);
  std::vector<SelectionSamples> per_reader(readers);
  std::mutex layers_mu;
  Clock::time_point start = Clock::now();
  Clock::time_point deadline = start + ToDuration(seconds);
  Random base = Random(cfg.seed).Fork(stream);
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < readers; ++c) {
      threads.emplace_back([&, c] {
        ReaderLoop(engine, sels, in, base.Fork(c), deadline, spans,
                   layers, &layers_mu, tally, &per_reader[c]);
      });
    }
    threads.emplace_back([&] {
      WriterLoop(engine, in, kIngestRate, next_id, start, deadline, spans,
                 tally, writes);
    });
  }
  *elapsed_s = SecondsBetween(start, Clock::now());
  auto append = [](std::vector<double>* to, const std::vector<double>& v) {
    to->insert(to->end(), v.begin(), v.end());
  };
  for (const SelectionSamples& r : per_reader) {
    append(&reads->latency_s, r.latency_s);
    append(&reads->makespan_s, r.makespan_s);
    append(&reads->queue_s, r.queue_s);
    append(&reads->exec_s, r.exec_s);
  }
  CheckReadBack(engine, in, writes->acked, tally);
}

Status RunSearchIngest(const RunConfig& cfg, const Plan& plan,
                       RunOutcome* outcome) {
  const double seconds = cfg.quick ? std::min(cfg.seconds, 1.0) : cfg.seconds;
  std::vector<Inputs> inputs = MakeInputs(
      cfg.seed, plan, static_cast<int64_t>(kIngestRate * seconds) + 400);
  const Inputs& in = inputs[0];
  double setup_s = 0;
  SIMDB_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                         TimedSetup(cfg, plan, {&in}, &setup_s));
  SIMDB_ASSIGN_OR_RETURN(std::vector<Selection> sels,
                         MakeSelections(in, cfg.seed));
  if (cfg.perturb_reference) {
    // A record id that cannot be returned.
    sels[0].base_answer.insert(sels[0].base_answer.begin(), -1);
  }
  Tally tally;
  SpanRecorder spans(cfg.trace);
  SpanRecorder off(false);

  // Warm-up: every constant once, checked, not timed.
  for (const Selection& sel : sels) {
    tally.attempted++;
    Result<std::shared_ptr<serving::QueryTicket>> t =
        engine->serving->Submit(sel.aql);
    if (!t.ok() || !t.value()->Wait().ok()) {
      tally.failed++;
    } else if (!CheckSelection(sel, t.value()->result().rows, in)) {
      tally.correct = false;
    }
  }

  MetricSet& m = outcome->metrics;
  int64_t next_id = in.base;
  double elapsed = 0;
  if (!cfg.trace) {
    SelectionSamples reads;
    WriterSamples writes;
    IngestPhase(cfg, *engine, sels, in, &next_id, seconds, 1, off, nullptr,
                tally, &reads, &writes, &elapsed);
    m.Set("setup_s", setup_s, "s");
    m.Set("peak_rss_mb", PeakRssMiB(), "MiB");
    m.Set("query_p50_ms", Percentile(reads.latency_s, 0.5) * 1e3, "ms");
    m.Set("makespan_p50_ms", Percentile(reads.makespan_s, 0.5) * 1e3, "ms");
    std::printf("selections: %zu in %.2f s (%.1f/s), p99 %.3f ms; inserts: "
                "%zu, p50 %.3f ms, p99 %.3f ms from the due time\n",
                reads.latency_s.size(), elapsed,
                reads.latency_s.size() / elapsed,
                Percentile(reads.latency_s, 0.99) * 1e3,
                writes.latency_s.size(), Percentile(writes.latency_s, 0.5) * 1e3,
                Percentile(writes.latency_s, 0.99) * 1e3);
  } else {
    SelectionSamples plain_reads, reads;
    WriterSamples plain_writes, writes;
    IngestPhase(cfg, *engine, sels, in, &next_id, seconds / 2, 1, off,
                nullptr, tally, &plain_reads, &plain_writes, &elapsed);
    engine->qp().set_profile_queries(true);
    LayerAccumulator layers(engine->qp().options().topology, cfg.threads);
    IngestPhase(cfg, *engine, sels, in, &next_id, seconds / 2, 2, spans,
                &layers, tally, &reads, &writes, &elapsed);
    engine->qp().set_profile_queries(false);
    layers.Emit(&m);
    Replayer replay(cfg, *engine, in, spans);
    EmitReplay(replay.Run({}, &next_id, tally), &m);
    // Ticket and generator timings need no engine profiling, so they come
    // from the untraced half: profiling inflates a small selection's
    // execution several-fold (see trace.overhead_pct).
    m.Set("serving.queue_ms_p50", Percentile(plain_reads.queue_s, 0.5) * 1e3,
          "ms");
    m.Set("serving.queue_ms_p99", Percentile(plain_reads.queue_s, 0.99) * 1e3,
          "ms");
    m.Set("serving.exec_ms_p50", Percentile(plain_reads.exec_s, 0.5) * 1e3,
          "ms");
    m.Set("serving.peak_queue_depth",
          static_cast<double>(engine->serving->Stats().peak_queue_depth),
          "count");
    m.Set("gen.lag_ms_p99", Percentile(plain_writes.lag_s, 0.99) * 1e3, "ms");
    m.Set("tail.query_p99_ms", Percentile(plain_reads.latency_s, 0.99) * 1e3,
          "ms");
    m.Set("tail.insert_p99_ms", Percentile(plain_writes.latency_s, 0.99) * 1e3,
          "ms");
    m.Set("trace.overhead_pct",
          OverheadPct(plain_reads.latency_s, reads.latency_s), "%");
    PrintShares(layers, plain_reads.latency_s);
  }
  return Finish(cfg, tally, spans, outcome);
}

}  // namespace

int64_t BaseRecords(const RunConfig& cfg) {
  Result<Plan> plan = PlanFor(cfg);
  return plan.ok() ? plan.value().records * plan.value().datasets : 0;
}

Status RunWorkload(const RunConfig& cfg, RunOutcome* outcome) {
  SIMDB_ASSIGN_OR_RETURN(Plan plan, PlanFor(cfg));
  if (cfg.workload == "search-ingest") {
    return RunSearchIngest(cfg, plan, outcome);
  }
  return RunJoin(cfg, plan, outcome);
}

}  // namespace simdb::perfbench
