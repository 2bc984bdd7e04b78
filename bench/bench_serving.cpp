// Closed-loop serving benchmark: N client threads submit-and-await a mixed
// workload (cheap indexed selections + heavy self joins) against one
// serving::QueryEngine, for rising client counts. Reports throughput and
// latency percentiles per client count, then drives an intentionally
// overloaded engine (1 worker, queue of 2) to demonstrate load shedding,
// quota refusal, deadline expiry, and cancellation with their distinct
// outcome counters.
//
// Flags:
//   --json <path>   write {"clients": [...], "overload": {...},
//                   "metrics": {...}} (merged into BENCH_kernels.json by
//                   bench/run_benches.sh)
//   --quick         small dataset / few queries (CI smoke; numbers are NOT
//                   meaningful, only the output shape is)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "observability/metrics.h"
#include "serving/query_engine.h"
#include "storage/file_util.h"

using namespace simdb;
using namespace simdb::bench;

namespace {

constexpr size_t kPoolThreads = 4;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(values.size()));
  return values[std::min(idx, values.size() - 1)];
}

struct SeriesResult {
  int clients = 0;
  int queries = 0;
  double wall_seconds = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double cheap_p99_ms = 0;
  double heavy_p99_ms = 0;
};

struct ServingBench {
  std::string dir;
  std::unique_ptr<serving::QueryEngine> engine;

  ServingBench(serving::ServingOptions serving_options, int64_t count,
               const char* tag) {
    dir = (std::filesystem::temp_directory_path() /
           ("simdb_bench_serving_" + std::to_string(::getpid()) + "_" + tag))
              .string();
    storage::RemoveAllBestEffort(dir);
    core::EngineOptions options;
    options.data_dir = dir;
    options.topology = {2, 2};
    options.num_threads = kPoolThreads;
    engine =
        std::make_unique<serving::QueryEngine>(options, serving_options);
    auto gen = LoadTextDataset(engine->processor(), "AmazonReview",
                               datagen::AmazonProfile(), count);
    if (!gen.ok()) {
      std::fprintf(stderr, "dataset load failed: %s\n",
                   gen.status().ToString().c_str());
      std::exit(1);
    }
    Status s = engine->processor().Execute(
        "create index smix on AmazonReview(summary) type keyword;"
        "create index nix on AmazonReview(reviewerName) type ngram(2);");
    if (!s.ok()) {
      std::fprintf(stderr, "index build failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
  ~ServingBench() {
    engine.reset();
    storage::RemoveAllBestEffort(dir);
  }
};

const char kCheapQuery[] =
    "for $t in dataset AmazonReview where "
    "similarity-jaccard(word-tokens($t.summary), "
    "word-tokens('great product fantastic gift')) >= 0.6 return $t.id;";
std::string HeavyQuery(int64_t cap) {
  // Bounded self join so a heavy query costs ~10-100x a cheap one without
  // dominating the whole run.
  return "for $l in dataset AmazonReview for $r in dataset AmazonReview "
         "where $l.id < " +
         std::to_string(cap) + " and $r.id < " + std::to_string(cap) +
         " and similarity-jaccard(word-tokens($l.summary), "
         "word-tokens($r.summary)) >= 0.6 and $l.id < $r.id "
         "return {'l': $l.id, 'r': $r.id};";
}

/// Closed loop: each client thread runs `per_client` submit-and-wait
/// iterations, one heavy query out of every five.
SeriesResult RunSeries(serving::QueryEngine& engine, int clients,
                       int per_client, const std::string& heavy_query) {
  std::vector<std::vector<double>> cheap_lat(clients), heavy_lat(clients);
  std::atomic<int> errors{0};
  Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < per_client; ++i) {
        bool heavy = (c + i) % 5 == 4;
        const std::string& aql = heavy ? heavy_query : kCheapQuery;
        Clock::time_point t0 = Clock::now();
        Result<std::shared_ptr<serving::QueryTicket>> ticket =
            engine.Submit(aql);
        if (!ticket.ok() || !ticket.value()->Wait().ok()) {
          errors.fetch_add(1);
          continue;
        }
        (heavy ? heavy_lat : cheap_lat)[c].push_back(SecondsSince(t0));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  SeriesResult r;
  r.clients = clients;
  r.queries = clients * per_client - errors.load();
  r.wall_seconds = SecondsSince(start);
  r.qps = r.wall_seconds > 0 ? r.queries / r.wall_seconds : 0;
  std::vector<double> all, cheap, heavy;
  for (const auto& v : cheap_lat) cheap.insert(cheap.end(), v.begin(), v.end());
  for (const auto& v : heavy_lat) heavy.insert(heavy.end(), v.begin(), v.end());
  all = cheap;
  all.insert(all.end(), heavy.begin(), heavy.end());
  r.p50_ms = Percentile(all, 0.50) * 1e3;
  r.p99_ms = Percentile(all, 0.99) * 1e3;
  r.cheap_p99_ms = Percentile(cheap, 0.99) * 1e3;
  r.heavy_p99_ms = Percentile(heavy, 0.99) * 1e3;
  if (errors.load() != 0) {
    std::fprintf(stderr, "series clients=%d: %d unexpected failures\n",
                 clients, errors.load());
    std::exit(1);
  }
  return r;
}

/// Drives a deliberately tiny engine (1 worker, queue depth 2) into every
/// refusal/termination path so the serving.* outcome counters are all
/// exercised: queue-full shedding, pre-execution quota refusal, deadline
/// expiry, client cancellation, and a parse reject.
serving::ServingStats RunOverloadScenario(int64_t records,
                                          const std::string& heavy_query) {
  serving::ServingOptions serving_options;
  serving_options.max_concurrent = 1;
  serving_options.max_queue = 2;
  ServingBench bench(serving_options, records, "overload");
  serving::QueryEngine& engine = *bench.engine;

  // Burst far past the queue: 1 running + 2 queued admit, the rest shed.
  std::vector<std::shared_ptr<serving::QueryTicket>> admitted;
  for (int i = 0; i < 12; ++i) {
    Result<std::shared_ptr<serving::QueryTicket>> t =
        engine.Submit(heavy_query);
    if (t.ok()) admitted.push_back(t.value());
  }
  for (const auto& t : admitted) t->Wait();

  serving::SubmitOptions tiny_quota;
  tiny_quota.memory_quota_bytes = 64;  // refused at admission
  if (Result<std::shared_ptr<serving::QueryTicket>> t =
          engine.Submit("for $t in dataset AmazonReview return $t;",
                        tiny_quota);
      t.ok()) {
    t.value()->Wait();
  }

  serving::SubmitOptions tight_deadline;
  tight_deadline.deadline_seconds = 1e-6;
  if (Result<std::shared_ptr<serving::QueryTicket>> t =
          engine.Submit(heavy_query, tight_deadline);
      t.ok()) {
    t.value()->Wait();
  }

  // Deterministic cancel: park a target behind a running blocker, cancel it
  // while it is still queued.
  Result<std::shared_ptr<serving::QueryTicket>> blocker =
      engine.Submit(heavy_query);
  if (Result<std::shared_ptr<serving::QueryTicket>> t =
          engine.Submit(heavy_query);
      t.ok()) {
    t.value()->Cancel();
    t.value()->Wait();
  }
  if (blocker.ok()) blocker.value()->Wait();

  engine.Submit("for $t in (((;").status();  // parse reject

  return engine.Stats();
}

int Main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--json path]\n", argv[0]);
      return 2;
    }
  }

  int64_t count = Scaled(quick ? 300 : 3000);
  int per_client = quick ? 6 : 30;
  std::string heavy_query = HeavyQuery(std::max<int64_t>(count / 10, 20));

  serving::ServingOptions serving_options;  // defaults: 4 workers, queue 16
  serving_options.max_queue = 64;
  ServingBench bench(serving_options, count, "series");

  PrintTitle("Concurrent serving: closed-loop clients vs one QueryEngine",
             "4 workers (1 reserved cheap slot), mixed 4:1 cheap:heavy");
  PrintRow({"clients", "queries", "QPS", "p50", "p99", "cheap p99",
            "heavy p99"});
  std::vector<SeriesResult> series;
  for (int clients : {1, 2, 4, 8}) {
    SeriesResult r = RunSeries(*bench.engine, clients, per_client,
                               heavy_query);
    series.push_back(r);
    PrintRow({std::to_string(r.clients), std::to_string(r.queries),
              std::to_string(static_cast<int64_t>(r.qps)),
              Seconds(r.p50_ms / 1e3), Seconds(r.p99_ms / 1e3),
              Seconds(r.cheap_p99_ms / 1e3), Seconds(r.heavy_p99_ms / 1e3)});
  }
  serving::ServingStats series_stats = bench.engine->Stats();

  serving::ServingStats overload =
      RunOverloadScenario(quick ? 200 : 400, heavy_query);
  std::printf(
      "overload engine (1 worker, queue 2): submitted %llu, admitted %llu, "
      "shed %llu, quota-refused %llu, deadline %llu, cancelled %llu, "
      "parse-rejected %llu\n",
      static_cast<unsigned long long>(overload.submitted),
      static_cast<unsigned long long>(overload.admitted),
      static_cast<unsigned long long>(overload.rejected_queue_full),
      static_cast<unsigned long long>(overload.rejected_quota),
      static_cast<unsigned long long>(overload.deadline_exceeded),
      static_cast<unsigned long long>(overload.cancelled),
      static_cast<unsigned long long>(overload.rejected_parse));
  if (overload.rejected_queue_full == 0) {
    std::fprintf(stderr, "overload scenario shed no load\n");
    return 1;
  }

  if (!json_path.empty()) {
    auto u64 = [](uint64_t v) { return std::to_string(v); };
    std::string json = "{\n  \"pool_threads\": " +
                       std::to_string(kPoolThreads) + ",\n  \"clients\": [\n";
    for (size_t i = 0; i < series.size(); ++i) {
      const SeriesResult& r = series[i];
      json += "    {\"clients\": " + std::to_string(r.clients) +
              ", \"queries\": " + std::to_string(r.queries) +
              ", \"qps\": " + std::to_string(r.qps) +
              ", \"p50_ms\": " + std::to_string(r.p50_ms) +
              ", \"p99_ms\": " + std::to_string(r.p99_ms) +
              ", \"cheap_p99_ms\": " + std::to_string(r.cheap_p99_ms) +
              ", \"heavy_p99_ms\": " + std::to_string(r.heavy_p99_ms) + "}";
      json += (i + 1 < series.size()) ? ",\n" : "\n";
    }
    json += "  ],\n  \"series_stats\": {\"submitted\": " +
            u64(series_stats.submitted) +
            ", \"admitted\": " + u64(series_stats.admitted) +
            ", \"completed\": " + u64(series_stats.completed) +
            ", \"peak_queue_depth\": " + u64(series_stats.peak_queue_depth) +
            "},\n";
    json += "  \"overload\": {\"submitted\": " + u64(overload.submitted) +
            ", \"admitted\": " + u64(overload.admitted) +
            ", \"rejected_queue_full\": " + u64(overload.rejected_queue_full) +
            ", \"rejected_quota\": " + u64(overload.rejected_quota) +
            ", \"rejected_parse\": " + u64(overload.rejected_parse) +
            ", \"deadline_exceeded\": " + u64(overload.deadline_exceeded) +
            ", \"cancelled\": " + u64(overload.cancelled) +
            ", \"completed\": " + u64(overload.completed) + "},\n";
    json += "  \"metrics\": " + obs::MetricsRegistry::Global().ToJson() +
            "\n}\n";
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
