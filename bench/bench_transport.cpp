// Transport backend comparison on the Figure-27 scaling workload: the same
// exchange-heavy Jaccard join runs under the modeled and socket backends as
// the simulated cluster grows 1 -> 8 nodes, reporting measured wall clock,
// the cost-model makespan, and the measured fragment wire seconds (socket)
// next to the modeled network charge. A second section microbenches the
// fragment row-group codec (hyracks::fragment::EncodeRows/DecodeRows inside
// the versioned CRC frame) at several row counts.
//
// A third section compares parent-side vs worker-side compute: the same
// join at a fixed {4 nodes x 2 partitions} topology under the modeled
// backend (every destination built in the parent) and the socket backend
// (exchange destinations built inside the forked workers), reporting the
// measured remote compute surfaced by the cost model.
//
//   --json <path>   write {"scaling": [...], "serde": [...],
//                   "remote_compute": [...], "queries": [...],
//                   "metrics": ...}
//                   (merged into BENCH_kernels.json by bench/run_benches.sh)
//   --quick         small dataset (CI smoke; numbers are NOT meaningful)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "adm/wire.h"
#include "common/stopwatch.h"
#include "hyracks/fragment.h"
#include "observability/metrics.h"
#include "observability/profile.h"
#include "transport/transport.h"

using namespace simdb;
using namespace simdb::bench;

namespace {

constexpr size_t kPoolThreads = 2;

struct ScalingPoint {
  int nodes = 0;
  const char* backend = "";
  double wall_seconds = 0;
  double makespan_seconds = 0;
  double measured_network_seconds = 0;
  double modeled_network_seconds = 0;
  uint64_t remote_bytes = 0;
  int64_t result_count = 0;
};

std::string JoinQuery() {
  return "count(for $o in dataset AmazonReview for $i in dataset AmazonReview "
         "where similarity-jaccard(word-tokens($o.summary), "
         "word-tokens($i.summary)) >= 0.8 and $o.id < 10 and $o.id < $i.id "
         "return {'o': $o.id})";
}

Result<ScalingPoint> RunConfig(int nodes, int64_t records,
                               transport::TransportKind kind) {
  BenchEnv env({nodes, 2}, kPoolThreads);
  core::QueryProcessor& engine = env.engine();
  engine.set_transport(kind);
  SIMDB_ASSIGN_OR_RETURN(auto gen,
                         LoadTextDataset(engine, "AmazonReview",
                                         datagen::AmazonProfile(), records));
  (void)gen;
  std::string join = JoinQuery();
  ScalingPoint point;
  point.nodes = nodes;
  point.backend = transport::TransportKindName(kind);
  Stopwatch sw;
  core::QueryResult result;
  SIMDB_RETURN_IF_ERROR(engine.Execute(join + ";", &result));
  point.wall_seconds = sw.ElapsedSeconds();
  cluster::MakespanReport report =
      cluster::ComputeMakespan(result.exec, engine.options().topology);
  point.makespan_seconds = report.total_seconds();
  point.measured_network_seconds = report.measured_network_seconds;
  point.modeled_network_seconds = report.network_seconds;
  point.remote_bytes = result.exec.TotalRemoteBytes();
  point.result_count = result.rows.size() == 1 && result.rows[0].is_int64()
                           ? result.rows[0].AsInt64()
                           : static_cast<int64_t>(result.rows.size());
  return point;
}

struct RemoteComputePoint {
  const char* mode = "";
  double wall_seconds = 0;
  double makespan_seconds = 0;
  double remote_compute_seconds = 0;
  uint64_t tasks_remote = 0;
  int64_t result_count = 0;
};

// Same join, fixed {4 nodes x 2 partitions}, profiling on. The backend
// decides whether exchange destinations are built in the parent (modeled) or
// inside the owning forked worker (socket: kFragment dispatch). The socket
// profile is kept for the JSON "queries" section so the exec.remote.*
// catalogue check in CI sees the per-operator counters a remote build emits.
Result<RemoteComputePoint> RunRemoteCompute(transport::TransportKind kind,
                                            int64_t records,
                                            std::string* profile_json) {
  const bool on_workers = kind == transport::TransportKind::kSocket;
  BenchEnv env({4, 2}, kPoolThreads);
  core::QueryProcessor& engine = env.engine();
  engine.set_transport(kind);
  engine.set_profile_queries(true);
  SIMDB_ASSIGN_OR_RETURN(auto gen,
                         LoadTextDataset(engine, "AmazonReview",
                                         datagen::AmazonProfile(), records));
  (void)gen;
  RemoteComputePoint point;
  point.mode = on_workers ? "worker_compute" : "parent_compute";
  Stopwatch sw;
  core::QueryResult result;
  SIMDB_RETURN_IF_ERROR(engine.Execute(JoinQuery() + ";", &result));
  point.wall_seconds = sw.ElapsedSeconds();
  cluster::MakespanReport report =
      cluster::ComputeMakespan(result.exec, engine.options().topology);
  point.makespan_seconds = report.total_seconds();
  point.remote_compute_seconds = report.remote_compute_seconds;
  point.tasks_remote = result.exec.tasks_remote;
  point.result_count = result.rows.size() == 1 && result.rows[0].is_int64()
                           ? result.rows[0].AsInt64()
                           : static_cast<int64_t>(result.rows.size());
  if (on_workers && profile_json != nullptr) {
    if (result.profile == nullptr)
      return Status::Internal("profiled join produced no profile");
    *profile_json = result.profile->ToJson();
  }
  return point;
}

struct SerdePoint {
  int rows = 0;
  uint64_t frame_bytes = 0;
  double encode_mb_per_sec = 0;
  double decode_mb_per_sec = 0;
};

// One row group framed the way a fragment request or reply carries it.
void EncodeFramedRows(const hyracks::Rows& rows, std::string* frame) {
  std::string payload;
  ByteWriter w(&payload);
  hyracks::fragment::EncodeRows(rows, &w);
  adm::WriteFrame(payload, frame);
}

Result<hyracks::Rows> DecodeFramedRows(std::string_view frame) {
  ByteReader outer(frame);
  SIMDB_ASSIGN_OR_RETURN(std::string_view payload, adm::ReadFrame(&outer));
  ByteReader r(payload);
  return hyracks::fragment::DecodeRows(&r);
}

SerdePoint RunSerde(int nrows, int repeats) {
  hyracks::Rows rows(3);
  for (int i = 0; i < nrows; ++i) {
    std::span<adm::Value> row = rows.Append();
    row[0] = adm::Value::Int64(i);
    row[1] = adm::Value::String("review summary text for record " +
                                std::to_string(i));
    row[2] = adm::Value::Double(0.125 * static_cast<double>(i));
  }
  SerdePoint point;
  point.rows = nrows;
  std::string frame;
  Stopwatch enc;
  for (int r = 0; r < repeats; ++r) {
    frame.clear();
    EncodeFramedRows(rows, &frame);
  }
  double enc_seconds = enc.ElapsedSeconds();
  point.frame_bytes = frame.size();
  Stopwatch dec;
  for (int r = 0; r < repeats; ++r) {
    Result<hyracks::Rows> back = DecodeFramedRows(frame);
    if (!back.ok()) {
      std::fprintf(stderr, "decode failed: %s\n",
                   back.status().ToString().c_str());
      std::exit(1);
    }
  }
  double dec_seconds = dec.ElapsedSeconds();
  double mb = static_cast<double>(frame.size()) * repeats / (1024.0 * 1024.0);
  point.encode_mb_per_sec = enc_seconds > 0 ? mb / enc_seconds : 0;
  point.decode_mb_per_sec = dec_seconds > 0 ? mb / dec_seconds : 0;
  return point;
}

std::string Fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
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

  const int64_t full_data = Scaled(quick ? 400 : 4000);
  const transport::TransportKind kinds[] = {
      transport::TransportKind::kModeled, transport::TransportKind::kSocket};
  std::vector<ScalingPoint> scaling;

  PrintTitle("Transport backends on the Figure-27 speed-up workload",
             "same Jaccard join, fixed data, cluster grows 1 -> 8 nodes; "
             "modeled charges the network formula, socket measures real "
             "fragment wire time");
  PrintRow({"nodes", "backend", "wall", "makespan", "net(meas)", "net(model)",
            "remote"});
  for (int nodes : {1, 2, 4, 8}) {
    for (transport::TransportKind kind : kinds) {
      Result<ScalingPoint> point = RunConfig(nodes, full_data, kind);
      if (!point.ok()) {
        std::fprintf(stderr, "bench failed: %s\n",
                     point.status().ToString().c_str());
        return 1;
      }
      scaling.push_back(*point);
      PrintRow({std::to_string(point->nodes), point->backend,
                Seconds(point->wall_seconds),
                Seconds(point->makespan_seconds),
                Seconds(point->measured_network_seconds),
                Seconds(point->modeled_network_seconds),
                Bytes(point->remote_bytes)});
    }
  }

  PrintTitle("Fragment row-group codec in an adm wire frame "
             "(magic/version/length/CRC-32)",
             "per-row: int64 + string + double; throughput includes framing "
             "and checksum");
  PrintRow({"rows", "frame bytes", "encode MB/s", "decode MB/s"});
  std::vector<SerdePoint> serde;
  const int repeats = quick ? 20 : 200;
  for (int nrows : {16, 256, 4096}) {
    SerdePoint point = RunSerde(nrows, repeats);
    serde.push_back(point);
    PrintRow({std::to_string(point.rows), std::to_string(point.frame_bytes),
              Fmt(point.encode_mb_per_sec), Fmt(point.decode_mb_per_sec)});
  }

  PrintTitle("Remote compute: parent vs forked workers ({4 nodes x 2 parts})",
             "modeled: all compute in the parent; socket: kFragment dispatch "
             "builds exchange destinations inside the owning worker");
  PrintRow({"mode", "wall", "makespan", "remote compute", "remote tasks"});
  std::vector<RemoteComputePoint> remote_compute;
  std::string remote_profile_json;
  for (transport::TransportKind kind : kinds) {
    Result<RemoteComputePoint> point =
        RunRemoteCompute(kind, full_data, &remote_profile_json);
    if (!point.ok()) {
      std::fprintf(stderr, "remote-compute bench failed: %s\n",
                   point.status().ToString().c_str());
      return 1;
    }
    remote_compute.push_back(*point);
    PrintRow({point->mode, Seconds(point->wall_seconds),
              Seconds(point->makespan_seconds),
              Seconds(point->remote_compute_seconds),
              std::to_string(point->tasks_remote)});
  }
  if (remote_compute[0].tasks_remote != 0 ||
      remote_compute[1].tasks_remote == 0) {
    std::fprintf(stderr,
                 "remote-compute bench did not exercise fragment dispatch "
                 "(modeled: %llu remote tasks, socket: %llu)\n",
                 static_cast<unsigned long long>(remote_compute[0].tasks_remote),
                 static_cast<unsigned long long>(remote_compute[1].tasks_remote));
    return 1;
  }

  if (!json_path.empty()) {
    std::string json = "{\n  \"pool_threads\": " +
                       std::to_string(kPoolThreads) + ",\n  \"scaling\": [\n";
    for (size_t i = 0; i < scaling.size(); ++i) {
      const ScalingPoint& p = scaling[i];
      json += "    {\"nodes\": " + std::to_string(p.nodes) +
              ", \"backend\": \"" + p.backend +
              "\", \"wall_seconds\": " + Fmt(p.wall_seconds) +
              ", \"makespan_seconds\": " + Fmt(p.makespan_seconds) +
              ", \"measured_network_seconds\": " +
              Fmt(p.measured_network_seconds) +
              ", \"modeled_network_seconds\": " +
              Fmt(p.modeled_network_seconds) +
              ", \"remote_bytes\": " + std::to_string(p.remote_bytes) +
              ", \"result_count\": " + std::to_string(p.result_count) + "}";
      json += (i + 1 < scaling.size()) ? ",\n" : "\n";
    }
    json += "  ],\n  \"serde\": [\n";
    for (size_t i = 0; i < serde.size(); ++i) {
      const SerdePoint& p = serde[i];
      json += "    {\"rows\": " + std::to_string(p.rows) +
              ", \"frame_bytes\": " + std::to_string(p.frame_bytes) +
              ", \"encode_mb_per_sec\": " + Fmt(p.encode_mb_per_sec) +
              ", \"decode_mb_per_sec\": " + Fmt(p.decode_mb_per_sec) + "}";
      json += (i + 1 < serde.size()) ? ",\n" : "\n";
    }
    json += "  ],\n  \"remote_compute\": [\n";
    for (size_t i = 0; i < remote_compute.size(); ++i) {
      const RemoteComputePoint& p = remote_compute[i];
      json += "    {\"mode\": \"" + std::string(p.mode) +
              "\", \"wall_seconds\": " + Fmt(p.wall_seconds) +
              ", \"makespan_seconds\": " + Fmt(p.makespan_seconds) +
              ", \"remote_compute_seconds\": " + Fmt(p.remote_compute_seconds) +
              ", \"tasks_remote\": " + std::to_string(p.tasks_remote) +
              ", \"result_count\": " + std::to_string(p.result_count) + "}";
      json += (i + 1 < remote_compute.size()) ? ",\n" : "\n";
    }
    // Same {"queries": [{"name", "profile"}]} shape as bench_profile --json,
    // so scripts/check_metric_catalogue.py can diff the exec.remote.*
    // operator counters against docs/DISTRIBUTED.md.
    json += "  ],\n  \"queries\": [\n";
    json += "    {\"name\": \"jaccard_join_worker_compute\", \"profile\": " +
            remote_profile_json + "}\n";
    json += "  ],\n  \"metrics\": " +
            obs::MetricsRegistry::Global().ToJson() + "\n}\n";
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
