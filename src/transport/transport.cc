#include "transport/transport.h"

#include <cstdlib>
#include <cstring>

#include "transport/internal.h"

namespace simdb::transport {

namespace {

/// The paper-figure backend: no bytes move, nothing is timed; the exchange
/// keeps its counted traffic and the cost model charges the modeled network
/// formula, exactly as before the transport seam existed.
class ModeledTransport final : public Transport {
 public:
  TransportKind kind() const override { return TransportKind::kModeled; }
  bool remote_execution() const override { return false; }
  Status Drain(double) override {
    internal::GetMetrics().drains->Increment();
    return Status::OK();
  }
};

/// Installed fragment interpreter. Written once, during static
/// initialization of hyracks/fragment.cc (single-threaded, pre-main, and
/// pre-fork), read-only afterwards — so plain loads are race-free and the
/// forked workers inherit the pointer.
FragmentInterpreter g_fragment_interpreter = nullptr;

}  // namespace

Status Transport::ExecuteFragment(int, const std::string&, std::string*,
                                  double*) {
  return Status::Unsupported(std::string("transport '") + name() +
                             "' does not execute fragments");
}

Status Transport::CancelFragments(uint64_t, double) { return Status::OK(); }

std::vector<int> Transport::worker_pids() { return {}; }

void InstallFragmentInterpreter(FragmentInterpreter fn) {
  g_fragment_interpreter = fn;
}

FragmentInterpreter InstalledFragmentInterpreter() {
  return g_fragment_interpreter;
}

namespace internal {

Metrics& GetMetrics() {
  static Metrics m = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    Metrics handles;
    handles.drains = reg.GetCounter("transport.drains");
    handles.workers_spawned = reg.GetCounter("transport.workers_spawned");
    return handles;
  }();
  return m;
}

FragmentMetrics& GetFragmentMetrics() {
  static FragmentMetrics m = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    FragmentMetrics handles;
    handles.dispatched = reg.GetCounter("transport.fragment.dispatched");
    handles.errors = reg.GetCounter("transport.fragment.errors");
    handles.fallbacks = reg.GetCounter("transport.fragment.fallbacks");
    handles.cancels_sent = reg.GetCounter("transport.fragment.cancels_sent");
    handles.request_bytes = reg.GetCounter("transport.fragment.request_bytes");
    handles.reply_bytes = reg.GetCounter("transport.fragment.reply_bytes");
    handles.remote_compute_micros =
        reg.GetHistogram("transport.fragment.remote_compute_micros");
    return handles;
  }();
  return m;
}

}  // namespace internal

const char* TransportKindName(TransportKind kind) {
  switch (kind) {
    case TransportKind::kModeled:
      return "modeled";
    case TransportKind::kSocket:
      return "socket";
  }
  return "unknown";
}

TransportKind KindFromEnv(TransportKind fallback) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only getenv at engine
  // construction, same idiom as the SIMDB_SIMD override.
  const char* env = std::getenv("SIMDB_TRANSPORT");
  if (env == nullptr) return fallback;
  if (std::strcmp(env, "modeled") == 0) return TransportKind::kModeled;
  if (std::strcmp(env, "socket") == 0) return TransportKind::kSocket;
  return fallback;
}

std::unique_ptr<Transport> MakeTransport(TransportKind kind, int num_nodes) {
  internal::GetMetrics();  // register the catalogue for every backend
  switch (kind) {
    case TransportKind::kModeled:
      return std::make_unique<ModeledTransport>();
    case TransportKind::kSocket:
      return internal::MakeSocketTransport(num_nodes);
  }
  return std::make_unique<ModeledTransport>();
}

}  // namespace simdb::transport
