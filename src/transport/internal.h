#ifndef SIMDB_TRANSPORT_INTERNAL_H_
#define SIMDB_TRANSPORT_INTERNAL_H_

#include <memory>

#include "observability/metrics.h"
#include "transport/transport.h"

namespace simdb::transport::internal {

/// Cached handles to the transport.* metrics (registry lookups take a mutex).
/// Construction registers every name, so a snapshot taken after
/// MakeTransport always shows the full catalogue — the two-way check in CI
/// depends on that.
struct Metrics {
  obs::Counter* drains;
  obs::Counter* workers_spawned;
};

Metrics& GetMetrics();

/// Cached handles to the transport.fragment.* metrics (docs/DISTRIBUTED.md).
/// Registered separately from Metrics and only by the socket backend: the
/// modeled backend never dispatches fragments, and registering the names
/// for it would put emitted-but-never-incremented metrics into every
/// paper-figure profile snapshot the catalogue check audits.
struct FragmentMetrics {
  obs::Counter* dispatched;
  obs::Counter* errors;
  obs::Counter* fallbacks;
  obs::Counter* cancels_sent;
  obs::Counter* request_bytes;
  obs::Counter* reply_bytes;
  obs::Histogram* remote_compute_micros;
};

FragmentMetrics& GetFragmentMetrics();

std::unique_ptr<Transport> MakeSocketTransport(int num_nodes);

}  // namespace simdb::transport::internal

#endif  // SIMDB_TRANSPORT_INTERNAL_H_
