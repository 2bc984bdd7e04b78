#ifndef SIMDB_TRANSPORT_TRANSPORT_H_
#define SIMDB_TRANSPORT_TRANSPORT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "hyracks/tuple.h"

namespace simdb::transport {

/// How exchange destinations move between partitions.
///
///   kModeled       no bytes move; the cluster cost model charges the
///                  counted exchange traffic against a bandwidth/latency
///                  model. This is the paper-figure backend and is
///                  bit-identical to the pre-transport engine.
///   kSharedMemory  every built destination is round-tripped through an
///                  in-process frame queue: rows are serialized with
///                  adm::Value::Serialize into a versioned/checksummed
///                  frame, handed across, and deserialized back. Real
///                  encode/decode on the exchange path, no processes.
///   kSocket        destinations with cross-node traffic are shipped over a
///                  UNIX socket pair to a forked worker process per cluster
///                  node, which validates, decodes, re-encodes, and replies.
///                  Bytes genuinely leave and re-enter the process; the
///                  measured wall clock replaces the modeled network charge.
///
/// All three backends must be answer- and error-identical: row serialization
/// is lossless, so the round trip is an identity on values, and ship
/// failures surface through the exchange build task, where the executor's
/// lowest-(node, partition)-wins rule keeps errors deterministic.
enum class TransportKind { kModeled, kSharedMemory, kSocket };

const char* TransportKindName(TransportKind kind);

/// Parses the SIMDB_TRANSPORT environment override ("modeled", "shm",
/// "socket"); returns `fallback` when unset or unrecognized. Lets CI flip
/// every engine in the process onto a backend without code changes.
TransportKind KindFromEnv(TransportKind fallback);

/// One exchange-transport backend. Instances are engine-owned and shared by
/// all of the engine's concurrent queries; Ship may be called from any pool
/// worker at any time.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual TransportKind kind() const = 0;
  const char* name() const { return TransportKindName(kind()); }

  /// True when shipping does real timed work: the cost model then reports
  /// the measured transport seconds (already inside the exchange build
  /// times) instead of charging the modeled network formula on top.
  virtual bool measures_wall_clock() const = 0;

  /// Whether a built destination should cross this transport at all.
  /// `remote_bytes` is the destination's accounted cross-node traffic.
  virtual bool ShouldShip(size_t dest_rows, uint64_t remote_bytes) const = 0;

  /// Round-trips `*rows` through the backend (serialize -> transfer ->
  /// deserialize), replacing them with the copy that crossed. `dst_node`
  /// selects the destination worker (socket backend). `*seconds` receives
  /// the wall-clock spent shipping. Thread-safe.
  virtual Status Ship(int dst_node, hyracks::Rows* rows, double* seconds) = 0;

  /// Blocks until every in-flight transfer has settled and remote workers
  /// are provably idle (socket: a control-channel ping per live worker).
  /// Called by the serving layer after a cancellation or deadline so a dead
  /// query leaves no bytes in flight. A positive `timeout_seconds` bounds
  /// the wait — under sustained shipping by unrelated concurrent queries an
  /// unbounded drain could starve the caller — and a timeout returns
  /// kDeadlineExceeded without disturbing transport state (it is safe to
  /// keep shipping and to drain again). Non-positive waits indefinitely.
  /// [[nodiscard]] beyond Status's own: a dropped drain status hides dead
  /// socket workers and stuck frames behind an apparent clean shutdown.
  [[nodiscard]] virtual Status Drain(double timeout_seconds) = 0;
  [[nodiscard]] Status Drain() { return Drain(/*timeout_seconds=*/0.0); }

  /// True when this backend executes fragment closures inside remote worker
  /// processes (socket backend with fragment dispatch enabled; see
  /// SIMDB_SOCKET_FRAGMENTS in docs/DISTRIBUTED.md). The executor consults
  /// this before attempting a remote build; the default backends compute
  /// every destination locally.
  virtual bool remote_execution() const { return false; }

  /// Sends one encoded kFragment request payload to `dst_node`'s worker and
  /// blocks for its reply. On success `*reply_payload` receives the
  /// checksum-validated kFragmentResult payload and `*seconds` the full
  /// round-trip wall clock (serialize + transfer + remote compute +
  /// transfer). A kFragmentError reply decodes back into exactly the Status
  /// the worker produced. Thread-safe; one fragment in flight per worker.
  virtual Status ExecuteFragment(int dst_node,
                                 const std::string& request_payload,
                                 std::string* reply_payload, double* seconds);

  /// Broadcasts kCancelFragment for `query_id` to every worker so fragments
  /// of a cancelled query are refused before execution. A positive
  /// `timeout_seconds` bounds the whole broadcast (one shared deadline across
  /// workers, like Drain); a timeout returns kDeadlineExceeded without
  /// disturbing transport state. No-op (OK) on backends without remote
  /// execution.
  [[nodiscard]] virtual Status CancelFragments(uint64_t query_id,
                                               double timeout_seconds);

  /// Pids of the live worker processes (socket backend; empty elsewhere).
  /// Exposed for the worker-death injection tests.
  virtual std::vector<int> worker_pids();
};

/// Outcome of interpreting one fragment request inside a worker: `payload`
/// is a kFragmentResult payload when `ok`, an encoded fragment-error payload
/// (adm::EncodeFragmentError) otherwise. The interpreter never throws or
/// exits; every failure becomes an encoded Status the parent can decode.
struct FragmentReply {
  bool ok = false;
  std::string payload;
};

/// Worker-side fragment interpreter. The transport library sits below the
/// operator library and cannot depend on it, so the execution layer
/// (hyracks/fragment.cc) installs its interpreter here during static
/// initialization — before main(), and therefore before any worker fork —
/// and the forked workers inherit the installed pointer.
using FragmentInterpreter = FragmentReply (*)(std::string_view request_payload);

void InstallFragmentInterpreter(FragmentInterpreter fn);
FragmentInterpreter InstalledFragmentInterpreter();

/// Builds a backend for a cluster of `num_nodes` nodes and pre-registers
/// every transport.* metric (see docs/TRANSPORT.md) so registry snapshots
/// always carry the full catalogue.
std::unique_ptr<Transport> MakeTransport(TransportKind kind, int num_nodes);

/// Serializes `rows` into one versioned/checksummed adm wire frame
/// ([u32 row count][per row: u32 column count, each value via
/// adm::Value::Serialize]) appended to `*out`. Records
/// transport.serialize_nanos and transport.bytes_sent.
void EncodeRowsFrame(const hyracks::Rows& rows, std::string* out);

/// Inverse of EncodeRowsFrame: validates the frame header and checksum,
/// then decodes the rows. Records transport.deserialize_nanos and
/// transport.bytes_received.
Result<hyracks::Rows> DecodeRowsFrame(std::string_view frame);

}  // namespace simdb::transport

#endif  // SIMDB_TRANSPORT_TRANSPORT_H_
