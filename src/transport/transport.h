#ifndef SIMDB_TRANSPORT_TRANSPORT_H_
#define SIMDB_TRANSPORT_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace simdb::transport {

/// How exchange destinations move between partitions.
///
///   kModeled  no bytes move; the cluster cost model charges the counted
///             exchange traffic against a bandwidth/latency model. This is
///             the paper-figure backend and the differential oracle.
///   kSocket   every non-empty exchange destination is built as a fragment
///             (hyracks/fragment.h) inside a forked worker process per
///             cluster node, over a UNIX socket pair: the parent ships the
///             operator closure plus the input slice, the worker runs the
///             same build code and replies with the rows. Bytes genuinely
///             leave and re-enter the process; the measured wall clock
///             replaces the modeled network charge.
///
/// Both backends must be answer- and error-identical: the row codec is
/// lossless and the worker runs the parent's build code, and fragment
/// failures surface through the exchange build task, where the executor's
/// lowest-(node, partition)-wins rule keeps errors deterministic.
enum class TransportKind { kModeled, kSocket };

const char* TransportKindName(TransportKind kind);

/// Parses the SIMDB_TRANSPORT environment override ("modeled", "socket");
/// returns `fallback` when unset or unrecognized. Lets CI flip every engine
/// in the process onto a backend without code changes.
TransportKind KindFromEnv(TransportKind fallback);

/// One exchange-transport backend. Instances are engine-owned and shared by
/// all of the engine's concurrent queries; every method may be called from
/// any pool worker at any time.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual TransportKind kind() const = 0;
  const char* name() const { return TransportKindName(kind()); }

  /// True when this backend builds exchange destinations inside remote
  /// worker processes: the executor then dispatches every non-empty
  /// destination through ExecuteFragment, and the cost model reports the
  /// measured round trips (already inside the exchange build times) instead
  /// of charging the modeled network formula. Stays true on a socket backend
  /// whose workers failed to start, so the first dispatch surfaces that
  /// failure instead of silently building locally.
  virtual bool remote_execution() const = 0;

  /// Blocks until remote workers are provably idle (socket: a
  /// control-channel ping per live worker). Called by the serving layer
  /// after a cancellation or deadline so a dead query leaves no bytes in
  /// flight. A positive `timeout_seconds` bounds the wait — under sustained
  /// dispatch by unrelated concurrent queries an unbounded drain could
  /// starve the caller — and a timeout returns kDeadlineExceeded without
  /// disturbing transport state (it is safe to keep dispatching and to drain
  /// again). Non-positive waits indefinitely.
  /// [[nodiscard]] beyond Status's own: a dropped drain status hides dead
  /// socket workers behind an apparent clean shutdown.
  [[nodiscard]] virtual Status Drain(double timeout_seconds) = 0;
  [[nodiscard]] Status Drain() { return Drain(/*timeout_seconds=*/0.0); }

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
/// always carry the full catalogue. The socket backend forks its workers
/// here, and a lock another thread holds at the fork stays held forever in
/// the child — so build the transport before any thread pool
/// (QueryProcessor builds its transport before its pool).
std::unique_ptr<Transport> MakeTransport(TransportKind kind, int num_nodes);

}  // namespace simdb::transport

#endif  // SIMDB_TRANSPORT_TRANSPORT_H_
