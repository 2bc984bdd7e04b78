#ifndef SIMDB_HYRACKS_FRAGMENT_H_
#define SIMDB_HYRACKS_FRAGMENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "adm/wire.h"
#include "common/result.h"
#include "hyracks/ops_exchange.h"
#include "transport/transport.h"

namespace simdb::hyracks::fragment {

/// Job-fragment serde and execution: the bridge between the executor's
/// exchange builds and the socket transport's worker processes.
///
/// A fragment is one per-(node, partition) task closure — "build destination
/// partition `dst` of this exchange" — shipped to the worker that owns the
/// destination's node, executed there with the *same* BuildDestination code
/// the parent would run, and gathered back as rows plus the worker's own
/// traffic accounting. Because both sides run identical operator code over
/// an identical input slice, remote and local builds are bit-identical; the
/// modeled backend stays the differential oracle for this path.
///
/// Layering: this module lives in the operator library, which the transport
/// library must not depend on. The worker-side interpreter is therefore
/// installed into transport::InstallFragmentInterpreter during static
/// initialization (pre-main, pre-fork); the transport calls it through the
/// hook without knowing operators exist. docs/DISTRIBUTED.md is the
/// handbook for the full lifecycle.

/// Row-group codec: `[u32 row count][per row: u32 column count, each value
/// via adm::Value::Serialize]`, raw — the enclosing wire frame's CRC covers
/// it. Request slices and result rows both use it; it is the only row
/// serialization on the exchange path. Every row of a group has the same
/// column count; an empty group states no width.
void EncodeRows(const Rows& rows, ByteWriter* w);

/// Inverse of EncodeRows. Corrupt or lying counts, and rows whose column
/// counts differ, yield a Status, never an allocation sized by a count
/// field. An empty group decodes to zero-width Rows.
Result<Rows> DecodeRows(ByteReader* r);

/// Extracts the operator's wire closure. Returns false when the operator
/// kind has no registered closure (an exchange subclass this module does not
/// know); remote dispatch then falls back to a local build.
bool ClosureFor(const ExchangeOperator& op, adm::FragmentClosure* closure);

/// Encodes the kFragment request payload for destination `dst`: fragment
/// header, operator closure, then one row group per source partition — the
/// exact input slice the destination's build consumes (hash: the rows routed
/// to `dst`; broadcast/gather/merge-gather: every row, or nothing when the
/// destination is not partition 0). `*slice_rows` receives the slice's row
/// count; 0 means a remote build would be trivially empty and the caller
/// should build locally instead of paying a round trip.
void EncodeFragmentRequest(const ClusterTopology& topology, uint64_t query_id,
                           const adm::FragmentClosure& closure, int dst,
                           const PartitionedRows& in,
                           const ExchangeOperator::Routing& routing,
                           std::string* payload, size_t* slice_rows);

/// A decoded kFragmentResult payload: the worker's accounting plus the rows
/// it built.
struct RemoteBuildResult {
  adm::FragmentResultHeader header;
  Rows rows;
};

Result<RemoteBuildResult> DecodeFragmentResult(std::string_view payload);

/// Worker-side entry point: decodes a kFragment request payload,
/// reconstructs the operator from its closure, runs the real
/// BuildDestination over the shipped slice, and encodes the result (or an
/// exact error Status). Installed as the transport's fragment interpreter;
/// public so tests can drive it without a forked process.
transport::FragmentReply InterpretFragment(std::string_view request_payload);

/// Parent-side remote build. When the context's transport executes fragments
/// remotely, encodes the destination's task closure, dispatches it to the
/// owning node's worker, and decodes the gathered result into `*out` with
/// the worker's accounting merged into `*stats` (remote compute seconds kept
/// separate from wire time). Sets `*handled` = false — caller builds locally,
/// answer-identical — when the transport has no remote execution, the
/// operator has no closure, the input slice is empty, or the worker refused
/// the fragment as cancelled. Any other remote failure (worker gone, worker
/// error, workers that never started) is returned and fails the build task.
Status TryBuildRemote(ExecContext& ctx, ExchangeOperator& op, int dst,
                      const PartitionedRows& in,
                      const ExchangeOperator::Routing& routing, OpStats* stats,
                      Rows* out, bool* handled);

}  // namespace simdb::hyracks::fragment

#endif  // SIMDB_HYRACKS_FRAGMENT_H_
