#ifndef SIMDB_ADM_WIRE_H_
#define SIMDB_ADM_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/status.h"

namespace simdb::adm {

/// Versioned wire framing for serialized ADM payloads. Every frame is
///
///   magic   u32  'SFRM' (0x4d524653 little-endian)
///   version u8   kWireVersion
///   length  u32  payload byte count
///   crc32   u32  CRC-32 (IEEE 802.3, reflected) of the payload
///   payload length bytes
///
/// ReadFrame validates all four header fields before handing the payload
/// out, so a truncated, corrupted, or future-versioned frame is rejected at
/// the boundary instead of feeding garbage into Value::Deserialize. The
/// socket transport wraps every channel message in one frame; the
/// round-trip guarantees are pinned by tests/value_test.cc.
inline constexpr uint32_t kWireMagic = 0x4d524653u;  // "SFRM"
inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kWireHeaderBytes = 4 + 1 + 4 + 4;

/// CRC-32 (IEEE 802.3 polynomial, reflected, init/final 0xffffffff) over
/// `data`. Table-driven software implementation — no hardware dependency.
uint32_t Crc32(std::string_view data);

/// Appends one frame wrapping `payload` to `*out`.
void WriteFrame(std::string_view payload, std::string* out);

/// Consumes one frame from `r`, validating magic, version, length, and
/// checksum. Returns a view of the payload (valid while the reader's backing
/// buffer lives). Corruption statuses name the failing field.
Result<std::string_view> ReadFrame(ByteReader* r);

/// Message types spoken on a socket-transport channel. Every message is one
/// tag byte followed by one frame (see above); the tag decides how the frame
/// payload is interpreted (docs/DISTRIBUTED.md is the full reference).
/// Values are wire-stable; 1 and 5 are retired and unassigned.
enum class WireMessage : uint8_t {
  kPing = 2,            // parent -> worker: liveness probe (empty payload)
  kShutdown = 3,        // parent -> worker: exit cleanly (empty payload)
  kPong = 4,            // worker -> parent: ping/cancel acknowledgement
  kFragment = 6,        // parent -> worker: execute a fragment closure
  kFragmentResult = 7,  // worker -> parent: fragment rows + accounting
  kFragmentError = 8,   // worker -> parent: encoded Status of a failed fragment
  kCancelFragment = 9,  // parent -> worker: cancel fragments of one query id
};

/// Exchange-operator kinds a fragment closure can name. The closure is the
/// operator's serialized identity: which connector to reconstruct in the
/// worker plus its column parameters. Values are wire-stable.
enum class FragmentOp : uint8_t {
  kHash = 1,         // hash-partitioned exchange (columns = hash keys)
  kBroadcast = 2,    // replicate to every partition (no columns)
  kGather = 3,       // concatenate into partition 0 (no columns)
  kMergeGather = 4,  // ordered merge into partition 0 (columns + directions)
};

/// Serialized identity of one exchange connector. `columns` are the hash-key
/// or sort-key column indexes; `ascending` parallels `columns` for
/// merge-gather (1 = ascending) and is empty for the other ops.
struct FragmentClosure {
  FragmentOp op = FragmentOp::kHash;
  std::vector<int32_t> columns;
  std::vector<uint8_t> ascending;
};

void EncodeFragmentClosure(const FragmentClosure& closure, ByteWriter* w);
Result<FragmentClosure> DecodeFragmentClosure(ByteReader* r);

/// Fixed prelude of a kFragment request payload. `query_id` leads so a worker
/// can match the request against its cancellation ledger before decoding the
/// (potentially large) partition groups that follow the closure.
struct FragmentHeader {
  uint64_t query_id = 0;
  uint32_t dst_partition = 0;
  uint32_t num_nodes = 0;
  uint32_t partitions_per_node = 0;
  uint32_t num_groups = 0;  // partition-group count following the closure
};

void EncodeFragmentHeader(const FragmentHeader& h, ByteWriter* w);
Result<FragmentHeader> DecodeFragmentHeader(ByteReader* r);

/// Fixed prelude of a kFragmentResult payload: the worker's accounting for
/// the build it ran, followed (outside this struct) by the produced rows.
/// `worker_pid` is the executing process id — tests use it to prove the
/// destination was produced outside the parent.
struct FragmentResultHeader {
  uint64_t query_id = 0;
  int64_t worker_pid = 0;
  uint64_t local_bytes = 0;
  uint64_t remote_bytes = 0;
  uint64_t remote_transfers = 0;
  double compute_seconds = 0;
};

void EncodeFragmentResultHeader(const FragmentResultHeader& h, ByteWriter* w);
Result<FragmentResultHeader> DecodeFragmentResultHeader(ByteReader* r);

/// kFragmentError payload: `[u8 status code][u32 len][message]`. Encoding an
/// OK status is a caller bug (checked); decoding returns the carried Status,
/// or Corruption when the payload itself is malformed (unknown code, OK code,
/// truncation) — so a garbled error can never masquerade as success.
void EncodeFragmentError(const Status& status, std::string* payload);
Status DecodeFragmentError(std::string_view payload);

}  // namespace simdb::adm

#endif  // SIMDB_ADM_WIRE_H_
