#include "adm/wire.h"

#include <array>

#include "common/logging.h"

namespace simdb::adm {

namespace {

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  static const std::array<uint32_t, 256> kTable = MakeCrcTable();
  uint32_t c = 0xffffffffu;
  for (char ch : data) {
    c = kTable[(c ^ static_cast<uint8_t>(ch)) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

void WriteFrame(std::string_view payload, std::string* out) {
  ByteWriter w(out);
  w.PutU32(kWireMagic);
  w.PutU8(kWireVersion);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU32(Crc32(payload));
  out->append(payload.data(), payload.size());
}

Result<std::string_view> ReadFrame(ByteReader* r) {
  SIMDB_ASSIGN_OR_RETURN(uint32_t magic, r->GetU32());
  if (magic != kWireMagic) {
    return Status::Corruption("bad frame magic " + std::to_string(magic));
  }
  SIMDB_ASSIGN_OR_RETURN(uint8_t version, r->GetU8());
  if (version != kWireVersion) {
    return Status::Corruption("unsupported frame version " +
                              std::to_string(version));
  }
  SIMDB_ASSIGN_OR_RETURN(uint32_t length, r->GetU32());
  SIMDB_ASSIGN_OR_RETURN(uint32_t crc, r->GetU32());
  if (r->remaining() < length) {
    return Status::Corruption(
        "frame truncated: payload needs " + std::to_string(length) +
        " bytes, " + std::to_string(r->remaining()) + " remain");
  }
  SIMDB_ASSIGN_OR_RETURN(std::string_view raw, r->GetRaw(length));
  if (Crc32(raw) != crc) {
    return Status::Corruption("frame checksum mismatch");
  }
  return raw;
}

void EncodeFragmentClosure(const FragmentClosure& closure, ByteWriter* w) {
  w->PutU8(static_cast<uint8_t>(closure.op));
  w->PutU32(static_cast<uint32_t>(closure.columns.size()));
  for (int32_t c : closure.columns) w->PutU32(static_cast<uint32_t>(c));
  w->PutU32(static_cast<uint32_t>(closure.ascending.size()));
  for (uint8_t a : closure.ascending) w->PutU8(a);
}

Result<FragmentClosure> DecodeFragmentClosure(ByteReader* r) {
  FragmentClosure closure;
  SIMDB_ASSIGN_OR_RETURN(uint8_t op, r->GetU8());
  if (op < static_cast<uint8_t>(FragmentOp::kHash) ||
      op > static_cast<uint8_t>(FragmentOp::kMergeGather)) {
    return Status::Corruption("unknown fragment op tag " + std::to_string(op));
  }
  closure.op = static_cast<FragmentOp>(op);
  SIMDB_ASSIGN_OR_RETURN(uint32_t ncols, r->GetU32());
  // Element reads bound memory growth: a lying count fails on truncation
  // before any large allocation happens.
  for (uint32_t i = 0; i < ncols; ++i) {
    SIMDB_ASSIGN_OR_RETURN(uint32_t c, r->GetU32());
    closure.columns.push_back(static_cast<int32_t>(c));
  }
  SIMDB_ASSIGN_OR_RETURN(uint32_t nasc, r->GetU32());
  for (uint32_t i = 0; i < nasc; ++i) {
    SIMDB_ASSIGN_OR_RETURN(uint8_t a, r->GetU8());
    closure.ascending.push_back(a);
  }
  if (!closure.ascending.empty() &&
      closure.ascending.size() != closure.columns.size()) {
    return Status::Corruption(
        "fragment closure: " + std::to_string(closure.columns.size()) +
        " columns but " + std::to_string(closure.ascending.size()) +
        " sort directions");
  }
  return closure;
}

void EncodeFragmentHeader(const FragmentHeader& h, ByteWriter* w) {
  w->PutU64(h.query_id);
  w->PutU32(h.dst_partition);
  w->PutU32(h.num_nodes);
  w->PutU32(h.partitions_per_node);
  w->PutU32(h.num_groups);
}

Result<FragmentHeader> DecodeFragmentHeader(ByteReader* r) {
  FragmentHeader h;
  SIMDB_ASSIGN_OR_RETURN(h.query_id, r->GetU64());
  SIMDB_ASSIGN_OR_RETURN(h.dst_partition, r->GetU32());
  SIMDB_ASSIGN_OR_RETURN(h.num_nodes, r->GetU32());
  SIMDB_ASSIGN_OR_RETURN(h.partitions_per_node, r->GetU32());
  SIMDB_ASSIGN_OR_RETURN(h.num_groups, r->GetU32());
  if (h.num_nodes == 0 || h.partitions_per_node == 0) {
    return Status::Corruption("fragment header: empty topology");
  }
  uint64_t parts =
      static_cast<uint64_t>(h.num_nodes) * h.partitions_per_node;
  if (h.num_groups != parts) {
    return Status::Corruption(
        "fragment header: " + std::to_string(h.num_groups) + " groups for " +
        std::to_string(parts) + " partitions");
  }
  if (h.dst_partition >= parts) {
    return Status::Corruption("fragment header: destination partition " +
                              std::to_string(h.dst_partition) +
                              " out of range");
  }
  return h;
}

void EncodeFragmentResultHeader(const FragmentResultHeader& h, ByteWriter* w) {
  w->PutU64(h.query_id);
  w->PutI64(h.worker_pid);
  w->PutU64(h.local_bytes);
  w->PutU64(h.remote_bytes);
  w->PutU64(h.remote_transfers);
  w->PutDouble(h.compute_seconds);
}

Result<FragmentResultHeader> DecodeFragmentResultHeader(ByteReader* r) {
  FragmentResultHeader h;
  SIMDB_ASSIGN_OR_RETURN(h.query_id, r->GetU64());
  SIMDB_ASSIGN_OR_RETURN(h.worker_pid, r->GetI64());
  SIMDB_ASSIGN_OR_RETURN(h.local_bytes, r->GetU64());
  SIMDB_ASSIGN_OR_RETURN(h.remote_bytes, r->GetU64());
  SIMDB_ASSIGN_OR_RETURN(h.remote_transfers, r->GetU64());
  SIMDB_ASSIGN_OR_RETURN(h.compute_seconds, r->GetDouble());
  return h;
}

void EncodeFragmentError(const Status& status, std::string* payload) {
  SIMDB_CHECK(!status.ok()) << "fragment error payload cannot carry OK";
  ByteWriter w(payload);
  w.PutU8(static_cast<uint8_t>(status.code()));
  w.PutString(status.message());
}

Status DecodeFragmentError(std::string_view payload) {
  ByteReader r(payload);
  Result<uint8_t> code = r.GetU8();
  if (!code.ok()) return code.status();
  Result<std::string_view> message = r.GetString();
  if (!message.ok()) return message.status();
  if (*code == static_cast<uint8_t>(StatusCode::kOk) ||
      *code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return Status::Corruption("fragment error payload carries status code " +
                              std::to_string(*code));
  }
  return Status(static_cast<StatusCode>(*code), std::string(*message));
}

}  // namespace simdb::adm
