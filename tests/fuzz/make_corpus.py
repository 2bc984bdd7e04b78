#!/usr/bin/env python3
"""Regenerates the fuzz seed corpora: tests/fuzz/corpus/ for
wire_frame_fuzzer and tests/fuzz/sorted_run_corpus/ for sorted_run_fuzzer.

Frames follow src/adm/wire.h: magic u32 'SFRM' | version u8 | length u32 |
crc32 u32 | payload, all little-endian. zlib.crc32 is the same reflected
IEEE-802.3 CRC the engine implements, so the seeds are valid frames built
from the known-CRC vectors pinned by tests/value_test.cc, plus a handful of
near-miss frames (bad magic / version / crc / truncation) that start the
fuzzer on each rejection branch.

Runs follow src/storage/sorted_run.cc: entries [u8 kind][u32 klen][key]
[u32 vlen][value], then the sparse index [u32 n] + n x ([u32 klen][key]
[u64 offset]) holding the first key of every interval-th entry, then the
footer [u64 index offset][u64 entry count][u32 interval][u32 magic 'SRN1'].
A key is [u32 value count] + ADM values (int64: tag 3 + i64). The seeds are
valid runs at intervals 1, 4 and 64, an empty run, and one run per
corruption the reader must turn into a Status.
"""
import struct
import zlib
from pathlib import Path

MAGIC = 0x4D524653  # "SFRM"
VERSION = 1


def frame(payload: bytes, magic=MAGIC, version=VERSION, crc=None,
          length=None) -> bytes:
    if crc is None:
        crc = zlib.crc32(payload) & 0xFFFFFFFF
    if length is None:
        length = len(payload)
    return struct.pack("<IBII", magic, version, length, crc) + payload


def fragment_request(query_id=42, dst=1, nodes=2, ppn=2, op=1,
                     columns=(0,), ascending=()) -> bytes:
    """A kFragment request payload (src/adm/wire.h): FragmentHeader +
    FragmentClosure + one empty row group per partition."""
    groups = nodes * ppn
    payload = struct.pack("<QIIII", query_id, dst, nodes, ppn, groups)
    payload += struct.pack("<BI", op, len(columns))
    for c in columns:
        payload += struct.pack("<I", c)
    payload += struct.pack("<I", len(ascending))
    for a in ascending:
        payload += struct.pack("<B", a)
    payload += struct.pack("<I", 0) * groups  # empty row groups
    return payload


def fragment_error(code=5, message=b"corrupt slice") -> bytes:
    """A kFragmentError payload: status code byte + length-prefixed text
    (5 = kCorruption in common/status.h)."""
    return struct.pack("<BI", code, len(message)) + message


RUN_MAGIC = 0x53524E31  # "SRN1"
FOOTER = struct.Struct("<QQII")


def int_key(v: int) -> bytes:
    return struct.pack("<IBq", 1, 3, v)


def sorted_run(entries, interval) -> bytes:
    """A run of (kind, key bytes, value) entries, keys in ascending order."""
    data = b""
    sparse = []
    for i, (kind, key, value) in enumerate(entries):
        if i % interval == 0:
            sparse.append((key, len(data)))
        data += struct.pack("<BI", kind, len(key)) + key
        data += struct.pack("<I", len(value)) + value
    index = struct.pack("<I", len(sparse))
    for key, offset in sparse:
        index += struct.pack("<I", len(key)) + key + struct.pack("<Q", offset)
    return data + index + FOOTER.pack(len(data), len(entries), interval,
                                      RUN_MAGIC)


def run_seeds():
    puts = [(0, int_key(2 * i), b"v%d" % i) for i in range(40)]
    # Every fifth key a tombstone (kind 1, empty value), as flushes write.
    mixed = [(1, key, b"") if i % 5 == 0 else (kind, key, value)
             for i, (kind, key, value) in enumerate(puts)]
    seeds = {
        "valid_interval1": sorted_run(puts[:8], 1),
        "valid_interval4": sorted_run(mixed, 4),
        "valid_interval64": sorted_run(mixed + [
            (0, int_key(1000 + i), b"x" * 20) for i in range(60)], 64),
        "valid_empty": sorted_run([], 64),
    }
    valid = seeds["valid_interval4"]
    seeds["truncated_footer"] = valid[:-5]
    index_offset = len(valid) - FOOTER.size - (4 + 10 * (4 + 13 + 8))
    huge_count = bytearray(valid)
    struct.pack_into("<I", huge_count, index_offset, 0xFFFFFFFF)
    seeds["huge_sparse_count"] = bytes(huge_count)
    # Swap the offsets of sparse entries 1 and 2 (each entry is 25 bytes).
    swapped = bytearray(valid)
    first = index_offset + 4 + 25 + 17
    a = bytes(swapped[first:first + 8])
    b = bytes(swapped[first + 25:first + 33])
    swapped[first:first + 8] = b
    swapped[first + 25:first + 33] = a
    seeds["sparse_offsets_out_of_order"] = bytes(swapped)
    huge_key = bytearray(valid)
    struct.pack_into("<I", huge_key, 1, 0x7FFFFFF0)  # first entry's klen
    seeds["huge_key_length"] = bytes(huge_key)
    return seeds


def main():
    here = Path(__file__).resolve().parent
    runs = here / "sorted_run_corpus"
    runs.mkdir(exist_ok=True)
    for name, data in sorted(run_seeds().items()):
        (runs / name).write_bytes(data)
        print(f"sorted_run_corpus/{name}: {len(data)} bytes")

    corpus = here / "corpus"
    corpus.mkdir(exist_ok=True)
    known = {
        "empty": b"",                  # crc 0x00000000
        "digits": b"123456789",        # crc 0xcbf43926
        "hello": b"hello",             # crc 0x3610a686
    }
    seeds = {}
    for name, payload in known.items():
        seeds[f"valid_{name}"] = frame(payload)
    seeds["valid_two_frames"] = frame(b"hello") + frame(b"123456789")
    seeds["bad_magic"] = frame(b"hello", magic=0x4D524654)
    seeds["bad_version"] = frame(b"hello", version=2)
    seeds["bad_crc"] = frame(b"hello", crc=0xDEADBEEF)
    seeds["short_payload"] = frame(b"hello", length=64)
    seeds["truncated_header"] = frame(b"hello")[:7]
    # Fragment-family seeds (kFragment / kFragmentError / kCancelFragment
    # payload shapes from docs/DISTRIBUTED.md) so mutation starts on the
    # message layouts the socket workers actually parse.
    seeds["frag_request_hash"] = frame(fragment_request())
    seeds["frag_request_merge_gather"] = frame(
        fragment_request(op=4, columns=(1, 0), ascending=(1, 0)))
    seeds["frag_request_bad_op"] = frame(fragment_request(op=99))
    seeds["frag_request_truncated"] = frame(fragment_request()[:-6])
    seeds["frag_error"] = frame(fragment_error())
    seeds["frag_cancel"] = frame(struct.pack("<Q", 42))
    # A [u8 type][frame] channel message as the transport writes it; the
    # leading type byte must fail the bare-frame magic check cleanly.
    seeds["frag_typed_message"] = struct.pack("<B", 6) + frame(
        fragment_request())

    for name, data in sorted(seeds.items()):
        (corpus / name).write_bytes(data)
        print(f"{name}: {len(data)} bytes")


if __name__ == "__main__":
    main()
