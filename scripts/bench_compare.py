#!/usr/bin/env python3
"""Diffs two BENCH files (bench/run_benches.sh output) on a fixed list of
headline metrics.

Usage:

    python3 scripts/bench_compare.py OLD.json NEW.json

Prints each file's section stamps, then one row per headline metric: old
value, new value and new/old ratio. The headlines are

  - wall, makespan and network seconds of every query_profile query;
  - the kernel, scheduler and verify-overhead rows CI's bench-smoke job
    requires (real time per iteration);
  - bench_serving's QPS and p99 latency at each client count.

It judges shape, not speed: the exit status is non-zero only when a file
cannot be read, a section lacks its stamp, or a headline metric is missing.
"""

import json
import sys

PROFILED_QUERIES = [
    "three_stage_jaccard_join",
    "indexed_jaccard_selection",
    "indexed_ed_join",
    "nested_loop_ed_join",
    "order_by_merge_gather",
]
PROFILE_FIELDS = ["wall_seconds", "makespan_seconds", "network_seconds"]
BENCHMARK_ROWS = {
    "bench_kernels": [
        "BM_JaccardExact/8",
        "BM_JaccardExactIds/8",
        "BM_JaccardCheckIds/8",
        "BM_JaccardCheckIdsSimd/8",
        "BM_JaccardCheckIdsScalarBatch/64",
        "BM_JaccardCheckIdsBatch/64",
        "BM_EditDistanceCheckMyers/10",
        "BM_EditDistanceCheckBatch/10",
        "InvertedIndexFixture/TOccurrenceScanCount",
        "InvertedIndexFixture/TOccurrenceScanCountNoCache",
        "InvertedIndexFixture/TOccurrenceHeapMerge",
        "InvertedIndexFixture/TOccurrenceBatch",
        "BM_LsmGetSorted",
        "BM_TupleCopy",
    ],
    "bench_scheduler": ["BM_TaskGraphScheduler/4/real_time"],
    "bench_verify_overhead": [
        "BM_OptimizeVerifyOff/0",
        "BM_OptimizeVerifyOff/1",
        "BM_OptimizeVerifyOn/0",
        "BM_OptimizeVerifyOn/1",
    ],
}
SERVING_CLIENTS = [1, 2, 4, 8]
STAMP_KEYS = ["commit", "nproc", "build_type", "pool_threads"]


class Missing(Exception):
    pass


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        raise Missing(f"{path}: unreadable: {e}")
    if not isinstance(data, dict):
        raise Missing(f"{path}: not a BENCH object")
    return data


def stamps(path, data):
    """One line per section: its name and stamp."""
    lines = []
    for key, section in data.items():
        if not isinstance(section, dict):
            continue
        stamp = section.get("stamp")
        if not isinstance(stamp, dict) or any(k not in stamp
                                              for k in STAMP_KEYS):
            raise Missing(f"{path}: section {key} lacks a complete stamp")
        lines.append(f"  {key}: " + ", ".join(f"{k}={stamp[k]}"
                                               for k in STAMP_KEYS))
    if not lines:
        raise Missing(f"{path}: no stamped section")
    return lines


def headlines(path, data):
    """Ordered (name, value, unit) of every headline metric."""
    out = []

    def section(key):
        if not isinstance(data.get(key), dict):
            raise Missing(f"{path}: no {key} section")
        return data[key]

    profiles = {q.get("name"): q.get("profile", {})
                for q in section("query_profile").get("queries", [])}
    for name in PROFILED_QUERIES:
        for field in PROFILE_FIELDS:
            value = profiles.get(name, {}).get(field)
            if not isinstance(value, (int, float)):
                raise Missing(f"{path}: query_profile {name} lacks {field}")
            out.append((f"query_profile/{name}/{field}", value, "s"))

    for key, rows in BENCHMARK_ROWS.items():
        found = {b.get("name"): b
                 for b in section(key).get("benchmarks", [])}
        for row in rows:
            bench = found.get(row)
            if bench is None or not isinstance(bench.get("real_time"),
                                               (int, float)):
                raise Missing(f"{path}: {key} lacks {row}")
            out.append((f"{key}/{row}", bench["real_time"],
                        bench.get("time_unit", "ns")))

    series = {c.get("clients"): c for c in section("bench_serving").get(
        "clients", [])}
    for clients in SERVING_CLIENTS:
        point = series.get(clients, {})
        for field, unit in (("qps", "1/s"), ("p99_ms", "ms")):
            value = point.get(field)
            if not isinstance(value, (int, float)):
                raise Missing(
                    f"{path}: bench_serving lacks {field} at {clients} clients")
            out.append((f"bench_serving/clients={clients}/{field}", value,
                        unit))
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: bench_compare.py OLD.json NEW.json", file=sys.stderr)
        return 2
    old_path, new_path = argv[1], argv[2]
    try:
        old, new = load(old_path), load(new_path)
        for label, path, data in (("old", old_path, old),
                                  ("new", new_path, new)):
            print(f"{label}: {path}")
            for line in stamps(path, data):
                print(line)
        old_rows, new_rows = headlines(old_path, old), headlines(new_path, new)
    except Missing as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 1

    width = max(len(name) for name, _, _ in old_rows)
    print(f"{'metric':<{width}}  {'unit':>4}  {'old':>12}  {'new':>12}  "
          f"{'new/old':>7}")
    for (name, old_value, unit), (_, new_value, _) in zip(old_rows, new_rows):
        ratio = f"{new_value / old_value:7.3f}" if old_value else "      -"
        print(f"{name:<{width}}  {unit:>4}  {old_value:12.6g}  "
              f"{new_value:12.6g}  {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
