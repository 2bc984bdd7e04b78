#!/usr/bin/env bash
# Runs the kernel micro-benchmarks (bench_kernels) and the Figure-22
# similarity-selection benchmark (bench_fig22_selection) and merges their
# results into BENCH_kernels.json at the repo root.
#
# Every section carries a "stamp": the commit it was built from (suffixed
# "-dirty" when tracked files differ from it), the host's core count
# (nproc), the build directory's CMAKE_BUILD_TYPE, and the engine pool size
# the bench ran with (null where the bench sets none; bench_scheduler's pool
# size is each benchmark's first argument).
#
# Usage: bench/run_benches.sh [build_dir]     (default: <repo>/build)
#
# Environment:
#   SIMDB_BENCH_SCALE  record-count multiplier for the dataset benches
#   SIMDB_BENCH_QUICK  =1: reduced iterations + small dataset (CI smoke run;
#                      numbers are NOT meaningful, only the output shape is)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
OUT="$ROOT/BENCH_kernels.json"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

KERNELS_BIN="$BUILD/bench/bench_kernels"
SCHEDULER_BIN="$BUILD/bench/bench_scheduler"
VERIFY_BIN="$BUILD/bench/bench_verify_overhead"
FIG22_BIN="$BUILD/bench/bench_fig22_selection"
PROFILE_BIN="$BUILD/bench/bench_profile"
SERVING_BIN="$BUILD/bench/bench_serving"
TRANSPORT_BIN="$BUILD/bench/bench_transport"
for bin in "$KERNELS_BIN" "$SCHEDULER_BIN" "$VERIFY_BIN" "$FIG22_BIN" \
           "$PROFILE_BIN" "$SERVING_BIN" "$TRANSPORT_BIN"; do
  if [[ ! -x "$bin" ]]; then
    echo "missing benchmark binary: $bin (build the tree first)" >&2
    exit 1
  fi
done

COMMIT="$(git -C "$ROOT" rev-parse HEAD 2>/dev/null || echo unknown)"
if [[ "$COMMIT" != unknown ]] && ! git -C "$ROOT" diff --quiet HEAD --; then
  COMMIT="$COMMIT-dirty"
fi
NPROC="$(nproc)"
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$BUILD/CMakeCache.txt")"

KERNEL_FLAGS=()
QUICK="${SIMDB_BENCH_QUICK:-0}"
if [[ "$QUICK" == "1" ]]; then
  KERNEL_FLAGS+=(--benchmark_min_time=0.01)
  export SIMDB_BENCH_SCALE="${SIMDB_BENCH_SCALE:-0.05}"
fi

echo "== bench_kernels =="
"$KERNELS_BIN" "${KERNEL_FLAGS[@]+"${KERNEL_FLAGS[@]}"}" \
  --benchmark_out="$TMP/kernels.json" --benchmark_out_format=json

echo "== bench_scheduler =="
"$SCHEDULER_BIN" "${KERNEL_FLAGS[@]+"${KERNEL_FLAGS[@]}"}" \
  --benchmark_out="$TMP/scheduler.json" --benchmark_out_format=json

echo "== bench_verify_overhead =="
"$VERIFY_BIN" "${KERNEL_FLAGS[@]+"${KERNEL_FLAGS[@]}"}" \
  --benchmark_out="$TMP/verify.json" --benchmark_out_format=json

echo "== bench_fig22_selection =="
"$FIG22_BIN" | tee "$TMP/fig22.txt"

echo "== bench_profile =="
PROFILE_FLAGS=(--json "$TMP/profile.json")
if [[ "$QUICK" == "1" ]]; then
  PROFILE_FLAGS+=(--quick)
fi
"$PROFILE_BIN" "${PROFILE_FLAGS[@]}"

echo "== bench_serving =="
SERVING_FLAGS=(--json "$TMP/serving.json")
if [[ "$QUICK" == "1" ]]; then
  SERVING_FLAGS+=(--quick)
fi
"$SERVING_BIN" "${SERVING_FLAGS[@]}"

echo "== bench_transport =="
TRANSPORT_FLAGS=(--json "$TMP/transport.json")
if [[ "$QUICK" == "1" ]]; then
  TRANSPORT_FLAGS+=(--quick)
fi
"$TRANSPORT_BIN" "${TRANSPORT_FLAGS[@]}"

python3 - "$TMP/kernels.json" "$TMP/scheduler.json" "$TMP/verify.json" \
  "$TMP/fig22.txt" "$TMP/profile.json" "$TMP/serving.json" \
  "$TMP/transport.json" "$OUT" "$QUICK" "$COMMIT" "$NPROC" "$BUILD_TYPE" <<'PY'
import json, os, re, sys

(kernels_path, scheduler_path, verify_path, fig22_path, profile_path,
 serving_path, transport_path, out_path, quick, commit, nproc,
 build_type) = sys.argv[1:13]
with open(kernels_path) as f:
    kernels = json.load(f)
with open(scheduler_path) as f:
    scheduler = json.load(f)
with open(verify_path) as f:
    verify = json.load(f)
with open(fig22_path) as f:
    fig22_lines = [line.rstrip("\n") for line in f]
with open(profile_path) as f:
    query_profile = json.load(f)
with open(serving_path) as f:
    serving = json.load(f)
with open(transport_path) as f:
    transport = json.load(f)

# A binary's absolute path describes the build machine, not the numbers.
for report in (kernels, scheduler, verify):
    report["context"]["executable"] = os.path.basename(
        report["context"]["executable"])

def stamp(section, pool_threads):
    section["stamp"] = {"commit": commit, "nproc": int(nproc),
                        "build_type": build_type,
                        "pool_threads": pool_threads}
    return section

fig22_pool = int(re.search(r"pool threads: (\d+)",
                           "\n".join(fig22_lines)).group(1))
merged = {
    "generated_by": "bench/run_benches.sh",
    "quick_mode": quick == "1",
    "bench_kernels": stamp(kernels, None),
    "bench_scheduler": stamp(scheduler, None),
    "bench_verify_overhead": stamp(
        verify, int(verify["context"]["pool_threads"])),
    "bench_fig22_selection": stamp({"raw": fig22_lines}, fig22_pool),
    "query_profile": stamp(query_profile, query_profile.pop("pool_threads")),
    "bench_serving": stamp(serving, serving.pop("pool_threads")),
    "bench_transport": stamp(transport, transport.pop("pool_threads")),
}
with open(out_path, "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")

names = [b.get("name", "") for b in kernels.get("benchmarks", [])]
print(f"wrote {out_path}: {len(names)} kernel benchmarks, "
      f"{len(fig22_lines)} fig22 output lines")
PY
