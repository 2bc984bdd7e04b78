#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload jaccard-join|ed-join|search-ingest \
        --seed N --seconds S --trace 0|1 [--quick] [--perturb-reference]

The first call configures and builds perfbench/ (which compiles the engine
from ../src) in .bench_build/; later calls rebuild incrementally. The last
line of standard output is the benchmark's JSON result. Everything the run
writes stays under .bench_build/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_TYPE = "Release"
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench-" + BUILD_TYPE.lower())
WORK_DIR = os.path.join(BUILD_ROOT, "work")
BINARY = os.path.join(BUILD_DIR, "simdb_perfbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ("jaccard-join", "ed-join", "search-ingest")


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources not found under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed", 1)
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "simdb_perfbench",
                   "-j", jobs()]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 1)


def source_digest():
    """sha256 over the engine and benchmark sources, for the result stamp."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def remove_leftover_data(pid):
    """Removes the engine directories of run `pid` (named data-<pid>-<n>)."""
    prefix = "data-%d-" % pid
    for name in os.listdir(WORK_DIR):
        if name.startswith(prefix):
            shutil.rmtree(os.path.join(WORK_DIR, name), ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="small inputs; checks the output shape only")
    parser.add_argument("--perturb-reference", action="store_true",
                        help="corrupt one reference answer (self-test)")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR, "--commit", commit(),
           "--source-digest", source_digest(), "--build-type", BUILD_TYPE]
    if args.quick:
        cmd.append("--quick")
    if args.perturb_reference:
        cmd.append("--perturb-reference")
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            remove_leftover_data(proc.pid)
            fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    remove_leftover_data(proc.pid)
    lines = stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(stdout)
        fail("run produced no result (exit %d)" % proc.returncode, 1)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
