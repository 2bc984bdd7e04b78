#!/usr/bin/env python3
"""Self-test of the repository benchmark, in quick mode.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload of BENCHMARK.json, and the ungated search-ingest, it
checks that an untraced run prints exactly the end-to-end metrics of
BENCHMARK.json and a traced run exactly the per-layer metrics, each with its
unit; that every answer check passes; that the traced run writes its spans;
and that a run with a deliberately perturbed reference answer fails. Exits
non-zero on the first problem.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
UNGATED = ["search-ingest"]  # too host-sensitive to gate; see README.md


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--quick", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, lines, result


def check(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    catalogues = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for workload in [w["name"] for w in bench["workloads"]] + UNGATED:
        for trace, catalogue in catalogues.items():
            proc, lines, result = run(workload, trace)
            where = "%s --trace %d" % (workload, trace)
            check(proc.returncode == 0,
                  "%s exited %d: %s" % (where, proc.returncode, proc.stderr))
            check(result["correct"] is True, where + " failed an answer check")
            check(result["failed"] == 0 and result["attempted"] >= 1,
                  where + " counted failures or no attempts")
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in catalogue}
            check(set(metrics) == set(want),
                  "%s printed %s, BENCHMARK.json lists %s" %
                  (where, sorted(metrics), sorted(want)))
            for name, unit in want.items():
                value = metrics[name]["value"]
                check(metrics[name]["unit"] == unit,
                      "%s: %s has unit %s, want %s" %
                      (where, name, metrics[name]["unit"], unit))
                check(isinstance(value, (int, float)) and math.isfinite(value),
                      "%s: %s is not a finite number" % (where, name))
                if trace == 0:
                    check(value > 0, "%s: end-to-end %s is %r" %
                          (where, name, value))
            if trace == 1:
                traces = [l for l in lines if l.startswith("trace: ")]
                check(traces, where + " reported no span file")
                path = traces[-1].split()[1]
                with open(path) as f:
                    spans = json.load(f)["traceEvents"]
                check(spans, where + " wrote no spans")
                check(all({"id", "parent", "request"} <= set(s["args"])
                          for s in spans), where + " spans lack ids")
            print("ok   %s" % where)
        proc, lines, result = run(workload, 0, "--perturb-reference")
        check(proc.returncode != 0,
              workload + " passed with a perturbed reference answer")
        check(result is None or result.get("correct") is False,
              workload + " reported correct with a perturbed reference")
        print("ok   %s detects a perturbed reference" % workload)
    print("selftest passed")


if __name__ == "__main__":
    main()
