#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_determinism.py

Builds perfbench/worm_perf.exe and, on a short run of every workload:
- checks the frozen calibration kernel (its SHA-256 against the
  library's, and its pinned digest);
- runs seed 7 twice and requires every paper-clock metric, every count,
  bytes_per_user_byte and live_heap_mb to repeat exactly;
- runs seed 8 and requires every output check to pass on the new inputs,
  with at least one deterministic metric changed;
- makes one traced run and requires the three workloads together to
  report every per-layer metric BENCHMARK.json declares.
Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "worm_perf.exe")
WORKLOADS = ["ingest", "audit", "mixed"]
# Units of metrics that are counts of work, not times.
COUNT_UNITS = {"count", "words", "bytes", "ratio", "MiB"}
# Derived from real time despite their unit.
REAL_TIME = {"model.host_ratio", "trace.overhead_pct", "trace.coverage_pct"}


def deterministic(name, unit):
    if name in REAL_TIME:
        return False
    return "virt" in name or unit in COUNT_UNITS


def run(workload, seed, trace):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=300)
    result = json.loads(r.stdout.decode().splitlines()[-1])
    if r.returncode != 0 or not result["correct"] or result["failed"]:
        sys.exit("FAIL %s seed %d trace %d: exit %d, %d failed" % (workload, seed, trace, r.returncode, result["failed"]))
    return {n: (m["value"], m["unit"]) for n, m in result["metrics"].items()}


def main():
    subprocess.run(["dune", "build", "--root", ROOT, "./perfbench/worm_perf.exe"], cwd=ROOT, check=True)
    if subprocess.run([EXE, "--check-kernel"], cwd=ROOT).returncode != 0:
        sys.exit("FAIL calibration kernel")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = [m["name"] for m in json.load(f)["per_layer"]]
    traced = set()
    for w in WORKLOADS:
        a, b, other = run(w, 7, 0), run(w, 7, 0), run(w, 8, 0)
        det = sorted(n for n, (_, u) in a.items() if deterministic(n, u))
        diff = [n for n in det if a[n][0] != b[n][0]]
        if diff:
            sys.exit("FAIL %s: not repeated on seed 7: %s" % (w, ", ".join("%s %r/%r" % (n, a[n][0], b[n][0]) for n in diff)))
        if all(a[n][0] == other[n][0] for n in det):
            sys.exit("FAIL %s: seed 8 changed nothing" % w)
        traced |= set(run(w, 7, 1))
        print("ok %s: %d deterministic metrics repeat on seed 7; seed 8 passes its checks" % (w, len(det)), flush=True)
    missing = [n for n in declared if n not in traced]
    if missing:
        sys.exit("FAIL per-layer metrics no workload reports: %s" % " ".join(missing))
    print("ok: every declared per-layer metric is reported by some workload")


if __name__ == "__main__":
    main()
