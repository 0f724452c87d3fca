#!/usr/bin/env python3
"""Build and run the Strong WORM end-to-end benchmark.

    python3 perfbench/run.py --workload ingest|audit|mixed --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/worm_perf.exe with dune,
runs one workload in one process, and prints the executable's report
followed, as the last line, by one JSON object holding the metrics that
BENCHMARK.json declares: its end_to_end metrics with --trace 0, its
per_layer metrics with --trace 1 (a per-layer metric a workload does not
exercise reads 0, and is listed on a comment line). Exits non-zero if
the build fails, any output check fails, or a declared end-to-end metric
is missing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "worm_perf.exe")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/worm_perf.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=880,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        log("build failed: %s" % e)
        return False
    sys.stderr.write(r.stdout.decode(errors="replace"))
    if r.returncode != 0 or not os.path.exists(EXE):
        log("build failed (exit %d)" % r.returncode)
        return False
    return True


def revision():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
        rev = r.stdout.decode().strip()
        return rev if r.returncode == 0 and rev else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        log("unknown workload %r" % args.workload)
        return 2
    if not build():
        return 1

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--rev", revision()]
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(out_dir, "trace-%s-%d.tsv" % (args.workload, args.seed))]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = r.stdout.decode(errors="replace").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("no result from the benchmark (exit %d)" % r.returncode)
        return 1
    print("\n".join(lines[:-1]))

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    measured = result["metrics"]
    metrics, missing, not_applicable = {}, [], []
    for m in declared:
        if m["name"] in measured:
            metrics[m["name"]] = {"value": measured[m["name"]]["value"], "unit": m["unit"]}
        elif args.trace:
            not_applicable.append(m["name"])
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
        else:
            missing.append(m["name"])
    if not_applicable:
        print("# not exercised by %s (reported as 0): %s" % (args.workload, " ".join(not_applicable)))
    if missing:
        log("missing end-to-end metrics: %s" % " ".join(missing))
    correct = bool(result["correct"]) and r.returncode == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"] + len(missing), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
