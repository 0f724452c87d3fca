#!/usr/bin/env python3
"""Steadiness check: run the benchmark on several seeds and report spreads.

    python3 perfbench/steadiness.py --workload audit --seeds 1-10 [--json out.jsonl]

For every metric the executable prints, gives the median over the seeds
and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. Each
calibrated real-time metric is shown beside its raw wall.* counterpart,
and ops_per_s beside lib.ops_per_unit, the same throughput scaled by the
library's own RSA sign + SHA-256 instead of the frozen kernel. End-to-end
spreads above a third of their BENCHMARK.json bound are flagged. Exits
non-zero if a run fails or if the spread of an end-to-end metric other
than setup_s (whose spread is not bounded) exceeds its full bound.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LINE = re.compile(r"^# (\S+)\s+(-?[0-9.eE+-]+) (\S+)$")
PAIRS = [("ops_per_s", "wall.ops_per_s"), ("ops_per_s", "lib.ops_per_unit"), ("read_p50_us", "wall.read_p50_us"),
         ("read_p99_us", "wall.read_p99_us"), ("setup_s", "wall.setup_s"), ("write_p50_us", "wall.write_p50_us")]


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def run_one(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=900)
    metrics = {"elapsed_s": time.monotonic() - t0}
    lines = r.stdout.decode().splitlines()
    for line in lines:
        m = LINE.match(line)
        if m:
            metrics[m.group(1)] = float(m.group(2))
    result = json.loads(lines[-1])
    return r.returncode, result, metrics


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--json", help="append the runs and the summary to this file")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    runs = []
    for seed in seeds(args.seeds):
        code, result, metrics = run_one(args.workload, seed, seconds)
        runs.append({"seed": seed, "exit": code, "result": result, "metrics": metrics})
        print("seed %d: exit %d failed %d ops_per_s %.2f wall.cal_ms %.3f elapsed %.1f s" % (
            seed, code, result["failed"], metrics.get("ops_per_s", 0), metrics.get("wall.cal_ms", 0),
            metrics["elapsed_s"]), flush=True)

    names = sorted(set().union(*(r["metrics"].keys() for r in runs)))
    summary = {}
    for n in names:
        vals = [r["metrics"][n] for r in runs if n in r["metrics"]]
        summary[n] = spread(vals)
    ok = all(r["exit"] == 0 and r["result"]["failed"] == 0 for r in runs)
    print("\n%-34s %16s %9s %9s" % ("end-to-end metric", "median", "spread", "bound/3"))
    for n, b in bounds.items():
        med, sp = summary.get(n, (0.0, 0.0))
        flag = "" if n == "setup_s" or sp <= b / 3 else "  <-- above a third of its bound"
        if n != "setup_s" and sp > b:
            ok = False
        print("%-34s %16.6g %8.2f%% %8.2f%%%s" % (n, med, 100 * sp, 100 * b / 3, flag))
    print("\n%-34s %9s   %-22s %9s" % ("calibrated", "spread", "raw counterpart", "spread"))
    for a, b in PAIRS:
        if a in summary and b in summary:
            print("%-34s %8.2f%%   %-22s %8.2f%%" % (a, 100 * summary[a][1], b, 100 * summary[b][1]))
    print("\n%-34s %16s %9s" % ("every metric", "median", "spread"))
    for n in names:
        print("%-34s %16.6g %8.2f%%" % (n, summary[n][0], 100 * summary[n][1]))
    if args.json:
        doc = {"workload": args.workload, "seconds": seconds, "runs": runs,
               "summary": {n: {"median": m, "spread": s} for n, (m, s) in summary.items()}}
        with open(args.json, "a") as f:
            f.write(json.dumps(doc) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
