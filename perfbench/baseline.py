"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --seeds 10 --seconds 50 --out perfbench/_out/bench.json

For every workload, runs ``run.py`` untraced once per seed (seeds 1..N)
and traced once (seed 1), and writes per metric the values, the median,
the quartiles and the spread (quartile distance over the median), plus
each run's fingerprint line.  Compare two such files to judge a change.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import WORKLOADS


def run_once(workload, seed, seconds, trace) -> tuple:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                         f"{proc.stdout}{proc.stderr}")
    fingerprint = next(json.loads(l.split(" ", 1)[1]) for l in lines
                       if l.startswith("fingerprint "))
    return json.loads(lines[-1]), fingerprint


def summarise(values) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    report = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in range(1, args.seeds + 1)]
        traced, traced_fp = run_once(workload, 1, args.seconds, 1)
        metrics = {name: summarise([r["metrics"][name]["value"] for r, _ in runs])
                   for name in runs[0][0]["metrics"]}
        report[workload] = {
            "end_to_end": metrics,
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
            "attempted": [r["attempted"] for r, _ in runs],
            "failed": [r["failed"] for r, _ in runs],
            "fingerprints": [fp for _, fp in runs] + [traced_fp],
        }
        for name, m in metrics.items():
            print(f"{workload:14s} {name:12s} median {m['median']:12.6g} "
                  f"spread {m['spread']:.4f}", flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
