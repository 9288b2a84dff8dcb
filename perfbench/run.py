"""infoflow benchmark: three workloads, end-to-end metrics and a traced run.

Run from the root of a checkout (the program is imported from ``src``):

    python3 perfbench/run.py --workload calib-var6 --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload cli-roundtrip --seed 0 --seconds 50 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
gives the per-layer numbers.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
the run fingerprint and a readable report.  The exit status is 0 only when
every output check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("calib-var6", "wide-fit", "cli-roundtrip")
# Set-up is timed in this many fresh processes before the measured one and
# as many after it, plus once by the measured process itself; setup_s is
# the median.  Probes on both sides sample more of the machine's load.
SETUP_PROBES = 3
WORKER_SLACK_S = 120

# End-to-end metrics with a bound in BENCHMARK.json.  Op time is gated at
# its best (minimum) op: on a shared machine, neighbours slow the CPU by up
# to 50% in spells of tens of milliseconds to seconds, and how much of a
# run they cover drifts from minute to minute.  Between runs of the same
# code p50 moves by 15-30% and p10 by up to 20%, while the best 26 ms
# calib-var6 op stays within 2-5%.  A 2.5 s cli-roundtrip op never fits in
# one quiet spell, so its best op still moves by ~15%; the bound on
# op_ms_min is set for it.  p10, p50, p90 and throughput are printed.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms_min": "ms",
}
PER_LAYER = {  # reported on every workload
    "simgen.simulate_var_ms": "ms",
    "estimator.estimate_flows_ms": "ms",
    "estimator.effective_gflops": "GFLOP/s",
    "estimator.flows_tested": "count",
    "estimator.true_edge_recall": "ratio",
    "estimator.null_fp_rate": "ratio",
    "graph.edges": "count",
    "graph.build_graph_ms": "ms",
    "graph.to_json_ms": "ms",
    "graph.json_bytes": "bytes",
    "cli.interpreter_floor_s": "s",
    "cli.import_numpy_s": "s",
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.unattributed_s": "s",
    "trace_overhead_frac": "ratio",
}
CLI_ONLY_LAYER = {  # only cli-roundtrip runs these layers; reported there
    "simgen.simulate_rossler_s": "s",
    "graph.to_dot_ms": "ms",
    "cli.write_csv_panel_s": "s",
    "cli.read_csv_panel_s": "s",
    "cli.csv_bytes": "bytes",
}
CLI_COMMANDS = {"generate": "generate_s", "analyze_csv": "analyze_csv_s",
                "analyze_preset": "analyze_preset_s"}


def machine_speed_ms() -> list:
    """[best, median] of ten timings of a fixed pure-Python loop: how fast
    the machine ran just then, so that runs slowed by neighbours show."""
    times = []
    for _ in range(10):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append((time.perf_counter() - t0) * 1e3)
    return [min(times), statistics.median(times)]


def fingerprint(args) -> dict:
    sha = dirty = None
    if os.path.isdir(".git"):
        def git(*cmd):
            return subprocess.run(["git", *cmd], capture_output=True, text=True).stdout.strip()
        sha = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "git_dirty": dirty,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "loadavg_start": os.getloadavg(),
        "machine_ms_start": machine_speed_ms(),
    }


def spawn_worker(args, setup_only: bool):
    """Start a worker; return (process, seconds from spawn to READY)."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src") + (os.pathsep + path if path else ""))
    # Imports read cached bytecode, as they do for an installed package.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker set-up failed (exit {proc.returncode})")
    return proc, ready


def finish(proc, timeout):
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker ran over {timeout} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 \
        else values[0]


def end_to_end(result, setups) -> tuple:
    """(gated metrics, report lines) from a worker's raw records."""
    records = result["records"]
    # Failed ops count in fail_frac, not in the timings, where an early
    # exit would read as a fast op.
    ops = [r for r in records if not r["failed"]] or records
    secs = [r["s"] for r in ops]
    n = len(secs)
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "op_ms_min": min(secs) * 1e3,
    }
    lines = [
        ("setup_s", metrics["setup_s"], "s", "median of " + ", ".join(f"{v:.3f}" for v in setups)),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", ""),
        ("op_ms_min", metrics["op_ms_min"], "ms", f"n={n}"),
        ("op_ms_p10", percentile(secs, 10) * 1e3, "ms", f"n={n}"),
        ("op_ms_p50", statistics.median(secs) * 1e3, "ms", f"n={n}"),
        ("op_ms_p90", percentile(secs, 90) * 1e3, "ms", f"n={n}"),
        ("ops_per_s", n / sum(secs), "1/s", ""),
        ("fail_frac", sum(r["failed"] for r in records) / len(records), "ratio",
         f"{len(records)} attempted"),
    ]
    for cmd, name in CLI_COMMANDS.items():
        values = [r[cmd] for r in ops if cmd in r]
        if values:
            lines.append((name, statistics.median(values), "s", f"p50, n={len(values)}"))
    return metrics, lines


def quality_metrics(quality) -> dict:
    """Counts over the workload's fixed quality set (exact for a seed)."""
    def share(part, whole):
        return part / whole if whole else 0.0

    known = [q for q in quality if "true" in q]
    sizes = [q["json_bytes"] for q in quality if "json_bytes" in q]
    return {
        "estimator.flows_tested": sum(q["flows"] for q in quality),
        "graph.edges": sum(q["edges"] for q in quality),
        "graph.json_bytes": share(sum(sizes), len(sizes)),
        "estimator.true_edge_recall": share(sum(q["hits"] for q in known),
                                            sum(q["true"] for q in known)),
        "estimator.null_fp_rate": share(sum(q["false"] for q in known),
                                        sum(q["nulls"] for q in known)),
        "borderline": sum(q["borderline"] for q in quality),
        **{"cli.csv_bytes": q["csv_bytes"] for q in quality if "csv_bytes" in q},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join("src", "infoflow", "__init__.py")):
        print("run.py: no src/infoflow here; run from the root of an infoflow checkout",
              file=sys.stderr)
        return 2

    fp = fingerprint(args)
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setups = [probe_setup(args) for _ in range(probes)]
        proc, ready = spawn_worker(args, setup_only=False)
        setups.append(ready)
        result = finish(proc, args.seconds + WORKER_SLACK_S)
        setups += [probe_setup(args) for _ in range(probes)]
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    fp.update(result["versions"], loadavg_end=os.getloadavg(),
              machine_ms_end=machine_speed_ms())
    print("fingerprint " + json.dumps(fp))

    records = result["records"]
    failed = sum(r["failed"] for r in records)
    for message in result["failures"][:10]:
        print(f"FAILED {message}")
    quality = quality_metrics(result["quality"])
    print(f"oracle verdicts within rounding of the threshold: {quality.pop('borderline')}")
    if args.trace:
        layer = dict(result["per_layer"], **quality)
        units = dict(PER_LAYER, **CLI_ONLY_LAYER)
        for name in units:
            if name in layer:
                print(f"{name:32s} {layer[name]:14.6g} {units[name]}")
        acc = result["accounting"]
        total = sum(v for k, v in acc.items() if k != "traced_op_mean")
        print(f"accounting: layer self times + unattributed = {total * 1e3:.3f} ms "
              f"of {acc['traced_op_mean'] * 1e3:.3f} ms mean traced op")
        for name, value in acc.items():
            if name != "traced_op_mean" and value:
                print(f"  {name:30s} {value * 1e3:12.3f} ms/op")
        print(f"trace written to {result['trace_file']}")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        e2e, lines = end_to_end(result, setups)
        for name, value, unit, note in lines:
            print(f"{name:18s} {value:14.6g} {unit:6s} {note}")
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def probe_setup(args) -> float:
    """Time one set-up in a fresh worker that exits right after it."""
    proc, ready = spawn_worker(args, setup_only=True)
    proc.stdout.close()
    if proc.wait(timeout=WORKER_SLACK_S) != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return ready


if __name__ == "__main__":
    sys.exit(main())
