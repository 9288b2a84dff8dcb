"""One benchmark process: set up a workload, run its ops, check every output.

Usage (from the checkout root, with ``src`` on PYTHONPATH, which the CLI
processes it starts inherit):

    python perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Prints ``READY`` once set-up is done (the parent times set-up up to that
line), then, unless ``--setup-only``, runs ops in a closed loop for S
seconds and prints one JSON line with the raw timings, failures, quality
counts and, with ``--trace 1``, the per-layer numbers.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import oracle
from spans import Tracer, self_times

ALPHA = 0.90
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "_out")
SRC = os.path.abspath("src")
CLI_TIMEOUT_S = 120

# Span name -> (per-layer metric, scale from seconds).
LAYER_METRICS = {
    "simgen.simulate_var": ("simgen.simulate_var_ms", 1e3),
    "simgen.simulate_rossler": ("simgen.simulate_rossler_s", 1.0),
    "estimator.estimate_flows": ("estimator.estimate_flows_ms", 1e3),
    "graph.build_graph": ("graph.build_graph_ms", 1e3),
    "graph.to_json": ("graph.to_json_ms", 1e3),
    "graph.to_dot": ("graph.to_dot_ms", 1e3),
    "cli.read_csv_panel": ("cli.read_csv_panel_s", 1.0),
    "cli.write_csv_panel": ("cli.write_csv_panel_s", 1.0),
}
# Spans that are layers but have no metric of their own: process start-up
# of a CLI command, split at the first clock reading in tracedcli.py.
STARTUP_SPANS = ("cli.interpreter", "cli.import")
LAYER_SPANS = set(LAYER_METRICS) | set(STARTUP_SPANS)


def var6_truth(api) -> set:
    return {(s - 1, t - 1) for s, t in api.VAR6_EDGES}


class Workload:
    """One workload: set-up in the constructor, then ``op`` and ``check``.

    ``check`` returns (failure messages, quality counts); quality counts of
    the first ``quality_ops`` ops form the workload's fixed quality set.
    """

    quality_ops = 1
    rusage = resource.RUSAGE_SELF  # whose peak RSS is the workload's

    def op_times(self, out) -> dict:
        """Named parts of one op's time, for the report."""
        return {}

    def close(self):
        pass


class CalibVar6(Workload):
    """Monte Carlo replicate loop: var6-b1 panel -> reconstruct -> to_json."""

    quality_ops = 20

    def __init__(self, api, seed):
        self.api = api
        self.base = seed * 1_000_000
        self.truth = var6_truth(api)

    def op(self, i, tracer):
        panel, k = self.api.preset_panel("var6-b1", seed=self.base + i)
        graph = self.api.reconstruct(panel, alpha=ALPHA, k=k)
        return panel, k, graph, self.api.to_json(graph)

    def check(self, i, out):
        panel, k, graph, text = out
        fails, quality = oracle.check_graph(graph, panel.data, panel.dt, k, ALPHA, self.truth)
        fails += oracle.check_roundtrip(self.api, graph, text)
        quality["json_bytes"] = len(text.encode())
        return fails, [quality]


def sparse_stable_var(rng, d, per_row=3, radius=0.8):
    """Random VAR(1) matrix: a diagonal plus ``per_row`` off-diagonal terms
    per row, scaled so the spectral radius is at most ``radius``."""
    A = np.diag(rng.uniform(0.2, 0.5, d))
    for i in range(d):
        cols = rng.choice(np.delete(np.arange(d), i), per_row, replace=False)
        A[i, cols] = rng.choice((-1.0, 1.0), per_row) * rng.uniform(0.2, 0.5, per_row)
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    return A * min(1.0, radius / rho)


class WideFit(Workload):
    """Single fits of wide panels: reconstruct -> to_json on d=64, N=5000."""

    d, n, panels = 64, 5000, 4
    quality_ops = panels

    def __init__(self, api, seed):
        self.api = api
        rng = np.random.default_rng(seed)
        self.inputs = []
        for _ in range(self.panels):
            A = sparse_stable_var(rng, self.d)
            spec = api.VarSpec(A=A, alpha_vec=np.zeros(self.d), b_diag=np.ones(self.d),
                               N=self.n, seed=int(rng.integers(2**31)))
            truth = {(int(j), int(i)) for i, j in zip(*np.nonzero(A)) if i != j}
            self.inputs.append((api.simulate_var(spec), truth))

    def op(self, i, tracer):
        panel, _ = self.inputs[i % self.panels]
        graph = self.api.reconstruct(panel, alpha=ALPHA)
        return graph, self.api.to_json(graph)

    def check(self, i, out):
        graph, text = out
        panel, truth = self.inputs[i % self.panels]
        fails, quality = oracle.check_graph(graph, panel.data, panel.dt, 1, ALPHA, truth)
        fails += oracle.check_roundtrip(self.api, graph, text)
        quality["json_bytes"] = len(text.encode())
        return fails, [quality]


class CliRoundtrip(Workload):
    """The shell user's view: fresh ``python -m infoflow.cli`` processes."""

    rusage = resource.RUSAGE_CHILDREN
    epsilon = 0.1
    dt = 0.001

    def __init__(self, api, seed):
        self.api = api
        self.cli = importlib.import_module("infoflow.cli")
        self.seed = seed
        self.dir = os.path.join(OUT, f"cli-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.files = {name: os.path.join(self.dir, name)
                      for name in ("rossler.csv", "graph.json", "graph.dot")}
        s = str(seed)
        self.commands = (
            ("generate", ["generate", "rossler", "--epsilon", str(self.epsilon), "--seed", s,
                          "--out", self.files["rossler.csv"]]),
            ("analyze_csv", ["analyze", "--csv", self.files["rossler.csv"], "--dt", str(self.dt),
                             "--k", "2", "--format", "json", "--out", self.files["graph.json"]]),
            ("analyze_preset", ["analyze", "--preset", "var6-b100-short", "--seed", s,
                                "--format", "dot", "--out", self.files["graph.dot"]]),
        )
        self.validated = None

    def close(self):
        shutil.rmtree(self.dir)

    def op_times(self, out) -> dict:
        return out[0]

    def op(self, i, tracer):
        times, errors = {}, []
        spans_path = os.path.join(self.dir, "spans.json")
        for name, args in self.commands:
            if tracer is None:
                argv = [sys.executable, "-m", "infoflow.cli"] + args
            else:
                argv = [sys.executable, os.path.join(HERE, "tracedcli.py"), spans_path] + args
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(argv, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                errors.append(f"{name}: timed out after {CLI_TIMEOUT_S} s")
                continue
            t1 = time.perf_counter()
            times[name] = t1 - t0
            if proc.returncode != 0:
                errors.append(f"{name}: exit {proc.returncode}: "
                              f"{proc.stderr.decode(errors='replace').strip()[-300:]}")
            elif tracer is not None:
                cmd = tracer.add(f"cli.{name}", t0, t1)
                with open(spans_path) as fh:
                    child = json.load(fh)
                tracer.add("cli.interpreter", t0, child["t0"], parent=cmd)
                tracer.merge(child["spans"], parent=cmd)
        return times, errors

    def check(self, i, out):
        times, errors = out
        if errors:
            return errors, []
        blobs = {}
        for name, path in self.files.items():
            with open(path, "rb") as fh:
                blobs[name] = fh.read()
        if self.validated is not None:
            return [f"{name}: differs from the first validated iteration"
                    for name in blobs if blobs[name] != self.validated[name]], []
        fails, quality = self._validate(blobs)
        if not fails:
            self.validated = blobs
        return fails, quality

    def _validate(self, blobs):
        """Full checks of one iteration's three outputs."""
        api, fails = self.api, []
        # generate: the CSV parses back bit-for-bit to the in-process panel.
        ref = api.simulate_rossler(api.RosslerSpec(seed=self.seed, epsilon=self.epsilon))
        lines = blobs["rossler.csv"].split(b"\n", 1)
        if lines[0].decode() != ",".join(("t",) + tuple(ref.labels)):
            fails.append(f"rossler.csv: header {lines[0][:80]!r}")
        table = np.loadtxt(self.files["rossler.csv"], delimiter=",", skiprows=1, ndmin=2)
        if table.shape != (ref.n, ref.d + 1) or not np.array_equal(table[:, 0], np.arange(ref.n)):
            fails.append(f"rossler.csv: shape {table.shape} or time column is wrong")
        elif not np.array_equal(np.ascontiguousarray(table[:, 1:].T).view(np.uint64),
                                np.ascontiguousarray(ref.data).view(np.uint64)):
            fails.append("rossler.csv: values are not bit-for-bit the in-process panel")
        # analyze --csv: equals the in-process pipeline and the oracle.
        panel = self.cli.read_csv_panel(self.files["rossler.csv"], dt=self.dt)
        graph = api.reconstruct(panel, k=2)
        text = blobs["graph.json"].decode()
        if api.from_json(text) != graph:
            fails.append("graph.json: differs from in-process reconstruct(read_csv_panel(...))")
        fails += oracle.check_roundtrip(api, graph, api.to_json(graph))
        more, rossler_q = oracle.check_graph(graph, panel.data, self.dt, 2, ALPHA)
        fails += more
        rossler_q.update(json_bytes=len(blobs["graph.json"]),
                         csv_bytes=len(blobs["rossler.csv"]))
        # analyze --preset --format dot: equals the in-process pipeline and the oracle.
        panel, k = api.preset_panel("var6-b100-short", seed=self.seed)
        graph = api.reconstruct(panel, k=k)
        if blobs["graph.dot"].decode() != api.to_dot(graph):
            fails.append("graph.dot: differs from in-process to_dot(reconstruct(...))")
        more, var6_q = oracle.check_graph(graph, panel.data, panel.dt, k, ALPHA, var6_truth(api))
        fails += more
        return fails, [rossler_q, var6_q]


WORKLOADS = {"calib-var6": CalibVar6, "wide-fit": WideFit, "cli-roundtrip": CliRoundtrip}


def blas_info() -> dict:
    """BLAS library name and thread count as numpy sees them."""
    import ctypes
    import glob

    info = {"blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
            "blas_threads": None}
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                info["blas_threads"] = fn()
                return info
    return info


def versions() -> dict:
    import scipy

    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, **blas_info()}


def run_loop(wl, seconds, tracer):
    """Closed loop, one caller: each op starts when the previous check is done."""
    records, failures, quality = [], [], []
    deadline = time.perf_counter() + seconds
    # The quality set always runs, and a traced run needs a traced op and
    # an untraced one.
    min_ops = max(wl.quality_ops, 2 if tracer is not None else 1)
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.op = i
            tracer.install()
            idx = tracer.begin("op")
        t0 = time.perf_counter()
        try:
            out, error = wl.op(i, tracer if traced else None), None
        except Exception as exc:  # any failure of the program counts against the op
            out, error = None, f"op {i}: {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if traced:
            tracer.end(idx)
            tracer.uninstall()
        if error is not None:
            fails, q = [error], []
        else:
            try:
                fails, q = wl.check(i, out)
            except Exception as exc:
                fails, q = [f"op {i}: check raised {type(exc).__name__}: {exc}"], []
        if i < wl.quality_ops:
            quality += q
        failures += [f"op {i}: {f}" for f in fails]
        times = wl.op_times(out) if error is None else {}
        records.append({"traced": traced, "s": t1 - t0, "failed": bool(fails), **times})
        i += 1
    return records, failures, quality


def import_breakdown(repeats=3) -> dict:
    """Interpreter floor and ``-X importtime`` split of ``import infoflow``."""
    floor = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        floor.append(time.perf_counter() - t0)
    parts = {"cli.import_s": [], "cli.import_numpy_s": [], "cli.import_scipy_s": []}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import infoflow"],
                              stderr=subprocess.PIPE, check=True)
        tops = import_tops(proc.stderr.decode())
        parts["cli.import_s"].append(tops.get("infoflow", 0.0))
        parts["cli.import_numpy_s"].append(tops.get("numpy", 0.0))
        parts["cli.import_scipy_s"].append(tops.get("scipy", 0.0))
    out = {name: statistics.median(v) for name, v in parts.items()}
    out["cli.interpreter_floor_s"] = statistics.median(floor)
    return out


def import_tops(text: str) -> dict:
    """Cumulative seconds per top-level package, counting each package's
    outermost import entries only (``-X importtime`` lists children first)."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, field = line.split("|")
        name = field.strip()
        rows.append(((len(field) - len(field.lstrip()) - 1) // 2, name, int(cumulative) * 1e-6))
    totals, stack = {}, []
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if not any(anc.split(".")[0] == top for _, anc in stack):
            totals[top] = totals.get(top, 0.0) + cumulative
        stack.append((depth, name))
    return totals


def layer_metrics(tracer, records) -> dict:
    """Per-layer numbers from the spans of traced ops (and of set-up)."""
    spans = tracer.spans
    selfs = self_times(spans)
    per_group, unattributed = {}, {}
    flops = flop_s = 0.0
    for span, dur in zip(spans, selfs):
        name, op, count = span[0], span[4], span[5]
        if name in LAYER_SPANS:
            key = (name, op)
            per_group[key] = per_group.get(key, 0.0) + dur
        else:
            unattributed[op] = unattributed.get(op, 0.0) + dur
        if name == "estimator.estimate_flows" and count:
            flops += count
            flop_s += dur
    out = {}
    for name, (metric, scale) in LAYER_METRICS.items():
        values = [v for (n, _), v in per_group.items() if n == name]
        if values:
            out[metric] = statistics.median(values) * scale
    out["estimator.effective_gflops"] = flops / flop_s / 1e9 if flop_s else 0.0
    ops = [op for op in unattributed if op != "setup"]
    out["cli.unattributed_s"] = statistics.median(unattributed[op] for op in ops)
    traced = [r["s"] for r in records if r["traced"]]
    plain = [r["s"] for r in records if not r["traced"]]
    out["trace_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    # Accounting: mean per traced op of each layer's self time, and the rest.
    n_ops = len(ops)
    account = {name: sum(v for (n, op), v in per_group.items() if n == name and op != "setup")
               / n_ops for name in sorted(LAYER_SPANS)}
    account["unattributed"] = sum(unattributed[op] for op in ops) / n_ops
    account["traced_op_mean"] = statistics.fmean(traced)
    return out, account


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    api = importlib.import_module("infoflow")
    if not os.path.abspath(api.__file__).startswith(SRC + os.sep):
        print(f"infoflow was imported from {api.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.op = "setup"
        tracer.install()
    wl = WORKLOADS[args.workload](api, args.seed)
    if tracer is not None:
        tracer.uninstall()
    print("READY", flush=True)
    try:
        if args.setup_only:
            return 0
        records, failures, quality = run_loop(wl, args.seconds, tracer)
    finally:
        wl.close()
    result = {
        "records": records,
        "failures": failures,
        "quality": quality,
        "peak_rss_mb": resource.getrusage(wl.rusage).ru_maxrss / 1024.0,
        "versions": versions(),
    }
    if tracer is not None:
        result["per_layer"], result["accounting"] = layer_metrics(tracer, records)
        result["per_layer"].update(import_breakdown())
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"spans": tracer.spans, "per_layer": result["per_layer"]}, fh)
        result["trace_file"] = os.path.relpath(path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
