"""Command-line front end.

Three subcommands:

* ``analyze``  -- ingest a CSV panel or generate a benchmark preset, run
  the causal-graph reconstruction, and emit JSON / DOT / a CSV flow
  matrix, plus a human-readable summary on stdout.
* ``generate`` -- write a benchmark panel to CSV.
* ``sweep``    -- run the Rossler coupling-strength sweep and write the
  plot-ready flow table.

Exit status is 0 on success; each error class maps to a distinct
nonzero code (see errors.py).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from .errors import InfoflowError, ParseError
from .estimator import DEFAULT_ALPHA, estimate_flows
from .graph import build_graph, to_dot, to_json
from .simgen import SWEEP_PAIRS, RosslerSpec, preset_panel, sweep_epsilon
from .stats import TimeSeriesPanel


def read_csv_panel(path: str, dt: float = 1.0) -> TimeSeriesPanel:
    """Read a panel from CSV: one header row, first column a time index.

    The time index column is ignored for estimation (series must be
    equi-spaced; dt comes from the caller).  Column order defines the
    variable indices.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file") from None
            if len(header) < 3:
                raise ParseError(
                    f"{path}: need a time column plus at least 2 variable columns, "
                    f"got {len(header)} columns"
                )
            labels = tuple(name.strip() for name in header[1:])
            rows = []
            for lineno, cells in enumerate(reader, start=2):
                if not cells:
                    continue
                if len(cells) != len(header):
                    raise ParseError(
                        f"{path}: row {lineno} has {len(cells)} cells, "
                        f"expected {len(header)}"
                    )
                values = []
                for col, cell in enumerate(cells[1:], start=2):
                    try:
                        value = float(cell)
                    except ValueError:
                        raise ParseError(
                            f"{path}: row {lineno}, column {col}: "
                            f"non-numeric cell {cell.strip()!r}"
                        ) from None
                    if not math.isfinite(value):
                        raise ParseError(
                            f"{path}: row {lineno}, column {col}: non-finite value"
                        )
                    values.append(value)
                rows.append(values)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from exc
    if not rows:
        raise ParseError(f"{path}: no data rows")
    data = np.array(rows).T
    try:
        return TimeSeriesPanel(data=data, dt=dt, labels=labels)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def write_csv_panel(panel: TimeSeriesPanel, fh) -> None:
    """Write a panel as CSV with a time-index column and label header."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["t"] + list(panel.labels))
    for n in range(panel.n):
        writer.writerow([n] + [repr(float(v)) for v in panel.data[:, n]])


def _matrix_csv(matrix) -> str:
    """Flow matrix as CSV text: entry (row, col) is T[row -> col]."""
    d = matrix.d
    lines = ["source," + ",".join(f"to_{i + 1}" for i in range(d))]
    for j, row in enumerate(matrix.T.tolist()):
        cells = ("" if j == i else repr(t) for i, t in enumerate(row))
        lines.append(f"from_{j + 1}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def _summary(matrix, panel: TimeSeriesPanel) -> str:
    """Human-readable tables: flows with significance stars, node terms, tau."""
    d = matrix.d
    labels = panel.labels
    width = max(10, max(len(s) for s in labels) + 1)

    def fmt(label):
        return f"{label:>{width}}"

    out = []
    out.append(f"Information flow T[row -> col] (nats per unit time), "
               f"* = significant at {matrix.alpha:.0%}:")
    out.append(" " * width + "".join(fmt(s) for s in labels))
    for j in range(d):
        cells = []
        for i in range(d):
            if j == i:
                cells.append(fmt("."))
            else:
                star = "*" if matrix.significant[j, i] else " "
                cells.append(f"{matrix.T[j, i]:>{width - 1}.3f}{star}")
        out.append(fmt(labels[j]) + "".join(cells))
    out.append("")
    out.append("Node diagnostics:")
    out.append(fmt("node") + fmt("dH*/dt") + fmt("stderr") + fmt("self-loop")
               + fmt("noise"))
    for i in range(d):
        out.append(
            fmt(labels[i])
            + f"{matrix.self[i]:>{width}.3f}"
            + f"{matrix.self_stderr[i]:>{width}.4f}"
            + fmt("yes" if matrix.self_loop[i] else "no")
            + f"{matrix.noise_rate[i]:>{width}.3f}"
        )
    out.append("")
    out.append("Normalized flows tau[row -> col] (% of target's entropy budget):")
    out.append(" " * width + "".join(fmt(s) for s in labels))
    for j in range(d):
        cells = []
        for i in range(d):
            if j == i:
                cells.append(fmt("."))
            else:
                cells.append(f"{100.0 * matrix.tau[j, i]:>{width - 1}.1f}%")
        out.append(fmt(labels[j]) + "".join(cells))
    return "\n".join(out) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path and out_path != "-":
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    if args.csv:
        panel = read_csv_panel(args.csv, dt=args.dt)
        k = args.k if args.k is not None else 1
    else:
        panel, preset_k = preset_panel(args.preset, seed=args.seed,
                                       epsilon=args.epsilon)
        k = args.k if args.k is not None else preset_k
    if k not in (1, 2) and not args.allow_any_k:
        raise ValueError(f"k={k} is outside {{1, 2}}; pass --allow-any-k to force")
    matrix = estimate_flows(panel, k=k, alpha=args.alpha, ridge=args.ridge)
    sys.stdout.write(_summary(matrix, panel))
    graph = build_graph(matrix, panel)
    if args.format == "json":
        artifact = to_json(graph)
    elif args.format == "dot":
        artifact = to_dot(graph)
    else:
        artifact = _matrix_csv(matrix)
    if args.out:
        _emit(artifact, args.out)
    else:
        sys.stdout.write("\n" + artifact)
    return 0


def cmd_generate(args) -> int:
    panel, _ = preset_panel(args.preset, seed=args.seed, epsilon=args.epsilon)
    if args.out and args.out != "-":
        with open(args.out, "w") as fh:
            write_csv_panel(panel, fh)
    else:
        write_csv_panel(panel, sys.stdout)
    return 0


def cmd_sweep(args) -> int:
    if args.steps < 1:
        raise ValueError("need at least one grid point")
    if args.steps == 1:
        grid = [args.eps_from]
    else:
        grid = list(np.linspace(args.eps_from, args.eps_to, args.steps))
    points = sweep_epsilon(RosslerSpec(seed=args.seed), grid, alpha=args.alpha)
    keys = [f"{src}->{dst}" for src, dst, _, _ in SWEEP_PAIRS]
    lines = ["epsilon,"
             + ",".join(f"T_{k.replace('->', '_to_')}" for k in keys) + ","
             + ",".join(f"sig_{k.replace('->', '_to_')}" for k in keys)]
    for pt in points:
        lines.append(
            repr(pt.epsilon) + ","
            + ",".join(repr(pt.abs_T[k]) for k in keys) + ","
            + ",".join(str(int(pt.significant[k])) for k in keys)
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infoflow",
        description="Information-flow causality analysis for multivariate time series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="reconstruct a causal graph")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--csv", help="input panel CSV (time column + variables)")
    src.add_argument("--preset", help="built-in benchmark preset name")
    p.add_argument("--dt", type=float, default=1.0, help="sample spacing for CSV input")
    p.add_argument("--k", type=int, default=None, help="differencing stride (1 or 2)")
    p.add_argument("--allow-any-k", action="store_true",
                   help="permit strides outside {1, 2}")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                   help="confidence level for significance (default 0.90)")
    p.add_argument("--format", choices=("json", "dot", "csv-matrix"), default="json")
    p.add_argument("--out", help="artifact output path (default: stdout)")
    p.add_argument("--seed", type=int, default=0, help="seed for preset generation")
    p.add_argument("--ridge", type=float, default=0.0,
                   help="ridge added to the covariance diagonal (default 0)")
    p.add_argument("--epsilon", type=float, default=None,
                   help="coupling strength (rossler preset only)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("generate", help="write a benchmark panel to CSV")
    p.add_argument("preset", help="preset name")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.add_argument("--epsilon", type=float, default=None,
                   help="coupling strength (rossler preset only)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sweep", help="Rossler coupling-strength sweep table")
    p.add_argument("--eps-from", type=float, required=True)
    p.add_argument("--eps-to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfoflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
