"""Command-line front end.

Three subcommands:

* ``analyze``  -- ingest a CSV panel or generate a benchmark preset, run
  the causal-graph reconstruction, and emit JSON / DOT / a CSV flow
  matrix, plus a human-readable summary on stdout.
* ``generate`` -- write a benchmark panel to CSV.
* ``sweep``    -- run the Rossler coupling-strength sweep and write the
  plot-ready flow table.

Exit status is 0 on success and 1 when the reader closes stdout early.
A bad argument or input file, an unreadable input, an unwritable output or
stdout, or a lack of memory exits 2 (argparse usage errors, ValueError,
OSError, MemoryError); each estimation or simulation failure class has its
own code, 3 to 6 (see errors.py).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import sys
from array import array

import numpy as np

from .errors import InfoflowError
from .estimator import DEFAULT_ALPHA, estimate_flows
from .graph import build_graph, to_dot, to_json
from .simgen import ROSSLER_OSCILLATOR_ROWS, preset_panel
from .stats import TimeSeriesPanel, check_count, check_dt


def read_csv_panel(path: str, dt: float = 1.0) -> TimeSeriesPanel:
    """Read a panel from CSV: one header row, first column a time index.

    The time index column is ignored (series must be equi-spaced); dt comes
    from the caller and is checked before the file is opened.  Column order
    defines the variable indices.  The file must be UTF-8 text, every other
    cell one that ``float()`` reads as a finite number, and N >= d + 3.  A
    file that cannot be opened or read raises an OSError (the errno's
    subclass, such as FileNotFoundError) whose ``filename`` is the path, and
    one that fails a check a ValueError whose text starts with the path.

    The file is opened once and read in one pass, so the path may name a
    pipe.  Lines are split as latin-1 and each non-ASCII line is decoded
    as UTF-8; each record is then checked and cast in file order, so the
    first defect in the file is the one reported.
    """
    check_dt(dt)
    try:
        with open(path, newline="", encoding="latin-1") as fh:
            labels, data = _read_records(fh)
        return TimeSeriesPanel(data=data, dt=dt, labels=labels)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _utf8_lines(fh):
    """The lines of a latin-1 text file, each decoded as UTF-8.

    Latin-1 reads one character per byte, and no UTF-8 sequence holds a
    CR or LF byte: the lines and their offsets are those of the bytes.
    """
    start = 0  # file offset of the line
    for line in fh:
        size = len(line)
        if not line.isascii():
            try:
                line = line.encode("latin-1").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"not UTF-8 text (byte {start + exc.start})") from None
        yield line
        start += size


def _read_records(fh):
    """(labels, data) of a UTF-8 CSV panel; its first defect is a ValueError without the path."""
    reader = csv.reader(_utf8_lines(fh))
    lineno = 0  # the last record read: a csv.Error is in the next one
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError("empty file")
        lineno = 1
        if len(header) < 2:
            raise ValueError("need a time column plus at least 1 variable column")
        values = array("d")
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(header):
                raise ValueError(f"row {lineno} has {len(cells)} cells, expected {len(header)}")
            for col, cell in enumerate(cells[1:], start=2):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(f"row {lineno}, column {col}: "
                                     f"non-numeric cell {cell.strip()!r}") from None
                if not math.isfinite(value):
                    raise ValueError(f"row {lineno}, column {col}: non-finite value")
                values.append(value)
    except csv.Error as exc:
        raise ValueError(f"row {lineno + 1}: {exc}") from None
    labels = tuple(name.strip() for name in header[1:])
    return labels, np.frombuffer(values, dtype=np.float64).reshape(-1, len(labels)).T


def write_csv_panel(panel: TimeSeriesPanel, fh) -> None:
    """Write a panel as CSV with a time-index column and label header.

    Values are written as ``repr`` of the float, the shortest text that
    reads back to the same double.  ``read_csv_panel`` strips header cells
    and ends a line at a carriage return, which the csv module may leave
    unquoted; so a label with surrounding whitespace, or holding a ``\\r``,
    raises a ValueError before anything is written.
    """
    for label in panel.labels:
        if label.strip() != label:
            raise ValueError(f"label {label!r} would read back as {label.strip()!r}")
        if "\r" in label:
            raise ValueError(f"label {label!r} holds a carriage return")
    csv.writer(fh, lineterminator="\n").writerow(["t"] + list(panel.labels))
    for n, row in enumerate(panel.data.T):
        fh.write(f"{n},{','.join(map(repr, row.tolist()))}\n")


def _matrix_csv(graph) -> str:
    """Flow matrix as CSV text: entry (row, col) is T[row -> col]."""
    d = len(graph.flow_matrix)
    lines = ["source," + ",".join(f"to_{i + 1}" for i in range(d))]
    for j, row in enumerate(graph.flow_matrix):
        cells = ("" if t is None else repr(t) for t in row)
        lines.append(f"from_{j + 1}," + ",".join(cells))
    return "\n".join(lines) + "\n"


# Artifact writer per --format name, each looked up when called, so that a
# wrapper put over a module name (perfbench's tracer) is the one that runs.
FORMATS = {"json": lambda graph: to_json(graph), "dot": lambda graph: to_dot(graph),
           "csv-matrix": lambda graph: _matrix_csv(graph)}


def _summary(matrix, panel: TimeSeriesPanel) -> str:
    """Human-readable tables: flows with significance stars, node terms, tau."""
    d = matrix.d
    labels = panel.labels
    # a .3g float64 is at most 10 characters (-1.23e-308): a space still
    # precedes every cell, a starred one too
    width = max(12, max(len(s) for s in labels) + 1)

    def fmt(label):
        return f"{label:>{width}}"

    def table(cell):  # cell(j, i) formats entry j -> i
        out.append(" " * width + "".join(fmt(s) for s in labels))
        for j in range(d):
            out.append(fmt(labels[j]) + "".join(
                fmt(".") if j == i else cell(j, i) for i in range(d)))

    out = []
    out.append(f"Information flow T[row -> col] (nats per unit time), "
               f"* = significant at alpha={matrix.alpha!r}:")
    table(lambda j, i: f"{matrix.T[j, i]:>{width - 1}.3g}"
                       + ("*" if matrix.significant[j, i] else " "))
    out.append("")
    out.append("Node diagnostics:")
    out.append(fmt("node") + fmt("dH*/dt") + fmt("stderr") + fmt("self-loop")
               + fmt("noise"))
    for i in range(d):
        out.append(
            fmt(labels[i])
            + f"{matrix.T[i, i]:>{width}.3g}"
            + f"{matrix.stderr[i, i]:>{width}.3g}"
            + fmt("yes" if matrix.significant[i, i] else "no")
            + f"{matrix.noise_rate[i]:>{width}.3g}"
        )
    out.append("")
    out.append("Normalized flows tau[row -> col] (% of target's entropy budget):")
    table(lambda j, i: f"{100.0 * matrix.tau[j, i]:>{width - 1}.1f}%")
    return "\n".join(out) + "\n"


@contextlib.contextmanager
def _output(path: str | None):
    """The UTF-8 text file at an --out path, or stdout when the path is unset or "-".

    An absent or regular file is written whole or not at all: the text goes
    to a sibling ``<realpath>.<pid>.tmp``, which replaces the file once the
    body is done and is removed on any exception.  A replaced file gets a
    new inode and umask permissions.  Any other existing target (a FIFO, a
    device) is written in place.  An OSError while opening, writing or
    replacing the file is raised again with the path as its ``filename``.
    """
    if not path or path == "-":
        yield sys.stdout
        return
    try:
        if os.path.exists(path) and not os.path.isfile(path):
            with open(path, "w", encoding="utf-8") as fh:
                yield fh
            return
        target = os.path.realpath(path)
        tmp = f"{target}.{os.getpid()}.tmp"
        with open(tmp, "x", encoding="utf-8") as fh:
            try:
                yield fh
                fh.close()  # a failed flush shows here, before the old file goes
                os.replace(tmp, target)
            except BaseException:
                os.remove(tmp)
                raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc


def cmd_analyze(args) -> None:
    if args.csv:
        if args.seed is not None or args.epsilon is not None:
            raise ValueError("--seed and --epsilon apply to presets, not to --csv input")
        panel = read_csv_panel(args.csv, dt=1.0 if args.dt is None else args.dt)
        k = 1
    else:
        if args.dt is not None:
            raise ValueError("--dt applies to --csv input; a preset sets its own dt")
        panel, k = preset_panel(args.preset, seed=args.seed or 0, epsilon=args.epsilon)
    if args.k is not None:
        k = args.k
    matrix = estimate_flows(panel, k=k, alpha=args.alpha)
    sys.stdout.write(_summary(matrix, panel))
    artifact = FORMATS[args.format](build_graph(matrix, panel))
    with _output(args.out) as fh:
        if fh is sys.stdout:
            fh.write("\n")  # a blank line between the summary and the artifact
        fh.write(artifact)


def cmd_generate(args) -> None:
    panel, _ = preset_panel(args.preset, seed=args.seed, epsilon=args.epsilon)
    with _output(args.out) as fh:
        write_csv_panel(panel, fh)


# (source, target) pairs the epsilon sweep reports, as indices into
# ROSSLER_OSCILLATOR_ROWS: X->Y, Y->X, X->Z, Z->X, Y->Z, Z->Y.  Each epsilon
# fits all 9 state series, which keeps the slave equations linear in the
# regressors and lets the one-way coupling survive synchronization.
SWEEP_PAIRS = ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1))


def cmd_sweep(args) -> None:
    if not math.isfinite(args.eps_to - args.eps_from):
        raise ValueError(f"--eps-from, --eps-to and their difference must be finite, "
                         f"got {args.eps_from!r} and {args.eps_to!r}")
    steps = check_count("--steps", args.steps, 1)
    src, dst = np.take(ROSSLER_OSCILLATOR_ROWS, SWEEP_PAIRS).T  # panel rows of each pair
    names = [f"{'XYZ'[a]}_to_{'XYZ'[b]}" for a, b in SWEEP_PAIRS]
    lines = [",".join(["epsilon", *(f"T_{n}" for n in names), *(f"sig_{n}" for n in names)])]
    for eps in np.linspace(args.eps_from, args.eps_to, steps).tolist():
        panel, k = preset_panel("rossler", seed=args.seed, epsilon=eps)
        matrix = estimate_flows(panel, k=k, alpha=args.alpha)
        cells = [eps, *np.abs(matrix.T[src, dst]).tolist(),
                 *matrix.significant[src, dst].astype(int).tolist()]
        lines.append(",".join(map(repr, cells)))
    with _output(args.out) as fh:
        fh.write("\n".join(lines) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infoflow",
        description="Information-flow causality analysis for multivariate time series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="reconstruct a causal graph", description=(
        "Reconstruct a causal graph.  On the noise-free rossler preset its verdicts are not "
        "calibrated: at epsilon 0 (uncoupled), 69 of the 72 possible edges were written at "
        "seed 0, and all 72 at seeds 1 and 2, at alpha 0.90."))
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--csv", help="input panel CSV (time column + variables)")
    src.add_argument("--preset", help="built-in benchmark preset name")
    p.add_argument("--dt", type=float, help="sample spacing, --csv only (default 1)")
    p.add_argument("--k", type=int, help="differencing stride (default 1; 2 for rossler)")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                   help="confidence level for significance (default 0.90)")
    p.add_argument("--format", choices=FORMATS, default="json")
    p.add_argument("--out", help="artifact output path (default: stdout)")
    p.add_argument("--seed", type=int, help="seed for preset generation (default 0)")
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

    p = sub.add_parser("sweep", help="Rossler coupling-strength sweep table", description=(
        "Rossler coupling-strength sweep table.  Its verdicts are not calibrated: at epsilon 0 "
        "(uncoupled), 36 of 36 flows were significant over seeds 0-5 at alpha 0.90."))
    p.add_argument("--eps-from", type=float, required=True)
    p.add_argument("--eps-to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return 0
    except (InfoflowError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    except OSError as exc:
        if exc.filename is not None:  # read_csv_panel and _output name their file
            print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
            return 2
        # A failed write to stdout.  Point stdout at devnull so that the flush
        # at exit cannot fail again (see the SIGPIPE note in the signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # the reader closed stdout
            return 1
        print(f"error: <stdout>: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
