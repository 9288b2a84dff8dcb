"""Command-line front end.

Three subcommands:

* ``analyze``  -- ingest a CSV panel or generate a benchmark preset, run
  the causal-graph reconstruction, and emit JSON / DOT / a CSV flow
  matrix, plus a human-readable summary on stdout.
* ``generate`` -- write a benchmark panel to CSV.
* ``sweep``    -- run the Rossler coupling-strength sweep and write the
  plot-ready flow table.

Exit status is 0 on success and 1 when the reader closes stdout early;
each error class maps to a distinct nonzero code (see errors.py).
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import csv
import itertools
import math
import os
import sys
from array import array

import numpy as np

from .errors import InfoflowError, OutputError, ParseError
from .estimator import DEFAULT_ALPHA, estimate_flows
from .graph import build_graph, to_dot, to_json
from .simgen import SWEEP_PAIRS, RosslerSpec, preset_panel, sweep_epsilon
from .stats import TimeSeriesPanel


# Records per block, read or written: bounds the Python objects alive at once.
BLOCK_ROWS = 1024
# Bytes per chunk of the UTF-8 check.
UTF8_CHUNK_BYTES = 1 << 16


def read_csv_panel(path: str, dt: float = 1.0) -> TimeSeriesPanel:
    """Read a panel from CSV: one header row, first column a time index.

    The time index column is ignored for estimation (series must be
    equi-spaced; dt comes from the caller).  Column order defines the
    variable indices.  The file must be UTF-8 text, and every other cell
    must be one that ``float()`` reads as a finite number.

    Records are read in one pass, BLOCK_ROWS at a time, and the value
    cells of each block are cast to float64 at once.
    """
    try:
        _check_utf8(path)
        labels, data = _read_records(path)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from exc
    try:
        return TimeSeriesPanel(data=data, dt=dt, labels=labels)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _check_utf8(path: str) -> None:
    """Raise ParseError naming the file offset of the first byte that is not UTF-8.

    The file is decoded in UTF8_CHUNK_BYTES chunks and the text discarded.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset = 0  # file offset of the next chunk
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(UTF8_CHUNK_BYTES)
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                # exc.start counts from the bytes the decoder held back
                # from the chunks before this one.
                held = len(decoder.getstate()[0])
                raise ParseError(
                    f"{path}: not UTF-8 text (byte {offset - held + exc.start})"
                ) from None
            if not chunk:
                return
            offset += len(chunk)


def _read_records(path: str):
    """(labels, data) of a UTF-8 CSV panel, raising ParseError at its first defect."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        except csv.Error as exc:
            raise ParseError(f"{path}: row 1: {exc}") from None
        if len(header) < 3:
            raise ParseError(
                f"{path}: need a time column plus at least 2 variable columns, "
                f"got {len(header)} columns"
            )
        d = len(header) - 1
        values = array("d")
        for first in itertools.count(2, BLOCK_ROWS):
            records, error = [], None
            try:
                records.extend(itertools.islice(reader, BLOCK_ROWS))
            except csv.Error as exc:  # raised once the records before it pass
                error = ParseError(f"{path}: row {first + len(records)}: {exc}")
            values.frombytes(_block_values(path, records, first, d))
            if error is not None:
                raise error
            if len(records) < BLOCK_ROWS:
                break
    if not values:
        raise ParseError(f"{path}: no data rows")
    labels = tuple(name.strip() for name in header[1:])
    return labels, np.frombuffer(values, dtype=np.float64).reshape(-1, d).T


def _block_values(path: str, records, first: int, d: int) -> bytes:
    """The d value cells of each non-blank record as float64 bytes, row after row.

    ``first`` is the record number of ``records[0]``.  A block that does
    not cast to a finite (rows, d) array is walked record by record, and
    the ParseError names its first bad record.
    """
    rows = [cells[1:] for cells in records if cells]
    try:
        block = np.array(rows, dtype=float)
    except ValueError:
        block = None
    if block is not None and block.shape == (len(rows), d) and np.isfinite(block).all():
        return block.tobytes()
    checked = []
    for lineno, cells in enumerate(records, start=first):
        if not cells:
            continue
        if len(cells) != d + 1:
            raise ParseError(
                f"{path}: row {lineno} has {len(cells)} cells, expected {d + 1}"
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
        checked.append(values)
    return np.array(checked).tobytes()


def write_csv_panel(panel: TimeSeriesPanel, fh) -> None:
    """Write a panel as CSV with a time-index column and label header.

    Values are written as ``repr`` of the float, the shortest text that
    reads back to the same double.
    """
    csv.writer(fh, lineterminator="\n").writerow(["t"] + list(panel.labels))
    rows = panel.data.T
    for start in range(0, panel.n, BLOCK_ROWS):
        block = rows[start : start + BLOCK_ROWS].tolist()
        fh.write("".join(
            f"{n},{','.join(map(repr, row))}\n"
            for n, row in enumerate(block, start=start)
        ))


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
    width = max(10, max(len(s) for s in labels) + 1)

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
    table(lambda j, i: f"{matrix.T[j, i]:>{width - 1}.3f}"
                       + ("*" if matrix.significant[j, i] else " "))
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
    table(lambda j, i: f"{100.0 * matrix.tau[j, i]:>{width - 1}.1f}%")
    return "\n".join(out) + "\n"


@contextlib.contextmanager
def _output(path: str | None):
    """The text file at an --out path, or stdout when the path is unset or "-".

    An OSError while opening or writing the file becomes an OutputError.
    """
    if not path or path == "-":
        yield sys.stdout
        return
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        raise OutputError(f"{path}: {exc.strerror}") from exc


def cmd_analyze(args) -> int:
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
    return 0


def cmd_generate(args) -> int:
    panel, _ = preset_panel(args.preset, seed=args.seed, epsilon=args.epsilon)
    with _output(args.out) as fh:
        write_csv_panel(panel, fh)
    return 0


def cmd_sweep(args) -> int:
    # linspace(a, b, 1) would turn -0.0 into 0.0, and warn on a huge span
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
    with _output(args.out) as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def _checked(convert, ok, rule: str):
    """An argparse type: read the text with ``convert``, then require ``ok(value)``."""
    def check(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    check.__name__ = convert.__name__  # text convert rejects: "invalid int value: 'x'"
    return check


SEED = _checked(int, lambda v: v >= 0, "non-negative")
STEPS = _checked(int, lambda v: v >= 1, "at least 1")
FINITE = _checked(float, math.isfinite, "finite")


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
    p.add_argument("--dt", type=float, help="sample spacing, --csv only (default 1)")
    p.add_argument("--k", type=int, help="differencing stride (default 1; 2 for rossler)")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                   help="confidence level for significance (default 0.90)")
    p.add_argument("--format", choices=FORMATS, default="json")
    p.add_argument("--out", help="artifact output path (default: stdout)")
    p.add_argument("--seed", type=SEED, help="seed for preset generation (default 0)")
    p.add_argument("--epsilon", type=float, default=None,
                   help="coupling strength (rossler preset only)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("generate", help="write a benchmark panel to CSV")
    p.add_argument("preset", help="preset name")
    p.add_argument("--seed", type=SEED, default=0)
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.add_argument("--epsilon", type=float, default=None,
                   help="coupling strength (rossler preset only)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sweep", help="Rossler coupling-strength sweep table")
    p.add_argument("--eps-from", type=FINITE, required=True)
    p.add_argument("--eps-to", type=FINITE, required=True)
    p.add_argument("--steps", type=STEPS, required=True)
    p.add_argument("--seed", type=SEED, default=0)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return status
    except InfoflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so that the flush
        # at exit cannot fail again (see the SIGPIPE note in the signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
