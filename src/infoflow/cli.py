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
import mmap
import os
import signal
import stat
import sys
import tempfile
import warnings
from array import array
from functools import partial
from itertools import islice

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

    A pipe is opened once and read in one pass, so the path may name one.
    Where os.fork exists, a forked child opens a regular file again and
    reads its second half (see ``_read_records``).  Lines are split as
    latin-1 and each non-ASCII line is decoded as UTF-8; each record is
    then checked and cast, and the first defect in the file is the one
    reported.
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


def _utf8_lines(fh, start=0, stop=None):
    """The lines of a latin-1 text file from file offset start, each decoded as UTF-8.

    Latin-1 reads one character per byte, and no UTF-8 sequence holds a
    CR or LF byte: the lines and their offsets are those of the bytes.
    The lines end at file offset stop, a line start, or else at the end.
    """
    for line in fh:
        size = len(line)
        if not line.isascii():
            try:
                line = line.encode("latin-1").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"not UTF-8 text (byte {start + exc.start})") from None
        yield line
        start += size
        if start == stop:
            return


def _read_records(fh):
    """(labels, data) of a UTF-8 CSV panel; its first defect is a ValueError without the path.

    On a regular file, a forked child reads the records from the middle on
    (see ``_second_half``) while this process reads those before them.
    When the child fails for any reason, this process reads its records
    itself, so the first defect in the file is still the one raised.
    """
    split = _second_half(fh)
    reader = csv.reader(_utf8_lines(fh, stop=split))
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise ValueError(f"row 1: {exc}") from None
    if header is None:
        raise ValueError("empty file")
    if len(header) < 2:
        raise ValueError("need a time column plus at least 1 variable column")
    values = array("d")
    if split is None:
        _read_values(reader, len(header), 1, values)
    else:
        with _forked(partial(_read_tail, fh, split, len(header)), "w+b") as tail:
            lineno = _read_values(reader, len(header), 1, values)
            tmp = tail()
            if tmp is None:
                _read_values(csv.reader(_utf8_lines(fh, split)), len(header), lineno, values)
            elif os.fstat(tmp.fileno()).st_size:  # mmap refuses an empty file
                # one copy from the page cache: no chunk lands on the heap
                # between values and the space it grows into
                with mmap.mmap(tmp.fileno(), 0, access=mmap.ACCESS_READ) as doubles:
                    values.frombytes(doubles)
    labels = tuple(name.strip() for name in header[1:])
    return labels, np.frombuffer(values, dtype=np.float64).reshape(-1, len(labels)).T


def _second_half(fh):
    """The offset just after the first ``\\n`` at or past half of the file, or None.

    Read with ``newline=""``, a line starts there, and so does a record if
    no ``"`` comes before it: only a quoted cell may hold a line break.  None
    when fh is not a regular file, os.fork is missing, no line starts
    there, or a quote comes first: then one process reads the whole file.
    """
    fd = fh.fileno()
    info = os.fstat(fd)
    if not stat.S_ISREG(info.st_mode) or not hasattr(os, "fork"):
        return None
    half, pos = info.st_size // 2, 0
    while chunk := os.pread(fd, 1 << 16, pos):
        lf = chunk.find(b"\n", max(half - pos, 0))
        if lf >= 0:
            chunk = chunk[:lf + 1]
        if b'"' in chunk:
            return None
        pos += len(chunk)
        if lf >= 0:
            return pos if pos < info.st_size else None
    return None


def _read_tail(fh, split, width, out):
    """Write the values of fh's records from offset split on to out, as doubles.

    This is the forked child's half: it opens fh's file again for an offset
    of its own, and fails unless that is still the same file.  It writes
    every 1024 records, so that it adds little to the memory it shares
    with its parent.  Its row numbers are not the file's, but its errors
    are never shown.
    """
    with open(fh.name, newline="", encoding="latin-1") as own:
        if not os.path.samestat(os.fstat(own.fileno()), os.fstat(fh.fileno())):
            raise OSError(f"{fh.name} is not the file being read")
        own.seek(split)
        reader = csv.reader(_utf8_lines(own, split))
        values = array("d")
        while _read_values(islice(reader, 1024), width, 0, values):
            values.tofile(out)
            del values[:]


def _read_values(reader, width, lineno, values):
    """Append the cells after the time column of reader's records to values.

    The records are rows lineno + 1 on, each of width cells; the number of
    the last one is returned.  The first defect is a ValueError.
    """
    try:
        for lineno, cells in enumerate(reader, start=lineno + 1):
            if not cells:
                continue
            if len(cells) != width:
                raise ValueError(f"row {lineno} has {len(cells)} cells, expected {width}")
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
    return lineno


def write_csv_panel(panel: TimeSeriesPanel, fh) -> None:
    """Write a panel as CSV with a time-index column and label header.

    Values are written as ``repr`` of the float, the shortest text that
    reads back to the same double.  ``read_csv_panel`` strips header cells
    and ends a line at a carriage return, which the csv module may leave
    unquoted; so a label with surrounding whitespace, or holding a ``\\r``,
    raises a ValueError before anything is written.  A forked child writes
    the second half of the rows to a temporary file, which is appended
    after this process has written the first half.
    """
    for label in panel.labels:
        if label.strip() != label:
            raise ValueError(f"label {label!r} would read back as {label.strip()!r}")
        if "\r" in label:
            raise ValueError(f"label {label!r} holds a carriage return")
    csv.writer(fh, lineterminator="\n").writerow(["t"] + list(panel.labels))
    rows = panel.data.T
    half = len(rows) // 2
    with _forked(partial(_write_rows, rows, half, len(rows)), "w+") as tail:
        _write_rows(rows, 0, half, fh)
        tmp = tail()
        if tmp is None:
            _write_rows(rows, half, len(rows), fh)
        else:
            for chunk in iter(partial(tmp.read, 1 << 16), ""):
                fh.write(chunk)


def _write_rows(rows, start, stop, fh):
    """Write records start to stop - 1, holding one record's text at a time."""
    for n in range(start, stop):
        fh.write(f"{n},{','.join(map(repr, rows[n].tolist()))}\n")


@contextlib.contextmanager
def _forked(work, mode):
    """Run ``work(tmp)`` in a forked child; yield a function that waits for it.

    tmp is an anonymous temporary file opened with ``mode`` (text as UTF-8).
    The function returns tmp, rewound, when the child exited 0, and else
    None: the caller then does the work itself, so a child that fails, is
    killed, or cannot be started (no os.fork, no temporary file) costs
    time but never changes a result.  The child leaves only through
    ``os._exit``: it runs no ``finally`` or exit handler of the caller
    and flushes no inherited buffer.  On leaving the block, a child still
    running is killed, the child is reaped and tmp is closed.
    """
    pid = tmp = None
    try:
        try:
            if hasattr(os, "fork"):
                tmp = tempfile.TemporaryFile(mode, encoding=None if "b" in mode else "utf-8")
                with warnings.catch_warnings():
                    # Python >= 3.12 warns when a process with threads forks.
                    # Here the other threads are numpy's BLAS pool, and the
                    # fork is safe: the child runs only repr, float and csv
                    # over the panel and its own files, never BLAS.
                    warnings.filterwarnings("ignore", r"This process .* is multi-threaded, "
                                            r"use of fork\(\) may lead to deadlocks",
                                            DeprecationWarning)
                    pid = os.fork()
        except OSError:
            pass
        if pid == 0:
            status = 1
            try:
                work(tmp)
                tmp.flush()
                status = 0
            finally:
                os._exit(status)

        def wait():
            nonlocal pid
            if pid is None:
                return None
            _, status = os.waitpid(pid, 0)
            pid = None
            if os.waitstatus_to_exitcode(status) != 0:
                return None
            tmp.seek(0)
            return tmp

        yield wait
    finally:
        try:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        finally:
            if tmp is not None:
                tmp.close()


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
