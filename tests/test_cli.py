import contextlib
import csv
import errno
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import types

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st_

from infoflow import (
    ROSSLER_OSCILLATOR_ROWS,
    RosslerSpec,
    TimeSeriesPanel,
    estimate_flows,
    simulate_rossler,
    simulate_var,
)
from infoflow import cli
from infoflow.cli import SWEEP_PAIRS, main, read_csv_panel, write_csv_panel
from infoflow.graph import reconstruct, to_json
from infoflow.simgen import preset_panel
from conftest import assert_matches_reference_var, var6_spec
from oracles import reference_read_rows


SWEEP_HEADER = ("epsilon,T_X_to_Y,T_Y_to_X,T_X_to_Z,T_Z_to_X,T_Y_to_Z,T_Z_to_Y,"
                "sig_X_to_Y,sig_Y_to_X,sig_X_to_Z,sig_Z_to_X,sig_Y_to_Z,sig_Z_to_Y")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def var6_csv(tmp_path_factory):
    """A generated var6-b100-short CSV: N = 500 rows of d = 6 series."""
    path = tmp_path_factory.mktemp("var6") / "var6.csv"
    assert main(["generate", "var6-b100-short", "--out", str(path)]) == 0
    return path


# analyze's summary of a 3-series panel whose first label is 12 characters long
WIDE_SUMMARY = """\
Information flow T[row -> col] (nats per unit time), * = significant at alpha=0.9:
              a_long_label            y            z
 a_long_label            .    -0.00061      -0.0079*
            y     0.00536             .      0.0343*
            z    6.03e-05      -0.0014             .

Node diagnostics:
         node       dH*/dt       stderr    self-loop        noise
 a_long_label      -0.0138       0.0081          yes      0.00307
            y     -0.00464      0.00874           no      0.00251
            z      -0.0366        0.011          yes       0.0108

Normalized flows tau[row -> col] (% of target's entropy budget):
              a_long_label            y            z
 a_long_label            .        -6.7%        -8.8%
            y        24.1%            .        38.3%
            z         0.3%       -15.3%            .
"""


class TestGenerate:
    def test_var6_csv_shape(self, tmp_path, capsys):
        out = tmp_path / "panel.csv"
        code, _, _ = run(capsys, "generate", "var6-b1", "--seed", "0",
                         "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,X1,X2,X3,X4,X5,X6"
        assert len(lines) == 1 + 10000

    def test_same_seed_identical_bytes(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(capsys, "generate", "var6-b1", "--seed", "9", "--out", str(a))
        run(capsys, "generate", "var6-b1", "--seed", "9", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_rossler_csv_shape(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code, _, _ = run(capsys, "generate", "rossler", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x1,x2,x3,y1,y2,y3,z1,z2,z3"
        assert len(lines) == 1 + 40000

    # CSV bytes recorded before panels were stored series-major.  The Rossler
    # step is Python-float IEEE arithmetic, so its bytes hold on any platform.
    @pytest.mark.parametrize("seed,sha256", [
        (0, "5e5983c8e75e9cc6980e2e7e3391b47a39dde87bf85b452d9514fd675d67205e"),
        (1, "38d42e066254e1fa6f0aab2fbc199a37331705372b008ffe69f744cacf3b8512"),
        (2, "388105089765125c0bd8ebb5221962520b34382d40227825d63ac25bd3260eb9"),
    ])
    def test_rossler_csv_bytes_unchanged(self, tmp_path, capsys, seed, sha256):
        out = tmp_path / "p.csv"
        code, _, _ = run(capsys, "generate", "rossler", "--seed", str(seed),
                         "--out", str(out))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    # simulate_var sums in blocks, in the order its BLAS kernel chooses (see
    # simgen), so the CSV is checked against its panel bit for bit, and the
    # panel against the step-by-step recurrence to rounding.
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_var6_csv_holds_the_time_major_trajectory(self, tmp_path, capsys, seed):
        spec = var6_spec(b=1.0, N=10000, seed=seed)
        data = simulate_var(spec).data
        assert_matches_reference_var(data, spec)
        out = tmp_path / "p.csv"
        code, _, _ = run(capsys, "generate", "var6-b1", "--seed", str(seed),
                         "--out", str(out))
        assert code == 0
        back = read_csv_panel(str(out))
        np.testing.assert_array_equal(back.data.view(np.uint64), data.view(np.uint64))
        expected = "t,X1,X2,X3,X4,X5,X6\n" + "".join(
            f"{n},{','.join(map(repr, row))}\n" for n, row in enumerate(data.T.tolist()))
        assert out.read_text() == expected

    def test_stdout_default(self, capsys):
        code, out, _ = run(capsys, "generate", "var6-b100-short")
        assert code == 0
        assert out.splitlines()[0].startswith("t,")
        assert len(out.splitlines()) == 501


@st_.composite
def csv_panels(draw):
    """A panel of 1-3 series of 4-20 finite values, with distinct labels of any text."""
    labels = draw(st_.lists(st_.text(), min_size=1, max_size=3, unique=True))
    d = len(labels)
    n = draw(st_.integers(d + 3, 20))
    values = draw(st_.lists(st_.floats(allow_nan=False, allow_infinity=False),
                            min_size=d * n, max_size=d * n))
    return TimeSeriesPanel(data=np.reshape(values, (d, n)), labels=labels)


class TestCsvRoundTrip:
    def test_write_then_read_preserves_values(self, tmp_path):
        rng = np.random.default_rng(3)
        panel = TimeSeriesPanel(data=rng.standard_normal((3, 40)), dt=0.5,
                                labels=("a", "b", "c"))
        path = tmp_path / "p.csv"
        with open(path, "w") as fh:
            write_csv_panel(panel, fh)
        back = read_csv_panel(str(path), dt=0.5)
        assert back.labels == panel.labels
        np.testing.assert_array_equal(back.data, panel.data)
        # the reader strips header cells: (" a", "a") would read back as a
        # duplicate, ("x ", "y") as ("x", "y"); and it ends a line at an
        # unquoted "\r", which splits ("a\rb", "c")'s header line.  None of
        # them is written at all
        for labels, bad in [((" a", "a", "c"), "' a' would read back as 'a'"),
                            (("x ", "y", "z"), "'x ' would read back as 'x'"),
                            (("a\rb", "c", "d"), "'a\\rb' holds a carriage return")]:
            sink = io.StringIO()
            with pytest.raises(ValueError, match=f"^label {re.escape(bad)}$"):
                write_csv_panel(TimeSeriesPanel(data=panel.data, labels=labels), sink)
            assert sink.getvalue() == ""

    @given(csv_panels())
    @example(TimeSeriesPanel(data=np.arange(10.0).reshape(2, 5), labels=("a\rb", "c")))
    @settings(max_examples=100, deadline=None)
    def test_written_panel_reads_back_or_is_refused(self, tmp_path_factory, panel):
        path = tmp_path_factory.getbasetemp() / "round-trip.csv"
        with open(path, "w", encoding="utf-8") as fh:
            try:
                write_csv_panel(panel, fh)
            except ValueError:
                fh.close()
                assert path.read_bytes() == b""
                return
        back = read_csv_panel(str(path))
        assert back.labels == panel.labels
        assert back.data.view(np.uint64).tolist() == panel.data.view(np.uint64).tolist()

    def test_missing_file(self, tmp_path, capsys):
        path = tmp_path / "nope.csv"
        code, out, err = run(capsys, "analyze", "--csv", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: No such file or directory\n"
        # the library raises Python's own errors: the errno's OSError subclass
        # naming the file, and a ValueError whose text starts with the path
        with pytest.raises(FileNotFoundError) as info:
            read_csv_panel(str(path))
        assert info.value.filename == str(path)
        path.write_text("t,a\n0,1\n1,2,3\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: row 3 has 3 cells"):
            read_csv_panel(str(path))

    def test_failed_read_names_the_file(self, tmp_path, capsys, monkeypatch):
        # an I/O error mid-read of --csv: one line naming the file
        path = tmp_path / "p.csv"
        path.write_text(csv_text())

        def fail(fh):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(cli, "_read_records", fail)
        reason = os.strerror(errno.EIO)
        assert run(capsys, "analyze", "--csv", str(path)) == (2, "", f"error: {path}: {reason}\n")


ROWS = ["0,1.5,-2.0", "1,0.25,3e-5", "2,-7.0,1.0", "3,4.5,2.5", "4,0.0,-1e300"]


def csv_text(rows=ROWS, header="t,a,b", eol="\n"):
    return eol.join([header] + list(rows)) + eol


# Longer than the csv module's default field size limit (131072).
HUGE_CELL = 200_000

def block_rows(n, replace=None):
    """n valid data rows, with ``replace[i]`` in place of data row i."""
    rows = [f"{i},{i}.5,{(i * 7) % 11}" for i in range(n)]
    for i, row in (replace or {}).items():
        rows[i] = row
    return rows


QUOTED_HUGE = f'1,"{"0" * HUGE_CELL}"'
# Data row 20 (record 22) holds a long unquoted number.
LONG_NUMBER = {20: "20,1," + "0" * HUGE_CELL}


# Inputs the one-pass reader must read exactly as the row-at-a-time
# reference does: (id, file bytes).
READER_CASES = [
    ("plain", csv_text().encode()),
    ("quoted-cells", csv_text([f'"{i}","{i}.5","-{i}"' for i in range(5)]).encode()),
    ("spaces-around-cells", csv_text([" 0 , 1.5 ,2", "1,  2.5 , 3 "] + ROWS[2:]).encode()),
    ("blank-lines", csv_text(ROWS[:2] + ["", ""] + ROWS[2:]).encode()),
    ("line-of-spaces", csv_text(ROWS[:2] + ["   "] + ROWS[2:]).encode()),
    ("hash-in-cell", csv_text(ROWS[:3] + ["3,1.0#x,2.0"] + ROWS[4:]).encode()),
    ("information-separator", csv_text(ROWS[:3] + ["3,\x1c1.0,2.0"] + ROWS[4:]).encode()),
    ("underscore-digits", csv_text(ROWS[:3] + ["3,1_0,2.0"] + ROWS[4:]).encode()),
    ("crlf", csv_text(eol="\r\n").encode()),
    ("lone-cr", csv_text(eol="\r").encode()),
    ("mixed-eol", ("t,a,b\r\n" + "".join(r + eol for r, eol in
                                         zip(ROWS, ["\n", "\r", "\r\n", "\r", "\n"]))).encode()),
    ("non-ascii-labels", csv_text(header="t,é,€").encode()),
    ("cr-in-quoted-label", csv_text(header='t,"a\rb","c\r\nd"').encode()),
    ("nel-and-ls-in-label", csv_text(header="t,a\x85b,c\u2028d").encode()),
    ("utf8-bom", b"\xef\xbb\xbf" + csv_text().encode()),
    ("non-numeric-time", csv_text([f"t{i},{i}.5,{i * i}" for i in range(5)]).encode()),
    ("trailing-commas", csv_text([r + "," for r in ROWS]).encode()),
    ("inf", csv_text(ROWS[:3] + ["3,inf,2.0"] + ROWS[4:]).encode()),
    ("nan", csv_text(ROWS[:3] + ["3,1.0,nan"] + ROWS[4:]).encode()),
    # finite values whose sum overflows: accepted, as each is finite
    ("sum-overflows", csv_text(ROWS[:3] + ["3,1e308,1.7e308"] + ROWS[4:]).encode()),
    ("empty", b""),
    ("header-only", b"t,a,b\n"),
    ("two-columns", csv_text([r.rsplit(",", 1)[0] for r in ROWS], header="t,a").encode()),
    ("time-column-only", csv_text([r.split(",", 1)[0] for r in ROWS], header="t").encode()),
    ("extra-cell", csv_text(ROWS[:3] + ["3,1.0,2.0,4.0"] + ROWS[4:]).encode()),
    ("extra-column", csv_text([r + ",1.0" for r in ROWS]).encode()),
    ("huge-header-cell", csv_text(header="t,a," + "b" * HUGE_CELL).encode()),
    ("huge-quoted-cell", csv_text(ROWS[:1] + [f'1,2.0,"{"0" * HUGE_CELL}"'] + ROWS[2:]).encode()),
    ("huge-unquoted-number", csv_text(block_rows(25, LONG_NUMBER)).encode()),
    ("huge-unquoted-number-quoted-time",
     csv_text(block_rows(25, {0: '"0",0.5,0', **LONG_NUMBER})).encode()),
    ("single-cell-rows", csv_text([str(i) for i in range(5)]).encode()),
    ("blank-run-of-1029-lines",
     csv_text(ROWS[:2] + [""] * 1029 + ROWS[2:]).encode()),
    ("blank-lines-then-bad-cell",
     csv_text(ROWS[:2] + ["", ""] + ["2,oops,1"] + ROWS[3:]).encode()),
    ("blank-run-then-bad-cell",
     csv_text(ROWS[:2] + [""] * 1029 + ["2,1,oops"] + ROWS[3:]).encode()),
    # data row 1027 is record 1029, after a thousand good records
    ("bad-cell-at-row-1029",
     csv_text(block_rows(1044, {1027: "x,1.0,oops"})).encode()),
    ("ragged-at-row-1029",
     csv_text(block_rows(1044, {1027: "x,1.0"})).encode()),
    ("minus-inf-at-row-1029",
     csv_text(block_rows(1044, {1027: "x,-inf,1"})).encode()),
    ("bad-cell-then-huge-quoted-cell",
     csv_text(block_rows(20, {5: "5,oops,1", 9: "9," + QUOTED_HUGE})).encode()),
    ("huge-quoted-cell-then-bad-cell",
     csv_text(block_rows(20, {5: "5," + QUOTED_HUGE, 9: "9,oops,1"})).encode()),
    ("two-blocks", csv_text(block_rows(2048)).encode()),  # 2048 rows, no defect
]


def read_panel(path):
    panel = read_csv_panel(path)
    return panel.labels, panel.data


def reference_panel(path):
    """reference_read_rows, then the panel's rules, each error naming the file."""
    labels, data = reference_read_rows(path)
    try:
        panel = TimeSeriesPanel(data=data, labels=labels)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return panel.labels, panel.data


def read_outcome(read, path):
    """(labels, data bits) from a reader, or its ValueError text."""
    try:
        labels, data = read(path)
    except ValueError as exc:
        return str(exc)
    return labels, np.asarray(data).view(np.uint64).tolist()


@st_.composite
def numeric_text(draw):
    """Float and integer text with signs, exponents, ``_``, foreign digits and padding."""
    text = draw(st_.one_of(
        st_.floats().map(repr),
        st_.integers().map(str),
        st_.sampled_from(["inf", "Infinity", "nan", "1_000", "0x10", "1e", ".", "1.", ".5"]),
    ))
    if draw(st_.booleans()):
        at = draw(st_.integers(0, len(text)))
        text = text[:at] + "_" + text[at:]
    text = (draw(st_.sampled_from(["", "+", "-"])) + text
            + draw(st_.sampled_from(["", "e5", "E-7", "e+400", "e-400", "e_1"])))
    # ASCII, Arabic-Indic and fullwidth digits
    zero = draw(st_.sampled_from([0x30, 0x660, 0xFF10]))
    text = text.translate({0x30 + i: zero + i for i in range(10)})
    pad = st_.sampled_from(["", " ", "\t", "\n", "\x0b", "\x1c", "\x1f", "\xa0", "\u2003",
                            "\u3000"])
    return draw(pad) + text + draw(pad)


class TestCsvReaderPaths:
    @pytest.mark.parametrize("content", [c for _, c in READER_CASES],
                             ids=[name for name, _ in READER_CASES])
    def test_same_result_as_row_reader(self, tmp_path, content):
        path = str(tmp_path / "p.csv")
        with open(path, "wb") as fh:
            fh.write(content)
        assert read_outcome(read_panel, path) == read_outcome(reference_panel, path)

    @given(st_.one_of(st_.text(), numeric_text()))
    @example("1e400")  # finite text, infinite value
    @example("\u0663.\u0665")  # Arabic-Indic digits
    @example("\uff11.\uff15")  # fullwidth digits
    @example("\u30001.5\u3000")  # ideographic spaces
    @example("0x10")
    @settings(max_examples=500, deadline=None)
    def test_value_cell_read_as_row_reader_does(self, tmp_path_factory, cell):
        # The drawn text is the first value cell of record 3, quoted as the
        # csv module quotes it, in an otherwise valid panel.
        fh = io.StringIO()
        csv.writer(fh, lineterminator="\n").writerow(["1", cell, "3.0"])
        path = str(tmp_path_factory.getbasetemp() / "cell.csv")
        with open(path, "wb") as out:
            out.write(csv_text([ROWS[0], fh.getvalue().rstrip("\n")] + ROWS[2:]).encode())
        assert read_outcome(read_panel, path) == read_outcome(reference_panel, path)

    @pytest.mark.parametrize("header,rows,row", [
        ("t,a," + "b" * HUGE_CELL, ROWS, 1),
        ("t,a,b", [f'0,1,"{"0" * HUGE_CELL}"'] + ROWS[1:], 2),
        ("t,a,b", block_rows(25, LONG_NUMBER), 22),
    ], ids=["header", "data-row", "unquoted-data-row"])
    def test_huge_cell_names_file_and_row(self, tmp_path, capsys, header, rows, row):
        path = tmp_path / "huge.csv"
        path.write_text(csv_text(rows, header=header))
        code, _, err = run(capsys, "analyze", "--csv", str(path))
        assert code == 2
        assert err == (f"error: {path}: row {row}: "
                       f"field larger than field limit ({csv.field_size_limit()})\n")

    def test_duplicate_label_exit_code(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text(csv_text([f"{i},{i % 3},{i * i % 7},{i % 5}" for i in range(30)],
                                 header="t,a,a,b"))
        code, _, err = run(capsys, "analyze", "--csv", str(path))
        assert code == 2
        assert err == f"error: {path}: duplicate label 'a'\n"

    @pytest.mark.parametrize("offset_rows", [1, 3000])
    def test_non_utf8_names_file_and_byte(self, tmp_path, capsys, offset_rows):
        head = csv_text([f"{i},{i}.5,1.0" for i in range(offset_rows)]).encode()
        path = tmp_path / "latin.csv"
        path.write_bytes(head + b"9,\xff1.0,2.0\n")
        code, _, err = run(capsys, "analyze", "--csv", str(path))
        assert code == 2
        assert err == f"error: {path}: not UTF-8 text (byte {len(head) + 2})\n"

    @pytest.mark.parametrize("boundary", [8192, 65536])
    @pytest.mark.parametrize("cut", [1, 2], ids=["1+2", "2+1"])
    def test_non_utf8_sequence_across_chunk_boundary(self, tmp_path, capsys, cut, boundary):
        # A 3-byte sequence split by a read-buffer boundary, with its last
        # byte replaced by "X": the error is at the sequence's first byte.
        head = b"t,a,b\n" + b"0" * (boundary - 6 - cut)
        path = tmp_path / "split.csv"
        path.write_bytes(head + b"\xe2\x82\xac"[:cut] + b"X,1,2\n")
        code, _, err = run(capsys, "analyze", "--csv", str(path))
        assert code == 2
        assert err == f"error: {path}: not UTF-8 text (byte {len(head)})\n"

    def test_non_utf8_sequence_cut_off_at_end_of_file(self, tmp_path, capsys):
        head = csv_text([f"{i},{i}.5,1.0" for i in range(30)]).encode()
        path = tmp_path / "cut.csv"
        path.write_bytes(head + b"\xe2\x82")
        code, _, err = run(capsys, "analyze", "--csv", str(path))
        assert code == 2
        assert err == f"error: {path}: not UTF-8 text (byte {len(head)})\n"

    def test_non_utf8_offset_counts_bytes_not_characters(self, tmp_path, capsys):
        # "é" and "€" are 2 and 3 bytes, 1 character each
        head = csv_text([f"{i},{i}.5,1.0" for i in range(30)], header="t,é,€").encode()
        path = tmp_path / "labels.csv"
        path.write_bytes(head + b"9,\xff1.0,2.0\n")
        code, _, err = run(capsys, "analyze", "--csv", str(path))
        assert code == 2
        assert err == f"error: {path}: not UTF-8 text (byte {len(head) + 2})\n"

    @pytest.mark.parametrize("ragged,bad,want", [
        (1, 2998, "row 3 has 2 cells, expected 3"),
        (2998, 1, "not UTF-8 text (byte {offset})"),
    ], ids=["ragged-row-first", "bad-byte-first"])
    def test_first_defect_in_file_order(self, tmp_path, capsys, ragged, bad, want):
        rows = block_rows(3000, {ragged: f"{ragged},1.5", bad: f"{bad},~1.0,2.0"})
        content = csv_text(rows).encode().replace(b"~", b"\xff")
        path = tmp_path / "two-defects.csv"
        path.write_bytes(content)
        code, _, err = run(capsys, "analyze", "--csv", str(path))
        assert code == 2
        want = want.format(offset=content.index(b"\xff"))
        assert err == f"error: {path}: {want}\n"


class TestCsvWriter:
    def test_bytes_match_csv_writer_reference(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((3, 10))
        data[:, :4] = [[-0.0, 5e-324, 1e300, 3.0],
                       [2.0, -1e-300, -0.0, 1e16],
                       [-7.0, 0.1, 1.0 / 3.0, 2.0 ** 60]]
        panel = TimeSeriesPanel(data=data, labels=("a,b", "c", 'q"d'))
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["t"] + list(panel.labels))
        for n in range(panel.n):
            writer.writerow([n] + [repr(float(v)) for v in panel.data[:, n]])
        got = io.StringIO()
        write_csv_panel(panel, got)
        assert got.getvalue() == want.getvalue()

    def test_memory_does_not_grow_with_rows(self):
        # the writer holds one record's text at a time, not the whole panel's
        class CountingSink:
            chars = 0

            def write(self, text):
                self.chars += len(text)

        peaks = []
        for n in (4000, 40000):
            panel = TimeSeriesPanel(data=np.random.default_rng(1).standard_normal((9, n)))
            sink = CountingSink()
            tracemalloc.start()
            try:
                write_csv_panel(panel, sink)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert sink.chars > 9 * n  # at least a character per value
        assert peaks[1] < 2 * peaks[0]


def csv_writer_reference(panel):
    """The CSV text of a panel as csv.writer writes it, one row at a time."""
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["t"] + list(panel.labels))
    for n in range(panel.n):
        writer.writerow([n] + [repr(float(v)) for v in panel.data[:, n]])
    return want.getvalue()


def halves_text(replace=None, eol="\n"):
    """3000 data rows: data row 500 lies in the first half of the file, 2500 in the second."""
    return csv_text(block_rows(3000, replace), eol=eol).encode()


def crlf_astride_middle(middle):
    """halves_text with CRLF line ends, padded until the middle byte is ``middle``."""
    for pad in range(64):
        text = halves_text({0: "0" * pad + "0,0.5,0"}, eol="\r\n")
        if text[len(text) // 2:][:1] == middle:
            return text
    raise AssertionError("no padding puts the middle byte on a CRLF")


# Inputs the reader splits between two processes, or must not split: (id,
# file bytes, whether a second process reads its second half).  A bad byte
# in the second half, or in each half, is TestCsvReaderPaths' non-UTF-8
# tests at 3000 rows.
SPLIT_CASES = [
    ("no-defect", halves_text(), True),
    ("bad-cell-in-second-half", halves_text({2500: "2500,oops,1"}), True),
    ("ragged-row-in-second-half", halves_text({2500: "2500,1.0"}), True),
    ("minus-inf-in-second-half", halves_text({2500: "2500,-inf,1"}), True),
    ("defect-in-each-half", halves_text({500: "500,oops,1", 2500: "2500,1.0"}), True),
    ("quotes-in-second-half-only",
     halves_text({2500: '2500,"1.5","2"', 2600: '2600,"1\n",2'}), True),
    ("quoted-line-break-then-bad-cell",
     halves_text({2500: '2500,"1\n",2', 2600: "2600,oops,1"}), True),
    ("quote-in-first-half", halves_text({500: '500,"1.5",2'}), False),
    ("quoted-line-break-in-first-half-then-bad-cell",
     halves_text({500: '500,"1\n",2', 2600: "2600,oops,1"}), False),
    ("lone-cr", halves_text(eol="\r"), False),
    ("blank-second-half", csv_text(ROWS + [""] * 3000).encode(), True),
    ("crlf-lf-at-middle", crlf_astride_middle(b"\n"), True),
    ("crlf-cr-at-middle", crlf_astride_middle(b"\r"), True),
]


def record_temporary_files(monkeypatch):
    """The list of the temporary files that the CSV reader and writer make from now on."""
    made = []

    def temporary_file(*args, **kwargs):
        made.append(tempfile.TemporaryFile(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(cli, "tempfile", types.SimpleNamespace(TemporaryFile=temporary_file))
    return made


def assert_no_child_and_no_open_file(made):
    assert made and all(tmp.closed for tmp in made)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail(exc):
    def raise_it(*args, **kwargs):
        raise exc

    return raise_it


def break_child(monkeypatch, how):
    """Make the forked child of the CSV reader and writer fail, or never start."""
    if how == "no-temporary-file":
        no_space = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        monkeypatch.setattr(cli, "tempfile", types.SimpleNamespace(TemporaryFile=fail(no_space)))
    elif how == "fork-fails":
        monkeypatch.setattr(os, "fork", fail(OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))))
    elif how == "no-os-fork":
        monkeypatch.delattr(os, "fork")
    else:  # the child's half stops it: exit status 1, or SIGKILL
        parent = os.getpid()
        for name in ("_write_rows", "_read_tail"):
            def fail_in_child(*args, work=getattr(cli, name)):
                if os.getpid() != parent:
                    if how == "exits-1":
                        os._exit(1)
                    os.kill(os.getpid(), signal.SIGKILL)
                return work(*args)

            monkeypatch.setattr(cli, name, fail_in_child)


CHILD_FAILURES = ["exits-1", "killed", "no-temporary-file", "fork-fails", "no-os-fork"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
class TestCsvHalves:
    """A forked child reads or writes the second half of a CSV panel."""

    @pytest.mark.parametrize("content,splits", [c[1:] for c in SPLIT_CASES],
                             ids=[c[0] for c in SPLIT_CASES])
    def test_same_result_as_row_reader(self, tmp_path, content, splits):
        path = tmp_path / "p.csv"
        path.write_bytes(content)
        with open(path, newline="", encoding="latin-1") as fh:
            assert (cli._second_half(fh) is not None) == splits
        assert read_outcome(read_panel, str(path)) == read_outcome(reference_panel, str(path))

    @pytest.mark.parametrize("n", [2000, 2001], ids=["even", "odd"])
    def test_bytes_match_csv_writer_reference(self, n):
        panel = TimeSeriesPanel(data=np.random.default_rng(n).standard_normal((3, n)))
        got = io.StringIO()
        write_csv_panel(panel, got)
        assert got.getvalue() == csv_writer_reference(panel)

    @pytest.mark.parametrize("how", CHILD_FAILURES)
    def test_failed_child_changes_no_output(self, tmp_path, monkeypatch, how):
        panel = TimeSeriesPanel(data=np.random.default_rng(5).standard_normal((3, 2001)))
        reads = {}
        for name, content, _ in SPLIT_CASES[:3]:
            path = tmp_path / f"{name}.csv"
            path.write_bytes(content)
            reads[path] = read_outcome(read_panel, str(path))
        break_child(monkeypatch, how)
        got = io.StringIO()
        write_csv_panel(panel, got)
        assert got.getvalue() == csv_writer_reference(panel)
        for path, want in reads.items():
            assert read_outcome(read_panel, str(path)) == want
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("exc", [OSError(errno.EIO, os.strerror(errno.EIO)),
                                     KeyboardInterrupt()], ids=["OSError", "interrupt"])
    def test_failed_write_leaves_no_child_and_no_open_file(self, monkeypatch, exc):
        class FailingSink:
            chars = 0

            def write(self, text):
                self.chars += len(text)
                if self.chars > 10_000:
                    raise exc

        panel = TimeSeriesPanel(data=np.random.default_rng(6).standard_normal((3, 4000)))
        made = record_temporary_files(monkeypatch)
        with pytest.raises(type(exc)):
            write_csv_panel(panel, FailingSink())
        assert_no_child_and_no_open_file(made)

    def test_defect_in_first_half_leaves_no_child_and_no_open_file(self, tmp_path, monkeypatch):
        path = tmp_path / "p.csv"
        path.write_bytes(halves_text({500: "500,oops,1"}))
        made = record_temporary_files(monkeypatch)
        with pytest.raises(ValueError, match=r": row 502, column 2: non-numeric cell 'oops'$"):
            read_csv_panel(str(path))
        assert_no_child_and_no_open_file(made)

    def test_forking_cli_leaves_stderr_empty(self, tmp_path):
        # Python >= 3.12 warns when a process with threads (numpy's BLAS pool)
        # forks; under -W error any warning, an unclosed file's too, fails the run
        panel, graph = tmp_path / "rossler.csv", tmp_path / "graph.json"
        for argv in (["generate", "rossler", "--out", str(panel)],
                     ["analyze", "--csv", str(panel), "--dt", "0.001", "--k", "2",
                      "--out", str(graph)]):
            proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error",
                                   "-m", "infoflow.cli", *argv],
                                  capture_output=True, env=src_env(), timeout=120)
            assert (proc.returncode, proc.stderr) == (0, b"")
        assert json.loads(graph.read_text())["meta"]["schema_version"] == 2


class TestOutputPath:
    @pytest.mark.parametrize("argv", [
        ["generate", "var6-b100-short"],
        ["analyze", "--preset", "var6-b100-short"],
        ["sweep", "--eps-from", "0.1", "--eps-to", "0.1", "--steps", "1"],
    ], ids=["generate", "analyze", "sweep"])
    def test_missing_directory_exit_code(self, tmp_path, capsys, argv):
        out = tmp_path / "no" / "such" / "file.out"
        code, _, err = run(capsys, *argv, "--out", str(out))
        assert code == 2
        assert err == f"error: {out}: No such file or directory\n"

    @pytest.mark.skipif(resource is None, reason="no resource module")
    def test_failed_write_keeps_the_old_file(self, tmp_path):
        # a 64 KiB file-size limit stops the 9 x 40000 Rossler CSV part-way (EFBIG)
        out = tmp_path / "keep.csv"
        out.write_bytes(b"t,X1\n0,1.0\n1,2.0\n2,4.0\n3,8.0\n4,16.0\n")
        old = out.read_bytes()
        limit = 64 * 1024
        proc = subprocess.run(
            [sys.executable, "-m", "infoflow.cli", "generate", "rossler", "--out", str(out)],
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)),
            capture_output=True, env=src_env(), timeout=120)
        assert (proc.returncode, proc.stderr) == (2, f"error: {out}: File too large\n".encode())
        assert out.read_bytes() == old
        assert list(tmp_path.iterdir()) == [out]  # no temporary file is left

    @pytest.mark.parametrize("argv", [
        ["generate", "var6-b100-short"],
        ["analyze", "--preset", "var6-b100-short"],
        ["sweep", "--eps-from", "0.1", "--eps-to", "0.1", "--steps", "1"],
    ], ids=["generate", "analyze", "sweep"])
    def test_out_is_utf8_whatever_the_locale(self, tmp_path, argv):
        # an open() that takes the locale's encoding warns, and the warning is an error
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "infoflow.cli", *argv, "--out", str(out)],
            capture_output=True, env=src_env(), timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert out.stat().st_size > 0


class TestAnalyze:
    def test_csv_input_matches_preset(self, tmp_path, capsys):
        panel_csv = tmp_path / "p.csv"
        run(capsys, "generate", "var6-b1", "--seed", "5", "--out", str(panel_csv))
        from_csv = tmp_path / "from_csv.json"
        from_preset = tmp_path / "from_preset.json"
        run(capsys, "analyze", "--csv", str(panel_csv), "--out", str(from_csv))
        run(capsys, "analyze", "--preset", "var6-b1", "--seed", "5",
            "--out", str(from_preset))
        a = json.loads(from_csv.read_text())
        b = json.loads(from_preset.read_text())
        assert a["flow_matrix"] == b["flow_matrix"]
        assert a["edges"] == b["edges"]

    def test_csv_matrix_format(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code, _, _ = run(capsys, "analyze", "--preset", "var6-b100-short",
                         "--format", "csv-matrix", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "source," + ",".join(f"to_{i}" for i in range(1, 7))
        assert len(lines) == 7
        # diagonal entries are empty
        assert lines[1].split(",")[1] == ""

    def test_duplicate_columns_exit_code(self, tmp_path, capsys):
        x = np.cumsum(np.random.default_rng(0).standard_normal(100))
        path = tmp_path / "dup.csv"
        with open(path, "w") as fh:
            write_csv_panel(TimeSeriesPanel(data=np.vstack([x, x])), fh)
        code, out, err = run(capsys, "analyze", "--csv", str(path))
        assert (code, out) == (4, "")
        # cond comes from the SVD of a singular matrix: its digits (5.056e+16
        # with OpenBLAS) vary with the LAPACK build
        assert re.fullmatch(r"error: covariance matrix is near-singular "
                            r"\(condition number (\d\.\d{3}e\+\d+|inf)\)\n", err)

    def test_constant_derivative_exit_code(self, tmp_path, capsys):
        # X1 = n has the exact derivative 1, so its row fits with no residual
        x = np.cumsum(np.random.default_rng(0).standard_normal(200))
        path = tmp_path / "ramp.csv"
        with open(path, "w") as fh:
            write_csv_panel(TimeSeriesPanel(data=np.vstack([np.arange(200.0), x])), fh)
        code, _, err = run(capsys, "analyze", "--csv", str(path))
        assert code == 5
        assert err == ("error: target 'X1': residual variance is zero, "
                       "information matrix undefined\n")

    @pytest.mark.parametrize("alpha", ["0.9", "0.975", "0.995"])
    def test_summary_header_states_alpha_exactly(self, capsys, alpha):
        code, out, _ = run(capsys, "analyze", "--preset", "var6-b100-short",
                           "--alpha", alpha, "--format", "dot")
        assert code == 0
        assert out.splitlines()[0] == ("Information flow T[row -> col] (nats per unit time), "
                                       f"* = significant at alpha={alpha}:")

    def test_one_series_csv_gives_a_one_node_graph(self, tmp_path, capsys):
        # white noise: its self-influence, about -1, is a self-loop
        path = tmp_path / "one.csv"
        with open(path, "w") as fh:
            write_csv_panel(TimeSeriesPanel(data=np.random.default_rng(2).standard_normal((1, 50)),
                                            labels=("a",)), fh)
        code, _, err = run(capsys, "analyze", "--csv", str(path), "--format", "dot",
                           "--out", str(tmp_path / "g.dot"))
        assert (code, err) == (0, "")
        assert (tmp_path / "g.dot").read_text().splitlines()[1:] == [
            '  "a" [label="a", peripheries=2];', "}"]

    def test_header_only_csv_gets_the_panel_size_message(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("t,a,b\n")
        code, out, err = run(capsys, "analyze", "--csv", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: need N >= d + 3 samples, got N=0 for d=2\n"

    def test_largest_stride_short_of_an_exact_fit_runs(self, var6_csv, capsys):
        # k = 493 leaves an exact fit and fails (CLI_FAILURES)
        code, _, _ = run(capsys, "analyze", "--csv", str(var6_csv), "--k", "492")
        assert code == 0

    def test_extreme_scales_keep_the_edges(self, tmp_path, capfd):
        # the estimator works in equilibrated units, so 1e-170 and 1e150
        # times a panel give its edges, with nothing on stderr
        data = np.cumsum(np.random.default_rng(1).standard_normal((3, 200)), axis=1)
        edges = []
        for scale in (1.0, 1e-170, 1e150):
            path = tmp_path / "scaled.csv"
            with open(path, "w") as fh:
                write_csv_panel(TimeSeriesPanel(data=data * scale), fh)
            code, out, err = run(capfd, "analyze", "--csv", str(path), "--format", "dot")
            assert (code, err) == (0, "")
            edges.append([line.split("[")[0] for line in out.splitlines() if " -> " in line])
        assert edges[0] and edges[1] == edges[0] and edges[2] == edges[0]

    def test_any_stride_runs_as_the_library_runs_it(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code, _, _ = run(capsys, "analyze", "--preset", "var6-b100-short",
                         "--k", "3", "--out", str(out))
        assert code == 0
        panel, _ = preset_panel("var6-b100-short", seed=0)
        assert out.read_text() == to_json(reconstruct(panel, k=3))

    def test_allow_any_k_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--preset", "var6-b100-short", "--k", "3", "--allow-any-k"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --allow-any-k" in capsys.readouterr().err

    @pytest.mark.parametrize("dt", ["1e-160", "1e-220", "1e-300", "5e-324"])
    def test_overflowing_variance_exit_code(self, tmp_path, capfd, dt):
        # the residual variance g ~ x^2 / dt ~ 1e200 / dt, which has no
        # float64 here, is not an output: the rates ~ 1 / dt fit, and the
        # edges are those at --dt 1.  At k dt = 5e-324 the rates overflow:
        # exactly one error line, and no RuntimeWarning (warnings are errors
        # in this suite)
        data = np.cumsum(np.random.default_rng(1).standard_normal((3, 200)), axis=1) * 1e100
        path = tmp_path / "huge.csv"
        with open(path, "w") as fh:
            write_csv_panel(TimeSeriesPanel(data=data), fh)
        argv = ["analyze", "--csv", str(path), "--format", "dot", "--out", str(tmp_path / "g.dot")]
        if dt == "5e-324":
            code, _, err = run(capfd, *argv, "--dt", dt)
            assert (code, err) == (3, "error: target 'X1': flow or noise rate is outside "
                                      "float64 at k*dt = 5e-324\n")
            return
        edges = []
        for step in ("1", dt):
            code, _, err = run(capfd, *argv, "--dt", step)
            assert (code, err) == (0, "")
            dot = (tmp_path / "g.dot").read_text()
            edges.append([line.split("[")[0].strip()
                          for line in dot.splitlines() if " -> " in line])
        assert edges[0] == ['"X2" -> "X1"'] and edges[1] == edges[0]

    @pytest.mark.parametrize("fmt", ["json", "dot", "csv-matrix"])
    def test_out_dash_is_stdout(self, tmp_path, capsys, fmt):
        argv = ["analyze", "--preset", "var6-b100-short", "--format", fmt]
        code, summary, _ = run(capsys, *argv, "--out", str(tmp_path / "artifact"))
        assert code == 0
        want = summary + "\n" + (tmp_path / "artifact").read_text()
        assert run(capsys, *argv) == (0, want, "")
        assert run(capsys, *argv, "--out", "-") == (0, want, "")

    def test_summary_with_wide_labels(self, tmp_path, capsys):
        # a label longer than 11 characters widens every column to len + 1
        data = np.cumsum(np.random.default_rng(7).standard_normal((3, 400)), axis=1)
        path = tmp_path / "wide.csv"
        with open(path, "w") as fh:
            write_csv_panel(TimeSeriesPanel(data=data, labels=("a_long_label", "y", "z")), fh)
        code, out, _ = run(capsys, "analyze", "--csv", str(path), "--out", str(tmp_path / "g"))
        assert code == 0
        assert out == WIDE_SUMMARY

    @pytest.mark.parametrize("dt", ["1e-200", "1", "1e200"])
    def test_summary_flows_keep_their_columns_and_values(self, var6_csv, tmp_path, capsys, dt):
        code, out, _ = run(capsys, "analyze", "--csv", str(var6_csv), "--dt", dt,
                           "--out", str(tmp_path / "g"))
        assert code == 0
        T = estimate_flows(read_csv_panel(str(var6_csv), dt=float(dt))).T
        rows = out.splitlines()[2:8]
        for j, row in enumerate(rows):
            fields = row.split()
            assert len(fields) == 7
            for i, cell in enumerate(fields[1:]):
                if i != j:
                    assert float(cell.rstrip("*")) == pytest.approx(T[j, i], rel=1e-2, abs=0.0)


@st_.composite
def analyze_csv_inputs(draw):
    """CSV bytes of a small panel, with its --k, --dt and --alpha option text.

    Each column is a random walk, a constant, or a near-copy of the column
    before it, times a scale from 1e-320 to 1e310; the bytes may then be
    cut, spliced with random bytes, given a ragged row or a repeated label.
    """
    d = draw(st_.integers(1, 4))
    n = draw(st_.sampled_from(range(d + 1, 41)))
    rng = np.random.default_rng(draw(st_.integers(0, 2**32 - 1)))
    data = np.cumsum(rng.standard_normal((d, n)), axis=1)
    for i in range(d):
        kind = draw(st_.sampled_from(["walk"] * 4 + ["constant", "near-copy"]))
        if kind == "constant":
            data[i] = data[i, 0]
        elif kind == "near-copy" and i:
            data[i] = data[i - 1] * (1.0 + 1e-14 * rng.standard_normal(n))
    with np.errstate(over="ignore", under="ignore"):
        data *= np.power(10.0, draw(st_.floats(-320.0, 310.0)))
        data *= np.power(10.0, draw(st_.lists(st_.floats(-20.0, 20.0), min_size=d,
                                              max_size=d)))[:, None]
    lines = ["t," + ",".join(f"X{i}" for i in range(d))]
    lines += [f"{t}," + ",".join(map(repr, row)) for t, row in enumerate(data.T.tolist())]
    mutation = draw(st_.sampled_from(["none"] * 5 + ["splice", "ragged", "repeated-label"]))
    if mutation == "ragged":
        lines[draw(st_.integers(1, n))] += ",0"
    elif mutation == "repeated-label":
        lines[0] = lines[0].replace("X1", "X0")
    content = ("\n".join(lines) + "\n").encode()
    if mutation == "splice":
        at = draw(st_.integers(0, len(content)))
        cut = draw(st_.integers(0, 8))
        content = content[:at] + draw(st_.binary(max_size=8)) + content[at + cut:]
    k = draw(st_.one_of(st_.integers(1, 3), st_.integers(-2, n + 2)))
    dt = draw(st_.one_of(
        st_.floats(-330.0, 310.0).map(lambda e: 10.0 ** e if e < 308.25 else float("inf")),
        st_.sampled_from([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1.0])))
    alpha = draw(st_.one_of(
        st_.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st_.sampled_from([0.0, 1.0, float("nan"), 5e-324, 0.9999999999999998,
                          0.9999999999999999])))
    return content, [f"--k={k}", f"--dt={dt!r}", f"--alpha={alpha!r}"]


def walk_csv(scale=1.0) -> bytes:
    """CSV bytes of two random walks of 12 steps, times ``scale``."""
    fh = io.StringIO()
    data = np.cumsum(np.random.default_rng(1).standard_normal((2, 12)), axis=1)
    write_csv_panel(TimeSeriesPanel(data=data * scale), fh)
    return fh.getvalue().encode()


class TestAnalyzeFuzz:
    @given(analyze_csv_inputs())
    # k dt = inf: every rate underflowed to 0, and build_graph divided 0 by 0
    @example((walk_csv(), ["--k=2", "--dt=1.7976931348623157e+308", "--alpha=0.9"]))
    # and g overflowed as well: inf / inf in the conversion to the input's units
    @example((walk_csv(1e160), ["--k=2", "--dt=1.7976931348623157e+308", "--alpha=0.5"]))
    # (1 + alpha) / 2 rounded to 1, and NormalDist's message did not name alpha
    @example((walk_csv(), ["--k=1", "--dt=1.0", "--alpha=0.9999999999999999"]))
    @settings(max_examples=150, deadline=None)
    def test_every_failure_is_one_error_line_and_a_documented_exit_code(
            self, tmp_path_factory, case):
        # Any warning or exception other than the documented errors fails
        # this test: the suite turns warnings into errors.
        content, options = case
        path = tmp_path_factory.getbasetemp() / "fuzz.csv"
        path.write_bytes(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", "--csv", str(path), *options])
        assert code in (0, 2, 3, 4, 5)
        if code == 0:
            assert err.getvalue() == ""
        else:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


class TestSweep:
    def test_single_point_table(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--eps-from", "0.1", "--eps-to", "0.1",
                         "--steps", "1", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 2
        row = lines[1].split(",")
        assert row[0] == "0.1"
        t_xy = float(row[1])
        t_yx = float(row[2])
        assert t_xy > 10.0 * t_yx
        assert row[7] == "1"  # sig_X_to_Y
        # every value cell is the FlowMatrix entry between the named oscillators
        matrix = estimate_flows(simulate_rossler(RosslerSpec(seed=0, epsilon=0.1)), k=2)
        rows = dict(zip("XYZ", ROSSLER_OSCILLATOR_ROWS))
        for column, cell in zip(lines[0].split(",")[1:], row[1:]):
            kind, src, _, dst = column.split("_")
            pair = rows[src], rows[dst]
            if kind == "T":
                assert cell == repr(abs(float(matrix.T[pair])))
            else:
                assert cell == str(int(matrix.significant[pair]))

    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"),
         "error: Unable to allocate 7.28 TiB for an array with shape (1000000000000,)\n"),
        (MemoryError(), "error: out of memory\n"),
    ], ids=["numpy", "bare"])
    def test_memory_error_is_one_error_line(self, capsys, monkeypatch, exc, line):
        # --steps 1000000000000 asks linspace for 8 TB; no real allocation is tried here
        def linspace(*args):
            raise exc

        monkeypatch.setattr(np, "linspace", linspace)
        code, out, err = run(capsys, "sweep", "--eps-from", "0", "--eps-to", "0.1",
                             "--steps", "1000000000000")
        assert (code, out, err) == (2, "", line)

    def test_three_point_grid(self, capsys):
        code, out, _ = run(capsys, "sweep", "--eps-from", "0", "--eps-to", "0.1",
                           "--steps", "3", "--seed", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == SWEEP_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == ["0.0", "0.05", "0.1"]
        src, dst = np.take(ROSSLER_OSCILLATOR_ROWS, SWEEP_PAIRS).T
        for eps, row in zip([0.0, 0.05, 0.1], rows):
            matrix = estimate_flows(*preset_panel("rossler", seed=1, epsilon=eps))
            assert row[1:7] == [repr(abs(t)) for t in matrix.T[src, dst].tolist()]
            assert row[7:] == [str(int(s)) for s in matrix.significant[src, dst]]


# Stand-ins in CLI_FAILURES for the var6_csv file and for a path beside it
# that does not exist.
CSV, ABSENT = "<var6.csv>", "<absent.csv>"
PRESETS = "rossler, var6-b1, var6-b100, var6-b100-short"
NOT_FINITE = "--eps-from, --eps-to and their difference must be finite, got"
STRIDE = "stride k must be an integer in [1, 493), got 493"

# Failures whose whole output is one line on stderr, from arguments that need
# no file made for the case: (id, argv, exit status, the line after "error: ").
CLI_FAILURES = [
    *[(f"alpha-{alpha}", ["analyze", "--preset", "var6-b100-short", "--alpha", alpha], 2,
       f"alpha must be in (0, 1 - 2**-52], got {shown}")
      for alpha, shown in [("-0.5", "-0.5"), ("0", "0.0"), ("1", "1.0"), ("1.5", "1.5")]],
    # dt is checked before the file is opened: an absent file gets the same line
    *[(f"dt-{dt}-{name}", ["analyze", "--csv", path, "--dt", dt], 2,
       f"dt must be positive and finite, got {shown}")
      for dt, shown in [("inf", "inf"), ("nan", "nan"), ("0", "0.0")]
      for name, path in [("csv", CSV), ("absent", ABSENT)]],
    ("dt-with-preset", ["analyze", "--preset", "var6-b1", "--dt", "0.5"], 2,
     "--dt applies to --csv input; a preset sets its own dt"),
    *[(f"{option[2:]}-with-csv", ["analyze", "--csv", CSV, option, value], 2,
       "--seed and --epsilon apply to presets, not to --csv input")
      for option, value in [("--seed", "7"), ("--epsilon", "0.3")]],
    # N = 500 rows of d = 6 series: k = 493 leaves an exact fit
    ("k-493-csv", ["analyze", "--csv", CSV, "--k", "493"], 2, STRIDE),
    ("k-493-preset", ["analyze", "--preset", "var6-b100-short", "--k", "493"], 2, STRIDE),
    ("zero-steps", ["sweep", "--eps-from", "0", "--eps-to", "1", "--steps", "0"], 2,
     "--steps must be an integer >= 1, got 0"),
    *[(f"eps-from-{value}", ["sweep", f"--eps-from={value}", "--eps-to=0.1", "--steps", "2"], 2,
       f"{NOT_FINITE} {value} and 0.1") for value in ["inf", "-inf", "nan"]],
    *[(f"eps-to-{value}", ["sweep", "--eps-from=0", f"--eps-to={value}", "--steps", "2"], 2,
       f"{NOT_FINITE} 0.0 and {value}") for value in ["inf", "-inf", "nan"]],
    # finite ends whose difference overflows: linspace would warn and yield NaN
    ("eps-span-overflows", ["sweep", "--eps-from=-1e308", "--eps-to=1e308", "--steps", "3"], 2,
     f"{NOT_FINITE} -1e+308 and 1e+308"),
    *[(f"{argv[0]}-negative-seed", [*argv, "--seed", "-1"], 2,
       "seed must be an integer >= 0, got -1")
      for argv in [["generate", "var6-b1"], ["analyze", "--preset", "var6-b1"],
                   ["sweep", "--eps-from", "0", "--eps-to", "1", "--steps", "1"]]],
    *[(f"{argv[0]}-nan-epsilon", [*argv, "--epsilon", "nan"], 2,
       "epsilon must be finite, got nan")
      for argv in [["generate", "rossler"], ["analyze", "--preset", "rossler"]]],
    ("analyze-epsilon-not-rossler", ["analyze", "--preset", "var6-b1", "--epsilon", "0.1"], 2,
     "--epsilon applies only to the rossler preset"),
    ("generate-epsilon-not-rossler", ["generate", "var6-b1", "--epsilon", "0.1"], 2,
     "--epsilon applies only to the rossler preset"),
    ("analyze-unknown-preset", ["analyze", "--preset", "nope"], 2,
     f"unknown preset 'nope'; available: {PRESETS}"),
    ("generate-unknown-preset", ["generate", "nope"], 2,
     f"unknown preset 'nope'; available: {PRESETS}"),
    # a strong negative coupling drives the slaves off to infinity (DivergenceError)
    *[(f"{argv[0]}-diverging-rossler", [*argv, "--seed", "0", "--epsilon", "-50"], 6,
       "Rossler trajectory diverged at step 182 (|state| > 1e+06)")
      for argv in [["generate", "rossler"], ["analyze", "--preset", "rossler"]]],
]


@pytest.mark.parametrize("argv, status, line", [row[1:] for row in CLI_FAILURES],
                         ids=[row[0] for row in CLI_FAILURES])
def test_cli_failure_is_one_error_line(capsys, var6_csv, argv, status, line):
    paths = {CSV: str(var6_csv), ABSENT: str(var6_csv.with_name("absent.csv"))}
    assert run(capsys, *(paths.get(arg, arg) for arg in argv)) == (status, "", f"error: {line}\n")

@pytest.mark.parametrize("argv", [
    ["generate", "var6-b1"],
    ["analyze", "--preset", "var6-b1"],
    ["sweep", "--eps-from", "0", "--eps-to", "1", "--steps", "1"],
], ids=["generate", "analyze", "sweep"])
def test_non_numeric_seed_rejected_at_parse_time(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "x"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --seed: invalid int value: 'x'\n")


def src_env():
    """The environment with this checkout's infoflow first on PYTHONPATH."""
    import infoflow

    src = os.path.dirname(os.path.dirname(infoflow.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
class TestCsvPipes:
    """--csv reads its file once, so a pipe or FIFO gives what a regular file gives."""

    ANALYZE = [sys.executable, "-m", "infoflow.cli", "analyze", "--format", "dot", "--csv"]

    def analyze(self, path, stdin=b""):
        # the timeout fails a reader that waits for a second open
        return subprocess.run([*self.ANALYZE, str(path)], input=stdin, capture_output=True,
                              timeout=30, env=src_env())

    def regular_file(self, tmp_path, capsys):
        path = tmp_path / "panel.csv"
        assert run(capsys, "generate", "var6-b100-short", "--out", str(path))[0] == 0
        proc = self.analyze(path)
        assert proc.returncode == 0
        return path.read_bytes(), proc.stdout

    def test_stdin_pipe(self, tmp_path, capsys):
        content, want = self.regular_file(tmp_path, capsys)
        proc = self.analyze("/dev/stdin", stdin=content)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == want

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
    def test_named_fifo(self, tmp_path, capsys):
        content, want = self.regular_file(tmp_path, capsys)
        fifo = tmp_path / "panel.fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as fh:  # blocks until the reader opens
                fh.write(content)

        # a daemon, so that a reader that never opens the FIFO cannot hang the run
        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        proc = self.analyze(fifo)
        writer.join(timeout=30)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == want

    def test_stdin_pipe_not_utf8(self):
        for stdin, want in [
            (b"t,a,b\n0,1,2\n1,\xff,3\n", b"not UTF-8 text (byte 14)"),
            # the first defect in file order: the bad cell of record 3, not
            # the ragged record 4 nor the bad byte of record 5
            (b"t,a,b\n0,1,2\n1,x,3\n2,1\n3,\xff,4\n", b"row 3, column 2: non-numeric cell 'x'"),
        ]:
            proc = self.analyze("/dev/stdin", stdin=stdin)
            assert (proc.returncode, proc.stdout) == (2, b"")
            assert proc.stderr == b"error: /dev/stdin: " + want + b"\n"


@pytest.mark.parametrize("argv", [
    ["analyze", "--preset", "var6-b100-short"],
    ["generate", "var6-b1"],
], ids=["analyze", "generate"])
def test_closed_stdout_exits_1_quietly(tmp_path, argv):
    # the read end closes while the child is still importing, before it writes
    with open(tmp_path / "err", "w+") as err:
        proc = subprocess.Popen([sys.executable, "-m", "infoflow.cli", *argv],
                                stdout=subprocess.PIPE, stderr=err, env=src_env())
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
        err.seek(0)
        assert err.read() == ""


def test_stdout_closed_after_one_line_exits_1_quietly():
    # `generate var6-b1 | head -1`: the reader takes one line, then closes the pipe
    with subprocess.Popen([sys.executable, "-m", "infoflow.cli", "generate", "var6-b1"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env()) as proc:
        assert proc.stdout.readline() == b"t,X1,X2,X3,X4,X5,X6\n"
        proc.stdout.close()
        assert proc.wait(timeout=30) == 1
        assert proc.stderr.read() == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv, name", [
    (["analyze", "--preset", "var6-b100-short"], b"<stdout>"),
    (["generate", "var6-b100-short"], b"<stdout>"),
    (["generate", "var6-b100-short", "--out", "/dev/full"], b"/dev/full"),
], ids=["analyze", "generate", "generate-out"])
def test_full_stdout_is_one_error_line(argv, name):
    # every write to /dev/full fails with ENOSPC, as stdout and as --out
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "infoflow.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, env=src_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (2, b"error: " + name + b": No space left on device\n")


class TestImport:
    def test_import_does_not_load_scipy(self):
        code = "import sys, infoflow; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                             text=True, timeout=60, check=True).stdout
        assert out.strip() == "False"
