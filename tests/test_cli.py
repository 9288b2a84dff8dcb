import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from infoflow import ParseError, TimeSeriesPanel
from infoflow.cli import BLOCK_ROWS, main, read_csv_panel, write_csv_panel
from oracles import reference_read_rows


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_stdout_default(self, capsys):
        code, out, _ = run(capsys, "generate", "var6-b100-short")
        assert code == 0
        assert out.splitlines()[0].startswith("t,")
        assert len(out.splitlines()) == 501


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

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,a,b\n0,1.0,2.0\n1,3.0\n")
        from infoflow import ParseError

        with pytest.raises(ParseError, match="row 3"):
            read_csv_panel(str(path))

    def test_non_numeric_cell_names_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,a,b\n0,1.0,2.0\n1,oops,4.0\n2,5.0,6.0\n")
        from infoflow import ParseError

        with pytest.raises(ParseError, match="row 3, column 2"):
            read_csv_panel(str(path))

    def test_nan_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,a,b\n0,1.0,2.0\n1,nan,4.0\n2,5.0,6.0\n")
        from infoflow import ParseError

        with pytest.raises(ParseError, match="non-finite"):
            read_csv_panel(str(path))

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "analyze", "--csv", str(tmp_path / "nope.csv"))
        assert code == 2
        assert "error:" in err


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
SECOND_BLOCK = BLOCK_ROWS + 3


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
    ("utf8-bom", b"\xef\xbb\xbf" + csv_text().encode()),
    ("non-numeric-time", csv_text([f"t{i},{i}.5,{i * i}" for i in range(5)]).encode()),
    ("trailing-commas", csv_text([r + "," for r in ROWS]).encode()),
    ("inf", csv_text(ROWS[:3] + ["3,inf,2.0"] + ROWS[4:]).encode()),
    ("nan", csv_text(ROWS[:3] + ["3,1.0,nan"] + ROWS[4:]).encode()),
    ("header-only", b"t,a,b\n"),
    ("two-columns", csv_text([r.rsplit(",", 1)[0] for r in ROWS], header="t,a").encode()),
    ("extra-cell", csv_text(ROWS[:3] + ["3,1.0,2.0,4.0"] + ROWS[4:]).encode()),
    ("extra-column", csv_text([r + ",1.0" for r in ROWS]).encode()),
    ("huge-header-cell", csv_text(header="t,a," + "b" * HUGE_CELL).encode()),
    ("huge-quoted-cell", csv_text(ROWS[:1] + [f'1,2.0,"{"0" * HUGE_CELL}"'] + ROWS[2:]).encode()),
    ("huge-unquoted-number", csv_text(block_rows(25, LONG_NUMBER)).encode()),
    ("huge-unquoted-number-quoted-time",
     csv_text(block_rows(25, {0: '"0",0.5,0', **LONG_NUMBER})).encode()),
    ("single-cell-rows", csv_text([str(i) for i in range(5)]).encode()),
    ("blank-run-longer-than-block",
     csv_text(ROWS[:2] + [""] * (BLOCK_ROWS + 5) + ROWS[2:]).encode()),
    ("blank-lines-then-bad-cell",
     csv_text(ROWS[:2] + ["", ""] + ["2,oops,1"] + ROWS[3:]).encode()),
    ("blank-run-then-bad-cell",
     csv_text(ROWS[:2] + [""] * (BLOCK_ROWS + 5) + ["2,1,oops"] + ROWS[3:]).encode()),
    ("bad-cell-second-block",
     csv_text(block_rows(BLOCK_ROWS + 20, {SECOND_BLOCK: "x,1.0,oops"})).encode()),
    ("ragged-row-second-block",
     csv_text(block_rows(BLOCK_ROWS + 20, {SECOND_BLOCK: "x,1.0"})).encode()),
    ("minus-inf-second-block",
     csv_text(block_rows(BLOCK_ROWS + 20, {SECOND_BLOCK: "x,-inf,1"})).encode()),
    ("bad-cell-then-huge-quoted-cell",
     csv_text(block_rows(20, {5: "5,oops,1", 9: "9," + QUOTED_HUGE})).encode()),
    ("huge-quoted-cell-then-bad-cell",
     csv_text(block_rows(20, {5: "5," + QUOTED_HUGE, 9: "9,oops,1"})).encode()),
    ("one-short-of-a-block", csv_text(block_rows(BLOCK_ROWS - 1)).encode()),
    ("one-block", csv_text(block_rows(BLOCK_ROWS)).encode()),
    ("two-blocks", csv_text(block_rows(2 * BLOCK_ROWS)).encode()),
]


def read_panel(path):
    panel = read_csv_panel(path)
    return panel.labels, panel.data


def read_outcome(read, path):
    """(labels, data bits) from a reader, or its ParseError text."""
    try:
        labels, data = read(path)
    except ParseError as exc:
        return str(exc)
    return labels, np.asarray(data).view(np.uint64).tolist()


def cast_outcome(cast, cell):
    """The bits of ``cast(cell)`` as a float64, or None if it raises ValueError."""
    try:
        return np.asarray(cast(cell), dtype=float).reshape(()).view(np.uint64).item()
    except ValueError:
        return None


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
        assert read_outcome(read_panel, path) == read_outcome(reference_read_rows, path)

    @given(st_.one_of(st_.text(), numeric_text()))
    @settings(max_examples=500, deadline=None)
    def test_array_cast_reads_cells_as_float_does(self, cell):
        # The reader casts whole blocks with numpy and accepts a file exactly
        # when float() accepts every value cell: the two casts must agree.
        as_array = cast_outcome(lambda c: np.array([[c]], dtype=float), cell)
        assert as_array == cast_outcome(float, cell)

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


class TestCsvWriter:
    def test_bytes_match_csv_writer_reference(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((3, 2 * 4096 + 5))
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


class TestAnalyze:
    def test_preset_json_artifact(self, tmp_path, capsys):
        out = tmp_path / "graph.json"
        code, stdout, _ = run(capsys, "analyze", "--preset", "var6-b1",
                              "--seed", "5", "--out", str(out))
        assert code == 0
        assert "Information flow" in stdout
        doc = json.loads(out.read_text())
        assert doc["meta"]["d"] == 6
        assert doc["meta"]["k"] == 1
        assert len(doc["edges"]) == 7

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

    def test_dot_format(self, tmp_path, capsys):
        out = tmp_path / "g.dot"
        code, _, _ = run(capsys, "analyze", "--preset", "var6-b1", "--seed", "5",
                         "--format", "dot", "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert text.startswith("digraph")
        assert text.count("->") == 7

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
        code, _, err = run(capsys, "analyze", "--csv", str(path))
        assert code == 4
        assert "error:" in err

    def test_ridge_on_duplicate_columns_is_singular_information(self, tmp_path, capsys):
        # the ridge regularizes the coefficients, not their information matrix
        x = np.cumsum(np.random.default_rng(0).standard_normal(100))
        path = tmp_path / "dup.csv"
        with open(path, "w") as fh:
            write_csv_panel(TimeSeriesPanel(data=np.vstack([x, x])), fh)
        code, _, err = run(capsys, "analyze", "--csv", str(path), "--ridge", "1e-3")
        assert code == 5
        assert "error:" in err

    @pytest.mark.parametrize("alpha", ["-0.5", "0", "1", "1.5"])
    def test_alpha_outside_unit_interval_exit_code(self, capsys, alpha):
        code, _, err = run(capsys, "analyze", "--preset", "var6-b100-short",
                           "--alpha", alpha)
        assert code == 2
        assert err == f"error: alpha must be in (0, 1), got {float(alpha)}\n"

    @pytest.fixture
    def var6_csv(self, tmp_path, capsys):
        path = tmp_path / "var6.csv"
        run(capsys, "generate", "var6-b100-short", "--out", str(path))
        return path

    @pytest.mark.parametrize("dt", ["inf", "nan", "0"])
    def test_invalid_dt_exit_code(self, var6_csv, capsys, dt):
        code, _, err = run(capsys, "analyze", "--csv", str(var6_csv), "--dt", dt)
        assert code == 2
        assert err == f"error: {var6_csv}: dt must be positive and finite, got {float(dt)}\n"

    @pytest.mark.parametrize("ridge", ["inf", "nan", "-1"])
    def test_invalid_ridge_exit_code(self, var6_csv, capsys, ridge):
        code, _, err = run(capsys, "analyze", "--csv", str(var6_csv), "--ridge", ridge)
        assert code == 2
        assert err == f"error: ridge must be finite and >= 0, got {float(ridge)}\n"

    @pytest.mark.parametrize("ridge", ["1e200", "1e308"])
    def test_ridge_too_large_to_square_is_singular_information(self, var6_csv, capsys, ridge):
        # ridge**2 overflows; the rank-one terms must not
        code, _, err = run(capsys, "analyze", "--csv", str(var6_csv), "--ridge", ridge)
        assert code == 5
        assert err == ("error: target 'X1': information matrix at the ridge "
                       "estimate is not positive definite\n")

    def test_bad_k_requires_override(self, tmp_path, capsys):
        code, _, err = run(capsys, "analyze", "--preset", "var6-b100-short",
                           "--k", "3")
        assert code == 2
        assert "allow-any-k" in err
        code, _, _ = run(capsys, "analyze", "--preset", "var6-b100-short",
                         "--k", "3", "--allow-any-k")
        assert code == 0

    def test_determinism_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, "analyze", "--preset", "var6-b100-short", "--out", str(a))
        run(capsys, "analyze", "--preset", "var6-b100-short", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestSweep:
    def test_single_point_table(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--eps-from", "0.1", "--eps-to", "0.1",
                         "--steps", "1", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("epsilon,T_X_to_Y,")
        assert len(lines) == 2
        row = lines[1].split(",")
        assert float(row[0]) == 0.1
        t_xy = float(row[1])
        t_yx = float(row[2])
        assert t_xy > 10.0 * t_yx
        assert row[7] == "1"  # sig_X_to_Y

    def test_zero_steps_rejected(self, capsys):
        code, _, err = run(capsys, "sweep", "--eps-from", "0", "--eps-to", "1",
                           "--steps", "0")
        assert code == 2
        assert "grid" in err


class TestImport:
    def test_import_does_not_load_scipy(self):
        import infoflow

        src = os.path.dirname(os.path.dirname(infoflow.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        code = "import sys, infoflow; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True).stdout
        assert out.strip() == "False"
