import json
import os
import subprocess
import sys

import numpy as np
import pytest

from infoflow import TimeSeriesPanel
from infoflow.cli import main, read_csv_panel, write_csv_panel


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
