import re

import numpy as np
import pytest

from infoflow import (
    RosslerSpec,
    TimeSeriesPanel,
    estimate_flows,
    reconstruct,
    simulate_rossler,
    simulate_var,
    to_json,
)
from infoflow.cli import read_csv_panel, write_csv_panel

from conftest import random_walk_panel, var6_spec


def panel_from_rows(rows, dt=1.0):
    return TimeSeriesPanel(data=np.array(rows, dtype=float), dt=dt)


class TestPanelValidation:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            panel_from_rows([[0, 1, np.nan, 3, 4], [1, 2, 3, 4, 5]])
        # an integer beyond float64 too
        with pytest.raises(ValueError, match="^panel data has non-finite entries$"):
            TimeSeriesPanel(data=[[0, 1, 10**400, 3, 4], [1, 2, 3, 4, 5]])

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError, match="dt"):
            panel_from_rows([[0, 1, 2, 3, 4], [1, 2, 3, 4, 5]], dt=0.0)

    @pytest.mark.parametrize("dt", [True, np.True_, "0.1", None])
    def test_rejects_a_bool_dt(self, dt):
        # nor any other non-number: each is named, not left to fail a comparison
        shown = "True" if isinstance(dt, (bool, np.bool_)) else repr(dt)
        with pytest.raises(ValueError, match=f"^dt must be a number, got {re.escape(shown)}$"):
            panel_from_rows([[0, 1, 2, 3, 4], [1, 2, 3, 4, 5]], dt=dt)

    @pytest.mark.parametrize("dt", [True, np.True_, "0.1", None,
                                    0.0, -1.0, float("nan"), float("inf"),
                                    pytest.param(10**400, id="10**400"),
                                    pytest.param(10**5000, id="10**5000")])
    def test_rossler_spec_gives_the_panel_dt_message(self, dt):
        with pytest.raises(ValueError) as panel_error:
            panel_from_rows([[0, 1, 2, 3, 4], [1, 2, 3, 4, 5]], dt=dt)
        with pytest.raises(ValueError) as spec_error:
            RosslerSpec(dt=dt)
        assert str(spec_error.value) == str(panel_error.value)

    def test_rejects_too_short_series(self):
        with pytest.raises(ValueError, match="N >= d"):
            panel_from_rows([[0, 1, 2, 3], [1, 2, 3, 4]])

    def test_default_labels(self):
        p = panel_from_rows([[0, 1, 2, 3, 4], [1, 2, 3, 4, 5]])
        assert p.labels == ("X1", "X2")

    def test_data_is_read_only(self):
        p = panel_from_rows([[0, 1, 2, 3, 4], [1, 2, 3, 4, 5]])
        with pytest.raises(ValueError):
            p.data[0, 0] = 99.0

    def test_rejects_duplicate_labels_naming_the_first(self):
        data = np.arange(28.0).reshape(4, 7) ** 2
        with pytest.raises(ValueError, match="duplicate label 'b'"):
            TimeSeriesPanel(data=data, labels=("a", "b", "b", "a"))

    def test_rejects_non_string_labels_naming_the_first(self):
        data = np.arange(21.0).reshape(3, 7) ** 2
        with pytest.raises(ValueError, match="label 2 is not a string"):
            TimeSeriesPanel(data=data, labels=("a", 2, 3))

    def test_rejects_one_string_as_labels(self):
        data = np.arange(10.0).reshape(2, 5) ** 2
        with pytest.raises(ValueError,
                           match=r"^labels must be a sequence of strings, got 'ab'$"):
            TimeSeriesPanel(data=data, labels="ab")

    @pytest.mark.parametrize("data, message", [
        (np.arange(7.0), "panel data must be 2-D (d, N), got shape (7,)"),
        (np.empty((0, 7)), "panel needs at least one variable row"),
        # float() takes text and bools, and numpy drops an imaginary part with
        # a warning, but none of them is a real number
        ([["1.5", "2", "3", "4", "5"], [1, 2, 3, 4, 5]], "panel data has non-numeric entries"),
        (np.ones((2, 5), dtype=bool), "panel data has non-numeric entries"),
        (np.arange(10.0).reshape(2, 5) + 1j, "panel data has non-numeric entries"),
        ([[1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0]], "panel data has non-numeric entries"),
        # a list of row arrays gets the same messages
        ([np.ones(5), np.ones(5, dtype=bool)], "panel data has non-numeric entries"),
        ([np.ones(5), np.ones(3)], "panel data has non-numeric entries"),
        ([np.ones(5), np.array(["1", "2", "3", "4", "5"])], "panel data has non-numeric entries"),
        ([np.ones(5), np.ones(5) + 1j], "panel data has non-numeric entries"),
        ([np.ones(5), np.array([1.0, None, 3.0, 4.0, 5.0])],
         "panel data has non-numeric entries"),
        ([np.ones(5), np.array([1.0, np.inf, 3.0, 4.0, 5.0])], "panel data has non-finite entries"),
    ], ids=["1-D", "zero-rows", "text", "bool-array", "complex-array", "ragged",
            "rows-bool-array", "rows-unequal", "rows-str-array", "rows-complex-array",
            "rows-object-none", "rows-inf"])
    def test_rejects_data_without_rows_of_series(self, data, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TimeSeriesPanel(data=data)

    def test_rejects_a_label_count_other_than_d(self):
        with pytest.raises(ValueError, match="^3 labels for 2 variables$"):
            TimeSeriesPanel(data=np.arange(10.0).reshape(2, 5) ** 2, labels=("a", "b", "c"))

    def test_numpy_labels_give_the_tuple_graph(self):
        panel = simulate_var(var6_spec(b=1.0, N=500, seed=0))
        names = ("a", "b", "c", "d", "e", "f")
        from_array = TimeSeriesPanel(data=panel.data, labels=np.array(names))
        from_tuple = TimeSeriesPanel(data=panel.data, labels=names)
        assert from_array.labels == names
        assert all(type(label) is str for label in from_array.labels)
        assert to_json(reconstruct(from_array)) == to_json(reconstruct(from_tuple))

    def test_numpy_label_messages_print_plain_strings(self):
        data = np.arange(21.0).reshape(3, 7) ** 2
        with pytest.raises(ValueError, match="^duplicate label 'a'$"):
            TimeSeriesPanel(data=data, labels=np.array(["a", "b", "a"]))


def assert_series_major(panel):
    assert panel.data.flags.c_contiguous
    assert not panel.data.flags.writeable


class TestPanelLayout:
    @pytest.mark.parametrize("layout", ["C", "F", "strided", "object", "list-of-rows"])
    def test_own_c_contiguous_read_only_copy(self, rng, layout):
        base = rng.standard_normal((3, 40))
        data = {
            "C": base.copy(),
            "F": np.asfortranarray(base),
            "strided": np.repeat(base, 2, axis=1)[:, ::2],
            "object": base.astype(object),
            "list-of-rows": list(base),
        }[layout]
        p = TimeSeriesPanel(data=data)
        assert_series_major(p)
        assert p.data.tobytes() == base.tobytes()
        assert not np.shares_memory(p.data, data)

    def test_simulate_var_panel(self):
        assert_series_major(simulate_var(var6_spec(N=200)))

    def test_simulate_rossler_panel(self):
        assert_series_major(simulate_rossler(RosslerSpec(N_total=300, burn_in=100)))

    def test_read_csv_panel(self, rng, tmp_path):
        path = tmp_path / "p.csv"
        with open(path, "w") as fh:
            write_csv_panel(random_walk_panel(rng, d=3, n=50), fh)
        assert_series_major(read_csv_panel(str(path)))


class TestFitRow:
    def test_scalar_least_squares_identity(self, rng):
        # one series: a_11 is the slope of the forward difference on x,
        # sum(xc * dc) / sum(xc * xc) over the N - 1 aligned samples
        x = np.cumsum(rng.standard_normal(200))
        xc = x[:-1] - x[:-1].mean()
        dc = np.diff(x) - np.diff(x).mean()
        want = np.dot(xc, dc) / np.dot(xc, xc)
        T = estimate_flows(TimeSeriesPanel(data=x[None, :])).T
        assert T[0, 0] == pytest.approx(want, rel=1e-12)
