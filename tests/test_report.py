"""Tests for the ASCII table/plot and CSV reporting layer."""

from __future__ import annotations

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.report.figures import ascii_plot, series_to_csv, write_csv
from repro.report.tables import ascii_table, format_float


class TestTables:
    def test_basic_table(self):
        table = ascii_table(["name", "value"], [["alpha", 1], ["beta", 2.5]])
        assert "| name  | value |" in table
        assert "alpha" in table and "2.50" in table

    def test_title_included(self):
        table = ascii_table(["a"], [["x"]], title="Table 9")
        assert table.startswith("Table 9")

    def test_numeric_right_alignment(self):
        table = ascii_table(["n"], [[1], [100]])
        lines = table.splitlines()
        assert "|   1 |" in lines[-3]

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            ascii_table(["a", "b"], [["only-one"]])

    def test_format_float(self):
        assert format_float(3.0) == "3"
        assert format_float(3.14159) == "3.14"
        assert format_float(3.14159, digits=4) == "3.1416"


class TestPlots:
    def test_basic_plot_renders(self):
        chart = ascii_plot(
            {"linear": ([1, 2, 3], [1, 2, 3])}, width=20, height=6
        )
        assert "[1] linear" in chart
        assert "|" in chart

    def test_log_axes_drop_nonpositive(self):
        chart = ascii_plot(
            {"s": ([0, 1, 10], [0.0, 0.5, 1.0])},
            log_x=True,
            width=20,
            height=6,
        )
        assert "[1] s" in chart

    def test_multiple_series_glyphs(self):
        chart = ascii_plot(
            {"a": ([1, 2], [1, 2]), "b": ([1, 2], [2, 1])}, width=16, height=5
        )
        assert "[1] a" in chart and "[2] b" in chart
        assert "1" in chart and "2" in chart

    def test_title_and_labels(self):
        chart = ascii_plot(
            {"s": ([1], [1])}, title="My Chart", x_label="t", y_label="cov"
        )
        assert chart.startswith("My Chart")
        assert "t vs cov" in chart

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_plot({})
        with pytest.raises(ValueError):
            ascii_plot({"s": ([1], [1])}, width=2)
        with pytest.raises(ValueError):
            ascii_plot({"s": ([1, 2], [1])})
        with pytest.raises(ValueError):
            ascii_plot({"s": ([0], [1])}, log_x=True)  # empty after filter

    def test_constant_series_does_not_crash(self):
        chart = ascii_plot({"flat": ([1, 2, 3], [5, 5, 5])}, width=12, height=4)
        assert "flat" in chart


_SPECIAL_FLOATS = st.sampled_from(
    [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -5e-324,
     2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308, 1e-308]
)
_FLOATS = st.floats(allow_subnormal=True) | _SPECIAL_FLOATS
_INTS = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_COLUMNS = st.one_of(
    st.lists(_FLOATS, max_size=8),
    st.lists(_FLOATS, max_size=8).map(lambda v: np.array(v, dtype=np.float64)),
    st.lists(st.floats(width=32, allow_subnormal=True), max_size=8).map(
        lambda v: np.array(v, dtype=np.float32)
    ),
    st.lists(_INTS, max_size=8),
    st.lists(_INTS, max_size=8).map(lambda v: np.array(v, dtype=np.int64)),
)


class TestCsv:
    def test_series_to_csv_long_format(self):
        rows = series_to_csv({"s": ([1, 2], [3.0, 4.0])})
        assert rows[0] == ["series", "x", "y"]
        assert rows[1] == ["s", 1.0, 3.0]
        assert len(rows) == 3

    def test_write_csv_roundtrip(self, tmp_path):
        path = write_csv(
            tmp_path / "out" / "series.csv",
            {"curve": (np.array([1.0, 10.0]), np.array([0.1, 0.9]))},
        )
        assert path.exists()
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["series", "x", "y"]
        assert rows[1] == ["curve", "1.0", "0.1"]

    @pytest.mark.parametrize(
        "series",
        [
            {},
            {'comma, "quote"\nnewline': ([1.0, 2.0], [3.0, 4.0])},
            {"ints": ([1, 2, 3], np.array([4, 5, 6], dtype=np.int64))},
            {
                "float32": (
                    np.arange(5, dtype=np.float32) / 3,
                    np.linspace(0, 1, 5, dtype=np.float32),
                )
            },
            {"list": ([0.1, 2, 3.5], [1e-5, 2**60, -0.0])},
            {"special": (np.array([np.nan, np.inf, 1.0]), [float("nan"), -np.inf, 2.0])},
            {"empty": ([], [])},
            {"a": ([1, 2], [3, 4]), "b": (np.array([5.0]), np.array([6.0]))},
        ],
        ids=["no-series", "quoting", "int", "float32", "list", "nan-inf",
             "empty-series", "two-series"],
    )
    def test_write_csv_bytes_match_the_row_reference(self, tmp_path, series):
        """The bulk writer emits exactly the rows of series_to_csv."""
        reference = io.StringIO(newline="")
        csv.writer(reference).writerows(series_to_csv(series))
        path = write_csv(tmp_path / "series.csv", series)
        assert path.read_bytes() == reference.getvalue().encode()

    @given(
        series=st.dictionaries(
            st.text(
                st.characters(blacklist_categories=("Cs",))
                | st.sampled_from([",", '"', "\r", "\n", "é", "€"])
            ),
            st.tuples(_COLUMNS, _COLUMNS),
            max_size=4,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_property_write_csv_bytes_match_the_row_reference(
        self, tmp_path_factory, series
    ):
        """Any labels, any float or int columns, unequal lengths too."""
        reference = io.StringIO(newline="")
        csv.writer(reference).writerows(series_to_csv(series))
        path = write_csv(tmp_path_factory.mktemp("csv") / "series.csv", series)
        assert path.read_bytes() == reference.getvalue().encode()

    @pytest.mark.parametrize(
        "values, error",
        [([None], TypeError), (["abc"], ValueError), ([[1.0], [2.0]], TypeError)],
        ids=["none", "text", "nested"],
    )
    def test_write_csv_rejects_what_float_rejects(self, tmp_path, values, error):
        with pytest.raises(error):
            series_to_csv({"s": (values, [1.0] * len(values))})
        with pytest.raises(error):
            write_csv(tmp_path / "bad.csv", {"s": (values, [1.0] * len(values))})
