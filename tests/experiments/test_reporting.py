"""Tests for reporting helpers (repro.experiments.reporting)."""

from repro.experiments import ascii_table, series_chart


class TestAsciiTable:
    def test_renders_rows(self):
        rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": 0.25}]
        out = ascii_table(rows, ["a", "b"])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert "0.500" in out
        assert "0.250" in out

    def test_column_alignment(self):
        rows = [{"name": "short", "v": 1.0}, {"name": "a-much-longer-name", "v": 2.0}]
        out = ascii_table(rows, ["name", "v"])
        lines = out.splitlines()
        assert len(lines[2]) == len(lines[3])

    def test_missing_cells_blank(self):
        out = ascii_table([{"a": 1}], ["a", "b"])
        assert "b" in out

    def test_empty(self):
        assert ascii_table([], ["a"]) == "(no rows)"


class TestSeriesChart:
    def test_bars_scale(self):
        out = series_chart({"s": [(0.2, 0.5), (0.4, 1.0)]}, width=10, y_max=1.0)
        lines = out.splitlines()
        assert lines[1].count("#") == 5
        assert lines[2].count("#") == 10

    def test_title(self):
        out = series_chart({"s": [(1, 1.0)]}, title="hello")
        assert out.startswith("hello")

    def test_auto_ymax(self):
        out = series_chart({"s": [(1, 2.0)]}, width=10)
        assert out.splitlines()[1].count("#") == 10

    def test_values_above_ymax_clamped(self):
        out = series_chart({"s": [(1, 5.0)]}, width=10, y_max=1.0)
        assert out.splitlines()[1].count("#") == 10
