"""Table formatting."""

from repro.analysis.tables import format_table


class TestFormatTable:
    def test_alignment_and_rule(self):
        out = format_table(["name", "ipc"], [["mcf", 0.25], ["lbm", 1.5]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert set(lines[1]) <= {"-", " "}
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all rows aligned

    def test_precision(self):
        out = format_table(["x"], [[1.23456]], precision=2)
        assert "1.23" in out and "1.235" not in out

    def test_mixed_types(self):
        out = format_table(["a", "b"], [["row", 7]])
        assert "row" in out and "7" in out

    def test_wide_values_extend_column(self):
        out = format_table(["a"], [["averyverylongvalue"]])
        assert "averyverylongvalue" in out

