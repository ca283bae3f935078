"""Unit tests for the experiment result records and rendering."""

import math

import pytest

from repro.experiments.runner import (
    ExperimentResult,
    ShapeCheck,
    format_deadline,
    weakly_increasing,
)


class TestExperimentResult:
    def make(self):
        result = ExperimentResult(
            experiment_id="demo",
            title="Demo experiment",
            columns=["x", "value"],
        )
        result.add_row(1, 0.5)
        result.add_row(2, 0.25)
        return result

    def test_add_row_validates_width(self):
        result = self.make()
        with pytest.raises(ValueError, match="cells"):
            result.add_row(1)

    def test_column_access(self):
        result = self.make()
        assert result.column("value") == [0.5, 0.25]

    def test_checks_aggregate(self):
        result = self.make()
        result.check("first", True)
        assert result.all_checks_pass
        result.check("second", False, detail="because")
        assert not result.all_checks_pass

    def test_as_table_alignment(self):
        table = self.make().as_table()
        lines = table.splitlines()
        assert lines[0].startswith("x")
        assert len(lines) == 4  # header, separator, two rows
        assert "0.5000" in table

    def test_as_text_includes_checks(self):
        result = self.make()
        result.check("claim", True, detail="ok")
        text = result.as_text()
        assert "== demo:" in text
        assert "[PASS] claim (ok)" in text

    def test_small_floats_use_scientific(self):
        result = ExperimentResult("d", "t", ["v"])
        result.add_row(0.00001)
        assert "e-05" in result.as_table()

    def test_infinity_rendered(self):
        result = ExperimentResult("d", "t", ["v"])
        result.add_row(math.inf)
        assert "inf" in result.as_table()


class TestShapeCheck:
    def test_as_text(self):
        assert ShapeCheck("claim", True).as_text() == "[PASS] claim"
        assert ShapeCheck("claim", False, "why").as_text() == "[FAIL] claim (why)"


class TestHelpers:
    def test_format_deadline(self):
        assert format_deadline(math.inf) == "inf"
        assert format_deadline(5) == "5"

    def test_monotone_helpers(self):
        assert weakly_increasing([1, 2, 2])
        assert not weakly_increasing([2, 1])
