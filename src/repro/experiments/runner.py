"""Experiment result records and rendering.

An :class:`ExperimentResult` is a small, serialisable table: the same
rows the paper plots as a figure, plus *shape checks* — the qualitative
claims the figure supports ("P4 disparity below P1 disparity",
"disparity grows as the deadline tightens", ...) evaluated on our
measured numbers.  EXPERIMENTS.md and the integration tests both
consume these records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence


@dataclass(frozen=True)
class ShapeCheck:
    """One qualitative claim of the paper, measured on our data."""

    description: str
    passed: bool
    detail: str = ""

    def as_text(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"[{status}] {self.description}{suffix}"


@dataclass
class ExperimentResult:
    """A reproduced table/figure: rows + provenance + shape checks."""

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[List[object]] = field(default_factory=list)
    notes: str = ""
    shape_checks: List[ShapeCheck] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells for {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def check(self, description: str, passed: bool, detail: str = "") -> None:
        self.shape_checks.append(
            ShapeCheck(description=description, passed=bool(passed), detail=detail)
        )

    @property
    def all_checks_pass(self) -> bool:
        return all(check.passed for check in self.shape_checks)

    def column(self, name: str) -> List[object]:
        """All values of one column (by header name)."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    # ------------------------------------------------------------------
    def as_table(self) -> str:
        """Render rows as an aligned ASCII table."""
        headers = [str(c) for c in self.columns]
        body = [[_format_cell(v) for v in row] for row in self.rows]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in body)) if body else len(headers[i])
            for i in range(len(headers))
        ]
        sep = "-+-".join("-" * w for w in widths)
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
            sep,
        ]
        for row in body:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def as_text(self) -> str:
        """Full report: title, table, notes, shape checks."""
        parts = [f"== {self.experiment_id}: {self.title} ==", self.as_table()]
        if self.notes:
            parts.append(f"notes: {self.notes}")
        for check in self.shape_checks:
            parts.append(check.as_text())
        return "\n".join(parts)


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        if value != 0 and abs(value) < 0.001:
            return f"{value:.2e}"
        return f"{value:.4f}"
    return str(value)


def format_deadline(deadline: float) -> str:
    """Render a deadline value the way the paper's axes do."""
    return "inf" if math.isinf(deadline) else f"{deadline:g}"


def weakly_increasing(values: Sequence[float], slack: float = 0.0) -> bool:
    """True when ``values`` never decreases by more than ``slack``."""
    return all(b >= a - slack for a, b in zip(values, values[1:]))
