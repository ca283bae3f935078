"""Golden answers: the committed example specs re-solve to recorded results.

``tests/data/golden_answers.json`` holds the answer of every
``examples/spec_{budget,cover,rrset}.json`` solve.  Seeds, stop reason,
oracle-call count and final group utilities must match exactly; the
objective and the per-step gains pass through ``log1p``, which may
differ by an ulp between libms, so they match to 1e-12 relative.

A change that moves these answers on purpose (in their low bits or
beyond) regenerates the file and says so in its change notes::

    PYTHONPATH=src python tests/test_golden_answers.py --write
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

from repro.api import RunSpec, Session

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden_answers.json"
SPECS = ("spec_budget.json", "spec_cover.json", "spec_rrset.json")
REL = 1e-12


def answer(result) -> dict:
    """The recorded projection of one :class:`RunResult`."""
    return {
        "seeds": list(result.to_dict()["seeds"]),
        "stopped_reason": result.stopped_reason,
        "evaluations": result.evaluations,
        "group_utilities": list(result.group_utilities),
        "objective": result.objective,
        "gains": [float(step.gain) for step in result.trace.steps],
    }


def solve_all() -> dict:
    session = Session()
    return {
        name: session.solve(RunSpec.from_json((ROOT / "examples" / name).read_text()))
        for name in SPECS
    }


@pytest.fixture(scope="module")
def solved() -> dict:
    return solve_all()


@pytest.mark.parametrize("name", SPECS)
def test_matches_golden_answer(solved, name):
    expected = json.loads(GOLDEN.read_text())[name]
    got = answer(solved[name])
    for key in ("seeds", "stopped_reason", "evaluations", "group_utilities"):
        assert got[key] == expected[key], key
    assert math.isclose(got["objective"], expected["objective"], rel_tol=REL)
    assert len(got["gains"]) == len(expected["gains"])
    for step, (a, b) in enumerate(zip(got["gains"], expected["gains"])):
        assert math.isclose(a, b, rel_tol=REL), f"gain of step {step}"


@pytest.mark.parametrize("name", SPECS)
def test_evaluations_reported_consistently(solved, name):
    result = solved[name]
    assert result.evaluations == result.trace.total_evaluations
    assert result.to_dict()["evaluations"] == result.evaluations
    assert f"evaluations {result.evaluations}" in result.as_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_answers.py --write")
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    answers = {name: answer(result) for name, result in solve_all().items()}
    GOLDEN.write_text(json.dumps(answers, indent=1) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
