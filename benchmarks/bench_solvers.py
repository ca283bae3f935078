"""Micro-benchmarks for the greedy solvers (CELF vs plain greedy).

Quantifies the CELF speedup DESIGN.md claims and times the four paper
solvers end-to-end on the default synthetic dataset.  The batched
vs scalar engine comparisons additionally record their wall times into
``BENCH_solvers.json`` (next to ``bench_gains.py``'s oracle-level
numbers) and assert identical outputs, and ``celf_bounds`` records
CELF's oracle calls and wall time against plain greedy's oracle calls
while asserting the two traces are bit-identical.
"""

import numpy as np
import pytest

from conftest import best_of, record_bench

from repro.datasets.synthetic import DEFAULT_DEADLINE, default_synthetic
from repro.influence.ensemble import WorldEnsemble
from repro.core.budget import solve_fair_tcim_budget, solve_tcim_budget
from repro.core.cover import DEFAULT_SLACK, solve_fair_tcim_cover, solve_tcim_cover
from repro.core.concave import log1p, sqrt
from repro.core.greedy import lazy_greedy, plain_greedy
from repro.core.objectives import (
    ConcaveSumObjective,
    TotalInfluenceObjective,
    TruncatedCoverageObjective,
)


@pytest.fixture(scope="module")
def ensemble():
    graph, assignment = default_synthetic(seed=0)
    return WorldEnsemble(graph, assignment, n_worlds=60, seed=1)


def test_solve_p1_budget(benchmark, ensemble):
    solution = benchmark(solve_tcim_budget, ensemble, 30, DEFAULT_DEADLINE)
    assert len(solution.seeds) == 30


def test_solve_p4_budget_log(benchmark, ensemble):
    solution = benchmark(
        solve_fair_tcim_budget, ensemble, 30, DEFAULT_DEADLINE, log1p
    )
    assert len(solution.seeds) == 30


def test_solve_p2_cover(benchmark, ensemble):
    solution = benchmark(solve_tcim_cover, ensemble, 0.2, DEFAULT_DEADLINE)
    assert solution.report.population_fraction >= 0.2 - 1e-9


def test_solve_p6_cover(benchmark, ensemble):
    solution = benchmark(solve_fair_tcim_cover, ensemble, 0.2, DEFAULT_DEADLINE)
    assert (solution.report.fraction_influenced >= 0.2 - 1e-6).all()


def test_celf_engine(benchmark, ensemble):
    trace = benchmark(
        lazy_greedy, ensemble, TotalInfluenceObjective(), DEFAULT_DEADLINE, 15
    )
    assert trace.size == 15


def test_plain_engine(benchmark, ensemble):
    trace = benchmark(
        plain_greedy, ensemble, TotalInfluenceObjective(), DEFAULT_DEADLINE, 15
    )
    assert trace.size == 15


def test_celf_end_to_end_batched_vs_scalar(ensemble):
    """Whole CELF solves, batched oracle vs block_size=1 scalar path.

    The first round dominates CELF (every later round touches a
    handful of stale candidates), so the end-to-end ratio approaches
    the first-round oracle speedup as budgets shrink.
    """
    objective = TotalInfluenceObjective()

    def run(**scalar):
        return lazy_greedy(ensemble, objective, DEFAULT_DEADLINE, 15, **scalar)

    batched = run()
    scalar = run(block_size=1)
    assert batched.seeds == scalar.seeds
    assert batched.stopped_reason == scalar.stopped_reason

    batched_s = best_of(run)
    scalar_s = best_of(lambda: run(block_size=1))
    record_bench(
        "celf_end_to_end",
        {
            "budget": 15,
            "batched_s": round(batched_s, 6),
            "scalar_s": round(scalar_s, 6),
            "speedup": round(scalar_s / batched_s, 2),
        },
    )
    assert batched_s <= scalar_s


def test_plain_greedy_end_to_end_batched_vs_scalar(ensemble):
    """Plain greedy re-scores every candidate every round — the oracle's
    best case end-to-end."""
    objective = TotalInfluenceObjective()

    def run(**scalar):
        return plain_greedy(ensemble, objective, DEFAULT_DEADLINE, 10, **scalar)

    batched = run()
    scalar = run(block_size=1)
    assert batched.seeds == scalar.seeds

    batched_s = best_of(run, repeats=2)
    scalar_s = best_of(lambda: run(block_size=1), repeats=2)
    record_bench(
        "plain_greedy_end_to_end",
        {
            "budget": 10,
            "batched_s": round(batched_s, 6),
            "scalar_s": round(scalar_s, 6),
            "speedup": round(scalar_s / batched_s, 2),
        },
    )
    # No timing assert: later plain-greedy rounds run the elementwise
    # batch path at ~parity with scalar (only the first round is
    # table-fast), so the margin is within shared-runner noise.  The
    # perf gate lives in bench_gains.py where the margin is 20x; here
    # the identity assert above is the contract.


def test_celf_bounds_match_plain_greedy(ensemble):
    """CELF oracle calls and wall time against plain greedy.

    Budget 30 for the log, sqrt and total objectives and the fair cover
    quota 0.1, at tau 5 and 20.  ``celf_evaluations`` counts oracle
    calls including the 500-candidate first round; ``celf_s`` is the
    best-of-3 CELF solve time (recorded, not asserted: the margin over
    plain greedy is the oracle-call count).  The traces must be
    bit-identical: seeds, gains, utilities and stop reason.
    """
    quota = 0.1
    cover = TruncatedCoverageObjective(quota, ensemble.group_sizes)
    problems = {
        "log": (ConcaveSumObjective(log1p), None),
        "sqrt": (ConcaveSumObjective(sqrt), None),
        "total": (TotalInfluenceObjective(), None),
        "cover": (cover, lambda u: cover.satisfied(u, slack=DEFAULT_SLACK)),
    }
    runs = []
    for name, (objective, stop) in problems.items():
        for tau in (5, 20):
            budget = ensemble.n_candidates if stop else 30
            celf, plain = (
                engine(ensemble, objective, tau, budget, stop=stop)
                for engine in (lazy_greedy, plain_greedy)
            )
            assert celf.stopped_reason == plain.stopped_reason
            assert [s.position for s in celf.steps] == [
                s.position for s in plain.steps
            ]
            for ours, reference in zip(celf.steps, plain.steps):
                assert ours.gain == reference.gain
                assert ours.objective_value == reference.objective_value
                np.testing.assert_array_equal(
                    ours.group_utilities, reference.group_utilities
                )
            celf_s = best_of(
                lambda: lazy_greedy(ensemble, objective, tau, budget, stop=stop)
            )
            runs.append(
                {
                    "objective": name,
                    "tau": tau,
                    "seeds": celf.size,
                    "celf_evaluations": celf.total_evaluations,
                    "celf_s": round(celf_s, 6),
                    "plain_evaluations": plain.total_evaluations,
                }
            )
            assert celf.total_evaluations < plain.total_evaluations
    record_bench(
        "celf_bounds",
        {"budget": 30, "quota": quota, "n_worlds": ensemble.n_worlds, "runs": runs},
    )
