"""Micro-benchmarks for the greedy solvers (CELF vs plain greedy).

Times the four paper solvers end-to-end on the default synthetic
dataset.  The batched vs scalar engine comparisons additionally record
their wall times into ``BENCH_solvers.json`` (next to
``bench_gains.py``'s oracle-level numbers) and assert identical
outputs.  ``celf_exact_rounds`` records step-model CELF solve times
(exact rounds: every open candidate scored from the state's marginal
counts after each pick) against plain greedy while asserting the two
traces are bit-identical with equal evaluation counts, and
``celf_bound_rounds`` records the oracle calls CELF's lazy
re-evaluation saves on discounted solves, where bound rounds still run.
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

    Every exact round scores all open candidates: one batched read of
    the state's marginal counts against one per-entry scalar count per
    candidate.
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
    # No timing assert: the batched rounds read the state's marginal
    # counts exactly as CELF's exact rounds do (timed above); here the
    # identity assert is the contract.


def test_celf_exact_rounds_match_plain_greedy(ensemble):
    """Step-model CELF (exact rounds) against plain greedy.

    Budget 30 for the log, sqrt and total objectives and the fair cover
    quota 0.1, at tau 5 and 20.  Both engines score every open
    candidate once per round, so ``evaluations`` are equal; ``celf_s``
    and ``plain_s`` are best-of-3 solve times (recorded, not asserted).
    The traces must be bit-identical: seeds, gains, utilities and stop
    reason.
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
            assert celf.total_evaluations == plain.total_evaluations
            celf_s, plain_s = (
                best_of(lambda: engine(ensemble, objective, tau, budget, stop=stop))
                for engine in (lazy_greedy, plain_greedy)
            )
            runs.append(
                {
                    "objective": name,
                    "tau": tau,
                    "seeds": celf.size,
                    "evaluations": celf.total_evaluations,
                    "celf_s": round(celf_s, 6),
                    "plain_s": round(plain_s, 6),
                }
            )
    record_bench(
        "celf_exact_rounds",
        {"budget": 30, "quota": quota, "n_worlds": ensemble.n_worlds, "runs": runs},
    )


def test_celf_bound_rounds_save_evaluations(ensemble):
    """Discounted CELF (bound rounds, lazy re-evaluation) against plain
    greedy: budget 30, discount 0.9, log and total objectives at tau 5
    and 20.  Discounted utilities are float32 means with no exact
    marginal counts, so CELF re-scores only stale tops and must make
    strictly fewer oracle calls; the seeds agree up to float32
    near-ties (recorded, not asserted)."""
    runs = []
    for name, objective in (
        ("log", ConcaveSumObjective(log1p)),
        ("total", TotalInfluenceObjective()),
    ):
        for tau in (5, 20):
            celf, plain = (
                engine(ensemble, objective, tau, 30, discount=0.9)
                for engine in (lazy_greedy, plain_greedy)
            )
            runs.append(
                {
                    "objective": name,
                    "tau": tau,
                    "celf_evaluations": celf.total_evaluations,
                    "plain_evaluations": plain.total_evaluations,
                    "same_seeds": celf.seeds == plain.seeds,
                }
            )
            assert celf.total_evaluations < plain.total_evaluations
    record_bench(
        "celf_bound_rounds",
        {"budget": 30, "discount": 0.9, "n_worlds": ensemble.n_worlds, "runs": runs},
    )
