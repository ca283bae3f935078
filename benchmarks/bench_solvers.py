"""Micro-benchmarks for the greedy solvers (CELF vs plain greedy).

Times the four paper solvers end-to-end on the default synthetic
dataset.  The CELF vs plain greedy comparisons (plain greedy scores
every open candidate through the scalar oracle) additionally record
their wall times into ``BENCH_solvers.json`` (next to
``bench_gains.py``'s oracle-level numbers) and assert bit-identical
traces.  ``celf_exact_rounds`` records step-model CELF solve times
(exact rounds: every open candidate scored from the state's marginal
counts after each pick) against plain greedy with equal evaluation
counts, and ``celf_bound_rounds`` records the oracle calls CELF's lazy
re-evaluation saves on discounted solves, where bound rounds run.
``celf_pick`` records the cost of one exact round (a pick and a
re-score of every open candidate) on solve-warm's and sweep-cold's
inputs, for solve-warm's fair budget, unfair budget and fair cover
classes.
"""

import os
import time

import numpy as np
import pytest

from conftest import best_of, record_bench

from repro.api import EnsembleSpec, Session

from repro.datasets.synthetic import DEFAULT_DEADLINE, default_synthetic
from repro.influence.ensemble import WorldEnsemble
from repro.core.budget import solve_fair_tcim_budget, solve_tcim_budget
from repro.core.cover import DEFAULT_SLACK, solve_fair_tcim_cover, solve_tcim_cover
from repro.core.concave import log1p, sqrt
from repro.core.greedy import lazy_greedy, plain_greedy, trace_tap
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


def assert_same_steps(celf, plain):
    """Bit-identical selections: positions, gains, objective values,
    group utilities and stop reason (evaluations may differ)."""
    assert celf.stopped_reason == plain.stopped_reason
    assert [s.position for s in celf.steps] == [s.position for s in plain.steps]
    for ours, reference in zip(celf.steps, plain.steps):
        assert ours.gain == reference.gain
        assert ours.objective_value == reference.objective_value
        np.testing.assert_array_equal(ours.group_utilities, reference.group_utilities)


def celf_vs_plain(ensemble, objective, budget, discount=None):
    """Solve with both engines, check they agree, and time each."""
    celf, plain = (
        engine(ensemble, objective, DEFAULT_DEADLINE, budget, discount=discount)
        for engine in (lazy_greedy, plain_greedy)
    )
    assert_same_steps(celf, plain)
    celf_s, plain_s = (
        best_of(
            lambda: engine(ensemble, objective, DEFAULT_DEADLINE, budget, discount=discount),
            repeats=2,
        )
        for engine in (lazy_greedy, plain_greedy)
    )
    return {
        "budget": budget,
        "celf_evaluations": celf.total_evaluations,
        "plain_evaluations": plain.total_evaluations,
        "celf_s": round(celf_s, 6),
        "plain_s": round(plain_s, 6),
        "speedup": round(plain_s / celf_s, 2),
    }


def test_celf_end_to_end_vs_plain(ensemble):
    """Whole step-model solves, CELF vs plain greedy: each exact round is
    one batched read of the state's marginal counts against one
    per-entry scalar count per open candidate."""
    run = celf_vs_plain(ensemble, TotalInfluenceObjective(), 15)
    record_bench("celf_end_to_end", run)
    assert run["celf_s"] <= run["plain_s"]


def test_celf_discounted_end_to_end_vs_plain(ensemble):
    """Whole discounted solves (gamma 0.9), CELF vs plain greedy: CELF's
    first round is one batched call over every candidate's entries and
    its bound rounds re-score only stale tops."""
    run = celf_vs_plain(ensemble, ConcaveSumObjective(log1p), 10, discount=0.9)
    record_bench("celf_discounted_end_to_end", {"discount": 0.9, **run})
    assert run["celf_s"] <= run["plain_s"]


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
            assert_same_steps(celf, plain)
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
    and 20.  Discounted utilities have no exact marginal counts, so CELF
    re-bounds every candidate after each pick, re-scores only stale tops
    and must make strictly fewer oracle calls; the traces are
    bit-identical."""
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
            assert_same_steps(celf, plain)
            runs.append(
                {
                    "objective": name,
                    "tau": tau,
                    "celf_evaluations": celf.total_evaluations,
                    "plain_evaluations": plain.total_evaluations,
                }
            )
            assert celf.total_evaluations < plain.total_evaluations
    record_bench(
        "celf_bound_rounds",
        {"budget": 30, "discount": 0.9, "n_worlds": ensemble.n_worlds, "runs": runs},
    )


#: The exact-round inputs of ``test_celf_pick``: perfbench solve-warm's
#: two cached ensembles and one of sweep-cold's RR pools.
PICK_INPUTS = {
    "synthetic-500/100": EnsembleSpec(dataset="synthetic", n_worlds=100, world_seed=1),
    "rice-1205/50": EnsembleSpec(dataset="rice", n_worlds=50, world_seed=1),
    "rrset-400/theta-16000": EnsembleSpec(
        dataset="synthetic",
        dataset_params={"n": 400, "majority_fraction": 0.7},
        kind="rrset",
        theta=16000,
        world_seed=1,
    ),
}


def pick_seconds(estimator, objective, deadline, budget, stop=None, repeats=9):
    """Seconds per exact round: the time between consecutive steps of a
    solve (each a re-score of every open candidate, then a pick), read
    with a trace tap, so the first round and the solve's set-up are left
    out.  Each round's time is its best over ``repeats`` solves (a burst
    of load on a shared host slows a few rounds, not a whole solve's
    worth), and the rounds' mean is returned."""
    rounds = []
    for _ in range(repeats):
        stamps = []
        with trace_tap(lambda step: stamps.append(time.perf_counter())):
            lazy_greedy(estimator, objective, deadline, budget, stop=stop)
        rounds.append(np.diff(stamps))
    return float(np.min(rounds, axis=0).mean())


def test_celf_pick():
    """Microseconds per exact CELF round (step model, tau 5 and 10) on
    three inputs, for solve-warm's three classes of objective: the fair
    log budget (P4) and the unfair budget (P1), both at budget 20, and
    the fair cover (P6) at quota 0.1, which picks until every group
    meets it.  The traces must equal plain greedy's bit for bit,
    ``evaluations`` included.  Timings are recorded, not asserted."""
    session = Session()
    budget, quota = 20, 0.1
    runs = []
    for name, spec in PICK_INPUTS.items():
        estimator = session.ensemble_for(spec)
        cover = TruncatedCoverageObjective(quota, estimator.group_sizes)
        problems = {
            "log": (ConcaveSumObjective(log1p), budget, None),
            "unfair": (TotalInfluenceObjective(), budget, None),
            "cover": (
                cover,
                estimator.n_candidates,
                lambda u, cover=cover: cover.satisfied(u, slack=DEFAULT_SLACK),
            ),
        }
        for objective_name, (objective, max_seeds, stop) in problems.items():
            for tau in (5, 10):
                celf, plain = (
                    engine(estimator, objective, tau, max_seeds, stop=stop)
                    for engine in (lazy_greedy, plain_greedy)
                )
                assert_same_steps(celf, plain)
                assert celf.total_evaluations == plain.total_evaluations
                seconds = pick_seconds(estimator, objective, tau, max_seeds, stop)
                runs.append(
                    {
                        "input": name,
                        "objective": objective_name,
                        "tau": tau,
                        "candidates": estimator.n_candidates,
                        "picks": celf.size,
                        "us_per_pick": round(seconds * 1e6, 1),
                    }
                )
    record_bench(
        "celf_pick",
        {"budget": budget, "quota": quota, "cpu_count": os.cpu_count(), "runs": runs},
    )
