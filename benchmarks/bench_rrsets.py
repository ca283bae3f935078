"""Benchmarks for the RR-set estimator vs. the world ensemble.

The ``rrset`` kind exists to scale past the world ensemble's reach
index, so this suite measures the trade it makes on the default synthetic
benchmark graph: build time (adaptive RR sampling vs. world sampling +
reach index), unfair-budget solve time on each estimator, and the
relative utility error of the RR estimate against the ensemble's
estimate of the same seed set.  The measured numbers are committed to
``BENCH_rrsets.json`` next to this file; CI runs the suite with
``--benchmark-disable`` as a smoke test.
"""

import math
import os
from pathlib import Path

import pytest

from conftest import best_of, record_bench

from repro.core.budget import solve_tcim_budget
from repro.datasets.synthetic import DEFAULT_DEADLINE, default_synthetic
from repro.influence.ensemble import WorldEnsemble
from repro.influence.rrsets import RRSetEstimator

RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_rrsets.json"
N_WORLDS = 100
BUDGET = 10


@pytest.fixture(scope="module")
def dataset():
    return default_synthetic(seed=0)


@pytest.fixture(scope="module")
def ensemble(dataset):
    graph, assignment = dataset
    return WorldEnsemble(graph, assignment, n_worlds=N_WORLDS, seed=1)


@pytest.fixture(scope="module")
def rr_estimator(dataset):
    graph, assignment = dataset
    estimator = RRSetEstimator(graph, assignment, seed=1)
    estimator.diagnostics(DEFAULT_DEADLINE)  # pre-sample the horizon
    return estimator


def test_rrset_build(benchmark, dataset):
    graph, assignment = dataset

    def build():
        estimator = RRSetEstimator(graph, assignment, seed=2)
        estimator.diagnostics(DEFAULT_DEADLINE)
        return estimator

    estimator = benchmark(build)
    assert estimator.diagnostics(DEFAULT_DEADLINE)["theta"] >= 1


def test_rrset_group_utilities(benchmark, rr_estimator):
    seeds = [rr_estimator.label(p) for p in range(20)]
    state = rr_estimator.state_for(seeds)
    utilities = benchmark(rr_estimator.group_utilities, state, DEFAULT_DEADLINE)
    assert utilities.sum() > 0


def test_rrset_budget_solve(benchmark, rr_estimator):
    solution = benchmark.pedantic(
        solve_tcim_budget,
        args=(rr_estimator, BUDGET, DEFAULT_DEADLINE),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    assert len(solution.seeds) == BUDGET


def test_rrset_vs_worlds_record(dataset, ensemble, rr_estimator):
    """Head-to-head: build + solve wall time and relative utility error.

    The error compares each estimator's valuation of the *other's*
    seed set too, so the committed JSON shows whether the cheaper
    estimator would have changed the decision, not just the number.
    """
    graph, assignment = dataset

    def build_worlds():
        return WorldEnsemble(graph, assignment, n_worlds=N_WORLDS, seed=3)

    def build_rrset():
        estimator = RRSetEstimator(graph, assignment, seed=3)
        estimator.diagnostics(DEFAULT_DEADLINE)
        return estimator

    worlds_build_s = best_of(build_worlds, repeats=2)
    rrset_build_s = best_of(build_rrset, repeats=2)

    worlds_solution = solve_tcim_budget(ensemble, BUDGET, DEFAULT_DEADLINE)
    rr_solution = solve_tcim_budget(rr_estimator, BUDGET, DEFAULT_DEADLINE)
    worlds_solve_s = best_of(
        lambda: solve_tcim_budget(ensemble, BUDGET, DEFAULT_DEADLINE), repeats=2
    )
    rrset_solve_s = best_of(
        lambda: solve_tcim_budget(rr_estimator, BUDGET, DEFAULT_DEADLINE),
        repeats=2,
    )

    # Cross-valuation: each estimator scores both seed sets.
    rr_on_worlds_seeds = rr_estimator.total_utility(
        rr_estimator.state_for(worlds_solution.seeds), DEFAULT_DEADLINE
    )
    ens_on_worlds_seeds = ensemble.total_utility(
        ensemble.state_for(worlds_solution.seeds), DEFAULT_DEADLINE
    )
    rr_on_rr_seeds = rr_estimator.total_utility(
        rr_estimator.state_for(rr_solution.seeds), DEFAULT_DEADLINE
    )
    ens_on_rr_seeds = ensemble.total_utility(
        ensemble.state_for(rr_solution.seeds), DEFAULT_DEADLINE
    )
    relative_error = abs(rr_on_worlds_seeds - ens_on_worlds_seeds) / max(
        ens_on_worlds_seeds, 1e-12
    )
    # Neither estimator may think the other's seed set is junk.
    assert ens_on_rr_seeds >= 0.8 * ens_on_worlds_seeds
    assert relative_error < 0.15

    diag = rr_estimator.diagnostics(DEFAULT_DEADLINE)
    record_bench(
        "rrset_vs_worlds",
        {
            "cpu_count": os.cpu_count(),
            "graph": {
                "dataset": "default_synthetic(seed=0)",
                "nodes": graph.number_of_nodes(),
                "directed_edges": graph.number_of_edges(),
                "deadline": DEFAULT_DEADLINE,
                "budget": BUDGET,
            },
            "build": {
                "worlds_s": round(worlds_build_s, 6),
                "rrset_s": round(rrset_build_s, 6),
                "n_worlds": N_WORLDS,
                "theta": int(diag["theta"]),
                "rounds": int(diag["rounds"]),
            },
            "solve": {
                "worlds_s": round(worlds_solve_s, 6),
                "rrset_s": round(rrset_solve_s, 6),
            },
            "utility": {
                "worlds_seeds_on_worlds": round(ens_on_worlds_seeds, 4),
                "worlds_seeds_on_rrset": round(rr_on_worlds_seeds, 4),
                "rrset_seeds_on_worlds": round(ens_on_rr_seeds, 4),
                "rrset_seeds_on_rrset": round(rr_on_rr_seeds, 4),
                "relative_error": round(relative_error, 4),
            },
            "memory_bytes": {
                "worlds": ensemble.memory_bytes(),
                "rrset": rr_estimator.memory_bytes(),
            },
        },
        path=RESULTS_PATH,
    )
