"""Unit tests for the cover solvers (P2 / P6)."""

import math

import pytest

from repro.errors import InfeasibleError, OptimizationError
from repro.influence.ensemble import WorldEnsemble
from repro.graph.generators import two_block_sbm
from repro.core.cover import DEFAULT_SLACK, solve_fair_tcim_cover, solve_tcim_cover
from repro.core.greedy import plain_greedy
from repro.core.objectives import TotalCoverageObjective


@pytest.fixture(scope="module")
def sbm_ensemble():
    graph, assignment = two_block_sbm(
        100, 0.7, 0.15, 0.01, activation_probability=0.2, seed=20
    )
    return WorldEnsemble(graph, assignment, n_worlds=60, seed=21)


class TestSolveTcimCover:
    def test_meets_population_quota(self, sbm_ensemble):
        solution = solve_tcim_cover(sbm_ensemble, quota=0.3, deadline=5)
        assert solution.report.population_fraction >= 0.3 - 1e-9

    def test_minimality_of_stop(self, sbm_ensemble):
        # One seed fewer must be below the quota (greedy stops ASAP).
        solution = solve_tcim_cover(sbm_ensemble, quota=0.3, deadline=5)
        if solution.size > 1:
            shorter = solution.trace.steps[-2].group_utilities.sum()
            population = float(sbm_ensemble.group_sizes.sum())
            assert shorter / population < 0.3

    def test_size_grows_with_quota(self, sbm_ensemble):
        small = solve_tcim_cover(sbm_ensemble, quota=0.2, deadline=5)
        large = solve_tcim_cover(sbm_ensemble, quota=0.4, deadline=5)
        assert large.size >= small.size

    def test_infeasible_quota_raises(self, sbm_ensemble):
        # Deadline 0 influences only the seeds; quota near 1 cannot be
        # met by the candidate pool... quota 1.0 requires every node.
        with pytest.raises(InfeasibleError):
            solve_tcim_cover(sbm_ensemble, quota=1.0, deadline=0, max_seeds=10)

    def test_invalid_quota(self, sbm_ensemble):
        with pytest.raises(OptimizationError):
            solve_tcim_cover(sbm_ensemble, quota=0.0, deadline=5)
        with pytest.raises(OptimizationError):
            solve_tcim_cover(sbm_ensemble, quota=1.5, deadline=5)

    def test_methods_agree(self, sbm_ensemble):
        # The solver runs CELF; plain greedy is the reference engine.
        celf = solve_tcim_cover(sbm_ensemble, quota=0.25, deadline=5)
        population = float(sbm_ensemble.group_sizes.sum())
        objective = TotalCoverageObjective(quota=0.25, population=population)
        plain = plain_greedy(
            sbm_ensemble,
            objective,
            deadline=5,
            max_seeds=sbm_ensemble.n_candidates,
            stop=lambda utilities: objective.satisfied(utilities, slack=DEFAULT_SLACK),
            require_stop=True,
        )
        assert celf.seeds == plain.seeds

    def test_deadline_zero_counts_seeds_only(self, sbm_ensemble):
        solution = solve_tcim_cover(sbm_ensemble, quota=0.05, deadline=0)
        assert solution.size == 5  # 5% of 100 nodes, one per seed


class TestSolveFairTcimCover:
    def test_every_group_meets_quota(self, sbm_ensemble):
        solution = solve_fair_tcim_cover(sbm_ensemble, quota=0.3, deadline=5)
        fractions = solution.report.fraction_influenced
        assert (fractions >= 0.3 - 1e-6).all()

    def test_disparity_bounded_by_one_minus_quota(self, sbm_ensemble):
        quota = 0.3
        solution = solve_fair_tcim_cover(sbm_ensemble, quota=quota, deadline=5)
        assert solution.report.disparity <= 1.0 - quota + 1e-6

    def test_needs_at_least_as_many_seeds_as_p2(self, sbm_ensemble):
        p2 = solve_tcim_cover(sbm_ensemble, quota=0.3, deadline=5)
        p6 = solve_fair_tcim_cover(sbm_ensemble, quota=0.3, deadline=5)
        assert p6.size >= p2.size

    def test_trace_records_every_iteration(self, sbm_ensemble):
        solution = solve_fair_tcim_cover(sbm_ensemble, quota=0.25, deadline=5)
        assert solution.trace.size == solution.size
        totals = [step.group_utilities.sum() for step in solution.trace.steps]
        assert totals == sorted(totals)

    def test_infeasible_per_group_quota(self, sbm_ensemble):
        with pytest.raises(InfeasibleError):
            solve_fair_tcim_cover(
                sbm_ensemble, quota=0.99, deadline=0, max_seeds=20
            )

    def test_quota_attribute(self, sbm_ensemble):
        solution = solve_fair_tcim_cover(sbm_ensemble, quota=0.2, deadline=5)
        assert solution.quota == 0.2

    def test_evaluate_at(self, sbm_ensemble):
        solution = solve_fair_tcim_cover(sbm_ensemble, quota=0.2, deadline=5)
        report = solution.evaluate_at(math.inf)
        assert report.total_utility >= solution.report.total_utility
