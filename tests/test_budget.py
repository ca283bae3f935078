"""Unit tests for the budget solvers (P1 / P4)."""

import math

import numpy as np
import pytest

from repro.errors import OptimizationError
from repro.influence.ensemble import WorldEnsemble
from repro.graph.generators import two_block_sbm
from repro.core.budget import solve_fair_tcim_budget, solve_tcim_budget
from repro.core.concave import identity, log1p, sqrt
from repro.core.greedy import plain_greedy
from repro.core.objectives import TotalInfluenceObjective


@pytest.fixture(scope="module")
def sbm_ensemble():
    graph, assignment = two_block_sbm(
        120, 0.75, 0.12, 0.005, activation_probability=0.15, seed=10
    )
    return WorldEnsemble(graph, assignment, n_worlds=60, seed=11)


class TestSolveTcimBudget:
    def test_respects_budget(self, sbm_ensemble):
        solution = solve_tcim_budget(sbm_ensemble, budget=5, deadline=5)
        assert len(solution.seeds) <= 5
        assert solution.report.seed_count == len(solution.seeds)

    def test_no_duplicate_seeds(self, sbm_ensemble):
        solution = solve_tcim_budget(sbm_ensemble, budget=8, deadline=5)
        assert len(set(solution.seeds)) == len(solution.seeds)

    def test_utility_grows_with_budget(self, sbm_ensemble):
        small = solve_tcim_budget(sbm_ensemble, budget=2, deadline=5)
        large = solve_tcim_budget(sbm_ensemble, budget=8, deadline=5)
        assert large.report.total_utility >= small.report.total_utility

    def test_greedy_prefix_property(self, sbm_ensemble):
        small = solve_tcim_budget(sbm_ensemble, budget=3, deadline=5)
        large = solve_tcim_budget(sbm_ensemble, budget=6, deadline=5)
        assert large.seeds[:3] == small.seeds

    def test_methods_agree(self, sbm_ensemble):
        # The solver runs CELF; plain greedy is the reference engine.
        celf = solve_tcim_budget(sbm_ensemble, budget=5, deadline=5)
        plain = plain_greedy(
            sbm_ensemble, TotalInfluenceObjective(), deadline=5, max_seeds=5
        )
        assert celf.seeds == plain.seeds

    def test_validation(self, sbm_ensemble):
        with pytest.raises(OptimizationError):
            solve_tcim_budget(sbm_ensemble, budget=0, deadline=5)
        with pytest.raises(OptimizationError):
            solve_tcim_budget(sbm_ensemble, budget=10_000, deadline=5)

    def test_problem_label(self, sbm_ensemble):
        solution = solve_tcim_budget(sbm_ensemble, budget=2, deadline=5)
        assert "P1" in solution.problem

    def test_evaluate_at_other_deadline(self, sbm_ensemble):
        solution = solve_tcim_budget(sbm_ensemble, budget=4, deadline=5)
        early = solution.evaluate_at(1)
        late = solution.evaluate_at(math.inf)
        assert early.total_utility <= late.total_utility
        assert early.seed_count == late.seed_count == len(solution.seeds)


class TestSolveFairTcimBudget:
    def test_identity_recovers_p1(self, sbm_ensemble):
        p1 = solve_tcim_budget(sbm_ensemble, budget=5, deadline=5)
        p4 = solve_fair_tcim_budget(
            sbm_ensemble, budget=5, deadline=5, concave=identity
        )
        assert p1.seeds == p4.seeds

    def test_reduces_disparity_on_imbalanced_graph(self, sbm_ensemble):
        p1 = solve_tcim_budget(sbm_ensemble, budget=8, deadline=3)
        p4 = solve_fair_tcim_budget(
            sbm_ensemble, budget=8, deadline=3, concave=log1p
        )
        assert p4.report.disparity <= p1.report.disparity + 0.05

    def test_total_influence_cost_bounded(self, sbm_ensemble):
        # Weak sanity version of Theorem 1: the fair total should stay
        # a reasonable fraction of the unfair total.
        p1 = solve_tcim_budget(sbm_ensemble, budget=8, deadline=3)
        p4 = solve_fair_tcim_budget(sbm_ensemble, budget=8, deadline=3)
        assert p4.report.total_utility >= 0.5 * p1.report.total_utility

    def test_weights_steer_selection(self, sbm_ensemble):
        minority_index = int(np.argmin(sbm_ensemble.group_sizes))
        weights = np.ones(len(sbm_ensemble.group_names))
        weights[minority_index] = 10.0
        weighted = solve_fair_tcim_budget(
            sbm_ensemble, budget=6, deadline=3, concave=log1p, weights=weights
        )
        unweighted = solve_fair_tcim_budget(
            sbm_ensemble, budget=6, deadline=3, concave=log1p
        )
        assert (
            weighted.report.fraction_influenced[minority_index]
            >= unweighted.report.fraction_influenced[minority_index] - 1e-9
        )

    def test_problem_label_carries_h(self, sbm_ensemble):
        solution = solve_fair_tcim_budget(
            sbm_ensemble, budget=2, deadline=5, concave=sqrt
        )
        assert "sqrt" in solution.problem
