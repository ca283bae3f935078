"""Tests for the RIS (reverse-reachable set) estimator."""

import math

import numpy as np
import pytest

from repro.core.budget import solve_tcim_budget
from repro.core.concave import log1p
from repro.core.greedy import lazy_greedy, plain_greedy
from repro.core.objectives import ConcaveSumObjective, TotalInfluenceObjective
from repro.errors import EstimationError, OptimizationError
from repro.influence.exact import exact_utility
from repro.influence.rrsets import RRSetEstimator
from repro.graph.digraph import DiGraph
from repro.graph.generators import path_graph, star_graph, two_block_sbm
from repro.graph.groups import GroupAssignment


def estimator_on(graph, **kwargs):
    """An :class:`RRSetEstimator` over ``graph`` with every node in one
    group, so its pools hold every node's memberships."""
    nodes = graph.nodes()
    assignment = GroupAssignment.from_labels(nodes, ["all"] * len(nodes))
    return RRSetEstimator(graph, assignment, **kwargs)


def set_sizes(estimator, deadline):
    """Members of each RR set in ``deadline``'s pool (every node must be
    a candidate): the pool's reach index lists one entry per membership,
    its cell the set's id."""
    theta = estimator.diagnostics(deadline)["theta"]
    reach = estimator._index_for(deadline).oracle.reach
    return np.bincount(reach.flat, minlength=theta)


class TestSampling:
    def test_set_always_contains_target(self):
        graph = path_graph(5, activation_probability=0.5)
        estimator = estimator_on(graph, theta=50, seed=0)
        sizes = set_sizes(estimator, 2)
        assert sizes.size == 50
        assert (sizes >= 1).all()
        # All nodes seeded cover every set: exactly n.
        assert estimator.total_utility(estimator.state_for(graph.nodes()), 2) == 5.0

    def test_deadline_zero_gives_singletons(self):
        graph = path_graph(5, activation_probability=1.0)
        estimator = estimator_on(graph, theta=30, seed=0)
        reach = estimator._index_for(0).oracle.reach
        assert reach.flat.size == estimator.diagnostics(0)["theta"] == 30
        assert (set_sizes(estimator, 0) == 1).all()

    def test_deterministic_under_seed(self):
        graph = star_graph(20, activation_probability=0.4)
        a, b = (estimator_on(graph, theta=25, seed=7) for _ in range(2))
        ours, theirs = (e._index_for(2) for e in (a, b))
        np.testing.assert_array_equal(ours.set_group, theirs.set_group)
        for name in ("offsets", "flat"):
            np.testing.assert_array_equal(
                getattr(ours.oracle.reach, name), getattr(theirs.oracle.reach, name)
            )

    def test_deadline_limits_depth(self):
        # Path 0->1->2->3 with p=1: RR set of target 3 at tau=1 is {2,3}.
        graph = path_graph(4, activation_probability=1.0)
        estimator = estimator_on(graph, theta=200, seed=1)
        assert set_sizes(estimator, 1).max() <= 2

    def test_validation(self):
        graph = path_graph(3)
        with pytest.raises(EstimationError):
            estimator_on(graph, theta=0)
        with pytest.raises(EstimationError):
            estimator_on(graph, theta=5).diagnostics(-1)
        with pytest.raises(EstimationError):
            RRSetEstimator(DiGraph(), GroupAssignment({0: "all"}), theta=5)


class TestDeadlineSemantics:
    """The sampler follows the library-wide deadline rules."""

    def test_nan_deadline_is_an_estimation_error(self):
        # Regression: NaN must not slip past the `deadline < 0` guard
        # and surface as a bare ValueError from int(nan).
        estimator = estimator_on(path_graph(3), theta=5)
        with pytest.raises(EstimationError):
            estimator.diagnostics(float("nan"))

    def test_fractional_deadline_floors_like_clip_deadline(self):
        # floor(2.5) == 2, so tau=2.5 and tau=2 draw identical sets,
        # also on two estimators that share only their seed.
        graph = path_graph(6, activation_probability=0.7)
        frac = estimator_on(graph, theta=100, seed=3)._index_for(2.5)
        whole = estimator_on(graph, theta=100, seed=3)._index_for(2)
        assert frac.horizon == whole.horizon == 2
        np.testing.assert_array_equal(frac.oracle.reach.flat, whole.oracle.reach.flat)
        np.testing.assert_array_equal(
            frac.oracle.reach.offsets, whole.oracle.reach.offsets
        )

    def test_infinite_deadline_reaches_everything(self):
        graph = path_graph(5, activation_probability=1.0)
        estimator = estimator_on(graph, theta=50, seed=4)
        # Target at index i has i+1 reverse-reachable nodes on a chain.
        assert set_sizes(estimator, math.inf).max() == 5
        assert estimator.total_utility(estimator.state_for([0]), math.inf) == 5.0


def assert_same_steps(celf, plain):
    """CELF's trace equals plain greedy's, step for step."""
    assert celf.size == plain.size
    assert celf.stopped_reason == plain.stopped_reason
    for ours, reference in zip(celf.steps, plain.steps):
        assert (ours.node, ours.position) == (reference.node, reference.position)
        assert (ours.gain, ours.objective_value) == (
            reference.gain,
            reference.objective_value,
        )
        np.testing.assert_array_equal(ours.group_utilities, reference.group_utilities)
        # Exact rounds score every open candidate, as plain greedy does.
        assert ours.evaluations == reference.evaluations


def greedy_pair(estimator, deadline, max_seeds):
    """P1's CELF and plain-greedy traces on ``estimator``."""
    return tuple(
        engine(estimator, TotalInfluenceObjective(), deadline=deadline, max_seeds=max_seeds)
        for engine in (lazy_greedy, plain_greedy)
    )


class TestCelfEquivalence:
    """CELF on an RR pool must reproduce plain greedy's full rescan
    bit-for-bit, including first-in-pool-order tie-breaking."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_reference_on_random_graphs(self, seed):
        graph, assignment = two_block_sbm(
            40, 0.6, 0.2, 0.05, activation_probability=0.3, seed=seed
        )
        estimator = RRSetEstimator(graph, assignment, theta=600, seed=seed)
        celf, plain = greedy_pair(estimator, deadline=3, max_seeds=6)
        assert celf.size == 6
        assert_same_steps(celf, plain)

    def test_matches_reference_under_heavy_ties(self):
        # p=1 stars: every leaf covers only its own targets' sets, and
        # the hub covers all, so rounds after the first are near-ties.
        graph = star_graph(12, activation_probability=1.0)
        estimator = estimator_on(graph, theta=300, seed=5)
        for budget in (1, 3, 5):
            assert_same_steps(*greedy_pair(estimator, deadline=1, max_seeds=budget))

    def test_matches_reference_with_candidate_pool_order(self):
        pool = [7, 3, 9, 4]  # ties must resolve to the earliest in pool
        graph = star_graph(10, activation_probability=1.0)
        estimator = estimator_on(graph, candidates=pool, theta=200, seed=6)
        assert_same_steps(*greedy_pair(estimator, deadline=1, max_seeds=2))
        # A p=1 cycle through the pool: each member reaches the others,
        # so all four cover the same sets and the first in pool wins.
        cycle = star_graph(10, activation_probability=1.0)
        for u, v in zip(pool, pool[1:] + pool[:1]):
            cycle.add_edge(u, v)
        estimator = estimator_on(cycle, candidates=pool, theta=200, seed=6)
        celf, plain = greedy_pair(estimator, deadline=math.inf, max_seeds=2)
        assert_same_steps(celf, plain)
        assert celf.seeds == [7]
        assert celf.stopped_reason == "no-gain"


class TestEstimation:
    def test_matches_exact_on_chain(self):
        graph = path_graph(4, activation_probability=0.6)
        estimator = estimator_on(graph, theta=20_000, seed=2)
        estimate = estimator.total_utility(estimator.state_for([0]), 2)
        assert estimate == pytest.approx(exact_utility(graph, [0], 2), rel=0.1)

    def test_matches_exact_star(self):
        graph = star_graph(6, activation_probability=0.5)
        estimator = estimator_on(graph, theta=20_000, seed=3)
        estimate = estimator.total_utility(estimator.state_for([0]), 1)
        assert estimate == pytest.approx(exact_utility(graph, [0], 1), rel=0.1)

    def test_empty_seed_set(self):
        estimator = estimator_on(path_graph(3), theta=10, seed=0)
        assert estimator.total_utility(estimator.empty_state(), 1) == 0.0

    def test_monotone_in_seeds(self):
        estimator = estimator_on(star_graph(10, activation_probability=0.5), theta=500, seed=4)
        assert estimator.total_utility(estimator.state_for([0, 1]), 1) >= (
            estimator.total_utility(estimator.state_for([0]), 1)
        )


class TestRisGreedy:
    """P1 by greedy max-cover over RR sets: ``solve_tcim_budget`` on an
    :class:`RRSetEstimator`."""

    def test_finds_the_hub(self):
        graph = star_graph(20, activation_probability=0.8)
        solution = solve_tcim_budget(estimator_on(graph, theta=2000, seed=5), budget=1, deadline=1)
        assert solution.seeds == [0]
        assert solution.report.total_utility > 5

    def test_agrees_with_ensemble_greedy(self):
        """RIS-greedy and ensemble-greedy should pick similar-quality
        seed sets for P1 (cross-validation of two estimator stacks)."""
        from repro.influence.ensemble import WorldEnsemble

        graph, assignment = two_block_sbm(
            80, 0.7, 0.15, 0.02, activation_probability=0.2, seed=6
        )
        estimator = RRSetEstimator(graph, assignment, theta=4000, seed=7)
        ris_seeds = solve_tcim_budget(estimator, budget=5, deadline=3).seeds

        ensemble = WorldEnsemble(graph, assignment, n_worlds=150, seed=8)
        ensemble_solution = solve_tcim_budget(ensemble, budget=5, deadline=3)

        ris_value = ensemble.total_utility(ensemble.state_for(ris_seeds), 3)
        greedy_value = ensemble_solution.report.total_utility
        assert ris_value >= 0.85 * greedy_value

    def test_early_stop_when_everything_covered(self):
        graph = path_graph(3, activation_probability=1.0)
        estimator = estimator_on(graph, theta=100, seed=9)
        solution = solve_tcim_budget(estimator, budget=3, deadline=math.inf)
        # Node 0 covers every RR set; no second seed adds coverage.
        assert solution.seeds == [0]
        assert solution.trace.stopped_reason == "no-gain"

    def test_candidate_restriction(self):
        graph = star_graph(10, activation_probability=0.9)
        estimator = estimator_on(graph, candidates=[3, 4], theta=500, seed=10)
        solution = solve_tcim_budget(estimator, budget=1, deadline=1)
        assert solution.seeds[0] in {3, 4}

    def test_validation(self):
        estimator = estimator_on(path_graph(3), theta=10, seed=0)
        with pytest.raises(OptimizationError):
            solve_tcim_budget(estimator, budget=0, deadline=1)
        with pytest.raises(OptimizationError):
            solve_tcim_budget(estimator, budget=10, deadline=1)
        with pytest.raises(EstimationError, match="empty"):
            estimator_on(path_graph(3), candidates=[], theta=10)


class TestPoolsAreReachIndexes:
    """Every RR pool is a reach index of ``(candidate, covered set)``
    memberships, and the shared oracle keeps each bound horizon's exact
    marginal counts, so CELF runs exact rounds on RR sets."""

    @staticmethod
    def estimator(adaptive):
        graph, assignment = two_block_sbm(
            90, 0.7, 0.2, 0.03, activation_probability=0.15, seed=21
        )
        if adaptive:
            return RRSetEstimator(graph, assignment, epsilon=0.3, delta=0.05, seed=22)
        return RRSetEstimator(graph, assignment, theta=3000, seed=22)

    @pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
    @pytest.mark.parametrize("fair", [False, True], ids=["unfair", "fair"])
    @pytest.mark.parametrize("quota", [None, 0.6], ids=["budget", "cover"])
    def test_lazy_greedy_equals_plain_greedy_step_by_step(self, adaptive, fair, quota):
        estimator = self.estimator(adaptive)
        assert estimator.marginal_counts(estimator.empty_state(), 4) is not None
        objective = ConcaveSumObjective(concave=log1p) if fair else TotalInfluenceObjective()
        population = float(estimator.group_sizes.sum())
        stop = None
        if quota is not None:
            def stop(utilities):
                return float(utilities.sum()) / population >= quota

        celf, plain = (
            engine(estimator, objective, deadline=4, max_seeds=8, stop=stop)
            for engine in (lazy_greedy, plain_greedy)
        )
        assert celf.size > 1
        assert_same_steps(celf, plain)

    def test_state_bound_to_two_horizons(self):
        estimator = self.estimator(adaptive=False)
        seeds = [estimator.label(p) for p in (3, 40)]
        state = estimator.state_for(seeds)
        for extra in (None, 7):
            if extra is not None:
                estimator.add_seed(state, extra)
                seeds.append(estimator.label(extra))
            for deadline in (1, 3):
                utilities = estimator.group_utilities(state, deadline)
                np.testing.assert_array_equal(
                    utilities, estimator.utilities_for(seeds, deadline)
                )
                # Every candidate's exact marginal row is that of the
                # grown seed set.
                marginals = estimator.marginal_counts(state, deadline)
                scale = estimator.n / estimator.diagnostics(deadline)["theta"]
                covered = estimator._bind(state, deadline)[1]
                for position in (0, 3, 11, 64):
                    grown = seeds + [estimator.label(position)] * (
                        estimator.label(position) not in seeds
                    )
                    np.testing.assert_array_equal(
                        (marginals[position] + covered.counts[1]) * scale,
                        estimator.utilities_for(grown, deadline),
                    )
        assert set(state.bound) == {1, 3}


class TestStaleness:
    """RR pools encode the graph they were sampled on and cannot be
    repaired, so every query and mutation refuses a changed graph."""

    def test_stale_estimator_refuses_queries_and_seeds(self):
        graph, assignment = two_block_sbm(
            60, 0.7, 0.2, 0.03, activation_probability=0.15, seed=3
        )
        estimator = RRSetEstimator(graph, assignment, theta=400, seed=4)
        state = estimator.state_for([estimator.label(0)])
        estimator.group_utilities(state, 2)  # binds a pool while fresh
        u, v, _ = next(iter(graph.edges()))
        graph.remove_edge(u, v)
        with pytest.raises(EstimationError, match="stale"):
            estimator.add_seed(state, 1)
        assert state.seed_positions == [0]
        with pytest.raises(EstimationError, match="stale"):
            estimator.state_for([estimator.label(1)])
        with pytest.raises(EstimationError, match="stale"):
            estimator.group_utilities(state, 2)
