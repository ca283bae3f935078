"""Tests for the RIS (reverse-reachable set) estimator."""

import math

import numpy as np
import pytest

from repro.core.concave import log1p
from repro.core.greedy import lazy_greedy, plain_greedy
from repro.core.objectives import ConcaveSumObjective, TotalInfluenceObjective
from repro.errors import EstimationError, OptimizationError
from repro.influence.exact import exact_utility
from repro.influence.rrsets import (
    RRCollection,
    RRSetEstimator,
    ris_greedy,
    sample_rr_sets,
)
from repro.graph.digraph import DiGraph
from repro.graph.generators import path_graph, star_graph, two_block_sbm


class TestSampling:
    def test_set_always_contains_target(self):
        graph = path_graph(5, activation_probability=0.5)
        collection = sample_rr_sets(graph, deadline=2, count=50, seed=0)
        assert collection.count == 50
        assert all(len(rr) >= 1 for rr in collection.sets)

    def test_deadline_zero_gives_singletons(self):
        graph = path_graph(5, activation_probability=1.0)
        collection = sample_rr_sets(graph, deadline=0, count=30, seed=0)
        assert all(len(rr) == 1 for rr in collection.sets)

    def test_deterministic_under_seed(self):
        graph = star_graph(20, activation_probability=0.4)
        a = sample_rr_sets(graph, deadline=2, count=25, seed=7)
        b = sample_rr_sets(graph, deadline=2, count=25, seed=7)
        assert a.sets == b.sets

    def test_deadline_limits_depth(self):
        # Path 0->1->2->3 with p=1: RR set of target 3 at tau=1 is {2,3}.
        graph = path_graph(4, activation_probability=1.0)
        collection = sample_rr_sets(graph, deadline=1, count=200, seed=1)
        for rr in collection.sets:
            assert len(rr) <= 2

    def test_validation(self):
        graph = path_graph(3)
        with pytest.raises(EstimationError):
            sample_rr_sets(graph, deadline=2, count=0)
        with pytest.raises(EstimationError):
            sample_rr_sets(graph, deadline=-1, count=5)
        with pytest.raises(EstimationError):
            sample_rr_sets(DiGraph(), deadline=1, count=5)


class TestDeadlineSemantics:
    """The sampler follows the library-wide deadline rules."""

    def test_nan_deadline_is_an_estimation_error(self):
        # Regression: NaN used to slip past the `deadline < 0` guard
        # and surface as a bare ValueError from int(nan).
        graph = path_graph(3)
        with pytest.raises(EstimationError):
            sample_rr_sets(graph, deadline=float("nan"), count=5)

    def test_fractional_deadline_floors_like_clip_deadline(self):
        # floor(2.5) == 2, so tau=2.5 and tau=2 draw identical sets.
        graph = path_graph(6, activation_probability=0.7)
        frac = sample_rr_sets(graph, deadline=2.5, count=100, seed=3)
        whole = sample_rr_sets(graph, deadline=2, count=100, seed=3)
        assert frac.sets == whole.sets

    def test_infinite_deadline_reaches_everything(self):
        graph = path_graph(5, activation_probability=1.0)
        collection = sample_rr_sets(graph, deadline=math.inf, count=50, seed=4)
        # Target at index i has i+1 reverse-reachable nodes on a chain.
        assert any(len(rr) == 5 for rr in collection.sets)
        assert collection.estimate([0]) == 5.0


def _reference_ris_greedy(collection, budget, candidates=None):
    """The pre-CELF full-rescan selection, kept as the tie oracle."""
    graph = collection.graph
    pool = graph.nodes() if candidates is None else list(candidates)
    pool_idx = [int(i) for i in graph.indices_of(pool)]
    coverage = {c: [] for c in pool_idx}
    for set_id, rr in enumerate(collection.sets):
        for node in rr:
            if node in coverage:
                coverage[node].append(set_id)
    import numpy as np

    covered = np.zeros(collection.count, dtype=bool)
    chosen = []
    for _ in range(budget):
        best, best_gain = -1, 0
        for candidate in pool_idx:
            if candidate in chosen:
                continue
            gain = int(np.count_nonzero(~covered[coverage[candidate]]))
            if gain > best_gain:
                best, best_gain = candidate, gain
        if best < 0:
            break
        chosen.append(best)
        covered[coverage[best]] = True
    return graph.labels_of(chosen)


class TestCelfEquivalence:
    """The lazy heap must reproduce the full rescan bit-for-bit,
    including first-in-pool-order tie-breaking."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_reference_on_random_graphs(self, seed):
        graph, _ = two_block_sbm(
            40, 0.6, 0.2, 0.05, activation_probability=0.3, seed=seed
        )
        collection = sample_rr_sets(graph, deadline=3, count=600, seed=seed)
        seeds, _ = ris_greedy(collection, budget=6)
        assert seeds == _reference_ris_greedy(collection, budget=6)

    def test_matches_reference_under_heavy_ties(self):
        # p=1 stars: every leaf has identical coverage, all-tie rounds.
        graph = star_graph(12, activation_probability=1.0)
        collection = sample_rr_sets(graph, deadline=1, count=300, seed=5)
        for budget in (1, 3, 5):
            seeds, _ = ris_greedy(collection, budget=budget)
            assert seeds == _reference_ris_greedy(collection, budget=budget)

    def test_matches_reference_with_candidate_pool_order(self):
        graph = star_graph(10, activation_probability=1.0)
        collection = sample_rr_sets(graph, deadline=1, count=200, seed=6)
        pool = [7, 3, 9, 4]  # ties must resolve to the earliest in pool
        seeds, _ = ris_greedy(collection, budget=2, candidates=pool)
        assert seeds == _reference_ris_greedy(collection, 2, candidates=pool)


class TestEstimation:
    def test_matches_exact_on_chain(self):
        graph = path_graph(4, activation_probability=0.6)
        collection = sample_rr_sets(graph, deadline=2, count=20_000, seed=2)
        estimate = collection.estimate([0])
        exact = exact_utility(graph, [0], 2)
        assert estimate == pytest.approx(exact, rel=0.1)

    def test_matches_exact_star(self):
        graph = star_graph(6, activation_probability=0.5)
        collection = sample_rr_sets(graph, deadline=1, count=20_000, seed=3)
        estimate = collection.estimate([0])
        exact = exact_utility(graph, [0], 1)
        assert estimate == pytest.approx(exact, rel=0.1)

    def test_empty_seed_set(self):
        graph = path_graph(3)
        collection = sample_rr_sets(graph, deadline=1, count=10, seed=0)
        assert collection.estimate([]) == 0.0

    def test_monotone_in_seeds(self):
        graph = star_graph(10, activation_probability=0.5)
        collection = sample_rr_sets(graph, deadline=1, count=500, seed=4)
        assert collection.estimate([0, 1]) >= collection.estimate([0])


class TestRisGreedy:
    def test_finds_the_hub(self):
        graph = star_graph(20, activation_probability=0.8)
        collection = sample_rr_sets(graph, deadline=1, count=2000, seed=5)
        seeds, estimate = ris_greedy(collection, budget=1)
        assert seeds == [0]
        assert estimate > 5

    def test_agrees_with_ensemble_greedy(self):
        """RIS-greedy and ensemble-greedy should pick similar-quality
        seed sets for P1 (cross-validation of two estimator stacks)."""
        from repro.influence.ensemble import WorldEnsemble
        from repro.core.budget import solve_tcim_budget
        from repro.graph.groups import GroupAssignment

        graph, assignment = two_block_sbm(
            80, 0.7, 0.15, 0.02, activation_probability=0.2, seed=6
        )
        collection = sample_rr_sets(graph, deadline=3, count=4000, seed=7)
        ris_seeds, _ = ris_greedy(collection, budget=5)

        ensemble = WorldEnsemble(graph, assignment, n_worlds=150, seed=8)
        ensemble_solution = solve_tcim_budget(ensemble, budget=5, deadline=3)

        ris_value = ensemble.total_utility(ensemble.state_for(ris_seeds), 3)
        greedy_value = ensemble_solution.report.total_utility
        assert ris_value >= 0.85 * greedy_value

    def test_early_stop_when_everything_covered(self):
        graph = path_graph(3, activation_probability=1.0)
        collection = sample_rr_sets(graph, deadline=math.inf, count=100, seed=9)
        seeds, _ = ris_greedy(collection, budget=3)
        # Node 0 covers every RR set; no second seed adds coverage.
        assert len(seeds) == 1

    def test_candidate_restriction(self):
        graph = star_graph(10, activation_probability=0.9)
        collection = sample_rr_sets(graph, deadline=1, count=500, seed=10)
        seeds, _ = ris_greedy(collection, budget=1, candidates=[3, 4])
        assert seeds[0] in {3, 4}

    def test_validation(self):
        graph = path_graph(3)
        collection = sample_rr_sets(graph, deadline=1, count=10, seed=0)
        with pytest.raises(OptimizationError):
            ris_greedy(collection, budget=0)
        with pytest.raises(OptimizationError):
            ris_greedy(collection, budget=10)
        with pytest.raises(OptimizationError):
            ris_greedy(collection, budget=1, candidates=[])


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
        assert celf.size == plain.size > 1
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
