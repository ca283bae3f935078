"""Unit tests for the WorldEnsemble estimator."""

import math

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.influence.ensemble import WorldEnsemble
from repro.influence.exact import exact_group_utilities
from repro.graph.digraph import DiGraph
from repro.graph.groups import GroupAssignment


@pytest.fixture
def line_ensemble(two_group_line):
    graph, assignment = two_group_line
    return WorldEnsemble(graph, assignment, n_worlds=8, seed=0)


class TestConstruction:
    def test_defaults(self, line_ensemble):
        assert line_ensemble.n == 4
        assert line_ensemble.n_candidates == 4
        assert line_ensemble.group_names == ["left", "right"]
        assert line_ensemble.group_sizes.tolist() == [2, 2]

    def test_candidate_restriction(self, two_group_line):
        graph, assignment = two_group_line
        ensemble = WorldEnsemble(
            graph, assignment, n_worlds=4, candidates=["a", "c"], seed=0
        )
        assert ensemble.n_candidates == 2
        assert ensemble.position("a") == 0
        with pytest.raises(EstimationError, match="candidate"):
            ensemble.position("b")

    def test_duplicate_candidates_rejected(self, two_group_line):
        graph, assignment = two_group_line
        with pytest.raises(EstimationError, match="duplicates"):
            WorldEnsemble(graph, assignment, candidates=["a", "a"], seed=0)

    def test_empty_candidates_rejected(self, two_group_line):
        graph, assignment = two_group_line
        with pytest.raises(EstimationError, match="empty"):
            WorldEnsemble(graph, assignment, candidates=[], seed=0)

    def test_bad_world_count(self, two_group_line):
        graph, assignment = two_group_line
        with pytest.raises(EstimationError):
            WorldEnsemble(graph, assignment, n_worlds=0, seed=0)

    def test_memory_reporting(self, line_ensemble):
        # p = 1: a reaches 4 nodes, b 3, c 2, d 1 — 10 entries per world.
        reach = line_ensemble._oracle.reach
        assert reach.flat.size == 8 * 10
        assert line_ensemble.memory_bytes() == reach.nbytes


class TestStateManagement:
    def test_empty_state_zero_utility(self, line_ensemble):
        state = line_ensemble.empty_state()
        assert line_ensemble.total_utility(state, math.inf) == 0.0

    def test_add_seed_mutates(self, line_ensemble):
        state = line_ensemble.empty_state()
        line_ensemble.add_seed(state, line_ensemble.position("a"))
        assert state.size == 1
        assert line_ensemble.seeds_of(state) == ["a"]

    def test_double_add_rejected(self, line_ensemble):
        state = line_ensemble.empty_state()
        pos = line_ensemble.position("a")
        line_ensemble.add_seed(state, pos)
        with pytest.raises(EstimationError, match="already"):
            line_ensemble.add_seed(state, pos)

    def test_state_for(self, line_ensemble):
        state = line_ensemble.state_for(["a", "c"])
        assert state.size == 2

    def test_state_copy_independent(self, line_ensemble):
        state = line_ensemble.state_for(["a"])
        clone = state.copy()
        line_ensemble.add_seed(clone, line_ensemble.position("c"))
        assert state.size == 1 and clone.size == 2


class TestUtilities:
    def test_deterministic_graph_utilities(self, line_ensemble):
        # p = 1 on the path: seeding 'a' reaches everything; deadline
        # truncates exactly at hop distance.
        state = line_ensemble.state_for(["a"])
        assert line_ensemble.total_utility(state, math.inf) == 4.0
        assert line_ensemble.total_utility(state, 1) == 2.0
        utilities = line_ensemble.group_utilities(state, 2)
        assert utilities.tolist() == [2.0, 1.0]

    def test_candidate_utilities_do_not_mutate(self, line_ensemble):
        state = line_ensemble.state_for(["a"])
        before = state.best_time.copy()
        line_ensemble.candidate_group_utilities(
            state, line_ensemble.position("d"), math.inf
        )
        assert (state.best_time == before).all()
        assert state.size == 1

    def test_candidate_matches_actual_addition(self, line_ensemble):
        state = line_ensemble.state_for(["a"])
        predicted = line_ensemble.candidate_group_utilities(
            state, line_ensemble.position("d"), 2
        )
        line_ensemble.add_seed(state, line_ensemble.position("d"))
        actual = line_ensemble.group_utilities(state, 2)
        assert predicted.tolist() == actual.tolist()

    def test_normalized_utilities(self, line_ensemble):
        state = line_ensemble.state_for(["a"])
        normalized = line_ensemble.normalized_group_utilities(state, math.inf)
        assert normalized.tolist() == [1.0, 1.0]

    def test_utilities_for_convenience(self, line_ensemble):
        direct = line_ensemble.utilities_for(["a"], 1)
        assert direct.tolist() == [2.0, 0.0]

    def test_invalid_deadline(self, line_ensemble):
        state = line_ensemble.empty_state()
        with pytest.raises(EstimationError):
            line_ensemble.group_utilities(state, -1)

    def test_standard_errors_zero_on_deterministic_graph(self, line_ensemble):
        state = line_ensemble.state_for(["a"])
        assert line_ensemble.standard_errors(state, math.inf).tolist() == [0.0, 0.0]


class TestAgainstExact:
    def test_converges_to_exact(self, small_two_group):
        graph, assignment = small_two_group
        ensemble = WorldEnsemble(graph, assignment, n_worlds=6000, seed=2)
        for seeds, deadline in ((["h"], 2), (["h", "m1"], 1), (["bridge"], math.inf)):
            estimate = ensemble.utilities_for(seeds, deadline)
            exact = exact_group_utilities(graph, assignment, seeds, deadline)
            expected = np.asarray([exact[g] for g in ensemble.group_names])
            np.testing.assert_allclose(estimate, expected, atol=0.15)

    def test_monotone_in_deadline(self, small_two_group):
        graph, assignment = small_two_group
        ensemble = WorldEnsemble(graph, assignment, n_worlds=200, seed=3)
        state = ensemble.state_for(["h"])
        previous = -1.0
        for deadline in (0, 1, 2, 3, math.inf):
            total = ensemble.total_utility(state, deadline)
            assert total >= previous
            previous = total

    def test_lt_model_runs(self, small_two_group):
        graph, assignment = small_two_group
        ensemble = WorldEnsemble(
            graph, assignment, n_worlds=50, model="lt", seed=4
        )
        state = ensemble.state_for(["h"])
        assert ensemble.total_utility(state, math.inf) >= 1.0


class TestCandidatePositions:
    """Out-of-range candidate positions are refused by every estimator."""

    @pytest.mark.parametrize("kind", ["worlds", "rrset"])
    def test_out_of_range_positions_raise(self, kind):
        from repro.datasets.synthetic import synthetic_sbm
        from repro.influence.rrsets import RRSetEstimator

        graph, assignment = synthetic_sbm(n=40, seed=1)
        if kind == "worlds":
            estimator = WorldEnsemble(graph, assignment, n_worlds=5, seed=2)
        else:
            estimator = RRSetEstimator(graph, assignment, theta=200, seed=2)
        state = estimator.empty_state()
        for position in (-1, estimator.n_candidates):
            with pytest.raises(EstimationError, match="out of range"):
                estimator.candidate_group_utilities(state, position, 3)
            with pytest.raises(EstimationError, match="out of range"):
                estimator.add_seed(state, position)
        assert state.seed_positions == []


class TestCacheAccounting:
    def test_nbytes_counts_reach_index(self):
        from repro.datasets.synthetic import synthetic_sbm

        graph, assignment = synthetic_sbm(n=60, seed=1)
        ensemble = WorldEnsemble(graph, assignment, n_worlds=6, seed=2)
        reach = ensemble._oracle.reach
        worlds = sum(world.nbytes for world in ensemble.worlds)
        assert ensemble.nbytes == worlds + reach.nbytes
        assert reach.nbytes >= reach.table.nbytes + reach.flat.nbytes
