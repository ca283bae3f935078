"""Unit tests for the greedy engines (CELF and plain)."""

import math

import numpy as np
import pytest

from repro.errors import InfeasibleError, OptimizationError
from repro.influence.ensemble import WorldEnsemble
from repro.graph.digraph import DiGraph
from repro.graph.groups import GroupAssignment
from repro.core.concave import log1p
from repro.core.greedy import lazy_greedy, plain_greedy
from repro.core.objectives import ConcaveSumObjective, TotalInfluenceObjective


def two_star_graph():
    """Two disjoint directed stars: hub sizes 5 and 3, p = 1.

    Greedy must pick the larger hub first, the smaller second.
    """
    graph = DiGraph(default_probability=1.0)
    graph.add_node("H5", group="g")
    for i in range(5):
        graph.add_node(f"h5_{i}", group="g")
        graph.add_edge("H5", f"h5_{i}")
    graph.add_node("H3", group="g")
    for i in range(3):
        graph.add_node(f"h3_{i}", group="g")
        graph.add_edge("H3", f"h3_{i}")
    return graph, GroupAssignment.from_graph(graph)


@pytest.fixture
def star_ensemble():
    graph, assignment = two_star_graph()
    return WorldEnsemble(graph, assignment, n_worlds=3, seed=0)


@pytest.mark.parametrize("engine", [lazy_greedy, plain_greedy])
class TestGreedySelection:
    def test_picks_largest_hub_first(self, star_ensemble, engine):
        trace = engine(
            star_ensemble, TotalInfluenceObjective(), deadline=1, max_seeds=2
        )
        assert trace.seeds == ["H5", "H3"]
        assert trace.final_group_utilities.tolist() == [10.0]

    def test_gains_are_decreasing(self, star_ensemble, engine):
        trace = engine(
            star_ensemble, TotalInfluenceObjective(), deadline=1, max_seeds=2
        )
        gains = [step.gain for step in trace.steps]
        assert gains == sorted(gains, reverse=True)
        assert gains[0] == pytest.approx(6.0)
        assert gains[1] == pytest.approx(4.0)

    def test_stops_on_no_gain(self, star_ensemble, engine):
        # After both hubs and all leaves are covered, marginal gain is 0.
        trace = engine(
            star_ensemble, TotalInfluenceObjective(), deadline=1, max_seeds=10
        )
        assert trace.stopped_reason == "no-gain"
        assert trace.size == 2

    def test_budget_stop(self, star_ensemble, engine):
        trace = engine(
            star_ensemble, TotalInfluenceObjective(), deadline=1, max_seeds=1
        )
        assert trace.stopped_reason == "budget"
        assert trace.size == 1

    def test_stop_condition(self, star_ensemble, engine):
        trace = engine(
            star_ensemble,
            TotalInfluenceObjective(),
            deadline=1,
            max_seeds=5,
            stop=lambda utilities: utilities.sum() >= 6.0,
        )
        assert trace.stopped_reason == "stop-condition"
        assert trace.size == 1

    def test_require_stop_raises_when_unreachable(self, star_ensemble, engine):
        with pytest.raises(InfeasibleError):
            engine(
                star_ensemble,
                TotalInfluenceObjective(),
                deadline=1,
                max_seeds=10,
                stop=lambda utilities: utilities.sum() >= 1000.0,
                require_stop=True,
            )

    def test_invalid_max_seeds(self, star_ensemble, engine):
        with pytest.raises(OptimizationError):
            engine(star_ensemble, TotalInfluenceObjective(), deadline=1, max_seeds=0)

    def test_trace_audit_fields(self, star_ensemble, engine):
        trace = engine(
            star_ensemble, TotalInfluenceObjective(), deadline=1, max_seeds=2
        )
        for step in trace.steps:
            assert step.evaluations > 0
            assert step.objective_value > 0
        assert trace.total_evaluations >= trace.size

    def test_empty_trace_accessors_raise(self, star_ensemble, engine):
        trace = engine(
            star_ensemble,
            TotalInfluenceObjective(),
            deadline=1,
            max_seeds=3,
            stop=lambda utilities: True,  # satisfied immediately
        )
        assert trace.size == 0
        with pytest.raises(OptimizationError):
            _ = trace.final_objective


class TestCelfMatchesPlain:
    @pytest.mark.parametrize("concave", [None, log1p])
    def test_identical_output_on_random_graph(self, concave):
        from repro.graph.generators import two_block_sbm

        graph, assignment = two_block_sbm(
            60, 0.7, 0.2, 0.05, activation_probability=0.3, seed=5
        )
        ensemble = WorldEnsemble(graph, assignment, n_worlds=30, seed=6)
        objective = (
            TotalInfluenceObjective()
            if concave is None
            else ConcaveSumObjective(concave=concave)
        )
        celf = lazy_greedy(ensemble, objective, deadline=3, max_seeds=6)
        plain = plain_greedy(ensemble, objective, deadline=3, max_seeds=6)
        assert celf.seeds == plain.seeds
        assert celf.final_objective == pytest.approx(plain.final_objective)

    def test_celf_saves_evaluations(self):
        # Discounted utilities have no exact marginal counts, so CELF
        # runs bound rounds and re-evaluates lazily.
        from repro.graph.generators import two_block_sbm

        graph, assignment = two_block_sbm(
            80, 0.6, 0.2, 0.05, activation_probability=0.2, seed=7
        )
        ensemble = WorldEnsemble(graph, assignment, n_worlds=20, seed=8)
        objective = TotalInfluenceObjective()
        celf = lazy_greedy(ensemble, objective, deadline=2, max_seeds=8, discount=0.9)
        plain = plain_greedy(ensemble, objective, deadline=2, max_seeds=8, discount=0.9)
        assert celf.total_evaluations < plain.total_evaluations

    def test_exact_rounds_score_every_open_candidate(self):
        # The step model keeps exact marginal counts: every round after
        # a pick scores all open candidates, exactly as plain greedy
        # does.
        from repro.graph.generators import two_block_sbm

        graph, assignment = two_block_sbm(
            80, 0.6, 0.2, 0.05, activation_probability=0.2, seed=7
        )
        ensemble = WorldEnsemble(graph, assignment, n_worlds=20, seed=8)
        objective = TotalInfluenceObjective()
        celf = lazy_greedy(ensemble, objective, deadline=2, max_seeds=8)
        plain = plain_greedy(ensemble, objective, deadline=2, max_seeds=8)
        assert celf.seeds == plain.seeds
        assert [step.evaluations for step in celf.steps] == [
            step.evaluations for step in plain.steps
        ]
        assert celf.total_evaluations == plain.total_evaluations


class TestSelectionRuleRegressions:
    """Two places where CELF and plain greedy once picked different
    seeds on the default synthetic graph (500 nodes, 100 worlds, world
    seed 1).  Both engines now take the largest gain and give ties
    within the tolerance to the lowest position, and CELF rescores
    every entry that could win such a tie before it picks."""

    @pytest.fixture(scope="class")
    def synthetic(self):
        from repro.api import EnsembleSpec, Session

        return Session().ensemble_for(
            EnsembleSpec(dataset="synthetic", n_worlds=100, world_seed=1)
        )

    @staticmethod
    def assert_bit_identical(celf, plain):
        assert celf.stopped_reason == plain.stopped_reason
        assert [s.position for s in celf.steps] == [s.position for s in plain.steps]
        for ours, reference in zip(celf.steps, plain.steps):
            assert ours.gain == reference.gain
            assert ours.objective_value == reference.objective_value
            np.testing.assert_array_equal(
                ours.group_utilities, reference.group_utilities
            )

    @staticmethod
    def state_before(ensemble, trace, step):
        state = ensemble.empty_state()
        for position in [s.position for s in trace.steps[:step]]:
            ensemble.add_seed(state, position)
        return state

    def test_identical_counts_go_to_the_lowest_position(self, synthetic):
        # Fair log, tau 10, B 30: at step 15 positions 2, 160 and 162
        # have identical counts.  Position 2's stale CELF entry sat one
        # ulp below its current gain, so CELF used to take 162.
        objective = ConcaveSumObjective(concave=log1p)
        celf = lazy_greedy(synthetic, objective, deadline=10, max_seeds=30)
        plain = plain_greedy(synthetic, objective, deadline=10, max_seeds=30)
        state = self.state_before(synthetic, plain, 15)
        rows = synthetic.candidate_group_utilities_batch(state, [2, 160, 162], 10)
        np.testing.assert_array_equal(
            np.rint(rows * synthetic.n_worlds), [[1990, 1194]] * 3
        )
        assert celf.steps[15].position == plain.steps[15].position == 2
        self.assert_bit_identical(celf, plain)

    def test_float_near_tie_is_a_tie(self, synthetic):
        # Total objective, tau 5, B 30: at step 18 counts [4091, 36]
        # (position 88) and [4092, 35] (position 114) tie, but their
        # float gains differ by a few ulps in 114's favour.  Plain's old
        # running-best rule kept 88 while CELF's heap took 114.
        objective = TotalInfluenceObjective()
        celf = lazy_greedy(synthetic, objective, deadline=5, max_seeds=30)
        plain = plain_greedy(synthetic, objective, deadline=5, max_seeds=30)
        state = self.state_before(synthetic, plain, 18)
        rows = synthetic.candidate_group_utilities_batch(state, [88, 114], 5)
        np.testing.assert_array_equal(
            np.rint(rows * synthetic.n_worlds), [[4091, 36], [4092, 35]]
        )
        base = objective.value(synthetic.group_utilities(state, 5))
        gain_88, gain_114 = (objective.value(row) - base for row in rows)
        assert 0 < gain_114 - gain_88 < 1e-12
        assert celf.steps[18].position == plain.steps[18].position == 88
        self.assert_bit_identical(celf, plain)


class TestExhausted:
    def test_budget_beyond_the_pool_takes_every_candidate(self):
        # Five isolated nodes: every gain is exactly 1 (the seed itself),
        # so each round is a tie that goes to the lowest position.
        graph = DiGraph()
        for node in range(5):
            graph.add_node(node, group="a" if node % 2 else "b")
        ensemble = WorldEnsemble(
            graph, GroupAssignment.from_graph(graph), n_worlds=4, seed=0
        )
        celf, plain = (
            engine(ensemble, TotalInfluenceObjective(), deadline=3, max_seeds=8)
            for engine in (lazy_greedy, plain_greedy)
        )
        for trace in (celf, plain):
            assert trace.stopped_reason == "exhausted"
            assert [step.position for step in trace.steps] == list(range(5))
            assert [step.gain for step in trace.steps] == [1.0] * 5
        assert [s.objective_value for s in celf.steps] == [
            s.objective_value for s in plain.steps
        ]


class TestStopCalls:
    """Exact rounds test ``stop`` once a pick: inside the fused call while
    the budget allows more picks, in the engine after the budget's last
    one.  The stop reason is plain greedy's in every case."""

    @staticmethod
    def counted(threshold):
        calls = []

        def stop(utilities):
            calls.append(float(utilities.sum()))
            return utilities.sum() >= threshold

        return stop, calls

    @pytest.mark.parametrize(
        "threshold, max_seeds, reason",
        [
            (math.inf, 2, "budget"),  # never holds
            (math.inf, 4, "no-gain"),
            (10.0, 4, "stop-condition"),  # holds before the budget is spent
            (10.0, 2, "stop-condition"),  # holds at the budget's last pick
            (6.0, 4, "stop-condition"),  # holds at the first pick
        ],
    )
    def test_one_stop_call_per_pick(self, star_ensemble, threshold, max_seeds, reason):
        objective = TotalInfluenceObjective()
        stop, calls = self.counted(threshold)
        celf = lazy_greedy(star_ensemble, objective, 1, max_seeds, stop=stop)
        plain = plain_greedy(
            star_ensemble, objective, 1, max_seeds, stop=self.counted(threshold)[0]
        )
        assert celf.stopped_reason == plain.stopped_reason == reason
        assert celf.seeds == plain.seeds
        # The empty set's check, then one per pick.
        assert len(calls) == 1 + celf.size
