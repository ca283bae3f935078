"""Property-based tests (hypothesis) for the paper's core invariants.

These verify the mathematical structure everything rests on:

- ``f_tau`` is non-negative, monotone and submodular — exactly, on the
  exact estimator over random tiny graphs (Kempe et al. / Chen et al.);
- every ``H`` in the concave family is non-negative, non-decreasing and
  midpoint-concave on random points;
- ensemble utilities are monotone submodular *world-wise* (they are
  averages of deterministic coverage functions), so greedy's guarantee
  applies to what we actually optimise;
- the greedy budget solver achieves ``(1 - 1/e) * OPT`` on the ensemble
  objective (checked against exhaustive search over the candidate set);
- CELF lazy greedy and plain greedy make bit-identical selections —
  seeds, gains, utilities, objective values and stop reasons — on
  random SBMs under every step-model objective family, deadline and
  quota stop, on both the world ensemble and the RR-set estimator
  (discounted runs: up to a float32 near-tie);
- a stale per-group marginal vector bounds the current gain from above
  (up to the tie tolerance), which is what makes CELF's re-bounds sound;
- the marginal counts a world-ensemble state keeps (``add_seed``
  retires them through the reach index's transpose) equal a
  from-scratch recount at every step, and the batched rows read from
  them — like the RR estimator's batched rows — equal the scalar
  oracle's rows bit for bit;
- every objective's row-wise ``values`` equals its scalar ``value`` on
  each row bit for bit, so CELF's batched re-bounds and its scalar
  oracle gains are the same arithmetic;
- any feasible FAIRTCIM-COVER solution has disparity at most ``1 - Q``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.brute import brute_force_budget
from repro.core.concave import identity, log1p, power, scaled_log, sqrt
from repro.core.greedy import GAIN_TOLERANCE, lazy_greedy, plain_greedy
from repro.core.objectives import (
    ConcaveSumObjective,
    TotalCoverageObjective,
    TotalInfluenceObjective,
    TruncatedCoverageObjective,
)
from repro.errors import ConfigError
from repro.graph.digraph import DiGraph
from repro.graph.generators import two_block_sbm
from repro.graph.groups import GroupAssignment
from repro.influence.ensemble import WorldEnsemble
from repro.influence.exact import exact_utility
from repro.influence.rrsets import RRSetEstimator
from repro.influence.utility import disparity


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
@st.composite
def tiny_graphs(draw):
    """Random directed graphs with <= 5 nodes and <= 8 edges (exact-safe)."""
    n = draw(st.integers(min_value=2, max_value=5))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(
        st.lists(st.sampled_from(possible), max_size=8, unique=True)
    )
    probs = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=len(edges),
            max_size=len(edges),
        )
    )
    graph = DiGraph()
    for node in range(n):
        graph.add_node(node, group="g1" if node % 2 else "g0")
    for (u, v), p in zip(edges, probs):
        graph.add_edge(u, v, p)
    return graph


seed_subsets = st.sets(st.integers(min_value=0, max_value=4), max_size=3)
deadlines = st.sampled_from([0, 1, 2, math.inf])


def _valid_seeds(graph, seeds):
    return {s for s in seeds if s in graph}


# ---------------------------------------------------------------------------
# f_tau structure (exact)
# ---------------------------------------------------------------------------
class TestExactUtilityProperties:
    @settings(max_examples=40, deadline=None)
    @given(graph=tiny_graphs(), seeds=seed_subsets, tau=deadlines)
    def test_non_negative_and_bounded(self, graph, seeds, tau):
        seeds = _valid_seeds(graph, seeds)
        value = exact_utility(graph, seeds, tau)
        assert -1e-12 <= value <= graph.number_of_nodes() + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(graph=tiny_graphs(), seeds=seed_subsets, tau=deadlines, extra=st.integers(0, 4))
    def test_monotone_in_seeds(self, graph, seeds, tau, extra):
        seeds = _valid_seeds(graph, seeds)
        if extra not in graph or extra in seeds:
            return
        base = exact_utility(graph, seeds, tau)
        bigger = exact_utility(graph, seeds | {extra}, tau)
        assert bigger >= base - 1e-4

    @settings(max_examples=30, deadline=None)
    @given(graph=tiny_graphs(), tau=deadlines, data=st.data())
    def test_submodular_in_seeds(self, graph, tau, data):
        nodes = list(graph.nodes())
        if len(nodes) < 3:
            return
        small = set(data.draw(st.sets(st.sampled_from(nodes), max_size=1)))
        superset_extra = data.draw(st.sampled_from(nodes))
        addition = data.draw(st.sampled_from(nodes))
        large = small | {superset_extra}
        if addition in large:
            return
        gain_small = exact_utility(graph, small | {addition}, tau) - exact_utility(
            graph, small, tau
        )
        gain_large = exact_utility(graph, large | {addition}, tau) - exact_utility(
            graph, large, tau
        )
        assert gain_small >= gain_large - 1e-4

    @settings(max_examples=30, deadline=None)
    @given(graph=tiny_graphs(), seeds=seed_subsets)
    def test_monotone_in_deadline(self, graph, seeds):
        seeds = _valid_seeds(graph, seeds)
        values = [exact_utility(graph, seeds, tau) for tau in (0, 1, 2, 3, math.inf)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# concave family structure
# ---------------------------------------------------------------------------
class TestConcaveProperties:
    wrappers = [identity, sqrt, log1p, power(0.3), power(0.8)]

    @settings(max_examples=60, deadline=None)
    @given(
        x=st.floats(min_value=0.0, max_value=1e6),
        y=st.floats(min_value=0.0, max_value=1e6),
        index=st.integers(0, 4),
    )
    def test_monotone_and_midpoint_concave(self, x, y, index):
        wrapper = self.wrappers[index]
        lo, hi = sorted((x, y))
        assert wrapper(hi) >= wrapper(lo) - 1e-4
        mid = wrapper((lo + hi) / 2.0)
        avg = (wrapper(lo) + wrapper(hi)) / 2.0
        assert mid >= avg - 1e-7 * max(1.0, avg)

    @settings(max_examples=60, deadline=None)
    @given(z=st.floats(min_value=0.0, max_value=1e6), index=st.integers(0, 4))
    def test_non_negative(self, z, index):
        assert self.wrappers[index](z) >= -1e-12


# ---------------------------------------------------------------------------
# ensemble structure + greedy guarantee
# ---------------------------------------------------------------------------
def _random_ensemble(seed: int, n: int = 12) -> WorldEnsemble:
    rng = np.random.default_rng(seed)
    graph = DiGraph()
    for node in range(n):
        graph.add_node(node, group="a" if node < n // 2 else "b")
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.25:
                graph.add_edge(u, v, float(rng.uniform(0.1, 0.9)))
    if graph.number_of_edges() == 0:
        graph.add_edge(0, 1, 0.5)
    assignment = GroupAssignment.from_graph(graph)
    return WorldEnsemble(graph, assignment, n_worlds=25, seed=seed + 1)


class TestEnsembleProperties:
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 1000), tau=st.sampled_from([1, 2, math.inf]), data=st.data())
    def test_monotone_submodular_on_worlds(self, seed, tau, data):
        ensemble = _random_ensemble(seed)
        nodes = list(range(ensemble.n_candidates))
        a = data.draw(st.sampled_from(nodes))
        b = data.draw(st.sampled_from(nodes))
        c = data.draw(st.sampled_from(nodes))
        if len({a, b, c}) < 3:
            return
        empty = ensemble.empty_state()
        s_a = ensemble.state_for([ensemble.label(a)])
        s_ab = ensemble.state_for([ensemble.label(a), ensemble.label(b)])

        f_empty = ensemble.total_utility(empty, tau)
        f_a = ensemble.total_utility(s_a, tau)
        f_ac = float(
            ensemble.candidate_group_utilities(s_a, c, tau).sum()
        )
        f_ab = ensemble.total_utility(s_ab, tau)
        f_abc = float(
            ensemble.candidate_group_utilities(s_ab, c, tau).sum()
        )
        # Monotone.
        assert f_a >= f_empty - 1e-4
        assert f_ab >= f_a - 1e-4
        # Submodular: gain of c shrinks as the set grows.
        assert (f_ac - f_a) >= (f_abc - f_ab) - 1e-4

    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 500))
    def test_greedy_achieves_1_minus_1_over_e(self, seed):
        from itertools import combinations

        ensemble = _random_ensemble(seed, n=10)
        objective = TotalInfluenceObjective()
        budget = 2
        trace = lazy_greedy(ensemble, objective, deadline=2, max_seeds=budget)
        greedy_value = trace.final_objective

        best = 0.0
        for pair in combinations(range(ensemble.n_candidates), budget):
            state = ensemble.empty_state()
            for position in pair:
                ensemble.add_seed(state, position)
            best = max(best, ensemble.total_utility(state, 2))
        assert greedy_value >= (1 - 1 / math.e) * best - 1e-4


def _sbm_estimator(kind, seed, n, p_hom, activation):
    graph, assignment = two_block_sbm(
        n, 0.7, p_hom, 0.05, activation_probability=activation, seed=seed
    )
    if kind == "rrset":
        return RRSetEstimator(graph, assignment, theta=1500, seed=seed + 1)
    return WorldEnsemble(graph, assignment, n_worlds=20, seed=seed + 1)


def _objective(name, estimator):
    """(objective, discount) by name; truncated coverage at Q = 0.3."""
    if name == "coverage":
        return TruncatedCoverageObjective(0.3, estimator.group_sizes), None
    return {
        "total": (TotalInfluenceObjective(), None),
        "log": (ConcaveSumObjective(concave=log1p), None),
        "sqrt": (ConcaveSumObjective(concave=sqrt), None),
        "discount": (TotalInfluenceObjective(), 0.8),
    }[name]


class TestCelfMatchesPlain:
    """CELF's lazy re-evaluation is an exact shortcut: submodularity
    makes stale per-group marginals upper bounds, so skipping them never
    changes a selection; its exact rounds score every open candidate
    from the state's marginal counts.  Plain greedy rescoring everything
    through the scalar oracle (``block_size=1``, which shares no
    marginal counts with the engine under test) is the reference.

    Step-model utilities are exact counts divided once in float64, and
    both engines break ties within ``GAIN_TOLERANCE`` to the lowest
    position, so for every step-model objective the traces are equal
    bit for bit.  Discounted utilities are float32 means: two
    candidates whose gains tie in exact arithmetic can come out a few
    float32 ulps apart, in either order depending on the seed set (e.g.
    ``seed=7, n=10, p_hom=0.1, activation=0.1, discount, tau=1,
    max_seeds=2``: gains 1.16000003 vs 1.16000018).  There the property
    is bit-identity up to such a near-tie.
    """

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(10, 40),
        p_hom=st.sampled_from([0.1, 0.3, 0.6]),
        activation=st.sampled_from([0.1, 0.3, 0.6]),
        kind=st.sampled_from(["worlds", "rrset"]),
        objective_name=st.sampled_from(["coverage", "discount", "log", "sqrt", "total"]),
        tau=st.sampled_from([0, 1, 2, 3, math.inf]),
        quota=st.none() | st.sampled_from([0.1, 0.3, 0.6]),
        max_seeds=st.integers(1, 8),
    )
    def test_lazy_and_plain_greedy_agree(
        self, seed, n, p_hom, activation, kind, objective_name, tau, quota, max_seeds
    ):
        # RR sets record reachability, not activation times: no discount.
        assume(not (kind == "rrset" and objective_name == "discount"))
        estimator = _sbm_estimator(kind, seed, n, p_hom, activation)
        objective, discount = _objective(objective_name, estimator)
        population = float(estimator.group_sizes.sum())
        stop = None
        if quota is not None:
            def stop(utilities):
                return float(utilities.sum()) / population >= quota

        celf, plain = (
            engine(
                estimator,
                objective,
                deadline=tau,
                max_seeds=max_seeds,
                stop=stop,
                discount=discount,
                block_size=block_size,
            )
            for engine, block_size in ((lazy_greedy, 64), (plain_greedy, 1))
        )
        for ours, reference in zip(celf.steps, plain.steps):
            if discount is not None and ours.position != reference.position:
                # float32 eps is 1.2e-7 and utilities reach n <= 40, so a
                # few ulps of the largest utility stay below 1e-5.
                assert ours.gain == pytest.approx(reference.gain, rel=1e-5, abs=1e-5)
                return
            assert ours.position == reference.position
            assert (ours.gain, ours.objective_value) == (
                reference.gain,
                reference.objective_value,
            )
            np.testing.assert_array_equal(
                ours.group_utilities, reference.group_utilities
            )
        assert celf.size == plain.size
        assert celf.stopped_reason == plain.stopped_reason


class TestStaleBoundsAreUpperBounds:
    """``obj(u + delta_stale) - obj(u)`` never falls below the true gain
    by more than the tie tolerance — the soundness of CELF's per-group
    re-bounds, on exact float64 counts."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["worlds", "rrset"]),
        objective_name=st.sampled_from(["coverage", "log", "sqrt", "total"]),
        tau=st.sampled_from([0, 1, 2, 3, math.inf]),
        data=st.data(),
    )
    def test_stale_bound_dominates_true_gain(
        self, seed, kind, objective_name, tau, data
    ):
        estimator = _sbm_estimator(kind, seed, 24, 0.3, 0.3)
        objective, _ = _objective(objective_name, estimator)
        positions = data.draw(
            st.lists(
                st.integers(0, estimator.n_candidates - 1),
                min_size=2,
                max_size=6,
                unique=True,
            )
        )
        *seeds, candidate = positions
        # The stale vector is from a prefix of the seeds; the true gain
        # is against all of them.
        cut = data.draw(st.integers(0, len(seeds)))
        small = estimator.empty_state()
        for position in seeds[:cut]:
            estimator.add_seed(small, position)
        delta_stale = estimator.candidate_group_utilities(
            small, candidate, tau
        ) - estimator.group_utilities(small, tau)
        large = estimator.empty_state()
        for position in seeds:
            estimator.add_seed(large, position)
        utilities = estimator.group_utilities(large, tau)
        value = objective.value(utilities)
        true_gain = (
            objective.value(estimator.candidate_group_utilities(large, candidate, tau))
            - value
        )
        bound = objective.value(utilities + delta_stale) - value
        assert bound >= true_gain - GAIN_TOLERANCE * max(1.0, abs(value))


class TestObjectiveRowsMatchScalar:
    """``objective.values(rows)[i]`` is ``objective.value(rows[i])`` bit
    for bit, for every objective family and every ``H``, weighted or
    not: CELF re-bounds with the first and scores oracle gains with the
    second, and the selection rule relies on both agreeing."""

    KINDS = [
        "total",
        "identity",
        "log",
        "sqrt",
        "power",
        "scaled_log",
        "truncated-coverage",
        "total-coverage",
    ]

    @staticmethod
    def build(kind, k, data):
        if kind == "total":
            return TotalInfluenceObjective()
        positive = st.floats(min_value=0.1, max_value=1e4)
        if kind == "truncated-coverage":
            return TruncatedCoverageObjective(
                quota=data.draw(st.floats(min_value=0.01, max_value=1.0)),
                group_sizes=data.draw(st.lists(positive, min_size=k, max_size=k)),
            )
        if kind == "total-coverage":
            return TotalCoverageObjective(
                quota=data.draw(st.floats(min_value=0.01, max_value=1.0)),
                population=data.draw(positive),
            )
        concave = {
            "identity": lambda: identity,
            "log": lambda: log1p,
            "sqrt": lambda: sqrt,
            "power": lambda: power(data.draw(st.floats(min_value=0.05, max_value=1.0))),
            "scaled_log": lambda: scaled_log(data.draw(positive)),
        }[kind]()
        weights = data.draw(
            st.none()
            | st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=k, max_size=k)
        )
        return ConcaveSumObjective(concave=concave, weights=weights)

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_values_equal_value_row_by_row(self, kind, data):
        k = data.draw(st.integers(1, 6))
        objective = self.build(kind, k, data)
        rows = data.draw(
            arrays(
                np.float64,
                (data.draw(st.integers(0, 8)), k),
                elements=st.floats(min_value=0.0, max_value=1e6),
            )
        )
        assert objective.values(rows[:0]).shape == (0,)
        values = objective.values(rows)
        assert values.shape == (rows.shape[0],)
        assert values.dtype == np.float64
        for row, batched in zip(rows, values):
            scalar = objective.value(row)
            assert isinstance(scalar, float)
            assert np.float64(scalar).tobytes() == batched.tobytes()

    def test_weights_mismatch_is_a_config_error(self):
        objective = ConcaveSumObjective(concave=log1p, weights=[1.0, 2.0])
        for rows in (np.ones((4, 3)), np.empty((0, 3)), np.ones(3)):
            with pytest.raises(ConfigError, match="weights shape"):
                objective.values(rows)
        with pytest.raises(ConfigError, match="weights shape"):
            objective.value(np.ones(3))


class TestCoverDisparityBound:
    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 300), quota=st.sampled_from([0.2, 0.4]))
    def test_feasible_cover_disparity_below_1_minus_q(self, seed, quota):
        from repro.errors import InfeasibleError
        from repro.core.cover import solve_fair_tcim_cover

        ensemble = _random_ensemble(seed, n=14)
        try:
            solution = solve_fair_tcim_cover(ensemble, quota=quota, deadline=3)
        except InfeasibleError:
            return
        assert solution.report.disparity <= 1.0 - quota + 1e-9
        assert (solution.report.fraction_influenced >= quota - 1e-9).all()


class TestBruteGreedyConsistency:
    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 200))
    def test_greedy_never_beats_brute_force_exact(self, seed):
        """Greedy on exact utilities can't exceed the exact optimum."""
        rng = np.random.default_rng(seed)
        graph = DiGraph()
        for node in range(6):
            graph.add_node(node, group="a" if node < 3 else "b")
        count = 0
        for u in range(6):
            for v in range(6):
                if u != v and rng.random() < 0.3 and count < 9:
                    graph.add_edge(u, v, float(rng.uniform(0.2, 0.8)))
                    count += 1
        if count == 0:
            graph.add_edge(0, 1, 0.5)
        assignment = GroupAssignment.from_graph(graph)
        optimum = brute_force_budget(graph, assignment, budget=2, deadline=2)
        # Greedy on the exact oracle, brute-forced here by taking the
        # best singleton then the best extension.
        best_single = max(
            graph.nodes(), key=lambda s: exact_utility(graph, [s], 2)
        )
        best_pair_value = max(
            exact_utility(graph, [best_single, other], 2)
            for other in graph.nodes()
            if other != best_single
        )
        assert best_pair_value <= optimum.total_utility + 1e-9


# ---------------------------------------------------------------------------
# reach-index oracle = dense-row reference
# ---------------------------------------------------------------------------
def _random_backend_ensemble(seed: int, n: int, backend: str) -> WorldEnsemble:
    rng = np.random.default_rng(seed)
    graph = DiGraph()
    for node in range(n):
        graph.add_node(node, group=("a", "b", "c")[node % 3])
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.2:
                graph.add_edge(u, v, float(rng.uniform(0.1, 0.9)))
    assignment = GroupAssignment.from_graph(graph)
    return WorldEnsemble(graph, assignment, n_worlds=12, seed=seed + 1, backend=backend)


def _dense_reference(ensemble, best_time, cutoff):
    """``min_with`` + ``_activation_weights`` + GEMM, summed in float64."""
    weights = ensemble._activation_weights(best_time, cutoff, None)
    per_world = weights @ ensemble._masks_f
    return per_world.sum(axis=0, dtype=np.float64) / ensemble.n_worlds


class TestReachIndexOracle:
    """The step-model oracle scores a candidate from its own finite
    entries and the state's histogram.  It must equal the dense-row
    reference (fold the candidate's ``(R, n)`` rows, weight, GEMM) bit
    for bit, and ``add_seed``'s sparse update must leave the same state
    a full fold plus a fresh histogram would."""

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(3, 30),
        backend=st.sampled_from(["dense", "sparse"]),
        data=st.data(),
    )
    def test_index_oracle_equals_dense_rows(self, seed, n, backend, data):
        ensemble = _random_backend_ensemble(seed, n, backend)
        reach = ensemble._reach_index()
        assert reach is not None
        last = int(reach.time.max()) if reach.time.size else 0
        cutoffs = (0, 1, max(last // 2, 2), math.inf)
        order = data.draw(st.permutations(range(ensemble.n_candidates)))
        n_seeds = data.draw(st.integers(0, min(4, ensemble.n_candidates - 1)))
        state = ensemble.empty_state()
        for position in order[:n_seeds]:
            ensemble.add_seed(state, position)
        for deadline in cutoffs:
            cutoff = min(deadline, 254)
            for position in range(ensemble.n_candidates):
                folded = ensemble.backend.min_with(state.best_time, position)
                np.testing.assert_array_equal(
                    ensemble.candidate_group_utilities(state, position, deadline),
                    _dense_reference(ensemble, folded, cutoff),
                    err_msg=f"{backend} c={position} tau={deadline}",
                )

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(3, 30),
        backend=st.sampled_from(["dense", "sparse"]),
        data=st.data(),
    )
    def test_add_seed_matches_fold_and_fresh_histogram(self, seed, n, backend, data):
        ensemble = _random_backend_ensemble(seed, n, backend)
        order = data.draw(st.permutations(range(ensemble.n_candidates)))
        state = ensemble.empty_state()
        reference = ensemble.empty_state().best_time
        for position in order[: min(5, len(order))]:
            ensemble.add_seed(state, position)
            ensemble.backend.min_into(reference, position)
            np.testing.assert_array_equal(state.best_time, reference)
            fresh = ensemble._state_time_histogram(
                type(state)(best_time=reference.copy())
            )
            np.testing.assert_array_equal(state.time_hist, fresh)

    @pytest.mark.parametrize("backend", ["dense", "sparse", "lazy"])
    def test_group_utilities_match_gemm(self, backend):
        ensemble = _random_backend_ensemble(3, 24, backend)
        state = ensemble.empty_state()
        for position in (5, 0, 17):
            ensemble.add_seed(state, position)
            for deadline in (0, 1, 2, 3, math.inf):
                np.testing.assert_array_equal(
                    ensemble.group_utilities(state, deadline),
                    _dense_reference(ensemble, state.best_time, min(deadline, 254)),
                )
        # A ``state_for`` state builds its histogram from ``best_time``.
        rebuilt = ensemble.state_for([ensemble.label(p) for p in (5, 0, 17)])
        np.testing.assert_array_equal(
            ensemble.group_utilities(rebuilt, 2),
            _dense_reference(ensemble, rebuilt.best_time, 2),
        )


def _recounted_marginals(ensemble, state, cutoff):
    """``M`` from the store's dense rows: per candidate, the nodes it
    reaches by ``cutoff`` that ``state`` does not, counted per group."""
    unreachable = np.full((ensemble.n_worlds, ensemble.n), 255, dtype=np.uint8)
    missing = state.best_time > cutoff
    groups = ensemble._masks_bool.astype(np.int64)  # (k, n)
    return np.stack(
        [
            ((ensemble.backend.min_with(unreachable, c) <= cutoff) & missing).sum(axis=0)
            @ groups.T
            for c in range(ensemble.n_candidates)
        ]
    )


class TestMarginalCounts:
    """The state's marginal counts ``M`` (kept exact by ``add_seed``
    through the index transpose) equal a from-scratch recount at every
    step, and batched rows read from them equal the scalar oracle's
    per-entry count bit for bit."""

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(3, 30),
        backend=st.sampled_from(["dense", "sparse"]),
        deadline=st.sampled_from([0, 1, 3, math.inf]),
        data=st.data(),
    )
    def test_maintained_equals_recount(self, seed, n, backend, deadline, data):
        ensemble = _random_backend_ensemble(seed, n, backend)
        cutoff = min(deadline, 254)
        order = data.draw(st.permutations(range(ensemble.n_candidates)))
        n_seeds = data.draw(st.integers(1, min(6, ensemble.n_candidates)))
        state = ensemble.empty_state()
        marginals = ensemble.marginal_counts(state, deadline)
        everyone = np.arange(ensemble.n_candidates)
        for position in order[:n_seeds]:
            ensemble.add_seed(state, position)
            # Maintained in place, not rebuilt.
            assert ensemble.marginal_counts(state, deadline) is marginals
            np.testing.assert_array_equal(
                marginals, _recounted_marginals(ensemble, state, cutoff)
            )
            batched = ensemble.candidate_group_utilities_batch(state, everyone, deadline)
            scalar = np.stack(
                [
                    ensemble.candidate_group_utilities(state, c, deadline)
                    for c in everyone
                ]
            )
            np.testing.assert_array_equal(batched, scalar)
        # A ``state_for`` state recounts ``M`` from the whole index.
        rebuilt = ensemble.state_for(ensemble.seeds_of(state))
        np.testing.assert_array_equal(
            ensemble.marginal_counts(rebuilt, deadline), marginals
        )

    def test_copy_shares_no_marginals(self):
        ensemble = _random_backend_ensemble(3, 24, "dense")
        state = ensemble.empty_state()
        ensemble.add_seed(state, 5)
        before = ensemble.marginal_counts(state, 2).copy()
        clone = state.copy()
        assert clone.marginals[1] is not state.marginals[1]
        ensemble.add_seed(clone, 0)
        np.testing.assert_array_equal(state.marginals[1], before)
        np.testing.assert_array_equal(
            clone.marginals[1], _recounted_marginals(ensemble, clone, 2)
        )

    def test_none_without_exact_counts(self):
        lazy = _random_backend_ensemble(3, 24, "lazy")
        assert lazy.marginal_counts(lazy.empty_state(), 2) is None
        dense = _random_backend_ensemble(3, 24, "dense")
        assert dense.marginal_counts(dense.empty_state(), 2, discount=0.9) is None


class TestRRBatchMatchesScalar:
    """The RR estimator's batched rows (one gather over the block's
    covered-set ids, one bincount over the uncovered ones) equal its
    scalar rows bit for bit, at any state and for any positions."""

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(10, 40),
        deadline=st.sampled_from([0, 1, 3, math.inf]),
        data=st.data(),
    )
    def test_batch_rows_equal_scalar_rows(self, seed, n, deadline, data):
        estimator = _sbm_estimator("rrset", seed, n, 0.3, 0.3)
        candidates = range(estimator.n_candidates)
        seeds = data.draw(st.lists(st.sampled_from(candidates), unique=True, max_size=4))
        positions = data.draw(st.lists(st.sampled_from(candidates), max_size=12))
        state = estimator.empty_state()
        for position in seeds:
            estimator.add_seed(state, position)
        batched = estimator.candidate_group_utilities_batch(state, positions, deadline)
        assert batched.shape == (len(positions), len(estimator.group_names))
        for row, position in zip(batched, positions):
            np.testing.assert_array_equal(
                row, estimator.candidate_group_utilities(state, position, deadline)
            )


# ---------------------------------------------------------------------------
# incremental repair = fresh build on the mutated graph
# ---------------------------------------------------------------------------
def _repair_graph(seed: int, n: int) -> DiGraph:
    rng = np.random.default_rng(seed)
    graph = DiGraph()
    for node in range(n):
        graph.add_node(node, group=("a", "b")[node % 2])
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.25:
                graph.add_edge(u, v, float(rng.choice([1.0, rng.uniform(0.05, 0.95)])))
    return graph


@st.composite
def _delta_for(draw, graph):
    """One valid delta on ``graph``: inserts, removes and reweights.

    Probabilities of 1.0 (and removals of p = 1 edges) re-flip the edge
    in every world; 0.0 re-flips it in every world that kept it.
    """
    from repro.graph.delta import GraphDelta

    nodes = graph.nodes()
    present = sorted((u, v) for u, v, _ in graph.edges())
    absent = [(u, v) for u in nodes for v in nodes if u != v and not graph.has_edge(u, v)]
    probability = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99))
    touched = draw(
        st.lists(st.sampled_from(present), unique=True, max_size=min(4, len(present)))
        if present else st.just([])
    )
    split = draw(st.integers(0, len(touched)))
    inserts = draw(
        st.lists(st.sampled_from(absent), unique=True, max_size=min(3, len(absent)))
        if absent else st.just([])
    )
    return GraphDelta(
        inserts=tuple((u, v, draw(probability)) for u, v in inserts),
        removes=tuple(touched[:split]),
        reweights=tuple((u, v, draw(probability)) for u, v in touched[split:]),
    )


def _store_rows(ensemble) -> np.ndarray:
    """The ``(R, C, n)`` store, read through the backend's own fold."""
    unreachable = np.full((ensemble.n_worlds, ensemble.n), 255, dtype=np.uint8)
    return np.stack(
        [ensemble.backend.min_with(unreachable, p) for p in range(ensemble.n_candidates)],
        axis=1,
    )


def _assert_same_arrays(left, right, what):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(left, name), getattr(right, name)
        np.testing.assert_array_equal(a, b, err_msg=f"{what}.{name}")
        assert a.dtype == b.dtype, f"{what}.{name}: {a.dtype} != {b.dtype}"


class TestRepairEqualsFreshBuild:
    """An ensemble repaired through a sequence of deltas equals a fresh
    build on the mutated graph array for array: worlds, store, reach
    index, and ``RepairReport.affected`` is exactly the set of
    candidates whose rows changed."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(3, 14),
        backend=st.sampled_from(["dense", "sparse", "lazy"]),
        data=st.data(),
    )
    def test_repaired_equals_fresh(self, seed, n, backend, data):
        graph = _repair_graph(seed, n)
        # A candidate subset leaves some tails reachable from no candidate.
        candidates = data.draw(
            st.lists(st.sampled_from(graph.nodes()), min_size=1, max_size=n, unique=True)
        )
        build = dict(n_worlds=6, seed=seed + 1, backend=backend, candidates=candidates)
        ensemble = WorldEnsemble(graph, GroupAssignment.from_graph(graph), **build)
        if backend == "lazy":
            ensemble.candidate_group_utilities_batch(
                ensemble.empty_state(), range(0, ensemble.n_candidates, 2), 3
            )
        else:
            assert ensemble._reach_index() is not None
        deltas = []
        for _ in range(data.draw(st.integers(1, 3))):
            delta = data.draw(_delta_for(graph))
            before = None if backend == "lazy" else _store_rows(ensemble)
            report = ensemble.apply_delta(delta)
            deltas.append(delta)
            if backend == "lazy":
                # Lazy stores cannot name uncached rows; an empty delta
                # changes none.
                assert report.affected is None or report.edges_touched == 0
            else:
                changed = (before != _store_rows(ensemble)).any(axis=(0, 2))
                np.testing.assert_array_equal(report.affected, np.flatnonzero(changed))

        fresh_graph = _repair_graph(seed, n)
        for delta in deltas:
            fresh_graph.apply_delta(delta)
        fresh = WorldEnsemble(fresh_graph, GroupAssignment.from_graph(fresh_graph), **build)
        for r, (mine, theirs) in enumerate(zip(ensemble.worlds, fresh.worlds)):
            _assert_same_arrays(mine.adjacency, theirs.adjacency, f"world {r}")
        store, reference = ensemble.backend, fresh.backend
        if backend == "dense":
            np.testing.assert_array_equal(store._distances, reference._distances)
        elif backend == "sparse":
            for r, (mine, theirs) in enumerate(zip(store._rows, reference._rows)):
                _assert_same_arrays(mine, theirs, f"store world {r}")
        else:
            for position, rows in store._cache.items():
                np.testing.assert_array_equal(rows, reference._build_rows(position))
            return
        patched, rebuilt = ensemble._reach, fresh._reach_index()
        assert patched is not None
        # The node-major transpose is rebuilt with the patched entries.
        assert {"node_starts", "node_code", "node_time"} <= set(rebuilt._fields)
        for name in rebuilt._fields:
            np.testing.assert_array_equal(
                getattr(patched, name), getattr(rebuilt, name), err_msg=name
            )
            assert getattr(patched, name).dtype == getattr(rebuilt, name).dtype, name
