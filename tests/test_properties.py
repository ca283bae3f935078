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
  quota stop, on both the world ensemble and the RR-set estimator, and
  under a time discount;
- a stale per-group marginal vector bounds the current gain from above
  (up to the tie tolerance), which is what makes CELF's re-bounds sound;
- the marginal counts a world-ensemble state keeps (``add_seed``
  retires them through the reach index's transpose) equal a
  from-scratch recount at every step, and the batched rows read from
  them — like the RR estimator's batched rows — equal the scalar
  oracle's rows bit for bit;
- one fused exact CELF round (``add_seed_and_score``) leaves, on both
  estimators, the state a fresh ``state_for`` recount builds (best
  times, counts, ``M``, histogram) and returns its utilities and rows;
  and a copied state picks independently of its original;
- discounted queries (float64 sums) agree bit for bit on every query
  path, within 1e-12 of a float64 brute reference, and ``discount=1``
  is the step model bit for bit;
- every objective's row-wise ``values`` equals its scalar ``value`` on
  each row bit for bit, so CELF's batched re-bounds and its scalar
  oracle gains are the same arithmetic;
- any feasible FAIRTCIM-COVER solution has disparity at most ``1 - Q``;
- the array-native cold path equals its edge-by-edge references: a
  ``DiGraph.from_edge_arrays`` graph equals the ``add_edge``-built one
  (and stays equal under mutation), every generator equals edge-by-edge
  insertion, ``sample_ic_worlds`` equals one COO-built world per key,
  degree picks equal a full sort, and a sweep never builds adjacency
  dicts.
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
from repro.errors import ConfigError, GraphError
from repro.graph.digraph import DiGraph
from repro.graph.generators import two_block_sbm
from repro.graph.groups import GroupAssignment
from repro.influence import backends
from repro.influence.ensemble import WorldEnsemble
from repro.influence.exact import exact_utility
from repro.influence.rrsets import RRSetEstimator
from repro.influence.utility import disparity

from stores import (
    assert_same_world,
    assert_stops_bound_in_time,
    dense_rows,
    gemm_utilities,
    world_totals,
)


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
        "discount-log": (ConcaveSumObjective(concave=log1p), 0.9),
    }[name]


class TestCelfMatchesPlain:
    """CELF's lazy re-evaluation is an exact shortcut: submodularity
    makes stale per-group marginals upper bounds, so skipping them never
    changes a selection; its exact rounds score every open candidate
    from the state's marginal counts.  Plain greedy rescoring every
    open candidate through the scalar oracle (which shares no marginal
    counts with the engine under test) is the reference.

    Every query path returns the same bits for the same seed set — exact
    counts divided once for the step model, the same float64 sums for
    discounted utilities — and both engines break ties within
    ``GAIN_TOLERANCE`` to the lowest position, so the traces are equal
    bit for bit for every objective, discounted ones included.
    """

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(10, 40),
        p_hom=st.sampled_from([0.1, 0.3, 0.6]),
        activation=st.sampled_from([0.1, 0.3, 0.6]),
        kind=st.sampled_from(["worlds", "rrset"]),
        objective_name=st.sampled_from(
            ["coverage", "discount", "discount-log", "log", "sqrt", "total"]
        ),
        tau=st.sampled_from([0, 1, 2, 3, math.inf]),
        quota=st.none() | st.sampled_from([0.1, 0.3, 0.6]),
        max_seeds=st.integers(1, 8),
    )
    def test_lazy_and_plain_greedy_agree(
        self, seed, n, p_hom, activation, kind, objective_name, tau, quota, max_seeds
    ):
        # RR sets record reachability, not activation times: no discount.
        assume(not (kind == "rrset" and objective_name.startswith("discount")))
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
            )
            for engine in (lazy_greedy, plain_greedy)
        )
        for ours, reference in zip(celf.steps, plain.steps):
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
def _random_index_ensemble(seed: int, n: int) -> WorldEnsemble:
    rng = np.random.default_rng(seed)
    graph = DiGraph()
    for node in range(n):
        graph.add_node(node, group=("a", "b", "c")[node % 3])
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.2:
                graph.add_edge(u, v, float(rng.uniform(0.1, 0.9)))
    assignment = GroupAssignment.from_graph(graph)
    return WorldEnsemble(graph, assignment, n_worlds=12, seed=seed + 1)


class TestReachIndexOracle:
    """Every query reads the reach index: a candidate is scored from its
    own finite entries and the state's histogram (step-model counts or
    discounted float64 weights).  Every path must equal the brute
    reference — fold the candidate's dense ``(R, n)`` rows (scipy's BFS
    per world), weight, float64 GEMM — bit for bit in the step model and
    within 1e-12 under a discount, where the query paths still agree
    with each other bit for bit; ``add_seed``'s sparse update must leave
    the same state a full fold plus a fresh histogram would."""

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(3, 30),
        data=st.data(),
    )
    def test_index_oracle_equals_dense_rows(self, seed, n, data):
        ensemble = _random_index_ensemble(seed, n)
        rows = dense_rows(ensemble)
        reach = ensemble._oracle.reach
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
                folded = np.minimum(state.best_time, rows[:, position, :])
                np.testing.assert_array_equal(
                    ensemble.candidate_group_utilities(state, position, deadline),
                    gemm_utilities(ensemble, folded, cutoff),
                    err_msg=f"c={position} tau={deadline}",
                )

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(3, 24),
        discount=st.sampled_from([None, 0.8, 0.5, 1.0, 0.0]),
        data=st.data(),
    )
    def test_every_query_path_equals_gemm(self, seed, n, discount, data):
        ensemble = _random_index_ensemble(seed, n)
        rows = dense_rows(ensemble)
        candidates = range(ensemble.n_candidates)
        seeds = data.draw(st.lists(st.sampled_from(candidates), unique=True, max_size=4))
        positions = data.draw(st.lists(st.sampled_from(candidates), max_size=10))
        deadline = data.draw(st.sampled_from([0, 1, 2, 3, math.inf]))
        cutoff = min(deadline, 254)
        if discount is None:
            def check(got, want):
                np.testing.assert_array_equal(got, want)
        else:
            def check(got, want):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        best = np.full((ensemble.n_worlds, ensemble.n), 255, dtype=np.uint8)
        for position in seeds:
            best = np.minimum(best, rows[:, position, :])
        built = ensemble.state_for([ensemble.label(p) for p in seeds])
        added = ensemble.empty_state()
        for position in seeds:
            ensemble.add_seed(added, position)
        for state in (built, added):
            np.testing.assert_array_equal(state.best_time, best)
            utilities = ensemble.group_utilities(state, deadline, discount)
            check(utilities, gemm_utilities(ensemble, best, cutoff, discount))
            batch = ensemble.candidate_group_utilities_batch(
                state, positions, deadline, discount
            )
            assert batch.shape == (len(positions), len(ensemble.group_names))
            for position, row in zip(positions, batch):
                folded = np.minimum(best, rows[:, position, :])
                check(row, gemm_utilities(ensemble, folded, cutoff, discount))
                np.testing.assert_array_equal(
                    ensemble.candidate_group_utilities(state, position, deadline, discount),
                    row,
                )
            sweep = ensemble.group_utilities_sweep(state, [deadline, 0, 4], discount)
            np.testing.assert_array_equal(sweep[0], utilities)
            for row, d in zip(sweep, (deadline, 0, 4)):
                check(row, gemm_utilities(ensemble, best, min(d, 254), discount))
            per_world = world_totals(ensemble, best, cutoff, discount)
            check(
                ensemble.standard_errors(state, deadline, discount),
                per_world.std(axis=0, ddof=1) / math.sqrt(ensemble.n_worlds),
            )

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(3, 24),
        data=st.data(),
    )
    def test_discount_one_is_the_step_model(self, seed, n, data):
        """``gamma = 1`` weighs every node activated by the deadline 1: its
        float64 sums are the step model's exact counts, so every query
        path — and a whole CELF solve, up to its evaluation count —
        returns the step model's bits."""
        ensemble = _random_index_ensemble(seed, n)
        candidates = range(ensemble.n_candidates)
        seeds = data.draw(st.lists(st.sampled_from(candidates), unique=True, max_size=4))
        positions = data.draw(st.lists(st.sampled_from(candidates), max_size=10))
        deadline = data.draw(st.sampled_from([0, 1, 2, 3, math.inf]))
        state = ensemble.state_for([ensemble.label(p) for p in seeds])
        for query in (
            lambda d: ensemble.group_utilities(state, deadline, d),
            lambda d: ensemble.candidate_group_utilities_batch(state, positions, deadline, d),
            lambda d: [
                ensemble.candidate_group_utilities(state, p, deadline, d) for p in positions
            ],
            lambda d: ensemble.group_utilities_sweep(state, [deadline, 0, 4], d),
            lambda d: ensemble.standard_errors(state, deadline, d),
        ):
            np.testing.assert_array_equal(query(1.0), query(None))
        objective = ConcaveSumObjective(concave=log1p)
        step, gamma_one = (
            lazy_greedy(ensemble, objective, deadline, max_seeds=4, discount=d)
            for d in (None, 1.0)
        )
        assert step.stopped_reason == gamma_one.stopped_reason
        assert [
            (s.position, s.gain, s.objective_value, s.group_utilities.tolist())
            for s in step.steps
        ] == [
            (s.position, s.gain, s.objective_value, s.group_utilities.tolist())
            for s in gamma_one.steps
        ]

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(3, 30),
        data=st.data(),
    )
    def test_add_seed_matches_fold_and_fresh_histogram(self, seed, n, data):
        ensemble = _random_index_ensemble(seed, n)
        rows = dense_rows(ensemble)
        order = data.draw(st.permutations(range(ensemble.n_candidates)))
        state = ensemble.empty_state()
        reference = ensemble.empty_state().best_time
        for position in order[: min(5, len(order))]:
            ensemble.add_seed(state, position)
            np.minimum(reference, rows[:, position, :], out=reference)
            np.testing.assert_array_equal(state.best_time, reference)
            fresh = ensemble._oracle.histogram(
                type(state)(best_time=reference.copy())
            )
            np.testing.assert_array_equal(state.time_hist, fresh)

    def test_group_utilities_match_gemm(self):
        ensemble = _random_index_ensemble(3, 24)
        state = ensemble.empty_state()
        for position in (5, 0, 17):
            ensemble.add_seed(state, position)
            for deadline in (0, 1, 2, 3, math.inf):
                np.testing.assert_array_equal(
                    ensemble.group_utilities(state, deadline),
                    gemm_utilities(ensemble, state.best_time, min(deadline, 254)),
                )
        # A ``state_for`` state builds its histogram from ``best_time``.
        rebuilt = ensemble.state_for([ensemble.label(p) for p in (5, 0, 17)])
        np.testing.assert_array_equal(
            ensemble.group_utilities(rebuilt, 2),
            gemm_utilities(ensemble, rebuilt.best_time, 2),
        )


def _recounted_marginals(ensemble, state, cutoff):
    """``M`` from the dense reference rows: per candidate, the nodes it
    reaches by ``cutoff`` that ``state`` does not, counted per group."""
    rows = dense_rows(ensemble)
    missing = state.best_time > cutoff
    groups = ensemble.assignment.masks(ensemble.graph).astype(np.int64)  # (k, n)
    return np.stack(
        [
            ((rows[:, c, :] <= cutoff) & missing).sum(axis=0) @ groups.T
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
        deadline=st.sampled_from([0, 1, 3, math.inf]),
        data=st.data(),
    )
    def test_maintained_equals_recount(self, seed, n, deadline, data):
        ensemble = _random_index_ensemble(seed, n)
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

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(10, 40),
        deadline=st.sampled_from([0, 1, 3, math.inf]),
        data=st.data(),
    )
    def test_rr_maintained_equals_membership_recount(self, seed, n, deadline, data):
        estimator = _sbm_estimator("rrset", seed, n, 0.3, 0.3)
        order = data.draw(st.permutations(range(estimator.n_candidates)))
        n_seeds = data.draw(st.integers(1, 6))
        state = estimator.empty_state()
        marginals = estimator.marginal_counts(state, deadline)
        scale = estimator.n / estimator.diagnostics(deadline)["theta"]
        everyone = np.arange(estimator.n_candidates)
        for i, position in enumerate(order[:n_seeds]):
            estimator.add_seed(state, position)
            assert estimator.marginal_counts(state, deadline) is marginals
            want, covered = _rr_membership_recount(estimator, order[: i + 1], deadline)
            np.testing.assert_array_equal(marginals, want)
            np.testing.assert_array_equal(
                estimator.group_utilities(state, deadline), covered * scale
            )
            np.testing.assert_array_equal(
                estimator.candidate_group_utilities_batch(state, everyone, deadline),
                (want + covered) * scale,
            )
        rebuilt = estimator.state_for(estimator.seeds_of(state))
        np.testing.assert_array_equal(
            estimator.marginal_counts(rebuilt, deadline), marginals
        )

    def test_copy_shares_no_marginals(self):
        ensemble = _random_index_ensemble(3, 24)
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
        # Discounted utilities are float64 weights, not counts.
        ensemble = _random_index_ensemble(3, 24)
        assert ensemble.marginal_counts(ensemble.empty_state(), 2, discount=0.9) is None
        assert ensemble.marginal_counts(ensemble.empty_state(), 2) is not None


def _pick_surface(estimator, deadline):
    """``(oracle, state -> InfluenceState over the deadline's cells)``
    for a world ensemble or an RR estimator (its deadline pool)."""
    if isinstance(estimator, RRSetEstimator):
        return (
            estimator._index_for(deadline).oracle,
            lambda state: estimator._bind(state, deadline)[1],
        )
    return estimator._oracle, lambda state: state


def _assert_state_equals_recount(estimator, state, deadline):
    """``state``'s best times, counts, ``M`` and (rebuilt) histogram
    equal those of a fresh ``state_for`` of its seeds."""
    oracle, cells_of = _pick_surface(estimator, deadline)
    fresh = estimator.state_for(estimator.seeds_of(state))
    ours, theirs = cells_of(state), cells_of(fresh)
    cutoff = 0 if isinstance(estimator, RRSetEstimator) else min(deadline, 254)
    np.testing.assert_array_equal(ours.best_time, theirs.best_time)
    assert ours.counts[0] == cutoff
    np.testing.assert_array_equal(ours.counts[1], oracle.counts(theirs, cutoff))
    assert ours.marginals[0] == cutoff
    np.testing.assert_array_equal(
        ours.marginals[1], estimator.marginal_counts(fresh, deadline)
    )
    np.testing.assert_array_equal(oracle.histogram(ours), oracle.histogram(theirs))
    return fresh


class TestFusedPick:
    """``add_seed_and_score`` — one exact CELF round — leaves the state
    a fresh ``state_for`` recount would build (best times, counts kept
    at the cutoff, ``M`` and the histogram rebuilt from the state), and
    returns that recount's utilities and batched rows bit for bit, on
    the world ensemble and the RR estimator alike."""

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(3, 30),
        kind=st.sampled_from(["worlds", "rrset"]),
        deadline=st.sampled_from([0, 1, 3, math.inf]),
        counted=st.booleans(),
        data=st.data(),
    )
    def test_every_pick_equals_a_recount(self, seed, n, kind, deadline, counted, data):
        if kind == "rrset":
            estimator = _sbm_estimator("rrset", seed, n + 10, 0.3, 0.3)
        else:
            estimator = _random_index_ensemble(seed, n)
        order = data.draw(st.permutations(range(estimator.n_candidates)))
        n_seeds = data.draw(st.integers(1, min(6, estimator.n_candidates)))
        state = estimator.empty_state()
        if counted:  # lazy_greedy asks for the empty set's utilities first
            estimator.group_utilities(state, deadline)
        estimator.marginal_counts(state, deadline)
        open_positions = np.arange(estimator.n_candidates)
        for position in order[:n_seeds]:
            open_positions = open_positions[open_positions != position]
            utilities, rows = estimator.add_seed_and_score(
                state, position, deadline, open_positions, stop=lambda u: False
            )
            fresh = _assert_state_equals_recount(estimator, state, deadline)
            np.testing.assert_array_equal(
                utilities, estimator.group_utilities(fresh, deadline)
            )
            np.testing.assert_array_equal(
                rows,
                estimator.candidate_group_utilities_batch(fresh, open_positions, deadline),
            )
        if open_positions.size:  # the last pick of a solve scores no rows
            pick, open_positions = open_positions[0], open_positions[1:]
            if data.draw(st.booleans()):  # the budget is spent
                utilities, rows = estimator.add_seed_and_score(state, pick, deadline)
            else:  # the stop condition holds
                utilities, rows = estimator.add_seed_and_score(
                    state, pick, deadline, open_positions, stop=lambda u: True
                )
            assert rows is None
            fresh = _assert_state_equals_recount(estimator, state, deadline)
            np.testing.assert_array_equal(
                utilities, estimator.group_utilities(fresh, deadline)
            )

    def test_copy_mid_solve_is_independent(self):
        ensemble = _random_index_ensemble(3, 24)
        deadline = 2
        state = ensemble.empty_state()
        ensemble.group_utilities(state, deadline)
        ensemble.marginal_counts(state, deadline)
        for position in (5, 0):
            ensemble.add_seed_and_score(state, position, deadline)
        clone = state.copy()
        shared = state.counts[1]
        before = shared.copy()
        ensemble.add_seed_and_score(clone, 7, deadline)
        # The pick replaced the counts the copy shares, never wrote them.
        np.testing.assert_array_equal(shared, before)
        ensemble.add_seed_and_score(state, 9, deadline)
        assert ensemble.seeds_of(clone)[-1] not in ensemble.seeds_of(state)
        assert ensemble.seeds_of(state)[-1] not in ensemble.seeds_of(clone)
        for side in (state, clone):
            _assert_state_equals_recount(ensemble, side, deadline)

    def test_copy_of_a_histogram_state_is_independent(self):
        # A state without marginal counts (a bound round's) moves its
        # histogram in place on every pick; the copy must own its own.
        ensemble = _random_index_ensemble(3, 24)
        oracle = ensemble._oracle
        state = ensemble.empty_state()
        for position in (5, 0):
            ensemble.add_seed(state, position)
        clone = state.copy()
        ensemble.add_seed(clone, 7)
        ensemble.add_seed(state, 9)
        for side in (state, clone):
            fresh = ensemble.state_for(ensemble.seeds_of(side))
            np.testing.assert_array_equal(side.best_time, fresh.best_time)
            scan = oracle.histogram(type(side)(best_time=side.best_time.copy()))
            np.testing.assert_array_equal(side.time_hist, scan)


def _rr_membership_recount(estimator, seeds, deadline):
    """RR marginal counts and covered counts by Python sets: per
    candidate, the pool's sets it belongs to that no seed covers,
    counted by target group."""
    index = estimator._index_for(deadline)
    reach = index.oracle.reach
    members = [
        set(reach.flat[reach.offsets[c] : reach.offsets[c + 1]].tolist())
        for c in range(estimator.n_candidates)
    ]
    covered = set().union(*(members[s] for s in seeds))
    k = len(estimator.group_names)

    def by_group(sets):
        return np.bincount(index.set_group[sorted(sets)], minlength=k)

    return np.stack([by_group(sets - covered) for sets in members]), by_group(covered)


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


class TestRepairEqualsFreshBuild:
    """An ensemble repaired through one to three deltas equals a fresh
    build on the mutated graph array for array: worlds and every reach
    index array, and ``RepairReport.affected`` is exactly the set of
    candidates whose rows changed (by the dense reference rows),
    whatever the frontier-BFS chunk budget of the build and repairs.
    The in-time stops of the built and of the repaired oracle bound
    exactly their index's in-time transpose entries."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(3, 14),
        chunk_bytes=st.integers(0, 2000),
        data=st.data(),
    )
    def test_repaired_equals_fresh(self, seed, n, chunk_bytes, data):
        graph = _repair_graph(seed, n)
        # A candidate subset leaves some tails reachable from no candidate.
        candidates = data.draw(
            st.lists(st.sampled_from(graph.nodes()), min_size=1, max_size=n, unique=True)
        )
        spec = dict(n_worlds=6, seed=seed + 1, candidates=candidates)
        with pytest.MonkeyPatch.context() as patch:
            # Builds and repairs under any frontier-BFS chunk budget.
            patch.setattr(backends, "FRONTIER_CHUNK_BYTES", chunk_bytes)
            ensemble = WorldEnsemble(graph, GroupAssignment.from_graph(graph), **spec)
            # Caches the stops at every cutoff before the first repair.
            assert_stops_bound_in_time(ensemble._oracle)
            deltas = []
            for _ in range(data.draw(st.integers(1, 3))):
                delta = data.draw(_delta_for(graph))
                before = dense_rows(ensemble)
                report = ensemble.apply_delta(delta)
                deltas.append(delta)
                changed = (before != dense_rows(ensemble)).any(axis=(0, 2))
                np.testing.assert_array_equal(report.affected, np.flatnonzero(changed))

        fresh_graph = _repair_graph(seed, n)
        for delta in deltas:
            fresh_graph.apply_delta(delta)
        fresh = WorldEnsemble(fresh_graph, GroupAssignment.from_graph(fresh_graph), **spec)
        for r, (mine, theirs) in enumerate(zip(ensemble.worlds, fresh.worlds)):
            assert_same_world(mine, theirs, f"world {r}")
        # The repaired oracle's in-time stops are its own index's.
        assert_stops_bound_in_time(ensemble._oracle)
        patched, rebuilt = ensemble._oracle.reach, fresh._oracle.reach
        # The node-major transpose is rebuilt with the patched entries.
        assert {"node_starts", "node_code", "node_time"} <= set(rebuilt._fields)
        for name in rebuilt._fields:
            np.testing.assert_array_equal(
                getattr(patched, name), getattr(rebuilt, name), err_msg=name
            )
            assert getattr(patched, name).dtype == getattr(rebuilt, name).dtype, name


# ---------------------------------------------------------------------------
# array-native cold path: bulk graphs, all-worlds sampling, degree picks
# ---------------------------------------------------------------------------
@st.composite
def _edge_lists(draw, max_nodes=9):
    """``(n, groups, [(u, v, p), ...])``: distinct edges in random order."""
    n = draw(st.integers(1, max_nodes))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    pairs = draw(st.permutations(possible)) if possible else []
    pairs = pairs[: draw(st.integers(0, len(pairs)))]
    probability = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    edges = [(u, v, draw(probability)) for u, v in pairs]
    groups = draw(st.lists(st.sampled_from(["a", "b", None]), min_size=n, max_size=n))
    return n, groups, edges


def _edge_by_edge(n, groups, edges, default_probability=0.1):
    graph = DiGraph(default_probability=default_probability)
    for node in range(n):
        graph.add_node(node, group=groups[node])
    for u, v, p in edges:
        graph.add_edge(u, v, p)
    return graph


def _bulk(n, groups, edges, default_probability=0.1):
    src, dst, prob = (list(column) for column in zip(*edges)) if edges else ([], [], [])
    return DiGraph.from_edge_arrays(
        n, np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64), prob,
        groups, default_probability=default_probability,
    )


def _graph_view(graph):
    """Everything observable about a graph.  The exports and the copy
    come first, so a lazy graph's are read before its dicts exist."""
    from scipy import sparse

    exports = [(a.tolist(), a.dtype.str) for a in graph.edge_arrays()]
    degrees = graph.out_degrees().tolist()
    src, dst, prob = graph.edge_arrays()
    n = graph.number_of_nodes()
    matrix = sparse.csr_matrix((prob, (src, dst)), shape=(n, n))
    copied = graph.copy()
    copy_view = (copied.version, [(a.tolist(), a.dtype.str) for a in copied.edge_arrays()])
    copy_view += (list(copied.edges()), [copied.predecessors(v) for v in copied.nodes()])
    nodes = graph.nodes()
    return (
        nodes, graph.group_labels_array(), graph.version, graph.number_of_edges(),
        exports, degrees, [graph.out_degree(v) for v in nodes],
        matrix.indptr.tolist(), matrix.indices.tolist(), matrix.data.tolist(),
        list(graph.edges()),
        [graph.successors(v) for v in nodes], [graph.predecessors(v) for v in nodes],
        copy_view,
    )


class TestBulkGraphEqualsEdgeByEdge:
    """``DiGraph.from_edge_arrays`` builds the graph ``add_edge`` would,
    in insertion order, and the two stay equal under mutation."""

    @settings(max_examples=80, deadline=None)
    @given(case=_edge_lists(), data=st.data())
    def test_equal_and_stay_equal_under_mutation(self, case, data):
        n, groups, edges = case
        reference, bulk = _edge_by_edge(n, groups, edges), _bulk(n, groups, edges)
        assert bulk._dicts is None
        assert _graph_view(bulk) == _graph_view(reference)
        if n < 2:
            return
        # A fresh bulk graph, so the first mutation builds its dicts.
        bulk = _bulk(n, groups, edges)
        nodes = list(range(n))
        for _ in range(data.draw(st.integers(1, 3))):
            kind = data.draw(st.sampled_from(["add", "remove", "delta"]))
            present = sorted((u, v) for u, v, _ in reference.edges())
            if kind == "remove" and present:
                u, v = data.draw(st.sampled_from(present))
                for graph in (reference, bulk):
                    graph.remove_edge(u, v)
            elif kind == "delta":
                delta = data.draw(_delta_for(reference))
                for graph in (reference, bulk):
                    graph.apply_delta(delta)
            else:
                # Either endpoint may be a new node.
                ends = nodes + [len(nodes)]
                u, v = data.draw(st.sampled_from([(u, v) for u in ends for v in ends if u != v]))
                p = data.draw(st.floats(0.0, 1.0))
                for graph in (reference, bulk):
                    graph.add_edge(u, v, p)
                nodes = reference.nodes()
            assert _graph_view(bulk) == _graph_view(reference)

    @settings(max_examples=30, deadline=None)
    @given(case=_edge_lists(), p=st.floats(0.0, 1.0))
    def test_with_probability_and_set_group_keep_the_arrays(self, case, p):
        n, groups, edges = case
        reference, bulk = _edge_by_edge(n, groups, edges), _bulk(n, groups, edges)
        for graph in (reference, bulk):
            graph.set_group(0, "c")
        assert bulk._dicts is None
        assert _graph_view(bulk.with_probability(p)) == _graph_view(reference.with_probability(p))
        assert _graph_view(bulk) == _graph_view(reference)

    @pytest.mark.parametrize(
        "src, dst, prob, groups, match",
        [
            ([0, 3], [1, 0], 0.1, None, "out of range"),
            ([0, -1], [1, 0], 0.1, None, "out of range"),
            ([0, 1], [1, 1], 0.1, None, "self-loop"),
            ([0, 1], [1, 0], [0.1, 1.5], None, "must be in \\[0, 1\\]"),
            ([0, 1], [1, 0], [-0.1, 0.5], None, "must be in \\[0, 1\\]"),
            ([0, 1], [1, 0], [0.1, float("nan")], None, "must be in \\[0, 1\\]"),
            ([0, 1, 0], [1, 0, 1], 0.1, None, "duplicate edge 0 -> 1"),
            ([2, 0, 2], [0, 1, 0], 0.1, None, "duplicate edge 2 -> 0"),
            ([0, 1], [1, 0], [0.1, 0.2, 0.3], None, "one per edge"),
            ([0, 1], [1], 0.1, None, "one length"),
            ([0.0, 1.0], [1, 0], 0.1, None, "integer node indices"),
            ([0, 1], [1, 0], 0.1, ["a", "b"], "groups has 2 entries for 3 nodes"),
        ],
    )
    def test_invalid_input_raises_graph_error(self, src, dst, prob, groups, match):
        with pytest.raises(GraphError, match=match):
            DiGraph.from_edge_arrays(3, np.asarray(src), np.asarray(dst), prob, groups)

    def test_invalid_probability_and_node_count(self):
        with pytest.raises(GraphError, match="must be in \\[0, 1\\]"):
            DiGraph.from_edge_arrays(2, [0], [1], 0.1, default_probability=2.0)
        with pytest.raises(GraphError, match="non-negative"):
            DiGraph.from_edge_arrays(-1, [], [], 0.1)

    def test_caller_arrays_stay_writeable(self):
        src, dst = np.array([1, 0]), np.array([0, 1])
        graph = DiGraph.from_edge_arrays(2, src, dst, 0.5)
        src[0] = 0  # the graph copied its input
        assert graph.edge_arrays()[0].tolist() == [0, 1]
        assert not graph.edge_arrays()[0].flags.writeable


def test_concurrent_first_dict_use_on_a_frozen_bulk_graph():
    """Threads racing to build a frozen bulk graph's dicts all read the
    same adjacency and exports, many times over."""
    import sys
    import threading

    rng = np.random.default_rng(5)
    n = 60
    pairs = sorted({(int(u), int(v)) for u, v in rng.integers(0, n, (400, 2)) if u != v})
    order = rng.permutation(len(pairs))
    edges = [(*pairs[i], 0.25) for i in order]
    reference = _edge_by_edge(n, [None] * n, edges)
    expected = (
        [reference.successors(v) for v in range(n)],
        [reference.predecessors(v) for v in range(n)],
        [a.tolist() for a in reference.edge_arrays()],
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            graph = _bulk(n, [None] * n, edges)
            graph.freeze()
            barrier = threading.Barrier(6)
            seen, errors = [], []

            def read():
                try:
                    barrier.wait(timeout=10)
                    exports = [a.tolist() for a in graph.edge_arrays()]
                    seen.append((
                        [graph.successors(v) for v in range(n)],
                        [graph.predecessors(v) for v in range(n)],
                        exports,
                    ))
                except Exception as exc:  # reported below
                    errors.append(exc)

            threads = [threading.Thread(target=read) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors
            assert len(seen) == 6 and all(view == expected for view in seen)
            assert graph._dicts is not None and graph._bulk is None
    finally:
        sys.setswitchinterval(interval)


def _coo_world(graph, key):
    """The pre-batching reference: one keyed pass and a COO-to-CSR
    conversion per world."""
    from scipy import sparse

    from repro.diffusion.worlds import keyed_edge_uniforms

    n = graph.number_of_nodes()
    src, dst, prob = graph.edge_arrays()
    keep = keyed_edge_uniforms(key, src, dst, n) < prob
    return sparse.csr_matrix(
        (np.ones(int(keep.sum()), dtype=np.int8), (src[keep], dst[keep])), shape=(n, n)
    )


class TestSampleIcWorldsEqualsPerWorldReference:
    @settings(max_examples=60, deadline=None)
    @given(
        case=_edge_lists(),
        bulk=st.booleans(),
        keys=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
        chunk=st.sampled_from([1, 5, 1 << 20]),
    )
    def test_worlds_equal_coo_reference(self, case, bulk, keys, chunk):
        from repro.diffusion import worlds as worlds_mod

        graph = (_bulk if bulk else _edge_by_edge)(*case)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(worlds_mod, "SAMPLE_CHUNK_CELLS", chunk)
            sampled = worlds_mod.sample_ic_worlds(graph, keys)
        assert len(sampled) == len(keys)
        for r, (world, key) in enumerate(zip(sampled, keys)):
            reference = _coo_world(graph, key)
            assert_same_world(world, reference, f"world {r}")
            assert reference.has_sorted_indices and reference.has_canonical_format
            single = worlds_mod.sample_ic_world_from_key(graph, key)
            assert_same_world(single, reference, f"single world {r}")

    def test_unsorted_edge_arrays_are_covered(self):
        graph = _edge_by_edge(3, ["a"] * 3, [(0, 2, 0.5), (0, 1, 0.5), (2, 0, 0.5)])
        src, dst, _ = graph.edge_arrays()
        assert dst[:2].tolist() == [2, 1]  # insertion order, not (src, dst)
        from repro.diffusion.worlds import sample_ic_worlds

        for r, world in enumerate(sample_ic_worlds(graph, range(40))):
            assert_same_world(world, _coo_world(graph, r), f"world {r}")


def _scipy_predecessors(graph):
    """The predecessor CSR as the RR sampler once read it: scipy's
    transpose of the forward probability matrix, converted to CSR."""
    from scipy import sparse

    n = graph.number_of_nodes()
    src, dst, prob = graph.edge_arrays()
    return sparse.csr_matrix((prob, (src, dst)), shape=(n, n)).T.tocsr()


def _assert_predecessors_match_scipy(graph, what):
    indptr, indices, prob = graph.predecessor_arrays()
    reference = _scipy_predecessors(graph)
    for name, mine, theirs in (
        ("indptr", indptr, reference.indptr),
        ("indices", indices, reference.indices),
        ("data", prob, reference.data),
    ):
        np.testing.assert_array_equal(mine, theirs, err_msg=f"{what} {name}")
    assert (indptr.dtype, indices.dtype, prob.dtype) == (np.int64, np.int64, np.float64)


class TestNumpyCsrEqualsScipy:
    """The numpy CSR constructions equal scipy's conversions entry for entry,
    in order: the RR sampler's predecessor arrays (so RR coins land on
    the same edges, and RR answers keep their bits) and LT worlds."""

    @settings(max_examples=60, deadline=None)
    @given(case=_edge_lists(), bulk=st.booleans(), data=st.data())
    def test_predecessor_arrays_equal_scipy_transpose(self, case, bulk, data):
        graph = (_bulk if bulk else _edge_by_edge)(*case)
        _assert_predecessors_match_scipy(graph, "built")
        for step in range(data.draw(st.integers(1, 3))):
            before, version = graph.predecessor_arrays(), graph.version
            graph.apply_delta(data.draw(_delta_for(graph)))
            _assert_predecessors_match_scipy(graph, f"delta {step}")
            # Cached per version: rebuilt after a mutation, else reused.
            after = graph.predecessor_arrays()
            assert (after is before) == (graph.version == version)
            assert graph.predecessor_arrays() is after

    @settings(max_examples=60, deadline=None)
    @given(case=_edge_lists())
    def test_world_from_edges_equals_coo_to_csr(self, case):
        from scipy import sparse

        from repro.diffusion.worlds import _world_from_edges

        n, _, edges = case
        src = np.asarray([u for u, _, _ in edges], dtype=np.int64)
        dst = np.asarray([v for _, v, _ in edges], dtype=np.int64)
        reference = sparse.csr_matrix(
            (np.ones(src.size, dtype=np.int8), (src, dst)), shape=(n, n)
        )
        world = _world_from_edges(n, src, dst)
        assert world.n == n
        assert_same_world(world, reference)

    @settings(max_examples=30, deadline=None)
    @given(case=_edge_lists(), seed=st.integers(0, 2**32 - 1))
    def test_lt_worlds_are_canonical(self, case, seed):
        """An LT world's arrays equal scipy's COO-to-CSR conversion of
        the edges they hold, and every node keeps at most one in-edge."""
        from scipy import sparse

        from repro.diffusion.worlds import sample_lt_world

        graph = _edge_by_edge(*case)
        n = graph.number_of_nodes()
        world = sample_lt_world(graph, seed=seed)
        src = np.repeat(np.arange(n), np.diff(world.indptr))
        assert all(graph.has_edge(int(u), int(v)) for u, v in zip(src, world.indices))
        assert np.bincount(world.indices, minlength=n).max(initial=0) <= 1
        reference = sparse.csr_matrix(
            (np.ones(src.size, dtype=np.int8), (src[::-1], world.indices[::-1])),
            shape=(n, n),
        )
        assert_same_world(world, reference)


def _reference_sbm(block_sizes, within, across, activation, group_names, seed):
    """The edge-by-edge SBM: every upper-triangle pair tested in order."""
    from repro.rng import ensure_rng

    rng = ensure_rng(seed)
    n = int(sum(block_sizes))
    block_of = np.repeat(np.arange(len(block_sizes)), block_sizes)
    graph = DiGraph(default_probability=activation)
    for node in range(n):
        graph.add_node(node, group=group_names[block_of[node]])
    iu, ju = np.triu_indices(n, k=1)
    p_pair = np.where(block_of[iu] == block_of[ju], within, across)
    keep = rng.random(iu.shape[0]) < p_pair
    for u, v in zip(iu[keep].tolist(), ju[keep].tolist()):
        graph.add_undirected_edge(u, v)
    return graph


def _undirected_edge_by_edge(n, us, vs, activation_probability, groups=None):
    graph = DiGraph(default_probability=activation_probability)
    for node in range(n):
        graph.add_node(node, group=None if groups is None else groups[node])
    for u, v in zip(np.asarray(us).tolist(), np.asarray(vs).tolist()):
        graph.add_undirected_edge(u, v)
    return graph


class TestGeneratorsEqualEdgeByEdge:
    """Every generator's bulk-built graph equals the one edge-by-edge
    insertion of the same pairs (and, for the triangle-draw models, of
    the full pair scan) builds."""

    CASES = {
        "sbm": lambda g, s: g.stochastic_block_model([7, 9, 5], 0.3, 0.05, 0.2, seed=s),
        "sbm-across-heavy": lambda g, s: g.stochastic_block_model([6, 6], 0.05, 0.4, seed=s),
        "two-block": lambda g, s: g.two_block_sbm(40, 0.7, 0.2, 0.02, seed=s),
        "er": lambda g, s: g.erdos_renyi(25, 0.2, seed=s),
        "er-groups": lambda g, s: g.erdos_renyi_with_groups(25, 0.2, seed=s),
        "ba": lambda g, s: g.barabasi_albert(30, 3, seed=s),
        "ba-groups": lambda g, s: g.barabasi_albert_with_groups(30, 2, seed=s),
        "edge-counts": lambda g, s: g.block_model_with_edge_counts(
            [8, 6], np.array([[12, 7], [7, 5]]), 0.1, seed=s),
        "weighted": lambda g, s: g.weighted_block_model(
            [8, 6], np.array([[12, 7], [7, 5]]), 0.1, [1.2, 0.4], seed=s),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_generator_equals_edge_by_edge(self, name, seed):
        from repro.graph import generators

        def graph_of(result):
            return result[0] if isinstance(result, tuple) else result

        bulk = graph_of(self.CASES[name](generators, seed))
        assert bulk._dicts is None
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(generators, "_undirected_graph", _undirected_edge_by_edge)
            reference = graph_of(self.CASES[name](generators, seed))
        assert reference._dicts is not None
        assert _graph_view(bulk) == _graph_view(reference)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_sbm_equals_full_pair_scan(self, seed):
        from repro.graph.generators import stochastic_block_model

        for within, across in ((0.3, 0.05), (0.05, 0.4), (0.0, 0.0), (1.0, 0.5)):
            args = ([7, 9, 5], within, across, 0.2, ["x", "y", "z"])
            bulk, _ = stochastic_block_model(*args, seed=seed)
            assert _graph_view(bulk) == _graph_view(_reference_sbm(*args, seed))


class TestDegreePicksEqualFullSort:
    @settings(max_examples=60, deadline=None)
    @given(case=_edge_lists(), data=st.data())
    def test_top_degree_and_proportional_picks(self, case, data):
        from repro.baselines.heuristics import (
            group_proportional_degree_seeds,
            top_degree_seeds,
        )

        n, _, edges = case
        groups = data.draw(st.lists(st.sampled_from(["a", "b"]), min_size=n, max_size=n))
        graph = _bulk(n, groups, edges)
        assume(len(set(groups)) == 2)
        assignment = GroupAssignment.from_graph(graph)
        candidates = data.draw(
            st.one_of(st.none(), st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        )
        pool = list(range(n)) if candidates is None else candidates
        budget = data.draw(st.integers(1, len(pool)))
        degree = {v: sum(1 for u, _, _ in edges if u == v) for v in range(n)}
        ranked = sorted(pool, key=lambda v: (-degree[v], repr(v)))
        assert top_degree_seeds(graph, budget, candidates) == ranked[:budget]
        picks = group_proportional_degree_seeds(graph, assignment, budget, candidates)
        assert len(picks) == budget and len(set(picks)) == budget
        for group in ("a", "b"):
            mine = [v for v in picks if groups[v] == group]
            members = [v for v in ranked if groups[v] == group]
            assert mine == members[: len(mine)]
        assert graph._dicts is None


def test_sweep_path_never_builds_adjacency_dicts(tmp_path):
    """A sweep over the synthetic dataset — world and RR ensembles,
    greedy solves, degree and random baselines — leaves every graph it
    built holding only its edge arrays."""
    from repro.api import EnsembleSpec, RunSpec, Session, SolverSpec
    from repro.api.datasets import build_dataset
    from repro.baselines.heuristics import baseline_seeds
    from repro.sweep import SweepSpec, run_sweep

    graph, assignment = build_dataset("synthetic", {"n": 80}, 0)
    ensemble = WorldEnsemble(graph, assignment, n_worlds=4, seed=1)
    ensemble.group_utilities(ensemble.state_for(ensemble.candidate_labels[:3]), 5)
    rrset = RRSetEstimator(graph, assignment, theta=200, seed=1)
    rrset.group_utilities(rrset.state_for(graph.nodes()[:3]), 5)
    for name in ("degree", "random", "proportional_degree"):
        baseline_seeds(name, graph, assignment, 3, seed=0)
    assert graph._dicts is None

    base = RunSpec(
        ensemble=EnsembleSpec(dataset="synthetic", dataset_params={"n": 80}, n_worlds=6),
        solver=SolverSpec(problem="budget", deadline=10.0, fair=True, budget=2),
    )
    sweep = SweepSpec(
        base=base,
        axes={"ensemble.dataset_params.majority_fraction": [0.6, 0.7], "solver.budget": [1, 2]},
        cells=[{"ensemble.kind": "rrset", "ensemble.theta": 200, "solver.budget": 2}],
        seed=3,
        baselines=("degree", "random"),
        name="lazy-dicts",
    )
    session = Session()
    run_sweep(sweep, tmp_path / "sweep", session=session)
    graphs = list(session._graphs.values())
    assert graphs and all(g._dicts is None for g in graphs)
