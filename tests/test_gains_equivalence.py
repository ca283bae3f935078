"""Batched gain oracle + deadline sweep: bit-identical to scalar paths.

The batched oracle (``candidate_group_utilities_batch`` /
``candidate_gains_batch``) and the deadline sweep
(``group_utilities_sweep``) exist purely for speed; their contract is
that the *numbers never change*:

- step-model rows are exact integer counts, and a discounted row adds
  its candidate's entries into each group bin in the scalar path's
  order, so batched utilities/gains are bit-identical under every build
  (the ``dense``/``sparse``/``lazy`` ids of ``tests/stores.py``),
  block and discount;
- the sweep reads the same per-group time histogram as the scalar
  query, with the same expression, so sweeps are bit-identical too,
  discounted or not;
- consequently the greedy engines produce *identical traces* — seeds,
  gains, evaluation counts, stop reasons — whichever oracle path
  answers them;
- concurrent queries on one shared ensemble (per-call buffers) don't
  corrupt each other, and a discounted solve leaves no buffer behind.
"""

import gc
import math
import threading
import tracemalloc

import numpy as np
import pytest

from repro.datasets.example import illustrative_graph
from repro.datasets.synthetic import default_synthetic
from repro.errors import EstimationError
from repro.influence.ensemble import WorldEnsemble
from repro.influence.deadlines import clip_deadline
from repro.core.greedy import lazy_greedy, plain_greedy
from repro.core.objectives import ConcaveSumObjective, TotalInfluenceObjective

from stores import STORES, build, dense_rows, gemm_utilities, world_totals

DEADLINES = (2, 2.5, 20, math.inf)
DISCOUNTS = (None, 0.8)


@pytest.fixture(scope="module")
def ensembles():
    graph, assignment = default_synthetic(seed=0)
    return {
        store: build(graph, assignment, store, n_worlds=25, seed=7)
        for store in STORES
    }


def scalar_candidate_matrix(ensemble, state, deadline, discount, n_positions):
    return np.stack(
        [
            ensemble.candidate_group_utilities(state, position, deadline, discount)
            for position in range(n_positions)
        ]
    )


@pytest.mark.parametrize("store", STORES)
class TestBatchedUtilities:
    @pytest.mark.parametrize("discount", DISCOUNTS, ids=["step", "gamma0.8"])
    def test_blocked_equals_scalar_bitwise(self, ensembles, store, discount):
        ensemble = ensembles[store]
        state = ensemble.state_for(ensemble.candidate_labels[:3])
        width = ensemble.n_candidates
        for deadline in DEADLINES:
            scalar = scalar_candidate_matrix(
                ensemble, state, deadline, discount, width
            )
            for chunk in (17, 64, width):  # ragged final block included
                batch = np.vstack(
                    [
                        ensemble.candidate_group_utilities_batch(
                            state,
                            range(start, min(start + chunk, width)),
                            deadline,
                            discount,
                        )
                        for start in range(0, width, chunk)
                    ]
                )
                np.testing.assert_array_equal(
                    batch, scalar, err_msg=f"{store} tau={deadline} B={chunk}"
                )

    def test_scattered_positions(self, ensembles, store):
        # Non-contiguous blocks are what plain greedy issues after the
        # first pick.
        ensemble = ensembles[store]
        state = ensemble.state_for(ensemble.candidate_labels[:1])
        positions = np.array([0, 7, ensemble.n_candidates - 1, 13, 250])
        scalar = np.stack(
            [
                ensemble.candidate_group_utilities(state, int(p), 20)
                for p in positions
            ]
        )
        batch = ensemble.candidate_group_utilities_batch(state, positions, 20)
        np.testing.assert_array_equal(batch, scalar)

    def test_gains_equal_scalar_bitwise(self, ensembles, store):
        ensemble = ensembles[store]
        state = ensemble.empty_state()
        objective = ConcaveSumObjective()
        base = objective.value(ensemble.group_utilities(state, 20))
        width = ensemble.n_candidates
        scalar = np.array(
            [
                objective.value(ensemble.candidate_group_utilities(state, p, 20))
                - base
                for p in range(width)
            ]
        )
        batch = np.concatenate(
            [
                ensemble.candidate_gains_batch(
                    state,
                    range(start, min(start + 64, width)),
                    20,
                    objective,
                    base_value=base,
                )
                for start in range(0, width, 64)
            ]
        )
        np.testing.assert_array_equal(batch, scalar)

    def test_gains_computes_base_value_when_omitted(self, ensembles, store):
        ensemble = ensembles[store]
        state = ensemble.state_for(ensemble.candidate_labels[:2])
        objective = TotalInfluenceObjective()
        explicit = ensemble.candidate_gains_batch(
            state,
            [5, 6],
            20,
            objective,
            base_value=objective.value(ensemble.group_utilities(state, 20)),
        )
        implicit = ensemble.candidate_gains_batch(state, [5, 6], 20, objective)
        np.testing.assert_array_equal(explicit, implicit)

    def test_state_not_mutated(self, ensembles, store):
        ensemble = ensembles[store]
        state = ensemble.state_for(ensemble.candidate_labels[:2])
        before = state.best_time.copy()
        ensemble.candidate_group_utilities_batch(state, range(32), 20)
        np.testing.assert_array_equal(state.best_time, before)

    def test_empty_and_invalid_blocks(self, ensembles, store):
        ensemble = ensembles[store]
        state = ensemble.empty_state()
        empty = ensemble.candidate_group_utilities_batch(state, [], 20)
        assert empty.shape == (0, len(ensemble.group_names))
        with pytest.raises(EstimationError, match="out of range"):
            ensemble.candidate_group_utilities_batch(
                state, [0, ensemble.n_candidates], 20
            )
        with pytest.raises(EstimationError, match="out of range"):
            ensemble.candidate_group_utilities_batch(state, [-1], 20)
        with pytest.raises(EstimationError, match="discount"):
            ensemble.candidate_group_utilities_batch(state, [0], 20, discount=1.5)


@pytest.mark.parametrize("store", STORES)
class TestDeadlineSweep:
    def test_step_sweep_bitwise(self, ensembles, store):
        ensemble = ensembles[store]
        state = ensemble.state_for(ensemble.candidate_labels[:4])
        deadlines = [0, 1, 2, 2.5, 5, 10, 20, math.inf]
        sweep = ensemble.group_utilities_sweep(state, deadlines)
        scalar = np.stack(
            [ensemble.group_utilities(state, deadline) for deadline in deadlines]
        )
        np.testing.assert_array_equal(sweep, scalar)

    def test_empty_state_and_empty_deadlines(self, ensembles, store):
        ensemble = ensembles[store]
        state = ensemble.empty_state()
        sweep = ensemble.group_utilities_sweep(state, [2, 20])
        np.testing.assert_array_equal(sweep, np.zeros((2, len(ensemble.group_names))))
        assert ensemble.group_utilities_sweep(state, []).shape == (
            0,
            len(ensemble.group_names),
        )

    def test_discounted_sweep_matches_scalar(self, ensembles, store):
        # Both weigh the same histogram by the same float64 expression.
        ensemble = ensembles[store]
        state = ensemble.state_for(ensemble.candidate_labels[:4])
        deadlines = [1, 5, 20, math.inf]
        for discount in (0.0, 0.5, 1.0):
            sweep = ensemble.group_utilities_sweep(state, deadlines, discount)
            scalar = np.stack(
                [
                    ensemble.group_utilities(state, deadline, discount)
                    for deadline in deadlines
                ]
            )
            np.testing.assert_array_equal(sweep, scalar)

    def test_discount_one_equals_step_sweep(self, ensembles, store):
        # gamma=1 weighs every node activated by the deadline 1.0: its
        # float64 sums are the step model's exact counts.
        ensemble = ensembles[store]
        state = ensemble.state_for(ensemble.candidate_labels[:4])
        step = ensemble.group_utilities_sweep(state, [2, 20])
        gamma_one = ensemble.group_utilities_sweep(state, [2, 20], discount=1.0)
        np.testing.assert_array_equal(gamma_one, step)

    def test_sweep_rejects_bad_inputs(self, ensembles, store):
        ensemble = ensembles[store]
        state = ensemble.empty_state()
        with pytest.raises(EstimationError, match="non-negative"):
            ensemble.group_utilities_sweep(state, [2, -1])
        with pytest.raises(EstimationError, match="discount"):
            ensemble.group_utilities_sweep(state, [2], discount=-0.1)


def assert_traces_identical(a, b):
    assert a.stopped_reason == b.stopped_reason
    assert len(a.steps) == len(b.steps)
    for step_a, step_b in zip(a.steps, b.steps):
        assert step_a.node == step_b.node
        assert step_a.position == step_b.position
        assert step_a.gain == step_b.gain
        assert step_a.objective_value == step_b.objective_value
        assert step_a.evaluations == step_b.evaluations
        np.testing.assert_array_equal(step_a.group_utilities, step_b.group_utilities)


class SwappedOracle:
    """An ensemble whose two candidate oracles trade places: batched
    queries are answered by stacked scalar calls and scalar queries by
    one-row batches.  The fused exact round is rebuilt from
    ``add_seed``, ``group_utilities`` and those stacked scalar rows.
    ``fused_rounds`` counts fused calls and ``rows_scored`` the
    candidate rows scored.  Every other attribute is the ensemble's
    own."""

    def __init__(self, ensemble):
        self._ensemble = ensemble
        self.fused_rounds = 0
        self.rows_scored = 0

    def __getattr__(self, name):
        return getattr(self._ensemble, name)

    def add_seed_and_score(self, state, position, deadline, open_positions=None, stop=None):
        self.fused_rounds += 1
        self._ensemble.add_seed(state, position)
        utilities = self._ensemble.group_utilities(state, deadline)
        if open_positions is None or (stop is not None and stop(utilities)):
            return utilities, None
        return utilities, self.candidate_group_utilities_batch(state, open_positions, deadline)

    def candidate_group_utilities_batch(self, state, positions, deadline, discount=None):
        self.rows_scored += len(positions)
        return np.stack(
            [
                self._ensemble.candidate_group_utilities(state, int(p), deadline, discount)
                for p in positions
            ]
        )

    def candidate_group_utilities(self, state, position, deadline, discount=None):
        self.rows_scored += 1
        return self._ensemble.candidate_group_utilities_batch(
            state, [position], deadline, discount
        )[0]


@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize("discount", DISCOUNTS, ids=["step", "gamma0.8"])
def test_batched_celf_trace_equals_scalar(ensembles, store, discount):
    """CELF's batched rounds and scalar re-scores, each served by the
    other oracle path, give the same trace — evaluations included.
    Step-model solves run every exact round through the swapped fused
    call."""
    ensemble = ensembles[store]
    objective = TotalInfluenceObjective()
    swapped = SwappedOracle(ensemble)
    batched, scalar = (
        lazy_greedy(estimator, objective, deadline=20, max_seeds=5, discount=discount)
        for estimator in (ensemble, swapped)
    )
    assert_traces_identical(batched, scalar)
    assert swapped.fused_rounds == (scalar.size if discount is None else 0)


@pytest.mark.parametrize("discount", DISCOUNTS, ids=["step", "gamma0.8"])
def test_celf_scores_no_rows_past_its_last_step(ensembles, discount):
    """Every row CELF scores is charged to a step: a solve that ends on
    its budget or on its stop condition scores no rows after its last
    pick."""
    ensemble = ensembles["dense"]
    objective = TotalInfluenceObjective()
    full = lazy_greedy(ensemble, objective, deadline=20, max_seeds=6, discount=discount)
    quota = full.steps[2].objective_value
    for stop, reason, size in (
        (None, "budget", 6),
        (lambda utilities: objective.value(utilities) >= quota, "stop-condition", 3),
    ):
        swapped = SwappedOracle(ensemble)
        trace = lazy_greedy(
            swapped, objective, deadline=20, max_seeds=6, stop=stop, discount=discount
        )
        assert (trace.stopped_reason, trace.size) == (reason, size)
        assert swapped.rows_scored == sum(step.evaluations for step in trace.steps)


@pytest.mark.parametrize("deadline", [5, 20])
@pytest.mark.parametrize(
    "objective",
    [TotalInfluenceObjective(), ConcaveSumObjective()],
    ids=["unfair", "fair"],
)
def test_bound_rounds_at_discount_one_equal_exact_rounds(ensembles, objective, deadline):
    """``discount=1.0`` weighs every node activated by the deadline 1.0,
    so its float64 sums are the step model's exact counts: its bound
    rounds pick what the step model's exact rounds pick — seeds, gains,
    objectives and per-step utilities bit for bit — while scoring fewer
    rows."""
    ensemble = ensembles["dense"]
    exact = lazy_greedy(ensemble, objective, deadline=deadline, max_seeds=8)
    bound = lazy_greedy(
        ensemble, objective, deadline=deadline, max_seeds=8, discount=1.0
    )
    assert bound.stopped_reason == exact.stopped_reason
    assert bound.seeds == exact.seeds
    for step_b, step_e in zip(bound.steps, exact.steps):
        assert step_b.gain == step_e.gain
        assert step_b.objective_value == step_e.objective_value
        np.testing.assert_array_equal(step_b.group_utilities, step_e.group_utilities)
    assert bound.total_evaluations < exact.total_evaluations


@pytest.mark.parametrize("store", STORES)
def test_batched_plain_greedy_trace_equals_scalar(ensembles, store):
    """Plain greedy scores through the scalar oracle; served by one-row
    batches instead, its trace is the same."""
    ensemble = ensembles[store]
    objective = ConcaveSumObjective()
    scalar, batched = (
        plain_greedy(estimator, objective, deadline=20, max_seeds=4)
        for estimator in (ensemble, SwappedOracle(ensemble))
    )
    assert_traces_identical(batched, scalar)


def test_batched_celf_matches_plain_greedy_oracle(ensembles):
    """Seed-for-seed agreement of batched CELF with the plain oracle."""
    ensemble = ensembles["dense"]
    for objective in (TotalInfluenceObjective(), ConcaveSumObjective()):
        celf = lazy_greedy(ensemble, objective, deadline=20, max_seeds=5)
        plain = plain_greedy(ensemble, objective, deadline=20, max_seeds=5)
        assert celf.seeds == plain.seeds
        np.testing.assert_array_equal(
            celf.final_group_utilities, plain.final_group_utilities
        )


@pytest.mark.parametrize("store", STORES)
def test_empty_state_fast_path_bitwise_across_deadlines(ensembles, store):
    """The first greedy round is served from the gain table's column at
    the cutoff — exact at every representable deadline."""
    ensemble = ensembles[store]
    state = ensemble.empty_state()
    positions = np.array([0, 3, 250, ensemble.n_candidates - 1])
    for deadline in (0, 1, 2, 3, 7, 20, 100, 254, math.inf):
        scalar = np.stack(
            [
                ensemble.candidate_group_utilities(state, int(p), deadline)
                for p in positions
            ]
        )
        batch = ensemble.candidate_group_utilities_batch(state, positions, deadline)
        np.testing.assert_array_equal(
            batch, scalar, err_msg=f"{store} tau={deadline}"
        )


def test_gain_table_equals_dense_row_counts(ensembles):
    """The gain table's cell ``[c, g, t]`` counts, over worlds, the
    group-``g`` nodes candidate ``c`` reaches by hop ``t``."""
    ensemble = ensembles["dense"]
    table = ensemble._oracle.reach.table
    masks = ensemble.assignment.masks(ensemble.graph).astype(np.int64)  # (k, n)
    rows = dense_rows(ensemble)  # (R, C, n)
    for cutoff in range(table.shape[2]):
        reached = (rows <= cutoff).sum(axis=0)  # (C, n)
        np.testing.assert_array_equal(table[:, :, cutoff], reached @ masks.T)


def test_discounted_rows_match_min_fold():
    """The discounted batched oracle on the small bundled example: row
    ``i`` weighs ``min(best, D[:, c_i, :])``, the candidate's dense row
    folded into the state, as the float64 brute reference does."""
    graph, assignment = illustrative_graph()
    ensemble = WorldEnsemble(graph, assignment, n_worlds=40, seed=3)
    rows = dense_rows(ensemble)
    state = ensemble.state_for(ensemble.candidate_labels[:2])
    positions = np.arange(ensemble.n_candidates)[::-1]
    batch = ensemble.candidate_group_utilities_batch(state, positions, 3, discount=0.5)
    for row, position in zip(batch, positions):
        folded = np.minimum(state.best_time, rows[:, position, :])
        np.testing.assert_allclose(
            row,
            gemm_utilities(ensemble, folded, 3, 0.5),
            rtol=1e-12,
            err_msg=f"position {position}",
        )


def test_discounted_solve_keeps_no_buffers():
    """The discounted oracle's gathered entries live only as long as its
    call: after a whole discounted solve, traced memory is back within
    1 MiB of where it started."""
    graph, assignment = default_synthetic(seed=0)
    ensemble = WorldEnsemble(graph, assignment, n_worlds=20, seed=7)
    objective = TotalInfluenceObjective()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = lazy_greedy(ensemble, objective, deadline=10, max_seeds=4, discount=0.9)
        assert trace.size == 4
        del trace
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 2**20, after - before


@pytest.mark.parametrize("store", STORES)
class TestStateBuilds:
    """Bulk state builds and cached sweep histograms equal the slow paths."""

    def test_state_for_slab_matches_sequential_adds(self, ensembles, store):
        # The slab reduce_rows build must equal the one-add_seed-per-seed
        # chain bit for bit.
        ensemble = ensembles[store]
        seeds = ensemble.candidate_labels[:6]
        sequential = ensemble.empty_state()
        for node in seeds:
            ensemble.add_seed(sequential, ensemble.position(node))
        slab = ensemble.state_for(seeds)
        np.testing.assert_array_equal(
            slab.best_time, sequential.best_time, err_msg=store
        )
        assert slab.seed_positions == sequential.seed_positions

    def test_incremental_histogram_matches_full_rebuild(self, ensembles, store):
        # sweep -> add_seed -> sweep exercises the incrementally
        # maintained state histogram; it must agree bit-for-bit with a
        # cold rebuild *and* with the scalar per-deadline path.
        ensemble = ensembles[store]
        deadlines = [0, 1, 2, 5, 20, math.inf]
        state = ensemble.state_for(ensemble.candidate_labels[:2])
        ensemble.group_utilities_sweep(state, deadlines)  # builds the hist
        assert state.time_hist is not None
        extra = ensemble.position(ensemble.candidate_labels[10])
        ensemble.add_seed(state, extra)
        incremental = ensemble.group_utilities_sweep(state, deadlines)
        cold = ensemble.state_for(
            ensemble.candidate_labels[:2] + [ensemble.candidate_labels[10]]
        )
        rebuilt = ensemble.group_utilities_sweep(cold, deadlines)
        np.testing.assert_array_equal(incremental, rebuilt)
        np.testing.assert_array_equal(state.time_hist, cold.time_hist)
        scalar = np.stack(
            [ensemble.group_utilities(state, deadline) for deadline in deadlines]
        )
        np.testing.assert_array_equal(incremental, scalar)

    def test_copied_state_histogram_is_independent(self, ensembles, store):
        ensemble = ensembles[store]
        state = ensemble.state_for(ensemble.candidate_labels[:2])
        ensemble.group_utilities_sweep(state, [5, 20])
        clone = state.copy()
        ensemble.add_seed(clone, ensemble.position(ensemble.candidate_labels[9]))
        np.testing.assert_array_equal(
            ensemble.group_utilities_sweep(state, [5, 20]),
            np.stack(
                [ensemble.group_utilities(state, deadline) for deadline in (5, 20)]
            ),
        )


@pytest.mark.parametrize("copies", [1, 2])
def test_concurrent_batched_queries_on_shared_ensemble(ensembles, copies):
    """Stress the per-call buffers: many caller threads, one ensemble.

    ``repro serve --threads`` runs concurrent solves on shared
    ensembles, so two in-flight batched queries must never corrupt each
    other's buffers.  Here ``4 * copies`` caller threads hammer the same
    ensemble, and every thread must reproduce the serially computed
    answers exactly.
    """
    ensemble = ensembles["dense"]
    states = [
        ensemble.empty_state(),
        ensemble.state_for(ensemble.candidate_labels[:2]),
        ensemble.state_for(ensemble.candidate_labels[5:9]),
    ]
    queries = [
        (state, list(range(start, start + 40)), deadline, discount)
        for state in states
        for start, deadline, discount in ((0, 5, None), (40, 20, 0.8))
    ]
    expected = [
        ensemble.candidate_group_utilities_batch(state, positions, deadline, discount)
        for state, positions, deadline, discount in queries
    ]
    errors = []
    orders = [
        list(range(len(queries))),
        list(reversed(range(len(queries)))),
        [0, 2, 4, 1, 3, 5],
        [5, 3, 1, 4, 2, 0],
    ] * copies
    barrier = threading.Barrier(len(orders))

    def hammer(order):
        try:
            barrier.wait(timeout=30)
            for _ in range(5):
                for i in order:
                    state, positions, deadline, discount = queries[i]
                    got = ensemble.candidate_group_utilities_batch(
                        state, positions, deadline, discount
                    )
                    np.testing.assert_array_equal(got, expected[i])
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(order,)) for order in orders]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        # A deadlocked query would leave the thread alive and errors
        # empty — that must fail loudly, not hang at interpreter exit.
        assert not thread.is_alive(), "concurrent query deadlocked"
    assert not errors, errors[0]


def test_concurrent_scalar_queries_share_one_reach_index():
    """Six caller threads share one reach index and states whose
    histogram and count caches fill lazily; every answer must equal the
    dense-row reference computed serially."""
    import sys

    graph, assignment = default_synthetic(seed=0)
    ensemble = WorldEnsemble(graph, assignment, n_worlds=12, seed=5)
    states = [
        ensemble.state_for(ensemble.candidate_labels[:3]),
        ensemble.state_for(ensemble.candidate_labels[10:12]),
    ]
    positions = range(0, ensemble.n_candidates, 7)

    rows = dense_rows(ensemble)

    def reference(state, position, cutoff):
        folded = np.minimum(state.best_time, rows[:, position, :])
        return gemm_utilities(ensemble, folded, clip_deadline(cutoff))

    expected = {
        (i, p, cutoff): reference(state, p, cutoff)
        for i, state in enumerate(states)
        for p in positions
        for cutoff in (2, 20)
    }
    assert all(state.counts is None for state in states)  # the threads fill them
    errors = []
    barrier = threading.Barrier(6)

    def hammer(offset):
        try:
            barrier.wait(timeout=30)
            for (i, p, cutoff), want in list(expected.items())[offset::2]:
                got = ensemble.candidate_group_utilities(states[i], p, cutoff)
                np.testing.assert_array_equal(got, want)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=hammer, args=(k % 2,)) for k in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "concurrent query deadlocked"
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors[0]


def test_standard_errors_step_unchanged_and_discount_supported(ensembles):
    ensemble = ensembles["dense"]
    state = ensemble.state_for(ensemble.candidate_labels[:3])
    # The float64 brute reference: per-world group totals of the state's
    # weighted activation times, their sample deviation over sqrt(R).
    for discount in (None, 0.5):
        per_world = world_totals(ensemble, state.best_time, 20, discount)
        want = per_world.std(axis=0, ddof=1) / math.sqrt(ensemble.n_worlds)
        got = ensemble.standard_errors(state, 20, discount=discount)
        if discount is None:  # exact integer totals: the same bits
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12)
    with pytest.raises(EstimationError, match="discount"):
        ensemble.standard_errors(state, 20, discount=2.0)
