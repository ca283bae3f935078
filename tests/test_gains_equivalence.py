"""Batched gain oracle + deadline sweep: bit-identical to scalar paths.

The batched oracle (``min_with_block`` / ``candidate_group_utilities_batch``
/ ``candidate_gains_batch``) and the deadline sweep
(``group_utilities_sweep``) exist purely for speed; their contract is
that the *numbers never change*:

- the blocked fold is an exact elementwise minimum, and the stacked
  ``(B, R, n) @ (n, k)`` matmul runs the same GEMM per block row as the
  scalar path runs per candidate, so batched utilities/gains are
  bit-identical under every backend, block size and discount;
- the sweep's per-(world, group) time histogram produces exact integer
  counts, so step-model sweeps are bit-identical too; discounted sweeps
  accumulate in float64 and agree within float32 rounding (documented);
- consequently the greedy engines produce *identical traces* — seeds,
  gains, evaluation counts, stop reasons — whether they run batched or
  scalar (``block_size=1``);
- concurrent queries on one shared ensemble (per-thread scratch) don't
  corrupt each other.
"""

import math
import threading

import numpy as np
import pytest

from repro.datasets.example import illustrative_graph
from repro.datasets.synthetic import default_synthetic
from repro.errors import EstimationError
from repro.influence.ensemble import WorldEnsemble
from repro.core.greedy import lazy_greedy, plain_greedy
from repro.core.objectives import ConcaveSumObjective, TotalInfluenceObjective

BACKENDS = ("dense", "sparse", "lazy")
DEADLINES = (2, 2.5, 20, math.inf)
DISCOUNTS = (None, 0.8)


@pytest.fixture(scope="module")
def ensembles():
    graph, assignment = default_synthetic(seed=0)
    return {
        backend: WorldEnsemble(
            graph, assignment, n_worlds=25, seed=7, backend=backend
        )
        for backend in BACKENDS
    }


def scalar_candidate_matrix(ensemble, state, deadline, discount, n_positions):
    return np.stack(
        [
            ensemble.candidate_group_utilities(state, position, deadline, discount)
            for position in range(n_positions)
        ]
    )


@pytest.mark.parametrize("backend", BACKENDS)
class TestBatchedUtilities:
    @pytest.mark.parametrize("discount", DISCOUNTS, ids=["step", "gamma0.8"])
    def test_blocked_equals_scalar_bitwise(self, ensembles, backend, discount):
        ensemble = ensembles[backend]
        state = ensemble.state_for(ensemble.candidate_labels[:3])
        # Full candidate width on dense; a prefix on the backends whose
        # *scalar* reference loops per world in Python (the batch side
        # is cheap everywhere — it's the reference that is slow).
        width = ensemble.n_candidates if backend == "dense" else 130
        for deadline in DEADLINES:
            scalar = scalar_candidate_matrix(
                ensemble, state, deadline, discount, width
            )
            for block_size in (17, 64):  # ragged final block included
                batch = np.vstack(
                    [
                        ensemble.candidate_group_utilities_batch(
                            state,
                            range(start, min(start + block_size, width)),
                            deadline,
                            discount,
                        )
                        for start in range(0, width, block_size)
                    ]
                )
                np.testing.assert_array_equal(
                    batch, scalar, err_msg=f"{backend} tau={deadline} B={block_size}"
                )

    def test_scattered_positions(self, ensembles, backend):
        # Non-contiguous blocks are what plain greedy issues after the
        # first pick; the dense backend takes a different (per-row)
        # path for them than for contiguous ranges.
        ensemble = ensembles[backend]
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

    def test_gains_equal_scalar_bitwise(self, ensembles, backend):
        ensemble = ensembles[backend]
        state = ensemble.empty_state()
        objective = ConcaveSumObjective()
        base = objective.value(ensemble.group_utilities(state, 20))
        width = ensemble.n_candidates if backend == "dense" else 130
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

    def test_gains_computes_base_value_when_omitted(self, ensembles, backend):
        ensemble = ensembles[backend]
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

    def test_state_not_mutated(self, ensembles, backend):
        ensemble = ensembles[backend]
        state = ensemble.state_for(ensemble.candidate_labels[:2])
        before = state.best_time.copy()
        ensemble.candidate_group_utilities_batch(state, range(32), 20)
        np.testing.assert_array_equal(state.best_time, before)

    def test_empty_and_invalid_blocks(self, ensembles, backend):
        ensemble = ensembles[backend]
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


@pytest.mark.parametrize("backend", BACKENDS)
class TestDeadlineSweep:
    def test_step_sweep_bitwise(self, ensembles, backend):
        ensemble = ensembles[backend]
        state = ensemble.state_for(ensemble.candidate_labels[:4])
        deadlines = [0, 1, 2, 2.5, 5, 10, 20, math.inf]
        sweep = ensemble.group_utilities_sweep(state, deadlines)
        scalar = np.stack(
            [ensemble.group_utilities(state, deadline) for deadline in deadlines]
        )
        np.testing.assert_array_equal(sweep, scalar)

    def test_empty_state_and_empty_deadlines(self, ensembles, backend):
        ensemble = ensembles[backend]
        state = ensemble.empty_state()
        sweep = ensemble.group_utilities_sweep(state, [2, 20])
        np.testing.assert_array_equal(sweep, np.zeros((2, len(ensemble.group_names))))
        assert ensemble.group_utilities_sweep(state, []).shape == (
            0,
            len(ensemble.group_names),
        )

    def test_discounted_sweep_matches_scalar(self, ensembles, backend):
        # Discounted sweeps accumulate the histogram in float64 — more
        # accurate than the scalar float32 GEMM, hence "allclose", not
        # "array_equal" (see group_utilities_sweep docstring).
        ensemble = ensembles[backend]
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
            np.testing.assert_allclose(sweep, scalar, rtol=1e-5, atol=1e-5)

    def test_discount_one_equals_step_sweep(self, ensembles, backend):
        # gamma=1 recovers the step model mathematically; the step path
        # mirrors the scalar float32 pipeline while gamma=1 accumulates
        # in float64, so agreement is to float32 rounding.
        ensemble = ensembles[backend]
        state = ensemble.state_for(ensemble.candidate_labels[:4])
        step = ensemble.group_utilities_sweep(state, [2, 20])
        gamma_one = ensemble.group_utilities_sweep(state, [2, 20], discount=1.0)
        np.testing.assert_allclose(gamma_one, step, rtol=1e-6)

    def test_sweep_rejects_bad_inputs(self, ensembles, backend):
        ensemble = ensembles[backend]
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


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("discount", DISCOUNTS, ids=["step", "gamma0.8"])
def test_batched_celf_trace_equals_scalar(ensembles, backend, discount):
    """block_size=1 runs the pre-oracle scalar path; traces must match."""
    ensemble = ensembles[backend]
    objective = TotalInfluenceObjective()
    batched = lazy_greedy(
        ensemble, objective, deadline=20, max_seeds=5, discount=discount,
        block_size=64,
    )
    scalar = lazy_greedy(
        ensemble, objective, deadline=20, max_seeds=5, discount=discount,
        block_size=1,
    )
    assert_traces_identical(batched, scalar)


@pytest.mark.parametrize("backend", BACKENDS)
def test_batched_plain_greedy_trace_equals_scalar(ensembles, backend):
    ensemble = ensembles[backend]
    objective = ConcaveSumObjective()
    batched = plain_greedy(
        ensemble, objective, deadline=20, max_seeds=4, block_size=32
    )
    scalar = plain_greedy(
        ensemble, objective, deadline=20, max_seeds=4, block_size=1
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


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_state_fast_path_bitwise_across_deadlines(ensembles, backend):
    """The first greedy round is served from the cached histogram table
    (dense/sparse; lazy falls back to the blocked fold) — exact at every
    representable deadline."""
    ensemble = ensembles[backend]
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
            batch, scalar, err_msg=f"{backend} tau={deadline}"
        )


def test_empty_state_table_presence_by_backend(ensembles):
    for backend, expect in (("dense", True), ("sparse", True), ("lazy", False)):
        table = ensembles[backend]._empty_state_table()
        assert (table is not None) is expect, backend
    # dense and sparse build identical tables from their stores
    np.testing.assert_array_equal(
        ensembles["dense"]._empty_state_table(),
        ensembles["sparse"]._empty_state_table(),
    )


def test_min_with_block_matches_min_with_per_backend():
    """The backend primitive itself, on the small bundled example."""
    graph, assignment = illustrative_graph()
    for backend in BACKENDS:
        ensemble = WorldEnsemble(
            graph, assignment, n_worlds=40, seed=3, backend=backend
        )
        state = ensemble.state_for(ensemble.candidate_labels[:2])
        positions = np.arange(ensemble.n_candidates)
        out = np.empty(
            (positions.size, ensemble.n_worlds, ensemble.n), dtype=np.uint8
        )
        ensemble.backend.min_with_block(state.best_time, positions, out)
        for i, position in enumerate(positions):
            np.testing.assert_array_equal(
                out[i],
                ensemble.backend.min_with(state.best_time, int(position)),
                err_msg=f"{backend} position {position}",
            )


@pytest.mark.parametrize("backend", BACKENDS)
class TestStateBuilds:
    """Bulk state builds and cached sweep histograms equal the slow paths."""

    def test_state_for_slab_matches_sequential_adds(self, ensembles, backend):
        # The slab reduce_rows build must equal the one-add_seed-per-seed
        # chain bit for bit.
        ensemble = ensembles[backend]
        seeds = ensemble.candidate_labels[:6]
        sequential = ensemble.empty_state()
        for node in seeds:
            ensemble.add_seed(sequential, ensemble.position(node))
        slab = ensemble.state_for(seeds)
        np.testing.assert_array_equal(
            slab.best_time, sequential.best_time, err_msg=backend
        )
        assert slab.seed_positions == sequential.seed_positions

    def test_incremental_histogram_matches_full_rebuild(self, ensembles, backend):
        # sweep -> add_seed -> sweep exercises the incrementally
        # maintained state histogram; it must agree bit-for-bit with a
        # cold rebuild *and* with the scalar per-deadline path.
        ensemble = ensembles[backend]
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

    def test_copied_state_histogram_is_independent(self, ensembles, backend):
        ensemble = ensembles[backend]
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
    """Stress the per-thread scratch: many caller threads, one ensemble.

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


def test_standard_errors_step_unchanged_and_discount_supported(ensembles):
    ensemble = ensembles["dense"]
    state = ensemble.state_for(ensemble.candidate_labels[:3])
    # Pre-dedup formula, reproduced verbatim.
    cutoff = 20
    active = (state.best_time <= cutoff).astype(np.float32)
    per_world = active @ ensemble._masks_f
    legacy = per_world.std(axis=0, ddof=1).astype(np.float64) / math.sqrt(
        ensemble.n_worlds
    )
    np.testing.assert_array_equal(ensemble.standard_errors(state, 20), legacy)
    # Discounted errors: well-defined, non-negative, and no larger than
    # the step-model errors per world (weights are <= the step weights).
    discounted = ensemble.standard_errors(state, 20, discount=0.5)
    assert (discounted >= 0).all()
    assert discounted.shape == legacy.shape
    with pytest.raises(EstimationError, match="discount"):
        ensemble.standard_errors(state, 20, discount=2.0)
