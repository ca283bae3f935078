"""``build_workers`` is accepted, validated and ignored.

Every build runs in-process (the vectorised frontier BFS made a
process pool's fixed cost larger than the whole serial build), but
spec files, sessions and the CLI still take the knob.  Worlds, reach
indexes and full greedy traces must therefore be byte-identical for
every ``build_workers`` setting x {step, discount} under every BFS
chunking (the ``dense``/``sparse``/``lazy`` ids of ``tests/stores.py``),
results echo ``build_workers: 1``, and no build, eviction or mid-build
fault leaves anything in ``/dev/shm``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.api import EnsembleSpec, ExecutionSpec, RunSpec, Session
from repro.api.specs import AUTO_WORKERS, SolverSpec, check_build_workers, check_workers
from repro.core.greedy import lazy_greedy
from repro.core.objectives import TotalInfluenceObjective
from repro.errors import EstimationError
from repro.graph.generators import two_block_sbm
from repro.influence.ensemble import WorldEnsemble

from stores import STORES, assert_same_world, chunking

BUILD_COUNTS = (1, 2, 4)
DISCOUNTS = (None, 0.8)

_HAS_DEV_SHM = os.path.isdir("/dev/shm")


def listed_segments():
    """The leak oracle: every shared-memory segment on the host."""
    if not _HAS_DEV_SHM:  # pragma: no cover - non-Linux fallback
        return set()
    return set(os.listdir("/dev/shm"))


def small_graph():
    return two_block_sbm(60, 0.7, 0.15, 0.05, activation_probability=0.6, seed=3)


def small_spec(n_worlds, seed, model="ic"):
    """An ensemble spec over ``small_graph()``'s graph (the ``synthetic``
    dataset with the same parameters and seed)."""
    return EnsembleSpec(
        dataset="synthetic",
        dataset_params={
            "n": 60,
            "majority_fraction": 0.7,
            "p_hom": 0.15,
            "p_het": 0.05,
            "activation_probability": 0.6,
        },
        dataset_seed=3,
        n_worlds=n_worlds,
        world_seed=seed,
        model=model,
    )


def build(build_workers, store="dense", **kwargs):
    """A fresh ensemble from a session configured with ``build_workers``,
    built under ``store``'s BFS chunk budget."""
    session = Session(execution=ExecutionSpec(build_workers=build_workers))
    with chunking(store):
        return session.ensemble_for(small_spec(**kwargs))


def assert_indexes_identical(a, b):
    for name in a._oracle.reach._fields:
        mine, theirs = getattr(a._oracle.reach, name), getattr(b._oracle.reach, name)
        assert mine.dtype == theirs.dtype, name
        np.testing.assert_array_equal(mine, theirs, err_msg=name)


@pytest.fixture(scope="module")
def built():
    """Ensembles for every (build id, build_workers) cell, plus the
    ``/dev/shm`` listing from before the first build."""
    before = listed_segments()
    ensembles = {
        (store, bw): build(bw, store, n_worlds=12, seed=7)
        for store in STORES
        for bw in BUILD_COUNTS
    }
    return ensembles, before


def assert_traces_identical(a, b):
    assert a.stopped_reason == b.stopped_reason
    assert len(a.steps) == len(b.steps)
    for step_a, step_b in zip(a.steps, b.steps):
        assert step_a.node == step_b.node
        assert step_a.gain == step_b.gain
        assert step_a.objective_value == step_b.objective_value
        assert step_a.evaluations == step_b.evaluations
        np.testing.assert_array_equal(step_a.group_utilities, step_b.group_utilities)


def assert_worlds_identical(a, b):
    assert len(a.worlds) == len(b.worlds)
    for wa, wb in zip(a.worlds, b.worlds):
        assert wa.n == wb.n
        assert_same_world(wa, wb)


class TestValidation:
    def test_rejects_bad_values(self):
        for bad in (0, -1, 2.5, "fast", True):
            with pytest.raises(EstimationError):
                check_build_workers(bad)
        with pytest.raises(EstimationError):
            check_build_workers(None)  # allow_none defaults to False
        assert check_build_workers(None, allow_none=True) is None
        assert check_build_workers(AUTO_WORKERS) == AUTO_WORKERS
        assert check_build_workers(3) == 3

    def test_error_phrasing_matches_check_workers(self):
        """One message shape for both knobs."""
        for bad in (0, -1, 2.5, "fast", True, None):
            with pytest.raises(EstimationError) as build_err:
                check_build_workers(bad)
            with pytest.raises(EstimationError) as workers_err:
                check_workers(bad)
            assert str(build_err.value) == str(workers_err.value).replace(
                "workers", "build_workers"
            )


@pytest.mark.parametrize("store", STORES)
class TestBitIdentity:
    def test_worlds_identical_across_process_counts(self, built, store):
        ensembles, _ = built
        serial = ensembles[(store, 1)]
        for bw in BUILD_COUNTS[1:]:
            assert_worlds_identical(ensembles[(store, bw)], serial)

    def test_store_contents_identical(self, built, store):
        ensembles, _ = built
        serial = ensembles[(store, 1)]
        for bw in BUILD_COUNTS[1:]:
            assert_indexes_identical(ensembles[(store, bw)], serial)
        # The chunk budget changes no index array either.
        assert_indexes_identical(serial, ensembles[("dense", 1)])

    @pytest.mark.parametrize("discount", DISCOUNTS, ids=["step", "gamma0.8"])
    def test_greedy_traces_identical(self, built, store, discount):
        ensembles, _ = built
        objective = TotalInfluenceObjective()
        serial = lazy_greedy(
            ensembles[(store, 1)], objective, deadline=10, max_seeds=4, discount=discount
        )
        for bw in BUILD_COUNTS[1:]:
            trace = lazy_greedy(
                ensembles[(store, bw)],
                objective,
                deadline=10,
                max_seeds=4,
                discount=discount,
            )
            assert_traces_identical(trace, serial)


class TestLifecycle:
    @pytest.mark.skipif(not _HAS_DEV_SHM, reason="needs /dev/shm to list segments")
    def test_segments_exist_exactly_for_shared_stores(self, built):
        # No store is shared any more, so no build leaves a segment.
        ensembles, before = built
        assert ensembles
        assert listed_segments() <= before


@pytest.mark.skipif(not _HAS_DEV_SHM, reason="needs /dev/shm to list segments")
class TestHygiene:
    def test_session_eviction_unlinks(self):
        before = listed_segments()
        session = Session(
            execution=ExecutionSpec(build_workers=2), max_cached_ensembles=1
        )
        first = session.ensemble_for(small_spec(n_worlds=8, seed=1))
        # A second build overflows the one-entry cache and evicts the
        # first; the evicted-but-held ensemble still answers queries.
        session.ensemble_for(small_spec(n_worlds=8, seed=2))
        assert session.cache_info["evictions"] == 1
        state = first.state_for(first.candidate_labels[:1])
        assert first.group_utilities(state, 5).shape
        session.clear_cache()
        assert listed_segments() <= before

    @pytest.mark.parametrize("store", ("dense", "sparse"))
    def test_worker_exception_leaks_nothing(self, monkeypatch, store):
        """A sampler crash mid-build propagates and leaks nothing."""
        import repro.influence.ensemble as ensemble_mod

        before = listed_segments()

        def exploding_sampler(graph, keys):
            raise ValueError("sampler exploded")

        monkeypatch.setattr(ensemble_mod, "sample_ic_worlds", exploding_sampler)
        with pytest.raises(ValueError, match="sampler exploded"):
            build(2, store, n_worlds=8, seed=9)
        assert listed_segments() <= before


class TestKnobChain:
    def test_lt_model_identical(self):
        other = build(3, n_worlds=6, seed=13, model="lt")
        serial = build(1, n_worlds=6, seed=13, model="lt")
        assert_worlds_identical(other, serial)
        assert_indexes_identical(other, serial)

    def test_ensemble_rejects_bad_setting(self):
        # The knob ends at the spec layer: the ensemble takes none.
        graph, assignment = small_graph()
        with pytest.raises(TypeError, match="build_workers"):
            WorldEnsemble(graph, assignment, n_worlds=4, seed=0, build_workers=2)

    def test_session_solve_echoes_engaged_count(self):
        spec = RunSpec(
            ensemble=EnsembleSpec(
                dataset="synthetic",
                dataset_params={"n": 80},
                n_worlds=10,
                world_seed=3,
            ),
            solver=SolverSpec(problem="budget", deadline=10.0, budget=2),
        )
        result_other = Session(execution=ExecutionSpec(build_workers=2)).solve(spec)
        result_serial = Session(execution=ExecutionSpec(build_workers=1)).solve(spec)
        # Builds always run in-process: one worker engaged either way.
        assert result_other.spec.execution.build_workers == 1
        assert result_serial.spec.execution.build_workers == 1
        assert result_other.seeds == result_serial.seeds
        assert result_other.objective == result_serial.objective
        assert result_other.group_utilities == result_serial.group_utilities
