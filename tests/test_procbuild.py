"""Process-sharded world construction: bit-identity, lifecycle, hygiene.

Worlds, backend contents and full greedy traces must be
byte-identical for ``build_workers`` in {1, 2, 4} x {step, discount},
under every distance backend.  On top of that, the shared-memory
lifecycle must never leak a segment — not on ``close()``, not on
``Session`` cache eviction, and not when a worker process dies
mid-build.
"""

from __future__ import annotations

import glob
import multiprocessing
import os

import numpy as np
import pytest

from repro.config import execution_defaults
from repro.core.greedy import lazy_greedy
from repro.core.objectives import TotalInfluenceObjective
from repro.errors import EstimationError
from repro.graph.generators import two_block_sbm
from repro.influence import backends, procbuild
from repro.influence.ensemble import WorldEnsemble
from repro.api.specs import check_workers
from repro.influence.procbuild import (
    AUTO_BUILD_WORKERS,
    MIN_PROC_BUILD_ITEMS,
    SEGMENT_PREFIX,
    ProcessBuildUnavailable,
    SharedSegment,
    check_build_workers,
    get_default_build_workers,
    new_segment_name,
    resolve_build_workers,
    shard_slices,
    unlink_by_name,
)

BACKENDS = ("dense", "sparse", "lazy")
BUILD_COUNTS = (1, 2, 4)
DISCOUNTS = (None, 0.8)

_HAS_DEV_SHM = os.path.isdir("/dev/shm")
_FORK = multiprocessing.get_start_method() == "fork"


def listed_segments():
    """The leak oracle: every repro shared-memory segment on the host."""
    if not _HAS_DEV_SHM:  # pragma: no cover - non-Linux fallback
        return []
    return sorted(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))


def small_graph():
    return two_block_sbm(60, 0.7, 0.15, 0.05, activation_probability=0.6, seed=3)


@pytest.fixture(scope="module")
def built():
    """Ensembles for every (backend, build_workers) cell, torn down at
    module end so this file leaves ``/dev/shm`` exactly as it found it."""
    graph, assignment = small_graph()
    ensembles = {
        (backend, bw): WorldEnsemble(
            graph,
            assignment,
            n_worlds=12,
            seed=7,
            backend=backend,
            build_workers=bw,
        )
        for backend in BACKENDS
        for bw in BUILD_COUNTS
    }
    yield ensembles
    for ensemble in ensembles.values():
        ensemble.close()


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
        assert (wa.adjacency != wb.adjacency).nnz == 0


class TestShardSlices:
    def test_partitions_exactly(self):
        for n_items in (1, 2, 7, 100, 101):
            for n_shards in (1, 2, 3, 8, 200):
                slices = shard_slices(n_items, n_shards)
                covered = []
                for s in slices:
                    assert s.stop > s.start  # no empty shards
                    covered.extend(range(s.start, s.stop))
                assert covered == list(range(n_items))
                assert len(slices) == min(n_shards, n_items)

    def test_balanced_within_one(self):
        slices = shard_slices(103, 4)
        sizes = [s.stop - s.start for s in slices]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        assert shard_slices(100, 3) == shard_slices(100, 3)

    def test_zero_items(self):
        assert shard_slices(0, 4) == [slice(0, 0)]


class TestValidation:
    def test_rejects_bad_values(self):
        for bad in (0, -1, 2.5, "fast", True):
            with pytest.raises(EstimationError):
                check_build_workers(bad)
        with pytest.raises(EstimationError):
            check_build_workers(None)  # allow_none defaults to False
        assert check_build_workers(None, allow_none=True) is None
        assert check_build_workers(AUTO_BUILD_WORKERS) == AUTO_BUILD_WORKERS
        assert check_build_workers(3) == 3

    def test_error_phrasing_matches_check_workers(self):
        """One message shape for both knobs (ISSUE parity requirement)."""
        for bad in (0, -1, 2.5, "fast", True, None):
            with pytest.raises(EstimationError) as build_err:
                check_build_workers(bad)
            with pytest.raises(EstimationError) as workers_err:
                check_workers(bad)
            assert str(build_err.value) == str(workers_err.value).replace(
                "workers", "build_workers"
            )

    def test_resolve_explicit_capped_at_n_worlds(self):
        assert resolve_build_workers(16, 4) == 4
        assert resolve_build_workers(1, 100) == 1

    def test_resolve_auto_gated_by_work_floor(self):
        # Tiny builds stay serial under "auto"; explicit counts engage.
        assert (
            resolve_build_workers(AUTO_BUILD_WORKERS, 8, n_items=MIN_PROC_BUILD_ITEMS - 1)
            == 1
        )
        assert resolve_build_workers(2, 8, n_items=1) == 2

    def test_resolve_none_defers_to_default(self):
        with execution_defaults.override("build_workers", 3):
            assert get_default_build_workers() == 3
            assert resolve_build_workers(None, 100) == 3


class TestSharedSegment:
    def test_create_view_unlink_close(self):
        before = listed_segments()
        segment = SharedSegment.create(new_segment_name(), 64)
        view = segment.ndarray((64,), np.uint8)
        view[:] = 7
        segment.unlink()
        assert segment.unlinked and not segment.closed
        assert listed_segments() == before  # the name is gone already
        # The mapping outlives the unlink: views stay valid.
        assert int(view.sum()) == 7 * 64
        del view
        segment.close()
        assert segment.closed
        segment.close()  # idempotent

    def test_ndarray_after_close_raises(self):
        segment = SharedSegment.create(new_segment_name(), 16)
        segment.close()
        with pytest.raises(EstimationError, match="closed"):
            segment.ndarray((16,), np.uint8)

    def test_attach_missing_is_unavailable(self):
        with pytest.raises(ProcessBuildUnavailable):
            SharedSegment.attach(new_segment_name())

    def test_unlink_by_name_missing_returns_false(self):
        assert unlink_by_name(new_segment_name()) is False


@pytest.mark.parametrize("backend", BACKENDS)
class TestBitIdentity:
    def test_worlds_identical_across_process_counts(self, built, backend):
        serial = built[(backend, 1)]
        for bw in BUILD_COUNTS[1:]:
            assert_worlds_identical(built[(backend, bw)], serial)

    def test_store_contents_identical(self, built, backend):
        serial = built[(backend, 1)]
        for bw in BUILD_COUNTS[1:]:
            proc = built[(backend, bw)]
            if backend == "dense":
                np.testing.assert_array_equal(
                    proc.backend._distances, serial.backend._distances
                )
                assert proc.backend._distances.dtype == np.uint8
            elif backend == "sparse":
                for row_p, row_s in zip(proc.backend._rows, serial.backend._rows):
                    assert row_p.dtype == row_s.dtype
                    assert row_p.indices.dtype == row_s.indices.dtype
                    assert row_p.indptr.dtype == row_s.indptr.dtype
                    np.testing.assert_array_equal(row_p.data, row_s.data)
                    np.testing.assert_array_equal(row_p.indices, row_s.indices)
                    np.testing.assert_array_equal(row_p.indptr, row_s.indptr)
            else:  # lazy builds no eager store; utilities must agree
                state_p = proc.state_for(proc.candidate_labels[:2])
                state_s = serial.state_for(serial.candidate_labels[:2])
                np.testing.assert_array_equal(
                    proc.group_utilities(state_p, 5),
                    serial.group_utilities(state_s, 5),
                )

    @pytest.mark.parametrize("discount", DISCOUNTS, ids=["step", "gamma0.8"])
    def test_greedy_traces_identical(self, built, backend, discount):
        objective = TotalInfluenceObjective()
        serial = lazy_greedy(
            built[(backend, 1)], objective, deadline=10, max_seeds=4, discount=discount
        )
        for bw in BUILD_COUNTS[1:]:
            trace = lazy_greedy(
                built[(backend, bw)],
                objective,
                deadline=10,
                max_seeds=4,
                discount=discount,
            )
            assert_traces_identical(trace, serial)


class TestLifecycle:
    def test_segments_exist_exactly_for_shared_stores(self, built):
        for (backend, bw), ensemble in built.items():
            segments = ensemble.shared_segments
            if bw > 1 and backend in ("dense", "sparse"):
                assert segments, (backend, bw)
            else:
                assert segments == [], (backend, bw)

    def test_build_workers_used_reports_engagement(self, built):
        for (backend, bw), ensemble in built.items():
            assert ensemble.build_workers_used == (bw if bw > 1 else 1)

    def test_unlink_keeps_ensemble_usable(self):
        graph, assignment = small_graph()
        ensemble = WorldEnsemble(
            graph, assignment, n_worlds=8, seed=5, backend="dense", build_workers=2
        )
        names = [segment.name for segment in ensemble.shared_segments]
        assert names
        ensemble.unlink_shared()
        assert all(segment.unlinked for segment in ensemble.shared_segments)
        for name in names:
            assert f"/dev/shm/{name}" not in listed_segments()
        # Queries still work: the mapping survives the unlink.
        state = ensemble.state_for(ensemble.candidate_labels[:2])
        assert ensemble.group_utilities(state, 5).shape
        ensemble.close()

    def test_context_manager_closes(self):
        graph, assignment = small_graph()
        with WorldEnsemble(
            graph, assignment, n_worlds=8, seed=5, backend="sparse", build_workers=2
        ) as ensemble:
            segments = ensemble.shared_segments
            assert segments and not ensemble.closed
        assert ensemble.closed
        assert all(segment.closed for segment in segments)

    def test_close_is_idempotent(self):
        graph, assignment = small_graph()
        ensemble = WorldEnsemble(
            graph, assignment, n_worlds=6, seed=5, backend="dense", build_workers=2
        )
        ensemble.close()
        ensemble.close()
        assert ensemble.closed and ensemble.shared_segments == []


@pytest.mark.skipif(not _HAS_DEV_SHM, reason="needs /dev/shm to list segments")
class TestHygiene:
    def test_session_eviction_unlinks(self):
        from repro.api import ExecutionSpec, Session

        graph, assignment = small_graph()
        session = Session(
            execution=ExecutionSpec(build_workers=2), max_cached_ensembles=1
        )
        first = session.build_ensemble(
            graph, assignment, n_worlds=8, seed=1, backend="dense"
        )
        first_names = {segment.name for segment in first.shared_segments}
        assert first_names
        # A second build overflows the one-entry cache: the first
        # ensemble is evicted and its segments must be unlinked.
        second = session.build_ensemble(
            graph, assignment, n_worlds=8, seed=2, backend="dense"
        )
        listed = {os.path.basename(path) for path in listed_segments()}
        assert not (first_names & listed)
        assert all(segment.unlinked for segment in first.shared_segments)
        # The evicted-but-held ensemble still answers queries.
        state = first.state_for(first.candidate_labels[:1])
        assert first.group_utilities(state, 5).shape
        session.clear_cache()
        assert all(segment.unlinked for segment in second.shared_segments)
        listed = {os.path.basename(path) for path in listed_segments()}
        assert not ({s.name for s in second.shared_segments} & listed)

    @pytest.mark.skipif(not _FORK, reason="monkeypatch reaches workers via fork")
    @pytest.mark.parametrize("backend", ("dense", "sparse"))
    def test_worker_exception_leaks_nothing(self, monkeypatch, backend):
        """A sampler crash in a worker process must propagate — it would
        fail serially too — and must sweep every issued segment."""
        import repro.diffusion.worlds as worlds_mod

        graph, assignment = small_graph()
        before = listed_segments()

        def exploding_sampler(graph, seed=None):
            raise ValueError("sampler exploded")

        monkeypatch.setattr(worlds_mod, "sample_ic_world", exploding_sampler)
        with pytest.raises(ValueError, match="sampler exploded"):
            WorldEnsemble(
                graph,
                assignment,
                n_worlds=8,
                seed=9,
                backend=backend,
                build_workers=2,
            )
        assert listed_segments() == before

    def test_pool_failure_degrades_to_serial(self, monkeypatch):
        """No processes available: same worlds, same store, a warning."""
        graph, assignment = small_graph()

        def no_processes(*args, **kwargs):
            raise OSError("processes forbidden")

        monkeypatch.setattr(procbuild, "ProcessPoolExecutor", no_processes)
        before = listed_segments()
        with pytest.warns(RuntimeWarning, match="falling back to the serial"):
            fallback = WorldEnsemble(
                graph, assignment, n_worlds=8, seed=7, backend="dense", build_workers=2
            )
        assert fallback.shared_segments == []
        assert fallback.build_workers_used == 1
        assert listed_segments() == before
        serial = WorldEnsemble(
            graph, assignment, n_worlds=8, seed=7, backend="dense", build_workers=1
        )
        assert_worlds_identical(fallback, serial)
        np.testing.assert_array_equal(
            fallback.backend._distances, serial.backend._distances
        )


class TestKnobChain:
    def test_auto_backend_resolves_identically(self):
        graph, assignment = small_graph()
        proc = WorldEnsemble(
            graph, assignment, n_worlds=8, seed=11, backend="auto", build_workers=2
        )
        serial = WorldEnsemble(
            graph, assignment, n_worlds=8, seed=11, backend="auto", build_workers=1
        )
        assert proc.backend_name == serial.backend_name
        assert_worlds_identical(proc, serial)
        proc.close()

    @pytest.mark.parametrize("expected", ("sparse", "lazy"))
    def test_auto_backend_resolves_identically_under_tight_limits(
        self, monkeypatch, expected
    ):
        monkeypatch.setattr(backends, "DEFAULT_DENSE_LIMIT", 1024)
        if expected == "lazy":
            monkeypatch.setattr(backends, "DEFAULT_SPARSE_LIMIT", 1024)
        graph, assignment = small_graph()
        proc = WorldEnsemble(
            graph, assignment, n_worlds=8, seed=11, backend="auto", build_workers=2
        )
        serial = WorldEnsemble(
            graph, assignment, n_worlds=8, seed=11, backend="auto", build_workers=1
        )
        assert proc.build_workers_used == 2
        assert proc.backend_name == serial.backend_name == expected
        assert_worlds_identical(proc, serial)
        state_proc = proc.state_for(proc.candidate_labels[:3])
        state_serial = serial.state_for(serial.candidate_labels[:3])
        np.testing.assert_array_equal(
            proc.group_utilities(state_proc, 3), serial.group_utilities(state_serial, 3)
        )
        proc.close()

    def test_lt_model_identical(self):
        graph, assignment = small_graph()
        proc = WorldEnsemble(
            graph,
            assignment,
            n_worlds=6,
            seed=13,
            model="lt",
            backend="dense",
            build_workers=3,
        )
        serial = WorldEnsemble(
            graph,
            assignment,
            n_worlds=6,
            seed=13,
            model="lt",
            backend="dense",
            build_workers=1,
        )
        assert_worlds_identical(proc, serial)
        np.testing.assert_array_equal(
            proc.backend._distances, serial.backend._distances
        )
        proc.close()

    def test_ensemble_rejects_bad_setting(self):
        graph, assignment = small_graph()
        with pytest.raises(EstimationError, match="build_workers"):
            WorldEnsemble(graph, assignment, n_worlds=4, seed=0, build_workers=0)

    def test_session_solve_echoes_engaged_count(self):
        from repro.api import EnsembleSpec, ExecutionSpec, RunSpec, Session
        from repro.api.specs import SolverSpec

        spec = RunSpec(
            ensemble=EnsembleSpec(
                dataset="synthetic",
                dataset_params={"n": 80},
                n_worlds=10,
                world_seed=3,
            ),
            solver=SolverSpec(problem="budget", deadline=10.0, budget=2),
        )
        proc_session = Session(execution=ExecutionSpec(build_workers=2))
        serial_session = Session(execution=ExecutionSpec(build_workers=1))
        result_proc = proc_session.solve(spec)
        result_serial = serial_session.solve(spec)
        assert result_proc.spec.execution.build_workers == 2
        assert result_serial.spec.execution.build_workers == 1
        assert result_proc.seeds == result_serial.seeds
        assert result_proc.objective == result_serial.objective
        assert result_proc.group_utilities == result_serial.group_utilities
        proc_session.clear_cache()
