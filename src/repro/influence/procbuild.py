"""Process-sharded world construction with shared-memory publication.

World **construction** is GIL-bound: the live-edge samplers and the
batched-BFS CSR builds spend their time in numpy/scipy *glue* (fancy
indexing, ``csr_matrix`` assembly, Python loops over worlds) that holds
the GIL, so threads cannot speed a build up.  This module shards
construction across **processes** instead, and publishes the built
distance stores in named :mod:`multiprocessing.shared_memory` segments
so the parent — and, on one host, any other process that learns the
segment names — attaches zero-copy instead of paying a
serialize/deserialize round trip per ensemble.

Determinism contract
--------------------
Process sharding never changes a single bit of any world or store:

- the parent spawns the per-world RNG children **exactly** as the
  serial path does (``ensure_rng(seed).spawn(n_worlds)``, one child
  per world, keyed by world index through numpy's ``SeedSequence``
  spawn keys) and ships each worker its shard's children — so world
  ``i`` is sampled from the same generator state at any process count,
  including the serial path;
- the per-world construction kernels are the *same functions* the
  serial path runs (``sample_ic_world`` / ``sample_lt_world``,
  ``LiveEdgeWorld.distances_from``, ``_batched_bfs_distances``), each
  deterministic given its world;
- results are assembled in world order: dense slabs land at their
  world offset in one preallocated segment, sparse CSR rows are
  reattached shard by shard in shard order.

Hence ``build_workers=1`` *is* the pre-existing serial path (no pool,
no segments), and any ``build_workers > 1`` is byte-identical to it.

Lifecycle
---------
Shared segments are named resources: they outlive any one process
until something unlinks them.  Four layers of hygiene:

- every parent-side segment is wrapped in a :class:`SharedSegment`
  whose ``weakref.finalize`` hook unlinks and unmaps it when the
  wrapper is garbage-collected *or* at interpreter exit — nothing
  leaks past a clean shutdown;
- ``WorldEnsemble.close()`` (and the ``Session`` cache's eviction
  path, via ``unlink_shared()``) unlink deterministically;
- segment *names* are issued by the parent before any worker runs, so
  a worker that dies mid-build cannot orphan a segment the parent does
  not know how to unlink — on any failure the parent waits the pool
  out and sweeps every name it issued;
- the stdlib resource tracker (started *before* the pool so every
  worker shares it) is the crash backstop: if the parent dies hard,
  the tracker unlinks whatever was still registered.

Degradation
-----------
Restricted sandboxes may forbid process creation or ``/dev/shm``.
Every such infrastructure failure raises
:class:`ProcessBuildUnavailable`, which the ensemble catches to fall
back to the serial build (same bytes, just slower) with a warning.
Exceptions raised by the construction kernels themselves (a sampler
bug would fail serially too) propagate after segment cleanup.
"""

from __future__ import annotations

import os
import pickle
import uuid
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from repro.config import execution_defaults
from repro.errors import EstimationError

#: Sentinel: resolve to ``min(available_cpus(), n_worlds)``, gated by
#: the work floor below.
AUTO_BUILD_WORKERS = "auto"

#: A build-worker setting as users write it: a positive int or "auto".
BuildWorkersLike = Union[int, str]

#: Build workers used when nothing in the config chain sets a count:
#: fully serial — the pre-existing in-process build, byte for byte.
LIBRARY_DEFAULT_BUILD_WORKERS: BuildWorkersLike = 1

#: Minimum elementwise store items (``n_worlds * C * n``) per *process*
#: before ``"auto"`` shards a build: forking a pool and pickling the
#: graph costs tens of milliseconds, so small builds run serially.
#: Explicit integer counts are honoured regardless (callers that know
#: their workload opt in deliberately); gating changes dispatch only —
#: built stores are bit-identical either way.
MIN_PROC_BUILD_ITEMS = 1 << 22

#: Prefix of every shared-memory segment this module creates; the
#: hygiene tests key their leak sweeps on it.
SEGMENT_PREFIX = "repro-pb"


def available_cpus() -> int:
    """CPUs this process may actually run on.

    Respects CPU affinity masks and (via them) container/cgroup
    limits where the platform exposes them — ``os.cpu_count()`` would
    report the whole host and oversubscribe a pinned container.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def shard_slices(n_items: int, n_shards: int) -> List[slice]:
    """Split ``range(n_items)`` into ``<= n_shards`` contiguous slices.

    Balanced to within one item, deterministic, and empty-free — the
    partition depends only on the two arguments, so a fixed-order
    assembly over the shards is reproducible run to run.
    """
    n_items = int(n_items)
    n_shards = max(1, min(int(n_shards), n_items)) if n_items else 1
    base, extra = divmod(n_items, n_shards)
    slices = []
    start = 0
    for i in range(n_shards):
        stop = start + base + (1 if i < extra else 0)
        if stop > start:
            slices.append(slice(start, stop))
        start = stop
    return slices or [slice(0, 0)]


class ProcessBuildUnavailable(RuntimeError):
    """Process-sharded construction cannot run here (no processes, no
    shared memory, broken pool); callers fall back to the serial build."""


def check_build_workers(
    build_workers: Optional[BuildWorkersLike], allow_none: bool = False
) -> Optional[BuildWorkersLike]:
    """Validate a build-worker setting (``int >= 1`` or ``"auto"``).

    Same phrasing family as :func:`repro.api.specs.check_workers`, so
    the spec/CLI layers surface one consistent message shape for both
    knobs.
    """
    if build_workers is None:
        if allow_none:
            return None
        raise EstimationError(
            "build_workers must be a positive int or 'auto', got None"
        )
    if build_workers == AUTO_BUILD_WORKERS:
        return AUTO_BUILD_WORKERS
    if isinstance(build_workers, bool) or not isinstance(build_workers, int):
        raise EstimationError(
            f"build_workers must be a positive int or 'auto', got {build_workers!r}"
        )
    if build_workers < 1:
        raise EstimationError(f"build_workers must be >= 1, got {build_workers}")
    return int(build_workers)


def get_default_build_workers() -> BuildWorkersLike:
    """The build-worker setting used when an ensemble is not given one
    (the process-wide store, falling back to the serial default)."""
    return execution_defaults.get("build_workers", LIBRARY_DEFAULT_BUILD_WORKERS)


def resolve_build_workers(
    build_workers: Optional[BuildWorkersLike],
    n_worlds: int,
    n_items: Optional[int] = None,
) -> int:
    """Concrete process count for building an ``n_worlds`` ensemble.

    ``None`` defers to :func:`get_default_build_workers`; ``"auto"``
    becomes ``min(available_cpus(), n_worlds)`` *gated by the work
    floor* — when ``n_items`` (the elementwise size of the store about
    to be built) says each process would get less than
    :data:`MIN_PROC_BUILD_ITEMS` of work, auto stays serial.  Explicit
    integer counts skip the floor (capped at ``n_worlds`` — a shard
    needs at least one world).
    """
    if build_workers is None:
        build_workers = get_default_build_workers()
    build_workers = check_build_workers(build_workers)
    if build_workers == AUTO_BUILD_WORKERS:
        build_workers = available_cpus()
        if n_items is not None:
            build_workers = min(
                build_workers, max(1, int(n_items) // MIN_PROC_BUILD_ITEMS)
            )
    return max(1, min(int(build_workers), max(1, int(n_worlds))))


# ----------------------------------------------------------------------
# shared-memory segments
# ----------------------------------------------------------------------
def _destroy_segment(shm: shared_memory.SharedMemory) -> None:
    """Finalizer body: unlink then unmap, tolerating every partial state
    (already unlinked, buffers still exported, interpreter teardown)."""
    try:
        shm.unlink()
    except (FileNotFoundError, OSError):
        pass
    try:
        shm.close()
    except BufferError:
        # A numpy view still exports the buffer; the name is already
        # unlinked, so nothing leaks — the mapping dies with the process.
        pass


def new_segment_name() -> str:
    """A fresh, collision-safe segment name under the module prefix."""
    return f"{SEGMENT_PREFIX}-{os.getpid():x}-{uuid.uuid4().hex[:12]}"


class SharedSegment:
    """One named shared-memory segment with deterministic hygiene.

    Wraps a :class:`multiprocessing.shared_memory.SharedMemory` and
    guarantees the *name* cannot outlive a clean shutdown: a
    ``weakref.finalize`` hook (GC **and** atexit) unlinks and unmaps it
    unless :meth:`unlink` / :meth:`close` already did.  ``unlink``
    alone keeps the mapping (and every numpy view into it) valid —
    POSIX frees the memory only when the last mapping closes — which is
    what lets the ``Session`` cache unlink on eviction while a caller
    still holding the evicted ensemble keeps querying it.
    """

    __slots__ = ("name", "_shm", "_unlinked", "_closed", "_finalizer", "__weakref__")

    def __init__(self, shm: shared_memory.SharedMemory) -> None:
        self.name = shm.name
        self._shm = shm
        self._unlinked = False
        self._closed = False
        self._finalizer = weakref.finalize(self, _destroy_segment, shm)

    @classmethod
    def create(cls, name: str, size: int) -> "SharedSegment":
        try:
            return cls(shared_memory.SharedMemory(name=name, create=True, size=size))
        except (OSError, ValueError) as exc:
            raise ProcessBuildUnavailable(
                f"cannot create shared-memory segment ({exc})"
            ) from exc

    @classmethod
    def attach(cls, name: str) -> "SharedSegment":
        try:
            return cls(shared_memory.SharedMemory(name=name))
        except (OSError, ValueError) as exc:
            raise ProcessBuildUnavailable(
                f"cannot attach shared-memory segment {name!r} ({exc})"
            ) from exc

    @property
    def size(self) -> int:
        return self._shm.size

    @property
    def unlinked(self) -> bool:
        return self._unlinked

    @property
    def closed(self) -> bool:
        return self._closed

    def ndarray(self, shape: Tuple[int, ...], dtype, offset: int = 0) -> np.ndarray:
        """A zero-copy numpy view into the segment at ``offset`` bytes."""
        if self._closed:
            raise EstimationError(f"shared segment {self.name!r} is closed")
        return np.ndarray(shape, dtype=dtype, buffer=self._shm.buf, offset=offset)

    def unlink(self) -> None:
        """Remove the segment's *name* (idempotent).

        Existing mappings — this process's and any other attacher's —
        stay valid; the kernel frees the memory when the last one
        closes.  After this, no new process can attach.
        """
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except (FileNotFoundError, OSError):
            pass

    def close(self) -> None:
        """Unlink and unmap (idempotent).

        Every numpy view from :meth:`ndarray` becomes invalid; callers
        drop their array references first.  If a view still exports the
        buffer, the unmap is deferred to the view's death (the name is
        gone either way, so nothing leaks).
        """
        self.unlink()
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        try:
            self._shm.close()
        except BufferError:
            # Re-arm the finalizer so the mapping is still unmapped
            # once the last view dies / at exit.
            self._finalizer = weakref.finalize(self, _destroy_segment, self._shm)

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("unlinked" if self._unlinked else "live")
        return f"SharedSegment(name={self.name!r}, size={self.size}, {state})"


def unlink_by_name(name: str) -> bool:
    """Best-effort unlink of a segment by name (failure cleanup for
    worker-created segments the parent never managed to attach)."""
    try:
        shm = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError, ValueError):
        return False
    try:
        shm.unlink()
    except (FileNotFoundError, OSError):
        pass
    try:
        shm.close()
    except BufferError:
        pass
    return True


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
#: Per-worker-process construction context, installed once by the pool
#: initializer so per-task pickles carry only shard coordinates and RNG
#: children, not the graph.
_WORKER_CONTEXT: Dict[str, Any] = {}

_ALIGN = 16


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _init_worker(payload: bytes) -> None:
    """Pool initializer: unpack the (graph, candidates, model) context.

    The payload is pre-pickled by the parent so one serialization pass
    serves every worker, whatever start method the platform uses.
    """
    graph, candidate_indices, model = pickle.loads(payload)
    _WORKER_CONTEXT["graph"] = graph
    _WORKER_CONTEXT["candidate_indices"] = candidate_indices
    _WORKER_CONTEXT["model"] = model


def _sample_shard_worlds(children: Sequence[np.random.Generator]) -> List:
    """Sample this shard's worlds with the parent-spawned per-world RNGs
    — the same sampler calls the serial path makes, world by world.

    The sampler is looked up on the module at call time, so a
    monkeypatched ``sample_ic_world`` in the parent reaches fork-start
    workers too (which is what the hygiene tests lean on to force a
    mid-build worker failure).
    """
    from repro.diffusion import worlds as worlds_mod

    graph = _WORKER_CONTEXT["graph"]
    sampler = (
        worlds_mod.sample_ic_world
        if _WORKER_CONTEXT["model"] == "ic"
        else worlds_mod.sample_lt_world
    )
    return [sampler(graph, seed=child) for child in children]


def _worker_sample_worlds(task: Tuple) -> List:
    """Task: sample worlds only (the lazy backend's build)."""
    (children,) = task
    return _sample_shard_worlds(children)


def _worker_build_dense(task: Tuple) -> List:
    """Task: sample worlds and write their dense distance slabs into the
    parent-created segment at this shard's world offset."""
    segment_name, shape, lo, children = task
    shard_worlds = _sample_shard_worlds(children)
    candidate_indices = _WORKER_CONTEXT["candidate_indices"]
    shm = shared_memory.SharedMemory(name=segment_name)
    try:
        tensor = np.ndarray(shape, dtype=np.uint8, buffer=shm.buf)
        for i, world in enumerate(shard_worlds):
            tensor[lo + i] = world.distances_from(candidate_indices)
        del tensor
    finally:
        shm.close()
    return shard_worlds


def _worker_build_sparse(task: Tuple) -> Tuple[List, List[Dict[str, Any]]]:
    """Task: sample worlds, run the batched BFS per world, and pack the
    CSR triples into one worker-created segment under the parent-issued
    name.  Returns the worlds plus per-world array descriptors (offsets,
    dtypes, shapes) the parent needs to reattach zero-copy."""
    from repro.influence.backends import _batched_bfs_distances

    segment_name, children = task
    shard_worlds = _sample_shard_worlds(children)
    candidate_indices = _WORKER_CONTEXT["candidate_indices"]
    rows = [
        _batched_bfs_distances(world, candidate_indices) for world in shard_worlds
    ]
    packed: List[Tuple[Dict[str, Any], np.ndarray]] = []
    descriptors: List[Dict[str, Any]] = []
    offset = 0
    for mat in rows:
        descriptor: Dict[str, Any] = {"shape": mat.shape}
        for part in ("data", "indices", "indptr"):
            array = np.ascontiguousarray(getattr(mat, part))
            offset = _aligned(offset)
            meta = {
                "offset": offset,
                "dtype": array.dtype.str,
                "shape": array.shape,
            }
            descriptor[part] = meta
            packed.append((meta, array))
            offset += array.nbytes
        descriptors.append(descriptor)
    shm = shared_memory.SharedMemory(
        name=segment_name, create=True, size=max(offset, 1)
    )
    try:
        for meta, array in packed:
            view = np.ndarray(
                array.shape,
                dtype=np.dtype(meta["dtype"]),
                buffer=shm.buf,
                offset=meta["offset"],
            )
            view[...] = array
            del view
    finally:
        shm.close()
    return shard_worlds, descriptors


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
def _clone_generator(rng: np.random.Generator) -> np.random.Generator:
    """An independent copy of ``rng``'s exact state (pickle round trip),
    so probing can draw from it without advancing the original."""
    return pickle.loads(pickle.dumps(rng))


def _ensure_resource_tracker() -> None:
    """Start the stdlib resource tracker *before* the pool forks.

    Workers then inherit the one tracker, so their segment
    registrations and the parent's land in the same cache — a single
    final unlink unregisters cleanly, and a hard crash leaves exactly
    one tracker to sweep the leftovers (two independent trackers would
    instead race: a worker-side tracker outliving its worker unlinks
    segments the parent still maps).
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except Exception:  # pragma: no cover - platform without a tracker
        pass


def _run_tasks(executor: ProcessPoolExecutor, fn, tasks: Sequence[Tuple]) -> List[Any]:
    """Submit one task per shard and collect results in shard order."""
    futures = [executor.submit(fn, task) for task in tasks]
    return [future.result() for future in futures]


def process_build(
    graph,
    candidate_indices: np.ndarray,
    n: int,
    n_worlds: int,
    model: str,
    children: Sequence[np.random.Generator],
    backend: str,
    build_workers: int,
) -> Tuple[str, List, Optional[Any], List[SharedSegment]]:
    """Build worlds + distance store across ``build_workers`` processes.

    ``children`` are the per-world RNG generators the *caller* spawned
    (``ensure_rng(seed).spawn(n_worlds)`` — the identical call sequence
    the serial sampler makes), so a failed process build can fall back
    to the serial path on the very same generators and still produce
    the very same worlds.

    Returns ``(resolved, worlds, store, segments)``: the concrete
    backend name (``"auto"`` resolved by the same
    :func:`~repro.influence.backends.select_backend` rule as the serial
    path), the sampled worlds, the store the workers filled (the dense
    tensor, the per-world CSR list, or ``None`` for ``lazy``, which
    only samples worlds here) and the shared segments backing it.  The
    caller hands ``resolved`` and ``store`` to
    :func:`~repro.influence.backends.make_backend`.

    The caller has already resolved ``build_workers`` to a concrete
    count ``>= 2`` (``1`` means "run the serial path" and never reaches
    here).  Raises :class:`ProcessBuildUnavailable` for infrastructure
    failures (no processes / no shared memory / broken pool) — the
    ensemble falls back to the serial build — and propagates genuine
    construction errors after unlinking every segment this build
    created.
    """
    from repro.influence.backends import select_backend

    if model not in ("ic", "lt"):
        raise EstimationError(f"model must be 'ic' or 'lt', got {model!r}")
    if len(children) != n_worlds:
        raise EstimationError(
            f"need one RNG child per world: got {len(children)} for {n_worlds}"
        )
    candidate_indices = np.asarray(candidate_indices, dtype=np.int64)
    n_candidates = len(candidate_indices)

    resolved = backend
    if resolved == "auto":
        # Probe world 0 from a *clone* of its child so the worker still
        # samples it from the pristine state — the selection sees the
        # very world the build will contain.  The rule only reads world
        # 0 and the world count.
        probe_world = _probe_first_world(graph, model, children[0])
        resolved = select_backend([probe_world] * n_worlds, candidate_indices, n)

    shards = shard_slices(n_worlds, build_workers)
    payload = pickle.dumps((graph, candidate_indices, model))
    _ensure_resource_tracker()
    try:
        executor = ProcessPoolExecutor(
            max_workers=len(shards),
            initializer=_init_worker,
            initargs=(payload,),
        )
    except (OSError, ValueError, PermissionError) as exc:
        raise ProcessBuildUnavailable(f"cannot start build processes ({exc})") from exc

    segments: List[SharedSegment] = []
    issued_names: List[str] = []
    store: Optional[Any] = None
    try:
        try:
            if resolved == "dense":
                worlds, store = _parent_build_dense(
                    executor,
                    shards,
                    children,
                    n_worlds,
                    n_candidates,
                    n,
                    segments,
                    issued_names,
                )
            elif resolved == "sparse":
                worlds, store = _parent_build_sparse(
                    executor, shards, children, segments, issued_names
                )
            else:  # lazy: process-parallel world sampling only
                results = _run_tasks(
                    executor,
                    _worker_sample_worlds,
                    [(children[s.start : s.stop],) for s in shards],
                )
                worlds = [world for shard in results for world in shard]
        except BrokenProcessPool as exc:
            raise ProcessBuildUnavailable(f"build process pool broke ({exc})") from exc
    except BaseException:
        # Wait the pool out *before* sweeping: a still-running worker
        # could otherwise create its segment after the sweep passed.
        executor.shutdown(wait=True, cancel_futures=True)
        for segment in segments:
            segment.close()
        for name in issued_names:
            unlink_by_name(name)
        raise
    else:
        executor.shutdown(wait=True)
    return resolved, worlds, store, segments


def _probe_first_world(graph, model: str, child: np.random.Generator):
    from repro.diffusion import worlds as worlds_mod

    sampler = (
        worlds_mod.sample_ic_world if model == "ic" else worlds_mod.sample_lt_world
    )
    return sampler(graph, seed=_clone_generator(child))


def _parent_build_dense(
    executor, shards, children, n_worlds, n_candidates, n, segments, issued_names
):
    """Dense store: one parent-created segment, workers write their
    world slabs in place — the parent never copies a byte."""
    shape = (n_worlds, n_candidates, n)
    name = new_segment_name()
    issued_names.append(name)
    segment = SharedSegment.create(name, int(np.prod(shape, dtype=np.int64)))
    segments.append(segment)
    tasks = [(name, shape, s.start, children[s.start : s.stop]) for s in shards]
    results = _run_tasks(executor, _worker_build_dense, tasks)
    worlds = [world for shard in results for world in shard]
    return worlds, segment.ndarray(shape, np.uint8)


def _parent_build_sparse(executor, shards, children, segments, issued_names):
    """Sparse store: one worker-created segment per shard (CSR sizes are
    unknowable upfront), reattached zero-copy in shard order."""
    names = [new_segment_name() for _ in shards]
    issued_names.extend(names)
    tasks = [(names[i], children[s.start : s.stop]) for i, s in enumerate(shards)]
    results = _run_tasks(executor, _worker_build_sparse, tasks)
    worlds: List = []
    rows: List[sparse.csr_matrix] = []
    for name, (shard_worlds, descriptors) in zip(names, results):
        segment = SharedSegment.attach(name)
        segments.append(segment)
        worlds.extend(shard_worlds)
        for descriptor in descriptors:
            data, indices, indptr = (
                segment.ndarray(
                    tuple(descriptor[part]["shape"]),
                    np.dtype(descriptor[part]["dtype"]),
                    offset=descriptor[part]["offset"],
                )
                for part in ("data", "indices", "indptr")
            )
            rows.append(
                sparse.csr_matrix(
                    (data, indices, indptr), shape=tuple(descriptor["shape"])
                )
            )
    return worlds, rows


def warn_serial_fallback(reason: str) -> None:
    """One consistent warning when a requested process build degrades."""
    warnings.warn(
        f"process-sharded build unavailable, falling back to the serial "
        f"build (results are identical): {reason}",
        RuntimeWarning,
        stacklevel=3,
    )
