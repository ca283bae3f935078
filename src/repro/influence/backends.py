"""Pluggable estimator backends for the world-ensemble distance store.

The common-random-numbers estimator (:class:`~repro.influence.ensemble.
WorldEnsemble`) reduces every utility query to three primitive
operations on per-candidate activation-time rows:

- fold candidate ``c``'s times into a state: ``best = min(best, D[:, c, :])``;
- the same fold *without mutation*, for marginal-gain queries;
- the same non-mutating fold for a whole *block* of candidates at once
  (:meth:`DistanceBackend.min_with_block`), writing into a
  caller-provided scratch buffer — the primitive behind the batched
  gain oracle that the greedy solvers' hot loops run on.

How those rows are stored is what limits scale.  This module isolates
the storage decision behind :class:`DistanceBackend` with three
implementations:

``dense``
    The original ``uint8`` tensor ``D[r, c, v]`` — O(R·C·n) memory,
    fastest queries.  Right for the paper's graphs (Rice, Instagram,
    synthetic SBM) where the tensor fits comfortably in RAM.
``sparse``
    One ``scipy.sparse`` CSR matrix per world holding only the
    *finite* activation times (stored as ``distance + 1`` so the
    implicit zeros mean "unreachable") — O(total reachable pairs)
    memory.  Rows are built by a batched frontier BFS: one sparse
    matmul per BFS level advances every candidate's frontier at once.
    Right when worlds are sparse (low activation probability), which
    is exactly when the dense tensor wastes most of its bytes on the
    ``UNREACHABLE`` sentinel.
``lazy``
    No precomputation: candidate rows ``D[:, c, :]`` are materialised
    on demand from the stored worlds and kept in a small LRU cache —
    O(cache_size·R·n) memory.  Right when even the CSR store is too
    big; CELF's heavy reuse of a few hot candidates keeps the hit rate
    high.

:func:`select_backend` implements the ``"auto"`` rule (pick by
estimated footprint); :class:`UtilityEstimator` is the solver-facing
protocol every estimator — ensemble-backed or otherwise — satisfies,
which is what the greedy/budget/cover layers are typed against.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

import numpy as np
from scipy import sparse

from repro.errors import EstimationError
from repro.diffusion.worlds import UNREACHABLE, LiveEdgeWorld
from repro.graph.digraph import NodeId

#: Recognised backend names (plus the ``"auto"`` selector).
BACKEND_NAMES = ("dense", "sparse", "lazy")

#: Every name accepted wherever a backend is chosen (CLI, experiments,
#: ``WorldEnsemble``) — the single source of truth.
BACKEND_CHOICES = ("auto",) + BACKEND_NAMES

#: ``"auto"`` keeps the dense tensor while it stays under this many bytes.
DEFAULT_DENSE_LIMIT = 256 * 1024 * 1024

#: ``"auto"`` falls through to ``lazy`` past this estimated CSR footprint.
DEFAULT_SPARSE_LIMIT = 1024 * 1024 * 1024

#: Default number of cached candidate rows in the lazy backend.
DEFAULT_CACHE_SIZE = 64


@runtime_checkable
class UtilityEstimator(Protocol):
    """What the solvers need from an influence estimator.

    :class:`~repro.influence.ensemble.WorldEnsemble` satisfies this for
    every distance backend, and
    :class:`~repro.influence.rrsets.RRSetEstimator` satisfies it from
    group-tagged RR sets — both plug into ``lazy_greedy`` /
    ``plain_greedy`` / the budget and cover solvers unchanged, as can
    any further estimator implementing the same surface.
    """

    group_names: List[Hashable]
    group_sizes: np.ndarray

    @property
    def n_candidates(self) -> int: ...

    def position(self, node: NodeId) -> int: ...

    def label(self, position: int) -> NodeId: ...

    def empty_state(self) -> Any: ...

    def state_for(self, seeds: Iterable[NodeId]) -> Any: ...

    def add_seed(self, state: Any, position: int) -> None: ...

    def seeds_of(self, state: Any) -> List[NodeId]: ...

    def group_utilities(
        self, state: Any, deadline: float, discount: Optional[float] = None
    ) -> np.ndarray: ...

    def candidate_group_utilities(
        self,
        state: Any,
        position: int,
        deadline: float,
        discount: Optional[float] = None,
    ) -> np.ndarray: ...

    def total_utility(self, state: Any, deadline: float) -> float: ...

    def normalized_group_utilities(
        self, state: Any, deadline: float
    ) -> np.ndarray: ...

    def memory_bytes(self) -> int: ...


@runtime_checkable
class BatchGainEstimator(UtilityEstimator, Protocol):
    """A :class:`UtilityEstimator` with the batched accelerations.

    The batched gain oracle and the deadline sweep are *optional*: the
    greedy engines and sweep helpers feature-detect them with
    ``getattr`` and fall back to per-candidate / per-deadline scalar
    queries, so a minimal estimator that satisfies only
    :class:`UtilityEstimator` still plugs in — it just runs the slow
    path.  Do not subclass this protocol to inherit stub methods;
    implement the methods for real (the feature detection trusts their
    presence).  :class:`~repro.influence.ensemble.WorldEnsemble`
    satisfies it under every distance backend.
    """

    def candidate_group_utilities_batch(
        self,
        state: Any,
        positions: Sequence[int],
        deadline: float,
        discount: Optional[float] = None,
    ) -> np.ndarray: ...

    def candidate_gains_batch(
        self,
        state: Any,
        positions: Sequence[int],
        deadline: float,
        objective: Any,
        discount: Optional[float] = None,
        base_value: Optional[float] = None,
    ) -> np.ndarray: ...

    def group_utilities_sweep(
        self,
        state: Any,
        deadlines: Sequence[float],
        discount: Optional[float] = None,
    ) -> np.ndarray: ...


class DistanceBackend:
    """Storage strategy for per-candidate activation-time rows.

    Subclasses provide the two folds the ensemble needs plus a
    footprint report; everything else (group masks, discounting,
    deadlines, state bookkeeping) stays in the ensemble and is shared
    by every backend, which is what makes their outputs bit-identical.
    """

    name: str = "abstract"

    def min_into(self, best: np.ndarray, position: int) -> None:
        """In place: ``best = minimum(best, D[:, position, :])``."""
        raise NotImplementedError

    def min_with(self, best: np.ndarray, position: int) -> np.ndarray:
        """Fresh array: ``minimum(best, D[:, position, :])`` (no mutation)."""
        raise NotImplementedError

    def min_with_block(
        self,
        best: np.ndarray,
        positions: Sequence[int],
        out: np.ndarray,
    ) -> np.ndarray:
        """Blocked fold: ``out[i] = minimum(best, D[:, positions[i], :])``.

        ``out`` must be a ``(len(positions), R, n)`` uint8 buffer the
        caller owns (the ensemble keeps one per block size and reuses
        it), so a whole candidate block is scored without any per-call
        allocation.  The base implementation copies ``best`` into each
        slab and applies :meth:`min_into`; backends override it where a
        genuinely blocked fold is cheaper.  Values are bit-identical to
        ``min_with`` called per position.
        """
        for i, position in enumerate(positions):
            np.copyto(out[i], best)
            self.min_into(out[i], position)
        return out

    def reduce_rows(self, positions: Sequence[int], out: np.ndarray) -> np.ndarray:
        """Slab fold of whole seed sets: ``out = min(out, min_p D[:, p, :])``.

        Folds *every* candidate in ``positions`` into ``out`` (a full
        ``(R, n)`` state buffer) in one call — the bulk seed-state
        build behind ``WorldEnsemble.state_for``.  The minimum is exact
        on ``uint8``, so the result equals a sequential :meth:`min_into`
        chain bit for bit, in any order.
        """
        for position in positions:
            self.min_into(out, int(position))
        return out

    def empty_state_histogram(
        self, group_index: np.ndarray, n_groups: int
    ) -> Optional[np.ndarray]:
        """Per-candidate activation-time histogram of the *empty* state.

        Returns ``hist[c, g, t]`` — how many nodes of group ``g`` each
        candidate ``c`` activates at exactly time ``t``, summed over
        every world — or ``None`` when the backend cannot produce it
        without defeating its own design (the lazy store would have to
        materialise every row).  Against the empty state the fold is
        the identity (``min(UNREACHABLE, D_c) = D_c``), so this table
        answers a first greedy round at *any* deadline with exact
        integer counts: the ensemble caches its cumulative sum as a
        state-independent gain table.
        """
        return None

    def repair_worlds(
        self,
        updates: Dict[int, LiveEdgeWorld],
        candidate_indices: np.ndarray,
    ) -> Optional[np.ndarray]:
        """Patch the store after worlds ``updates`` changed in place.

        ``updates`` maps world index -> the world's *new*
        :class:`LiveEdgeWorld` (the repaired live-edge set after a
        graph delta).  Only those worlds' slices of the store are
        recomputed — the incremental-repair layer
        (:mod:`repro.influence.incremental`) guarantees every other
        world's live-edge set (and hence its distances) is unchanged.

        Returns the sorted candidate positions whose rows changed in at
        least one world (the set a warm-started solver must refresh),
        or ``None`` when the backend cannot enumerate them without
        materialising rows it never stored (the lazy store).
        """
        raise NotImplementedError

    def memory_bytes(self) -> int:
        """Bytes held by the distance store (excludes the sampled worlds)."""
        raise NotImplementedError


class DenseBackend(DistanceBackend):
    """The original dense tensor ``D[r, c, v]`` (uint8, UNREACHABLE-padded)."""

    name = "dense"

    def __init__(
        self,
        worlds: Sequence[LiveEdgeWorld],
        candidate_indices: np.ndarray,
        n: int,
        distances: Optional[np.ndarray] = None,
    ) -> None:
        # ``distances`` lets the process-sharded build layer
        # (:mod:`repro.influence.procbuild`) hand over an already-built
        # ``(R, C, n)`` uint8 tensor — typically a zero-copy view into a
        # shared-memory segment — instead of re-BFSing every world here.
        if distances is not None:
            expected = (len(worlds), len(candidate_indices), n)
            if distances.shape != expected or distances.dtype != np.uint8:
                raise EstimationError(
                    f"prebuilt distances must be uint8 with shape {expected}, "
                    f"got {distances.dtype} {distances.shape}"
                )
            self._distances = distances
            return
        self._distances = np.stack(
            [world.distances_from(candidate_indices) for world in worlds]
        )

    def min_into(self, best: np.ndarray, position: int) -> None:
        np.minimum(best, self._distances[:, position, :], out=best)

    def min_with(self, best: np.ndarray, position: int) -> np.ndarray:
        return np.minimum(best, self._distances[:, position, :])

    def min_with_block(
        self,
        best: np.ndarray,
        positions: Sequence[int],
        out: np.ndarray,
    ) -> np.ndarray:
        positions = np.asarray(positions)
        if positions.size and np.array_equal(
            positions, np.arange(positions[0], positions[0] + positions.size)
        ):
            # Contiguous block (the CELF first round always is): the
            # slab is a transposed *view* of the tensor, so the whole
            # fold is one blocked minimum with zero copies beyond the
            # reusable scratch buffer.
            slab = self._distances[
                :, int(positions[0]) : int(positions[0]) + positions.size, :
            ].transpose(1, 0, 2)
            np.minimum(slab, best[np.newaxis], out=out)
            return out
        # Scattered positions (later plain-greedy rounds): fancy
        # indexing would copy the slab, so fold row views one by one —
        # still allocation-free and bit-identical.
        for i, position in enumerate(positions):
            np.minimum(best, self._distances[:, int(position), :], out=out[i])
        return out

    def reduce_rows(self, positions: Sequence[int], out: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and np.array_equal(
            np.sort(positions),
            np.arange(positions.min(), positions.min() + positions.size),
        ):
            # Contiguous run (in any order — min is commutative): the
            # slab is a *view* of the tensor, so the whole seed set
            # folds in one ``minimum.reduce`` with zero copies.
            lo = int(positions.min())
            slab = self._distances[:, lo : lo + positions.size, :]
            np.minimum(out, np.minimum.reduce(slab, axis=1), out=out)
            return out
        # Scattered seeds (what greedy traces produce): fancy indexing
        # would copy an ``(R, |S|, n)`` slab — measurably slower than
        # folding row views one by one, which is allocation-free.
        for position in positions:
            np.minimum(out, self._distances[:, int(position), :], out=out)
        return out

    def empty_state_histogram(
        self, group_index: np.ndarray, n_groups: int
    ) -> np.ndarray:
        # Only finite entries matter (cutoffs never reach the
        # UNREACHABLE sentinel), and on live-edge worlds they are a few
        # percent of the tensor: one boolean scan finds them, one
        # bincount over fused (candidate, group, time) codes counts
        # them.
        n_candidates = self._distances.shape[1]
        size = n_candidates * n_groups * 256
        hist = np.zeros(size, dtype=np.int64)
        # One world at a time keeps the transient mask/index arrays at
        # 1/R of the tensor instead of materialising a full-tensor bool
        # mask next to a store that may already be near its memory
        # ceiling.
        for world in self._distances:
            finite = world != UNREACHABLE
            c_idx, v_idx = np.nonzero(finite)
            codes = (c_idx * n_groups + group_index[v_idx]) * 256
            codes += world[finite]
            hist += np.bincount(codes, minlength=size)
        return hist.reshape(n_candidates, n_groups, 256)

    def repair_worlds(
        self, updates: Dict[int, LiveEdgeWorld], candidate_indices: np.ndarray
    ) -> np.ndarray:
        if not updates:
            return np.empty(0, dtype=np.int64)
        if not self._distances.flags.writeable:
            # A zero-copy view into the process-sharded build's shared
            # memory may be read-only; repair proceeds in a private
            # copy (the segment itself stays pristine for its owner).
            self._distances = self._distances.copy()
        affected = np.zeros(self._distances.shape[1], dtype=bool)
        for r in sorted(updates):
            slab = updates[r].distances_from(candidate_indices)
            changed = np.flatnonzero((slab != self._distances[r]).any(axis=1))
            affected[changed] = True
            self._distances[r] = slab
        return np.flatnonzero(affected)

    def memory_bytes(self) -> int:
        return int(self._distances.nbytes)


def _batched_bfs_distances(
    world: LiveEdgeWorld, candidate_indices: np.ndarray
) -> sparse.csr_matrix:
    """Hop distances from every candidate in one world, as shifted CSR.

    Runs one breadth-first search *per level* for all candidates at
    once: the frontier is a ``(C, n)`` sparse indicator advanced by a
    single sparse matmul against the world's adjacency.  The result
    stores ``distance + 1`` for every reachable ``(candidate, node)``
    pair (so the CSR's implicit zeros unambiguously mean unreachable),
    with distances clipped to ``UNREACHABLE - 1`` exactly like
    :meth:`LiveEdgeWorld.distances_from`.
    """
    n = world.n
    n_candidates = len(candidate_indices)
    adjacency = world.adjacency.astype(np.int32)
    dist = np.full((n_candidates, n), UNREACHABLE, dtype=np.uint8)
    rows0 = np.arange(n_candidates)
    dist[rows0, candidate_indices] = 0
    frontier = sparse.csr_matrix(
        (np.ones(n_candidates, dtype=np.int32), (rows0, candidate_indices)),
        shape=(n_candidates, n),
    )
    level = 0
    while frontier.nnz:
        level += 1
        reached = frontier @ adjacency
        rows, cols = reached.nonzero()
        fresh = dist[rows, cols] == UNREACHABLE
        rows, cols = rows[fresh], cols[fresh]
        if rows.size == 0:
            break
        dist[rows, cols] = min(level, UNREACHABLE - 1)
        frontier = sparse.csr_matrix(
            (np.ones(rows.size, dtype=np.int32), (rows, cols)),
            shape=(n_candidates, n),
        )
    r_idx, c_idx = np.nonzero(dist != UNREACHABLE)
    data = dist[r_idx, c_idx] + np.uint8(1)
    return sparse.csr_matrix((data, (r_idx, c_idx)), shape=(n_candidates, n))


class SparseBackend(DistanceBackend):
    """CSR "reachable-within-t" store: finite times only, O(nnz) memory."""

    name = "sparse"

    def __init__(
        self,
        worlds: Sequence[LiveEdgeWorld],
        candidate_indices: np.ndarray,
        n: int,
        first_world_rows: Optional[sparse.csr_matrix] = None,
        rows: Optional[Sequence[sparse.csr_matrix]] = None,
    ) -> None:
        # ``first_world_rows`` lets the "auto" probe hand over world 0's
        # already-built CSR instead of BFSing that world a second time.
        # ``rows`` hands over fully prebuilt per-world CSR matrices
        # (the process-sharded build layer passes zero-copy views into
        # shared-memory segments) and skips the BFS entirely.
        worlds = list(worlds)
        if rows is not None:
            if len(rows) != len(worlds):
                raise EstimationError(
                    f"prebuilt rows must have one CSR matrix per world: "
                    f"got {len(rows)} for {len(worlds)} worlds"
                )
            self._rows = list(rows)
            return
        self._rows: List[sparse.csr_matrix] = [
            first_world_rows
            if i == 0 and first_world_rows is not None
            else _batched_bfs_distances(world, candidate_indices)
            for i, world in enumerate(worlds)
        ]

    def min_into(self, best: np.ndarray, position: int) -> None:
        for r, mat in enumerate(self._rows):
            lo, hi = mat.indptr[position], mat.indptr[position + 1]
            idx = mat.indices[lo:hi]
            # Entries absent from the CSR are UNREACHABLE and can never
            # lower ``best``, so only stored entries need the minimum.
            best[r, idx] = np.minimum(best[r, idx], mat.data[lo:hi] - np.uint8(1))

    def min_with(self, best: np.ndarray, position: int) -> np.ndarray:
        out = best.copy()
        self.min_into(out, position)
        return out

    def min_with_block(
        self,
        best: np.ndarray,
        positions: Sequence[int],
        out: np.ndarray,
    ) -> np.ndarray:
        # One broadcast copy of the state, then per-world CSR row
        # minimums for every candidate in the block.  Only the stored
        # (finite) entries are touched, so the inner work is O(nnz of
        # the block), not O(block * R * n).
        np.copyto(out, best[np.newaxis])
        for i, position in enumerate(positions):
            position = int(position)
            for r, mat in enumerate(self._rows):
                lo, hi = mat.indptr[position], mat.indptr[position + 1]
                idx = mat.indices[lo:hi]
                out[i, r, idx] = np.minimum(
                    out[i, r, idx], mat.data[lo:hi] - np.uint8(1)
                )
        return out

    def reduce_rows(self, positions: Sequence[int], out: np.ndarray) -> np.ndarray:
        # World-outer, seed-inner: each world's CSR rows are folded
        # back to back while its state row is hot in cache.  Scatter
        # minimums over stored entries only — exact, order-free.
        for mat, row in zip(self._rows, out):
            for position in positions:
                position = int(position)
                lo, hi = mat.indptr[position], mat.indptr[position + 1]
                idx = mat.indices[lo:hi]
                row[idx] = np.minimum(row[idx], mat.data[lo:hi] - np.uint8(1))
        return out

    def empty_state_histogram(
        self, group_index: np.ndarray, n_groups: int
    ) -> np.ndarray:
        # The CSR stores exactly the finite (candidate, node, time)
        # triples the histogram needs; one fused bincount over every
        # world's entries builds it in O(nnz).
        n_candidates = self._rows[0].shape[0]
        per_world_codes = []
        for mat in self._rows:
            rows = np.repeat(
                np.arange(n_candidates, dtype=np.int64), np.diff(mat.indptr)
            )
            codes = (rows * n_groups + group_index[mat.indices]) * 256
            codes += mat.data.astype(np.int64) - 1  # stored as distance + 1
            per_world_codes.append(codes)
        hist = np.bincount(
            np.concatenate(per_world_codes),
            minlength=n_candidates * n_groups * 256,
        )
        return hist.reshape(n_candidates, n_groups, 256)

    def repair_worlds(
        self, updates: Dict[int, LiveEdgeWorld], candidate_indices: np.ndarray
    ) -> np.ndarray:
        if not updates:
            return np.empty(0, dtype=np.int64)
        affected = np.zeros(self._rows[0].shape[0], dtype=bool)
        for r in sorted(updates):
            mat = _batched_bfs_distances(updates[r], candidate_indices)
            # Both operands come from ``_batched_bfs_distances`` (or the
            # procbuild equivalent), which never stores explicit zeros,
            # so sparse ``!=`` sees exactly the semantic differences.
            diff = (self._rows[r] != mat).tocsr()
            affected[np.flatnonzero(np.diff(diff.indptr))] = True
            self._rows[r] = mat
        return np.flatnonzero(affected)

    def memory_bytes(self) -> int:
        return int(
            sum(
                mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
                for mat in self._rows
            )
        )


class LazyBackend(DistanceBackend):
    """On-demand candidate rows with an LRU cache, O(cache·R·n) memory.

    Nothing is precomputed: a query for candidate ``c`` BFSes ``c``'s
    row in every stored world (scipy's C implementation) and caches the
    resulting ``(R, n)`` block.  CELF touches a small hot set of
    candidates over and over, so modest caches capture most traffic —
    :attr:`hits` / :attr:`misses` expose the rate for tuning.
    """

    name = "lazy"

    def __init__(
        self,
        worlds: Sequence[LiveEdgeWorld],
        candidate_indices: np.ndarray,
        n: int,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        if cache_size < 1:
            raise EstimationError(f"cache_size must be >= 1, got {cache_size}")
        self._worlds = list(worlds)
        self._candidate_indices = np.asarray(candidate_indices, dtype=np.int64)
        self.cache_size = int(cache_size)
        self._cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        # Guards the LRU dict and the hit/miss counters: concurrent
        # queries on a shared ensemble all read through the cache.  Row
        # materialisation itself runs outside the lock — two threads
        # racing on the same cold row both build it and one result
        # wins, which is wasteful but correct (rows are deterministic).
        self._cache_lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _build_rows(self, position: int) -> np.ndarray:
        """BFS candidate ``position`` in every stored world."""
        source = [int(self._candidate_indices[position])]
        return np.concatenate(
            [world.distances_from(source) for world in self._worlds]
        )

    def _cache_store(self, position: int, rows: np.ndarray) -> None:
        self._cache[position] = rows
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    def _rows_for(self, position: int) -> np.ndarray:
        with self._cache_lock:
            cached = self._cache.get(position)
            if cached is not None:
                self._cache.move_to_end(position)
                self.hits += 1
                return cached
            self.misses += 1
        rows = self._build_rows(position)
        with self._cache_lock:
            self._cache_store(position, rows)
        return rows

    def min_into(self, best: np.ndarray, position: int) -> None:
        np.minimum(best, self._rows_for(position), out=best)

    def min_with(self, best: np.ndarray, position: int) -> np.ndarray:
        return np.minimum(best, self._rows_for(position))

    def min_with_block(
        self,
        best: np.ndarray,
        positions: Sequence[int],
        out: np.ndarray,
    ) -> np.ndarray:
        # Row batches flow through the same LRU cache as scalar
        # queries, so a CELF first round in blocks warms exactly the
        # rows later lazy re-evaluations will hit.
        for i, position in enumerate(positions):
            np.minimum(best, self._rows_for(int(position)), out=out[i])
        return out

    def reduce_rows(self, positions: Sequence[int], out: np.ndarray) -> np.ndarray:
        for position in positions:
            np.minimum(out, self._rows_for(int(position)), out=out)
        return out

    def repair_worlds(
        self, updates: Dict[int, LiveEdgeWorld], candidate_indices: np.ndarray
    ) -> None:
        if not updates:
            return None
        # Swap in the new worlds first: any row rebuilt from here on
        # (including a cache miss racing this repair) sees the repaired
        # live-edge sets.
        for r, world in updates.items():
            self._worlds[int(r)] = world
        # Patch the changed worlds' rows of every *cached* entry in
        # place — a repair touches a handful of worlds, so re-BFSing
        # just those rows is far cheaper than evicting whole entries
        # and rebuilding all R worlds on the next hit.
        with self._cache_lock:
            cached = list(self._cache.items())
        items = sorted(int(r) for r in updates)
        for position, rows in cached:
            source = [int(self._candidate_indices[position])]
            for r in items:
                rows[r] = self._worlds[r].distances_from(source)[0]
        # Uncached candidates were never materialised, so the affected
        # set cannot be enumerated without defeating the lazy design.
        return None

    @property
    def cache_entries(self) -> int:
        """Number of candidate rows currently cached (≤ ``cache_size``)."""
        with self._cache_lock:
            return len(self._cache)

    def memory_bytes(self) -> int:
        with self._cache_lock:
            return int(sum(rows.nbytes for rows in self._cache.values()))


def check_backend_name(backend: str) -> str:
    """Validate a backend name (including ``"auto"``) and return it.

    Called before any expensive work — in particular before world
    sampling — so a typo fails instantly everywhere.
    """
    if backend not in BACKEND_CHOICES:
        raise EstimationError(
            f"backend must be one of {BACKEND_CHOICES}, got {backend!r}"
        )
    return backend


def dense_bytes_estimate(n_worlds: int, n_candidates: int, n: int) -> int:
    """Exact footprint of the dense uint8 tensor for these dimensions."""
    return int(n_worlds) * int(n_candidates) * int(n)


#: Candidate-count cap for the "auto" footprint probe; above this a
#: stratified subset is probed and scaled instead of all candidates.
PROBE_CANDIDATE_CAP = 256


def _probe_sparse_bytes(
    worlds: Sequence[LiveEdgeWorld], candidate_indices: np.ndarray
):
    """CSR footprint estimate plus a reusable probe when one was built.

    Worlds are i.i.d., so the reachable-pair count of the first world
    scaled by ``R`` estimates the total; each stored pair costs one
    data byte plus one ``int32`` index.  With few candidates the full
    world-0 CSR is built and returned so a subsequent
    :class:`SparseBackend` build can reuse it instead of BFSing the
    world twice; with many (where the probe itself would carry the
    cost profile ``auto`` exists to avoid) only an evenly-spaced
    subset of ``PROBE_CANDIDATE_CAP`` candidates is BFSed and scaled,
    and no reusable probe is returned.
    """
    n_candidates = len(candidate_indices)
    n_worlds = len(worlds)
    if n_candidates <= PROBE_CANDIDATE_CAP:
        probe = _batched_bfs_distances(worlds[0], candidate_indices)
        per_world = probe.data.nbytes + probe.indices.nbytes + probe.indptr.nbytes
        return int(per_world) * n_worlds, probe
    subset = candidate_indices[
        np.linspace(0, n_candidates - 1, PROBE_CANDIDATE_CAP).astype(np.int64)
    ]
    sample = _batched_bfs_distances(worlds[0], subset)
    entry_bytes = (sample.data.nbytes + sample.indices.nbytes) * (
        n_candidates / PROBE_CANDIDATE_CAP
    )
    indptr_bytes = 8 * (n_candidates + 1)
    return int(entry_bytes + indptr_bytes) * n_worlds, None


def sparse_bytes_estimate(
    worlds: Sequence[LiveEdgeWorld], candidate_indices: np.ndarray
) -> int:
    """Estimate the CSR store's footprint by probing one world."""
    return _probe_sparse_bytes(worlds, candidate_indices)[0]


def _select_with_probe(
    worlds: Sequence[LiveEdgeWorld],
    candidate_indices: np.ndarray,
    n: int,
    dense_limit: int,
    sparse_limit: int,
):
    """The ``"auto"`` rule, returning the world-0 probe when one was built."""
    if dense_bytes_estimate(len(worlds), len(candidate_indices), n) <= dense_limit:
        return "dense", None
    estimate, probe = _probe_sparse_bytes(worlds, candidate_indices)
    if estimate <= sparse_limit:
        return "sparse", probe
    return "lazy", None


def select_backend(
    worlds: Sequence[LiveEdgeWorld],
    candidate_indices: np.ndarray,
    n: int,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
    sparse_limit: int = DEFAULT_SPARSE_LIMIT,
) -> str:
    """The ``"auto"`` rule: cheapest backend whose footprint fits.

    1. ``dense`` while ``R * C * n`` bytes stay under ``dense_limit``
       (fastest queries; the default limit is 256 MiB);
    2. otherwise ``sparse`` while the probed CSR estimate stays under
       ``sparse_limit`` (1 GiB by default);
    3. otherwise ``lazy`` (bounded memory regardless of graph size).
    """
    return _select_with_probe(
        worlds, candidate_indices, n, dense_limit, sparse_limit
    )[0]


#: Options each backend constructor accepts (beyond the positional
#: worlds/candidates/n).  ``"auto"`` uses this to drop options that
#: don't apply to whichever backend it resolved to.
_BACKEND_OPTION_NAMES: Dict[str, frozenset] = {
    "dense": frozenset(),
    "sparse": frozenset({"first_world_rows"}),
    "lazy": frozenset({"cache_size"}),
}


def make_backend(
    backend: str,
    worlds: Sequence[LiveEdgeWorld],
    candidate_indices: np.ndarray,
    n: int,
    options: Optional[Dict[str, Any]] = None,
) -> DistanceBackend:
    """Instantiate a named backend.

    ``"auto"`` resolves via :func:`select_backend` (selection knobs
    ``dense_limit`` / ``sparse_limit`` ride in ``options``) and then
    silently drops options that don't apply to the backend it picked
    (e.g. ``cache_size`` when auto lands on dense).  An explicitly
    named backend rejects unknown options instead.
    """
    check_backend_name(backend)
    options = dict(options or {})
    resolved_by_auto = backend == "auto"
    if resolved_by_auto:
        backend, probe = _select_with_probe(
            worlds,
            candidate_indices,
            n,
            dense_limit=options.pop("dense_limit", DEFAULT_DENSE_LIMIT),
            sparse_limit=options.pop("sparse_limit", DEFAULT_SPARSE_LIMIT),
        )
        options = {
            k: v for k, v in options.items() if k in _BACKEND_OPTION_NAMES[backend]
        }
        if probe is not None:
            options["first_world_rows"] = probe
    if backend == "dense":
        cls = DenseBackend
    elif backend == "sparse":
        cls = SparseBackend
    else:
        cls = LazyBackend
    try:
        return cls(worlds, candidate_indices, n, **options)
    except TypeError as exc:
        raise EstimationError(
            f"invalid options for the {cls.name!r} backend: {sorted(options)} ({exc})"
        ) from None
