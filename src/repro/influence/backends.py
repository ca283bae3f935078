"""Pluggable estimator backends for the world-ensemble distance store.

The common-random-numbers estimator (:class:`~repro.influence.ensemble.
WorldEnsemble`) reduces every utility query and repair to five primitive
operations on per-candidate activation-time rows:

- fold candidate ``c``'s times into a state: ``best = min(best, D[:, c, :])``;
- the same fold *without mutation*, for marginal-gain queries;
- the same non-mutating fold for a whole *block* of candidates at once
  (:meth:`DistanceBackend.min_with_block`), writing into a
  caller-provided scratch buffer — the primitive behind the batched
  utility oracle the greedy solvers score whole rounds with;
- list every *finite* entry as raw ``(candidate, r * n + v, time)``
  triples (:meth:`DistanceBackend.finite_entries`), optionally for a
  few ``(world, candidate)`` rows only.  The ensemble builds its
  candidate-major reach index and empty-state gain table from them,
  and after a repair it lists just the store rows that changed;
- after a graph delta, recompute the rows that reach a re-flipped edge
  (:meth:`DistanceBackend.repair_worlds`).

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
    memory.  Each world's rows come from the shared frontier BFS
    (:func:`bfs_rows`), one world at a time.
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
    Tuple,
    Union,
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


#: ``(candidate, flat, time)`` arrays from
#: :meth:`DistanceBackend.finite_entries`.
Entries = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: ``(world, position)`` arrays naming store rows ``D[world[i], position[i], :]``.
Rows = Tuple[np.ndarray, np.ndarray]


def compact_uint(size: int) -> np.dtype:
    """Smallest unsigned integer dtype holding ``0 .. size - 1``."""
    return np.min_scalar_type(max(int(size) - 1, 0))


def flat_index_dtype(n_worlds: int, n: int) -> type:
    """``int32`` for flat ``r * n + v`` indices while they fit, else ``int64``."""
    return np.int32 if int(n_worlds) * int(n) < 2**31 else np.int64


def concat_ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``concatenate([arange(l, h) for l, h in zip(lo, hi)])``, vectorised."""
    lengths = np.asarray(hi, dtype=np.int64) - lo
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(lo - ends + lengths, lengths) + np.arange(total)


def splice(
    array: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    values: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """``array`` with each segment ``[lo[i], hi[i])`` replaced.

    Segment ``i`` gets the next ``counts[i]`` items of ``values``.  The
    segments must be ascending and disjoint (empty ones insert at
    ``lo[i]``); the result keeps ``array``'s dtype.
    """
    keep = np.ones(array.size, dtype=bool)
    keep[concat_ranges(lo, hi)] = False
    removed = np.asarray(hi, dtype=np.int64) - lo
    at = np.asarray(lo, dtype=np.int64) - (np.cumsum(removed) - removed)
    return np.insert(array[keep], np.repeat(at, counts), values)


def replace_csr_rows(
    matrix: sparse.csr_matrix,
    rows: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    counts: np.ndarray,
) -> sparse.csr_matrix:
    """A copy of ``matrix`` with rows ``rows`` (ascending) replaced.

    Row ``rows[i]`` gets the next ``counts[i]`` ``(indices, data)``
    pairs; every other row keeps its entries, and the index dtypes stay
    those of ``matrix``.
    """
    lo, hi = matrix.indptr[rows], matrix.indptr[rows + 1]
    row_nnz = np.diff(matrix.indptr)
    row_nnz[rows] = counts
    indptr = np.zeros_like(matrix.indptr)
    np.cumsum(row_nnz, out=indptr[1:])
    return sparse.csr_matrix(
        (
            splice(matrix.data, lo, hi, data, counts),
            splice(matrix.indices, lo, hi, indices, counts),
            indptr,
        ),
        shape=matrix.shape,
    )


#: Byte budget for one frontier-BFS chunk's transients.  A row expands
#: each node of its world at most once, so every level of a chunk
#: gathers at most its rows' kept edges; rows are cut into chunks whose
#: worlds' kept edges (plus one per row, for the source) times
#: :data:`FRONTIER_EDGE_BYTES` stay within this budget.  A single row
#: always runs, whatever its world's size.
FRONTIER_CHUNK_BYTES = 32 << 20

#: Upper bound on the transient bytes one gathered edge costs inside a
#: BFS level (int64 ranges, rows and flat codes plus a sort copy).
FRONTIER_EDGE_BYTES = 48


def bfs_rows(
    worlds: Union[Sequence[LiveEdgeWorld], Dict[int, LiveEdgeWorld]],
    world: np.ndarray,
    source: np.ndarray,
    reached: Optional[List[np.ndarray]] = None,
) -> np.ndarray:
    """``uint8`` hop-distance rows: row ``i`` BFSes ``source[i]`` in
    ``worlds[world[i]]``.

    The one BFS behind every distance store and repair.  The CSR arrays
    of the named worlds are laid end to end, and all rows advance
    level by level together: each level gathers the frontier's
    out-edges with one ``np.repeat``, keeps the targets a row has not
    reached yet and dedupes them with one ``np.unique``.  The output
    doubles as the visited set; hops past ``UNREACHABLE - 1`` clip to
    it, as in :func:`~repro.diffusion.worlds.hop_distances`.  Rows run
    in chunks sized by :data:`FRONTIER_CHUNK_BYTES`.

    With a ``reached`` list, the flat indices ``i * n + v`` of every
    finite output entry are appended to it (in no particular order), so
    a sparse store gets its entries without scanning the rows; they
    cost 8 bytes each on top of the chunk budget.
    """
    world = np.asarray(world, dtype=np.int64)
    source = np.asarray(source, dtype=np.int64)
    n = (next(iter(worlds.values())) if isinstance(worlds, dict) else worlds[0]).n
    out = np.full((world.size, n), UNREACHABLE, dtype=np.uint8)
    if world.size == 0:
        return out
    out[np.arange(world.size), source] = 0
    ids, local = np.unique(world, return_inverse=True)
    adjacencies = [worlds[int(r)].adjacency for r in ids]
    edge_offsets = np.cumsum([0] + [adj.nnz for adj in adjacencies])
    indptr = np.concatenate(
        [np.zeros(1, dtype=np.int64)]
        + [adj.indptr[1:] + offset for adj, offset in zip(adjacencies, edge_offsets)]
    )
    indices = np.concatenate([adj.indices for adj in adjacencies])
    row_cost = (np.diff(edge_offsets)[local] + 1) * FRONTIER_EDGE_BYTES
    spent = np.cumsum(row_cost)
    hops, base = out.reshape(-1), local * n
    lo = 0
    while lo < world.size:
        budget = FRONTIER_CHUNK_BYTES + (spent[lo - 1] if lo else 0)
        hi = max(lo + 1, int(np.searchsorted(spent, budget, side="right")))
        # Level-synchronous BFS of rows lo..hi; ``flat`` indexes ``hops``.
        rows, nodes = np.arange(lo, hi, dtype=np.int64), source[lo:hi]
        if reached is not None:
            reached.append(rows * n + nodes)
        level = 0
        while rows.size:
            level += 1
            at = base[rows] + nodes
            starts, ends = indptr[at], indptr[at + 1]
            edges = concat_ranges(starts, ends)
            flat = np.repeat(rows, ends - starts)
            del at, starts, ends
            flat *= n
            flat += indices[edges]
            del edges
            flat = np.unique(flat[hops[flat] == UNREACHABLE])
            hops[flat] = min(level, UNREACHABLE - 1)
            if reached is not None:
                reached.append(flat)
            rows, nodes = np.divmod(flat, n)
        lo = hi
    return out


@runtime_checkable
class UtilityEstimator(Protocol):
    """What the solvers need from an influence estimator.

    :class:`~repro.influence.ensemble.WorldEnsemble` satisfies this for
    every distance backend, and
    :class:`~repro.influence.rrsets.RRSetEstimator` satisfies it from
    group-tagged RR sets — both plug into ``lazy_greedy`` /
    ``plain_greedy`` / the budget and cover solvers unchanged, as can
    any further estimator implementing the same surface.  The batched
    oracle (``candidate_group_utilities_batch``) and the deadline sweep
    (``group_utilities_sweep``) are required: the greedy engines and
    sweep helpers call them directly.  ``candidate_gains_batch`` turns
    a batch into objective gains (:func:`batch_gains` is the shared
    body).  An estimator may also offer ``marginal_counts(state,
    deadline, discount)`` — every candidate's exact marginal counts,
    kept by ``add_seed`` (see
    :meth:`~repro.influence.ensemble.WorldEnsemble.marginal_counts`) —
    and ``lazy_greedy`` then scores whole rounds exactly instead of
    re-bounding.  CELF's per-group bounds assume what the paper's
    estimators guarantee: every group utility is monotone submodular in
    the seed set, and step-model utilities are exact (the same float64
    bits on every query path).
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

    def memory_bytes(self) -> int: ...


def batch_gains(
    estimator: UtilityEstimator,
    state: Any,
    positions: Sequence[int],
    deadline: float,
    objective: Any,
    discount: Optional[float] = None,
    base_value: Optional[float] = None,
) -> np.ndarray:
    """Marginal objective gains for a block of candidates.

    The body of every estimator's ``candidate_gains_batch``:
    ``objective.values`` (see :mod:`repro.core.objectives`) over the
    batched utilities, minus ``base_value`` — the objective of the
    current state, computed when not given.  Row-wise values equal
    ``objective.value`` on each row bit for bit, so gains are exactly
    ``objective.value(candidate_group_utilities(...)) - base_value``.
    """
    utilities = estimator.candidate_group_utilities_batch(
        state, positions, deadline, discount
    )
    if base_value is None:
        base_value = objective.value(
            estimator.group_utilities(state, deadline, discount)
        )
    return objective.values(utilities) - base_value


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

    def finite_entries(
        self, max_entries: int, rows: Optional[Rows] = None
    ) -> Optional[Entries]:
        """Every finite activation entry of the store, as raw triples.

        Returns ``(candidate, flat, time)`` arrays: entry ``i`` says
        candidate ``candidate[i]`` activates node ``v`` of world ``r``
        at hop ``time[i]``, where ``flat[i] = r * n + v``.  Without
        ``rows`` the whole store is listed world by world, in one fixed
        order within a world; with ``rows`` only those store rows are
        listed, row by row in the given order, each row's entries in
        the order a full scan lists them.  Dtypes are compact
        (:func:`compact_uint` candidates, ``int32`` flats while
        ``R * n < 2**31``, ``uint8`` times).

        Returns ``None`` when the entries would exceed ``max_entries``
        (checked before the arrays are built, so an oversized store
        never allocates them) or when the backend cannot produce them
        without defeating its own design (the lazy store would have to
        materialise every row).  The ensemble builds its candidate-major
        reach index and the empty-state gain table from these triples,
        and after a repair it lists just the changed rows.
        """
        return None

    def repair_worlds(
        self,
        updates: Dict[int, LiveEdgeWorld],
        candidate_indices: np.ndarray,
        tails: Dict[int, np.ndarray],
    ) -> Optional[Rows]:
        """Patch the store after worlds ``updates`` changed in place.

        ``updates`` maps world index -> the world's *new*
        :class:`LiveEdgeWorld` (the repaired live-edge set after a
        graph delta), and ``tails[r]`` lists the tail nodes of the
        edges whose coins re-thresholded in world ``r``.  A BFS from a
        candidate that, in the *old* world, never reaches one of those
        tails never reads a changed edge, so its row is unchanged; only
        the rows that do reach one (a column read on the store) are
        recomputed, all in one :func:`bfs_rows` call, and written back
        in place.  The incremental-repair layer
        (:mod:`repro.influence.incremental`) guarantees every other
        world is unchanged.

        Returns the rows whose distances changed, as ``(world,
        position)`` arrays sorted by world then position (their
        positions are what a warm-started solver must refresh), or
        ``None`` when the backend cannot enumerate them without
        materialising rows it never stored (the lazy store).
        """
        if not updates:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        world, position = self._rows_reaching(tails)
        new_rows = bfs_rows(updates, world, candidate_indices[position])
        return self._write_rows(world, position, new_rows)

    def _rows_reaching(self, tails: Dict[int, np.ndarray]) -> Rows:
        """Stored rows (sorted by world, then position) that reach one
        of ``tails[r]`` in world ``r``."""
        raise NotImplementedError

    def _write_rows(
        self, world: np.ndarray, position: np.ndarray, new_rows: np.ndarray
    ) -> Optional[Rows]:
        """Store ``new_rows`` (``uint8`` hops) at ``(world, position)``;
        return the rows whose values changed."""
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
    ) -> None:
        n_worlds, n_candidates = len(worlds), len(candidate_indices)
        self._distances = bfs_rows(
            worlds,
            np.repeat(np.arange(n_worlds), n_candidates),
            np.tile(candidate_indices, n_worlds),
        ).reshape(n_worlds, n_candidates, n)

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

    def finite_entries(
        self, max_entries: int, rows: Optional[Rows] = None
    ) -> Optional[Entries]:
        # Only finite entries matter (cutoffs never reach the
        # UNREACHABLE sentinel), and on live-edge worlds they are well
        # under a percent of the tensor.  One world at a time keeps the
        # transient mask at 1/R of the tensor, and the scan stops as
        # soon as the entries outgrow ``max_entries``.
        n_worlds, n_candidates, n = self._distances.shape
        flat_dtype = flat_index_dtype(n_worlds, n)
        if rows is not None:
            world, position = rows
            block = self._distances[world, position]  # (rows, n) gather
            row, v_idx = np.nonzero(block != UNREACHABLE)
            if row.size > max_entries:
                return None
            return (
                position[row].astype(compact_uint(n_candidates)),
                (world[row] * n + v_idx).astype(flat_dtype),
                block[row, v_idx],
            )
        candidates, flats, times = [], [], []
        total = 0
        for r in range(n_worlds):
            world = self._distances[r].reshape(-1)
            idx = np.flatnonzero(world != UNREACHABLE)  # (c, v) row-major
            total += idx.size
            if total > max_entries:
                return None
            c_idx, v_idx = np.divmod(idx, n)
            candidates.append(c_idx.astype(compact_uint(n_candidates)))
            flats.append((v_idx + r * n).astype(flat_dtype))
            times.append(world[idx])
        return np.concatenate(candidates), np.concatenate(flats), np.concatenate(times)

    def _rows_reaching(self, tails: Dict[int, np.ndarray]) -> Rows:
        worlds, positions = [], []
        for r in sorted(tails):
            hit = np.flatnonzero(
                (self._distances[r][:, tails[r]] != UNREACHABLE).any(axis=1)
            )
            worlds.append(np.full(hit.size, r, dtype=np.int64))
            positions.append(hit)
        return np.concatenate(worlds), np.concatenate(positions)

    def _write_rows(
        self, world: np.ndarray, position: np.ndarray, new_rows: np.ndarray
    ) -> Rows:
        changed = (self._distances[world, position] != new_rows).any(axis=1)
        world, position = world[changed], position[changed]
        self._distances[world, position] = new_rows[changed]
        return world, position

    def memory_bytes(self) -> int:
        return int(self._distances.nbytes)


def sparse_hops(
    world: LiveEdgeWorld, candidate_indices: np.ndarray
) -> sparse.csr_matrix:
    """Hop distances from every candidate in one world, as shifted CSR.

    Stores ``distance + 1`` for every reachable ``(candidate, node)``
    pair, so the CSR's implicit zeros unambiguously mean unreachable;
    distances come from :func:`bfs_rows` (clipped to
    ``UNREACHABLE - 1``), and the BFS lists the reached pairs itself,
    so the ``(C, n)`` rows are never scanned.
    """
    reached: List[np.ndarray] = []
    dist = bfs_rows(
        [world],
        np.zeros(len(candidate_indices), dtype=np.int64),
        candidate_indices,
        reached,
    )
    flat = np.sort(np.concatenate(reached))  # row-major, as a scan lists them
    r_idx, c_idx = np.divmod(flat, world.n)
    data = dist.reshape(-1)[flat] + np.uint8(1)
    return sparse.csr_matrix((data, (r_idx, c_idx)), shape=dist.shape)


class SparseBackend(DistanceBackend):
    """CSR "reachable-within-t" store: finite times only, O(nnz) memory."""

    name = "sparse"

    def __init__(
        self,
        worlds: Sequence[LiveEdgeWorld],
        candidate_indices: np.ndarray,
        n: int,
        first_world_rows: Optional[sparse.csr_matrix] = None,
    ) -> None:
        # ``first_world_rows`` lets the "auto" probe hand over world 0's
        # already-built CSR instead of BFSing that world a second time.
        self._rows: List[sparse.csr_matrix] = [
            first_world_rows
            if i == 0 and first_world_rows is not None
            else sparse_hops(world, candidate_indices)
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

    def finite_entries(
        self, max_entries: int, rows: Optional[Rows] = None
    ) -> Optional[Entries]:
        # The CSRs store exactly the finite (candidate, node, time)
        # triples, so the entries are a relabelling of their arrays.
        n_candidates, n = self._rows[0].shape
        flat_dtype = flat_index_dtype(len(self._rows), n)
        candidate_dtype = compact_uint(n_candidates)
        candidates, flats, times = [], [], []
        if rows is not None:
            spans = [
                (r, p, self._rows[r].indptr[p], self._rows[r].indptr[p + 1])
                for r, p in zip(rows[0].tolist(), rows[1].tolist())
            ]
            if sum(hi - lo for _, _, lo, hi in spans) > max_entries:
                return None
            for r, p, lo, hi in spans:
                mat = self._rows[r]
                candidates.append(np.full(hi - lo, p, dtype=candidate_dtype))
                flats.append(mat.indices[lo:hi].astype(flat_dtype) + flat_dtype(r * n))
                times.append(mat.data[lo:hi] - np.uint8(1))  # stored as distance + 1
        else:
            if sum(mat.nnz for mat in self._rows) > max_entries:
                return None
            row_ids = np.arange(n_candidates, dtype=candidate_dtype)
            for r, mat in enumerate(self._rows):
                candidates.append(np.repeat(row_ids, np.diff(mat.indptr)))
                flats.append(mat.indices.astype(flat_dtype) + flat_dtype(r * n))
                times.append(mat.data - np.uint8(1))
        return np.concatenate(candidates), np.concatenate(flats), np.concatenate(times)

    def _rows_reaching(self, tails: Dict[int, np.ndarray]) -> Rows:
        worlds, positions = [], []
        for r in sorted(tails):
            mat = self._rows[r]
            is_tail = np.zeros(mat.shape[1], dtype=bool)
            is_tail[tails[r]] = True
            # Running count of tail entries: a row reaches a tail iff
            # the count grows across the row's span.
            seen = np.concatenate(([0], np.cumsum(is_tail[mat.indices])))
            hit = np.flatnonzero(seen[mat.indptr[1:]] > seen[mat.indptr[:-1]])
            worlds.append(np.full(hit.size, r, dtype=np.int64))
            positions.append(hit)
        return np.concatenate(worlds), np.concatenate(positions)

    def _write_rows(
        self, world: np.ndarray, position: np.ndarray, new_rows: np.ndarray
    ) -> Rows:
        changed_world = [np.empty(0, dtype=np.int64)]
        changed_position = [np.empty(0, dtype=np.int64)]
        ids, starts = np.unique(world, return_index=True)
        for r, lo, hi in zip(ids.tolist(), starts, np.append(starts[1:], world.size)):
            mat, rows, new = self._rows[r], position[lo:hi], new_rows[lo:hi]
            a, b = mat.indptr[rows], mat.indptr[rows + 1]
            entries = concat_ranges(a, b)
            old = np.full(new.shape, UNREACHABLE, dtype=np.uint8)
            old[np.repeat(np.arange(rows.size), b - a), mat.indices[entries]] = (
                mat.data[entries] - np.uint8(1)
            )
            changed = (old != new).any(axis=1)
            if not changed.any():
                continue
            rows, new = rows[changed], new[changed]
            row, v_idx = np.nonzero(new != UNREACHABLE)
            self._rows[r] = replace_csr_rows(
                mat,
                rows,
                v_idx,
                new[row, v_idx] + np.uint8(1),
                np.bincount(row, minlength=rows.size),
            )
            changed_world.append(np.full(rows.size, r, dtype=np.int64))
            changed_position.append(rows)
        return np.concatenate(changed_world), np.concatenate(changed_position)

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
    row in every stored world (one :func:`bfs_rows` call) and caches the
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
        n_worlds = len(self._worlds)
        return bfs_rows(
            self._worlds,
            np.arange(n_worlds),
            np.full(n_worlds, self._candidate_indices[position]),
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
        self,
        updates: Dict[int, LiveEdgeWorld],
        candidate_indices: np.ndarray,
        tails: Dict[int, np.ndarray],
    ) -> None:
        # Swap in the new worlds first: any row rebuilt from here on
        # (including a cache miss racing this repair) sees the repaired
        # live-edge sets.  Then patch the *cached* rows that reach a
        # re-flipped edge; uncached candidates were never materialised,
        # so the changed rows cannot be enumerated without defeating
        # the lazy design.
        for r, world in updates.items():
            self._worlds[int(r)] = world
        super().repair_worlds(updates, candidate_indices, tails)
        return None

    def _rows_reaching(self, tails: Dict[int, np.ndarray]) -> Rows:
        with self._cache_lock:
            cached = list(self._cache.items())
        ids = sorted(tails)
        n = self._worlds[0].n
        flat_tails = np.concatenate([r * n + tails[r] for r in ids])
        tail_world = np.repeat(ids, [tails[r].size for r in ids])
        worlds, positions = [], []
        for position, rows in cached:
            hit = np.unique(tail_world[rows.reshape(-1)[flat_tails] != UNREACHABLE])
            worlds.append(hit)
            positions.append(np.full(hit.size, position, dtype=np.int64))
        world = np.concatenate(worlds + [np.empty(0, dtype=np.int64)])
        position = np.concatenate(positions + [np.empty(0, dtype=np.int64)])
        order = np.lexsort((position, world))
        return world[order], position[order]

    def _write_rows(
        self, world: np.ndarray, position: np.ndarray, new_rows: np.ndarray
    ) -> None:
        with self._cache_lock:
            for r, p, row in zip(world.tolist(), position.tolist(), new_rows):
                rows = self._cache.get(p)
                if rows is not None:
                    rows[r] = row
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
        probe = sparse_hops(worlds[0], candidate_indices)
        per_world = probe.data.nbytes + probe.indices.nbytes + probe.indptr.nbytes
        return int(per_world) * n_worlds, probe
    subset = candidate_indices[
        np.linspace(0, n_candidates - 1, PROBE_CANDIDATE_CAP).astype(np.int64)
    ]
    sample = sparse_hops(worlds[0], subset)
    entry_bytes = (sample.data.nbytes + sample.indices.nbytes) * (
        n_candidates / PROBE_CANDIDATE_CAP
    )
    indptr_bytes = 8 * (n_candidates + 1)
    return int(entry_bytes + indptr_bytes) * n_worlds, None


def _select_with_probe(
    worlds: Sequence[LiveEdgeWorld], candidate_indices: np.ndarray, n: int
):
    """The ``"auto"`` rule, returning the world-0 probe when one was built."""
    if (
        dense_bytes_estimate(len(worlds), len(candidate_indices), n)
        <= DEFAULT_DENSE_LIMIT
    ):
        return "dense", None
    estimate, probe = _probe_sparse_bytes(worlds, candidate_indices)
    if estimate <= DEFAULT_SPARSE_LIMIT:
        return "sparse", probe
    return "lazy", None


def select_backend(
    worlds: Sequence[LiveEdgeWorld], candidate_indices: np.ndarray, n: int
) -> str:
    """The ``"auto"`` rule: cheapest backend whose footprint fits.

    1. ``dense`` while ``R * C * n`` bytes stay under
       :data:`DEFAULT_DENSE_LIMIT` (fastest queries; 256 MiB);
    2. otherwise ``sparse`` while the probed CSR estimate stays under
       :data:`DEFAULT_SPARSE_LIMIT` (1 GiB);
    3. otherwise ``lazy`` (bounded memory regardless of graph size).

    The limits are read at call time, so patching them on this module
    moves the thresholds.
    """
    return _select_with_probe(worlds, candidate_indices, n)[0]


def make_backend(
    backend: str,
    worlds: Sequence[LiveEdgeWorld],
    candidate_indices: np.ndarray,
    n: int,
) -> DistanceBackend:
    """Instantiate a named backend — the one constructor for every build.

    ``"auto"`` resolves via :func:`select_backend` against
    :data:`DEFAULT_DENSE_LIMIT` / :data:`DEFAULT_SPARSE_LIMIT`, and the
    lazy backend gets :data:`DEFAULT_CACHE_SIZE` rows; all three are
    read at call time.
    """
    check_backend_name(backend)
    first_world_rows = None
    if backend == "auto":
        backend, first_world_rows = _select_with_probe(worlds, candidate_indices, n)
    if backend == "dense":
        return DenseBackend(worlds, candidate_indices, n)
    if backend == "sparse":
        return SparseBackend(
            worlds, candidate_indices, n, first_world_rows=first_world_rows
        )
    return LazyBackend(worlds, candidate_indices, n, cache_size=DEFAULT_CACHE_SIZE)
