"""Live-edge worlds: the estimator-side characterisation of cascades.

Kempe et al. (2003) showed that the Independent Cascade process is
distributionally equivalent to the following two-stage experiment:
first flip a coin for every edge (keep edge ``e`` with probability
``p_e``; the kept edges form a *live-edge world*), then activate
exactly the nodes reachable from the seed set through kept edges.
Chen et al. (2012) extended the equivalence to the time-critical
setting: the *activation time* of a node equals its BFS distance from
the seed set in the world.  Hence

    f_tau(S; Y, G) = E_world[ #{v in Y : dist_world(S, v) <= tau} ].

The Linear Threshold model admits an analogous characterisation where
every node keeps at most one incoming edge, chosen with probability
proportional to its weight.

:class:`LiveEdgeWorld` holds one sampled world as the two numpy
arrays of its kept-edge CSR: ``indptr`` (``n + 1`` row starts) and
``indices`` (each row's kept targets, ascending, no duplicates) — the
arrays scipy's COO-to-CSR conversion of the kept edges would hold, with
the same index dtype, and no ``data`` array (every kept edge is a one).
Sampling, repair and the frontier BFS read and write these arrays
directly, so the run path never imports scipy.  BFS distances through
``scipy.sparse.csgraph`` (:meth:`LiveEdgeWorld.distances_from`,
:func:`hop_distances`) remain the public reference, and import scipy
only when called.  The reach index behind the greedy solvers is built
once per ensemble by a vectorised level-synchronous BFS over every
``(world, candidate)`` row at once
(:func:`repro.influence.backends.bfs_rows`), whose entries are that
reference's finite distances, and reused across every candidate
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.errors import EstimationError
from repro.graph.digraph import DiGraph
from repro.rng import RngLike, ensure_rng

#: Sentinel distance for "unreachable"; also the cap for stored
#: distances.  uint8 keeps the R x k x n tensors small; any deadline
#: above 254 hops is effectively infinite for social graphs.
UNREACHABLE = 255

# SplitMix64 constants (Steele et al. 2014) for the keyed per-edge
# coin flips.  All arithmetic is modulo 2**64 on uint64 arrays.
_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MIX2 = np.uint64(0x94D049BB133111EB)

#: :func:`sample_ic_worlds` draws at most this many ``(world, edge)``
#: coins at once (or one world's, if more), so its uint64 / float64
#: temporaries stay at 512 KiB each whatever the ensemble size.  Small
#: chunks stay in cache: sampling 50 worlds of the 85k-edge rice
#: surrogate took 10.8 ms at 2**16 cells, 17.9 ms at 2**18 and 13 ms at
#: 2**20, and 30 worlds of a 400-node SBM 0.48 vs 0.62 ms.
SAMPLE_CHUNK_CELLS = 1 << 16

#: Edge endpoints are packed into one uint64 id as ``(u << 32) | v``,
#: so node indices must stay below 2**32 for keyed sampling.
MAX_KEYED_NODES = 2**32


@dataclass(frozen=True, eq=False)
class LiveEdgeWorld:
    """One sampled deterministic world (subgraph of kept edges), as CSR
    arrays: row ``u`` keeps the edges ``u -> indices[indptr[u]:indptr[u + 1]]``."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def nbytes(self) -> int:
        """Heap bytes held by this world's kept-edge CSR."""
        return int(self.indices.nbytes + self.indptr.nbytes)

    def distances_from(self, sources: Sequence[int]) -> np.ndarray:
        """Hop distances from each source to every node.

        Returns a ``(len(sources), n)`` uint8 array with
        :data:`UNREACHABLE` marking nodes beyond reach (or further than
        254 hops).  Distances are computed by scipy's C BFS.
        """
        sources = np.asarray(sources, dtype=np.int64)
        if sources.size == 0:
            return np.empty((0, self.n), dtype=np.uint8)
        if sources.min() < 0 or sources.max() >= self.n:
            raise EstimationError(
                f"source index out of range [0, {self.n}): {sources}"
            )
        return hop_distances(self, sources)

    def reachable_within(self, sources: Sequence[int], deadline: float) -> np.ndarray:
        """Boolean mask of nodes within ``deadline`` hops of ``sources``."""
        distances = self.distances_from(sources)
        if distances.shape[0] == 0:
            return np.zeros(self.n, dtype=bool)
        best = distances.min(axis=0)
        return best <= min(deadline, UNREACHABLE - 1)

    def kept_edge_count(self) -> int:
        return int(self.indices.size)


def hop_distances(world: LiveEdgeWorld, sources: np.ndarray) -> np.ndarray:
    """``uint8`` BFS hop distances from ``sources`` over ``world``.

    One scipy C shortest-path call; ``(len(sources), world.n)`` with
    :data:`UNREACHABLE` for unreachable nodes and finite distances
    clipped to ``UNREACHABLE - 1``.  The float64 result scipy returns is
    the call's transient peak, so callers bound ``sources x n``.
    """
    from scipy import sparse
    from scipy.sparse import csgraph

    adjacency = sparse.csr_matrix(
        (np.ones(world.indices.size, dtype=np.int8), world.indices, world.indptr),
        shape=(world.n, world.n),
    )
    raw = csgraph.shortest_path(
        adjacency, method="D", directed=True, unweighted=True, indices=sources
    )
    out = np.full(raw.shape, UNREACHABLE, dtype=np.uint8)
    finite = np.isfinite(raw)
    np.minimum(raw, UNREACHABLE - 1, out=raw, where=finite)
    out[finite] = raw[finite].astype(np.uint8)
    return out


def _index_dtype(n: int, nnz: int) -> type:
    """The CSR index dtype scipy gives an ``n x n`` matrix of ``nnz``
    entries: ``int32`` while both fit, else ``int64``."""
    return np.int32 if max(n, nnz) <= np.iinfo(np.int32).max else np.int64


def ic_world_key(seed: RngLike = None) -> int:
    """The 64-bit world key a generator (or seed) identifies.

    Derived from the generator's :class:`numpy.random.SeedSequence` —
    a *pure function* of how the generator was seeded, independent of
    how many draws it has produced.  That idempotence is what lets the
    incremental-repair layer recover the key of an already-sampled
    world from its RNG child at any time, in any process (a pickled
    copy of a child shares its seed sequence and therefore its key).
    """
    rng = ensure_rng(seed)
    seed_seq = getattr(rng.bit_generator, "seed_seq", None) or getattr(
        rng.bit_generator, "_seed_seq", None
    )
    if seed_seq is None:
        raise EstimationError(
            "cannot derive a world key: the generator's bit generator "
            "exposes no seed sequence"
        )
    return int(seed_seq.generate_state(1, np.uint64)[0])


def edge_codes(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Stable uint64 edge ids ``(u << 32) | v`` from index arrays.

    Node indices are append-only in :class:`DiGraph`, so an edge's code
    never changes across graph mutations — the property the keyed coin
    flips below rely on.
    """
    if n >= MAX_KEYED_NODES:
        raise EstimationError(
            f"keyed IC sampling supports up to {MAX_KEYED_NODES} nodes, got {n}"
        )
    codes = np.asarray(src, dtype=np.uint64) << np.uint64(32)
    codes |= np.asarray(dst, dtype=np.uint64)
    return codes


def keyed_edge_uniforms(
    world_key: Union[int, np.ndarray], src: np.ndarray, dst: np.ndarray, n: int
) -> np.ndarray:
    """The uniform coin in [0, 1) for each edge in world ``world_key``.

    One SplitMix64 output per ``(world, edge)`` pair: the edge code
    indexes a counter stream offset by the world key.  The draw is a
    pure function of ``(world_key, u, v)`` — *not* of the edge's
    position in any array — so mutating the graph (insert / delete /
    reweight elsewhere) never changes the coin of an untouched edge,
    and re-thresholding the same uniform against a new probability is
    exactly what a from-scratch resample of the mutated graph would do.

    ``world_key`` may also be an array of ``R`` keys: the result is then
    ``(R, E)`` in one vectorised pass, row ``r`` bit-identical to a call
    with ``world_key[r]`` alone.
    """
    return _keyed_uniforms(world_key, _stream_offsets(edge_codes(src, dst, n)))


def _stream_offsets(codes: np.ndarray) -> np.ndarray:
    """Each edge's offset in a world's SplitMix64 counter stream,
    ``(code + 1) * gamma``, computed in place over ``codes``."""
    with np.errstate(over="ignore"):
        codes += np.uint64(1)
        codes *= _SM64_GAMMA
    return codes


def _keyed_uniforms(world_key: Union[int, np.ndarray], offsets: np.ndarray) -> np.ndarray:
    """The SplitMix64 outputs at ``world_key + offsets`` as uniforms in
    [0, 1); ``(R, E)`` for ``R`` keys."""
    keys = np.asarray(world_key, dtype=np.uint64)[..., np.newaxis]
    with np.errstate(over="ignore"):
        z = keys + offsets
        z ^= z >> np.uint64(30)
        z *= _SM64_MIX1
        z ^= z >> np.uint64(27)
        z *= _SM64_MIX2
        z ^= z >> np.uint64(31)
    # Top 53 bits -> float64 in [0, 1), the standard construction.
    z >>= np.uint64(11)
    return z * (2.0**-53)


def sample_ic_worlds(graph: DiGraph, keys: Iterable[int]) -> List[LiveEdgeWorld]:
    """Sample the IC live-edge world of each key in ``keys``, in one pass.

    Edge ``(u, v)`` is kept in world ``keys[r]`` iff its keyed uniform
    (:func:`keyed_edge_uniforms`) is below ``p_e``, so each world is a
    pure function of its key and the graph's *edge set* — two graphs
    holding the same edges (however they were built or mutated into
    that state) yield bit-identical worlds.

    The coins of every world are drawn together over the edges in
    ``(u, v)`` order, in chunks of at most :data:`SAMPLE_CHUNK_CELLS`
    ``(world, edge)`` pairs.  One bincount then gives every world's
    ``indptr``, and each world's ``indices`` are a slice of one array of
    kept targets — already sorted, as a COO-to-CSR conversion would
    leave them, with the same index dtype (:func:`_index_dtype`).
    """
    keys = np.asarray(list(keys), dtype=np.uint64)
    n = graph.number_of_nodes()
    src, dst, prob = graph.edge_arrays()
    codes = edge_codes(src, dst, n)
    if np.any(codes[1:] <= codes[:-1]):
        order = np.argsort(codes)
        codes, src, dst, prob = codes[order], src[order], dst[order], prob[order]
    offsets = _stream_offsets(codes)
    dtype = _index_dtype(n, src.size)
    step = max(1, SAMPLE_CHUNK_CELLS // max(src.size, 1))
    worlds: List[LiveEdgeWorld] = []
    for start in range(0, keys.size, step):
        chunk = keys[start : start + step]
        kept = np.flatnonzero(_keyed_uniforms(chunk, offsets) < prob)
        world, edge = np.divmod(kept, src.size)
        counts = np.bincount(world * n + src[edge], minlength=chunk.size * n)
        indptr = np.zeros((chunk.size, n + 1), dtype=dtype)
        np.cumsum(counts.reshape(chunk.size, n), axis=1, out=indptr[:, 1:])
        indices = dst[edge].astype(dtype)
        bounds = np.zeros(chunk.size + 1, dtype=np.int64)
        np.cumsum(indptr[:, -1], out=bounds[1:])
        worlds.extend(
            LiveEdgeWorld(n=n, indptr=indptr[r], indices=indices[bounds[r] : bounds[r + 1]])
            for r in range(chunk.size)
        )
    return worlds


def sample_ic_world_from_key(graph: DiGraph, world_key: int) -> LiveEdgeWorld:
    """Sample the IC live-edge world identified by ``world_key`` (the
    one-key case of :func:`sample_ic_worlds`)."""
    return sample_ic_worlds(graph, [world_key])[0]


def sample_ic_world(graph: DiGraph, seed: RngLike = None) -> LiveEdgeWorld:
    """Sample an IC live-edge world: keep each edge with probability ``p_e``.

    The coin for edge ``(u, v)`` is keyed by ``(world key, u, v)`` (see
    :func:`keyed_edge_uniforms`) rather than drawn positionally, which
    is what makes incremental ensemble repair
    (:mod:`repro.influence.incremental`) bit-identical to a from-scratch
    rebuild.  The world key comes from the seed's
    :class:`~numpy.random.SeedSequence`, so two calls with the *same*
    generator object return the same world — spawn children (as
    :func:`sample_worlds` does) for independent worlds.
    """
    return sample_ic_world_from_key(graph, ic_world_key(seed))


def sample_lt_world(graph: DiGraph, seed: RngLike = None) -> LiveEdgeWorld:
    """Sample an LT live-edge world: each node keeps at most one in-edge.

    Node ``v`` keeps incoming edge ``(u, v)`` with probability
    ``w_(u,v)`` (weights normalised to sum to at most 1) and keeps no
    edge with the residual probability — the standard LT live-edge
    construction.
    """
    rng = ensure_rng(seed)
    n = graph.number_of_nodes()
    kept_src: List[int] = []
    kept_dst: List[int] = []
    for node in graph.nodes():
        sources = graph.predecessors(node)
        if not sources:
            continue
        weights = np.asarray(
            [graph.edge_probability(u, node) for u in sources], dtype=np.float64
        )
        total = weights.sum()
        if total > 1.0:
            weights = weights / total
            total = 1.0
        draw = rng.random()
        cumulative = np.cumsum(weights)
        pick = int(np.searchsorted(cumulative, draw, side="right"))
        if pick < len(sources):
            kept_src.append(graph.index_of(sources[pick]))
            kept_dst.append(graph.index_of(node))
    return _world_from_edges(
        n, np.asarray(kept_src, dtype=np.int64), np.asarray(kept_dst, dtype=np.int64)
    )


def check_model(model: str) -> str:
    """Validate a live-edge model name ('ic' or 'lt')."""
    if model not in ("ic", "lt"):
        raise EstimationError(f"model must be 'ic' or 'lt', got {model!r}")
    return model


def sample_worlds(
    graph: DiGraph,
    count: int,
    model: str = "ic",
    seed: RngLike = None,
) -> List[LiveEdgeWorld]:
    """Sample ``count`` independent worlds under ``model`` ('ic' or 'lt'),
    one per spawned child of ``seed``."""
    if count < 1:
        raise EstimationError(f"need at least one world, got {count}")
    check_model(model)
    children = ensure_rng(seed).spawn(count)
    if model == "ic":
        return sample_ic_worlds(graph, [ic_world_key(child) for child in children])
    return [sample_lt_world(graph, seed=child) for child in children]


def _world_from_edges(n: int, src: np.ndarray, dst: np.ndarray) -> LiveEdgeWorld:
    """The world keeping the distinct edges ``src[i] -> dst[i]``: one
    lexsort orders them by ``(src, dst)`` and one bincount gives the row
    starts — scipy's COO-to-CSR conversion, arrays and dtypes alike."""
    order = np.lexsort((dst, src))
    dtype = _index_dtype(n, src.size)
    indptr = np.zeros(n + 1, dtype=dtype)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return LiveEdgeWorld(n=n, indptr=indptr, indices=dst[order].astype(dtype))
