"""The frontier BFS behind the world ensemble, and the array helpers.

The common-random-numbers estimator (:class:`~repro.influence.ensemble.
WorldEnsemble`) describes candidate ``c`` by its finite activation
entries: ``c`` activates node ``v`` of live-edge world ``r`` at hop
``t``.  On live-edge worlds those entries are a fraction of a percent of
the ``R x C x n`` distance tensor, so the ensemble keeps only them, in
a candidate-major reach index.  :func:`bfs_rows` produces them: one
level-synchronous BFS over many ``(world, source)`` rows at once that
emits each row's ``(row * n + v, hop)`` entries level by level and never
allocates a row's ``n`` distances beyond a bounded chunk.  The same
call builds the index and, after a graph delta, re-lists the rows a
repair touches.

The other helpers are the small array primitives the reach index
(:mod:`repro.influence.ensemble`), the RR pools and the repair layer
share.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.diffusion.worlds import UNREACHABLE, LiveEdgeWorld


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


#: Byte budget for one frontier-BFS chunk's transients.  Rows run in
#: chunks whose ``(rows, n)`` reached and claim sets (1 + 4 bytes a
#: cell) take at most half of it, and each level gathers its frontier's
#: out-edges in pieces of at most half of it at
#: :data:`FRONTIER_EDGE_BYTES` an edge.  A single row, and a single
#: frontier node's edges, always run, whatever their size.
FRONTIER_CHUNK_BYTES = 32 << 20

#: Upper bound on the transient bytes one gathered edge costs inside a
#: BFS level (int64 ranges, rows and flat codes plus a filtered copy).
FRONTIER_EDGE_BYTES = 48


def bfs_rows(
    worlds: Union[Sequence[LiveEdgeWorld], Dict[int, LiveEdgeWorld]],
    world: np.ndarray,
    source: np.ndarray,
    max_entries: Optional[int] = None,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Finite hop distances of rows: row ``i`` BFSes ``source[i]`` in
    ``worlds[world[i]]``.

    Returns ``(key, hop)``: entry ``j`` says row ``key[j] // n`` reaches
    node ``key[j] % n`` at hop ``hop[j]``, with ``key`` (``int64``)
    ascending — row by row, nodes ascending within a row — and ``hop``
    ``uint8``, clipped at ``UNREACHABLE - 1`` as in
    :func:`~repro.diffusion.worlds.hop_distances`.  Unreached nodes have
    no entry.

    The CSR arrays of the named worlds are laid end to end, and all
    rows of a chunk advance level by level together: each level gathers
    the frontier's out-edges with one ``np.repeat``, drops the targets
    a row has reached already (the chunk's ``(rows, n)`` reached set)
    and dedupes the rest without a sort: each target writes its number
    into a claim cell, and only the one whose number sticks is kept.
    The kept targets are the level's entries; a chunk's entries are
    sorted once when it finishes.  Chunks and gathers are sized by
    :data:`FRONTIER_CHUNK_BYTES`.

    With ``max_entries``, ``None`` is returned as soon as the running
    entry count exceeds it — before any output is assembled.
    """
    world = np.asarray(world, dtype=np.int64)
    source = np.asarray(source, dtype=np.int64)
    if world.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8)
    n = (next(iter(worlds.values())) if isinstance(worlds, dict) else worlds[0]).n
    # The named worlds' CSRs, laid end to end in world order: world
    # ``r``'s rows start at row ``position[r] * n`` of the joined arrays.
    named = np.bincount(world)
    ids = np.flatnonzero(named)
    position = np.cumsum(named > 0) - 1
    del named
    parts = [worlds[int(r)] for r in ids]
    edge_offsets = np.cumsum([0] + [part.indices.size for part in parts])
    indptr = np.concatenate(
        [np.zeros(1, dtype=np.int64)]
        + [part.indptr[1:] + offset for part, offset in zip(parts, edge_offsets)]
    )
    indices = np.concatenate([part.indices for part in parts])
    del parts
    half = FRONTIER_CHUNK_BYTES // 2
    chunk_rows = max(1, half // (5 * n))
    gather_edges = max(1, half // FRONTIER_EDGE_BYTES)
    # ``reached`` marks a chunk's reached cells (one buffer serves every
    # chunk, reset cell by cell); ``claim`` is only ever read where it
    # was just written, so it needs no initialisation.
    reached = np.zeros(min(chunk_rows, world.size) * n, dtype=bool)
    claim = np.empty(reached.size, dtype=np.int32)
    chunks: List[np.ndarray] = []
    total = 0
    for lo in range(0, world.size, chunk_rows):
        hi = min(lo + chunk_rows, world.size)
        # Level-synchronous BFS of rows lo..hi: ``flat`` indexes the
        # chunk's cells, and each level's entries are kept packed as
        # ``flat * 256 + hop`` (one int64 sort orders them).
        base = position[world[lo:hi]] * n
        flat = np.arange(hi - lo, dtype=np.int64) * n + source[lo:hi]
        reached[flat] = True
        levels = []
        level = 0
        while flat.size:
            total += flat.size
            if max_entries is not None and total > max_entries:
                return None
            levels.append(flat * 256 + min(level, UNREACHABLE - 1))
            level += 1
            rows, nodes = np.divmod(flat, n)
            at = base[rows]
            at += nodes
            del nodes
            starts, ends = indptr[at], indptr[at + 1]
            del at
            spent = np.cumsum(ends - starts)
            pieces = []
            a = 0
            while a < rows.size:
                cap = (spent[a - 1] if a else 0) + gather_edges
                b = max(a + 1, int(np.searchsorted(spent, cap, side="right")))
                edges = concat_ranges(starts[a:b], ends[a:b])
                found = np.repeat(rows[a:b], ends[a:b] - starts[a:b])
                found *= n
                found += indices[edges]
                del edges
                found = found[~reached[found]]
                number = np.arange(found.size, dtype=np.int32)
                claim[found] = number
                found = found[claim[found] == number]
                reached[found] = True
                pieces.append(found)
                a = b
            flat = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
            del rows, starts, ends, spent, pieces
        packed = np.concatenate(levels)
        del levels
        reached[packed >> 8] = False
        packed.sort()
        packed += lo * n * 256
        chunks.append(packed)
    packed = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    del chunks
    hop = packed.astype(np.uint8)  # the low byte: casting wraps modulo 256
    packed >>= 8
    return packed, hop
