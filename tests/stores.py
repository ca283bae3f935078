"""Build-path ids for tests that once ran under three distance stores.

The world ensemble used to keep one of three distance stores
(``"dense"``, ``"sparse"``, ``"lazy"``); it has a single store now, the
reach index.  Tests that ran once per store keep those three ids, and
each id builds the index under a different frontier-BFS chunk budget
(:data:`repro.influence.backends.FRONTIER_CHUNK_BYTES`), which must
never change an entry, a utility or a seed:

- ``"dense"``: the default budget (a test graph's rows in one chunk);
- ``"sparse"``: no budget, so each ``(candidate, world)`` row is a chunk;
- ``"lazy"``: a 4 KiB budget, a few rows per chunk.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.diffusion.worlds import UNREACHABLE
from repro.influence import backends
from repro.influence.ensemble import WorldEnsemble

STORES = ("dense", "sparse", "lazy")

CHUNK_BYTES = {"dense": backends.FRONTIER_CHUNK_BYTES, "sparse": 0, "lazy": 4096}


@contextmanager
def chunking(store: str):
    """Run the enclosed builds and repairs under ``store``'s chunk budget."""
    saved = backends.FRONTIER_CHUNK_BYTES
    backends.FRONTIER_CHUNK_BYTES = CHUNK_BYTES[store]
    try:
        yield
    finally:
        backends.FRONTIER_CHUNK_BYTES = saved


def build(graph, assignment, store: str = "dense", **kwargs) -> WorldEnsemble:
    """A :class:`WorldEnsemble` built under ``store``'s chunk budget."""
    with chunking(store):
        return WorldEnsemble(graph, assignment, **kwargs)


def dense_rows(ensemble) -> np.ndarray:
    """The ``(R, C, n)`` uint8 distance tensor, one scipy BFS per world —
    the reference the index's entries and folds are checked against."""
    return np.stack(
        [world.distances_from(ensemble._candidate_indices) for world in ensemble.worlds]
    )


def gemm_utilities(ensemble, times: np.ndarray, cutoff: int, discount=None) -> np.ndarray:
    """Group utilities of ``(R, n)`` activation times by the brute float32
    ``(R, n) @ (n, k)`` product: exact integer counts summed in float64
    for the step model, a float32 world mean for discounted weights."""
    active = times <= cutoff
    if discount is None:
        weights = active.astype(np.float32)
    else:
        weights = np.zeros(times.shape, dtype=np.float32)
        np.power(np.float32(discount), times, out=weights, where=active, dtype=np.float32)
    masks = ensemble.assignment.masks(ensemble.graph).T.astype(np.float32)
    per_world = weights @ masks
    if discount is None:
        return per_world.sum(axis=0, dtype=np.float64) / ensemble.n_worlds
    return per_world.mean(axis=0).astype(np.float64)


def rows_from_entries(key: np.ndarray, hop: np.ndarray, n_rows: int, n: int) -> np.ndarray:
    """Expand :func:`~repro.influence.backends.bfs_rows` entries into
    ``(n_rows, n)`` uint8 distance rows (``UNREACHABLE`` where absent)."""
    rows = np.full(n_rows * n, UNREACHABLE, dtype=np.uint8)
    rows[key] = hop
    return rows.reshape(n_rows, n)
