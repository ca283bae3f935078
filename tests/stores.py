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


def assert_same_world(mine, theirs, what: str = "") -> None:
    """``mine`` keeps exactly ``theirs``'s edges: equal ``indptr`` and
    ``indices``, value for value and dtype for dtype.  ``theirs`` may be
    a world or a scipy CSR reference."""
    for name in ("indptr", "indices"):
        a, b = getattr(mine, name), getattr(theirs, name)
        np.testing.assert_array_equal(a, b, err_msg=f"{what} {name}")
        assert a.dtype == b.dtype, f"{what} {name}: {a.dtype} != {b.dtype}"


def dense_rows(ensemble) -> np.ndarray:
    """The ``(R, C, n)`` uint8 distance tensor, one scipy BFS per world —
    the reference the index's entries and folds are checked against."""
    return np.stack(
        [world.distances_from(ensemble._candidate_indices) for world in ensemble.worlds]
    )


def world_totals(ensemble, times: np.ndarray, cutoff: int, discount=None) -> np.ndarray:
    """Per-world group totals ``(R, k)`` of ``(R, n)`` activation times by
    the brute float64 ``(R, n) @ (n, k)`` product: a node activated at
    ``t <= cutoff`` weighs ``discount**t`` (1 in the step model), any
    later one 0.  Step-model totals are exact integers."""
    gamma = 1.0 if discount is None else discount
    weights = np.where(times <= cutoff, np.power(gamma, times.astype(np.float64)), 0.0)
    return weights @ ensemble.assignment.masks(ensemble.graph).T.astype(np.float64)


def gemm_utilities(ensemble, times: np.ndarray, cutoff: int, discount=None) -> np.ndarray:
    """Group utilities of ``(R, n)`` activation times: the world mean of
    :func:`world_totals` — bit for bit what the step-model queries
    return, and within float64 rounding of the discounted ones."""
    return world_totals(ensemble, times, cutoff, discount).sum(axis=0) / ensemble.n_worlds


def rows_from_entries(key: np.ndarray, hop: np.ndarray, n_rows: int, n: int) -> np.ndarray:
    """Expand :func:`~repro.influence.backends.bfs_rows` entries into
    ``(n_rows, n)`` uint8 distance rows (``UNREACHABLE`` where absent)."""
    rows = np.full(n_rows * n, UNREACHABLE, dtype=np.uint8)
    rows[key] = hop
    return rows.reshape(n_rows, n)


def assert_stops_bound_in_time(oracle) -> None:
    """At every cutoff up to one past the index's last finite time, each
    cell's stop (:meth:`ReachOracle.stops`) splits its transpose range
    into exactly its entries reached by the cutoff, then the rest."""
    reach = oracle.reach
    starts = reach.node_starts.astype(np.int64)
    cell = np.repeat(np.arange(starts.size - 1), np.diff(starts))
    rank = np.arange(reach.node_time.size)
    for cutoff in range(reach.table.shape[2] + 1):
        stops = oracle.stops(cutoff)
        assert stops.shape == (starts.size - 1,)
        assert stops.dtype == reach.node_starts.dtype
        np.testing.assert_array_equal(
            rank < stops[cell], reach.node_time <= cutoff, err_msg=f"cutoff {cutoff}"
        )
