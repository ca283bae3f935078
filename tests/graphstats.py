"""Structure checks for dataset and generator tests, read off
:meth:`DiGraph.edge_arrays`."""

from __future__ import annotations

import numpy as np

from repro.diffusion.worlds import LiveEdgeWorld


def block_edge_counts(graph, assignment) -> np.ndarray:
    """``(k, k)`` directed edge counts between groups, in
    ``assignment.groups`` order: ``[i, j]`` counts edges from group
    ``i`` to group ``j``."""
    src, dst, _ = graph.edge_arrays()
    row = assignment.masks(graph).argmax(0)
    k = len(assignment.groups)
    return np.bincount(row[src] * k + row[dst], minlength=k * k).reshape(k, k)


def homophily(graph, assignment) -> float:
    """Share of directed edges that stay within a group."""
    counts = block_edge_counts(graph, assignment)
    return float(np.trace(counts) / counts.sum())


def hop_distance(graph, source, target) -> int:
    """Hops from ``source`` to ``target`` over every edge of ``graph``:
    the distance in the world that keeps them all."""
    indptr = np.zeros(graph.number_of_nodes() + 1, dtype=np.int64)
    np.cumsum(graph.out_degrees(), out=indptr[1:])
    world = LiveEdgeWorld(graph.number_of_nodes(), indptr, graph.edge_arrays()[1])
    return int(world.distances_from([graph.index_of(source)])[0, graph.index_of(target)])
