"""Spectral clustering of graph nodes.

The Facebook-SNAP experiment (paper Appendix C) derives its five
socially salient groups *topologically*: "We used spectral clustering
to identify 5 topological groups in the graph."  This module implements
that pipeline from scratch on top of numpy/scipy:

1. symmetrise the adjacency and build the normalised Laplacian
   ``L = I - D^{-1/2} A D^{-1/2}``;
2. take the eigenvectors of the ``k`` smallest eigenvalues
   (``scipy.sparse.linalg.eigsh`` for large graphs, dense fallback);
3. row-normalise the spectral embedding (Ng–Jordan–Weiss);
4. cluster the rows with our own k-means (k-means++ initialisation,
   deterministic under a seed).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.graph.groups import GroupAssignment
from repro.rng import RngLike, ensure_rng


def spectral_embedding(graph: DiGraph, dimensions: int) -> np.ndarray:
    """Rows of the ``dimensions`` smallest Laplacian eigenvectors.

    Returns an ``(n, dimensions)`` array.  Works on the symmetrised,
    unweighted version of the graph (spectral grouping concerns ties,
    not activation probabilities).  Imports scipy on first call: it is
    off every other path's import graph.
    """
    from scipy import sparse
    from scipy.sparse.linalg import eigsh

    n = graph.number_of_nodes()
    if dimensions < 1 or dimensions > n:
        raise GraphError(f"dimensions must be in [1, {n}], got {dimensions}")
    src, dst, prob = graph.edge_arrays()
    adj = sparse.csr_matrix((prob, (src, dst)), shape=(n, n))
    adj = adj.maximum(adj.T)
    adj.data[:] = 1.0  # unweighted ties
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    inv_sqrt = np.divide(
        1.0, np.sqrt(degrees), out=np.zeros_like(degrees), where=degrees > 0
    )
    d_half = sparse.diags(inv_sqrt)
    laplacian = sparse.identity(n, format="csr") - d_half @ adj @ d_half
    if n <= 200 or dimensions >= n - 1:
        dense = laplacian.toarray()
        dense = (dense + dense.T) / 2.0
        eigenvalues, eigenvectors = np.linalg.eigh(dense)
        return eigenvectors[:, :dimensions]
    # sigma=0 shift-invert targets the smallest eigenvalues robustly.
    _, eigenvectors = eigsh(laplacian, k=dimensions, sigma=0, which="LM")
    return eigenvectors


def kmeans(
    points: np.ndarray,
    k: int,
    seed: RngLike = None,
    max_iterations: int = 300,
    restarts: int = 5,
) -> Tuple[np.ndarray, np.ndarray]:
    """Lloyd's k-means with k-means++ seeding and multiple restarts.

    Returns ``(labels, centers)`` of the best restart by inertia.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise GraphError(f"k must be in [1, {n}], got {k}")
    rng = ensure_rng(seed)
    best: Tuple[float, np.ndarray, np.ndarray] | None = None
    for _ in range(restarts):
        centers = _kmeans_plus_plus(points, k, rng)
        labels = np.zeros(n, dtype=np.int64)
        for _ in range(max_iterations):
            distances = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_labels = distances.argmin(axis=1)
            if (new_labels == labels).all() and _ > 0:
                break
            labels = new_labels
            for c in range(k):
                mask = labels == c
                if mask.any():
                    centers[c] = points[mask].mean(axis=0)
                else:
                    # Re-seed an empty cluster at the farthest point.
                    farthest = distances.min(axis=1).argmax()
                    centers[c] = points[farthest]
        inertia = float(
            ((points - centers[labels]) ** 2).sum()
        )
        if best is None or inertia < best[0]:
            best = (inertia, labels.copy(), centers.copy())
    assert best is not None
    return best[1], best[2]


def _kmeans_plus_plus(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    centers[0] = points[int(rng.integers(n))]
    closest = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = closest.sum()
        if total <= 0:
            centers[c] = points[int(rng.integers(n))]
        else:
            probabilities = closest / total
            choice = int(rng.choice(n, p=probabilities))
            centers[c] = points[choice]
        closest = np.minimum(closest, ((points - centers[c]) ** 2).sum(axis=1))
    return centers


def spectral_groups(
    graph: DiGraph,
    k: int,
    seed: RngLike = None,
) -> GroupAssignment:
    """Partition ``graph`` into ``k`` topological groups.

    This is the full pipeline the Facebook-SNAP experiment needs:
    embedding, row normalisation, k-means, and a
    :class:`GroupAssignment` labelled ``C1..Ck`` ordered by descending
    cluster size (matching the paper's "groups comprise 546, 1404, ..."
    convention of reporting by size).  The graph's node attributes are
    updated in place.
    """
    if graph.number_of_nodes() < k:
        raise GraphError(
            f"cannot form {k} clusters from {graph.number_of_nodes()} nodes"
        )
    embedding = spectral_embedding(graph, dimensions=k)
    norms = np.linalg.norm(embedding, axis=1, keepdims=True)
    normalised = np.divide(
        embedding, norms, out=np.zeros_like(embedding), where=norms > 0
    )
    labels, _ = kmeans(normalised, k, seed=seed)
    # Relabel clusters by descending size for deterministic naming.
    sizes = np.bincount(labels, minlength=k)
    order = np.argsort(-sizes, kind="stable")
    rename = {int(old): f"C{rank + 1}" for rank, old in enumerate(order)}
    membership = {}
    for node in graph.nodes():
        name = rename[int(labels[graph.index_of(node)])]
        membership[node] = name
        graph.set_group(node, name)
    return GroupAssignment(membership)
