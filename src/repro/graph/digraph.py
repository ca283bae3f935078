"""Directed graph with per-edge activation probabilities.

The Independent Cascade model attaches a probability ``p_e`` to every
directed edge; an undirected social tie is represented as two directed
edges (possibly with different probabilities).  :class:`DiGraph` stores
node labels of any hashable type, maps them to dense integer indices
(``0..n-1``) for the numerical layers, and keeps both successor and
predecessor adjacency so IC (forward) and LT (backward-weighted) models
are equally cheap.

The class deliberately mirrors a small subset of the ``networkx`` API
(``add_edge``, ``successors``, ``number_of_nodes``...) so readers
familiar with that library can navigate it, but it is self-contained.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.errors import GraphError

NodeId = Hashable


class DiGraph:
    """A directed graph whose edges carry activation probabilities.

    Parameters
    ----------
    default_probability:
        Probability assigned to edges added without an explicit ``p``.
        The paper's experiments use a single constant ``p_e`` per graph,
        so this default makes graph construction concise.
    """

    def __init__(self, default_probability: float = 0.1) -> None:
        _check_probability(default_probability)
        self.default_probability = float(default_probability)
        self._index: Dict[NodeId, int] = {}
        self._labels: List[NodeId] = []
        self._groups: List[Optional[Hashable]] = []
        self._succ: List[Dict[int, float]] = []
        self._pred: List[Dict[int, float]] = []
        self._edge_count = 0
        self._version = 0
        self._frozen = False
        # (version, export) pairs for the edge-array and forward /
        # reverse CSR exports.
        self._matrix_cache: Dict[str, Tuple[int, Any]] = {}

    @property
    def version(self) -> int:
        """Monotonic mutation counter.

        Bumped by every structural change (node/edge addition, edge
        removal, reweight, group change), so downstream caches —
        ensembles, RR-set indices, the CSR exports below — can detect
        that the graph they captured has been mutated under them.
        """
        return self._version

    def _bump_version(self) -> None:
        self._version += 1

    @property
    def frozen(self) -> bool:
        """Whether the graph refuses mutation (see :meth:`freeze`)."""
        return self._frozen

    def freeze(self) -> None:
        """Refuse every further mutation with :class:`GraphError`.

        For graphs shared by several holders — the ``Session`` hands
        one frozen graph per dataset to every estimator built from it —
        so no holder can mutate the others' graph under them.  Take a
        :meth:`copy` to mutate.
        """
        self._frozen = True

    def _check_mutable(self) -> None:
        if self._frozen:
            raise GraphError(
                "graph is frozen (shared by cached estimators); mutate a "
                "copy() instead"
            )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId, group: Optional[Hashable] = None) -> int:
        """Add ``node`` (idempotent) and return its dense index.

        If the node already exists and ``group`` is given, the group
        label is updated.
        """
        idx = self._index.get(node)
        if idx is None or group is not None:
            self._check_mutable()
        if idx is None:
            idx = len(self._labels)
            self._index[node] = idx
            self._labels.append(node)
            self._groups.append(group)
            self._succ.append({})
            self._pred.append({})
            self._bump_version()
        elif group is not None:
            self._groups[idx] = group
            self._bump_version()
        return idx

    def add_edge(self, u: NodeId, v: NodeId, p: Optional[float] = None) -> None:
        """Add directed edge ``u -> v`` with activation probability ``p``.

        Adding an edge that already exists overwrites its probability.
        Self-loops are rejected: they are meaningless under IC (a node
        cannot re-activate itself) and would corrupt distance semantics.
        """
        self._check_mutable()
        if u == v:
            raise GraphError(f"self-loop on node {u!r} is not allowed")
        prob = self.default_probability if p is None else float(p)
        _check_probability(prob)
        ui = self.add_node(u)
        vi = self.add_node(v)
        if vi not in self._succ[ui]:
            self._edge_count += 1
        self._succ[ui][vi] = prob
        self._pred[vi][ui] = prob
        self._bump_version()

    def add_undirected_edge(self, u: NodeId, v: NodeId, p: Optional[float] = None) -> None:
        """Add both ``u -> v`` and ``v -> u`` with the same probability."""
        self.add_edge(u, v, p)
        self.add_edge(v, u, p)

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        self._check_mutable()
        ui, vi = self._require(u), self._require(v)
        if vi not in self._succ[ui]:
            raise GraphError(f"edge {u!r} -> {v!r} does not exist")
        del self._succ[ui][vi]
        del self._pred[vi][ui]
        self._edge_count -= 1
        self._bump_version()

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[NodeId, NodeId]],
        p: float = 0.1,
        directed: bool = True,
        nodes: Optional[Iterable[NodeId]] = None,
    ) -> "DiGraph":
        """Build a graph from an edge iterable with constant probability.

        ``nodes`` may list isolated nodes (or force an index order).
        """
        graph = cls(default_probability=p)
        if nodes is not None:
            for node in nodes:
                graph.add_node(node)
        for u, v in edges:
            if directed:
                graph.add_edge(u, v)
            else:
                graph.add_undirected_edge(u, v)
        return graph

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, node: NodeId) -> bool:
        return node in self._index

    def __len__(self) -> int:
        return len(self._labels)

    def number_of_nodes(self) -> int:
        return len(self._labels)

    def number_of_edges(self) -> int:
        """Number of *directed* edges."""
        return self._edge_count

    def nodes(self) -> List[NodeId]:
        """Node labels in index order (a copy)."""
        return list(self._labels)

    def edges(self) -> Iterator[Tuple[NodeId, NodeId, float]]:
        """Iterate ``(u, v, p)`` triples in index order."""
        for ui, targets in enumerate(self._succ):
            u = self._labels[ui]
            for vi, prob in targets.items():
                yield u, self._labels[vi], prob

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        ui = self._index.get(u)
        vi = self._index.get(v)
        if ui is None or vi is None:
            return False
        return vi in self._succ[ui]

    def edge_probability(self, u: NodeId, v: NodeId) -> float:
        ui, vi = self._require(u), self._require(v)
        try:
            return self._succ[ui][vi]
        except KeyError:
            raise GraphError(f"edge {u!r} -> {v!r} does not exist") from None

    def successors(self, node: NodeId) -> List[NodeId]:
        ui = self._require(node)
        return [self._labels[vi] for vi in self._succ[ui]]

    def predecessors(self, node: NodeId) -> List[NodeId]:
        vi = self._require(node)
        return [self._labels[ui] for ui in self._pred[vi]]

    def out_degree(self, node: NodeId) -> int:
        return len(self._succ[self._require(node)])

    def in_degree(self, node: NodeId) -> int:
        return len(self._pred[self._require(node)])

    def group_of(self, node: NodeId) -> Optional[Hashable]:
        """Group label attached at ``add_node`` time (may be ``None``)."""
        return self._groups[self._require(node)]

    def set_group(self, node: NodeId, group: Hashable) -> None:
        self._check_mutable()
        self._groups[self._require(node)] = group
        self._bump_version()

    def apply_delta(self, delta: "GraphDelta") -> None:  # noqa: F821
        """Apply a batched :class:`~repro.graph.delta.GraphDelta`.

        Validates every operation against the current graph first and
        applies all-or-nothing; see :meth:`GraphDelta.apply_to`.
        """
        self._check_mutable()
        delta.apply_to(self)

    # ------------------------------------------------------------------
    # index mapping (numerical layers work on dense indices)
    # ------------------------------------------------------------------
    def index_of(self, node: NodeId) -> int:
        """Dense index of ``node`` (stable across the graph's lifetime)."""
        return self._require(node)

    def label_of(self, index: int) -> NodeId:
        if not 0 <= index < len(self._labels):
            raise GraphError(f"node index {index} out of range [0, {len(self._labels)})")
        return self._labels[index]

    def indices_of(self, nodes: Iterable[NodeId]) -> np.ndarray:
        return np.asarray([self._require(n) for n in nodes], dtype=np.int64)

    def labels_of(self, indices: Iterable[int]) -> List[NodeId]:
        return [self.label_of(int(i)) for i in indices]

    # ------------------------------------------------------------------
    # numerical exports
    # ------------------------------------------------------------------
    def probability_matrix(self) -> sparse.csr_matrix:
        """Sparse ``n x n`` matrix ``M[i, j] = p`` for edge ``i -> j``.

        Cached on :attr:`version`, so repeated exports of an unmutated
        graph (every RR-set estimator construction, spectral
        clustering, ...) rebuild nothing.  Treat the result as
        read-only — mutating it would poison the cache.
        """
        cached = self._matrix_cache.get("forward")
        if cached is not None and cached[0] == self._version:
            return cached[1]
        n = len(self._labels)
        src, dst, prob = self.edge_arrays()
        matrix = sparse.csr_matrix((prob, (src, dst)), shape=(n, n))
        self._matrix_cache["forward"] = (self._version, matrix)
        return matrix

    def reverse_probability_matrix(self) -> sparse.csr_matrix:
        """The transpose of :meth:`probability_matrix` as CSR.

        Row ``v`` lists ``v``'s in-neighbours and their probabilities —
        the predecessor layout reverse-reachability samplers walk.
        Cached on :attr:`version` like the forward export (the
        ``.T.tocsr()`` conversion is the expensive half); treat as
        read-only.
        """
        cached = self._matrix_cache.get("reverse")
        if cached is not None and cached[0] == self._version:
            return cached[1]
        matrix = self.probability_matrix().T.tocsr()
        self._matrix_cache["reverse"] = (self._version, matrix)
        return matrix

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edges as parallel arrays ``(sources, targets, probabilities)``.

        This is the format the world sampler consumes: one Bernoulli
        draw per array position materialises a live-edge world.  The
        sampler asks once per world, so the export is cached on
        :attr:`version` like :meth:`probability_matrix`; the arrays are
        read-only, since mutating them would poison the cache.
        """
        cached = self._matrix_cache.get("edges")
        if cached is not None and cached[0] == self._version:
            return cached[1]
        m = self._edge_count
        src = np.empty(m, dtype=np.int64)
        dst = np.empty(m, dtype=np.int64)
        prob = np.empty(m, dtype=np.float64)
        k = 0
        for ui, targets in enumerate(self._succ):
            for vi, p in targets.items():
                src[k] = ui
                dst[k] = vi
                prob[k] = p
                k += 1
        for array in (src, dst, prob):
            array.flags.writeable = False
        self._matrix_cache["edges"] = (self._version, (src, dst, prob))
        return src, dst, prob

    def group_labels_array(self) -> List[Optional[Hashable]]:
        """Per-index group labels (a copy, aligned with dense indices)."""
        return list(self._groups)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def copy(self) -> "DiGraph":
        """An independent, mutable copy (same nodes, order, groups and
        edges; its own :attr:`version` counter)."""
        other = DiGraph(default_probability=self.default_probability)
        for node, group in zip(self._labels, self._groups):
            other.add_node(node, group=group)
        for ui, targets in enumerate(self._succ):
            u = self._labels[ui]
            for vi, prob in targets.items():
                other.add_edge(u, self._labels[vi], prob)
        return other

    def with_probability(self, p: float) -> "DiGraph":
        """Copy of this graph with every edge probability replaced by ``p``.

        The activation-probability sweeps (Fig. 5a) reuse one sampled
        topology across probabilities; this keeps those sweeps honest —
        same structure, different ``p_e``.
        """
        _check_probability(p)
        other = DiGraph(default_probability=p)
        for node, group in zip(self._labels, self._groups):
            other.add_node(node, group=group)
        for ui, targets in enumerate(self._succ):
            u = self._labels[ui]
            for vi in targets:
                other.add_edge(u, self._labels[vi], p)
        return other

    def subgraph(self, nodes: Iterable[NodeId]) -> "DiGraph":
        """Induced subgraph on ``nodes`` (edge probabilities preserved)."""
        keep = set(nodes)
        missing = [n for n in keep if n not in self._index]
        if missing:
            raise GraphError(f"unknown nodes in subgraph request: {missing[:5]!r}")
        other = DiGraph(default_probability=self.default_probability)
        for node in self._labels:
            if node in keep:
                other.add_node(node, group=self._groups[self._index[node]])
        for u, v, prob in self.edges():
            if u in keep and v in keep:
                other.add_edge(u, v, prob)
        return other

    def reverse(self) -> "DiGraph":
        """Graph with every edge direction flipped (probabilities kept)."""
        other = DiGraph(default_probability=self.default_probability)
        for node, group in zip(self._labels, self._groups):
            other.add_node(node, group=group)
        for u, v, prob in self.edges():
            other.add_edge(v, u, prob)
        return other

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"DiGraph(n={self.number_of_nodes()}, m={self.number_of_edges()}, "
            f"default_p={self.default_probability})"
        )

    def _require(self, node: NodeId) -> int:
        idx = self._index.get(node)
        if idx is None:
            raise GraphError(f"node {node!r} is not in the graph")
        return idx


def _check_probability(p: float) -> None:
    if not (isinstance(p, (int, float)) and 0.0 <= float(p) <= 1.0):
        raise GraphError(f"activation probability must be in [0, 1], got {p!r}")
