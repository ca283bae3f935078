"""Directed graph with per-edge activation probabilities.

The Independent Cascade model attaches a probability ``p_e`` to every
directed edge; an undirected social tie is represented as two directed
edges (possibly with different probabilities).  :class:`DiGraph` stores
node labels of any hashable type, maps them to dense integer indices
(``0..n-1``) for the numerical layers, and keeps both successor and
predecessor adjacency so IC (forward) and LT (backward-weighted) models
are equally cheap.

Generators build their graphs in bulk (:meth:`DiGraph.from_edge_arrays`):
such a graph keeps its edges as the arrays the numerical layers read and
builds the adjacency dicts only when a mutation or a dict-based query
first needs them.

The class deliberately mirrors a small subset of the ``networkx`` API
(``add_edge``, ``successors``, ``number_of_nodes``...) so readers
familiar with that library can navigate it, but it is self-contained.
"""

from __future__ import annotations

from typing import (
    Any, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.errors import GraphError

NodeId = Hashable
#: Per-node ``{neighbour index: probability}`` dicts, by dense index.
_Adjacency = List[Dict[int, float]]


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
        # Successor / predecessor dicts, read through ``_succ`` /
        # ``_pred``.  A graph built by :meth:`from_edge_arrays` holds
        # ``None`` here and its edges only in ``_bulk`` (the
        # ``edge_arrays`` export plus each position's insertion rank, or
        # ``None`` when that is the position itself) until a mutation or
        # a dict-based query first needs the dicts.
        self._dicts: Optional[Tuple[_Adjacency, _Adjacency]] = ([], [])
        self._bulk: Optional[Tuple[np.ndarray, ...]] = None
        self._edge_count = 0
        self._version = 0
        self._frozen = False
        # (version, export) pairs for the edge-array and
        # predecessor-array exports.
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
    def _succ(self) -> _Adjacency:
        return self._adjacency()[0]

    @property
    def _pred(self) -> _Adjacency:
        return self._adjacency()[1]

    def _adjacency(self) -> Tuple[_Adjacency, _Adjacency]:
        """The successor and predecessor dicts, built from ``_bulk`` on
        first use; from then on they are the graph's source of truth.

        The edge-array cache is seeded before ``_dicts`` is set and
        ``_bulk`` cleared, in that order, so a concurrent reader of a
        frozen graph sees either the arrays or the finished dicts.
        """
        dicts = self._dicts
        if dicts is None:
            bulk = self._bulk
            if bulk is None:  # another thread finished first
                return self._dicts
            src, dst, prob, rank = bulk
            n = len(self._labels)
            succ: _Adjacency = [{} for _ in range(n)]
            pred: _Adjacency = [{} for _ in range(n)]
            us, vs, ps = src.tolist(), dst.tolist(), prob.tolist()
            for u, v, p in zip(us, vs, ps):
                succ[u][v] = p
            # Each node's predecessors in insertion order.
            by_dst = (
                np.argsort(dst, kind="stable") if rank is None else np.lexsort((rank, dst))
            )
            for i in by_dst.tolist():
                pred[vs[i]][us[i]] = ps[i]
            self._matrix_cache["edges"] = (self._version, (src, dst, prob))
            dicts = self._dicts = (succ, pred)
            self._bulk = None
        return dicts

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
            succ, pred = self._adjacency()
            idx = len(self._labels)
            self._index[node] = idx
            self._labels.append(node)
            self._groups.append(group)
            succ.append({})
            pred.append({})
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

    @classmethod
    def from_edge_arrays(
        cls,
        n: int,
        src: Any,
        dst: Any,
        prob: Any,
        groups: Optional[Sequence[Optional[Hashable]]] = None,
        default_probability: float = 0.1,
    ) -> "DiGraph":
        """Build a graph on nodes ``0..n-1`` from parallel edge arrays.

        The result equals adding the nodes in order, with ``groups[i]``
        (default ``None``) for node ``i``, and then each directed edge
        ``src[i] -> dst[i]`` with probability ``prob[i]`` (a scalar
        applies to every edge) by :meth:`add_edge`, in array order: same
        :meth:`edges`, successor and predecessor order, exports and
        :attr:`version`.  Validation is in bulk and raises
        :class:`GraphError` for what :meth:`add_edge` rejects —
        endpoints out of range, self-loops, probabilities outside
        ``[0, 1]`` — and for duplicate edges.

        The graph keeps the arrays and builds its adjacency dicts only
        when a mutation or a dict-based query (:meth:`successors`,
        :meth:`edges`, ...) first needs them; :meth:`edge_arrays`,
        :meth:`out_degrees`, the CSR exports and :meth:`copy` never do.
        """
        _check_probability(default_probability)
        n = int(n)
        if n < 0:
            raise GraphError(f"node count must be non-negative, got {n}")
        src = np.asarray(src)
        dst = np.asarray(dst)
        if src.ndim != 1 or src.shape != dst.shape:
            raise GraphError(
                f"src and dst must be 1-D arrays of one length, got shapes "
                f"{src.shape} and {dst.shape}"
            )
        for name, array in (("src", src), ("dst", dst)):
            if array.size and array.dtype.kind not in "iu":
                raise GraphError(f"{name} must hold integer node indices, got {array.dtype}")
        try:
            prob = np.broadcast_to(np.asarray(prob, dtype=np.float64), src.shape)
        except (TypeError, ValueError):
            raise GraphError(
                f"prob must be a probability or one per edge ({src.size})"
            ) from None
        groups = [None] * n if groups is None else list(groups)
        if len(groups) != n:
            raise GraphError(f"groups has {len(groups)} entries for {n} nodes")
        if src.size:
            low = int(min(src.min(), dst.min()))
            high = int(max(src.max(), dst.max()))
            if low < 0 or high >= n:
                bad = low if low < 0 else high
                raise GraphError(f"node index {bad} out of range [0, {n})")
            loops = np.flatnonzero(src == dst)
            if loops.size:
                raise GraphError(
                    f"self-loop on node {int(src[loops[0]])!r} is not allowed"
                )
            invalid = np.flatnonzero(~((prob >= 0.0) & (prob <= 1.0)))
            if invalid.size:
                raise GraphError(
                    f"activation probability must be in [0, 1], got "
                    f"{float(prob[invalid[0]])!r}"
                )
        src = src.astype(np.int64)
        dst = dst.astype(np.int64)
        prob = prob.astype(np.float64)
        rank = None
        if np.any(src[1:] < src[:-1]):
            rank = np.argsort(src, kind="stable")
            src, dst, prob = src[rank], dst[rank], prob[rank]
        codes = src * n + dst
        if np.any(codes[1:] <= codes[:-1]):
            ordered = np.sort(codes)
            repeated = np.flatnonzero(ordered[1:] == ordered[:-1])
            if repeated.size:
                code = int(ordered[repeated[0]])
                raise GraphError(f"duplicate edge {code // n!r} -> {code % n!r}")
        return cls._from_export(
            range(n), groups, src, dst, prob, rank, default_probability
        )

    @classmethod
    def _from_export(
        cls,
        labels: Iterable[NodeId],
        groups: Iterable[Optional[Hashable]],
        src: np.ndarray,
        dst: np.ndarray,
        prob: np.ndarray,
        rank: Optional[np.ndarray],
        default_probability: float,
    ) -> "DiGraph":
        """A lazily-adjacent graph over valid ``edge_arrays``-ordered
        arrays (sorted by ``src``); ``rank`` as in ``_bulk``."""
        graph = cls(default_probability=default_probability)
        graph._labels = list(labels)
        graph._index = {label: i for i, label in enumerate(graph._labels)}
        graph._groups = list(groups)
        for array in (src, dst, prob):
            array.flags.writeable = False
        graph._dicts = None
        graph._bulk = (src, dst, prob, rank)
        graph._edge_count = int(src.size)
        # One bump per node and per edge, as add_node / add_edge make.
        graph._version = len(graph._labels) + graph._edge_count
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
    def predecessor_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The predecessor CSR as arrays ``(indptr, indices, prob)``.

        Row ``v`` — ``indices[indptr[v]:indptr[v + 1]]`` — lists ``v``'s
        in-neighbours in ascending index order, and ``prob`` their edge
        probabilities: the layout reverse-reachability samplers walk.
        :meth:`edge_arrays` is grouped by ascending source, so one
        stable sort by ``dst`` orders the entries by ``(dst, src)`` and
        one bincount of ``dst`` gives the row starts: entry for entry
        the ``indptr`` / ``indices`` / ``data`` of the transposed
        probability matrix as CSR, with ``int64`` indices.  Cached on
        :attr:`version` like :meth:`edge_arrays`, and read-only for the
        same reason.
        """
        cached = self._matrix_cache.get("reverse")
        if cached is not None and cached[0] == self._version:
            return cached[1]
        n = len(self._labels)
        src, dst, prob = self.edge_arrays()
        order = np.argsort(dst, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=n), out=indptr[1:])
        arrays = (indptr, src[order], prob[order])
        for array in arrays:
            array.flags.writeable = False
        self._matrix_cache["reverse"] = (self._version, arrays)
        return arrays

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edges as parallel arrays ``(sources, targets, probabilities)``.

        Edges come grouped by source index and, within a source, in
        insertion order — the order of :meth:`edges`.  This is the
        format the world samplers consume: one Bernoulli draw per array
        position materialises a live-edge world.  A graph built by
        :meth:`from_edge_arrays` holds these arrays as its edges until
        its adjacency dicts are built; otherwise the export is cached on
        :attr:`version`.  The arrays are read-only, since mutating them
        would poison the cache.
        """
        bulk = self._bulk
        if bulk is not None:
            return bulk[:3]
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

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every node, by dense index (``int64``, ``(n,)``),
        counted from :meth:`edge_arrays`."""
        return np.bincount(self.edge_arrays()[0], minlength=len(self._labels))

    def group_labels_array(self) -> List[Optional[Hashable]]:
        """Per-index group labels (a copy, aligned with dense indices)."""
        return list(self._groups)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def copy(self) -> "DiGraph":
        """An independent, mutable copy (same nodes, order, groups and
        edges; its own :attr:`version` counter)."""
        return DiGraph._from_export(
            self._labels, self._groups, *self.edge_arrays(), None,
            self.default_probability,
        )

    def with_probability(self, p: float) -> "DiGraph":
        """Copy of this graph with every edge probability replaced by ``p``.

        The activation-probability sweeps (Fig. 5a) reuse one sampled
        topology across probabilities; this keeps those sweeps honest —
        same structure, different ``p_e``.
        """
        _check_probability(p)
        src, dst, _ = self.edge_arrays()
        return DiGraph._from_export(
            self._labels, self._groups, src, dst,
            np.full(src.size, float(p)), None, p,
        )

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
