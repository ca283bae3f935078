"""Synthetic graph generators.

The paper's synthetic evaluation (Section 6.1) uses a two-block
stochastic block model parameterised by the majority fraction ``g``,
the within-group edge probability ``p_hom`` and the across-group edge
probability ``p_het``.  :func:`stochastic_block_model` implements the
general k-block version; the surrogate real-world datasets are built on
:func:`block_model_with_edge_counts`, which plants an *exact* number of
edges per block pair so we can match the edge statistics reported in
the paper (Section 7.1) without access to the original data.

All generators return undirected social ties as pairs of directed
edges, exactly as Section 3.1 prescribes.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError, GraphError
from repro.graph.digraph import DiGraph
from repro.graph.groups import GroupAssignment
from repro.rng import RngLike, ensure_rng


def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be in [0, 1], got {value}")


def stochastic_block_model(
    block_sizes: Sequence[int],
    within_probability: float,
    across_probability: float,
    activation_probability: float = 0.05,
    group_names: Optional[Sequence[Hashable]] = None,
    seed: RngLike = None,
) -> Tuple[DiGraph, GroupAssignment]:
    """Sample an undirected stochastic block model.

    Each unordered node pair in the same block is connected with
    probability ``within_probability`` (*homophily*), each cross-block
    pair with ``across_probability`` (*heterophily*).  Nodes are labeled
    ``0..n-1`` and assigned to groups ``group_names[i]`` (default
    ``"G1".."Gk"``).

    Returns the graph and its :class:`GroupAssignment`.
    """
    if not block_sizes or any(s <= 0 for s in block_sizes):
        raise ConfigError(f"block sizes must be positive, got {list(block_sizes)}")
    _check_prob("within_probability", within_probability)
    _check_prob("across_probability", across_probability)
    rng = ensure_rng(seed)

    k = len(block_sizes)
    if group_names is None:
        group_names = [f"G{i + 1}" for i in range(k)]
    if len(group_names) != k:
        raise ConfigError(
            f"group_names has {len(group_names)} entries for {k} blocks"
        )

    n = int(sum(block_sizes))
    block_of = np.repeat(np.arange(k), block_sizes)
    # One uniform per upper-triangle pair, in row-major pair order.  The
    # paper's synthetic graphs are small (n=500) so O(n^2) draws are
    # fine here; the large surrogate datasets use the exact-edge-count
    # generator below instead.
    us, vs, draws = _pairs_below(
        rng, n, max(within_probability, across_probability)
    )
    p_pair = np.where(block_of[us] == block_of[vs], within_probability, across_probability)
    keep = draws < p_pair
    graph = _undirected_graph(
        n, us[keep], vs[keep], activation_probability,
        _block_groups(block_sizes, group_names),
    )
    assignment = GroupAssignment.from_graph(graph)
    return graph, assignment


def two_block_sbm(
    n: int,
    majority_fraction: float,
    p_hom: float,
    p_het: float,
    activation_probability: float = 0.05,
    seed: RngLike = None,
) -> Tuple[DiGraph, GroupAssignment]:
    """The exact synthetic family of Section 6.1.

    ``majority_fraction`` is the paper's ``g``: a fraction ``g`` of the
    ``n`` nodes forms group ``G1`` (the majority), the rest ``G2``.
    """
    if n < 2:
        raise ConfigError(f"need at least 2 nodes, got {n}")
    if not 0.0 < majority_fraction < 1.0:
        raise ConfigError(
            f"majority_fraction must be in (0, 1), got {majority_fraction}"
        )
    n1 = int(round(n * majority_fraction))
    n1 = min(max(n1, 1), n - 1)
    return stochastic_block_model(
        [n1, n - n1],
        within_probability=p_hom,
        across_probability=p_het,
        activation_probability=activation_probability,
        group_names=["G1", "G2"],
        seed=seed,
    )


def block_model_with_edge_counts(
    block_sizes: Sequence[int],
    edge_counts: np.ndarray,
    activation_probability: float,
    group_names: Optional[Sequence[Hashable]] = None,
    seed: RngLike = None,
) -> Tuple[DiGraph, GroupAssignment]:
    """Plant an exact number of undirected edges between each block pair.

    ``edge_counts`` is a symmetric ``k x k`` integer matrix; entry
    ``[i][i]`` is the number of within-block edges of block ``i`` and
    ``[i][j]`` (``i < j``) the number of edges between blocks ``i`` and
    ``j``.  Edges are sampled uniformly without replacement among the
    eligible pairs, which reproduces the *expected* structure of an SBM
    conditioned on its edge counts — exactly the statistics the paper
    reports for its real-world datasets.

    Raises :class:`ConfigError` when a requested count exceeds the
    number of available pairs.
    """
    counts = np.asarray(edge_counts, dtype=np.int64)
    k = len(block_sizes)
    if counts.shape != (k, k):
        raise ConfigError(f"edge_counts must be {k}x{k}, got {counts.shape}")
    if (counts != counts.T).any():
        raise ConfigError("edge_counts must be symmetric")
    if (counts < 0).any():
        raise ConfigError("edge_counts must be non-negative")
    if group_names is None:
        group_names = [f"G{i + 1}" for i in range(k)]
    rng = ensure_rng(seed)

    starts = np.concatenate([[0], np.cumsum(block_sizes)])
    pairs: List[Tuple[np.ndarray, np.ndarray]] = []
    for i in range(k):
        for j in range(i, k):
            m = int(counts[i, j])
            if m == 0:
                continue
            ni, nj = block_sizes[i], block_sizes[j]
            available = ni * (ni - 1) // 2 if i == j else ni * nj
            if m > available:
                raise ConfigError(
                    f"blocks ({i},{j}) admit {available} pairs but "
                    f"{m} edges were requested"
                )
            chosen = rng.choice(available, size=m, replace=False)
            if i == j:
                us, vs = _triangle_unrank(chosen, ni)
                us = us + starts[i]
                vs = vs + starts[i]
            else:
                us = chosen // nj + starts[i]
                vs = chosen % nj + starts[j]
            pairs.append((us, vs))

    graph = _undirected_graph(
        int(starts[-1]), *_concat_pairs(pairs), activation_probability,
        _block_groups(block_sizes, group_names),
    )
    assignment = GroupAssignment.from_graph(graph)
    return graph, assignment


def weighted_block_model(
    block_sizes: Sequence[int],
    edge_counts: np.ndarray,
    activation_probability: float,
    weight_exponents: Sequence[float],
    group_names: Optional[Sequence[Hashable]] = None,
    seed: RngLike = None,
    pair_exponents: Optional[dict] = None,
) -> Tuple[DiGraph, GroupAssignment]:
    """Block model with exact edge counts and heavy-tailed degrees.

    Like :func:`block_model_with_edge_counts` but, instead of choosing
    eligible pairs uniformly, endpoints are drawn with Chung-Lu-style
    weights ``w_r = (r+1)^(-alpha)`` over each block's internal rank
    ``r``, where ``alpha = weight_exponents[block]``.  Larger exponents
    concentrate edges on a few hub nodes — the degree heterogeneity
    real social networks exhibit but aggregate edge counts do not
    encode.  ``alpha = 0`` recovers the uniform model.

    The same per-node weights apply to within- and across-block edges,
    so a block's hubs are hubs globally (as in the real datasets, where
    the most-connected students dominate both their own group and the
    cross-group boundary).  ``pair_exponents`` overrides the exponents
    for specific block pairs: a mapping ``{(i, j): (alpha_i, alpha_j)}``
    with ``i <= j`` — e.g. ``{(0, 1): (0.0, 0.0)}`` spreads the edges
    between blocks 0 and 1 uniformly even when both blocks are
    otherwise hub-dominated.
    """
    counts = np.asarray(edge_counts, dtype=np.int64)
    k = len(block_sizes)
    if counts.shape != (k, k):
        raise ConfigError(f"edge_counts must be {k}x{k}, got {counts.shape}")
    if (counts != counts.T).any():
        raise ConfigError("edge_counts must be symmetric")
    if len(weight_exponents) != k:
        raise ConfigError(
            f"weight_exponents has {len(weight_exponents)} entries for {k} blocks"
        )
    if any(a < 0 for a in weight_exponents):
        raise ConfigError("weight exponents must be non-negative")
    if group_names is None:
        group_names = [f"G{i + 1}" for i in range(k)]
    rng = ensure_rng(seed)

    starts = np.concatenate([[0], np.cumsum(block_sizes)])
    pairs: List[Tuple[np.ndarray, np.ndarray]] = []

    def _weights(size: int, alpha: float) -> np.ndarray:
        w = (np.arange(size, dtype=np.float64) + 1.0) ** (-float(alpha))
        return w / w.sum()

    pair_exponents = dict(pair_exponents or {})
    for (i, j), (ai, aj) in pair_exponents.items():
        if not (0 <= i <= j < k):
            raise ConfigError(f"pair_exponents key ({i},{j}) out of range")
        if ai < 0 or aj < 0:
            raise ConfigError("pair exponents must be non-negative")

    for i in range(k):
        for j in range(i, k):
            m = int(counts[i, j])
            if m == 0:
                continue
            alpha_i, alpha_j = pair_exponents.get(
                (i, j), (weight_exponents[i], weight_exponents[j])
            )
            weights = {i: _weights(block_sizes[i], alpha_i)}
            weights[j] = _weights(block_sizes[j], alpha_j) if j != i else weights[i]
            ni, nj = block_sizes[i], block_sizes[j]
            available = ni * (ni - 1) // 2 if i == j else ni * nj
            if m > available:
                raise ConfigError(
                    f"blocks ({i},{j}) admit {available} pairs but "
                    f"{m} edges were requested"
                )
            chosen: set = set()
            # Rejection-sample distinct weighted pairs; batch draws keep
            # this fast even near saturation.
            attempts = 0
            while len(chosen) < m:
                batch = max(2 * (m - len(chosen)), 64)
                us = rng.choice(ni, size=batch, p=weights[i])
                vs = rng.choice(nj, size=batch, p=weights[j])
                for u, v in zip(us.tolist(), vs.tolist()):
                    if i == j:
                        if u == v:
                            continue
                        pair = (min(u, v), max(u, v))
                    else:
                        pair = (u, v)
                    if pair not in chosen:
                        chosen.add(pair)
                        if len(chosen) == m:
                            break
                attempts += 1
                if attempts > 200:
                    # Heavy weights can make the last few distinct pairs
                    # astronomically unlikely; fall back to uniform fill.
                    remaining = m - len(chosen)
                    fill = rng.choice(available, size=available, replace=False)
                    for rank in fill.tolist():
                        if i == j:
                            u_arr, v_arr = _triangle_unrank(
                                np.asarray([rank]), ni
                            )
                            pair = (int(u_arr[0]), int(v_arr[0]))
                        else:
                            pair = (rank // nj, rank % nj)
                        if pair not in chosen:
                            chosen.add(pair)
                            remaining -= 1
                            if remaining == 0:
                                break
                    break
            block_pairs = np.asarray(list(chosen), dtype=np.int64).reshape(-1, 2)
            pairs.append((block_pairs[:, 0] + starts[i], block_pairs[:, 1] + starts[j]))

    graph = _undirected_graph(
        int(starts[-1]), *_concat_pairs(pairs), activation_probability,
        _block_groups(block_sizes, group_names),
    )
    assignment = GroupAssignment.from_graph(graph)
    return graph, assignment


def _triangle_unrank(ranks: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Map ranks in ``[0, n*(n-1)/2)`` to unordered pairs ``(u < v)``.

    Uses the closed-form inverse of the row-major upper-triangle
    enumeration, vectorised over ``ranks``.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    # Row u starts at offset u*n - u*(u+1)/2; invert via the quadratic.
    b = 2 * n - 1
    u = np.floor((b - np.sqrt(b * b - 8.0 * ranks)) / 2.0).astype(np.int64)
    # Guard against floating point landing one row off.
    row_start = u * n - u * (u + 1) // 2
    too_big = row_start > ranks
    u = u - too_big.astype(np.int64)
    row_start = u * n - u * (u + 1) // 2
    next_start = (u + 1) * n - (u + 1) * (u + 2) // 2
    overflow = ranks >= next_start
    u = u + overflow.astype(np.int64)
    row_start = u * n - u * (u + 1) // 2
    v = ranks - row_start + u + 1
    return u, v


def _pairs_below(
    rng: np.random.Generator, n: int, threshold: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one uniform per unordered pair of ``n`` nodes, in row-major
    upper-triangle order, and return the pairs ``(u < v)`` whose draw is
    below ``threshold``, with their draws.

    Only those pairs are unranked, so a sparse graph never materialises
    the ``n(n-1)/2`` pair indices; a caller testing the returned draws
    against per-pair probabilities at most ``threshold`` keeps exactly
    the pairs a test over every pair would.
    """
    draws = rng.random(n * (n - 1) // 2)
    ranks = np.flatnonzero(draws < threshold)
    us, vs = _triangle_unrank(ranks, n)
    return us, vs, draws[ranks]


def _concat_pairs(pairs: List[Tuple[np.ndarray, np.ndarray]]) -> Tuple[np.ndarray, np.ndarray]:
    if not pairs:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return (
        np.concatenate([us for us, _ in pairs]),
        np.concatenate([vs for _, vs in pairs]),
    )


def _block_groups(
    block_sizes: Sequence[int], group_names: Sequence[Hashable]
) -> List[Hashable]:
    """Each node's group name, for nodes numbered block by block."""
    return [name for name, size in zip(group_names, block_sizes) for _ in range(size)]


def _undirected_graph(
    n: int,
    us: np.ndarray,
    vs: np.ndarray,
    activation_probability: float,
    groups: Optional[Sequence[Hashable]] = None,
) -> DiGraph:
    """The graph ``add_undirected_edge(u, v)`` over the pairs in order
    would build: ``u -> v`` then ``v -> u`` for each pair, on nodes
    ``0..n-1``, every edge at ``activation_probability``."""
    src = np.column_stack((us, vs)).reshape(-1)
    dst = np.column_stack((vs, us)).reshape(-1)
    return DiGraph.from_edge_arrays(
        n, src, dst, activation_probability, groups,
        default_probability=activation_probability,
    )


def erdos_renyi(
    n: int,
    edge_probability: float,
    activation_probability: float = 0.05,
    seed: RngLike = None,
) -> DiGraph:
    """Undirected G(n, p) with IC probability on every directed edge."""
    if n < 1:
        raise ConfigError(f"need at least 1 node, got {n}")
    _check_prob("edge_probability", edge_probability)
    rng = ensure_rng(seed)
    us, vs, _ = _pairs_below(rng, n, edge_probability)
    return _undirected_graph(n, us, vs, activation_probability)


def barabasi_albert(
    n: int,
    attachment: int,
    activation_probability: float = 0.05,
    seed: RngLike = None,
) -> DiGraph:
    """Preferential-attachment graph (undirected ties).

    Starts from a clique on ``attachment + 1`` nodes; each new node
    attaches to ``attachment`` distinct existing nodes chosen with
    probability proportional to degree.  Produces the heavy-tailed
    degree distributions under which influence concentrates on hubs —
    a stress test for the fairness objectives.
    """
    if attachment < 1:
        raise ConfigError(f"attachment must be >= 1, got {attachment}")
    if n <= attachment:
        raise ConfigError(f"need n > attachment, got n={n}, attachment={attachment}")
    rng = ensure_rng(seed)
    # Repeated-nodes list implements preferential attachment in O(m);
    # it lists the pairs' endpoints in order, so it is also the edge list.
    repeated: List[int] = []
    core = attachment + 1
    for u in range(core):
        for v in range(u + 1, core):
            repeated.extend((u, v))
    for new in range(core, n):
        targets: set = set()
        while len(targets) < attachment:
            pick = repeated[int(rng.integers(len(repeated)))]
            targets.add(pick)
        for t in targets:
            repeated.extend((new, t))
    pairs = np.asarray(repeated, dtype=np.int64).reshape(-1, 2)
    return _undirected_graph(n, pairs[:, 0], pairs[:, 1], activation_probability)


def erdos_renyi_with_groups(
    n: int,
    edge_probability: float,
    group_fractions: Sequence[float] = (0.7, 0.3),
    activation_probability: float = 0.05,
    group_names: Optional[Sequence[Hashable]] = None,
    seed: RngLike = None,
) -> Tuple[DiGraph, GroupAssignment]:
    """G(n, p) with a random group partition — a sweepable dataset.

    Groups on an Erdős–Rényi graph are *structureless* (membership is
    independent of topology), the opposite pole from the SBM's
    homophily — sweeping between the two shows how much of the fairness
    gap is wiring versus labeling.  The topology and the partition draw
    from independent spawned streams, so changing ``group_fractions``
    never perturbs the sampled edges.
    """
    topology_rng, group_rng = ensure_rng(seed).spawn(2)
    graph = erdos_renyi(
        n,
        edge_probability,
        activation_probability=activation_probability,
        seed=topology_rng,
    )
    assignment = random_groups(
        graph, group_fractions, group_names=group_names, seed=group_rng
    )
    return graph, assignment


def barabasi_albert_with_groups(
    n: int,
    attachment: int,
    group_fractions: Sequence[float] = (0.7, 0.3),
    activation_probability: float = 0.05,
    group_names: Optional[Sequence[Hashable]] = None,
    seed: RngLike = None,
) -> Tuple[DiGraph, GroupAssignment]:
    """Preferential attachment with a random group partition.

    The heavy-tailed degree pole of the sweepable generator family:
    influence concentrates on hubs, and whichever group the random
    partition hands the hubs to dominates — the stress case for the
    fair objectives.  As in :func:`erdos_renyi_with_groups`, topology
    and partition use independent spawned streams.
    """
    topology_rng, group_rng = ensure_rng(seed).spawn(2)
    graph = barabasi_albert(
        n,
        attachment,
        activation_probability=activation_probability,
        seed=topology_rng,
    )
    assignment = random_groups(
        graph, group_fractions, group_names=group_names, seed=group_rng
    )
    return graph, assignment


def path_graph(n: int, activation_probability: float = 1.0) -> DiGraph:
    """Directed path ``0 -> 1 -> ... -> n-1`` (deadline semantics tests)."""
    if n < 1:
        raise ConfigError(f"need at least 1 node, got {n}")
    graph = DiGraph(default_probability=activation_probability)
    for node in range(n):
        graph.add_node(node)
    for node in range(n - 1):
        graph.add_edge(node, node + 1)
    return graph


def star_graph(n_leaves: int, activation_probability: float = 1.0) -> DiGraph:
    """Hub node ``0`` with directed edges to leaves ``1..n_leaves``."""
    if n_leaves < 0:
        raise ConfigError(f"need non-negative leaf count, got {n_leaves}")
    graph = DiGraph(default_probability=activation_probability)
    graph.add_node(0)
    for leaf in range(1, n_leaves + 1):
        graph.add_edge(0, leaf)
    return graph


def complete_graph(n: int, activation_probability: float = 1.0) -> DiGraph:
    """Complete undirected graph on ``n`` nodes."""
    if n < 1:
        raise ConfigError(f"need at least 1 node, got {n}")
    graph = DiGraph(default_probability=activation_probability)
    for node in range(n):
        graph.add_node(node)
    for u in range(n):
        for v in range(u + 1, n):
            graph.add_undirected_edge(u, v)
    return graph


def ring_graph(n: int, activation_probability: float = 1.0) -> DiGraph:
    """Undirected cycle on ``n >= 3`` nodes."""
    if n < 3:
        raise ConfigError(f"ring needs at least 3 nodes, got {n}")
    graph = DiGraph(default_probability=activation_probability)
    for node in range(n):
        graph.add_node(node)
    for node in range(n):
        graph.add_undirected_edge(node, (node + 1) % n)
    return graph


def random_groups(
    graph: DiGraph,
    fractions: Sequence[float],
    group_names: Optional[Sequence[Hashable]] = None,
    seed: RngLike = None,
) -> GroupAssignment:
    """Assign groups to an existing graph's nodes at random.

    ``fractions`` must sum to 1 (within tolerance); sizes are rounded
    with the largest-remainder rule so they sum to ``n`` exactly.
    """
    fracs = np.asarray(fractions, dtype=np.float64)
    if (fracs <= 0).any():
        raise ConfigError(f"fractions must be positive, got {fracs.tolist()}")
    if abs(fracs.sum() - 1.0) > 1e-9:
        raise ConfigError(f"fractions must sum to 1, got {fracs.sum()}")
    n = graph.number_of_nodes()
    if n < len(fracs):
        raise GraphError(f"graph has {n} nodes but {len(fracs)} groups requested")
    if group_names is None:
        group_names = [f"G{i + 1}" for i in range(len(fracs))]
    rng = ensure_rng(seed)

    raw = fracs * n
    sizes = np.floor(raw).astype(np.int64)
    remainder = n - sizes.sum()
    order = np.argsort(-(raw - sizes))
    sizes[order[:remainder]] += 1
    # Every group must be non-empty for a valid partition.
    while (sizes == 0).any():
        sizes[sizes.argmin()] += 1
        sizes[sizes.argmax()] -= 1

    nodes = graph.nodes()
    perm = rng.permutation(n)
    membership = {}
    cursor = 0
    for name, size in zip(group_names, sizes.tolist()):
        for i in perm[cursor : cursor + size]:
            membership[nodes[int(i)]] = name
        cursor += size
    assignment = GroupAssignment(membership)
    for node, group in membership.items():
        graph.set_group(node, group)
    return assignment
