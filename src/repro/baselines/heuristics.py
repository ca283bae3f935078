"""Seed-selection heuristics that skip influence estimation.

All functions return a list of ``budget`` node labels drawn from
``candidates`` (default: all nodes), deterministically given a seed.

The named registry (:data:`BASELINE_CHOICES` /
:func:`baseline_seeds`) is what spec-driven callers use — the sweep
engine names its comparison methods in JSON, so the names here are the
vocabulary a :class:`repro.sweep.SweepSpec` validates against.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.errors import ConfigError, GraphError, OptimizationError
from repro.graph.digraph import DiGraph, NodeId
from repro.graph.groups import GroupAssignment
from repro.rng import RngLike, ensure_rng


def _pool(graph: DiGraph, candidates: Optional[Iterable[NodeId]]) -> List[NodeId]:
    pool = graph.nodes() if candidates is None else list(candidates)
    if not pool:
        raise OptimizationError("candidate pool is empty")
    return pool


def _pool_degrees(
    graph: DiGraph, pool: List[NodeId], candidates: Optional[Iterable[NodeId]]
) -> np.ndarray:
    """Out-degree of each pool node, aligned with ``pool``."""
    degrees = graph.out_degrees()
    return degrees if candidates is None else degrees[graph.indices_of(pool)]


def _by_degree(pool: List[NodeId], degrees: List[int]):
    """Sort key for pool positions: highest degree first, ties broken by
    label repr for determinism."""
    return lambda i: (-degrees[i], repr(pool[i]))


def _check_budget(budget: int, pool_size: int) -> None:
    if budget < 1:
        raise OptimizationError(f"budget must be >= 1, got {budget}")
    if budget > pool_size:
        raise OptimizationError(
            f"budget {budget} exceeds candidate pool of size {pool_size}"
        )


def random_seeds(
    graph: DiGraph,
    budget: int,
    candidates: Optional[Iterable[NodeId]] = None,
    seed: RngLike = None,
) -> List[NodeId]:
    """Uniformly random seeds — the floor every method should beat."""
    pool = _pool(graph, candidates)
    _check_budget(budget, len(pool))
    rng = ensure_rng(seed)
    picks = rng.choice(len(pool), size=budget, replace=False)
    return [pool[int(i)] for i in picks]


def top_degree_seeds(
    graph: DiGraph,
    budget: int,
    candidates: Optional[Iterable[NodeId]] = None,
) -> List[NodeId]:
    """Highest out-degree first (ties broken by label repr for determinism)."""
    pool = _pool(graph, candidates)
    _check_budget(budget, len(pool))
    degrees = _pool_degrees(graph, pool, candidates)
    # Only nodes at or above the budget-th largest degree can be picked;
    # sort just those (in pool order, so ties keep the full sort's order).
    cutoff = np.partition(degrees, degrees.size - budget)[degrees.size - budget]
    top = np.flatnonzero(degrees >= cutoff).tolist()
    top.sort(key=_by_degree(pool, degrees.tolist()))
    return [pool[i] for i in top[:budget]]


def _pagerank(
    graph: DiGraph,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iterations: int = 200,
) -> Dict[NodeId, float]:
    """PageRank by power iteration over :meth:`DiGraph.edge_arrays`.

    Each edge ``u -> v`` passes ``damping * rank[u] / out_degree(u)`` to
    ``v``; dangling nodes (zero out-degree) redistribute uniformly.
    Edges come grouped by ascending source, so ``np.add.at`` sums each
    node's contributions in ascending-source order.  Converges when the
    L1 change drops below ``tol``; raises :class:`GraphError` if
    ``max_iterations`` is exhausted first.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    n = graph.number_of_nodes()
    if n == 0:
        return {}
    src, dst, _ = graph.edge_arrays()
    out_deg = np.bincount(src, minlength=n).astype(np.float64)
    dangling = out_deg == 0
    src_deg = out_deg[src]
    rank = np.full(n, 1.0 / n)
    for _ in range(max_iterations):
        new = np.full(n, (1.0 - damping) / n)
        dangling_mass = rank[dangling].sum()
        new += damping * dangling_mass / n
        np.add.at(new, dst, damping * rank[src] / src_deg)
        if np.abs(new - rank).sum() < tol:
            rank = new
            break
        rank = new
    else:
        raise GraphError(f"PageRank did not converge in {max_iterations} iterations")
    return dict(zip(graph.nodes(), rank.tolist()))


def pagerank_seeds(
    graph: DiGraph,
    budget: int,
    candidates: Optional[Iterable[NodeId]] = None,
    damping: float = 0.85,
) -> List[NodeId]:
    """Highest PageRank first."""
    pool = _pool(graph, candidates)
    _check_budget(budget, len(pool))
    scores = _pagerank(graph, damping=damping)
    ranked = sorted(pool, key=lambda n: (-scores[n], repr(n)))
    return ranked[:budget]


def group_proportional_degree_seeds(
    graph: DiGraph,
    assignment: GroupAssignment,
    budget: int,
    candidates: Optional[Iterable[NodeId]] = None,
) -> List[NodeId]:
    """Top-degree seeding with per-group quotas proportional to group size.

    A "diversity" baseline in the spirit of Stoica & Chaintreau (2019):
    it guarantees representation among *seeds* but not among the
    *influenced* — the gap the paper's formulation closes.
    """
    pool = _pool(graph, candidates)
    _check_budget(budget, len(pool))
    by_degree = _by_degree(pool, _pool_degrees(graph, pool, candidates).tolist())
    # Pool positions per group, highest degree first.
    by_group = {g: [] for g in assignment.groups}
    for i, node in enumerate(pool):
        by_group[assignment.group_of(node)].append(i)
    for members in by_group.values():
        members.sort(key=by_degree)

    total = sum(len(v) for v in by_group.values())
    raw = {
        g: budget * len(members) / total for g, members in by_group.items()
    }
    quota = {g: int(np.floor(v)) for g, v in raw.items()}
    remainder = budget - sum(quota.values())
    for g in sorted(raw, key=lambda g: -(raw[g] - quota[g])):
        if remainder <= 0:
            break
        if quota[g] < len(by_group[g]):
            quota[g] += 1
            remainder -= 1

    chosen: List[int] = []
    for g in assignment.groups:
        take = min(quota[g], len(by_group[g]))
        chosen.extend(by_group[g][:take])
    # Backfill if some group had fewer members than its quota.
    if len(chosen) < budget:
        leftovers = [i for g in assignment.groups for i in by_group[g][quota[g]:]]
        leftovers.sort(key=by_degree)
        chosen.extend(leftovers[: budget - len(chosen)])
    return [pool[i] for i in chosen[:budget]]


#: Baseline names spec-driven callers (the sweep engine) may request.
BASELINE_CHOICES = ("random", "degree", "pagerank", "proportional_degree")


def check_baseline_name(name: str) -> str:
    """Validate a baseline method name against the registry."""
    if name not in BASELINE_CHOICES:
        raise ConfigError(
            f"unknown baseline {name!r}; registered baselines: "
            f"{', '.join(BASELINE_CHOICES)}"
        )
    return name


def baseline_seeds(
    name: str,
    graph: DiGraph,
    assignment: GroupAssignment,
    budget: int,
    candidates: Optional[Iterable[NodeId]] = None,
    seed: RngLike = None,
) -> List[NodeId]:
    """Run the named heuristic — the registry behind spec-driven sweeps.

    ``seed`` only matters for ``"random"``; the structural heuristics
    are deterministic given the graph.  Every name in
    :data:`BASELINE_CHOICES` resolves here, so adding a heuristic means
    adding it to both — a sweep spec naming it then works unchanged.
    """
    check_baseline_name(name)
    if name == "random":
        return random_seeds(graph, budget, candidates=candidates, seed=seed)
    if name == "degree":
        return top_degree_seeds(graph, budget, candidates=candidates)
    if name == "pagerank":
        return pagerank_seeds(graph, budget, candidates=candidates)
    return group_proportional_degree_seeds(
        graph, assignment, budget, candidates=candidates
    )
