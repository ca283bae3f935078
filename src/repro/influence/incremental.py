"""Incremental ensemble repair under streaming graph deltas.

A :class:`~repro.influence.ensemble.WorldEnsemble` is an expensive
artifact: ``R`` sampled live-edge worlds plus a distance store built by
``R`` (batched) BFS passes.  When the underlying graph changes by a
handful of edges, rebuilding all of it from scratch throws away almost
everything — the repaired ensemble differs from the old one only where
a *touched* edge's coin flip lands differently.

This module exploits the keyed IC sampler
(:func:`~repro.diffusion.worlds.keyed_edge_uniforms`): the uniform coin
of edge ``(u, v)`` in world ``r`` is a pure function of ``(world key,
u, v)``, independent of every other edge.  Applying a
:class:`~repro.graph.delta.GraphDelta` therefore reduces to
*re-thresholding* the touched edges' coins:

1. resolve the delta against the pre-mutation graph into per-edge
   ``(p_old, p_new)`` pairs (``0.0`` encodes absent / removed);
2. draw the touched edges' uniforms in every world (one SplitMix64
   evaluation per (world, edge) pair — the only "resampling" done);
3. worlds where ``(U < p_old) != (U < p_new)`` somewhere have a changed
   live-edge set; patch exactly those edges in exactly those worlds;
4. hand the changed worlds to the distance backend's
   :meth:`~repro.influence.backends.DistanceBackend.repair_worlds`,
   which recomputes only their slices of the store.

Because untouched edges keep their coins and touched edges re-threshold
the *same* coin a from-scratch build would draw, the repaired ensemble
is **bit-identical** to a ``WorldEnsemble`` built fresh on the mutated
graph with the same seed — the property the equivalence tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

import numpy as np

from repro.errors import EstimationError
from repro.diffusion.worlds import (
    LiveEdgeWorld,
    _world_from_edges,
    edge_codes,
    keyed_edge_uniforms,
)
from repro.graph.delta import GraphDelta
from repro.graph.digraph import DiGraph

if TYPE_CHECKING:  # pragma: no cover
    from repro.influence.ensemble import WorldEnsemble


@dataclass(frozen=True)
class EdgePlan:
    """A delta resolved against the pre-mutation graph, as index arrays.

    ``p_old[i]`` / ``p_new[i]`` are edge ``(src[i], dst[i])``'s
    activation probabilities before / after the delta, with ``0.0``
    encoding "absent" — an insert has ``p_old == 0``, a remove has
    ``p_new == 0``.  Re-thresholding one uniform against both values
    tells whether a world's live-edge set changes at that edge.
    """

    src: np.ndarray
    dst: np.ndarray
    p_old: np.ndarray
    p_new: np.ndarray

    @property
    def n_edges(self) -> int:
        return int(self.src.size)


@dataclass(frozen=True)
class RepairReport:
    """What one :func:`repair_ensemble` call actually did.

    ``affected`` is the sorted candidate positions whose distance rows
    changed (what a warm-started solver must refresh), or ``None`` when
    the backend cannot enumerate them (lazy store) — callers must then
    treat *every* candidate as potentially affected.
    """

    delta_fingerprint: str
    edges_touched: int
    repaired_worlds: int
    resampled_edges: int
    affected: Optional[np.ndarray]


def plan_against(graph: DiGraph, delta: GraphDelta) -> EdgePlan:
    """Resolve ``delta`` into an :class:`EdgePlan` for ``graph``.

    Must be called *before* the delta is applied — ``p_old`` reads the
    pre-mutation probabilities.  Validates the delta against the graph
    (so a plan for an inapplicable delta never exists).
    """
    delta.validate_for(graph)
    labels: List = []
    p_old: List[float] = []
    p_new: List[float] = []
    for u, v, p in delta.inserts:
        labels.append((u, v))
        p_old.append(0.0)
        p_new.append(graph.default_probability if p is None else p)
    for u, v in delta.removes:
        labels.append((u, v))
        p_old.append(graph.edge_probability(u, v))
        p_new.append(0.0)
    for u, v, p in delta.reweights:
        labels.append((u, v))
        p_old.append(graph.edge_probability(u, v))
        p_new.append(p)
    src = graph.indices_of([u for u, _ in labels])
    dst = graph.indices_of([v for _, v in labels])
    return EdgePlan(
        src=src,
        dst=dst,
        p_old=np.asarray(p_old, dtype=np.float64),
        p_new=np.asarray(p_new, dtype=np.float64),
    )


def patch_world(
    world: LiveEdgeWorld,
    plan: EdgePlan,
    kept_old: np.ndarray,
    kept_new: np.ndarray,
) -> LiveEdgeWorld:
    """The world's live-edge set after re-thresholding the plan's edges.

    Drops edges whose coin kept them under ``p_old`` but not ``p_new``,
    adds the converse, and rebuilds the adjacency through the very same
    COO→CSR constructor as a from-scratch sample — so the patched world
    is bit-identical to resampling the mutated graph under the world's
    key.
    """
    coo = world.adjacency.tocoo()
    rows = coo.row.astype(np.int64)
    cols = coo.col.astype(np.int64)
    drop = kept_old & ~kept_new
    add = ~kept_old & kept_new
    if drop.any():
        old_codes = edge_codes(rows, cols, world.n)
        keep = ~np.isin(old_codes, edge_codes(plan.src[drop], plan.dst[drop], world.n))
        rows, cols = rows[keep], cols[keep]
    if add.any():
        rows = np.concatenate([rows, plan.src[add]])
        cols = np.concatenate([cols, plan.dst[add]])
    return _world_from_edges(world.n, rows, cols)


def repair_ensemble(ensemble: "WorldEnsemble", delta: GraphDelta) -> RepairReport:
    """Apply ``delta`` to the ensemble's graph and repair in place.

    The public entry point is
    :meth:`~repro.influence.ensemble.WorldEnsemble.apply_delta`, which
    delegates here.  Mutates the graph (bumping its version), swaps the
    changed worlds, patches the distance store, and records the delta
    in the ensemble's lineage — after which the ensemble answers every
    query exactly as a fresh build on the mutated graph would.
    """
    if ensemble.closed:
        raise EstimationError("cannot repair a closed ensemble")
    if ensemble.model != "ic":
        raise EstimationError(
            "incremental repair requires the keyed IC sampler; "
            f"model {ensemble.model!r} ensembles must be rebuilt"
        )
    graph = ensemble.graph
    if graph.version != ensemble.graph_version:
        raise EstimationError(
            f"graph version {graph.version} does not match the version the "
            f"ensemble was built against ({ensemble.graph_version}): the "
            "graph was mutated outside apply_delta, so the sampled worlds "
            "can no longer be trusted — rebuild the ensemble"
        )
    plan = plan_against(graph, delta)
    graph.apply_delta(delta)
    # From here on the graph is mutated.  If anything below fails, we
    # deliberately do NOT record the new version on the ensemble: the
    # staleness guard then rejects every query on the half-repaired
    # store instead of serving wrong numbers.
    updates: Dict[int, LiveEdgeWorld] = {}
    if plan.n_edges == 0:
        affected: Optional[np.ndarray] = np.empty(0, dtype=np.int64)
    else:
        for r, key in enumerate(ensemble.world_keys):
            uniforms = keyed_edge_uniforms(key, plan.src, plan.dst, ensemble.n)
            kept_old = uniforms < plan.p_old
            kept_new = uniforms < plan.p_new
            if not (kept_old != kept_new).any():
                continue
            updates[r] = patch_world(ensemble.worlds[r], plan, kept_old, kept_new)
        for r, world in updates.items():
            ensemble.worlds[r] = world
        affected = ensemble._backend.repair_worlds(
            updates, ensemble._candidate_indices
        )
    ensemble._note_repair(graph.version, delta.fingerprint(), affected)
    return RepairReport(
        delta_fingerprint=delta.fingerprint(),
        edges_touched=plan.n_edges,
        repaired_worlds=len(updates),
        resampled_edges=plan.n_edges * ensemble.n_worlds,
        affected=affected,
    )
