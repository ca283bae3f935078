"""Incremental ensemble repair under streaming graph deltas.

A :class:`~repro.influence.ensemble.WorldEnsemble` is an expensive
artifact: ``R`` sampled live-edge worlds plus a reach index built by
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
   evaluation per (world, edge) pair, all worlds in one vectorised
   pass — the only "resampling" done);
3. worlds where ``(U < p_old) != (U < p_new)`` somewhere have a changed
   live-edge set; patch exactly those edges in exactly those worlds'
   adjacency rows, every world in one vectorised pass;
4. swap the changed worlds in and hand the tails of their re-flipped
   edges to the ensemble's reach index.  A candidate's row can change
   only if it reaches such a tail in the old world — the owners the
   index's node-major transpose lists there — so only those rows are
   re-run (one batched BFS over every changed world), and exactly the
   rows whose entries changed are spliced into the index.

Because untouched edges keep their coins and touched edges re-threshold
the *same* coin a from-scratch build would draw, the repaired ensemble
is **bit-identical** to a ``WorldEnsemble`` built fresh on the mutated
graph with the same seed — the property the equivalence tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, TYPE_CHECKING

import numpy as np

from repro.errors import EstimationError
from repro.diffusion.worlds import LiveEdgeWorld, keyed_edge_uniforms
from repro.graph.delta import GraphDelta
from repro.graph.digraph import DiGraph
from repro.influence.backends import concat_ranges, splice

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

    ``affected`` is the sorted candidate positions whose index entries
    changed.
    """

    delta_fingerprint: str
    edges_touched: int
    repaired_worlds: int
    resampled_edges: int
    affected: np.ndarray


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


def patch_worlds(
    worlds: List[LiveEdgeWorld],
    plan: EdgePlan,
    kept_old: np.ndarray,
    kept_new: np.ndarray,
) -> List[LiveEdgeWorld]:
    """The worlds' live-edge sets after re-thresholding the plan's edges.

    ``kept_old[i]`` / ``kept_new[i]`` say which plan edges world ``i``
    keeps under ``p_old`` / ``p_new``.  Edges kept under the old
    probability but not the new one are dropped and the converse are
    added, as single-entry edits of each world's canonical CSR (rows
    sorted, no duplicates): a dropped edge was live and is cut out, an
    added one was not and is spliced in at its sorted place.

    All worlds are edited in one pass: their CSRs are stacked into one
    of ``len(worlds) * n`` rows, row ``i * n + u`` being world ``i``'s
    row ``u``, every flipped ``(world, edge)`` pair is placed and
    spliced there at once, and each world's arrays are sliced back
    out.  Each patched world's arrays are bit-identical to resampling
    the mutated graph under that world's key.
    """
    n = worlds[0].n
    pointers = np.stack([world.indptr for world in worlds]).astype(np.int64)
    starts = np.concatenate(([0], np.cumsum(pointers[:, -1])))
    indptr = np.append((pointers[:, :-1] + starts[:-1, None]).ravel(), starts[-1])
    indices = np.concatenate([world.indices for world in worlds])
    slot, edge = np.nonzero(kept_old != kept_new)
    row, dst = slot * n + plan.src[edge], plan.dst[edge]
    order = np.argsort(row * n + dst)
    row, dst, add = row[order], dst[order], kept_new[slot[order], edge[order]]
    # Each edit's place in the stacked CSR: its row start plus the rank
    # of its column among the row's columns (the row's exact slot for a
    # drop, the sorted insertion slot for an add).  Sorted by edge code,
    # the edits are ascending, disjoint segments for ``splice``.
    rows = np.unique(row)
    lo, hi = indptr[rows], indptr[rows + 1]
    codes = np.repeat(rows * n, hi - lo) + indices[concat_ranges(lo, hi)]
    at = indptr[row] + (
        np.searchsorted(codes, row * n + dst) - np.searchsorted(codes, row * n)
    )
    indices = splice(indices, at, at + ~add, dst[add], add.astype(np.int64))
    shift = np.zeros(indptr.size, dtype=np.int64)
    np.add.at(shift, row + 1, np.where(add, 1, -1))
    indptr += np.cumsum(shift)
    starts = indptr[::n]
    pointers = np.append(indptr[:-1].reshape(-1, n), starts[1:, None], axis=1)
    pointers = (pointers - starts[:-1, None]).astype(worlds[0].indptr.dtype)
    # Copies, not views: a world outliving its siblings must not pin
    # the stacked array.
    return [
        LiveEdgeWorld(n=n, indptr=pointer, indices=indices[lo:hi].copy())
        for lo, hi, pointer in zip(starts[:-1], starts[1:], pointers)
    ]


def repair_ensemble(ensemble: "WorldEnsemble", delta: GraphDelta) -> RepairReport:
    """Apply ``delta`` to the ensemble's graph and repair in place.

    The public entry point is
    :meth:`~repro.influence.ensemble.WorldEnsemble.apply_delta`, which
    delegates here.  Mutates the graph (bumping its version; a frozen
    graph is first replaced by a private copy), swaps the changed
    worlds, patches the reach index, and records the delta in the
    ensemble's lineage — after which the ensemble answers every
    query exactly as a fresh build on the mutated graph would.
    """
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
    if graph.frozen:
        # A shared graph (a Session's per-dataset graph) is never
        # mutated: the ensemble repairs against a private copy.
        graph = ensemble.graph = graph.copy()
    graph.apply_delta(delta)
    # From here on the graph is mutated.  If anything below fails, we
    # deliberately do NOT record the new version on the ensemble: the
    # staleness guard then rejects every query on the half-repaired
    # store instead of serving wrong numbers.
    changed = np.empty(0, dtype=np.int64)
    affected = np.empty(0, dtype=np.int64)
    if plan.n_edges:
        uniforms = keyed_edge_uniforms(
            np.asarray(ensemble.world_keys, dtype=np.uint64),
            plan.src,
            plan.dst,
            ensemble.n,
        )  # (R, E)
        kept_old = uniforms < plan.p_old
        kept_new = uniforms < plan.p_new
        world, edge = np.nonzero(kept_old != kept_new)
        changed = np.unique(world)
        if changed.size:
            patched = patch_worlds(
                [ensemble.worlds[r] for r in changed.tolist()],
                plan,
                kept_old[changed],
                kept_new[changed],
            )
            for r, patched_world in zip(changed.tolist(), patched):
                ensemble.worlds[r] = patched_world
            affected = ensemble._repair_rows(
                np.unique(world * ensemble.n + plan.src[edge])
            )
    ensemble._note_repair(graph.version, delta.fingerprint())
    return RepairReport(
        delta_fingerprint=delta.fingerprint(),
        edges_touched=plan.n_edges,
        repaired_worlds=int(changed.size),
        resampled_edges=plan.n_edges * ensemble.n_worlds,
        affected=affected,
    )
