"""Graph substrate: directed graphs with activation probabilities.

This package is the foundation everything else builds on:

- :class:`~repro.graph.digraph.DiGraph` — adjacency-list directed graph
  whose edges carry Independent-Cascade activation probabilities and
  whose nodes may carry a group label.
- :class:`~repro.graph.delta.GraphDelta` — a validated, immutable batch
  of edge mutations (insert / remove / reweight) for streaming updates.
- :class:`~repro.graph.groups.GroupAssignment` — validated partition of
  the node set into socially salient groups.
- :mod:`~repro.graph.generators` — synthetic graph families (stochastic
  block model, Erdős–Rényi, Barabási–Albert, deterministic shapes).
- :mod:`~repro.graph.clustering` — spectral clustering (used to derive
  the topological groups of the Facebook-SNAP experiment).
"""

from repro.graph.delta import GraphDelta
from repro.graph.digraph import DiGraph
from repro.graph.groups import GroupAssignment

__all__ = ["DiGraph", "GraphDelta", "GroupAssignment"]
