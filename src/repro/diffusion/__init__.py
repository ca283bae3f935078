"""Diffusion substrate: cascade models and live-edge worlds.

Implements the propagation processes of Section 3.1:

- :func:`~repro.diffusion.models.simulate_ic` — Independent Cascade
  with discrete time steps and activation timestamps.
- :func:`~repro.diffusion.models.simulate_lt` — Linear Threshold (the
  paper notes its results "easily extend to the LT model").
- :mod:`~repro.diffusion.worlds` — the live-edge characterisation used
  by the estimators: a cascade under IC is exactly a BFS in a random
  subgraph that keeps each edge with its activation probability, and
  the activation time of a node equals its BFS distance from the seed
  set in that subgraph.
"""

from repro.diffusion.cascade import CascadeResult
from repro.diffusion.models import simulate_ic, simulate_lt
from repro.diffusion.worlds import (
    LiveEdgeWorld,
    ic_world_key,
    keyed_edge_uniforms,
    sample_ic_world,
    sample_ic_world_from_key,
    sample_ic_worlds,
    sample_lt_world,
    sample_worlds,
)

__all__ = [
    "CascadeResult",
    "simulate_ic",
    "simulate_lt",
    "LiveEdgeWorld",
    "ic_world_key",
    "keyed_edge_uniforms",
    "sample_ic_world",
    "sample_ic_world_from_key",
    "sample_ic_worlds",
    "sample_lt_world",
    "sample_worlds",
]
