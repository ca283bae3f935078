"""Shared fixtures: small deterministic graphs used across the suite."""

from __future__ import annotations

import pytest

from repro.graph.digraph import DiGraph
from repro.graph.groups import GroupAssignment


@pytest.fixture
def tiny_path() -> DiGraph:
    """Deterministic directed path 0 -> 1 -> 2 -> 3 with p = 1."""
    graph = DiGraph(default_probability=1.0)
    for node in range(4):
        graph.add_node(node)
    for node in range(3):
        graph.add_edge(node, node + 1)
    return graph


@pytest.fixture
def two_group_line():
    """Path a->b->c->d with two groups: {a, b} 'left', {c, d} 'right'.

    With p = 1, seeding 'a' activates b at t=1, c at t=2, d at t=3 —
    handy for checking deadline semantics per group.
    """
    graph = DiGraph(default_probability=1.0)
    graph.add_node("a", group="left")
    graph.add_node("b", group="left")
    graph.add_node("c", group="right")
    graph.add_node("d", group="right")
    graph.add_edge("a", "b")
    graph.add_edge("b", "c")
    graph.add_edge("c", "d")
    return graph, GroupAssignment.from_graph(graph)


@pytest.fixture
def small_two_group():
    """A 8-node, 9-directed-edge graph with clear majority/minority
    structure, small enough for exact enumeration (2^9 worlds).

    Majority 'big': hub h reaching leaves l1..l3 directly; minority
    'small': chain via bridge.
    """
    graph = DiGraph(default_probability=0.5)
    for node in ("h", "l1", "l2", "l3", "bridge"):
        graph.add_node(node, group="big")
    for node in ("m1", "m2", "m3"):
        graph.add_node(node, group="small")
    graph.add_edge("h", "l1")
    graph.add_edge("h", "l2")
    graph.add_edge("h", "l3")
    graph.add_edge("h", "bridge")
    graph.add_edge("bridge", "m1")
    graph.add_edge("m1", "m2")
    graph.add_edge("m2", "m3")
    graph.add_edge("l1", "l2")
    graph.add_edge("m1", "m3")
    return graph, GroupAssignment.from_graph(graph)
