"""Unit tests for the DiGraph data structure."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.digraph import DiGraph


class TestConstruction:
    def test_empty_graph(self):
        graph = DiGraph()
        assert graph.number_of_nodes() == 0
        assert graph.number_of_edges() == 0
        assert len(graph) == 0

    def test_add_node_returns_dense_index(self):
        graph = DiGraph()
        assert graph.add_node("x") == 0
        assert graph.add_node("y") == 1

    def test_add_node_idempotent(self):
        graph = DiGraph()
        graph.add_node("x")
        assert graph.add_node("x") == 0
        assert graph.number_of_nodes() == 1

    def test_add_node_updates_group(self):
        graph = DiGraph()
        graph.add_node("x", group="g1")
        graph.add_node("x", group="g2")
        assert graph.group_of("x") == "g2"

    def test_add_node_preserves_group_when_not_given(self):
        graph = DiGraph()
        graph.add_node("x", group="g1")
        graph.add_node("x")
        assert graph.group_of("x") == "g1"

    def test_add_edge_creates_endpoints(self):
        graph = DiGraph()
        graph.add_edge("u", "v", 0.5)
        assert "u" in graph and "v" in graph
        assert graph.number_of_edges() == 1

    def test_add_edge_uses_default_probability(self):
        graph = DiGraph(default_probability=0.25)
        graph.add_edge(1, 2)
        assert graph.edge_probability(1, 2) == 0.25

    def test_add_edge_overwrites_probability(self):
        graph = DiGraph()
        graph.add_edge("u", "v", 0.5)
        graph.add_edge("u", "v", 0.9)
        assert graph.edge_probability("u", "v") == 0.9
        assert graph.number_of_edges() == 1

    def test_self_loop_rejected(self):
        graph = DiGraph()
        with pytest.raises(GraphError, match="self-loop"):
            graph.add_edge("u", "u")

    def test_invalid_probability_rejected(self):
        graph = DiGraph()
        with pytest.raises(GraphError):
            graph.add_edge("u", "v", 1.5)
        with pytest.raises(GraphError):
            graph.add_edge("u", "v", -0.1)
        with pytest.raises(GraphError):
            DiGraph(default_probability=2.0)

    def test_undirected_edge_is_two_directed(self):
        graph = DiGraph()
        graph.add_undirected_edge("u", "v", 0.3)
        assert graph.has_edge("u", "v")
        assert graph.has_edge("v", "u")
        assert graph.number_of_edges() == 2

    def test_from_edges_directed(self):
        graph = DiGraph.from_edges([(0, 1), (1, 2)], p=0.4)
        assert graph.number_of_edges() == 2
        assert graph.edge_probability(0, 1) == 0.4

    def test_from_edges_undirected_with_isolated_nodes(self):
        graph = DiGraph.from_edges([(0, 1)], directed=False, nodes=[0, 1, 2])
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 2
        assert graph.out_degree(2) == 0


class TestQueries:
    def test_successors_and_predecessors(self, tiny_path):
        assert tiny_path.successors(1) == [2]
        assert tiny_path.predecessors(1) == [0]
        assert tiny_path.successors(3) == []

    def test_degrees(self, tiny_path):
        assert tiny_path.out_degree(0) == 1
        assert tiny_path.in_degree(0) == 0
        assert tiny_path.in_degree(3) == 1

    def test_unknown_node_raises(self, tiny_path):
        with pytest.raises(GraphError, match="not in the graph"):
            tiny_path.successors(99)

    def test_edge_probability_missing_edge(self, tiny_path):
        with pytest.raises(GraphError, match="does not exist"):
            tiny_path.edge_probability(0, 3)

    def test_edges_iteration(self, tiny_path):
        edges = sorted(tiny_path.edges())
        assert edges == [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]

    def test_remove_edge(self, tiny_path):
        tiny_path.remove_edge(0, 1)
        assert not tiny_path.has_edge(0, 1)
        assert tiny_path.number_of_edges() == 2
        with pytest.raises(GraphError):
            tiny_path.remove_edge(0, 1)


class TestIndexMapping:
    def test_roundtrip(self, tiny_path):
        for node in tiny_path.nodes():
            assert tiny_path.label_of(tiny_path.index_of(node)) == node

    def test_indices_of(self, tiny_path):
        idx = tiny_path.indices_of([3, 1])
        assert idx.tolist() == [3, 1]

    def test_label_out_of_range(self, tiny_path):
        with pytest.raises(GraphError, match="out of range"):
            tiny_path.label_of(10)


class TestNumericalExports:
    def test_edge_arrays(self):
        graph = DiGraph()
        graph.add_edge("a", "b", 0.2)
        graph.add_edge("b", "c", 0.7)
        src, dst, prob = graph.edge_arrays()
        assert src.shape == dst.shape == prob.shape == (2,)
        assert set(prob.tolist()) == {0.2, 0.7}

    def test_edge_arrays_cached_read_only_until_mutation(self):
        graph = DiGraph()
        graph.add_edge("a", "b", 0.2)
        first = graph.edge_arrays()
        assert all(a is b for a, b in zip(graph.edge_arrays(), first))
        for array in first:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        graph.add_edge("b", "c", 0.7)
        src, dst, prob = graph.edge_arrays()
        assert prob.tolist() == [0.2, 0.7]
        assert first[2].tolist() == [0.2]

    def test_group_labels_array(self):
        graph = DiGraph()
        graph.add_node("a", group="x")
        graph.add_node("b")
        assert graph.group_labels_array() == ["x", None]


class TestTransformations:
    def test_copy_is_independent(self, tiny_path):
        clone = tiny_path.copy()
        clone.add_edge(3, 0)
        assert not tiny_path.has_edge(3, 0)
        assert clone.number_of_edges() == tiny_path.number_of_edges() + 1

    def test_copy_preserves_groups(self):
        graph = DiGraph()
        graph.add_node("a", group="g")
        graph.add_edge("a", "b", 0.4)
        clone = graph.copy()
        assert clone.group_of("a") == "g"
        assert clone.edge_probability("a", "b") == 0.4

    def test_with_probability(self, tiny_path):
        reweighted = tiny_path.with_probability(0.5)
        assert reweighted.edge_probability(0, 1) == 0.5
        assert tiny_path.edge_probability(0, 1) == 1.0
        assert reweighted.number_of_edges() == tiny_path.number_of_edges()

    def test_subgraph(self, tiny_path):
        sub = tiny_path.subgraph([0, 1, 2])
        assert sub.number_of_nodes() == 3
        assert sub.has_edge(0, 1) and sub.has_edge(1, 2)
        assert not sub.has_edge(2, 3)

    def test_subgraph_unknown_node(self, tiny_path):
        with pytest.raises(GraphError, match="unknown nodes"):
            tiny_path.subgraph([0, 42])

    def test_reverse(self, tiny_path):
        reversed_graph = tiny_path.reverse()
        assert reversed_graph.has_edge(1, 0)
        assert not reversed_graph.has_edge(0, 1)
        assert reversed_graph.number_of_edges() == 3

    def test_repr(self, tiny_path):
        assert "n=4" in repr(tiny_path)
        assert "m=3" in repr(tiny_path)


class TestFreezeAndCopy:
    def graph(self):
        graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 0)], p=0.4)
        graph.set_group(0, "a")
        return graph

    def test_frozen_graph_refuses_every_mutation(self):
        from repro.graph.delta import GraphDelta

        graph = self.graph()
        graph.freeze()
        version = graph.version
        mutations = [
            lambda: graph.add_node(9),
            lambda: graph.add_node(0, group="b"),
            lambda: graph.add_edge(0, 2),
            lambda: graph.add_undirected_edge(1, 0),
            lambda: graph.remove_edge(0, 1),
            lambda: graph.set_group(1, "b"),
            lambda: graph.apply_delta(GraphDelta(removes=((0, 1),))),
        ]
        for mutate in mutations:
            with pytest.raises(GraphError, match="frozen"):
                mutate()
        assert graph.version == version
        assert graph.number_of_nodes() == 3 and graph.number_of_edges() == 3
        assert graph.add_node(0) == 0  # re-adding without a group is a no-op

    def test_copy_of_a_frozen_graph_is_mutable(self):
        graph = self.graph()
        graph.freeze()
        twin = graph.copy()
        assert not twin.frozen
        assert list(twin.edges()) == list(graph.edges())
        assert twin.nodes() == graph.nodes() and twin.group_of(0) == "a"
        twin.remove_edge(0, 1)
        assert graph.has_edge(0, 1) and not twin.has_edge(0, 1)
