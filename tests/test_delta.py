"""GraphDelta tests: validation, serialisation, atomic application,
and the mutate-then-rebuild property.

The property the incremental layer leans on: a graph mutated through
:meth:`DiGraph.apply_delta` is *indistinguishable* from a fresh graph
built directly to the same edge set — same labels, groups, edge
probabilities, and (with a common world seed) bit-identical sampled
live-edge worlds.  The version-keyed probability-matrix cache rides
along here too.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.errors import GraphError
from repro.graph.delta import GraphDelta
from repro.graph.digraph import DiGraph
from repro.graph.groups import GroupAssignment
from repro.influence.ensemble import WorldEnsemble

from stores import assert_same_world


def make_graph() -> DiGraph:
    """A small two-group graph with varied probabilities."""
    graph = DiGraph(default_probability=0.3)
    for node in ("a", "b", "c", "d"):
        graph.add_node(node, group="left")
    for node in ("x", "y", "z"):
        graph.add_node(node, group="right")
    graph.add_edge("a", "b", 0.9)
    graph.add_edge("b", "c", 0.5)
    graph.add_edge("c", "d")  # default 0.3
    graph.add_edge("a", "x", 0.2)
    graph.add_edge("x", "y", 0.8)
    graph.add_edge("y", "z", 0.6)
    graph.add_edge("d", "z", 0.4)
    return graph


class TestValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            GraphDelta(inserts=(("a", "a", 0.5),))
        with pytest.raises(GraphError, match="self-loop"):
            GraphDelta(removes=(("b", "b"),))

    def test_bad_probability_rejected(self):
        for bad in (-0.1, 1.5, float("nan")):
            with pytest.raises(GraphError):
                GraphDelta(inserts=(("a", "b", bad),))

    def test_reweight_probability_required(self):
        with pytest.raises(GraphError, match="must not be None"):
            GraphDelta(reweights=(("a", "b", None),))

    def test_malformed_entries_rejected(self):
        with pytest.raises(GraphError, match="triple"):
            GraphDelta(inserts=(("a", "b"),))
        with pytest.raises(GraphError, match="pair"):
            GraphDelta(removes=(("a", "b", 0.5),))

    def test_cross_op_duplicate_rejected(self):
        with pytest.raises(GraphError, match="more than one delta"):
            GraphDelta(inserts=(("a", "b", 0.5),), removes=(("a", "b"),))

    def test_within_op_duplicate_rejected(self):
        with pytest.raises(GraphError, match="more than one delta"):
            GraphDelta(reweights=(("a", "b", 0.5), ("a", "b", 0.6)))

    def test_counts(self):
        delta = GraphDelta(
            inserts=(("a", "b", 0.5),),
            removes=(("c", "d"),),
            reweights=(("x", "y", 0.1),),
        )
        assert delta.edge_count == 3
        assert not delta.is_empty
        assert GraphDelta().is_empty


class TestSerialisation:
    def test_json_round_trip(self):
        delta = GraphDelta(
            inserts=(("a", "b", None), ("b", "c", 0.25)),
            removes=(("x", "y"),),
            reweights=(("y", "z", 0.75),),
        )
        again = GraphDelta.from_json(delta.to_json())
        assert again == delta
        assert again.fingerprint() == delta.fingerprint()

    def test_fingerprint_distinguishes(self):
        a = GraphDelta(removes=(("a", "b"),))
        b = GraphDelta(removes=(("a", "c"),))
        assert a.fingerprint() != b.fingerprint()

    def test_unknown_fields_rejected(self):
        with pytest.raises(GraphError, match="unknown delta fields"):
            GraphDelta.from_dict({"inserts": [], "extra": 1})

    def test_invalid_json_rejected(self):
        with pytest.raises(GraphError, match="invalid delta JSON"):
            GraphDelta.from_json("{nope")
        with pytest.raises(GraphError, match="JSON object"):
            GraphDelta.from_json("[1, 2]")


class TestApplication:
    def test_unknown_node_rejected(self):
        graph = make_graph()
        delta = GraphDelta(inserts=(("a", "nope", 0.5),))
        with pytest.raises(GraphError, match="unknown nodes"):
            delta.validate_for(graph)

    def test_insert_existing_rejected(self):
        graph = make_graph()
        with pytest.raises(GraphError, match="use a\\s+reweight"):
            GraphDelta(inserts=(("a", "b", 0.5),)).validate_for(graph)

    def test_remove_missing_rejected(self):
        graph = make_graph()
        with pytest.raises(GraphError, match="cannot remove"):
            GraphDelta(removes=(("a", "z"),)).validate_for(graph)

    def test_reweight_missing_rejected(self):
        graph = make_graph()
        with pytest.raises(GraphError, match="cannot reweight"):
            GraphDelta(reweights=(("a", "z", 0.5),)).validate_for(graph)

    def test_rejected_delta_is_a_no_op(self):
        """Validate-then-apply: a delta with one bad op mutates nothing."""
        graph = make_graph()
        version = graph.version
        edges = sorted(graph.edges())
        bad = GraphDelta(
            removes=(("a", "b"),),  # valid on its own
            inserts=(("a", "z", 0.5), ("a", "nope", 0.5)),  # second is invalid
        )
        with pytest.raises(GraphError):
            graph.apply_delta(bad)
        assert graph.version == version
        assert sorted(graph.edges()) == edges

    def test_apply_semantics_and_version(self):
        graph = make_graph()
        version = graph.version
        delta = GraphDelta(
            inserts=(("b", "x", None),),  # None -> default_probability
            removes=(("c", "d"),),
            reweights=(("a", "b", 0.05),),
        )
        graph.apply_delta(delta)
        assert graph.version > version
        assert graph.edge_probability("b", "x") == graph.default_probability
        assert not graph.has_edge("c", "d")
        assert graph.edge_probability("a", "b") == 0.05

    def test_empty_delta_still_bumps_nothing_but_validates(self):
        graph = make_graph()
        version = graph.version
        graph.apply_delta(GraphDelta())
        # no operations -> no edge mutations -> version untouched
        assert graph.version == version
        assert graph.number_of_edges() == 7


def fresh_equivalent(mutated: DiGraph) -> DiGraph:
    """A graph built from scratch to ``mutated``'s current state."""
    fresh = DiGraph(default_probability=mutated.default_probability)
    for node in mutated.nodes():
        fresh.add_node(node, group=mutated.group_of(node))
    for u, v, p in mutated.edges():
        fresh.add_edge(u, v, p)
    return fresh


def assert_graphs_equivalent(mutated: DiGraph, fresh: DiGraph) -> None:
    assert mutated.nodes() == fresh.nodes()
    assert [mutated.group_of(n) for n in mutated.nodes()] == [
        fresh.group_of(n) for n in fresh.nodes()
    ]
    assert mutated.number_of_edges() == fresh.number_of_edges()
    assert sorted(mutated.edges()) == sorted(fresh.edges())


def assert_worlds_identical(g1: DiGraph, g2: DiGraph, seed: int = 11) -> None:
    """Sampled live-edge worlds are bit-identical under a common seed."""
    a1 = GroupAssignment.from_graph(g1)
    a2 = GroupAssignment.from_graph(g2)
    e1 = WorldEnsemble(g1, a1, n_worlds=24, seed=seed)
    e2 = WorldEnsemble(g2, a2, n_worlds=24, seed=seed)
    for w1, w2 in zip(e1.worlds, e2.worlds):
        assert_same_world(w1, w2)


class TestRebuildEquivalence:
    def test_mutate_then_rebuild_matches_fresh(self):
        graph = make_graph()
        delta = GraphDelta(
            inserts=(("b", "y", 0.45), ("z", "a", 0.15)),
            removes=(("a", "x"),),
            reweights=(("x", "y", 0.95),),
        )
        graph.apply_delta(delta)
        fresh = fresh_equivalent(graph)
        assert_graphs_equivalent(graph, fresh)
        assert_worlds_identical(graph, fresh)

    def test_remove_then_add_overwrite(self):
        """Removing an edge and re-inserting it (two deltas) lands on
        exactly the state of a fresh graph with the new probability."""
        graph = make_graph()
        graph.apply_delta(GraphDelta(removes=(("a", "b"),)))
        graph.apply_delta(GraphDelta(inserts=(("a", "b", 0.12),)))
        assert graph.edge_probability("a", "b") == 0.12
        fresh = fresh_equivalent(graph)
        assert_graphs_equivalent(graph, fresh)
        assert_worlds_identical(graph, fresh)

    def test_random_delta_sequences(self):
        """Property-style: random delta batches over a random graph
        always land on the fresh-built equivalent."""
        rng = np.random.default_rng(2022)
        for trial in range(5):
            n = 14
            graph = DiGraph(default_probability=0.2)
            for i in range(n):
                graph.add_node(i, group="g0" if i % 2 else "g1")
            possible = [(u, v) for u in range(n) for v in range(n) if u != v]
            rng.shuffle(possible)
            for u, v in possible[:40]:
                graph.add_edge(u, v, float(rng.uniform(0.05, 0.95)))
            for _ in range(3):
                present = [(u, v) for u, v, _ in graph.edges()]
                absent = [e for e in possible if not graph.has_edge(*e)]
                rng.shuffle(present)
                rng.shuffle(absent)
                delta = GraphDelta(
                    removes=tuple(present[:2]),
                    reweights=tuple(
                        (u, v, float(rng.uniform(0.05, 0.95)))
                        for u, v in present[2:4]
                    ),
                    inserts=tuple(
                        (u, v, float(rng.uniform(0.05, 0.95)))
                        for u, v in absent[:2]
                    ),
                )
                graph.apply_delta(delta)
            fresh = fresh_equivalent(graph)
            assert_graphs_equivalent(graph, fresh)
            assert_worlds_identical(graph, fresh, seed=100 + trial)


class TestMatrixCache:
    def test_reverse_matches_transpose_and_caches(self):
        graph = make_graph()
        reverse = graph.predecessor_arrays()
        assert graph.predecessor_arrays() is reverse
        src, dst, prob = graph.edge_arrays()
        n = graph.number_of_nodes()
        expected = sparse.csr_matrix((prob, (src, dst)), shape=(n, n)).T.tocsr()
        for mine, theirs in zip(reverse, (expected.indptr, expected.indices, expected.data)):
            np.testing.assert_array_equal(mine, theirs)
        graph.apply_delta(GraphDelta(removes=(("d", "z"),)))
        again = graph.predecessor_arrays()
        assert again is not reverse
        assert again[1].size == reverse[1].size - 1
