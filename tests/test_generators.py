"""Unit tests for the graph generators."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    _triangle_unrank,
    barabasi_albert,
    block_model_with_edge_counts,
    complete_graph,
    erdos_renyi,
    path_graph,
    random_groups,
    ring_graph,
    star_graph,
    stochastic_block_model,
    two_block_sbm,
    weighted_block_model,
)

from graphstats import block_edge_counts, homophily


class TestDeterministicShapes:
    def test_path(self):
        graph = path_graph(5)
        assert graph.number_of_nodes() == 5
        assert graph.number_of_edges() == 4
        assert graph.has_edge(0, 1) and not graph.has_edge(1, 0)

    def test_star(self):
        graph = star_graph(4)
        assert graph.number_of_nodes() == 5
        assert graph.out_degree(0) == 4
        assert graph.in_degree(0) == 0

    def test_complete(self):
        graph = complete_graph(4)
        assert graph.number_of_edges() == 4 * 3

    def test_ring(self):
        graph = ring_graph(5)
        assert graph.number_of_edges() == 10
        assert graph.out_degree(0) == 2

    def test_bad_sizes(self):
        with pytest.raises(ConfigError):
            path_graph(0)
        with pytest.raises(ConfigError):
            ring_graph(2)
        with pytest.raises(ConfigError):
            star_graph(-1)
        with pytest.raises(ConfigError):
            complete_graph(0)


class TestErdosRenyi:
    def test_determinism(self):
        a = erdos_renyi(30, 0.2, seed=7)
        b = erdos_renyi(30, 0.2, seed=7)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_edge_count_within_expectation(self):
        graph = erdos_renyi(100, 0.1, seed=0)
        expected = 100 * 99 / 2 * 0.1
        ties = graph.number_of_edges() / 2
        assert 0.6 * expected < ties < 1.4 * expected

    def test_extremes(self):
        assert erdos_renyi(20, 0.0, seed=0).number_of_edges() == 0
        assert erdos_renyi(10, 1.0, seed=0).number_of_edges() == 90

    def test_bad_probability(self):
        with pytest.raises(ConfigError):
            erdos_renyi(10, 1.5)


class TestSBM:
    def test_block_sizes_and_groups(self):
        graph, assignment = stochastic_block_model(
            [30, 20], 0.3, 0.02, seed=1
        )
        assert graph.number_of_nodes() == 50
        assert assignment.size("G1") == 30
        assert assignment.size("G2") == 20

    def test_homophily_dominates(self):
        graph, assignment = stochastic_block_model(
            [50, 50], 0.3, 0.01, seed=2
        )
        assert homophily(graph, assignment) > 0.8

    def test_two_block_majority_fraction(self):
        graph, assignment = two_block_sbm(100, 0.7, 0.1, 0.01, seed=3)
        assert assignment.size("G1") == 70
        assert assignment.size("G2") == 30

    def test_two_block_invalid_fraction(self):
        with pytest.raises(ConfigError):
            two_block_sbm(100, 1.2, 0.1, 0.01)

    def test_custom_group_names(self):
        _, assignment = stochastic_block_model(
            [5, 5], 0.5, 0.1, group_names=["left", "right"], seed=0
        )
        assert set(assignment.groups) == {"left", "right"}

    def test_group_names_length_mismatch(self):
        with pytest.raises(ConfigError):
            stochastic_block_model([5, 5], 0.5, 0.1, group_names=["only-one"])

    def test_activation_probability_applied(self):
        graph, _ = stochastic_block_model(
            [10, 10], 0.5, 0.5, activation_probability=0.42, seed=0
        )
        u, v, p = next(iter(graph.edges()))
        assert p == 0.42


class TestExactCountBlockModel:
    def test_exact_counts(self):
        counts = np.array([[10, 5], [5, 7]])
        graph, assignment = block_model_with_edge_counts(
            [10, 8], counts, activation_probability=0.1, seed=0
        )
        directed = block_edge_counts(graph, assignment)
        # Each within-block tie contributes 2 directed edges to the
        # diagonal; each cross tie contributes 1 to [0,1] and 1 to [1,0].
        assert directed[0, 0] == 2 * 10
        assert directed[1, 1] == 2 * 7
        assert directed[0, 1] == 5 and directed[1, 0] == 5

    def test_over_capacity_rejected(self):
        counts = np.array([[100, 0], [0, 0]])
        with pytest.raises(ConfigError, match="admit"):
            block_model_with_edge_counts([5, 5], counts, 0.1, seed=0)

    def test_asymmetric_rejected(self):
        counts = np.array([[0, 1], [2, 0]])
        with pytest.raises(ConfigError, match="symmetric"):
            block_model_with_edge_counts([5, 5], counts, 0.1)

    def test_determinism(self):
        counts = np.array([[6, 3], [3, 4]])
        a, _ = block_model_with_edge_counts([8, 6], counts, 0.1, seed=5)
        b, _ = block_model_with_edge_counts([8, 6], counts, 0.1, seed=5)
        assert sorted(a.edges()) == sorted(b.edges())


class TestTriangleUnrank:
    def test_bijection(self):
        n = 9
        total = n * (n - 1) // 2
        us, vs = _triangle_unrank(np.arange(total), n)
        pairs = set(zip(us.tolist(), vs.tolist()))
        assert len(pairs) == total
        assert all(0 <= u < v < n for u, v in pairs)

    def test_matches_enumeration_order(self):
        n = 5
        expected = [(u, v) for u in range(n) for v in range(u + 1, n)]
        us, vs = _triangle_unrank(np.arange(len(expected)), n)
        assert list(zip(us.tolist(), vs.tolist())) == expected


class TestWeightedBlockModel:
    def test_exact_counts_preserved(self):
        counts = np.array([[20, 10], [10, 15]])
        graph, assignment = weighted_block_model(
            [15, 12], counts, 0.1, weight_exponents=[1.0, 0.0], seed=0
        )
        directed = block_edge_counts(graph, assignment)
        assert directed[0, 0] == 2 * 20
        assert directed[1, 1] == 2 * 15
        assert directed[0, 1] == 10 and directed[1, 0] == 10

    def test_skew_creates_hubs(self):
        counts = np.array([[200, 0], [0, 200]])
        graph, assignment = weighted_block_model(
            [50, 50], counts, 0.1, weight_exponents=[1.2, 0.0], seed=0
        )
        # Generators emit each tie as two directed edges, so out-degree
        # is half the total degree; the comparison is scale-free.
        degrees = graph.out_degrees()
        masks = assignment.masks(graph)
        skewed_max = degrees[masks[0]].max()
        uniform_max = degrees[masks[1]].max()
        assert skewed_max > 1.5 * uniform_max

    def test_zero_exponent_matches_uniform_stats(self):
        counts = np.array([[30]])
        graph, _ = weighted_block_model(
            [20], counts, 0.1, weight_exponents=[0.0], seed=1
        )
        assert graph.number_of_edges() == 60

    def test_pair_exponent_override(self):
        counts = np.array([[0, 120], [120, 0]])
        graph, assignment = weighted_block_model(
            [30, 30],
            counts,
            0.1,
            weight_exponents=[1.5, 1.5],
            pair_exponents={(0, 1): (0.0, 0.0)},
            seed=0,
        )
        # Generators emit each tie as two directed edges, so out-degree
        # is half the total degree; the comparison is scale-free while
        # the mean (240 edges / 60 nodes = 4) stays above the floor of 1.
        degrees = graph.out_degrees()
        # Uniform cross edges: no mega hub despite the heavy exponents.
        assert degrees.max() <= 4 * max(degrees.mean(), 1)

    def test_validation(self):
        counts = np.array([[2]])
        with pytest.raises(ConfigError):
            weighted_block_model([5], counts, 0.1, weight_exponents=[-1.0])
        with pytest.raises(ConfigError):
            weighted_block_model([5], counts, 0.1, weight_exponents=[0.0, 0.0])
        with pytest.raises(ConfigError):
            weighted_block_model(
                [5], counts, 0.1, weight_exponents=[0.0],
                pair_exponents={(0, 3): (0.0, 0.0)},
            )

    def test_saturation_fallback_completes(self):
        # Request nearly all pairs with heavy weights: the fallback
        # must still deliver the exact count.
        counts = np.array([[44]])
        graph, _ = weighted_block_model(
            [10], counts, 0.1, weight_exponents=[2.0], seed=0
        )
        assert graph.number_of_edges() == 88


class TestBarabasiAlbert:
    def test_size_and_hubs(self):
        graph = barabasi_albert(60, 2, seed=0)
        assert graph.number_of_nodes() == 60
        # Generators emit each tie as two directed edges, so out-degree
        # is half the total degree; the comparison is scale-free.
        degrees = graph.out_degrees()
        assert degrees.max() > 3 * degrees.mean()

    def test_validation(self):
        with pytest.raises(ConfigError):
            barabasi_albert(5, 0)
        with pytest.raises(ConfigError):
            barabasi_albert(3, 3)


class TestRandomGroups:
    def test_fraction_rounding(self):
        graph = erdos_renyi(10, 0.3, seed=0)
        assignment = random_groups(graph, [0.5, 0.5], seed=1)
        assert assignment.sizes().sum() == 10

    def test_updates_node_attributes(self):
        graph = erdos_renyi(6, 0.5, seed=0)
        assignment = random_groups(graph, [0.5, 0.5], seed=2)
        for node in graph.nodes():
            assert graph.group_of(node) == assignment.group_of(node)

    def test_bad_fractions(self):
        graph = erdos_renyi(6, 0.5, seed=0)
        with pytest.raises(ConfigError):
            random_groups(graph, [0.5, 0.3])
        with pytest.raises(ConfigError):
            random_groups(graph, [1.5, -0.5])
