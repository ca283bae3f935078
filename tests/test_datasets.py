"""Unit tests for the dataset builders (synthetic + surrogates)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.datasets.example import BLUE, RED, illustrative_graph
from repro.datasets.facebook_snap import (
    COMMUNITY_SIZES,
    TOTAL_EDGES as FB_EDGES,
    TOTAL_NODES as FB_NODES,
    facebook_snap_surrogate,
)
from repro.datasets.instagram import (
    candidate_pool,
    instagram_surrogate,
)
from repro.datasets.rice import (
    TOTAL_EDGES as RICE_EDGES,
    TOTAL_NODES as RICE_NODES,
    V1_NODES,
    V1_V2_ACROSS,
    V1_WITHIN,
    V2_NODES,
    V2_WITHIN,
    rice_facebook_surrogate,
)
from repro.datasets.synthetic import SyntheticConfig, default_synthetic, synthetic_sbm

from graphstats import block_edge_counts, homophily, hop_distance


class TestIllustrativeExample:
    def test_paper_dimensions(self):
        graph, assignment = illustrative_graph()
        assert graph.number_of_nodes() == 38
        assert assignment.size(BLUE) == 26
        assert assignment.size(RED) == 12

    def test_activation_probability(self):
        graph, _ = illustrative_graph()
        assert graph.edge_probability("a", "a1") == 0.7

    def test_minority_behind_long_path(self):
        graph, _ = illustrative_graph()
        # Nearest red node is strictly beyond deadline tau=2.
        assert hop_distance(graph, "a", "c") == 3

    def test_blue_hubs_most_connected(self):
        graph, _ = illustrative_graph()
        degrees = {n: graph.out_degree(n) for n in graph.nodes()}
        top_two = sorted(degrees, key=lambda n: -degrees[n])[:2]
        assert set(top_two) == {"a", "b"}


class TestSynthetic:
    def test_default_parameters(self):
        graph, assignment = default_synthetic(seed=0)
        assert graph.number_of_nodes() == 500
        assert assignment.size("G1") == 350
        assert assignment.size("G2") == 150
        assert graph.default_probability == 0.05

    def test_edge_count_in_paper_ballpark(self):
        # Paper's draw had 3606 directed edges; expectation is ~3670.
        graph, _ = default_synthetic(seed=0)
        assert 3000 < graph.number_of_edges() < 4400

    def test_config_build_deterministic(self):
        config = SyntheticConfig()
        a, _ = config.build(seed=5)
        b, _ = config.build(seed=5)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_synthetic_sbm_overrides(self):
        graph, assignment = synthetic_sbm(n=100, majority_fraction=0.6, seed=0)
        assert assignment.size("G1") == 60


class TestRiceSurrogate:
    @pytest.fixture(scope="class")
    def dataset(self):
        return rice_facebook_surrogate(seed=0)

    def test_reported_totals(self, dataset):
        graph, _ = dataset
        assert graph.number_of_nodes() == RICE_NODES
        assert graph.number_of_edges() == 2 * RICE_EDGES

    def test_reported_block_counts(self, dataset):
        graph, assignment = dataset
        counts = block_edge_counts(graph, assignment)
        i1 = assignment.groups.index("V1")
        i2 = assignment.groups.index("V2")
        assert counts[i1, i1] == 2 * V1_WITHIN
        assert counts[i2, i2] == 2 * V2_WITHIN
        assert counts[i1, i2] == V1_V2_ACROSS

    def test_group_sizes(self, dataset):
        _, assignment = dataset
        assert assignment.size("V1") == V1_NODES
        assert assignment.size("V2") == V2_NODES

    # Ties are two directed edges, so out-degree is half the total
    # degree; both comparisons below are scale-free.
    def test_v1_hubs_dominate(self, dataset):
        graph, assignment = dataset
        degrees = graph.out_degrees()
        masks = assignment.masks(graph)
        v1_row = assignment.groups.index("V1")
        v2_row = assignment.groups.index("V2")
        assert degrees[masks[v1_row]].max() > degrees[masks[v2_row]].max()

    def test_connectivity_gap(self, dataset):
        graph, assignment = dataset
        degrees = graph.out_degrees()
        masks = assignment.masks(graph)
        v1 = degrees[masks[assignment.groups.index("V1")]].mean()
        v2 = degrees[masks[assignment.groups.index("V2")]].mean()
        assert v1 > 1.5 * v2


class TestInstagramSurrogate:
    def test_scaled_statistics(self):
        graph, assignment = instagram_surrogate(scale=0.01, seed=0)
        n = graph.number_of_nodes()
        assert 5000 < n < 6000
        male_fraction = assignment.size("male") / n
        assert male_fraction == pytest.approx(0.455, abs=0.01)
        # Average degree of the original reported blocks ~1.9.
        assert 1.0 < graph.number_of_edges() / n < 3.0

    def test_invalid_scale(self):
        with pytest.raises(ConfigError):
            instagram_surrogate(scale=0.0)
        with pytest.raises(ConfigError):
            instagram_surrogate(scale=1.5)

    def test_candidate_pool(self):
        graph, _ = instagram_surrogate(scale=0.01, seed=0)
        pool = candidate_pool(graph, size=100, seed=1)
        assert len(pool) == 100
        assert len(set(pool)) == 100

    def test_candidate_pool_default_scales(self):
        graph, _ = instagram_surrogate(scale=0.01, seed=0)
        pool = candidate_pool(graph, scale=0.01, seed=1)
        assert 50 <= len(pool) <= graph.number_of_nodes()

    def test_candidate_pool_validation(self):
        graph, _ = instagram_surrogate(scale=0.005, seed=0)
        with pytest.raises(ConfigError):
            candidate_pool(graph, size=10_000_000)


class TestFacebookSnapSurrogate:
    @pytest.fixture(scope="class")
    def dataset(self):
        return facebook_snap_surrogate(seed=0)

    def test_reported_totals(self, dataset):
        graph, _ = dataset
        assert graph.number_of_nodes() == FB_NODES
        assert graph.number_of_edges() == 2 * FB_EDGES

    def test_planted_community_sizes(self, dataset):
        _, assignment = dataset
        assert sorted(assignment.sizes().tolist()) == sorted(COMMUNITY_SIZES)

    def test_strong_modularity(self, dataset):
        graph, assignment = dataset
        assert homophily(graph, assignment) > 0.85

    def test_invalid_homophily(self):
        with pytest.raises(ConfigError):
            facebook_snap_surrogate(homophily=1.0)
