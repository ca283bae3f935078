"""Unit tests for live-edge world sampling.

The critical property is the Kempe-et-al. equivalence: BFS distance in
a sampled world is distributed like the IC activation time.  The
equivalence test here compares the two estimators head-on.
"""

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.diffusion.models import simulate_ic
from repro.diffusion.worlds import (
    UNREACHABLE,
    keyed_edge_uniforms,
    sample_ic_world,
    sample_lt_world,
    sample_worlds,
)
from repro.graph.digraph import DiGraph
from repro.graph.generators import path_graph, star_graph

from stores import assert_same_world


class TestSampleIcWorld:
    def test_all_edges_kept_when_certain(self, tiny_path):
        world = sample_ic_world(tiny_path, seed=0)
        assert world.kept_edge_count() == 3

    def test_no_edges_kept_when_zero(self):
        graph = path_graph(4, activation_probability=0.0)
        world = sample_ic_world(graph, seed=0)
        assert world.kept_edge_count() == 0

    def test_keep_rate_matches_probability(self):
        graph = star_graph(4000, activation_probability=0.3)
        world = sample_ic_world(graph, seed=1)
        assert 0.25 < world.kept_edge_count() / 4000 < 0.35

    def test_determinism(self):
        graph = star_graph(50, activation_probability=0.5)
        a = sample_ic_world(graph, seed=3)
        b = sample_ic_world(graph, seed=3)
        assert_same_world(a, b)


class TestKeyedEdgeUniforms:
    SRC = np.array([0, 3, 7, 2**20])
    DST = np.array([1, 0, 5, 9])
    N = 2**21
    #: SplitMix64 coins pinned as hex floats: worlds sampled, repaired
    #: and compared against committed answers all rest on these bits.
    PINNED = {
        0: ["0x1.b9e279aa86e58p-2", "0x1.843bdbc9fb562p-1",
            "0x1.c92ce5a7de26bp-1", "0x1.711eba36d4155p-1"],
        12345: ["0x1.a376e72fb89fcp-3", "0x1.61caefdf2beadp-1",
                "0x1.7ffbead080152p-2", "0x1.457c5d876236ap-2"],
        2**64 - 1: ["0x1.d33ff0cfb7ed0p-1", "0x1.25d537fa2a1fap-1",
                    "0x1.a3999b7244ffcp-1", "0x1.a0040d47b73bep-1"],
    }

    def test_pinned_values(self):
        for key, expected in self.PINNED.items():
            coins = keyed_edge_uniforms(key, self.SRC, self.DST, self.N)
            assert [float(c).hex() for c in coins] == expected

    def test_key_array_matches_one_call_per_key(self):
        keys = np.array(list(self.PINNED), dtype=np.uint64)
        coins = keyed_edge_uniforms(keys, self.SRC, self.DST, self.N)
        assert coins.shape == (keys.size, self.SRC.size)
        for row, key in zip(coins, self.PINNED):
            np.testing.assert_array_equal(
                row, keyed_edge_uniforms(key, self.SRC, self.DST, self.N)
            )


class TestDistances:
    def test_path_distances(self, tiny_path):
        world = sample_ic_world(tiny_path, seed=0)
        distances = world.distances_from([0])
        assert distances.tolist() == [[0, 1, 2, 3]]

    def test_unreachable_marker(self, tiny_path):
        world = sample_ic_world(tiny_path, seed=0)
        distances = world.distances_from([2])
        assert distances[0, 0] == UNREACHABLE
        assert distances[0, 3] == 1

    def test_multi_source(self, tiny_path):
        world = sample_ic_world(tiny_path, seed=0)
        distances = world.distances_from([0, 3])
        assert distances.shape == (2, 4)

    def test_empty_sources(self, tiny_path):
        world = sample_ic_world(tiny_path, seed=0)
        assert world.distances_from([]).shape == (0, 4)

    def test_out_of_range_source(self, tiny_path):
        world = sample_ic_world(tiny_path, seed=0)
        with pytest.raises(EstimationError):
            world.distances_from([99])

    def test_reachable_within(self, tiny_path):
        world = sample_ic_world(tiny_path, seed=0)
        mask = world.reachable_within([0], deadline=2)
        assert mask.tolist() == [True, True, True, False]


class TestSampleWorlds:
    def test_count_and_determinism(self, tiny_path):
        worlds_a = sample_worlds(tiny_path, 5, seed=1)
        worlds_b = sample_worlds(tiny_path, 5, seed=1)
        assert len(worlds_a) == 5
        for wa, wb in zip(worlds_a, worlds_b):
            assert_same_world(wa, wb)

    def test_invalid_count(self, tiny_path):
        with pytest.raises(EstimationError):
            sample_worlds(tiny_path, 0)

    def test_invalid_model(self, tiny_path):
        with pytest.raises(EstimationError, match="model"):
            sample_worlds(tiny_path, 2, model="sir")


class TestLtWorld:
    def test_at_most_one_in_edge(self):
        graph = DiGraph(default_probability=0.4)
        for i in range(6):
            graph.add_node(i)
        for i in range(5):
            graph.add_edge(i, 5)
        for s in range(20):
            world = sample_lt_world(graph, seed=s)
            in_degree = np.bincount(world.indices, minlength=world.n)
            assert in_degree[5] <= 1

    def test_full_weight_always_kept(self, tiny_path):
        world = sample_lt_world(tiny_path, seed=0)
        assert world.kept_edge_count() == 3


class TestLiveEdgeEquivalence:
    """f_tau estimated by worlds must match forward simulation."""

    def test_star_graph_activation_probability(self):
        graph = star_graph(300, activation_probability=0.4)
        n_samples = 400
        sim_total = sum(
            simulate_ic(graph, [0], seed=s).count(deadline=1)
            for s in range(n_samples)
        ) / n_samples
        world_total = sum(
            world.reachable_within([0], 1).sum()
            for world in sample_worlds(graph, n_samples, seed=9)
        ) / n_samples
        assert sim_total == pytest.approx(world_total, rel=0.1)

    def test_two_hop_compound_probability(self):
        # P(node 2 active by t=2) = p^2 on a path.
        graph = path_graph(3, activation_probability=0.5)
        n_samples = 2000
        hits = sum(
            world.reachable_within([0], 2)[2]
            for world in sample_worlds(graph, n_samples, seed=4)
        )
        assert hits / n_samples == pytest.approx(0.25, abs=0.04)

    def test_deadline_truncation_matches_simulation(self):
        graph = path_graph(6, activation_probability=0.8)
        n_samples = 1500
        for deadline in (1, 3):
            sim = sum(
                simulate_ic(graph, [0], seed=s).count(deadline=deadline)
                for s in range(n_samples)
            ) / n_samples
            worlds = sum(
                world.reachable_within([0], deadline).sum()
                for world in sample_worlds(graph, n_samples, seed=11)
            ) / n_samples
            assert sim == pytest.approx(worlds, rel=0.07)
