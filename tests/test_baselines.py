"""Unit tests for the heuristic seeding baselines."""

import pytest

from repro.errors import OptimizationError
from repro.api.datasets import build_dataset
from repro.baselines.heuristics import (
    _pagerank as pagerank,
    group_proportional_degree_seeds,
    pagerank_seeds,
    random_seeds,
    top_degree_seeds,
)
from repro.graph.digraph import DiGraph
from repro.graph.generators import complete_graph, star_graph, two_block_sbm
from repro.graph.groups import GroupAssignment


@pytest.fixture(scope="module")
def sbm():
    return two_block_sbm(60, 0.7, 0.2, 0.02, activation_probability=0.1, seed=30)


class TestRandomSeeds:
    def test_size_and_uniqueness(self, sbm):
        graph, _ = sbm
        seeds = random_seeds(graph, 10, seed=0)
        assert len(seeds) == 10
        assert len(set(seeds)) == 10

    def test_determinism(self, sbm):
        graph, _ = sbm
        assert random_seeds(graph, 5, seed=3) == random_seeds(graph, 5, seed=3)

    def test_candidate_restriction(self, sbm):
        graph, _ = sbm
        pool = graph.nodes()[:8]
        seeds = random_seeds(graph, 4, candidates=pool, seed=0)
        assert set(seeds) <= set(pool)

    def test_validation(self, sbm):
        graph, _ = sbm
        with pytest.raises(OptimizationError):
            random_seeds(graph, 0)
        with pytest.raises(OptimizationError):
            random_seeds(graph, 10_000)


class TestTopDegree:
    def test_hub_first(self):
        graph = star_graph(6)
        assert top_degree_seeds(graph, 1) == [0]

    def test_deterministic_tie_breaking(self, sbm):
        graph, _ = sbm
        assert top_degree_seeds(graph, 7) == top_degree_seeds(graph, 7)

    def test_descending_degree(self, sbm):
        graph, _ = sbm
        seeds = top_degree_seeds(graph, 10)
        degrees = [graph.out_degree(s) for s in seeds]
        assert degrees == sorted(degrees, reverse=True)


class TestPagerankSeeds:
    def test_size(self, sbm):
        graph, _ = sbm
        assert len(pagerank_seeds(graph, 5)) == 5

    def test_hub_found(self):
        graph = star_graph(6).reverse()  # leaves point at the hub
        assert pagerank_seeds(graph, 1) == [0]

    def test_synthetic_seeds_pinned(self):
        # The top-10 of the default synthetic graph (seed 0) as the
        # per-node power iteration over the adjacency dicts ranked it.
        # The edge-array iteration adds in the same order, so its
        # scores, and hence these seeds, must match bit for bit.
        graph, _ = build_dataset("synthetic", {}, 0)
        assert pagerank_seeds(graph, 10) == [
            226, 96, 36, 26, 145, 329, 389, 184, 342, 365
        ]

    def test_bulk_graph_keeps_only_edge_arrays(self):
        # The generators build through DiGraph.from_edge_arrays.
        graph, _ = build_dataset("synthetic", {"n": 80}, 0)
        pagerank_seeds(graph, 5)
        assert graph._dicts is None


class TestPagerank:
    def test_sums_to_one(self):
        graph = complete_graph(5)
        ranks = pagerank(graph)
        assert sum(ranks.values()) == pytest.approx(1.0)

    def test_symmetric_graph_uniform(self):
        graph = complete_graph(4)
        ranks = pagerank(graph)
        values = list(ranks.values())
        assert max(values) - min(values) < 1e-8

    def test_sink_handling(self):
        # Node 2 is a sink (dangling); PageRank must still normalise.
        graph = DiGraph()
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        ranks = pagerank(graph)
        assert sum(ranks.values()) == pytest.approx(1.0)
        assert ranks[2] > ranks[0]

    def test_hub_attracts_rank(self):
        graph = star_graph(4).reverse()  # leaves point at the hub
        ranks = pagerank(graph)
        assert ranks[0] == max(ranks.values())

    def test_invalid_damping(self, tiny_path):
        with pytest.raises(ValueError):
            pagerank(tiny_path, damping=1.0)


class TestGroupProportional:
    def test_proportional_quota(self, sbm):
        graph, assignment = sbm
        seeds = group_proportional_degree_seeds(graph, assignment, 10)
        groups = [assignment.group_of(s) for s in seeds]
        # 70:30 split on 10 seeds -> 7 and 3.
        assert groups.count("G1") == 7
        assert groups.count("G2") == 3

    def test_backfill_when_group_exhausted(self):
        graph, assignment = two_block_sbm(
            10, 0.8, 0.5, 0.5, activation_probability=0.1, seed=1
        )
        # Budget equals population: everything is selected.
        seeds = group_proportional_degree_seeds(graph, assignment, 10)
        assert len(seeds) == 10
        assert len(set(seeds)) == 10

    def test_takes_top_degree_within_group(self, sbm):
        graph, assignment = sbm
        seeds = group_proportional_degree_seeds(graph, assignment, 10)
        g2_seeds = [s for s in seeds if assignment.group_of(s) == "G2"]
        g2_all = sorted(
            assignment.members("G2"),
            key=lambda n: (-graph.out_degree(n), repr(n)),
        )
        assert g2_seeds == g2_all[: len(g2_seeds)]
