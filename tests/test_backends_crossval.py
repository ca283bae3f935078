"""Cross-validation harness for the world ensemble.

Five ways to compute ``f_tau`` must agree:

- world ensembles built under the ``dense`` / ``sparse`` / ``lazy`` ids
  (three BFS chunk budgets, see ``tests/stores.py``) share the same
  sampled worlds, so they must agree **bit-for-bit**;
- the ensemble estimate must agree with :func:`exact_group_utilities`
  within Monte Carlo error;
- :func:`monte_carlo_utility` (the authors' estimator) must agree with
  the exact values within sampling error.

The graphs are randomized (seeded) Erdos–Renyi digraphs small enough
for exact enumeration, swept over deadlines including the ``0`` and
``math.inf`` boundaries and a fractional one.
"""

import math

import numpy as np
import pytest

from repro.graph.digraph import DiGraph
from repro.graph.groups import GroupAssignment
from repro.influence.exact import exact_group_utilities, exact_utility
from repro.influence.montecarlo import monte_carlo_group_utilities, monte_carlo_utility

from stores import STORES, build

DEADLINES = (0, 1, 2.5, 3, math.inf)


def random_instance(seed: int, n: int = 9, max_edges: int = 14):
    """A random digraph + 2-group split, small enough for ``exact``."""
    rng = np.random.default_rng(seed)
    graph = DiGraph(default_probability=0.5)
    labels = [f"v{i}" for i in range(n)]
    for i, label in enumerate(labels):
        graph.add_node(label, group="minority" if i % 3 == 0 else "majority")
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    rng.shuffle(pairs)
    edge_count = int(rng.integers(max_edges // 2, max_edges + 1))
    for i, j in pairs[:edge_count]:
        graph.add_edge(labels[i], labels[j], p=float(rng.uniform(0.2, 0.9)))
    return graph, GroupAssignment.from_graph(graph), labels


def ensembles_for(graph, assignment, n_worlds=60, seed=11, **kwargs):
    """One ensemble per build id, sharing the world-sampling seed."""
    return {
        store: build(graph, assignment, store, n_worlds=n_worlds, seed=seed, **kwargs)
        for store in STORES
    }


@pytest.mark.parametrize("instance_seed", [0, 1, 2, 3, 4])
class TestBackendsBitIdentical:
    """The three builds share worlds, so they must match exactly."""

    def test_state_and_utilities_identical(self, instance_seed):
        graph, assignment, labels = random_instance(instance_seed)
        ensembles = ensembles_for(graph, assignment)
        dense = ensembles["dense"]
        rng = np.random.default_rng(100 + instance_seed)
        seeds = list(rng.choice(labels, size=3, replace=False))
        for store in ("sparse", "lazy"):
            other = ensembles[store]
            s_ref, s_other = dense.state_for(seeds), other.state_for(seeds)
            np.testing.assert_array_equal(
                s_ref.best_time, s_other.best_time, err_msg=store
            )
            for deadline in DEADLINES:
                np.testing.assert_array_equal(
                    dense.group_utilities(s_ref, deadline),
                    other.group_utilities(s_other, deadline),
                    err_msg=f"{store} tau={deadline}",
                )

    def test_marginal_queries_identical(self, instance_seed):
        graph, assignment, labels = random_instance(instance_seed)
        ensembles = ensembles_for(graph, assignment)
        dense = ensembles["dense"]
        state_seeds = labels[:2]
        for store in ("sparse", "lazy"):
            other = ensembles[store]
            s_ref, s_other = dense.state_for(state_seeds), other.state_for(state_seeds)
            for position in range(dense.n_candidates):
                for deadline in (0, 2.5, math.inf):
                    np.testing.assert_array_equal(
                        dense.candidate_group_utilities(s_ref, position, deadline),
                        other.candidate_group_utilities(s_other, position, deadline),
                        err_msg=f"{store} pos={position} tau={deadline}",
                    )

    def test_discounted_utilities_identical(self, instance_seed):
        graph, assignment, labels = random_instance(instance_seed)
        ensembles = ensembles_for(graph, assignment)
        dense = ensembles["dense"]
        for store in ("sparse", "lazy"):
            other = ensembles[store]
            s_ref, s_other = dense.state_for(labels[:2]), other.state_for(labels[:2])
            np.testing.assert_array_equal(
                dense.group_utilities(s_ref, 3, discount=0.8),
                other.group_utilities(s_other, 3, discount=0.8),
                err_msg=store,
            )


@pytest.mark.parametrize("instance_seed", [0, 1, 2])
@pytest.mark.parametrize("store", STORES)
def test_ensemble_matches_exact(instance_seed, store):
    """Every store converges to the exact expectation (shared worlds
    mean one tolerance bound covers all three)."""
    graph, assignment, labels = random_instance(instance_seed)
    ensemble = build(graph, assignment, store, n_worlds=4000, seed=21)
    seeds = labels[:2]
    for deadline in DEADLINES:
        estimate = ensemble.utilities_for(seeds, deadline)
        exact = exact_group_utilities(graph, assignment, seeds, deadline)
        expected = np.asarray([exact[g] for g in ensemble.group_names])
        errors = ensemble.standard_errors(ensemble.state_for(seeds), deadline)
        tolerance = 5.0 * errors + 1e-9
        assert (np.abs(estimate - expected) <= tolerance).all(), (
            f"{store} tau={deadline}: {estimate} vs exact {expected} "
            f"(tolerance {tolerance})"
        )


@pytest.mark.parametrize("instance_seed", [0, 2])
def test_monte_carlo_matches_exact(instance_seed):
    graph, assignment, labels = random_instance(instance_seed)
    seeds = labels[:2]
    n = graph.number_of_nodes()
    for deadline in DEADLINES:
        expected = exact_utility(graph, seeds, deadline)
        estimate = monte_carlo_utility(
            graph, seeds, deadline, n_samples=3000, seed=31
        )
        # Counts are in [0, n]; 3000 samples bound the standard error
        # of the mean by n / (2 * sqrt(3000)) — use five of those.
        tolerance = 5.0 * n / (2.0 * math.sqrt(3000)) + 1e-9
        assert abs(estimate - expected) <= tolerance, (
            f"tau={deadline}: {estimate} vs exact {expected}"
        )


@pytest.mark.parametrize("store", STORES)
def test_monte_carlo_matches_ensemble_per_group(store):
    """The two estimators of the paper agree within sampling error."""
    graph, assignment, labels = random_instance(5)
    ensemble = build(graph, assignment, store, n_worlds=3000, seed=41)
    seeds = labels[:2]
    for deadline in (0, 2.5, math.inf):
        mc = monte_carlo_group_utilities(
            graph, assignment, seeds, deadline, n_samples=3000, seed=51
        )
        ens = ensemble.utilities_for(seeds, deadline)
        for value, group in zip(ens, ensemble.group_names):
            size = assignment.size(group)
            tolerance = 5.0 * size / (2.0 * math.sqrt(3000)) + 1e-9
            assert abs(value - mc[group]) <= tolerance, (
                f"{store} tau={deadline} group={group}: {value} vs {mc[group]}"
            )


class TestBoundaryDeadlines:
    """tau = 0 and tau = inf are exact on every store."""

    @pytest.mark.parametrize("store", STORES)
    def test_zero_deadline_counts_only_seeds(self, store):
        graph, assignment, labels = random_instance(7)
        ensemble = build(graph, assignment, store, n_worlds=20, seed=61)
        seeds = labels[:3]
        utilities = ensemble.utilities_for(seeds, 0)
        by_group = {g: 0 for g in ensemble.group_names}
        for s in seeds:
            by_group[assignment.group_of(s)] += 1
        expected = np.asarray([by_group[g] for g in ensemble.group_names], float)
        np.testing.assert_array_equal(utilities, expected)

    @pytest.mark.parametrize("store", STORES)
    def test_infinite_deadline_is_reachability(self, store):
        # p = 1 makes every world the full graph: utility at inf is the
        # deterministic reachable-set size.
        graph = DiGraph(default_probability=1.0)
        for i in range(6):
            graph.add_node(i, group="only")
        for i in range(5):
            graph.add_edge(i, i + 1)
        assignment = GroupAssignment.from_graph(graph)
        ensemble = build(graph, assignment, store, n_worlds=5, seed=71)
        assert ensemble.utilities_for([0], math.inf).tolist() == [6.0]
        assert ensemble.utilities_for([3], math.inf).tolist() == [3.0]
