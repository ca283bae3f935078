"""Solver-level build equivalence: identical seed sequences everywhere.

How the reach index was built (see ``tests/stores.py``: the BFS chunk
budget behind each id) must be invisible to the solvers:
``lazy_greedy`` / ``plain_greedy`` and the budget/cover solvers have
deterministic tie-breaking (lowest candidate position wins), so under
shared worlds every build must produce *identical* seed sequences — not
merely close utilities.  The bundled illustrative example pins the
expected sequences as regression values; the paper-scale synthetic SBM
checks the same identity where the index's memory win is real.
"""

import math

import numpy as np
import pytest

from repro.datasets.example import illustrative_graph
from repro.datasets.synthetic import default_synthetic
from repro.influence.ensemble import WorldEnsemble
from repro.core.budget import solve_fair_tcim_budget, solve_tcim_budget
from repro.core.cover import solve_fair_tcim_cover, solve_tcim_cover
from repro.core.greedy import lazy_greedy, plain_greedy
from repro.core.objectives import ConcaveSumObjective, TotalInfluenceObjective

from stores import STORES, build


#: Regression pins on the bundled example (n_worlds=120, world seed 5),
#: under the keyed per-(world, edge) IC sampler.  If these change,
#: common-random-numbers determinism broke somewhere.
PINNED_P1_SEEDS = ["a", "b", "r8", "r3"]
PINNED_P4_SEEDS = ["e", "r8", "b", "r3"]
PINNED_P2_SEEDS = ["a", "b"]
PINNED_P6_SEEDS = ["a", "r4"]


@pytest.fixture(scope="module")
def example_ensembles():
    graph, assignment = illustrative_graph()
    return {
        store: build(graph, assignment, store, n_worlds=120, seed=5)
        for store in STORES
    }


@pytest.mark.parametrize("store", STORES)
class TestPinnedSolutions:
    def test_p1_budget(self, example_ensembles, store):
        solution = solve_tcim_budget(example_ensembles[store], 4, 3)
        assert solution.seeds == PINNED_P1_SEEDS

    def test_p4_fair_budget(self, example_ensembles, store):
        solution = solve_fair_tcim_budget(example_ensembles[store], 4, 3)
        assert solution.seeds == PINNED_P4_SEEDS

    def test_p2_cover(self, example_ensembles, store):
        solution = solve_tcim_cover(example_ensembles[store], 0.4, 5)
        assert solution.seeds == PINNED_P2_SEEDS

    def test_p6_fair_cover(self, example_ensembles, store):
        solution = solve_fair_tcim_cover(example_ensembles[store], 0.4, 5)
        assert solution.seeds == PINNED_P6_SEEDS


@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize(
    "objective_factory",
    [TotalInfluenceObjective, ConcaveSumObjective],
    ids=["total", "concave"],
)
def test_lazy_equals_plain_greedy(example_ensembles, store, objective_factory):
    """CELF and the reference oracle agree under every build."""
    ensemble = example_ensembles[store]
    objective = objective_factory()
    for deadline in (2, 3, math.inf):
        celf = lazy_greedy(ensemble, objective, deadline=deadline, max_seeds=3)
        plain = plain_greedy(ensemble, objective, deadline=deadline, max_seeds=3)
        assert celf.seeds == plain.seeds, f"{store} tau={deadline}"
        np.testing.assert_allclose(
            celf.final_group_utilities, plain.final_group_utilities
        )


def test_traces_identical_across_backends(example_ensembles):
    """Full audit trails — picks, gains, utilities — match exactly."""
    objective = ConcaveSumObjective()
    reference = lazy_greedy(
        example_ensembles["dense"], objective, deadline=3, max_seeds=4
    )
    for store in ("sparse", "lazy"):
        trace = lazy_greedy(
            example_ensembles[store], objective, deadline=3, max_seeds=4
        )
        assert trace.seeds == reference.seeds
        for step, ref_step in zip(trace.steps, reference.steps):
            assert step.position == ref_step.position
            assert step.gain == ref_step.gain
            np.testing.assert_array_equal(
                step.group_utilities, ref_step.group_utilities
            )


class TestPaperScaleSynthetic:
    """The acceptance-criteria check: pinned seeds on the Rice-sized
    synthetic SBM, with the reach index far below the dense tensor's
    footprint.  One default build: the BFS chunking is held to
    identical rows by ``test_frontier.py``."""

    @pytest.fixture(scope="class")
    def sbm_ensemble(self):
        graph, assignment = default_synthetic(seed=0)
        return WorldEnsemble(graph, assignment, n_worlds=60, seed=9)

    def test_lazy_greedy_seeds_identical(self, sbm_ensemble):
        seeds = lazy_greedy(
            sbm_ensemble, TotalInfluenceObjective(), deadline=20, max_seeds=5
        ).seeds
        assert seeds == [264, 96, 19, 226, 329]

    def test_sparse_memory_below_dense(self, sbm_ensemble):
        ensemble = sbm_ensemble
        dense_bytes = ensemble.n_worlds * ensemble.n_candidates * ensemble.n
        index_bytes = ensemble.memory_bytes()
        assert index_bytes < dense_bytes / 10, (
            f"the reach index ({index_bytes}B) should be well under the "
            f"dense R*C*n tensor ({dense_bytes}B) on the sparse SBM"
        )

    def test_bad_backend_fails_before_world_sampling(self):
        graph, assignment = default_synthetic(seed=0)
        with pytest.raises(TypeError, match="backend"):
            WorldEnsemble(graph, assignment, n_worlds=10**9, seed=9, backend="gpu")
