"""Solver-level backend equivalence: identical seed sequences everywhere.

The distance backends must be invisible to the solvers: ``lazy_greedy``
/ ``plain_greedy`` and the budget/cover solvers have deterministic
tie-breaking (lowest candidate position wins), so under shared worlds
every backend must produce *identical* seed sequences — not merely
close utilities.  The bundled illustrative example pins the expected
sequences as regression values; the paper-scale synthetic SBM checks
the same identity where the sparse backend's memory win is real.
"""

import math

import numpy as np
import pytest

from repro.datasets.example import illustrative_graph
from repro.datasets.synthetic import default_synthetic
from repro.influence import backends
from repro.influence.ensemble import WorldEnsemble
from repro.core.budget import solve_fair_tcim_budget, solve_tcim_budget
from repro.core.cover import solve_fair_tcim_cover, solve_tcim_cover
from repro.core.greedy import lazy_greedy, plain_greedy
from repro.core.objectives import ConcaveSumObjective, TotalInfluenceObjective

BACKENDS = ("dense", "sparse", "lazy")

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
        backend: WorldEnsemble(
            graph, assignment, n_worlds=120, seed=5, backend=backend
        )
        for backend in BACKENDS
    }


@pytest.mark.parametrize("backend", BACKENDS)
class TestPinnedSolutions:
    def test_p1_budget(self, example_ensembles, backend):
        solution = solve_tcim_budget(example_ensembles[backend], 4, 3)
        assert solution.seeds == PINNED_P1_SEEDS

    def test_p4_fair_budget(self, example_ensembles, backend):
        solution = solve_fair_tcim_budget(example_ensembles[backend], 4, 3)
        assert solution.seeds == PINNED_P4_SEEDS

    def test_p2_cover(self, example_ensembles, backend):
        solution = solve_tcim_cover(example_ensembles[backend], 0.4, 5)
        assert solution.seeds == PINNED_P2_SEEDS

    def test_p6_fair_cover(self, example_ensembles, backend):
        solution = solve_fair_tcim_cover(example_ensembles[backend], 0.4, 5)
        assert solution.seeds == PINNED_P6_SEEDS


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "objective_factory",
    [TotalInfluenceObjective, ConcaveSumObjective],
    ids=["total", "concave"],
)
def test_lazy_equals_plain_greedy(example_ensembles, backend, objective_factory):
    """CELF and the reference oracle agree under every backend."""
    ensemble = example_ensembles[backend]
    objective = objective_factory()
    for deadline in (2, 3, math.inf):
        celf = lazy_greedy(ensemble, objective, deadline=deadline, max_seeds=3)
        plain = plain_greedy(ensemble, objective, deadline=deadline, max_seeds=3)
        assert celf.seeds == plain.seeds, f"{backend} tau={deadline}"
        np.testing.assert_allclose(
            celf.final_group_utilities, plain.final_group_utilities
        )


def test_traces_identical_across_backends(example_ensembles):
    """Full audit trails — picks, gains, utilities — match exactly."""
    objective = ConcaveSumObjective()
    reference = lazy_greedy(
        example_ensembles["dense"], objective, deadline=3, max_seeds=4
    )
    for backend in ("sparse", "lazy"):
        trace = lazy_greedy(
            example_ensembles[backend], objective, deadline=3, max_seeds=4
        )
        assert trace.seeds == reference.seeds
        for step, ref_step in zip(trace.steps, reference.steps):
            assert step.position == ref_step.position
            assert step.gain == ref_step.gain
            np.testing.assert_array_equal(
                step.group_utilities, ref_step.group_utilities
            )


class TestPaperScaleSynthetic:
    """The acceptance-criteria check: byte-identical seeds on the
    Rice-sized synthetic SBM with the sparse backend measurably below
    the dense tensor's footprint."""

    @pytest.fixture(scope="class")
    def sbm_ensembles(self):
        graph, assignment = default_synthetic(seed=0)
        return {
            backend: WorldEnsemble(
                graph, assignment, n_worlds=60, seed=9, backend=backend
            )
            for backend in BACKENDS
        }

    def test_lazy_greedy_seeds_identical(self, sbm_ensembles):
        seeds = {
            backend: lazy_greedy(
                ensemble, TotalInfluenceObjective(), deadline=20, max_seeds=5
            ).seeds
            for backend, ensemble in sbm_ensembles.items()
        }
        assert seeds["dense"] == [264, 96, 19, 226, 329]
        assert seeds["sparse"] == seeds["dense"]
        assert seeds["lazy"] == seeds["dense"]

    def test_sparse_memory_below_dense(self, sbm_ensembles):
        dense_bytes = sbm_ensembles["dense"].memory_bytes()
        sparse_bytes = sbm_ensembles["sparse"].memory_bytes()
        assert sparse_bytes < dense_bytes / 4, (
            f"sparse store ({sparse_bytes}B) should be well under the "
            f"dense tensor ({dense_bytes}B) on the sparse SBM"
        )

    def test_auto_picks_dense_at_this_scale(self):
        graph, assignment = default_synthetic(seed=0)
        ensemble = WorldEnsemble(
            graph, assignment, n_worlds=10, seed=9, backend="auto"
        )
        assert ensemble.backend_name == "dense"

    def test_auto_falls_to_sparse_under_tight_limit(self, monkeypatch):
        monkeypatch.setattr(backends, "DEFAULT_DENSE_LIMIT", 1024)
        graph, assignment = default_synthetic(seed=0)
        ensemble = WorldEnsemble(
            graph, assignment, n_worlds=10, seed=9, backend="auto"
        )
        assert ensemble.backend_name == "sparse"
        # The auto path reuses the selection probe as world 0's rows;
        # results must stay identical to an explicit sparse build.
        explicit = WorldEnsemble(
            graph, assignment, n_worlds=10, seed=9, backend="sparse"
        )
        seeds = graph.nodes()[:3]
        np.testing.assert_array_equal(
            ensemble.utilities_for(seeds, 20), explicit.utilities_for(seeds, 20)
        )

    def test_auto_probe_reuse_on_small_candidate_pools(self, monkeypatch):
        # With <= 256 candidates the auto probe is world 0's full CSR
        # and is handed to the sparse backend; results stay identical.
        monkeypatch.setattr(backends, "DEFAULT_DENSE_LIMIT", 16)
        graph, assignment = illustrative_graph()
        auto = WorldEnsemble(
            graph, assignment, n_worlds=15, seed=5, backend="auto"
        )
        explicit = WorldEnsemble(
            graph, assignment, n_worlds=15, seed=5, backend="sparse"
        )
        assert auto.backend_name == "sparse"
        np.testing.assert_array_equal(
            auto.utilities_for(["a", "c"], 3), explicit.utilities_for(["a", "c"], 3)
        )

    def test_bad_backend_fails_before_world_sampling(self):
        graph, assignment = default_synthetic(seed=0)
        from repro.errors import EstimationError

        with pytest.raises(EstimationError, match="backend must be one of"):
            WorldEnsemble(graph, assignment, n_worlds=10**9, seed=9, backend="gpu")

    def test_auto_falls_to_lazy_under_tightest_limits(self, monkeypatch):
        monkeypatch.setattr(backends, "DEFAULT_DENSE_LIMIT", 1024)
        monkeypatch.setattr(backends, "DEFAULT_SPARSE_LIMIT", 1024)
        graph, assignment = default_synthetic(seed=0)
        ensemble = WorldEnsemble(
            graph, assignment, n_worlds=10, seed=9, backend="auto"
        )
        assert ensemble.backend_name == "lazy"
