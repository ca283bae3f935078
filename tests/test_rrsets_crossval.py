"""Cross-validation harness for the RR-set estimator.

Mirrors ``test_backends_crossval.py`` for the new estimator stack:
:class:`RRSetEstimator` must agree with the world ensemble and with
exact enumeration within sampling error,
follow the library-wide deadline semantics, tag RR sets with the right
groups (hand-checked on a deterministic toy graph), and stop its
adaptive sampling only once the stop-and-stare requirement is met.

The end-to-end test at the bottom is the PR's acceptance criterion:
``Session.solve`` with ``EnsembleSpec(kind="rrset")`` completes the
unfair budget problem and lands within 5% of the world-ensemble
estimate of the same seed set.
"""

import math

import numpy as np
import pytest

from repro.api import EnsembleSpec, RunSpec, Session, SolverSpec
from repro.errors import EstimationError
from repro.graph.generators import two_block_sbm
from repro.influence.ensemble import WorldEnsemble
from repro.influence.exact import exact_group_utilities, exact_utility
from repro.influence.rrsets import RRSetEstimator

from test_backends_crossval import random_instance

DEADLINES = (0, 1, 2.5, 3, math.inf)


def rr_standard_errors(estimator: RRSetEstimator, utilities, deadline):
    """Binomial standard error of each per-group RIS estimate.

    Group ``i``'s estimate is ``n * X_i / theta`` with ``X_i`` a
    binomial count, so its standard error is
    ``n * sqrt(p_i (1 - p_i) / theta)``.
    """
    theta = estimator.diagnostics(deadline)["theta"]
    p = np.asarray(utilities, dtype=np.float64) / estimator.n
    return estimator.n * np.sqrt(np.clip(p * (1.0 - p), 0.0, None) / theta)


@pytest.mark.parametrize("instance_seed", [0, 1, 2])
def test_rrset_matches_exact(instance_seed):
    """The RR estimate converges to the exact per-group expectation."""
    graph, assignment, labels = random_instance(instance_seed)
    estimator = RRSetEstimator(graph, assignment, theta=40_000, seed=17)
    seeds = labels[:2]
    for deadline in DEADLINES:
        estimate = estimator.utilities_for(seeds, deadline)
        exact = exact_group_utilities(graph, assignment, seeds, deadline)
        expected = np.asarray([exact[g] for g in estimator.group_names])
        tolerance = 5.0 * rr_standard_errors(estimator, estimate, deadline) + 1e-9
        assert (np.abs(estimate - expected) <= tolerance).all(), (
            f"tau={deadline}: {estimate} vs exact {expected} "
            f"(tolerance {tolerance})"
        )


@pytest.mark.parametrize("instance_seed", [0, 1])
def test_rrset_matches_world_ensemble(instance_seed):
    """Both estimator stacks agree within combined sampling error.  The
    ensemble is built under the default chunk budget only: that no
    budget changes an entry is checked by ``test_frontier.py::
    test_chunking_never_changes_rows`` and ``TestRepairEqualsFreshBuild``."""
    graph, assignment, labels = random_instance(instance_seed)
    estimator = RRSetEstimator(graph, assignment, theta=30_000, seed=23)
    ensemble = WorldEnsemble(graph, assignment, n_worlds=3000, seed=29)
    seeds = labels[:2]
    for deadline in DEADLINES:
        rr = estimator.utilities_for(seeds, deadline)
        ens = ensemble.utilities_for(seeds, deadline)
        ens_se = ensemble.standard_errors(ensemble.state_for(seeds), deadline)
        rr_se = rr_standard_errors(estimator, rr, deadline)
        tolerance = 5.0 * (ens_se + rr_se) + 1e-9
        assert (np.abs(rr - ens) <= tolerance).all(), (
            f"tau={deadline}: rrset {rr} vs worlds {ens} "
            f"(tolerance {tolerance})"
        )


class TestDeadlineSemantics:
    def test_nan_and_negative_deadlines_rejected(self):
        graph, assignment, labels = random_instance(3)
        estimator = RRSetEstimator(graph, assignment, theta=10, seed=0)
        state = estimator.state_for(labels[:1])
        for bad in (float("nan"), -1, -math.inf):
            with pytest.raises(EstimationError):
                estimator.group_utilities(state, bad)

    def test_fractional_tau_shares_the_floor_pool(self):
        # simulation_horizon(2.5) == 2, so both deadlines answer from
        # the *same* cached RR index — equality is exact, not sampled.
        graph, assignment, labels = random_instance(4)
        estimator = RRSetEstimator(graph, assignment, theta=5000, seed=5)
        assert estimator._index_for(2.5) is estimator._index_for(2)
        state = estimator.state_for(labels[:2])
        np.testing.assert_array_equal(
            estimator.group_utilities(state, 2.5),
            estimator.group_utilities(state, 2),
        )

    def test_infinite_deadline_is_reachability(self, two_group_line):
        graph, assignment = two_group_line
        estimator = RRSetEstimator(graph, assignment, theta=2000, seed=7)
        # p=1 chain a->b->c->d: seeding 'a' reaches everything, so all
        # RR sets are covered and the total is exactly n.
        assert estimator.total_utility(estimator.state_for(["a"]), math.inf) == 4.0

    def test_discount_rejected(self):
        graph, assignment, labels = random_instance(5)
        estimator = RRSetEstimator(graph, assignment, theta=10, seed=0)
        with pytest.raises(EstimationError, match="discount"):
            estimator.group_utilities(estimator.empty_state(), 2, discount=0.9)


class TestGroupTagging:
    """Per-group bookkeeping, hand-checked on the p=1 chain
    a->b->c->d with groups left={a,b}, right={c,d}."""

    def test_tags_partition_theta(self, two_group_line):
        graph, assignment = two_group_line
        estimator = RRSetEstimator(graph, assignment, theta=1000, seed=11)
        index = estimator._index_for(math.inf)
        counts = np.bincount(index.set_group, minlength=2)
        assert counts.sum() == index.theta == 1000
        assert (counts > 0).all()  # both groups drawn as targets

    def test_full_coverage_recovers_target_tags_exactly(self, two_group_line):
        graph, assignment = two_group_line
        estimator = RRSetEstimator(graph, assignment, theta=1000, seed=11)
        index = estimator._index_for(math.inf)
        counts = np.bincount(index.set_group, minlength=2)
        # Seed 'a' covers every RR set, so the per-group utilities are
        # exactly n * (#targets tagged with that group) / theta.
        utilities = estimator.utilities_for(["a"], math.inf)
        np.testing.assert_allclose(utilities, 4.0 * counts / index.theta)

    def test_downstream_seed_never_credits_upstream_group(self, two_group_line):
        graph, assignment = two_group_line
        estimator = RRSetEstimator(graph, assignment, theta=1000, seed=13)
        left = estimator.group_names.index("left")
        right = estimator.group_names.index("right")
        # 'c' can only ever appear in RR sets of targets c and d (both
        # 'right'): the left utility must be exactly zero.
        utilities = estimator.utilities_for(["c"], math.inf)
        assert utilities[left] == 0.0
        assert utilities[right] > 0.0

    def test_deadline_cuts_tags_at_the_right_hop(self, two_group_line):
        graph, assignment = two_group_line
        estimator = RRSetEstimator(graph, assignment, theta=1000, seed=17)
        left = estimator.group_names.index("left")
        right = estimator.group_names.index("right")
        # At tau=1 the RR set of target c is {c, b}, of d is {d, c}:
        # seed 'a' covers only targets a and b — all 'left'.
        utilities = estimator.utilities_for(["a"], 1)
        assert utilities[right] == 0.0
        assert utilities[left] > 0.0
        # Seed 'b' covers targets b (left) and c (right) but never d.
        index = estimator._index_for(1)
        d_targets = int(
            np.sum(index.set_group == right)
        )  # targets c + d together
        utils_b = estimator.utilities_for(["b"], 1)
        assert 0.0 < utils_b[right] < 4.0 * d_targets / index.theta

    def test_groups_sum_to_classic_ris_estimate(self):
        graph, assignment, labels = random_instance(6)
        estimator = RRSetEstimator(graph, assignment, theta=5000, seed=19)
        state = estimator.state_for(labels[:3])
        for deadline in (1, 3, math.inf):
            utilities = estimator.group_utilities(state, deadline)
            assert estimator.total_utility(state, deadline) == pytest.approx(
                float(utilities.sum())
            )


class TestAdaptiveTheta:
    def test_stops_only_when_requirement_met(self):
        graph, assignment = two_block_sbm(
            120, 0.7, 0.15, 0.02, activation_probability=0.2, seed=31
        )
        estimator = RRSetEstimator(
            graph, assignment, epsilon=0.2, delta=0.05, seed=31
        )
        diag = estimator.diagnostics(5)
        assert (
            diag["theta"] >= diag["theta_required"]
            or diag["theta"] >= estimator.max_theta
        )
        assert diag["rounds"] >= 1
        assert diag["opt_lower_bound"] >= 1.0

    def test_converges_within_epsilon_on_sbm(self):
        # Small SBM where exact enumeration is feasible via a tiny
        # edge count: check the adaptive estimate of a seed set's
        # utility lands within epsilon relative error of exact.
        graph, assignment, labels = random_instance(7)
        epsilon = 0.15
        estimator = RRSetEstimator(
            graph, assignment, epsilon=epsilon, delta=0.01, seed=37
        )
        seeds = labels[:2]
        for deadline in (2, math.inf):
            estimate = estimator.total_utility(
                estimator.state_for(seeds), deadline
            )
            exact = exact_utility(graph, seeds, deadline)
            assert estimate == pytest.approx(exact, rel=epsilon)

    def test_tighter_epsilon_samples_more(self):
        graph, assignment = two_block_sbm(
            100, 0.7, 0.15, 0.02, activation_probability=0.15, seed=41
        )
        loose = RRSetEstimator(graph, assignment, epsilon=0.5, seed=41)
        tight = RRSetEstimator(graph, assignment, epsilon=0.1, seed=41)
        assert (
            tight.diagnostics(5)["theta"] >= loose.diagnostics(5)["theta"]
        )

    def test_pinned_theta_skips_adaptivity(self):
        graph, assignment, _ = random_instance(8)
        estimator = RRSetEstimator(graph, assignment, theta=777, seed=43)
        diag = estimator.diagnostics(2)
        assert diag["theta"] == 777
        assert diag["rounds"] == 1


def test_session_rrset_budget_within_5pct_of_worlds():
    """Acceptance: the unfair budget problem end-to-end on kind='rrset',
    with the solved seed set's utility within 5% of the world-ensemble
    estimate of the same seeds."""
    params = {"n": 90, "activation_probability": 0.12}
    spec = RunSpec(
        ensemble=EnsembleSpec(
            dataset="synthetic",
            dataset_params=params,
            dataset_seed=2,
            kind="rrset",
            world_seed=3,
        ),
        solver=SolverSpec(problem="budget", deadline=8.0, fair=False, budget=4),
    )
    result = Session().solve(spec)
    assert result.seed_count == 4

    from repro.datasets.synthetic import synthetic_sbm

    graph, assignment = synthetic_sbm(seed=2, **params)
    ensemble = WorldEnsemble(graph, assignment, n_worlds=4000, seed=5)
    reference = ensemble.total_utility(
        ensemble.state_for(result.seeds), spec.solver.deadline
    )
    rr_estimate = result.total_fraction * graph.number_of_nodes()
    assert rr_estimate == pytest.approx(reference, rel=0.05)
