"""The unified deadline-rounding semantics (repro.influence.deadlines).

Before unification, ``WorldEnsemble`` clipped deadlines with
``int(min(tau, 254))`` while ``monte_carlo_utility`` truncated with a
separate ``int(tau)``; these tests pin the shared semantics — floor
for fractional deadlines, validation for negative ones, and the
``tau = 0`` / ``tau = inf`` boundaries — across every estimator.
"""

import math

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.diffusion.worlds import UNREACHABLE
from repro.influence.deadlines import clip_deadline, simulation_horizon
from repro.influence.ensemble import WorldEnsemble
from repro.influence.exact import exact_utility
from repro.influence.montecarlo import monte_carlo_utility


class TestClipDeadline:
    def test_integer_passthrough(self):
        assert clip_deadline(0) == 0
        assert clip_deadline(7) == 7

    def test_fractional_floors(self):
        assert clip_deadline(2.5) == 2
        assert clip_deadline(0.9) == 0

    def test_infinite_maps_to_storable_max(self):
        assert clip_deadline(math.inf) == UNREACHABLE - 1

    def test_clips_to_uint8_range(self):
        assert clip_deadline(10_000) == UNREACHABLE - 1

    def test_negative_rejected(self):
        with pytest.raises(EstimationError, match="non-negative"):
            clip_deadline(-1)

    def test_nan_rejected(self):
        with pytest.raises(EstimationError, match="non-negative"):
            clip_deadline(math.nan)


class TestSimulationHorizon:
    def test_integer_passthrough(self):
        assert simulation_horizon(0) == 0
        assert simulation_horizon(7) == 7

    def test_fractional_floors(self):
        assert simulation_horizon(2.5) == 2

    def test_infinite_means_uncapped(self):
        assert simulation_horizon(math.inf) is None

    def test_not_clipped_to_uint8(self):
        assert simulation_horizon(10_000) == 10_000

    def test_negative_rejected(self):
        with pytest.raises(EstimationError, match="non-negative"):
            simulation_horizon(-0.5)


class TestEstimatorsShareSemantics:
    """tau = 2.5 must count exactly what tau = 2 counts, everywhere."""

    def test_ensemble_boundary(self, two_group_line):
        graph, assignment = two_group_line
        ensemble = WorldEnsemble(graph, assignment, n_worlds=4, seed=0)
        np.testing.assert_array_equal(
            ensemble.utilities_for(["a"], 2.5),
            ensemble.utilities_for(["a"], 2),
        )
        # On the deterministic path a->b->c->d, tau=2.5 reaches
        # {a, b} (left) and {c} (right); tau=0 only the seed.
        assert ensemble.utilities_for(["a"], 2.5).tolist() == [2.0, 1.0]
        assert ensemble.utilities_for(["a"], 0).tolist() == [1.0, 0.0]

    def test_monte_carlo_boundary(self, two_group_line):
        graph, _ = two_group_line
        assert monte_carlo_utility(graph, ["a"], 2.5, n_samples=8, seed=0) == 3.0
        assert monte_carlo_utility(graph, ["a"], 0, n_samples=8, seed=0) == 1.0

    def test_exact_boundary(self, two_group_line):
        graph, _ = two_group_line
        assert exact_utility(graph, ["a"], 2.5) == 3.0
        assert exact_utility(graph, ["a"], 2) == 3.0
        assert exact_utility(graph, ["a"], 0) == 1.0

    def test_negative_deadline_rejected_everywhere(self, two_group_line):
        graph, assignment = two_group_line
        ensemble = WorldEnsemble(graph, assignment, n_worlds=2, seed=0)
        with pytest.raises(EstimationError):
            ensemble.utilities_for(["a"], -1)
        with pytest.raises(EstimationError):
            monte_carlo_utility(graph, ["a"], -1, n_samples=2, seed=0)
        with pytest.raises(EstimationError):
            exact_utility(graph, ["a"], -1)
