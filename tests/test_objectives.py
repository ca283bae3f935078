"""Unit tests for the objective functions."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.core.concave import log1p, sqrt
from repro.core.objectives import (
    ConcaveSumObjective,
    Objective,
    TotalCoverageObjective,
    TotalInfluenceObjective,
    TruncatedCoverageObjective,
    validate_monotone,
)


class TestTotalInfluence:
    def test_sum(self):
        assert TotalInfluenceObjective().value(np.array([3.0, 4.0])) == 7.0

    def test_monotone(self):
        validate_monotone(TotalInfluenceObjective(), dimension=3)


class TestConcaveSum:
    def test_identity_default_equals_sum(self):
        objective = ConcaveSumObjective()
        assert objective.value(np.array([3.0, 4.0])) == 7.0

    def test_log_wrapper(self):
        objective = ConcaveSumObjective(concave=log1p)
        expected = np.log1p(3.0) + np.log1p(4.0)
        assert objective.value(np.array([3.0, 4.0])) == pytest.approx(expected)

    def test_weights(self):
        objective = ConcaveSumObjective(concave=sqrt, weights=[2.0, 0.5])
        expected = 2.0 * 2.0 + 0.5 * 3.0
        assert objective.value(np.array([4.0, 9.0])) == pytest.approx(expected)

    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigError):
            ConcaveSumObjective(weights=[-1.0])

    def test_weight_shape_mismatch(self):
        objective = ConcaveSumObjective(weights=[1.0, 1.0])
        with pytest.raises(ConfigError, match="weights shape"):
            objective.value(np.array([1.0, 2.0, 3.0]))

    def test_monotone(self):
        validate_monotone(ConcaveSumObjective(concave=log1p), dimension=4)

    def test_rewards_underserved_group(self):
        # Equal total, but spreading toward the low group scores higher.
        objective = ConcaveSumObjective(concave=log1p)
        concentrated = objective.value(np.array([20.0, 0.0]))
        balanced = objective.value(np.array([10.0, 10.0]))
        assert balanced > concentrated


class TestTruncatedCoverage:
    def test_value_truncates(self):
        objective = TruncatedCoverageObjective(quota=0.5, group_sizes=[10, 10])
        # Group 1 fully covered (truncated at 0.5), group 2 at 0.2.
        assert objective.value(np.array([9.0, 2.0])) == pytest.approx(0.5 + 0.2)

    def test_target(self):
        objective = TruncatedCoverageObjective(quota=0.3, group_sizes=[5, 5, 5])
        assert objective.target == pytest.approx(0.9)

    def test_satisfied(self):
        objective = TruncatedCoverageObjective(quota=0.5, group_sizes=[10, 10])
        assert objective.satisfied(np.array([5.0, 5.0]))
        assert not objective.satisfied(np.array([5.0, 4.0]))
        assert objective.satisfied(np.array([5.0, 4.9]), slack=0.011)

    def test_validation(self):
        with pytest.raises(ConfigError):
            TruncatedCoverageObjective(quota=0.0, group_sizes=[10])
        with pytest.raises(ConfigError):
            TruncatedCoverageObjective(quota=0.5, group_sizes=[0])

    def test_monotone(self):
        validate_monotone(
            TruncatedCoverageObjective(quota=0.4, group_sizes=[20.0, 30.0]),
            dimension=2,
        )


class TestTotalCoverage:
    def test_value(self):
        objective = TotalCoverageObjective(quota=0.5, population=100)
        assert objective.value(np.array([20.0, 10.0])) == pytest.approx(0.3)
        assert objective.value(np.array([60.0, 10.0])) == pytest.approx(0.5)

    def test_satisfied_ignores_groups(self):
        objective = TotalCoverageObjective(quota=0.3, population=100)
        assert objective.satisfied(np.array([30.0, 0.0]))

    def test_validation(self):
        with pytest.raises(ConfigError):
            TotalCoverageObjective(quota=2.0, population=10)
        with pytest.raises(ConfigError):
            TotalCoverageObjective(quota=0.5, population=0)


class TestValidateMonotone:
    def test_rejects_decreasing_objective(self):
        class Bad(Objective):
            def values(self, rows):
                return -np.sum(rows, axis=-1)

        with pytest.raises(ConfigError, match="not coordinate-wise monotone"):
            validate_monotone(Bad(), dimension=2)


class TestGroupSums:
    """Each objective adds its group terms column by column: every row of
    ``values`` has the bits of ``value`` on that row and of numpy's
    last-axis ``sum``, for any number of groups."""

    @staticmethod
    def same_bits(got, want):
        got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", range(1, 10))
    def test_rows_equal_value_and_numpy_sum(self, k):
        rng = np.random.default_rng(k)
        scale = rng.choice([1e-3, 1.0, 1e3, 1e6], size=(400, k))
        rows = rng.uniform(0.0, 1.0, size=(400, k)) * scale
        rows[::9] = 0.0
        weights = rng.uniform(0.5, 2.0, size=k)
        sizes = rng.uniform(100.0, 2000.0, size=k)
        cases = [
            (TotalInfluenceObjective(), rows.sum(axis=-1)),
            (ConcaveSumObjective(log1p), np.log1p(rows).sum(axis=-1)),
            (ConcaveSumObjective(sqrt, weights), (np.sqrt(rows) * weights).sum(axis=-1)),
            (
                TruncatedCoverageObjective(0.5, sizes),
                np.minimum(rows / sizes, 0.5).sum(axis=-1),
            ),
            (
                TotalCoverageObjective(0.9, sizes.sum()),
                np.minimum(rows.sum(axis=-1) / sizes.sum(), 0.9),
            ),
        ]
        for objective, want in cases:
            values = objective.values(rows)
            self.same_bits(values, want)
            self.same_bits(values, [objective.value(row) for row in rows])
