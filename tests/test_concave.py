"""Unit tests for the concave wrapper family H."""

import math

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.core.concave import (
    by_name,
    identity,
    log1p,
    power,
    scaled_log,
    sqrt,
)


class TestBasicValues:
    def test_identity(self):
        assert identity(3.0) == 3.0
        assert identity(0.0) == 0.0

    def test_sqrt(self):
        assert sqrt(4.0) == 2.0

    def test_log1p_at_zero(self):
        assert log1p(0.0) == 0.0

    def test_power(self):
        assert power(0.5)(9.0) == pytest.approx(3.0)
        assert power(1.0)(7.0) == 7.0

    def test_scaled_log_zero(self):
        assert scaled_log(0.5)(0.0) == pytest.approx(0.0)

    def test_vectorised(self):
        values = sqrt(np.array([1.0, 4.0, 9.0]))
        assert values.tolist() == [1.0, 2.0, 3.0]

    def test_scalar_returns_float(self):
        assert isinstance(log1p(2.0), float)


class TestValidation:
    def test_negative_input_rejected(self):
        with pytest.raises(ConfigError):
            log1p(-1.0)

    @pytest.mark.parametrize("wrapper", [identity, sqrt, log1p, power(0.25)])
    def test_rounding_negatives_clamp_to_zero(self, wrapper):
        # Inputs in [-1e-12, 0) are rounding noise: they read as 0.
        values = wrapper(np.array([4.0, -1e-13, -1e-12, 0.0]))
        np.testing.assert_array_equal(values, wrapper(np.array([4.0, 0.0, 0.0, 0.0])))
        assert not np.signbit(values).any()
        assert wrapper(-5e-13) == wrapper(0.0)

    @pytest.mark.parametrize("wrapper", [identity, sqrt, log1p])
    def test_lower_inputs_raise_wherever_they_sit(self, wrapper):
        for bad in (
            np.array([1.0, 2.0, -2e-12]),
            np.array([[0.0, 1.0], [-1.0, 3.0]]),
            np.array([np.nan, -1.0]),  # a NaN does not hide a negative
        ):
            with pytest.raises(ConfigError):
                wrapper(bad)

    @pytest.mark.parametrize("wrapper", [identity, sqrt, log1p])
    def test_nan_passes_through(self, wrapper):
        values = wrapper(np.array([1.0, np.nan, -1e-13]))
        assert values[0] == wrapper(1.0)
        assert np.isnan(values[1])
        assert values[2] == wrapper(0.0)
        assert math.isnan(wrapper(float("nan")))

    @pytest.mark.parametrize("wrapper", [identity, sqrt, log1p, power(0.25)])
    def test_non_negative_blocks_keep_their_bits(self, wrapper):
        # The clean path skips the clamp; ``fn`` sees the same values.
        rng = np.random.default_rng(0)
        block = rng.uniform(0.0, 50.0, size=(300, 3))
        block[::7, 1] = 0.0
        np.testing.assert_array_equal(wrapper(block), wrapper.fn(np.maximum(block, 0.0)))

    def test_empty_input(self):
        assert sqrt(np.empty((0, 2))).shape == (0, 2)

    def test_power_alpha_bounds(self):
        with pytest.raises(ConfigError):
            power(0.0)
        with pytest.raises(ConfigError):
            power(1.5)

    def test_scaled_log_offset(self):
        with pytest.raises(ConfigError):
            scaled_log(0.0)


class TestMathematicalProperties:
    GRID = np.linspace(0.0, 60.0, 121)

    @pytest.mark.parametrize(
        "wrapper", [identity, sqrt, log1p, power(0.25), scaled_log(0.5)]
    )
    def test_monotone_nondecreasing(self, wrapper):
        values = wrapper(self.GRID)
        assert (np.diff(values) >= -1e-12).all()

    @pytest.mark.parametrize(
        "wrapper", [identity, sqrt, log1p, power(0.25), scaled_log(0.5)]
    )
    def test_concave_on_grid(self, wrapper):
        # Midpoint condition: H((x+y)/2) >= (H(x)+H(y))/2.
        x = self.GRID[:-2]
        y = self.GRID[2:]
        mid = wrapper((x + y) / 2.0)
        avg = (wrapper(x) + wrapper(y)) / 2.0
        assert (mid >= avg - 1e-10).all()

    @pytest.mark.parametrize(
        "wrapper", [identity, sqrt, log1p, power(0.25), scaled_log(0.5)]
    )
    def test_non_negative(self, wrapper):
        assert (wrapper(self.GRID) >= -1e-12).all()

    def test_log1p_dominated_by_identity_everywhere(self):
        for z in self.GRID:
            assert log1p.dominated_by_identity_at(float(z))

    def test_sqrt_violates_domination_below_one(self):
        assert not sqrt.dominated_by_identity_at(0.25)
        assert sqrt.dominated_by_identity_at(4.0)

    def test_curvature_ordering_log_vs_sqrt(self):
        # In the utility range the experiments operate in (group
        # utilities of a handful of nodes and up), log1p flattens
        # faster than sqrt: the growth ratio H(2z)/H(z) is smaller.
        for z in (5.0, 10.0, 40.0):
            assert log1p(2 * z) / log1p(z) < sqrt(2 * z) / sqrt(z)


class TestByName:
    def test_known_names(self):
        assert by_name("identity") is identity
        assert by_name("sqrt") is sqrt
        assert by_name("log") is log1p
        assert by_name("log1p") is log1p

    def test_power_syntax(self):
        wrapper = by_name("power(0.25)")
        assert wrapper(16.0) == pytest.approx(2.0)

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown concave"):
            by_name("cosine")
