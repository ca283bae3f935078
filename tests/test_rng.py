"""Unit tests for the seeding utilities."""

import numpy as np
import pytest

from repro.rng import derive_seed, ensure_rng, spawn


class TestEnsureRng:
    def test_int_seed_deterministic(self):
        a = ensure_rng(5).random(3)
        b = ensure_rng(5).random(3)
        assert (a == b).all()

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng

    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)


class TestSpawn:
    def test_independent_children(self):
        rng = ensure_rng(0)
        children = spawn(rng, 3)
        draws = [c.random() for c in children]
        assert len(set(draws)) == 3

    def test_deterministic_lineage(self):
        a = [c.random() for c in spawn(ensure_rng(1), 2)]
        b = [c.random() for c in spawn(ensure_rng(1), 2)]
        assert a == b

    def test_negative_count(self):
        with pytest.raises(ValueError):
            spawn(ensure_rng(0), -1)


class TestDeriveSeed:
    def test_range(self):
        seed = derive_seed(ensure_rng(3))
        assert 0 <= seed < 2**63
