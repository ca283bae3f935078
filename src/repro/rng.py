"""Seeding utilities.

Every stochastic component in this library accepts either an integer
seed, a :class:`numpy.random.Generator`, or ``None`` and normalises it
through :func:`ensure_rng`.  Derived streams for independent
sub-components (e.g. one stream per sampled world) come from
:func:`spawn`, which uses the ``Generator.spawn`` API so streams are
statistically independent and reproducible.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

RngLike = Union[int, np.random.Generator, None]


def check_seed(seed) -> int:
    """Validate an integer RNG seed (non-negative int) and return it.

    The single source of truth for what the CLI's ``--seed`` flag and
    the declarative specs (``dataset_seed`` / ``world_seed``) accept:
    a plain non-negative integer, so every spec stays JSON-round-trip
    safe and every run replayable.  Raises :class:`ValueError` with the
    canonical message otherwise.
    """
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return int(seed)


def ensure_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` produces a non-deterministic generator; an ``int`` produces
    a deterministic one; an existing generator is returned unchanged
    (not copied), so callers can share a stream intentionally.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, count: int) -> Sequence[np.random.Generator]:
    """Spawn ``count`` independent child generators from ``rng``."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return rng.spawn(count)


def derive_seed(rng: np.random.Generator) -> int:
    """Draw a fresh 63-bit integer seed from ``rng``.

    Useful for logging the effective seed of a sub-experiment so it can
    be replayed in isolation.
    """
    return int(rng.integers(0, 2**63 - 1))

