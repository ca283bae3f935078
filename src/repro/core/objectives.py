"""Objective functions mapping group-utility vectors to scalars.

Every solver in this library is an instance of "greedily maximise a
monotone submodular set function".  The set-function structure lives in
the estimator (group utilities are monotone submodular in the seed set,
world-wise and hence in expectation); an :class:`Objective` is the
*outer* function composing them into a scalar:

- :class:`TotalInfluenceObjective` — ``sum_i f_i`` — problems P1/P2;
- :class:`ConcaveSumObjective` — ``sum_i w_i H(f_i)`` — problem P4
  (submodular because a non-decreasing concave transform of a monotone
  submodular function is submodular, Lin & Bilmes 2011);
- :class:`TruncatedCoverageObjective` — ``sum_i min(f_i/|V_i|, Q)`` —
  problem P6's constraint re-written as in the Theorem 2 proof
  (truncation preserves monotone submodularity).

Every objective maps a batch of utility rows to one value per row
(:meth:`Objective.values`, ``(m, k) -> (m,)``); CELF re-bounds all its
stale candidates with one such call per round.  The scalar
:meth:`Objective.value` is the same arithmetic on one row, so both
agree bit for bit.  Every objective adds its ``k`` group terms with
:func:`_group_sums`, column by column.

Objectives must be non-decreasing in every coordinate — that is what
makes CELF's lazy evaluation sound.  :func:`validate_monotone` is a
spot-check of that property for custom objectives; no solver runs it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.core.concave import ConcaveFunction, identity


#: Below this many groups numpy's last-axis ``sum`` adds the columns
#: left to right, exactly as :func:`_group_sums` does; from it on numpy
#: sums pairwise, so :func:`_group_sums` defers to it.
_PAIRWISE_GROUPS = 8


def _group_sums(terms: np.ndarray) -> np.ndarray:
    """``terms.sum(axis=-1)``, bit for bit, as ``k - 1`` column adds.

    A reduction over a short last axis pays a fixed setup that, on the
    ``(C, k)`` blocks CELF scores every round, costs several times the
    additions themselves.  Below :data:`_PAIRWISE_GROUPS` groups numpy
    adds the columns left to right, so adding them in that order here
    gives the same bits; from there on the reduction itself runs.
    """
    k = terms.shape[-1]
    if not 2 <= k < _PAIRWISE_GROUPS:
        return terms.sum(axis=-1)
    total = terms[..., 0] + terms[..., 1]
    for column in range(2, k):
        total += terms[..., column]
    return total


class Objective:
    """Scalarisation of per-group utility vectors.

    Subclasses implement :meth:`values` over the last axis; a row's
    value never depends on the other rows.
    """

    def values(self, rows: np.ndarray) -> np.ndarray:
        """Objective value of each row of an ``(m, k)`` utility matrix."""
        raise NotImplementedError

    def value(self, group_utilities: np.ndarray) -> float:
        """Objective value for one per-group expected-utility vector."""
        return float(self.values(group_utilities))


class TotalInfluenceObjective(Objective):
    """``sum_i f_i`` — the classic influence objective (P1, P2).

    Because groups partition the population, the sum over group
    utilities equals ``f_tau(S; V, G)``.
    """

    name = "total-influence"

    def values(self, rows: np.ndarray) -> np.ndarray:
        return _group_sums(np.asarray(rows, dtype=np.float64))

    def __repr__(self) -> str:
        return "TotalInfluenceObjective()"


class ConcaveSumObjective(Objective):
    """``sum_i w_i * H(f_i)`` — the FAIRTCIM-BUDGET surrogate (P4).

    Parameters
    ----------
    concave:
        The wrapper ``H`` (see :mod:`repro.core.concave`).
    weights:
        Optional per-group weights ``lambda_i`` (the paper mentions
        up-weighting under-represented groups as an alternative to
        increasing curvature).  Defaults to all ones.
    """

    def __init__(
        self,
        concave: ConcaveFunction = identity,
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        self.concave = concave
        self.weights = (
            None if weights is None else np.asarray(weights, dtype=np.float64)
        )
        if self.weights is not None and (self.weights < 0).any():
            raise ConfigError("group weights must be non-negative")
        self.name = f"concave-sum[{concave.name}]"

    def values(self, rows: np.ndarray) -> np.ndarray:
        transformed = self.concave(np.asarray(rows, dtype=np.float64))
        if self.weights is not None:
            if transformed.shape[-1:] != self.weights.shape:
                raise ConfigError(
                    f"weights shape {self.weights.shape} does not match "
                    f"{transformed.shape[-1:]} groups"
                )
            transformed = transformed * self.weights
        return _group_sums(transformed)

    def __repr__(self) -> str:
        return f"ConcaveSumObjective(concave={self.concave.name!r})"


class TruncatedCoverageObjective(Objective):
    """``sum_i min(f_i / |V_i|, Q)`` — the FAIRTCIM-COVER surrogate (P6).

    The greedy cover algorithm maximises this and stops when it reaches
    ``k * Q``, at which point *every* group meets the quota.  Its
    maximum value is ``k * Q`` (:attr:`target`).
    """

    def __init__(self, quota: float, group_sizes: Sequence[float]) -> None:
        if not 0.0 < quota <= 1.0:
            raise ConfigError(f"quota must be in (0, 1], got {quota}")
        self.quota = float(quota)
        self.group_sizes = np.asarray(group_sizes, dtype=np.float64)
        if (self.group_sizes <= 0).any():
            raise ConfigError("group sizes must be positive")
        self.name = f"truncated-coverage[Q={quota:g}]"

    @property
    def target(self) -> float:
        """The saturation value ``k * Q``."""
        return self.quota * self.group_sizes.size

    def values(self, rows: np.ndarray) -> np.ndarray:
        fractions = np.asarray(rows, dtype=np.float64) / self.group_sizes
        return _group_sums(np.minimum(fractions, self.quota))

    def satisfied(self, group_utilities: np.ndarray, slack: float = 0.0) -> bool:
        """Whether every group meets the quota (within ``slack``)."""
        fractions = np.asarray(group_utilities, dtype=np.float64) / self.group_sizes
        return bool((fractions >= self.quota - slack).all())

    def __repr__(self) -> str:
        return f"TruncatedCoverageObjective(quota={self.quota})"


class TotalCoverageObjective(Objective):
    """``min(sum_i f_i / |V|, Q)`` — the *unfair* cover constraint (P2).

    Saturates once the whole-population quota is met; group membership
    plays no role, which is exactly why P2 can leave a group behind.
    """

    def __init__(self, quota: float, population: float) -> None:
        if not 0.0 < quota <= 1.0:
            raise ConfigError(f"quota must be in (0, 1], got {quota}")
        if population <= 0:
            raise ConfigError(f"population must be positive, got {population}")
        self.quota = float(quota)
        self.population = float(population)
        self.name = f"total-coverage[Q={quota:g}]"

    @property
    def target(self) -> float:
        return self.quota

    def values(self, rows: np.ndarray) -> np.ndarray:
        totals = _group_sums(np.asarray(rows, dtype=np.float64))
        return np.minimum(totals / self.population, self.quota)

    def satisfied(self, group_utilities: np.ndarray, slack: float = 0.0) -> bool:
        fraction = float(np.asarray(group_utilities, dtype=np.float64).sum()) / self.population
        return fraction >= self.quota - slack

    def __repr__(self) -> str:
        return f"TotalCoverageObjective(quota={self.quota})"


def validate_monotone(
    objective: Objective,
    dimension: int,
    trials: int = 64,
    seed: int = 0,
) -> None:
    """Spot-check that a custom ``objective`` is coordinate-wise non-decreasing.

    Scores ``trials`` random utility rows and the same rows with one
    coordinate raised, as two batches through :meth:`Objective.values`
    (the method CELF calls), and raises :class:`ConfigError` if any
    raised row scores lower.  Monotonicity is what makes lazy
    evaluation sound; the solvers trust it rather than check it.
    """
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 50.0, size=(trials, dimension))
    bump = base.copy()
    bump[np.arange(trials), rng.integers(dimension, size=trials)] += rng.uniform(
        0.0, 10.0, size=trials
    )
    if (objective.values(bump) < objective.values(base) - 1e-9).any():
        raise ConfigError(
            f"objective {objective!r} is not coordinate-wise monotone; "
            "lazy greedy would be unsound"
        )
