"""The concave wrapper family ``H`` of problem P4.

FAIRTCIM-BUDGET replaces the total-influence objective with
``sum_i H(f_tau(S; V_i, G))`` for a non-negative, non-decreasing,
concave ``H``.  Curvature is the fairness knob (Section 5.1.2): the
more curved ``H`` is, the more marginal value the first influenced
members of an under-served group carry, hence the lower the disparity —
at the price of total influence (Theorem 1's bound degrades with
curvature).

The paper's two instantiations are ``log`` and ``sqrt``.  ``log`` is
undefined at 0 (the empty seed set influences nobody in a group with no
seeds), so we use ``log1p(z) = log(1 + z)``: same curvature regime,
well-defined at 0, and — unlike raw ``log`` — it satisfies the
``H(z) <= z`` inequality Theorem 1's proof uses at every ``z >= 0``.
``sqrt`` violates ``H(z) <= z`` on ``z < 1``; this is immaterial in
practice (any non-empty seed set has group utility >= the seeds placed
in the group) but :meth:`ConcaveFunction.dominated_by_identity_at`
exposes the check so the theorem checkers can be precise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class ConcaveFunction:
    """A named, non-negative, non-decreasing concave function on [0, inf).

    Instances are used both scalar-wise and vectorised (numpy arrays).
    A float64 array with no negative entry reaches ``fn`` as is, so
    ``identity`` returns that array itself.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    description: str = ""

    def __call__(self, z):
        values = np.asarray(z, dtype=np.float64)
        # Solvers only pass non-negative utilities, so one reduce clears
        # the block; a negative (or NaN) minimum takes the full check,
        # which refuses inputs below -1e-12 and clamps the rest to 0.
        if values.size and not values.min() >= 0.0:
            if (values < -1e-12).any():
                raise ConfigError(
                    f"H({self.name}) is only defined on non-negative inputs"
                )
            values = np.maximum(values, 0.0)
        result = self.fn(values)
        return float(result) if values.ndim == 0 else result

    def dominated_by_identity_at(self, z: float) -> bool:
        """Whether ``H(z) <= z`` holds at ``z`` (Theorem 1 precondition)."""
        return bool(self(z) <= z + 1e-12)

    def __repr__(self) -> str:
        return f"ConcaveFunction({self.name!r})"


#: ``H(z) = z`` — recovers the unfair problem P1 exactly.
identity = ConcaveFunction(
    name="identity",
    fn=lambda z: z,
    description="No fairness pressure; P4 with identity H is P1.",
)

#: ``H(z) = sqrt(z)`` — the paper's low-curvature choice.
sqrt = ConcaveFunction(
    name="sqrt",
    fn=np.sqrt,
    description="Low curvature: mild fairness pressure, small influence cost.",
)

#: ``H(z) = log(1 + z)`` — the paper's high-curvature choice (see module
#: docstring for why the +1 offset).
log1p = ConcaveFunction(
    name="log",
    fn=np.log1p,
    description="High curvature: strong fairness pressure, larger influence cost.",
)


def power(alpha: float) -> ConcaveFunction:
    """The power family ``H(z) = z**alpha`` for ``alpha`` in (0, 1].

    Interpolates between ``identity`` (alpha=1) and ever-stronger
    curvature as alpha drops — the knob the curvature-ablation
    experiment sweeps.
    """
    if not 0.0 < alpha <= 1.0:
        raise ConfigError(f"alpha must be in (0, 1], got {alpha}")
    return ConcaveFunction(
        name=f"power({alpha:g})",
        fn=lambda z, a=alpha: np.power(z, a),
        description=f"Power-family wrapper with exponent {alpha:g}.",
    )


def scaled_log(offset: float = 1.0) -> ConcaveFunction:
    """``H(z) = log(offset + z) - log(offset)``: log with a tunable offset.

    Smaller offsets sharpen curvature near zero (stronger fairness
    pressure on barely-influenced groups).  The subtraction keeps
    ``H(0) = 0`` so the function stays non-negative.
    """
    if offset <= 0.0:
        raise ConfigError(f"offset must be positive, got {offset}")
    return ConcaveFunction(
        name=f"log(offset={offset:g})",
        fn=lambda z, c=offset: np.log(c + z) - math.log(c),
        description=f"Log wrapper with offset {offset:g}.",
    )


def by_name(name: str) -> ConcaveFunction:
    """Look up a wrapper by its experiment-config name."""
    table = {
        "identity": identity,
        "sqrt": sqrt,
        "log": log1p,
        "log1p": log1p,
    }
    if name in table:
        return table[name]
    if name.startswith("power(") and name.endswith(")"):
        return power(float(name[len("power(") : -1]))
    raise ConfigError(
        f"unknown concave function {name!r}; expected one of "
        f"{sorted(table)} or 'power(alpha)'"
    )
