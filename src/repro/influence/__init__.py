"""Influence estimation: the time-critical utility ``f_tau`` (Eq. 1).

Three estimators, all agreeing in expectation:

- :class:`~repro.influence.ensemble.UtilityEstimator` — the one query
  surface the solvers call, written once over a reach index
  (:class:`~repro.influence.ensemble.ReachOracle`) and built two ways:

  - :class:`~repro.influence.ensemble.WorldEnsemble` — the workhorse:
    common-random-numbers estimation over ``R`` pre-sampled live-edge
    worlds.  Its reach index lists every candidate's finite activation
    entries, emitted by the frontier BFS of
    :mod:`~repro.influence.backends`; answers are counts over ``R``.
  - :class:`~repro.influence.rrsets.RRSetEstimator` — group-tagged
    reverse-reachable sets with IMM/OPIM-style adaptive sampling
    (``EnsembleSpec(kind="rrset")``): the scalable path when the world
    index will not fit, one reach index of RR-set memberships per
    horizon; answers are counts times ``n / theta``.

- :func:`~repro.influence.montecarlo.monte_carlo_utility` — naive
  forward-simulation Monte Carlo (the authors' estimator); used for
  cross-validation.
- :func:`~repro.influence.exact.exact_group_utilities` — exact
  expectation by enumerating every live-edge world on tiny graphs;
  the ground truth for tests and for the Figure-1 example.

:class:`repro.api.Session` builds one of the two reach-index estimators
per ``EnsembleSpec.kind``, and the solvers are typed against
:class:`~repro.influence.ensemble.UtilityEstimator`.  Deadline
rounding is defined once in :mod:`~repro.influence.deadlines`.

Plus the fairness measurements of Section 4:
:func:`~repro.influence.utility.disparity` implements Eq. 2.
"""

from repro.influence.deadlines import clip_deadline, simulation_horizon
from repro.influence.ensemble import InfluenceState, UtilityEstimator, WorldEnsemble
from repro.influence.exact import exact_group_utilities, exact_utility
from repro.influence.incremental import (
    EdgePlan,
    RepairReport,
    plan_against,
    repair_ensemble,
)
from repro.influence.montecarlo import monte_carlo_group_utilities, monte_carlo_utility
from repro.influence.rrsets import (
    RRSetEstimator,
    RRState,
    build_rrset_estimator,
)
from repro.influence.utility import (
    UtilityReport,
    disparity,
    normalized_utilities,
    utility_report,
)

__all__ = [
    "WorldEnsemble",
    "InfluenceState",
    "UtilityEstimator",
    "clip_deadline",
    "simulation_horizon",
    "exact_utility",
    "exact_group_utilities",
    "EdgePlan",
    "RepairReport",
    "plan_against",
    "repair_ensemble",
    "monte_carlo_utility",
    "monte_carlo_group_utilities",
    "RRSetEstimator",
    "RRState",
    "build_rrset_estimator",
    "disparity",
    "normalized_utilities",
    "UtilityReport",
    "utility_report",
]
