"""Influence estimation: the time-critical utility ``f_tau`` (Eq. 1).

Four estimators, all agreeing in expectation:

- :class:`~repro.influence.ensemble.WorldEnsemble` — the workhorse:
  common-random-numbers estimation over ``R`` pre-sampled live-edge
  worlds, supporting O(R·n) incremental marginal-gain queries (what the
  greedy solvers call thousands of times).  Its per-candidate
  activation-time store is pluggable
  (:mod:`~repro.influence.backends`): ``dense`` tensor, ``sparse`` CSR,
  on-demand ``lazy`` rows, or ``auto`` selection by memory footprint —
  all bit-identical in output.
- :class:`~repro.influence.rrsets.RRSetEstimator` — group-tagged
  reverse-reachable sets with IMM/OPIM-style adaptive sampling
  (``EnsembleSpec(kind="rrset")``): the scalable path when a full
  distance tensor will not fit, with the per-group surface the fair
  objectives need.
- :func:`~repro.influence.montecarlo.monte_carlo_utility` — naive
  forward-simulation Monte Carlo (the authors' estimator); used for
  cross-validation.
- :func:`~repro.influence.exact.exact_group_utilities` — exact
  expectation by enumerating every live-edge world on tiny graphs;
  the ground truth for tests and for the Figure-1 example.

:class:`repro.api.Session` builds one of the first two per
``EnsembleSpec.kind``.  Solvers are typed against the
:class:`~repro.influence.backends.UtilityEstimator` protocol, so any
estimator slots in without touching the solver layer.  Deadline
rounding is defined once in :mod:`~repro.influence.deadlines`.

Plus the fairness measurements of Section 4:
:func:`~repro.influence.utility.disparity` implements Eq. 2.
"""

from repro.influence.backends import (
    BACKEND_CHOICES,
    BACKEND_NAMES,
    DenseBackend,
    DistanceBackend,
    LazyBackend,
    SparseBackend,
    UtilityEstimator,
    check_backend_name,
    make_backend,
    select_backend,
)
from repro.influence.deadlines import clip_deadline, simulation_horizon
from repro.influence.ensemble import InfluenceState, WorldEnsemble
from repro.influence.exact import exact_group_utilities, exact_utility
from repro.influence.incremental import (
    EdgePlan,
    RepairReport,
    plan_against,
    repair_ensemble,
)
from repro.influence.montecarlo import monte_carlo_group_utilities, monte_carlo_utility
from repro.influence.rrsets import (
    RRCollection,
    RRSetEstimator,
    RRState,
    build_rrset_estimator,
    ris_greedy,
    sample_rr_sets,
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
    "DistanceBackend",
    "DenseBackend",
    "SparseBackend",
    "LazyBackend",
    "BACKEND_NAMES",
    "BACKEND_CHOICES",
    "check_backend_name",
    "make_backend",
    "select_backend",
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
    "RRCollection",
    "RRSetEstimator",
    "RRState",
    "build_rrset_estimator",
    "sample_rr_sets",
    "ris_greedy",
    "disparity",
    "normalized_utilities",
    "UtilityReport",
    "utility_report",
]
