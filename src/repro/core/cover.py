"""Coverage-constrained solvers: TCIM-COVER (P2) and FAIRTCIM-COVER (P6).

Both are instances of *submodular cover*: grow the seed set greedily by
maximal marginal gain of a truncated monotone submodular function until
it saturates.

- P2 saturates ``min(f_tau(S;V,G)/|V|, Q)`` — the quota applies to the
  population as a whole, so a minority group can be left far below it.
- P6 saturates ``sum_i min(f_tau(S;V_i,G)/|V_i|, Q)`` — each group must
  individually reach the quota, which caps the disparity of any
  feasible solution at ``1 - Q`` and yields Theorem 2's size bound.

Monte Carlo estimates sit exactly at the constraint boundary when the
quota is met, so both solvers accept a relative ``slack`` absorbed into
the stop test (default one part in 10^9 — numerically meaningful,
statistically negligible).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import OptimizationError
from repro.graph.digraph import NodeId
from repro.influence.ensemble import UtilityEstimator
from repro.influence.utility import UtilityReport, utility_report
from repro.core.greedy import SelectionTrace, lazy_greedy
from repro.core.objectives import TotalCoverageObjective, TruncatedCoverageObjective

#: Default relative slack on the quota stop test.
DEFAULT_SLACK = 1e-9


@dataclass(frozen=True)
class CoverSolution:
    """Result of a coverage-constrained solve.

    ``seeds`` is the greedy seed set at the first iteration where the
    stop test held; ``trace`` records every iteration (Fig. 6a / 8a
    plot these directly).
    """

    problem: str
    seeds: List[NodeId]
    trace: SelectionTrace
    report: UtilityReport
    ensemble: UtilityEstimator
    quota: float

    @property
    def size(self) -> int:
        return len(self.seeds)

    @property
    def deadline(self) -> float:
        return self.report.deadline

    def evaluate_at(self, deadline: float) -> UtilityReport:
        state = self.ensemble.state_for(self.seeds)
        return utility_report(
            groups=self.ensemble.group_names,
            utilities=self.ensemble.group_utilities(state, deadline),
            group_sizes=self.ensemble.group_sizes,
            deadline=deadline,
            seed_count=len(self.seeds),
        )


def _finalize(
    problem: str,
    ensemble: UtilityEstimator,
    trace: SelectionTrace,
    deadline: float,
    quota: float,
) -> CoverSolution:
    if trace.size == 0:
        raise OptimizationError(
            f"{problem}: stop condition held for the empty seed set — "
            "the quota is trivially satisfied; nothing to solve"
        )
    report = utility_report(
        groups=ensemble.group_names,
        utilities=trace.final_group_utilities,
        group_sizes=ensemble.group_sizes,
        deadline=deadline,
        seed_count=trace.size,
    )
    return CoverSolution(
        problem=problem,
        seeds=trace.seeds,
        trace=trace,
        report=report,
        ensemble=ensemble,
        quota=quota,
    )


def solve_cover_spec(ensemble: UtilityEstimator, spec) -> CoverSolution:
    """Solve a declarative cover request (P2 or P6) on a built estimator.

    ``spec`` is a :class:`repro.api.SolverSpec` with ``problem="cover"``
    (duck-typed — see :func:`repro.core.budget.solve_budget_spec`):
    ``fair`` picks P6 over P2 and the knobs map one-to-one onto
    :func:`solve_tcim_cover` / :func:`solve_fair_tcim_cover`, so the
    output is bit-identical to the equivalent kwarg call.
    """
    if getattr(spec, "problem", None) != "cover":
        raise OptimizationError(
            f"solve_cover_spec needs a cover SolverSpec, got "
            f"problem={getattr(spec, 'problem', None)!r}"
        )
    solver = solve_fair_tcim_cover if spec.fair else solve_tcim_cover
    slack = getattr(spec, "slack", None)
    return solver(
        ensemble,
        spec.quota,
        spec.deadline,
        max_seeds=spec.max_seeds,
        slack=DEFAULT_SLACK if slack is None else slack,
    )


def solve_tcim_cover(
    ensemble: UtilityEstimator,
    quota: float,
    deadline: float,
    max_seeds: Optional[int] = None,
    slack: float = DEFAULT_SLACK,
) -> CoverSolution:
    """Solve P2: smallest greedy seed set with ``f_tau(S;V,G)/|V| >= Q``.

    Raises :class:`InfeasibleError` when no seed set drawn from the
    candidate pool reaches the quota (e.g. too-tight deadline).  The
    greedy set size carries the ``ln(1 + |V|)`` guarantee of Section
    3.4.
    """
    _check_quota(quota)
    population = float(ensemble.group_sizes.sum())
    objective = TotalCoverageObjective(quota=quota, population=population)
    cap = ensemble.n_candidates if max_seeds is None else max_seeds

    def stop(group_utilities: np.ndarray) -> bool:
        return objective.satisfied(group_utilities, slack=slack)

    trace = lazy_greedy(
        ensemble,
        objective,
        deadline=deadline,
        max_seeds=cap,
        stop=stop,
        require_stop=True,
    )
    return _finalize("TCIM-COVER(P2)", ensemble, trace, deadline, quota)


def solve_fair_tcim_cover(
    ensemble: UtilityEstimator,
    quota: float,
    deadline: float,
    max_seeds: Optional[int] = None,
    slack: float = DEFAULT_SLACK,
) -> CoverSolution:
    """Solve P6: smallest greedy seed set reaching quota ``Q`` in *every*
    group.

    Any feasible output has disparity at most ``1 - Q`` (Section 5.2.2)
    and Theorem 2 bounds its size by ``ln(1+|V|) * sum_i |S*_i|``.
    Raises :class:`InfeasibleError` when some group cannot reach the
    quota from the candidate pool.
    """
    _check_quota(quota)
    objective = TruncatedCoverageObjective(
        quota=quota, group_sizes=ensemble.group_sizes
    )
    cap = ensemble.n_candidates if max_seeds is None else max_seeds

    def stop(group_utilities: np.ndarray) -> bool:
        return objective.satisfied(group_utilities, slack=slack)

    trace = lazy_greedy(
        ensemble,
        objective,
        deadline=deadline,
        max_seeds=cap,
        stop=stop,
        require_stop=True,
    )
    return _finalize("FAIRTCIM-COVER(P6)", ensemble, trace, deadline, quota)


def _check_quota(quota: float) -> None:
    if not 0.0 < quota <= 1.0:
        raise OptimizationError(f"quota must be in (0, 1], got {quota}")

