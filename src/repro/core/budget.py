"""Budget-constrained solvers: TCIM-BUDGET (P1) and FAIRTCIM-BUDGET (P4).

Both are "pick at most ``B`` seeds maximising a monotone submodular
objective" and share the CELF engine; they differ only in the
objective:

- P1 maximises total influence ``f_tau(S; V, G)``;
- P4 maximises the concave surrogate ``sum_i H(f_tau(S; V_i, G))``.

The greedy solution to P1 carries the ``1 - 1/e`` guarantee of Kempe et
al.; the greedy solution to P4 carries Theorem 1's guarantee relative
to P1's optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import OptimizationError
from repro.graph.digraph import NodeId
from repro.influence.backends import UtilityEstimator
from repro.influence.utility import UtilityReport, utility_report
from repro.core.concave import ConcaveFunction, by_name as _concave_by_name, log1p
from repro.core.greedy import SelectionTrace, WarmStart, lazy_greedy, plain_greedy
from repro.core.objectives import ConcaveSumObjective, TotalInfluenceObjective


@dataclass(frozen=True)
class BudgetSolution:
    """Result of a budget-constrained solve.

    ``report`` evaluates the selected seeds at the solve deadline;
    use :meth:`evaluate_at` for other deadlines (e.g. the deadline
    sweeps of Fig. 4c) — the evaluation reuses the same ensemble, so
    comparisons are common-random-number fair.
    """

    problem: str
    seeds: List[NodeId]
    trace: SelectionTrace
    report: UtilityReport
    ensemble: UtilityEstimator

    @property
    def deadline(self) -> float:
        return self.report.deadline

    def evaluate_at(self, deadline: float) -> UtilityReport:
        """Re-evaluate this seed set at a different deadline."""
        state = self.ensemble.state_for(self.seeds)
        return utility_report(
            groups=self.ensemble.group_names,
            utilities=self.ensemble.group_utilities(state, deadline),
            group_sizes=self.ensemble.group_sizes,
            deadline=deadline,
            seed_count=len(self.seeds),
        )


def _solve(
    ensemble: UtilityEstimator,
    objective,
    budget: int,
    deadline: float,
    problem: str,
    method: str,
    discount: Optional[float] = None,
    block_size: Optional[int] = None,
    warm_start: Optional[WarmStart] = None,
) -> BudgetSolution:
    if budget < 1:
        raise OptimizationError(f"budget must be >= 1, got {budget}")
    if budget > ensemble.n_candidates:
        raise OptimizationError(
            f"budget {budget} exceeds the candidate pool "
            f"({ensemble.n_candidates})"
        )
    if method == "celf":
        engine = lazy_greedy
    elif method == "plain":
        engine = plain_greedy
    else:
        raise OptimizationError(f"method must be 'celf' or 'plain', got {method!r}")
    kwargs = {}
    if warm_start is not None:
        if method != "celf":
            raise OptimizationError(
                "warm starts apply to the CELF engine only, not "
                f"method={method!r}"
            )
        kwargs["warm_start"] = warm_start
    trace = engine(
        ensemble,
        objective,
        deadline=deadline,
        max_seeds=budget,
        discount=discount,
        block_size=block_size,
        **kwargs,
    )
    if trace.size == 0:
        raise OptimizationError(
            "greedy selected no seeds — every candidate has zero marginal "
            "influence (check the deadline and activation probabilities)"
        )
    # Reports always use the paper's step-function utility (Eq. 1) so
    # discounted and undiscounted solutions stay comparable; the
    # discount only shapes *selection*.
    if discount is None:
        final_utilities = trace.final_group_utilities
    else:
        final_utilities = ensemble.group_utilities(
            ensemble.state_for(trace.seeds), deadline
        )
    report = utility_report(
        groups=ensemble.group_names,
        utilities=final_utilities,
        group_sizes=ensemble.group_sizes,
        deadline=deadline,
        seed_count=trace.size,
    )
    return BudgetSolution(
        problem=problem,
        seeds=trace.seeds,
        trace=trace,
        report=report,
        ensemble=ensemble,
    )


def solve_budget_spec(
    ensemble: UtilityEstimator,
    spec,
    block_size: Optional[int] = None,
    warm_start: Optional[WarmStart] = None,
) -> BudgetSolution:
    """Solve a declarative budget request (P1 or P4) on a built estimator.

    ``spec`` is a :class:`repro.api.SolverSpec` with
    ``problem="budget"`` (duck-typed, so this module stays independent
    of the api package): ``fair`` picks P4 over P1, ``concave`` is
    resolved by name, and the remaining knobs map one-to-one onto
    :func:`solve_tcim_budget` / :func:`solve_fair_tcim_budget` — the
    output is bit-identical to the equivalent kwarg call.
    ``block_size`` is an execution override the caller resolved
    through the config chain (speed only, never results).
    """
    if getattr(spec, "problem", None) != "budget":
        raise OptimizationError(
            f"solve_budget_spec needs a budget SolverSpec, got "
            f"problem={getattr(spec, 'problem', None)!r}"
        )
    if spec.fair:
        return solve_fair_tcim_budget(
            ensemble,
            spec.budget,
            spec.deadline,
            # None means "the paper's default wrapper" — resolve to log.
            concave=_concave_by_name(spec.concave or "log"),
            weights=spec.weights,
            method=spec.method,
            discount=spec.discount,
            block_size=block_size,
                warm_start=warm_start,
        )
    return solve_tcim_budget(
        ensemble,
        spec.budget,
        spec.deadline,
        method=spec.method,
        discount=spec.discount,
        block_size=block_size,
        warm_start=warm_start,
    )


def solve_tcim_budget(
    ensemble: UtilityEstimator,
    budget: int,
    deadline: float,
    method: str = "celf",
    discount: Optional[float] = None,
    block_size: Optional[int] = None,
    warm_start: Optional[WarmStart] = None,
) -> BudgetSolution:
    """Solve P1: maximise total time-critical influence with ``|S| <= B``.

    Returns a :class:`BudgetSolution`; ``solution.seeds`` is the greedy
    seed set with the ``(1 - 1/e)`` approximation guarantee.

    ``discount=gamma`` switches selection from the paper's step utility
    to the time-discounted extension (a node activated at ``t`` is
    worth ``gamma**t``) named in the paper's conclusions; the returned
    report still scores the seeds with the step utility so solutions
    remain comparable.  ``block_size`` tunes the batched gain oracle
    (speed only — see :func:`repro.core.greedy.lazy_greedy`).
    """
    problem = "TCIM-BUDGET(P1)" if discount is None else f"TCIM-BUDGET(P1,gamma={discount:g})"
    return _solve(
        ensemble,
        TotalInfluenceObjective(),
        budget,
        deadline,
        problem=problem,
        method=method,
        discount=discount,
        block_size=block_size,
        warm_start=warm_start,
    )


def solve_fair_tcim_budget(
    ensemble: UtilityEstimator,
    budget: int,
    deadline: float,
    concave: ConcaveFunction = log1p,
    weights: Optional[Sequence[float]] = None,
    method: str = "celf",
    discount: Optional[float] = None,
    block_size: Optional[int] = None,
    warm_start: Optional[WarmStart] = None,
) -> BudgetSolution:
    """Solve P4: maximise ``sum_i w_i H(f_tau(S; V_i, G))`` with ``|S| <= B``.

    ``concave`` is the fairness knob ``H`` (default ``log(1+z)``, the
    paper's high-curvature choice); ``weights`` optionally up-weight
    specific groups; ``discount=gamma`` applies the time-discounted
    utility extension during selection (see :func:`solve_tcim_budget`).
    Theorem 1 bounds the total influence of the result relative to P1's
    optimum.
    """
    objective = ConcaveSumObjective(concave=concave, weights=weights)
    problem = f"FAIRTCIM-BUDGET(P4,H={concave.name})"
    if discount is not None:
        problem = f"FAIRTCIM-BUDGET(P4,H={concave.name},gamma={discount:g})"
    return _solve(
        ensemble,
        objective,
        budget,
        deadline,
        problem=problem,
        method=method,
        discount=discount,
        block_size=block_size,
        warm_start=warm_start,
    )
