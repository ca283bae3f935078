"""Figure 4: the synthetic budget-problem comparisons.

- **fig4a** — total and per-group influenced fractions for P1, P4-log
  and P4-sqrt at the default parameters (B=30, tau=20).
- **fig4b** — the same quantities sweeping the budget B in {5..30}
  (greedy prefixes of a single B=30 run, since greedy sets are nested).
- **fig4c** — Eq.-2 disparity of P1 vs P4 sweeping the deadline
  tau in {1, 2, 5, 10, 20, inf} (seeds re-selected per deadline).

Dataset: the Section-6.1 stochastic block model (n=500, g=0.7,
p_hom=0.025, p_het=0.001, p_e=0.05).
"""

from __future__ import annotations

import math

from repro.datasets.synthetic import DEFAULT_DEADLINE, default_synthetic
from repro.core.budget import solve_fair_tcim_budget, solve_tcim_budget
from repro.core.concave import log1p, sqrt
from repro.influence.ensemble import WorldEnsemble
from repro.experiments.common import (
    deadline_sweep_disparities,
    prefix_fractions,
)
from repro.experiments.runner import ExperimentResult, format_deadline

BUDGET = 30
BUDGET_SWEEP = (5, 10, 15, 20, 25, 30)
DEADLINE_SWEEP = (1, 2, 5, 10, 20, math.inf)


def _ensemble(quick: bool, seed: int):
    graph, assignment = default_synthetic(seed=seed)
    n_worlds = 60 if quick else 200
    return WorldEnsemble(graph, assignment, n_worlds=n_worlds, seed=seed + 1)


def run_fig4a(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """P1 vs P4-log vs P4-sqrt: total and group influenced fractions."""
    ensemble = _ensemble(quick, seed)
    tau = DEFAULT_DEADLINE
    p1 = solve_tcim_budget(ensemble, BUDGET, tau)
    p4_log = solve_fair_tcim_budget(ensemble, BUDGET, tau, concave=log1p)
    p4_sqrt = solve_fair_tcim_budget(ensemble, BUDGET, tau, concave=sqrt)

    result = ExperimentResult(
        experiment_id="fig4a",
        title=f"Synthetic budget problem: influence by algorithm (B={BUDGET}, tau={tau})",
        columns=["algorithm", "total", "group1", "group2", "disparity"],
    )
    reports = {"P1": p1.report, "P4-Log": p4_log.report, "P4-Sqrt": p4_sqrt.report}
    for name, report in reports.items():
        g = report.fraction_influenced
        result.add_row(name, report.population_fraction, float(g[0]), float(g[1]), report.disparity)

    result.check(
        "P1 shows large disparity between groups",
        reports["P1"].disparity > 0.05,
        f"P1 disparity {reports['P1'].disparity:.3f}",
    )
    result.check(
        "P4-Log has lower disparity than P1",
        reports["P4-Log"].disparity < reports["P1"].disparity,
        f"{reports['P4-Log'].disparity:.3f} vs {reports['P1'].disparity:.3f}",
    )
    result.check(
        "curvature ordering: disparity(P4-Log) <= disparity(P4-Sqrt) <= "
        "disparity(P1), within Monte Carlo slack",
        reports["P4-Log"].disparity <= reports["P4-Sqrt"].disparity + 0.05
        and reports["P4-Sqrt"].disparity <= reports["P1"].disparity + 0.02,
        " / ".join(f"{k}={v.disparity:.3f}" for k, v in reports.items()),
    )
    result.check(
        "total-influence cost of fairness is marginal (P4-Log within 25% of P1)",
        reports["P4-Log"].population_fraction
        >= 0.75 * reports["P1"].population_fraction,
        f"{reports['P4-Log'].population_fraction:.3f} vs {reports['P1'].population_fraction:.3f}",
    )
    return result


def run_fig4b(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """Budget sweep: P1 vs P4-log fractions at B in {5..30}."""
    ensemble = _ensemble(quick, seed)
    tau = DEFAULT_DEADLINE
    p1 = solve_tcim_budget(ensemble, BUDGET, tau)
    p4 = solve_fair_tcim_budget(ensemble, BUDGET, tau, concave=log1p)

    result = ExperimentResult(
        experiment_id="fig4b",
        title=f"Synthetic budget problem: varying budget B (tau={tau})",
        columns=[
            "B",
            "P1 total", "P1 group1", "P1 group2",
            "P4 total", "P4 group1", "P4 group2",
        ],
        notes="Budget points are greedy prefixes of one B=30 run (greedy nesting).",
    )
    p1_rows = prefix_fractions(ensemble, p1.trace, BUDGET_SWEEP, tau)
    p4_rows = prefix_fractions(ensemble, p4.trace, BUDGET_SWEEP, tau)
    p1_gaps = []
    p4_gaps = []
    for (b, p1_total, p1_groups), (_, p4_total, p4_groups) in zip(p1_rows, p4_rows):
        result.add_row(
            b,
            p1_total, float(p1_groups[0]), float(p1_groups[1]),
            p4_total, float(p4_groups[0]), float(p4_groups[1]),
        )
        p1_gaps.append(abs(float(p1_groups[0] - p1_groups[1])))
        p4_gaps.append(abs(float(p4_groups[0] - p4_groups[1])))

    result.check(
        "P1 disparity grows with budget (first vs last point)",
        p1_gaps[-1] >= p1_gaps[0] - 1e-9,
        f"{p1_gaps[0]:.3f} -> {p1_gaps[-1]:.3f}",
    )
    result.check(
        "P4 disparity stays below P1 disparity at every budget",
        all(f <= u + 0.02 for f, u in zip(p4_gaps, p1_gaps)),
        f"max P4 gap {max(p4_gaps):.3f}, min P1 gap {min(p1_gaps):.3f}",
    )
    result.check(
        "total influence grows with budget for both methods",
        all(
            later >= earlier - 1e-9
            for earlier, later in zip(
                [r[1] for r in p1_rows], [r[1] for r in p1_rows][1:]
            )
        )
        and all(
            later >= earlier - 1e-9
            for earlier, later in zip(
                [r[1] for r in p4_rows], [r[1] for r in p4_rows][1:]
            )
        ),
    )
    return result


def run_fig4c(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """Deadline sweep: Eq.-2 disparity of P1 vs P4 at each tau.

    Two extra columns evaluate the *fixed* seed sets selected at the
    default deadline across the whole sweep — the cost of deadline
    misspecification.  Activation times are frozen once the worlds are
    sampled, so those columns come from one
    ``group_utilities_sweep`` histogram per seed set (O(k·tau) per
    extra tau) instead of per-tau re-derivations.
    """
    ensemble = _ensemble(quick, seed)
    result = ExperimentResult(
        experiment_id="fig4c",
        title=f"Synthetic budget problem: varying deadline tau (B={BUDGET})",
        columns=[
            "tau",
            "P1 disparity",
            "P4 disparity",
            f"P1[tau={DEFAULT_DEADLINE} seeds]",
            f"P4[tau={DEFAULT_DEADLINE} seeds]",
        ],
        notes=(
            "Seeds re-selected per deadline (the deadline changes the "
            "optimum); the bracketed columns keep the default-deadline "
            "seeds fixed and sweep only the evaluation deadline."
        ),
    )
    solutions = {}
    for tau in DEADLINE_SWEEP:
        p1 = solve_tcim_budget(ensemble, BUDGET, tau)
        p4 = solve_fair_tcim_budget(ensemble, BUDGET, tau, concave=log1p)
        solutions[tau] = (p1, p4)
    p1_fixed, p4_fixed = solutions[DEFAULT_DEADLINE]
    p1_fixed_series = deadline_sweep_disparities(
        ensemble, p1_fixed.seeds, DEADLINE_SWEEP
    )
    p4_fixed_series = deadline_sweep_disparities(
        ensemble, p4_fixed.seeds, DEADLINE_SWEEP
    )
    p1_series = []
    p4_series = []
    for tau, fixed1, fixed4 in zip(DEADLINE_SWEEP, p1_fixed_series, p4_fixed_series):
        p1, p4 = solutions[tau]
        result.add_row(
            format_deadline(tau),
            p1.report.disparity,
            p4.report.disparity,
            fixed1,
            fixed4,
        )
        p1_series.append(p1.report.disparity)
        p4_series.append(p4.report.disparity)

    result.check(
        "P4 disparity below P1 disparity at every deadline",
        all(f <= u + 0.02 for f, u in zip(p4_series, p1_series)),
        f"P4 max {max(p4_series):.3f} vs P1 min {min(p1_series):.3f}",
    )
    rising = all(
        b >= a - 1e-9 for a, b in zip(p1_series[:3], p1_series[1:3])
    )
    result.check(
        "P1 disparity rises over the short-deadline range (tau=1..5) then "
        "falls/plateaus for large tau",
        rising and p1_series[-1] <= max(p1_series) + 1e-9,
        f"series {['%.3f' % d for d in p1_series]}",
    )
    return result
