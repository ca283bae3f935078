"""Figure 6: the synthetic cover-problem comparisons.

- **fig6a** — per-iteration total/group influenced fractions of the
  greedy P2 and P6 runs at quota Q=0.2 (the paper's seed-selection
  trajectory plot).
- **fig6b** — per-group influenced fractions at termination for quotas
  Q in {0.1, 0.2, 0.3}.
- **fig6c** — solution-set sizes |S| for the same quota sweep.
"""

from __future__ import annotations

from repro.datasets.synthetic import DEFAULT_DEADLINE, default_synthetic
from repro.core.cover import solve_fair_tcim_cover, solve_tcim_cover
from repro.influence.ensemble import WorldEnsemble
from repro.experiments.runner import ExperimentResult

QUOTA_ITERATIONS = 0.2
QUOTA_SWEEP = (0.1, 0.2, 0.3)


def _ensemble(quick: bool, seed: int):
    graph, assignment = default_synthetic(seed=seed)
    n_worlds = 60 if quick else 200
    return WorldEnsemble(graph, assignment, n_worlds=n_worlds, seed=seed + 1)


def run_fig6a(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """Greedy iteration trajectories for P2 vs P6 (Q=0.2)."""
    ensemble = _ensemble(quick, seed)
    tau = DEFAULT_DEADLINE
    population = float(ensemble.group_sizes.sum())
    p2 = solve_tcim_cover(ensemble, QUOTA_ITERATIONS, tau)
    p6 = solve_fair_tcim_cover(ensemble, QUOTA_ITERATIONS, tau)

    result = ExperimentResult(
        experiment_id="fig6a",
        title=f"Synthetic cover problem: greedy iterations (Q={QUOTA_ITERATIONS}, tau={tau})",
        columns=[
            "iteration",
            "P2 total", "P2 group1", "P2 group2",
            "P6 total", "P6 group1", "P6 group2",
        ],
        notes="Rows beyond a method's termination repeat its final values.",
    )
    longest = max(p2.size, p6.size)
    for i in range(longest):
        row = [i + 1]
        for solution in (p2, p6):
            step = solution.trace.steps[min(i, solution.size - 1)]
            fractions = step.group_utilities / ensemble.group_sizes
            row.extend(
                [
                    float(step.group_utilities.sum()) / population,
                    float(fractions[0]),
                    float(fractions[1]),
                ]
            )
        result.add_row(*row)

    p2_final = p2.report
    p6_final = p6.report
    result.check(
        "both methods reach the population quota",
        p2_final.population_fraction >= QUOTA_ITERATIONS - 0.01
        and p6_final.population_fraction >= QUOTA_ITERATIONS - 0.01,
        f"P2 {p2_final.population_fraction:.3f}, P6 {p6_final.population_fraction:.3f}",
    )
    result.check(
        "only P6 reaches the quota in every group",
        p6_final.fraction_influenced.min() >= QUOTA_ITERATIONS - 0.01
        and p2_final.fraction_influenced.min() < QUOTA_ITERATIONS,
        f"P6 min {p6_final.fraction_influenced.min():.3f}, "
        f"P2 min {p2_final.fraction_influenced.min():.3f}",
    )
    result.check(
        "P6 uses only modestly more seeds than P2",
        p6.size <= max(2 * p2.size, p2.size + 15),
        f"|S| P2={p2.size}, P6={p6.size}",
    )
    return result


def _quota_sweep(quick: bool, seed: int):
    ensemble = _ensemble(quick, seed)
    tau = DEFAULT_DEADLINE
    rows = []
    for quota in QUOTA_SWEEP:
        p2 = solve_tcim_cover(ensemble, quota, tau)
        p6 = solve_fair_tcim_cover(ensemble, quota, tau)
        rows.append((quota, p2, p6))
    return rows


def run_fig6b(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """Per-group influenced fractions at termination, per quota."""
    result = ExperimentResult(
        experiment_id="fig6b",
        title=f"Synthetic cover problem: group influence vs quota (tau={DEFAULT_DEADLINE})",
        columns=["Q", "P2 group1", "P2 group2", "P6 group1", "P6 group2"],
    )
    all_fair_ok = True
    any_unfair_gap = False
    for quota, p2, p6 in _quota_sweep(quick, seed):
        p2f = p2.report.fraction_influenced
        p6f = p6.report.fraction_influenced
        result.add_row(quota, float(p2f[0]), float(p2f[1]), float(p6f[0]), float(p6f[1]))
        all_fair_ok &= bool(p6f.min() >= quota - 0.01)
        any_unfair_gap |= bool(p2f.min() < quota - 0.01)

    result.check("P6 meets the quota in every group at every Q", all_fair_ok)
    result.check(
        "P2 leaves some group below quota for at least one Q",
        any_unfair_gap,
    )
    return result


def run_fig6c(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """Solution-set sizes per quota."""
    result = ExperimentResult(
        experiment_id="fig6c",
        title=f"Synthetic cover problem: |S| vs quota (tau={DEFAULT_DEADLINE})",
        columns=["Q", "P2 |S|", "P6 |S|"],
    )
    overhead_ok = True
    monotone = []
    for quota, p2, p6 in _quota_sweep(quick, seed):
        result.add_row(quota, p2.size, p6.size)
        overhead_ok &= p6.size <= max(2 * p2.size, p2.size + 15)
        monotone.append((p2.size, p6.size))

    result.check(
        "P6 uses only a small number of additional seeds at every Q",
        overhead_ok,
        f"sizes {monotone}",
    )
    result.check(
        "seed counts grow with the quota for both methods",
        all(b[0] >= a[0] and b[1] >= a[1] for a, b in zip(monotone, monotone[1:])),
    )
    return result
