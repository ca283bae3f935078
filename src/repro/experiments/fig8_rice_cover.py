"""Figure 8: Rice-Facebook cover-problem comparisons.

Same dataset and parameters as Figure 7 (p_e=0.01, tau=20); the cover
quota applies to all four groups for P6 while P2 covers the population
as a whole.  Reported groups: V1/V2.

- **fig8a** — greedy iteration trajectories at Q=0.2.
- **fig8b** — V1/V2 fractions at termination for Q in {0.1, 0.2, 0.3}.
- **fig8c** — solution sizes for the same sweep.
"""

from __future__ import annotations

from repro.datasets.rice import rice_facebook_surrogate
from repro.core.cover import solve_fair_tcim_cover, solve_tcim_cover
from repro.influence.ensemble import WorldEnsemble
from repro.experiments.runner import ExperimentResult

DEADLINE = 20
QUOTA_ITERATIONS = 0.2
QUOTA_SWEEP = (0.1, 0.2, 0.3)
REPORTED = ("V1", "V2")


def _ensemble(quick: bool, seed: int):
    graph, assignment = rice_facebook_surrogate(seed=seed)
    n_worlds = 40 if quick else 150
    return WorldEnsemble(graph, assignment, n_worlds=n_worlds, seed=seed + 1)


def run_fig8a(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """Greedy iterations on the Rice surrogate (Q=0.2)."""
    ensemble = _ensemble(quick, seed)
    quota = QUOTA_ITERATIONS
    population = float(ensemble.group_sizes.sum())
    i1 = ensemble.group_names.index(REPORTED[0])
    i2 = ensemble.group_names.index(REPORTED[1])
    p2 = solve_tcim_cover(ensemble, quota, DEADLINE)
    p6 = solve_fair_tcim_cover(ensemble, quota, DEADLINE)

    result = ExperimentResult(
        experiment_id="fig8a",
        title=f"Rice-Facebook cover: greedy iterations (Q={quota}, tau={DEADLINE})",
        columns=[
            "iteration",
            "P2 total", "P2 V1", "P2 V2",
            "P6 total", "P6 V1", "P6 V2",
        ],
        notes="Rows beyond a method's termination repeat its final values.",
    )
    for i in range(max(p2.size, p6.size)):
        row = [i + 1]
        for solution in (p2, p6):
            step = solution.trace.steps[min(i, solution.size - 1)]
            fractions = step.group_utilities / ensemble.group_sizes
            row.extend(
                [
                    float(step.group_utilities.sum()) / population,
                    float(fractions[i1]),
                    float(fractions[i2]),
                ]
            )
        result.add_row(*row)

    result.check(
        "P6 reaches the quota in every group; P2 does not",
        p6.report.fraction_influenced.min() >= quota - 0.01
        and p2.report.fraction_influenced.min() < quota,
        f"P6 min {p6.report.fraction_influenced.min():.3f}, "
        f"P2 min {p2.report.fraction_influenced.min():.3f}",
    )
    result.check(
        "P6 overhead is a small number of additional seeds",
        p6.size <= max(2 * p2.size, p2.size + 25),
        f"P2 {p2.size} vs P6 {p6.size}",
    )
    return result


def _quota_sweep(quick: bool, seed: int):
    ensemble = _ensemble(quick, seed)
    rows = []
    for quota in QUOTA_SWEEP:
        p2 = solve_tcim_cover(ensemble, quota, DEADLINE)
        p6 = solve_fair_tcim_cover(ensemble, quota, DEADLINE)
        rows.append((ensemble, quota, p2, p6))
    return rows


def run_fig8b(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """V1/V2 fractions at termination vs quota."""
    result = ExperimentResult(
        experiment_id="fig8b",
        title=f"Rice-Facebook cover: group influence vs quota (tau={DEADLINE})",
        columns=["Q", "P2 V1", "P2 V2", "P6 V1", "P6 V2"],
    )
    fair_ok = True
    for ensemble, quota, p2, p6 in _quota_sweep(quick, seed):
        i1 = ensemble.group_names.index(REPORTED[0])
        i2 = ensemble.group_names.index(REPORTED[1])
        p2f = p2.report.fraction_influenced
        p6f = p6.report.fraction_influenced
        result.add_row(quota, float(p2f[i1]), float(p2f[i2]), float(p6f[i1]), float(p6f[i2]))
        fair_ok &= bool(p6f.min() >= quota - 0.01)

    result.check("P6 covers every group to the quota at every Q", fair_ok)
    return result


def run_fig8c(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """Solution sizes vs quota."""
    result = ExperimentResult(
        experiment_id="fig8c",
        title=f"Rice-Facebook cover: |S| vs quota (tau={DEADLINE})",
        columns=["Q", "P2 |S|", "P6 |S|"],
    )
    sizes = []
    for _, quota, p2, p6 in _quota_sweep(quick, seed):
        result.add_row(quota, p2.size, p6.size)
        sizes.append((p2.size, p6.size))

    result.check(
        "P6 needs only modestly more seeds than P2 at every Q",
        all(f <= max(2 * u, u + 25) for u, f in sizes),
        f"sizes {sizes}",
    )
    result.check(
        "sizes grow with the quota",
        all(b[0] >= a[0] and b[1] >= a[1] for a, b in zip(sizes, sizes[1:])),
    )
    return result
