"""Figure 5: how graph properties drive disparity (synthetic, budget).

- **fig5a** — disparity vs activation probability ``p_e`` in
  {.01,.05,.1,.2,.3,.5,.7,1.0}, for deadlines tau=2 and tau=inf,
  P1 vs P4.  One topology is sampled once and re-weighted per ``p_e``
  so the sweep isolates the activation probability.
- **fig5b** — disparity vs group-size ratio (55:45, 60:40, 70:30,
  80:20), P1 vs P4.
- **fig5c** — disparity vs cliquishness: across/within edge-probability
  ratios 1:1, 3:5, 2:5, 1:25 (p_hom fixed at 0.025), P1 vs P4.

fig5b and fig5c render the rows of their
:mod:`repro.experiments.sweeps` specs, so ``repro sweep`` on
``figure_sweep("fig5b")`` / ``("fig5c")`` gives the same numbers.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.api.session import Session
from repro.datasets.synthetic import DEFAULT_DEADLINE, default_synthetic
from repro.core.budget import solve_fair_tcim_budget, solve_tcim_budget
from repro.core.concave import log1p
from repro.influence.ensemble import WorldEnsemble
from repro.experiments.common import deadline_sweep_disparities
from repro.experiments.runner import ExperimentResult
from repro.experiments.sweeps import (
    BUDGET,
    figure_rows,
    group_mix_sweep,
    homophily_sweep,
)
from repro.sweep.spec import SweepSpec

PE_SWEEP = (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0)
#: Labels of the sweeps' RATIO_SWEEP and CLIQUE_SWEEP values.
RATIO_LABELS = ("55:45", "60:40", "70:30", "80:20")
CLIQUE_LABELS = ("1:1", "3:5", "2:5", "1:25")


def _disparities(sweep: SweepSpec) -> Tuple[List[float], List[float]]:
    """The P1 and P4 disparity series of a figure sweep."""
    return tuple(
        [row["disparity"] for row in rows] for rows in figure_rows(sweep, Session())
    )


def run_fig5a(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """Disparity vs activation probability, tau in {2, inf}.

    The last two columns evaluate the tau=inf-selected seed sets under
    the tight tau=2 deadline — the deadline-misspecification gap.  Both
    deadlines of a fixed seed set come from one
    ``group_utilities_sweep`` histogram (O(k·tau) per extra tau).
    """
    n_worlds = 50 if quick else 150
    pe_values = PE_SWEEP[::2] if quick else PE_SWEEP
    graph, assignment = default_synthetic(seed=seed)

    result = ExperimentResult(
        experiment_id="fig5a",
        title=f"Synthetic: disparity vs activation probability p_e (B={BUDGET})",
        columns=[
            "p_e",
            "P1 tau=2", "P4 tau=2",
            "P1 tau=inf", "P4 tau=inf",
            "P1[inf seeds] tau=2", "P4[inf seeds] tau=2",
        ],
        notes=(
            "Same sampled topology re-weighted per p_e.  Bracketed "
            "columns evaluate the tau=inf-selected seeds at tau=2 "
            "(fixed seeds, swept evaluation deadline)."
        ),
    )
    series = {key: [] for key in ("p1_2", "p4_2", "p1_inf", "p4_inf")}
    for pe in pe_values:
        weighted = graph.with_probability(pe)
        ensemble = WorldEnsemble(
            weighted, assignment, n_worlds=n_worlds, seed=seed + 1
        )
        row = [pe]
        solutions = {}
        for tau, keys in ((2, ("p1_2", "p4_2")), (math.inf, ("p1_inf", "p4_inf"))):
            p1 = solve_tcim_budget(ensemble, BUDGET, tau)
            p4 = solve_fair_tcim_budget(ensemble, BUDGET, tau, concave=log1p)
            solutions[tau] = (p1, p4)
            row.extend([p1.report.disparity, p4.report.disparity])
            series[keys[0]].append(p1.report.disparity)
            series[keys[1]].append(p4.report.disparity)
        p1_inf, p4_inf = solutions[math.inf]
        p1_misspec = deadline_sweep_disparities(
            ensemble, p1_inf.seeds, (2, math.inf)
        )[0]
        p4_misspec = deadline_sweep_disparities(
            ensemble, p4_inf.seeds, (2, math.inf)
        )[0]
        # row = [pe, P1@2, P4@2, P1@inf, P4@inf] — emit in column order
        # (the seed version transposed P4@2 and P1@inf under the wrong
        # headers).
        result.add_row(
            row[0], row[1], row[2], row[3], row[4], p1_misspec, p4_misspec
        )

    # At saturation (p_e = 1, tau = inf) every reachable node is
    # influenced, so group fractions equalise; the interesting (low/mid
    # p_e) regime shows the higher disparity.  The paper's "lower
    # activation probability -> larger disparity" reading applies to
    # the *relative* regime: the peak never sits at full saturation.
    result.check(
        "P1 disparity at saturation (p_e=1, tau=inf) is below the sweep's peak",
        series["p1_inf"][-1] <= max(series["p1_inf"]) - 0.01
        or max(series["p1_inf"]) < 0.02,
        f"tau=inf series {['%.3f' % d for d in series['p1_inf']]}",
    )
    result.check(
        "tight deadline (tau=2) P1 disparity >= loose deadline (tau=inf) on average",
        sum(series["p1_2"]) / len(series["p1_2"])
        >= sum(series["p1_inf"]) / len(series["p1_inf"]) - 0.02,
    )
    result.check(
        "P4 disparity below P1 disparity on average (both deadlines)",
        sum(series["p4_2"]) <= sum(series["p1_2"]) + 1e-9
        and sum(series["p4_inf"]) <= sum(series["p1_inf"]) + 1e-9,
    )
    return result


def run_fig5b(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """Disparity vs group-size imbalance."""
    p1_series, p4_series = _disparities(group_mix_sweep(quick, seed))
    result = ExperimentResult(
        experiment_id="fig5b",
        title=f"Synthetic: disparity vs group size ratio (B={BUDGET}, tau={DEFAULT_DEADLINE})",
        columns=["ratio", "P1 disparity", "P4 disparity"],
    )
    for row in zip(RATIO_LABELS, p1_series, p4_series):
        result.add_row(*row)

    result.check(
        "imbalance produces substantial P1 disparity at every ratio",
        min(p1_series) > 0.02,
        f"min {min(p1_series):.3f}",
    )
    result.check(
        "P4 yields consistently lower disparity than P1 at every ratio",
        all(f <= u + 0.01 for f, u in zip(p4_series, p1_series))
        and max(p4_series) < 0.15,
        f"P4 max {max(p4_series):.3f}",
    )
    return result


def run_fig5c(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """Disparity vs cliquishness (across:within edge-probability ratio)."""
    p1_series, p4_series = _disparities(homophily_sweep(quick, seed))
    result = ExperimentResult(
        experiment_id="fig5c",
        title=f"Synthetic: disparity vs inter/intra edge ratio (B={BUDGET}, tau={DEFAULT_DEADLINE})",
        columns=["inter:intra", "P1 disparity", "P4 disparity"],
    )
    for row in zip(CLIQUE_LABELS, p1_series, p4_series):
        result.add_row(*row)

    result.check(
        "cliquishness raises P1 disparity (most-cliquish >= least-cliquish)",
        p1_series[-1] >= p1_series[0] - 0.02,
        f"1:1 {p1_series[0]:.3f} -> 1:25 {p1_series[-1]:.3f}",
    )
    result.check(
        "P4 beats P1 wherever P1 shows real disparity (and on average)",
        sum(p4_series) <= sum(p1_series)
        and all(
            f <= u + 0.02
            for f, u in zip(p4_series, p1_series)
            if u >= 0.05
        ),
        f"P4 {['%.3f' % d for d in p4_series]} vs P1 {['%.3f' % d for d in p1_series]}",
    )
    return result
