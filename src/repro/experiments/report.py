"""EXPERIMENTS.md generation: paper-vs-measured for every artifact.

``generate_markdown`` runs every registered experiment and renders a
section per table/figure: what the paper reports (hand-extracted from
the paper text/figures), what we measured, and whether the qualitative
shape checks hold.  The committed EXPERIMENTS.md is produced by::

    python -m repro.experiments.report [--quick] [--out EXPERIMENTS.md]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict

from repro.experiments.registry import list_experiments, run_experiment

#: What the paper reports for each artifact (the expectation our
#: measured rows are compared against).  Hand-extracted from the paper.
PAPER_EXPECTATIONS: Dict[str, str] = {
    "fig1": (
        "Optimal P1 picks the two majority hubs {a,b} at every deadline; its "
        "red-group utility falls from 0.16 (tau=inf) to 0.00 (tau=2). The "
        "FAIRTCIM optimum keeps both groups served (red 0.27 at inf, 0.18 at "
        "tau=2) at a modest total-utility cost (0.38 -> 0.31 at inf)."
    ),
    "fig4a": (
        "P1 influences ~30% of group 1 but only ~2% of group 2; P4-log "
        "nearly equalises the groups; sqrt (lower curvature) removes less "
        "disparity than log but costs less total influence."
    ),
    "fig4b": (
        "Disparity between the groups grows as the seed budget grows "
        "(B=5..30); P4 stays near parity at every budget with total "
        "influence close to P1's."
    ),
    "fig4c": (
        "P1 disparity rises over tau=1..5, then falls and plateaus for "
        "tau>=5 (up to ~0.45 at the peak); P4 disparity stays low (~0.05) "
        "for all deadlines."
    ),
    "fig5a": (
        "Lower activation probabilities give higher disparity (biases in "
        "the graph structure dominate when cascades are short); at "
        "saturation (p_e -> 1) groups equalise. tau=2 curves sit above "
        "tau=inf curves. P4 below P1 throughout."
    ),
    "fig5b": (
        "Even mild group-size imbalance (55:45) yields disparity under P1, "
        "growing with imbalance up to 80:20; P4 yields almost none."
    ),
    "fig5c": (
        "Disparity grows as the across:within edge ratio falls from 1:1 to "
        "1:25 (cliquishness); P4 stays low."
    ),
    "fig6a": (
        "Both methods reach the Q=0.2 population quota, but only P6 reaches "
        "it in both groups, keeping the two group curves close throughout "
        "the iterations, at the cost of a few extra seeds."
    ),
    "fig6b": (
        "P2 leaves group 2 well below every quota Q in {.1,.2,.3}; P6 "
        "covers both groups to the quota."
    ),
    "fig6c": (
        "P6 solution sets are only slightly larger than P2's at every "
        "quota (e.g. ~35 vs ~30 at Q=0.2 in the paper's figure)."
    ),
    "fig7a": (
        "On Rice-Facebook, P1 influences group V1 at ~0.17 vs V2 at ~0.02; "
        "P4 (log) lifts V2 several-fold and brings the pair much closer at "
        "a marginal total-influence cost."
    ),
    "fig7b": (
        "Disparity increases with budget; P4 consistently lower than P1 "
        "with nearly identical total influence."
    ),
    "fig7c": (
        "Disparity of P1 grows (mildly) as tau increases on this dense "
        "network; P4 is effective at every deadline."
    ),
    "fig8a": (
        "Only P6 reaches the Q=0.2 quota in both reported groups; it uses "
        "a small number of extra seeds and keeps group curves close."
    ),
    "fig8b": ("P6 covers every group to each quota Q in {.1,.2,.3}; P2 does not."),
    "fig8c": ("P6's seed sets are modestly larger than P2's (paper: ~120 vs ~90 at Q=0.3)."),
    "fig9a": (
        "On Instagram-Activities the fractions are tiny (sparse graph, "
        "tau=2). P4 achieves equal-or-lower disparity; notably the paper "
        "finds P4-log can achieve *higher* total influence than greedy P1 "
        "(diverse seeds reach more of this fragmented graph)."
    ),
    "fig9b": ("P6 covers both genders to quotas Q in {.0015,.002}; P2 favours one."),
    "fig9c": ("P6 uses only a small number of extra seeds (paper: ~40-55)."),
    "fig10a": (
        "With 5 spectral-topological groups on Facebook-SNAP, P4 improves "
        "the max-disparity pair somewhat at small total cost (paper notes "
        "the budget-problem improvement is modest and suggests higher "
        "curvature)."
    ),
    "fig10b": ("P6 clearly improves the pair's coverage balance at Q=0.1."),
    "fig10c": ("P6's solution is modestly larger than P2's (paper: ~120 vs ~90)."),
    "thm1": (
        "Theorem 1: the greedy FAIRTCIM-BUDGET solution's total influence "
        "is at least (1-1/e) * H(f(S*)) where S* optimises P1."
    ),
    "thm2": (
        "Theorem 2: the greedy FAIRTCIM-COVER seed set is at most "
        "ln(1+|V|) * sum_i |S*_i|."
    ),
    "abl_h": (
        "Design ablation (paper Sections 5.1/6.2): curvature is the "
        "fairness knob — more curvature, less disparity, less total "
        "influence; identity recovers P1 exactly."
    ),
    "abl_celf": (
        "Design ablation: CELF returns the plain-greedy solution (soundness "
        "relies on submodularity); in bound rounds, which only discounted "
        "solves run, it needs far fewer utility evaluations, and with exact "
        "marginal counts each round scores every candidate in O(k)."
    ),
    "abl_samples": (
        "Design ablation (paper Section 6.1 uses 200 MC samples): the "
        "estimator's standard error shrinks as 1/sqrt(R); estimates are "
        "stable across R."
    ),
    "abl_lt": (
        "Paper Section 3.1: 'our results can easily be extended to the LT "
        "model' — the fairness mechanism transfers to Linear Threshold."
    ),
    "ext_discount": (
        "Paper conclusions (future work): 'more complex models of time-"
        "criticality in information propagation (such as discounting with "
        "time)'. Implemented as gamma**t activation weights; discounted "
        "selection favours fast spreaders and composes with the fair "
        "objective."
    ),
}

HEADER = """\
# EXPERIMENTS — paper vs measured

Every table and figure of *On the Fairness of Time-Critical Influence
Maximization in Social Networks* (Ali et al., ICDE 2022 /
arXiv:1905.06618), regenerated by this repository's harness.

- Regenerate any section: `python -m repro.cli run <id>` (add `--quick`
  for the reduced scale used in CI).
- Regenerate this file: `python -m repro.experiments.report`.
- Absolute numbers are **not** expected to match the paper (our
  real-world datasets are statistics-matched surrogates — see DESIGN.md
  §4 — and Monte Carlo seeds differ); the *shape checks* under each
  table encode the qualitative claims that must and do hold.

"""


def generate_markdown(quick: bool = False, seed: int = 0, stream=None) -> str:
    """Run all experiments and render the markdown report."""
    parts = [HEADER]
    if quick:
        parts.append(
            "*This build was generated with `--quick` "
            "(reduced sample counts).*\n\n"
        )
    for experiment_id in list_experiments():
        started = time.perf_counter()
        result = run_experiment(experiment_id, quick=quick, seed=seed)
        elapsed = time.perf_counter() - started
        if stream is not None:
            status = "ok" if result.all_checks_pass else "CHECK-FAILURES"
            print(f"{experiment_id:10} {elapsed:6.1f}s {status}", file=stream)
        parts.append(f"## {experiment_id}: {result.title}\n\n")
        expectation = PAPER_EXPECTATIONS.get(experiment_id)
        if expectation:
            parts.append(f"**Paper reports.** {expectation}\n\n")
        parts.append("**Measured.**\n\n```\n")
        parts.append(result.as_table())
        parts.append("\n```\n\n")
        if result.notes:
            parts.append(f"*{result.notes}*\n\n")
        for check in result.shape_checks:
            parts.append(f"- {check.as_text()}\n")
        parts.append(f"\n({elapsed:.1f}s)\n\n")
    return "".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    args = parser.parse_args(argv)
    markdown = generate_markdown(quick=args.quick, seed=args.seed, stream=sys.stderr)
    Path(args.out).write_text(markdown, encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
