"""The paper's one-axis figure sweeps (Figs. 4b/4c/5b/5c), stated once.

Each of those figures walks one parameter — budget, deadline, group
mix, cliquishness — with everything else pinned, and compares P1 with
P4.  This module states each walk as a :class:`repro.sweep.SweepSpec`
over the figure's axis and ``solver.fair: [false, true]``, with no
baselines.  The figure runners (:mod:`repro.experiments.fig4_budget`,
:mod:`repro.experiments.fig5_graph_props`) render their tables from
these specs' rows (:func:`figure_rows`), so ``repro sweep`` on a
:func:`figure_sweep` reproduces the figure's numbers exactly, with the
sweep engine's tidy rows, resume and single-cell re-runs on top.

Matching the figures' common-random-numbers design, every sweep here
sets ``derive_seeds=False``: all cells share the base spec's
``dataset_seed``/``world_seed``, so the axis is the *only* thing that
varies between cells.  (GraphWorld-style replicated designs with
per-cell seed draws are the engine's default; these adapters opt out.)

Use :func:`figure_sweep` by id, or dump one to JSON for the CLI::

    python - <<'PY' > fig4b_sweep.json
    from repro.experiments.sweeps import figure_sweep
    print(figure_sweep("fig4b").to_json())
    PY
    python -m repro.cli sweep fig4b_sweep.json --out out/fig4b
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.api.session import Session
from repro.api.specs import RunSpec
from repro.datasets.synthetic import DEFAULT_DEADLINE
from repro.errors import ConfigError
from repro.sweep.runner import solve_cell
from repro.sweep.spec import SweepSpec

#: Paper defaults (Section 6.1): n=500, 70:30 groups, p_hom=0.025,
#: p_het=0.001, p_e=0.05, B=30, tau=20.
BUDGET = 30
BUDGET_SWEEP = (5, 10, 15, 20, 25, 30)
DEADLINE_SWEEP = (1, 2, 5, 10, 20, math.inf)
RATIO_SWEEP = (0.55, 0.60, 0.70, 0.80)
#: p_het at p_hom=0.025: across:within ratios 1:1, 3:5, 2:5, 1:25.
CLIQUE_SWEEP = (0.025, 0.015, 0.01, 0.001)


def _sweep(
    name: str,
    axis: str,
    values: Sequence[Any],
    quick: bool,
    seed: int,
    n_worlds: Tuple[int, int] = (200, 60),
) -> SweepSpec:
    """A P1-vs-P4 sweep of ``axis`` over the paper's defaults;
    ``n_worlds`` is (full, quick)."""
    base = RunSpec.from_dict(
        {
            "ensemble": {
                "dataset": "synthetic",
                "dataset_params": {},
                "n_worlds": n_worlds[quick],
                "dataset_seed": seed,
                "world_seed": seed + 1,
            },
            "solver": {
                "problem": "budget",
                "deadline": float(DEFAULT_DEADLINE),
                "budget": BUDGET,
            },
        }
    )
    return SweepSpec(
        name=name,
        base=base,
        axes={axis: list(values), "solver.fair": [False, True]},
        baselines=(),
        derive_seeds=False,
        seed=seed,
    )


def budget_sweep(quick: bool = False, seed: int = 0) -> SweepSpec:
    """Fig. 4b's axis: budget B in {5..30}, everything else pinned."""
    return _sweep("fig4b-budget", "solver.budget", BUDGET_SWEEP, quick, seed)


def deadline_sweep(quick: bool = False, seed: int = 0) -> SweepSpec:
    """Fig. 4c's axis: deadline tau in {1, 2, 5, 10, 20, inf}.

    ``"inf"`` is the spec layer's JSON spelling of an unbounded
    deadline (strict JSON has no Infinity literal), so it is also the
    axis-value spelling here.
    """
    values = ["inf" if math.isinf(tau) else float(tau) for tau in DEADLINE_SWEEP]
    return _sweep("fig4c-deadline", "solver.deadline", values, quick, seed)


def group_mix_sweep(quick: bool = False, seed: int = 0) -> SweepSpec:
    """Fig. 5b's axis: majority fraction in {.55, .60, .70, .80}."""
    return _sweep(
        "fig5b-group-mix",
        "ensemble.dataset_params.majority_fraction",
        RATIO_SWEEP,
        quick,
        seed,
        n_worlds=(150, 50),
    )


def homophily_sweep(quick: bool = False, seed: int = 0) -> SweepSpec:
    """Fig. 5c's axis: cliquishness via p_het at fixed p_hom=0.025."""
    return _sweep(
        "fig5c-cliquishness",
        "ensemble.dataset_params.p_het",
        CLIQUE_SWEEP,
        quick,
        seed,
        n_worlds=(150, 50),
    )


def figure_rows(
    sweep: SweepSpec, session: Session
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Solve every cell of a figure sweep over ``session``, writing no
    files, and return the greedy rows ``(P1, P4)``, each in axis order.

    Each cell's row is exactly the one ``repro sweep`` writes, so a
    figure and its sweep cannot disagree.
    """
    rows: Dict[bool, List[Dict[str, Any]]] = {False: [], True: []}
    for cell in sweep.expand():
        row = solve_cell(sweep, cell, session)
        rows[cell.spec.solver.fair].append(row["methods"]["greedy"])
    return rows[False], rows[True]


#: figure id -> SweepSpec builder (quick, seed).
FIGURE_SWEEPS: Dict[str, Callable[..., SweepSpec]] = {
    "fig4b": budget_sweep,
    "fig4c": deadline_sweep,
    "fig5b": group_mix_sweep,
    "fig5c": homophily_sweep,
}


def figure_sweep_ids() -> Tuple[str, ...]:
    return tuple(FIGURE_SWEEPS)


def figure_sweep(figure_id: str, quick: bool = False, seed: int = 0) -> SweepSpec:
    """The :class:`SweepSpec` a figure's runner renders."""
    try:
        builder = FIGURE_SWEEPS[figure_id]
    except KeyError:
        raise ConfigError(
            f"no sweep adapter for {figure_id!r}; available: "
            f"{', '.join(sorted(FIGURE_SWEEPS))}"
        ) from None
    return builder(quick=quick, seed=seed)
