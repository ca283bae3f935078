"""Experiment registry: id -> runnable.

Maps every table/figure id from DESIGN.md's per-experiment index to its
``run_*`` function.  Both the CLI and the benchmark suite resolve
experiments through this table.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import ConfigError
from repro.experiments.ablations import (
    run_abl_celf,
    run_abl_h,
    run_abl_lt,
    run_abl_samples,
    run_ext_discount,
)
from repro.experiments.fig1_example import run_fig1
from repro.experiments.fig4_budget import run_fig4a, run_fig4b, run_fig4c
from repro.experiments.fig5_graph_props import run_fig5a, run_fig5b, run_fig5c
from repro.experiments.fig6_cover import run_fig6a, run_fig6b, run_fig6c
from repro.experiments.fig7_rice_budget import run_fig7a, run_fig7b, run_fig7c
from repro.experiments.fig8_rice_cover import run_fig8a, run_fig8b, run_fig8c
from repro.experiments.fig9_instagram import run_fig9a, run_fig9b, run_fig9c
from repro.experiments.fig10_fbsnap import run_fig10a, run_fig10b, run_fig10c
from repro.experiments.runner import ExperimentResult
from repro.experiments.theory_checks import run_thm1, run_thm2

ExperimentFn = Callable[..., ExperimentResult]

EXPERIMENTS: Dict[str, ExperimentFn] = {
    "fig1": run_fig1,
    "fig4a": run_fig4a,
    "fig4b": run_fig4b,
    "fig4c": run_fig4c,
    "fig5a": run_fig5a,
    "fig5b": run_fig5b,
    "fig5c": run_fig5c,
    "fig6a": run_fig6a,
    "fig6b": run_fig6b,
    "fig6c": run_fig6c,
    "fig7a": run_fig7a,
    "fig7b": run_fig7b,
    "fig7c": run_fig7c,
    "fig8a": run_fig8a,
    "fig8b": run_fig8b,
    "fig8c": run_fig8c,
    "fig9a": run_fig9a,
    "fig9b": run_fig9b,
    "fig9c": run_fig9c,
    "fig10a": run_fig10a,
    "fig10b": run_fig10b,
    "fig10c": run_fig10c,
    "thm1": run_thm1,
    "thm2": run_thm2,
    "abl_h": run_abl_h,
    "abl_celf": run_abl_celf,
    "abl_samples": run_abl_samples,
    "abl_lt": run_abl_lt,
    "ext_discount": run_ext_discount,
}


def list_experiments() -> List[str]:
    """All experiment ids in presentation order."""
    return list(EXPERIMENTS)


def get_experiment(experiment_id: str) -> ExperimentFn:
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {experiment_id!r}; known ids: "
            f"{', '.join(EXPERIMENTS)}"
        ) from None


def run_experiment(
    experiment_id: str,
    quick: bool = False,
    seed: int = 0,
) -> ExperimentResult:
    """Resolve and run one experiment."""
    return get_experiment(experiment_id)(quick=quick, seed=seed)
