"""Experiment harness: one module per paper table/figure.

Every experiment is registered in
:mod:`repro.experiments.registry` under the id used throughout
DESIGN.md (``fig1``, ``fig4a`` .. ``fig10c``, ``thm1``/``thm2``,
``abl_*``) and returns an
:class:`~repro.experiments.runner.ExperimentResult` whose rows mirror
the series the paper plots.  ``quick=True`` shrinks sample counts and
sweeps for CI/benchmark budgets; ``quick=False`` runs at paper scale.

Run from the command line::

    python -m repro.cli list
    python -m repro.cli run fig4a

:mod:`repro.experiments.sweeps` states the one-axis figure sweeps
(4b/4c/5b/5c) once, as :class:`repro.sweep.SweepSpec` values
(``figure_sweep("fig4b")``) whose rows the figure runners render, so
``repro sweep`` on a figure's spec reproduces the figure's numbers.
"""

from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment
from repro.experiments.runner import ExperimentResult, ShapeCheck
from repro.experiments.sweeps import FIGURE_SWEEPS, figure_sweep, figure_sweep_ids

__all__ = [
    "EXPERIMENTS",
    "get_experiment",
    "run_experiment",
    "ExperimentResult",
    "ShapeCheck",
    "FIGURE_SWEEPS",
    "figure_sweep",
    "figure_sweep_ids",
]
