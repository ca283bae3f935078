"""The paper's contribution: fair time-critical influence maximization.

Solvers for the four tractable problem formulations:

- :func:`~repro.core.budget.solve_tcim_budget` — P1 (TCIM-BUDGET),
- :func:`~repro.core.budget.solve_fair_tcim_budget` — P4
  (FAIRTCIM-BUDGET, concave surrogate),
- :func:`~repro.core.cover.solve_tcim_cover` — P2 (TCIM-COVER),
- :func:`~repro.core.cover.solve_fair_tcim_cover` — P6
  (FAIRTCIM-COVER, per-group quota surrogate),

plus exact brute-force references for all six formulations (including
the NP-hard constrained P3/P5) on small instances, the concave wrapper
family ``H``, the CELF lazy-greedy engine, and empirical checkers for
the paper's two approximation theorems.
"""

from repro.core.budget import (
    BudgetSolution,
    solve_budget_spec,
    solve_fair_tcim_budget,
    solve_tcim_budget,
)
from repro.core.concave import (
    ConcaveFunction,
    identity,
    log1p,
    power,
    sqrt,
)
from repro.core.cover import (
    CoverSolution,
    solve_cover_spec,
    solve_fair_tcim_cover,
    solve_tcim_cover,
)
from repro.core.greedy import (
    DEFAULT_BLOCK_SIZE,
    SelectionStep,
    SelectionTrace,
    WarmStart,
    check_block_size,
    get_default_block_size,
    lazy_greedy,
    plain_greedy,
    trace_tap,
)
from repro.core.metrics import FairnessComparison, compare_solutions
from repro.core.objectives import (
    ConcaveSumObjective,
    Objective,
    TotalInfluenceObjective,
    TruncatedCoverageObjective,
)
from repro.core.theory import TheoremCheck, check_theorem1, check_theorem2

__all__ = [
    "solve_tcim_budget",
    "solve_fair_tcim_budget",
    "solve_tcim_cover",
    "solve_fair_tcim_cover",
    "solve_budget_spec",
    "solve_cover_spec",
    "BudgetSolution",
    "CoverSolution",
    "ConcaveFunction",
    "identity",
    "sqrt",
    "log1p",
    "power",
    "Objective",
    "TotalInfluenceObjective",
    "ConcaveSumObjective",
    "TruncatedCoverageObjective",
    "SelectionStep",
    "SelectionTrace",
    "WarmStart",
    "trace_tap",
    "lazy_greedy",
    "plain_greedy",
    "DEFAULT_BLOCK_SIZE",
    "check_block_size",
    "get_default_block_size",
    "FairnessComparison",
    "compare_solutions",
    "TheoremCheck",
    "check_theorem1",
    "check_theorem2",
]
