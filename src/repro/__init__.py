"""repro — fair time-critical influence maximization in social networks.

A from-scratch reproduction of Ali et al., *On the Fairness of
Time-Critical Influence Maximization in Social Networks* (ICDE 2022,
arXiv:1905.06618): the FAIRTCIM-BUDGET and FAIRTCIM-COVER surrogate
problems, their CELF greedy solvers with the paper's approximation
guarantees, and every substrate they depend on (graph engine, IC/LT
diffusion, live-edge influence estimation, dataset generators) plus a
harness regenerating every table and figure of the paper's evaluation.

Quickstart (imperative)::

    from repro import (
        WorldEnsemble, two_block_sbm,
        solve_tcim_budget, solve_fair_tcim_budget,
    )

    graph, groups = two_block_sbm(
        n=500, majority_fraction=0.7, p_hom=0.025, p_het=0.001,
        activation_probability=0.05, seed=0,
    )
    ensemble = WorldEnsemble(graph, groups, n_worlds=100, seed=1)
    unfair = solve_tcim_budget(ensemble, budget=30, deadline=20)
    fair = solve_fair_tcim_budget(ensemble, budget=30, deadline=20)
    print(unfair.report.disparity, fair.report.disparity)

Quickstart (declarative — serializable, cacheable, service-ready)::

    from repro import EnsembleSpec, RunSpec, Session, SolverSpec

    session = Session()
    result = session.solve(RunSpec(
        ensemble=EnsembleSpec(dataset="synthetic", n_worlds=100, world_seed=1),
        solver=SolverSpec(problem="budget", budget=30, deadline=20),
    ))
    print(result.disparity, result.spec.to_json())
"""

from repro.core import (
    BudgetSolution,
    ConcaveFunction,
    CoverSolution,
    FairnessComparison,
    check_theorem1,
    check_theorem2,
    compare_solutions,
    identity,
    lazy_greedy,
    log1p,
    plain_greedy,
    power,
    solve_fair_tcim_budget,
    solve_fair_tcim_cover,
    solve_tcim_budget,
    solve_tcim_cover,
    sqrt,
)
from repro.graph import DiGraph, GraphDelta, GroupAssignment
from repro.graph.generators import (
    barabasi_albert,
    block_model_with_edge_counts,
    erdos_renyi,
    stochastic_block_model,
    two_block_sbm,
)
from repro.influence import (
    WorldEnsemble,
    disparity,
    exact_group_utilities,
    exact_utility,
    monte_carlo_group_utilities,
    monte_carlo_utility,
)
from repro.api import (
    EnsembleSpec,
    ExecutionSpec,
    RunResult,
    RunSpec,
    Session,
    SolverSpec,
    spec_template,
)
from repro.sweep import (
    SweepSpec,
    run_cell,
    run_sweep,
    sweep_template,
)

__version__ = "1.2.0"

__all__ = [
    "__version__",
    # graph
    "DiGraph",
    "GraphDelta",
    "GroupAssignment",
    "stochastic_block_model",
    "two_block_sbm",
    "block_model_with_edge_counts",
    "erdos_renyi",
    "barabasi_albert",
    # influence
    "WorldEnsemble",
    "disparity",
    "exact_utility",
    "exact_group_utilities",
    "monte_carlo_utility",
    "monte_carlo_group_utilities",
    # core solvers
    "solve_tcim_budget",
    "solve_fair_tcim_budget",
    "solve_tcim_cover",
    "solve_fair_tcim_cover",
    "BudgetSolution",
    "CoverSolution",
    "ConcaveFunction",
    "identity",
    "sqrt",
    "log1p",
    "power",
    "lazy_greedy",
    "plain_greedy",
    "FairnessComparison",
    "compare_solutions",
    "check_theorem1",
    "check_theorem2",
    # declarative api
    "EnsembleSpec",
    "SolverSpec",
    "ExecutionSpec",
    "RunSpec",
    "RunResult",
    "Session",
    "spec_template",
    # scenario sweeps
    "SweepSpec",
    "run_sweep",
    "run_cell",
    "sweep_template",
]
