"""Empirical verification of Theorems 1 and 2 on exactly solvable graphs.

The graphs are small directed networks (few enough edges for exact
live-edge enumeration) with a clear majority/minority structure, so the
brute-force optimum of P1/P2 is computable and the theorem inequalities
can be *measured* rather than assumed.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.graph.digraph import DiGraph
from repro.graph.groups import GroupAssignment
from repro.influence.ensemble import WorldEnsemble
from repro.core.concave import log1p, sqrt
from repro.core.theory import check_theorem1, check_theorem2
from repro.experiments.runner import ExperimentResult


def theorem_graph(activation: float = 0.6) -> Tuple[DiGraph, GroupAssignment]:
    """A 9-node directed graph with a hub-heavy majority and a chain
    minority — small enough (12 directed edges) for exact enumeration,
    structured enough that fair and unfair optima differ."""
    graph = DiGraph(default_probability=activation)
    for node in ("m0", "m1", "m2", "m3", "m4", "m5"):
        graph.add_node(node, group="majority")
    for node in ("r0", "r1", "r2"):
        graph.add_node(node, group="minority")
    # Majority hub m0 reaches most of its group directly.
    for leaf in ("m1", "m2", "m3", "m4"):
        graph.add_edge("m0", leaf)
    graph.add_edge("m1", "m5")
    graph.add_edge("m4", "m5")
    # Minority reachable through a chain (deadline-sensitive).
    graph.add_edge("m5", "r0")
    graph.add_edge("r0", "r1")
    graph.add_edge("r1", "r2")
    # Minority hub with internal reach.
    graph.add_edge("r0", "r2")
    graph.add_edge("m2", "m3")
    graph.add_edge("r2", "r1")
    assignment = GroupAssignment.from_graph(graph)
    return graph, assignment


def _shared_ensemble(graph, assignment, n_worlds: int, seed: int) -> WorldEnsemble:
    """One estimator per theorem experiment.

    Every (H, tau, Q) combination used to rebuild an *identical*
    ensemble (same graph, same world seed) inside its check; building
    it once and passing it down shares the world sampling and reach
    index with zero change in results.
    """
    return WorldEnsemble(graph, assignment, n_worlds=n_worlds, seed=seed)


def run_thm1(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """Theorem 1 measured for H=log and H=sqrt at two deadlines."""
    graph, assignment = theorem_graph()
    n_worlds = 200 if quick else 600
    ensemble = _shared_ensemble(graph, assignment, n_worlds, seed)
    result = ExperimentResult(
        experiment_id="thm1",
        title="Theorem 1: f(greedy-P4) >= (1-1/e) * H(f(P1 optimum))",
        columns=["H", "tau", "lhs f(S_hat)", "rhs bound", "holds"],
    )
    all_hold = True
    for concave in (log1p, sqrt):
        for tau in (2, 4):
            check = check_theorem1(
                graph,
                assignment,
                budget=2,
                deadline=tau,
                concave=concave,
                ensemble=ensemble,
            )
            result.add_row(concave.name, tau, check.lhs, check.rhs, check.holds)
            all_hold &= check.holds
    result.check("Theorem 1 inequality holds on every measured instance", all_hold)

    # Structural sanity behind every deadline argument in the paper:
    # utilities are non-decreasing in tau.  One sweep histogram answers
    # the whole deadline ladder for a fixed seed set.
    state = ensemble.state_for(ensemble.candidate_labels[:2])
    sweep = ensemble.group_utilities_sweep(state, (1, 2, 4, math.inf))
    result.check(
        "estimated group utilities are non-decreasing in tau "
        "(group_utilities_sweep over tau=1,2,4,inf)",
        bool((np.diff(sweep, axis=0) >= -1e-12).all()),
        f"sweep totals {[round(float(row.sum()), 3) for row in sweep]}",
    )
    return result


def run_thm2(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """Theorem 2 measured at two quotas."""
    graph, assignment = theorem_graph(activation=0.9)
    n_worlds = 200 if quick else 600
    ensemble = _shared_ensemble(graph, assignment, n_worlds, seed)
    result = ExperimentResult(
        experiment_id="thm2",
        title="Theorem 2: |greedy-P6| <= ln(1+|V|) * sum_i |S*_i|",
        columns=["Q", "tau", "lhs |S_hat|", "rhs bound", "holds"],
    )
    all_hold = True
    for quota in (0.3, 0.6):
        for tau in (2, 4):
            check = check_theorem2(
                graph,
                assignment,
                quota=quota,
                deadline=tau,
                ensemble=ensemble,
            )
            result.add_row(quota, tau, check.lhs, check.rhs, check.holds)
            all_hold &= check.holds
    result.check("Theorem 2 inequality holds on every measured instance", all_hold)
    return result
