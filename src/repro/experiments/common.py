"""Shared helpers for the experiment modules.

Centralises the patterns every figure repeats: reading prefix
utilities out of a greedy trace (budget sweeps exploit that greedy
solutions are nested), sweeping one seed set over deadlines, and
evaluating disparity between a chosen pair of groups.  Figures build
their :class:`~repro.influence.ensemble.WorldEnsemble` directly, one
per graph, so P1/P4 (or P2/P6) compare on common random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.graph.digraph import DiGraph, NodeId
from repro.graph.groups import GroupAssignment
from repro.influence.ensemble import InfluenceState, UtilityEstimator
from repro.core.greedy import SelectionTrace


@dataclass(frozen=True)
class PairDisparity:
    """Disparity restricted to one pair of groups (the paper reports the
    pair with maximum disparity on the multi-group datasets)."""

    group_a: Hashable
    group_b: Hashable
    fraction_a: float
    fraction_b: float

    @property
    def value(self) -> float:
        return abs(self.fraction_a - self.fraction_b)


def prefix_fractions(
    ensemble: UtilityEstimator,
    trace: SelectionTrace,
    budgets: Sequence[int],
    deadline: float,
) -> List[Tuple[int, float, np.ndarray]]:
    """Utilities of greedy *prefixes* — the budget sweep for free.

    Greedy seed sets are nested (the B=5 solution is the first five
    picks of the B=30 run), so one trace yields every budget point.
    Returns ``(budget, total_fraction, per_group_fractions)`` per
    requested budget (clipped to the trace length).
    """
    results = []
    state = ensemble.empty_state()
    population = float(ensemble.group_sizes.sum())
    step_iter = iter(trace.steps)
    placed = 0
    for budget in sorted(budgets):
        while placed < budget:
            try:
                step = next(step_iter)
            except StopIteration:
                break
            ensemble.add_seed(state, step.position)
            placed += 1
        utilities = ensemble.group_utilities(state, deadline)
        results.append(
            (
                min(budget, placed),
                float(utilities.sum()) / population,
                utilities / ensemble.group_sizes,
            )
        )
    return results


def deadline_sweep_disparities(
    ensemble: UtilityEstimator,
    seeds: Sequence[NodeId],
    deadlines: Sequence[float],
    group_a: Optional[Hashable] = None,
    group_b: Optional[Hashable] = None,
) -> List[float]:
    """Eq.-2 disparity of one *fixed* seed set at every deadline.

    By default the disparity is max-vs-min over all groups (the
    two-group datasets' ``|f_1 - f_2|``); passing ``group_a`` /
    ``group_b`` restricts it to a named pair (the Rice experiments
    report V1/V2).  Activation times are fixed once the ensemble is
    sampled, so one ``group_utilities_sweep`` histogram serves every
    deadline — O(k·tau) per extra deadline.
    """
    if (group_a is None) != (group_b is None):
        raise ConfigError(
            "pass both group_a and group_b to restrict the disparity to a "
            "pair, or neither for the max-vs-min disparity"
        )
    utilities = ensemble.group_utilities_sweep(ensemble.state_for(seeds), deadlines)
    fractions = utilities / ensemble.group_sizes[np.newaxis, :]
    if group_a is None:
        return [
            float(row.max() - row.min()) for row in fractions
        ]
    ia = ensemble.group_names.index(group_a)
    ib = ensemble.group_names.index(group_b)
    return [float(abs(row[ia] - row[ib])) for row in fractions]


def max_disparity_pair(
    ensemble: UtilityEstimator, state_or_solution, deadline: float
) -> PairDisparity:
    """The pair of groups with the largest normalized-utility gap.

    The paper's multi-group datasets (Rice, Facebook-SNAP) report only
    the two groups "which showed the maximum disparity"; this helper
    finds that pair under a given solution.
    """
    if isinstance(state_or_solution, InfluenceState):
        state = state_or_solution
    else:
        state = ensemble.state_for(state_or_solution.seeds)
    fractions = ensemble.normalized_group_utilities(state, deadline)
    hi = int(np.argmax(fractions))
    lo = int(np.argmin(fractions))
    return PairDisparity(
        group_a=ensemble.group_names[hi],
        group_b=ensemble.group_names[lo],
        fraction_a=float(fractions[hi]),
        fraction_b=float(fractions[lo]),
    )


def pair_disparity(
    ensemble: UtilityEstimator,
    seeds: Sequence[NodeId],
    deadline: float,
    group_a: Hashable,
    group_b: Hashable,
) -> PairDisparity:
    """Disparity between two named groups under an explicit seed set."""
    state = ensemble.state_for(seeds)
    fractions = ensemble.normalized_group_utilities(state, deadline)
    ia = ensemble.group_names.index(group_a)
    ib = ensemble.group_names.index(group_b)
    return PairDisparity(
        group_a=group_a,
        group_b=group_b,
        fraction_a=float(fractions[ia]),
        fraction_b=float(fractions[ib]),
    )


def degree_stratified_candidates(
    graph: DiGraph,
    assignment: GroupAssignment,
    per_group_top: int,
    random_extra: int,
    seed: int,
) -> List[NodeId]:
    """Candidate pool: top-degree nodes of every group + random filler.

    Large graphs (Facebook-SNAP surrogate) need a restricted candidate
    pool to bound the distance tensor.  Keeping each group's hubs in
    the pool preserves both the unfair optimum (global hubs) and the
    fair optimum (per-group hubs); random filler guards against
    pathological omissions.
    """
    rng = np.random.default_rng(seed)
    chosen: List[NodeId] = []
    seen = set()
    degrees = graph.out_degrees()
    for group in assignment.groups:
        members = sorted(
            assignment.members(group),
            key=lambda n: (-degrees[graph.index_of(n)], repr(n)),
        )
        for node in members[:per_group_top]:
            if node not in seen:
                seen.add(node)
                chosen.append(node)
    pool = [n for n in graph.nodes() if n not in seen]
    if random_extra and pool:
        extra = rng.choice(len(pool), size=min(random_extra, len(pool)), replace=False)
        for i in sorted(extra.tolist()):
            chosen.append(pool[i])
    return chosen
