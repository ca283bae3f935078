"""Shared helpers for the experiment modules.

Centralises the patterns every figure repeats: building an ensemble,
solving P1/P4 side by side, reading prefix utilities out of a greedy
trace (budget sweeps exploit that greedy solutions are nested), and
evaluating disparity between a chosen pair of groups.

Every ensemble an experiment builds flows through
:func:`build_ensemble`, which routes construction through the default
:class:`repro.api.Session` — one shared ensemble cache and the
explicit config chain (per-call ``backend=`` > session execution >
process defaults in :data:`repro.config.execution_defaults`).  The
default backend is ``"auto"`` — dense for the paper-scale graphs,
sparse/lazy as footprints grow.  :func:`use_backend` is the scoped
override the CLI's ``--backend`` flag uses.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Hashable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import execution_defaults
from repro.errors import ConfigError, EstimationError
from repro.graph.digraph import DiGraph, NodeId
from repro.graph.groups import GroupAssignment
from repro.influence.backends import UtilityEstimator, check_backend_name
from repro.influence.ensemble import InfluenceState, WorldEnsemble
from repro.influence.procbuild import BuildWorkersLike
from repro.core.budget import BudgetSolution, solve_fair_tcim_budget, solve_tcim_budget
from repro.core.concave import ConcaveFunction, log1p, sqrt
from repro.core.greedy import SelectionTrace

#: Deadline sentinel used in sweep tables.
INF = math.inf

#: Backend used when nothing in the config chain sets one.
LIBRARY_DEFAULT_BACKEND = "auto"


def check_backend_config(backend: str) -> str:
    """Validate a backend name at the config layer (:class:`ConfigError`).

    Same rule as :func:`repro.influence.backends.check_backend_name`,
    re-typed: a bad name here is experiment/CLI/spec configuration, not
    an estimation failure.
    """
    try:
        return check_backend_name(backend)
    except EstimationError as exc:
        raise ConfigError(str(exc)) from None


def get_default_backend() -> str:
    """The backend :func:`build_ensemble` uses when none is passed."""
    return execution_defaults.get("backend", LIBRARY_DEFAULT_BACKEND)


@contextmanager
def use_backend(backend: str) -> Iterator[None]:
    """Temporarily override the process-default backend (restores on exit).

    The scoped equivalent of writing ``backend`` into
    :data:`repro.config.execution_defaults` — what ``run_experiment``'s
    ``backend=`` override uses.  Process-wide for its duration, now
    race-free under the store's lock.
    """
    check_backend_config(backend)
    with execution_defaults.override("backend", backend):
        yield


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


def build_ensemble(
    graph: DiGraph,
    assignment: GroupAssignment,
    n_worlds: int,
    seed: int,
    candidates: Optional[Sequence[NodeId]] = None,
    model: str = "ic",
    backend: Optional[str] = None,
    build_workers: Optional[BuildWorkersLike] = None,
) -> WorldEnsemble:
    """Single point of ensemble construction for every experiment.

    Routes through the default :class:`repro.api.Session`'s ensemble
    cache, so repeated builds over one ``(graph, assignment)`` pair
    with identical parameters share worlds.  The cache keeps the last
    few ensembles (and their distance stores) alive after an
    experiment returns; long-lived processes that want the memory back
    call ``repro.api.default_session().clear_cache()``.
    ``backend=None`` defers
    down the config chain (session execution, then the process default
    in :data:`repro.config.execution_defaults` — what the CLI's
    ``--backend`` flag and :func:`use_backend` set); any explicit name
    wins.  Likewise ``build_workers=None`` defers to the chain.
    Backends and build-worker counts change memory/speed only, never
    the estimates, so figures are identical under all of them.
    """
    from repro.api.session import default_session

    return default_session().build_ensemble(
        graph,
        assignment,
        n_worlds=n_worlds,
        seed=seed,
        candidates=candidates,
        model=model,
        backend=backend,
        build_workers=build_workers,
    )


def solve_p1_p4(
    ensemble: UtilityEstimator,
    budget: int,
    deadline: float,
    concave: ConcaveFunction = log1p,
) -> Tuple[BudgetSolution, BudgetSolution]:
    """Solve the unfair and fair budget problems on one ensemble."""
    return (
        solve_tcim_budget(ensemble, budget, deadline),
        solve_fair_tcim_budget(ensemble, budget, deadline, concave=concave),
    )


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


def deadline_sweep_fractions(
    ensemble: UtilityEstimator,
    seeds: Sequence[NodeId],
    deadlines: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """Total and per-group influenced fractions of one seed set at
    every deadline.

    Returns ``(totals, fractions)`` with shapes ``(T,)`` and ``(T, k)``
    for ``T`` deadlines.  Activation times are fixed once the ensemble
    is sampled, so the whole sweep is answered from one
    ``group_utilities_sweep`` histogram — O(1) per extra deadline —
    falling back to per-deadline scalar queries for estimators without
    the sweep oracle.
    """
    state = ensemble.state_for(seeds)
    sweep = getattr(ensemble, "group_utilities_sweep", None)
    if sweep is not None:
        utilities = sweep(state, deadlines)
    else:
        utilities = np.stack(
            [ensemble.group_utilities(state, deadline) for deadline in deadlines]
        )
    population = float(ensemble.group_sizes.sum())
    totals = utilities.sum(axis=1) / population
    fractions = utilities / ensemble.group_sizes[np.newaxis, :]
    return totals, fractions


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
    report V1/V2).  One sweep call serves every deadline.
    """
    if (group_a is None) != (group_b is None):
        raise ConfigError(
            "pass both group_a and group_b to restrict the disparity to a "
            "pair, or neither for the max-vs-min disparity"
        )
    _, fractions = deadline_sweep_fractions(ensemble, seeds, deadlines)
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
    for group in assignment.groups:
        members = sorted(
            assignment.members(group),
            key=lambda n: (-graph.out_degree(n), repr(n)),
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
