"""Greedy maximisation engines: CELF lazy greedy and plain greedy.

Both engines maximise ``objective(group_utilities(S))`` by iteratively
adding the candidate with the largest marginal gain (Section 3.4's
greedy heuristic).  For monotone submodular objectives this carries the
classic guarantees the paper's Theorems 1 and 2 build on.

**Selection rule.**  Each round both engines take the largest marginal
gain and treat gains within ``tol = GAIN_TOLERANCE * max(1, |F(S)|)``
of it as ties, which go to the lowest candidate position.  Utilities
are float64 — step-model ones exact counts divided once (see
:mod:`repro.influence.ensemble`) — so the rounding left in a gain is
~1e-16 relative, far inside ``tol``, and the rule picks the same
candidate however the gain was reached.

:func:`lazy_greedy` is CELF (Leskovec et al. 2007) with per-group
bounds, kept in flat per-candidate arrays rather than a heap: a key
(an oracle gain or an upper bound on the current gain) and a flag
saying whether the key is this round's oracle gain.  A round runs one
of two ways, chosen by the utility model alone (step or discounted),
not by a knob:

- **Exact rounds.**  Under the step model the estimator
  (:class:`~repro.influence.ensemble.UtilityEstimator`, over worlds or
  RR pools) keeps every candidate's exact per-group marginal counts on
  its state (``marginal_counts``), so every key is an exact gain and
  the pick is read straight from them — plain greedy's rule on plain
  greedy's rows.  A round is then one fused
  estimator call, ``add_seed_and_score``: ``add_seed`` keeps ``M`` (through
  the reach index's transpose) and the state's counts at the deadline
  current, so the call returns the new utilities and every open
  candidate's row ``M[c] + counts``, O(k) a row, without rebuilding
  anything.  The engine keeps the open positions itself.  A pick that
  ends the solve (the budget is spent, or the stop condition holds on
  its utilities) scores no rows.  ``evaluations`` counts the rows
  scored, as :func:`plain_greedy` reports, each round charged to the
  step it leads to.
- **Bound rounds** (discounted utilities, which are not counts), below.

Either way the first round scores every candidate in one
``candidate_group_utilities_batch`` call.

In bound rounds it keeps each candidate's per-group marginal vector
``delta_c = u(S + c) - u(S)`` from its last oracle call.  Every
group's utility is submodular in the seed set, so ``delta_c`` only
shrinks as ``S`` grows, and as the objective is monotone,
``objective(u + delta_c) - objective(u)`` bounds the candidate's
current gain from above.  For the concave fair objectives, which are
separable over groups, this is much tighter than CELF's stale scalar
gain.  After every pick one row-wise
:meth:`~repro.core.objectives.Objective.values` call over the
``(C, k)`` matrix ``u + deltas`` re-bounds every candidate at once.  Each
step then takes the candidate with the largest key (the first on equal
keys); while that key is a bound, the candidate is scored by the
oracle (``candidate_group_utilities``).  Once the top key is a fresh
gain, CELF scores every stale candidate within ``2 * tol`` of it at a
lower position than the pick, which could win the tie, so its choice —
seeds, gains and utilities — is plain greedy's bit for bit.  This
holds for any monotone submodular utility every query path computes
to the same bits — step-model counts and discounted float64 sums
alike.

:func:`plain_greedy` rescores every open candidate every round through
the scalar oracle (``candidate_group_utilities``), sharing no marginal
counts with CELF: the reference for the tests and the CELF ablation
bench.  Batched rows are bit-identical to scalar ones, so the two
engines' traces are comparable bit for bit.  Both engines run serially
on the caller thread.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.errors import InfeasibleError, OptimizationError
from repro.graph.digraph import NodeId
from repro.influence.ensemble import UtilityEstimator
from repro.core.objectives import Objective

#: Marginal gains below this are treated as zero (Monte Carlo noise
#: floor).  Scaled by ``max(1, |F(S)|)`` it is also the tie tolerance
#: of the selection rule.
GAIN_TOLERANCE = 1e-12

StopCondition = Callable[[np.ndarray], bool]


def _tie_tolerance(objective_value: float) -> float:
    """Gains this close to the best one tie (see the selection rule)."""
    return GAIN_TOLERANCE * max(1.0, abs(objective_value))


@dataclass(frozen=True)
class SelectionStep:
    """One greedy iteration: which seed was added and what it bought.

    ``evaluations`` counts oracle calls (utility evaluations) made for
    this step.
    """

    node: NodeId
    position: int
    objective_value: float
    gain: float
    group_utilities: np.ndarray
    evaluations: int


@dataclass
class SelectionTrace:
    """Full audit trail of a greedy run.

    The iteration figures of the paper (Fig. 6a / 8a) are direct
    renderings of a trace: per-step group utilities for a growing seed
    set.
    """

    steps: List[SelectionStep] = field(default_factory=list)
    stopped_reason: str = ""

    @property
    def seeds(self) -> List[NodeId]:
        return [step.node for step in self.steps]

    @property
    def size(self) -> int:
        return len(self.steps)

    @property
    def final_group_utilities(self) -> np.ndarray:
        if not self.steps:
            raise OptimizationError("trace is empty")
        return self.steps[-1].group_utilities

    @property
    def final_objective(self) -> float:
        if not self.steps:
            raise OptimizationError("trace is empty")
        return self.steps[-1].objective_value

    @property
    def total_evaluations(self) -> int:
        return sum(step.evaluations for step in self.steps)


# Per-thread observer stack for streaming traces: a tap registered on
# the solving thread sees every SelectionStep the instant the engine
# records it.  Thread-local on purpose — concurrent solves (the solve
# service runs many per process) each stream their own steps, and a
# solve with no tap pays one attribute probe per step.
_step_taps = threading.local()


@contextmanager
def trace_tap(callback: Callable[[SelectionStep], None]):
    """Observe the calling thread's greedy steps as they happen.

    Every :class:`SelectionStep` appended to a trace by an engine
    running on this thread is passed to ``callback`` immediately after
    it is recorded — the hook the solve service streams NDJSON traces
    from.  Purely observational: the engines' arithmetic, tie-breaking
    and traces are untouched, so tapped solves stay bit-identical to
    untapped ones.  Taps nest (innermost registered first) and must not
    raise — an exception aborts the solve like any estimator error.
    """
    stack = getattr(_step_taps, "stack", None)
    if stack is None:
        stack = _step_taps.stack = []
    stack.append(callback)
    try:
        yield
    finally:
        stack.pop()


def _notify_step(step: SelectionStep) -> None:
    """Fan one recorded step out to the calling thread's taps."""
    stack = getattr(_step_taps, "stack", None)
    if stack:
        for callback in tuple(stack):
            callback(step)


def _check_arguments(ensemble: UtilityEstimator, max_seeds: int) -> None:
    if max_seeds < 1:
        raise OptimizationError(f"max_seeds must be >= 1, got {max_seeds}")
    if ensemble.n_candidates == 0:
        raise OptimizationError("candidate pool is empty")


def lazy_greedy(
    ensemble: UtilityEstimator,
    objective: Objective,
    deadline: float,
    max_seeds: int,
    stop: Optional[StopCondition] = None,
    require_stop: bool = False,
    discount: Optional[float] = None,
) -> SelectionTrace:
    """CELF lazy greedy maximisation with per-group bounds.

    Parameters
    ----------
    ensemble:
        Pre-built :class:`~repro.influence.ensemble.UtilityEstimator`
        (a :class:`~repro.influence.ensemble.WorldEnsemble` or an
        :class:`~repro.influence.rrsets.RRSetEstimator`).
    objective:
        Monotone scalarisation of group utilities.
    deadline:
        The time-critical deadline ``tau`` (``math.inf`` allowed).
    max_seeds:
        Hard cap on the seed-set size (the budget ``B`` for P1/P4; a
        safety bound for cover problems).
    stop:
        Optional predicate on the current group-utility vector; when it
        returns ``True`` selection stops (cover problems pass their
        quota check here).
    require_stop:
        If ``True``, failing to satisfy ``stop`` before running out of
        candidates/progress raises :class:`InfeasibleError` (cover
        semantics).  If ``False`` the trace is returned as-is (budget
        semantics).
    discount:
        Optional time discount ``gamma`` in ``[0, 1]`` (estimators that
        support it weigh a node activated at ``t`` by ``gamma**t``).

    Returns the :class:`SelectionTrace`; ``trace.stopped_reason`` is one
    of ``"budget"``, ``"stop-condition"``, ``"no-gain"``,
    ``"exhausted"``.
    """
    _check_arguments(ensemble, max_seeds)
    state = ensemble.empty_state()
    utilities = ensemble.group_utilities(state, deadline, discount)
    current_value = objective.value(utilities)
    trace = SelectionTrace()

    if stop is not None and stop(utilities):
        trace.stopped_reason = "stop-condition"
        return trace

    # Step-model utilities are exact counts, so every round is exact
    # (the first round's batch builds the state's marginal counts);
    # discounted ones are not, so every round is a bound round.
    exact = discount is None
    evaluations = ensemble.n_candidates
    first = ensemble.candidate_group_utilities_batch(
        state, np.arange(evaluations), deadline, discount
    )
    # ``key[c]`` is an oracle gain when ``fresh[c]``, else an upper
    # bound on the current gain; chosen candidates hold -inf.  Exact
    # rounds score every open candidate each round, so every key is
    # fresh and ``open_positions`` lists the candidates not chosen.
    key = objective.values(first) - current_value
    chosen = np.zeros(ensemble.n_candidates, dtype=bool)
    if exact:
        open_positions = np.arange(ensemble.n_candidates)
    else:
        # Each candidate's per-group marginal vector from its last
        # oracle call; ``utilities + deltas[c]`` bounds its utilities.
        deltas = first - utilities
        fresh = np.ones(ensemble.n_candidates, dtype=bool)

    def score(position: int) -> None:
        nonlocal evaluations
        row = ensemble.candidate_group_utilities(state, position, deadline, discount)
        evaluations += 1
        deltas[position] = row - utilities
        key[position] = objective.value(row) - current_value
        fresh[position] = True

    while trace.size < max_seeds:
        top = int(key.argmax())
        if chosen[top]:
            trace.stopped_reason = "exhausted"
            break
        if not exact and not fresh[top]:
            score(top)
            continue
        best = key[top]
        if best <= GAIN_TOLERANCE:
            trace.stopped_reason = "no-gain"
            break
        # Every key bounds its candidate's gain, so nothing beats
        # ``best`` (up to float64 rounding).  The pick is the lowest
        # fresh position within ``tol``; a stale key within ``2 * tol``
        # at a lower position could still win the tie, so it is scored
        # first and the step looks again.
        tol = _tie_tolerance(current_value)
        if exact:
            pick = int(np.argmax(key >= best - tol))
        else:
            pick = int(np.argmax(fresh & (key >= best - tol)))
            behind = np.flatnonzero(~fresh[:pick] & (key[:pick] >= best - 2.0 * tol))
            if behind.size:
                for position in behind:
                    score(int(position))
                continue

        gain = float(key[pick])
        chosen[pick] = True
        if exact:
            # One fused call adds the pick and reads the new utilities
            # and, unless the solve ends here (the budget is spent or
            # ``stop`` holds), every open row; those rows are charged to
            # the next step.  Short of the budget the call tests ``stop``
            # itself (no rows means it held), so only the budget's last
            # pick tests it here.
            key[pick] = -np.inf
            open_positions = open_positions[open_positions != pick]
            last = trace.size + 1 >= max_seeds
            utilities, rows = ensemble.add_seed_and_score(
                state, pick, deadline, None if last else open_positions, stop
            )
            current_value = objective.value(utilities)
            if rows is not None:
                key[open_positions] = objective.values(rows) - current_value
            halted = stop is not None and (stop(utilities) if last else rows is None)
        else:
            ensemble.add_seed(state, pick)
            utilities = ensemble.group_utilities(state, deadline, discount)
            current_value = objective.value(utilities)
            fresh[:] = False
            key = objective.values(utilities + deltas) - current_value
            key[chosen] = -np.inf
            halted = stop is not None and stop(utilities)
        step = SelectionStep(
            node=ensemble.label(pick),
            position=pick,
            objective_value=current_value,
            gain=gain,
            group_utilities=utilities,
            evaluations=evaluations,
        )
        trace.steps.append(step)
        _notify_step(step)
        evaluations = open_positions.size if exact else 0
        if halted:
            trace.stopped_reason = "stop-condition"
            break
    else:
        trace.stopped_reason = "budget"

    if require_stop and trace.stopped_reason != "stop-condition":
        raise InfeasibleError(
            f"stop condition unmet after {trace.size} seeds "
            f"(reason: {trace.stopped_reason}); the quota may be infeasible "
            "for this graph/deadline"
        )
    return trace


def plain_greedy(
    ensemble: UtilityEstimator,
    objective: Objective,
    deadline: float,
    max_seeds: int,
    stop: Optional[StopCondition] = None,
    require_stop: bool = False,
    discount: Optional[float] = None,
) -> SelectionTrace:
    """Reference greedy: every open candidate re-evaluated every round.

    Same selection rule as :func:`lazy_greedy` (see the module
    docstring), quadratically more utility evaluations.  Kept as the
    test oracle and for the CELF ablation: every row comes from the
    scalar oracle ``candidate_group_utilities``, one call per open
    candidate.
    """
    _check_arguments(ensemble, max_seeds)
    state = ensemble.empty_state()
    utilities = ensemble.group_utilities(state, deadline, discount)
    current_value = objective.value(utilities)
    trace = SelectionTrace()

    if stop is not None and stop(utilities):
        trace.stopped_reason = "stop-condition"
        return trace

    chosen = np.zeros(ensemble.n_candidates, dtype=bool)
    while trace.size < max_seeds:
        remaining = np.flatnonzero(~chosen)
        if remaining.size == 0:
            trace.stopped_reason = "exhausted"
            break
        rows = np.stack(
            [
                ensemble.candidate_group_utilities(state, int(position), deadline, discount)
                for position in remaining
            ]
        )
        gains = objective.values(rows) - current_value
        best = gains.max()
        if best <= GAIN_TOLERANCE:
            trace.stopped_reason = "no-gain"
            break
        # Lowest position among the gains tied with the best.
        index = int(np.argmax(gains >= best - _tie_tolerance(current_value)))
        position = int(remaining[index])
        ensemble.add_seed(state, position)
        chosen[position] = True
        utilities = ensemble.group_utilities(state, deadline, discount)
        current_value = objective.value(utilities)
        step = SelectionStep(
            node=ensemble.label(position),
            position=position,
            objective_value=current_value,
            gain=float(gains[index]),
            group_utilities=utilities,
            evaluations=int(remaining.size),
        )
        trace.steps.append(step)
        _notify_step(step)
        if stop is not None and stop(utilities):
            trace.stopped_reason = "stop-condition"
            break
    else:
        trace.stopped_reason = "budget"

    if require_stop and trace.stopped_reason != "stop-condition":
        raise InfeasibleError(
            f"stop condition unmet after {trace.size} seeds "
            f"(reason: {trace.stopped_reason})"
        )
    return trace
