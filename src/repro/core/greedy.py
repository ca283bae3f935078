"""Greedy maximisation engines: CELF lazy greedy and plain greedy.

Both engines maximise ``objective(group_utilities(S))`` by iteratively
adding the candidate with the largest marginal gain (Section 3.4's
greedy heuristic).  For monotone submodular objectives this carries the
classic guarantees the paper's Theorems 1 and 2 build on.

:func:`lazy_greedy` implements CELF (Leskovec et al. 2007): marginal
gains can only shrink as the seed set grows (submodularity), so a
candidate whose *stale* upper bound is already below the best fresh
gain need not be re-evaluated.  On the paper's workloads this cuts
utility evaluations by one to two orders of magnitude;
:func:`plain_greedy` is retained as the reference oracle (identical
output under identical tie-breaking) and for the CELF ablation bench.

Both engines drive their bulk evaluations — CELF's first round, every
plain-greedy round — through the estimator's *batched gain oracle*
(``candidate_gains_batch``) in blocks of ``block_size`` candidates,
which replaces per-candidate array allocations and matmuls with one
blocked fold and one stacked contraction per block.  The oracle is
bit-identical to the scalar path, so traces are unchanged; estimators
that do not implement it (feature-detected with ``getattr``) fall back
to per-candidate queries automatically, as does ``block_size=1``.

Both engines run serially on the caller thread; their speed comes
from submodularity (CELF's lazy re-evaluation) and the batched oracle.

Tie-breaking is deterministic everywhere: equal gains resolve to the
lowest candidate position, so runs are exactly reproducible.
"""

from __future__ import annotations

import heapq
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import execution_defaults
from repro.errors import InfeasibleError, OptimizationError
from repro.graph.digraph import NodeId
from repro.influence.backends import UtilityEstimator
from repro.core.objectives import Objective

#: Marginal gains below this are treated as zero (Monte Carlo noise floor).
GAIN_TOLERANCE = 1e-12

#: Default candidate-block size for the batched gain oracle.  Tuned on
#: the synthetic SBM bench (see ``benchmarks/bench_gains.py``): the
#: speedup curve is flat from ~32 upward, so 64 keeps scratch buffers
#: small (``block_size * R * n`` bytes each) without leaving speed on
#: the table.
DEFAULT_BLOCK_SIZE = 64

StopCondition = Callable[[np.ndarray], bool]


def check_block_size(
    block_size: Optional[int], allow_none: bool = False
) -> Optional[int]:
    """Validate a block-size setting (``int >= 1``) and return it.

    The single source of truth for the rule — shared by the greedy
    engines, the CLI's ``--block-size`` parser, and the declarative
    spec validators (:class:`repro.api.ExecutionSpec`).
    """
    if block_size is None:
        if allow_none:
            return None
        raise OptimizationError("block_size must be a positive int, got None")
    if isinstance(block_size, bool) or not isinstance(block_size, int):
        raise OptimizationError(
            f"block_size must be a positive int, got {block_size!r}"
        )
    if block_size < 1:
        raise OptimizationError(f"block_size must be >= 1, got {block_size}")
    return int(block_size)


def get_default_block_size() -> int:
    """The block size used when an engine is not given one explicitly.

    Reads the process-wide store (:data:`repro.config.
    execution_defaults`), falling back to :data:`DEFAULT_BLOCK_SIZE`.
    """
    return execution_defaults.get("block_size", DEFAULT_BLOCK_SIZE)


def _iter_gain_blocks(
    ensemble: UtilityEstimator,
    state,
    positions: Sequence[int],
    objective: Objective,
    deadline: float,
    discount: Optional[float],
    base_value: float,
    block_size: int,
) -> Iterator[Tuple[int, float]]:
    """Yield ``(position, gain)`` for every candidate in ``positions``.

    Routes through ``candidate_gains_batch`` in ``block_size`` chunks
    when the estimator provides it, and falls back to per-candidate
    scalar queries otherwise — yielding identical values in identical
    order either way, which is what keeps batched and scalar greedy
    traces bit-for-bit equal.
    """
    batch_oracle = getattr(ensemble, "candidate_gains_batch", None)
    if batch_oracle is None or block_size <= 1:
        for position in positions:
            utilities = ensemble.candidate_group_utilities(
                state, position, deadline, discount
            )
            yield position, objective.value(utilities) - base_value
        return
    positions = list(positions)
    for start in range(0, len(positions), block_size):
        block = positions[start : start + block_size]
        gains = batch_oracle(
            state, block, deadline, objective, discount, base_value=base_value
        )
        for position, gain in zip(block, gains):
            yield position, float(gain)


@dataclass(frozen=True)
class WarmStart:
    """Prior first-round gains to seed a CELF solve with.

    ``gains[c]`` is candidate ``c``'s *empty-state* marginal gain from
    an earlier solve of the **same** (objective, deadline, discount)
    problem on the same estimator (a prior trace's
    :attr:`SelectionTrace.first_round_gains`); ``refresh`` lists the
    positions whose gains may have changed since — after an
    incremental ensemble repair, the union of the repair log's
    affected sets — and ``None`` means "refresh everything" (which
    degenerates to a cold first round).

    Empty-state gains of candidates whose distance rows did not change
    are bit-identical before and after a repair (the empty state's
    utilities are zero regardless of the graph, so the base value
    cannot drift), which is why a warm CELF run re-evaluates only
    ``refresh`` yet selects **bit-identical seeds** to a cold run —
    only the per-step ``evaluations`` counters differ.
    """

    gains: np.ndarray
    refresh: Optional[np.ndarray] = None


@dataclass(frozen=True)
class SelectionStep:
    """One greedy iteration: which seed was added and what it bought."""

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
    #: Every candidate's empty-state gain as scored by the first CELF
    #: round (``None`` when the run never completed one, e.g. a cover
    #: quota met by the empty set).  Feed it back as a
    #: :class:`WarmStart` to re-solve after an incremental ensemble
    #: repair without re-scoring the unaffected candidates.
    first_round_gains: Optional[np.ndarray] = None

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
    block_size: Optional[int] = None,
    warm_start: Optional[WarmStart] = None,
) -> SelectionTrace:
    """CELF lazy greedy maximisation.

    Parameters
    ----------
    ensemble:
        Pre-built influence estimator — anything satisfying the
        :class:`~repro.influence.backends.UtilityEstimator` protocol
        (a :class:`~repro.influence.ensemble.WorldEnsemble` under any
        distance backend, or a custom estimator).
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
    block_size:
        Candidate block size for the batched gain oracle that scores
        the CELF first round (``None`` — the process default, see
        :func:`get_default_block_size`; ``1`` — pure scalar path).
        Never changes the output, only the speed.
    warm_start:
        Prior first-round gains (see :class:`WarmStart`): only the
        listed ``refresh`` positions are re-scored in the first round,
        the rest reuse their recorded gains as initial CELF bounds.
        Seed sets and per-step gains are bit-identical to a cold run —
        stale bounds are re-evaluated before selection exactly as
        always — so only the ``evaluations`` counters change.

    Returns the :class:`SelectionTrace`; ``trace.stopped_reason`` is one
    of ``"budget"``, ``"stop-condition"``, ``"no-gain"``,
    ``"exhausted"``.
    """
    _check_arguments(ensemble, max_seeds)
    if block_size is None:
        block_size = get_default_block_size()
    state = ensemble.empty_state()
    current_value = objective.value(ensemble.group_utilities(state, deadline, discount))
    trace = SelectionTrace()

    if stop is not None and stop(ensemble.group_utilities(state, deadline, discount)):
        trace.stopped_reason = "stop-condition"
        return trace

    # Heap entries: (-gain_upper_bound, position, round_when_scored).
    # The first round scores every candidate (or, warm-started, only
    # the refreshed ones), so it goes through the batched oracle; CELF
    # re-evaluations after that touch one stale candidate at a time
    # and stay scalar.
    round_no = 0
    gains, evaluations = _first_round_gains(
        ensemble,
        state,
        objective,
        deadline,
        discount,
        current_value,
        block_size,
        warm_start,
    )
    trace.first_round_gains = gains.copy()
    heap: List[tuple] = [
        (-float(gains[position]), position, round_no)
        for position in range(ensemble.n_candidates)
    ]
    heapq.heapify(heap)

    chosen = set()
    while trace.size < max_seeds and heap:
        neg_gain, position, scored_round = heapq.heappop(heap)
        if position in chosen:
            continue
        if scored_round != round_no:
            # Stale bound: re-evaluate against the current seed set.
            utilities = ensemble.candidate_group_utilities(state, position, deadline, discount)
            gain = objective.value(utilities) - current_value
            evaluations += 1
            heapq.heappush(heap, (-gain, position, round_no))
            continue
        gain = -neg_gain
        if gain <= GAIN_TOLERANCE:
            trace.stopped_reason = "no-gain"
            break
        ensemble.add_seed(state, position)
        chosen.add(position)
        utilities = ensemble.group_utilities(state, deadline, discount)
        current_value = objective.value(utilities)
        round_no += 1
        step = SelectionStep(
            node=ensemble.label(position),
            position=position,
            objective_value=current_value,
            gain=gain,
            group_utilities=utilities,
            evaluations=evaluations,
        )
        trace.steps.append(step)
        _notify_step(step)
        evaluations = 0
        if stop is not None and stop(utilities):
            trace.stopped_reason = "stop-condition"
            break
    else:
        trace.stopped_reason = "budget" if trace.size >= max_seeds else "exhausted"

    if require_stop and trace.stopped_reason != "stop-condition":
        raise InfeasibleError(
            f"stop condition unmet after {trace.size} seeds "
            f"(reason: {trace.stopped_reason}); the quota may be infeasible "
            "for this graph/deadline"
        )
    return trace


def _first_round_gains(
    ensemble: UtilityEstimator,
    state,
    objective: Objective,
    deadline: float,
    discount: Optional[float],
    base_value: float,
    block_size: int,
    warm_start: Optional[WarmStart],
) -> Tuple[np.ndarray, int]:
    """Every candidate's empty-state gain, warm-started when possible.

    Cold: score all candidates through the batched oracle.  Warm: copy
    the prior gains and re-score only the ``refresh`` positions (in
    ascending order, through the same oracle — refreshed values are
    bit-identical to a cold scoring).  Returns the gains and how many
    evaluations were actually performed.
    """
    n = ensemble.n_candidates
    if warm_start is not None:
        prior = np.asarray(warm_start.gains, dtype=np.float64)
        if prior.shape != (n,):
            raise OptimizationError(
                f"warm-start gains must have shape ({n},), got {prior.shape}"
            )
        if warm_start.refresh is None:
            refresh = np.arange(n, dtype=np.int64)
        else:
            refresh = np.unique(np.asarray(warm_start.refresh, dtype=np.int64))
            if refresh.size and (refresh[0] < 0 or refresh[-1] >= n):
                raise OptimizationError(
                    f"warm-start refresh positions out of range [0, {n}): "
                    f"{refresh[(refresh < 0) | (refresh >= n)]}"
                )
        gains = prior.copy()
    else:
        refresh = np.arange(n, dtype=np.int64)
        gains = np.empty(n, dtype=np.float64)
    evaluations = 0
    for position, gain in _iter_gain_blocks(
        ensemble,
        state,
        refresh,
        objective,
        deadline,
        discount,
        base_value,
        block_size,
    ):
        evaluations += 1
        gains[position] = gain
    return gains, evaluations


def plain_greedy(
    ensemble: UtilityEstimator,
    objective: Objective,
    deadline: float,
    max_seeds: int,
    stop: Optional[StopCondition] = None,
    require_stop: bool = False,
    discount: Optional[float] = None,
    block_size: Optional[int] = None,
) -> SelectionTrace:
    """Reference greedy: every candidate re-evaluated every round.

    Semantically identical to :func:`lazy_greedy` (same tie-breaking),
    quadratically more utility evaluations.  Kept as the test oracle
    and for the CELF ablation.  Every round's full re-evaluation runs
    through the batched gain oracle (see :func:`lazy_greedy`'s
    ``block_size``), which is what keeps the oracle usable at all.
    """
    _check_arguments(ensemble, max_seeds)
    if block_size is None:
        block_size = get_default_block_size()
    state = ensemble.empty_state()
    current_value = objective.value(ensemble.group_utilities(state, deadline, discount))
    trace = SelectionTrace()

    if stop is not None and stop(ensemble.group_utilities(state, deadline, discount)):
        trace.stopped_reason = "stop-condition"
        return trace

    chosen = set()
    while trace.size < max_seeds:
        best_gain = -np.inf
        best_position = -1
        evaluations = 0
        remaining = [
            position
            for position in range(ensemble.n_candidates)
            if position not in chosen
        ]
        for position, gain in _iter_gain_blocks(
            ensemble,
            state,
            remaining,
            objective,
            deadline,
            discount,
            current_value,
            block_size,
        ):
            evaluations += 1
            if gain > best_gain + GAIN_TOLERANCE:
                best_gain = gain
                best_position = position
        if best_position < 0 or best_gain <= GAIN_TOLERANCE:
            trace.stopped_reason = "no-gain" if best_position >= 0 else "exhausted"
            break
        ensemble.add_seed(state, best_position)
        chosen.add(best_position)
        utilities = ensemble.group_utilities(state, deadline, discount)
        current_value = objective.value(utilities)
        step = SelectionStep(
            node=ensemble.label(best_position),
            position=best_position,
            objective_value=current_value,
            gain=best_gain,
            group_utilities=utilities,
            evaluations=evaluations,
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
