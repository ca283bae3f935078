"""Reverse-reachable-set (RIS) estimation for the TCIM problems.

The paper's related work cites the stop-and-stare family (Huang et al.,
VLDB 2017), the modern scalable alternative to forward Monte Carlo for
the classic (unfair) problem P1.  This module implements the
time-critical variant:

1. sample a uniformly random target node ``v`` and one live-edge world;
2. collect every node within ``tau`` *reverse* hops of ``v`` in that
   world — the nodes whose seeding would activate ``v`` by the
   deadline (one *RR set*);
3. with ``theta`` RR sets, ``f_tau(S; V, G) ~= n / theta * #{RR sets
   hit by S}``, and greedy max-cover over the RR sets inherits the
   ``1 - 1/e`` guarantee.

:class:`RRSetEstimator` is the
:class:`~repro.influence.ensemble.UtilityEstimator` behind
``EnsembleSpec(kind="rrset")``, and greedy max-cover is ``lazy_greedy``
run on it.  It samples *group-tagged* RR sets (each set remembers the
group of its uniform target), so per-group coverage counts give
unbiased estimates of every ``f_tau(S; V_i, G)`` at once — the
per-group surface classic RIS does not expose, and the reason the fair
objectives (P4/P6) work on it.  Sampling is a vectorised batched
reverse BFS over the CSR predecessor arrays (the world ensemble's
batched-frontier idiom), and ``theta`` is chosen adaptively in doubling
rounds with stop-and-stare style Chernoff bounds instead of a fixed
count.  Each pool is stored as a reach index whose cells are its RR
sets, so the world ensemble's
:class:`~repro.influence.ensemble.ReachOracle` serves its states and
queries — exact marginal counts, and so ``lazy_greedy``'s exact
rounds, included.

Deadlines follow the library-wide semantics of
:mod:`repro.influence.deadlines`: fractional deadlines floor to the
last whole round, ``inf`` means "no depth cap", and NaN / negative
values raise :class:`~repro.errors.EstimationError`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import EstimationError
from repro.graph.digraph import DiGraph, NodeId
from repro.graph.groups import GroupAssignment
from repro.influence.backends import compact_uint, concat_ranges
from repro.influence.ensemble import (
    InfluenceState,
    ReachOracle,
    UtilityEstimator,
    assemble_reach,
    table_dtype,
    time_table,
)
from repro.influence.deadlines import simulation_horizon
from repro.rng import RngLike, derive_seed, ensure_rng


#: First doubling round of the adaptive sampler.
INITIAL_THETA = 256

#: Default relative-error target of the adaptive sampler.
DEFAULT_EPSILON = 0.1

#: Default hard cap on the number of RR sets per horizon.
DEFAULT_MAX_THETA = 1 << 18

#: Cap on ``batch * n`` cells of the visited matrix per sampling batch
#: (the only dense allocation of the vectorised reverse BFS).
_BATCH_CELL_CAP = 1 << 25


def _chernoff_lower(count: int, theta: int, log_term: float) -> float:
    """Lower confidence bound on a Bernoulli mean from ``count``/``theta``.

    The OPIM-C style bound: with probability ``>= 1 - delta`` (where
    ``log_term = ln(2 / delta)``) the true mean ``p`` satisfies
    ``p >= ((sqrt(count + 2a/9) - sqrt(a/2))^2 - a/18) / theta``.
    """
    if theta <= 0:
        return 0.0
    a = log_term
    value = (math.sqrt(count + 2.0 * a / 9.0) - math.sqrt(a / 2.0)) ** 2
    return max(0.0, (value - a / 18.0) / theta)


def _sample_rr_batch(
    rev_indptr: np.ndarray,
    rev_indices: np.ndarray,
    rev_data: np.ndarray,
    targets: np.ndarray,
    depth_cap: float,
    rng: np.random.Generator,
    n: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Grow one batch of RR sets with a vectorised reverse BFS.

    The whole batch advances level-by-level like the reach index's
    frontier BFS (:func:`~repro.influence.backends.bfs_rows`): the
    ragged in-edge lists of every frontier (set, node) pair are
    gathered at once, all their coins are flipped in one draw, and a
    single ``np.unique`` dedupes within-level discoveries.  Each (set,
    node) pair enters the frontier at most once, so each in-edge's coin
    is flipped at most once per set, and only when the BFS reaches the
    edge's head in fewer than ``depth_cap`` hops: each set walks its own
    independent IC live-edge world, drawn lazily on the edges it touches.

    Returns the membership pairs ``(set_local_id, node)`` of every
    visited node, row-major (so set ids come out ascending).  They are
    the sorted ``set * n + node`` codes each level found fresh, so the
    cost follows what the batch reaches, not ``batch * n``.
    """
    batch = int(targets.size)
    visited = np.zeros((batch, n), dtype=bool)
    frontier_sets = np.arange(batch, dtype=np.int64)
    frontier_nodes = targets.astype(np.int64)
    visited[frontier_sets, frontier_nodes] = True
    found = [frontier_sets * n + frontier_nodes]
    depth = 0
    while frontier_nodes.size and depth < depth_cap:
        depth += 1
        starts = rev_indptr[frontier_nodes]
        counts = rev_indptr[frontier_nodes + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        edges = concat_ranges(starts, starts + counts)
        fired = np.flatnonzero(rng.random(total) < rev_data[edges])
        if fired.size == 0:
            break
        # Few edges fire: map just those back to their frontier entry.
        owner = np.searchsorted(np.cumsum(counts), fired, side="right")
        hit_sets = frontier_sets[owner]
        hit_nodes = rev_indices[edges[fired]]
        fresh = ~visited[hit_sets, hit_nodes]
        hit_sets, hit_nodes = hit_sets[fresh], hit_nodes[fresh]
        if hit_nodes.size == 0:
            break
        codes = np.unique(hit_sets * np.int64(n) + hit_nodes)
        found.append(codes)
        hit_sets, hit_nodes = codes // n, codes % n
        visited[hit_sets, hit_nodes] = True
        frontier_sets, frontier_nodes = hit_sets, hit_nodes
    return np.divmod(np.sort(np.concatenate(found)), n)


@dataclass(frozen=True)
class RRIndex:
    """One horizon's group-tagged RR pool, stored as a reach index.

    Each ``(candidate, RR set it belongs to)`` membership is one index
    entry ``(set id, time 0, group of the set's target)``: the cells are
    one row of ``theta`` sets, and a seed set's state covers a set at
    time 0 (see :class:`~repro.influence.ensemble.ReachOracle`).  Per-set
    node lists are never materialised, so memory is ``O(sum of
    candidate memberships)``, not ``O(theta * avg |RR|)``.
    """

    horizon: Optional[int]
    theta: int
    set_group: np.ndarray  #: (theta,) int64 — group index of each target
    oracle: ReachOracle
    rounds: int
    theta_required: float
    opt_lower_bound: float

    def memory_bytes(self) -> int:
        return int(self.set_group.nbytes + self.oracle.nbytes)


@dataclass
class RRState:
    """Seed-set state of :class:`RRSetEstimator`.

    Holds the seed positions plus, lazily per queried horizon, one
    :class:`~repro.influence.ensemble.InfluenceState` over that
    horizon's pool.  Binding horizons lazily is what lets one state
    answer ``group_utilities`` at *any* deadline
    (``BudgetSolution.evaluate_at`` re-queries solved states at new
    deadlines) — each new horizon replays the seed list into a state of
    that horizon's pool.
    """

    seed_positions: List[int] = field(default_factory=list)
    bound: Dict[int, InfluenceState] = field(default_factory=dict)


class RRSetEstimator(UtilityEstimator):
    """Per-group RIS / IMM-style :class:`~repro.influence.ensemble.
    UtilityEstimator`.

    Estimates every ``f_tau(S; V_i, G)`` from one pool of group-tagged
    RR sets: a set whose uniform target lies in group ``i`` contributes
    ``n / theta`` to group ``i``'s utility once covered.  Summing
    groups recovers the classic RIS estimate of ``f_tau(S; V, G)``.

    ``theta`` (the number of RR sets per horizon) is adaptive unless
    pinned: sampling proceeds in doubling rounds, and after each round
    a Chernoff lower confidence bound on the best *singleton* utility
    (a lower bound on ``OPT``) decides whether the
    ``(epsilon, delta)``-style requirement
    ``theta >= (2 + 2 eps / 3) ln(2 / delta) n / (eps^2 LB)`` is met.

    Deadlines bind late: each distinct ``simulation_horizon(deadline)``
    lazily samples (and caches) its own pool (:class:`RRIndex`), so
    fractional deadlines share the collection of their floor and
    ``inf`` gets an uncapped reverse BFS.  Every pool is a reach index
    of ``(candidate, covered set)`` memberships: the shared
    :class:`~repro.influence.ensemble.ReachOracle` counts covered sets
    per target group, and each answer is those counts times ``n /
    theta``.  The IC model only — RR-set sampling flips
    independent edge coins, which is exactly IC's live-edge measure —
    and no ``discount`` support (RR sets record reachability within
    ``tau``, not activation times); both are rejected up front.

    RR sets have no per-edge coin structure to re-threshold (each
    sample is a sequential reverse BFS whose draw count depends on the
    edge set), so unlike ``WorldEnsemble`` there is no in-place repair:
    after a graph mutation the estimator refuses every query and
    mutation, and a fresh one must be built.
    """

    _normalise = np.multiply
    _STALE_HINT = "RR indices cannot be repaired in place — build a new RRSetEstimator"

    def __init__(
        self,
        graph: DiGraph,
        assignment: GroupAssignment,
        candidates: Optional[Iterable[NodeId]] = None,
        epsilon: Optional[float] = None,
        delta: Optional[float] = None,
        theta: Optional[int] = None,
        max_theta: Optional[int] = None,
        seed: RngLike = None,
    ):
        n = graph.number_of_nodes()
        if n == 0:
            raise EstimationError("graph is empty")
        super().__init__(graph, assignment, candidates)

        if epsilon is None:
            epsilon = DEFAULT_EPSILON
        if not (isinstance(epsilon, (int, float)) and 0.0 < epsilon < 1.0):
            raise EstimationError(f"epsilon must be in (0, 1), got {epsilon!r}")
        if delta is None:
            delta = 1.0 / n
        if not (isinstance(delta, (int, float)) and 0.0 < delta < 1.0):
            raise EstimationError(f"delta must be in (0, 1), got {delta!r}")
        if theta is not None and (isinstance(theta, bool) or theta < 1):
            raise EstimationError(f"theta must be >= 1, got {theta!r}")
        if max_theta is None:
            max_theta = max(DEFAULT_MAX_THETA, theta or 0)
        if isinstance(max_theta, bool) or max_theta < 1:
            raise EstimationError(f"max_theta must be >= 1, got {max_theta!r}")
        if theta is not None and max_theta < theta:
            raise EstimationError(
                f"max_theta ({max_theta}) must be >= theta ({theta})"
            )
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.fixed_theta = None if theta is None else int(theta)
        self.max_theta = int(max_theta)
        if isinstance(seed, bool) or not isinstance(seed, int):
            seed = derive_seed(ensure_rng(seed))
        self._seed = int(seed)

        # Reverse CSR: row v lists v's in-neighbours and their edge
        # probabilities — the predecessor arrays the batched BFS walks.
        # The graph caches them keyed on its version, so several
        # estimators over one graph share a single build (read-only).
        self._rev_indptr, self._rev_indices, self._rev_data = graph.predecessor_arrays()

        self._pos_of_node = np.full(n, -1, dtype=np.int64)
        self._pos_of_node[self._candidate_indices] = np.arange(
            self.n_candidates, dtype=np.int64
        )

        self._indices: Dict[int, RRIndex] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # adaptive sampling, one RR index per horizon
    # ------------------------------------------------------------------
    @staticmethod
    def _horizon_key(horizon: Optional[int]) -> int:
        return -1 if horizon is None else int(horizon)

    def _index_for(self, deadline: float) -> RRIndex:
        self._check_fresh()
        horizon = simulation_horizon(deadline)
        key = self._horizon_key(horizon)
        index = self._indices.get(key)
        if index is None:
            with self._lock:
                index = self._indices.get(key)
                if index is None:
                    index = self._build_index(horizon)
                    self._indices[key] = index
        return index

    def _build_index(self, horizon: Optional[int]) -> RRIndex:
        depth_cap = math.inf if horizon is None else int(horizon)
        # Independent, replayable stream per horizon: the spawn key is
        # (base seed, horizon), so query order never changes a sample.
        rng = np.random.default_rng([self._seed, self._horizon_key(horizon) + 1])
        n, n_groups = self.n, len(self.group_names)
        batch_cap = max(64, min(1 << 16, _BATCH_CELL_CAP // n))

        member_sets: List[np.ndarray] = []
        member_cands: List[np.ndarray] = []
        set_groups: List[np.ndarray] = []
        singleton_cov = np.zeros(self.n_candidates, dtype=np.int64)
        log_term = math.log(2.0 / self.delta)
        theta = 0
        rounds = 0
        fixed = self.fixed_theta is not None
        theta_required = float(self.fixed_theta if fixed else self.max_theta)
        opt_lb = 1.0
        pending = (
            self.fixed_theta if fixed else min(INITIAL_THETA, self.max_theta)
        )
        while pending > 0:
            rounds += 1
            for start in range(0, pending, batch_cap):
                size = min(batch_cap, pending - start)
                targets = rng.integers(0, n, size=size)
                local_ids, nodes = _sample_rr_batch(
                    self._rev_indptr,
                    self._rev_indices,
                    self._rev_data,
                    targets,
                    depth_cap,
                    rng,
                    n,
                )
                positions = self._pos_of_node[nodes]
                keep = positions >= 0
                member_sets.append(local_ids[keep] + theta + start)
                member_cands.append(positions[keep])
                set_groups.append(self._group_index[targets])
                if not fixed and keep.any():
                    singleton_cov += np.bincount(
                        positions[keep], minlength=self.n_candidates
                    )
            theta += pending
            if fixed:
                break
            # Stop-and-stare style check: lower-bound OPT by the best
            # singleton (every seed at least activates itself, so the
            # bound never drops below 1 node).
            best_count = int(singleton_cov.max()) if singleton_cov.size else 0
            opt_lb = max(1.0, n * _chernoff_lower(best_count, theta, log_term))
            theta_required = (
                (2.0 + 2.0 * self.epsilon / 3.0)
                * log_term
                * n
                / (self.epsilon**2 * opt_lb)
            )
            if theta >= theta_required or theta >= self.max_theta:
                break
            pending = min(theta, self.max_theta - theta)

        cands = np.concatenate(member_cands)
        set_group = np.concatenate(set_groups)
        # Candidate-major entries; set ids ascend within a candidate
        # (the sampler emits them in set order and the sort is stable).
        order = np.argsort(cands, kind="stable")
        owner = cands[order]
        offsets = np.searchsorted(owner, np.arange(self.n_candidates + 1))
        # Set ids in the smallest type that also holds ``id + 1``.
        flat = np.concatenate(member_sets)[order].astype(compact_uint(theta + 1))
        group = set_group[flat].astype(compact_uint(n_groups))
        time = np.zeros(flat.size, dtype=np.uint8)
        table = time_table(owner, self.n_candidates, group, time, n_groups, 1)
        reach = assemble_reach(
            offsets, flat, time, group, table.astype(table_dtype(1, theta)), theta, n_groups
        )
        return RRIndex(
            horizon=horizon,
            theta=theta,
            set_group=set_group,
            oracle=ReachOracle(reach, set_group, n_groups),
            rounds=rounds,
            theta_required=float(theta_required),
            opt_lower_bound=float(opt_lb),
        )

    def diagnostics(self, deadline: float) -> Dict[str, float]:
        """Adaptive-sampler diagnostics for one deadline's RR index."""
        index = self._index_for(deadline)
        return {
            "horizon": -1 if index.horizon is None else index.horizon,
            "theta": index.theta,
            "theta_required": index.theta_required,
            "rounds": index.rounds,
            "opt_lower_bound": index.opt_lower_bound,
            "epsilon": self.epsilon,
            "delta": self.delta,
        }

    # ------------------------------------------------------------------
    # states, and the query hook
    # ------------------------------------------------------------------
    def _state_of(self, positions: List[int]) -> RRState:
        """State of distinct seeds ``positions``, bound to no pool yet."""
        return RRState(positions)

    def add_seed(self, state: RRState, position: int) -> None:
        """Mutate ``state`` to include candidate ``position`` as a seed,
        in every horizon it is bound to."""
        self._check_fresh()
        position = self.check_position(position, state.seed_positions)
        state.seed_positions.append(position)
        for key, bound in state.bound.items():
            self._indices[key].oracle.add_seed(bound, position)

    def _bind(
        self, state: RRState, deadline: float, discount: Optional[float] = None
    ) -> Tuple[ReachOracle, InfluenceState, int, None, float]:
        """The query hook (see :class:`~repro.influence.ensemble.
        UtilityEstimator`): the deadline pool's oracle, ``state``'s state
        over it — bound on first use by replaying the seeds — cutoff 0
        (every membership is reached at time 0), no weights (a discount
        is refused) and ``n / theta``."""
        if discount is not None:
            raise EstimationError(
                "the RR-set estimator does not support discounted utilities "
                "(RR sets record reachability within tau, not activation "
                "times); use EnsembleSpec(kind='worlds') for discount runs"
            )
        index = self._index_for(deadline)
        key = self._horizon_key(index.horizon)
        bound = state.bound.get(key)
        if bound is None:
            bound = state.bound[key] = index.oracle.state_for(state.seed_positions)
        return index.oracle, bound, 0, None, self.n / index.theta

    # The layer tracer (``perfbench/tracing.py``) wraps these in each
    # class's own ``__dict__``.
    candidate_group_utilities = UtilityEstimator.candidate_group_utilities
    candidate_gains_batch = UtilityEstimator.candidate_gains_batch

    def memory_bytes(self) -> int:
        """Footprint of the reverse CSR plus every sampled RR index."""
        total = (
            self._rev_indptr.nbytes
            + self._rev_indices.nbytes
            + self._rev_data.nbytes
        )
        return int(total + sum(i.memory_bytes() for i in self._indices.values()))

    @property
    def nbytes(self) -> int:
        """Alias of :meth:`memory_bytes` — what the byte-bounded
        :class:`repro.api.Session` cache accounts this estimator at.
        Grows as new deadline horizons lazily sample their pools."""
        return self.memory_bytes()

    def __repr__(self) -> str:
        thetas = {key: index.theta for key, index in sorted(self._indices.items())}
        return (
            f"RRSetEstimator(n={self.n}, candidates={self.n_candidates}, "
            f"groups={len(self.group_names)}, epsilon={self.epsilon}, "
            f"delta={self.delta:.3g}, thetas={thetas})"
        )


def build_rrset_estimator(spec, graph: DiGraph, assignment) -> RRSetEstimator:
    """Build the estimator for ``EnsembleSpec(kind="rrset")``.

    :class:`repro.api.Session` calls this for every rrset spec.  The
    estimator owns its storage: a reverse CSR plus one reach index per
    sampled horizon.
    """
    if spec.model != "ic":
        raise EstimationError(
            f"the RR-set estimator supports the IC model only, got "
            f"model={spec.model!r}; use EnsembleSpec(kind='worlds') for LT runs"
        )
    return RRSetEstimator(
        graph,
        assignment,
        candidates=spec.candidates,
        epsilon=spec.epsilon,
        delta=spec.delta,
        theta=spec.theta,
        max_theta=spec.max_theta,
        seed=spec.world_seed,
    )
