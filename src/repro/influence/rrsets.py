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

Two layers live here:

- the scalar skeleton (:func:`sample_rr_sets` / :class:`RRCollection` /
  :func:`ris_greedy`) — an independently-coded reference path the test
  suite cross-validates against, kept deliberately simple;
- :class:`RRSetEstimator`, the real
  :class:`~repro.influence.backends.UtilityEstimator` behind
  ``EnsembleSpec(kind="rrset")``.  It samples *group-tagged* RR sets
  (each set remembers the group of its uniform target), so per-group
  coverage counts give unbiased estimates of every ``f_tau(S; V_i, G)``
  at once — the per-group surface classic RIS does not expose, and the
  reason the fair objectives (P4/P6) work on it.  Sampling is a
  vectorised batched reverse BFS over the CSR predecessor matrix (the
  sparse backend's batched-frontier idiom), and ``theta`` is chosen
  adaptively in doubling rounds with stop-and-stare style Chernoff
  bounds instead of a fixed count.

Deadlines follow the library-wide semantics of
:mod:`repro.influence.deadlines`: fractional deadlines floor to the
last whole round, ``inf`` means "no depth cap", and NaN / negative
values raise :class:`~repro.errors.EstimationError`.
"""

from __future__ import annotations

import heapq
import math
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EstimationError, OptimizationError
from repro.graph.digraph import DiGraph, NodeId
from repro.graph.groups import GroupAssignment
from repro.influence.deadlines import simulation_horizon
from repro.rng import RngLike, derive_seed, ensure_rng


@dataclass(frozen=True)
class RRCollection:
    """A batch of sampled reverse-reachable sets for one (graph, tau)."""

    graph: DiGraph
    deadline: float
    sets: List[FrozenSet[int]]

    @property
    def count(self) -> int:
        return len(self.sets)

    def estimate(self, seeds) -> float:
        """Unbiased estimate of ``f_tau(S; V, G)`` from the collection."""
        seed_idx = set(int(i) for i in self.graph.indices_of(list(seeds)))
        if not seed_idx:
            return 0.0
        hits = sum(1 for rr in self.sets if not seed_idx.isdisjoint(rr))
        return self.graph.number_of_nodes() * hits / self.count


def sample_rr_sets(
    graph: DiGraph,
    deadline: float,
    count: int,
    seed: RngLike = None,
) -> RRCollection:
    """Sample ``count`` time-critical RR sets.

    Each set is grown by a reverse BFS of depth ``<= floor(deadline)``
    from a uniform target, flipping each incoming edge's coin on first
    traversal (lazy live-edge sampling — only the edges the BFS touches
    are ever drawn, which is what makes RIS fast on sparse graphs).

    The depth cap routes through
    :func:`repro.influence.deadlines.simulation_horizon`, so the
    flooring of fractional deadlines matches every other estimator and
    NaN / negative deadlines raise
    :class:`~repro.errors.EstimationError` instead of leaking a bare
    ``ValueError`` out of ``int()``.
    """
    if count < 1:
        raise EstimationError(f"need at least one RR set, got {count}")
    horizon = simulation_horizon(deadline)
    depth_cap = math.inf if horizon is None else horizon
    rng = ensure_rng(seed)
    n = graph.number_of_nodes()
    if n == 0:
        raise EstimationError("graph is empty")

    # Predecessor cache in dense-index space.
    pred: List[Tuple[np.ndarray, np.ndarray]] = []
    for node in graph.nodes():
        sources = graph.predecessors(node)
        if sources:
            probs = np.asarray(
                [graph.edge_probability(u, node) for u in sources]
            )
            pred.append((graph.indices_of(sources), probs))
        else:
            pred.append((np.empty(0, dtype=np.int64), np.empty(0)))

    sets: List[FrozenSet[int]] = []
    targets = rng.integers(0, n, size=count)
    for target in targets.tolist():
        visited = {target}
        queue = deque([(target, 0)])
        while queue:
            node, depth = queue.popleft()
            if depth >= depth_cap:
                continue
            sources, probs = pred[node]
            if sources.size == 0:
                continue
            fires = rng.random(sources.size) < probs
            for source in sources[fires].tolist():
                if source not in visited:
                    visited.add(source)
                    queue.append((source, depth + 1))
        sets.append(frozenset(visited))
    return RRCollection(graph=graph, deadline=deadline, sets=sets)


def ris_greedy(
    collection: RRCollection,
    budget: int,
    candidates: Optional[List[NodeId]] = None,
) -> Tuple[List[NodeId], float]:
    """Greedy max-cover over RR sets: the RIS solution to P1.

    Returns the seed list and the estimated ``f_tau`` of the full set.
    Stops early when no candidate covers any remaining RR set.

    Selection is CELF-lazy: coverage gains only shrink as RR sets get
    covered (max-cover is submodular), so stale heap entries are upper
    bounds and most candidates are never re-counted.  Ties break on
    first-in-pool order — heap keys are ``(-gain, pool_order)`` and a
    re-evaluated entry keeps its pool order — so the selected seeds are
    bit-identical to the old full rescan.
    """
    graph = collection.graph
    if budget < 1:
        raise OptimizationError(f"budget must be >= 1, got {budget}")
    pool = graph.nodes() if candidates is None else list(candidates)
    if not pool:
        raise OptimizationError("candidate pool is empty")
    if budget > len(pool):
        raise OptimizationError(
            f"budget {budget} exceeds candidate pool of size {len(pool)}"
        )
    pool_idx = [int(i) for i in graph.indices_of(pool)]
    order_of: Dict[int, int] = {}
    for order, candidate in enumerate(pool_idx):
        order_of.setdefault(candidate, order)

    # Invert: which RR sets does each candidate hit?
    coverage_lists: Dict[int, List[int]] = {c: [] for c in order_of}
    for set_id, rr in enumerate(collection.sets):
        for node in rr:
            if node in coverage_lists:
                coverage_lists[node].append(set_id)
    coverage = {
        c: np.asarray(ids, dtype=np.int64) for c, ids in coverage_lists.items()
    }

    covered = np.zeros(collection.count, dtype=bool)
    chosen: List[int] = []
    chosen_set: set = set()
    # Heap entry: (-gain, pool_order, candidate, n_seeds_when_scored).
    heap = [
        (-coverage[c].size, order, c, 0) for c, order in order_of.items()
    ]
    heapq.heapify(heap)
    while heap and len(chosen) < budget:
        neg_gain, order, candidate, stamp = heapq.heappop(heap)
        if candidate in chosen_set:
            continue
        if stamp != len(chosen):
            gain = int(np.count_nonzero(~covered[coverage[candidate]]))
            heapq.heappush(heap, (-gain, order, candidate, len(chosen)))
            continue
        if -neg_gain <= 0:
            break
        chosen.append(candidate)
        chosen_set.add(candidate)
        covered[coverage[candidate]] = True

    estimate = (
        graph.number_of_nodes() * int(covered.sum()) / collection.count
    )
    return graph.labels_of(chosen), estimate


# ----------------------------------------------------------------------
# The real estimator behind EnsembleSpec(kind="rrset")
# ----------------------------------------------------------------------

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

    The whole batch advances level-by-level like the sparse backend's
    batched-frontier BFS: the ragged in-edge lists of every frontier
    (set, node) pair are gathered with one ``np.repeat``, all their
    coins are flipped in one draw, and a single ``np.unique`` dedupes
    within-level discoveries.  Each (set, node) pair enters the
    frontier at most once, so each in-edge is flipped at most once per
    set — exactly the lazy live-edge semantics of the scalar sampler.

    Returns the membership pairs ``(set_local_id, node)`` of every
    visited node, row-major (so set ids come out ascending).
    """
    batch = int(targets.size)
    visited = np.zeros((batch, n), dtype=bool)
    frontier_sets = np.arange(batch, dtype=np.int64)
    frontier_nodes = targets.astype(np.int64)
    visited[frontier_sets, frontier_nodes] = True
    depth = 0
    while frontier_nodes.size and depth < depth_cap:
        depth += 1
        starts = rev_indptr[frontier_nodes]
        counts = rev_indptr[frontier_nodes + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        segment = np.repeat(np.arange(frontier_nodes.size), counts)
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        edges = starts[segment] + offsets
        fires = rng.random(total) < rev_data[edges]
        hit_sets = frontier_sets[segment][fires]
        hit_nodes = rev_indices[edges][fires]
        if hit_nodes.size == 0:
            break
        fresh = ~visited[hit_sets, hit_nodes]
        hit_sets, hit_nodes = hit_sets[fresh], hit_nodes[fresh]
        if hit_nodes.size == 0:
            break
        codes = np.unique(hit_sets * np.int64(n) + hit_nodes)
        hit_sets, hit_nodes = codes // n, codes % n
        visited[hit_sets, hit_nodes] = True
        frontier_sets, frontier_nodes = hit_sets, hit_nodes
    set_ids, nodes = np.nonzero(visited)
    return set_ids.astype(np.int64), nodes.astype(np.int64)


@dataclass(frozen=True)
class RRIndex:
    """One horizon's group-tagged RR collection, stored inverted.

    Only the candidate -> covered-set-ids index and each set's target
    group survive sampling; per-set node lists are never materialised,
    so memory is ``O(sum of candidate memberships)``, not
    ``O(theta * avg |RR|)``.
    """

    horizon: Optional[int]
    theta: int
    set_group: np.ndarray  #: (theta,) int64 — group index of each target
    cand_indptr: np.ndarray  #: (n_candidates + 1,) int64
    cand_sets: np.ndarray  #: concatenated covered-set ids per candidate
    rounds: int
    theta_required: float
    opt_lower_bound: float

    def sets_of(self, position: int) -> np.ndarray:
        """Ids of the RR sets that candidate ``position`` covers."""
        return self.cand_sets[
            self.cand_indptr[position] : self.cand_indptr[position + 1]
        ]

    def memory_bytes(self) -> int:
        return int(
            self.set_group.nbytes + self.cand_indptr.nbytes + self.cand_sets.nbytes
        )


class _Coverage:
    """Which RR sets a seed set covers, with per-group hit counts."""

    __slots__ = ("covered", "group_hits")

    def __init__(self, theta: int, n_groups: int):
        self.covered = np.zeros(theta, dtype=bool)
        self.group_hits = np.zeros(n_groups, dtype=np.int64)


@dataclass
class RRState:
    """Seed-set state of :class:`RRSetEstimator`.

    Holds the seed positions plus, lazily per queried horizon, the
    coverage bitmap and per-group hit counts.  Binding coverage lazily
    is what lets one state answer ``group_utilities`` at *any*
    deadline (``BudgetSolution.evaluate_at`` re-queries solved states
    at new deadlines) — each new horizon replays the seed list against
    that horizon's RR index.
    """

    seed_positions: List[int] = field(default_factory=list)
    coverage: Dict[int, _Coverage] = field(default_factory=dict)


class RRSetEstimator:
    """Per-group RIS / IMM-style :class:`UtilityEstimator`.

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
    lazily samples (and caches) its own RR index, so fractional
    deadlines share the collection of their floor and ``inf`` gets an
    uncapped reverse BFS.  The IC model only — RR-set sampling flips
    independent edge coins, which is exactly IC's live-edge measure —
    and no ``discount`` support (RR sets record reachability within
    ``tau``, not activation times); both are rejected up front.
    """

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
        assignment.validate_for(graph)
        self.graph = graph
        self.assignment = assignment
        self.n = n
        self.group_names = list(assignment.groups)
        self.group_sizes = assignment.sizes().astype(np.float64)

        if candidates is None:
            self._candidates = list(graph.nodes())
        else:
            self._candidates = list(candidates)
            if not self._candidates:
                raise EstimationError("candidate set must not be empty")
            if len(set(self._candidates)) != len(self._candidates):
                raise EstimationError("candidate set contains duplicates")
        candidate_idx = graph.indices_of(self._candidates)
        self._positions = {label: i for i, label in enumerate(self._candidates)}

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
        # probabilities — the predecessor matrix the batched BFS walks.
        # The graph caches it keyed on its version, so several
        # estimators over one graph share a single build.
        reverse = graph.reverse_probability_matrix()
        self._rev_indptr = reverse.indptr.astype(np.int64)
        self._rev_indices = reverse.indices.astype(np.int64)
        self._rev_data = np.asarray(reverse.data, dtype=np.float64)
        # RR samples encode the graph at construction time; serve
        # nothing once the graph has moved on (see ``_check_fresh``).
        self._graph_version = graph.version

        masks = assignment.masks(graph)
        self._group_index = masks.argmax(axis=0).astype(np.int64)
        self._pos_of_node = np.full(n, -1, dtype=np.int64)
        self._pos_of_node[candidate_idx] = np.arange(
            len(self._candidates), dtype=np.int64
        )

        self._indices: Dict[int, RRIndex] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # candidate addressing
    # ------------------------------------------------------------------
    @property
    def n_candidates(self) -> int:
        return len(self._candidates)

    def position(self, node: NodeId) -> int:
        try:
            return self._positions[node]
        except KeyError:
            raise EstimationError(f"{node!r} is not in the candidate set") from None

    def label(self, position: int) -> NodeId:
        return self._candidates[int(position)]

    def _check_position(self, position: int) -> int:
        position = int(position)
        if not 0 <= position < self.n_candidates:
            raise EstimationError(
                f"candidate position {position} out of range "
                f"[0, {self.n_candidates})"
            )
        return position

    # ------------------------------------------------------------------
    # adaptive sampling, one RR index per horizon
    # ------------------------------------------------------------------
    @staticmethod
    def _horizon_key(horizon: Optional[int]) -> int:
        return -1 if horizon is None else int(horizon)

    def _check_fresh(self) -> None:
        """Refuse to serve estimates for a graph the samples don't match.

        RR sets have no per-edge coin structure to re-threshold (each
        sample is a sequential reverse BFS whose draw count depends on
        the edge set), so unlike ``WorldEnsemble`` there is no in-place
        repair: after a graph mutation, build a fresh estimator.
        """
        if self.graph.version != self._graph_version:
            raise EstimationError(
                f"stale RR-set estimator: the graph is at version "
                f"{self.graph.version} but the samples were drawn at "
                f"version {self._graph_version}; RR indices cannot be "
                "repaired in place — build a new RRSetEstimator"
            )

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

        cands = (
            np.concatenate(member_cands)
            if member_cands
            else np.empty(0, dtype=np.int64)
        )
        sets = (
            np.concatenate(member_sets)
            if member_sets
            else np.empty(0, dtype=np.int64)
        )
        order = np.argsort(cands, kind="stable")
        counts = np.bincount(cands, minlength=self.n_candidates)
        cand_indptr = np.zeros(self.n_candidates + 1, dtype=np.int64)
        np.cumsum(counts, out=cand_indptr[1:])
        return RRIndex(
            horizon=horizon,
            theta=theta,
            set_group=(
                np.concatenate(set_groups)
                if set_groups
                else np.empty(0, dtype=np.int64)
            ),
            cand_indptr=cand_indptr,
            cand_sets=sets[order],
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
    # state management
    # ------------------------------------------------------------------
    def empty_state(self) -> RRState:
        """State of the empty seed set."""
        self._check_fresh()
        return RRState()

    def state_for(self, seeds: Iterable[NodeId]) -> RRState:
        """State of an arbitrary seed set (each seed must be a candidate)."""
        self._check_fresh()
        state = RRState()
        for node in seeds:
            position = self.position(node)
            if position in state.seed_positions:
                raise EstimationError(
                    f"candidate {self.label(position)!r} is already a seed"
                )
            state.seed_positions.append(position)
        return state

    def add_seed(self, state: RRState, position: int) -> None:
        """Mutate ``state`` to include candidate ``position`` as a seed."""
        position = self._check_position(position)
        if position in state.seed_positions:
            raise EstimationError(
                f"candidate {self.label(position)!r} is already a seed"
            )
        state.seed_positions.append(position)
        for key, coverage in state.coverage.items():
            self._fold_seed(self._indices[key], coverage, position)

    def seeds_of(self, state: RRState) -> List[NodeId]:
        return [self._candidates[p] for p in state.seed_positions]

    def _fold_seed(
        self, index: RRIndex, coverage: _Coverage, position: int
    ) -> None:
        sets = index.sets_of(position)
        fresh = sets[~coverage.covered[sets]]
        if fresh.size:
            coverage.covered[fresh] = True
            coverage.group_hits += np.bincount(
                index.set_group[fresh], minlength=len(self.group_names)
            )

    def _coverage_for(self, state: RRState, index: RRIndex) -> _Coverage:
        key = self._horizon_key(index.horizon)
        coverage = state.coverage.get(key)
        if coverage is None:
            coverage = _Coverage(index.theta, len(self.group_names))
            for position in state.seed_positions:
                self._fold_seed(index, coverage, position)
            state.coverage[key] = coverage
        return coverage

    # ------------------------------------------------------------------
    # utility queries
    # ------------------------------------------------------------------
    def _check_discount(self, discount) -> None:
        if discount is not None:
            raise EstimationError(
                "the RR-set estimator does not support discounted utilities "
                "(RR sets record reachability within tau, not activation "
                "times); use EnsembleSpec(kind='worlds') for discount runs"
            )

    def group_utilities(
        self,
        state: RRState,
        deadline: float,
        discount: Optional[float] = None,
    ) -> np.ndarray:
        """Estimated per-group utility of the current seed set.

        Order matches :attr:`group_names`: entry ``i`` is the RIS
        estimate of ``f_tau(S; V_i, G)`` — ``n / theta`` times the
        number of covered RR sets whose target lies in group ``i``.
        """
        self._check_discount(discount)
        index = self._index_for(deadline)
        coverage = self._coverage_for(state, index)
        scale = self.n / index.theta
        return coverage.group_hits.astype(np.float64) * scale

    def candidate_group_utilities(
        self,
        state: RRState,
        position: int,
        deadline: float,
        discount: Optional[float] = None,
    ) -> np.ndarray:
        """Group utilities of ``seeds(state) + {candidate}`` without mutation."""
        self._check_discount(discount)
        position = self._check_position(position)
        index = self._index_for(deadline)
        coverage = self._coverage_for(state, index)
        sets = index.sets_of(position)
        fresh = sets[~coverage.covered[sets]]
        hits = coverage.group_hits + np.bincount(
            index.set_group[fresh], minlength=len(self.group_names)
        )
        return hits.astype(np.float64) * (self.n / index.theta)

    def candidate_group_utilities_batch(
        self,
        state: RRState,
        positions: Sequence[int],
        deadline: float,
        discount: Optional[float] = None,
    ) -> np.ndarray:
        """Group utilities of ``seeds(state) + {c}`` for a whole block.

        Row ``i`` is bit-identical to
        ``candidate_group_utilities(state, positions[i], ...)``; the
        batch shares one coverage bind and one scale factor, so the
        greedy engines' blocked gain oracle never rebuilds state.
        """
        self._check_discount(discount)
        positions = np.asarray(positions, dtype=np.int64)
        if positions.ndim != 1:
            raise EstimationError(
                f"positions must be one-dimensional, got shape {positions.shape}"
            )
        n_groups = len(self.group_names)
        if positions.size == 0:
            return np.empty((0, n_groups), dtype=np.float64)
        if (positions < 0).any() or (positions >= self.n_candidates).any():
            raise EstimationError(
                f"candidate positions out of range [0, {self.n_candidates}): "
                f"{positions[(positions < 0) | (positions >= self.n_candidates)]}"
            )
        index = self._index_for(deadline)
        coverage = self._coverage_for(state, index)
        uncovered = ~coverage.covered
        out = np.empty((positions.size, n_groups), dtype=np.float64)
        scale = self.n / index.theta
        for row, position in enumerate(positions.tolist()):
            sets = index.sets_of(position)
            fresh = sets[uncovered[sets]]
            hits = coverage.group_hits + np.bincount(
                index.set_group[fresh], minlength=n_groups
            )
            out[row] = hits.astype(np.float64) * scale
        return out

    def candidate_gains_batch(
        self,
        state: RRState,
        positions: Sequence[int],
        deadline: float,
        objective,
        discount: Optional[float] = None,
        base_value: Optional[float] = None,
    ) -> np.ndarray:
        """Marginal objective gains for a block of candidates.

        Mirrors :meth:`WorldEnsemble.candidate_gains_batch`: gains are
        ``objective.value(candidate_group_utilities(...)) - base_value``
        exactly, so the greedy engines treat both estimators alike.
        """
        utilities = self.candidate_group_utilities_batch(
            state, positions, deadline, discount
        )
        if base_value is None:
            base_value = objective.value(
                self.group_utilities(state, deadline, discount)
            )
        return np.fromiter(
            (objective.value(row) - base_value for row in utilities),
            dtype=np.float64,
            count=utilities.shape[0],
        )

    def group_utilities_sweep(
        self,
        state: RRState,
        deadlines: Sequence[float],
        discount: Optional[float] = None,
    ) -> np.ndarray:
        """Group utilities of the current seed set at every deadline.

        Row ``i`` equals ``group_utilities(state, deadlines[i])``.
        Unlike the world ensemble there is no shared histogram to
        exploit — every distinct ``floor(tau)`` is its own RR pool —
        but pools and per-state coverage are cached, so a sweep costs
        one sampling run per *distinct* horizon and O(k) per repeat.
        """
        self._check_discount(discount)
        out = np.empty((len(deadlines), len(self.group_names)), dtype=np.float64)
        for i, deadline in enumerate(deadlines):
            out[i] = self.group_utilities(state, deadline)
        return out

    def total_utility(self, state: RRState, deadline: float) -> float:
        """Estimated activated-by-``deadline`` count over the population."""
        return float(self.group_utilities(state, deadline).sum())

    def utilities_for(
        self, seeds: Iterable[NodeId], deadline: float
    ) -> np.ndarray:
        """Group utilities of an explicit seed set (convenience)."""
        return self.group_utilities(self.state_for(seeds), deadline)

    def normalized_group_utilities(
        self, state: RRState, deadline: float
    ) -> np.ndarray:
        """Per-group utilities divided by group sizes — the paper's
        ``f_tau(S; V_i, G) / |V_i|``."""
        return self.group_utilities(state, deadline) / self.group_sizes

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


def build_rrset_estimator(
    spec,
    graph: DiGraph,
    assignment,
    backend: Optional[str] = None,
    backend_options=None,
    build_workers=None,
) -> RRSetEstimator:
    """Factory endpoint for ``EnsembleSpec(kind="rrset")``.

    Registered with :mod:`repro.influence.factory`; every spec,
    session and CLI path reaches here.  The distance-backend knobs
    (``backend`` / ``backend_options`` / ``build_workers``) are accepted for signature compatibility but
    unused — the RR estimator owns its
    storage (a reverse CSR plus inverted coverage indices) and its
    sampling is already vectorised.
    """
    model = getattr(spec, "model", "ic")
    if model != "ic":
        raise EstimationError(
            f"the RR-set estimator supports the IC model only, got "
            f"model={model!r}; use EnsembleSpec(kind='worlds') for LT runs"
        )
    return RRSetEstimator(
        graph,
        assignment,
        candidates=getattr(spec, "candidates", None),
        epsilon=getattr(spec, "epsilon", None),
        delta=getattr(spec, "delta", None),
        theta=getattr(spec, "theta", None),
        max_theta=getattr(spec, "max_theta", None),
        seed=getattr(spec, "world_seed", 0),
    )
