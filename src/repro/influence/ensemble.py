"""Common-random-numbers influence estimator over live-edge worlds.

The greedy algorithms of the paper evaluate ``f_tau`` for thousands of
candidate seed sets.  Re-simulating cascades for every evaluation (the
textbook approach) is both slow and noisy — two seed sets would be
compared on *different* random outcomes.  This module implements the
standard fix: sample ``R`` live-edge worlds **once**, fix the per-world
activation times of every candidate, and evaluate every seed set on
the same fixed worlds.

The state of a partially built seed set is just the per-world
earliest-activation vector ``best[r, v] = min_{s in S} D[r, s, v]``
(where ``D[r, c, v]`` is candidate ``c``'s BFS distance to ``v`` in
world ``r``), and

- adding a seed is an elementwise ``min`` — O(R·n);
- the expected group utilities of ``S`` are a masked count of
  ``best <= tau`` — O(R·n·k) via one matrix product;
- the *marginal* utilities of a candidate are the same count on
  ``min(best, D[:, c, :])`` without mutating the state;
- the marginal utilities of a whole *block* of candidates are one
  blocked fold plus one stacked ``(B, R, n) @ (n, k)`` contraction
  (:meth:`WorldEnsemble.candidate_group_utilities_batch`) into
  reusable scratch buffers — the batched gain oracle the greedy hot
  loops run on, bit-identical to the per-candidate path;
- a whole *deadline sweep* for a fixed seed set is one ``uint8``
  bincount into a per-group activation-time histogram plus a
  cumulative sum (:meth:`WorldEnsemble.group_utilities_sweep`) — O(k)
  per additional deadline after the histogram.

*How* ``D`` is stored is delegated to a pluggable
:class:`~repro.influence.backends.DistanceBackend` (``backend=``):
``"dense"`` keeps the full uint8 tensor (O(R·C·n), fastest),
``"sparse"`` keeps per-world CSR rows of finite times only (O(nnz)),
``"lazy"`` materialises candidate rows on demand behind an LRU cache,
and ``"auto"`` picks by estimated footprint.  All backends produce
bit-identical utilities; they trade memory against query speed.

Queries run serially on the caller thread.  The speed comes from
submodularity (lazy CELF re-evaluation) and the batched oracle, not
from threads: world-sharding the numpy primitives never beat the
serial path on the measured workloads (see ``docs/PERFORMANCE.md``).
Concurrent queries on one shared ensemble (``repro serve --threads``)
are safe — scratch buffers are per caller thread.

This estimator is unbiased for Eq. 1 for every ``tau``
simultaneously, which is what lets one ensemble serve a whole
deadline sweep (Fig. 4c / 5a / 7c).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import EstimationError
from repro.graph.digraph import DiGraph, NodeId
from repro.graph.groups import GroupAssignment
from repro.diffusion.worlds import (
    UNREACHABLE,
    LiveEdgeWorld,
    ic_world_key,
    sampler_for,
)
from repro.influence.backends import (
    DistanceBackend,
    check_backend_name,
    make_backend,
)
from repro.influence.deadlines import clip_deadline as _clip_deadline
from repro.influence.procbuild import (
    BuildWorkersLike,
    ProcessBuildUnavailable,
    SharedSegment,
    check_build_workers,
    process_build,
    resolve_build_workers,
    warn_serial_fallback,
)
from repro.rng import RngLike, ensure_rng


@dataclass
class InfluenceState:
    """Incremental evaluation state for one growing seed set.

    ``best_time[r, v]`` is the earliest activation time of node ``v``
    in world ``r`` under the current seeds (``UNREACHABLE`` if none).

    ``time_hist`` is the state's per-group activation-time histogram
    (``(k, 256)`` int64, finite times only), lazily built by the first
    deadline sweep and thereafter maintained *incrementally* by
    ``WorldEnsemble.add_seed`` — so repeated sweeps on a growing seed
    set never rebuild it from the full ``(R, n)`` tensor.  ``None``
    until a sweep asks for it; states that never sweep never pay for
    it.
    """

    best_time: np.ndarray
    seed_positions: List[int] = field(default_factory=list)
    time_hist: Optional[np.ndarray] = None

    def copy(self) -> "InfluenceState":
        return InfluenceState(
            best_time=self.best_time.copy(),
            seed_positions=list(self.seed_positions),
            time_hist=None if self.time_hist is None else self.time_hist.copy(),
        )

    @property
    def size(self) -> int:
        return len(self.seed_positions)


class WorldEnsemble:
    """Pre-sampled worlds + distance tensor for a (graph, groups) pair.

    Parameters
    ----------
    graph:
        The social network with IC probabilities.
    assignment:
        Socially salient groups (must partition the graph's nodes).
    n_worlds:
        Number of sampled live-edge worlds ``R``.
    candidates:
        Node labels eligible as seeds.  Defaults to every node.  The
        Instagram experiment restricts candidates to a random subset
        exactly as the paper does; restricting also bounds the distance
        tensor to ``R x |candidates| x n``.
    model:
        ``"ic"`` (default) or ``"lt"``.
    seed:
        RNG seed for world sampling (determinism).
    backend:
        Distance-store backend: ``"dense"`` (default), ``"sparse"``,
        ``"lazy"``, or ``"auto"`` (pick by estimated memory footprint —
        see :func:`repro.influence.backends.select_backend`).  The
        choice affects memory and speed only, never the estimates.
    backend_options:
        Extra keyword arguments for the backend constructor (e.g.
        ``{"cache_size": 128}`` for ``"lazy"``, ``{"dense_limit": ...}``
        for ``"auto"``).
    build_workers:
        Worker-*process* count for world **construction** (sampling +
        distance-store builds, which hold the GIL and therefore cannot
        scale with threads): a positive int, ``"auto"``
        (= ``min(available_cpus(), n_worlds)``, gated by a work floor),
        or ``None`` to defer to the process default
        (``execution_defaults``, itself ``1`` — fully serial — unless
        the CLI's ``--build-workers`` or ``REPRO_BUILD_WORKERS`` set
        it).  With more than one build worker the distance store is
        published in shared-memory segments (zero-copy for the workers
        that built it); call :meth:`close` — or use the ensemble as a
        context manager — to unlink them deterministically.  This is a
        pure speed knob: worlds, stores, traces and estimates are
        byte-identical at every build-worker count, and the build
        degrades to the serial path (with a ``RuntimeWarning``) where
        processes or shared memory are unavailable.
    """

    def __init__(
        self,
        graph: DiGraph,
        assignment: GroupAssignment,
        n_worlds: int = 100,
        candidates: Optional[Sequence[NodeId]] = None,
        model: str = "ic",
        seed: RngLike = None,
        backend: str = "dense",
        backend_options: Optional[Dict[str, Any]] = None,
        build_workers: Optional[BuildWorkersLike] = None,
    ) -> None:
        if n_worlds < 1:
            raise EstimationError(f"n_worlds must be >= 1, got {n_worlds}")
        check_backend_name(backend)  # fail fast, before world sampling
        self._build_workers_setting = check_build_workers(
            build_workers, allow_none=True
        )
        assignment.validate_for(graph)
        self.graph = graph
        self.assignment = assignment
        self.model = model
        self.n = graph.number_of_nodes()
        self.n_worlds = n_worlds

        if candidates is None:
            candidate_labels = graph.nodes()
        else:
            candidate_labels = list(candidates)
            if not candidate_labels:
                raise EstimationError("candidate set must not be empty")
            if len(set(candidate_labels)) != len(candidate_labels):
                raise EstimationError("candidate set contains duplicates")
        self.candidate_labels: List[NodeId] = candidate_labels
        self._candidate_indices = graph.indices_of(candidate_labels)
        self._position_of: Dict[NodeId, int] = {
            label: pos for pos, label in enumerate(candidate_labels)
        }

        # Per-world RNG children, spawned here exactly as the serial
        # sampler (``sample_worlds``) spawns them — both the process
        # build and the serial path consume these same generators, so
        # worlds are byte-identical at every build-worker count and a
        # failed process build can fall back without re-spawning.
        sampler = sampler_for(model)  # validates the model up front
        rng = ensure_rng(seed)
        children = rng.spawn(n_worlds)
        # Kept so the incremental-repair layer can recover each world's
        # sampling key at any time: the key is a pure function of a
        # child's SeedSequence, never of its draw position (see
        # ``repro.diffusion.worlds.ic_world_key``).
        self._world_children = children
        self._shared_segments: List[SharedSegment] = []
        self._closed = False
        built = None
        n_build = resolve_build_workers(
            self._build_workers_setting,
            n_worlds,
            n_items=n_worlds * len(self._candidate_indices) * self.n,
        )
        if n_build > 1:
            try:
                built = process_build(
                    graph,
                    self._candidate_indices,
                    self.n,
                    n_worlds,
                    model,
                    children,
                    backend,
                    n_build,
                    backend_options,
                )
            except ProcessBuildUnavailable as exc:
                warn_serial_fallback(str(exc))
        if built is not None:
            self.worlds: List[LiveEdgeWorld] = built.worlds
            self._backend = built.backend
            self._shared_segments = built.segments
            self._build_workers_used = n_build
        else:
            self._build_workers_used = 1
            self.worlds = [sampler(graph, seed=child) for child in children]
            # Activation-time store D[r, c, v] behind the backend
            # interface.
            self._backend = make_backend(
                backend,
                self.worlds,
                self._candidate_indices,
                self.n,
                backend_options,
            )
        # Group masks as float32 (k, n) for fast masked counting, plus
        # group sizes for normalisation.
        self._masks_bool = assignment.masks(graph)
        self._masks_f = self._masks_bool.T.astype(np.float32)  # (n, k)
        self.group_names: List[Hashable] = assignment.groups
        self.group_sizes = assignment.sizes().astype(np.float64)
        # Groups partition the nodes, so each column of the mask matrix
        # has exactly one True: argmax recovers the group index of every
        # node (used by the deadline-sweep histogram).
        self._group_index = self._masks_bool.argmax(axis=0).astype(np.int64)
        # Reusable scratch for the batched gain oracle, grown on demand
        # to the largest block ever requested and keyed per *caller
        # thread* (see ``_batch_scratch``) — concurrent batched queries
        # on one shared ensemble each get their own buffers.
        self._scratch = threading.local()
        # Lazily built caches: the state-independent empty-state gain
        # table (cumulative per-candidate time histogram — answers any
        # first greedy round at any deadline) and the fused
        # (world, group) code base for sweep histograms.  The lock
        # keeps concurrent callers from building the table twice.
        self._empty_gain_table: Optional[np.ndarray] = None  # (C, k, 256) cumsum
        self._empty_gain_table_missing = False
        self._empty_table_lock = threading.Lock()
        self._sweep_code_base: Optional[np.ndarray] = None  # (n,) int64
        # Streaming-delta bookkeeping: the graph version this store was
        # built (or last repaired) against, the fingerprints of applied
        # deltas, and each repair's affected-candidate set (``None`` =
        # unknown; warm-started solvers must then refresh everything).
        self._graph_version = graph.version
        self._world_keys: Optional[List[int]] = None
        self._delta_lineage: List[str] = []
        self._repair_log: List[Optional[np.ndarray]] = []

    # ------------------------------------------------------------------
    # candidate bookkeeping
    # ------------------------------------------------------------------
    @property
    def backend(self) -> "DistanceBackend":
        """The active distance backend (for introspection: footprint,
        cache statistics on the lazy backend, ...)."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """Name of the active distance backend (after ``"auto"`` resolution)."""
        return self._backend.name

    # ------------------------------------------------------------------
    # streaming deltas: staleness + in-place repair
    # ------------------------------------------------------------------
    @property
    def graph_version(self) -> int:
        """The graph version the distance store currently matches."""
        return self._graph_version

    @property
    def delta_lineage(self) -> Tuple[str, ...]:
        """Fingerprints of every delta applied through :meth:`apply_delta`,
        in application order (empty for a pristine build)."""
        return tuple(self._delta_lineage)

    @property
    def repair_log(self) -> List[Optional[np.ndarray]]:
        """Per-repair affected candidate positions (``None`` = unknown).

        One entry per applied delta; entry ``i`` is the sorted array of
        candidate positions whose distance rows changed under delta
        ``i``.  Warm-started solvers union a suffix of this log to find
        which cached gains to refresh.
        """
        return list(self._repair_log)

    @property
    def world_keys(self) -> List[int]:
        """Each world's 64-bit sampling key (IC ensembles only).

        Recovered idempotently from the per-world RNG children — valid
        whether the worlds were built serially or by worker processes
        (workers receive pickled child *copies*; the parent's children
        are never consumed).
        """
        if self.model != "ic":
            raise EstimationError(
                f"world keys exist only for the keyed IC sampler, not "
                f"model {self.model!r}"
            )
        if self._world_keys is None:
            self._world_keys = [
                ic_world_key(child) for child in self._world_children
            ]
        return self._world_keys

    def apply_delta(self, delta) -> "Any":
        """Apply a :class:`~repro.graph.delta.GraphDelta` to the graph
        and repair this ensemble in place.

        Re-flips only the touched edges' coins (one keyed draw per
        (world, edge) pair), swaps the worlds whose live-edge set
        changed, and recomputes only those worlds' slices of the
        distance store — after which every query answers exactly as a
        fresh build on the mutated graph would, bit for bit.  Returns
        the :class:`~repro.influence.incremental.RepairReport`.
        """
        from repro.influence.incremental import repair_ensemble

        return repair_ensemble(self, delta)

    def _note_repair(
        self, version: int, fingerprint: str, affected: Optional[np.ndarray]
    ) -> None:
        """Record a completed repair (called by the incremental layer)."""
        self._graph_version = version
        self._delta_lineage.append(fingerprint)
        self._repair_log.append(
            None if affected is None else np.asarray(affected, dtype=np.int64)
        )
        # The empty-state gain table summarises the distance store;
        # drop it so the next first-round query rebuilds it from the
        # repaired store.  (The sweep code base depends only on the
        # group partition and survives.)
        with self._empty_table_lock:
            self._empty_gain_table = None
            self._empty_gain_table_missing = False

    def _check_fresh(self) -> None:
        """Refuse to serve estimates for a graph the store doesn't match.

        The graph version advances on every mutation;
        :meth:`apply_delta` re-synchronises the store and records the
        new version.  Any other mutation path leaves the sampled worlds
        describing a graph that no longer exists — a silent source of
        wrong numbers this guard turns into a loud error.
        """
        if self.graph.version != self._graph_version:
            raise EstimationError(
                f"stale ensemble: the graph is at version "
                f"{self.graph.version} but the distance store matches "
                f"version {self._graph_version}; apply mutations through "
                "WorldEnsemble.apply_delta (or rebuild the ensemble)"
            )

    # ------------------------------------------------------------------
    # shared-memory lifecycle
    # ------------------------------------------------------------------
    @property
    def build_workers_used(self) -> int:
        """Worker processes the construction actually engaged (1 for
        serial builds, including work-floor skips and fallbacks)."""
        return self._build_workers_used

    @property
    def shared_segments(self) -> List[SharedSegment]:
        """Shared-memory segments backing the distance store (empty for
        serial builds — the serial store lives on the ordinary heap)."""
        return list(self._shared_segments)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has torn this ensemble down."""
        return self._closed

    def unlink_shared(self) -> None:
        """Unlink this ensemble's shared-memory segments (idempotent).

        The ensemble — and anything already attached — **stays fully
        usable**: unlinking removes only the segment *names*, and POSIX
        frees the memory when the last mapping goes away.  This is what
        the :class:`repro.api.Session` cache calls on eviction, so an
        evicted-but-still-held ensemble keeps answering queries while
        no new process can attach and nothing can leak past process
        exit.
        """
        for segment in self._shared_segments:
            segment.unlink()

    def close(self) -> None:
        """Tear down the ensemble's distance store (idempotent).

        Drops the backend (releasing its views into shared memory) and
        unlinks + unmaps every shared segment.  After ``close`` the
        ensemble must not be queried.  Serial builds close too — the
        heap store is simply dropped for the GC.  Ensembles also work
        as context managers::

            with WorldEnsemble(graph, groups, build_workers=4) as ens:
                ...
        """
        if self._closed:
            return
        self._closed = True
        # Release the store's buffer exports before unmapping, so the
        # segments' close() doesn't have to defer to view finalizers.
        self._backend = None
        for segment in self._shared_segments:
            segment.close()
        self._shared_segments = []

    def __enter__(self) -> "WorldEnsemble":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def n_candidates(self) -> int:
        return len(self.candidate_labels)

    def position(self, node: NodeId) -> int:
        """Candidate-array position of ``node`` (raises if not a candidate)."""
        try:
            return self._position_of[node]
        except KeyError:
            raise EstimationError(f"{node!r} is not in the candidate set") from None

    def label(self, position: int) -> NodeId:
        return self.candidate_labels[position]

    # ------------------------------------------------------------------
    # state management
    # ------------------------------------------------------------------
    def empty_state(self) -> InfluenceState:
        """State of the empty seed set."""
        self._check_fresh()
        return InfluenceState(
            best_time=np.full((self.n_worlds, self.n), UNREACHABLE, dtype=np.uint8)
        )

    def state_for(self, seeds: Iterable[NodeId]) -> InfluenceState:
        """State of an arbitrary seed set (each seed must be a candidate).

        Built as one slab fold (``DistanceBackend.reduce_rows``) over
        all seed rows instead of one :meth:`add_seed` per seed.  ``uint8``
        minimum is exact, so the state is bit-identical to the
        sequential build; ``evaluate_at`` / :meth:`utilities_for` /
        the sweep helpers all sit on this.
        """
        positions: List[int] = []
        seen = set()
        for node in seeds:
            position = self.position(node)
            if position in seen:
                raise EstimationError(
                    f"candidate {self.label(position)!r} is already a seed"
                )
            seen.add(position)
            positions.append(position)
        state = self.empty_state()
        if not positions:
            return state
        self._backend.reduce_rows(positions, state.best_time)
        state.seed_positions.extend(positions)
        return state

    def add_seed(self, state: InfluenceState, position: int) -> None:
        """Mutate ``state`` to include candidate ``position`` as a seed.

        When the state already carries a sweep histogram (built by the
        first ``group_utilities_sweep`` on it), the histogram is
        updated *incrementally* from exactly the entries the fold
        lowered — integer moves between bins, bit-identical to a full
        rebuild — so sweep → add seed → sweep loops never re-bincount
        the whole ``(R, n)`` state.
        """
        self._check_fresh()
        if position in state.seed_positions:
            raise EstimationError(
                f"candidate {self.label(position)!r} is already a seed"
            )
        if state.time_hist is None:
            self._backend.min_into(state.best_time, position)
        else:
            previous = state.best_time.copy()
            self._backend.min_into(state.best_time, position)
            self._update_time_hist(state.time_hist, previous, state.best_time)
        state.seed_positions.append(position)

    def _update_time_hist(
        self, hist: np.ndarray, previous: np.ndarray, current: np.ndarray
    ) -> None:
        """Move histogram counts for every entry the fold lowered.

        ``current < previous`` exactly where the new seed improved an
        activation time; the old (finite) time's bin loses the node
        and the new time's bin gains it.  Newly reached nodes come out
        of nowhere — the histogram counts finite times only (its
        ``UNREACHABLE`` bin is pinned to zero and never read).
        """
        changed = current < previous
        if not changed.any():
            return
        _, v_idx = np.nonzero(changed)
        groups = self._group_index[v_idx]
        size = hist.size
        new_codes = groups * 256 + current[changed]
        hist += np.bincount(new_codes, minlength=size).reshape(hist.shape)
        old_times = previous[changed]
        finite = old_times != UNREACHABLE
        if finite.any():
            old_codes = groups[finite] * 256 + old_times[finite]
            hist -= np.bincount(old_codes, minlength=size).reshape(hist.shape)

    def seeds_of(self, state: InfluenceState) -> List[NodeId]:
        return [self.candidate_labels[p] for p in state.seed_positions]

    # ------------------------------------------------------------------
    # utility queries
    # ------------------------------------------------------------------
    @staticmethod
    def _check_discount(discount) -> None:
        if discount is not None and not 0.0 <= discount <= 1.0:
            raise EstimationError(f"discount must be in [0, 1], got {discount}")

    def _activation_weights(self, times: np.ndarray, cutoff: int, discount) -> np.ndarray:
        """Per-node utility weights for activation times ``times``.

        The paper's step model gives weight 1 to every node activated
        by the deadline.  With ``discount=gamma`` (the time-discounting
        extension named in the paper's conclusions), a node activated
        at time ``t <= deadline`` is worth ``gamma**t`` instead — being
        informed earlier is worth more.  ``gamma=1`` recovers the step
        model exactly.

        The discounted power is evaluated *only* where ``t <= cutoff``
        (masked ``np.power``): times past the deadline — including the
        ``UNREACHABLE`` sentinel rows that dominate sparse states —
        contribute weight 0 without paying for a transcendental.
        """
        active = times <= cutoff
        if discount is None:
            return active.astype(np.float32)
        self._check_discount(discount)
        weights = np.zeros(times.shape, dtype=np.float32)
        np.power(np.float32(discount), times, out=weights, where=active, dtype=np.float32)
        return weights

    def _activation_weights_into(
        self,
        times: np.ndarray,
        cutoff: int,
        discount,
        active: np.ndarray,
        out: np.ndarray,
    ) -> np.ndarray:
        """:meth:`_activation_weights` into caller-owned scratch.

        Same values bit-for-bit, zero allocation — the batched oracle
        calls this once per block with its reusable buffers.
        """
        np.less_equal(times, cutoff, out=active)
        if discount is None:
            np.copyto(out, active)  # bool -> {0.0, 1.0} float32
            return out
        self._check_discount(discount)
        out.fill(0.0)
        np.power(np.float32(discount), times, out=out, where=active, dtype=np.float32)
        return out

    def group_utilities(
        self,
        state: InfluenceState,
        deadline: float,
        discount: Optional[float] = None,
    ) -> np.ndarray:
        """Expected per-group utility of the current seed set.

        Order matches :attr:`group_names`.  Without ``discount`` this is
        ``[f_tau(S; V_1, G), ..., f_tau(S; V_k, G)]`` (Eq. 1) estimated
        on the ensemble; with ``discount=gamma`` each activated node
        contributes ``gamma**t_v`` instead of 1 (see
        :meth:`_activation_weights`).
        """
        self._check_fresh()
        cutoff = _clip_deadline(deadline)
        weights = self._activation_weights(state.best_time, cutoff, discount)
        per_world = weights @ self._masks_f  # (R, k)
        return per_world.mean(axis=0).astype(np.float64)

    def candidate_group_utilities(
        self,
        state: InfluenceState,
        position: int,
        deadline: float,
        discount: Optional[float] = None,
    ) -> np.ndarray:
        """Group utilities of ``seeds(state) + {candidate}`` without mutation."""
        self._check_fresh()
        cutoff = _clip_deadline(deadline)
        hypothetical = self._backend.min_with(state.best_time, position)
        weights = self._activation_weights(hypothetical, cutoff, discount)
        per_world = weights @ self._masks_f
        return per_world.mean(axis=0).astype(np.float64)

    # ------------------------------------------------------------------
    # batched gain oracle
    # ------------------------------------------------------------------
    def _batch_scratch(self, block: int):
        """Views of the reusable block buffers, grown to ``block`` rows.

        The buffers persist across calls (CELF's first round issues
        ``n_candidates / block_size`` of them), so steady-state batched
        queries allocate nothing beyond the tiny per-block outputs.
        Buffers are keyed per *caller thread* (``threading.local``), so
        any number of concurrent batched queries can share one
        ensemble without corrupting each other.
        """
        local = self._scratch
        times = getattr(local, "times", None)
        if times is None or times.shape[0] < block:
            shape = (block, self.n_worlds, self.n)
            local.times = np.empty(shape, dtype=np.uint8)
            local.active = np.empty(shape, dtype=bool)
            local.weights = np.empty(shape, dtype=np.float32)
            local.per_world = np.empty(
                (block, self.n_worlds, len(self.group_names)), dtype=np.float32
            )
        return (
            local.times[:block],
            local.active[:block],
            local.weights[:block],
            local.per_world[:block],
        )

    #: The empty-state gain table is skipped beyond this footprint —
    #: on memory-constrained backends (sparse at web scale) a
    #: ``(C, k, 256)`` int64 table could otherwise dwarf the distance
    #: store it accelerates.
    EMPTY_TABLE_BYTE_LIMIT = 128 * 1024 * 1024

    #: Histogram fast paths replay the scalar pipeline's float32 world
    #: mean from exact integer counts; that replay is bit-exact only
    #: while every count (bounded by ``R * n``) is exactly
    #: representable in float32.  Past this, they fall back to the
    #: scalar path.
    FLOAT32_EXACT_LIMIT = 2**24

    def _empty_state_table(self) -> Optional[np.ndarray]:
        """Cumulative per-candidate time histogram, ``(C, k, 256)``.

        ``table[c, g, cutoff]`` is the *exact* total (over worlds) of
        nodes of group ``g`` that candidate ``c`` alone activates by
        ``cutoff`` — the whole first greedy round at every deadline, as
        integers.  Built once per ensemble from the distance store
        (``None`` for backends that cannot afford it, e.g. lazy, or
        when the table itself would exceed
        :attr:`EMPTY_TABLE_BYTE_LIMIT`).
        """
        if self._empty_gain_table is None and not self._empty_gain_table_missing:
            with self._empty_table_lock:
                if (
                    self._empty_gain_table is None
                    and not self._empty_gain_table_missing
                ):
                    table_bytes = self.n_candidates * len(self.group_names) * 256 * 8
                    hist = (
                        None
                        if table_bytes > self.EMPTY_TABLE_BYTE_LIMIT
                        else self._backend.empty_state_histogram(
                            self._group_index, len(self.group_names)
                        )
                    )
                    if hist is None:
                        self._empty_gain_table_missing = True
                    else:
                        self._empty_gain_table = np.cumsum(hist, axis=2)
        return self._empty_gain_table

    def candidate_group_utilities_batch(
        self,
        state: InfluenceState,
        positions: Sequence[int],
        deadline: float,
        discount: Optional[float] = None,
    ) -> np.ndarray:
        """Group utilities of ``seeds(state) + {c}`` for a whole block.

        Returns a ``(len(positions), k)`` float64 array whose row ``i``
        is bit-identical to
        ``candidate_group_utilities(state, positions[i], ...)``.

        Two regimes, both exact:

        - **empty state, step model** (every CELF / plain-greedy first
          round): ``min(best, D_c) = D_c``, so answers come from the
          cached state-independent histogram table — O(k) per
          candidate, no tensor traffic at all.  Counts are exact
          integers, and the float32 world-mean they imply is replayed
          with the same rounding as the scalar path.
        - **general**: one backend block fold + one stacked
          ``(B, R, n) @ (n, k)`` ``np.matmul`` into reusable scratch.
          The stacked matmul runs the very same GEMM per block row
          that the scalar path runs per candidate (unlike
          ``einsum``/``tensordot``, whose different reduction order
          changes low bits), replacing ``B`` per-candidate allocations
          and matmuls.
        """
        self._check_fresh()
        cutoff = _clip_deadline(deadline)
        positions = np.asarray(positions, dtype=np.int64)
        if positions.ndim != 1:
            raise EstimationError(
                f"positions must be one-dimensional, got shape {positions.shape}"
            )
        k = len(self.group_names)
        if positions.size == 0:
            return np.empty((0, k), dtype=np.float64)
        if (positions < 0).any() or (positions >= self.n_candidates).any():
            raise EstimationError(
                f"candidate positions out of range [0, {self.n_candidates}): "
                f"{positions[(positions < 0) | (positions >= self.n_candidates)]}"
            )
        if (
            discount is None
            and not state.seed_positions
            and self.n_worlds * self.n < self.FLOAT32_EXACT_LIMIT
        ):
            table = self._empty_state_table()
            if table is not None:
                counts = table[positions, :, cutoff]  # (B, k) exact ints
                # Replay the scalar pipeline's rounding: float32 world
                # sums are exact here, and numpy's float32 mean divides
                # in float64 before storing float32.
                per_candidate = (
                    counts.astype(np.float64) / self.n_worlds
                ).astype(np.float32)
                return per_candidate.astype(np.float64)
        times, active, weights, per_world = self._batch_scratch(int(positions.size))
        self._backend.min_with_block(state.best_time, positions, times)
        self._activation_weights_into(times, cutoff, discount, active, weights)
        np.matmul(weights, self._masks_f, out=per_world)  # (B, R, k)
        return per_world.mean(axis=1).astype(np.float64)

    def candidate_gains_batch(
        self,
        state: InfluenceState,
        positions: Sequence[int],
        deadline: float,
        objective,
        discount: Optional[float] = None,
        base_value: Optional[float] = None,
    ) -> np.ndarray:
        """Marginal objective gains for a block of candidates.

        ``objective`` is anything with a ``value(group_utilities)``
        method (see :mod:`repro.core.objectives`); ``base_value`` is the
        objective of the current state and is computed when not given
        (pass it in hot loops — the greedy engines do).  Gains are
        bit-identical to the scalar path
        ``objective.value(candidate_group_utilities(...)) - base_value``.
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

    # ------------------------------------------------------------------
    # deadline sweeps
    # ------------------------------------------------------------------
    def _state_time_histogram(self, state: InfluenceState) -> np.ndarray:
        """Activation-time histogram of the current seed set, ``(k, 256)``.

        ``hist[g, t]`` counts, summed over all worlds, the nodes of
        group ``g`` activated at exactly time ``t`` (finite times only;
        the ``UNREACHABLE`` bin is pinned to zero).  It's one
        ``np.bincount`` over fused ``(group, time)`` codes — the code
        space is just ``k * 256`` (L1-resident counters).  The result
        is cached on the state and maintained incrementally by
        :meth:`add_seed`, so only the *first* sweep of a state pays for
        the full bincount.
        """
        if state.time_hist is not None:
            return state.time_hist
        if self._sweep_code_base is None:
            self._sweep_code_base = self._group_index * 256  # (n,) int64
        n_groups = len(self.group_names)
        best = state.best_time
        finite = best != UNREACHABLE
        n_finite = np.count_nonzero(finite)
        if 4 * n_finite < finite.size:
            # Sparse activation (the common live-edge regime): extract
            # the few finite entries and bincount only those.
            idx = np.flatnonzero(finite.ravel())
            codes = self._sweep_code_base[idx % self.n] + best.ravel()[idx]
        else:
            # Dense activation: a full-array bincount beats extraction.
            # The UNREACHABLE entries land in each group's bin 255,
            # zeroed below (no cutoff ever reaches it — cutoffs are
            # <= 254).
            codes = (self._sweep_code_base + best).ravel()
        hist = np.bincount(codes, minlength=n_groups * 256).reshape(n_groups, 256)
        hist[:, UNREACHABLE] = 0
        state.time_hist = hist
        return hist

    def group_utilities_sweep(
        self,
        state: InfluenceState,
        deadlines: Sequence[float],
        discount: Optional[float] = None,
    ) -> np.ndarray:
        """Group utilities of the current seed set at *every* deadline.

        Returns a ``(len(deadlines), k)`` float64 array whose row ``i``
        equals ``group_utilities(state, deadlines[i], discount)``.  The
        activation times are bincounted into a per-group time histogram
        once and every deadline is answered from its cumulative sum —
        O(k) per additional ``tau`` instead of a full O(R·n·k)
        re-derivation, which is what makes the paper's deadline-sweep
        figures (4c / 5a / 7c) cheap.

        Without ``discount`` the rows are *bit-identical* to the scalar
        path: the counts are exact integers (exactly representable in
        float32 while ``R * n < 2**24`` — past that the method falls
        back to per-deadline scalar queries), and the scalar pipeline's
        float32 world-mean is replayed with identical rounding.  With
        ``discount`` the histogram weighting accumulates in float64 —
        at least as accurate as the scalar float32 GEMM but not
        bit-equal to it (the summation order differs); agreement is
        within float32 rounding.
        """
        self._check_fresh()
        cutoffs = [_clip_deadline(deadline) for deadline in deadlines]
        self._check_discount(discount)
        k = len(self.group_names)
        out = np.empty((len(cutoffs), k), dtype=np.float64)
        if not cutoffs:
            return out
        if self.n_worlds * self.n >= self.FLOAT32_EXACT_LIMIT:
            for i, deadline in enumerate(deadlines):
                out[i] = self.group_utilities(state, deadline, discount)
            return out
        hist = self._state_time_histogram(state)
        if discount is None:
            cumulative = np.cumsum(hist, axis=1)  # (k, 256) exact ints
            for i, cutoff in enumerate(cutoffs):
                # Replay the scalar float32 mean (exact counts, float64
                # division, float32 store) bit-for-bit.
                out[i] = (
                    (cumulative[:, cutoff].astype(np.float64) / self.n_worlds)
                    .astype(np.float32)
                    .astype(np.float64)
                )
            return out
        powers = np.power(float(discount), np.arange(256, dtype=np.float64))
        powers[UNREACHABLE] = 0.0  # the sentinel never counts
        cumulative = np.cumsum(hist * powers, axis=1)  # (k, 256) float64
        for i, cutoff in enumerate(cutoffs):
            out[i] = cumulative[:, cutoff] / self.n_worlds
        return out

    def total_utility(self, state: InfluenceState, deadline: float) -> float:
        """Expected activated-by-``deadline`` count over the whole population."""
        return float(self.group_utilities(state, deadline).sum())

    def utilities_for(self, seeds: Iterable[NodeId], deadline: float) -> np.ndarray:
        """Group utilities of an explicit seed set (convenience)."""
        return self.group_utilities(self.state_for(seeds), deadline)

    def normalized_group_utilities(
        self, state: InfluenceState, deadline: float
    ) -> np.ndarray:
        """Per-group utilities divided by group sizes — the paper's
        ``f_tau(S; V_i, G) / |V_i|``."""
        return self.group_utilities(state, deadline) / self.group_sizes

    # ------------------------------------------------------------------
    def standard_errors(
        self,
        state: InfluenceState,
        deadline: float,
        discount: Optional[float] = None,
    ) -> np.ndarray:
        """Monte-Carlo standard error of each group-utility estimate.

        Shares :meth:`_activation_weights` with the utility queries, so
        it scores exactly what they score — including the
        ``discount=gamma`` extension, which the old step-model-only
        formula silently ignored.
        """
        self._check_fresh()
        cutoff = _clip_deadline(deadline)
        weights = self._activation_weights(state.best_time, cutoff, discount)
        per_world = weights @ self._masks_f  # (R, k)
        return per_world.std(axis=0, ddof=1).astype(np.float64) / math.sqrt(
            self.n_worlds
        )

    def memory_bytes(self) -> int:
        """Footprint of the backend's distance store (for reports)."""
        return self._backend.memory_bytes()

    @property
    def nbytes(self) -> int:
        """Total resident bytes this ensemble pins: the distance store
        (dense slab / sparse CSR / lazy LRU cache) plus the sampled
        worlds' kept-edge CSRs.

        Process-built stores live inside shared-memory segments; those
        are accounted by *segment size* (what the kernel actually
        reserves, padding included) instead of the store's logical
        ``memory_bytes`` so the byte-bounded :class:`repro.api.Session`
        cache and ``/v1/stats`` report what eviction really frees.
        Closed ensembles hold nothing.
        """
        if self._closed:
            return 0
        if self._shared_segments:
            store = sum(segment.size for segment in self._shared_segments)
        else:
            store = self._backend.memory_bytes()
        return int(store + sum(world.nbytes for world in self.worlds))

    def __repr__(self) -> str:
        return (
            f"WorldEnsemble(n={self.n}, worlds={self.n_worlds}, "
            f"candidates={self.n_candidates}, model={self.model!r}, "
            f"backend={self.backend_name!r}, groups={self.group_names!r})"
        )
