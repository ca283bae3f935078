"""Common-random-numbers influence estimator over live-edge worlds.

The greedy algorithms of the paper evaluate ``f_tau`` for thousands of
candidate seed sets.  Re-simulating cascades for every evaluation (the
textbook approach) is both slow and noisy — two seed sets would be
compared on *different* random outcomes.  This module implements the
standard fix: sample ``R`` live-edge worlds **once**, fix the per-world
activation times of every candidate, and evaluate every seed set on
the same fixed worlds.

The state of a partially built seed set is the per-world
earliest-activation vector ``best[r, v] = min_{s in S} D[r, s, v]``
(where ``D[r, c, v]`` is candidate ``c``'s BFS distance to ``v`` in
world ``r``) plus its per-group activation-time histogram.  On
live-edge worlds only a fraction of a percent of ``D`` is finite, so
``D`` is never stored: the ensemble's one store is a candidate-major
**reach index** holding each candidate's finite entries ``(r * n + v,
time, group)``, emitted straight by the frontier BFS
(:func:`~repro.influence.backends.bfs_rows`).  States and queries over
it live in :class:`ReachOracle`, which every RR pool of
:class:`~repro.influence.rrsets.RRSetEstimator` shares, and the surface
the solvers call is written once over the oracle,
:class:`UtilityEstimator`: the world ensemble and the RR-set estimator
are its two builders, and differ in how their entries are built and in
the normaliser (``1 / R``, or ``n / theta``).  For the step model:

- adding a seed lowers ``best`` and moves histogram bins at the
  candidate's own entries only — O(entries of ``c``);
- the expected group utilities of ``S`` are the histogram's cumulative
  sum at the deadline — O(k·tau), cached on the state per cutoff;
- the *marginal* utilities of a candidate are those counts plus the
  groups of the entries it newly activates (``time <= tau < best``) —
  O(entries of ``c``), without mutating the state;
- the state also keeps every candidate's marginal counts ``M`` (see
  :meth:`UtilityEstimator.marginal_counts`): at the empty state they are
  a column of the gain table the index build derives with one
  bincount, and ``add_seed`` retires, through the index's node-major
  transpose, the entries of every candidate that reached a node the
  seed newly activates.  So a batched query scores a whole block in
  O(k) per candidate at *any* state.  Such a state keeps its counts at
  ``M``'s cutoff (``counts + M[seed]`` per pick) instead of its
  histogram, so one exact CELF round — a pick and every open row — is
  one call (:meth:`UtilityEstimator.add_seed_and_score`);
- a whole *deadline sweep* for a fixed seed set reads the same
  histogram's exact counts once per deadline
  (:meth:`UtilityEstimator.group_utilities_sweep`) — O(k·tau) per
  additional deadline, with no rescan of the state.

Discounted utilities (``gamma**t`` weights) read the same two
structures: a seed set's utilities are its histogram weighed by a
256-entry table of ``gamma**t`` (0 past the deadline), and a
candidate's row adds, over its own entries, the weight each entry gains
over the state's time there — O(entries of ``c``), in float64
(:meth:`UtilityEstimator.candidate_group_utilities_batch`).

Queries run serially on the caller thread.  The speed comes from
submodularity (lazy CELF re-evaluation), the reach index and the
batched oracle, not from threads: world-sharding the numpy primitives
never beat the serial path on the measured workloads (see
``docs/PERFORMANCE.md``).
Concurrent queries on one shared ensemble (``repro serve --threads``)
are safe — every buffer a query writes is its own, and a repair swaps in
the oracle of a patched reach index with one assignment.

This estimator is unbiased for Eq. 1 for every ``tau``
simultaneously, which is what lets one ensemble serve a whole
deadline sweep (Fig. 4c / 5a / 7c).

Step-model utilities are *exact*: every path counts integers in int64
(the empty-state table keeps its integer counts in the smallest
unsigned type holding ``R * n``) and divides the total by ``R`` once,
so every query path returns the same float64 bits for the same seed
set, whatever order it counted in.  Discounted utilities are float64
sums: every path that answers one query adds the same terms in the same
order, so they too return the same bits however they are asked
(``discount=1`` gives the step model's bits).  That is what makes
CELF's per-group bounds sound (see :mod:`repro.core.greedy`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import ConfigError, EstimationError
from repro.graph.digraph import DiGraph, NodeId
from repro.graph.groups import GroupAssignment
from repro.diffusion.worlds import (
    UNREACHABLE,
    LiveEdgeWorld,
    check_model,
    ic_world_key,
    sample_ic_worlds,
    sample_lt_world,
)
from repro.influence.backends import (
    bfs_rows,
    compact_uint,
    concat_ranges,
    flat_index_dtype,
    splice,
)
from repro.influence.deadlines import clip_deadline as _clip_deadline
from repro.rng import RngLike, ensure_rng


@dataclass
class InfluenceState:
    """Incremental evaluation state for one growing seed set over one
    reach index (see :class:`ReachOracle`).

    ``best_time[r, v]`` is the earliest activation time of cell ``v``
    of row ``r`` under the current seeds (``UNREACHABLE`` if none): node
    ``v`` of world ``r`` in a world ensemble, RR set ``v`` (time 0 once
    covered) in an RR pool.

    ``time_hist`` is the state's per-group activation-time histogram
    (``(k, 256)`` int64, finite times only): ``time_hist[g, t]`` counts,
    over all cells, those of group ``g`` first activated at ``t``.
    ``ReachOracle.empty_state`` starts it at zero and
    ``ReachOracle.add_seed`` moves it, so step-model utilities and
    deadline sweeps never rescan the state.  ``None`` means "not built"
    (a state that keeps marginal counts drops it on ``add_seed``): the
    first query that needs it bincounts ``best_time`` once.

    ``counts`` caches ``(cutoff, per-group activated totals)`` — the
    histogram's cumulative sum at one cutoff — which ``add_seed`` keeps
    current at the cutoff of the state's marginal counts and drops
    otherwise.

    ``marginals`` is ``(cutoff, M)`` with ``M`` an int64 ``(C, k)``
    array: ``M[c, g]`` counts the group-``g`` cells candidate ``c``
    reaches by ``cutoff`` that the state does not — every candidate's
    exact marginal counts.  The first step-model batched query at a
    cutoff builds it (see :meth:`ReachOracle.marginals`); ``add_seed``
    then keeps it exact in place.
    """

    best_time: np.ndarray
    seed_positions: List[int] = field(default_factory=list)
    time_hist: Optional[np.ndarray] = None
    counts: Optional[Tuple[int, np.ndarray]] = None
    marginals: Optional[Tuple[int, np.ndarray]] = None

    def copy(self) -> "InfluenceState":
        # ``add_seed`` writes ``best_time``, ``time_hist`` and ``M`` in
        # place, so the copy gets its own; it replaces the ``counts``
        # array (``counts + M[seed]``) and never writes into it, so the
        # copy may share that one.
        marginals = self.marginals
        if marginals is not None:
            marginals = (marginals[0], marginals[1].copy())
        return InfluenceState(
            best_time=self.best_time.copy(),
            seed_positions=list(self.seed_positions),
            time_hist=None if self.time_hist is None else self.time_hist.copy(),
            counts=self.counts,
            marginals=marginals,
        )

    @property
    def size(self) -> int:
        return len(self.seed_positions)


class _ReachIndex(NamedTuple):
    """The ensemble's store: candidate-major finite activation entries,
    their node-major transpose and the table built from them.

    Candidate ``c`` owns entries ``offsets[c]:offsets[c + 1]``: each
    says ``c`` activates node ``flat % n`` of world ``flat // n`` at
    hop ``time``, and ``group`` is that node's group.  Within a
    candidate, entries run world by world, nodes ascending within a
    world.  ``table`` is the ``(C, k, T)`` cumulative per-candidate time
    histogram: ``table[c, g, min(cutoff, T - 1)]`` is the exact total
    (over worlds) of group-``g`` nodes candidate ``c`` alone activates
    by ``cutoff`` — the whole first greedy round at every deadline.
    ``T`` is one past the largest finite time (later cutoffs count the
    same nodes), and counts are in the smallest unsigned type holding
    ``R * n`` (:func:`table_dtype`).

    The transpose lists the same entries sorted by ``(i, time)`` with
    ``i = r * n + v`` (a stable sort, so owners ascend among a node's
    equal times): node ``i`` is reached at the ascending hops
    ``node_time[node_starts[i]:node_starts[i + 1]]`` by the owners
    those entries' ``node_code`` (``owner * k + group of v``) name — the
    cell of ``M`` each entry counts in.  So the entries that reach a
    node by a cutoff are a prefix of its range
    (:meth:`ReachOracle.stops`).  ``add_seed`` reads those prefixes to
    retire the marginal counts of every candidate that reached a newly
    activated node, and a repair reads whole ranges to find the rows
    that reach a re-flipped edge.  The ensemble swaps a whole index —
    transpose included — in with one assignment, so a concurrent reader
    sees either the old index or the new one.
    """

    offsets: np.ndarray  # (C + 1,) int64
    flat: np.ndarray  # int32 while R * n < 2**31, else int64
    time: np.ndarray  # uint8
    group: np.ndarray  # smallest unsigned type holding k
    table: np.ndarray  # (C, k, T) smallest unsigned type holding R * n
    node_starts: np.ndarray  # (R * n + 1,) smallest unsigned type for the entries
    node_code: np.ndarray  # owner * k + group; smallest unsigned type for C * k
    node_time: np.ndarray  # uint8

    @property
    def nbytes(self) -> int:
        return int(sum(array.nbytes for array in self))

    def entries(self, position: int):
        """``(flat, time, group)`` views of one candidate's entries."""
        lo, hi = self.offsets[position], self.offsets[position + 1]
        return self.flat[lo:hi], self.time[lo:hi], self.group[lo:hi]

    def gather(self, positions: np.ndarray):
        """Entry indices of ``positions`` (in order) and each one's count."""
        starts, stops = self.offsets[positions], self.offsets[positions + 1]
        return concat_ranges(starts, stops), stops - starts


def table_dtype(n_worlds: int, n: int) -> np.dtype:
    """The gain table's counts: one candidate reaches at most ``R * n``
    nodes, so the smallest unsigned type holding that."""
    return compact_uint(n_worlds * n + 1)


def time_table(
    row: np.ndarray, n_rows: int, group: np.ndarray, time: np.ndarray, k: int, n_bins: int
) -> np.ndarray:
    """Cumulative ``(n_rows, k, n_bins)`` time histogram of entries
    ``(row, group, time)`` — the gain-table rows, by one bincount."""
    codes = (row.astype(np.int64) * k + group) * n_bins + time
    table = np.bincount(codes, minlength=n_rows * k * n_bins)
    table = table.reshape(n_rows, k, n_bins)
    np.cumsum(table, axis=2, out=table)
    return table


def assemble_reach(
    offsets: np.ndarray,
    flat: np.ndarray,
    time: np.ndarray,
    group: np.ndarray,
    table: np.ndarray,
    n_nodes: int,
    k: int,
) -> _ReachIndex:
    """The index of candidate-major entries, with its node-major
    transpose: node starts, ``M`` cells and times re-sorted stably by
    ``(r * n + v, time)`` over ``n_nodes = R * n`` nodes.  The cells
    are formed in their compact dtype, so the transient stays near the
    index's own size."""
    n_candidates = offsets.size - 1
    code = np.repeat(
        np.arange(n_candidates, dtype=compact_uint(n_candidates * k)), np.diff(offsets)
    )
    code *= k
    code += group
    starts = np.zeros(n_nodes + 1, dtype=compact_uint(flat.size + 1))
    starts[1:] = np.cumsum(np.bincount(flat, minlength=n_nodes))
    # In the smallest unsigned key (16 bits on every shipped dataset)
    # numpy's stable sort is a radix sort, ~10x a timsort.  A first
    # stable pass on the uint8 times orders each node's entries by time;
    # an index whose times are all 0 (an RR pool's) skips it.
    if table.shape[2] > 1:
        order = np.argsort(time, kind="stable")
        order = order[np.argsort(flat[order].astype(compact_uint(n_nodes)), kind="stable")]
    else:
        order = np.argsort(flat.astype(compact_uint(n_nodes)), kind="stable")
    return _ReachIndex(
        offsets, flat, time, group, table, starts, code[order], time[order]
    )


class ReachOracle:
    """Seed-set states and utility queries over one reach index.

    The index's cells are ``row * width + col``, and a cell's group is
    ``col_group[col]``: a world ensemble's ``R x n`` (world, node)
    cells are grouped by node, and an RR pool
    (:class:`~repro.influence.rrsets.RRSetEstimator`) is one row of
    ``theta`` sets, each reached at time 0 by its members and grouped by
    its target.  Both estimators hold oracles by composition and query
    them through :class:`UtilityEstimator`.  Answers
    are exact int64 counts of activated cells or, given per-time
    ``weights``, float64 weighted totals; the world ensemble divides
    them by ``R`` and an RR pool multiplies them by ``n / theta``.
    A single position is trusted (the estimators validate it; a block
    is checked by :meth:`rows`), and an oracle's answers never change: it
    only caches what it derives from its index (:meth:`stops`), and a
    repair swaps in a new oracle.
    """

    def __init__(self, reach: _ReachIndex, col_group: np.ndarray, k: int) -> None:
        self.reach = reach
        self.col_group = col_group
        self.k = k
        # Per cutoff before the index's last finite time: each cell's
        # in-time stop (see ``stops``), built on first use.
        self._stops: Dict[int, np.ndarray] = {}

    @property
    def nbytes(self) -> int:
        """The index's bytes plus the stops cached so far."""
        return self.reach.nbytes + sum(s.nbytes for s in tuple(self._stops.values()))

    def stops(self, cutoff: int) -> np.ndarray:
        """Each cell's end of its in-time transpose range at ``cutoff``,
        ``(cells,)`` in the node starts' dtype: cell ``i``'s entries
        with ``time <= cutoff`` are ``node_starts[i]:stops[i]``, as the
        transpose orders a cell's entries by time.  At or past the
        index's last finite time that is every entry
        (``node_starts[1:]``, a view); before it, one pass over the
        transpose's times builds the stops, cached per cutoff.
        """
        reach = self.reach
        if cutoff >= reach.table.shape[2] - 1:
            return reach.node_starts[1:]
        stops = self._stops.get(cutoff)
        if stops is None:
            starts = reach.node_starts
            # ``timely[j]`` counts the in-time entries among the first ``j``.
            timely = np.zeros(reach.node_time.size + 1, dtype=starts.dtype)
            in_time = reach.node_time <= np.uint8(cutoff)
            np.cumsum(in_time, dtype=starts.dtype, out=timely[1:])
            stops = timely[starts[1:]]
            stops -= timely[starts[:-1]]
            stops += starts[:-1]
            self._stops[cutoff] = stops
        return stops

    def empty_state(self) -> InfluenceState:
        """State of the empty seed set (with its all-zero histogram)."""
        width = self.col_group.size
        rows = (self.reach.node_starts.size - 1) // width
        return InfluenceState(
            best_time=np.full((rows, width), UNREACHABLE, dtype=np.uint8),
            time_hist=np.zeros((self.k, 256), dtype=np.int64),
        )

    def state_for(self, positions: List[int]) -> InfluenceState:
        """State of distinct seeds ``positions``: one scatter-minimum of
        their entries.  ``uint8`` minimum is exact, so the state is
        bit-identical to one :meth:`add_seed` per seed; its histogram
        is built on first use."""
        state = self.empty_state()
        if positions:
            reach = self.reach
            at, _ = reach.gather(np.asarray(positions, dtype=np.int64))
            np.minimum.at(state.best_time.reshape(-1), reach.flat[at], reach.time[at])
            state.seed_positions.extend(positions)
            state.time_hist = None
        return state

    def add_seed(self, state: InfluenceState, position: int) -> None:
        """Mutate ``state`` to include candidate ``position`` as a seed.

        Only the candidate's own index entries are visited, and
        ``best_time`` is lowered there.  A state without marginal counts
        moves its histogram (when it has one) at exactly those entries —
        integer moves, bit-identical to a full rebuild — and drops its
        cached counts.

        A state with marginal counts ``M`` at a cutoff (an exact CELF
        round's state) instead keeps its counts there: ``M[position]``
        counts per group exactly the cells the seed newly activates
        (``time <= cutoff < previous``), so they become ``counts +
        M[position]``.  Every candidate reaching one of those cells by
        the cutoff then loses it from ``M`` (:meth:`_retire_marginals`;
        over a solve each transpose entry is retired at most once).  No
        exact-round query reads the histogram, so it is dropped rather
        than moved.
        """
        reach = self.reach
        flat, times, groups = reach.entries(position)
        best = state.best_time.reshape(-1)  # a view: states are contiguous
        previous = best[flat]
        if state.marginals is None:
            lower = times < previous
            times = times[lower]
            if state.time_hist is not None:
                self._move_hist(state.time_hist, groups[lower], previous[lower], times)
            best[flat[lower]] = times
            state.counts = None
        else:
            cutoff, marginals = state.marginals
            state.counts = (cutoff, self.counts(state, cutoff) + marginals[position])
            self._retire_marginals(marginals, cutoff, flat, times, previous)
            # Entries list distinct cells, so one assignment is exact.
            best[flat] = np.minimum(previous, times)
            state.time_hist = None
        state.seed_positions.append(position)

    def _retire_marginals(
        self,
        marginals: np.ndarray,
        cutoff: int,
        flat: np.ndarray,
        times: np.ndarray,
        previous: np.ndarray,
    ) -> None:
        """Update ``M`` at ``cutoff`` for a seed whose entries are
        ``(flat, times)``, with the state's times there before it was
        added.

        A cell the seed reaches by the cutoff that the state did not
        (``time <= cutoff < previous``) stops being a marginal gain for
        every candidate reaching it by the cutoff, the seed included:
        the in-time prefixes of those cells' transpose ranges
        (:meth:`stops`) are counted into ``M``'s cells by one bincount
        and subtracted.
        """
        reach = self.reach
        limit = np.uint8(cutoff)
        newly = np.greater(previous, limit)
        # Past the index's last finite time (every RR membership is at
        # time 0) every entry is reached by the cutoff: no time mask.
        if cutoff < reach.table.shape[2] - 1:
            newly &= np.less_equal(times, limit)
        cells = flat[newly]
        if not cells.size:
            return
        at = concat_ranges(reach.node_starts[cells], self.stops(cutoff)[cells])
        flat_marginals = marginals.reshape(-1)  # a view: ``M`` is contiguous
        flat_marginals -= np.bincount(reach.node_code[at], minlength=flat_marginals.size)

    @staticmethod
    def _move_hist(
        hist: np.ndarray,
        groups: np.ndarray,
        old_times: np.ndarray,
        new_times: np.ndarray,
    ) -> None:
        """Move histogram counts for entries lowered from old to new times.

        The old time's bin loses the cell and the new time's bin gains
        it.  Newly reached cells come out of nowhere: their old time is
        ``UNREACHABLE``, whose bin the histogram pins to zero (no cutoff
        reaches it), so it is reset after the move.
        """
        codes = np.multiply(groups, 256, dtype=np.int64)
        flat = hist.reshape(-1)
        flat += np.bincount(codes + new_times, minlength=flat.size)
        flat -= np.bincount(codes + old_times, minlength=flat.size)
        hist[:, UNREACHABLE] = 0

    def histogram(self, state: InfluenceState) -> np.ndarray:
        """Activation-time histogram of the current seed set, ``(k, 256)``:
        ``hist[g, t]`` counts the cells of group ``g`` activated at
        exactly time ``t`` (the ``UNREACHABLE`` bin is pinned to zero).
        Kept by :meth:`add_seed` on states without marginal counts, so
        only a state that has none (a ``state_for`` state, or an
        exact-round state after a pick) pays for one bincount over its
        ``(group, time)`` codes on its first query.
        """
        if state.time_hist is not None:
            return state.time_hist
        group, best = self.col_group, state.best_time
        finite = best != UNREACHABLE
        if 4 * np.count_nonzero(finite) < finite.size:
            # Sparse activation (the common live-edge regime): extract
            # the few finite cells and bincount only those.
            idx = np.flatnonzero(finite.ravel())
            codes = group[idx % group.size] * 256 + best.ravel()[idx]
        else:
            # Dense activation: a full-array bincount beats extraction.
            # The UNREACHABLE cells land in each group's bin 255, zeroed
            # below (no cutoff ever reaches it — cutoffs are <= 254).
            codes = (group * 256 + best).ravel()
        hist = np.bincount(codes, minlength=self.k * 256).reshape(self.k, 256)
        hist[:, UNREACHABLE] = 0
        state.time_hist = hist
        return hist

    def counts(self, state: InfluenceState, cutoff: int) -> np.ndarray:
        """Exact per-group counts of the cells activated by ``cutoff``:
        the integer cumulative sum of the state's histogram, cached on
        the state (and kept current by :meth:`add_seed` at the cutoff of
        the state's marginal counts).  Normalised once, it gives the
        same float64 bits as any other exact count of the same
        cells."""
        cached = state.counts
        if cached is not None and cached[0] == cutoff:
            return cached[1]
        counts = self.histogram(state)[:, : cutoff + 1].sum(axis=1)
        state.counts = (cutoff, counts)
        return counts

    def totals(self, state: InfluenceState, weights: np.ndarray) -> np.ndarray:
        """Per-group weighted totals of the seed set, ``sum_t hist[g, t]
        * weights[t]`` — the one expression every discounted query of a
        state reads, so they agree bit for bit."""
        return (self.histogram(state) * weights).sum(axis=1)

    def row(
        self,
        state: InfluenceState,
        position: int,
        cutoff: int,
        weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Counts (or, with ``weights``, totals) of ``S + c`` without
        mutation, over the candidate's own entries.

        Step model: a cell is newly activated exactly when the candidate
        reaches it by the cutoff and the state does not, so the row is
        ``counts_S + bincount(group[newly])``.  Weighted: a cell's weight
        becomes the larger of its weights under the state and under the
        candidate, so the row is ``totals_S + bincount(group, max(0,
        w[time] - w[best]))``, in float64.
        """
        flat, times, groups = self.reach.entries(position)
        best = state.best_time.reshape(-1)[flat]
        if weights is not None:
            gains = weights[times] - weights[best]
            np.maximum(gains, 0.0, out=gains)
            totals = np.bincount(groups, weights=gains, minlength=self.k)
            totals += self.totals(state, weights)
            return totals
        limit = np.uint8(cutoff)  # a uint8 scalar compares without casts
        newly = np.less_equal(times, limit)
        newly &= np.greater(best, limit)
        counts = np.bincount(groups[newly], minlength=self.k)
        counts += self.counts(state, cutoff)
        return counts

    def rows(
        self,
        state: InfluenceState,
        positions: Sequence[int],
        cutoff: int,
        weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """:meth:`row` for a whole block of candidate positions (checked
        here), ``(len(positions), k)``, each row bit-identical to the
        scalar one.  Step model: row ``c`` is ``M[c] + counts_S`` from
        the state's marginal counts (:meth:`marginals`), O(k) a row.
        Weighted: every entry's weight gain over the state is added into
        its row's group bin by one ``bincount``, O(entries of the
        block); a bin receives its entries in the scalar path's order.
        """
        positions = np.asarray(positions, dtype=np.int64)
        if positions.ndim != 1:
            raise EstimationError(
                f"positions must be one-dimensional, got shape {positions.shape}"
            )
        n_candidates, k = self.reach.offsets.size - 1, self.k
        if positions.size == 0:
            return np.empty((0, k), dtype=np.int64)
        bad = (positions < 0) | (positions >= n_candidates)
        if bad.any():
            raise EstimationError(
                f"candidate positions out of range [0, {n_candidates}): "
                f"{positions[bad]}"
            )
        if weights is None:
            return self.marginal_rows(state, positions, cutoff)
        reach = self.reach
        at, sizes = reach.gather(positions)
        gains = weights[reach.time[at]] - weights[state.best_time.reshape(-1)[reach.flat[at]]]
        np.maximum(gains, 0.0, out=gains)
        codes = np.repeat(np.arange(0, positions.size * k, k, dtype=np.int64), sizes)
        codes += reach.group[at]
        totals = np.bincount(codes, weights=gains, minlength=positions.size * k)
        totals = totals.reshape(positions.size, k)
        totals += self.totals(state, weights)
        return totals

    def marginal_rows(
        self, state: InfluenceState, positions: np.ndarray, cutoff: int
    ) -> np.ndarray:
        """Step-model rows ``M[c] + counts_S`` of ``positions``, which
        the caller has checked (:meth:`rows` checks them)."""
        rows = np.take(self.marginals(state, cutoff), positions, axis=0)
        rows += self.counts(state, cutoff)
        return rows

    def marginals(self, state: InfluenceState, cutoff: int) -> np.ndarray:
        """The state's exact marginal counts ``M`` at ``cutoff``, cached
        on it (the state's own array: read it, do not write it).

        ``M[c, g]`` counts the group-``g`` cells candidate ``c`` reaches
        by the cutoff that the state does not, so ``M[c] + counts_S`` is
        ``S + c``'s row.  The empty state's ``M`` is the gain table's
        column at the cutoff; any other state's is one masked bincount
        over every index entry that reaches its cell by the cutoff while
        the state does not.  :meth:`add_seed` then keeps it exact.
        """
        cached = state.marginals
        if cached is not None and cached[0] == cutoff:
            return cached[1]
        reach, k = self.reach, self.k
        n_candidates = reach.offsets.size - 1
        if state.seed_positions:
            limit = np.uint8(cutoff)
            live = np.less_equal(reach.time, limit)
            live &= np.greater(state.best_time.reshape(-1)[reach.flat], limit)
            owner = np.repeat(
                np.arange(n_candidates, dtype=np.int64), np.diff(reach.offsets)
            )
            codes = owner[live] * k + reach.group[live]
            counts = np.bincount(codes, minlength=n_candidates * k)
            counts = counts.reshape(n_candidates, k)
        else:
            last = reach.table.shape[2] - 1
            counts = reach.table[:, :, min(cutoff, last)].astype(np.int64)
        state.marginals = (cutoff, counts)
        return counts


def make_backend(
    worlds: Sequence[LiveEdgeWorld],
    candidate_indices: np.ndarray,
    group_index: np.ndarray,
    k: int,
    max_entries: int,
) -> _ReachIndex:
    """Build the ensemble's store — its reach index — from its worlds.

    One :func:`~repro.influence.backends.bfs_rows` call runs every
    ``(candidate, world)`` row, candidate-major (row ``c * R + r``), so
    its sorted ``row * n + v`` keys are already in the index's
    ``(candidate, world, node)`` order.  Offsets, groups, the gain
    table (one bincount) and the transpose are derived from them.
    Raises :class:`~repro.errors.ConfigError` as soon as the BFS emits
    more than ``max_entries`` entries, before anything is assembled.
    (``perfbench/tracing.py`` times every store build through this
    module-level name.)
    """
    n_worlds, n_candidates, n = len(worlds), len(candidate_indices), worlds[0].n
    found = bfs_rows(
        worlds,
        np.tile(np.arange(n_worlds), n_candidates),
        np.repeat(candidate_indices, n_worlds),
        max_entries,
    )
    if found is None:
        raise ConfigError(
            f"the reach index of {n_worlds} worlds x {n_candidates} candidates "
            f"on {n} nodes outgrows WorldEnsemble.EMPTY_TABLE_BYTE_LIMIT "
            f"(more than {max_entries} entries); use fewer worlds or "
            'candidates, or the RR-set estimator (kind="rrset")'
        )
    key, time = found
    del found
    span = n_worlds * n
    offsets = np.searchsorted(key, np.arange(n_candidates + 1, dtype=np.int64) * span)
    flat = (key % span).astype(flat_index_dtype(n_worlds, n))
    del key
    group = group_index[flat % n].astype(compact_uint(k))
    owner = np.repeat(np.arange(n_candidates), np.diff(offsets))
    n_bins = int(time.max()) + 1 if time.size else 1
    table = time_table(owner, n_candidates, group, time, k, n_bins)
    del owner
    table = table.astype(table_dtype(n_worlds, n))
    return assemble_reach(offsets, flat, time, group, table, span, k)


class UtilityEstimator:
    """Seed-set states and utility queries: the surface the solvers call.

    The repository's two estimators are this class over two builders:
    :class:`WorldEnsemble` (``R`` live-edge worlds, one reach index
    whose cells are ``(world, node)`` pairs) and
    :class:`~repro.influence.rrsets.RRSetEstimator` (one pool of
    group-tagged RR sets per horizon, each a reach index whose cells
    are its sets).  Both answer through a :class:`ReachOracle`, so the
    queries here are written once.  Each reads its inputs from one
    hook, ``_bind(state, deadline, discount)``, which returns ``(oracle,
    state over it, cutoff, weights, scale)``: the oracle's exact counts
    (or, given weights, float64 weighted totals) are then normalised by
    ``_normalise(x, scale)`` — ``x / R`` over worlds, ``x * (n /
    theta)`` over an RR pool.

    A builder also supplies ``_state_of`` (the state of distinct seed
    positions), ``add_seed``, ``memory_bytes`` and ``nbytes``.  Every
    query and mutation first checks that the graph has not changed
    since the index was built (:meth:`_check_fresh`).  CELF's per-group bounds assume what both
    estimators guarantee: every group utility is monotone submodular in
    the seed set, and step-model utilities are exact (the same float64
    bits on every query path).
    """

    #: How an answer's counts meet ``_bind``'s scale: ``np.true_divide``
    #: or ``np.multiply``, the ufunc behind the operator, so the bits
    #: are the operator's own.
    _normalise: Callable[[np.ndarray, float], np.ndarray]

    #: What a caller should do about a stale estimator (see
    #: :meth:`_check_fresh`).
    _STALE_HINT: str

    def __init__(
        self,
        graph: DiGraph,
        assignment: GroupAssignment,
        candidates: Optional[Iterable[NodeId]] = None,
    ) -> None:
        assignment.validate_for(graph)
        self.graph = graph
        self.assignment = assignment
        self.n = graph.number_of_nodes()
        self.group_names: List[Hashable] = assignment.groups
        self.group_sizes = assignment.sizes().astype(np.float64)
        # Groups partition the nodes, so each column of the ``(k, n)``
        # mask matrix has exactly one True: argmax recovers the group
        # index of every node (used by the indexes and the histograms).
        self._group_index = assignment.masks(graph).argmax(axis=0).astype(np.int64)
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
        # The graph version the index matches (see ``_check_fresh``).
        self._graph_version = graph.version

    def _check_fresh(self) -> None:
        """Refuse to serve estimates for a graph the index doesn't match.

        The graph version advances on every mutation; an index sampled
        at another version (and, for worlds, not repaired since through
        :meth:`WorldEnsemble.apply_delta`) describes a graph that no
        longer exists — a silent source of wrong numbers this guard
        turns into a loud error.
        """
        if self.graph.version != self._graph_version:
            raise EstimationError(
                f"stale {type(self).__name__}: the graph is at version "
                f"{self.graph.version} but the estimator matches version "
                f"{self._graph_version}; {self._STALE_HINT}"
            )

    # ------------------------------------------------------------------
    # candidate addressing
    # ------------------------------------------------------------------
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

    def check_position(self, position: int, seeds: Collection[int] = ()) -> int:
        """``position`` as an ``int``; raises :class:`~repro.errors.
        EstimationError` unless it names a candidate that is not already
        among the positions ``seeds``."""
        position = int(position)
        if not 0 <= position < self.n_candidates:
            raise EstimationError(
                f"candidate position {position} out of range "
                f"[0, {self.n_candidates})"
            )
        if position in seeds:
            raise EstimationError(f"candidate {self.label(position)!r} is already a seed")
        return position

    # ------------------------------------------------------------------
    # states
    # ------------------------------------------------------------------
    def empty_state(self):
        """State of the empty seed set."""
        return self.state_for(())

    def state_for(self, seeds: Iterable[NodeId]):
        """State of an arbitrary seed set (each seed a distinct
        candidate), bit-identical to one :meth:`add_seed` per seed;
        ``evaluate_at`` / :meth:`utilities_for` / the sweep helpers all
        sit on this."""
        positions: Dict[int, None] = {}  # ordered, with O(1) lookups
        for node in seeds:
            positions[self.check_position(self.position(node), positions)] = None
        self._check_fresh()
        return self._state_of(list(positions))

    def seeds_of(self, state) -> List[NodeId]:
        return [self.candidate_labels[p] for p in state.seed_positions]

    def add_seed_and_score(
        self,
        state,
        position: int,
        deadline: float,
        open_positions: Optional[np.ndarray] = None,
        stop: Optional[Callable[[np.ndarray], bool]] = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """One exact CELF round (step model): :meth:`add_seed`, then the
        new group utilities and their rows at ``open_positions`` — each
        bit-identical to :meth:`group_utilities` and
        :meth:`candidate_group_utilities_batch`.  The rows are ``None``
        when the solve ends at this pick: ``open_positions`` is ``None``
        or ``stop`` holds on the new utilities.  The state keeps its
        counts and ``M`` at the deadline, so both are reads; the open
        positions are the engine's own and are not checked."""
        oracle, bound, cutoff, _, scale = self._bind(state, deadline)
        self.add_seed(state, position)
        utilities = self._normalise(oracle.counts(bound, cutoff), scale)
        if open_positions is None or (stop is not None and stop(utilities)):
            return utilities, None
        rows = oracle.marginal_rows(bound, open_positions, cutoff)
        return utilities, self._normalise(rows, scale)

    # ------------------------------------------------------------------
    # utility queries: the oracle's counts and totals, normalised
    # ------------------------------------------------------------------
    def group_utilities(
        self,
        state,
        deadline: float,
        discount: Optional[float] = None,
    ) -> np.ndarray:
        """Expected per-group utility of the current seed set.

        Order matches :attr:`group_names`.  Without ``discount`` this is
        ``[f_tau(S; V_1, G), ..., f_tau(S; V_k, G)]`` (Eq. 1); with
        ``discount=gamma`` (worlds only) each activated node contributes
        ``gamma**t_v`` instead of 1.  Both are read from the state's
        histogram: its exact counts or its weighted totals, normalised.
        """
        oracle, bound, cutoff, weights, scale = self._bind(state, deadline, discount)
        if weights is None:
            return self._normalise(oracle.counts(bound, cutoff), scale)
        return self._normalise(oracle.totals(bound, weights), scale)

    def candidate_group_utilities(
        self,
        state,
        position: int,
        deadline: float,
        discount: Optional[float] = None,
    ) -> np.ndarray:
        """Group utilities of ``seeds(state) + {candidate}`` without
        mutation: :meth:`ReachOracle.row` over the candidate's own index
        entries — O(entries of ``c``) — normalised."""
        oracle, bound, cutoff, weights, scale = self._bind(state, deadline, discount)
        row = oracle.row(bound, self.check_position(position), cutoff, weights)
        return self._normalise(row, scale)

    def candidate_group_utilities_batch(
        self,
        state,
        positions: Sequence[int],
        deadline: float,
        discount: Optional[float] = None,
    ) -> np.ndarray:
        """Group utilities of ``seeds(state) + {c}`` for a whole block,
        ``(len(positions), k)``, row ``i`` bit-identical to
        ``candidate_group_utilities(state, positions[i], ...)``:
        :meth:`ReachOracle.rows`, normalised."""
        oracle, bound, cutoff, weights, scale = self._bind(state, deadline, discount)
        return self._normalise(oracle.rows(bound, positions, cutoff, weights), scale)

    def marginal_counts(
        self,
        state,
        deadline: float,
        discount: Optional[float] = None,
    ) -> Optional[np.ndarray]:
        """The state's exact marginal counts ``M`` at ``deadline``
        (:meth:`ReachOracle.marginals`), or ``None`` for discounted
        utilities, which are not counts.

        ``M[c, g]`` counts the group-``g`` cells candidate ``c`` reaches
        by the deadline that the state does not, so ``M[c] + counts_S``,
        normalised, is ``u(S + c)``; :meth:`add_seed` keeps it exact.
        ``lazy_greedy`` never calls this (its exact rounds read the
        rows :meth:`add_seed_and_score` returns); it exposes ``M`` for
        inspection.  Read it, do not write it.
        """
        oracle, bound, cutoff, weights, _ = self._bind(state, deadline, discount)
        return None if weights is not None else oracle.marginals(bound, cutoff)

    def candidate_gains_batch(
        self,
        state,
        positions: Sequence[int],
        deadline: float,
        objective: Any,
        discount: Optional[float] = None,
        base_value: Optional[float] = None,
    ) -> np.ndarray:
        """Marginal objective gains for a block of candidates.

        ``objective.values`` (see :mod:`repro.core.objectives`) over the
        batched utilities, minus ``base_value`` — the objective of the
        current state, computed when not given.  Row-wise values equal
        ``objective.value`` on each row bit for bit, so gains are exactly
        ``objective.value(candidate_group_utilities(...)) - base_value``.
        """
        utilities = self.candidate_group_utilities_batch(state, positions, deadline, discount)
        if base_value is None:
            base_value = objective.value(self.group_utilities(state, deadline, discount))
        return objective.values(utilities) - base_value

    def group_utilities_sweep(
        self,
        state,
        deadlines: Sequence[float],
        discount: Optional[float] = None,
    ) -> np.ndarray:
        """Group utilities of the current seed set at every deadline,
        ``(len(deadlines), k)`` float64 (``(0, k)`` for none): row ``i``
        is ``group_utilities(state, deadlines[i], discount)``, bit for
        bit.  Every row reads the same state, so the seed set is folded
        once whatever the number of deadlines — what makes the paper's
        deadline-sweep figures (4c / 5a / 7c) cheap.  Over RR sets each
        distinct horizon is its own pool, sampled once and cached."""
        rows = [self.group_utilities(state, deadline, discount) for deadline in deadlines]
        return np.array(rows, dtype=np.float64).reshape(len(rows), len(self.group_names))

    def total_utility(self, state, deadline: float) -> float:
        """Expected activated-by-``deadline`` count over the whole population."""
        return float(self.group_utilities(state, deadline).sum())

    def utilities_for(self, seeds: Iterable[NodeId], deadline: float) -> np.ndarray:
        """Group utilities of an explicit seed set (convenience)."""
        return self.group_utilities(self.state_for(seeds), deadline)

    def normalized_group_utilities(self, state, deadline: float) -> np.ndarray:
        """Per-group utilities divided by group sizes — the paper's
        ``f_tau(S; V_i, G) / |V_i|``."""
        return self.group_utilities(state, deadline) / self.group_sizes


class WorldEnsemble(UtilityEstimator):
    """Pre-sampled worlds + their reach index for a (graph, groups) pair.

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
        exactly as the paper does; restricting also bounds the reach
        index to the candidates' entries.
    model:
        ``"ic"`` (default) or ``"lt"``.
    seed:
        RNG seed for world sampling (determinism).

    The reach index is built with the ensemble.  One larger than
    :attr:`EMPTY_TABLE_BYTE_LIMIT` raises :class:`~repro.errors.
    ConfigError` during the BFS, before its entries are assembled.
    Every answer is the oracle's counts (or weighted totals) divided by
    ``R``.
    """

    #: Ceiling on the reach index's bytes (entries listed twice,
    #: candidate- and node-major, plus the gain table, offsets and node
    #: starts).  Past it a world ensemble is the wrong estimator: the
    #: RR-set estimator (``kind="rrset"``) scales by sampling instead.
    EMPTY_TABLE_BYTE_LIMIT = 128 * 1024 * 1024

    _normalise = np.true_divide
    _STALE_HINT = (
        "apply mutations through WorldEnsemble.apply_delta (or rebuild the ensemble)"
    )

    def __init__(
        self,
        graph: DiGraph,
        assignment: GroupAssignment,
        n_worlds: int = 100,
        candidates: Optional[Sequence[NodeId]] = None,
        model: str = "ic",
        seed: RngLike = None,
    ) -> None:
        if n_worlds < 1:
            raise EstimationError(f"n_worlds must be >= 1, got {n_worlds}")
        super().__init__(graph, assignment, candidates)
        self.model = model
        self.n_worlds = n_worlds

        # Per-world RNG children, spawned exactly as ``sample_worlds``
        # spawns them.
        check_model(model)
        children = ensure_rng(seed).spawn(n_worlds)
        # Each IC world's sampling key, kept for the incremental-repair
        # layer.  The key is a pure function of a child's SeedSequence,
        # never of its draw position (see
        # ``repro.diffusion.worlds.ic_world_key``), so the generators
        # need not outlive the build.
        self._world_keys: Optional[List[int]] = None
        if model == "ic":
            self._world_keys = [ic_world_key(child) for child in children]
            self.worlds: List[LiveEdgeWorld] = sample_ic_worlds(graph, self._world_keys)
        else:
            self.worlds = [sample_lt_world(graph, seed=child) for child in children]
        # The worlds' kept-edge CSR bytes, counted once here and again
        # after every repair (``apply_delta``), for :attr:`nbytes`.
        self._world_bytes = sum(world.nbytes for world in self.worlds)
        # The store: every candidate's finite entries, the gain table
        # and the transpose (see ``_ReachIndex``), and the states and
        # queries over it.
        k = len(self.group_names)
        self._oracle = ReachOracle(
            make_backend(
                self.worlds,
                self._candidate_indices,
                self._group_index,
                k,
                self._max_reach_entries(),
            ),
            self._group_index,
            k,
        )
        # Streaming-delta bookkeeping: the fingerprints of applied
        # deltas (``_graph_version`` follows each repair).
        self._delta_lineage: List[str] = []

    # ------------------------------------------------------------------
    # streaming deltas: staleness + in-place repair
    # ------------------------------------------------------------------
    @property
    def graph_version(self) -> int:
        """The graph version the reach index currently matches."""
        return self._graph_version

    @property
    def delta_lineage(self) -> Tuple[str, ...]:
        """Fingerprints of every delta applied through :meth:`apply_delta`,
        in application order (empty for a pristine build)."""
        return tuple(self._delta_lineage)

    @property
    def world_keys(self) -> List[int]:
        """Each world's 64-bit sampling key (IC ensembles only).

        Derived at build time from the per-world RNG children.
        """
        if self._world_keys is None:
            raise EstimationError(
                f"world keys exist only for the keyed IC sampler, not "
                f"model {self.model!r}"
            )
        return self._world_keys

    def apply_delta(self, delta) -> "Any":
        """Apply a :class:`~repro.graph.delta.GraphDelta` to the graph
        and repair this ensemble in place.

        Re-flips only the touched edges' coins (one keyed draw per
        (world, edge) pair), swaps the worlds whose live-edge set
        changed, and re-lists only the index rows of candidates that
        reach a re-flipped edge — after which every query answers
        exactly as a fresh build on the mutated graph would, bit for
        bit.  Returns the :class:`~repro.influence.incremental.RepairReport`.
        """
        from repro.influence.incremental import repair_ensemble

        try:
            return repair_ensemble(self, delta)
        finally:
            self._world_bytes = sum(world.nbytes for world in self.worlds)

    def _repair_rows(self, nodes: np.ndarray) -> np.ndarray:
        """Patch the index after some worlds changed in place.

        ``nodes`` holds, sorted and distinct, the codes ``r * n + tail``
        of the tail nodes of the edges whose coins re-thresholded in
        world ``r`` (already swapped into :attr:`worlds`).  A BFS from a
        candidate that, in the *old* world, never reaches one of those
        tails never reads a changed edge, so its row is unchanged.  The
        rows that do reach one are the owners the transpose lists at
        those codes; they are re-run in one
        :func:`~repro.influence.backends.bfs_rows` call,
        and those whose entries differ are spliced into a new index
        (:meth:`_patched_reach`), swapped in with one assignment.
        Returns the sorted positions of the candidates whose entries
        changed.
        """
        reach, n, n_worlds = self._oracle.reach, self.n, self.n_worlds
        k = len(self.group_names)
        starts = reach.node_starts[nodes].astype(np.int64)
        stops = reach.node_starts[nodes + 1].astype(np.int64)
        owner = reach.node_code[concat_ranges(starts, stops)].astype(np.int64) // k
        row_key = np.unique(owner * n_worlds + np.repeat(nodes // n, stops - starts))
        del starts, stops, owner
        position, world = np.divmod(row_key, n_worlds)
        # Each row's old entries are one segment of the index, found by
        # its (candidate, world) key.
        entry_key = np.repeat(
            np.arange(self.n_candidates, dtype=np.int64) * n_worlds,
            np.diff(reach.offsets),
        ) + reach.flat // n
        lo = np.searchsorted(entry_key, row_key, side="left")
        hi = np.searchsorted(entry_key, row_key, side="right")
        del entry_key
        found = bfs_rows(
            self.worlds,
            world,
            self._candidate_indices[position],
            self._max_reach_entries() - (reach.flat.size - int((hi - lo).sum())),
        )
        if found is None:
            raise ConfigError(
                "the repaired reach index outgrows "
                "WorldEnsemble.EMPTY_TABLE_BYTE_LIMIT; rebuild with fewer "
                'worlds or candidates, or use kind="rrset"'
            )
        row, v_idx = np.divmod(found[0], n)
        time = found[1]
        flat = (world[row] * n + v_idx).astype(reach.flat.dtype)
        del v_idx
        counts = np.bincount(row, minlength=row_key.size)
        # A row changed unless its entries are the same, node for node
        # and hop for hop; rows of equal length are compared entry-wise.
        changed = counts != hi - lo
        same = np.flatnonzero(~changed)
        old_at = concat_ranges(lo[same], hi[same])
        new_at = np.flatnonzero(~changed[row])
        differs = (reach.flat[old_at] != flat[new_at]) | (
            reach.time[old_at] != time[new_at]
        )
        changed[np.unique(row[new_at[differs]])] = True
        keep = changed[row]
        if changed.any():
            patched = self._patched_reach(
                reach,
                lo[changed],
                hi[changed],
                position[changed],
                flat[keep],
                time[keep],
                counts[changed],
            )
            self._oracle = ReachOracle(patched, self._group_index, k)
        return np.unique(position[changed])

    def _note_repair(self, version: int, fingerprint: str) -> None:
        """Record a completed repair (called by the incremental layer):
        the graph version the index now matches and the delta's
        fingerprint."""
        self._graph_version = version
        self._delta_lineage.append(fingerprint)

    # ------------------------------------------------------------------
    # states, and the query hook
    # ------------------------------------------------------------------
    def _state_of(self, positions: List[int]) -> InfluenceState:
        """State of distinct seeds ``positions``: one scatter-minimum of
        their index entries (:meth:`ReachOracle.state_for`)."""
        return self._oracle.state_for(positions)

    def add_seed(self, state: InfluenceState, position: int) -> None:
        """Mutate ``state`` to include candidate ``position`` as a seed
        (:meth:`ReachOracle.add_seed`: O(entries of the seed), plus the
        retired marginal counts)."""
        self._check_fresh()
        self._oracle.add_seed(state, self.check_position(position, state.seed_positions))

    def _bind(
        self, state: InfluenceState, deadline: float, discount: Optional[float] = None
    ) -> Tuple[ReachOracle, InfluenceState, int, Optional[np.ndarray], int]:
        """The query hook (see :class:`UtilityEstimator`): the oracle,
        ``state`` itself, the deadline's cutoff, the discount's weights
        and ``R``."""
        self._check_fresh()
        cutoff = _clip_deadline(deadline)
        weights = None if discount is None else self._time_weights(cutoff, discount)
        return self._oracle, state, cutoff, weights, self.n_worlds

    # The layer tracer (``perfbench/tracing.py``) wraps these in each
    # class's own ``__dict__``.
    candidate_group_utilities = UtilityEstimator.candidate_group_utilities
    candidate_gains_batch = UtilityEstimator.candidate_gains_batch

    def _time_weights(self, cutoff: int, discount) -> Optional[np.ndarray]:
        """Utility weight of a node activated at each time ``t``, ``(256,)``
        float64, or ``None`` for the step model.

        The paper's step model gives weight 1 to every node activated
        by the deadline, and the oracle counts those nodes exactly.
        With ``discount=gamma`` (the time-discounting extension named in
        the paper's conclusions), a node activated at time ``t <=
        deadline`` is worth ``gamma**t`` instead — being informed
        earlier is worth more; ``gamma=1`` gives the step model's bits.
        Times past the cutoff, ``UNREACHABLE`` included, weigh 0.  The
        whole table is always powered, so each weight has the same bits
        whatever the cutoff.
        """
        if discount is None:
            return None
        if not 0.0 <= discount <= 1.0:
            raise EstimationError(f"discount must be in [0, 1], got {discount}")
        weights = np.power(float(discount), np.arange(256, dtype=np.float64))
        weights[cutoff + 1 :] = 0.0
        return weights

    # ------------------------------------------------------------------
    # the reach index's budget and repairs
    # ------------------------------------------------------------------
    def _max_reach_entries(self) -> int:
        """How many entries fit under :attr:`EMPTY_TABLE_BYTE_LIMIT`,
        next to a full 256-bin table, the offsets and the transpose's
        (at most 4-byte) node starts; each entry is listed twice
        (candidate- and node-major)."""
        k = len(self.group_names)
        fixed = (
            self.n_candidates * (k * 256 * table_dtype(self.n_worlds, self.n).itemsize + 8)
            + (self.n_worlds * self.n + 1) * 4
        )
        per_entry = (
            np.dtype(flat_index_dtype(self.n_worlds, self.n)).itemsize
            + 1
            + compact_uint(k).itemsize
            + compact_uint(self.n_candidates * k).itemsize
            + 1
        )
        return (self.EMPTY_TABLE_BYTE_LIMIT - fixed) // per_entry

    def _patched_reach(
        self,
        reach: _ReachIndex,
        lo: np.ndarray,
        hi: np.ndarray,
        position: np.ndarray,
        flat: np.ndarray,
        time: np.ndarray,
        counts: np.ndarray,
    ) -> _ReachIndex:
        """``reach`` with index segments ``[lo[i], hi[i])`` replaced.

        Entries are sorted by ``(candidate, world)``, so each changed
        row owns one contiguous segment (ascending ``lo``; candidate
        ``position[i]``): it is cut out and the row's ``counts[i]`` new
        entries ``(flat, time)`` are spliced in at the same place — the
        order a fresh build produces.  Offsets move by each candidate's
        count change, and only the changed candidates' gain-table rows
        are recounted (the others are re-cut to the new bin count, which
        is exact because their entries did not move).  The transpose is
        rebuilt from the patched entries, so the result equals a fresh
        build array for array.
        """
        n, k = self.n, len(self.group_names)
        time = splice(reach.time, lo, hi, time, counts)
        group = splice(reach.group, lo, hi, self._group_index[flat % n], counts)
        growth = np.zeros(self.n_candidates + 1, dtype=np.int64)
        np.add.at(growth, position + 1, counts - (hi - lo))
        offsets = reach.offsets + np.cumsum(growth)
        n_bins = int(time.max()) + 1 if time.size else 1
        table = reach.table[
            :, :, np.minimum(np.arange(n_bins), reach.table.shape[2] - 1)
        ]
        changed = np.unique(position)
        starts, stops = offsets[changed], offsets[changed + 1]
        at = concat_ranges(starts, stops)
        table[changed] = time_table(
            np.repeat(np.arange(changed.size), stops - starts),
            changed.size,
            group[at],
            time[at],
            k,
            n_bins,
        )
        flat = splice(reach.flat, lo, hi, flat, counts)
        return assemble_reach(offsets, flat, time, group, table, self.n_worlds * n, k)

    # ------------------------------------------------------------------
    def standard_errors(
        self,
        state: InfluenceState,
        deadline: float,
        discount: Optional[float] = None,
    ) -> np.ndarray:
        """Monte-Carlo standard error of each group-utility estimate.

        The per-world group totals are one ``bincount`` of the state's
        cells activated by the deadline, weighted by
        :meth:`_time_weights` (1 in the step model) — so it scores
        exactly what the utility queries score, ``discount=gamma``
        included — and their float64 sample deviation is divided by
        ``sqrt(R)``.
        """
        self._check_fresh()
        cutoff = _clip_deadline(deadline)
        weights = self._time_weights(cutoff, discount)
        best = state.best_time.reshape(-1)
        cells = np.flatnonzero(best <= cutoff)
        world, node = np.divmod(cells, self.n)
        k = len(self.group_names)
        per_world = np.bincount(
            world * k + self._group_index[node],
            weights=None if weights is None else weights[best[cells]],
            minlength=self.n_worlds * k,
        ).reshape(self.n_worlds, k)
        return per_world.std(axis=0, ddof=1) / math.sqrt(self.n_worlds)

    def memory_bytes(self) -> int:
        """Footprint of the store — the reach index and the in-time
        stops its solves have cached so far (:meth:`ReachOracle.stops`)
        — for reports."""
        return self._oracle.nbytes

    @property
    def nbytes(self) -> int:
        """Total resident bytes this ensemble pins: the store (entries,
        transpose, gain table and cached stops) plus the sampled worlds'
        kept-edge CSRs, counted at build and after each repair.
        """
        return int(self.memory_bytes() + self._world_bytes)

    def __repr__(self) -> str:
        return (
            f"WorldEnsemble(n={self.n}, worlds={self.n_worlds}, "
            f"candidates={self.n_candidates}, model={self.model!r}, "
            f"groups={self.group_names!r})"
        )
