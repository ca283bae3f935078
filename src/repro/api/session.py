"""The :class:`Session` façade: specs in, results out, worlds shared.

A session owns two things a service surface needs and scattered
kwargs could not provide:

1. **An ensemble cache.**  Building a :class:`WorldEnsemble` (world
   sampling + reach index) dwarfs most solves; the session keys
   built estimators by :meth:`EnsembleSpec.fingerprint`, so N solves
   over one graph — a budget sweep, a deadline sweep, P1-vs-P4 on common random
   numbers — share worlds.  Sharing worlds is also what makes the
   comparisons *fair*: every solve sees the same randomness.
2. **A stable result shape.**  :class:`RunResult` carries the
   solution, trace, per-group utilities, disparity, timings and the
   resolved spec — everything a caller (or the JSON CLI) needs,
   without reaching into solver internals.

Solves keep their state to themselves and the cache is lock-protected,
so concurrent ``solve`` calls on one shared session are safe and
bit-identical to serial runs.
"""

from __future__ import annotations

import json
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from repro.api.datasets import build_dataset
from repro.api.specs import EnsembleSpec, ExecutionSpec, RunSpec
from repro.core.budget import solve_budget_spec
from repro.core.cover import solve_cover_spec
from repro.core.greedy import SelectionTrace
from repro.errors import ConfigError, EstimationError
from repro.graph.delta import GraphDelta
from repro.influence.ensemble import WorldEnsemble
from repro.influence.rrsets import build_rrset_estimator

#: The execution section every result echoes: queries run serially and
#: builds in-process, whatever ``workers``/``build_workers`` a spec or
#: session asked for.
_EXECUTION_ECHO = ExecutionSpec(workers=1, build_workers=1)

#: Ensembles a session keeps alive at once (LRU beyond this).  Small on
#: purpose: each entry can hold a large reach index or RR pool.
DEFAULT_MAX_CACHED_ENSEMBLES = 4


def check_cache_bytes(cache_bytes, allow_none: bool = False):
    """Validate a byte bound for the session's ensemble cache.

    ``None`` (only with ``allow_none``) means unbounded-by-bytes — the
    entry-count LRU still applies.  The canonical checker every surface
    shares: :class:`Session`, the service config, and the CLI's
    ``--cache-bytes`` flag all accept exactly this rule.
    """
    if cache_bytes is None:
        if allow_none:
            return None
        raise ConfigError("cache_bytes must be a positive int, got None")
    if isinstance(cache_bytes, bool) or not isinstance(cache_bytes, int):
        raise ConfigError(
            f"cache_bytes must be a positive int, got {cache_bytes!r}"
        )
    if cache_bytes < 1:
        raise ConfigError(f"cache_bytes must be >= 1, got {cache_bytes}")
    return cache_bytes


def _jsonify_label(label: Any) -> Any:
    """Node labels as JSON scalars (graphs use str/int labels; numpy
    integers sneak in from index round-trips)."""
    if isinstance(label, (str, bool)):
        return label
    if isinstance(label, (int, np.integer)):
        return int(label)
    return str(label)


@dataclass(frozen=True)
class RunResult:
    """Everything one solve produced, in a stable, mostly-plain shape.

    ``spec`` is the *resolved* request: every execution field concrete
    (``workers`` and ``build_workers`` echo ``1``: queries and builds
    run in-process), so the result alone documents how it was made.
    ``evaluations`` counts the candidate rows the solver scored (one
    per candidate per batched call, one per scalar query).
    ``trace`` and ``solution`` carry the full solver objects for
    callers that want them; :meth:`to_dict` is the JSON-safe summary
    (what ``repro solve --json`` prints).
    """

    spec: RunSpec
    problem: str
    seeds: Tuple[Any, ...]
    group_names: Tuple[Hashable, ...]
    group_sizes: Tuple[int, ...]
    group_utilities: Tuple[float, ...]
    group_fractions: Tuple[float, ...]
    total_fraction: float
    disparity: float
    objective: float
    stopped_reason: str
    evaluations: int
    ensemble_cached: bool
    build_seconds: float
    solve_seconds: float
    trace: SelectionTrace = field(repr=False)
    solution: Any = field(repr=False)
    #: Set on :meth:`Session.resolve` with a delta: worlds whose
    #: live-edge draws changed under the mutation (``None`` on plain
    #: solves; 0 is a real answer — the delta touched no coins).
    repaired_worlds: Optional[int] = None
    #: Edge coins re-thresholded during the repair
    #: (touched edges × worlds); ``None`` on plain solves.
    resampled_edges: Optional[int] = None
    #: Fingerprints of every delta folded into the ensemble this result
    #: was estimated on, oldest first — the audit trail that says which
    #: graph the numbers describe.
    delta_lineage: Tuple[str, ...] = ()

    @property
    def seed_count(self) -> int:
        return len(self.seeds)

    @property
    def deadline(self) -> float:
        return self.spec.solver.deadline

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe summary (trace and solution objects excluded)."""
        payload = {
            "problem": self.problem,
            "seeds": [_jsonify_label(s) for s in self.seeds],
            "seed_count": self.seed_count,
            "groups": [str(g) for g in self.group_names],
            "group_sizes": list(self.group_sizes),
            "group_utilities": list(self.group_utilities),
            "group_fractions": list(self.group_fractions),
            "total_fraction": self.total_fraction,
            "disparity": self.disparity,
            "objective": self.objective,
            "stopped_reason": self.stopped_reason,
            "evaluations": self.evaluations,
            "timings": {
                "build_seconds": self.build_seconds,
                "solve_seconds": self.solve_seconds,
                "ensemble_cached": self.ensemble_cached,
            },
            "spec": self.spec.to_dict(),
        }
        if self.delta_lineage or self.repaired_worlds is not None:
            # Only when there is something incremental to report, so
            # plain-solve payloads are byte-stable across versions.
            payload["incremental"] = {
                "repaired_worlds": self.repaired_worlds,
                "resampled_edges": self.resampled_edges,
                "delta_lineage": list(self.delta_lineage),
            }
        return payload

    def as_text(self) -> str:
        """Human-readable summary (what ``repro solve`` prints)."""
        estimator = (
            f"{self.spec.ensemble.n_worlds} worlds"
            if self.spec.ensemble.kind == "worlds"
            else f"{self.spec.ensemble.kind} estimator"
        )
        lines = [
            f"{self.problem} on {self.spec.ensemble.dataset!r} [{estimator}]",
            f"  seeds ({self.seed_count}): "
            f"{[_jsonify_label(s) for s in self.seeds]}",
            f"  total fraction {self.total_fraction:.4f}   "
            f"disparity {self.disparity:.4f}   "
            f"objective {self.objective:.4f}",
        ]
        for name, size, fraction in zip(
            self.group_names, self.group_sizes, self.group_fractions
        ):
            lines.append(f"    group {name!s:<12} |V_i|={size:<6} f/|V_i|={fraction:.4f}")
        cached = " (ensemble cached)" if self.ensemble_cached else ""
        lines.append(
            f"  build {self.build_seconds:.2f}s{cached}   "
            f"solve {self.solve_seconds:.2f}s   "
            f"evaluations {self.evaluations}   "
            f"stop: {self.stopped_reason}"
        )
        if self.repaired_worlds is not None:
            lines.append(
                f"  delta: repaired {self.repaired_worlds} worlds, "
                f"resampled {self.resampled_edges} edge coins, "
                f"lineage depth {len(self.delta_lineage)}"
            )
        elif self.delta_lineage:
            lines.append(
                f"  delta lineage depth {len(self.delta_lineage)} "
                f"(ensemble repaired by earlier resolves)"
            )
        return "\n".join(lines)


class Session:
    """Ensemble cache + ``solve``/``resolve``/``solve_many``.

    Thread-safe: the cache is lock-protected, concurrent misses of one
    spec share one build, and a solve keeps its state to itself.  One
    session per service process (or per tenant/configuration) is the
    intended shape, and the sweep runner
    (:func:`repro.sweep.run_sweep`) funnels a whole scenario grid
    through one session so cells sharing an ensemble fingerprint share
    one world build.
    """

    def __init__(
        self,
        execution: Optional[ExecutionSpec] = None,
        max_cached_ensembles: int = DEFAULT_MAX_CACHED_ENSEMBLES,
        cache_bytes: Optional[int] = None,
    ) -> None:
        if execution is None:
            execution = ExecutionSpec()
        if not isinstance(execution, ExecutionSpec):
            raise ConfigError(
                f"execution must be an ExecutionSpec, got "
                f"{type(execution).__name__}"
            )
        if max_cached_ensembles < 1:
            raise ConfigError(
                f"max_cached_ensembles must be >= 1, got {max_cached_ensembles}"
            )
        self.execution = execution
        self.max_cached_ensembles = int(max_cached_ensembles)
        #: Byte bound on the ensemble cache (``None`` = entry-count LRU
        #: only).  Enforced on insertion: oldest entries are evicted,
        #: exactly as entry-count eviction, until the cache fits.  The
        #: newest entry always stays (a single over-budget ensemble is served,
        #: not thrashed); live byte usage is in :attr:`cache_info`.
        self.cache_bytes = check_cache_bytes(cache_bytes, allow_none=True)
        self._lock = threading.RLock()
        self._ensembles: "OrderedDict[str, Any]" = OrderedDict()
        # key -> set when that key's one in-progress build ends.
        self._building: Dict[str, threading.Event] = {}
        # (dataset, params, seed) -> the frozen graph every estimator
        # built from that dataset shares, and each such graph's group
        # assignment; entries live exactly as long as some estimator
        # holds the graph (see ``_dataset``).
        self._graphs: "weakref.WeakValueDictionary[Tuple, Any]" = (
            weakref.WeakValueDictionary()
        )
        self._assignments: "weakref.WeakKeyDictionary[Any, Any]" = (
            weakref.WeakKeyDictionary()
        )
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_builds = 0
        self.cache_evictions = 0

    # ------------------------------------------------------------------
    # ensemble cache
    # ------------------------------------------------------------------
    def _cache_get(self, key: str):
        with self._lock:
            entry = self._ensembles.get(key)
            if entry is not None:
                self._ensembles.move_to_end(key)
                self.cache_hits += 1
            else:
                self.cache_misses += 1
            return entry

    def _cache_put(self, key: str, estimator: Any) -> None:
        """Insert a fresh build and evict down to both bounds."""
        with self._lock:
            self._ensembles[key] = estimator
            while len(self._ensembles) > self.max_cached_ensembles:
                self._evict_oldest()
            if self.cache_bytes is not None:
                # Recompute live: RR pools grow after insertion, so
                # stored-at-put sizes would under-count.
                while (
                    len(self._ensembles) > 1
                    and self._cache_nbytes() > self.cache_bytes
                ):
                    self._evict_oldest()

    def _cache_nbytes(self) -> int:
        """Live resident bytes of every cached entry (caller holds the
        lock; entries are few by construction, so summing is cheap)."""
        return sum(e.nbytes for e in self._ensembles.values())

    def _evict_oldest(self) -> None:
        """Drop the LRU entry (caller holds the lock)."""
        self._ensembles.popitem(last=False)
        self.cache_evictions += 1

    def clear_cache(self) -> None:
        """Drop every cached ensemble (counters are kept)."""
        with self._lock:
            self._ensembles.clear()

    @property
    def cache_info(self) -> Dict[str, Any]:
        """Cache counters plus live byte accounting.

        ``bytes`` is recomputed from the cached estimators' ``nbytes``
        on every read (RR pools grow between solves), so it is what
        the resident set actually holds, not a stale put-time snapshot.
        """
        with self._lock:
            return {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "builds": self.cache_builds,
                "evictions": self.cache_evictions,
                "entries": len(self._ensembles),
                "bytes": self._cache_nbytes(),
                "cache_bytes": self.cache_bytes,
            }

    def ensemble_for(self, spec: EnsembleSpec):
        """The (possibly cached) estimator for an :class:`EnsembleSpec`,
        keyed by the spec fingerprint."""
        estimator, _ = self._ensemble_for(spec)
        return estimator

    def _ensemble_for(self, spec: EnsembleSpec) -> Tuple[Any, bool]:
        """The estimator and whether it was already cached.

        Builds are single-flight per key: the first caller to miss
        registers an in-progress event and builds outside the lock,
        and concurrent callers of the same spec wait on that event and
        then take the cached entry.  Every call counts exactly one hit
        or one miss.  If the build raises, its waiters look again and
        one of them builds in turn.
        """
        if not isinstance(spec, EnsembleSpec):
            raise ConfigError(
                f"expected an EnsembleSpec, got {type(spec).__name__}"
            )
        key = spec.fingerprint()
        while True:
            with self._lock:
                building = self._building.get(key)
                if building is None:
                    cached = self._cache_get(key)
                    if cached is not None:
                        return cached, True
                    building = self._building[key] = threading.Event()
                    break
            building.wait()
        try:
            estimator = self._build(spec)
            with self._lock:
                self.cache_builds += 1
                self._cache_put(key, estimator)
        finally:
            with self._lock:
                del self._building[key]
            building.set()
        return estimator, False

    def _build(self, spec: EnsembleSpec) -> Any:
        graph, assignment = self._dataset(spec)
        if spec.kind == "rrset":
            return build_rrset_estimator(spec, graph, assignment)
        return WorldEnsemble(
            graph,
            assignment,
            n_worlds=spec.n_worlds,
            candidates=spec.candidates,
            model=spec.model,
            seed=spec.world_seed,
        )

    def _dataset(self, spec: EnsembleSpec) -> Tuple[Any, Any]:
        """The spec's ``(graph, assignment)``, shared by every estimator
        built from the same ``(dataset, dataset_params, dataset_seed)``.

        A dataset is a pure function of those three, so estimators that
        differ only in worlds, seeds or kind share one graph —
        on small ensembles the graph is a quarter of the footprint.
        The shared graph is frozen: no holder can mutate it under the
        others, and a delta repair gives its ensemble a private copy
        first.
        """
        key = (
            spec.dataset,
            json.dumps(spec.dataset_params, sort_keys=True),
            spec.dataset_seed,
        )
        with self._lock:
            graph = self._graphs.get(key)
            if graph is not None:
                return graph, self._assignments[graph]
        graph, assignment = build_dataset(
            spec.dataset, spec.dataset_params, spec.dataset_seed
        )
        graph.freeze()
        with self._lock:
            graph = self._graphs.setdefault(key, graph)
            return graph, self._assignments.setdefault(graph, assignment)

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    @staticmethod
    def _check_spec(spec) -> RunSpec:
        if isinstance(spec, dict):
            spec = RunSpec.from_dict(spec)
        if not isinstance(spec, RunSpec):
            raise ConfigError(f"expected a RunSpec, got {type(spec).__name__}")
        return spec

    def solve(self, spec: RunSpec) -> RunResult:
        """Run one declarative request end to end.

        Accepts a :class:`RunSpec` (or a plain dict/JSON-shaped
        mapping, for service handlers).  Bit-identical to the
        equivalent legacy kwarg calls on the same ensemble — the spec
        layer adds no randomness and no arithmetic.
        """
        spec = self._check_spec(spec)
        started = time.perf_counter()
        estimator, was_cached = self._ensemble_for(spec.ensemble)
        build_seconds = time.perf_counter() - started
        return self._execute(spec, estimator, was_cached, build_seconds)

    def resolve(
        self, spec: RunSpec, delta: Optional[GraphDelta] = None
    ) -> RunResult:
        """``solve``, after folding an edge delta into the ensemble.

        With ``delta=None`` this is exactly :meth:`solve`.  With a
        :class:`~repro.graph.delta.GraphDelta` (or its dict form), the
        spec's fingerprint-keyed cached ensemble is repaired *in place*
        — the delta's edges re-flipped with the same keyed coins a
        from-scratch rebuild would use, distances recomputed only in
        changed worlds — and the same cold solve :meth:`solve` runs
        then runs on the repaired worlds.  Results are bit-identical to
        rebuilding the mutated graph cold; only the latency differs.
        The result echoes ``repaired_worlds`` / ``resampled_edges`` and
        the full ``delta_lineage``.
        """
        spec = self._check_spec(spec)
        if delta is None:
            return self.solve(spec)
        if isinstance(delta, dict):
            delta = GraphDelta.from_dict(delta)
        if not isinstance(delta, GraphDelta):
            raise ConfigError(
                f"delta must be a GraphDelta, got {type(delta).__name__}"
            )
        started = time.perf_counter()
        estimator, was_cached = self._ensemble_for(spec.ensemble)
        apply = getattr(estimator, "apply_delta", None)
        if apply is None:
            raise EstimationError(
                f"ensemble kind {spec.ensemble.kind!r} cannot be repaired in "
                "place — edge deltas require the live-edge world ensemble "
                "(kind='worlds'); build a fresh estimator for the mutated "
                "graph instead"
            )
        report = apply(delta)
        build_seconds = time.perf_counter() - started

        return self._execute(
            spec, estimator, was_cached, build_seconds, repair_report=report
        )

    def _execute(
        self,
        spec: RunSpec,
        estimator: Any,
        was_cached: bool,
        build_seconds: float,
        repair_report: Any = None,
    ) -> RunResult:
        started = time.perf_counter()
        solve_spec = (
            solve_budget_spec
            if spec.solver.problem == "budget"
            else solve_cover_spec
        )
        solution = solve_spec(estimator, spec.solver)
        solve_seconds = time.perf_counter() - started

        solver_echo = spec.solver
        if (
            spec.solver.problem == "budget"
            and spec.solver.fair
            and spec.solver.concave is None
        ):
            # Resolve the defaulted wrapper so the audit record names
            # the objective that actually ran.
            solver_echo = replace(spec.solver, concave="log")
        echo = replace(spec, solver=solver_echo, execution=_EXECUTION_ECHO)
        report = solution.report
        fractions = report.fraction_influenced
        return RunResult(
            spec=echo,
            problem=solution.problem,
            seeds=tuple(solution.seeds),
            group_names=tuple(report.groups),
            group_sizes=tuple(int(s) for s in report.group_sizes),
            group_utilities=tuple(float(u) for u in report.utilities),
            group_fractions=tuple(float(f) for f in fractions),
            total_fraction=float(report.population_fraction),
            disparity=float(report.disparity),
            objective=float(solution.trace.final_objective),
            stopped_reason=solution.trace.stopped_reason,
            evaluations=int(solution.trace.total_evaluations),
            ensemble_cached=was_cached,
            build_seconds=build_seconds,
            solve_seconds=solve_seconds,
            trace=solution.trace,
            solution=solution,
            repaired_worlds=(
                None if repair_report is None else int(repair_report.repaired_worlds)
            ),
            resampled_edges=(
                None if repair_report is None else int(repair_report.resampled_edges)
            ),
            # Echoed even on plain solves of a previously-repaired
            # cached ensemble: the lineage names the graph the numbers
            # are about, not just this call's delta.
            delta_lineage=tuple(getattr(estimator, "delta_lineage", ()) or ()),
        )

    def solve_many(self, specs: Iterable[RunSpec]) -> List[RunResult]:
        """Solve several requests, sharing the ensemble cache.

        Specs naming the same :class:`EnsembleSpec` (by fingerprint)
        build worlds once — the batch-service shape: one graph, many
        budgets/deadlines/objectives on common random numbers.
        """
        return [self.solve(spec) for spec in specs]
