"""The :class:`Session` façade: specs in, results out, worlds shared.

A session owns three things a service surface needs and scattered
kwargs could not provide:

1. **An explicit config chain.**  Every execution knob resolves as
   ``spec.execution > session execution > process defaults
   (repro.config.execution_defaults) > library default`` — no hidden
   mutable state, and the fully-resolved values are echoed back on the
   result for audit.
2. **An ensemble cache.**  Building a :class:`WorldEnsemble` (world
   sampling + distance store) dwarfs most solves; the session keys
   built estimators by :meth:`EnsembleSpec.fingerprint` (plus the
   resolved backend, which changes the store), so N solves over one
   graph — a budget sweep, a deadline sweep, P1-vs-P4 on common random
   numbers — share worlds.  Sharing worlds is also what makes the
   comparisons *fair*: every solve sees the same randomness.
3. **A stable result shape.**  :class:`RunResult` carries the
   solution, trace, per-group utilities, disparity, timings and the
   resolved spec — everything a caller (or the JSON CLI) needs,
   without reaching into solver internals.

Execution knobs are pinned per solve (the estimators' thread-local
pin stack), so concurrent ``solve`` calls on one shared session are
safe and bit-identical to serial runs.
"""

from __future__ import annotations

import json
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.datasets import build_dataset
from repro.api.specs import EnsembleSpec, ExecutionSpec, RunSpec
from repro.config import execution_defaults
from repro.core.budget import solve_budget_spec
from repro.core.cover import solve_cover_spec
from repro.core.greedy import DEFAULT_BLOCK_SIZE, SelectionTrace, WarmStart
from repro.errors import ConfigError, EstimationError
from repro.graph.delta import GraphDelta
from repro.influence.ensemble import WorldEnsemble
from repro.influence.factory import make_estimator
from repro.influence.procbuild import (
    LIBRARY_DEFAULT_BUILD_WORKERS,
    resolve_build_workers,
)

#: Ensembles a session keeps alive at once (LRU beyond this).  Small on
#: purpose: each entry can hold a multi-hundred-MiB distance store.
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


def _estimator_nbytes(estimator: Any) -> int:
    """Resident bytes of a cached estimator (0 when unaccountable).

    Estimators expose ``nbytes`` (:attr:`WorldEnsemble.nbytes`,
    ``RRSetEstimator.nbytes``); anything registered without it falls
    back to ``memory_bytes`` and then to 0 — unaccounted entries are
    still evictable by the entry-count LRU.
    """
    nbytes = getattr(estimator, "nbytes", None)
    if nbytes is None:
        probe = getattr(estimator, "memory_bytes", None)
        nbytes = probe() if callable(probe) else 0
    return int(nbytes)


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
    (the actual backend after ``"auto"``, the actual worker count, the
    actual block size), so the result alone documents how it was made.
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
    #: Whether the CELF heap was seeded from a prior trace (perf-only:
    #: seeds and gains are bit-identical either way).
    warm_started: bool = False
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
                "warm_started": self.warm_started,
                "delta_lineage": list(self.delta_lineage),
            }
        return payload

    def as_text(self) -> str:
        """Human-readable summary (what ``repro solve`` prints)."""
        execution = self.spec.execution
        estimator = (
            f"{self.spec.ensemble.n_worlds} worlds"
            if self.spec.ensemble.kind == "worlds"
            else f"{self.spec.ensemble.kind} estimator"
        )
        lines = [
            f"{self.problem} on {self.spec.ensemble.dataset!r} "
            f"[{execution.backend} backend, "
            f"{estimator}, "
            f"block_size={execution.block_size}, "
            f"build_workers={execution.build_workers}]",
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
            f"evaluations {self.evaluations}   stop: {self.stopped_reason}"
        )
        if self.repaired_worlds is not None:
            warm = " (warm-started)" if self.warm_started else ""
            lines.append(
                f"  delta: repaired {self.repaired_worlds} worlds, "
                f"resampled {self.resampled_edges} edge coins, "
                f"lineage depth {len(self.delta_lineage)}{warm}"
            )
        elif self.delta_lineage:
            lines.append(
                f"  delta lineage depth {len(self.delta_lineage)} "
                f"(ensemble repaired by earlier resolves)"
            )
        return "\n".join(lines)


class Session:
    """Config resolution + ensemble cache + ``solve``/``solve_many``.

    Thread-safe: the cache is lock-protected and execution knobs are
    pinned per solve rather than written anywhere shared.  One session
    per service process (or per tenant/configuration) is the intended
    shape; :func:`default_session` provides the process-default one the
    experiment helpers build through, and the sweep runner
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
        #: only).  Enforced on insertion: oldest entries are evicted —
        #: shared-memory segments unlinked, warm traces pruned, exactly
        #: as entry-count eviction — until the cache fits.  The newest
        #: entry always stays (a single over-budget ensemble is served,
        #: not thrashed); live byte usage is in :attr:`cache_info`.
        self.cache_bytes = check_cache_bytes(cache_bytes, allow_none=True)
        self._lock = threading.RLock()
        self._ensembles: "OrderedDict[Tuple, Any]" = OrderedDict()
        # (cache key, solver fingerprint) -> (first-round gains, repair
        # epoch, weakref to the estimator they were recorded on).  Warm
        # starts for `resolve`: the gains seed the CELF heap, the epoch
        # says which repairs are already folded in, and the weakref
        # guards against an evicted-and-rebuilt ensemble under the same
        # key (different worlds would make the bounds meaningless).
        self._warm_traces: Dict[Tuple, Tuple[np.ndarray, int, Any]] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_builds = 0
        self.cache_evictions = 0

    # ------------------------------------------------------------------
    # config chain
    # ------------------------------------------------------------------
    def resolve_execution(
        self, execution: Optional[ExecutionSpec] = None
    ) -> ExecutionSpec:
        """Collapse the chain to concrete values.

        ``spec > session > process defaults > library default`` per
        field; the result has no ``None`` left.  ``workers`` is accepted
        for input compatibility only and always resolves to ``1``:
        queries run serially.
        """
        spec = execution or ExecutionSpec()

        def chain(name: str, library_default):
            for value in (
                getattr(spec, name),
                getattr(self.execution, name),
                execution_defaults.get(name),
            ):
                if value is not None:
                    return value
            return library_default

        return ExecutionSpec(
            backend=chain("backend", "auto"),
            workers=1,
            block_size=chain("block_size", DEFAULT_BLOCK_SIZE),
            build_workers=chain("build_workers", LIBRARY_DEFAULT_BUILD_WORKERS),
        )

    # ------------------------------------------------------------------
    # ensemble cache
    # ------------------------------------------------------------------
    def _cache_get(self, key: Tuple):
        with self._lock:
            entry = self._ensembles.get(key)
            if entry is not None:
                self._ensembles.move_to_end(key)
                self.cache_hits += 1
            else:
                self.cache_misses += 1
            return entry

    @staticmethod
    def _release(estimator: Any) -> None:
        """Unlink an evicted entry's shared-memory segments (if any).

        ``unlink_shared`` drops the *names* only — live references keep
        their mappings until they are collected, so an in-flight solve
        on the evicted ensemble is unaffected.
        """
        unlink = getattr(estimator, "unlink_shared", None)
        if unlink is not None:
            unlink()

    def _cache_put(self, key: Tuple, estimator: Any) -> Any:
        with self._lock:
            existing = self._ensembles.get(key)
            if existing is not None:
                # A concurrent builder won the race; share its worlds
                # (the whole point of the cache) and drop ours.
                self._ensembles.move_to_end(key)
                if estimator is not existing:
                    self._release(estimator)
                return existing
            self._ensembles[key] = estimator
            while len(self._ensembles) > self.max_cached_ensembles:
                self._evict_oldest()
            if self.cache_bytes is not None:
                # Recompute live: lazy stores and RR pools grow after
                # insertion, so stored-at-put sizes would under-count.
                while (
                    len(self._ensembles) > 1
                    and self._cache_nbytes() > self.cache_bytes
                ):
                    self._evict_oldest()
            return estimator

    def _cache_nbytes(self) -> int:
        """Live resident bytes of every cached entry (caller holds the
        lock; entries are few by construction, so summing is cheap)."""
        return sum(_estimator_nbytes(e) for e in self._ensembles.values())

    def _evict_oldest(self) -> None:
        """Drop the LRU entry: unlink its shm segments, prune its warm
        traces (caller holds the lock)."""
        evicted_key, evicted = self._ensembles.popitem(last=False)
        self._release(evicted)
        self._prune_warm_traces(evicted_key)
        self.cache_evictions += 1

    def _prune_warm_traces(self, cache_key: Tuple) -> None:
        """Drop warm traces recorded against an evicted cache entry
        (caller holds the lock)."""
        for trace_key in [k for k in self._warm_traces if k[0] == cache_key]:
            del self._warm_traces[trace_key]

    def clear_cache(self) -> None:
        """Drop every cached ensemble (counters are kept).

        Shared-memory segments backing process-built ensembles are
        unlinked as their entries drop, same as LRU eviction.
        """
        with self._lock:
            for estimator in self._ensembles.values():
                self._release(estimator)
            self._ensembles.clear()
            self._warm_traces.clear()

    @property
    def cache_info(self) -> Dict[str, Any]:
        """Cache counters plus live byte accounting.

        ``bytes`` is recomputed from the cached estimators' ``nbytes``
        on every read (lazy stores grow between solves), so it is what
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

    def ensemble_for(
        self,
        spec: EnsembleSpec,
        execution: Optional[ExecutionSpec] = None,
    ):
        """The (possibly cached) estimator for an :class:`EnsembleSpec`.

        Keyed by the spec fingerprint plus the resolved backend name
        (the backend changes the distance store, never the estimates;
        caching per backend keeps memory accounting honest).  Workers
        are *not* part of the key — they never change results — and are
        pinned per solve instead.
        """
        estimator, _, _ = self._ensemble_for(spec, self.resolve_execution(execution))
        return estimator

    def _ensemble_for(
        self, spec: EnsembleSpec, resolved: ExecutionSpec
    ) -> Tuple[Any, bool, Tuple]:
        if not isinstance(spec, EnsembleSpec):
            raise ConfigError(
                f"expected an EnsembleSpec, got {type(spec).__name__}"
            )
        key = ("spec", spec.fingerprint(), resolved.backend)
        cached = self._cache_get(key)
        if cached is not None:
            return cached, True, key
        graph, assignment = build_dataset(
            spec.dataset, spec.dataset_params, spec.dataset_seed
        )
        estimator = make_estimator(
            spec,
            graph,
            assignment,
            backend=resolved.backend,
            build_workers=resolved.build_workers,
        )
        with self._lock:
            self.cache_builds += 1
        return self._cache_put(key, estimator), False, key

    def build_ensemble(
        self,
        graph,
        assignment,
        n_worlds: int,
        seed,
        candidates: Optional[Sequence[Any]] = None,
        model: str = "ic",
        backend: Optional[str] = None,
        build_workers=None,
    ) -> WorldEnsemble:
        """Ensemble construction for callers holding a *graph object*
        (the experiment layer), through the same cache and chain.

        Graph objects have no content fingerprint, so the cache keys on
        object identity plus parameters — safe because every cached
        entry keeps its graph alive (an ``id`` can only be reused after
        the object is collected, which the cache itself prevents).
        Non-integer seeds (generators, ``None``) are inherently
        unreplayable, so those builds bypass the cache.  The requested
        ``build_workers`` setting is part of the key, so each setting
        gets its own entry — experiments pass a constant setting, so
        sharing is unaffected in practice.
        """
        resolved_backend = backend
        if resolved_backend is None:
            resolved_backend = self.execution.backend
        if resolved_backend is None:
            resolved_backend = execution_defaults.get("backend", "auto")
        # Like backend, build_workers is a build-time knob, so it chains
        # through the session here.
        if build_workers is None:
            build_workers = self.execution.build_workers

        cacheable = isinstance(seed, int) and not isinstance(seed, bool)
        key = None
        if cacheable:
            key = (
                "graph",
                id(graph),
                id(assignment),
                int(n_worlds),
                int(seed),
                model,
                None if candidates is None else tuple(candidates),
                resolved_backend,
                build_workers,
            )
            cached = self._cache_get(key)
            if cached is not None:
                return cached
        ensemble = WorldEnsemble(
            graph,
            assignment,
            n_worlds=n_worlds,
            candidates=candidates,
            model=model,
            seed=seed,
            backend=resolved_backend,
            build_workers=build_workers,
        )
        with self._lock:
            self.cache_builds += 1
        if key is not None:
            ensemble = self._cache_put(key, ensemble)
        return ensemble

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

    @staticmethod
    def _solver_fingerprint(spec: RunSpec) -> str:
        """What a recorded trace may warm: the exact solver request.

        Execution knobs are excluded on purpose — block size and worker
        count never change gains, so a trace recorded under one setting
        warms a re-solve under another.
        """
        return json.dumps(spec.solver.to_dict(), sort_keys=True)

    def _record_warm_trace(self, key, spec, estimator, trace) -> None:
        """Remember this solve's first-round gains for later re-solves.

        Recorded per (ensemble cache key, solver fingerprint) with the
        repair epoch (how many deltas were folded in when the gains
        were true) and a weakref to the estimator itself, so a trace
        can never warm a rebuilt ensemble that merely reuses the key.
        """
        gains = getattr(trace, "first_round_gains", None)
        if gains is None or not hasattr(estimator, "repair_log"):
            return  # plain-greedy trace, or a non-repairable estimator
        with self._lock:
            self._warm_traces[(key, self._solver_fingerprint(spec))] = (
                np.array(gains, dtype=np.float64, copy=True),
                len(estimator.repair_log),
                weakref.ref(estimator),
            )

    def _warm_start_for(self, key, spec, estimator) -> Optional[WarmStart]:
        """The :class:`WarmStart` a recorded trace justifies, or None.

        The refresh set is the union of the affected-candidate sets of
        every repair since the trace was recorded; a repair that could
        not report its footprint (lazy backend) forces a full refresh,
        which is still warm in bookkeeping but evaluates like cold.
        """
        if spec.solver.method != "celf":
            return None
        with self._lock:
            entry = self._warm_traces.get((key, self._solver_fingerprint(spec)))
        if entry is None:
            return None
        gains, epoch, ref = entry
        if ref() is not estimator:
            return None  # evicted and rebuilt under the same key
        log = estimator.repair_log
        if epoch > len(log):
            return None  # recorded on a future the estimator no longer has
        tail = log[epoch:]
        if any(affected is None for affected in tail):
            refresh = None  # unknown footprint: refresh everything
        elif tail:
            refresh = np.unique(np.concatenate(tail))
        else:
            refresh = np.empty(0, dtype=np.int64)
        return WarmStart(gains=gains, refresh=refresh)

    def solve(self, spec: RunSpec) -> RunResult:
        """Run one declarative request end to end.

        Accepts a :class:`RunSpec` (or a plain dict/JSON-shaped
        mapping, for service handlers).  Bit-identical to the
        equivalent legacy kwarg calls on the same ensemble — the spec
        layer adds no randomness and no arithmetic.
        """
        spec = self._check_spec(spec)
        resolved = self.resolve_execution(spec.execution)

        started = time.perf_counter()
        estimator, was_cached, key = self._ensemble_for(spec.ensemble, resolved)
        build_seconds = time.perf_counter() - started
        return self._execute(
            spec, resolved, key, estimator, was_cached, build_seconds
        )

    def resolve(
        self, spec: RunSpec, delta: Optional[GraphDelta] = None
    ) -> RunResult:
        """``solve``, after folding an edge delta into the ensemble.

        With ``delta=None`` this is exactly :meth:`solve`.  With a
        :class:`~repro.graph.delta.GraphDelta` (or its dict form), the
        spec's fingerprint-keyed cached ensemble is repaired *in place*
        — the delta's edges re-flipped with the same keyed coins a
        from-scratch rebuild would use, distances recomputed only in
        changed worlds — and the solve runs on the repaired worlds,
        warm-starting CELF from the last recorded trace for this
        (ensemble, solver) pair when one exists.  Results are
        bit-identical to rebuilding the mutated graph cold; only the
        latency (and the ``evaluations`` counter, under a warm start)
        differs.  The result echoes ``repaired_worlds`` /
        ``resampled_edges`` and the full ``delta_lineage``.
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
        resolved = self.resolve_execution(spec.execution)

        started = time.perf_counter()
        estimator, was_cached, key = self._ensemble_for(spec.ensemble, resolved)
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

        warm_start = self._warm_start_for(key, spec, estimator)
        return self._execute(
            spec,
            resolved,
            key,
            estimator,
            was_cached,
            build_seconds,
            warm_start=warm_start,
            repair_report=report,
        )

    def _execute(
        self,
        spec: RunSpec,
        resolved: ExecutionSpec,
        key: Tuple,
        estimator: Any,
        was_cached: bool,
        build_seconds: float,
        warm_start: Optional[WarmStart] = None,
        repair_report: Any = None,
    ) -> RunResult:
        solver_kwargs: Dict[str, Any] = {}
        if warm_start is not None:
            solver_kwargs["warm_start"] = warm_start

        started = time.perf_counter()
        if spec.solver.problem == "budget":
            solution = solve_budget_spec(
                estimator,
                spec.solver,
                block_size=resolved.block_size,
                **solver_kwargs,
            )
        else:
            solution = solve_cover_spec(
                estimator,
                spec.solver,
                block_size=resolved.block_size,
                **solver_kwargs,
            )
        solve_seconds = time.perf_counter() - started
        self._record_warm_trace(key, spec, estimator, solution.trace)

        solver_echo = spec.solver
        if (
            spec.solver.problem == "budget"
            and spec.solver.fair
            and spec.solver.concave is None
        ):
            # Resolve the defaulted wrapper so the audit record names
            # the objective that actually ran.
            solver_echo = replace(spec.solver, concave="log")
        echo = replace(
            spec,
            solver=solver_echo,
            execution=ExecutionSpec(
                backend=getattr(estimator, "backend_name", resolved.backend),
                workers=resolved.workers,
                block_size=resolved.block_size,
                # What the build actually engaged (1 for cached /
                # serial-fallback / rrset builds), not a re-resolution.
                build_workers=getattr(estimator, "build_workers_used", 1),
            ),
        )
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
            warm_started=warm_start is not None,
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


_default_session: Optional[Session] = None
_default_session_lock = threading.Lock()


def default_session() -> Session:
    """The process-default session (created on first use).

    What the module-level :func:`solve` / :func:`solve_many` and the
    experiment layer's ``build_ensemble`` run through, so casual use
    shares one ensemble cache without any setup.
    """
    global _default_session
    with _default_session_lock:
        if _default_session is None:
            _default_session = Session()
        return _default_session


def solve(spec: RunSpec) -> RunResult:
    """``default_session().solve(spec)`` — the one-call library entry."""
    return default_session().solve(spec)


def resolve(spec: RunSpec, delta: Optional[GraphDelta] = None) -> RunResult:
    """``default_session().resolve(spec, delta)`` — streaming re-solve."""
    return default_session().resolve(spec, delta)


def solve_many(specs: Iterable[RunSpec]) -> List[RunResult]:
    """``default_session().solve_many(specs)``."""
    return default_session().solve_many(specs)
