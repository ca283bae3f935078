"""The solve service: routes, single-flight dedup, streaming, shedding.

One :class:`SolveService` owns one :class:`repro.api.Session` (the
shared, byte-bounded ensemble cache) and one solver thread pool.  The
asyncio event loop does admission, deduplication and streaming; the
actual solves run on worker threads — safe because concurrent queries
on a shared ensemble write only their own arrays, so the service adds
**no arithmetic and no randomness**:
every response is bit-identical to ``Session.solve``/``repro solve``
on the same spec.

Three layers of sharing, coarsest first:

1. **Single-flight by spec fingerprint** — concurrent requests whose
   :meth:`RunSpec.fingerprint` matches (ensemble + solver; execution
   is excluded because it never changes results) attach to one
   in-flight solve: one ensemble build, one greedy run, N responses.
2. **Ensemble-build single-flight** — requests that differ in solver
   but share an ensemble fingerprint race to build the same worlds;
   the service funnels them through one build future so the session
   cache sees one miss and N-1 hits, and the solves then run
   concurrently against the one shared ensemble.
3. **The session cache itself** — sequential traffic reuses worlds
   across requests, LRU-evicted by entry count and by
   ``cache_bytes``.

Streaming (``POST /v1/solve?stream=1``) taps the greedy engines'
:func:`repro.core.greedy.trace_tap` on the solving thread and fans
step events out to every subscribed client as NDJSON — subscribers who
attach late (deduped onto a running solve) first replay the buffered
steps, so every client always sees the complete trace.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, AsyncIterator, Dict, List, Optional, Tuple

from repro.api.session import RunResult, Session, _jsonify_label
from repro.api.specs import RunSpec
from repro.core.greedy import SelectionStep, trace_tap
from repro.errors import ConfigError, ReproError
from repro.graph.delta import GraphDelta
from repro.service.config import ServiceConfig
from repro.service.http import (
    HttpError,
    Request,
    error_payload,
    read_request,
    send_json,
    send_ndjson_line,
    start_ndjson,
)

#: Sentinel closing a flight's subscriber queues.
_STREAM_DONE = object()


def step_event(step: SelectionStep, index: int) -> Dict[str, Any]:
    """One greedy step as a JSON-safe NDJSON event payload."""
    return {
        "event": "step",
        "index": index,
        "node": _jsonify_label(step.node),
        "position": int(step.position),
        "gain": float(step.gain),
        "objective": float(step.objective_value),
        "evaluations": int(step.evaluations),
        "group_utilities": [float(u) for u in step.group_utilities],
    }


class _Flight:
    """One in-flight solve shared by every deduped request."""

    __slots__ = ("key", "future", "steps", "subscribers", "closed")

    def __init__(self, key: str, future: "asyncio.Future[RunResult]") -> None:
        self.key = key
        self.future = future
        self.steps: List[Dict[str, Any]] = []
        self.subscribers: List["asyncio.Queue[Any]"] = []
        self.closed = False


class SolveService:
    """Request handling on top of one shared :class:`Session`.

    Endpoints (all JSON over HTTP/1.1, ``Connection: close``):

    - ``POST /v1/solve`` — body is a :class:`RunSpec` dict; responds
      200 with :meth:`RunResult.to_dict`.  ``?stream=1`` responds as
      NDJSON instead: one ``{"event": "step", ...}`` line per greedy
      selection, then ``{"event": "result", ...}``.  Identical specs
      in flight dedup onto one solve; responses are bit-identical to
      ``repro solve`` on the same spec.
    - ``POST /v1/delta`` — body is ``{"spec": RunSpec, "delta":
      GraphDelta}``; repairs the spec's cached ensemble in place and
      solves cold on the repaired worlds, 200 with the result.  Never
      deduped; serialised per ensemble.
    - ``GET /v1/healthz`` — 200 ``{"status": "ok", ...}`` normally,
      503 ``{"status": "draining", ...}`` once a drain began.
    - ``GET /v1/stats`` — 200 with counters, dedup/cache-hit rates and
      the session's cache occupancy (see :meth:`stats`).

    Error contract: malformed requests are 400, solver-level failures
    422, admission control sheds with 429 (over ``max_pending``) or
    503 (draining), and ``request_timeout`` expiry is 504 — in every
    case a JSON body ``{"error": {"status", "message"}}``.  On 429/504
    the shared solve keeps running and warms the cache for the retry.
    """

    def __init__(
        self, config: ServiceConfig, session: Optional[Session] = None
    ) -> None:
        self.config = config
        self.session = session or Session(
            execution=config.execution,
            max_cached_ensembles=config.max_cached_ensembles,
            cache_bytes=config.cache_bytes,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=config.solver_threads, thread_name_prefix="repro-solve"
        )
        self._flights: Dict[str, _Flight] = {}
        self._builds: Dict[Tuple[str, Any], "asyncio.Task[Any]"] = {}
        # Per-ensemble delta locks with their holder + waiter counts;
        # an entry lives only while someone holds or awaits it.
        self._delta_locks: Dict[Tuple[str, Any], Tuple[asyncio.Lock, int]] = {}
        self._active = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False
        self._started = time.monotonic()
        self.counters: Dict[str, int] = {
            "requests": 0,
            "solve_requests": 0,
            "delta_requests": 0,
            "streams": 0,
            "solves": 0,  # greedy runs actually executed
            "deduped": 0,  # requests attached to an in-flight solve
            "shed": 0,  # 429s
            "timeouts": 0,  # 504s
            "errors": 0,  # 4xx/5xx besides shed/timeout
        }

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection, one request, one response (Connection: close)."""
        try:
            try:
                request = await read_request(reader, self.config.max_body_bytes)
            except HttpError as exc:
                await send_json(
                    writer, exc.status, error_payload(exc.status, exc.message)
                )
                return
            if request is None:
                return
            await self._dispatch(request, writer)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass  # client went away (or drain cancelled us) — nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        self.counters["requests"] += 1
        routes = {
            "/v1/healthz": ("GET", self._handle_healthz),
            "/v1/stats": ("GET", self._handle_stats),
            "/v1/solve": ("POST", self._handle_solve),
            "/v1/delta": ("POST", self._handle_delta),
        }
        entry = routes.get(request.path)
        if entry is None:
            self.counters["errors"] += 1
            await send_json(
                writer,
                404,
                error_payload(
                    404,
                    f"unknown path {request.path!r}; routes: "
                    + ", ".join(sorted(routes)),
                ),
            )
            return
        method, handler = entry
        if request.method != method:
            self.counters["errors"] += 1
            await send_json(
                writer,
                405,
                error_payload(405, f"{request.path} accepts {method} only"),
            )
            return
        try:
            await handler(request, writer)
        except HttpError as exc:
            self.counters["errors"] += 1
            await send_json(
                writer, exc.status, error_payload(exc.status, exc.message)
            )
        except (ConnectionResetError, BrokenPipeError):
            raise
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # a bug, not a bad request — say so
            self.counters["errors"] += 1
            await send_json(
                writer,
                500,
                error_payload(500, f"internal error: {type(exc).__name__}: {exc}"),
            )

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    async def _handle_healthz(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        """``GET /v1/healthz``: liveness + config echo; 503 while draining
        (load balancers stop routing before the listener closes)."""
        payload = {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "config": self.config.describe(),
        }
        await send_json(writer, 200 if not self._draining else 503, payload)

    async def _handle_stats(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        """``GET /v1/stats``: observability snapshot — request counters,
        dedup and ensemble-cache hit rates, cache byte occupancy."""
        await send_json(writer, 200, self.stats())

    def stats(self) -> Dict[str, Any]:
        """The ``/v1/stats`` payload (also handy in-process for tests)."""
        cache = self.session.cache_info
        solve_requests = self.counters["solve_requests"]
        lookups = cache["hits"] + cache["misses"]
        return {
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "in_flight": self._active,
            "open_flights": len(self._flights),
            "draining": self._draining,
            "counters": dict(self.counters),
            "dedup_rate": (
                self.counters["deduped"] / solve_requests if solve_requests else 0.0
            ),
            "cache": cache,
            "cache_hit_rate": cache["hits"] / lookups if lookups else 0.0,
        }

    def _parse_spec(self, data: Any) -> RunSpec:
        try:
            return RunSpec.from_dict(data)
        except ConfigError as exc:
            raise HttpError(400, f"invalid spec: {exc}") from None

    def _admit(self) -> None:
        """Admission control: drain refuses, overload sheds."""
        if self._draining:
            raise HttpError(503, "server is draining")
        if self._active >= self.config.max_pending:
            self.counters["shed"] += 1
            raise HttpError(
                429,
                f"too many in-flight requests (limit "
                f"{self.config.max_pending}); retry later",
            )
        self._active += 1
        self._idle.clear()

    def _release(self) -> None:
        self._active -= 1
        if self._active <= 0:
            self._idle.set()

    async def _handle_solve(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        """``POST /v1/solve``: body = RunSpec dict -> 200 RunResult dict.

        Concurrent identical specs (same run fingerprint) attach to one
        in-flight greedy; ``?stream=1`` switches the response to an
        NDJSON selection trace (see :meth:`_stream_flight`).  A 504 abandons only the waiter — the
        flight finishes and its ensemble stays cached.
        """
        spec = self._parse_spec(request.json())
        self._admit()
        self.counters["solve_requests"] += 1
        try:
            flight, created = self._flight_for(spec)
            if request.flag("stream"):
                self.counters["streams"] += 1
                await self._stream_flight(flight, writer)
            else:
                result = await self._await_flight(flight)
                await send_json(writer, 200, result.to_dict())
        finally:
            self._release()

    async def _handle_delta(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        """``POST /v1/delta``: body = {"spec": RunSpec, "delta": GraphDelta}.

        Folds the edge mutations into the spec's cached world ensemble
        (in-place repair, bit-identical to rebuilding the mutated graph
        from scratch) and solves it cold —
        ``Session.resolve(spec, delta=...)`` over HTTP.  Responds 200
        with the RunResult dict, whose ``delta_lineage`` records every
        delta fingerprint folded into that ensemble so far.
        """
        data = request.json()
        if not isinstance(data, dict) or "spec" not in data or "delta" not in data:
            raise HttpError(
                400, "delta requests need a JSON object with 'spec' and 'delta'"
            )
        spec = self._parse_spec(data["spec"])
        try:
            delta = GraphDelta.from_dict(data["delta"])
        except ReproError as exc:
            raise HttpError(400, f"invalid delta: {exc}") from None
        self._admit()
        self.counters["delta_requests"] += 1
        try:
            # Deltas mutate the cached ensemble in place; serialise them
            # per ensemble so two repairs can never interleave.  They are
            # never deduped — two identical deltas are two mutations (the
            # second fails validation against the mutated graph, which is
            # the correct answer, not a cache hit).
            loop = asyncio.get_running_loop()
            async with self._delta_lock(self._build_key(spec)):
                self.counters["solves"] += 1
                work = loop.run_in_executor(
                    self._executor, self.session.resolve, spec, delta
                )
                result = await self._bounded(work)
            await send_json(writer, 200, result.to_dict())
        except HttpError:
            raise
        except ConfigError as exc:
            raise HttpError(400, str(exc)) from None
        except ReproError as exc:
            # Valid shape, unservable request (stale lineage, infeasible
            # quota, unrepairable estimator...).
            raise HttpError(422, str(exc)) from None
        finally:
            self._release()

    @contextlib.asynccontextmanager
    async def _delta_lock(self, key: Tuple[str, Any]) -> AsyncIterator[None]:
        """Hold ``key``'s delta lock; drop its entry when the last holder
        releases with no waiter left (every ensemble that ever saw a
        delta would otherwise keep one forever)."""
        lock, users = self._delta_locks.get(key, (asyncio.Lock(), 0))
        self._delta_locks[key] = (lock, users + 1)
        try:
            async with lock:
                yield
        finally:
            lock, users = self._delta_locks[key]
            if users == 1:
                del self._delta_locks[key]
            else:
                self._delta_locks[key] = (lock, users - 1)

    # ------------------------------------------------------------------
    # flights
    # ------------------------------------------------------------------
    def _build_key(self, spec: RunSpec) -> Tuple[str, Any]:
        return (spec.ensemble.fingerprint(),)

    def _flight_for(self, spec: RunSpec) -> Tuple[_Flight, bool]:
        """The in-flight solve for this spec, joining one when it exists."""
        key = spec.fingerprint()
        flight = self._flights.get(key)
        if flight is not None:
            self.counters["deduped"] += 1
            return flight, False
        loop = asyncio.get_running_loop()
        flight = _Flight(key, loop.create_future())
        self._flights[key] = flight
        task = loop.create_task(self._run_flight(flight, spec))
        # The flight future is what waiters consume; keep the runner
        # task from warning if every waiter times out and goes away.
        task.add_done_callback(
            lambda t: t.exception() if not t.cancelled() else None
        )
        return flight, True

    async def _ensure_ensemble(self, spec: RunSpec) -> None:
        """Single-flight the ensemble build across concurrent requests.

        Requests that share an ensemble fingerprint (any solver spec)
        funnel through one executor call to ``Session.ensemble_for``;
        everyone else awaits that future and then hits the session
        cache.  Without this, N concurrent first requests would build N
        identical world ensembles and race N-1 of them into the drop
        path.
        """
        key = self._build_key(spec)
        task = self._builds.get(key)
        if task is None:
            loop = asyncio.get_running_loop()

            async def build() -> None:
                try:
                    await loop.run_in_executor(
                        self._executor,
                        self.session.ensemble_for,
                        spec.ensemble,
                    )
                finally:
                    self._builds.pop(key, None)

            task = loop.create_task(build())
            task.add_done_callback(
                lambda t: t.exception() if not t.cancelled() else None
            )
            self._builds[key] = task
        await asyncio.shield(task)

    async def _run_flight(self, flight: _Flight, spec: RunSpec) -> None:
        loop = asyncio.get_running_loop()
        try:
            await self._ensure_ensemble(spec)
            self.counters["solves"] += 1

            def run() -> RunResult:
                index = 0

                def tap(step: SelectionStep) -> None:
                    nonlocal index
                    event = step_event(step, index)
                    index += 1
                    loop.call_soon_threadsafe(self._publish_step, flight, event)

                with trace_tap(tap):
                    return self.session.solve(spec)

            result = await loop.run_in_executor(self._executor, run)
        except Exception as exc:
            if not flight.future.done():
                flight.future.set_exception(exc)
            flight.future.exception()  # consumed here even with no waiters
        else:
            if not flight.future.done():
                flight.future.set_result(result)
        finally:
            flight.closed = True
            self._flights.pop(flight.key, None)
            for queue in flight.subscribers:
                queue.put_nowait(_STREAM_DONE)

    def _publish_step(self, flight: _Flight, event: Dict[str, Any]) -> None:
        """Record one step and fan it out (runs on the event loop)."""
        if flight.closed:
            return
        flight.steps.append(event)
        for queue in flight.subscribers:
            queue.put_nowait(event)

    async def _bounded(self, awaitable) -> Any:
        """Await under the request timeout; the shared work survives."""
        if self.config.request_timeout is None:
            return await awaitable
        try:
            return await asyncio.wait_for(
                asyncio.shield(asyncio.ensure_future(awaitable)),
                self.config.request_timeout,
            )
        except asyncio.TimeoutError:
            self.counters["timeouts"] += 1
            raise HttpError(
                504,
                f"request exceeded the {self.config.request_timeout:g}s "
                "timeout (the solve continues; an identical request may "
                "reuse it)",
            ) from None

    async def _await_flight(self, flight: _Flight) -> RunResult:
        try:
            return await self._bounded(asyncio.shield(flight.future))
        except HttpError:
            raise
        except ConfigError as exc:
            raise HttpError(400, str(exc)) from None
        except ReproError as exc:
            raise HttpError(422, str(exc)) from None

    async def _stream_flight(
        self, flight: _Flight, writer: asyncio.StreamWriter
    ) -> None:
        """NDJSON: buffered steps, then live steps, then the result.

        Subscription and replay both run on the event loop, so no step
        can slip between the replayed prefix and the live queue.
        """
        queue: "asyncio.Queue[Any]" = asyncio.Queue()
        for event in flight.steps:
            queue.put_nowait(event)
        if flight.closed:
            queue.put_nowait(_STREAM_DONE)
        else:
            flight.subscribers.append(queue)
        deadline = (
            None
            if self.config.request_timeout is None
            else time.monotonic() + self.config.request_timeout
        )
        await start_ndjson(writer)
        try:
            while True:
                if deadline is None:
                    event = await queue.get()
                else:
                    remaining = deadline - time.monotonic()
                    try:
                        event = await asyncio.wait_for(
                            queue.get(), max(remaining, 0.0)
                        )
                    except asyncio.TimeoutError:
                        self.counters["timeouts"] += 1
                        await send_ndjson_line(
                            writer,
                            {
                                "event": "error",
                                **error_payload(
                                    504,
                                    "stream exceeded the request timeout "
                                    "(the solve continues)",
                                )["error"],
                            },
                        )
                        return
                if event is _STREAM_DONE:
                    break
                await send_ndjson_line(writer, event)
            try:
                result = await asyncio.shield(flight.future)
            except ConfigError as exc:
                await send_ndjson_line(
                    writer, {"event": "error", **error_payload(400, str(exc))["error"]}
                )
                return
            except ReproError as exc:
                await send_ndjson_line(
                    writer, {"event": "error", **error_payload(422, str(exc))["error"]}
                )
                return
            await send_ndjson_line(
                writer, {"event": "result", "result": result.to_dict()}
            )
        finally:
            if queue in flight.subscribers:
                flight.subscribers.remove(queue)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Stop admitting, wait for in-flight work, release everything.

        After the wait (bounded by ``drain_seconds``) the session cache
        is cleared and the solver pool is shut down without joining stragglers (daemonic
        threads cannot hold the process hostage past the drain budget).
        """
        self._draining = True
        try:
            await asyncio.wait_for(
                self._idle.wait(), self.config.drain_seconds
            )
        except asyncio.TimeoutError:
            pass  # drain budget exhausted; shed the stragglers
        self.session.clear_cache()
        self._executor.shutdown(wait=False)
