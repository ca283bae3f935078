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

1. **In-flight dedup by spec fingerprint** — concurrent requests whose
   :meth:`RunSpec.fingerprint` matches (ensemble + solver; execution
   is excluded because it never changes results) attach to one
   in-flight solve: one ensemble build, one greedy run, N responses.
2. **The session's build single-flight** — requests that differ in
   solver but share an ensemble fingerprint each run their own solve,
   and :class:`Session` lets exactly one of them build the worlds
   while the others wait for it, so the cache sees one miss and N-1
   hits and the solves then run concurrently on the one ensemble.
3. **The session cache itself** — sequential traffic reuses worlds
   across requests, LRU-evicted by entry count and by
   ``cache_bytes``.

A flight is one executor call: ``Session.solve`` under a
:func:`repro.core.greedy.trace_tap` that only records each greedy
step.  Streaming (``POST /v1/solve?stream=1``) subscribes to the
flight: the solving thread wakes the event loop at most every
:data:`STREAM_FLUSH_SECONDS`, and only while a stream listens, and the
flight's end always wakes it.  Each wake writes every step a stream
has not yet sent in one batch, so a short solve's steps arrive
together with its result.  Every stream keeps its own cursor into the
flight's steps: one that attaches late (deduped onto a running solve)
starts from step 0, so every client sees the complete trace.
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
    send_ndjson_lines,
    start_ndjson,
)

#: Least time between two wakes of the event loop by a streamed
#: flight's solving thread; the flight's end always wakes it.
STREAM_FLUSH_SECONDS = 0.05


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


def _error_event(status: int, message: str) -> Dict[str, Any]:
    """An NDJSON stream's error line."""
    return {"event": "error", **error_payload(status, message)["error"]}


class _Flight:
    """One in-flight solve shared by every deduped request.

    ``tap`` runs on the solving thread; everything else on the loop.
    """

    __slots__ = (
        "key", "future", "loop", "steps", "listeners", "closed",
        "wake_pending", "last_wake",
    )

    def __init__(self, key: str, loop: asyncio.AbstractEventLoop) -> None:
        self.key = key
        self.loop = loop
        self.future: "asyncio.Future[RunResult]" = loop.create_future()
        self.steps: List[SelectionStep] = []
        #: One event per stream, set when new steps (or the end) await it.
        self.listeners: List[asyncio.Event] = []
        self.closed = False
        self.wake_pending = False
        self.last_wake = time.monotonic()

    def tap(self, step: SelectionStep) -> None:
        """Record a step; wake the loop only for a listener, and rarely.

        ``wake_pending`` is read here and cleared by ``wake`` without a
        lock: a race costs at most one extra or one skipped early wake,
        and the wake at the flight's end always runs.
        """
        self.steps.append(step)
        if self.listeners and not self.wake_pending:
            now = time.monotonic()
            if now - self.last_wake >= STREAM_FLUSH_SECONDS:
                self.wake_pending = True
                self.last_wake = now
                self.loop.call_soon_threadsafe(self.wake)

    def wake(self) -> None:
        """Tell every stream that steps (or the end) are waiting."""
        self.wake_pending = False
        for listener in self.listeners:
            listener.set()


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
        # Per-ensemble delta locks with their holder + waiter counts;
        # an entry lives only while someone holds or awaits it.
        self._delta_locks: Dict[Any, Tuple[asyncio.Lock, int]] = {}
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
            async with self._delta_lock(spec.ensemble.fingerprint()):
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
    async def _delta_lock(self, key: Any) -> AsyncIterator[None]:
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
    def _flight_for(self, spec: RunSpec) -> Tuple[_Flight, bool]:
        """The in-flight solve for this spec, joining one when it exists."""
        key = spec.fingerprint()
        flight = self._flights.get(key)
        if flight is not None:
            self.counters["deduped"] += 1
            return flight, False
        loop = asyncio.get_running_loop()
        flight = _Flight(key, loop)
        self._flights[key] = flight
        task = loop.create_task(self._run_flight(flight, spec))
        # The flight future is what waiters consume; keep the runner
        # task from warning if every waiter times out and goes away.
        task.add_done_callback(
            lambda t: t.exception() if not t.cancelled() else None
        )
        return flight, True

    async def _run_flight(self, flight: _Flight, spec: RunSpec) -> None:
        def run() -> RunResult:
            with trace_tap(flight.tap):
                return self.session.solve(spec)

        self.counters["solves"] += 1
        try:
            result = await flight.loop.run_in_executor(self._executor, run)
        except Exception as exc:
            flight.future.set_exception(exc)
            flight.future.exception()  # consumed here even with no waiters
        else:
            flight.future.set_result(result)
        finally:
            flight.closed = True
            self._flights.pop(flight.key, None)
            flight.wake()

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
        """NDJSON: the flight's steps in batches, then the result.

        The stream replays from step 0 and then sends, on each wake,
        every step it has not sent yet; the wake at the flight's end
        sends the rest with the result line.  Listening and reading
        both run on the event loop, and a closed flight has recorded
        its last step, so no step is lost or sent twice.
        """
        listener = asyncio.Event()
        listener.set()  # send what is buffered at once
        flight.listeners.append(listener)
        deadline = (
            None
            if self.config.request_timeout is None
            else time.monotonic() + self.config.request_timeout
        )
        sent = 0
        await start_ndjson(writer)
        try:
            while True:
                try:
                    await asyncio.wait_for(
                        listener.wait(),
                        None if deadline is None
                        else max(deadline - time.monotonic(), 0.0),
                    )
                except asyncio.TimeoutError:
                    self.counters["timeouts"] += 1
                    await send_ndjson_lines(writer, [_error_event(
                        504,
                        "stream exceeded the request timeout "
                        "(the solve continues)",
                    )])
                    return
                listener.clear()
                closed = flight.closed
                lines = [
                    step_event(step, index)
                    for index, step in enumerate(flight.steps[sent:], sent)
                ]
                sent += len(lines)
                if closed:
                    lines.append(self._final_event(flight))
                    await send_ndjson_lines(writer, lines)
                    return
                if lines:
                    await send_ndjson_lines(writer, lines)
        finally:
            flight.listeners.remove(listener)

    @staticmethod
    def _final_event(flight: _Flight) -> Dict[str, Any]:
        """A finished flight's last NDJSON line: its result or its error."""
        try:
            result = flight.future.result()
        except ConfigError as exc:
            return _error_event(400, str(exc))
        except ReproError as exc:
            return _error_event(422, str(exc))
        return {"event": "result", "result": result.to_dict()}

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
