"""Solve service tests.

The headline contract mirrors the Session façade's: every byte the
service returns is **bit-identical** to ``Session.solve``/``resolve``
on the same spec — the HTTP layer adds no randomness and no
arithmetic.  On top of that sit the service-only behaviours: in-flight
dedup (N identical concurrent requests → one build, one solve),
ensemble batching across distinct solver specs, NDJSON trace
streaming, byte-bounded cache eviction, 429 shedding, 504 waiter
timeouts and graceful drain.

Everything runs against an in-process server on an ephemeral port
(``start_in_thread``) — no subprocesses, no fixed ports, no network
assumptions beyond loopback.
"""

import asyncio
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import (
    EnsembleSpec,
    RunSpec,
    Session,
    SolverSpec,
)
from repro.api.datasets import build_dataset
from repro.core.greedy import trace_tap
from repro.errors import ConfigError
from repro.graph.delta import GraphDelta
import repro.service.app as service_app
from repro.service import (
    ServiceConfig,
    SolveService,
    parse_size,
    start_in_thread,
)

#: Small instance: sub-second builds, enough structure for real solves.
SYN_PARAMS = {"n": 120, "activation_probability": 0.08}


def run_spec(world_seed=7, budget=4, fair=True, **solver) -> RunSpec:
    return RunSpec(
        ensemble=EnsembleSpec(
            dataset="synthetic",
            dataset_params=dict(SYN_PARAMS),
            dataset_seed=0,
            n_worlds=8,
            world_seed=world_seed,
        ),
        solver=SolverSpec(
            problem="budget", deadline=15.0, fair=fair, budget=budget, **solver
        ),
    )


def spec_dict(**kwargs) -> dict:
    return run_spec(**kwargs).to_dict()


def post(url, path, payload, raw=None):
    """POST JSON; returns (status, parsed-body) without raising."""
    body = raw if raw is not None else json.dumps(payload).encode()
    request = urllib.request.Request(url + path, data=body, method="POST")
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def get(url, path, method="GET"):
    request = urllib.request.Request(url + path, method=method)
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def post_stream(url, path, payload):
    """POST and parse the NDJSON stream into a list of events."""
    body = json.dumps(payload).encode()
    request = urllib.request.Request(url + path, data=body, method="POST")
    with urllib.request.urlopen(request) as response:
        assert response.headers["Content-Type"] == "application/x-ndjson"
        return [json.loads(line) for line in response.read().splitlines()]


@pytest.fixture()
def server():
    handle = start_in_thread(ServiceConfig(port=0))
    yield handle
    handle.stop()


class TestParseSize:
    def test_plain_ints_and_suffixes(self):
        assert parse_size(123) == 123
        assert parse_size("123") == 123
        assert parse_size("4k") == 4 << 10
        assert parse_size("512M") == 512 << 20
        assert parse_size(" 1 g ") == 1 << 30

    @pytest.mark.parametrize("bad", ["huge", "0", "-3", "1.5m", "", "k", 0, -1, 1.5, True])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ConfigError):
            parse_size(bad)


class TestServiceConfig:
    def test_defaults_are_valid(self):
        config = ServiceConfig()
        assert config.port > 0
        assert config.cache_bytes is None
        assert config.request_timeout is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"host": ""},
            {"port": 70000},
            {"port": -1},
            {"port": True},
            {"execution": "auto"},
            {"cache_bytes": 0},
            {"max_cached_ensembles": 0},
            {"solver_threads": 0},
            {"max_pending": 0},
            {"request_timeout": 0},
            {"drain_seconds": -1},
            {"max_body_bytes": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            ServiceConfig(**kwargs)

    def test_describe_is_json_safe(self):
        text = json.dumps(ServiceConfig().describe())
        assert "cache_bytes" in text


class TestBitIdentity:
    def test_solve_matches_session(self, server):
        spec = run_spec()
        status, body = post(server.url, "/v1/solve", spec.to_dict())
        assert status == 200
        expected = Session().solve(spec).to_dict()
        # The whole JSON document, not just the seeds: utilities,
        # objective, evaluations, stop reason... only timings differ.
        body.pop("timings"), expected.pop("timings")
        assert body == expected

    def test_stream_replays_the_exact_trace(self, server):
        spec = spec_dict()
        status, plain = post(server.url, "/v1/solve", spec)
        assert status == 200
        events = post_stream(server.url, "/v1/solve?stream=1", spec)
        steps = [e for e in events if e["event"] == "step"]
        assert [e["node"] for e in steps] == plain["seeds"]
        assert [e["index"] for e in steps] == list(range(len(steps)))
        assert steps[-1]["objective"] == plain["objective"]
        final = events[-1]
        assert final["event"] == "result"
        final["result"].pop("timings"), plain.pop("timings")
        assert final["result"] == plain

    def test_delta_matches_session_resolve(self, server):
        spec = run_spec()
        # Reweight a real edge of the same dataset the spec builds.
        graph = Session().ensemble_for(spec.ensemble).graph
        u, v, _ = next(iter(graph.edges()))
        delta = {"reweights": [[int(u), int(v), 0.9]]}

        status, _ = post(server.url, "/v1/solve", spec.to_dict())
        assert status == 200
        status, body = post(
            server.url, "/v1/delta", {"spec": spec.to_dict(), "delta": delta}
        )
        assert status == 200

        session = Session()
        session.solve(spec)
        expected = session.resolve(spec, GraphDelta.from_dict(delta)).to_dict()
        body.pop("timings"), expected.pop("timings")
        assert body == expected


class TestDedupAndBatching:
    def test_identical_concurrent_requests_share_one_solve(
        self, server, monkeypatch
    ):
        spec = spec_dict(world_seed=11)
        service = server.service
        results = []
        # Hold the first request's solve until all six requests have
        # arrived, so every one of them joins the same flight.
        release = threading.Event()
        solve = service.session.solve

        def held_solve(run):
            release.wait(timeout=60)
            return solve(run)

        monkeypatch.setattr(service.session, "solve", held_solve)

        def worker():
            results.append(post(server.url, "/v1/solve", spec))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 30
        while service.counters["solve_requests"] < 6 and time.monotonic() < deadline:
            time.sleep(0.01)
        release.set()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()

        assert [status for status, _ in results] == [200] * 6
        assert len({json.dumps(body["seeds"]) for _, body in results}) == 1
        # The acceptance criterion: exactly one ensemble build and one
        # greedy run served all six responses.
        assert service.session.cache_builds == 1
        assert service.counters["solves"] == 1
        assert service.counters["deduped"] == 5
        assert service.counters["solve_requests"] == 6

    def test_distinct_solvers_batch_onto_one_ensemble(self, server):
        service = server.service
        specs = [spec_dict(budget=b, world_seed=13) for b in (2, 3, 4)]
        results = []

        def worker(payload):
            results.append(post(server.url, "/v1/solve", payload))

        threads = [threading.Thread(target=worker, args=(s,)) for s in specs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert [status for status, _ in results] == [200] * 3
        # Three different solver specs, one shared world build.
        assert service.session.cache_builds == 1
        assert service.counters["solves"] == 3
        assert service.counters["deduped"] == 0

    def test_late_stream_subscriber_sees_full_trace(self, server):
        # A stream that attaches to an in-flight solve must replay the
        # buffered prefix: slow the solver down, attach mid-solve.
        spec = spec_dict(world_seed=17)
        session = server.service.session
        original = session.solve

        def slow(run):
            time.sleep(0.4)
            return original(run)

        session.solve = slow
        try:
            plain = {}

            def leader():
                plain["result"] = post(server.url, "/v1/solve", spec)

            thread = threading.Thread(target=leader)
            thread.start()
            deadline = time.time() + 5
            while not server.service._flights and time.time() < deadline:
                time.sleep(0.01)
            events = post_stream(server.url, "/v1/solve?stream=1", spec)
            thread.join()
        finally:
            session.solve = original

        status, body = plain["result"]
        assert status == 200
        steps = [e["node"] for e in events if e["event"] == "step"]
        assert steps == body["seeds"]
        assert events[-1]["event"] == "result"
        assert server.service.counters["solves"] == 1


class TestLeanFlights:
    """A flight costs one executor hop, and its steps wake the event
    loop only while a stream listens."""

    def test_plain_solve_is_one_hop_with_no_step_wakes(self, server, monkeypatch):
        service = server.service
        status, _ = post(server.url, "/v1/solve", spec_dict(world_seed=43))
        assert status == 200  # the ensemble is cached from here on
        submits, wakes = [], []
        submit = service._executor.submit

        def counted_submit(fn, *args, **kwargs):
            submits.append(fn)
            return submit(fn, *args, **kwargs)

        wake = service_app._Flight.wake

        def counted_wake(flight):
            wakes.append(len(flight.steps))
            wake(flight)

        monkeypatch.setattr(service._executor, "submit", counted_submit)
        monkeypatch.setattr(service_app._Flight, "wake", counted_wake)
        status, body = post(server.url, "/v1/solve", spec_dict(world_seed=43, budget=5))
        assert status == 200
        assert body["timings"]["ensemble_cached"] is True
        assert len(submits) == 1
        # Five steps, one wake: the flight's end, after the last step.
        assert len(body["seeds"]) == 5
        assert wakes == [5]

    def test_slow_stream_gets_steps_before_the_solve_ends(self, server, monkeypatch):
        service = server.service
        session = service.session
        solve = session.solve

        def sleepy(step):
            time.sleep(2 * service_app.STREAM_FLUSH_SECONDS)

        def slow_solve(run):
            with trace_tap(sleepy):
                return solve(run)

        monkeypatch.setattr(session, "solve", slow_solve)
        request = urllib.request.Request(
            server.url + "/v1/solve?stream=1",
            data=json.dumps(spec_dict(world_seed=47, budget=6)).encode(),
            method="POST",
        )
        events, open_at_first_step = [], None
        with urllib.request.urlopen(request) as response:
            for line in iter(response.readline, b""):
                events.append(json.loads(line))
                if open_at_first_step is None:
                    open_at_first_step = bool(service._flights)
        # The first step line came while the solve still ran (five more
        # steps sleep after it), not in one batch with the result.
        assert events[0]["event"] == "step" and open_at_first_step
        steps = [e for e in events if e["event"] == "step"]
        assert [e["index"] for e in steps] == list(range(6))
        assert events[-1]["event"] == "result"
        assert [e["node"] for e in steps] == events[-1]["result"]["seeds"]


class TestStatsAndHealth:
    def test_healthz_reports_config(self, server):
        status, body = get(server.url, "/v1/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["config"]["solver_threads"] == server.service.config.solver_threads

    def test_stats_track_cache_and_rates(self, server):
        spec = spec_dict(world_seed=19)
        for _ in range(3):
            status, _ = post(server.url, "/v1/solve", spec)
            assert status == 200
        status, stats = get(server.url, "/v1/stats")
        assert status == 200
        assert stats["counters"]["solve_requests"] == 3
        assert stats["cache"]["builds"] == 1
        assert stats["cache"]["bytes"] > 0
        # Sequential identical requests hit the session cache, not the
        # in-flight dedup; the hit rate reflects the two reuses.
        assert stats["cache"]["hits"] >= 2
        assert 0.0 <= stats["cache_hit_rate"] <= 1.0
        assert stats["in_flight"] == 0

    def test_each_solve_is_one_cache_lookup(self, server):
        specs = [
            spec_dict(world_seed=53),
            spec_dict(world_seed=53, budget=3),
            spec_dict(world_seed=59),
            spec_dict(world_seed=53),
            spec_dict(world_seed=59, fair=False),
        ]
        for spec in specs:
            assert post(server.url, "/v1/solve", spec)[0] == 200
        status, stats = get(server.url, "/v1/stats")
        cache = stats["cache"]
        assert stats["counters"]["solves"] == len(specs)
        assert cache["hits"] + cache["misses"] == len(specs)
        assert (cache["hits"], cache["misses"]) == (3, 2)


class TestHttpErrors:
    def test_bad_spec_is_400(self, server):
        status, body = post(server.url, "/v1/solve", {"bogus": 1})
        assert status == 400
        assert "invalid spec" in body["error"]["message"]

    def test_nan_deadline_is_400(self, server):
        # json.dumps writes the non-standard NaN literal the server's
        # json.loads accepts; the spec layer must reject it up front.
        spec = spec_dict()
        spec["solver"]["deadline"] = float("nan")
        status, body = post(server.url, "/v1/solve", spec)
        assert status == 400
        assert "deadline" in body["error"]["message"]

    @pytest.mark.parametrize(
        "field, solver",
        [
            ("weights", {"weights": [float("nan"), 1.0]}),
            ("weights", {"weights": [float("inf"), 1.0]}),
            ("slack", {"problem": "cover", "budget": None, "concave": None,
                       "quota": 0.3, "slack": float("nan")}),
            ("slack", {"problem": "cover", "budget": None, "concave": None,
                       "quota": 0.3, "slack": float("inf")}),
        ],
    )
    def test_non_finite_solver_number_is_400(self, server, field, solver):
        # Same route as the NaN deadline: rejected before any build.
        spec = spec_dict()
        spec["solver"].update(solver)
        status, body = post(server.url, "/v1/solve", spec)
        assert status == 400
        assert field in body["error"]["message"]

    def test_bad_json_is_400(self, server):
        status, body = post(server.url, "/v1/solve", None, raw=b"{nope")
        assert status == 400
        assert "not valid JSON" in body["error"]["message"]

    def test_unknown_path_is_404(self, server):
        status, body = post(server.url, "/v2/solve", {})
        assert status == 404
        assert "/v1/solve" in body["error"]["message"]

    def test_wrong_method_is_405(self, server):
        status, body = get(server.url, "/v1/solve")
        assert status == 405
        status, body = get(server.url, "/v1/healthz", method="POST")
        assert status == 405

    def test_delta_requires_both_fields(self, server):
        status, body = post(server.url, "/v1/delta", {"spec": spec_dict()})
        assert status == 400
        assert "delta" in body["error"]["message"]

    def test_unservable_spec_is_422(self, server):
        # Valid shape, impossible request: rrset ensembles cannot take
        # deltas — the service must answer, not traceback.
        spec = spec_dict()
        spec["ensemble"]["kind"] = "rrset"
        spec["ensemble"]["epsilon"] = 0.3
        spec["ensemble"]["delta"] = 0.1
        status, body = post(
            server.url, "/v1/delta", {"spec": spec, "delta": {"reweights": []}}
        )
        assert status == 422
        assert "repaired" in body["error"]["message"]

    def test_oversized_body_is_413(self):
        handle = start_in_thread(ServiceConfig(port=0, max_body_bytes=64))
        try:
            status, body = post(handle.url, "/v1/solve", {"pad": "x" * 256})
            assert status == 413
        finally:
            handle.stop()

    def test_errors_count_in_stats(self, server):
        post(server.url, "/v1/solve", {"bogus": 1})
        status, stats = get(server.url, "/v1/stats")
        assert stats["counters"]["errors"] >= 1


class TestDeltaLocks:
    """Per-ensemble delta locks live only while a delta holds or awaits
    them."""

    def test_deltas_on_distinct_specs_leave_no_locks(self, server):
        graph, _ = build_dataset("synthetic", SYN_PARAMS, 0)
        u, v, _ = next(iter(graph.edges()))
        good = {"reweights": [[int(u), int(v), 0.9]]}
        missing = next(
            (a, b) for a in graph.nodes() for b in graph.nodes()
            if a != b and not graph.has_edge(a, b)
        )
        # Well-formed, but removes a missing edge: 422 after the lock.
        bad = {"removes": [[int(missing[0]), int(missing[1])]]}
        statuses = [
            post(
                server.url,
                "/v1/delta",
                {"spec": spec_dict(world_seed=seed), "delta": delta},
            )[0]
            for seed, delta in ((31, good), (32, bad), (33, good), (34, bad))
        ]
        assert statuses == [200, 422, 200, 422]
        assert server.service._delta_locks == {}

    def test_entry_outlives_waiters_and_cancellation(self):
        service = SolveService(ServiceConfig())
        key = ("fingerprint", "dense")
        entered = []

        async def enter(tag):
            async with service._delta_lock(key):
                entered.append(tag)

        async def scenario():
            async with service._delta_lock(key):
                waiter = asyncio.ensure_future(enter("waiter"))
                cancelled = asyncio.ensure_future(enter("cancelled"))
                await asyncio.sleep(0)
                assert service._delta_locks[key][1] == 3
                cancelled.cancel()
                await asyncio.sleep(0)
                assert service._delta_locks[key][1] == 2
                assert entered == []
            await waiter
            assert entered == ["waiter"]
            assert service._delta_locks == {}

        try:
            asyncio.run(scenario())
        finally:
            service._executor.shutdown()


class TestBackpressure:
    def test_overload_sheds_with_429(self):
        handle = start_in_thread(ServiceConfig(port=0, max_pending=1))
        service = handle.service
        session = service.session
        original = session.solve
        release = threading.Event()

        def blocked(run):
            release.wait(10.0)
            return original(run)

        session.solve = blocked
        try:
            first = {}

            def leader():
                first["result"] = post(handle.url, "/v1/solve", spec_dict(world_seed=23))

            thread = threading.Thread(target=leader)
            thread.start()
            deadline = time.time() + 5
            while service._active < 1 and time.time() < deadline:
                time.sleep(0.01)
            status, body = post(handle.url, "/v1/solve", spec_dict(world_seed=29))
            assert status == 429
            assert "retry" in body["error"]["message"]
            assert service.counters["shed"] == 1
            release.set()
            thread.join()
            assert first["result"][0] == 200
        finally:
            release.set()
            session.solve = original
            handle.stop()

    def test_waiter_timeout_is_504_and_solve_survives(self):
        handle = start_in_thread(ServiceConfig(port=0, request_timeout=0.3))
        service = handle.service
        session = service.session
        original = session.solve

        def slow(run):
            time.sleep(1.0)
            return original(run)

        session.solve = slow
        try:
            spec = spec_dict(world_seed=31)
            status, body = post(handle.url, "/v1/solve", spec)
            assert status == 504
            assert service.counters["timeouts"] == 1
            # The shared solve kept running; once it lands, the worlds
            # are cached and a retry is fast enough to finish in time.
            deadline = time.time() + 10
            while service._flights and time.time() < deadline:
                time.sleep(0.05)
            session.solve = original
            status, body = post(handle.url, "/v1/solve", spec)
            assert status == 200
            assert body["seeds"]
        finally:
            session.solve = original
            handle.stop()


class TestDrain:
    def test_stop_clears_cache_and_refuses_connections(self):
        handle = start_in_thread(ServiceConfig(port=0))
        status, _ = post(handle.url, "/v1/solve", spec_dict(world_seed=37))
        assert status == 200
        assert handle.service.session.cache_info["entries"] == 1
        handle.stop()
        # Drained: cache released...
        assert handle.service.session.cache_info["entries"] == 0
        # ...and the listener is gone.
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(handle.url + "/v1/healthz", timeout=2.0)

    def test_drain_waits_for_in_flight_work(self):
        handle = start_in_thread(ServiceConfig(port=0))
        session = handle.service.session
        original = session.solve

        def slow(run):
            time.sleep(0.5)
            return original(run)

        session.solve = slow
        results = []

        def worker():
            results.append(post(handle.url, "/v1/solve", spec_dict(world_seed=41)))

        thread = threading.Thread(target=worker)
        thread.start()
        deadline = time.time() + 5
        while handle.service._active < 1 and time.time() < deadline:
            time.sleep(0.01)
        handle.stop()  # must wait for the in-flight solve, then drain
        thread.join()
        assert results and results[0][0] == 200
        assert results[0][1]["seeds"]


class TestServiceInProcess:
    """SolveService without sockets: constructor wiring."""

    def test_session_inherits_service_knobs(self):
        config = ServiceConfig(
            cache_bytes=parse_size("64m"), max_cached_ensembles=3
        )
        service = SolveService(config)
        assert service.session.cache_bytes == 64 << 20
        assert service.session.max_cached_ensembles == 3

    def test_caller_supplied_session_is_used(self):
        session = Session()
        service = SolveService(ServiceConfig(), session=session)
        assert service.session is session
