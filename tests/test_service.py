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

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import (
    EnsembleSpec,
    ExecutionSpec,
    RunSpec,
    Session,
    SolverSpec,
)
from repro.errors import ConfigError
from repro.graph.delta import GraphDelta
from repro.service import (
    ServiceConfig,
    SolveService,
    parse_size,
    start_in_thread,
)

#: Small instance: sub-second builds, enough structure for real solves.
SYN_PARAMS = {"n": 120, "activation_probability": 0.08}


def run_spec(world_seed=7, budget=4, fair=True, backend=None, **solver) -> RunSpec:
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
        execution=ExecutionSpec(backend=backend),
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
    def test_identical_concurrent_requests_share_one_solve(self, server):
        spec = spec_dict(world_seed=11)
        service = server.service
        results = []

        def worker():
            results.append(post(server.url, "/v1/solve", spec))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

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
        # Drained: cache released (shm segments unlinked with it)...
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
