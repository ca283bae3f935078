"""Service throughput: solves/sec under dedup, cold vs warm cache.

The service's pitch is that concurrent and repeated traffic should pay
for *distinct* work only: identical in-flight requests share one
solve, requests sharing an ensemble share one world build, and
sequential repeats hit the byte-bounded session cache.  This benchmark
measures that, honestly, against an in-process server on an ephemeral
loopback port (no network beyond localhost, no subprocess):

- **dedup rate sweep (0% / 50% / 90%)** — a fixed number of concurrent
  requests where the given fraction duplicate one base spec and the
  rest are unique ensembles.  Higher dedup must not be slower; at 90%
  the in-flight dedup counter must actually fire.
- **cold vs warm** — the same workload replayed against the
  now-populated cache; the warm pass does zero world builds, so its
  requests/sec floor is the cold pass's (asserted with slack).
- **stream vs plain CPU** — the server's CPU per warm sequential
  request (process CPU minus the client thread's), for one cover solve
  of at least 20 steps sent plain and with ``?stream=1``.  A stream
  wakes the event loop at most every ``STREAM_FLUSH_SECONDS`` and
  writes its steps in batches, so it must cost at most
  ``STREAM_CPU_RATIO`` times the plain solve.

Every response in a deduped batch is asserted byte-identical to the
others — throughput that broke bit-identity would not count.  Numbers
(plus the measured ``os.cpu_count()``) are committed to
``BENCH_serve.json``.  Regenerate with::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py
"""

import json
import os
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from conftest import record_bench

from repro.api import EnsembleSpec, RunSpec, SolverSpec
from repro.service import ServiceConfig, start_in_thread

RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_serve.json"
REQUESTS = 16
DEDUP_RATES = (0.0, 0.5, 0.9)
SYN_PARAMS = {"n": 200, "activation_probability": 0.08}
N_WORLDS = 16
BUDGET = 4
CLIENT_THREADS = 8
#: The stream-vs-plain solve: serve-mixed's stream-cover class
#: (synthetic-500, 100 worlds, tau 10, quota 0.1: 26 steps).
STREAM_SPEC = RunSpec(
    ensemble=EnsembleSpec(dataset="synthetic", n_worlds=100, world_seed=1),
    solver=SolverSpec(problem="cover", deadline=10.0, quota=0.1, budget=None, concave=None),
)
STREAM_CPU_RATIO = 1.5
#: Sequential requests per timed round, and alternating rounds per kind.
CPU_REQUESTS = 20
CPU_ROUNDS = 5


def spec_payload(world_seed: int) -> bytes:
    spec = RunSpec(
        ensemble=EnsembleSpec(
            dataset="synthetic",
            dataset_params=dict(SYN_PARAMS),
            dataset_seed=0,
            n_worlds=N_WORLDS,
            world_seed=world_seed,
        ),
        solver=SolverSpec(problem="budget", deadline=15.0, fair=True, budget=BUDGET),
    )
    return json.dumps(spec.to_dict()).encode()


def workload(dedup_rate: float) -> list:
    """REQUESTS payloads where ``dedup_rate`` of them share one spec."""
    duplicates = int(round(REQUESTS * dedup_rate))
    unique = REQUESTS - duplicates
    payloads = [spec_payload(world_seed=100 + i) for i in range(max(unique, 1))]
    while len(payloads) < REQUESTS:
        payloads.append(payloads[0])
    return payloads


def fire(url: str, payloads: list) -> tuple:
    """POST every payload concurrently; returns (seconds, bodies)."""

    def one(body: bytes) -> bytes:
        request = urllib.request.Request(
            url + "/v1/solve", data=body, method="POST"
        )
        with urllib.request.urlopen(request) as response:
            assert response.status == 200
            return response.read()

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=CLIENT_THREADS) as pool:
        bodies = list(pool.map(one, payloads))
    return time.perf_counter() - started, bodies


def test_throughput_under_dedup_and_cache():
    record_bench(
        "workload",
        {
            "dataset": f"synthetic sbm {SYN_PARAMS}",
            "n_worlds": N_WORLDS,
            "budget": BUDGET,
            "requests_per_point": REQUESTS,
            "client_threads": CLIENT_THREADS,
            "cpu_count": os.cpu_count(),
        },
        path=RESULTS_PATH,
    )

    points = []
    for rate in DEDUP_RATES:
        payloads = workload(rate)
        # Cache sized to the workload: this point measures sharing, not
        # eviction churn (eviction correctness is tests' business).
        server = start_in_thread(
            ServiceConfig(port=0, max_cached_ensembles=2 * REQUESTS)
        )
        try:
            cold_seconds, cold_bodies = fire(server.url, payloads)
            counters = dict(server.service.counters)
            builds = server.service.session.cache_builds
            warm_seconds, warm_bodies = fire(server.url, payloads)
            warm_builds = server.service.session.cache_builds - builds
        finally:
            server.stop()

        # Honesty before throughput: identical payloads → identical
        # bytes (timings aside), whether deduped, cached or solved.
        def key(body: bytes) -> str:
            parsed = json.loads(body)
            parsed.pop("timings")
            return json.dumps(parsed, sort_keys=True)

        for bodies in (cold_bodies, warm_bodies):
            by_payload = {}
            for payload, body in zip(payloads, bodies):
                by_payload.setdefault(payload, set()).add(key(body))
            assert all(len(keys) == 1 for keys in by_payload.values())
        assert {key(b) for b in cold_bodies} == {key(b) for b in warm_bodies}

        # The sharing machinery must have actually fired: duplicates do
        # no world builds (they join a flight or hit the cache), and
        # every request is accounted as exactly one of created/joined.
        # How *many* joined is scheduling-dependent (a fully serialized
        # 1-core run can legally dedup zero), so that is recorded, not
        # asserted.
        unique_specs = len(set(payloads))
        assert builds == unique_specs, (builds, unique_specs)
        assert warm_builds == 0  # the warm pass reuses every ensemble
        assert counters["solves"] + counters["deduped"] == REQUESTS

        points.append(
            {
                "dedup_rate": rate,
                "unique_specs": unique_specs,
                "cold_seconds": round(cold_seconds, 4),
                "cold_rps": round(REQUESTS / cold_seconds, 2),
                "warm_seconds": round(warm_seconds, 4),
                "warm_rps": round(REQUESTS / warm_seconds, 2),
                "cold_solves": counters["solves"],
                "cold_deduped": counters["deduped"],
            }
        )

    record_bench("throughput", points, path=RESULTS_PATH)

    # Warm must beat cold: no builds, pure cached solves.  The real
    # ratio is ~2-3x; the floor is deliberately loose because shared CI
    # runners (and 1-core containers under load) add multi-x noise.
    for point in points:
        assert point["warm_rps"] >= point["cold_rps"] * 0.5, point


def test_stream_cpu_matches_plain():
    payload = json.dumps(STREAM_SPEC.to_dict()).encode()
    paths = {"plain": "/v1/solve", "stream": "/v1/solve?stream=1"}

    def one(url: str, path: str) -> bytes:
        request = urllib.request.Request(url + path, data=payload, method="POST")
        with urllib.request.urlopen(request) as response:
            assert response.status == 200
            return response.read()

    server = start_in_thread(ServiceConfig(port=0))
    try:
        one(server.url, paths["plain"])  # builds and caches the ensemble
        steps = len(one(server.url, paths["stream"]).splitlines()) - 1
        assert steps >= 20
        cpu = {kind: [] for kind in paths}
        for _ in range(CPU_ROUNDS):
            for kind, path in paths.items():
                process, client = time.process_time(), time.thread_time()
                for _ in range(CPU_REQUESTS):
                    one(server.url, path)
                server_cpu = (time.process_time() - process) - (time.thread_time() - client)
                cpu[kind].append(server_cpu / CPU_REQUESTS)
    finally:
        server.stop()

    # Best round per kind: CPU time only grows under interference.
    plain, stream = min(cpu["plain"]), min(cpu["stream"])
    record_bench(
        "stream_cpu",
        {
            "spec": "synthetic-500, 100 worlds, cover tau 10 quota 0.1",
            "steps": steps,
            "requests_per_round": CPU_REQUESTS,
            "rounds": CPU_ROUNDS,
            "plain_server_cpu_ms": round(plain * 1e3, 3),
            "stream_server_cpu_ms": round(stream * 1e3, 3),
            "stream_over_plain": round(stream / plain, 3),
            "cpu_count": os.cpu_count(),
        },
        path=RESULTS_PATH,
    )
    assert stream <= STREAM_CPU_RATIO * plain, (plain, stream)
