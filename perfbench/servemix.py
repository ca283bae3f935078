"""serve-mixed: ``repro serve`` in its own process, two client threads.

Client A sends plain and ``?stream=1`` solves on a warm ensemble W plus
requests that build a new small ensemble; client B alone touches a
second warm ensemble D, where it alternates ``/v1/delta`` writes (a
fixed edge set reweighted, then restored) each followed by a solve.
The clients run closed loops in lockstep cycles: each sends its share
of a cycle, then both wait for the other, so every cycle has the same
class mix whatever the relative speed of the two.  Nothing is ever
deduplicated or built twice at once: the two clients share no ensemble
and each has one request in flight.  The server keeps every ensemble
(``--max-ensembles`` above the builds a run can make), so no answer or
timing depends on eviction order.
"""

from __future__ import annotations

import http.client
import json
import random
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.api import EnsembleSpec, RunSpec
from repro.api.datasets import build_dataset
from repro.graph.delta import GraphDelta

from run import SETUP_PROBES
from workloads import (EXECUTION, Op, answer, cache_stats, count_wrong, digest,
                       recompute, session, spec)

#: Solver threads = nproc on the 2-core reference box (the default is 4).
SERVER_THREADS = 2
#: Endpoint names of the per-layer ``service.<endpoint>.p50_ms`` metrics.
ENDPOINTS = {"/v1/solve": "solve", "/v1/solve?stream=1": "solve_stream", "/v1/delta": "delta"}
#: Far above the builds one run makes (one per cycle): nothing is evicted.
MAX_ENSEMBLES = 512


class Server:
    """A ``repro serve`` process bound to a free loopback port."""

    def __init__(self, command: List[str]) -> None:
        self.proc = subprocess.Popen(
            command, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        self.log: List[str] = []
        self._drain: Optional[threading.Thread] = None
        line = self._ready_line(timeout=120.0)
        address = line.rsplit("http://", 1)[1].strip()
        host, port = address.rsplit(":", 1)
        self.host, self.port = host, int(port)
        # Keep draining stderr so a chatty server can never block on it.
        self._drain = threading.Thread(target=self._pump, daemon=True)
        self._drain.start()

    def _ready_line(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stderr], [], [], 1.0)
            if ready:
                line = self.proc.stderr.readline()
                if not line:
                    break
                self.log.append(line)
                if "listening on http://" in line:
                    return line
        self.stop()
        raise RuntimeError("server did not start: " + "".join(self.log[-20:]))

    def _pump(self) -> None:
        for line in self.proc.stderr:
            self.log.append(line)

    def request(self, method: str, path: str, body: Any = None) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            payload = None if body is None else json.dumps(body).encode("utf-8")
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stats(self) -> Dict[str, Any]:
        status, data = self.request("GET", "/v1/stats")
        if status != 200:
            raise RuntimeError(f"/v1/stats answered {status}")
        return json.loads(data)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def send(self, sig: int) -> None:
        self.proc.send_signal(sig)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._drain is not None:
            self._drain.join(timeout=10)


class ServeMixed:
    """See the module docstring; class shares are in README.md."""

    SCALES = {
        "full": {
            "w": {"dataset": "synthetic", "n_worlds": 100, "world_seed": 1},
            "d": {"dataset": "synthetic", "dataset_params": {"n": 400}, "dataset_seed": 1,
                  "n_worlds": 40, "world_seed": 2},
            "build": {"dataset": "synthetic", "dataset_params": {"n": 100}, "n_worlds": 10},
            "budgets": (5, 10, 20),
            "delta_edges": 2,
        },
        "tiny": {
            "w": {"dataset": "synthetic", "dataset_params": {"n": 120}, "n_worlds": 8, "world_seed": 1},
            "d": {"dataset": "synthetic", "dataset_params": {"n": 100}, "dataset_seed": 1,
                  "n_worlds": 6, "world_seed": 2},
            "build": {"dataset": "synthetic", "dataset_params": {"n": 60}, "n_worlds": 4},
            "budgets": (2, 3, 4),
            "delta_edges": 2,
        },
    }

    def __init__(self, seed: int, scale: str = "full", out_dir: Optional[Path] = None,
                 traced: bool = False):
        self.seed = seed
        self.params = self.SCALES[scale]
        self.out_dir = Path(out_dir or ".")
        self.traced = traced
        self.w = EnsembleSpec(**self.params["w"])
        self.d = EnsembleSpec(**self.params["d"])
        b_delta, b_small, b_large = self.params["budgets"]
        self.d_delta = spec(self.d, "budget", 10, budget=b_delta)
        self.d_solve = spec(self.d, "budget", 10, fair=False, budget=b_small)
        self.up, self.restore = self._deltas()
        self.server: Optional[Server] = None
        self.final_stats: Dict[str, Any] = {}  # /v1/stats after the timed phase
        self.setup_samples: List[float] = []
        self.w_specs: Dict[str, RunSpec] = {}
        self.d_history: List[Tuple[str, Any]] = []  # replay order on D

    # -- inputs ----------------------------------------------------------
    def _deltas(self) -> Tuple[GraphDelta, GraphDelta]:
        """Reweight a fixed edge set of D up, and back.

        The edges do not depend on the run's seed: which worlds a delta
        touches sets its repair cost, and the delta class holds p90.
        """
        graph, _ = build_dataset(self.d.dataset, self.d.dataset_params, self.d.dataset_seed)
        src, dst, prob = graph.edge_arrays()
        labels = graph.nodes()
        rng = random.Random("delta")
        picks = rng.sample(range(len(src)), self.params["delta_edges"])
        edges = [(labels[src[i]], labels[dst[i]], float(prob[i])) for i in picks]
        up = GraphDelta(reweights=[(u, v, min(1.0, 5.0 * p)) for u, v, p in edges])
        return up, GraphDelta(reweights=edges)

    def cycle_a(self, index: int) -> List[Tuple[str, str, RunSpec]]:
        """Client A's (class, path, RunSpec) requests of cycle ``index``."""
        _, b_small, b_large = self.params["budgets"]
        w = self.w
        rng = random.Random(f"{self.seed}:{index}")
        build_ensemble = EnsembleSpec(
            **self.params["build"], world_seed=rng.getrandbits(31)
        )
        requests = (
            [("solve-cover", "/v1/solve", spec(w, "cover", tau, quota=0.1)) for tau in (5, 20)]
            + [("stream-cover", "/v1/solve?stream=1", spec(w, "cover", tau, quota=0.1)) for tau in (10, 20)]
            + [("solve-unfair", "/v1/solve", spec(w, "budget", 10, fair=False, budget=b_large))]
            + [("build", "/v1/solve", spec(build_ensemble, "budget", 10, fair=False, budget=b_small))]
        )
        rng.shuffle(requests)
        return requests

    def cycle_b(self) -> List[Tuple[str, str, Any]]:
        return [
            ("delta-up", "/v1/delta", self.up),
            ("delta-solve", "/v1/solve", self.d_solve),
            ("delta-restore", "/v1/delta", self.restore),
            ("delta-solve", "/v1/solve", self.d_solve),
        ]

    def inputs(self, cycles: int) -> bytes:
        return json.dumps(
            {
                "a": [[(c, p, s.to_dict()) for c, p, s in self.cycle_a(i)] for i in range(cycles)],
                "b": [(c, p, x.to_dict()) for c, p, x in self.cycle_b()],
            },
            sort_keys=True,
        ).encode("utf-8")

    # -- server lifecycle ------------------------------------------------
    def _command(self) -> List[str]:
        flags = ["serve", "--port", "0", "--threads", str(SERVER_THREADS),
                 "--workers", str(EXECUTION.workers),
                 "--build-workers", str(EXECUTION.build_workers),
                 "--max-ensembles", str(MAX_ENSEMBLES)]
        if self.traced:
            here = Path(__file__).resolve().parent
            return [sys.executable, str(here / "serve_traced.py"),
                    str(self.out_dir / "server-spans.jsonl")] + flags
        return [sys.executable, "-m", "repro.cli"] + flags

    def _warm(self, server: Server, record: bool) -> None:
        warm_w = spec(self.w, "budget", 10, fair=False, budget=self.params["budgets"][1])
        for run in (warm_w, self.d_delta, self.d_solve):
            status, body = server.request("POST", "/v1/solve", run.to_dict())
            if status != 200:
                raise RuntimeError(f"warm-up solve answered {status}: {body[:200]!r}")
        if record:
            self.d_history += [("solve", self.d_delta), ("solve", self.d_solve)]

    def setup(self) -> None:
        """Start, warm and time the server ``SETUP_PROBES + 1`` times; keep the last."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for attempt in range(SETUP_PROBES + 1):
            last = attempt == SETUP_PROBES
            started = time.perf_counter()
            server = Server(self._command())
            try:
                self._warm(server, record=last)
            except BaseException:
                server.stop()
                raise
            self.setup_samples.append(time.perf_counter() - started)
            if last:
                self.server = server
            else:
                server.stop()

    def set_tracing(self, on: bool) -> None:
        """Switch the traced server's wrappers on or off."""
        self.server.send(signal.SIGUSR1 if on else signal.SIGUSR2)
        time.sleep(0.2)
        self.server.request("GET", "/v1/healthz")

    # -- timed phase -----------------------------------------------------
    def _call(self, cls: str, path: str, body: Dict[str, Any], key: str) -> Op:
        start = time.perf_counter()
        try:
            status, data = self.server.request("POST", path, body)
            end = time.perf_counter()
            if status != 200:
                return Op(cls, key, start, end, None, extra={"status": status})
            if path.endswith("stream=1"):
                events = [json.loads(line) for line in data.decode("utf-8").splitlines() if line]
                result = events[-1]["result"]
                if [e["node"] for e in events if e["event"] == "step"] != result["seeds"]:
                    raise ValueError("stream steps disagree with the result")
            else:
                result = json.loads(data)
            timings = result["timings"]
            return Op(cls, key, start, end, digest(answer(result)),
                      seeds=result["seed_count"], evaluations=result["evaluations"],
                      extra={"server_s": timings["build_seconds"] + timings["solve_seconds"],
                             "endpoint": ENDPOINTS[path]})
        except Exception as exc:
            # Refused, dropped or malformed: a failed op, never a crash.
            return Op(cls, key, start, time.perf_counter(), None, extra={"error": repr(exc)})

    def _client_a(self, index: int, ops: List[Op]) -> None:
        for cls, path, run in self.cycle_a(index):
            key = run.to_json(indent=None)
            self.w_specs[key] = run
            ops.append(self._call(cls, path, run.to_dict(), key))

    def _client_b(self, ops: List[Op]) -> None:
        for cls, path, item in self.cycle_b():
            if path == "/v1/delta":
                body = {"spec": self.d_delta.to_dict(), "delta": item.to_dict()}
                self.d_history.append(("delta", item))
            else:
                body = item.to_dict()
                self.d_history.append(("solve", item))
            ops.append(self._call(cls, path, body, f"d:{len(self.d_history) - 1}"))

    def run_cycle(self, index: int, recorder=None) -> List[Op]:
        a_ops: List[Op] = []
        b_ops: List[Op] = []
        clients = [
            threading.Thread(target=self._client_a, args=(index, a_ops)),
            threading.Thread(target=self._client_b, args=(b_ops,)),
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        return a_ops + b_ops

    # -- results ---------------------------------------------------------
    def check(self, ops: List[Op]) -> int:
        """Recompute every W request once and replay D's history in order,
        all in a fresh in-process session."""
        fresh = session()
        reference = {
            key: recompute(lambda: answer(fresh.solve(self.w_specs[key]).to_dict()))
            for key in dict.fromkeys(op.key for op in ops if op.digest is not None)
            if key in self.w_specs
        }
        for position, (kind, item) in enumerate(self.d_history):
            reference[f"d:{position}"] = recompute(lambda: answer(
                (fresh.resolve(self.d_delta, item) if kind == "delta" else fresh.solve(item))
                .to_dict()
            ))
        return count_wrong(ops, reference)

    def cache_stats(self) -> Dict[str, float]:
        cache = self.final_stats["cache"]
        # Nothing is evicted, so the final occupancy is the peak.
        return cache_stats(cache, cache["bytes"])

    def finish(self) -> float:
        """Read the server's counters and peak memory, then stop it."""
        self.final_stats = self.server.stats()
        rss = self.server.peak_rss_mb()
        self.server.stop()
        return rss

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
