"""One run of one workload in a fresh process (started by run.py).

``worker.py WORKLOAD SEED SECONDS TRACE OUT_DIR SCALE [--probe]``

Prints ``READY`` once set-up is done (a probe exits there), then one
JSON line: ops attempted and failed, the metrics, the host-speed kernel
times and, for serve-mixed, the server set-up times.  With TRACE 0 the
timed phase is untraced and gives the end-to-end metrics, unscaled
(run.py scales them to the reference speed).  With TRACE 1 the first half of the timed
phase runs untraced and the second half traced (the difference is the
tracing overhead), and the per-layer metrics come from the spans.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from hostspeed import Kernel
from servemix import ENDPOINTS, ServeMixed
from tracing import Recorder, covered_seconds, load_spans, summarize
from workloads import Op, SolveWarm, SweepCold

#: p90 needs at least ten samples beyond it.
MIN_OPS = 110
#: Hard stop for the timed loop, well inside the 180 s a run may take.
MAX_PHASE_SECONDS = 60.0
#: Time spent on the host-speed kernel after each cycle, as a share of
#: the cycle's time.
KERNEL_SHARE = 0.05

SPAN_LAYERS = (
    "graph.dataset", "graph.edge_export", "diffusion.sample",
    "influence.store_build", "influence.rr_sample", "influence.first_round",
    "influence.reeval", "influence.repair", "core.solve", "api.solve",
    "sweep.cell", "baselines.seeds",
)
STATS_COUNTERS = ("deduped", "solves", "shed", "errors")


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units: Dict[str, str] = {}
    for layer in SPAN_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_s"] = "s"
    units.update({
        "core.solve.self_s": "s",
        "core.evaluations": "count",
        "core.reeval_per_seed": "count",
        "api.assembly_s": "s",
        "api.cache.hit_ratio": "ratio",
        "api.cache.builds": "count",
        "api.cache.evictions": "count",
        "api.cache.bytes_peak": "B",
    })
    for endpoint in ENDPOINTS.values():
        units[f"service.{endpoint}.p50_ms"] = "ms"
    units["service.overhead_ms"] = "ms"
    for counter in STATS_COUNTERS:
        units[f"service.stats.{counter}"] = "count"
    units.update({
        "sweep.io_s": "s",
        "trace.ops_per_s": "1/s",
        "trace.untraced_ops_per_s": "1/s",
        "trace.overhead_ratio": "ratio",
        "trace.uncovered_share": "ratio",
        "trace.spans": "count",
    })
    return units


def make_workload(name: str, seed: int, out_dir: Path, traced: bool, scale: str = "full"):
    if name == "serve-mixed":
        return ServeMixed(seed, scale, out_dir, traced=traced)
    return {"solve-warm": SolveWarm, "sweep-cold": SweepCold}[name](seed, scale, out_dir)


def timed(workload, first_cycle: int, seconds: float, min_ops: int,
          recorder=None, kernel: Optional[Kernel] = None) -> Tuple[List[Op], float, int]:
    """Run whole cycles until ``seconds`` of them and ``min_ops`` are both reached.

    After each cycle ``kernel``, when given, is timed for ``KERNEL_SHARE``
    of the cycle's time, outside the phase's seconds.  Returns the ops,
    the seconds their cycles took and the next cycle index.
    """
    ops: List[Op] = []
    cycle = first_cycle
    busy = 0.0
    while True:
        start = time.perf_counter()
        ops += workload.run_cycle(cycle, recorder)
        took = time.perf_counter() - start
        busy += took
        cycle += 1
        if kernel is not None:
            kernel.sample(KERNEL_SHARE * took)
        if (busy >= seconds and len(ops) >= min_ops) or busy >= MAX_PHASE_SECONDS:
            return ops, busy, cycle


def percentile_ms(values: List[float], decile: int) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[decile - 1] * 1000.0


def end_to_end(ops: List[Op], elapsed: float, failed: int, rss_mb: float) -> Dict[str, tuple]:
    latencies = [op.latency for op in ops]
    return {
        "ops_per_s": (len(ops) / elapsed, "1/s"),
        "latency_p50_ms": (percentile_ms(latencies, 5), "ms"),
        "latency_p90_ms": (percentile_ms(latencies, 9), "ms"),
        "success_ratio": ((len(ops) - failed) / len(ops), "ratio"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


def per_layer(spans, phase: Tuple[float, float], traced_ops: List[Op],
              untraced_rate: float, workload, service) -> Dict[str, tuple]:
    units = per_layer_units()
    table = summarize(spans)
    values: Dict[str, float] = {name: 0.0 for name in units}
    for layer in SPAN_LAYERS:
        row = table.get(layer, {})
        values[f"{layer}.calls"] = row.get("calls", 0)
        values[f"{layer}.busy_s"] = row.get("busy_s", 0.0)
    values["core.solve.self_s"] = table.get("core.solve", {}).get("self_s", 0.0)
    values["api.assembly_s"] = table.get("api.solve", {}).get("self_s", 0.0)
    values["sweep.io_s"] = table.get("sweep.run", {}).get("self_s", 0.0)

    start, end = phase
    values["core.evaluations"] = sum(op.evaluations for op in traced_ops)
    reevals = sum(1 for s in spans if s[3] == "influence.reeval" and start <= s[4] <= end)
    seeds = sum(op.seeds for op in traced_ops)
    values["core.reeval_per_seed"] = reevals / seeds if seeds else 0.0
    for key, value in workload.cache_stats().items():
        values[f"api.cache.{key}"] = value

    if service is not None:
        for endpoint in ENDPOINTS.values():
            latencies = [op.latency for op in traced_ops if op.extra.get("endpoint") == endpoint]
            if latencies:
                values[f"service.{endpoint}.p50_ms"] = statistics.median(latencies) * 1000.0
        overheads = [op.latency - op.extra["server_s"] for op in traced_ops if "server_s" in op.extra]
        if overheads:
            values["service.overhead_ms"] = statistics.median(overheads) * 1000.0
        for counter in STATS_COUNTERS:
            values[f"service.stats.{counter}"] = service["counters"][counter]

    rate = len(traced_ops) / (end - start)
    values["trace.ops_per_s"] = rate
    values["trace.untraced_ops_per_s"] = untraced_rate
    values["trace.overhead_ratio"] = untraced_rate / rate - 1.0
    values["trace.uncovered_share"] = 1.0 - covered_seconds(spans, start, end) / (end - start)
    values["trace.spans"] = len(spans)
    return {name: (values[name], unit) for name, unit in units.items()}


def main(argv: List[str]) -> int:
    # A SIGTERM from run.py unwinds through the finally below, which
    # stops any server this worker started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    name, seed, seconds, trace, out_dir, scale = argv[:6]
    seed, seconds, trace, out_dir = int(seed), float(seconds), int(trace), Path(out_dir)
    probe = "--probe" in argv[6:]
    serve = name == "serve-mixed"
    out_dir.mkdir(parents=True, exist_ok=True)

    recorder = Recorder() if trace and not serve else None
    if recorder is not None:
        recorder.install()
    workload = make_workload(name, seed, out_dir, traced=bool(trace), scale=scale)
    try:
        workload.setup()
        print("READY", flush=True)
        if probe:
            return 0

        kernel = Kernel()
        if not trace:
            ops, elapsed, _ = timed(workload, 0, seconds, MIN_OPS, kernel=kernel)
            rss = workload.finish() if serve else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            failed = workload.check(ops)
            metrics = end_to_end(ops, elapsed, failed, rss)
        else:
            if recorder is not None:
                recorder.uninstall()
            else:
                workload.set_tracing(False)
            untraced, untraced_s, cycle = timed(workload, 0, seconds / 2, 1)
            if recorder is not None:
                recorder.install()
            else:
                workload.set_tracing(True)
            phase_start = time.perf_counter()
            traced, _, _ = timed(workload, cycle, seconds / 2, 1, recorder)
            phase = (phase_start, time.perf_counter())
            service = None
            if recorder is not None:
                recorder.uninstall()
                recorder.dump(str(out_dir / "spans.jsonl"))
                spans = recorder.spans
            else:
                workload.finish()
                service = workload.final_stats
                spans = load_spans(str(out_dir / "server-spans.jsonl"))
            ops = untraced + traced
            failed = workload.check(ops)
            metrics = per_layer(spans, phase, traced, len(untraced) / untraced_s, workload, service)

        classes: Dict[str, List[float]] = {}
        for op in ops:
            classes.setdefault(op.cls, []).append(op.latency * 1000.0)
        p90 = metrics.get("latency_p90_ms")
        result = {
            "attempted": len(ops),
            "failed": failed,
            "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
            "setup_samples": getattr(workload, "setup_samples", []),
            "host_samples": kernel.samples,
            "info": {
                "ops": len(ops),
                "p90_samples_beyond": p90 and sum(op.latency * 1000.0 > p90[0] for op in ops),
                "class_ops": {cls: len(v) for cls, v in sorted(classes.items())},
                "class_p50_ms": {cls: round(statistics.median(v), 3) for cls, v in sorted(classes.items())},
            },
        }
        print(json.dumps(result), flush=True)
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
