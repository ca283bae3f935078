"""Benchmark entry point: one run of one workload, one JSON result line.

    python3 perfbench/run.py --workload solve-warm --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  It compiles the sources once, then
starts every process fresh with pinned thread counts and allocator
settings (ENV below): two set-up probes and the measuring worker for
the library workloads (``setup_s`` is the median of the three set-ups),
and for serve-mixed a worker that starts the server three times
itself.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
End-to-end times are scaled to the reference host speed (hostspeed.py);
the line before the result records the raw values and the factor.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import Kernel, factor

HERE = Path(__file__).resolve().parent
WORKLOADS = ("solve-warm", "sweep-cold", "serve-mixed")
#: Wall-clock cap on the worker, inside the 180 s a run may take.
WORKER_TIMEOUT = 165.0
#: Extra set-ups per run besides the measuring one; ``setup_s`` is the
#: median of all of them.
SETUP_PROBES = 2
#: Seconds of host-speed kernel timed before each process is started.
HOST_SAMPLE_S = 0.1

#: Pinned for every process the benchmark starts.  One BLAS/OpenMP
#: thread and at most two malloc arenas keep CPU use and resident
#: memory independent of how threads happen to interleave.
ENV = {
    "PYTHONPATH": "src",
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "MALLOC_ARENA_MAX": "2",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def spawn(args, env):
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=env, text=True,
    )


def read_line(proc, deadline: float) -> str:
    """Next stdout line of ``proc`` (empty when it ended or timed out)."""
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 1.0)
        if ready:
            return proc.stdout.readline()
        if proc.poll() is not None:
            return proc.stdout.readline()
    return ""


def reap(proc, deadline: float) -> int:
    """Wait for ``proc`` until ``deadline``, then stop it.

    SIGTERM first: the worker then stops the server it started.
    """
    try:
        code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.terminate()
        try:
            code = proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
    proc.stdout.close()
    return code


def scaled(metric: dict, scale: float) -> float:
    """``metric``'s value at the reference speed: times by ``scale``,
    rates by its inverse, anything else as measured."""
    if metric["unit"] in ("s", "ms"):
        return metric["value"] * scale
    if metric["unit"] == "1/s":
        return metric["value"] / scale
    return metric["value"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return fail("run from the root of a checkout: src/repro is missing")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(ENV)
    # Compile once up front so no set-up pays for bytecode compilation.
    compiled = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", str(HERE)],
        stdout=subprocess.DEVNULL, env=env,
    )
    if compiled.returncode != 0:
        return fail("compiling the sources failed")

    out_dir = root / ".perfbench-out" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    worker_args = [args.workload, str(args.seed), repr(args.seconds), str(args.trace),
                   str(out_dir), args.scale]
    deadline = time.monotonic() + WORKER_TIMEOUT
    samples = []
    kernel = Kernel()
    library = args.workload != "serve-mixed"
    for _ in range(SETUP_PROBES if library else 0):
        kernel.sample(HOST_SAMPLE_S)
        started = time.perf_counter()
        probe = spawn(worker_args + ["--probe"], env)
        ready = read_line(probe, deadline).strip() == "READY"
        samples.append(time.perf_counter() - started)
        if reap(probe, deadline) != 0 or not ready:
            return fail("set-up probe failed")

    kernel.sample(HOST_SAMPLE_S)
    started = time.perf_counter()
    worker = spawn(worker_args, env)
    try:
        if read_line(worker, deadline).strip() != "READY":
            return fail("worker failed during set-up")
        if library:
            samples.append(time.perf_counter() - started)
        line = read_line(worker, deadline)
    finally:
        code = reap(worker, deadline)
    if code != 0 or not line:
        return fail(f"worker exited with code {code}")
    result = json.loads(line)
    samples += result["setup_samples"]

    metrics = result["metrics"]
    info = dict(result["info"])
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
        host_samples = kernel.samples + result["host_samples"]
        scale = factor(host_samples)
        info.update({
            "raw_metrics": {name: metric["value"] for name, metric in metrics.items()},
            "host_factor": scale,
            "host_samples": len(host_samples),
        })
        for metric in metrics.values():
            metric["value"] = scaled(metric, scale)
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "setup_samples_s": samples,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "env": ENV,
    })
    print("perfbench-info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
