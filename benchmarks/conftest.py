"""Benchmark helpers.

Every per-figure benchmark runs its experiment once (pedantic mode: the
workloads are seconds-long, so statistical repetition would waste the
budget), records the wall time, and asserts the experiment's shape
checks — the qualitative claims of the paper — still hold.

:func:`record_bench` merges measured numbers into a results JSON next
to the benchmarks (``BENCH_solvers.json`` for the solver/gain-oracle
suite) so speedups are committed alongside the code that claims them.
A run with ``--benchmark-disable`` (every CI smoke step) measures
nothing worth committing, so it writes nothing.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable

import pytest

from repro.experiments.registry import run_experiment

SOLVER_RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_solvers.json"

#: The running session's config, kept for :func:`record_bench`.
_config = None


def pytest_configure(config) -> None:
    global _config
    _config = config


def record_bench(section: str, payload, path: Path = SOLVER_RESULTS_PATH) -> None:
    """Merge one section of measured results into a bench JSON file,
    unless pytest-benchmark is disabled (``--benchmark-disable``)."""
    if _config is not None and _config.getoption("benchmark_disable"):
        return
    results = {}
    if path.exists():
        results = json.loads(path.read_text())
    results[section] = payload
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")


def best_of(fn: Callable[[], object], repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds.

    Minimum (not mean) is the standard noise-robust statistic for
    micro-benchmarks: interruptions only ever make a run slower.
    """
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def run_and_check(benchmark, experiment_id: str, seed: int = 0):
    """Benchmark one experiment (quick scale) and enforce its checks."""
    result = benchmark.pedantic(
        run_experiment,
        args=(experiment_id,),
        kwargs={"quick": True, "seed": seed},
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    failing = [c for c in result.shape_checks if not c.passed]
    assert not failing, "; ".join(c.as_text() for c in failing)
    assert result.rows, f"{experiment_id} produced no rows"
    return result
