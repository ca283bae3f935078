"""Sweep throughput: shared ensemble cache vs cold per-cell builds.

The sweep runner funnels every cell through one shared-cache session,
so cells that differ only in solver overrides reuse one world build.
This benchmark measures the cells/sec that sharing buys on a grid
deliberately shaped to exercise it — one ensemble axis x one solver
axis, so half the grid's builds are cache hits — against a cold run
that clears the session cache before every cell (what a naive
per-cell script would pay).

Both runs produce bit-identical deterministic rows (asserted each
repeat, so the benchmark doubles as an equivalence smoke).  Numbers
land in ``BENCH_sweep.json``.  Regenerate with::

    PYTHONPATH=src python -m pytest benchmarks/bench_sweep.py
"""

import shutil
import tempfile
from pathlib import Path

from conftest import best_of, record_bench

from repro.api import RunSpec, Session
from repro.sweep import SweepSpec, deterministic_row, run_sweep

RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_sweep.json"
REPEATS = 3


def bench_spec() -> SweepSpec:
    base = RunSpec.from_dict(
        {
            "ensemble": {
                "dataset": "synthetic",
                "dataset_params": {"n": 200, "activation_probability": 0.05},
                "n_worlds": 40,
            },
            "solver": {
                "problem": "budget",
                "deadline": 15.0,
                "fair": True,
                "budget": 5,
            },
        }
    )
    # 2 ensembles x 3 budgets = 6 cells, 2 builds when shared.
    return SweepSpec(
        name="bench",
        base=base,
        axes={
            "ensemble.dataset_params.p_hom": [0.01, 0.04],
            "solver.budget": [3, 5, 8],
        },
        baselines=("degree",),
        seed=11,
    )


def run_once(spec: SweepSpec, shared: bool):
    """One full sweep into a throwaway dir; optionally cold per cell."""
    out = Path(tempfile.mkdtemp(prefix="bench_sweep_"))
    session = Session()
    progress = None
    if not shared:
        progress = lambda cell, row, computed: session.clear_cache()  # noqa: E731
    try:
        summary = run_sweep(
            spec, out / "run", session=session, progress=progress
        )
        return summary, session.cache_builds
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_bench_sweep_cache_sharing():
    spec = bench_spec()
    cells = spec.cell_count()

    rows_by_mode = {}

    def shared_run():
        rows_by_mode["shared"], shared_run.builds = run_once(spec, True)

    def cold_run():
        rows_by_mode["cold"], cold_run.builds = run_once(spec, False)

    shared_seconds = best_of(shared_run, repeats=REPEATS)
    cold_seconds = best_of(cold_run, repeats=REPEATS)

    # Sharing is a pure speed layer: same deterministic rows either way.
    shared_rows = [deterministic_row(r) for r in rows_by_mode["shared"].rows]
    cold_rows = [deterministic_row(r) for r in rows_by_mode["cold"].rows]
    assert shared_rows == cold_rows

    distinct = len(
        {cell.spec.ensemble.fingerprint() for cell in spec.expand()}
    )
    assert shared_run.builds == distinct
    assert cold_run.builds == cells

    record_bench(
        "sweep_cache_sharing",
        {
            "cells": cells,
            "distinct_ensembles": distinct,
            "shared_seconds": round(shared_seconds, 4),
            "cold_seconds": round(cold_seconds, 4),
            "shared_cells_per_second": round(cells / shared_seconds, 2),
            "cold_cells_per_second": round(cells / cold_seconds, 2),
            "speedup": round(cold_seconds / shared_seconds, 2),
        },
        path=RESULTS_PATH,
    )
