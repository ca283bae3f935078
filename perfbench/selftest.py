"""The benchmark's own tests, at tiny scale (about a minute in all).

    python3 -m pytest -q perfbench/selftest.py

Run from the root of the repository.  The file name keeps it out of the
repository's own test collection.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from repro.api import Session  # noqa: E402
from run import scaled  # noqa: E402
from servemix import ServeMixed  # noqa: E402
from tracing import Recorder  # noqa: E402
from worker import per_layer_units  # noqa: E402
from workloads import SolveWarm, SweepCold  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_end_to_end_metric_with_unit(workload):
    done = run_bench(workload, trace=0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    done = run_bench("serve-mixed", trace=1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["influence.repair.calls"]["value"] > 0
    assert result["metrics"]["service.delta.p50_ms"]["value"] > 0


def test_times_and_rates_are_scaled_to_the_reference_speed():
    assert scaled({"value": 3.0, "unit": "ms"}, 0.5) == 1.5
    assert scaled({"value": 3.0, "unit": "s"}, 0.5) == 1.5
    assert scaled({"value": 3.0, "unit": "1/s"}, 0.5) == 6.0
    assert scaled({"value": 3.0, "unit": "MiB"}, 0.5) == 3.0


def test_per_layer_names_match_benchmark_json():
    assert per_layer_units() == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    done = run_bench("solve-warm", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("cls", [SolveWarm, SweepCold, ServeMixed])
def test_same_seed_gives_byte_identical_inputs(cls, tmp_path):
    first = cls(7, "tiny", tmp_path).inputs(3)
    assert first == cls(7, "tiny", tmp_path).inputs(3)
    assert first != cls(8, "tiny", tmp_path).inputs(3)


def test_corrupted_solve_answer_counts_as_failed(monkeypatch):
    workload = SolveWarm(1, "tiny")
    workload.setup()
    original = Session.solve
    calls = []

    def corrupting(self, spec):
        result = original(self, spec)
        calls.append(spec)
        if len(calls) == 5:
            return dataclasses.replace(result, objective=result.objective + 1e-9)
        return result

    monkeypatch.setattr(Session, "solve", corrupting)
    ops = workload.run_cycle(0)
    monkeypatch.setattr(Session, "solve", original)
    assert workload.check(ops) == 1


def test_corrupted_sweep_row_counts_as_failed(tmp_path):
    workload = SweepCold(1, "tiny", tmp_path)
    workload.setup()
    ops = workload.run_cycle(0)
    assert workload.check(ops) == 0
    ledger = tmp_path / "sweeps" / "sweep-0" / "cells.jsonl"
    rows = ledger.read_text(encoding="utf-8").splitlines()
    row = json.loads(rows[0])
    row["methods"]["greedy"]["total_fraction"] += 1e-9
    rows[0] = json.dumps(row)
    ledger.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert workload.check(ops) == 1


def test_raising_solve_counts_as_failed(monkeypatch):
    workload = SolveWarm(1, "tiny")
    workload.setup()
    original = Session.solve
    calls = []

    def raising(self, spec):
        calls.append(spec)
        if len(calls) == 5:
            raise RuntimeError("injected")
        return original(self, spec)

    monkeypatch.setattr(Session, "solve", raising)
    ops = workload.run_cycle(0)
    monkeypatch.undo()
    assert workload.check(ops) == 1


def test_raising_sweep_cell_counts_the_rest_as_failed(monkeypatch, tmp_path):
    import repro.sweep.runner as runner

    workload = SweepCold(1, "tiny", tmp_path)
    workload.setup()
    original = runner.solve_cell
    calls = []

    def raising(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise RuntimeError("injected")
        return original(*args, **kwargs)

    monkeypatch.setattr(runner, "solve_cell", raising)
    ops = workload.run_cycle(0)
    monkeypatch.undo()
    cells = len(workload.sweeps[0].expand())
    assert len(ops) == cells
    assert workload.check(ops) == cells - 2


@pytest.mark.parametrize("cls", [SolveWarm, SweepCold])
def test_traced_answers_equal_untraced(cls, tmp_path):
    plain = cls(2, "tiny", tmp_path / "plain")
    plain.setup()
    expected = [op.digest for op in plain.run_cycle(0)]

    recorder = Recorder()
    recorder.install()
    try:
        traced = cls(2, "tiny", tmp_path / "traced")
        traced.setup()
        got = [op.digest for op in traced.run_cycle(0, recorder)]
    finally:
        recorder.uninstall()
    assert got == expected
    assert recorder.spans


def test_recorder_uninstall_restores_the_program():
    from repro.graph.digraph import DiGraph

    before = DiGraph.__dict__["edge_arrays"]
    recorder = Recorder()
    recorder.install()
    assert DiGraph.__dict__["edge_arrays"] is not before
    recorder.uninstall()
    assert DiGraph.__dict__["edge_arrays"] is before


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(pytest.main(["-q", __file__]))
