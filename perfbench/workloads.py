"""Library workloads (solve-warm, sweep-cold) and what they share.

A workload is a sequence of *cycles*, each a fixed multiset of requests
whose order the seed draws; the graphs, worlds and solver settings do
not depend on the seed, so every run does the same work.  The timed
phase runs whole cycles, so every run measures the same mix of request
classes; the class shares are chosen so that the median and the 90th
percentile each fall inside one class rather than on the edge between
a fast class and a slow one (README.md has the tables).
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.api import EnsembleSpec, ExecutionSpec, RunSpec, Session, SolverSpec
from repro.sweep import SweepSpec, deterministic_row, run_cell, run_sweep

#: Thread knobs pinned for every session and server (BLAS threads are
#: pinned through the environment by run.py).
EXECUTION = ExecutionSpec(workers=1, build_workers=1)


def digest(payload: Any) -> str:
    """Content hash of a JSON-shaped answer (floats by exact repr)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def answer(result: Dict[str, Any]) -> Dict[str, Any]:
    """The deterministic part of ``RunResult.to_dict()``: all but timings."""
    return {key: value for key, value in result.items() if key != "timings"}


@dataclass
class Op:
    """One completed request of the timed phase."""

    cls: str
    key: str
    start: float
    end: float
    digest: Optional[str]  # None: the request failed or was refused
    seeds: int = 0
    evaluations: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return self.end - self.start


def session() -> Session:
    return Session(execution=EXECUTION)


def recompute(make: Callable[[], Any]) -> Optional[str]:
    """Digest of the reference answer ``make()``, or None when it fails."""
    try:
        return digest(make())
    except Exception:
        return None


def count_wrong(ops: List[Op], reference: Dict[str, Optional[str]]) -> int:
    """Ops that failed, or whose answer differs from (or has no) reference."""
    return sum(
        op.digest is None or op.digest != reference.get(op.key) for op in ops
    )


def cache_stats(info: Dict[str, Any], bytes_peak: int) -> Dict[str, float]:
    """The ``api.cache.*`` metrics from ``Session.cache_info``-shaped counters."""
    lookups = info["hits"] + info["misses"]
    return {
        "hit_ratio": info["hits"] / lookups if lookups else 0.0,
        "builds": info["builds"],
        "evictions": info["evictions"],
        "bytes_peak": bytes_peak,
    }


def spec(ensemble: EnsembleSpec, problem: str, tau: float, fair: bool = True,
         budget: Optional[int] = None, quota: Optional[float] = None) -> RunSpec:
    return RunSpec(
        ensemble=ensemble,
        solver=SolverSpec(problem=problem, deadline=float(tau), fair=fair,
                          budget=budget, quota=quota),
    )


# ----------------------------------------------------------------------
# solve-warm
# ----------------------------------------------------------------------
class SolveWarm:
    """One client, ``Session.solve`` on two cached ensembles.

    Per deadline tau in {5, 10, 20}, one cycle holds 20 requests, fast
    to slow: 6 unfair budget on synthetic (30%), 8 fair cover on
    synthetic (40%, holds the median), 1 unfair budget on rice, 1 fair
    budget B=10, 3 fair budget B=20 (holds the 90th percentile) and one
    slowest fair budget solve (B=30 or rice).
    """

    SCALES = {
        "full": {
            "syn": {"dataset": "synthetic", "n_worlds": 100, "world_seed": 1},
            "rice": {"dataset": "rice", "n_worlds": 50, "world_seed": 1},
            "budgets": (10, 20, 30),
        },
        "tiny": {
            "syn": {"dataset": "synthetic", "dataset_params": {"n": 120},
                    "n_worlds": 8, "world_seed": 1},
            "rice": {"dataset": "synthetic", "dataset_params": {"n": 150},
                     "dataset_seed": 2, "n_worlds": 6, "world_seed": 1},
            "budgets": (2, 3, 4),
        },
    }

    def __init__(self, seed: int, scale: str = "full", out_dir: Optional[Path] = None):
        self.seed = seed
        params = self.SCALES[scale]
        self.syn = EnsembleSpec(**params["syn"])
        self.rice = EnsembleSpec(**params["rice"])
        self.budgets = params["budgets"]
        self.session = session()
        self.specs: Dict[str, RunSpec] = {}
        self.bytes_peak = 0

    def _block(self, tau: int) -> List[tuple]:
        b10, b20, b30 = self.budgets
        syn, rice = self.syn, self.rice
        slowest = {5: (syn, b30), 10: (rice, b10), 20: (rice, b30)}[tau]
        return (
            [("unfair", spec(syn, "budget", tau, fair=False, budget=b)) for b in (b10, b20, b30) * 2]
            + [("cover", spec(syn, "cover", tau, quota=0.1))] * 8
            + [("unfair-rice", spec(rice, "budget", tau, fair=False, budget=b20))]
            + [("fair-b10", spec(syn, "budget", tau, budget=b10))]
            + [("fair-b20", spec(syn, "budget", tau, budget=b20))] * 3
            + [("fair-slow", spec(slowest[0], "budget", tau, budget=slowest[1]))]
        )

    def cycle(self, index: int) -> List[tuple]:
        """The (class, RunSpec) requests of cycle ``index``, in order."""
        requests = self._block(5) + self._block(10) + self._block(20)
        random.Random(f"{self.seed}:{index}").shuffle(requests)
        return requests

    def inputs(self, cycles: int) -> bytes:
        return json.dumps(
            [[(cls, s.to_dict()) for cls, s in self.cycle(i)] for i in range(cycles)],
            sort_keys=True,
        ).encode("utf-8")

    def setup(self) -> None:
        """Build both ensembles and fill their lazy first-round tables."""
        for ensemble in (self.syn, self.rice):
            self.session.solve(spec(ensemble, "budget", 10, budget=self.budgets[-1]))
        self._sample_bytes()

    def _sample_bytes(self) -> None:
        self.bytes_peak = max(self.bytes_peak, self.session.cache_info["bytes"])

    def run_cycle(self, index: int, recorder=None) -> List[Op]:
        ops = []
        for position, (cls, run) in enumerate(self.cycle(index)):
            key = run.to_json(indent=None)
            self.specs[key] = run
            if recorder is not None:
                recorder.set_op(index * 1000 + position)
            start = time.perf_counter()
            try:
                result = self.session.solve(run)
            except Exception as exc:  # a failed op is counted, not fatal
                ops.append(Op(cls, key, start, time.perf_counter(), None,
                              extra={"error": repr(exc)}))
                continue
            payload = answer(result.to_dict())
            end = time.perf_counter()
            ops.append(Op(cls, key, start, end, digest(payload),
                          seeds=result.seed_count, evaluations=result.evaluations))
            self._sample_bytes()
        if recorder is not None:
            recorder.set_op(None)
        return ops

    def check(self, ops: List[Op]) -> int:
        """Recompute each distinct answered request once in a fresh session."""
        fresh = session()
        reference = {
            key: recompute(lambda: answer(fresh.solve(self.specs[key]).to_dict()))
            for key in dict.fromkeys(op.key for op in ops if op.digest is not None)
        }
        return count_wrong(ops, reference)

    def cache_stats(self) -> Dict[str, float]:
        return cache_stats(self.session.cache_info, self.bytes_peak)

    def close(self) -> None:
        self.session.clear_cache()


# ----------------------------------------------------------------------
# sweep-cold
# ----------------------------------------------------------------------
class SweepCold:
    """One client, ``run_sweep`` on a fresh ``SweepSpec`` per cycle.

    Each sweep has 2 replicates x 4 ensembles (majority share 0.6/0.7 x
    kind worlds/rrset) x 3 budgets = 24 cells, so a third of the cells
    build an ensemble and two thirds reuse the one just built.  Eight
    distinct ensembles per sweep exceed the session's 4-entry LRU.
    Fast to slow: warm rrset, warm worlds (holds the median), cold
    rrset, cold worlds (holds the 90th percentile).

    The sweeps alternate between ``POOL`` fixed sweep seeds, and the
    run's seed only picks which one comes first, so every run builds
    the same graphs and worlds.  A sweep's ensembles are long evicted
    when it comes round again, so its cells still build.
    """

    POOL = 2

    SCALES = {
        "full": {"n": 400, "n_worlds": 30, "theta": 16000, "budgets": [2, 4, 6],
                 "replicates": 2, "sample": 8},
        "tiny": {"n": 80, "n_worlds": 6, "theta": 200, "budgets": [1, 2, 3],
                 "replicates": 1, "sample": 3},
    }
    #: The ensemble-parameter axis: group mix, which barely changes the
    #: edge count, so each class's cells cost about the same.
    GROUP_MIX = [0.6, 0.7]

    def __init__(self, seed: int, scale: str = "full", out_dir: Optional[Path] = None):
        self.seed = seed
        self.params = self.SCALES[scale]
        self.out_dir = Path(out_dir or ".") / "sweeps"
        self.session = session()
        self.sweeps: Dict[int, SweepSpec] = {}
        self.bytes_peak = 0

    def sweep(self, index: int) -> SweepSpec:
        p = self.params
        base = RunSpec(
            ensemble=EnsembleSpec(
                dataset="synthetic",
                dataset_params={"n": p["n"]},
                n_worlds=p["n_worlds"],
            ),
            solver=SolverSpec(problem="budget", deadline=10.0, fair=True,
                              budget=p["budgets"][0]),
            execution=EXECUTION,
        )
        rrset_cells = [
            {"ensemble.kind": "rrset", "ensemble.theta": p["theta"],
             "ensemble.dataset_params.majority_fraction": share, "solver.budget": budget}
            for share in self.GROUP_MIX
            for budget in p["budgets"]
        ]
        return SweepSpec(
            base=base,
            axes={"ensemble.dataset_params.majority_fraction": self.GROUP_MIX,
                  "solver.budget": p["budgets"]},
            cells=rrset_cells,
            replicates=p["replicates"],
            seed=random.Random(f"sweep:{(self.seed + index) % self.POOL}").getrandbits(63),
            baselines=("degree", "random"),
            name=f"bench-{index}",
        )

    def inputs(self, cycles: int) -> bytes:
        return json.dumps(
            [self.sweep(i).to_dict() for i in range(cycles)], sort_keys=True
        ).encode("utf-8")

    def setup(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def run_cycle(self, index: int, recorder=None) -> List[Op]:
        sweep = self.sweep(index)
        self.sweeps[index] = sweep
        ops: List[Op] = []
        last = [time.perf_counter()]

        def progress(cell, row, computed):
            now = time.perf_counter()
            greedy = row["methods"]["greedy"]
            cached = row["timings"]["ensemble_cached"]
            ops.append(Op(
                f"{cell.spec.ensemble.kind}-{'warm' if cached else 'cold'}",
                f"{index}:{row['fingerprint']}",
                last[0], now, digest(deterministic_row(row)),
                seeds=greedy["seed_count"], evaluations=greedy["evaluations"],
            ))
            self.bytes_peak = max(self.bytes_peak, self.session.cache_info["bytes"])
            last[0] = now

        target = self.out_dir / f"sweep-{index}"
        try:
            if recorder is not None:
                recorder.set_op(index)
                recorder.call("sweep.run", run_sweep, sweep, target,
                              session=self.session, progress=progress)
            else:
                run_sweep(sweep, target, session=self.session, progress=progress)
        except Exception as exc:  # the cells left undone are failed ops
            done = {op.key for op in ops}
            for cell in sweep.expand():
                key = f"{index}:{cell.fingerprint()}"
                if key not in done:
                    now = time.perf_counter()
                    ops.append(Op("failed", key, last[0], now, None,
                                  extra={"error": repr(exc)}))
                    last[0] = now
        finally:
            if recorder is not None:
                recorder.set_op(None)
        return ops

    def check(self, ops: List[Op]) -> int:
        """Re-run a seeded sample of cells alone (``run_cell``) and compare
        them, and the rows written to disk, with the in-sweep rows."""
        on_disk: Dict[str, Optional[str]] = {}
        for index in self.sweeps:
            path = self.out_dir / f"sweep-{index}" / "cells.jsonl"
            if not path.is_file():
                continue
            for line in path.read_text(encoding="utf-8").splitlines():
                row = json.loads(line)
                on_disk[f"{index}:{row['fingerprint']}"] = digest(deterministic_row(row))
        answered = sorted(op.key for op in ops if op.digest is not None)
        sample = random.Random(f"{self.seed}:check").sample(
            answered, min(self.params["sample"], len(answered))
        )
        reference = dict(on_disk)
        for key in sample:
            index, fingerprint = key.split(":")
            alone = recompute(lambda: deterministic_row(
                run_cell(self.sweeps[int(index)], fingerprint, session=session())))
            if alone != on_disk.get(key):
                reference[key] = None  # the lone re-run disagrees
        return count_wrong(ops, reference)

    def cache_stats(self) -> Dict[str, float]:
        return cache_stats(self.session.cache_info, self.bytes_peak)

    def close(self) -> None:
        self.session.clear_cache()
        shutil.rmtree(self.out_dir, ignore_errors=True)
