"""Incremental re-solve latency: in-place repair vs from-scratch rebuild.

The streaming story of the incremental layer, measured end to end: a
graph the session has already solved mutates by a handful of edges, and
the next answer can come from (a) ``apply_delta`` — re-threshold the
touched edges' keyed coins, recompute only the distance rows that
reach a re-flipped edge — plus a cold CELF solve, or (b) building a
fresh :class:`WorldEnsemble` on the mutated graph and solving cold.
Both paths produce bit-identical traces (asserted on every repeat, so
the benchmark doubles as an equivalence smoke); only the latency
differs.

Times best-of-``REPEATS`` for 1-, 4- and 16-edge deltas on the default
synthetic SBM and commits the numbers (plus the measured
``os.cpu_count()``) to ``BENCH_incremental.json``.  The committed floor
asserted in CI: on a single-edge delta the repair+cold path beats
rebuild+cold, and on a 4-edge delta (which re-flips nearly every
world) it is no slower — the repair's work scales with the *rows that
reach a re-flipped edge*, the rebuild's with every world.  Regenerate
with::

    PYTHONPATH=src python -m pytest benchmarks/bench_incremental.py
"""

import os
import time
from pathlib import Path

import numpy as np

from conftest import record_bench

from repro.core.concave import log1p
from repro.core.greedy import lazy_greedy
from repro.core.objectives import ConcaveSumObjective
from repro.datasets.synthetic import DEFAULT_DEADLINE, default_synthetic
from repro.graph.delta import GraphDelta
from repro.influence.ensemble import WorldEnsemble

RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_incremental.json"
N_WORLDS = 32
WORLD_SEED = 9
BUDGET = 8
DELTA_SIZES = (1, 4, 16)
REPEATS = 3


def make_delta(graph, size: int) -> GraphDelta:
    """A deterministic ``size``-edge delta: removes, inserts, reweights."""
    rng = np.random.default_rng(size)
    # Remove the *highest-probability* edges: they are live in the most
    # worlds, so the delta actually dirties worlds instead of touching
    # coins that never landed.
    by_probability = sorted(graph.edges(), key=lambda e: (-e[2], e[0], e[1]))
    present = sorted((u, v) for u, v, _ in graph.edges())
    nodes = graph.nodes()
    n_removes = max(1, size // 3) if size > 1 else 1
    n_inserts = (size - n_removes) // 2
    n_reweights = size - n_removes - n_inserts
    removes = tuple((u, v) for u, v, _ in by_probability[:n_removes])
    rest = [e for e in present if e not in removes]
    picks = rng.choice(len(rest), size=n_reweights, replace=False)
    reweights = tuple(
        (*rest[int(i)], float(rng.uniform(0.01, 0.99))) for i in picks
    )
    inserts = []
    while len(inserts) < n_inserts:
        u, v = (nodes[int(i)] for i in rng.choice(len(nodes), 2, replace=False))
        if not graph.has_edge(u, v) and (u, v) not in [e[:2] for e in inserts]:
            inserts.append((u, v, float(rng.uniform(0.01, 0.99))))
    return GraphDelta(inserts=tuple(inserts), removes=removes, reweights=reweights)


def test_repair_vs_rebuild_latency():
    points = []
    graph0, _ = default_synthetic(seed=0)
    record_bench(
        "graph",
        {
            "dataset": "default_synthetic(seed=0)",
            "nodes": graph0.number_of_nodes(),
            "directed_edges": graph0.number_of_edges(),
            "n_worlds": N_WORLDS,
            "budget": BUDGET,
            "deadline": DEFAULT_DEADLINE,
            "cpu_count": os.cpu_count(),
        },
        path=RESULTS_PATH,
    )

    for size in DELTA_SIZES:
        repair_best = rebuild_best = float("inf")
        repaired_worlds = None
        for _ in range(REPEATS):
            # --- repair + cold path: ensemble already built and solved.
            graph, assignment = default_synthetic(seed=0)
            delta = make_delta(graph, size)
            ensemble = WorldEnsemble(
                graph, assignment, n_worlds=N_WORLDS, seed=WORLD_SEED
            )
            objective = ConcaveSumObjective(log1p, ensemble.group_sizes)
            lazy_greedy(ensemble, objective, DEFAULT_DEADLINE, max_seeds=BUDGET)
            started = time.perf_counter()
            report = ensemble.apply_delta(delta)
            repaired = lazy_greedy(
                ensemble, objective, DEFAULT_DEADLINE, max_seeds=BUDGET
            )
            repair_best = min(repair_best, time.perf_counter() - started)
            repaired_worlds = report.repaired_worlds

            # --- rebuild + cold path on the equivalently mutated graph.
            graph2, assignment2 = default_synthetic(seed=0)
            started = time.perf_counter()
            graph2.apply_delta(delta)
            fresh = WorldEnsemble(
                graph2, assignment2, n_worlds=N_WORLDS, seed=WORLD_SEED
            )
            cold = lazy_greedy(
                fresh,
                ConcaveSumObjective(log1p, fresh.group_sizes),
                DEFAULT_DEADLINE,
                max_seeds=BUDGET,
            )
            rebuild_best = min(rebuild_best, time.perf_counter() - started)

            # Equivalence on every repeat: the same trace, step by step.
            assert repaired.seeds == cold.seeds
            for mine, theirs in zip(repaired.steps, cold.steps):
                assert mine.gain == theirs.gain
                assert mine.evaluations == theirs.evaluations
                np.testing.assert_array_equal(
                    mine.group_utilities, theirs.group_utilities
                )

        points.append(
            {
                "delta_edges": size,
                "repair_s": round(repair_best, 6),
                "rebuild_cold_s": round(rebuild_best, 6),
                "speedup": round(rebuild_best / repair_best, 2),
                "repaired_worlds": repaired_worlds,
                "n_worlds": N_WORLDS,
            }
        )

    record_bench(
        "repair_vs_rebuild",
        {"repeats": REPEATS, "points": points},
        path=RESULTS_PATH,
    )

    # The floors: a single-edge delta must re-solve faster via repair +
    # cold solve than via rebuild + cold solve, and a 4-edge delta —
    # which re-flips nearly every world — must be no slower, because
    # repair re-runs BFS only for the rows that reach a re-flipped edge.
    single, four = points[0], points[1]
    assert single["repair_s"] < single["rebuild_cold_s"], (
        f"single-edge repair {single['repair_s']}s did not beat "
        f"rebuild {single['rebuild_cold_s']}s"
    )
    assert four["repair_s"] <= four["rebuild_cold_s"], (
        f"4-edge repair {four['repair_s']}s is slower than "
        f"rebuild {four['rebuild_cold_s']}s"
    )
