"""Process-scaling smoke for shared-memory world construction.

Times ensemble *construction* — live-edge sampling plus distance-store
builds, the path threads cannot speed up (numpy/scipy glue holds the
GIL) — serially and process-sharded at 1, 2 and 4 build workers, for
the dense and sparse stores, plus one larger sparse point (a 2,000-node
SBM, 100 worlds, 1 and 2 build workers) where sharding has real work to
split.  The numbers (plus the measured ``os.cpu_count()``, without
which a scaling ratio is meaningless) go to ``BENCH_procbuild.json``.

Peak RSS is recorded from ``resource.getrusage``: the parent's
high-water mark (``RUSAGE_SELF``) plus the reaped build workers'
(``RUSAGE_CHILDREN``).  Both are process-lifetime maxima, so the
committed numbers describe the whole benchmark run honestly rather than
pretending to per-variant deltas.

Every timed build also asserts bit-identical worlds and stores across
process counts, so the benchmark doubles as an end-to-end determinism
smoke.  The hard floor asserted in CI is only robustness ("process sharding is never a catastrophic
pessimisation"): on a single-core container, fork + pickle overhead is
all a pool can add, so real speedups are recorded, not asserted.
Regenerate on quiet multi-core hardware with::

    PYTHONPATH=src python -m pytest benchmarks/bench_procbuild.py --benchmark-disable
"""

import os
import resource
from pathlib import Path

import numpy as np
import pytest

from conftest import best_of, record_bench

from repro.datasets.synthetic import (
    DEFAULT_DEADLINE,
    DEFAULT_N,
    DEFAULT_P_HET,
    DEFAULT_P_HOM,
    default_synthetic,
    synthetic_sbm,
)
from repro.influence.ensemble import WorldEnsemble

PROCBUILD_RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_procbuild.json"
N_WORLDS = 24
BUILD_COUNTS = (1, 2, 4)

#: The larger sparse point: the default SBM grown to this many nodes
#: with ``p_hom`` / ``p_het`` scaled down by the same factor, so the
#: mean degree (and hence each world's density) stays the paper's.
SCALE_NODES = 2000
SCALE_WORLDS = 100
SCALE_BUILD_COUNTS = (1, 2)

#: CI floor: a process-sharded build may lose at most this factor to
#: serial.  Lax on purpose — every extra process
#: pays a real fork + graph-pickle toll that a single-core runner can
#: never win back.
MAX_SLOWDOWN = 3.0


def _rss_kb():
    return {
        "parent_peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_peak_rss_kb": resource.getrusage(
            resource.RUSAGE_CHILDREN
        ).ru_maxrss,
    }


@pytest.fixture(scope="module", autouse=True)
def graph_section():
    graph, assignment = default_synthetic(seed=0)
    record_bench(
        "graph",
        {
            "dataset": "default_synthetic(seed=0)",
            "nodes": graph.number_of_nodes(),
            "directed_edges": graph.number_of_edges(),
            "n_worlds": N_WORLDS,
            "cpu_count": os.cpu_count(),
        },
        path=PROCBUILD_RESULTS_PATH,
    )
    return graph, assignment


def _scaling_points(graph, assignment, backend, n_worlds, build_counts):
    """Time one full build per build-worker count, check each against
    the serial build bit for bit, and enforce the ``MAX_SLOWDOWN``
    floor."""
    rows = []
    reference = None
    serial_s = None
    for build_workers in build_counts:

        def build():
            ensemble = WorldEnsemble(
                graph,
                assignment,
                n_worlds=n_worlds,
                seed=5,
                backend=backend,
                build_workers=build_workers,
            )
            ensemble.close()
            return ensemble

        # Identity check outside the timed loop: worlds and a probe
        # utility must match the serial build bit for bit.
        ensemble = WorldEnsemble(
            graph,
            assignment,
            n_worlds=n_worlds,
            seed=5,
            backend=backend,
            build_workers=build_workers,
        )
        assert ensemble.build_workers_used == build_workers
        state = ensemble.state_for(ensemble.candidate_labels[:4])
        utilities = ensemble.group_utilities(state, DEFAULT_DEADLINE)
        if reference is None:
            reference = utilities
        else:
            np.testing.assert_array_equal(utilities, reference)
        ensemble.close()

        elapsed = best_of(build, repeats=2)
        if serial_s is None:
            serial_s = elapsed
        rows.append(
            {
                "build_workers": build_workers,
                "time_s": round(elapsed, 6),
                "speedup": round(serial_s / elapsed, 2),
                **_rss_kb(),
            }
        )
    worst = min(row["speedup"] for row in rows)
    assert worst >= 1.0 / MAX_SLOWDOWN, (
        f"process-sharded {backend} build catastrophically slower than "
        f"serial: {rows}"
    )
    return rows


@pytest.mark.parametrize("backend", ("dense", "sparse"))
def test_construction_process_scaling(graph_section, backend):
    """Serial vs process-sharded build of one full distance store."""
    graph, assignment = graph_section
    rows = _scaling_points(graph, assignment, backend, N_WORLDS, BUILD_COUNTS)
    record_bench(
        f"{backend}_build_process_scaling",
        {"backend": backend, "n_worlds": N_WORLDS, "points": rows},
        path=PROCBUILD_RESULTS_PATH,
    )


def test_sparse_build_scaling_at_2000_nodes():
    """The sparse store on a 2,000-node SBM: enough BFS work per world
    for build processes to win back their fork + pickle toll."""
    scale = DEFAULT_N / SCALE_NODES
    graph, assignment = synthetic_sbm(
        n=SCALE_NODES,
        p_hom=DEFAULT_P_HOM * scale,
        p_het=DEFAULT_P_HET * scale,
        seed=0,
    )
    rows = _scaling_points(
        graph, assignment, "sparse", SCALE_WORLDS, SCALE_BUILD_COUNTS
    )
    record_bench(
        "sparse_2000_build_process_scaling",
        {
            "backend": "sparse",
            "dataset": (
                f"synthetic_sbm(n={SCALE_NODES}, p_hom={DEFAULT_P_HOM * scale}, "
                f"p_het={DEFAULT_P_HET * scale}, seed=0)"
            ),
            "nodes": graph.number_of_nodes(),
            "directed_edges": graph.number_of_edges(),
            "n_worlds": SCALE_WORLDS,
            "cpu_count": os.cpu_count(),
            "points": rows,
        },
        path=PROCBUILD_RESULTS_PATH,
    )
