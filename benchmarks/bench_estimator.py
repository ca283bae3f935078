"""Micro-benchmarks for the influence-estimation hot paths.

These are the operations the greedy solvers call thousands of times;
their cost profile is what makes paper-scale sweeps tractable:

- ensemble construction (world sampling + reach index, once per
  experiment);
- full utility evaluation of a seed set (once per accepted seed);
- a marginal-gain query (the CELF inner loop).

The memory-footprint test additionally *asserts* the reach index's
core promise (the whole ensemble must hold under a tenth of the dense
``R x C x n`` tensor on the synthetic benchmark graph) and records the
measured footprints in ``BENCH_estimator.json`` next to this file.

The cold-build test times the two builds a cold request pays for — the
reach index (``store_build``) and one horizon's RR index
(``rr_index_build``) — against the code they replaced: a dense
``uint8`` frontier BFS scanned world by world for its finite entries,
and an RR sampler that scans a dense ``visited`` matrix.  It asserts
equal outputs and that the new builds are no slower (the CI floor),
and records both in the same JSON with ``cpu_count``.

The cold-path test does the same for the two steps before those builds:
the 400-node synthetic SBM built from edge arrays (``graph_build``)
against the edge-by-edge construction it replaced, and every world of
an ensemble sampled in one keyed pass (``world_sampling``) against one
keyed draw and COO-to-CSR conversion per world.
"""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from conftest import best_of, record_bench
from repro.api.datasets import build_dataset
from repro.datasets.synthetic import default_synthetic
from repro.diffusion.worlds import (
    ic_world_key,
    keyed_edge_uniforms,
    sample_ic_worlds,
    sample_worlds,
)
from repro.graph.digraph import DiGraph
from repro.graph.generators import two_block_sbm
from repro.graph.groups import GroupAssignment
from repro.diffusion.worlds import UNREACHABLE
from repro.influence import rrsets
from repro.influence.backends import (
    FRONTIER_CHUNK_BYTES,
    FRONTIER_EDGE_BYTES,
    compact_uint,
    concat_ranges,
    flat_index_dtype,
)
from repro.influence.ensemble import (
    WorldEnsemble,
    assemble_reach,
    make_backend,
    table_dtype,
    time_table,
)

RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_estimator.json"


@pytest.fixture(scope="module")
def dataset():
    return default_synthetic(seed=0)


@pytest.fixture(scope="module")
def ensemble(dataset):
    graph, assignment = dataset
    return WorldEnsemble(graph, assignment, n_worlds=100, seed=1)


def test_ensemble_construction(benchmark, dataset):
    graph, assignment = dataset

    def build():
        return WorldEnsemble(graph, assignment, n_worlds=50, seed=2)

    result = benchmark(build)
    assert result.n_worlds == 50


def test_state_construction_30_seeds(benchmark, ensemble):
    seeds = ensemble.candidate_labels[:30]
    state = benchmark(ensemble.state_for, seeds)
    assert state.size == 30


def test_group_utility_evaluation(benchmark, ensemble):
    state = ensemble.state_for(ensemble.candidate_labels[:30])
    utilities = benchmark(ensemble.group_utilities, state, 20)
    assert utilities.sum() > 0


def test_marginal_gain_query(benchmark, ensemble):
    state = ensemble.state_for(ensemble.candidate_labels[:10])
    utilities = benchmark(
        ensemble.candidate_group_utilities, state, 450, 20
    )
    assert utilities.sum() >= 0


def test_infinite_deadline_evaluation(benchmark, ensemble):
    state = ensemble.state_for(ensemble.candidate_labels[:5])
    total = benchmark(ensemble.total_utility, state, math.inf)
    assert total >= 5


def test_index_memory_footprint(dataset):
    """The reach index's reason to exist, asserted and recorded.

    On the synthetic SBM (p_e = 0.05, reach is tiny relative to n) the
    whole ensemble — index plus worlds — must hold under a tenth of the
    ``R x C x n`` bytes the dense ``uint8`` tensor took.  Footprints go
    to ``BENCH_estimator.json`` so regressions are visible in review
    diffs.
    """
    graph, assignment = dataset
    n_worlds = 100
    ensemble = WorldEnsemble(graph, assignment, n_worlds=n_worlds, seed=1)
    dense = n_worlds * ensemble.n_candidates * ensemble.n
    footprints = {
        "dense_tensor": dense,
        "index": ensemble.memory_bytes(),
        "worlds": sum(world.nbytes for world in ensemble.worlds),
        "ensemble": ensemble.nbytes,
    }
    assert footprints["ensemble"] < dense / 10, (
        f"ensemble {footprints['ensemble']}B vs dense tensor {dense}B — "
        "the O(entries) promise regressed"
    )
    record = {
        "graph": {
            "nodes": graph.number_of_nodes(),
            "directed_edges": graph.number_of_edges(),
            "dataset": "default_synthetic(seed=0)",
        },
        "n_worlds": n_worlds,
        "index_entries": int(ensemble._oracle.reach.flat.size),
        "memory_bytes": footprints,
        "ensemble_over_dense": round(footprints["ensemble"] / dense, 6),
    }
    for key, value in record.items():
        record_bench(key, value, RESULTS_PATH)


def _dense_frontier_rows(worlds, world, source):
    """The frontier BFS before the reach index was its store: the same
    level loop, with a ``uint8 (rows, n)`` output that doubles as the
    visited set."""
    n = worlds[0].n
    out = np.full((world.size, n), UNREACHABLE, dtype=np.uint8)
    out[np.arange(world.size), source] = 0
    ids, local = np.unique(world, return_inverse=True)
    named = [worlds[int(r)] for r in ids]
    edge_offsets = np.cumsum([0] + [w.indices.size for w in named])
    indptr = np.concatenate(
        [np.zeros(1, dtype=np.int64)]
        + [w.indptr[1:] + offset for w, offset in zip(named, edge_offsets)]
    )
    indices = np.concatenate([w.indices for w in named])
    spent = np.cumsum((np.diff(edge_offsets)[local] + 1) * FRONTIER_EDGE_BYTES)
    hops, base = out.reshape(-1), local * n
    lo = 0
    while lo < world.size:
        budget = FRONTIER_CHUNK_BYTES + (spent[lo - 1] if lo else 0)
        hi = max(lo + 1, int(np.searchsorted(spent, budget, side="right")))
        rows, nodes = np.arange(lo, hi, dtype=np.int64), source[lo:hi]
        level = 0
        while rows.size:
            level += 1
            at = base[rows] + nodes
            starts, ends = indptr[at], indptr[at + 1]
            flat = np.repeat(rows, ends - starts) * n + indices[concat_ranges(starts, ends)]
            flat = np.unique(flat[hops[flat] == UNREACHABLE])
            hops[flat] = min(level, UNREACHABLE - 1)
            rows, nodes = np.divmod(flat, n)
        lo = hi
    return out


def _dense_then_scan_index(worlds, candidates, group_index, k):
    """The reach index as it was built before: the dense ``D[r, c, v]``
    tensor, scanned world by world for its finite entries, stably
    sorted by candidate, then assembled as the index build does."""
    n_worlds, n_candidates, n = len(worlds), candidates.size, worlds[0].n
    dense = _dense_frontier_rows(
        worlds, np.repeat(np.arange(n_worlds), n_candidates), np.tile(candidates, n_worlds)
    ).reshape(n_worlds, n_candidates, n)
    owners, flats, times = [], [], []
    for r in range(n_worlds):
        world = dense[r].reshape(-1)
        idx = np.flatnonzero(world != UNREACHABLE)
        c_idx, v_idx = np.divmod(idx, n)
        owners.append(c_idx.astype(compact_uint(n_candidates)))
        flats.append((v_idx + r * n).astype(flat_index_dtype(n_worlds, n)))
        times.append(world[idx])
    owner, flat, time = (np.concatenate(part) for part in (owners, flats, times))
    order = np.argsort(owner, kind="stable")
    owner, flat, time = owner[order], flat[order], time[order]
    offsets = np.zeros(n_candidates + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n_candidates), out=offsets[1:])
    group = group_index[flat % n].astype(compact_uint(k))
    n_bins = int(time.max()) + 1 if time.size else 1
    table = time_table(owner, n_candidates, group, time, k, n_bins)
    table = table.astype(table_dtype(n_worlds, n))
    return assemble_reach(offsets, flat, time, group, table, n_worlds * n, k)


def _dense_visited_rr_batch(
    rev_indptr, rev_indices, rev_data, targets, depth_cap, rng, n
):
    """The RR batch sampler before the frontier change: the same level
    loop, ending in one ``np.nonzero`` scan of the ``(batch, n)``
    ``visited`` matrix (tests/test_frontier.py pins the equality)."""
    batch = int(targets.size)
    visited = np.zeros((batch, n), dtype=bool)
    frontier_sets = np.arange(batch, dtype=np.int64)
    frontier_nodes = targets.astype(np.int64)
    visited[frontier_sets, frontier_nodes] = True
    depth = 0
    while frontier_nodes.size and depth < depth_cap:
        depth += 1
        starts = rev_indptr[frontier_nodes]
        counts = rev_indptr[frontier_nodes + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        segment = np.repeat(np.arange(frontier_nodes.size), counts)
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        edges = starts[segment] + offsets
        fires = rng.random(total) < rev_data[edges]
        hit_sets = frontier_sets[segment][fires]
        hit_nodes = rev_indices[edges][fires]
        if hit_nodes.size == 0:
            break
        fresh = ~visited[hit_sets, hit_nodes]
        hit_sets, hit_nodes = hit_sets[fresh], hit_nodes[fresh]
        if hit_nodes.size == 0:
            break
        codes = np.unique(hit_sets * np.int64(n) + hit_nodes)
        hit_sets, hit_nodes = codes // n, codes % n
        visited[hit_sets, hit_nodes] = True
        frontier_sets, frontier_nodes = hit_sets, hit_nodes
    set_ids, nodes = np.nonzero(visited)
    return set_ids.astype(np.int64), nodes.astype(np.int64)


#: Cold-build cases: perfbench's sweep-cold graph shape and the two
#: solve-warm ensembles.  RR indexes use sweep-cold's theta and horizon.
COLD_CASES = (
    ("synthetic-400", "synthetic", {"n": 400}, 30),
    ("synthetic-500", "synthetic", {}, 100),
    ("rice-1205", "rice", {}, 50),
)
RR_THETA, RR_HORIZON = 16000, 10


def test_cold_builds_frontier_vs_reference(monkeypatch):
    """Frontier store and RR-index builds: equal outputs, no slower."""
    record = {"cpu_count": os.cpu_count(), "repeats": 5}
    for name, dataset, params, n_worlds in COLD_CASES:
        graph, assignment = build_dataset(dataset, params, 0)
        n = graph.number_of_nodes()
        worlds = sample_worlds(graph, n_worlds, seed=1)
        candidates = np.arange(n)

        group_index = assignment.masks(graph).argmax(axis=0).astype(np.int64)
        k = len(assignment.groups)

        def reference_store():
            return _dense_then_scan_index(worlds, candidates, group_index, k)

        def frontier_store():
            return make_backend(worlds, candidates, group_index, k, 10**12)

        for mine, theirs in zip(frontier_store(), reference_store()):
            assert mine.dtype == theirs.dtype
            np.testing.assert_array_equal(mine, theirs)
        store = {
            "reference_s": round(best_of(reference_store, 5), 6),
            "frontier_s": round(best_of(frontier_store, 5), 6),
        }

        estimator = rrsets.RRSetEstimator(graph, assignment, theta=RR_THETA, seed=1)

        def rr_index():
            return estimator._build_index(RR_HORIZON)

        frontier_index = rr_index()
        rr = {"frontier_s": round(best_of(rr_index, 5), 6)}
        with monkeypatch.context() as patch:
            patch.setattr(rrsets, "_sample_rr_batch", _dense_visited_rr_batch)
            reference_index = rr_index()
            rr["reference_s"] = round(best_of(rr_index, 5), 6)
        np.testing.assert_array_equal(frontier_index.set_group, reference_index.set_group)
        for mine, theirs in zip(frontier_index.oracle.reach, reference_index.oracle.reach):
            assert mine.dtype == theirs.dtype
            np.testing.assert_array_equal(mine, theirs)
        for section in (store, rr):
            section["speedup"] = round(section["reference_s"] / section["frontier_s"], 2)
            assert section["frontier_s"] <= section["reference_s"], (name, section)
        record[name] = {
            "nodes": n,
            "n_worlds": n_worlds,
            "store_build": store,
            "rr_index_build": rr,
        }
    record_bench("cold_builds", record, RESULTS_PATH)


def _edge_by_edge_two_block_sbm(n, majority_fraction, p_hom, p_het, activation, seed):
    """The SBM build before bulk construction: every upper-triangle pair
    tested against its probability, each kept pair inserted by
    ``add_undirected_edge`` (tests/test_properties.py pins the equality)."""
    n1 = min(max(int(round(n * majority_fraction)), 1), n - 1)
    block_of = np.repeat(np.arange(2), [n1, n - n1])
    rng = np.random.default_rng(seed)
    graph = DiGraph(default_probability=activation)
    for node in range(n):
        graph.add_node(node, group=("G1", "G2")[block_of[node]])
    iu, ju = np.triu_indices(n, k=1)
    p_pair = np.where(block_of[iu] == block_of[ju], p_hom, p_het)
    keep = rng.random(iu.shape[0]) < p_pair
    for u, v in zip(iu[keep].tolist(), ju[keep].tolist()):
        graph.add_undirected_edge(u, v)
    return graph, GroupAssignment.from_graph(graph)


def _per_world_coo(graph, keys):
    """World sampling before the batched pass: one keyed draw and one
    COO-to-CSR conversion per world."""
    n = graph.number_of_nodes()
    src, dst, prob = graph.edge_arrays()
    worlds = []
    for key in keys:
        keep = keyed_edge_uniforms(key, src, dst, n) < prob
        data = np.ones(int(keep.sum()), dtype=np.int8)
        worlds.append(sparse.csr_matrix((data, (src[keep], dst[keep])), shape=(n, n)))
    return worlds


#: Cold-path cases: sweep-cold's graph shape, whose build the sweep pays
#: per ensemble, and the rice surrogate, whose 85k edges take the
#: chunked sampling path.
SBM_ARGS = (400, 0.7, 0.025, 0.001, 0.05)
SAMPLING_CASES = (("synthetic-400", "synthetic", {"n": 400}, 30), ("rice-1205", "rice", {}, 50))


def test_cold_path_bulk_vs_reference():
    """Bulk SBM build and all-worlds sampling: equal outputs, no slower."""
    record = {"cpu_count": os.cpu_count(), "repeats": 5}
    bulk, _ = two_block_sbm(*SBM_ARGS, seed=0)
    reference, _ = _edge_by_edge_two_block_sbm(*SBM_ARGS, seed=0)
    assert bulk.nodes() == reference.nodes()
    assert bulk.group_labels_array() == reference.group_labels_array()
    for mine, theirs in zip(bulk.edge_arrays(), reference.edge_arrays()):
        np.testing.assert_array_equal(mine, theirs)
    assert list(bulk.edges()) == list(reference.edges())
    build = {
        "nodes": SBM_ARGS[0],
        "directed_edges": reference.number_of_edges(),
        "reference_s": round(best_of(lambda: _edge_by_edge_two_block_sbm(*SBM_ARGS, seed=0), 5), 6),
        "bulk_s": round(best_of(lambda: two_block_sbm(*SBM_ARGS, seed=0), 5), 6),
    }
    build["speedup"] = round(build["reference_s"] / build["bulk_s"], 2)
    assert build["bulk_s"] <= build["reference_s"], build
    record["graph_build"] = build

    sampling = {}
    for name, dataset, params, n_worlds in SAMPLING_CASES:
        graph, _ = build_dataset(dataset, params, 0)
        keys = [ic_world_key(child) for child in np.random.default_rng(1).spawn(n_worlds)]
        for r, (world, expected) in enumerate(
            zip(sample_ic_worlds(graph, keys), _per_world_coo(graph, keys))
        ):
            for field in ("indptr", "indices"):
                mine, theirs = getattr(world, field), getattr(expected, field)
                np.testing.assert_array_equal(mine, theirs, err_msg=f"{name} {r} {field}")
                assert mine.dtype == theirs.dtype, (name, r, field)
        case = {
            "n_worlds": n_worlds,
            "directed_edges": graph.number_of_edges(),
            "reference_s": round(best_of(lambda: _per_world_coo(graph, keys), 5), 6),
            "batched_s": round(best_of(lambda: sample_ic_worlds(graph, keys), 5), 6),
        }
        case["speedup"] = round(case["reference_s"] / case["batched_s"], 2)
        assert case["batched_s"] <= case["reference_s"], (name, case)
        sampling[name] = case
    record["world_sampling"] = sampling
    record_bench("cold_path", record, RESULTS_PATH)
