"""The frontier BFS behind the reach index and the RR sampler.

``bfs_rows`` must emit exactly the finite entries of scipy's csgraph
BFS (``LiveEdgeWorld.distances_from``, the public reference), in key
order, however its rows are chunked; the reach index built from it must
equal the index the reference's distance tensor gives, array for array
and dtype for dtype; an index over its byte limit must fail before its
entries are assembled; and ``_sample_rr_batch`` must return exactly
what the dense ``visited`` scan returned, from the same RNG draws.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.datasets.synthetic import default_synthetic
from repro.diffusion.worlds import UNREACHABLE, LiveEdgeWorld
from repro.errors import ConfigError
from repro.influence import backends
from repro.influence import ensemble as ensemble_module
from repro.influence.backends import bfs_rows
from repro.influence.ensemble import ReachOracle, WorldEnsemble, make_backend
from repro.influence.rrsets import _sample_rr_batch

from stores import assert_stops_bound_in_time, rows_from_entries

PROPERTY = settings(max_examples=60, deadline=None)


def make_world(n, src, dst):
    """The world keeping edges ``src[i] -> dst[i]`` (duplicates merged),
    its arrays taken from scipy's COO-to-CSR conversion."""
    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    adjacency = sparse.csr_matrix(
        (np.ones(src.size, dtype=np.int8), (src, dst)), shape=(n, n)
    )
    return LiveEdgeWorld(n=n, indptr=adjacency.indptr, indices=adjacency.indices)


@st.composite
def worlds_and_rows(draw, max_n=24, max_worlds=4):
    """A few worlds on one node set (some possibly edgeless) and a list
    of ``(world, source)`` rows, duplicates allowed."""
    n = draw(st.integers(1, max_n))
    n_worlds = draw(st.integers(1, max_worlds))
    worlds = []
    for _ in range(n_worlds):
        m = draw(st.integers(0, 4 * n))
        src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
        dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
        worlds.append(make_world(n, src, dst))
    rows = draw(
        st.lists(
            st.tuples(st.integers(0, n_worlds - 1), st.integers(0, n - 1)),
            max_size=12,
        )
    )
    world = np.asarray([r for r, _ in rows], dtype=np.int64)
    source = np.asarray([s for _, s in rows], dtype=np.int64)
    return worlds, world, source


def reference_rows(worlds, world, source):
    n = worlds[0].n
    out = np.empty((world.size, n), dtype=np.uint8)
    for i, (r, s) in enumerate(zip(world.tolist(), source.tolist())):
        out[i] = worlds[r].distances_from([s])[0]
    return out


def reference_entries(rows):
    """The finite entries of ``(rows, n)`` distances, as ``bfs_rows``
    lists them: ``row * n + v`` ascending, with the hop."""
    key = np.flatnonzero(rows.reshape(-1) != UNREACHABLE)
    return key, rows.reshape(-1)[key]


def assert_entries(got, want):
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
    assert got[0].dtype == np.int64 and got[1].dtype == np.uint8


class TestBfsRows:
    @PROPERTY
    @given(worlds_and_rows())
    def test_equals_csgraph_per_world(self, case):
        worlds, world, source = case
        got = bfs_rows(worlds, world, source)
        assert_entries(got, reference_entries(reference_rows(worlds, world, source)))

    @PROPERTY
    @given(worlds_and_rows(), st.integers(0, 2000))
    def test_chunking_never_changes_rows(self, case, chunk_bytes):
        worlds, world, source = case
        want = bfs_rows(worlds, world, source)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(backends, "FRONTIER_CHUNK_BYTES", chunk_bytes)
            assert_entries(bfs_rows(worlds, world, source), want)

    def test_long_chain_clips_at_254(self):
        n = 300
        chain = make_world(n, np.arange(n - 1), np.arange(1, n))
        sources = np.array([0, 0, 40, n - 1])
        got = rows_from_entries(
            *bfs_rows([chain], np.zeros(4, dtype=np.int64), sources), 4, n
        )
        np.testing.assert_array_equal(got, chain.distances_from(sources))
        assert got[0, 254] == got[0, n - 1] == UNREACHABLE - 1
        assert got[2, 39] == UNREACHABLE and got[3, n - 1] == 0

    def test_edgeless_worlds_and_no_rows(self):
        empty = make_world(5, [], [])
        key, hop = bfs_rows([empty, empty], np.array([1, 0, 1]), np.array([2, 2, 4]))
        np.testing.assert_array_equal(key, [2, 7, 14])
        np.testing.assert_array_equal(hop, [0, 0, 0])
        key, hop = bfs_rows([empty], np.array([], dtype=np.int64), np.array([]))
        assert key.size == hop.size == 0

    @PROPERTY
    @given(worlds_and_rows())
    def test_world_mapping_like_a_repair(self, case):
        # Repairs may pass a {world index: world} mapping.
        worlds, world, source = case
        keyed = {3 * r + 1: w for r, w in reversed(list(enumerate(worlds)))}
        assert_entries(
            bfs_rows(keyed, 3 * world + 1, source),
            reference_entries(reference_rows(worlds, world, source)),
        )

    @PROPERTY
    @given(worlds_and_rows(), st.integers(0, 40))
    def test_entry_cap_stops_the_bfs(self, case, cap):
        worlds, world, source = case
        want = reference_entries(reference_rows(worlds, world, source))
        got = bfs_rows(worlds, world, source, max_entries=cap)
        if want[0].size > cap:
            assert got is None
        else:
            assert_entries(got, want)


@st.composite
def worlds_and_candidates(draw):
    worlds, _, _ = draw(worlds_and_rows(max_n=20, max_worlds=3))
    n = worlds[0].n
    candidates = draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    )
    k = draw(st.integers(1, 3))
    groups = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return worlds, np.asarray(candidates, dtype=np.int64), np.asarray(groups), k


class TestStores:
    @PROPERTY
    @given(worlds_and_candidates())
    def test_dense_store(self, case):
        # The index's entries, candidate by candidate, are exactly the
        # finite cells of the dense ``D[r, c, v]`` tensor.
        worlds, candidates, groups, k = case
        reach = make_backend(worlds, candidates, groups, k, 10**9)
        n, n_worlds = worlds[0].n, len(worlds)
        dense = np.stack([w.distances_from(candidates) for w in worlds])
        for position in range(candidates.size):
            flat, time, group = reach.entries(position)
            rows = np.full(n_worlds * n, UNREACHABLE, dtype=np.uint8)
            rows[flat] = time
            np.testing.assert_array_equal(rows.reshape(n_worlds, n), dense[:, position])
            np.testing.assert_array_equal(flat, np.sort(flat))
            np.testing.assert_array_equal(group, groups[flat % n])

    @PROPERTY
    @given(worlds_and_candidates())
    def test_sparse_store(self, case):
        # Every derived array equals what the reference tensor gives.
        worlds, candidates, groups, k = case
        reach = make_backend(worlds, candidates, groups, k, 10**9)
        n, n_worlds, n_candidates = worlds[0].n, len(worlds), candidates.size
        dense = np.stack([w.distances_from(candidates) for w in worlds])
        c_idx, r_idx, v_idx = np.nonzero(dense.transpose(1, 0, 2) != UNREACHABLE)
        time = dense[r_idx, c_idx, v_idx]
        flat = r_idx * n + v_idx
        np.testing.assert_array_equal(
            reach.offsets, np.searchsorted(c_idx, np.arange(n_candidates + 1))
        )
        np.testing.assert_array_equal(reach.flat, flat)
        np.testing.assert_array_equal(reach.time, time)
        assert reach.offsets.dtype == np.int64 and reach.flat.dtype == np.int32
        assert reach.time.dtype == np.uint8
        n_bins = int(time.max()) + 1 if time.size else 1
        table = np.zeros((n_candidates, k, n_bins), dtype=np.int64)
        np.add.at(table, (c_idx, groups[v_idx], time), 1)
        np.testing.assert_array_equal(reach.table, np.cumsum(table, axis=2))
        # The transpose is ordered by (node, time), owners ascending
        # among a node's equal times.
        order = np.lexsort((time, flat))
        np.testing.assert_array_equal(reach.node_code, (c_idx * k + groups[v_idx])[order])
        np.testing.assert_array_equal(reach.node_time, time[order])
        np.testing.assert_array_equal(
            reach.node_starts,
            np.searchsorted(flat[order], np.arange(n_worlds * n + 1)),
        )


    @PROPERTY
    @given(worlds_and_candidates())
    def test_stops_bound_in_time_entries(self, case):
        worlds, candidates, groups, k = case
        reach = make_backend(worlds, candidates, groups, k, 10**9)
        oracle = ReachOracle(reach, groups, k)
        assert_stops_bound_in_time(oracle)
        # Stops before the last finite time are cached and counted.
        cached = sum(
            oracle.stops(cutoff).nbytes for cutoff in range(reach.table.shape[2] - 1)
        )
        assert oracle.nbytes == reach.nbytes + cached


def test_dense_build_memory_stays_within_output_plus_chunk_cap():
    """On a p = 1 graph every row reaches every node, so each row's BFS
    gathers all kept edges and emits ``n`` entries; chunking must still
    bound the transient to the entries' own bytes plus the chunk cap."""
    n, n_worlds = 150, 4
    rng = np.random.default_rng(0)
    src = np.concatenate([np.arange(n - 1), rng.integers(0, n, 6 * n)])
    dst = np.concatenate([np.arange(1, n), rng.integers(0, n, 6 * n)])
    src = np.append(src, n - 1)
    dst = np.append(dst, 0)  # close the ring: everything reaches everything
    world = make_world(n, src, dst)
    worlds = [world] * n_worlds
    rows = n_worlds * n
    kept = world.indices.size
    cap = 256 * 1024
    # The cap must force many chunks, or the test shows nothing.
    assert rows * (kept + 1) * backends.FRONTIER_EDGE_BYTES > 8 * cap
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backends, "FRONTIER_CHUNK_BYTES", cap)
        tracemalloc.start()
        try:
            key, hop = bfs_rows(
                worlds, np.repeat(np.arange(n_worlds), n), np.tile(np.arange(n), n_worlds)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert key.size == rows * n  # every row reaches every node
    # Entries cost 8 + 1 bytes each, plus one 8-byte copy while the
    # chunks are joined; the worlds' concatenated CSR is the only other
    # allocation.
    output = 17 * rows * n
    csr = 8 * (rows + 1) + world.indices.nbytes * n_worlds
    assert peak <= output + cap + csr + 64 * 1024, (peak, output, cap)


class TestIndexLimit:
    def test_oversized_index_fails_before_assembly(self, monkeypatch):
        """A low byte limit raises ``ConfigError`` from inside the BFS:
        it stops levels before a full build would, and nothing is
        assembled."""
        graph, assignment = default_synthetic(seed=0)
        gather = backends.concat_ranges
        levels = []

        def counted(*args):
            levels[-1] += 1  # one gather per BFS level
            return gather(*args)

        monkeypatch.setattr(backends, "concat_ranges", counted)
        levels.append(0)
        full = WorldEnsemble(graph, assignment, n_worlds=200, seed=9)
        monkeypatch.setattr(WorldEnsemble, "EMPTY_TABLE_BYTE_LIMIT", 1600 * 1024)
        # The limit must cut the index well short, or the test shows nothing.
        assert 0 < full._max_reach_entries() < full._oracle.reach.flat.size // 4

        def assemble(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("entries were assembled")

        monkeypatch.setattr(ensemble_module, "assemble_reach", assemble)
        levels.append(0)
        with pytest.raises(ConfigError, match='kind="rrset"'):
            WorldEnsemble(graph, assignment, n_worlds=200, seed=9)
        assert 0 < levels[1] < levels[0], levels


def dense_visited_reference(
    rev_indptr, rev_indices, rev_data, targets, depth_cap, rng, n
):
    """The pre-frontier ``_sample_rr_batch`` body: a dense ``visited``
    matrix scanned with ``np.nonzero`` at the end."""
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


class TestRRBatch:
    @PROPERTY
    @given(
        st.integers(1, 30),
        st.integers(0, 120),
        st.integers(1, 40),
        st.sampled_from([0, 1, math.inf]),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_dense_visited_scan(self, n, m, batch, depth_cap, seed):
        gen = np.random.default_rng(seed)
        src, dst = gen.integers(0, n, m), gen.integers(0, n, m)
        prob = gen.choice([0.0, 0.3, 1.0], size=m)
        reverse = sparse.csr_matrix((prob, (dst, src)), shape=(n, n))
        reverse.sum_duplicates()
        targets = gen.integers(0, n, batch)
        args = (reverse.indptr, reverse.indices, reverse.data, targets, depth_cap)
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _sample_rr_batch(*args, rng_new, n)
        want = dense_visited_reference(*args, rng_ref, n)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        # The same draws were consumed: the streams stay in lockstep.
        assert rng_new.random() == rng_ref.random()
