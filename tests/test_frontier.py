"""The frontier BFS behind every distance store and the RR sampler.

``bfs_rows`` must equal scipy's csgraph BFS (``LiveEdgeWorld.
distances_from``, the public reference) row for row; every store built
from it — dense, sparse, lazy, the ``"auto"`` probe and repairs — must
equal the store the reference would give, array for array and dtype
for dtype; and ``_sample_rr_batch`` must return exactly what the dense
``visited`` scan returned, from the same RNG draws.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.diffusion.worlds import UNREACHABLE, LiveEdgeWorld
from repro.influence import backends
from repro.influence.backends import (
    DenseBackend,
    LazyBackend,
    SparseBackend,
    bfs_rows,
    sparse_hops,
)
from repro.influence.rrsets import _sample_rr_batch

PROPERTY = settings(max_examples=60, deadline=None)


def make_world(n, src, dst):
    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    adjacency = sparse.csr_matrix(
        (np.ones(src.size, dtype=np.int8), (src, dst)), shape=(n, n)
    )
    return LiveEdgeWorld(n=n, adjacency=adjacency)


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


def reference_csr(world, candidates):
    """The shifted CSR the sparse store keeps, from the csgraph BFS."""
    dist = world.distances_from(candidates)
    r_idx, c_idx = np.nonzero(dist != UNREACHABLE)
    data = dist[r_idx, c_idx] + np.uint8(1)
    return sparse.csr_matrix((data, (r_idx, c_idx)), shape=dist.shape)


def assert_csr_identical(got, want):
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b)


class TestBfsRows:
    @PROPERTY
    @given(worlds_and_rows())
    def test_equals_csgraph_per_world(self, case):
        worlds, world, source = case
        got = bfs_rows(worlds, world, source)
        assert got.dtype == np.uint8 and got.shape == (world.size, worlds[0].n)
        np.testing.assert_array_equal(got, reference_rows(worlds, world, source))

    @PROPERTY
    @given(worlds_and_rows(), st.integers(0, 2000))
    def test_chunking_never_changes_rows(self, case, chunk_bytes):
        worlds, world, source = case
        want = bfs_rows(worlds, world, source)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(backends, "FRONTIER_CHUNK_BYTES", chunk_bytes)
            np.testing.assert_array_equal(bfs_rows(worlds, world, source), want)

    def test_long_chain_clips_at_254(self):
        n = 300
        chain = make_world(n, np.arange(n - 1), np.arange(1, n))
        sources = np.array([0, 0, 40, n - 1])
        got = bfs_rows([chain], np.zeros(4, dtype=np.int64), sources)
        np.testing.assert_array_equal(got, chain.distances_from(sources))
        assert got[0, 254] == got[0, n - 1] == UNREACHABLE - 1
        assert got[2, 39] == UNREACHABLE and got[3, n - 1] == 0

    def test_edgeless_worlds_and_no_rows(self):
        empty = make_world(5, [], [])
        got = bfs_rows([empty, empty], np.array([1, 0, 1]), np.array([2, 2, 4]))
        want = np.full((3, 5), UNREACHABLE, dtype=np.uint8)
        want[[0, 1, 2], [2, 2, 4]] = 0
        np.testing.assert_array_equal(got, want)
        assert bfs_rows([empty], np.array([], dtype=np.int64), np.array([])).shape == (
            0,
            5,
        )

    @PROPERTY
    @given(worlds_and_rows())
    def test_world_mapping_like_a_repair(self, case):
        # Repairs pass a {world index: world} dict in arbitrary order.
        worlds, world, source = case
        keyed = {3 * r + 1: w for r, w in reversed(list(enumerate(worlds)))}
        np.testing.assert_array_equal(
            bfs_rows(keyed, 3 * world + 1, source),
            reference_rows(worlds, world, source),
        )


@st.composite
def worlds_and_candidates(draw):
    worlds, _, _ = draw(worlds_and_rows(max_n=20, max_worlds=3))
    n = worlds[0].n
    candidates = draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    )
    return worlds, np.asarray(candidates, dtype=np.int64)


class TestStores:
    @PROPERTY
    @given(worlds_and_candidates())
    def test_dense_store(self, case):
        worlds, candidates = case
        got = DenseBackend(worlds, candidates, worlds[0].n)._distances
        want = np.stack([w.distances_from(candidates) for w in worlds])
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, want)

    @PROPERTY
    @given(worlds_and_candidates())
    def test_sparse_store(self, case):
        worlds, candidates = case
        store = SparseBackend(worlds, candidates, worlds[0].n)
        for got, world in zip(store._rows, worlds):
            assert_csr_identical(got, reference_csr(world, candidates))

    @PROPERTY
    @given(worlds_and_candidates())
    def test_lazy_rows(self, case):
        worlds, candidates = case
        store = LazyBackend(worlds, candidates, worlds[0].n)
        for position, candidate in enumerate(candidates.tolist()):
            want = np.concatenate([w.distances_from([candidate]) for w in worlds])
            np.testing.assert_array_equal(store._build_rows(position), want)

    @PROPERTY
    @given(worlds_and_candidates(), st.integers(1, 6))
    def test_auto_probe(self, case, cap):
        worlds, candidates = case
        estimate, probe = backends._probe_sparse_bytes(worlds, candidates)
        want = reference_csr(worlds[0], candidates)
        assert_csr_identical(probe, want)
        per_world = want.data.nbytes + want.indices.nbytes + want.indptr.nbytes
        assert estimate == per_world * len(worlds)
        # Many candidates: a subset is probed and scaled, nothing reused.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(backends, "PROBE_CANDIDATE_CAP", cap)
            estimate, probe = backends._probe_sparse_bytes(worlds, candidates)
        if candidates.size > cap:
            subset = candidates[np.linspace(0, candidates.size - 1, cap).astype(np.int64)]
            sample = reference_csr(worlds[0], subset)
            entry = (sample.data.nbytes + sample.indices.nbytes) * (candidates.size / cap)
            assert probe is None
            assert estimate == int(entry + 8 * (candidates.size + 1)) * len(worlds)

    def test_sparse_hops_matches_reference(self):
        world = make_world(6, [0, 1, 2, 2, 4], [1, 2, 3, 0, 5])
        candidates = np.array([4, 0, 3])
        assert_csr_identical(sparse_hops(world, candidates), reference_csr(world, candidates))


def test_dense_build_memory_stays_within_output_plus_chunk_cap():
    """On a p = 1 graph every row reaches every node, so each row's BFS
    gathers all kept edges; chunking must still bound the transient."""
    n, n_worlds = 150, 4
    rng = np.random.default_rng(0)
    src = np.concatenate([np.arange(n - 1), rng.integers(0, n, 6 * n)])
    dst = np.concatenate([np.arange(1, n), rng.integers(0, n, 6 * n)])
    src = np.append(src, n - 1)
    dst = np.append(dst, 0)  # close the ring: everything reaches everything
    world = make_world(n, src, dst)
    worlds = [world] * n_worlds
    candidates = np.arange(n)
    kept = world.adjacency.nnz
    output = n_worlds * n * n
    cap = 256 * 1024
    # The cap must force many chunks, or the test shows nothing.
    assert n_worlds * n * (kept + 1) * backends.FRONTIER_EDGE_BYTES > 8 * cap
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backends, "FRONTIER_CHUNK_BYTES", cap)
        tracemalloc.start()
        try:
            store = DenseBackend(worlds, candidates, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert (store._distances != UNREACHABLE).all()
    # The concatenated CSR of the worlds is the only other allocation.
    csr = 8 * (n_worlds * n + 1) + world.adjacency.indices.nbytes * n_worlds
    assert peak <= output + cap + csr + 64 * 1024, (peak, output, cap)


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
