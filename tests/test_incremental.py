"""Incremental-repair equivalence tests.

The headline contract of :mod:`repro.influence.incremental`: an
ensemble repaired in place through :meth:`WorldEnsemble.apply_delta` is
**bit-identical** to a :class:`WorldEnsemble` built from scratch on the
mutated graph with the same seed — same worlds, same reach index,
same utilities, under every BFS chunking (the ``dense``/``sparse``/
``lazy`` ids of ``tests/stores.py``), with and without discounting.
:meth:`Session.resolve` is that repair plus the same cold solve
:meth:`Session.solve` runs, so its result equals a fresh session's
solve on the mutated graph, ``evaluations`` included.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.api import EnsembleSpec, RunSpec, Session, SolverSpec
from repro.cli import main as cli_main
from repro.core.concave import log1p
from repro.core.greedy import lazy_greedy
from repro.core.objectives import ConcaveSumObjective
from repro.datasets.synthetic import synthetic_sbm
from repro.diffusion.worlds import keyed_edge_uniforms, sample_ic_worlds
from repro.errors import EstimationError
from repro.graph.delta import GraphDelta
from repro.graph.digraph import DiGraph
from repro.influence import backends
from repro.influence.backends import bfs_rows
from repro.influence.ensemble import WorldEnsemble
from repro.influence.incremental import patch_worlds, plan_against
from repro.influence.rrsets import RRSetEstimator

from stores import (
    assert_same_world,
    assert_stops_bound_in_time,
    build,
    chunking,
    rows_from_entries,
)

SBM_PARAMS = {"n": 90, "activation_probability": 0.08}
DATASET_SEED = 3
WORLD_SEED = 17
N_WORLDS = 16
DEADLINE = 8.0


def sbm():
    return synthetic_sbm(seed=DATASET_SEED, **SBM_PARAMS)


def make_delta(graph, rng_seed: int = 0, size: int = 3) -> GraphDelta:
    """A deterministic mixed delta picked from the graph's edge set."""
    rng = np.random.default_rng(rng_seed)
    present = sorted((u, v) for u, v, _ in graph.edges())
    nodes = graph.nodes()
    absent = []
    for _ in range(10 * size):
        u, v = rng.choice(len(nodes), size=2, replace=False)
        u, v = nodes[int(u)], nodes[int(v)]
        if not graph.has_edge(u, v) and (u, v) not in absent:
            absent.append((u, v))
        if len(absent) >= size:
            break
    picks = rng.choice(len(present), size=2 * size, replace=False)
    removes = tuple(present[int(i)] for i in picks[:size])
    reweights = tuple(
        (*present[int(i)], float(rng.uniform(0.01, 0.99)))
        for i in picks[size:]
    )
    inserts = tuple((u, v, float(rng.uniform(0.01, 0.99))) for u, v in absent)
    return GraphDelta(inserts=inserts, removes=removes, reweights=reweights)


def assert_bit_identical(repaired: WorldEnsemble, fresh: WorldEnsemble, discount):
    """Worlds and every estimation surface agree byte-for-byte."""
    for w1, w2 in zip(repaired.worlds, fresh.worlds):
        assert_same_world(w1, w2)
    s1, s2 = repaired.empty_state(), fresh.empty_state()
    positions = list(range(0, repaired.n_candidates, 7))
    batch1 = repaired.candidate_group_utilities_batch(
        s1, positions, DEADLINE, discount=discount
    )
    batch2 = fresh.candidate_group_utilities_batch(
        s2, positions, DEADLINE, discount=discount
    )
    assert np.array_equal(batch1, batch2)
    for position in positions[:3]:
        repaired.add_seed(s1, position)
        fresh.add_seed(s2, position)
    assert np.array_equal(
        repaired.group_utilities(s1, DEADLINE, discount=discount),
        fresh.group_utilities(s2, DEADLINE, discount=discount),
    )
    assert np.array_equal(
        repaired.standard_errors(s1, DEADLINE, discount=discount),
        fresh.standard_errors(s2, DEADLINE, discount=discount),
    )


class TestRepairEqualsRebuild:
    # Only the default chunk budget: chunk invariance of builds and
    # repairs is checked by test_frontier's and test_properties'
    # property tests.
    @pytest.mark.parametrize("store", ["dense"])
    @pytest.mark.parametrize("discount", [None, 0.9])
    def test_backends_and_discounts(self, store, discount):
        graph, groups = sbm()
        ensemble = build(graph, groups, store, n_worlds=N_WORLDS, seed=WORLD_SEED)
        delta = make_delta(graph)
        with chunking(store):
            report = ensemble.apply_delta(delta)
        assert report.edges_touched == delta.edge_count
        assert report.resampled_edges == delta.edge_count * N_WORLDS
        assert report.affected.size
        assert np.array_equal(report.affected, np.unique(report.affected))

        fresh_graph, fresh_groups = sbm()
        fresh_graph.apply_delta(make_delta(fresh_graph))
        fresh = WorldEnsemble(
            fresh_graph, fresh_groups, n_worlds=N_WORLDS, seed=WORLD_SEED
        )
        assert_bit_identical(ensemble, fresh, discount)
        assert ensemble.delta_lineage == (delta.fingerprint(),)

    def test_stacked_deltas(self):
        """Several repairs compose: lineage grows, state tracks the
        final graph exactly."""
        graph, groups = sbm()
        ensemble = WorldEnsemble(graph, groups, n_worlds=N_WORLDS, seed=WORLD_SEED)
        fingerprints = []
        for rng_seed in (1, 2, 3):
            delta = make_delta(graph, rng_seed=rng_seed, size=2)
            ensemble.apply_delta(delta)
            fingerprints.append(delta.fingerprint())
        assert ensemble.delta_lineage == tuple(fingerprints)

        fresh_graph, fresh_groups = sbm()
        for rng_seed in (1, 2, 3):
            fresh_graph.apply_delta(make_delta(fresh_graph, rng_seed=rng_seed, size=2))
        fresh = WorldEnsemble(
            fresh_graph, fresh_groups, n_worlds=N_WORLDS, seed=WORLD_SEED
        )
        assert_bit_identical(ensemble, fresh, None)

    def test_empty_delta_is_a_cheap_no_op(self):
        graph, groups = sbm()
        ensemble = WorldEnsemble(graph, groups, n_worlds=N_WORLDS, seed=WORLD_SEED)
        before = ensemble.group_utilities(ensemble.empty_state(), DEADLINE)
        report = ensemble.apply_delta(GraphDelta())
        assert report.repaired_worlds == 0
        assert report.resampled_edges == 0
        after = ensemble.group_utilities(ensemble.empty_state(), DEADLINE)
        assert np.array_equal(before, after)


    def test_nbytes_follows_the_swapped_worlds(self):
        """``nbytes`` keeps the worlds' bytes as a number; a repair that
        grows the worlds refreshes it to a fresh recount."""
        graph, groups = sbm()
        ensemble = WorldEnsemble(graph, groups, n_worlds=N_WORLDS, seed=WORLD_SEED)

        def recount():
            return ensemble.memory_bytes() + sum(w.nbytes for w in ensemble.worlds)

        before = ensemble.nbytes
        assert before == recount()
        nodes = graph.nodes()
        inserts = tuple(
            (nodes[0], v, 0.99) for v in nodes[1:] if not graph.has_edge(nodes[0], v)
        )[:6]
        report = ensemble.apply_delta(GraphDelta(inserts=inserts))
        assert report.repaired_worlds
        assert ensemble.nbytes == recount() > before


class TestSolveRepairSolve:
    def test_repair_drops_the_cached_stops(self):
        """A solve caches its cutoff's in-time stops on the oracle, and
        ``nbytes`` counts them; a repair swaps in a new oracle, so the
        next solve reads the repaired index's stops and equals a fresh
        build's solve, evaluations included."""
        cutoff = 2
        objective = ConcaveSumObjective(log1p)
        graph, groups = sbm()
        ensemble = WorldEnsemble(graph, groups, n_worlds=N_WORLDS, seed=WORLD_SEED)
        # The cutoff must fall before the last finite time, or no stops
        # are cached and the test shows nothing.
        assert cutoff < ensemble._oracle.reach.table.shape[2] - 1
        pristine = ensemble.nbytes
        lazy_greedy(ensemble, objective, cutoff, 6)
        stops = ensemble._oracle.stops(cutoff)
        assert ensemble.nbytes == pristine + stops.nbytes

        ensemble.apply_delta(make_delta(graph))
        assert cutoff < ensemble._oracle.reach.table.shape[2] - 1
        assert ensemble._oracle.nbytes == ensemble._oracle.reach.nbytes
        repaired = lazy_greedy(ensemble, objective, cutoff, 6)
        stops = ensemble._oracle.stops(cutoff)
        worlds = sum(world.nbytes for world in ensemble.worlds)
        assert ensemble.nbytes == ensemble._oracle.reach.nbytes + stops.nbytes + worlds
        assert_stops_bound_in_time(ensemble._oracle)

        fresh_graph, fresh_groups = sbm()
        fresh_graph.apply_delta(make_delta(fresh_graph))
        fresh = WorldEnsemble(fresh_graph, fresh_groups, n_worlds=N_WORLDS, seed=WORLD_SEED)
        want = lazy_greedy(fresh, objective, cutoff, 6)
        assert repaired.stopped_reason == want.stopped_reason
        for got_step, want_step in zip(repaired.steps, want.steps, strict=True):
            assert got_step.position == want_step.position
            assert got_step.gain == want_step.gain
            assert got_step.evaluations == want_step.evaluations
            assert np.array_equal(got_step.group_utilities, want_step.group_utilities)


@st.composite
def graphs_and_deltas(draw):
    """A small graph, a delta on it, and whether the delta is quiet.

    A loud delta inserts an edge at p = 1 and removes another on the
    same row, so every world flips, plus random other edits.  A quiet
    one inserts at p = 0 and reweights edges to their own probability,
    so no world flips.
    """
    n = draw(st.integers(3, 9))
    graph = DiGraph()
    for node in range(n):
        graph.add_node(node, group=("a", "b")[node % 2])
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs) // 2, unique=True))
    for u, v in edges:
        graph.add_edge(u, v, draw(st.sampled_from([0.3, 0.7, 1.0])))
    absent = sorted(set(pairs) - set(edges))
    if draw(st.booleans()):
        touched = draw(st.lists(st.sampled_from(edges), max_size=3, unique=True))
        quiet_inserts = draw(st.lists(st.sampled_from(absent), max_size=3, unique=True))
        delta = GraphDelta(
            inserts=tuple((u, v, 0.0) for u, v in quiet_inserts),
            reweights=tuple((u, v, graph.edge_probability(u, v)) for u, v in touched),
        )
        return graph, delta, True
    u, v_removed = draw(st.sampled_from(edges))
    row_absent = [(a, b) for a, b in absent if a == u]
    assume(row_absent)
    row_insert = draw(st.sampled_from(row_absent))
    others = [e for e in edges if e != (u, v_removed)]
    touched = draw(st.lists(st.sampled_from(others), max_size=4, unique=True)) if others else []
    split = draw(st.integers(0, len(touched)))
    inserts = draw(
        st.lists(st.sampled_from([e for e in absent if e != row_insert]), max_size=3, unique=True)
    ) if len(absent) > 1 else []
    probability = st.sampled_from([0.0, 0.05, 0.5, 1.0])
    delta = GraphDelta(
        inserts=((*row_insert, 1.0),) + tuple((a, b, draw(probability)) for a, b in inserts),
        removes=((u, v_removed),) + tuple(touched[:split]),
        reweights=tuple((a, b, draw(probability)) for a, b in touched[split:]),
    )
    return graph, delta, False


class TestPatchWorlds:
    """The one-pass patch of every flipped world equals resampling the
    mutated graph under each world's key, array for array."""

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(
        case=graphs_and_deltas(),
        keys=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=12, unique=True),
    )
    def test_patched_worlds_equal_a_fresh_resample(self, case, keys):
        graph, delta, quiet = case
        keys = np.asarray(keys, dtype=np.uint64)
        worlds = sample_ic_worlds(graph, keys)
        plan = plan_against(graph, delta)
        uniforms = keyed_edge_uniforms(keys, plan.src, plan.dst, graph.number_of_nodes())
        kept_old, kept_new = uniforms < plan.p_old, uniforms < plan.p_new
        changed = np.flatnonzero((kept_old != kept_new).any(axis=1))
        # A loud delta flips every world, a quiet one none.
        assert changed.size == (0 if quiet else keys.size)
        patched = dict(zip(
            changed.tolist(),
            patch_worlds(
                [worlds[r] for r in changed], plan, kept_old[changed], kept_new[changed]
            ) if changed.size else [],
        ))
        graph.apply_delta(delta)
        for r, fresh in enumerate(sample_ic_worlds(graph, keys)):
            assert_same_world(patched.get(r, worlds[r]), fresh, f"world {r}")


class TestReachIndexRepair:
    """The reach index (and the gain table derived from it) is patched
    world by world on repair, never left stale."""

    @pytest.mark.parametrize("store", ["dense"])
    def test_patched_index_equals_fresh_build(self, store):
        graph, groups = sbm()
        ensemble = build(graph, groups, store, n_worlds=N_WORLDS, seed=WORLD_SEED)
        before = ensemble._oracle.reach
        with chunking(store):
            report = ensemble.apply_delta(make_delta(graph))
        assert report.repaired_worlds > 0
        patched = ensemble._oracle.reach
        assert patched is not before  # a patched index, swapped in

        fresh_graph, fresh_groups = sbm()
        fresh_graph.apply_delta(make_delta(fresh_graph))
        fresh = WorldEnsemble(
            fresh_graph, fresh_groups, n_worlds=N_WORLDS, seed=WORLD_SEED
        )
        rebuilt = fresh._oracle.reach
        for name in rebuilt._fields:
            np.testing.assert_array_equal(
                getattr(patched, name), getattr(rebuilt, name), err_msg=name
            )
            assert getattr(patched, name).dtype == getattr(rebuilt, name).dtype


class TestBfsRows:
    """The batched repair BFS equals one BFS per row, however the
    rows are cut into chunks (the parameter is the chunk byte budget)."""

    @pytest.mark.parametrize("chunk_bytes", [1, 90 * 4, 10**9])
    def test_matches_per_world_bfs(self, monkeypatch, chunk_bytes):
        monkeypatch.setattr(backends, "FRONTIER_CHUNK_BYTES", chunk_bytes)
        graph, groups = sbm()
        ensemble = WorldEnsemble(graph, groups, n_worlds=5, seed=WORLD_SEED)
        worlds = dict(enumerate(ensemble.worlds))
        world = np.array([0, 0, 1, 3, 3, 3, 4])
        source = np.array([5, 17, 0, 2, 40, 89, 33])
        expected = np.stack(
            [worlds[int(r)].distances_from([int(v)])[0] for r, v in zip(world, source)]
        )
        got = rows_from_entries(
            *bfs_rows(worlds, world, source), world.size, graph.number_of_nodes()
        )
        np.testing.assert_array_equal(got, expected)


class TestStaleness:
    def test_direct_mutation_poisons_queries(self):
        graph, groups = sbm()
        ensemble = WorldEnsemble(graph, groups, n_worlds=N_WORLDS, seed=WORLD_SEED)
        u, v, _ = next(iter(graph.edges()))
        graph.remove_edge(u, v)
        with pytest.raises(EstimationError, match="stale"):
            ensemble.empty_state()
        with pytest.raises(EstimationError, match="apply_delta"):
            ensemble.apply_delta(GraphDelta(inserts=((u, v, 0.5),)))

    def test_rrset_estimator_detects_mutation(self):
        graph, groups = sbm()
        estimator = RRSetEstimator(graph, groups, theta=200, seed=1)
        u, v, _ = next(iter(graph.edges()))
        graph.remove_edge(u, v)
        with pytest.raises(EstimationError, match="build a new RRSetEstimator"):
            estimator.empty_state()

    def test_lt_model_cannot_repair(self):
        graph, groups = sbm()
        ensemble = WorldEnsemble(
            graph, groups, n_worlds=N_WORLDS, seed=WORLD_SEED, model="lt"
        )
        delta = make_delta(graph)
        with pytest.raises(EstimationError, match="keyed IC sampler"):
            ensemble.apply_delta(delta)


def run_spec(**solver_overrides) -> RunSpec:
    solver = dict(problem="budget", budget=4, deadline=DEADLINE, fair=True)
    solver.update(solver_overrides)
    return RunSpec(
        ensemble=EnsembleSpec(
            dataset="synthetic",
            dataset_params=dict(SBM_PARAMS),
            dataset_seed=DATASET_SEED,
            n_worlds=N_WORLDS,
            world_seed=WORLD_SEED,
        ),
        solver=SolverSpec(**solver),
    )


class TestSessionResolve:
    def test_resolve_without_delta_is_solve(self):
        session = Session()
        spec = run_spec()
        a = session.resolve(spec)
        b = session.solve(spec)
        assert a.seeds == b.seeds
        assert a.repaired_worlds is None
        assert "incremental" not in a.to_dict()

    def test_resolve_repairs_and_reports_the_delta(self):
        session = Session()
        spec = run_spec()
        session.solve(spec)
        graph, _ = sbm()
        delta = make_delta(graph)

        result = session.resolve(spec, delta=delta)
        assert result.repaired_worlds is not None
        assert result.resampled_edges == delta.edge_count * N_WORLDS
        assert result.delta_lineage == (delta.fingerprint(),)

        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["incremental"] == {
            "repaired_worlds": result.repaired_worlds,
            "resampled_edges": result.resampled_edges,
            "delta_lineage": [delta.fingerprint()],
        }
        assert "delta: repaired" in result.as_text()

    @pytest.mark.parametrize("discount", [None, 0.9], ids=["step", "gamma0.9"])
    @pytest.mark.parametrize("fair", [True, False], ids=["fair", "unfair"])
    def test_resolve_equals_cold_solve(self, discount, fair):
        """A resolve after an earlier solve on the same session reports
        exactly what a fresh session's solve on the mutated graph does."""
        spec = run_spec(discount=discount, fair=fair)
        graph, _ = sbm()
        session = Session()
        session.solve(spec)
        resolved = session.resolve(spec, delta=make_delta(graph))

        other = Session()
        other.ensemble_for(spec.ensemble).apply_delta(make_delta(graph))
        reference = other.solve(spec)

        def answer(result):
            payload = result.to_dict()
            del payload["timings"], payload["incremental"]
            return payload

        assert answer(resolved) == answer(reference)  # evaluations included
        for mine, theirs in zip(resolved.trace.steps, reference.trace.steps):
            assert mine.evaluations == theirs.evaluations

    def test_plain_solve_echoes_lineage(self):
        session = Session()
        spec = run_spec()
        graph, _ = sbm()
        delta = make_delta(graph)
        session.resolve(spec, delta=delta)
        later = session.solve(spec)
        assert later.delta_lineage == (delta.fingerprint(),)
        assert later.repaired_worlds is None  # this call repaired nothing
        assert later.to_dict()["incremental"]["repaired_worlds"] is None

    def test_first_resolve_is_cold(self):
        session = Session()
        spec = run_spec()
        graph, _ = sbm()
        result = session.resolve(spec, delta=make_delta(graph))
        assert result.repaired_worlds is not None

    def test_clear_cache_restarts_the_delta_lineage(self):
        session = Session()
        spec = run_spec()
        session.solve(spec)
        session.clear_cache()
        graph, _ = sbm()
        result = session.resolve(spec, delta=make_delta(graph))
        # The rebuilt entry was repaired once: its lineage restarts.
        assert result.delta_lineage == (make_delta(graph).fingerprint(),)
        assert result.repaired_worlds is not None

    def test_rrset_spec_cannot_take_deltas(self):
        session = Session()
        spec = RunSpec(
            ensemble=EnsembleSpec(
                dataset="synthetic",
                dataset_params=dict(SBM_PARAMS),
                dataset_seed=DATASET_SEED,
                kind="rrset",
                world_seed=WORLD_SEED,
            ),
            solver=SolverSpec(problem="budget", budget=3, deadline=DEADLINE),
        )
        graph, _ = sbm()
        with pytest.raises(EstimationError, match="cannot be repaired"):
            session.resolve(spec, delta=make_delta(graph))

    def test_bad_delta_type_rejected(self):
        from repro.errors import ConfigError

        session = Session()
        with pytest.raises(ConfigError, match="GraphDelta"):
            session.resolve(run_spec(), delta="not a delta")


class TestCliDelta:
    def write_files(self, tmp_path):
        spec = run_spec()
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        graph, _ = sbm()
        delta_path = tmp_path / "delta.json"
        delta_path.write_text(make_delta(graph).to_json())
        return str(spec_path), str(delta_path)

    def test_solve_with_delta(self, tmp_path, capsys):
        spec_path, delta_path = self.write_files(tmp_path)
        assert cli_main(["solve", spec_path, "--delta", delta_path]) == 0
        out = capsys.readouterr().out
        assert "delta: repaired" in out

    def test_solve_with_delta_json(self, tmp_path, capsys):
        spec_path, delta_path = self.write_files(tmp_path)
        assert cli_main(["solve", spec_path, "--delta", delta_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["incremental"]["repaired_worlds"] is not None

    def test_delta_requires_single_spec(self, tmp_path, capsys):
        spec_path, delta_path = self.write_files(tmp_path)
        code = cli_main(["solve", spec_path, spec_path, "--delta", delta_path])
        assert code == 2
        assert "exactly one SPEC" in capsys.readouterr().err

    def test_missing_delta_file(self, tmp_path, capsys):
        spec_path, _ = self.write_files(tmp_path)
        code = cli_main(["solve", spec_path, "--delta", str(tmp_path / "no.json")])
        assert code == 2
        assert "cannot read delta" in capsys.readouterr().err
