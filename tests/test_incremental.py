"""Incremental-repair equivalence tests.

The headline contract of :mod:`repro.influence.incremental`: an
ensemble repaired in place through :meth:`WorldEnsemble.apply_delta` is
**bit-identical** to a :class:`WorldEnsemble` built from scratch on the
mutated graph with the same seed — same worlds, same distance store,
same utilities, on every backend, with and without discounting.
Warm-started CELF re-solves select bit-identical seeds to cold solves;
only the ``evaluations`` counters may differ.
"""

import json

import numpy as np
import pytest

from repro.api import (
    EnsembleSpec,
    ExecutionSpec,
    RunSpec,
    Session,
    SolverSpec,
)
from repro.cli import main as cli_main
from repro.core.budget import solve_budget_spec, solve_fair_tcim_budget
from repro.core.greedy import WarmStart, lazy_greedy
from repro.core.objectives import ConcaveSumObjective, TotalInfluenceObjective
from repro.core.concave import log1p
from repro.datasets.synthetic import synthetic_sbm
from repro.errors import EstimationError, OptimizationError
from repro.graph.delta import GraphDelta
from repro.graph.groups import GroupAssignment
from repro.influence.backends import BACKEND_NAMES
from repro.influence.ensemble import WorldEnsemble
from repro.influence.rrsets import RRSetEstimator

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
        assert np.array_equal(w1.adjacency.indptr, w2.adjacency.indptr)
        assert np.array_equal(w1.adjacency.indices, w2.adjacency.indices)
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
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("discount", [None, 0.9])
    def test_backends_and_discounts(self, backend, discount):
        graph, groups = sbm()
        ensemble = WorldEnsemble(
            graph, groups, n_worlds=N_WORLDS, seed=WORLD_SEED, backend=backend
        )
        delta = make_delta(graph)
        report = ensemble.apply_delta(delta)
        assert report.edges_touched == delta.edge_count
        assert report.resampled_edges == delta.edge_count * N_WORLDS
        if backend == "lazy":
            assert report.affected is None
        else:
            assert report.affected is not None

        fresh_graph, fresh_groups = sbm()
        fresh_graph.apply_delta(make_delta(fresh_graph))
        fresh = WorldEnsemble(
            fresh_graph, fresh_groups, n_worlds=N_WORLDS, seed=WORLD_SEED,
            backend=backend,
        )
        assert_bit_identical(ensemble, fresh, discount)
        assert ensemble.delta_lineage == (delta.fingerprint(),)

    def test_stacked_deltas(self):
        """Several repairs compose: lineage grows, state tracks the
        final graph exactly."""
        graph, groups = sbm()
        ensemble = WorldEnsemble(
            graph, groups, n_worlds=N_WORLDS, seed=WORLD_SEED, backend="sparse"
        )
        fingerprints = []
        for rng_seed in (1, 2, 3):
            delta = make_delta(graph, rng_seed=rng_seed, size=2)
            ensemble.apply_delta(delta)
            fingerprints.append(delta.fingerprint())
        assert ensemble.delta_lineage == tuple(fingerprints)
        assert len(ensemble.repair_log) == 3

        fresh_graph, fresh_groups = sbm()
        for rng_seed in (1, 2, 3):
            fresh_graph.apply_delta(make_delta(fresh_graph, rng_seed=rng_seed, size=2))
        fresh = WorldEnsemble(
            fresh_graph, fresh_groups, n_worlds=N_WORLDS, seed=WORLD_SEED,
            backend="sparse",
        )
        assert_bit_identical(ensemble, fresh, None)

    def test_lazy_cached_rows_are_patched(self):
        """The lazy backend patches rows already resident in its LRU
        cache rather than serving stale distances."""
        graph, groups = sbm()
        ensemble = WorldEnsemble(
            graph, groups, n_worlds=N_WORLDS, seed=WORLD_SEED, backend="lazy"
        )
        state = ensemble.empty_state()
        warm_positions = list(range(0, ensemble.n_candidates, 5))
        ensemble.candidate_group_utilities_batch(state, warm_positions, DEADLINE)

        ensemble.apply_delta(make_delta(graph))
        fresh_graph, fresh_groups = sbm()
        fresh_graph.apply_delta(make_delta(fresh_graph))
        fresh = WorldEnsemble(
            fresh_graph, fresh_groups, n_worlds=N_WORLDS, seed=WORLD_SEED,
            backend="lazy",
        )
        assert np.array_equal(
            ensemble.candidate_group_utilities_batch(
                ensemble.empty_state(), warm_positions, DEADLINE
            ),
            fresh.candidate_group_utilities_batch(
                fresh.empty_state(), warm_positions, DEADLINE
            ),
        )

    def test_empty_delta_is_a_cheap_no_op(self):
        graph, groups = sbm()
        ensemble = WorldEnsemble(graph, groups, n_worlds=N_WORLDS, seed=WORLD_SEED)
        before = ensemble.group_utilities(ensemble.empty_state(), DEADLINE)
        report = ensemble.apply_delta(GraphDelta())
        assert report.repaired_worlds == 0
        assert report.resampled_edges == 0
        after = ensemble.group_utilities(ensemble.empty_state(), DEADLINE)
        assert np.array_equal(before, after)


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


class TestWarmStartedCelf:
    def solve_pair(self, refresh_from_report=True):
        graph, groups = sbm()
        ensemble = WorldEnsemble(graph, groups, n_worlds=N_WORLDS, seed=WORLD_SEED)
        objective = ConcaveSumObjective(log1p, ensemble.group_sizes)
        cold0 = lazy_greedy(ensemble, objective, DEADLINE, max_seeds=5)
        report = ensemble.apply_delta(make_delta(graph))
        cold = lazy_greedy(ensemble, objective, DEADLINE, max_seeds=5)
        warm = lazy_greedy(
            ensemble,
            objective,
            DEADLINE,
            max_seeds=5,
            warm_start=WarmStart(
                gains=cold0.first_round_gains,
                refresh=report.affected if refresh_from_report else None,
            ),
        )
        return cold, warm

    def test_warm_equals_cold(self):
        cold, warm = self.solve_pair()
        assert warm.seeds == cold.seeds
        assert np.array_equal(warm.first_round_gains, cold.first_round_gains)
        for s_cold, s_warm in zip(cold.steps, warm.steps):
            assert s_warm.position == s_cold.position
            assert s_warm.gain == s_cold.gain
            assert s_warm.objective_value == s_cold.objective_value
            assert np.array_equal(s_warm.group_utilities, s_cold.group_utilities)
        assert warm.total_evaluations <= cold.total_evaluations

    def test_refresh_none_still_identical(self):
        cold, warm = self.solve_pair(refresh_from_report=False)
        assert warm.seeds == cold.seeds
        assert np.array_equal(warm.first_round_gains, cold.first_round_gains)

    def test_warm_start_validation(self):
        graph, groups = sbm()
        ensemble = WorldEnsemble(graph, groups, n_worlds=N_WORLDS, seed=WORLD_SEED)
        objective = TotalInfluenceObjective()
        with pytest.raises(OptimizationError, match="gains"):
            lazy_greedy(
                ensemble, objective, DEADLINE, max_seeds=2,
                warm_start=WarmStart(gains=np.zeros(3)),
            )
        with pytest.raises(OptimizationError, match="refresh"):
            lazy_greedy(
                ensemble, objective, DEADLINE, max_seeds=2,
                warm_start=WarmStart(
                    gains=np.zeros(ensemble.n_candidates),
                    refresh=np.array([ensemble.n_candidates + 5]),
                ),
            )

    def test_plain_greedy_rejects_warm_start(self):
        graph, groups = sbm()
        ensemble = WorldEnsemble(graph, groups, n_worlds=N_WORLDS, seed=WORLD_SEED)
        with pytest.raises(OptimizationError, match="CELF"):
            solve_fair_tcim_budget(
                ensemble, budget=2, deadline=DEADLINE, method="plain",
                warm_start=WarmStart(gains=np.zeros(ensemble.n_candidates)),
            )


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
        assert not a.warm_started
        assert "incremental" not in a.to_dict()

    def test_resolve_repairs_and_warm_starts(self):
        session = Session()
        spec = run_spec()
        cold = session.solve(spec)  # records the warm trace
        graph, _ = sbm()
        delta = make_delta(graph)

        warm = session.resolve(spec, delta=delta)
        assert warm.warm_started
        assert warm.repaired_worlds is not None
        assert warm.resampled_edges == delta.edge_count * N_WORLDS
        assert warm.delta_lineage == (delta.fingerprint(),)
        assert warm.evaluations <= cold.evaluations + len(warm.seeds)

        # a fresh session solving the mutated graph cold agrees exactly
        other = Session()
        estimator = other.ensemble_for(spec.ensemble)
        estimator.apply_delta(make_delta(graph))
        reference = other.solve(spec)
        assert warm.seeds == reference.seeds
        assert warm.objective == reference.objective
        assert warm.group_utilities == reference.group_utilities

        payload = json.loads(json.dumps(warm.to_dict()))
        assert payload["incremental"]["warm_started"] is True
        assert payload["incremental"]["delta_lineage"] == [delta.fingerprint()]
        assert "warm-started" in warm.as_text()

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
        assert not result.warm_started  # no trace recorded yet
        assert result.repaired_worlds is not None

    def test_greedy_method_never_warm_starts(self):
        session = Session()
        spec = run_spec(method="plain")
        session.solve(spec)
        graph, _ = sbm()
        result = session.resolve(spec, delta=make_delta(graph))
        assert not result.warm_started

    def test_clear_cache_drops_warm_traces(self):
        session = Session()
        spec = run_spec()
        session.solve(spec)
        session.clear_cache()
        graph, _ = sbm()
        result = session.resolve(spec, delta=make_delta(graph))
        assert not result.warm_started  # trace died with the cache entry

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
