"""Session façade tests.

The headline contract: ``Session.solve(RunSpec(...))`` is **bit
identical** to the legacy kwarg calls under every BFS chunking (the
``dense``/``sparse``/``lazy`` ids of ``tests/stores.py``) — the
declarative layer adds no randomness and no arithmetic — and specs
sharing an :class:`EnsembleSpec` share one built ensemble.
"""

import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import (
    EnsembleSpec,
    ExecutionSpec,
    RunSpec,
    Session,
    SolverSpec,
)
from repro.core.budget import solve_fair_tcim_budget, solve_tcim_budget
from repro.core.cover import solve_fair_tcim_cover
from repro.datasets.synthetic import synthetic_sbm
from repro.errors import ConfigError
from repro.graph.delta import GraphDelta
from repro.influence.ensemble import WorldEnsemble

from stores import STORES, assert_same_world, chunking

#: One small instance shared by every equivalence check below.
SYN_PARAMS = {"n": 120, "activation_probability": 0.08}
DATASET_SEED = 0
WORLD_SEED = 7
N_WORLDS = 8
DEADLINE = 15.0


def ensemble_spec(**overrides) -> EnsembleSpec:
    base = dict(
        dataset="synthetic",
        dataset_params=dict(SYN_PARAMS),
        dataset_seed=DATASET_SEED,
        n_worlds=N_WORLDS,
        world_seed=WORLD_SEED,
    )
    base.update(overrides)
    return EnsembleSpec(**base)


def legacy_ensemble() -> WorldEnsemble:
    graph, groups = synthetic_sbm(seed=DATASET_SEED, **SYN_PARAMS)
    return WorldEnsemble(graph, groups, n_worlds=N_WORLDS, seed=WORLD_SEED)


class TestBitIdentity:
    @pytest.mark.parametrize("store", STORES)
    @pytest.mark.parametrize("discount", [None, 0.9])
    def test_budget_matches_legacy_kwargs(self, store, discount):
        spec = RunSpec(
            ensemble=ensemble_spec(),
            solver=SolverSpec(
                problem="budget",
                deadline=DEADLINE,
                fair=True,
                budget=4,
                discount=discount,
            ),
        )
        with chunking(store):
            result = Session().solve(spec)
        legacy = solve_fair_tcim_budget(
            legacy_ensemble(), 4, DEADLINE, discount=discount
        )
        assert list(result.seeds) == legacy.seeds
        np.testing.assert_array_equal(
            result.trace.final_group_utilities, legacy.trace.final_group_utilities
        )
        np.testing.assert_array_equal(
            np.asarray(result.group_utilities), legacy.report.utilities
        )
        assert result.objective == legacy.trace.final_objective

    @pytest.mark.parametrize("store", STORES)
    def test_unfair_budget_matches_legacy_kwargs(self, store):
        spec = RunSpec(
            ensemble=ensemble_spec(),
            solver=SolverSpec(
                problem="budget", deadline=DEADLINE, fair=False, budget=4
            ),
        )
        with chunking(store):
            result = Session().solve(spec)
        legacy = solve_tcim_budget(legacy_ensemble(), 4, DEADLINE)
        assert list(result.seeds) == legacy.seeds
        np.testing.assert_array_equal(
            np.asarray(result.group_utilities), legacy.report.utilities
        )

    @pytest.mark.parametrize("store", STORES)
    def test_cover_matches_legacy_kwargs(self, store):
        spec = RunSpec(
            ensemble=ensemble_spec(),
            solver=SolverSpec(
                problem="cover", deadline=math.inf, fair=True, quota=0.15
            ),
        )
        with chunking(store):
            result = Session().solve(spec)
        legacy = solve_fair_tcim_cover(legacy_ensemble(), 0.15, math.inf)
        assert list(result.seeds) == legacy.seeds
        np.testing.assert_array_equal(
            np.asarray(result.group_utilities), legacy.report.utilities
        )
        assert result.problem == legacy.problem

    def test_dict_input_equals_spec_input(self):
        spec = RunSpec(
            ensemble=ensemble_spec(),
            solver=SolverSpec(problem="budget", deadline=DEADLINE, budget=3),
        )
        session = Session()
        a = session.solve(spec)
        b = session.solve(spec.to_dict())
        assert a.seeds == b.seeds
        assert a.group_utilities == b.group_utilities


class TestEnsembleCache:
    def test_solve_many_shares_worlds(self):
        session = Session()
        shared = ensemble_spec()
        specs = [
            RunSpec(
                ensemble=shared,
                solver=SolverSpec(problem="budget", deadline=DEADLINE, budget=b),
            )
            for b in (2, 3, 4)
        ]
        results = session.solve_many(specs)
        assert session.cache_misses == 1
        assert session.cache_hits == 2
        first = results[0].solution.ensemble
        assert all(r.solution.ensemble is first for r in results)
        assert [r.ensemble_cached for r in results] == [False, True, True]
        # Greedy nesting on shared worlds: smaller budgets are prefixes.
        assert list(results[0].seeds) == list(results[2].seeds)[:2]

    def test_equal_specs_different_objects_share(self):
        session = Session()
        r1 = session.solve(
            RunSpec(
                ensemble=ensemble_spec(),
                solver=SolverSpec(problem="budget", deadline=DEADLINE, budget=2),
            )
        )
        r2 = session.solve(
            RunSpec(
                ensemble=ensemble_spec(),  # equal by value, not identity
                solver=SolverSpec(problem="cover", deadline=math.inf, quota=0.1),
            )
        )
        assert r1.solution.ensemble is r2.solution.ensemble

    def test_lru_eviction(self):
        session = Session(max_cached_ensembles=1)
        session.ensemble_for(ensemble_spec(world_seed=1))
        session.ensemble_for(ensemble_spec(world_seed=2))
        assert session.cache_info["entries"] == 1

    def test_clear_cache(self):
        session = Session()
        session.ensemble_for(ensemble_spec())
        session.clear_cache()
        assert session.cache_info["entries"] == 0


class TestBuildSingleFlight:
    """Concurrent callers of one uncached spec share one build."""

    @staticmethod
    def _race(session, spec, threads=8):
        """``ensemble_for`` from ``threads`` threads at once; returns
        each thread's estimator or exception."""
        start = threading.Barrier(threads)

        def call():
            start.wait(timeout=30)
            try:
                return session.ensemble_for(spec)
            except RuntimeError as exc:
                return exc

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [pool.submit(call) for _ in range(threads)]
                # A stranded waiter would hang here: time out instead.
                return [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)

    def test_eight_threads_one_build(self, monkeypatch):
        session = Session()
        build = session._build
        calls = []

        def slow_build(spec):
            calls.append(spec)
            time.sleep(0.2)  # every other thread arrives mid-build
            return build(spec)

        monkeypatch.setattr(session, "_build", slow_build)
        results = self._race(session, ensemble_spec(world_seed=61))
        assert len(calls) == 1
        assert all(result is results[0] for result in results)
        assert isinstance(results[0], WorldEnsemble)
        assert session.cache_builds == 1
        assert session.cache_misses == 1
        assert session.cache_hits == 7

    def test_failed_build_does_not_strand_waiters(self, monkeypatch):
        session = Session()
        build = session._build
        calls = []

        def flaky_build(spec):
            calls.append(spec)
            if len(calls) == 1:
                time.sleep(0.2)
                raise RuntimeError("first build fails")
            return build(spec)

        monkeypatch.setattr(session, "_build", flaky_build)
        results = self._race(session, ensemble_spec(world_seed=62))
        failed = [r for r in results if isinstance(r, RuntimeError)]
        built = [r for r in results if not isinstance(r, RuntimeError)]
        # The failing builder raises; its waiters look again, one of
        # them rebuilds and the rest share that build.
        assert len(failed) == 1 and len(calls) == 2
        assert len(built) == 7 and all(r is built[0] for r in built)
        assert session.cache_builds == 1
        assert session._building == {}

    def test_every_build_failing_raises_in_every_caller(self, monkeypatch):
        session = Session()

        def broken_build(spec):
            time.sleep(0.05)
            raise RuntimeError("no worlds")

        monkeypatch.setattr(session, "_build", broken_build)
        results = self._race(session, ensemble_spec(world_seed=63))
        assert all(isinstance(r, RuntimeError) for r in results)
        assert session.cache_info["entries"] == 0
        assert session._building == {}


class TestSharedDatasetGraphs:
    """Estimators built from one dataset share a frozen graph; a delta
    repairs its ensemble against a private copy."""

    def test_one_frozen_graph_per_dataset(self):
        session = Session()
        a = session.ensemble_for(ensemble_spec(world_seed=1))
        b = session.ensemble_for(ensemble_spec(world_seed=2, n_worlds=4))
        rr = session.ensemble_for(ensemble_spec(kind="rrset", theta=50))
        other = session.ensemble_for(ensemble_spec(dataset_seed=DATASET_SEED + 1))
        assert a.graph is b.graph is rr.graph
        assert a.graph.frozen
        assert other.graph is not a.graph
        # The memo holds graphs only while an estimator does.
        del a, b, rr, other
        session.clear_cache()
        assert len(session._graphs) == 0

    def test_delta_leaves_siblings_on_the_pristine_graph(self):
        session = Session()
        spec = RunSpec(
            ensemble=ensemble_spec(world_seed=1),
            solver=SolverSpec(problem="budget", deadline=DEADLINE, budget=3),
        )
        sibling = RunSpec(ensemble=ensemble_spec(world_seed=2), solver=spec.solver)
        session.solve(spec)
        before = session.solve(sibling)
        shared = session.ensemble_for(sibling.ensemble).graph
        version = shared.version
        u, v, _ = next(iter(shared.edges()))
        session.resolve(spec, GraphDelta(reweights=((u, v, 0.9),)))
        repaired = session.ensemble_for(spec.ensemble).graph
        assert repaired is not shared and not repaired.frozen
        assert repaired.edge_probability(u, v) == 0.9
        assert shared.version == version and shared.edge_probability(u, v) != 0.9
        after = session.solve(sibling)
        assert after.seeds == before.seeds and after.objective == before.objective
        assert session.ensemble_for(ensemble_spec(world_seed=3)).graph is shared

    def test_concurrent_builds_share_one_graph(self):
        # More threads than cores, switching often: racing first builds
        # of one dataset must still end on a single shared graph.  Serial
        # builds: forking build workers from racing threads can hang.
        session = Session(execution=ExecutionSpec(build_workers=1))
        specs = [ensemble_spec(world_seed=seed, n_worlds=2) for seed in range(12)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(session.ensemble_for, spec) for spec in specs]
                ensembles = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len({id(ensemble.graph) for ensemble in ensembles}) == 1
        reference = Session().ensemble_for(specs[5])
        for mine, theirs in zip(ensembles[5].worlds, reference.worlds):
            assert_same_world(mine, theirs)


class FakeEstimator:
    """A cache entry with known size."""

    def __init__(self, nbytes):
        self.nbytes = nbytes


class TestByteBoundedCache:
    def test_check_cache_bytes_validation(self):
        from repro.api import check_cache_bytes

        assert check_cache_bytes(1) == 1
        assert check_cache_bytes(None, allow_none=True) is None
        for bad in (None, 0, -5, 1.5, True, "1g"):
            with pytest.raises(ConfigError):
                check_cache_bytes(bad)

    def test_session_rejects_bad_cache_bytes(self):
        with pytest.raises(ConfigError, match="cache_bytes"):
            Session(cache_bytes=0)

    def test_eviction_frees_bytes(self):
        session = Session(cache_bytes=100)
        first, second = FakeEstimator(60), FakeEstimator(60)
        session._cache_put(("k1",), first)
        assert session.cache_info["bytes"] == 60
        session._cache_put(("k2",), second)
        # 120 > 100: the LRU entry goes.
        info = session.cache_info
        assert info["entries"] == 1
        assert info["bytes"] == 60
        assert info["evictions"] == 1
        assert session._cache_get(("k2",)) is second
        assert session._cache_get(("k1",)) is None

    def test_newest_entry_always_survives(self):
        # A single entry over the bound stays: evicting the ensemble a
        # solve is about to use would thrash forever.
        session = Session(cache_bytes=10)
        big = FakeEstimator(1000)
        session._cache_put(("k1",), big)
        assert session.cache_info["entries"] == 1
        assert session.cache_info["evictions"] == 0

    def test_byte_bound_on_real_ensembles(self):
        probe = Session()
        one = _estimator_bytes(probe.ensemble_for(ensemble_spec()))
        assert one > 0
        # Bound the cache below two ensembles: the second build must
        # evict the first.
        session = Session(cache_bytes=int(one * 1.5))
        session.ensemble_for(ensemble_spec(world_seed=1))
        session.ensemble_for(ensemble_spec(world_seed=2))
        info = session.cache_info
        assert info["entries"] == 1
        assert info["evictions"] == 1
        assert info["bytes"] <= session.cache_bytes

    def test_nbytes_covers_store_and_worlds(self):
        ensemble = Session().ensemble_for(ensemble_spec())
        assert ensemble.nbytes >= ensemble.memory_bytes()
        assert ensemble.nbytes >= sum(w.nbytes for w in ensemble.worlds)

    def test_cache_builds_counter(self):
        session = Session()
        session.ensemble_for(ensemble_spec())
        session.ensemble_for(ensemble_spec())  # cache hit, no build
        session.ensemble_for(ensemble_spec(world_seed=99))
        assert session.cache_info["builds"] == 2


def _estimator_bytes(estimator):
    return estimator.nbytes


class TestEvictionRacesInFlightSolves:
    """LRU/byte eviction must never corrupt a solve it races.

    Eviction drops cache *names* while live references keep their
    ensembles — so a thread mid-``solve_many`` on
    a just-evicted ensemble must still produce bit-identical results.
    A one-entry session with two alternating ensembles under four
    threads evicts continuously while every thread is solving.
    """

    @pytest.mark.parametrize("store", STORES)
    def test_concurrent_solve_many_under_thrashing_cache(self, store):
        specs = [
            RunSpec(
                ensemble=ensemble_spec(world_seed=seed),
                solver=SolverSpec(problem="budget", deadline=DEADLINE, budget=3),
            )
            for seed in (1, 2, 1, 2)
        ]
        expected = [
            (list(r.seeds), r.objective) for r in Session().solve_many(specs)
        ]
        with chunking(store):
            self._thrash(specs, expected)

    @staticmethod
    def _thrash(specs, expected):
        # cache_bytes=1 with the newest-entry guard means every second
        # build evicts the other ensemble: maximal thrash.
        session = Session(max_cached_ensembles=1, cache_bytes=1)
        outcomes = [None] * 4

        def worker(slot):
            try:
                results = session.solve_many(specs)
                outcomes[slot] = [(list(r.seeds), r.objective) for r in results]
            except Exception as exc:  # pragma: no cover - the failure path
                outcomes[slot] = exc

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for outcome in outcomes:
            assert not isinstance(outcome, Exception), outcome
            assert outcome == expected
        assert session.cache_info["evictions"] > 0


class TestConfigChain:
    def test_result_echoes_fully_resolved_spec(self):
        session = Session()
        result = session.solve(
            RunSpec(
                ensemble=ensemble_spec(),
                solver=SolverSpec(problem="budget", deadline=DEADLINE, budget=2),
            )
        )
        echo = result.spec.execution
        assert isinstance(echo.workers, int) and echo.workers >= 1
        assert isinstance(echo.build_workers, int) and echo.build_workers >= 1
        # The echoed spec is still a valid, serializable RunSpec.
        assert RunSpec.from_json(result.spec.to_json()) == result.spec

    def test_workers_is_accepted_for_compatibility(self, tmp_path, capsys):
        # ``workers`` survives only so existing spec files and CLI calls
        # stay valid: validated as before, no effect, echoed as 1.
        import json

        from repro.cli import main as cli_main

        for bad in (0, "x"):
            with pytest.raises(ConfigError, match="workers"):
                ExecutionSpec(workers=bad)
        spec = RunSpec(
            ensemble=ensemble_spec(),
            solver=SolverSpec(problem="budget", deadline=DEADLINE, budget=3),
        )

        def answer(payload):
            return {key: value for key, value in payload.items() if key != "timings"}

        default = Session().solve(spec).to_dict()
        pinned = Session().solve(spec.with_execution(workers=4)).to_dict()
        assert answer(pinned) == answer(default)
        assert default["spec"]["execution"]["workers"] == 1

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        assert cli_main(["solve", str(spec_path), "--json", "--workers", "4"]) == 0
        (from_cli,) = json.loads(capsys.readouterr().out)
        assert answer(from_cli) == answer(default)

    def test_result_to_dict_is_json_safe(self):
        import json

        result = Session().solve(
            RunSpec(
                ensemble=ensemble_spec(),
                solver=SolverSpec(problem="budget", deadline=DEADLINE, budget=2),
            )
        )
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["seed_count"] == 2
        assert payload["timings"]["ensemble_cached"] is False
        assert payload["spec"]["solver"]["budget"] == 2


class TestEstimatorFactory:
    def test_kinds_registered(self):
        from repro.api import ESTIMATOR_KINDS
        from repro.influence.rrsets import RRSetEstimator

        assert ESTIMATOR_KINDS == ("worlds", "rrset")
        session = Session()
        assert isinstance(session.ensemble_for(ensemble_spec()), WorldEnsemble)
        assert isinstance(
            session.ensemble_for(ensemble_spec(kind="rrset", theta=50)),
            RRSetEstimator,
        )

    def test_worlds_kind_builds_world_ensemble(self):
        estimator = Session().ensemble_for(ensemble_spec(model="ic"))
        assert isinstance(estimator, WorldEnsemble)
        assert estimator.n_worlds == N_WORLDS

    def test_rrset_kind_builds_rrset_estimator(self):
        from repro.influence.rrsets import RRSetEstimator

        estimator = Session().ensemble_for(ensemble_spec(kind="rrset", theta=500))
        assert isinstance(estimator, RRSetEstimator)
        assert estimator.fixed_theta == 500

    def test_rrset_kind_solves_end_to_end(self):
        spec = RunSpec(
            ensemble=ensemble_spec(kind="rrset"),
            solver=SolverSpec(problem="budget", deadline=DEADLINE, budget=2),
        )
        result = Session().solve(spec)
        assert result.seed_count == 2
        assert result.total_fraction > 0
        assert "rrset estimator" in result.as_text()

    def test_rrset_kind_rejects_lt_model(self):
        with pytest.raises(ConfigError, match="model='ic'"):
            ensemble_spec(kind="rrset", model="lt")

    def test_rrset_discount_rejected_at_spec_level(self):
        with pytest.raises(ConfigError, match="discount"):
            RunSpec(
                ensemble=ensemble_spec(kind="rrset"),
                solver=SolverSpec(
                    problem="budget", deadline=DEADLINE, budget=2, discount=0.9
                ),
            )
