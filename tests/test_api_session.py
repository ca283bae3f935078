"""Session façade tests.

The headline contract: ``Session.solve(RunSpec(...))`` is **bit
identical** to the legacy kwarg calls on every backend — the
declarative layer adds no randomness and no arithmetic — and specs
sharing an :class:`EnsembleSpec` share one built ensemble.
"""

import math
import threading

import numpy as np
import pytest

from repro.api import (
    EnsembleSpec,
    ExecutionSpec,
    RunSpec,
    Session,
    SolverSpec,
)
from repro.config import execution_defaults
from repro.core.budget import solve_fair_tcim_budget, solve_tcim_budget
from repro.core.cover import solve_fair_tcim_cover
from repro.datasets.synthetic import synthetic_sbm
from repro.errors import ConfigError, EstimationError
from repro.influence.backends import BACKEND_NAMES
from repro.influence.ensemble import WorldEnsemble

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


def legacy_ensemble(backend: str) -> WorldEnsemble:
    graph, groups = synthetic_sbm(seed=DATASET_SEED, **SYN_PARAMS)
    return WorldEnsemble(
        graph, groups, n_worlds=N_WORLDS, seed=WORLD_SEED, backend=backend
    )


class TestBitIdentity:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("discount", [None, 0.9])
    def test_budget_matches_legacy_kwargs(self, backend, discount):
        spec = RunSpec(
            ensemble=ensemble_spec(),
            solver=SolverSpec(
                problem="budget",
                deadline=DEADLINE,
                fair=True,
                budget=4,
                discount=discount,
            ),
            execution=ExecutionSpec(backend=backend),
        )
        result = Session().solve(spec)
        legacy = solve_fair_tcim_budget(
            legacy_ensemble(backend), 4, DEADLINE, discount=discount
        )
        assert list(result.seeds) == legacy.seeds
        np.testing.assert_array_equal(
            result.trace.final_group_utilities, legacy.trace.final_group_utilities
        )
        np.testing.assert_array_equal(
            np.asarray(result.group_utilities), legacy.report.utilities
        )
        assert result.objective == legacy.trace.final_objective

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_unfair_budget_matches_legacy_kwargs(self, backend):
        spec = RunSpec(
            ensemble=ensemble_spec(),
            solver=SolverSpec(
                problem="budget", deadline=DEADLINE, fair=False, budget=4
            ),
            execution=ExecutionSpec(backend=backend),
        )
        result = Session().solve(spec)
        legacy = solve_tcim_budget(legacy_ensemble(backend), 4, DEADLINE)
        assert list(result.seeds) == legacy.seeds
        np.testing.assert_array_equal(
            np.asarray(result.group_utilities), legacy.report.utilities
        )

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_cover_matches_legacy_kwargs(self, backend):
        spec = RunSpec(
            ensemble=ensemble_spec(),
            solver=SolverSpec(
                problem="cover", deadline=math.inf, fair=True, quota=0.15
            ),
            execution=ExecutionSpec(backend=backend),
        )
        result = Session().solve(spec)
        legacy = solve_fair_tcim_cover(legacy_ensemble(backend), 0.15, math.inf)
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

    def test_backend_is_part_of_the_key(self):
        session = Session()
        spec = ensemble_spec()
        dense = session.ensemble_for(spec, ExecutionSpec(backend="dense"))
        sparse = session.ensemble_for(spec, ExecutionSpec(backend="sparse"))
        assert dense is not sparse
        assert dense.backend_name == "dense"
        assert sparse.backend_name == "sparse"
        assert session.cache_info["entries"] == 2

    def test_lru_eviction(self):
        session = Session(max_cached_ensembles=1)
        session.ensemble_for(ensemble_spec(), ExecutionSpec(backend="dense"))
        session.ensemble_for(ensemble_spec(), ExecutionSpec(backend="lazy"))
        assert session.cache_info["entries"] == 1

    def test_clear_cache(self):
        session = Session()
        session.ensemble_for(ensemble_spec())
        session.clear_cache()
        assert session.cache_info["entries"] == 0


class FakeEstimator:
    """A cache entry with known size and an observable shm unlink."""

    def __init__(self, nbytes):
        self.nbytes = nbytes
        self.unlinked = 0

    def unlink_shared(self):
        self.unlinked += 1


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

    def test_eviction_frees_bytes_and_unlinks_shm(self):
        session = Session(cache_bytes=100)
        first, second = FakeEstimator(60), FakeEstimator(60)
        session._cache_put(("k1",), first)
        assert session.cache_info["bytes"] == 60
        session._cache_put(("k2",), second)
        # 120 > 100: the LRU entry goes, its segments are unlinked.
        info = session.cache_info
        assert info["entries"] == 1
        assert info["bytes"] == 60
        assert info["evictions"] == 1
        assert first.unlinked == 1
        assert second.unlinked == 0

    def test_newest_entry_always_survives(self):
        # A single entry over the bound stays: evicting the ensemble a
        # solve is about to use would thrash forever.
        session = Session(cache_bytes=10)
        big = FakeEstimator(1000)
        session._cache_put(("k1",), big)
        assert session.cache_info["entries"] == 1
        assert big.unlinked == 0

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
        ensemble.close()
        assert ensemble.nbytes == 0

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

    Eviction drops cache *names* (and unlinks shm segments) while live
    references keep their mappings — so a thread mid-``solve_many`` on
    a just-evicted ensemble must still produce bit-identical results.
    A one-entry session with two alternating ensembles under four
    threads evicts continuously while every thread is solving.
    """

    @pytest.mark.parametrize("backend", ["dense", "sparse", "lazy"])
    def test_concurrent_solve_many_under_thrashing_cache(self, backend):
        specs = [
            RunSpec(
                ensemble=ensemble_spec(world_seed=seed),
                solver=SolverSpec(problem="budget", deadline=DEADLINE, budget=3),
                execution=ExecutionSpec(backend=backend),
            )
            for seed in (1, 2, 1, 2)
        ]
        expected = [
            (list(r.seeds), r.objective) for r in Session().solve_many(specs)
        ]

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
    def test_spec_beats_session_beats_process(self):
        session = Session(execution=ExecutionSpec(backend="sparse", block_size=8))
        with execution_defaults.override("backend", "lazy"):
            resolved = session.resolve_execution(ExecutionSpec(backend="dense"))
            assert resolved.backend == "dense"  # spec wins
            resolved = session.resolve_execution(ExecutionSpec())
            assert resolved.backend == "sparse"  # session beats process
            assert resolved.block_size == 8
        plain = Session()
        with execution_defaults.override("backend", "lazy"):
            assert plain.resolve_execution().backend == "lazy"  # process
        assert plain.resolve_execution().backend == "auto"  # library default

    def test_result_echoes_fully_resolved_spec(self):
        session = Session()
        result = session.solve(
            RunSpec(
                ensemble=ensemble_spec(),
                solver=SolverSpec(problem="budget", deadline=DEADLINE, budget=2),
                execution=ExecutionSpec(backend="auto"),
            )
        )
        echo = result.spec.execution
        assert echo.backend in BACKEND_NAMES  # "auto" resolved to a real store
        assert isinstance(echo.workers, int) and echo.workers >= 1
        assert isinstance(echo.block_size, int) and echo.block_size >= 1
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
        from repro.influence.factory import estimator_kinds

        assert set(estimator_kinds()) >= {"worlds", "rrset"}

    def test_worlds_kind_builds_world_ensemble(self):
        from repro.influence.factory import make_estimator

        spec = ensemble_spec(model="ic")
        graph, groups = synthetic_sbm(seed=DATASET_SEED, **SYN_PARAMS)
        estimator = make_estimator(spec, graph, groups, backend="dense")
        assert isinstance(estimator, WorldEnsemble)
        assert estimator.n_worlds == N_WORLDS
        assert estimator.backend_name == "dense"

    def test_rrset_kind_builds_rrset_estimator(self):
        from repro.influence.factory import make_estimator
        from repro.influence.rrsets import RRSetEstimator

        spec = ensemble_spec(kind="rrset", theta=500)
        graph, groups = synthetic_sbm(seed=DATASET_SEED, **SYN_PARAMS)
        estimator = make_estimator(spec, graph, groups)
        assert isinstance(estimator, RRSetEstimator)
        assert estimator.fixed_theta == 500
        # No backend_name: the session echo must keep reporting the
        # *distance* backend choice, which rrset runs never consume.
        assert not hasattr(estimator, "backend_name")

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

    def test_duplicate_registration_rejected(self):
        from repro.influence import factory

        with pytest.raises(EstimationError, match="already registered"):
            factory.register_estimator("worlds", lambda *a, **k: None)

    def test_register_and_unregister_custom_kind(self):
        from repro.influence import factory

        calls = []

        def builder(spec, graph, assignment, **kwargs):
            calls.append(kwargs["backend"])
            return "estimator"

        factory.register_estimator("test-kind", builder)
        try:
            spec = ensemble_spec(kind="test-kind")
            graph, groups = synthetic_sbm(seed=0, n=20)
            out = factory.make_estimator(spec, graph, groups, backend="dense")
            assert out == "estimator" and calls == ["dense"]
        finally:
            del factory._BUILDERS["test-kind"]


class TestDeprecationShims:
    def test_scoped_override_restores(self):
        from repro.experiments.common import get_default_backend, use_backend

        before = get_default_backend()
        with use_backend("lazy"):
            assert get_default_backend() == "lazy"
        assert get_default_backend() == before


class TestExperimentBuildEnsemble:
    def test_build_ensemble_routes_through_default_session(self):
        from repro.api.session import default_session
        from repro.experiments.common import build_ensemble

        graph, groups = synthetic_sbm(seed=0, n=40)
        session = default_session()
        before = session.cache_info
        first = build_ensemble(graph, groups, n_worlds=3, seed=5)
        again = build_ensemble(graph, groups, n_worlds=3, seed=5)
        assert first is again  # same graph object + params -> shared worlds
        after = session.cache_info
        assert after["hits"] >= before["hits"] + 1
        different = build_ensemble(graph, groups, n_worlds=4, seed=5)
        assert different is not first

    def test_build_ensemble_respects_explicit_backend(self):
        from repro.experiments.common import build_ensemble

        graph, groups = synthetic_sbm(seed=0, n=40)
        ensemble = build_ensemble(
            graph, groups, n_worlds=3, seed=5, backend="sparse"
        )
        assert ensemble.backend_name == "sparse"
