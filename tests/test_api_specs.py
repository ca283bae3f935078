"""Spec-layer tests: validation fails fast, round-trips are lossless.

The declarative layer's contract is that a spec is a *value*: frozen,
eagerly validated with ``ConfigError``, equal to itself after any
``dict``/JSON round trip, and stably fingerprinted for the ensemble
cache.
"""

import json
import math

import pytest

from repro.api import (
    EnsembleSpec,
    ExecutionSpec,
    RunSpec,
    SolverSpec,
    spec_template,
)
from repro.errors import ConfigError


def budget_spec(**overrides) -> SolverSpec:
    base = dict(problem="budget", deadline=20.0, budget=5)
    base.update(overrides)
    return SolverSpec(**base)


def cover_spec(**overrides) -> SolverSpec:
    base = dict(problem="cover", deadline=20.0, quota=0.4)
    base.update(overrides)
    return SolverSpec(**base)


class TestRoundTrip:
    def full_spec(self) -> RunSpec:
        return RunSpec(
            ensemble=EnsembleSpec(
                dataset="synthetic",
                dataset_params={"n": 80, "activation_probability": 0.1},
                dataset_seed=3,
                n_worlds=7,
                model="lt",
                world_seed=11,
                candidates=(0, 1, 2, 5),
            ),
            solver=SolverSpec(
                problem="budget",
                deadline=12.0,
                fair=True,
                budget=3,
                concave="sqrt",
                weights=(1.0, 2.0),
                discount=0.9,
            ),
            execution=ExecutionSpec(workers=2, build_workers=2),
        )

    def test_dict_round_trip_is_identity(self):
        spec = self.full_spec()
        data = spec.to_dict()
        assert RunSpec.from_dict(data) == spec
        # dict -> spec -> dict identity too (the acceptance criterion).
        assert RunSpec.from_dict(data).to_dict() == data

    def test_json_round_trip_is_identity(self):
        spec = self.full_spec()
        assert RunSpec.from_json(spec.to_json()) == spec
        # The JSON text is strict JSON (no Infinity/NaN literals).
        json.loads(spec.to_json())

    def test_infinite_deadline_round_trips_as_strict_json(self):
        spec = RunSpec(
            ensemble=EnsembleSpec(dataset="example"),
            solver=cover_spec(deadline=math.inf),
        )
        text = spec.to_json()
        assert '"inf"' in text
        back = RunSpec.from_json(text)
        assert math.isinf(back.solver.deadline)
        assert back == spec

    def test_template_round_trips_and_validates(self):
        for problem in ("budget", "cover"):
            spec = spec_template(problem)
            assert RunSpec.from_json(spec.to_json()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        data = spec_template().to_dict()
        data["solver"]["budgetz"] = 5
        with pytest.raises(ConfigError, match="budgetz"):
            RunSpec.from_dict(data)

    def test_from_dict_rejects_bad_version(self):
        data = spec_template().to_dict()
        data["version"] = 99
        with pytest.raises(ConfigError, match="version"):
            RunSpec.from_dict(data)

    def test_from_dict_tolerates_missing_version_and_execution(self):
        data = spec_template().to_dict()
        del data["version"]
        del data["execution"]
        spec = RunSpec.from_dict(data)
        assert spec.execution == ExecutionSpec()

    def test_from_json_rejects_non_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            RunSpec.from_json("{nope")

    def test_missing_required_keys_are_config_errors(self):
        # Never a raw TypeError: the CLI promises friendly failures.
        data = spec_template().to_dict()
        del data["ensemble"]["dataset"]
        with pytest.raises(ConfigError, match="dataset"):
            RunSpec.from_dict(data)
        data = spec_template().to_dict()
        del data["solver"]["deadline"]
        with pytest.raises(ConfigError, match="deadline"):
            RunSpec.from_dict(data)

    def test_malformed_values_are_config_errors(self):
        data = spec_template().to_dict()
        data["solver"]["weights"] = ["a", "b"]
        with pytest.raises(ConfigError, match="weights"):
            RunSpec.from_dict(data)
        data = spec_template().to_dict()
        data["solver"]["weights"] = 3
        with pytest.raises(ConfigError, match="weights"):
            RunSpec.from_dict(data)
        data = spec_template().to_dict()
        data["ensemble"]["candidates"] = [[1, 2]]
        with pytest.raises(ConfigError, match="candidates"):
            RunSpec.from_dict(data)

    def test_template_leaves_execution_unset(self):
        # All-null execution is what keeps CLI flags (session defaults)
        # in charge when solving a template-derived spec.
        for problem in ("budget", "cover"):
            assert spec_template(problem).execution == ExecutionSpec()


class TestEnsembleSpecValidation:
    def test_unknown_dataset(self):
        with pytest.raises(ConfigError, match="unknown dataset"):
            EnsembleSpec(dataset="imaginary")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="estimator kind"):
            EnsembleSpec(dataset="synthetic", kind="psychic")

    def test_rrset_kind_is_a_valid_spec(self):
        spec = EnsembleSpec(dataset="synthetic", kind="rrset")
        assert EnsembleSpec.from_dict(spec.to_dict()) == spec

    def test_rrset_knobs_round_trip(self):
        spec = EnsembleSpec(
            dataset="synthetic", kind="rrset", epsilon=0.2, delta=0.01
        )
        assert EnsembleSpec.from_dict(spec.to_dict()) == spec
        pinned = EnsembleSpec(dataset="synthetic", kind="rrset", theta=5000)
        assert EnsembleSpec.from_dict(pinned.to_dict()) == pinned

    def test_rrset_knobs_rejected_for_worlds(self):
        # kind="worlds" ignores the sampler knobs, so naming one is an
        # error — the echoed spec must describe the run that happened.
        for knob in (
            {"epsilon": 0.1},
            {"delta": 0.01},
            {"theta": 100},
            {"max_theta": 1000},
        ):
            with pytest.raises(ConfigError, match="rrset"):
                EnsembleSpec(dataset="synthetic", **knob)

    def test_rrset_knob_ranges(self):
        for bad in ({"epsilon": 0.0}, {"epsilon": 1.0}, {"epsilon": "x"}):
            with pytest.raises(ConfigError, match="epsilon"):
                EnsembleSpec(dataset="synthetic", kind="rrset", **bad)
        with pytest.raises(ConfigError, match="delta"):
            EnsembleSpec(dataset="synthetic", kind="rrset", delta=2.0)
        with pytest.raises(ConfigError, match="theta"):
            EnsembleSpec(dataset="synthetic", kind="rrset", theta=0)
        with pytest.raises(ConfigError, match="max_theta"):
            EnsembleSpec(dataset="synthetic", kind="rrset", max_theta=True)

    def test_theta_conflicts_with_adaptive_knobs(self):
        with pytest.raises(ConfigError, match="conflicts"):
            EnsembleSpec(
                dataset="synthetic", kind="rrset", theta=100, epsilon=0.1
            )
        with pytest.raises(ConfigError, match="conflicts"):
            EnsembleSpec(
                dataset="synthetic", kind="rrset", theta=100, max_theta=200
            )

    def test_rrset_requires_ic_model(self):
        with pytest.raises(ConfigError, match="model='ic'"):
            EnsembleSpec(dataset="synthetic", kind="rrset", model="lt")

    def test_bad_worlds_model_seeds(self):
        with pytest.raises(ConfigError, match="n_worlds"):
            EnsembleSpec(dataset="synthetic", n_worlds=0)
        with pytest.raises(ConfigError, match="model"):
            EnsembleSpec(dataset="synthetic", model="sir")
        with pytest.raises(ConfigError, match="seed"):
            EnsembleSpec(dataset="synthetic", dataset_seed=-1)
        with pytest.raises(ConfigError, match="seed"):
            EnsembleSpec(dataset="synthetic", world_seed="one")

    def test_bad_candidates(self):
        with pytest.raises(ConfigError, match="non-empty"):
            EnsembleSpec(dataset="synthetic", candidates=())
        with pytest.raises(ConfigError, match="duplicates"):
            EnsembleSpec(dataset="synthetic", candidates=(1, 1))

    def test_params_must_be_jsonable_str_keyed(self):
        with pytest.raises(ConfigError, match="JSON-serializable"):
            EnsembleSpec(dataset="synthetic", dataset_params={"n": object()})
        with pytest.raises(ConfigError, match="keys must be str"):
            EnsembleSpec(dataset="synthetic", dataset_params={1: 2})


class TestSolverSpecValidation:
    def test_problem_required_fields(self):
        with pytest.raises(ConfigError, match="problem"):
            SolverSpec(problem="p7", deadline=1.0)
        with pytest.raises(ConfigError, match="require 'budget'"):
            SolverSpec(problem="budget", deadline=1.0)
        with pytest.raises(ConfigError, match="require 'quota'"):
            SolverSpec(problem="cover", deadline=1.0)

    def test_cross_family_fields_rejected(self):
        with pytest.raises(ConfigError, match="cover"):
            budget_spec(quota=0.5)
        with pytest.raises(ConfigError, match="budget"):
            cover_spec(budget=3)
        with pytest.raises(ConfigError, match="discount"):
            cover_spec(discount=0.9)
        with pytest.raises(ConfigError, match="weights"):
            cover_spec(weights=(1.0, 2.0))
        with pytest.raises(ConfigError, match="weights"):
            budget_spec(fair=False, weights=(1.0, 2.0))
        # concave is rejected wherever the solve would ignore it, so
        # the echoed spec never misstates the objective that ran.
        with pytest.raises(ConfigError, match="concave"):
            budget_spec(fair=False, concave="sqrt")
        with pytest.raises(ConfigError, match="concave"):
            cover_spec(concave="sqrt")

    def test_numeric_ranges(self):
        with pytest.raises(ConfigError, match="budget"):
            budget_spec(budget=0)
        with pytest.raises(ConfigError, match="quota"):
            cover_spec(quota=1.5)
        with pytest.raises(ConfigError, match="deadline"):
            budget_spec(deadline=-1.0)
        with pytest.raises(ConfigError, match="deadline"):
            budget_spec(deadline=math.nan)
        with pytest.raises(ConfigError, match="deadline"):
            # json.loads accepts the non-standard NaN literal.
            SolverSpec.from_dict(
                json.loads('{"problem": "budget", "deadline": NaN, "budget": 5}')
            )
        with pytest.raises(ConfigError, match="discount"):
            budget_spec(discount=1.5)
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(ConfigError, match="weights"):
                budget_spec(weights=[bad, 1.0])
            with pytest.raises(ConfigError, match="slack"):
                cover_spec(slack=bad)
        with pytest.raises(ConfigError, match="weights"):
            SolverSpec.from_dict(
                json.loads(
                    '{"problem": "budget", "deadline": 5, "budget": 2, '
                    '"weights": [NaN, 1]}'
                )
            )
        # The greedy engine and its block size are no longer spec
        # fields: old spec files carrying them fail the strict key check.
        with pytest.raises(ConfigError, match="method"):
            SolverSpec.from_dict(
                {"problem": "budget", "deadline": 5, "budget": 2, "method": "celf"}
            )
        with pytest.raises(ConfigError, match="block_size"):
            ExecutionSpec.from_dict({"block_size": 64})
        with pytest.raises(ConfigError, match="concave"):
            budget_spec(concave="cos")

    def test_default_concave_resolves_to_log_in_the_echo(self):
        from repro.api import Session

        spec = RunSpec(
            ensemble=EnsembleSpec(
                dataset="synthetic",
                dataset_params={"n": 60},
                n_worlds=3,
            ),
            solver=budget_spec(budget=2, deadline=10.0),
        )
        assert spec.solver.concave is None
        result = Session().solve(spec)
        assert result.spec.solver.concave == "log"
        assert "H=log" in result.problem


class TestExecutionSpecValidation:
    def test_all_fields_optional(self):
        spec = ExecutionSpec()
        assert spec.workers is None
        assert spec.build_workers is None

    def test_shared_validators(self):
        # ``backend`` is gone: a spec still carrying it fails the strict
        # key check, like the deleted ``method``/``block_size``.
        with pytest.raises(ConfigError, match="backend"):
            ExecutionSpec.from_dict({"backend": "dense"})
        data = spec_template().to_dict()
        data["execution"]["backend"] = None
        with pytest.raises(ConfigError, match="backend"):
            RunSpec.from_dict(data)
        with pytest.raises(ConfigError, match="workers"):
            ExecutionSpec(workers=0)
        with pytest.raises(ConfigError, match="build_workers"):
            ExecutionSpec(build_workers=0)

    def test_build_workers_error_parity_with_workers(self):
        # Same phrasing family as check_workers, per the canonical
        # checkers (only the knob name differs).
        for bad in (0, -1, 2.5, "fast", True):
            with pytest.raises(ConfigError) as build_err:
                ExecutionSpec(build_workers=bad)
            with pytest.raises(ConfigError) as workers_err:
                ExecutionSpec(workers=bad)
            assert str(build_err.value) == str(workers_err.value).replace(
                "workers", "build_workers"
            )

    def test_check_workers_rejects_bad_values(self):
        from repro.api.specs import AUTO_WORKERS, check_workers
        from repro.errors import EstimationError

        for bad in (0, -1, 2.5, "fast", True):
            with pytest.raises(EstimationError):
                check_workers(bad)
        with pytest.raises(EstimationError):
            check_workers(None)  # allow_none defaults to False
        assert check_workers(None, allow_none=True) is None
        assert check_workers(AUTO_WORKERS) == AUTO_WORKERS

    def test_build_workers_round_trips(self):
        for value in (None, 1, 4, "auto"):
            spec = ExecutionSpec(build_workers=value)
            assert spec.to_dict()["build_workers"] == value
            assert ExecutionSpec.from_dict(spec.to_dict()) == spec


class TestFingerprint:
    def test_equal_specs_hash_equal(self):
        a = EnsembleSpec(dataset="synthetic", dataset_params={"n": 80, "p_hom": 0.02})
        b = EnsembleSpec(dataset="synthetic", dataset_params={"p_hom": 0.02, "n": 80})
        assert a == b
        assert a.fingerprint() == b.fingerprint()

    def test_any_field_changes_fingerprint(self):
        base = EnsembleSpec(dataset="synthetic", n_worlds=10, world_seed=1)
        variants = [
            EnsembleSpec(dataset="synthetic", n_worlds=11, world_seed=1),
            EnsembleSpec(dataset="synthetic", n_worlds=10, world_seed=2),
            EnsembleSpec(dataset="synthetic", n_worlds=10, world_seed=1, model="lt"),
            EnsembleSpec(dataset="rice", n_worlds=10, world_seed=1),
        ]
        prints = {spec.fingerprint() for spec in variants}
        assert base.fingerprint() not in prints
        assert len(prints) == len(variants)

    def test_with_execution_shares_result_defining_specs(self):
        spec = spec_template()
        tweaked = spec.with_execution(build_workers=3, workers=2)
        assert tweaked.ensemble is spec.ensemble
        assert tweaked.solver is spec.solver
        assert tweaked.execution.build_workers == 3
        assert tweaked.ensemble.fingerprint() == spec.ensemble.fingerprint()

    def test_build_workers_never_touches_the_fingerprint(self):
        # build_workers is execution-only: two runs differing solely in
        # it must share a cached ensemble.
        spec = spec_template()
        tweaked = spec.with_execution(build_workers=4)
        assert tweaked.execution.build_workers == 4
        assert tweaked.ensemble.fingerprint() == spec.ensemble.fingerprint()
