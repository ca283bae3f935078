"""Typed, declarative run specifications.

A solve used to be assembled from scattered per-call kwargs plus
mutable process-wide knobs — impossible to serialize, audit, or vary
safely per request.  These frozen dataclasses make the entire request
a *value*:

- :class:`EnsembleSpec` — what to estimate on: a named dataset (plus
  parameters and seed), the estimator kind, world count, diffusion
  model, world seed, and optional candidate pool.
- :class:`SolverSpec` — what to solve: budget (P1/P4) or cover
  (P2/P6), fair or unfair, with the paper's knobs (deadline, concave
  wrapper, weights, method, discount, quota, slack).
- :class:`ExecutionSpec` — how to run it: backend / block_size /
  build_workers, every field optional (``None`` defers down the config
  chain).  Execution never changes results, which is why it is a
  separate bundle: two runs with equal ensemble+solver specs are
  comparable regardless of execution.
- :class:`RunSpec` — the whole request: ensemble + solver + execution.

Every spec validates eagerly in ``__post_init__`` (fail fast, with
:class:`repro.errors.ConfigError`), round-trips through
``to_dict``/``from_dict`` and ``to_json``/``from_json`` losslessly, and
:meth:`EnsembleSpec.fingerprint` gives the stable cache key
:class:`repro.api.Session` shares ensembles under.

Validation reuses the library's canonical checkers
(``check_backend_name`` / ``check_workers`` / ``check_block_size`` /
``check_seed`` / ``concave.by_name``) so a spec accepts exactly what
the underlying layer accepts — one rule, every surface.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.api.datasets import dataset_names
from repro.core.concave import by_name as _concave_by_name
from repro.core.greedy import check_block_size
from repro.errors import ConfigError, EstimationError, OptimizationError
from repro.influence.backends import check_backend_name
from repro.influence.factory import estimator_kinds
from repro.influence.procbuild import check_build_workers
from repro.rng import check_seed

#: Spec schema version written by ``to_dict`` and accepted by
#: ``from_dict`` (tolerated absent for hand-written specs).
SPEC_VERSION = 1

#: Diffusion models an EnsembleSpec may name.
MODEL_CHOICES = ("ic", "lt")

#: Problems a SolverSpec may name.
PROBLEM_CHOICES = ("budget", "cover")


def _config_error(exc: Exception) -> ConfigError:
    """Re-type a lower-layer validation failure as configuration."""
    return ConfigError(str(exc))


#: ``ExecutionSpec.workers`` sentinel, accepted for compatibility.
AUTO_WORKERS = "auto"


def check_workers(
    workers: Optional[Union[int, str]], allow_none: bool = False
) -> Optional[Union[int, str]]:
    """Validate a ``workers`` setting (``int >= 1`` or ``"auto"``).

    The field has no effect — queries run serially — but spec files
    and CLI invocations that set it stay valid under the same rule
    they always had.
    """
    if workers is None:
        if allow_none:
            return None
        raise EstimationError("workers must be a positive int or 'auto', got None")
    if workers == AUTO_WORKERS:
        return AUTO_WORKERS
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise EstimationError(
            f"workers must be a positive int or 'auto', got {workers!r}"
        )
    if workers < 1:
        raise EstimationError(f"workers must be >= 1, got {workers}")
    return int(workers)


def _check_with(checker, value, *args, **kwargs):
    """Run a canonical checker, translating its error type to ConfigError."""
    try:
        return checker(value, *args, **kwargs)
    except (EstimationError, OptimizationError, ValueError) as exc:
        raise _config_error(exc) from None


def _encode_deadline(deadline: float) -> Union[float, str]:
    """Deadlines are floats, but strict JSON has no Infinity: encode
    ``math.inf`` as the string ``"inf"`` so spec files stay portable."""
    return "inf" if math.isinf(deadline) else float(deadline)


def _decode_deadline(value: Any) -> float:
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity", "+inf"):
            return math.inf
        raise ConfigError(f"deadline must be a number or 'inf', got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"deadline must be a number or 'inf', got {value!r}")
    if math.isnan(value):
        raise ConfigError("deadline must be a number or 'inf', got NaN")
    return float(value)


def _check_keys(data: Mapping[str, Any], allowed: Sequence[str], what: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown {what} keys: {', '.join(unknown)}; allowed: "
            f"{', '.join(allowed)}"
        )


def _require_mapping(data: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(data, Mapping):
        raise ConfigError(f"{what} must be a mapping, got {type(data).__name__}")
    return data


def _jsonable(value: Any, what: str) -> Any:
    """Assert ``value`` survives canonical JSON; return it unchanged."""
    try:
        json.dumps(value, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be JSON-serializable: {exc}") from None
    return value


@dataclass(frozen=True)
class EnsembleSpec:
    """What to estimate influence on — dataset, worlds, estimator kind.

    The dataset is *named* (see :mod:`repro.api.datasets`), never held:
    a spec plus its two seeds fully determines the sampled worlds, so
    equal specs share ensembles (:meth:`fingerprint` is the session
    cache key) and a JSON file replays the exact run.

    ``epsilon`` / ``delta`` / ``theta`` / ``max_theta`` configure the
    adaptive RR-set sampler and therefore only apply to
    ``kind="rrset"`` — naming one under ``kind="worlds"`` is rejected
    so the echoed spec never carries a knob the run ignored.  ``theta``
    pins the sample count outright, which conflicts with the adaptive
    knobs; ``kind="rrset"`` also requires ``model="ic"`` (RR sampling
    flips independent edge coins — exactly IC's live-edge measure).
    """

    dataset: str
    dataset_params: Dict[str, Any] = field(default_factory=dict)
    dataset_seed: int = 0
    kind: str = "worlds"
    n_worlds: int = 100
    model: str = "ic"
    world_seed: int = 0
    candidates: Optional[Tuple[Any, ...]] = None
    epsilon: Optional[float] = None
    delta: Optional[float] = None
    theta: Optional[int] = None
    max_theta: Optional[int] = None

    def __post_init__(self) -> None:
        if self.dataset not in dataset_names():
            raise ConfigError(
                f"unknown dataset {self.dataset!r}; registered datasets: "
                f"{', '.join(sorted(dataset_names()))}"
            )
        if self.kind not in estimator_kinds():
            raise ConfigError(
                f"unknown estimator kind {self.kind!r}; registered kinds: "
                f"{', '.join(sorted(estimator_kinds()))}"
            )
        params = _require_mapping(self.dataset_params, "dataset_params")
        for key in params:
            if not isinstance(key, str):
                raise ConfigError(
                    f"dataset_params keys must be str, got {key!r}"
                )
        object.__setattr__(
            self, "dataset_params", _jsonable(dict(params), "dataset_params")
        )
        object.__setattr__(
            self, "dataset_seed", _check_with(check_seed, self.dataset_seed)
        )
        object.__setattr__(
            self, "world_seed", _check_with(check_seed, self.world_seed)
        )
        if isinstance(self.n_worlds, bool) or not isinstance(self.n_worlds, int):
            raise ConfigError(f"n_worlds must be an int, got {self.n_worlds!r}")
        if self.n_worlds < 1:
            raise ConfigError(f"n_worlds must be >= 1, got {self.n_worlds}")
        if self.model not in MODEL_CHOICES:
            raise ConfigError(
                f"model must be one of {MODEL_CHOICES}, got {self.model!r}"
            )
        if self.candidates is not None:
            candidates = tuple(self.candidates)
            if not candidates:
                raise ConfigError("candidates must be None or non-empty")
            try:
                unique = len(set(candidates))
            except TypeError:
                raise ConfigError(
                    "candidates must be hashable node labels, got "
                    f"{candidates!r}"
                ) from None
            if unique != len(candidates):
                raise ConfigError("candidates contains duplicates")
            object.__setattr__(
                self, "candidates", _jsonable(candidates, "candidates")
            )
        rr_knobs = {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "theta": self.theta,
            "max_theta": self.max_theta,
        }
        named = [name for name, value in rr_knobs.items() if value is not None]
        if named and self.kind == "worlds":
            raise ConfigError(
                f"{', '.join(named)} only applies to kind='rrset' "
                f"(kind='worlds' would ignore it)"
            )
        if self.kind == "rrset" and self.model != "ic":
            raise ConfigError(
                "kind='rrset' requires model='ic' (RR-set sampling is "
                f"IC-only), got model={self.model!r}"
            )
        for name in ("epsilon", "delta"):
            value = rr_knobs[name]
            if value is None:
                continue
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not 0.0 < value < 1.0
            ):
                raise ConfigError(f"{name} must be in (0, 1), got {value!r}")
            object.__setattr__(self, name, float(value))
        for name in ("theta", "max_theta"):
            value = rr_knobs[name]
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an int, got {value!r}")
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.theta is not None:
            adaptive = [
                name
                for name in ("epsilon", "delta", "max_theta")
                if rr_knobs[name] is not None
            ]
            if adaptive:
                raise ConfigError(
                    f"theta pins the RR sample count; it conflicts with the "
                    f"adaptive knob(s) {', '.join(adaptive)}"
                )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dataset": self.dataset,
            "dataset_params": dict(self.dataset_params),
            "dataset_seed": self.dataset_seed,
            "kind": self.kind,
            "n_worlds": self.n_worlds,
            "model": self.model,
            "world_seed": self.world_seed,
            "candidates": None if self.candidates is None else list(self.candidates),
            "epsilon": self.epsilon,
            "delta": self.delta,
            "theta": self.theta,
            "max_theta": self.max_theta,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EnsembleSpec":
        data = _require_mapping(data, "ensemble spec")
        _check_keys(data, [f.name for f in fields(cls)], "ensemble spec")
        if "dataset" not in data:
            raise ConfigError("ensemble spec requires 'dataset'")
        kwargs = dict(data)
        if kwargs.get("candidates") is not None:
            try:
                kwargs["candidates"] = tuple(kwargs["candidates"])
            except TypeError:
                raise ConfigError(
                    f"candidates must be a list, got {kwargs['candidates']!r}"
                ) from None
        return cls(**kwargs)

    def fingerprint(self) -> str:
        """Stable content hash — the ensemble-cache key.

        Two specs with equal fields (in any construction order) hash
        identically; any estimation-relevant difference changes it.
        """
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(
            ("ensemble:" + canonical).encode("utf-8")
        ).hexdigest()


@dataclass(frozen=True)
class SolverSpec:
    """What to solve — one of the paper's four problems plus knobs.

    ``problem="budget"`` is P1 (``fair=False``) / P4 (``fair=True``,
    with ``concave``/``weights``); ``problem="cover"`` is P2 / P6 with
    ``quota`` (and optional ``max_seeds``/``slack``).  ``discount``
    applies the time-discounted selection extension (budget problems
    only, matching the solver surface).  Knobs that the named problem
    would silently ignore are rejected — the echoed spec must describe
    the solve that actually ran — which is why ``concave`` defaults to
    ``None`` (fair budget resolves it to the paper's ``"log"``) rather
    than a name every problem would carry.
    """

    problem: str
    deadline: float
    fair: bool = True
    budget: Optional[int] = None
    quota: Optional[float] = None
    max_seeds: Optional[int] = None
    slack: Optional[float] = None
    concave: Optional[str] = None
    weights: Optional[Tuple[float, ...]] = None
    method: str = "celf"
    discount: Optional[float] = None

    def __post_init__(self) -> None:
        if self.problem not in PROBLEM_CHOICES:
            raise ConfigError(
                f"problem must be one of {PROBLEM_CHOICES}, got {self.problem!r}"
            )
        object.__setattr__(self, "deadline", _decode_deadline(self.deadline))
        if self.deadline < 0:
            raise ConfigError(f"deadline must be >= 0, got {self.deadline}")
        if not isinstance(self.fair, bool):
            raise ConfigError(f"fair must be a bool, got {self.fair!r}")
        if self.method not in ("celf", "plain"):
            raise ConfigError(
                f"method must be 'celf' or 'plain', got {self.method!r}"
            )
        if self.concave is not None:
            _check_with(_concave_by_name, self.concave)  # resolvable name
            if self.problem != "budget" or not self.fair:
                raise ConfigError(
                    "concave only applies to the fair budget problem (P4)"
                )
        if self.discount is not None:
            if isinstance(self.discount, bool) or not isinstance(
                self.discount, (int, float)
            ):
                raise ConfigError(f"discount must be a number, got {self.discount!r}")
            if not 0.0 <= self.discount <= 1.0:
                raise ConfigError(f"discount must be in [0, 1], got {self.discount}")
            object.__setattr__(self, "discount", float(self.discount))
        if self.weights is not None:
            try:
                weights = tuple(float(w) for w in self.weights)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"weights must be a list of numbers, got {self.weights!r}"
                ) from None
            if any(w < 0 for w in weights):
                raise ConfigError(f"weights must be non-negative, got {weights}")
            object.__setattr__(self, "weights", weights)

        if self.problem == "budget":
            if self.budget is None:
                raise ConfigError("budget problems require 'budget'")
            if isinstance(self.budget, bool) or not isinstance(self.budget, int):
                raise ConfigError(f"budget must be an int, got {self.budget!r}")
            if self.budget < 1:
                raise ConfigError(f"budget must be >= 1, got {self.budget}")
            for name in ("quota", "max_seeds", "slack"):
                if getattr(self, name) is not None:
                    raise ConfigError(
                        f"{name!r} only applies to cover problems"
                    )
            if self.weights is not None and not self.fair:
                raise ConfigError(
                    "weights only apply to the fair budget problem (P4)"
                )
        else:  # cover
            if self.quota is None:
                raise ConfigError("cover problems require 'quota'")
            if not isinstance(self.quota, (int, float)) or isinstance(
                self.quota, bool
            ):
                raise ConfigError(f"quota must be a number, got {self.quota!r}")
            if not 0.0 < self.quota <= 1.0:
                raise ConfigError(f"quota must be in (0, 1], got {self.quota}")
            object.__setattr__(self, "quota", float(self.quota))
            if self.budget is not None:
                raise ConfigError("'budget' only applies to budget problems")
            if self.max_seeds is not None:
                if isinstance(self.max_seeds, bool) or not isinstance(
                    self.max_seeds, int
                ):
                    raise ConfigError(
                        f"max_seeds must be an int, got {self.max_seeds!r}"
                    )
                if self.max_seeds < 1:
                    raise ConfigError(
                        f"max_seeds must be >= 1, got {self.max_seeds}"
                    )
            if self.slack is not None:
                if not isinstance(self.slack, (int, float)) or isinstance(
                    self.slack, bool
                ):
                    raise ConfigError(f"slack must be a number, got {self.slack!r}")
                if self.slack < 0:
                    raise ConfigError(f"slack must be >= 0, got {self.slack}")
                object.__setattr__(self, "slack", float(self.slack))
            if self.discount is not None:
                raise ConfigError(
                    "discount only applies to budget problems (the cover "
                    "solvers score the paper's step utility)"
                )
            if self.weights is not None:
                raise ConfigError(
                    "weights only apply to the fair budget problem (P4)"
                )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "problem": self.problem,
            "deadline": _encode_deadline(self.deadline),
            "fair": self.fair,
            "budget": self.budget,
            "quota": self.quota,
            "max_seeds": self.max_seeds,
            "slack": self.slack,
            "concave": self.concave,
            "weights": None if self.weights is None else list(self.weights),
            "method": self.method,
            "discount": self.discount,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SolverSpec":
        data = _require_mapping(data, "solver spec")
        _check_keys(data, [f.name for f in fields(cls)], "solver spec")
        if "problem" not in data or "deadline" not in data:
            raise ConfigError("solver spec requires 'problem' and 'deadline'")
        kwargs = dict(data)
        if kwargs.get("weights") is not None:
            try:
                kwargs["weights"] = tuple(kwargs["weights"])
            except TypeError:
                raise ConfigError(
                    f"weights must be a list of numbers, got {kwargs['weights']!r}"
                ) from None
        return cls(**kwargs)


@dataclass(frozen=True)
class ExecutionSpec:
    """How to run a solve — backend / block_size / build_workers.

    Pure speed/memory knobs: no field ever changes a seed set, a trace,
    or an estimate (the library's determinism contract), which is why
    they live apart from the result-defining specs.  ``None`` defers
    down the chain: spec > session > process defaults
    (:data:`repro.config.execution_defaults`) > library default.
    ``build_workers`` process-shards world construction (see
    :mod:`repro.influence.procbuild`).  ``workers`` is accepted for
    compatibility with existing spec files and has no effect: queries
    run serially, and results echo ``workers: 1``.  It stays in
    :meth:`to_dict` because sweep cell fingerprints hash this section.
    """

    backend: Optional[str] = None
    workers: Optional[Union[int, str]] = None
    block_size: Optional[int] = None
    build_workers: Optional[Union[int, str]] = None

    def __post_init__(self) -> None:
        if self.backend is not None:
            _check_with(check_backend_name, self.backend)
        _check_with(check_workers, self.workers, allow_none=True)
        _check_with(check_block_size, self.block_size, allow_none=True)
        _check_with(check_build_workers, self.build_workers, allow_none=True)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "backend": self.backend,
            "workers": self.workers,
            "block_size": self.block_size,
            "build_workers": self.build_workers,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionSpec":
        data = _require_mapping(data, "execution spec")
        _check_keys(data, [f.name for f in fields(cls)], "execution spec")
        return cls(**dict(data))


@dataclass(frozen=True)
class RunSpec:
    """One complete, serializable solve request.

    ``Session.solve`` consumes these; ``repro solve spec.json`` is the
    CLI wrapper.  The result echoes back a fully-resolved copy (every
    execution field concrete) so any run is auditable after the fact.
    """

    ensemble: EnsembleSpec
    solver: SolverSpec
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)

    def __post_init__(self) -> None:
        if not isinstance(self.ensemble, EnsembleSpec):
            raise ConfigError(
                f"ensemble must be an EnsembleSpec, got "
                f"{type(self.ensemble).__name__}"
            )
        if not isinstance(self.solver, SolverSpec):
            raise ConfigError(
                f"solver must be a SolverSpec, got {type(self.solver).__name__}"
            )
        if not isinstance(self.execution, ExecutionSpec):
            raise ConfigError(
                f"execution must be an ExecutionSpec, got "
                f"{type(self.execution).__name__}"
            )
        if self.ensemble.kind == "rrset" and self.solver.discount is not None:
            raise ConfigError(
                "discount requires kind='worlds': the RR-set estimator "
                "records reachability within tau, not activation times"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": SPEC_VERSION,
            "ensemble": self.ensemble.to_dict(),
            "solver": self.solver.to_dict(),
            "execution": self.execution.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        data = _require_mapping(data, "run spec")
        _check_keys(
            data, ["version", "ensemble", "solver", "execution"], "run spec"
        )
        version = data.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ConfigError(
                f"unsupported spec version {version!r} (this library reads "
                f"version {SPEC_VERSION})"
            )
        if "ensemble" not in data or "solver" not in data:
            raise ConfigError("run spec requires 'ensemble' and 'solver'")
        return cls(
            ensemble=EnsembleSpec.from_dict(data["ensemble"]),
            solver=SolverSpec.from_dict(data["solver"]),
            execution=ExecutionSpec.from_dict(data.get("execution", {})),
        )

    def fingerprint(self) -> str:
        """Stable content hash of the *result-defining* request.

        Covers the ensemble and solver specs only: execution knobs
        never change seed sets, traces or estimates (the library's
        determinism contract), so two requests differing only in
        execution produce bit-identical results and hash identically.
        This is the single-flight key the solve service dedupes
        concurrent requests under.
        """
        canonical = json.dumps(
            {"ensemble": self.ensemble.to_dict(), "solver": self.solver.to_dict()},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(("run:" + canonical).encode("utf-8")).hexdigest()

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"spec is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    def with_execution(self, **overrides) -> "RunSpec":
        """Copy with execution fields overridden (other fields shared)."""
        return replace(self, execution=replace(self.execution, **overrides))


def spec_template(problem: str = "budget") -> RunSpec:
    """A small, runnable starter spec (what ``repro spec init`` emits).

    Sized to finish in seconds on the paper's synthetic family so
    ``repro spec init | repro solve -`` works as a smoke test anywhere.
    Execution is left entirely unset (all ``null`` in the JSON): the
    chain then resolves through the session — which is what keeps the
    CLI's ``--backend``/``--block-size``/``--build-workers`` flags in
    charge when solving a template-derived spec.
    """
    if problem == "budget":
        solver = SolverSpec(problem="budget", deadline=20.0, fair=True, budget=10)
    elif problem == "cover":
        solver = SolverSpec(problem="cover", deadline=20.0, fair=True, quota=0.4)
    else:
        raise ConfigError(
            f"problem must be one of {PROBLEM_CHOICES}, got {problem!r} "
            "(sweep templates come from repro.sweep.sweep_template; the "
            "JSON reference for every spec kind is docs/SPECS.md)"
        )
    return RunSpec(
        ensemble=EnsembleSpec(
            dataset="synthetic",
            dataset_params={"n": 200, "activation_probability": 0.05},
            dataset_seed=0,
            n_worlds=50,
            world_seed=1,
        ),
        solver=solver,
    )
