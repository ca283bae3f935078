"""``repro.api`` — the declarative run-spec façade.

Turn a solve into a value::

    from repro.api import EnsembleSpec, RunSpec, Session, SolverSpec

    spec = RunSpec(
        ensemble=EnsembleSpec(dataset="synthetic", n_worlds=100, world_seed=1),
        solver=SolverSpec(problem="budget", budget=30, deadline=20),
    )
    session = Session()
    result = session.solve(spec)
    print(result.disparity, result.spec.to_json())

Specs are frozen, validated eagerly, and JSON-round-trippable
(:mod:`repro.api.specs`); a session caches built estimators under
their ensemble spec's fingerprint, so many solves over one graph share
worlds, and echoes each request back on its result with the execution
section it ran under (:mod:`repro.api.session`); datasets are resolved
by name (:mod:`repro.api.datasets`).  The CLI mirrors this surface:
``repro spec init | repro solve -``.
"""

from repro.api.datasets import build_dataset, dataset_names, register_dataset
from repro.api.session import (
    DEFAULT_MAX_CACHED_ENSEMBLES,
    RunResult,
    Session,
    check_cache_bytes,
)
from repro.api.specs import (
    ESTIMATOR_KINDS,
    MODEL_CHOICES,
    PROBLEM_CHOICES,
    SPEC_VERSION,
    EnsembleSpec,
    ExecutionSpec,
    RunSpec,
    SolverSpec,
    spec_template,
)

__all__ = [
    "EnsembleSpec",
    "SolverSpec",
    "ExecutionSpec",
    "RunSpec",
    "RunResult",
    "Session",
    "DEFAULT_MAX_CACHED_ENSEMBLES",
    "check_cache_bytes",
    "spec_template",
    "dataset_names",
    "register_dataset",
    "build_dataset",
    "SPEC_VERSION",
    "ESTIMATOR_KINDS",
    "MODEL_CHOICES",
    "PROBLEM_CHOICES",
]
