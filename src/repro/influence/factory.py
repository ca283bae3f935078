"""Estimator factory: ``EnsembleSpec.kind`` -> estimator builder.

The solver layer is typed against the
:class:`~repro.influence.backends.UtilityEstimator` protocol, so *which*
estimator backs a solve is a pure construction decision.  This module
is that decision's single registry: the declarative layer
(:class:`repro.api.Session`) asks :func:`make_estimator` for whatever
``kind`` a spec names, and new estimator families plug in with
:func:`register_estimator` without touching the session or the solvers.

Two kinds ship today:

``"worlds"``
    The common-random-numbers
    :class:`~repro.influence.ensemble.WorldEnsemble` — the workhorse
    behind every paper experiment, under any distance backend.
``"rrset"``
    The group-tagged reverse-reachable-set estimator
    (:class:`~repro.influence.rrsets.RRSetEstimator`): IMM/OPIM-style
    adaptive sampling with per-group coverage counts, the scalable
    alternative when a full distance tensor will not fit.  IC model
    only, no ``discount`` support; see the module docs for its
    ``epsilon`` / ``delta`` / ``theta`` knobs.

Builders receive the spec plus an already-built ``(graph, assignment)``
pair — dataset resolution happens a layer up (specs name datasets;
builders never fetch data) — and the execution knobs the caller
resolved through the config chain.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from repro.config import execution_defaults
from repro.errors import EstimationError

#: builder(spec, graph, assignment, *, backend, backend_options,
#: build_workers)
EstimatorBuilder = Callable[..., Any]

_BUILDERS: Dict[str, EstimatorBuilder] = {}


def register_estimator(
    kind: str, builder: EstimatorBuilder, replace: bool = False
) -> None:
    """Register a builder for estimator ``kind``.

    ``replace=True`` allows overriding an existing registration (tests
    swap in instrumented builders); otherwise a duplicate kind is an
    error, so two extensions cannot silently shadow each other.
    """
    if not kind or not isinstance(kind, str):
        raise EstimationError(f"estimator kind must be a non-empty str, got {kind!r}")
    if kind in _BUILDERS and not replace:
        raise EstimationError(
            f"estimator kind {kind!r} is already registered; pass replace=True "
            "to override"
        )
    _BUILDERS[kind] = builder


def estimator_kinds() -> Tuple[str, ...]:
    """Registered estimator kinds, in registration order."""
    return tuple(_BUILDERS)


def make_estimator(
    spec: Any,
    graph: Any,
    assignment: Any,
    backend: Optional[str] = None,
    backend_options: Optional[Dict[str, Any]] = None,
    build_workers: Optional[Any] = None,
):
    """Build the estimator a spec describes, over a built dataset.

    ``spec`` is duck-typed (anything exposing the
    :class:`repro.api.EnsembleSpec` fields — ``kind``, ``n_worlds``,
    ``model``, ``world_seed``, ``candidates``), which keeps this layer
    importable without the api package.  ``backend=None`` defers to the
    process default; ``backend_options``/``build_workers`` pass
    through to the builder.
    """
    kind = getattr(spec, "kind", "worlds")
    try:
        builder = _BUILDERS[kind]
    except KeyError:
        raise EstimationError(
            f"unknown estimator kind {kind!r}; registered kinds: "
            f"{', '.join(sorted(_BUILDERS))}"
        ) from None
    return builder(
        spec,
        graph,
        assignment,
        backend=backend,
        backend_options=backend_options,
        build_workers=build_workers,
    )


def _build_world_ensemble(
    spec: Any,
    graph: Any,
    assignment: Any,
    backend: Optional[str] = None,
    backend_options: Optional[Dict[str, Any]] = None,
    build_workers: Optional[Any] = None,
):
    """The ``"worlds"`` kind: a :class:`WorldEnsemble` per the spec."""
    from repro.influence.ensemble import WorldEnsemble

    candidates = getattr(spec, "candidates", None)
    return WorldEnsemble(
        graph,
        assignment,
        n_worlds=getattr(spec, "n_worlds", 100),
        candidates=None if candidates is None else list(candidates),
        model=getattr(spec, "model", "ic"),
        seed=getattr(spec, "world_seed", 0),
        backend=backend
        if backend is not None
        else execution_defaults.get("backend", "auto"),
        backend_options=backend_options,
        build_workers=build_workers,
    )


register_estimator("worlds", _build_world_ensemble)

from repro.influence.rrsets import build_rrset_estimator  # noqa: E402

register_estimator("rrset", build_rrset_estimator)
