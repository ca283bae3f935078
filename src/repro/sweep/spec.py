"""Declarative scenario sweeps: a :class:`SweepSpec` over RunSpec axes.

The paper's figures each probe one slice of the (graph, edge model,
tau, budget, fairness variant) space; GraphWorld (KDD'22) showed that
method *rankings* can flip entirely as generator parameters sweep.  A
:class:`SweepSpec` makes that exploration a value, exactly like the PR
4 run specs made one solve a value:

- a **base** :class:`~repro.api.specs.RunSpec` — the template every
  cell starts from;
- **axes** — dotted spec paths (``"solver.budget"``,
  ``"ensemble.dataset_params.p_hom"``, ``"ensemble.n_worlds"``) mapped
  to value lists, expanded as a grid (Cartesian product, axes in
  sorted-path order, values in listed order — a canonical order, so
  equal specs expand to identical cell sequences);
- explicit **cells** — override mappings appended after the grid for
  the combinations a grid cannot express;
- **replicates** — the whole expansion repeated with fresh derived
  seeds, GraphWorld-style;
- **baselines** — names from :data:`repro.baselines.BASELINE_CHOICES`
  every cell compares greedy against.

**Seed derivation.**  With ``derive_seeds`` (the default), each cell's
``dataset_seed``/``world_seed`` come from
``numpy.random.SeedSequence(sweep_seed, spawn_key=(replicate,
ensemble_index))``, where ``ensemble_index`` numbers the *distinct
ensemble-affecting override combinations* in first-appearance order.
Keying by the ensemble coordinates (not the raw cell index) is what
lets cells that differ only in solver or execution overrides share one
:class:`~repro.api.specs.EnsembleSpec` fingerprint — and therefore one
world build in the session cache — while still giving every distinct
graph configuration, and every replicate, an independent draw.  Any
cell is reproducible in isolation: expansion is a pure function of the
spec, so :func:`repro.sweep.runner.run_cell` can re-derive one cell's
seeds without running the rest.  Set ``derive_seeds=False`` to pin the
base seeds across all cells instead (common-random-numbers sweeps, the
figure scripts' methodology — then sweeping ``ensemble.world_seed``
explicitly is allowed).

Like every spec in :mod:`repro.api.specs`: frozen, eagerly validated
(:class:`~repro.errors.ConfigError`), JSON-round-trippable, and
content-fingerprinted.  Expansion happens at validation time too, so a
bad cell (an axis value the underlying spec rejects, or two cells that
collide) fails at load, before any world is sampled.  See
``docs/SPECS.md`` for the JSON reference.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import itertools
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.api.specs import (
    RunSpec,
    SPEC_VERSION,
    _check_keys,
    _jsonable,
    _require_mapping,
)
from repro.baselines.heuristics import BASELINE_CHOICES, check_baseline_name
from repro.errors import ConfigError
from repro.rng import check_seed

#: Hard cap on expanded cells — a typo'd axis should fail fast, not
#: schedule a month of solves.
MAX_CELLS = 4096

#: Spec sections an axis path may enter.
_AXIS_ROOTS = ("ensemble", "solver", "execution")

#: Paths that conflict with derived seeds (the derivation overwrites
#: them, so letting an axis set them would silently lose the axis).
_DERIVED_SEED_PATHS = ("ensemble.dataset_seed", "ensemble.world_seed")


def _canonical(value: Any) -> str:
    """Canonical JSON — the equality/fingerprint notion for override
    values (0.5 == 0.5 across a JSONL round trip, dict order ignored)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _check_axis_path(path: Any) -> str:
    if not isinstance(path, str) or not path:
        raise ConfigError(f"axis path must be a non-empty str, got {path!r}")
    parts = path.split(".")
    if any(not part for part in parts):
        raise ConfigError(f"axis path {path!r} has an empty segment")
    if parts[0] not in _AXIS_ROOTS:
        raise ConfigError(
            f"axis path {path!r} must start with one of "
            f"{'/'.join(_AXIS_ROOTS)}"
        )
    if len(parts) < 2:
        raise ConfigError(
            f"axis path {path!r} names a whole section; point it at a "
            f"field (e.g. {path}.budget)"
        )
    return path


def apply_overrides(
    base: Mapping[str, Any], overrides: Mapping[str, Any]
) -> Dict[str, Any]:
    """Apply dotted-path overrides to a RunSpec dict (deep copy).

    Every intermediate segment must already exist as a mapping, and the
    final segment must name an existing field — except inside
    ``ensemble.dataset_params``, which is free-form (its keys belong to
    the dataset builder, not the spec schema).  The returned dict is
    re-validated by ``RunSpec.from_dict``, so this only needs to catch
    *path* mistakes with a message that names the path.
    """
    data = copy.deepcopy(dict(base))
    for path, value in overrides.items():
        parts = path.split(".")
        node: Any = data
        for depth, part in enumerate(parts[:-1]):
            if not isinstance(node, dict) or part not in node:
                raise ConfigError(
                    f"override path {path!r}: {'.'.join(parts[: depth + 1])!r} "
                    "is not a spec field"
                )
            node = node[part]
        if not isinstance(node, dict):
            raise ConfigError(
                f"override path {path!r}: {'.'.join(parts[:-1])!r} is not a "
                "mapping"
            )
        freeform = "dataset_params" in parts[:-1]
        if parts[-1] not in node and not freeform:
            raise ConfigError(
                f"override path {path!r} names no field of the "
                f"{'.'.join(parts[:-1])!r} spec; its fields are: "
                f"{', '.join(sorted(node))}"
            )
        node[parts[-1]] = value
    return data


@dataclass(frozen=True)
class SweepCell:
    """One fully-materialised point of a sweep.

    ``spec`` is a complete, validated :class:`RunSpec` (derived seeds
    already substituted); ``overrides`` records which axis/list values
    produced it (the tidy-output columns); ``baseline_seed`` feeds the
    ``"random"`` baseline so its draw is reproducible in isolation too.
    """

    index: int
    replicate: int
    overrides: Dict[str, Any]
    spec: RunSpec
    baseline_seed: int

    def fingerprint(self) -> str:
        """Stable content hash identifying this cell *within its sweep*.

        Covers the complete resolved run spec — including execution,
        unlike :meth:`RunSpec.fingerprint`, because a sweep may
        legitimately put an execution knob on an axis, and those cells
        must stay distinct rows — plus the
        replicate number.  This is the resume key: a row in
        ``cells.jsonl`` bearing this hash is this cell, finished.
        """
        canonical = json.dumps(
            {"replicate": self.replicate, "run": self.spec.to_dict()},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(("cell:" + canonical).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SweepSpec:
    """A declarative scenario sweep (see the module docstring).

    Validation expands the whole grid eagerly: every cell's
    :class:`RunSpec` must construct and every cell fingerprint must be
    unique, so a sweep that loads is a sweep that can run.  The
    validated cells are kept, and :meth:`expand` serves copies of them.
    """

    base: RunSpec
    axes: Dict[str, Tuple[Any, ...]] = field(default_factory=dict)
    cells: Tuple[Dict[str, Any], ...] = ()
    replicates: int = 1
    seed: int = 0
    baselines: Tuple[str, ...] = BASELINE_CHOICES
    name: str = "sweep"
    derive_seeds: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.base, RunSpec):
            raise ConfigError(
                f"base must be a RunSpec, got {type(self.base).__name__}"
            )
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError(f"name must be a non-empty str, got {self.name!r}")
        if isinstance(self.replicates, bool) or not isinstance(
            self.replicates, int
        ):
            raise ConfigError(
                f"replicates must be an int, got {self.replicates!r}"
            )
        if self.replicates < 1:
            raise ConfigError(f"replicates must be >= 1, got {self.replicates}")
        try:
            object.__setattr__(self, "seed", check_seed(self.seed))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not isinstance(self.derive_seeds, bool):
            raise ConfigError(
                f"derive_seeds must be a bool, got {self.derive_seeds!r}"
            )
        if self.replicates > 1 and not self.derive_seeds:
            raise ConfigError(
                "replicates > 1 requires derive_seeds (identical seeds would "
                "make every replicate the same computation)"
            )

        baselines = tuple(self.baselines)
        for name in baselines:
            check_baseline_name(name)
        if len(set(baselines)) != len(baselines):
            raise ConfigError(f"baselines contains duplicates: {baselines}")
        object.__setattr__(self, "baselines", baselines)

        axes_in = _require_mapping(self.axes, "axes")
        axes: Dict[str, Tuple[Any, ...]] = {}
        for path, values in axes_in.items():
            _check_axis_path(path)
            self._check_override_target(path)
            if isinstance(values, (str, bytes)) or not isinstance(
                values, Sequence
            ):
                raise ConfigError(
                    f"axis {path!r} must map to a list of values, got "
                    f"{values!r}"
                )
            if not values:
                raise ConfigError(f"axis {path!r} has no values")
            seen = set()
            for value in values:
                key = _canonical(_jsonable(value, f"axis {path!r} value"))
                if key in seen:
                    raise ConfigError(
                        f"axis {path!r} repeats the value {value!r}"
                    )
                seen.add(key)
            axes[path] = tuple(values)
        object.__setattr__(self, "axes", axes)

        cells_in = self.cells
        if isinstance(cells_in, Mapping) or not isinstance(
            cells_in, Sequence
        ):
            raise ConfigError(
                f"cells must be a list of override mappings, got {cells_in!r}"
            )
        cells: List[Dict[str, Any]] = []
        for position, overrides in enumerate(cells_in):
            overrides = _require_mapping(overrides, f"cells[{position}]")
            if not overrides:
                raise ConfigError(
                    f"cells[{position}] is empty — an explicit cell must "
                    "override at least one field (the bare base is the "
                    "empty-axes grid)"
                )
            clean: Dict[str, Any] = {}
            for path, value in overrides.items():
                _check_axis_path(path)
                self._check_override_target(path)
                clean[path] = _jsonable(value, f"cells[{position}][{path!r}]")
            cells.append(clean)
        object.__setattr__(self, "cells", tuple(cells))

        # Expand eagerly: every cell must construct, fingerprints must
        # be unique, and the count must be sane — fail at load time.
        if not self._cells:
            raise ConfigError("sweep expands to no cells")

    def _check_override_target(self, path: str) -> None:
        if self.derive_seeds and path in _DERIVED_SEED_PATHS:
            raise ConfigError(
                f"{path!r} cannot be swept while derive_seeds is on (the "
                "per-cell derivation would overwrite it); set "
                "derive_seeds=false to sweep seeds explicitly"
            )

    # ------------------------------------------------------------------
    # expansion
    # ------------------------------------------------------------------
    def _combos(self) -> List[Dict[str, Any]]:
        """Grid combinations (sorted-path axis order, values in listed
        order, last axis fastest) followed by the explicit cells."""
        paths = sorted(self.axes)
        combos = [
            dict(zip(paths, values))
            for values in itertools.product(*(self.axes[p] for p in paths))
        ]
        combos.extend(dict(cell) for cell in self.cells)
        return combos

    def expand(self) -> List[SweepCell]:
        """Every cell, in canonical order, with derived seeds.

        Deterministic given the spec — the runner, the resume path and
        a single-cell re-run all call this and agree on indices,
        seeds and fingerprints.  The cells are copies of the ones
        validation built, so a caller may change them freely.
        """
        return copy.deepcopy(list(self._cells))

    @functools.cached_property
    def _cells(self) -> Tuple[SweepCell, ...]:
        """Materialise every cell (validation builds this once; the
        frozen spec cannot change under it)."""
        combos = self._combos()
        total = len(combos) * self.replicates
        if total > MAX_CELLS:
            raise ConfigError(
                f"sweep expands to {total} cells (cap {MAX_CELLS}); shrink "
                "an axis or split the sweep"
            )
        base_dict = self.base.to_dict()
        # Distinct ensemble-affecting override combinations, numbered in
        # first-appearance order: the spawn key that makes solver-only
        # neighbours share worlds (module docstring).
        ensemble_index: Dict[str, int] = {}
        for overrides in combos:
            key = _canonical(
                {p: v for p, v in overrides.items() if p.startswith("ensemble.")}
            )
            ensemble_index.setdefault(key, len(ensemble_index))

        cells: List[SweepCell] = []
        seen: Dict[str, int] = {}
        index = 0
        for replicate in range(self.replicates):
            for position, overrides in enumerate(combos):
                data = apply_overrides(base_dict, overrides)
                if self.derive_seeds:
                    ekey = _canonical(
                        {
                            p: v
                            for p, v in overrides.items()
                            if p.startswith("ensemble.")
                        }
                    )
                    sequence = np.random.SeedSequence(
                        self.seed,
                        spawn_key=(replicate, ensemble_index[ekey]),
                    )
                    dataset_seed, world_seed = (
                        int(s) for s in sequence.generate_state(2)
                    )
                    data["ensemble"]["dataset_seed"] = dataset_seed
                    data["ensemble"]["world_seed"] = world_seed
                baseline_seed = int(
                    np.random.SeedSequence(
                        self.seed, spawn_key=(replicate, position, 1)
                    ).generate_state(1)[0]
                )
                try:
                    run = RunSpec.from_dict(data)
                except ConfigError as exc:
                    raise ConfigError(
                        f"sweep cell {position} (overrides "
                        f"{_canonical(overrides)}): {exc}"
                    ) from None
                cell = SweepCell(
                    index=index,
                    replicate=replicate,
                    overrides=dict(sorted(overrides.items())),
                    spec=run,
                    baseline_seed=baseline_seed,
                )
                fingerprint = cell.fingerprint()
                if fingerprint in seen:
                    raise ConfigError(
                        f"cells {seen[fingerprint]} and {index} are "
                        f"identical (overrides {_canonical(cell.overrides)}); "
                        "every cell must be a distinct computation"
                    )
                seen[fingerprint] = index
                cells.append(cell)
                index += 1
        return tuple(cells)

    def cell_count(self) -> int:
        return (
            len(self._combos()) * self.replicates
        )

    def find_cell(self, fingerprint: str) -> SweepCell:
        """The cell whose fingerprint starts with ``fingerprint``.

        Accepts unambiguous prefixes of at least 8 hex chars (the tidy
        outputs print 12), so re-running a cell from a CSV row is a
        copy-paste.
        """
        if not isinstance(fingerprint, str) or len(fingerprint) < 8:
            raise ConfigError(
                "cell fingerprint must be at least 8 hex characters, got "
                f"{fingerprint!r}"
            )
        matches = [
            cell
            for cell in self._cells
            if cell.fingerprint().startswith(fingerprint)
        ]
        if not matches:
            raise ConfigError(
                f"no cell of sweep {self.name!r} matches fingerprint "
                f"{fingerprint!r}"
            )
        if len(matches) > 1:
            raise ConfigError(
                f"fingerprint prefix {fingerprint!r} is ambiguous "
                f"({len(matches)} cells); use more characters"
            )
        return copy.deepcopy(matches[0])

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": SPEC_VERSION,
            "sweep": {
                "name": self.name,
                "seed": self.seed,
                "replicates": self.replicates,
                "derive_seeds": self.derive_seeds,
                "axes": {path: list(values) for path, values in self.axes.items()},
                "cells": [dict(cell) for cell in self.cells],
                "baselines": list(self.baselines),
            },
            "base": self.base.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        data = _require_mapping(data, "sweep spec")
        _check_keys(data, ["version", "sweep", "base"], "sweep spec")
        version = data.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ConfigError(
                f"unsupported spec version {version!r} (this library reads "
                f"version {SPEC_VERSION})"
            )
        if "sweep" not in data or "base" not in data:
            raise ConfigError("sweep spec requires 'sweep' and 'base'")
        sweep = _require_mapping(data["sweep"], "sweep section")
        allowed = [f.name for f in fields(cls) if f.name != "base"]
        _check_keys(sweep, allowed, "sweep section")
        kwargs = dict(sweep)
        if "cells" in kwargs:
            cells = kwargs["cells"]
            if isinstance(cells, (str, bytes, Mapping)) or not isinstance(
                cells, Sequence
            ):
                raise ConfigError(
                    f"cells must be a list of override mappings, got {cells!r}"
                )
            kwargs["cells"] = tuple(cells)
        if "baselines" in kwargs:
            baselines = kwargs["baselines"]
            if isinstance(baselines, (str, bytes)) or not isinstance(
                baselines, Sequence
            ):
                raise ConfigError(
                    f"baselines must be a list of names, got {baselines!r}"
                )
            kwargs["baselines"] = tuple(baselines)
        return cls(base=RunSpec.from_dict(data["base"]), **kwargs)

    def fingerprint(self) -> str:
        """Stable content hash of the whole sweep.

        Covers everything — including the base execution spec and any
        execution axes, because sweep outputs include runtime columns
        that execution changes.  This is the key ``run_sweep`` stamps
        into ``sweep.json``, so a resume into an output directory can
        refuse to mix two different sweeps.
        """
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(("sweep:" + canonical).encode("utf-8")).hexdigest()

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"sweep spec is not valid JSON: {exc}") from None
        return cls.from_dict(data)


def is_sweep_dict(data: Any) -> bool:
    """Whether a parsed JSON document is a sweep spec (vs a run spec).

    The discriminator the CLI uses: sweep documents carry a ``"sweep"``
    section, which :meth:`RunSpec.from_dict` would reject.
    """
    return isinstance(data, Mapping) and "sweep" in data


def sweep_template() -> SweepSpec:
    """A small, runnable starter sweep (``repro spec init --problem sweep``).

    A 2x2 grid — SBM homophily x budget — over a subminute synthetic
    family, sized so ``repro sweep`` finishes in well under a minute
    anywhere (it is also the CI smoke grid).
    """
    return SweepSpec(
        name="homophily-x-budget",
        base=RunSpec.from_dict(
            {
                "ensemble": {
                    "dataset": "synthetic",
                    "dataset_params": {"n": 150, "activation_probability": 0.05},
                    "n_worlds": 30,
                },
                "solver": {
                    "problem": "budget",
                    "deadline": 15.0,
                    "fair": True,
                    "budget": 5,
                },
            }
        ),
        axes={
            "ensemble.dataset_params.p_hom": [0.01, 0.04],
            "solver.budget": [3, 6],
        },
        baselines=("random", "degree"),
        seed=7,
    )
