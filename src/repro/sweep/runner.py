"""Execute a :class:`~repro.sweep.spec.SweepSpec` into tidy tabular output.

One :class:`~repro.api.session.Session` runs every cell, so the
expansion's canonical order pays off directly: consecutive cells that
differ only in solver or execution overrides hit the session's
ensemble cache and reuse one world build (the ``ensemble_index`` seed
derivation in :mod:`repro.sweep.spec` exists precisely so those cells
carry identical :class:`~repro.api.specs.EnsembleSpec` fingerprints).

Per cell, greedy is solved through the session and every baseline
named by the sweep is evaluated *on the same estimator, at the same
deadline, with the same budget* (the number of seeds greedy actually
picked — which also makes cover cells comparable, where the "budget"
is an outcome, not an input).  The result is one row per cell:

- ``cells.jsonl`` — full rows, one canonical-JSON object per line,
  appended as cells finish (the crash-safe ledger);
- ``cells.csv`` — the flat analysis table (axis columns, per-method
  utility/disparity, winner, margin, timings);
- ``rank_shift.json`` — where greedy's advantage collapses: winner
  counts overall and per axis value, the cells a baseline won, and
  margin summaries;
- ``sweep.json`` — the spec echo plus its fingerprint.

**Resume.**  ``run_sweep`` into an existing directory first checks
``sweep.json``'s fingerprint (refusing to mix two sweeps), then loads
``cells.jsonl`` and skips every cell whose fingerprint already has a
row — a killed sweep restarts where it stopped, tolerating a truncated
final line.  On completion the JSONL is rewritten clean in cell order.

**Determinism.**  Everything in a row except its ``"timings"``
sub-object is a pure function of the sweep spec and the cell — the
estimator stack's determinism contract (see ``docs/ARCHITECTURE.md``)
plus the spec-derived seeds guarantee it.  ``deterministic_row`` strips
the timings; re-running any cell in isolation via :func:`run_cell`
must reproduce its in-sweep row bit-identically under that projection
(``tests/test_sweep.py`` enforces it, including across worker counts).
"""

from __future__ import annotations

import csv
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.api.session import Session, _jsonify_label
from repro.baselines.heuristics import baseline_seeds
from repro.errors import ConfigError
from repro.sweep.spec import SweepCell, SweepSpec

#: progress(cell, row, computed) — computed=False means resumed from disk.
ProgressHook = Callable[[SweepCell, Dict[str, Any], bool], None]


def _dump_row(row: Dict[str, Any]) -> str:
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def deterministic_row(row: Dict[str, Any]) -> Dict[str, Any]:
    """The bit-identity projection of a row: everything but timings.

    Wall-clock measurements and cache hits legitimately differ between
    a full sweep and an isolated re-run; every other field must not.
    """
    return {key: value for key, value in row.items() if key != "timings"}


def _evaluate(estimator, seeds: Sequence[Any], deadline: float) -> Dict[str, Any]:
    """Step-utility metrics for a seed set — the one yardstick every
    method in a cell is measured with."""
    state = estimator.state_for(seeds)
    utilities = np.asarray(
        estimator.group_utilities(state, deadline), dtype=np.float64
    )
    sizes = np.asarray(estimator.group_sizes, dtype=np.float64)
    fractions = utilities / sizes
    return {
        "total_fraction": float(utilities.sum() / sizes.sum()),
        "disparity": float(fractions.max() - fractions.min()),
        "group_fractions": [float(f) for f in fractions],
    }


def solve_cell(
    sweep: SweepSpec, cell: SweepCell, session: Session
) -> Dict[str, Any]:
    """Solve one cell and build its row (see the module docstring)."""
    started = time.perf_counter()
    result = session.solve(cell.spec)
    estimator = session.ensemble_for(cell.spec.ensemble)
    deadline = cell.spec.solver.deadline

    methods: Dict[str, Dict[str, Any]] = {}
    methods["greedy"] = {
        "seeds": [_jsonify_label(s) for s in result.seeds],
        "seed_count": result.seed_count,
        **_evaluate(estimator, result.seeds, deadline),
        "objective": float(result.objective),
        "evaluations": result.evaluations,
        "stopped_reason": result.stopped_reason,
    }

    # Baselines spend greedy's realised seed count — for budget cells
    # that's the budget; for cover cells it's the certificate size.
    budget = result.seed_count
    baseline_seconds: Dict[str, float] = {}
    for name in sweep.baselines:
        tick = time.perf_counter()
        if budget == 0:
            seeds: List[Any] = []
        else:
            seeds = baseline_seeds(
                name,
                estimator.graph,
                estimator.assignment,
                budget,
                candidates=cell.spec.ensemble.candidates,
                seed=cell.baseline_seed,
            )
        methods[name] = {
            "seeds": [_jsonify_label(s) for s in seeds],
            "seed_count": len(seeds),
            **_evaluate(estimator, seeds, deadline),
        }
        baseline_seconds[name] = time.perf_counter() - tick

    order = ("greedy",) + sweep.baselines
    winner_utility = order[0]
    winner_disparity = order[0]
    for name in order[1:]:
        if methods[name]["total_fraction"] > methods[winner_utility]["total_fraction"]:
            winner_utility = name
        if methods[name]["disparity"] < methods[winner_disparity]["disparity"]:
            winner_disparity = name
    greedy_margin: Optional[float] = None
    if sweep.baselines:
        greedy_margin = methods["greedy"]["total_fraction"] - max(
            methods[name]["total_fraction"] for name in sweep.baselines
        )

    return {
        "fingerprint": cell.fingerprint(),
        "index": cell.index,
        "replicate": cell.replicate,
        "sweep": sweep.name,
        "overrides": cell.overrides,
        "problem": cell.spec.solver.problem,
        "dataset": cell.spec.ensemble.dataset,
        "spec": cell.spec.to_dict(),
        "methods": methods,
        "winner_utility": winner_utility,
        "winner_disparity": winner_disparity,
        "greedy_margin": greedy_margin,
        "timings": {
            "build_seconds": result.build_seconds,
            "solve_seconds": result.solve_seconds,
            "baseline_seconds": baseline_seconds,
            "cell_seconds": time.perf_counter() - started,
            "ensemble_cached": result.ensemble_cached,
        },
    }


def run_cell(
    sweep: SweepSpec, fingerprint: str, session: Optional[Session] = None
) -> Dict[str, Any]:
    """Re-run one cell, identified by (a prefix of) its fingerprint.

    Builds only that cell's world — expansion re-derives its seeds from
    the spec, so nothing else in the sweep needs to exist.  Under
    :func:`deterministic_row` the result is bit-identical to the row
    the full sweep wrote.
    """
    cell = sweep.find_cell(fingerprint)
    if session is None:
        session = Session()
    return solve_cell(sweep, cell, session)


@dataclass(frozen=True)
class SweepSummary:
    """What :func:`run_sweep` did: the rows (cell order), how many were
    freshly computed vs resumed from disk, and the rank-shift report."""

    spec: SweepSpec
    out_dir: str
    rows: List[Dict[str, Any]] = field(repr=False)
    computed: int
    skipped: int
    report: Dict[str, Any] = field(repr=False)


def run_sweep(
    spec: SweepSpec,
    out_dir,
    session: Optional[Session] = None,
    resume: bool = True,
    progress: Optional[ProgressHook] = None,
) -> SweepSummary:
    """Run every cell of ``spec`` into ``out_dir`` (see module docstring).

    ``resume=True`` (default) skips cells already present in
    ``cells.jsonl``; ``resume=False`` recomputes everything (the output
    directory must still belong to this sweep).  ``session`` defaults
    to a fresh :class:`Session`; pass one to control execution defaults
    or share an ensemble cache with other work.
    """
    cells = spec.expand()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    fingerprint = spec.fingerprint()
    sweep_path = out / "sweep.json"
    if sweep_path.exists():
        try:
            stamp = json.loads(sweep_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            raise ConfigError(
                f"{sweep_path} is not valid JSON; refusing to reuse the "
                "directory — point --out somewhere fresh"
            ) from None
        if stamp.get("fingerprint") != fingerprint:
            raise ConfigError(
                f"{out} holds a different sweep "
                f"(fingerprint {str(stamp.get('fingerprint'))[:12]}..., this "
                f"spec is {fingerprint[:12]}...); use a fresh directory"
            )
    else:
        sweep_path.write_text(
            json.dumps(
                {"fingerprint": fingerprint, "spec": spec.to_dict()},
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )

    jsonl_path = out / "cells.jsonl"
    expected = {cell.fingerprint() for cell in cells}
    done: Dict[str, Dict[str, Any]] = {}
    if resume and jsonl_path.exists():
        for line in jsonl_path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                # A kill mid-append leaves at most one truncated line;
                # that cell simply recomputes.
                continue
            if isinstance(row, dict) and row.get("fingerprint") in expected:
                done[row["fingerprint"]] = row

    if session is None:
        session = Session()

    rows: List[Dict[str, Any]] = []
    computed = skipped = 0
    with jsonl_path.open(
        "a" if resume else "w", encoding="utf-8"
    ) as sink:
        for cell in cells:
            cell_fingerprint = cell.fingerprint()
            if cell_fingerprint in done:
                row = done[cell_fingerprint]
                skipped += 1
            else:
                row = solve_cell(spec, cell, session)
                sink.write(_dump_row(row) + "\n")
                sink.flush()
                computed += 1
            rows.append(row)
            if progress is not None:
                progress(cell, row, cell_fingerprint not in done)

    # Rewrite the ledger clean: cell order, no truncated tail.
    tmp = out / "cells.jsonl.tmp"
    tmp.write_text(
        "".join(_dump_row(row) + "\n" for row in rows), encoding="utf-8"
    )
    tmp.replace(jsonl_path)

    write_csv(spec, rows, out / "cells.csv")
    report = rank_shift_report(spec, rows)
    (out / "rank_shift.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return SweepSummary(
        spec=spec,
        out_dir=str(out),
        rows=rows,
        computed=computed,
        skipped=skipped,
        report=report,
    )


def _cell_value(value: Any) -> Any:
    """CSV cell for an override value (scalars as-is, structures as JSON)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def write_csv(spec: SweepSpec, rows: List[Dict[str, Any]], path) -> None:
    """Flatten rows into the analysis table (one axis/override per column,
    per-method utility and disparity, winners, margin, timings)."""
    override_paths = sorted({p for row in rows for p in row["overrides"]})
    methods = ("greedy",) + spec.baselines
    header = (
        ["fingerprint", "index", "replicate", "problem", "dataset"]
        + override_paths
        + ["winner_utility", "winner_disparity", "greedy_margin"]
        + ["greedy_seed_count", "greedy_objective"]
    )
    for name in methods:
        header += [f"{name}_total_fraction", f"{name}_disparity"]
    header += ["ensemble_cached", "build_seconds", "solve_seconds", "cell_seconds"]

    with Path(path).open("w", encoding="utf-8", newline="") as sink:
        writer = csv.writer(sink)
        writer.writerow(header)
        for row in rows:
            timings = row["timings"]
            record = [
                row["fingerprint"],
                row["index"],
                row["replicate"],
                row["problem"],
                row["dataset"],
            ]
            record += [
                _cell_value(row["overrides"].get(p, "")) for p in override_paths
            ]
            record += [
                row["winner_utility"],
                row["winner_disparity"],
                row["greedy_margin"],
                row["methods"]["greedy"]["seed_count"],
                row["methods"]["greedy"]["objective"],
            ]
            for name in methods:
                record += [
                    row["methods"][name]["total_fraction"],
                    row["methods"][name]["disparity"],
                ]
            record += [
                timings["ensemble_cached"],
                timings["build_seconds"],
                timings["solve_seconds"],
                timings["cell_seconds"],
            ]
            writer.writerow(record)


def rank_shift_report(
    spec: SweepSpec, rows: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Tabulate where greedy's advantage collapses.

    ``collapses`` lists every cell a baseline won on utility;
    ``by_axis`` slices winner counts and greedy margins per axis value
    (in the axis's declared value order), which is where a rank shift
    shows up as a trend rather than noise.  Pure function of the rows'
    deterministic part, so the report is as reproducible as the rows.
    """
    winners = Counter(row["winner_utility"] for row in rows)
    margins = [
        row["greedy_margin"]
        for row in rows
        if row["greedy_margin"] is not None
    ]
    collapses = [
        {
            "fingerprint": row["fingerprint"],
            "overrides": row["overrides"],
            "winner_utility": row["winner_utility"],
            "greedy_margin": row["greedy_margin"],
        }
        for row in rows
        if row["winner_utility"] != "greedy"
    ]

    by_axis: Dict[str, List[Dict[str, Any]]] = {}
    for path in sorted(spec.axes):
        entries: List[Dict[str, Any]] = []
        for value in spec.axes[path]:
            key = json.dumps(value, sort_keys=True)
            bucket = [
                row
                for row in rows
                if path in row["overrides"]
                and json.dumps(row["overrides"][path], sort_keys=True) == key
            ]
            if not bucket:
                continue
            bucket_margins = [
                row["greedy_margin"]
                for row in bucket
                if row["greedy_margin"] is not None
            ]
            entries.append(
                {
                    "value": value,
                    "cells": len(bucket),
                    "winners": dict(
                        sorted(
                            Counter(
                                row["winner_utility"] for row in bucket
                            ).items()
                        )
                    ),
                    "greedy_wins": sum(
                        1 for row in bucket if row["winner_utility"] == "greedy"
                    ),
                    "mean_margin": (
                        sum(bucket_margins) / len(bucket_margins)
                        if bucket_margins
                        else None
                    ),
                    "min_margin": min(bucket_margins) if bucket_margins else None,
                }
            )
        by_axis[path] = entries

    return {
        "sweep": spec.name,
        "cells": len(rows),
        "methods": ["greedy", *spec.baselines],
        "winners": dict(sorted(winners.items())),
        "greedy_wins": winners.get("greedy", 0),
        "mean_margin": sum(margins) / len(margins) if margins else None,
        "min_margin": min(margins) if margins else None,
        "collapses": collapses,
        "by_axis": by_axis,
    }
