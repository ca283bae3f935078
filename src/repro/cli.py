"""Command-line interface.

Usage::

    python -m repro.cli list
    python -m repro.cli run fig4a [--quick] [--seed N] [--workers N|auto] [--build-workers N|auto]
    python -m repro.cli run all [--quick]
    python -m repro.cli spec init [--problem budget|cover|sweep] [--out FILE]
    python -m repro.cli spec validate FILE [FILE ...]
    python -m repro.cli solve SPEC [SPEC ...] [--json] [--delta FILE] [--workers N|auto] [--build-workers N|auto]
    python -m repro.cli sweep SPEC --out DIR [--cell FINGERPRINT] [--fresh] [--json]
    python -m repro.cli serve [--host H] [--port P] [--cache-bytes SIZE] [--threads N] [--max-pending N] [--timeout S]

``run`` reproduces the paper's figures/tables; the exit code is
non-zero when any shape check fails, so it doubles as a reproduction
smoke test.  ``solve`` is the declarative path: it reads
:class:`repro.api.RunSpec` JSON files (``-`` for stdin) and runs them
through one :class:`repro.api.Session`, so several specs over the same
ensemble share worlds.  Specs pick their estimator with
``ensemble.kind`` — ``"worlds"`` (the default live-edge ensemble) or
``"rrset"`` (adaptive reverse-reachable sets; see
``examples/spec_rrset.json``).  ``solve --delta FILE`` folds a
:class:`repro.graph.GraphDelta` JSON batch of edge mutations into the
spec's world ensemble before solving — an in-place repair of the
sampled worlds, bit-identical to rebuilding the mutated graph from
scratch.  ``spec init`` emits a runnable template —
``repro spec init | repro solve -`` is the zero-to-result pipeline —
and ``spec validate`` lints spec files without running them (CI lints
the committed examples this way); both understand run specs *and*
sweep specs (the JSON reference for either is ``docs/SPECS.md``).
``sweep`` expands a :class:`repro.sweep.SweepSpec` grid over RunSpec
fields and runs every cell through one shared-cache session — greedy
compared against the named baselines per cell, tidy row-per-cell
``cells.jsonl``/``cells.csv`` output, and a ``rank_shift.json`` report
of where greedy's advantage collapses.  Re-running into the same
``--out`` resumes from the finished cells' fingerprints; ``--cell``
reproduces any single cell in isolation, bit-identically to its
in-sweep row (timings aside).  ``serve`` hosts the same spec layer
as a long-lived HTTP/JSON service (``POST /v1/solve``) with in-flight
deduplication, a byte-bounded ensemble cache and streamed selection
traces; see :mod:`repro.service`.

All numeric flags are validated by the same canonical checkers the
spec layer uses, so a bad value is an argparse usage error with the
library's message, never a traceback.  Configuration errors in spec
files exit with code 2 and a one-line message.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.api import (
    DEFAULT_MAX_CACHED_ENSEMBLES,
    ExecutionSpec,
    RunSpec,
    Session,
    spec_template,
)
from repro.api.specs import AUTO_WORKERS, check_build_workers, check_workers
from repro.errors import ConfigError, EstimationError, ReproError
from repro.graph.delta import GraphDelta
from repro.rng import check_seed
from repro.sweep import SweepSpec, is_sweep_dict, run_cell, run_sweep, sweep_template
from repro.service.config import (
    DEFAULT_DRAIN_SECONDS,
    DEFAULT_MAX_PENDING,
    DEFAULT_PORT,
    DEFAULT_SOLVER_THREADS,
    parse_size,
)


def _count_arg(check):
    """An argparse type for a worker-count flag: whatever ``check``
    accepts (positive int or ``"auto"``).

    One source of truth for the rules — only the error type is
    translated for argparse.
    """

    def parse(value: str):
        candidate: object = value
        if value != AUTO_WORKERS:
            try:
                candidate = int(value)
            except ValueError:
                pass  # let the checker produce the canonical message
        try:
            return check(candidate)
        except EstimationError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _size_arg(value: str) -> int:
    """``--cache-bytes``: the service layer's ``parse_size`` rule
    (positive int, optional k/m/g suffix)."""
    try:
        return parse_size(value)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _port_arg(value: str) -> int:
    """``--port``: an int in [0, 65535] (0 binds any free port)."""
    try:
        port = int(value)
    except ValueError:
        port = -1
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(
            f"port must be an int in [0, 65535], got {value!r}"
        )
    return port


def _positive_int_arg(name: str):
    """Argparse type for a strictly positive integer flag."""

    def convert(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            number = 0
        if number < 1:
            raise argparse.ArgumentTypeError(
                f"{name} must be a positive int, got {value!r}"
            )
        return number

    return convert


def _seconds_arg(name: str):
    """Argparse type for a strictly positive seconds flag."""

    def convert(value: str) -> float:
        try:
            number = float(value)
        except ValueError:
            number = 0.0
        if not number > 0:
            raise argparse.ArgumentTypeError(
                f"{name} must be a positive number of seconds, got {value!r}"
            )
        return number

    return convert


def _seed_arg(value: str) -> int:
    """``--seed``: the spec layer's ``check_seed`` rule."""
    try:
        return check_seed(int(value))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, got {value!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairtcim",
        description=(
            "Reproduction harness for 'On the Fairness of Time-Critical "
            "Influence Maximization in Social Networks' (ICDE 2022)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all experiment ids")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id from 'list', or 'all'")
    run.add_argument(
        "--quick",
        action="store_true",
        help="reduced sample counts / sweeps (seconds instead of minutes)",
    )
    run.add_argument(
        "--seed", type=_seed_arg, default=0, help="master RNG seed (non-negative int)"
    )
    _add_execution_flags(run)

    solve = sub.add_parser(
        "solve", help="run declarative RunSpec JSON files ('-' reads stdin)"
    )
    solve.add_argument(
        "specs",
        nargs="+",
        metavar="SPEC",
        help="path to a RunSpec JSON file, or '-' for stdin",
    )
    solve.add_argument(
        "--json",
        action="store_true",
        help="print results as a JSON array instead of text summaries",
    )
    solve.add_argument(
        "--delta",
        default=None,
        metavar="FILE",
        help=(
            "GraphDelta JSON file of edge inserts/removes/reweights to "
            "fold into the spec's world ensemble before solving "
            "(in-place repair, then a cold CELF solve; results are "
            "bit-identical to rebuilding the mutated graph from "
            "scratch); requires exactly one SPEC"
        ),
    )
    _add_execution_flags(solve)

    spec = sub.add_parser("spec", help="create and lint RunSpec files")
    spec_sub = spec.add_subparsers(dest="spec_command", required=True)
    init = spec_sub.add_parser(
        "init", help="emit a runnable template spec (stdout or --out)"
    )
    init.add_argument(
        "--problem",
        choices=("budget", "cover", "sweep"),
        default="budget",
        help=(
            "template family (default: budget); 'sweep' emits a runnable "
            "2x2 SweepSpec grid for 'repro sweep'"
        ),
    )
    init.add_argument(
        "--out", default=None, metavar="FILE", help="write to FILE instead of stdout"
    )
    validate = spec_sub.add_parser(
        "validate",
        help=(
            "lint spec files against the validators (no solve); accepts "
            "run specs and sweep specs — JSON reference: docs/SPECS.md"
        ),
    )
    validate.add_argument("files", nargs="+", metavar="FILE")

    sweep = sub.add_parser(
        "sweep",
        help="run a SweepSpec grid into a tidy output directory",
        description=(
            "Expand a SweepSpec JSON grid over RunSpec fields and run "
            "every cell through one shared-cache session: greedy vs the "
            "named baselines per cell, row-per-cell cells.jsonl / "
            "cells.csv output, and a rank_shift.json report of where "
            "greedy's advantage collapses.  Re-running into the same "
            "--out resumes, skipping cells whose fingerprints already "
            "have rows.  --cell re-runs one cell by fingerprint (an "
            ">=8-char prefix is enough) and prints its row as JSON — "
            "bit-identical, timings aside, to the row the full sweep "
            "wrote.  JSON reference: docs/SPECS.md."
        ),
    )
    sweep.add_argument(
        "spec", metavar="SPEC", help="SweepSpec JSON file, or '-' for stdin"
    )
    sweep.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="output directory (created if needed; reusing one resumes)",
    )
    sweep.add_argument(
        "--cell",
        default=None,
        metavar="FINGERPRINT",
        help=(
            "run only the cell with this fingerprint (>=8-char prefix) "
            "and print its row JSON to stdout; --out is not required"
        ),
    )
    sweep.add_argument(
        "--fresh",
        action="store_true",
        help="recompute every cell even if --out already has rows",
    )
    sweep.add_argument(
        "--json",
        action="store_true",
        help="print the rank-shift report as JSON instead of a text summary",
    )
    _add_execution_flags(sweep)

    serve = sub.add_parser(
        "serve",
        help="run the HTTP/JSON solve service (POST /v1/solve)",
        description=(
            "Host the declarative spec layer as a long-lived service: "
            "concurrent identical requests dedup onto one in-flight "
            "solve, requests sharing an ensemble batch onto one cached "
            "world build, and POST /v1/solve?stream=1 streams the "
            "greedy selection trace as NDJSON.  Responses are "
            "bit-identical to 'repro solve' on the same spec."
        ),
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=_port_arg,
        default=DEFAULT_PORT,
        help=f"TCP port (default: {DEFAULT_PORT}; 0 binds any free port)",
    )
    serve.add_argument(
        "--cache-bytes",
        type=_size_arg,
        default=None,
        metavar="SIZE",
        help=(
            "byte bound on the shared ensemble cache — a positive int "
            "or a k/m/g-suffixed size like 512m; the oldest ensembles "
            "are evicted until the cache fits (default: entry-count LRU "
            "only)"
        ),
    )
    serve.add_argument(
        "--max-ensembles",
        type=_positive_int_arg("max-ensembles"),
        default=DEFAULT_MAX_CACHED_ENSEMBLES,
        metavar="N",
        help=(
            "entry-count bound on the ensemble cache "
            f"(default: {DEFAULT_MAX_CACHED_ENSEMBLES})"
        ),
    )
    serve.add_argument(
        "--threads",
        type=_positive_int_arg("threads"),
        default=DEFAULT_SOLVER_THREADS,
        metavar="N",
        help=(
            "solver threads — concurrent solves on shared ensembles are "
            f"safe (default: {DEFAULT_SOLVER_THREADS})"
        ),
    )
    serve.add_argument(
        "--max-pending",
        type=_positive_int_arg("max-pending"),
        default=DEFAULT_MAX_PENDING,
        metavar="N",
        help=(
            "bound on concurrently admitted requests; beyond it the "
            f"service sheds with 429 (default: {DEFAULT_MAX_PENDING})"
        ),
    )
    serve.add_argument(
        "--timeout",
        type=_seconds_arg("timeout"),
        default=None,
        metavar="SECONDS",
        help=(
            "per-request timeout — waiters get 504 but the shared solve "
            "continues and warms the cache (default: unbounded)"
        ),
    )
    serve.add_argument(
        "--drain-timeout",
        type=_seconds_arg("drain-timeout"),
        default=DEFAULT_DRAIN_SECONDS,
        metavar="SECONDS",
        help=(
            "seconds a SIGTERM drain waits for in-flight solves before "
            f"exiting (default: {DEFAULT_DRAIN_SECONDS:g})"
        ),
    )
    _add_execution_flags(serve)
    return parser


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    """The shared execution knobs (``solve``, ``sweep`` and ``serve``
    build their session's :class:`ExecutionSpec` from them; ``run``
    accepts and ignores them)."""
    parser.add_argument(
        "--workers",
        type=_count_arg(check_workers),
        default=None,
        metavar="N|auto",
        help=(
            "accepted for compatibility; no effect (queries run serially, "
            "results echo workers=1)"
        ),
    )
    parser.add_argument(
        "--build-workers",
        type=_count_arg(check_build_workers),
        default=None,
        metavar="N|auto",
        help=(
            "accepted for compatibility; no effect (builds run "
            "in-process, results echo build_workers=1)"
        ),
    )


def _read_document(path: str):
    """Read and JSON-parse a spec file (``-`` for stdin)."""
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ReproError(f"cannot read spec {path!r}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None


def _read_spec(path: str) -> RunSpec:
    data = _read_document(path)
    if is_sweep_dict(data):
        raise ReproError(
            f"{path} is a sweep spec; run it with "
            f"'repro sweep {path} --out DIR' (JSON reference: docs/SPECS.md)"
        )
    return RunSpec.from_dict(data)


def _read_sweep(path: str) -> SweepSpec:
    data = _read_document(path)
    if not is_sweep_dict(data):
        raise ReproError(
            f"{path} is a run spec, not a sweep spec; solve it with "
            f"'repro solve {path}', or add a \"sweep\" section "
            "(JSON reference: docs/SPECS.md)"
        )
    return SweepSpec.from_dict(data)


def _cmd_run(args) -> int:
    from repro.experiments.registry import list_experiments, run_experiment

    ids = list_experiments() if args.experiment == "all" else [args.experiment]
    failures = 0
    for experiment_id in ids:
        started = time.perf_counter()
        result = run_experiment(
            experiment_id, quick=args.quick, seed=args.seed
        )
        elapsed = time.perf_counter() - started
        print(result.as_text())
        print(f"({elapsed:.1f}s)")
        print()
        if not result.all_checks_pass:
            failures += 1
    if failures:
        print(f"{failures} experiment(s) had failing shape checks", file=sys.stderr)
        return 1
    return 0


def _read_delta(path: str) -> "GraphDelta":
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ReproError(f"cannot read delta {path!r}: {exc}") from None
    return GraphDelta.from_json(text)


def _cmd_solve(args) -> int:
    delta = None
    if args.delta is not None:
        if len(args.specs) != 1:
            # A delta is one mutation batch; applying it once per spec
            # would mutate shared ensembles repeatedly.
            raise ReproError(
                "--delta requires exactly one SPEC "
                f"(got {len(args.specs)})"
            )
        delta = _read_delta(args.delta)
    session = Session(
        execution=ExecutionSpec(
            workers=args.workers,
            build_workers=args.build_workers,
        )
    )
    results = []
    for path in args.specs:
        spec = _read_spec(path)
        results.append(session.resolve(spec, delta=delta))
    if args.json:
        print(json.dumps([result.to_dict() for result in results], indent=2))
    else:
        for path, result in zip(args.specs, results):
            print(f"# {path}")
            print(result.as_text())
            print()
    return 0


def _cmd_sweep(args) -> int:
    spec = _read_sweep(args.spec)
    session = Session(
        execution=ExecutionSpec(
            workers=args.workers,
            build_workers=args.build_workers,
        )
    )
    if args.cell is not None:
        row = run_cell(spec, args.cell, session=session)
        print(json.dumps(row, indent=2, sort_keys=True))
        return 0
    if args.out is None:
        raise ReproError(
            "sweep requires --out DIR (or --cell FINGERPRINT to re-run "
            "one cell)"
        )

    total = spec.cell_count()

    def progress(cell, row, computed):
        tag = "cell" if computed else "skip"
        margin = row.get("greedy_margin")
        margin_text = "" if margin is None else f" margin={margin:+.4f}"
        print(
            f"{tag} {cell.index + 1}/{total} {row['fingerprint'][:12]} "
            f"winner={row['winner_utility']}{margin_text}",
            file=sys.stderr,
        )

    summary = run_sweep(
        spec, args.out, session=session, resume=not args.fresh, progress=progress
    )
    report = summary.report
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(
        f"sweep {spec.name!r}: {len(summary.rows)} cells "
        f"({summary.computed} computed, {summary.skipped} resumed) "
        f"-> {summary.out_dir}"
    )
    print(
        f"greedy wins {report['greedy_wins']}/{report['cells']} cells on "
        f"utility (winners: {report['winners']})"
    )
    if report["mean_margin"] is not None:
        print(
            f"greedy margin over best baseline: "
            f"mean {report['mean_margin']:+.4f}, min {report['min_margin']:+.4f}"
        )
    if report["collapses"]:
        print(
            f"rank shifts in {len(report['collapses'])} cell(s) — "
            "see rank_shift.json"
        )
    return 0


def _cmd_serve(args) -> int:
    # Imported here so plain 'list'/'run' invocations never pay for the
    # asyncio service stack.
    from repro.service import ServiceConfig, serve as run_service

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        execution=ExecutionSpec(
            workers=args.workers,
            build_workers=args.build_workers,
        ),
        cache_bytes=args.cache_bytes,
        max_cached_ensembles=args.max_ensembles,
        solver_threads=args.threads,
        max_pending=args.max_pending,
        request_timeout=args.timeout,
        drain_seconds=args.drain_timeout,
    )
    run_service(config)
    return 0


def _cmd_spec(args) -> int:
    if args.spec_command == "init":
        if args.problem == "sweep":
            text = sweep_template().to_json()
        else:
            text = spec_template(problem=args.problem).to_json()
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(text + "\n")
            except OSError as exc:
                raise ReproError(
                    f"cannot write spec {args.out!r}: {exc}"
                ) from None
            print(f"wrote {args.out}", file=sys.stderr)
        else:
            print(text)
        return 0
    # validate — both spec kinds, discriminated by the "sweep" section.
    failures = 0
    for path in args.files:
        try:
            data = _read_document(path)
            if is_sweep_dict(data):
                detail = f"sweep, {SweepSpec.from_dict(data).cell_count()} cells"
            else:
                RunSpec.from_dict(data)
                detail = "run"
        except ReproError as exc:
            print(
                f"FAIL {path}: {exc} (JSON reference: docs/SPECS.md)",
                file=sys.stderr,
            )
            failures += 1
        else:
            print(f"ok   {path} ({detail})")
    return 2 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list":
        # Imported here, not at module level: solve, sweep and serve
        # never need the figure modules.
        from repro.experiments.registry import list_experiments

        for experiment_id in list_experiments():
            print(experiment_id)
        return 0
    try:
        if args.command == "run":
            # 'run' historically sat outside this handler, so a typo'd
            # experiment id was a raw traceback; it promises the same
            # friendly one-liner as the spec-driven paths now.
            return _cmd_run(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "serve":
            return _cmd_serve(args)
        return _cmd_spec(args)
    except KeyboardInterrupt:
        # Ctrl-C on platforms without loop signal handlers; the
        # conventional 128+SIGINT exit.
        print("interrupted", file=sys.stderr)
        return 130
    except ReproError as exc:
        # Spec-driven paths promise friendly failures: configuration
        # and solve errors are messages, not tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
