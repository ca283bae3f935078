"""Unit tests for the command-line interface."""

import io
import json

import pytest

from repro.api import EnsembleSpec, ExecutionSpec, RunSpec, SolverSpec
from repro.cli import build_parser, main
from repro.errors import ConfigError
from repro.experiments.registry import (
    EXPERIMENTS,
    get_experiment,
    list_experiments,
    run_experiment,
)


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        ids = set(list_experiments())
        expected = {
            "fig1",
            "fig4a", "fig4b", "fig4c",
            "fig5a", "fig5b", "fig5c",
            "fig6a", "fig6b", "fig6c",
            "fig7a", "fig7b", "fig7c",
            "fig8a", "fig8b", "fig8c",
            "fig9a", "fig9b", "fig9c",
            "fig10a", "fig10b", "fig10c",
            "thm1", "thm2",
            "abl_h", "abl_celf", "abl_samples", "abl_lt",
        }
        assert expected <= ids

    def test_get_unknown_raises(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            get_experiment("fig99")

    def test_run_experiment_returns_result(self):
        result = run_experiment("abl_celf", quick=True, seed=0)
        assert result.experiment_id == "abl_celf"
        assert result.rows

    def test_run_experiment_bad_backend(self):
        # There is one store; no backend can be chosen.
        with pytest.raises(TypeError, match="backend"):
            run_experiment("fig1", quick=True, seed=0, backend="sparse")

    def test_registry_functions_callable(self):
        for fn in EXPERIMENTS.values():
            assert callable(fn)


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_flags(self):
        args = build_parser().parse_args(["run", "fig1", "--quick", "--seed", "7"])
        assert args.experiment == "fig1"
        assert args.quick and args.seed == 7
        assert not hasattr(args, "backend")

    def test_backend_flag(self):
        # ``--backend`` is gone from every subcommand.
        for argv in (["run", "fig1"], ["solve", "x.json"], ["sweep", "x.json"], ["serve"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv + ["--backend", "sparse"])

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig1", "--backend", "tensorflow"])

    def test_workers_flag(self):
        assert build_parser().parse_args(["run", "fig1"]).workers is None
        args = build_parser().parse_args(["run", "fig1", "--workers", "4"])
        assert args.workers == 4
        args = build_parser().parse_args(["run", "fig1", "--workers", "auto"])
        assert args.workers == "auto"

    def test_bad_workers_rejected(self):
        for bad in ("fast", "0", "-2"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["run", "fig1", "--workers", bad])

    def test_build_workers_flag(self):
        assert build_parser().parse_args(["run", "fig1"]).build_workers is None
        args = build_parser().parse_args(["run", "fig1", "--build-workers", "2"])
        assert args.build_workers == 2
        args = build_parser().parse_args(["solve", "-", "--build-workers", "auto"])
        assert args.build_workers == "auto"

    def test_bad_build_workers_is_a_usage_error(self, capsys):
        # A usage error (exit 2 + the canonical message), not a traceback.
        for bad in ("fast", "0", "-2", "2.5"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(["run", "fig1", "--build-workers", bad])
            assert excinfo.value.code == 2
        assert "build_workers" in capsys.readouterr().err

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_defaults(self):
        from repro.service.config import (
            DEFAULT_DRAIN_SECONDS,
            DEFAULT_MAX_PENDING,
            DEFAULT_PORT,
            DEFAULT_SOLVER_THREADS,
        )

        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == DEFAULT_PORT
        assert args.cache_bytes is None
        assert args.threads == DEFAULT_SOLVER_THREADS
        assert args.max_pending == DEFAULT_MAX_PENDING
        assert args.timeout is None
        assert args.drain_timeout == DEFAULT_DRAIN_SECONDS
        assert args.build_workers is None  # shared execution flags ride along

    def test_serve_cache_bytes_accepts_sizes(self):
        args = build_parser().parse_args(["serve", "--cache-bytes", "512m"])
        assert args.cache_bytes == 512 << 20
        args = build_parser().parse_args(["serve", "--cache-bytes", "1024"])
        assert args.cache_bytes == 1024

    def test_serve_bad_flags_are_usage_errors(self, capsys):
        bad = [
            ["serve", "--cache-bytes", "huge"],
            ["serve", "--cache-bytes", "0"],
            ["serve", "--port", "70000"],
            ["serve", "--port", "-1"],
            ["serve", "--threads", "0"],
            ["serve", "--max-pending", "nope"],
            ["serve", "--timeout", "0"],
            ["serve", "--drain-timeout", "-3"],
            ["serve", "--workers", "fast"],
        ]
        for argv in bad:
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(argv)
            assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "k/m/g" in err  # the canonical parse_size message surfaced


class TestMain:
    def test_list_prints_ids(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4a" in out and "thm2" in out

    def test_run_single_experiment(self, capsys):
        code = main(["run", "abl_celf", "--quick"])
        out = capsys.readouterr().out
        assert code == 0
        assert "CELF" in out
        assert "[PASS]" in out

    def test_run_unknown_experiment_is_friendly(self, capsys):
        # Historically this leaked a raw ConfigError traceback; 'run'
        # now shares the spec-driven paths' one-line contract.
        assert main(["run", "nope", "--quick"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err


def tiny_spec() -> RunSpec:
    """A subsecond budget spec for CLI solve tests."""
    return RunSpec(
        ensemble=EnsembleSpec(
            dataset="synthetic",
            dataset_params={"n": 60, "activation_probability": 0.08},
            n_worlds=4,
            world_seed=3,
        ),
        solver=SolverSpec(problem="budget", deadline=10.0, budget=2),
    )


class TestSpecSubcommand:
    def test_init_emits_a_valid_runnable_spec(self, capsys):
        assert main(["spec", "init"]) == 0
        out = capsys.readouterr().out
        spec = RunSpec.from_json(out)
        assert spec.solver.problem == "budget"

    def test_init_cover_variant(self, capsys):
        assert main(["spec", "init", "--problem", "cover"]) == 0
        spec = RunSpec.from_json(capsys.readouterr().out)
        assert spec.solver.problem == "cover"
        assert spec.solver.quota is not None

    def test_init_out_then_validate(self, tmp_path, capsys):
        target = tmp_path / "spec.json"
        assert main(["spec", "init", "--out", str(target)]) == 0
        assert main(["spec", "validate", str(target)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_init_unwritable_out_is_a_friendly_error(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "spec.json"
        assert main(["spec", "init", "--out", str(target)]) == 2
        assert "error: cannot write spec" in capsys.readouterr().err

    def test_validate_flags_bad_specs(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(tiny_spec().to_json())
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"version": 1, "ensemble": {"dataset": "nope"}, '
            '"solver": {"problem": "budget", "deadline": 10, "budget": 2}}'
        )
        assert main(["spec", "validate", str(good), str(bad)]) == 2
        captured = capsys.readouterr()
        assert "ok" in captured.out
        assert "FAIL" in captured.err and "nope" in captured.err

    def test_validate_flags_bad_build_workers(self, tmp_path, capsys):
        spec = tiny_spec().to_dict()
        spec["execution"]["build_workers"] = "fast"
        bad = tmp_path / "bad_build_workers.json"
        bad.write_text(json.dumps(spec))
        assert main(["spec", "validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "FAIL" in err and "build_workers" in err
        assert "Traceback" not in err


class TestSolveSubcommand:
    def test_solve_spec_file(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(tiny_spec().to_json())
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr().out
        assert "FAIRTCIM-BUDGET" in out
        assert "seeds (2)" in out

    def test_solve_json_output(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(tiny_spec().to_json())
        assert main(["solve", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        assert payload[0]["seed_count"] == 2
        # The echoed spec is fully resolved and re-loadable.
        RunSpec.from_dict(payload[0]["spec"])

    def test_solve_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(tiny_spec().to_json()))
        assert main(["solve", "-"]) == 0
        assert "FAIRTCIM-BUDGET" in capsys.readouterr().out

    def test_solve_shares_ensembles_across_specs(self, tmp_path, capsys):
        spec = tiny_spec()
        a = tmp_path / "a.json"
        a.write_text(spec.to_json())
        b = tmp_path / "b.json"
        b.write_text(spec.to_json())
        assert main(["solve", str(a), str(b), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        cached = [r["timings"]["ensemble_cached"] for r in payload]
        assert cached == [False, True]

    def test_missing_file_is_a_friendly_error(self, capsys):
        assert main(["solve", "no-such-spec.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no-such-spec.json" in err

    def test_invalid_spec_is_a_friendly_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1, "solver": {}}')
        assert main(["solve", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_execution_flags_form_the_session_default(self, tmp_path, capsys, monkeypatch):
        import repro.cli

        sessions = []
        session_class = repro.cli.Session

        def recording_session(**kwargs):
            sessions.append(kwargs["execution"])
            return session_class(**kwargs)

        monkeypatch.setattr(repro.cli, "Session", recording_session)
        path = tmp_path / "run.json"
        path.write_text(tiny_spec().to_json())
        assert main(["solve", str(path), "--build-workers", "3", "--json"]) == 0
        assert sessions == [ExecutionSpec(build_workers=3)]
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["spec"]["execution"] == {"workers": 1, "build_workers": 1}


class TestNumericFlagValidation:
    def test_bad_seed_is_a_usage_error(self, capsys):
        for bad in ("-1", "two"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(["run", "fig1", "--seed", bad])
            assert excinfo.value.code == 2
        assert "seed must be a non-negative integer" in capsys.readouterr().err

    def test_bad_block_size_is_a_usage_error(self, capsys):
        # The flag is gone (the engines have no block size), so every
        # value is an unrecognized argument.
        for value in ("0", "16", "huge"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(["run", "fig1", "--block-size", value])
            assert excinfo.value.code == 2
        assert "unrecognized arguments: --block-size" in capsys.readouterr().err

    def test_valid_values_accepted(self):
        args = build_parser().parse_args(
            ["run", "fig1", "--seed", "3", "--build-workers", "2", "--workers", "2"]
        )
        assert (args.seed, args.build_workers, args.workers) == (3, 2, 2)
