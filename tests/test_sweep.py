"""Scenario sweep engine: spec validation, expansion, runner, CLI.

The headline guarantees under test:

- a ``SweepSpec`` that loads is a sweep that runs (eager expansion
  validation);
- cells differing only in solver overrides share one ensemble build;
- any cell re-run in isolation reproduces its in-sweep row
  bit-identically (minus timings), including across worker counts;
- a killed sweep resumes without recomputing finished cells.
"""

import json
import os

import pytest

from repro.api import EnsembleSpec, ExecutionSpec, RunSpec, Session
from repro.api.datasets import build_dataset
from repro.cli import main
from repro.errors import ConfigError, ReproError
from repro.experiments.registry import run_experiment
from repro.experiments.sweeps import figure_sweep, figure_sweep_ids
from repro.sweep import (
    MAX_CELLS,
    SweepSpec,
    apply_overrides,
    deterministic_row,
    is_sweep_dict,
    run_cell,
    run_sweep,
    solve_cell,
    sweep_template,
)


def tiny_base() -> RunSpec:
    return RunSpec.from_dict(
        {
            "ensemble": {
                "dataset": "synthetic",
                "dataset_params": {"n": 60, "activation_probability": 0.1},
                "n_worlds": 8,
            },
            "solver": {
                "problem": "budget",
                "deadline": 5.0,
                "fair": True,
                "budget": 2,
            },
        }
    )


def tiny_sweep(**overrides) -> SweepSpec:
    kwargs = dict(
        name="tiny",
        base=tiny_base(),
        axes={"solver.budget": [2, 3]},
        baselines=("degree",),
        seed=3,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestSpecValidation:
    def test_bad_axis_root(self):
        with pytest.raises(ConfigError, match="must start with"):
            tiny_sweep(axes={"nonsense.x": [1]})

    def test_whole_section_path(self):
        with pytest.raises(ConfigError, match="whole section"):
            tiny_sweep(axes={"solver": [1]})

    def test_unknown_field_path(self):
        with pytest.raises(ConfigError, match="names no field"):
            tiny_sweep(axes={"solver.nonsense": [1]})

    def test_dataset_params_paths_are_freeform(self):
        spec = tiny_sweep(axes={"ensemble.dataset_params.p_hom": [0.01, 0.05]})
        assert spec.cell_count() == 2

    def test_empty_axis_values(self):
        with pytest.raises(ConfigError, match="no values"):
            tiny_sweep(axes={"solver.budget": []})

    def test_duplicate_axis_value(self):
        with pytest.raises(ConfigError, match="repeats the value"):
            tiny_sweep(axes={"solver.budget": [2, 2]})

    def test_axis_values_must_be_a_list(self):
        with pytest.raises(ConfigError, match="list of values"):
            tiny_sweep(axes={"solver.budget": 2})

    def test_unknown_baseline(self):
        with pytest.raises(ConfigError, match="unknown baseline"):
            tiny_sweep(baselines=("degree", "bogus"))

    def test_duplicate_baselines(self):
        with pytest.raises(ConfigError, match="duplicates"):
            tiny_sweep(baselines=("degree", "degree"))

    def test_replicates_require_derive_seeds(self):
        with pytest.raises(ConfigError, match="derive_seeds"):
            tiny_sweep(replicates=2, derive_seeds=False)

    def test_replicates_must_be_positive(self):
        with pytest.raises(ConfigError, match="replicates"):
            tiny_sweep(replicates=0)

    def test_seed_axes_conflict_with_derivation(self):
        with pytest.raises(ConfigError, match="derive_seeds"):
            tiny_sweep(axes={"ensemble.world_seed": [1, 2]})

    def test_seed_axes_allowed_when_pinned(self):
        spec = tiny_sweep(
            axes={"ensemble.world_seed": [1, 2]}, derive_seeds=False
        )
        seeds = [cell.spec.ensemble.world_seed for cell in spec.expand()]
        assert seeds == [1, 2]

    def test_duplicate_cells_rejected(self):
        # The explicit cell collides with a grid combination.
        with pytest.raises(ConfigError, match="identical"):
            tiny_sweep(cells=({"solver.budget": 2},))

    def test_empty_explicit_cell_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            tiny_sweep(cells=({},))

    def test_bad_cell_value_names_the_cell(self):
        with pytest.raises(ConfigError, match="sweep cell"):
            tiny_sweep(axes={"solver.budget": [2, 0]})

    def test_cell_cap(self):
        with pytest.raises(ConfigError, match=str(MAX_CELLS)):
            tiny_sweep(
                axes={
                    "solver.budget": list(range(1, 80)),
                    "ensemble.n_worlds": list(range(1, 80)),
                }
            )

    def test_base_must_be_runspec(self):
        with pytest.raises(ConfigError, match="RunSpec"):
            SweepSpec(base={"solver": {}})


class TestExpansion:
    def test_grid_order_sorted_paths_last_axis_fastest(self):
        spec = tiny_sweep(
            axes={
                "solver.budget": [2, 3],
                "ensemble.n_worlds": [8, 10],
            }
        )
        combos = [cell.overrides for cell in spec.expand()]
        # "ensemble.n_worlds" sorts before "solver.budget", so budget
        # varies fastest.
        assert combos == [
            {"ensemble.n_worlds": 8, "solver.budget": 2},
            {"ensemble.n_worlds": 8, "solver.budget": 3},
            {"ensemble.n_worlds": 10, "solver.budget": 2},
            {"ensemble.n_worlds": 10, "solver.budget": 3},
        ]

    def test_explicit_cells_append_after_grid(self):
        spec = tiny_sweep(cells=({"solver.fair": False},))
        cells = spec.expand()
        assert len(cells) == 3
        assert cells[-1].overrides == {"solver.fair": False}
        assert cells[-1].spec.solver.fair is False

    def test_solver_axes_share_ensembles(self):
        spec = tiny_sweep()
        fps = {cell.spec.ensemble.fingerprint() for cell in spec.expand()}
        assert len(fps) == 1

    def test_dataset_axes_get_independent_seeds(self):
        spec = tiny_sweep(
            axes={"ensemble.dataset_params.p_hom": [0.01, 0.05]}
        )
        cells = spec.expand()
        assert len({c.spec.ensemble.fingerprint() for c in cells}) == 2
        assert (
            cells[0].spec.ensemble.world_seed
            != cells[1].spec.ensemble.world_seed
        )

    def test_mixed_axes_share_within_ensemble_coordinate(self):
        spec = tiny_sweep(
            axes={
                "ensemble.dataset_params.p_hom": [0.01, 0.05],
                "solver.budget": [2, 3],
            }
        )
        by_hom = {}
        for cell in spec.expand():
            key = cell.overrides["ensemble.dataset_params.p_hom"]
            by_hom.setdefault(key, set()).add(cell.spec.ensemble.fingerprint())
        # Same p_hom -> one ensemble regardless of budget; different
        # p_hom -> different ensembles.
        assert all(len(v) == 1 for v in by_hom.values())
        assert len(set().union(*by_hom.values())) == 2

    def test_replicates_draw_fresh_seeds(self):
        spec = tiny_sweep(replicates=2)
        cells = spec.expand()
        assert len(cells) == 4
        assert cells[0].replicate == 0 and cells[2].replicate == 1
        assert (
            cells[0].spec.ensemble.world_seed
            != cells[2].spec.ensemble.world_seed
        )
        assert len({cell.fingerprint() for cell in cells}) == 4

    def test_pinned_seeds_keep_base_values(self):
        spec = tiny_sweep(derive_seeds=False)
        base = tiny_base()
        for cell in spec.expand():
            assert cell.spec.ensemble.dataset_seed == base.ensemble.dataset_seed
            assert cell.spec.ensemble.world_seed == base.ensemble.world_seed

    def test_execution_axes_make_distinct_cells(self):
        spec = tiny_sweep(
            axes={"execution.build_workers": [1, 2]}
        )
        cells = spec.expand()
        assert len({cell.fingerprint() for cell in cells}) == 2
        # But their run fingerprints agree: execution is excluded there.
        assert len({cell.spec.fingerprint() for cell in cells}) == 1

    def test_find_cell_by_prefix(self):
        spec = tiny_sweep()
        cell = spec.expand()[1]
        assert spec.find_cell(cell.fingerprint()[:12]).index == 1
        with pytest.raises(ConfigError, match="at least 8"):
            spec.find_cell("abc")
        with pytest.raises(ConfigError, match="no cell"):
            spec.find_cell("0" * 16)

    def test_apply_overrides_rejects_bad_paths(self):
        base = tiny_base().to_dict()
        with pytest.raises(ConfigError, match="not a spec field"):
            apply_overrides(base, {"ensemble.nope.deep": 1})


class TestRoundTrip:
    def test_json_round_trip_and_fingerprint(self):
        spec = tiny_sweep(cells=({"solver.fair": False},), replicates=2)
        again = SweepSpec.from_json(spec.to_json())
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()

    def test_fingerprint_tracks_content(self):
        assert (
            tiny_sweep().fingerprint()
            != tiny_sweep(axes={"solver.budget": [2, 4]}).fingerprint()
        )
        assert tiny_sweep().fingerprint() != tiny_sweep(seed=4).fingerprint()

    def test_unknown_section_key_rejected(self):
        data = tiny_sweep().to_dict()
        data["sweep"]["bogus"] = 1
        with pytest.raises(ConfigError, match="bogus"):
            SweepSpec.from_dict(data)

    def test_unknown_top_key_rejected(self):
        data = tiny_sweep().to_dict()
        data["extra"] = 1
        with pytest.raises(ConfigError, match="extra"):
            SweepSpec.from_dict(data)

    def test_bad_json_is_config_error(self):
        with pytest.raises(ConfigError, match="JSON"):
            SweepSpec.from_json("{nope")

    def test_is_sweep_dict(self):
        assert is_sweep_dict(tiny_sweep().to_dict())
        assert not is_sweep_dict(tiny_base().to_dict())
        assert not is_sweep_dict("sweep")

    def test_template_is_valid_and_small(self):
        spec = sweep_template()
        assert SweepSpec.from_json(spec.to_json()) == spec
        assert spec.cell_count() <= 8


class TestRunner:
    def test_end_to_end_outputs(self, tmp_path):
        spec = tiny_sweep()
        session = Session()
        summary = run_sweep(spec, tmp_path / "out", session=session)
        out = tmp_path / "out"
        assert {p.name for p in out.iterdir()} == {
            "sweep.json",
            "cells.jsonl",
            "cells.csv",
            "rank_shift.json",
        }
        assert summary.computed == 2 and summary.skipped == 0
        # One ensemble serves both budget cells.
        assert session.cache_builds == 1

        rows = [
            json.loads(line)
            for line in (out / "cells.jsonl").read_text().splitlines()
        ]
        assert [row["index"] for row in rows] == [0, 1]
        for row in rows:
            assert set(row["methods"]) == {"greedy", "degree"}
            assert row["winner_utility"] in {"greedy", "degree"}
            assert row["greedy_margin"] is not None
            greedy = row["methods"]["greedy"]
            assert greedy["seed_count"] == row["spec"]["solver"]["budget"]
            assert (
                row["methods"]["degree"]["seed_count"] == greedy["seed_count"]
            )

        header = (out / "cells.csv").read_text().splitlines()[0].split(",")
        assert "solver.budget" in header
        assert "greedy_total_fraction" in header
        assert "degree_disparity" in header

        report = json.loads((out / "rank_shift.json").read_text())
        assert report["cells"] == 2
        assert sum(report["winners"].values()) == 2
        assert len(report["by_axis"]["solver.budget"]) == 2

    def test_resume_skips_everything(self, tmp_path):
        spec = tiny_sweep()
        first = run_sweep(spec, tmp_path / "out")
        session = Session()
        second = run_sweep(spec, tmp_path / "out", session=session)
        assert second.computed == 0 and second.skipped == 2
        assert session.cache_builds == 0
        assert [deterministic_row(r) for r in second.rows] == [
            deterministic_row(r) for r in first.rows
        ]

    def test_resume_after_kill_recomputes_only_missing(self, tmp_path):
        spec = tiny_sweep()
        out = tmp_path / "out"
        full = run_sweep(spec, out)
        # Simulate a kill mid-append: first row intact, second truncated.
        lines = (out / "cells.jsonl").read_text().splitlines()
        (out / "cells.jsonl").write_text(lines[0] + "\n" + lines[1][:40])
        session = Session()
        resumed = run_sweep(spec, out, session=session)
        assert resumed.computed == 1 and resumed.skipped == 1
        assert session.cache_builds == 1
        assert [deterministic_row(r) for r in resumed.rows] == [
            deterministic_row(r) for r in full.rows
        ]
        # The ledger was rewritten clean.
        clean = (out / "cells.jsonl").read_text().splitlines()
        assert len(clean) == 2
        assert all(json.loads(line) for line in clean)

    def test_refuses_foreign_directory(self, tmp_path):
        out = tmp_path / "out"
        run_sweep(tiny_sweep(), out)
        with pytest.raises(ConfigError, match="different sweep"):
            run_sweep(tiny_sweep(seed=4), out)

    def test_fresh_recomputes(self, tmp_path):
        out = tmp_path / "out"
        run_sweep(tiny_sweep(), out)
        again = run_sweep(tiny_sweep(), out, resume=False)
        assert again.computed == 2 and again.skipped == 0

    def test_single_cell_rerun_is_bit_identical(self, tmp_path):
        spec = tiny_sweep(axes={"ensemble.dataset_params.p_hom": [0.01, 0.05]})
        summary = run_sweep(spec, tmp_path / "out")
        for row in summary.rows:
            iso = run_cell(spec, row["fingerprint"])
            assert json.dumps(
                deterministic_row(iso), sort_keys=True
            ) == json.dumps(deterministic_row(row), sort_keys=True)

    def test_rows_identical_across_worker_counts(self, tmp_path):
        spec = tiny_sweep()
        serial = run_sweep(
            spec,
            tmp_path / "serial",
            session=Session(execution=ExecutionSpec(workers=1)),
        )
        threaded = run_sweep(
            spec,
            tmp_path / "threaded",
            session=Session(execution=ExecutionSpec(workers=2)),
        )
        assert [deterministic_row(r) for r in serial.rows] == [
            deterministic_row(r) for r in threaded.rows
        ]

    def test_progress_hook_sees_every_cell(self, tmp_path):
        seen = []
        run_sweep(
            tiny_sweep(),
            tmp_path / "out",
            progress=lambda cell, row, computed: seen.append(
                (cell.index, computed)
            ),
        )
        assert seen == [(0, True), (1, True)]

    def test_solve_cell_baselines_use_greedy_budget_on_cover(self):
        base = RunSpec.from_dict(
            {
                "ensemble": {
                    "dataset": "synthetic",
                    "dataset_params": {"n": 60, "activation_probability": 0.1},
                    "n_worlds": 8,
                },
                "solver": {
                    "problem": "cover",
                    "deadline": 5.0,
                    "fair": False,
                    "quota": 0.2,
                },
            }
        )
        spec = SweepSpec(
            name="cover",
            base=base,
            axes={"solver.quota": [0.1, 0.2]},
            baselines=("degree",),
        )
        cell = spec.expand()[1]
        row = solve_cell(spec, cell, Session())
        greedy_count = row["methods"]["greedy"]["seed_count"]
        assert greedy_count >= 1
        assert row["methods"]["degree"]["seed_count"] == greedy_count


class TestNewDatasets:
    @pytest.mark.parametrize(
        "name, params",
        [
            (
                "sbm",
                {
                    "block_sizes": [20, 20],
                    "within_probability": 0.2,
                    "across_probability": 0.02,
                },
            ),
            ("erdos_renyi", {"n": 30, "edge_probability": 0.1}),
            ("barabasi_albert", {"n": 30, "attachment": 2}),
        ],
    )
    def test_registered_and_deterministic(self, name, params):
        graph, assignment = build_dataset(name, params, seed=5)
        again, assignment2 = build_dataset(name, params, seed=5)
        assert len(graph) == len(again)
        assert sorted(graph.edges()) == sorted(again.edges())
        assert assignment.groups == assignment2.groups
        assert len(assignment.groups) >= 2

    def test_sbm_solvable_through_session(self):
        result = Session().solve(
            RunSpec.from_dict(
                {
                    "ensemble": {
                        "dataset": "sbm",
                        "dataset_params": {
                            "block_sizes": [20, 20],
                            "within_probability": 0.2,
                            "across_probability": 0.02,
                        },
                        "n_worlds": 4,
                    },
                    "solver": {
                        "problem": "budget",
                        "deadline": 5.0,
                        "fair": True,
                        "budget": 2,
                    },
                }
            )
        )
        assert result.seed_count == 2


#: The runner columns each figure draws from its sweep's greedy rows,
#: by method-less suffix ("P1 total" / "P4 total", ...).
FIGURE_COLUMNS = {
    "fig4b": ("total", "group1", "group2"),
    "fig4c": ("disparity",),
    "fig5b": ("disparity",),
    "fig5c": ("disparity",),
}


def _greedy_field(greedy, column):
    if column.startswith("group"):
        return greedy["group_fractions"][int(column[len("group"):]) - 1]
    return greedy["total_fraction" if column == "total" else column]


class TestFigureSweeps:
    def test_ids_and_specs(self):
        assert set(figure_sweep_ids()) == {"fig4b", "fig4c", "fig5b", "fig5c"}
        for figure_id in figure_sweep_ids():
            spec = figure_sweep(figure_id, quick=True)
            assert isinstance(spec, SweepSpec)
            assert not spec.derive_seeds  # figures pin seeds (CRN)
            # The figure's own axis, then P1 vs P4; no baselines.
            assert len(spec.axes) == 2
            assert list(spec.axes)[1] == "solver.fair"
            assert spec.axes["solver.fair"] == (False, True)
            assert spec.baselines == ()

    @pytest.mark.parametrize("figure_id", sorted(FIGURE_COLUMNS))
    def test_runner_renders_its_sweep(self, figure_id, tmp_path):
        """``repro sweep`` on a figure's spec reproduces the figure: its
        P1/P4 columns equal the greedy fields of the sweep's rows."""
        table = run_experiment(figure_id, quick=True)
        sweep = figure_sweep(figure_id, quick=True)
        axis = next(iter(sweep.axes))
        summary = run_sweep(sweep, tmp_path / figure_id)
        assert summary.computed == len(table.rows) * 2
        for row in summary.rows:
            position = sweep.axes[axis].index(row["overrides"][axis])
            method = "P4" if row["overrides"]["solver.fair"] else "P1"
            for column in FIGURE_COLUMNS[figure_id]:
                rendered = table.rows[position][table.columns.index(f"{method} {column}")]
                assert rendered == _greedy_field(row["methods"]["greedy"], column)

    def test_solver_axes_share_one_ensemble(self):
        spec = figure_sweep("fig4b", quick=True)
        assert (
            len({c.spec.ensemble.fingerprint() for c in spec.expand()}) == 1
        )

    def test_unknown_figure(self):
        with pytest.raises(ConfigError, match="no sweep adapter"):
            figure_sweep("fig99")


class TestCli:
    def test_spec_init_sweep(self, capsys):
        assert main(["spec", "init", "--problem", "sweep"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert is_sweep_dict(data)
        SweepSpec.from_dict(data)

    def test_spec_validate_detects_kinds(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(tiny_sweep().to_json())
        assert main(["spec", "validate", str(path)]) == 0
        assert "sweep, 2 cells" in capsys.readouterr().out

    def test_spec_validate_failure_points_at_docs(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"sweep": {}, "base": {}}')
        assert main(["spec", "validate", str(path)]) == 2
        assert "docs/SPECS.md" in capsys.readouterr().err

    def test_sweep_end_to_end_and_resume(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(tiny_sweep().to_json())
        out = tmp_path / "out"
        assert main(["sweep", str(path), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "2 computed, 0 resumed" in captured.out
        assert "winner=" in captured.err
        assert main(["sweep", str(path), "--out", str(out)]) == 0
        assert "0 computed, 2 resumed" in capsys.readouterr().out

    def test_sweep_cell_prints_row(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        spec = tiny_sweep()
        path.write_text(spec.to_json())
        fingerprint = spec.expand()[0].fingerprint()
        assert main(["sweep", str(path), "--cell", fingerprint[:12]]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["fingerprint"] == fingerprint

    def test_sweep_requires_out_or_cell(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(tiny_sweep().to_json())
        assert main(["sweep", str(path)]) == 2
        assert "--out" in capsys.readouterr().err

    def test_solve_rejects_sweep_spec_kindly(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(tiny_sweep().to_json())
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert "repro sweep" in err and "docs/SPECS.md" in err

    def test_sweep_rejects_run_spec_kindly(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(tiny_base().to_json())
        assert main(["sweep", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "repro solve" in capsys.readouterr().err

    def test_committed_example_validates(self, capsys):
        example = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "examples",
            "spec_sweep.json",
        )
        assert main(["spec", "validate", example]) == 0
