"""Import-graph checks over ``src/repro``.

Every module is imported by another ``repro`` module, bar the
``python -m`` entry points: a module nothing imports is code nothing
runs.

scipy stays off the run path.

Every ``repro`` process — a CLI solve, a sweep worker, ``repro serve`` —
runs on numpy alone: live-edge worlds and the RR predecessor CSR are
plain arrays, and scipy is imported only inside spectral clustering
and the csgraph distance reference.
A fresh interpreter imports the public modules, runs a worlds solve (IC
and LT), an RR solve, a repair through ``resolve``, one sweep cell and
``repro list``, and must not have loaded a single scipy module; the
scipy-backed helpers must still work afterwards.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules run as ``python -m``, which no other module needs to import.
ENTRY_POINTS = {"repro.cli", "repro.experiments.report"}


def _imported_names(tree: ast.AST):
    """Dotted names an (absolute-import) module imports, with every
    parent package and each ``from``-imported name as a submodule
    candidate."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            targets = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for target in targets:
            while target:
                yield target
                target = target.rpartition(".")[0]


def test_every_module_is_imported_by_another():
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    imported = set()
    for name, path in modules.items():
        imported.update(
            target for target in _imported_names(ast.parse(path.read_text()))
            if target != name
        )
    assert sorted(set(modules) - imported - ENTRY_POINTS) == []

SCRIPT = r"""
import contextlib
import io
import json
import sys

import repro
import repro.api
import repro.cli
import repro.service
import repro.sweep
from repro.api import RunSpec, Session
from repro.graph.delta import GraphDelta
from repro.sweep import SweepSpec, run_cell


def spec(**ensemble):
    return RunSpec.from_dict({
        "ensemble": {
            "dataset": "synthetic",
            "dataset_params": {"n": 60, "activation_probability": 0.1},
            "n_worlds": 8,
            **ensemble,
        },
        "solver": {"problem": "budget", "deadline": 5.0, "fair": True, "budget": 2},
    })


session = Session()
done = {}
done["worlds"] = session.solve(spec()).seeds
done["lt"] = session.solve(spec(model="lt")).seeds
done["rrset"] = session.solve(spec(kind="rrset", theta=200)).seeds
graph = session.ensemble_for(spec().ensemble).graph
src, dst, _ = graph.edge_arrays()
u, v = graph.label_of(int(src[0])), graph.label_of(int(dst[0]))
done["resolve"] = session.resolve(spec(), GraphDelta(reweights=((u, v, 0.9),))).seeds
sweep = SweepSpec(name="tiny", base=spec(), axes={"solver.budget": [2, 3]},
                  baselines=("degree",), seed=3)
done["cell"] = run_cell(sweep, sweep.expand()[0].fingerprint(), session)["fingerprint"]
with contextlib.redirect_stdout(io.StringIO()) as listing:
    assert repro.cli.main(["list"]) == 0
done["list"] = listing.getvalue().split()
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

from repro.graph.clustering import spectral_groups

groups = spectral_groups(graph.copy(), 2, seed=0)
world = session.ensemble_for(spec().ensemble).worlds[0]
distances = world.distances_from([0, 1])
print(json.dumps({
    "scipy_before": loaded,
    "done": sorted(done),
    "experiments": len(done["list"]),
    "group_sizes": sorted(int(size) for size in groups.sizes()),
    "distance_shape": list(distances.shape),
    "scipy_after": "scipy" in sys.modules,
}))
"""


def test_run_path_never_imports_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["scipy_before"] == []
    assert report["done"] == ["cell", "list", "lt", "resolve", "rrset", "worlds"]
    assert report["experiments"] > 0
    assert sum(report["group_sizes"]) == 60 and len(report["group_sizes"]) == 2
    assert report["distance_shape"] == [2, 60]
    assert report["scipy_after"]
