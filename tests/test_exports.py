"""Every public package's ``__all__`` names only what it defines.

A name left in ``__all__`` after its object is deleted or renamed
breaks ``from repro.x import *`` and misleads readers of the export
list, and nothing else in the suite would notice.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.api",
    "repro.core",
    "repro.diffusion",
    "repro.graph",
    "repro.influence",
    "repro.sweep",
    "repro.service",
    "repro.baselines",
    "repro.datasets",
    "repro.experiments",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
