"""The layer tracer's targets resolve against the program.

``perfbench/tracing.py`` wraps each ``TARGETS`` entry by reading the
owner's own ``__dict__`` (so that uninstalling restores the original
descriptor).  A method that moves into a base class without an alias in
the traced class's body would break a traced benchmark run; this test
catches it in the ordinary suite.  The tracer module is loaded from its
file and never installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize("name, where", TARGETS, ids=[where for _, where in TARGETS])
def test_target_is_in_its_owner_dict(name, where):
    module_name, path = where.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        assert attr in owner.__dict__, f"{where} ({name}) is inherited, not own"
    assert callable(getattr(owner, attr)), f"{where} ({name}) is not callable"
