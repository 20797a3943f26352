"""The benchmark's hooked names resolve in the package.

bench/hooks.py wraps the functions listed in its TIMED table by module and
attribute name; a renamed or deleted one would fail every traced benchmark
round. The table is read from the file itself, so it stays the one list.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

HOOKS = Path(__file__).resolve().parents[1] / "bench" / "hooks.py"


def _timed():
    spec = importlib.util.spec_from_file_location("bench_hooks", HOOKS)
    hooks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hooks)
    return hooks.TIMED


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in _timed()])
def test_timed_name_resolves(module, attr):
    target = importlib.import_module(f"tangencylab.{module}")
    for part in attr.split("."):  # a dotted attribute is a method
        target = getattr(target, part)
    assert callable(target)
