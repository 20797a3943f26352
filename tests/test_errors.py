"""The misuse contract: typed refusals from one helper each, and exit 2 only for them."""

import ast
import math
import pathlib

import pytest

import tangencylab
from tangencylab import planks
from tangencylab.cli import main
from tangencylab.errors import InvalidParamsError, check_dilation, check_positive
from tangencylab.geometry import Circle3

SRC = pathlib.Path(tangencylab.__file__).parent


def _untyped_raises():
    """(file, function, exception) of every `raise ValueError`/`raise TypeError` under src."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        # walk visits outer functions first, so a nested one names its own nodes
        owner = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                    found.append((path.name, owner.get(node, "<module>"), exc.id))
    return sorted(set(found))


def test_no_untyped_refusal_under_src():
    # json's default hook must raise TypeError; every other refusal is typed
    assert _untyped_raises() == [("experiments.py", "_json_default", "TypeError")]


@pytest.mark.parametrize("exc", [ValueError, TypeError])
def test_internal_error_exits_3_with_traceback(monkeypatch, capsys, exc):
    def broken(*args, **kwargs):
        raise exc("injected")

    monkeypatch.setattr(planks, "_comparable_gaps", broken)
    assert main(["planks", "--R", "16"]) == 3
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert f"{exc.__name__}: injected" in err


@pytest.mark.parametrize("value", [math.nan, math.inf, 0, 0.0, -1, -1.0])
def test_check_positive_refuses_with_name_first(value):
    with pytest.raises(InvalidParamsError, match="^delta: "):
        check_positive("delta", value)


@pytest.mark.parametrize("K", [math.nan, math.inf, 0, -1, 0.5])
def test_check_dilation_refuses_with_name_first(K):
    with pytest.raises(InvalidParamsError, match="^K: "):
        check_dilation(K)


def test_helpers_accept_valid_values():
    for value in (1e-300, 1, 2.5, 10**400):
        check_positive("delta", value)
    for K in (1, 1.0, 2.0, 10**400):
        check_dilation(K)


def test_huge_integer_radius_constructs():
    # exact Python integers of any size; math.isfinite would overflow on them
    assert Circle3(center=(0, 0), radius=10**400).is_integer
    with pytest.raises(InvalidParamsError, match="^radius: "):
        Circle3(center=(0, 0), radius=0)
