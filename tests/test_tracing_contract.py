"""The benchmark tracer wraps linrelay's layers by name; those names must exist."""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _load_tracing()
_NAMES = [entry[:2] for entry in _tracing.SPANNED + _tracing.COUNTED]


@pytest.mark.parametrize(("module", "attr"), _NAMES, ids=[".".join(n) for n in _NAMES])
def test_traced_name_resolves_to_callable(module, attr):
    # A refactor that renames or deletes one of these breaks `--trace 1`.
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_trajectory_uses_the_traced_walk():
    # The tracer wraps the endpoint walk under both names.  The trajectory
    # takes its walks from integrate_batch, whose hand-offs to the scalar
    # walk go through bound's name and trace as `numerics.quad`; the
    # trajectory's name stays bound to the same walk, so `trajectory.quad`
    # still resolves.
    bound = importlib.import_module("linrelay.bound")
    trajectory = importlib.import_module("linrelay.trajectory")
    assert trajectory.integrate_adaptive is bound.integrate_adaptive
