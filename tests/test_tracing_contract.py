"""The benchmark tracer wraps linrelay's layers by name; those names must exist,
and a traced CLI run must work."""
from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


def test_traced_cli_run_closes_every_span(tmp_path):
    # The tracer installed as `perfbench --trace 1` installs it, then two CLI
    # runs: both succeed, the endpoint walk is seen, and every span closes.
    src = Path(importlib.import_module("linrelay").__file__).resolve().parents[1]
    script = f"""
import importlib.util, json
spec = importlib.util.spec_from_file_location("perfbench_tracing", {str(TRACING)!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
from linrelay import cli
main = tracer.span(tracing.ROOT, cli.main)
codes = [
    main(["bound", "--a", "1.1", "--b", "2",
          "--Af", "0.47745726861858833", "--Bf", "0.7594024699528037"]),
    main(["verify", "--a", "1.1", "--b", "2", "--n-samples", "64"]),
]
names = [span and span[0] for span in tracer.spans]
print(json.dumps({{"codes": codes, "quad": names.count("numerics.quad"),
                  "unclosed": names.count(None)}}))
"""
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0]
    assert report["quad"] >= 1
    assert report["unclosed"] == 0
