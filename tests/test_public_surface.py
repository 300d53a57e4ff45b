"""Every name the package and its submodules export must resolve, and the
command line's import path stays lean."""
from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import linrelay

MODULES = ["linrelay"] + [
    f"linrelay.{info.name}" for info in pkgutil.iter_modules(linrelay.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"



def test_cli_import_leaves_scipy_optimize_out():
    # scipy.optimize costs every process about a quarter second and 20 MB
    # to import; the package ports the two methods it used.
    src = str(Path(linrelay.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    probe = "import sys, linrelay.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
        check=True,
    )
    assert proc.stdout == "[]\n"
