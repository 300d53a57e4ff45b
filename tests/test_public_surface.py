"""Every name the package and its submodules export must resolve, and the
command line's import path stays lean."""
from __future__ import annotations

import hashlib
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



def _fresh_interpreter(statements: str) -> list[str]:
    """Run statements in a new interpreter; its stdout lines, the last one
    the sorted names of the scipy modules it loaded."""
    src = str(Path(linrelay.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    probe = (
        "import sys\n"
        f"{statements}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
        check=True,
    )
    return proc.stdout.splitlines()


def test_cli_import_leaves_scipy_out():
    # scipy.linalg and scipy.optimize each cost every process a tenth of a
    # second or more to import; the package ports the two optimize methods
    # it used and imports scipy.linalg inside the oracle.
    assert _fresh_interpreter("import linrelay.cli")[-1] == "[]"


def test_verify_runs_on_numpy_alone():
    lines = _fresh_interpreter(
        "from linrelay import cli\n"
        "assert cli.main(['verify', '--a', '1.1', '--b', '2.0', '--n-samples', '64']) == 0"
    )
    assert lines[-1] == "[]"
    assert lines[:-1] and all(line.endswith("PASS") for line in lines[:-1])


def test_code_loads_scipy_linalg_for_the_oracle(tmp_path):
    # The oracle imports scipy.linalg at its first call; the exported
    # code keeps its bytes.
    out = tmp_path / "code.txt"
    pinned = [
        "--a", "1.1", "--b", "2",
        "--Af", "0.47745726861858833", "--Bf", "0.7594024699528037",
    ]
    lines = _fresh_interpreter(
        "from linrelay import cli\n"
        f"assert cli.main(['code', *{pinned!r}, '--k', '8', '--out', {str(out)!r}]) == 0"
    )
    assert "'scipy.linalg'" in lines[-1]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "3800ad63bdb3567d3bef165d6724dba684d17cd86a5d206e9316a411105f60ec"
    )


def test_cli_import_leaves_the_formatter_out():
    # The exchange file's numpy "%.17g" is compiled, and its tables built,
    # at the first export; every other process skips them.
    lines = _fresh_interpreter("import linrelay.cli\nprint('linrelay._g17' in sys.modules)")
    assert lines[0] == "False"
