"""Every name the package and its submodules export must resolve."""
from __future__ import annotations

import importlib
import pkgutil

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

