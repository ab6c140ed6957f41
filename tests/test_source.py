"""Checks on the package source itself."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import modcurve

SRC = Path(modcurve.__file__).resolve().parent


def test_no_bare_assert_in_package():
    # A bare assert vanishes under ``python -O``; checks in the package
    # raise InputError or InvariantError subclasses instead.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def test_every_exported_name_exists():
    # Tools that walk ``__all__`` (such as the benchmark's span wrappers)
    # call getattr on every listed name; a name left behind by a deletion
    # would break them.
    missing = []
    for path in sorted(SRC.glob("*.py")):
        name = "modcurve" if path.stem == "__init__" else f"modcurve.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                    if not hasattr(module, attr)]
    assert not missing, missing
