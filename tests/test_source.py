"""Checks on the package source itself."""

from __future__ import annotations

import ast
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
