"""Checks on the package source itself."""

from __future__ import annotations

import ast
import importlib
import inspect
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


def test_no_function_takes_a_level_beside_a_subgroup():
    # A DeltaSubgroup carries its level, so a function that took N beside
    # delta could be handed two that disagree.  Only the classifier's entry
    # points take both, because they also accept a label or an element list.
    found = []
    for stem in ("congruence", "classify", "atkinlehner"):
        module = importlib.import_module(f"modcurve.{stem}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if inspect.isclass(obj):
                functions = {f"{attr}.{name}": member for name, member in vars(obj).items()
                             if inspect.isfunction(member)}
            elif callable(obj):
                functions = {attr: obj}
            else:
                continue
            found += [f"{stem}.{name}" for name, fn in functions.items()
                      if {"N", "delta"} <= set(inspect.signature(fn).parameters)]
    assert sorted(found) == ["classify.Classifier.classify", "classify.classify_curve"]


def test_scalar_oracles_build_their_own_elliptic_elements():
    # route B's oracle builds each elliptic element inline, so that it does
    # not share QForm.elliptic with the routes it checks
    path = Path(__file__).resolve().parent / "scalar_oracles.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "elliptic"]
    assert not calls, calls


def test_scalar_oracles_import_no_private_name_of_the_package():
    # an oracle that borrowed a private helper of the code it checks (such
    # as route A's stabiliser) would share that helper's faults
    path = Path(__file__).resolve().parent / "scalar_oracles.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "modcurve":
            parts = node.module.split(".") + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            parts = [part for alias in node.names if alias.name.split(".")[0] == "modcurve"
                     for part in alias.name.split(".")]
        else:
            continue
        found += [f"{node.lineno}: {part}" for part in parts if part.startswith("_")]
    assert not found, found
