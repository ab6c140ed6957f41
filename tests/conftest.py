"""Shared fixtures: session-wide census runs with facts on and off, and a
runner for snippets under ``python -O``.

The classifiers are constructed with explicit fact books, one enabled and
one disabled, and shared by every test of the session.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import modcurve
from modcurve.classify import ClassificationRecord, Classifier
from modcurve.facts import FactBook


@pytest.fixture(scope="session")
def classifier_on() -> Classifier:
    return Classifier(FactBook(enabled=True))


@pytest.fixture(scope="session")
def classifier_off() -> Classifier:
    return Classifier(FactBook(enabled=False))


@pytest.fixture(scope="session")
def census_on(classifier_on) -> tuple[ClassificationRecord, ...]:
    return classifier_on.census(131)


@pytest.fixture(scope="session")
def census_off(classifier_off) -> tuple[ClassificationRecord, ...]:
    return classifier_off.census(131)


@pytest.fixture(scope="session")
def census_by_key(census_on) -> dict[tuple[int, str], ClassificationRecord]:
    return {(r.N, r.delta_label): r for r in census_on}


@pytest.fixture(scope="session")
def run_optimized():
    """Run a code snippet in a ``python -O`` subprocess, where bare asserts
    vanish, against this checkout's package; returns the completed process."""
    src = str(Path(modcurve.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}

    def run(code: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)

    return run
