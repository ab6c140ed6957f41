"""Shared fixtures: session-wide census runs with facts on and off.

The classifiers are constructed with explicit fact books, one enabled and
one disabled, and shared by every test of the session.
"""

from __future__ import annotations

import pytest

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
