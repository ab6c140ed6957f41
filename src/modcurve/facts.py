"""Curated external facts with citations, and a switch to disable them.

The classifier separates two kinds of knowledge:

* results it derives itself (genus formulas, fixed-point counts, coset
  combinatorics), and
* results imported from the literature (complete lists of hyperelliptic or
  bielliptic curves, rank data, curated verdicts).

The second kind lives in ``data/facts.txt`` as ``key | value | citation``
lines and is served by :class:`FactBook`.  The book can be disabled to see
what the machinery proves unaided; each piece of classification evidence
names the facts it rests on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import InputError
from .matrices import Mat2

__all__ = [
    "Fact",
    "FactBook",
    "default_facts_path",
    "load_facts",
]

#: Key families that exist only for some levels/curves; lookups of absent
#: keys under these prefixes return ``None`` instead of raising.
_OPTIONAL_PREFIXES = ("verdict.", "x0.extra-involutions.")


@dataclass(frozen=True)
class Fact:
    """A single curated statement with its provenance."""

    key: str
    value: str
    citation: str

    def as_levels(self) -> tuple[int, ...]:
        """Parse the value as a comma-separated list of levels."""
        return tuple(int(part) for part in self.value.split(","))

    def as_curve_labels(self) -> tuple[tuple[int, str], ...]:
        """Parse the value as a list of ``N:label`` curve identifiers."""
        out = []
        for part in self.value.split(";"):
            level, _, label = part.strip().partition(":")
            out.append((int(level), label))
        return tuple(out)

    def as_matrices(self) -> tuple[Mat2, ...]:
        """Parse the value as a ``;``-separated list of integer matrices."""
        out = []
        for part in self.value.split(";"):
            body = part.strip().replace("[", " ").replace("]", " ").replace(",", " ")
            a, b, c, d = (int(tok) for tok in body.split())
            out.append(Mat2(a, b, c, d))
        return tuple(out)


def default_facts_path() -> Path:
    """Path of the facts file bundled with the package."""
    return Path(str(resources.files("modcurve").joinpath("data/facts.txt")))


def load_facts(path: str | Path) -> dict[str, Fact]:
    """Parse a ``key | value | citation`` facts file."""
    table: dict[str, Fact] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [part.strip() for part in line.split("|")]
        if len(parts) != 3:
            raise InputError(
                f"{path}:{lineno}: expected 'key | value | citation', got {raw!r}"
            )
        key, value, citation = parts
        if key in table:
            raise InputError(f"{path}:{lineno}: duplicate fact key {key!r}")
        table[key] = Fact(key, value, citation)
    return table


@dataclass
class FactBook:
    """Lookup service for curated facts.

    When ``enabled`` is False every lookup returns ``None``, so callers fall
    back to whatever they can derive themselves.  Lookups of keys absent from
    an enabled book raise ``KeyError``: the shipped data file is expected to
    be complete, and a typo should fail loudly.
    """

    enabled: bool = True
    path: str | Path | None = None
    _table: dict[str, Fact] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._table = load_facts(self.path if self.path is not None else default_facts_path())

    def get(self, key: str) -> Fact | None:
        """The fact for ``key``, or ``None`` when the book is disabled.

        Keys under the optional per-curve families (curated verdicts, extra
        involution lists) may be absent and then return ``None``; any other
        missing key is a data bug and raises ``KeyError``.
        """
        if not self.enabled:
            return None
        fact = self._table.get(key)
        if fact is None:
            if key.startswith(_OPTIONAL_PREFIXES):
                return None
            raise KeyError(f"unknown fact key {key!r}")
        return fact
