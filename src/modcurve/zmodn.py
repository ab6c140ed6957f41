"""Arithmetic in Z/NZ and enumeration of subgroups of (Z/NZ)* containing -1.

The arithmetic every other module builds on is defined here and only here:
:func:`divisors`, :func:`prime_divisors`, :func:`totient`, :func:`crt`, the
Hall divisors d of N (gcd(d, N/d) = 1, tested by :func:`is_hall_divisor`)
and the :func:`units` of Z/NZ.

The central object is :class:`DeltaSubgroup`: a subgroup Delta of the unit
group (Z/NZ)* with -1 in Delta.  Such subgroups index the curves this package
studies; they are enumerated in a canonical order and given stable labels:

* ``"1"``   -- the smallest subgroup {+-1},
* ``"0"``   -- the full unit group (also at N = 3, 4, 6, where it is "1"),
* ``"D1"``, ``"D2"``, ... -- the intermediate subgroups, sorted by order
  (ascending) and then lexicographically on their sorted element tuple.

The enumeration works one Sylow part at a time.  A subgroup H of the
abelian group G = (Z/NZ)* is the direct product of its parts H_p, the
intersections of H with the Sylow parts G_p over the primes p dividing
phi(N); G_p = {u^(phi/p^a) : u in G} for p^a exactly dividing phi(N).
As -1 has order 2, it lies in H exactly when it lies in H_2.  Inside each
G_p a breadth-first search starts from {+-1} for p = 2 and from {1} for
odd p, and joins each subgroup K found with one generator g of every
distinct cyclic subgroup <g, -1> (p = 2) or <g> (odd p), building K<g> as
the union of the cosets g^k K.  Every product of one subgroup per part is
then one subgroup containing -1.  The labels are a function of the set of
subgroups alone (through the sort above), so the way the search finds
them cannot move a label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError, MalformedSubgroup, NotCoprime, UnknownDelta

__all__ = [
    "SUBGROUP_LEVEL_LIMIT",
    "DeltaSubgroup",
    "units",
    "subgroups_containing_minus1",
    "delta_by_label",
    "delta_from_elements",
    "crt",
    "divisors",
    "prime_divisors",
    "totient",
    "hall_divisors",
    "is_hall_divisor",
]


# ---------------------------------------------------------------------------
# elementary helpers


def crt(r1: int, m1: int, r2: int, m2: int) -> int:
    """Return the unique x mod m1*m2 with x = r1 (mod m1), x = r2 (mod m2).

    Requires gcd(m1, m2) == 1.
    """
    if math.gcd(m1, m2) != 1:
        raise NotCoprime(f"moduli {m1} and {m2} are not coprime")
    if m1 == 1:
        return r2 % m2
    if m2 == 1:
        return r1 % m1
    inv = pow(m1, -1, m2)
    return (r1 + m1 * ((r2 - r1) * inv % m2)) % (m1 * m2)


def divisors(n: int) -> list[int]:
    """The divisors of n >= 1, ascending, by trial division up to sqrt(n)."""
    if n < 1:
        raise InputError(f"divisors need n >= 1, got {n}")
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def prime_divisors(n: int) -> list[int]:
    """The primes dividing n >= 1, ascending, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    """Euler's phi(n) = |(Z/nZ)*| for n >= 1."""
    for p in prime_divisors(n):
        n -= n // p
    return n


def is_hall_divisor(d: int, n: int) -> bool:
    """True when d >= 1 divides n and gcd(d, n/d) == 1."""
    return d >= 1 and n % d == 0 and math.gcd(d, n // d) == 1


def hall_divisors(n: int) -> list[int]:
    """Divisors d of n with gcd(d, n/d) == 1, ascending (includes 1 and n)."""
    return [d for d in divisors(n) if is_hall_divisor(d, n)]


@lru_cache(maxsize=None)
def units(N: int) -> tuple[int, ...]:
    """The residues in [1, N) prime to N: the unit group (Z/NZ)*, N >= 2."""
    if N < 2:
        raise InputError(f"the unit group needs N >= 2, got {N}")
    return tuple(a for a in range(1, N) if math.gcd(a, N) == 1)


# ---------------------------------------------------------------------------
# subgroups containing -1

#: Levels above this bound are refused by the subgroup enumeration.  On a
#: 2-core x86-64 host one enumeration takes at most 0.07 s per level up to
#: 1024 (at 1020) and at most 0.96 s from 1025 to 2048 (at 2040, whose unit
#: group of order 512 is all one Sylow 2-part, so the split gains nothing
#: there); 1729, with 400 subgroups, takes 0.025 s.
SUBGROUP_LEVEL_LIMIT = 2048


@dataclass(frozen=True)
class DeltaSubgroup:
    """A subgroup Delta of (Z/NZ)* with -1 in Delta.

    ``elements`` is the sorted tuple of residues in [0, N).  ``label`` is the
    canonical label described in the module docstring.
    """

    N: int
    elements: tuple[int, ...]
    label: str

    def __post_init__(self) -> None:
        if self.elements != tuple(sorted(set(self.elements))):
            raise MalformedSubgroup(
                f"elements of Delta modulo {self.N} are not sorted and unique: {self.elements}"
            )
        if self.N > 2 and (self.N - 1) not in self.elements:
            raise MalformedSubgroup(f"-1 must lie in Delta modulo {self.N}: {self.elements}")

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        """Index of Delta in the full unit group."""
        return totient(self.N) // self.order

    def __contains__(self, a: int) -> bool:
        return a % self.N in self.elements if self.N > 1 else True

    @property
    def is_minimal(self) -> bool:
        """True when Delta = {+-1}."""
        return self.order == len({1 % self.N, (self.N - 1) % self.N})

    @property
    def is_full(self) -> bool:
        return self.order == totient(self.N)

    def coset_reps(self) -> tuple[int, ...]:
        """Representatives of (Z/NZ)*/Delta, each the smallest in its coset."""
        return _coset_partition(self)[0]

    def coset_min(self, a: int) -> int:
        """Smallest residue in the coset a*Delta (the canonical coset name)."""
        reps, index = _coset_partition(self)
        k = int(index[a % self.N])
        if k < 0:
            raise NotCoprime(f"{a % self.N} is not a unit modulo {self.N}")
        return reps[k]


@lru_cache(maxsize=None)
def _coset_partition(delta: DeltaSubgroup) -> tuple[tuple[int, ...], np.ndarray]:
    """``(reps, index)`` for (Z/NZ)*/Delta: the least residue of every coset,
    in increasing order, and the position in ``reps`` of the coset a*Delta
    of every residue a mod N (-1 at the non-units; read-only)."""
    N = delta.N
    index = np.full(N, -1, dtype=np.int64)
    reps: list[int] = []
    for a in units(N):
        if index[a] < 0:
            index[[a * h % N for h in delta.elements]] = len(reps)
            reps.append(a)
    index.flags.writeable = False
    return tuple(reps), index


def _join(N: int, have: set[int] | frozenset[int], g: int) -> set[int]:
    """The subgroup H<g> for a subgroup H = ``have`` of (Z/NZ)* and a unit g.

    H<g> is the disjoint union of the cosets g^k H for k = 0, 1, ... up to
    the first k with g^k in H, so the cost is O(|H<g>|).
    """
    out = set(have)
    x = g % N
    while x not in have:
        out.update(x * h % N for h in have)
        x = x * g % N
    return out


def _closure(N: int, gens: set[int]) -> tuple[int, ...]:
    """Subgroup of (Z/NZ)* generated by ``gens`` (all must be units)."""
    elems = {1 % N}
    for g in gens:
        if g % N not in elems:
            elems = _join(N, elems, g)
    return tuple(sorted(elems))


def _cyclic_generators(N: int, part: list[int], base: frozenset[int]) -> list[int]:
    """One g in ``part`` for each subgroup <g> * base of it other than base.

    ``part`` is a Sylow part of (Z/NZ)* and ``base`` is {+-1} in the 2-part
    and {1} in an odd part.  One pass over the part: each new g walks its
    powers once and marks every g^k * b with gcd(k, ord g) = 1 and b in
    base, which generate the same <g> * base, so no later element repeats
    that subgroup's walk.
    """
    marked = set(base)
    gens: list[int] = []
    for g in part:
        if g in marked:
            continue
        gens.append(g)
        powers = [1]
        x = g
        while x != 1:
            powers.append(x)
            x = x * g % N
        order = len(powers)
        for k in range(1, order):
            if math.gcd(k, order) == 1:
                marked.update(powers[k] * b % N for b in base)
    return gens


def _part_subgroups(N: int, part: list[int], base: frozenset[int]) -> list[frozenset[int]]:
    """Every subgroup of the Sylow part ``part`` of (Z/NZ)* that contains
    ``base``, found breadth-first from ``base`` by joining each subgroup
    found with one generator of every cyclic subgroup <g> * base: such a
    subgroup is the product of the <h> * base of its elements h, so every
    one is reached."""
    gens = _cyclic_generators(N, part, base)
    found = {base}
    frontier = [base]
    while frontier:
        nxt: list[frozenset[int]] = []
        for have in frontier:
            for g in gens:
                if g in have:
                    continue
                bigger = frozenset(_join(N, have, g))
                if bigger not in found:
                    found.add(bigger)
                    nxt.append(bigger)
        frontier = nxt
    return list(found)


@lru_cache(maxsize=None)
def subgroups_containing_minus1(N: int) -> tuple[DeltaSubgroup, ...]:
    """All subgroups of (Z/NZ)* containing -1, canonically ordered and labeled.

    Order: by subgroup order ascending, ties broken lexicographically on the
    sorted element tuple.  The first entry is {+-1} (label "1"), the last is
    the full unit group (label "0"); entries in between get labels "D1",
    "D2", ...  Requires 3 <= N <= ``SUBGROUP_LEVEL_LIMIT`` (below 3, {+-1}
    is already everything).

    Each Sylow part G_p of the unit group is searched on its own (see the
    module docstring): its subgroups containing -1 for p = 2, all of its
    subgroups for odd p.  Every product of one subgroup per part must have
    the product of their orders as its size, and the products must be
    pairwise distinct, else :class:`MalformedSubgroup` is raised.  Labels
    depend only on the set of subgroups and the sort above, not on the
    order of the search.
    """
    if N < 3:
        raise InputError(f"subgroup enumeration needs N >= 3, got {N}")
    if N > SUBGROUP_LEVEL_LIMIT:
        raise InputError(
            f"level {N} is too large for the subgroup enumeration "
            f"(limit {SUBGROUP_LEVEL_LIMIT})"
        )
    phi = totient(N)
    base = frozenset({1, N - 1})
    found = [frozenset({1})]
    for p in prime_divisors(phi):
        cofactor = phi
        while cofactor % p == 0:
            cofactor //= p
        part = sorted({pow(u, cofactor, N) for u in units(N)})
        subs = _part_subgroups(N, part, base if p == 2 else frozenset({1}))
        grown: list[frozenset[int]] = []
        for have in found:
            for sub in subs:
                prod = frozenset(a * b % N for a in have for b in sub)
                if len(prod) != len(have) * len(sub):
                    raise MalformedSubgroup(
                        f"the product of subgroups of orders {len(have)} and "
                        f"{len(sub)} modulo {N} has {len(prod)} elements"
                    )
                grown.append(prod)
        found = grown
    if len(set(found)) != len(found):
        raise MalformedSubgroup(f"two products of Sylow parts coincide modulo {N}")
    ordered = sorted((tuple(sorted(s)) for s in found), key=lambda t: (len(t), t))
    out: list[DeltaSubgroup] = []
    inter = 0
    for elems in ordered:
        if len(elems) == len(base):
            label = "1"
        elif len(elems) == phi:
            label = "0"
        else:
            inter += 1
            label = f"D{inter}"
        out.append(DeltaSubgroup(N, elems, label))
    return tuple(out)


def delta_by_label(N: int, label: str) -> DeltaSubgroup:
    """Look up a subgroup by its canonical label ("1", "0", "D3", ...).

    Accepts a few human variants: "Δ3" and "d3" mean "D3".  "0" is the full
    unit group, the last subgroup, also where it equals {+-1} and carries
    the label "1".
    """
    canon = label.strip().replace("Δ", "D").replace("δ", "D").upper()
    subs = subgroups_containing_minus1(N)
    if canon == "0":
        return subs[-1]
    for sub in subs:
        if sub.label.upper() == canon:
            return sub
    raise UnknownDelta(f"no subgroup labeled {label!r} modulo {N}")


def delta_from_elements(N: int, elements: list[int] | tuple[int, ...]) -> DeltaSubgroup:
    """Canonical subgroup generated by ``elements`` together with -1.

    The input need not be closed; it is closed under multiplication and
    negation, then matched against the canonical enumeration (so the result
    carries the canonical label).
    """
    for a in elements:
        if math.gcd(a, N) != 1:
            raise NotCoprime(f"{a} is not a unit modulo {N}")
    closed = _closure(N, {a % N for a in elements} | {N - 1})
    for sub in subgroups_containing_minus1(N):
        if sub.elements == closed:
            return sub
    raise UnknownDelta(f"closure {closed} not found modulo {N}")  # pragma: no cover
