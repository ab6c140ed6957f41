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
phi(N).  As -1 has order 2, it lies in H exactly when it lies in H_2.
Each G_p gets a basis u_0, ..., u_(r-1) of elements of orders n_i by CRT
over the prime powers exactly dividing N (:func:`_sylow_basis`), so that
G_p is the sum of the Z/n_i.  Its subgroups are then the lattices L with
(+) n_i Z <= L <= Z^r, and each is built once, directly, from its unique
upper-triangular Hermite basis (:func:`_hermite_bases`), with no joins and
no dedupe set.  For p = 2 the basis puts -1 = u_0^(n_0/2) first, so that
the subgroups containing -1 are the lattices of G_2/<-1> (n_0 halved),
each lifted by +-1.  Every product of one subgroup per part is then one
subgroup containing -1.  The labels are a function of the set of
subgroups alone (through the sort above), so the way the search finds
them cannot move a label.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
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
#: 2-core x86-64 host one enumeration takes at most 0.02 s per level up to
#: 2048 (0.011-0.015 s at 2040, whose unit group of order 512 has 511
#: subgroups containing -1), 0.39-0.47 s summed over 3..1024 and
#: 1.2-1.35 s over 1025..2048.
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
        if self.elements != tuple(sorted(self.elements)) or len(set(self.elements)) != self.order:
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

    @property
    def is_intermediate(self) -> bool:
        """True when Delta is neither {+-1} nor all of (Z/NZ)*: the curve
        lies strictly between X_1(N) and X_0(N)."""
        return not self.is_minimal and not self.is_full

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


@lru_cache(maxsize=None)
def _primitive_root(m: int) -> int:
    """The least primitive root modulo an odd prime power m."""
    n = totient(m)
    cofactors = [n // r for r in prime_divisors(n)]
    return next(g for g in range(2, m) if math.gcd(g, m) == 1
                and all(pow(g, c, m) != 1 for c in cofactors))


def _sylow_basis(N: int, p: int) -> list[tuple[int, int]]:
    """A basis of the Sylow p-part of (Z/NZ)* as (residue, order) pairs.

    The part is the product of its parts modulo the prime powers q^e
    exactly dividing N, each lifted by CRT to 1 modulo N/q^e.  For odd q
    the units modulo q^e are cyclic of order n, and the least primitive
    root g gives the generator g^(n/p^v), p^v exactly dividing n.  For
    q = 2 the generators are -1 (order 2, e >= 2) and 5 (order 2^(e-2),
    e >= 3).  For p = 2 the element u_0 of least order n_0 among those
    whose element of order 2 is -1 modulo their prime power (the elements
    in which -1 has a non-zero coordinate) is multiplied by u_j^(n_j/n_0)
    of each other such u_j and put first, so that -1 = u_0^(n_0/2).
    """
    basis: list[tuple[int, int]] = []
    signed: list[int] = []  # positions in ``basis`` that carry -1
    for q in prime_divisors(N):
        m = q
        while N % (m * q) == 0:
            m *= q
        local: list[tuple[int, int]] = []
        if q != 2:
            n = m - m // q
            pv = math.gcd(n, p ** n.bit_length())
            if pv > 1:
                local.append((pow(_primitive_root(m), n // pv, m), pv))
        elif p == 2:
            if m >= 4:
                local.append((m - 1, 2))
            if m >= 8:
                local.append((5, m // 4))
        for r, order in local:
            if p == 2 and pow(r, order // 2, m) == m - 1:
                signed.append(len(basis))
            basis.append((crt(r, m, 1, N // m), order))
    if signed:
        first = min(signed, key=lambda j: basis[j][1])
        u0, n0 = basis[first]
        for j in signed:
            if j != first:
                u0 = u0 * pow(basis[j][0], basis[j][1] // n0, N) % N
        basis = [(u0, n0)] + basis[:first] + basis[first + 1:]
    return basis


def _hermite_bases(orders: list[int], p: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every lattice L with (+) n_i Z <= L <= Z^r, n_i = ``orders`` (powers
    of p), once, by its upper-triangular Hermite basis.

    Row i is (0, ..., d_i, a_i,i+1, ...) with d_i | n_i and 0 <= a_ij < d_j,
    given from its diagonal on as (d_i, a_i,i+1, ...).  The rows are built
    from the last one up, and a row is kept when (n_i/d_i) * (a_i,i+1, ...)
    lies in the lattice of the rows below it, which is when n_i e_i lies in
    L.  Each lattice has exactly one such basis.
    """
    if not orders:
        yield ()
        return
    n = orders[0]
    for below in _hermite_bases(orders[1:], p):
        tails = list(itertools.product(*(range(row[0]) for row in below)))
        d = 1
        while n % d == 0:
            k = n // d
            for tail in tails:
                v = [k * a for a in tail]
                for j, row in enumerate(below):
                    c, rest = divmod(v[j], row[0])
                    if rest:
                        break
                    if c:
                        for i in range(1, len(row)):
                            v[j + i] -= c * row[i]
                else:
                    yield ((d, *tail), *below)
            d *= p


def _part_subgroups(N: int, p: int) -> list[frozenset[int]]:
    """Every subgroup of the Sylow p-part of (Z/NZ)*, containing -1 for
    p = 2, each built once from its Hermite basis over ``_sylow_basis``.

    A lattice L with (+) n_i Z <= L <= Z^r and Hermite rows b_i (diagonal
    d_i) is the subgroup of the products of b_i^c_i with 0 <= c_i < n_i/d_i,
    that many distinct residues.  For p = 2 the lattices are those of the
    quotient by <-1> = <u_0^(n_0/2)> (n_0 halved), and each is lifted by
    +-1.  Raises :class:`MalformedSubgroup` when a basis element does not
    have its stated order, when -1 is not u_0^(n_0/2), or when a
    subgroup's elements repeat (a basis that is not independent).
    """
    basis = _sylow_basis(N, p)
    for u, n in basis:
        if pow(u, n, N) != 1 or pow(u, n // p, N) == 1:
            raise MalformedSubgroup(f"{u} modulo {N} does not have order {n}")
    orders = [n for _, n in basis]
    if p == 2:
        if pow(basis[0][0], orders[0] // 2, N) != N - 1:
            raise MalformedSubgroup(f"-1 is not the first basis element's power modulo {N}")
        orders[0] //= 2
    # the largest orders in the first rows leave the fewest tails to try
    rank = sorted(range(len(basis)), key=lambda i: -orders[i])
    orders = [orders[i] for i in rank]
    gens = [basis[i][0] for i in rank]
    powers = [[pow(u, k, N) for k in range(n + 1)] for u, n in zip(gens, orders)]
    subs: list[frozenset[int]] = []
    for rows in _hermite_bases(orders, p):
        elems = [1]
        for i, row in enumerate(rows):
            g = 1
            for table, a in zip(powers[i:], row):
                g = g * table[a] % N
            step = elems
            for _ in range(orders[i] // row[0] - 1):
                step = [e * g % N for e in step]
                elems += step
        if p == 2:
            elems += [N - e for e in elems]
        sub = frozenset(elems)
        if len(sub) != len(elems):
            raise MalformedSubgroup(f"a subgroup of the {p}-part modulo {N} repeats an element")
        subs.append(sub)
    return subs


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
    subgroups for odd p, each built once from its Hermite basis over a CRT
    basis of G_p.  Every product of one subgroup per part must have
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
    # phi(N) is even for N >= 3: the 2-part comes first and starts the products
    found = _part_subgroups(N, 2)
    for p in prime_divisors(phi)[1:]:
        subs = _part_subgroups(N, p)
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
