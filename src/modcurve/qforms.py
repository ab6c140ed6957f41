"""Binary quadratic forms and fixed points of Atkin-Lehner operators on X_0(N).

A positive-definite integral form [p, q, r] stands for p*x^2 + q*x*y + r*y^2.
Fixed points of the degree-d Atkin-Lehner involution on X_0(N) (d a Hall
divisor: gcd(d, N/d) = 1) correspond to Gamma_0(N)-classes of forms
[N*z, q, r] in two families:

* trace-0 elements: discriminant -4d, q = 0 (mod 2d);
* trace-d elements (only d in {2, 3}): discriminant d^2-4d, q = d (mod 2d).

Classes in a family with q = beta (mod 2N) are stratified: forms of content
l correspond to primitive forms of discriminant D/l^2 with q = lambda
(mod 2N), l*lambda = beta (mod 2N); each primitive stratum, cut by the pair
(m1, m2) of gcd invariants, is in bijection with the full set of reduced
primitive forms of its discriminant.  ``fixed_points_X0`` inverts that
bijection with one bounded search per stratum: the classes of a stratum
differ only in their reduced image, so one walk over the stratum's forms
keeps the first form that reaches each image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

from .congruence import _require_level
from .errors import (
    BadDiscriminant,
    DeterminantMismatch,
    FormMismatch,
    InputError,
    NotPositiveDefinite,
    SearchExhausted,
)
from .matrices import Mat2
from .zmodn import divisors, hall_divisors

__all__ = [
    "QForm",
    "GKZClass",
    "FixedPoint",
    "FixedPointSet",
    "reduce_form",
    "reduced_classes",
    "class_number",
    "beta_candidates",
    "gkz_decompose",
    "class_representative",
    "fixed_points_X0",
]


@dataclass(frozen=True)
class QForm:
    """The integral binary quadratic form [p, q, r] = p x^2 + q x y + r y^2."""

    p: int
    q: int
    r: int

    @property
    def disc(self) -> int:
        return self.q * self.q - 4 * self.p * self.r

    @property
    def content(self) -> int:
        return math.gcd(math.gcd(self.p, self.q), self.r)

    @property
    def is_primitive(self) -> bool:
        return self.content == 1

    @property
    def is_positive_definite(self) -> bool:
        return self.p > 0 and self.disc < 0

    @property
    def is_reduced(self) -> bool:
        """|q| <= p <= r, with q >= 0 when |q| = p or p = r."""
        if not (abs(self.q) <= self.p <= self.r):
            return False
        if (abs(self.q) == self.p or self.p == self.r) and self.q < 0:
            return False
        return True

    def value(self, x: int, y: int) -> int:
        return self.p * x * x + self.q * x * y + self.r * y * y

    def apply(self, g: Mat2) -> "QForm":
        """Right action: (Q o g)(x, y) = Q(a x + b y, c x + d y)."""
        p2 = self.value(g.a, g.c)
        r2 = self.value(g.b, g.d)
        q2 = 2 * self.p * g.a * g.b + self.q * (g.a * g.d + g.b * g.c) + 2 * self.r * g.c * g.d
        return QForm(p2, q2, r2)

    def scaled(self, k: int) -> "QForm":
        return QForm(k * self.p, k * self.q, k * self.r)

    def __str__(self) -> str:
        return f"[{self.p},{self.q},{self.r}]"


def reduce_form(f: QForm) -> tuple[QForm, Mat2]:
    """Gauss-reduce a positive definite form; returns (reduced, g) with
    f.apply(g) == reduced."""
    if not f.is_positive_definite:
        raise NotPositiveDefinite(f"{f} is not positive definite")
    p, q, r = f.p, f.q, f.r
    # the transform [[ga, gb], [gc, gd]], multiplied on the right by
    # [[1, k], [0, 1]] or [[0, -1], [1, 0]] at each step
    ga, gb, gc, gd = 1, 0, 0, 1
    while True:
        if q <= -p or q > p:
            k = (p - q) // (2 * p)
            p, q, r = p, q + 2 * p * k, p * k * k + q * k + r
            gb, gd = ga * k + gb, gc * k + gd
        elif p > r or (p == r and q < 0):
            p, q, r = r, -q, p
            ga, gb, gc, gd = gb, -ga, gd, -gc
        else:
            break
    g = Mat2(ga, gb, gc, gd)
    out = QForm(p, q, r)
    if not out.is_reduced or f.apply(g) != out:
        raise FormMismatch(f"reducing {f} by {g} gave {out}")
    return out, g


@lru_cache(maxsize=None)
def reduced_classes(D: int) -> tuple[QForm, ...]:
    """All reduced primitive positive-definite forms of discriminant D."""
    if D >= 0 or D % 4 not in (0, 1):
        raise BadDiscriminant(f"{D} is not a negative discriminant")
    out = []
    for p in range(1, math.isqrt(-D // 3) + 1):
        for q in range(-p + 1, p + 1):
            if (q * q - D) % (4 * p):
                continue
            r = (q * q - D) // (4 * p)
            if r < p or (p == r and q < 0):
                continue
            f = QForm(p, q, r)
            if f.is_primitive:
                out.append(f)
    return tuple(sorted(out, key=lambda f: (f.p, f.q, f.r)))


def class_number(D: int) -> int:
    """h(D): the number of reduced primitive classes of discriminant D."""
    return len(reduced_classes(D))


# ---------------------------------------------------------------------------
# fixed-point families


def _require_hall(N: int, d: int) -> None:
    """Refuse N outside 1..LEVEL_LIMIT and d not a Hall divisor >= 2 of N."""
    _require_level(N)
    if d < 2 or N % d or math.gcd(d, N // d) != 1:
        raise InputError(f"d={d} is not a Hall divisor >= 2 of N={N}")


def beta_candidates(N: int, d: int) -> list[tuple[int, int]]:
    """The (beta, D) families of fixed-point forms for W_d on X_0(N).

    Family 1 (all d): D = -4d, beta mod 2N with beta^2 = D (mod 4N) and
    beta = 0 (mod 2d).  Family 2 (d in {2, 3} only): D = d^2 - 4d, beta = d
    (mod 2d).  Listed family 1 first, beta ascending within each family.
    """
    _require_hall(N, d)
    out: list[tuple[int, int]] = []
    D1 = -4 * d
    for beta in range(0, 2 * N):
        if beta % (2 * d) == 0 and (beta * beta - D1) % (4 * N) == 0:
            out.append((beta, D1))
    if d in (2, 3):
        D2 = d * d - 4 * d
        for beta in range(0, 2 * N):
            if beta % (2 * d) == d % (2 * d) and (beta * beta - D2) % (4 * N) == 0:
                out.append((beta, D2))
    return out


@dataclass(frozen=True)
class GKZClass:
    """One Gamma_0(N)-class of fixed-point forms, named by its invariants.

    ``D`` is the *primitive* discriminant of the layer (total discriminant
    divided by ell^2), ``beta`` the value of q mod 2N for the primitive
    layer forms, ``(m1, m2)`` the gcd invariants gcd(N, q, p/N) and
    gcd(N, q, r), and ``reduced_image`` the reduced form the class maps to
    under [p, q, r] -> [p/N2, q, r*N2] (N2 the part of N matching m2).
    """

    D: int
    N: int
    beta: int
    ell: int
    m1: int
    m2: int
    reduced_image: QForm


def gkz_decompose(D: int, N: int, beta: int) -> tuple[GKZClass, ...]:
    """Stratify the family {[p, q, r] : N | p, disc D, q = beta (mod 2N)}.

    Returns one :class:`GKZClass` per Gamma_0(N)-equivalence class, across
    all content layers ell (ell^2 | D) and all coprime splittings of the
    invariant m = gcd(N, lambda, (lambda^2 - D0)/(4N)).
    """
    if D >= 0 or D % 4 not in (0, 1):
        raise BadDiscriminant(f"{D} is not a negative discriminant")
    beta %= 2 * N
    if (beta * beta - D) % (4 * N):
        raise InputError(f"beta={beta} does not satisfy beta^2 = {D} mod {4 * N}")
    out: list[GKZClass] = []
    ell = 0
    while True:
        ell += 1
        if ell * ell > -D:
            break
        if D % (ell * ell):
            continue
        D0 = D // (ell * ell)
        if D0 % 4 not in (0, 1):
            continue
        g = math.gcd(ell, 2 * N)
        if beta % g:
            continue
        step = 2 * N // g
        lam0 = beta // g * pow(ell // g, -1, step) % step
        for t in range(g):
            lam = (lam0 + t * step) % (2 * N)
            if (lam * lam - D0) % (4 * N):
                continue
            m = math.gcd(math.gcd(N, lam), (lam * lam - D0) // (4 * N))
            for m1 in hall_divisors(m):
                m2 = m // m1
                for red in reduced_classes(D0):
                    out.append(GKZClass(D0, N, lam, ell, m1, m2, red))
    return tuple(out)


def _stratum_representatives(classes: tuple[GKZClass, ...]) -> tuple[QForm, ...]:
    """One form [N*e, q, r] with gcd(e, q, r) = 1 in each of ``classes``,
    which share one primitive stratum (N, D, beta, m1, m2) and differ only
    in their reduced image.

    Primitivity is required of the cofactor triple (e, q, r), not of the
    coefficients (N*e, q, r): a stratum with m2 even, say, is populated by
    forms whose coefficient gcd shares a factor with N.  Every class of the
    stratum sees the same candidates, so they are walked once: q = beta
    (mod 2N) by increasing |q|, and first coefficients N*e over divisors e
    of (q^2 - D)/(4N).  A candidate with the stratum's gcd invariants is
    kept for its reduced image if that image has no form yet, so each class
    gets the first form that reaches its image.  The |q| bound starts at 16N
    and doubles up to 1024N before raising :class:`SearchExhausted`.
    """
    first = classes[0]
    N, D, beta, m1, m2 = first.N, first.D, first.beta % (2 * first.N), first.m1, first.m2
    n2 = math.gcd(N, m2 ** N.bit_length())  # the part of N over the primes of m2
    wanted = {cls.reduced_image for cls in classes}
    found: dict[QForm, QForm] = {}
    bound = 16 * N
    scanned_to = 0
    while bound <= 1024 * N:
        qs = []
        for k in range(-(bound // (2 * N)) - 1, bound // (2 * N) + 2):
            q = beta + 2 * N * k
            if scanned_to < abs(q) <= bound or (scanned_to == 0 and q == 0):
                qs.append(q)
        qs.sort(key=lambda q: (abs(q), -q))
        for q in qs:
            v = (q * q - D) // 4
            if v <= 0 or v % N:
                continue
            for e in divisors(v // N):
                P = N * e
                r = v // P
                if math.gcd(math.gcd(e, q), r) != 1:
                    continue
                if math.gcd(math.gcd(N, q), e) != m1:
                    continue
                if math.gcd(math.gcd(N, q), r) != m2:
                    continue
                image = reduce_form(QForm(P // n2, q, r * n2))[0]
                if image in wanted and image not in found:
                    found[image] = QForm(P, q, r)
                    if len(found) == len(wanted):
                        return tuple(found[cls.reduced_image] for cls in classes)
        scanned_to = bound
        bound *= 2
    missing = next(cls for cls in classes if cls.reduced_image not in found)
    raise SearchExhausted(f"no representative for {missing} with |q| <= {bound // 2}", bound // 2)


def class_representative(cls: GKZClass) -> QForm:
    """A concrete form [N*e, q, r] with gcd(e, q, r) = 1 in the given class:
    the first form of its stratum's scan (see ``fixed_points_X0``) whose
    reduced image is the class's."""
    return _stratum_representatives((cls,))[0]


# ---------------------------------------------------------------------------
# fixed points on X_0(N)


@dataclass(frozen=True)
class FixedPoint:
    """A fixed point of W_d on X_0(N), with the elliptic element fixing it.

    ``form`` is the (possibly imprimitive) total form [N z, q, r] whose root
    is the fixed point; ``matrix`` the integral matrix of determinant d with
    that fixed point; ``disc`` the primitive discriminant of the point.
    """

    form: QForm
    matrix: Mat2
    disc: int
    ell: int
    gkz: GKZClass


@dataclass(frozen=True)
class FixedPointSet:
    """All non-cuspidal fixed points of W_d on X_0(N)."""

    N: int
    d: int
    points: tuple[FixedPoint, ...]

    @property
    def count(self) -> int:
        return len(self.points)


def _matrix_from_form(f: QForm, trace: int, d: int, N: int) -> Mat2:
    """Element of determinant d, given trace, fixing the root of f = [p,q,r].

    For trace t: W = [[(t-q)/2, -r], [p, (t+q)/2]]; requires q = t (mod 2)
    and N | p.
    """
    if (f.q - trace) % 2 or f.p % N:
        raise FormMismatch(f"{f} needs q = {trace} (mod 2) and {N} | p")
    w = Mat2((trace - f.q) // 2, -f.r, f.p, (trace + f.q) // 2)
    if w.det != d or w.trace != trace:
        raise DeterminantMismatch(f"{w} should have determinant {d}, trace {trace}")
    return w


@lru_cache(maxsize=None)
def fixed_points_X0(N: int, d: int) -> FixedPointSet:
    """Non-cuspidal fixed points of the Atkin-Lehner involution W_d on X_0(N).

    Runs the family/stratum decomposition, scans each stratum once for a
    representative form of every class in it, and recovers the elliptic
    element for each.  For d = 3 the discriminant -3 layers of the trace-0
    family duplicate the trace-3 family and are skipped there.
    """
    _require_hall(N, d)
    points: list[FixedPoint] = []
    for beta, D in beta_candidates(N, d):
        family2 = D == d * d - 4 * d and d in (2, 3)
        trace = d if family2 else 0
        strata = groupby(
            gkz_decompose(D, N, beta), key=lambda c: (c.D, c.beta, c.ell, c.m1, c.m2)
        )
        for (D0, *_), group in strata:
            if d == 3 and not family2 and D0 == -3:
                continue  # content-2 layer; counted once in the trace-3 family
            classes = tuple(group)
            for cls, prim in zip(classes, _stratum_representatives(classes)):
                total = prim.scaled(cls.ell)
                if total.q % (2 * N) != beta % (2 * N):
                    raise FormMismatch(f"{total} should have q = {beta} (mod {2 * N})")
                w = _matrix_from_form(total, trace, d, N)
                points.append(FixedPoint(total, w, cls.D, cls.ell, cls))
    return FixedPointSet(N, d, tuple(points))
