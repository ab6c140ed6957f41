"""Bielliptic/hyperelliptic classification of intermediate modular curves.

This module decides, for each intermediate curve X_Delta(N), whether the
curve is rational, elliptic, hyperelliptic, bielliptic, or none of these,
and what that means for its set of quadratic points.  Positive results are
certified by explicit involutions together with fixed-point counts, or by

* ``accola-genus4`` -- a genus-4 curve with an unramified cyclic degree-3
  cover of a genus-2 diamond quotient is bielliptic (Accola).  This covers
  the curve whose bielliptic involution is an exceptional automorphism,
  induced by no normaliser matrix.

Negative results are certified by an explicit list of elimination rules:

* ``unramified-cover`` -- a Galois cover X -> Y (genus of Y at least 2,
  Y neither hyperelliptic nor of genus <= 1) must be totally unramified
  after dividing by a common bielliptic involution, forcing
  ``g - 1 == deg * (g_Y - 1)``; a mismatch excludes biellipticity
  (valid for genus >= 6, where a bielliptic involution is unique and
  central).
* ``castelnuovo`` -- the Castelnuovo-Severi inequality applied to the pair
  (cover of Y, hypothetical bielliptic map).
* ``field-of-definition`` / ``cusp-rationality`` / ``count-bound`` /
  ``lift-conflict`` -- for genus >= 6 a bielliptic involution descends to a
  hyperelliptic or bielliptic involution of X_0(N) (or lies in the diamond
  group); each candidate involution of X_0(N) is excluded because its lifts
  are not defined over Q, by a rational cusp mapping to non-rational cusps,
  by a fixed-point count bound, or because none of its lifts is a bielliptic
  involution.  That last argument is the witness search's: it does not
  normalize Gamma_Delta(N), or the search counted every lift and found none
  with 2g-2 fixed points.  The rule is named after the last of these
  arguments that some candidate needed.
* ``covered-by-non-bielliptic`` -- a Galois cover of a curve already known
  to be neither bielliptic nor subhyperelliptic (again for genus >= 6).
* ``curated-verdict`` -- literature results for three low-genus curves out
  of reach of the counting rules.

Counting fixed points of an automorphism of determinant m is done by two
independent routes, which must agree; tests compare them on every lift of
every descending W_d.  Each evaluation counts every lift [b] * w of one
operator, b over ``delta.coset_reps()``:

* route A, :func:`lift_fixed_points`, works above the fixed points z_j of
  the induced Atkin-Lehner involution W_m on X_0(N).  A point of the fibre
  over z_j, named by a diamond representative G, is fixed by [b] * w when
  [b] * w * G * adj(s) * adj(W_j) * adj(G) is m times an element of
  Gamma_Delta(N) for some s in the stabiliser of z_j.
* route B, :func:`coset_fixed_points`, works on the coset space.  Coset
  U_x holds a fixed point of [b] * w when U_x * E * adj(U_x) * adj(w) *
  adj([b]) is m times an element of Gamma_Delta(N) for an elliptic element
  E of determinant m, enumerated by trace, of both signs, and binary
  quadratic form; the sign matters for lifts of order 3, 4 or 6.

As [b] lies in Gamma_0(N), which normalises Gamma_Delta(N), each product
P without [b] is tested for P = m * gamma with gamma in Gamma_0(N); the
coset of gamma's upper-left class then names the lift, b^-1 * Delta in
route A and b * Delta in route B.  Route A tests all its rows at once
modulo m*N in int64 (see ``_mul_mod``).  Route B first forms only the
lower-left entry of P on every coset, which must be 0 mod m*N, and the
whole product on the few cosets where it is.  m*N must stay below 2^31.
The classifier counts every operator through ``_involution_counts``: it
decides per lift, in the same int64 form, its order 2 and its fixed cusps,
then runs route A for the Atkin-Lehner operators, route B for the others,
and the Riemann-Hurwitz check on every lift that is an involution.

Every function here reads the level N from ``delta.N``, except the entry
points :meth:`Classifier.classify` and :func:`classify_curve`, which also
accept a label or an element list for Delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .atkinlehner import (
    _hat_matrix,
    descends,
    diamond_matrix,
    normalizes,
)
from .congruence import (
    _clear_level_caches,
    _modulus,
    _read_only,
    coset_action,
    cusp_diamonds,
    cusp_table,
    degree,
    genus,
    transversal,
)
from .errors import (
    CoverMismatch,
    DeterminantMismatch,
    FieldDegreeMismatch,
    InputError,
    InvariantError,
    MembershipViolation,
    ParityViolation,
)
from .facts import FactBook
from .matrices import IDENTITY, Mat2
from .qforms import QForm, fixed_points_X0, reduced_classes
from .zmodn import (
    DeltaSubgroup,
    _coset_partition,
    delta_by_label,
    delta_from_elements,
    hall_divisors,
    subgroups_containing_minus1,
    units,
)

__all__ = [
    "ClassificationRecord",
    "Classifier",
    "Evidence",
    "LiftReport",
    "Witness",
    "al_reference",
    "castelnuovo_bound",
    "census",
    "classify_curve",
    "coset_fixed_points",
    "cuspidal_fixed_count",
    "involution_quotient_genus",
    "lift_fixed_points",
]


# --------------------------------------------------------------------------
# small shared helpers


def _resolve(N: int, delta) -> DeltaSubgroup:
    """Accept a subgroup object, a label, or an element iterable."""
    if isinstance(delta, DeltaSubgroup):
        if delta.N != N:
            raise InputError(f"subgroup has level {delta.N}, expected {N}")
        return delta
    if isinstance(delta, str):
        return delta_by_label(N, delta)
    return delta_from_elements(N, delta)


def _full(N: int) -> DeltaSubgroup:
    """The full unit subgroup, i.e. the curve X_0(N)."""
    return delta_by_label(N, "0")


def curve_name(N: int, label: str) -> str:
    """Human-readable name of the curve with the given subgroup label."""
    if label == "0":
        return f"X_0({N})"
    if label == "1":
        return f"X_1({N})"
    return f"X_{{{label}}}({N})"


def _stabilizer_generator(form: QForm) -> Mat2 | None:
    """Generator (mod +-1) of the stabiliser of the root of ``form`` in
    SL_2(Z), for the two discriminants with extra automorphisms."""
    p, q, r = form.p, form.q, form.r
    if form.disc == -4:
        return Mat2(-q // 2, -r, p, q // 2)
    if form.disc == -3:
        return Mat2((1 - q) // 2, -r, p, (1 + q) // 2)
    return None


def involution_quotient_genus(g: int, r: int) -> int:
    """Genus of the quotient by an involution with ``r`` fixed points.

    Riemann-Hurwitz gives ``2g - 2 = 2(2g' - 2) + r``; the count must
    satisfy ``r == 2g + 2 (mod 4)`` and ``0 <= r <= 2g + 2``.
    """
    if r < 0 or r > 2 * g + 2 or (r - (2 * g + 2)) % 4 != 0:
        raise ParityViolation(
            f"impossible fixed-point count {r} for an involution on a genus-{g} curve"
        )
    return (2 * g + 2 - r) // 4


def castelnuovo_bound(n1: int, g1: int, n2: int, g2: int) -> int:
    """Castelnuovo-Severi genus bound for a curve with two independent maps
    of degrees ``n1, n2`` onto curves of genus ``g1, g2``."""
    return n1 * g1 + n2 * g2 + (n1 - 1) * (n2 - 1)


def generic_atkin_lehner(N: int, d: int) -> Mat2:
    """Some integral matrix of determinant ``d`` in the coset of the
    Atkin-Lehner operator ``W_d`` over ``Gamma_0(N)``."""
    if d == N:
        return Mat2(0, -1, N, 0)
    m = N // d
    alpha = pow(d, -1, m)
    beta = (alpha * d - 1) // m
    w = Mat2(alpha * d, beta, N, d)
    if w.det != d:
        raise DeterminantMismatch(f"{w} should have determinant {d}")
    return w


def al_reference(d: int, delta: DeltaSubgroup):
    """The matrix above W_d that counts start from on X_Delta(N), with its
    name, the fixed points of W_d on X_0(N) and the hat lift (or None).

    The matrix is the first base fixed-point matrix when W_d has fixed
    points on X_0(N), else the hat lift when one exists, else
    :func:`generic_atkin_lehner`.  W_d must descend to X_Delta(N): callers
    establish it with :func:`descends`, once per W_d, and it is not checked
    again here (:func:`hat_W` is the lift that checks it).
    """
    base = fixed_points_X0(delta.N, d)
    hat = _hat_matrix(delta.N, d)
    if base.points:
        return base.points[0].matrix, f"(first fixed-point element above W_{d})", base, hat
    if hat is not None:
        return hat, f"W^_{d}", base, hat
    return generic_atkin_lehner(delta.N, d), f"W_{d}", base, hat


# --------------------------------------------------------------------------
# matrix arithmetic modulo M = m*N, shared by both fixed-point routes
#
# Both routes ask whether an integer matrix P, a product of factors whose
# determinants multiply to m^2, equals m*gamma with gamma in Gamma_0(N), and
# which class mod N gamma's corner holds.  That can be read off P mod M = m*N:
# m divides every entry, P.c/m = 0 (mod N), and det gamma = 1 follows from
# the factors.  Entries stay at most M < congruence.MODULUS_LIMIT = 2^31 in
# absolute value, so a sum of two products fits in an int64.

def _mul_mod(x, y, M: int):
    """The product of two matrices given as (a, b, c, d) tuples of ints or
    int64 arrays with entries of absolute value at most M, reduced into
    [0, M)."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        (a1 * a2 + b1 * c2) % M,
        (a1 * b2 + b1 * d2) % M,
        (c1 * a2 + d1 * c2) % M,
        (c1 * b2 + d1 * d2) % M,
    )


def _adj(x):
    """Adjugate of an (a, b, c, d) tuple; it keeps the entries' bound."""
    a, b, c, d = x
    return (d, -b, -c, a)


def _residues(w: Mat2, M: int) -> tuple[int, int, int, int]:
    return tuple(e % M for e in w.entries())


def _scaled_cosets(p, m: int, delta: DeltaSubgroup, corner: int) -> np.ndarray:
    """For each row of ``p`` (residues mod m*N) that equals m*gamma with
    gamma in Gamma_0(N), the position in ``delta.coset_reps()`` of the coset
    of gamma's entry ``corner`` (0 for the upper-left, 3 for the
    lower-right), else -1."""
    a, b, c, d = p
    scaled = (c == 0) & (a % m == 0) & (b % m == 0) & (d % m == 0)
    return np.where(scaled, _coset_partition(delta)[1][p[corner] // m], -1)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of ``values``, ascending.  Plain ``np.unique``
    imports ``numpy.ma`` on its first call, which a cold query pays for."""
    ordered = np.sort(values)
    keep = np.ones(ordered.size, dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


# --------------------------------------------------------------------------
# fixed points, route A: lifting along X_Delta(N) -> X_0(N)


@dataclass(frozen=True)
class LiftReport:
    """Non-cuspidal fixed points above an Atkin-Lehner involution of X_0(N).

    ``witnesses`` holds one ``(base_index, fibre_rep, conjugacy_witness)``
    triple per fixed point of w: the index of the base fixed point, the
    diamond representative of the fibre point, and the upper-left class
    (mod N, signed) of the group element realising the fixed-point
    equation.  ``elliptic_by_lift`` counts the fixed points of every lift
    [b] * w, b over ``delta.coset_reps()``; entry 0 is w itself.
    """

    witnesses: tuple[tuple[int, int, int], ...]
    elliptic_by_lift: tuple[int, ...]


@lru_cache(maxsize=None)
def _fibre_reps(delta: DeltaSubgroup, extra_class: int | None) -> np.ndarray:
    """Coset representatives of ``<Delta, extra_class>`` inside the units.

    These index the fibre of X_Delta(N) -> X_0(N) over a point whose
    stabiliser has diamond part ``extra_class`` (``None`` for a free fibre).
    """
    gens = set(delta.elements)
    if extra_class is not None:
        gens.add(extra_class)
    reps = np.array(delta_from_elements(delta.N, gens).coset_reps(), dtype=np.int64)
    _read_only(reps)
    return reps


@lru_cache(maxsize=None)
def _diamond_columns(N: int) -> tuple[np.ndarray, ...]:
    """Entries (a, b, c, d) of the diamond matrices [a] as four columns
    indexed by a mod N (zero at non-units); every entry lies in [0, N]."""
    cols = np.zeros((4, N), dtype=np.int64)
    for a in units(N):
        cols[:, a] = diamond_matrix(a, N).entries()
    _read_only(cols)  # and so its rows, which are views of it
    return tuple(cols)


def lift_fixed_points(delta: DeltaSubgroup, w: Mat2) -> LiftReport:
    """Count fixed points of ``w`` and of every lift [b] * w on X_Delta(N)
    above the fixed points of the Atkin-Lehner involution W_d on X_0(N).

    ``w`` must normalise Gamma_Delta(N) and lie in the coset
    ``Gamma_0(N) * W_d``, d = det(w) a Hall divisor of N = ``delta.N``; the
    base fixed points are ``fixed_points_X0(N, d)``.  Each base fixed
    point z_j contributes one fibre; the fibre is indexed by diamond coset
    representatives modulo the stabiliser of z_j, and a fibre point is fixed
    exactly when a twisted conjugate of ``w`` falls back into
    Gamma_Delta(N), allowing a correction by the stabiliser of z_j.

    There is one row per base point j, correction s and fibre
    representative G, ordered by (j, s, G), and the conjugates
    P = w * G * adj(s) * adj(W_j) * adj(G) of all rows are evaluated modulo
    d*N in one pass.  When P = d*gamma with gamma in Gamma_0(N), the row
    fixes the lift [b] * w whose b * Delta holds the lower-right class
    a^-1 of gamma.  The witnesses are those of w: per (j, G) the first
    correction that hits.
    """
    N, d = delta.N, w.det
    M = _modulus(d, N)
    base = fixed_points_X0(N, d)
    w_res = _residues(w, M)
    witnesses: tuple[tuple[int, int, int], ...] = ()
    by_lift = np.zeros(delta.index, dtype=np.int64)
    if base.points:
        q = _mul_mod(w_res, _adj(_residues(base.points[0].matrix, M)), M)
        if not (all(e % d == 0 for e in q) and q[2] == 0):
            raise InputError(
                f"candidate {w} does not lie above the Atkin-Lehner operator W_{d}"
            )
        blocks = []  # (j, fibre, adj(s) * adj(W_j)) per base point and correction
        for j, point in enumerate(base.points):
            primitive = QForm(
                point.form.p // point.ell,
                point.form.q // point.ell,
                point.form.r // point.ell,
            )
            stab = _stabilizer_generator(primitive)
            corrections = [(1, 0, 0, 1)]
            extra = None
            if stab is not None:
                if stab.det != 1:
                    raise DeterminantMismatch(f"stabiliser {stab} of {primitive}")
                s1 = _residues(stab, M)
                corrections.append(s1)
                if primitive.disc == -3:
                    corrections.append(_mul_mod(s1, s1, M))
                extra = stab.a % N
            fibre = _fibre_reps(delta, extra)
            wj_adj = _adj(_residues(point.matrix, M))
            blocks.extend((j, fibre, _mul_mod(_adj(s), wj_adj, M)) for s in corrections)
        js, fibres, xs = zip(*blocks)
        sizes = [fibre.size for fibre in fibres]
        # key = j*N + G names the fibre point of a row
        key = np.repeat(np.array(js, dtype=np.int64) * N, sizes) + np.concatenate(fibres)
        g = tuple(col[key % N] for col in _diamond_columns(N))
        x = tuple(np.repeat(np.array(xs, dtype=np.int64), sizes, axis=0).T)
        p = _mul_mod(w_res, _mul_mod(_mul_mod(g, x, M), _adj(g), M), M)
        lift = _scaled_cosets(p, d, delta, 3)
        hits = np.flatnonzero(lift >= 0)
        # a fibre point is fixed by a lift when one of its rows hits for that
        # lift; w's witness is its first row (least s) that hits for w
        fixed = _distinct(key[hits] * delta.index + lift[hits])
        by_lift = np.bincount(fixed % delta.index, minlength=delta.index)
        own = hits[lift[hits] == 0]
        first = own[np.unique(key[own], return_index=True)[1]]
        signed = p[0][first] // d % N
        signed[signed > N // 2] -= N
        witnesses = tuple(zip(
            (key[first] // N).tolist(), (key[first] % N).tolist(), signed.tolist()
        ))

    return LiftReport(witnesses, tuple(by_lift.tolist()))


# --------------------------------------------------------------------------
# fixed points, route B: elliptic elements on the coset space


def coset_fixed_points(delta: DeltaSubgroup, w: Mat2) -> tuple[int, ...]:
    """Numbers of non-cuspidal fixed points on X_Delta(N) of the
    automorphisms induced by the lifts [b] * w, b over ``delta.coset_reps()``
    (entry 0 is w itself), found directly on the coset space.

    A point U_x(z) is fixed by [b] * w exactly when some integral elliptic
    element E of determinant ``det(w)`` fixing z lands in
    ``+-Gamma_Delta(N) * [b] * w`` after conjugation by the coset
    transversal matrix U_x: when U_x * E * adj(U_x) * adj(w) is det(w) times
    an element of Gamma_0(N) whose upper-left class lies in b * Delta.
    Elliptic elements are enumerated by trace and by the primitive binary
    quadratic form of their fixed point, and each is tested against all
    cosets at once, modulo det(w)*N: the lower row of U_x * E times the
    first column of adj(U_x) * adj(w), built once per call, gives the
    lower-left entry of the product, and only the cosets where it is 0 get
    the whole product and the test of its other entries.  Both signs of
    each trace are tried: the elements of trace t and -t with one fixed
    point turn by opposite angles there, so a lift of order 3, 4 or 6 may
    have fixed points that only one sign sees.  A point is named by its
    form and its coset position, taken least in its orbit under the
    stabiliser of the form's root (S at discriminant -4, S*T at -3): the
    positions of one orbit represent one and the same point.
    """
    N, m = delta.N, w.det
    if m <= 0:
        raise InputError("automorphism matrix must have positive determinant")
    M = _modulus(m, N)
    act = coset_action(delta)
    trans = tuple(col % M for col in transversal(delta))
    w_adj = _adj(_residues(w, M))
    # the first column of adj(U_x) * adj(w): adj(U_x) times (d_w, -c_w)
    ta, tb, tc, td = trans
    head = ((td * w_adj[0] - tb * w_adj[2]) % M, (ta * w_adj[2] - tc * w_adj[0]) % M)

    traces = {0}
    for c in (1, 2, 3):
        s = isqrt(c * m)
        if s * s == c * m and s * s < 4 * m:
            traces.update((s, -s))

    forms: dict[QForm, int] = {}
    points = [np.zeros(0, dtype=np.int64)]
    for t in sorted(traces):
        v = 4 * m - t * t
        for u in range(1, isqrt(v) + 1):
            if v % (u * u):
                continue
            d0 = -(v // (u * u))
            if d0 % 4 not in (0, 1):
                continue
            for form in reduced_classes(d0):
                if (t - u * form.q) % 2:
                    continue
                elem = Mat2(
                    (t - u * form.q) // 2,
                    -u * form.r,
                    u * form.p,
                    (t + u * form.q) // 2,
                )
                if elem.det != m or elem.trace != t:
                    raise DeterminantMismatch(
                        f"elliptic element {elem} should have det {m}, trace {t}"
                    )
                e = _residues(elem, M)
                # the lower-left entry of U_x * E * adj(U_x) * adj(w): the
                # lower row of U_x * E times the first column above
                lower = ((tc * e[0] + td * e[2]) % M, (tc * e[1] + td * e[3]) % M)
                rows = np.flatnonzero((lower[0] * head[0] + lower[1] * head[1]) % M == 0)
                if not rows.size:
                    continue
                u_x = tuple(col[rows] for col in trans)
                p = _mul_mod(_mul_mod(u_x, e, M), _mul_mod(_adj(u_x), w_adj, M), M)
                lift = _scaled_cosets(p, m, delta, 0)
                hits = np.flatnonzero(lift >= 0)
                named = _orbit_least(act, form.disc, rows[hits])
                key = forms.setdefault(form, len(forms)) * act.degree + named
                points.append(key * delta.index + lift[hits])
    fixed = _distinct(np.concatenate(points))
    return tuple(np.bincount(fixed % delta.index, minlength=delta.index).tolist())


def _orbit_least(act, disc: int, positions: np.ndarray) -> np.ndarray:
    """The least coset position in the orbit of each of ``positions`` under
    the stabiliser of a root of discriminant ``disc``: S at -4, S*T at -3,
    the trivial group otherwise."""
    if disc == -4:
        return np.minimum(positions, act.sigma_S[positions])
    if disc == -3:
        once = act.sigma_T[act.sigma_S[positions]]
        return np.minimum(np.minimum(positions, once), act.sigma_T[act.sigma_S[once]])
    return positions


def cuspidal_fixed_count(delta: DeltaSubgroup, w: Mat2) -> tuple[int, ...]:
    """Numbers of cusp classes of X_Delta(N) fixed by the automorphisms
    induced by the lifts [b] * w of the normalising matrix ``w``, b over
    ``delta.coset_reps()`` (entry 0 is w itself).  ``CuspTable.images``
    maps every class by w, and ``cusp_diamonds`` then by every [b]."""
    images = cusp_table(delta).images(w)
    fixed = cusp_diamonds(delta)[:, images] == np.arange(images.size)
    return tuple(np.count_nonzero(fixed, axis=1).tolist())


def _involution_counts(
    delta: DeltaSubgroup, w: Mat2, g: int, route_a: bool = False
) -> list[tuple[int, Mat2, int, int]]:
    """``(k, lift, elliptic, cuspidal)`` for every lift = [b] * w of order 2
    on X_Delta(N) of genus ``g``, b the k-th of ``delta.coset_reps()``.

    All lifts are formed at once modulo m*N, m = det(w) >= 1, with
    [[1,0],[N,1]] * w for b = 1: a lift has order 2 when its square is m
    times an element of Gamma_Delta(N) and, if m = s^2, it is not s times
    one.  The operator is evaluated once, and only if some lift has order 2,
    by route A (``w`` above an Atkin-Lehner operator W_m) when ``route_a``,
    else by route B; each total must pass :func:`involution_quotient_genus`.
    """
    N, m = delta.N, w.det
    if m < 1:
        raise InputError("automorphism matrix must have positive determinant")
    M = _modulus(m, N)
    reps = list(delta.coset_reps())
    lifts = _mul_mod([col[reps] for col in _diamond_columns(N)], _residues(w, M), M)
    involutive = _scaled_cosets(_mul_mod(lifts, lifts, M), m, delta, 0) == 0
    s = isqrt(m)
    if s * s == m:
        involutive &= _scaled_cosets([e % (s * N) for e in lifts], s, delta, 0) != 0
    involutions = np.flatnonzero(involutive).tolist()
    if not involutions:
        return []
    elliptic = (lift_fixed_points(delta, w).elliptic_by_lift if route_a
                else coset_fixed_points(delta, w))
    cuspidal = cuspidal_fixed_count(delta, w)
    for k in involutions:
        involution_quotient_genus(g, elliptic[k] + cuspidal[k])
    return [(k, diamond_matrix(reps[k], N) * w if k else w, elliptic[k], cuspidal[k])
            for k in involutions]


# --------------------------------------------------------------------------
# record model


@dataclass(frozen=True)
class Witness:
    """An involution together with its verified fixed-point count."""

    name: str
    matrix: Mat2
    kind: str  # "diamond" | "atkin-lehner" | "explicit"
    fixed_elliptic: int
    fixed_cuspidal: int

    @property
    def fixed_total(self) -> int:
        return self.fixed_elliptic + self.fixed_cuspidal


@dataclass(frozen=True)
class Evidence:
    """One piece of (positive or negative) classification evidence."""

    rule: str
    detail: str
    target: tuple[int, str] | None = None
    degree: int | None = None
    facts_used: tuple[str, ...] = ()


@dataclass(frozen=True)
class ClassificationRecord:
    """Everything the classifier established about one curve."""

    N: int
    delta_label: str
    delta_elements: tuple[int, ...]
    genus: int
    status: str  # rational | elliptic | hyperelliptic | bielliptic | not-bielliptic | undecided
    is_bielliptic: bool | None
    witnesses: tuple[Witness, ...]
    hyperelliptic_witnesses: tuple[Witness, ...]
    evidence: tuple[Evidence, ...]
    facts_used: tuple[str, ...]
    quadratic_points: str  # infinite | finite | finite-conditional | n/a
    warnings: tuple[str, ...]

    @property
    def name(self) -> str:
        return curve_name(self.N, self.delta_label)


# --------------------------------------------------------------------------
# the classifier


class Classifier:
    """Curve-by-curve classification engine with a shared memo table.

    ``facts`` controls whether curated literature inputs (complete involution
    inventories, rank data, curated verdicts) may be consulted; with the book
    disabled the classifier reports only what it derives itself.
    """

    def __init__(self, facts: FactBook | None = None):
        self.facts = facts if facts is not None else FactBook()
        self._memo: dict[tuple[int, str], ClassificationRecord] = {}
        self._in_progress: set[tuple[int, str]] = set()
        self._x0_memo: dict[int, tuple] = {}

    # -- public entry points ------------------------------------------------

    def classify(self, N: int, delta) -> ClassificationRecord:
        delta = _resolve(N, delta)
        key = (N, delta.label)
        if key in self._memo:
            return self._memo[key]
        if key in self._in_progress:
            raise InvariantError(f"classification cycle at {curve_name(N, delta.label)}")
        self._in_progress.add(key)
        try:
            record = self._classify(delta)
        finally:
            self._in_progress.discard(key)
        self._memo[key] = record
        return record

    def scope_levels(self, max_n: int) -> tuple[int, ...]:
        """Levels whose intermediate curves can have infinitely many
        quadratic points: X_0(N) subhyperelliptic or bielliptic, with at
        least one intermediate subgroup.

        The X_0(N) classification used here delimits the survey: genus 0
        and 1 are counted, and the curated hyperelliptic and bielliptic
        lists are read even when the fact book is disabled.
        """
        if max_n > 256:
            raise InputError("census is supported for levels up to 256")
        out = []
        for N in range(13, max_n + 1):
            if self._x0_type(N) is None:
                continue
            if any(s.is_intermediate for s in subgroups_containing_minus1(N)):
                out.append(N)
        return tuple(out)

    def classify_level(self, N: int) -> tuple[ClassificationRecord, ...]:
        """Classify every intermediate curve at level N, then free the coset
        tables the level built; the records stay in the memo table."""
        records = tuple(
            self.classify(N, sub) for sub in subgroups_containing_minus1(N) if sub.is_intermediate
        )
        _clear_level_caches()
        return records

    def census(self, max_n: int = 131) -> tuple[ClassificationRecord, ...]:
        """Classify every intermediate curve at every level in scope."""
        return tuple(
            record
            for N in self.scope_levels(max_n)
            for record in self.classify_level(N)
        )

    # -- curated X_0(N) inventory -------------------------------------------

    def _x0_type(self, N: int) -> str | None:
        """Coarse type of X_0(N), N >= 13, or ``None`` when X_0(N) is neither
        subhyperelliptic nor bielliptic.  Genus 0 and 1 are counted without
        enumerating subgroups; the complete literature lists give the rest.
        Used only to delimit the survey scope."""
        g = genus(DeltaSubgroup(N, units(N), "0"))
        if g <= 1:
            return ("rational", "elliptic")[g]
        for label in ("hyperelliptic", "bielliptic"):
            if N in self.facts.read_past_switch(f"x0.{label}").as_levels():
                return label
        return None

    # -- main classification flow -------------------------------------------

    def _classify(self, delta: DeltaSubgroup) -> ClassificationRecord:
        g = genus(delta)
        if g == 0:
            return self._record(delta, g, "rational")
        if g == 1:
            return self._record(delta, g, "elliptic")

        biell, hyper, evidence = self._witness_search(delta, g)
        if hyper or g == 2:
            if not hyper:
                evidence += (Evidence("genus-two", "every genus-2 curve is hyperelliptic"),)
            return self._record(delta, g, "hyperelliptic", evidence, biell, hyper)
        if biell:
            return self._record(delta, g, "bielliptic", evidence, biell)

        covers = self._covers(delta)
        accola = self._accola_genus4(delta, g, covers)
        if accola is not None:
            return self._record(delta, g, "bielliptic", evidence + (accola,), warnings=(
                "bielliptic witness is an exceptional automorphism, "
                "not induced by a normalizer matrix",
            ))

        negative = self._eliminations(delta, g, covers)
        if negative:
            return self._record(delta, g, "not-bielliptic", evidence + negative)
        return self._record(delta, g, "undecided", evidence, warnings=(
            "no decisive evidence found" if self.facts.enabled else (
                "no decisive evidence with curated facts disabled; "
                "status downgraded to undecided"
            ),
        ))

    def _record(
        self,
        delta: DeltaSubgroup,
        g: int,
        status: str,
        evidence: tuple[Evidence, ...] = (),
        biell: tuple[Witness, ...] = (),
        hyper: tuple[Witness, ...] = (),
        warnings: tuple[str, ...] = (),
    ) -> ClassificationRecord:
        """The record of X_Delta(N) of genus ``g`` with this status; whether
        it is bielliptic and what that means for its quadratic points follow
        from the status.  A hyperelliptic curve is bielliptic exactly when a
        bielliptic witness was found."""
        is_bielliptic = {
            "hyperelliptic": bool(biell), "bielliptic": True, "not-bielliptic": False,
        }.get(status)
        qp, qp_facts, qp_warnings = self._quadratic_points(status, delta.N)
        facts_used = set(qp_facts).union(*(ev.facts_used for ev in evidence))
        return ClassificationRecord(
            N=delta.N,
            delta_label=delta.label,
            delta_elements=delta.elements,
            genus=g,
            status=status,
            is_bielliptic=is_bielliptic,
            witnesses=biell,
            hyperelliptic_witnesses=hyper,
            evidence=evidence,
            facts_used=tuple(sorted(facts_used)),
            quadratic_points=qp,
            warnings=warnings + qp_warnings,
        )

    # -- quadratic points ---------------------------------------------------

    def _quadratic_points(self, status: str, N: int):
        """``(quadratic_points, fact_tags, warnings)`` for a curve of level
        ``N`` with this status.  A subhyperelliptic curve has infinitely many
        quadratic points.  A bielliptic one has finitely many when its
        elliptic quotient has rank 0, and a not-bielliptic one when it is
        not hyperelliptic either; both read curated data, without which the
        answer is conditional."""
        if status in ("rational", "elliptic", "hyperelliptic"):
            return "infinite", (), ()
        if status == "undecided":
            return "n/a", (), ()
        if status == "not-bielliptic":
            if self.facts.get("intermediate.hyperelliptic") is not None:
                return "finite", ("intermediate.hyperelliptic",), ()
            return "finite-conditional", (), (
                "hyperellipticity cannot be excluded without the curated "
                "inventory; finiteness of quadratic points reported "
                "conditionally",
            )
        if N == 37:
            if self.facts.get("n37.quadratic-finite") is not None:
                return "finite", ("n37.quadratic-finite",), ()
        else:
            fact = self.facts.get("rank0")
            if fact is not None and N in fact.as_levels():
                return "finite", ("rank0",), ()
            if fact is not None:
                return "finite-conditional", (), (
                    f"level {N} lacks curated rank data; "
                    "finiteness of quadratic points not certified",
                )
        return "finite-conditional", (), (
            "curated rank data disabled; finiteness of quadratic points "
            "reported conditionally",
        )

    # -- witness search -----------------------------------------------------

    def _witness_candidates(self, delta: DeltaSubgroup):
        """Every operator whose lifts [b] * w are tried on X_Delta(N), as
        ``(kind, w, names)``: ``names`` names the lifts, b over
        ``delta.coset_reps()``.  The diamonds [b] are the lifts of the
        identity."""
        N, reps = delta.N, delta.coset_reps()
        yield "diamond", IDENTITY, tuple(f"[{b}]" for b in reps)
        for d in hall_divisors(N):
            if d == 1 or not descends(d, delta):
                continue
            ref, _, _, hat = al_reference(d, delta)
            if hat is None:
                names = tuple(f"[{b}]W_{d}" if b != 1 else f"W_{d}" for b in reps)
            else:
                # name each lift by its diamond offset against the hat lift
                q = ref * hat.adjugate()
                if not q.divisible_by(d):
                    raise MembershipViolation(f"{ref} and {hat} lie above different W_{d}")
                offset = q.divided_by(d).a % N
                classes = (delta.coset_min(b * offset % N) for b in reps)
                names = tuple(f"W^_{d}" if c == 1 else f"[{c}]W^_{d}" for c in classes)
            yield "atkin-lehner", ref, names
        # Beyond diamonds and Atkin-Lehner lifts: the generic shape
        # [[1,0],[N/2,1]] for levels divisible by 4, and the sporadic
        # involutions of X_0(N) listed in the fact book.  A candidate is
        # certified by its own fixed-point count, so the list is read past
        # the on/off switch and is not recorded as a fact used.
        extras = [Mat2(1, 0, N // 2, 1)] if N % 4 == 0 else []
        listed = self.facts.read_past_switch(f"x0.extra-involutions.{N}")
        if listed is not None:
            extras.extend(listed.as_matrices())
        for mat in extras:
            if normalizes(mat, delta):
                yield "explicit", mat, tuple(
                    str(mat) if b == 1 else f"[{b}]{mat}" for b in reps
                )

    def _witness_search(self, delta: DeltaSubgroup, g: int):
        """Verify all candidate involutions; sort them into bielliptic
        witnesses (2g-2 fixed points) and hyperelliptic witnesses (2g+2)."""
        biell: list[Witness] = []
        hyper: list[Witness] = []
        evidence: list[Evidence] = []
        for kind, w, names in self._witness_candidates(delta):
            route_a = kind == "atkin-lehner"
            for k, mat, elliptic, cuspidal in _involution_counts(delta, w, g, route_a):
                name = names[k]
                total = elliptic + cuspidal
                if total == 2 * g - 2:
                    if kind == "atkin-lehner" and mat.det == delta.N and g > 5:
                        if delta.index != 1:
                            raise FieldDegreeMismatch(
                                f"bielliptic {name} on genus {g} is not defined over Q"
                            )
                    found, rule, shape = biell, "bielliptic-witness", "2g-2"
                elif total == 2 * g + 2:
                    found, rule, shape = hyper, "hyperelliptic-witness", "2g+2"
                else:
                    continue
                found.append(Witness(name, mat, kind, elliptic, cuspidal))
                evidence.append(Evidence(
                    rule, f"{name} is an involution with {total} = {shape} fixed points",
                ))
        return tuple(biell), tuple(hyper), tuple(evidence)

    # -- Accola certificates ------------------------------------------------

    def _accola_genus4(self, delta: DeltaSubgroup, g: int, covers) -> Evidence | None:
        """Genus-4 curve with an unramified cyclic degree-3 cover of a
        genus-2 curve is bielliptic (Accola); the cover is found among the
        diamond quotients in ``covers``, so the certificate is
        machine-checkable."""
        if g != 4:
            return None
        for target, deg, _ in covers:
            if target.N != delta.N or deg != 3 or genus(target) != 2:
                continue
            # Riemann-Hurwitz: 2*4-2 == 3*(2*2-2) + ram forces ram == 0.
            return Evidence(
                "accola-genus4",
                f"unramified cyclic degree-3 cover of genus-2 "
                f"{curve_name(target.N, target.label)}: genus-4 curve is bielliptic",
                target=(target.N, target.label),
                degree=3,
            )
        return None

    # -- cover enumeration --------------------------------------------------

    def _covers(self, delta: DeltaSubgroup):
        """Covers X_Delta(N) -> X_Delta''(M): diamond quotients at level N
        (always Galois) and level-lowering maps (Galois when of degree 2),
        as ``(target, degree, galois)`` with ``target`` the subgroup
        Delta'' modulo M.  Nothing here classifies a target;
        ``_eliminations`` classifies the Galois ones it reads."""
        N = delta.N
        out: list[tuple[DeltaSubgroup, int, bool]] = []
        deg_self = degree(delta)
        for sub in subgroups_containing_minus1(N):
            if sub.order > delta.order and set(delta.elements) <= set(sub.elements):
                out.append((sub, sub.order // delta.order, True))
        for M in range(7, N):
            if N % M:
                continue
            image = delta_from_elements(M, {a % M for a in delta.elements} | {M - 1})
            for sub in subgroups_containing_minus1(M):
                if not set(image.elements) <= set(sub.elements):
                    continue
                deg, rem = divmod(deg_self, degree(sub))
                if rem:
                    raise CoverMismatch(
                        f"index of {curve_name(M, sub.label)} does not divide "
                        f"that of {curve_name(N, delta.label)}"
                    )
                out.append((sub, deg, deg == 2))
        return out

    # -- negative rules -----------------------------------------------------

    def _not_subhyperelliptic(self, record: ClassificationRecord):
        """Certificate that a curve is neither of genus <= 1 nor
        hyperelliptic; returns (ok, fact_tags) and prefers machine routes."""
        if record.genus < 2 or record.status == "hyperelliptic":
            return False, ()
        if record.is_bielliptic and record.genus >= 4:
            # a bielliptic curve of genus >= 4 cannot be hyperelliptic
            # (Castelnuovo-Severi), so no curated input is needed
            return True, ()
        if record.delta_label == "0":
            fact = self.facts.get("x0.hyperelliptic")
            if fact is not None and record.N not in fact.as_levels():
                return True, ("x0.hyperelliptic",)
            return False, ()
        if record.delta_label == "1":
            fact = self.facts.get("x1.hyperelliptic")
            if fact is not None and record.N not in fact.as_levels():
                return True, ("x1.hyperelliptic",)
            return False, ()
        fact = self.facts.get("intermediate.hyperelliptic")
        if fact is not None and (record.N, record.delta_label) not in fact.as_curve_labels():
            return True, ("intermediate.hyperelliptic",)
        return False, ()

    def _eliminations(self, delta: DeltaSubgroup, g: int, covers) -> tuple[Evidence, ...]:
        """Negative evidence against a bielliptic X_Delta(N) of genus ``g``.

        The Castelnuovo-Severi bound reads only the genus of the curve
        below, so a cover target is classified only when ``g >= 6`` and the
        cover is Galois: the ``unramified-cover`` and
        ``covered-by-non-bielliptic`` rules read its verdict.
        """
        out: list[Evidence] = []

        for target, deg, galois in covers:
            key, gy = (target.N, target.label), genus(target)
            name = curve_name(*key)
            ok, tags = False, ()
            if g >= 6 and galois:
                below = self.classify(target.N, target)
                ok, tags = self._not_subhyperelliptic(below)

            if ok and g - 1 != deg * (gy - 1):
                out.append(Evidence(
                    "unramified-cover",
                    f"g-1 = {g - 1} != {deg}*({gy}-1): the degree-{deg} "
                    f"Galois cover of {name} admits no totally unramified "
                    f"descent of a bielliptic quotient",
                    target=key,
                    degree=deg,
                    facts_used=tags,
                ))

            bound = castelnuovo_bound(deg, gy, 2, 1)
            if (deg % 2 == 1 or (deg == 2 and gy >= 2)) and g > bound:
                out.append(Evidence(
                    "castelnuovo",
                    f"genus {g} exceeds the Castelnuovo-Severi bound "
                    f"{bound} for a degree-{deg} map to {name} "
                    f"(genus {gy}) together with a bielliptic map",
                    target=key,
                    degree=deg,
                ))

            if ok and below.status == "not-bielliptic":
                out.append(Evidence(
                    "covered-by-non-bielliptic",
                    f"degree-{deg} Galois cover of {name}, "
                    f"which is neither bielliptic nor subhyperelliptic",
                    target=key,
                    degree=deg,
                    facts_used=tuple(sorted(set(tags) | set(below.facts_used))),
                ))

        ev = self._involution_elimination(delta, g)
        if ev is not None:
            out.append(ev)

        fact = self.facts.get(f"verdict.{delta.N}.{delta.label}")
        if fact is not None and fact.value == "not-bielliptic":
            out.append(Evidence(
                "curated-verdict",
                f"curated: {fact.citation}",
                facts_used=(fact.key,),
            ))
        return tuple(out)

    # -- candidate involutions of X_0(N) ------------------------------------

    def _x0_candidates(self, N: int):
        """``(candidates, fact_tags)``: the hyperelliptic/bielliptic
        involution candidates on X_0(N), each as ``(name, matrix, kind,
        fixed-point count there)``, under a completeness guarantee, or
        ``(None, ())`` when facts are disabled; computed once per level."""
        if N in self._x0_memo:
            return self._x0_memo[N]
        completeness = self.facts.get("x0.involution-completeness")
        if completeness is None:
            return None, ()
        full = _full(N)
        g0 = genus(full)
        cands: list[tuple[str, Mat2, str, int]] = []
        for d in hall_divisors(N):
            if d == 1:
                continue
            # elliptic count: the base set (route A would redo X_0(N)'s witness search)
            w = generic_atkin_lehner(N, d)
            total = fixed_points_X0(N, d).count + cuspidal_fixed_count(full, w)[0]
            involution_quotient_genus(g0, total)
            if total in (2 * g0 - 2, 2 * g0 + 2):
                cands.append((f"W_{d}", w, "atkin-lehner", total))
        tags = {"x0.involution-completeness"}
        extra = self.facts.get(f"x0.extra-involutions.{N}")
        if extra is not None:
            tags.add(extra.key)
            for mat in extra.as_matrices():
                for _, _, elliptic, cuspidal in _involution_counts(full, mat, g0):
                    cands.append((str(mat), mat, "explicit", elliptic + cuspidal))
        self._x0_memo[N] = cands, tuple(sorted(tags))
        return self._x0_memo[N]

    def _cusp_obstruction(self, delta: DeltaSubgroup, w: Mat2) -> str | None:
        """A rational cusp whose image cusp on X_0(N) has no rational cusp
        of X_Delta(N) above it; obstructs a Q-rational lift of ``w``."""
        N, table = delta.N, cusp_table(delta)
        table0 = cusp_table(_full(N))
        proj = table0.class_of(*table.lifts)
        rational = np.array([cls.is_rational for cls in table.classes])
        covered = np.zeros(len(table0.classes), dtype=bool)
        covered[proj] = True
        if not covered.all():
            raise CoverMismatch(
                f"no cusp of {curve_name(N, delta.label)} above a cusp of X_0({N})"
            )
        rational_above = np.zeros(len(table0.classes), dtype=bool)
        rational_above[proj[rational]] = True
        blocked = np.flatnonzero(rational & ~rational_above[table0.images(w)[proj]])
        if not blocked.size:
            return None
        rep = table.classes[blocked[0]].rep
        return (
            f"rational cusp ({rep[0]};{rep[1]}) maps to a cusp of "
            f"X_0({N}) with no rational cusp above it"
        )

    def _involution_elimination(self, delta: DeltaSubgroup, g: int) -> Evidence | None:
        """Exclude every possible image on X_0(N) of a bielliptic involution.

        For genus >= 6 a bielliptic involution of X_Delta(N) is unique and
        central, hence defined over Q and descending to X_0(N).  Its image
        is either trivial (the involution is a diamond) or a hyperelliptic/
        bielliptic involution of X_0(N).  Each X_0(N) candidate is excluded
        by the first of a field, cusp, count or lift argument that applies,
        and the rule is named after the last of these that some candidate
        needed.  The diamonds and the lift argument rest on the witness
        search: a candidate that normalizes Gamma_Delta(N) is a W_d that
        descends or a listed extra involution, so the search counted every
        one of its lifts and found none with 2g-2 fixed points, or the
        eliminations would not be reached.
        """
        if g < 6:
            return None
        N = delta.N
        cands, tags = self._x0_candidates(N)
        if cands is None:
            return None
        rules = ("field-of-definition", "cusp-rationality", "count-bound", "lift-conflict")
        details = ["no diamond involution attains 2g-2 fixed points"]
        last = 0
        for name, w, kind, total0 in cands:
            if kind == "atkin-lehner" and w.det == N and (k := delta.index) > 1:
                step, reason = 0, (
                    f"lifts are defined over a degree-{k} cyclotomic "
                    f"subfield, not over Q"
                )
            elif (cusp := self._cusp_obstruction(delta, w)) is not None:
                step, reason = 1, cusp
            elif 2 * g - 2 > delta.index * total0:
                step, reason = 2, (
                    f"2g-2 = {2 * g - 2} exceeds {delta.index}*{total0}, the "
                    f"maximum pulled back from X_0({N})"
                )
            elif not normalizes(w, delta):
                step, reason = 3, "does not normalize the congruence subgroup, so admits no lift"
            else:
                step, reason = 3, "no lift is an involution with 2g-2 fixed points"
            last = max(last, step)
            details.append(f"{name}: {reason}")
        return Evidence(rules[last], "; ".join(details), facts_used=tags)


# --------------------------------------------------------------------------
# module-level convenience API

_DEFAULT: Classifier | None = None


def _default_classifier() -> Classifier:
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Classifier(FactBook())
    return _DEFAULT


def classify_curve(N: int, delta) -> ClassificationRecord:
    """Classify one curve with the default (fact-enabled) classifier."""
    return _default_classifier().classify(N, delta)


def census(max_n: int = 131) -> tuple[ClassificationRecord, ...]:
    """Classify all intermediate curves at levels up to ``max_n``."""
    return _default_classifier().census(max_n)
