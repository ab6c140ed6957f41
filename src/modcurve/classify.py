"""Bielliptic/hyperelliptic classification of intermediate modular curves.

This module decides, for each intermediate curve X_Delta(N), whether the
curve is rational, elliptic, hyperelliptic, bielliptic, or none of these,
and what that means for its set of quadratic points.  Positive results are
certified by explicit involutions together with fixed-point counts; negative
results are certified by an explicit list of elimination rules:

* ``unramified-cover`` -- a Galois cover X -> Y (genus of Y at least 2,
  Y neither hyperelliptic nor of genus <= 1) must be totally unramified
  after dividing by a common bielliptic involution, forcing
  ``g - 1 == deg * (g_Y - 1)``; a mismatch excludes biellipticity
  (valid for genus >= 6, where a bielliptic involution is unique and
  central).
* ``castelnuovo`` -- the Castelnuovo-Severi inequality applied to the pair
  (cover of Y, hypothetical bielliptic map).
* ``cusp-rationality`` / ``count-bound`` / ``lift-conflict`` -- for genus
  >= 6 a bielliptic involution descends to a hyperelliptic or bielliptic
  involution of X_0(N) (or lies in the diamond group); each candidate
  involution of X_0(N) is excluded by a field-of-definition argument, by a
  rational cusp mapping to non-rational cusps, by a fixed-point count bound,
  or by inspecting all of its lifts.
* ``covered-by-non-bielliptic`` -- a Galois cover of a curve already known
  to be neither bielliptic nor subhyperelliptic (again for genus >= 6).
* ``curated-verdict`` -- literature results for three low-genus curves out
  of reach of the counting rules.

Counting fixed points of an automorphism of determinant m is done by two
independent routes, which must agree; tests cross-check them:

* route A, :func:`lift_fixed_points`, works above the fixed points z_j of
  the induced Atkin-Lehner involution W_m on X_0(N).  A point of the fibre
  over z_j, named by a diamond representative G, is fixed when
  w * G * adj(s) * adj(W_j) * adj(G) is m times an element of
  Gamma_Delta(N) for some s in the stabiliser of z_j.
* route B, :func:`coset_fixed_points`, works on the coset space.  Coset
  U_x holds a fixed point when U_x * E * adj(U_x) * adj(w) is m times an
  element of Gamma_Delta(N) for an elliptic element E of determinant m;
  the elements E are enumerated by trace and binary quadratic form.

Both test all rows at once with int64 numpy arithmetic modulo m*N, which
decides membership exactly (see ``_mul_mod``); m*N must stay below 2^31.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .atkinlehner import (
    NormalizerElement,
    automorphism_order,
    descends,
    diamond_matrix,
    fricke_field_degree,
    hat_W,
    normalizes,
)
from .congruence import _modulus, coset_action, cusp_table, genus, transversal
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
from .matrices import Mat2
from .qforms import FixedPointSet, QForm, fixed_points_X0, reduced_classes
from .zmodn import (
    DeltaSubgroup,
    delta_by_label,
    delta_from_elements,
    hall_divisors,
    subgroups_containing_minus1,
)

__all__ = [
    "ClassificationRecord",
    "Classifier",
    "Evidence",
    "LiftReport",
    "Witness",
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


def _signed(a: int, N: int) -> int:
    """Representative of ``a mod N`` in ``(-N/2, N/2]``."""
    a %= N
    return a if a <= N // 2 else a - N


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


# --------------------------------------------------------------------------
# matrix arithmetic modulo M = m*N, shared by both fixed-point routes
#
# Both routes ask whether an integer matrix P, a product of factors whose
# determinants multiply to m^2, equals m*gamma with gamma in Gamma_Delta(N).
# That holds exactly when every entry of P is divisible by m, P.c/m = 0
# (mod N) and P.a/m mod N lies in Delta (det gamma = 1 follows from the
# determinants of the factors), and all three conditions can be read off
# P mod M = m*N.  Entries stay at most M in absolute value and M is below
# congruence.MODULUS_LIMIT = 2^31, so a sum of two products fits in an int64.

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


@lru_cache(maxsize=None)
def _delta_mask(delta: DeltaSubgroup) -> np.ndarray:
    """Boolean mask of Delta inside Z/NZ."""
    mask = np.zeros(delta.N, dtype=bool)
    mask[list(delta.elements)] = True
    return mask


def _scaled_members(p, m: int, delta: DeltaSubgroup) -> np.ndarray:
    """Mask of the rows of ``p`` (residues mod m*N) that equal m*gamma with
    gamma in Gamma_Delta(N)."""
    a, b, c, d = p
    return (
        (c == 0) & (a % m == 0) & (b % m == 0) & (d % m == 0)
        & _delta_mask(delta)[a // m]
    )


# --------------------------------------------------------------------------
# fixed points, route A: lifting along X_Delta(N) -> X_0(N)


@dataclass(frozen=True)
class LiftReport:
    """Fixed points of an automorphism lying above an Atkin-Lehner
    involution of X_0(N), computed fibre by fibre.

    ``witnesses`` holds one ``(base_index, fibre_rep, conjugacy_witness)``
    triple per fixed point: the index of the base fixed point, the diamond
    representative of the fibre point, and the upper-left class (mod N,
    signed) of the group element realising the fixed-point equation.
    """

    N: int
    delta_label: str
    candidate_name: str
    base_count: int
    fixed_elliptic: int
    fixed_cuspidal: int
    witnesses: tuple[tuple[int, int, int], ...]

    @property
    def fixed_total(self) -> int:
        return self.fixed_elliptic + self.fixed_cuspidal


@lru_cache(maxsize=None)
def _fibre_reps(N: int, delta: DeltaSubgroup, extra_class: int | None) -> np.ndarray:
    """Coset representatives of ``<Delta, extra_class>`` inside the units.

    These index the fibre of X_Delta(N) -> X_0(N) over a point whose
    stabiliser has diamond part ``extra_class`` (``None`` for a free fibre).
    """
    gens = set(delta.elements)
    if extra_class is not None:
        gens.add(extra_class)
    return np.array(delta_from_elements(N, gens).coset_reps(), dtype=np.int64)


@lru_cache(maxsize=None)
def _diamond_columns(N: int) -> tuple[np.ndarray, ...]:
    """Entries (a, b, c, d) of the diamond matrices [a] as four columns
    indexed by a mod N (zero at non-units); every entry lies in [0, N]."""
    cols = np.zeros((4, N), dtype=np.int64)
    for a in range(1, N):
        if math.gcd(a, N) == 1:
            cols[:, a] = diamond_matrix(a, N).entries()
    return tuple(cols)


def lift_fixed_points(
    N: int,
    delta,
    candidate: Mat2 | NormalizerElement,
    base: FixedPointSet,
) -> LiftReport:
    """Count fixed points of ``candidate`` on X_Delta(N) above the fixed
    points of the Atkin-Lehner involution W_d on X_0(N).

    ``candidate`` must normalise Gamma_Delta(N) and lie in the coset
    ``Gamma_0(N) * W_d`` (determinant ``d == base.d``).  Each base fixed
    point z_j contributes one fibre; the fibre is indexed by diamond coset
    representatives modulo the stabiliser of z_j, and a fibre point is fixed
    exactly when a twisted conjugate of the candidate falls back into
    Gamma_Delta(N), allowing a correction by the stabiliser of z_j.

    The conjugates w * G * adj(s) * adj(W_j) * adj(G), for every base point
    j, correction s and fibre representative G, are evaluated modulo d*N in
    one pass; per (j, G) the first correction that hits gives the witness.
    """
    delta = _resolve(N, delta)
    w = candidate.matrix if isinstance(candidate, NormalizerElement) else candidate
    name = candidate.name if isinstance(candidate, NormalizerElement) else str(w)
    d = base.d
    if w.det != d:
        raise InputError(
            f"candidate determinant {w.det} does not match the operator W_{d}"
        )
    M = _modulus(d, N)
    w_res = _residues(w, M)
    if base.points:
        q = _mul_mod(w_res, _adj(_residues(base.points[0].matrix, M)), M)
        if not (all(e % d == 0 for e in q) and q[2] == 0):
            raise InputError(
                f"candidate {w} does not lie above the Atkin-Lehner operator W_{d}"
            )

    # One (j, s) pair per base point and correction, with the scalar
    # factor adj(s) * adj(W_j), and one row per pair and fibre representative.
    pair_j: list[int] = []
    pair_x: list[tuple[int, int, int, int]] = []
    row_pair: list[int] = []
    row_rep: list[np.ndarray] = []
    row_pos: list[int] = []
    for j, point in enumerate(base.points):
        if point.matrix.det != d:
            raise DeterminantMismatch(f"base point matrix {point.matrix} at W_{d}")
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
        reps = _fibre_reps(N, delta, extra)
        wj_adj = _adj(_residues(point.matrix, M))
        for s in corrections:
            row_pair.extend([len(pair_j)] * len(reps))
            row_rep.append(reps)
            row_pos.extend(range(len(reps)))
            pair_j.append(j)
            pair_x.append(_mul_mod(_adj(s), wj_adj, M))

    witnesses: list[tuple[int, int, int]] = []
    if pair_j:
        rows = np.array(row_pair, dtype=np.int64)
        rep = np.concatenate(row_rep)
        g = tuple(col[rep] for col in _diamond_columns(N))
        x = tuple(col[rows] for col in np.array(pair_x, dtype=np.int64).T)
        p = _mul_mod(_mul_mod(_mul_mod(w_res, g, M), x, M), _adj(g), M)
        first: dict[tuple[int, int], int] = {}
        for r in np.flatnonzero(_scaled_members(p, d, delta)).tolist():
            first.setdefault((pair_j[row_pair[r]], row_pos[r]), r)
        for key in sorted(first):
            r = first[key]
            witnesses.append((key[0], int(rep[r]), _signed(int(p[0][r]) // d, N)))

    cuspidal = cuspidal_fixed_count(N, delta, w)
    return LiftReport(
        N=N,
        delta_label=delta.label,
        candidate_name=name,
        base_count=base.count,
        fixed_elliptic=len(witnesses),
        fixed_cuspidal=cuspidal,
        witnesses=tuple(witnesses),
    )


# --------------------------------------------------------------------------
# fixed points, route B: elliptic elements in the coset, orbit by orbit


def coset_fixed_points(N: int, delta, w: Mat2) -> int:
    """Number of non-cuspidal fixed points of the automorphism induced by
    ``w`` on X_Delta(N), found directly on the coset space.

    A point U_x(z) is fixed exactly when some integral elliptic element of
    determinant ``det(w)`` fixing z lands in ``+-Gamma_Delta(N) * w`` after
    conjugation by the coset transversal matrix U_x.  Elliptic elements are
    enumerated by trace and by the primitive binary quadratic form of their
    fixed point; matches are grouped by form and counted up to the action of
    the stabiliser of the form's root, which identifies coset positions
    representing one and the same point.  Each element is tested against
    all cosets at once, modulo det(w)*N.
    """
    delta = _resolve(N, delta)
    m = w.det
    if m <= 0:
        raise InputError("automorphism matrix must have positive determinant")
    M = _modulus(m, N)
    act = coset_action(N, delta)
    trans = tuple(col % M for col in transversal(N, delta))
    # adj(U_x) * adj(w) does not depend on the elliptic element
    tail = _mul_mod(_adj(trans), _adj(_residues(w, M)), M)

    traces = {0}
    for c in (1, 2, 3):
        s = isqrt(c * m)
        if s * s == c * m and s * s < 4 * m:
            traces.add(s)

    matches: dict[QForm, set[int]] = {}
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
                p = _mul_mod(_mul_mod(trans, _residues(elem, M), M), tail, M)
                hits = np.flatnonzero(_scaled_members(p, m, delta))
                if hits.size:
                    matches.setdefault(form, set()).update(hits.tolist())

    count = 0
    for form, positions in matches.items():
        stab = _stabilizer_generator(form)
        if stab is None:
            count += len(positions)
            continue
        seen: set[int] = set()
        for x in sorted(positions):
            if x in seen:
                continue
            count += 1
            y = x
            while True:
                seen.add(y)
                y = act.act(y, stab)
                if y == x:
                    break
    return count


def cuspidal_fixed_count(N: int, delta, w: Mat2 | NormalizerElement) -> int:
    """Number of cusp classes of X_Delta(N) fixed by the automorphism
    induced by the normalising matrix ``w``."""
    delta = _resolve(N, delta)
    mat = w.matrix if isinstance(w, NormalizerElement) else w
    images = cusp_table(N, delta).images(mat)
    return int(np.count_nonzero(images == np.arange(len(images))))


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
            record = self._classify(N, delta)
        finally:
            self._in_progress.discard(key)
        self._memo[key] = record
        return record

    def scope_levels(self, max_n: int) -> tuple[int, ...]:
        """Levels whose intermediate curves can have infinitely many
        quadratic points: X_0(N) subhyperelliptic or bielliptic, with at
        least one intermediate subgroup.

        The X_0(N) classification used here delimits the survey and is read
        even when the fact book is disabled.
        """
        if max_n > 256:
            raise InputError("census is supported for levels up to 256")
        out = []
        for N in range(13, max_n + 1):
            if self._x0_type(N) is None:
                continue
            subs = subgroups_containing_minus1(N)
            if any(not s.is_minimal and not s.is_full for s in subs):
                out.append(N)
        return tuple(out)

    def census(self, max_n: int = 131) -> tuple[ClassificationRecord, ...]:
        """Classify every intermediate curve at every level in scope."""
        records = []
        for N in self.scope_levels(max_n):
            for sub in subgroups_containing_minus1(N):
                if sub.is_minimal or sub.is_full:
                    continue
                records.append(self.classify(N, sub))
        return tuple(records)

    # -- curated X_0(N) inventory -------------------------------------------

    def _x0_type(self, N: int) -> str | None:
        """Coarse type of X_0(N) from the complete literature lists, or
        ``None`` when X_0(N) is neither subhyperelliptic nor bielliptic.
        Used only to delimit the survey scope."""
        for key, label in (
            ("x0.rational", "rational"),
            ("x0.elliptic", "elliptic"),
            ("x0.hyperelliptic", "hyperelliptic"),
            ("x0.bielliptic", "bielliptic"),
        ):
            fact = self.facts.read_past_switch(key)
            if N in fact.as_levels():
                return label
        return None

    # -- main classification flow -------------------------------------------

    def _classify(self, N: int, delta: DeltaSubgroup) -> ClassificationRecord:
        g = genus(N, delta)
        label = delta.label
        warnings: list[str] = []
        if g == 0:
            return self._record(N, delta, g, "rational", None, (), (), (), "infinite", ())
        if g == 1:
            return self._record(N, delta, g, "elliptic", None, (), (), (), "infinite", ())

        biell, hyper, evidence = self._witness_search(N, delta, g)

        if hyper or g == 2:
            if g == 2 and not hyper:
                evidence = evidence + (
                    Evidence("genus-two", "every genus-2 curve is hyperelliptic"),
                )
            qp, qp_facts, qp_warn = "infinite", (), ()
            return self._record(
                N, delta, g, "hyperelliptic", bool(biell), biell, hyper,
                evidence, qp, qp_facts, warnings=qp_warn,
            )

        if biell:
            qp, qp_facts, qp_warn = self._quadratic_points_bielliptic(N)
            return self._record(
                N, delta, g, "bielliptic", True, biell, hyper, evidence,
                qp, qp_facts, warnings=qp_warn,
            )

        accola = self._accola_genus4(N, delta, g)
        if accola is not None:
            warnings.append(
                "bielliptic witness is an exceptional automorphism, "
                "not induced by a normalizer matrix"
            )
            qp, qp_facts, qp_warn = self._quadratic_points_bielliptic(N)
            return self._record(
                N, delta, g, "bielliptic", True, (), (), evidence + (accola,),
                qp, qp_facts, warnings=tuple(warnings) + qp_warn,
            )

        negative = self._eliminations(N, delta, g)
        evidence = evidence + negative
        if negative:
            qp, qp_facts, qp_warn = self._quadratic_points_not_bielliptic()
            return self._record(
                N, delta, g, "not-bielliptic", False, (), (), evidence,
                qp, qp_facts, warnings=qp_warn,
            )

        if not self.facts.enabled:
            warnings.append(
                "no decisive evidence with curated facts disabled; "
                "status downgraded to undecided"
            )
        else:
            warnings.append("no decisive evidence found")
        return self._record(
            N, delta, g, "undecided", None, (), (), evidence, "n/a", (),
            warnings=tuple(warnings),
        )

    def _record(
        self,
        N: int,
        delta: DeltaSubgroup,
        g: int,
        status: str,
        is_bielliptic: bool | None,
        biell: tuple[Witness, ...],
        hyper: tuple[Witness, ...],
        evidence: tuple[Evidence, ...],
        qp: str,
        qp_facts: tuple[str, ...] = (),
        warnings: tuple[str, ...] | list[str] = (),
    ) -> ClassificationRecord:
        facts_used = set(qp_facts)
        for ev in evidence:
            facts_used.update(ev.facts_used)
        return ClassificationRecord(
            N=N,
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
            warnings=tuple(warnings),
        )

    # -- quadratic points ---------------------------------------------------

    def _quadratic_points_bielliptic(self, N: int):
        if N == 37:
            fact = self.facts.get("n37.quadratic-finite")
            if fact is not None:
                return "finite", ("n37.quadratic-finite",), ()
        else:
            fact = self.facts.get("rank0")
            if fact is not None and N in fact.as_levels():
                return "finite", ("rank0",), ()
            if fact is not None:
                return (
                    "finite-conditional",
                    (),
                    (f"level {N} lacks curated rank data; "
                     "finiteness of quadratic points not certified",),
                )
        return (
            "finite-conditional",
            (),
            ("curated rank data disabled; finiteness of quadratic points "
             "reported conditionally",),
        )

    def _quadratic_points_not_bielliptic(self):
        fact = self.facts.get("intermediate.hyperelliptic")
        if fact is not None:
            return "finite", ("intermediate.hyperelliptic",), ()
        return (
            "finite-conditional",
            (),
            ("hyperellipticity cannot be excluded without the curated "
             "inventory; finiteness of quadratic points reported "
             "conditionally",),
        )

    # -- witness search -----------------------------------------------------

    def _al_reference(self, N: int, d: int, delta: DeltaSubgroup):
        """Reference matrix above W_d, its base fixed-point set, and its
        diamond offset against the normalised hat-lift (when one exists)."""
        base = fixed_points_X0(N, d)
        hat = hat_W(d, delta)
        if base.points:
            ref = base.points[0].matrix
        elif hat is not None:
            ref = hat.matrix
        else:
            ref = generic_atkin_lehner(N, d)
        offset = 1
        if hat is not None:
            q = ref * hat.matrix.adjugate()
            if not q.divisible_by(d):
                raise MembershipViolation(f"{ref} and {hat.matrix} lie above different W_{d}")
            offset = q.divided_by(d).a % N
        return ref, base, offset, hat is not None

    def _witness_candidates(self, N: int, delta: DeltaSubgroup):
        """All involution candidates tried on X_Delta(N), with names."""
        reps = delta.coset_reps()
        out: list[tuple[str, Mat2, str, FixedPointSet | None]] = []
        for b in reps:
            if b % N == 1 % N:
                continue
            if (b * b) % N in delta:
                out.append((f"[{b}]", diamond_matrix(b, N), "diamond", None))
        for d in hall_divisors(N):
            if d == 1 or not descends(d, delta):
                continue
            ref, base, offset, have_hat = self._al_reference(N, d, delta)
            for b in reps:
                mat = diamond_matrix(b, N) * ref if b != 1 else ref
                if have_hat:
                    cls = delta.coset_min(b * offset % N)
                    name = f"W^_{d}" if cls == 1 else f"[{cls}]W^_{d}"
                else:
                    name = f"[{b}]W_{d}" if b != 1 else f"W_{d}"
                out.append((name, mat, "atkin-lehner", base))
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
            if not normalizes(mat, delta):
                continue
            for b in reps:
                cand = diamond_matrix(b, N) * mat if b != 1 else mat
                name = str(mat) if b == 1 else f"[{b}]{mat}"
                out.append((name, cand, "explicit", None))
        return out

    def _witness_search(self, N: int, delta: DeltaSubgroup, g: int):
        """Verify all candidate involutions; sort them into bielliptic
        witnesses (2g-2 fixed points) and hyperelliptic witnesses (2g+2)."""
        biell: list[Witness] = []
        hyper: list[Witness] = []
        evidence: list[Evidence] = []
        for name, mat, kind, base in self._witness_candidates(N, delta):
            order = automorphism_order(mat, delta)
            if order != 2:
                continue
            if kind == "atkin-lehner" and base is not None:
                report = lift_fixed_points(N, delta, mat, base)
                elliptic, cuspidal = report.fixed_elliptic, report.fixed_cuspidal
            else:
                elliptic = coset_fixed_points(N, delta, mat)
                cuspidal = cuspidal_fixed_count(N, delta, mat)
            total = elliptic + cuspidal
            involution_quotient_genus(g, total)  # parity invariant
            if total == 2 * g - 2:
                if kind == "atkin-lehner" and mat.det == N and g > 5:
                    if fricke_field_degree(delta) != 1:
                        raise FieldDegreeMismatch(
                            f"bielliptic {name} on genus {g} is not defined over Q"
                        )
                witness = Witness(name, mat, kind, elliptic, cuspidal)
                biell.append(witness)
                evidence.append(Evidence(
                    "bielliptic-witness",
                    f"{name} is an involution with {total} = 2g-2 fixed points",
                ))
            elif total == 2 * g + 2:
                witness = Witness(name, mat, kind, elliptic, cuspidal)
                hyper.append(witness)
                evidence.append(Evidence(
                    "hyperelliptic-witness",
                    f"{name} is an involution with {total} = 2g+2 fixed points",
                ))
        return tuple(biell), tuple(hyper), tuple(evidence)

    # -- Accola certificates ------------------------------------------------

    def _accola_genus4(self, N: int, delta: DeltaSubgroup, g: int) -> Evidence | None:
        """Genus-4 curve with an unramified cyclic degree-3 cover of a
        genus-2 curve is bielliptic (Accola); the cover is found among the
        diamond quotients, so the certificate is machine-checkable."""
        if g != 4:
            return None
        for sub in subgroups_containing_minus1(N):
            if len(sub.elements) != 3 * len(delta.elements):
                continue
            if not set(delta.elements) <= set(sub.elements):
                continue
            gy = genus(N, sub)
            if gy != 2:
                continue
            # Riemann-Hurwitz: 2*4-2 == 3*(2*2-2) + ram forces ram == 0.
            return Evidence(
                "accola-genus4",
                f"unramified cyclic degree-3 cover of genus-2 "
                f"{curve_name(N, sub.label)}: genus-4 curve is bielliptic",
                target=(N, sub.label),
                degree=3,
            )
        return None

    # -- cover enumeration --------------------------------------------------

    def _covers(self, N: int, delta: DeltaSubgroup):
        """Covers X_Delta(N) -> X_Delta''(M): diamond quotients at level N
        (always Galois) and level-lowering maps (Galois when of degree 2)."""
        out: list[tuple[int, str, int, bool]] = []
        deg_self = coset_action(N, delta).degree
        for sub in subgroups_containing_minus1(N):
            if len(sub.elements) <= len(delta.elements):
                continue
            if not set(delta.elements) <= set(sub.elements):
                continue
            deg = len(sub.elements) // len(delta.elements)
            out.append((N, sub.label, deg, True))
        for M in range(7, N):
            if N % M:
                continue
            image = delta_from_elements(M, {a % M for a in delta.elements} | {M - 1})
            for sub in subgroups_containing_minus1(M):
                if not set(image.elements) <= set(sub.elements):
                    continue
                deg, rem = divmod(deg_self, coset_action(M, sub).degree)
                if rem:
                    raise CoverMismatch(
                        f"index of {curve_name(M, sub.label)} does not divide "
                        f"that of {curve_name(N, delta.label)}"
                    )
                out.append((M, sub.label, deg, deg == 2))
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

    def _eliminations(self, N: int, delta: DeltaSubgroup, g: int) -> tuple[Evidence, ...]:
        out: list[Evidence] = []
        covers = self._covers(N, delta)

        for M, label2, deg, galois in covers:
            target = self.classify(M, label2)
            gy = target.genus

            if g >= 6 and galois and gy >= 2:
                ok, tags = self._not_subhyperelliptic(target)
                if ok and g - 1 != deg * (gy - 1):
                    out.append(Evidence(
                        "unramified-cover",
                        f"g-1 = {g - 1} != {deg}*({gy}-1): the degree-{deg} "
                        f"Galois cover of {curve_name(M, label2)} admits no "
                        f"totally unramified descent of a bielliptic quotient",
                        target=(M, label2),
                        degree=deg,
                        facts_used=tags,
                    ))

            applicable = deg % 2 == 1 or (deg == 2 and gy >= 2)
            if applicable:
                bound = castelnuovo_bound(deg, gy, 2, 1)
                if g > bound:
                    out.append(Evidence(
                        "castelnuovo",
                        f"genus {g} exceeds the Castelnuovo-Severi bound "
                        f"{bound} for a degree-{deg} map to "
                        f"{curve_name(M, label2)} (genus {gy}) together with "
                        f"a bielliptic map",
                        target=(M, label2),
                        degree=deg,
                    ))

            if g >= 6 and galois and target.status == "not-bielliptic":
                ok, tags = self._not_subhyperelliptic(target)
                if ok:
                    out.append(Evidence(
                        "covered-by-non-bielliptic",
                        f"degree-{deg} Galois cover of {curve_name(M, label2)}, "
                        f"which is neither bielliptic nor subhyperelliptic",
                        target=(M, label2),
                        degree=deg,
                        facts_used=tuple(sorted(set(tags) | set(target.facts_used))),
                    ))

        ev = self._involution_elimination(N, delta, g)
        if ev is not None:
            out.append(ev)

        fact = self.facts.get(f"verdict.{N}.{delta.label}")
        if fact is not None and fact.value == "not-bielliptic":
            out.append(Evidence(
                "curated-verdict",
                f"curated: {fact.citation}",
                facts_used=(fact.key,),
            ))
        return tuple(out)

    # -- candidate involutions of X_0(N) ------------------------------------

    def _x0_candidates(self, N: int):
        """Hyperelliptic/bielliptic involution candidates on X_0(N) with a
        completeness guarantee, or ``None`` when facts are disabled."""
        completeness = self.facts.get("x0.involution-completeness")
        if completeness is None:
            return None, ()
        g0 = genus(N, _full(N))
        cands: list[tuple[str, Mat2, str]] = []
        for d in hall_divisors(N):
            if d == 1:
                continue
            w = generic_atkin_lehner(N, d)
            total = fixed_points_X0(N, d).count + cuspidal_fixed_count(N, "0", w)
            if total in (2 * g0 - 2, 2 * g0 + 2):
                cands.append((f"W_{d}", w, "atkin-lehner"))
        tags = {"x0.involution-completeness"}
        extra = self.facts.get(f"x0.extra-involutions.{N}")
        if extra is not None:
            tags.add(extra.key)
            for mat in extra.as_matrices():
                cands.append((str(mat), mat, "explicit"))
        return cands, tuple(sorted(tags))

    def _cusp_obstruction(self, N: int, delta: DeltaSubgroup, w: Mat2) -> str | None:
        """A rational cusp whose image cusp on X_0(N) has no rational cusp
        of X_Delta(N) above it; obstructs a Q-rational lift of ``w``."""
        table = cusp_table(N, delta)
        table0 = cusp_table(N, _full(N))
        proj = [table0.class_of(*cls.rep) for cls in table.classes]
        images = table0.images(w)
        for i, cls in enumerate(table.classes):
            if not cls.is_rational:
                continue
            image = images[proj[i]]
            fibre = [j for j, pj in enumerate(proj) if pj == image]
            if not fibre:
                raise CoverMismatch(
                    f"no cusp of {curve_name(N, delta.label)} above a cusp of X_0({N})"
                )
            if all(not table.classes[j].is_rational for j in fibre):
                rep = cls.rep
                return (
                    f"rational cusp ({rep[0]};{rep[1]}) maps to a cusp of "
                    f"X_0({N}) with no rational cusp above it"
                )
        return None

    def _involution_elimination(
        self, N: int, delta: DeltaSubgroup, g: int
    ) -> Evidence | None:
        """Exclude every possible image on X_0(N) of a bielliptic involution.

        For genus >= 6 a bielliptic involution of X_Delta(N) is unique and
        central, hence defined over Q and descending to X_0(N).  Its image
        is either trivial (the involution is a diamond) or a hyperelliptic/
        bielliptic involution of X_0(N).  Diamonds are ruled out by the
        witness search; each X_0(N) candidate is excluded by a field,
        cusp, count or lift argument.
        """
        if g < 6:
            return None
        cands, tags = self._x0_candidates(N)
        if cands is None:
            return None
        deg = delta.index
        # The witness search counted every diamond involution and found none
        # with 2g-2 fixed points, or the eliminations would not be reached.
        details = ["no diamond involution attains 2g-2 fixed points"]
        fired: set[str] = set()
        for name, w, kind in cands:
            reason = None
            if kind == "atkin-lehner" and w.det == N:
                k = fricke_field_degree(delta)
                if k > 1:
                    reason = (
                        f"lifts are defined over a degree-{k} cyclotomic "
                        f"subfield, not over Q"
                    )
                    fired.add("field")
            if reason is None:
                cusp = self._cusp_obstruction(N, delta, w)
                if cusp is not None:
                    reason = cusp
                    fired.add("cusp")
            if reason is None:
                if kind == "atkin-lehner":
                    total0 = fixed_points_X0(N, w.det).count
                else:
                    total0 = coset_fixed_points(N, "0", w)
                total0 += cuspidal_fixed_count(N, "0", w)
                if 2 * g - 2 > deg * total0:
                    reason = (
                        f"2g-2 = {2 * g - 2} exceeds {deg}*{total0}, the "
                        f"maximum pulled back from X_0({N})"
                    )
                    fired.add("count")
            if reason is None:
                if not normalizes(w, delta):
                    reason = "does not normalize the congruence subgroup, so admits no lift"
                    fired.add("lift")
                else:
                    good_lift = False
                    for b in delta.coset_reps():
                        lift = diamond_matrix(b, N) * w if b != 1 else w
                        if automorphism_order(lift, delta) != 2:
                            continue
                        total = coset_fixed_points(N, delta, lift)
                        total += cuspidal_fixed_count(N, delta, lift)
                        involution_quotient_genus(g, total)
                        if total == 2 * g - 2:
                            good_lift = True
                            break
                    if not good_lift:
                        reason = "no lift is an involution with 2g-2 fixed points"
                        fired.add("lift")
            if reason is None:
                return None
            details.append(f"{name}: {reason}")
        if "lift" in fired:
            rule = "lift-conflict"
        elif "count" in fired:
            rule = "count-bound"
        elif "cusp" in fired:
            rule = "cusp-rationality"
        else:
            rule = "field-of-definition"
        return Evidence(rule, "; ".join(details), facts_used=tags)


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
