"""Diamond operators, Atkin-Lehner lifts, and the normalizer machinery.

For a Hall divisor d of N (gcd(d, N/d) = 1), the Atkin-Lehner operator W_d
acts on X_0(N); it lifts to an intermediate curve exactly when the unit
automorphism t_d (CRT-mix of a mod N/d with a^{-1} mod d) preserves Delta.
The concrete lift hat_W_d is built from a solution of a quadratic congruence
and normalizes Gamma_Delta(N); diamonds [a] always do.

Whether an arbitrary integer matrix normalizes Gamma_Delta(N) is decided on
|Delta| + 2 elements: T = [[1,1],[0,1]], [[1,0],[N,1]] and the diamonds [a]
for a in Delta, which generate Gamma_Delta(N) modulo m*N (m the
determinant); see :func:`normalizes`.
"""

from __future__ import annotations

import math

from .congruence import is_member
from .errors import (
    DeterminantMismatch,
    DoesNotDescend,
    InputError,
    NotCoprime,
)
from .matrices import Mat2, T_MAT
from .qforms import _require_hall
from .zmodn import DeltaSubgroup, crt, delta_from_elements, is_hall_divisor

__all__ = [
    "diamond_matrix",
    "t_map",
    "t_image",
    "descends",
    "hat_W",
    "normalizes",
    "automorphism_order",
    "ORDER_CAP",
]

#: automorphism_order gives up past this power and returns None.
ORDER_CAP = 24


def diamond_matrix(a: int, N: int) -> Mat2:
    """The diamond bracket [a]: a matrix [[a', b], [N, d']] in SL2(Z) with
    a' = a (mod N)."""
    if math.gcd(a, N) != 1:
        raise NotCoprime(f"{a} is not a unit modulo {N}")
    a %= N
    d = pow(a, -1, N)
    b = (a * d - 1) // N
    m = Mat2(a, b, N, d)
    if m.det != 1:
        raise DeterminantMismatch(f"diamond matrix {m} should have determinant 1")
    return m


# ---------------------------------------------------------------------------
# the t_d unit map and descent


def _t_images(N: int, d: int, elements) -> list[int]:
    """t_d of every unit in ``elements``, for a Hall divisor d of N
    (checked), as a*e + a^{-1}*(1 - e) mod N with e = 1 mod N/d, 0 mod d."""
    if not is_hall_divisor(d, N):
        raise InputError(f"d={d} is not a Hall divisor of N={N}")
    e = crt(1, N // d, 0, d)
    return [(a * e + pow(a, -1, N) * (1 - e)) % N for a in elements]


def t_map(N: int, d: int, a: int) -> int:
    """t_d(a): the unit congruent to a mod N/d and to a^{-1} mod d."""
    if math.gcd(a, N) != 1:
        raise NotCoprime(f"{a} is not a unit modulo {N}")
    return _t_images(N, d, [a])[0]


def t_image(d: int, delta: DeltaSubgroup) -> DeltaSubgroup:
    """The subgroup t_d(Delta), with its canonical label."""
    return delta_from_elements(delta.N, _t_images(delta.N, d, delta.elements))


def descends(d: int, delta: DeltaSubgroup) -> bool:
    """True when W_d induces an automorphism of the curve X_Delta(N),
    i.e. t_d(Delta) = Delta.  Symmetric in d <-> N/d."""
    return set(_t_images(delta.N, d, delta.elements)) == set(delta.elements)


# ---------------------------------------------------------------------------
# Atkin-Lehner lifts


def hat_W(d: int, delta: DeltaSubgroup) -> Mat2 | None:
    """The preferred Atkin-Lehner lift hat_W_d on the curve X_Delta(N).

    Raises :class:`DoesNotDescend` when t_d does not preserve Delta.  When
    it does, returns :func:`_hat_matrix` of N and d: the standard matrix,
    or None when the defining congruence has no solution (the operator
    still descends but has no matrix of this shape; no fixed points arise
    from this construction).
    """
    N = delta.N
    _require_hall(N, d)
    if not descends(d, delta):
        raise DoesNotDescend(f"W_{d} does not descend to (N={N}, {delta.label})")
    return _hat_matrix(N, d)


def _hat_matrix(N: int, d: int) -> Mat2 | None:
    """The matrix of hat_W_d at level N, for a Hall divisor d >= 2 of N,
    or None.  It depends on N and d alone; whether W_d descends to a given
    Delta is for the caller to establish (see :func:`hat_W`).

    * d not in {2, 3}: x0 minimal with -d*x0^2 = 1 (mod N/d), giving
      [[d*x0, y0], [N, -d*x0]] of determinant d (for d = N this is
      [[0, -1], [N, 0]]).
    * d in {2, 3}: scan t in (0, 1, -1) for x0 with d*x0*(t-x0) = 1
      (mod N/d), giving [[d*x0, y0], [N, d*(t-x0)]].
    """
    M = N // d
    if d not in (2, 3):
        for x0 in range(M if M > 1 else 1):
            if (-d * x0 * x0 - 1) % M == 0 if M > 1 else x0 == 0:
                y0 = (-d * x0 * x0 - 1) // M
                w = Mat2(d * x0, y0, N, -d * x0)
                if w.det != d:
                    raise DeterminantMismatch(f"{w} should have determinant {d}")
                return w
        return None
    for t in (0, 1, -1):
        for x0 in range(M):
            if (d * x0 * (t - x0) - 1) % M == 0:
                y0 = (d * d * x0 * (t - x0) - d) // N
                w = Mat2(d * x0, y0, N, d * (t - x0))
                if w.det != d or w.trace != d * t:
                    raise DeterminantMismatch(
                        f"{w} should have determinant {d} and trace {d * t}"
                    )
                return w
    return None


# ---------------------------------------------------------------------------
# normalizer verification and orders


def normalizes(matrix: Mat2, delta: DeltaSubgroup) -> bool:
    """True when matrix * Gamma_Delta(N) * matrix^{-1} = Gamma_Delta(N).

    With w the matrix, m = det(w) >= 1 and adj the adjugate, w normalizes
    exactly when w*g*adj(w) is divisible by m with quotient in
    Gamma_Delta(N) for every g in {T, [[1,0],[N,1]]} and every diamond [a],
    a in Delta.  Proof:

    1. The gamma in SL2(Z) that pass this test form the group
       SL2(Z) intersected with w^-1 Gamma_Delta(N) w.  It contains
       Gamma(m*N): for gamma = 1 + m*N*X the quotient is 1 + N*w*X*adj(w).
       So the test depends only on gamma mod m*N.
    2. Modulo M = m*N those |Delta| + 2 elements generate the image of
       Gamma_Delta(N).  Take gamma = [[a, b], [c, d]] in that image.
       Right-multiplying by a power of [[1,0],[N,1]] makes a a unit mod M:
       for each prime p | M not dividing N, at most one residue of the
       exponent mod p fails.  Then gamma = L * diag(a, a^-1) * U, where L
       is lower unitriangular with lower-left entry c/a = 0 (mod N), so a
       power of [[1,0],[N,1]], and U is a power of T.  The diamond [a mod N]
       leaves diag(a, a^-1) * [a]^-1 in the image of Gamma_1(N).  By the
       same factorisation that image is generated by T, [[1,0],[N,1]] and
       the diag(u, u^-1) with u = 1 (mod N), and these lie in
       <T, [[1,0],[N,1]]> because [[u,1],[u-1,1]] = T * [[1,0],[u-1,1]].
    3. One-sided containment suffices because conjugation preserves the
       index in SL2(Z).
    """
    N = delta.N
    m = matrix.det
    if m < 1:
        return False
    adj = matrix.adjugate()
    generators = [T_MAT, Mat2(1, 0, N, 1)]
    generators += [diamond_matrix(a, N) for a in delta.elements]
    for gen in generators:
        conj = matrix * gen * adj
        if not conj.divisible_by(m):
            return False
        if not is_member(conj.divided_by(m), delta):
            return False
    return True


def automorphism_order(w: Mat2, delta: DeltaSubgroup) -> int | None:
    """Order of the automorphism induced by w, or None past ``ORDER_CAP``.

    w^k induces the identity exactly when w^k is a scalar multiple of a
    member of Gamma_Delta(N): det(w^k) = s^2, s | w^k entrywise, and
    w^k / s passes membership.
    """
    power = w
    for k in range(1, ORDER_CAP + 1):
        det = power.det
        s = math.isqrt(det)
        if s * s == det and power.divisible_by(s) and is_member(power.divided_by(s), delta):
            return k
        power = power * w
    return None

