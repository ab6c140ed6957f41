"""Exact 2x2 integer matrices.

``Mat2`` uses arbitrary-precision Python ints: powers of normalizer
elements overflow 64-bit words long before the order search cap is
reached, so it avoids numpy dtypes.  The fixed-point counting routes of
``classify`` are the one place with int64 matrix arithmetic, and only on
residues modulo m*N < 2^31, where a sum of two products cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Mat2", "IDENTITY", "S_MAT", "T_MAT"]


@dataclass(frozen=True)
class Mat2:
    """The integer matrix [[a, b], [c, d]]."""

    a: int
    b: int
    c: int
    d: int

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> int:
        return self.a + self.d

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def adjugate(self) -> "Mat2":
        """The adjugate [[d, -b], [-c, a]]; self * adjugate == det * I."""
        return Mat2(self.d, -self.b, -self.c, self.a)

    def __pow__(self, k: int) -> "Mat2":
        assert k >= 0
        out, base = IDENTITY, self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def divisible_by(self, s: int) -> bool:
        return all(x % s == 0 for x in (self.a, self.b, self.c, self.d))

    def divided_by(self, s: int) -> "Mat2":
        assert self.divisible_by(s), (self, s)
        return Mat2(self.a // s, self.b // s, self.c // s, self.d // s)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def apply_to_column(self, x: int, y: int) -> tuple[int, int]:
        """Left action on the column vector (x; y)."""
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


IDENTITY = Mat2(1, 0, 0, 1)
#: Order-4 elliptic generator of SL2(Z): z -> -1/z.
S_MAT = Mat2(0, -1, 1, 0)
#: Translation z -> z + 1.
T_MAT = Mat2(1, 1, 0, 1)
