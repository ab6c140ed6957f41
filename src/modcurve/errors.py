"""Exception taxonomy for the modcurve package.

Errors split into two families:

* input errors (:class:`InputError` subclasses) -- the caller asked for
  something malformed or out of range; the CLI maps these to exit code 2.
* invariant errors (:class:`InvariantError` subclasses) -- an internal
  consistency check failed, which indicates a bug or an unexpected
  mathematical situation; the CLI maps these to exit code 3.
"""

from __future__ import annotations


class ModcurveError(Exception):
    """Base class for every error raised by this package."""


class InputError(ModcurveError):
    """Caller-supplied data is malformed or out of the supported range."""


class InvariantError(ModcurveError):
    """An internal mathematical invariant failed to hold."""


# ---------------------------------------------------------------------------
# input errors


class NotCoprime(InputError):
    """A residue was required to be a unit modulo N but is not."""


class UnknownDelta(InputError):
    """A subgroup selector did not match any enumerated subgroup."""


class DoesNotDescend(InputError):
    """The Atkin-Lehner operator W_d does not normalize the requested group."""


class NotPositiveDefinite(InputError):
    """A binary quadratic form was required to be positive definite."""


class BadDiscriminant(InputError):
    """A discriminant must be negative and congruent to 0 or 1 mod 4."""


class NotUnimodular(InputError):
    """A pair mod N was required to satisfy gcd(x, y, N) = 1 but does not."""


class NotDivisible(InputError):
    """A matrix was divided by a scalar that does not divide every entry."""


# ---------------------------------------------------------------------------
# invariant errors


class NonIntegralGenus(InvariantError):
    """The genus formula produced a non-integer; the coset action is corrupt."""


class GenusMismatch(InvariantError):
    """The degree or genus read from the coset action disagrees with the counting formulas."""


class CuspCountMismatch(InvariantError):
    """Cusp orbit enumeration disagrees with the sigma_T cycle count."""


class ParityViolation(InvariantError):
    """A fixed-point count violated the parity forced by Riemann-Hurwitz."""


class DeterminantMismatch(InvariantError):
    """A matrix built to have a given determinant or trace does not."""


class MembershipViolation(InvariantError):
    """A matrix that must lie in Gamma_Delta(N) (or a fixed coset of it) does not."""


class FieldDegreeMismatch(InvariantError):
    """Two routes to the degree of a field of definition disagree."""


class CoverMismatch(InvariantError):
    """A covering map has a non-integral degree or an empty cusp fibre."""


class FormMismatch(InvariantError):
    """A reduced or representative quadratic form breaks its defining conditions."""


class MalformedSubgroup(InvariantError):
    """A unit group or Delta was built empty, unsorted, with repeats or without -1."""


class SearchExhausted(InvariantError):
    """A bounded representative search hit its cap without success."""
