"""Exact Chern-class and Riemann-Roch arithmetic on smooth hypersurfaces in P^4.

Everything is exact and integer: each formula builds one integer numerator
over a fixed common denominator (24 for chi and the general genus, 2 for the
quartic genus, 2 and 6 for twisting), and ``fractions.Fraction`` appears only
at the API boundary; no floating point anywhere.  Values that must be
integers pass through an exact ``divmod`` that raises :class:`NonIntegral`
on a remainder, so a coefficient typo still fails loudly.  A rank-k
vector bundle on a degree-r hypersurface X is reduced to the integer
quadruple (k; c1, c2, c3) via the usual degree identifications: c1(E) is
c1 times the hyperplane class, c2(E) has degree c2, and c3(E) is c3 points.

All operations are pure functions on immutable values.  The records are
named tuples: each compares, hashes, orders and unpacks as its plain tuple.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

__all__ = [
    "DomainError",
    "NonIntegral",
    "HypersurfaceContext",
    "BundleInvariants",
    "chi_line_bundle",
    "chi_bundle",
    "twist",
    "genus_general",
    "genus_r4",
]

class DomainError(ValueError):
    """Raised when an input lies outside an operation's mathematical domain."""


class NonIntegral(DomainError):
    """An exact value that had to be an integer turned out fractional.

    Carries the offending value in ``value``.  When raised on a quantity
    that is provably integral this signals a coefficient transcription bug,
    not bad user input.
    """

    def __init__(self, value: Fraction, context: str):
        self.value = value
        super().__init__(f"{context}: expected an integer, got {value}")


def _record(name: str, fields: str) -> type:
    """A named-tuple base whose ``_make``, and so ``_replace``, calls the
    subclass's constructor and with it the subclass's check."""
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class HypersurfaceContext(_record("HypersurfaceContext", "r")):
    """The ambient datum: a smooth degree-r hypersurface X in P^4, r >= 1."""

    __slots__ = ()

    def __new__(cls, r: int) -> HypersurfaceContext:
        if r < 1:
            raise DomainError(f"hypersurface degree must be >= 1, got {r}")
        return tuple.__new__(cls, (r,))


class BundleInvariants(_record("BundleInvariants", "k c1 c2 c3")):
    """The quadruple (k; c1, c2, c3) attached to a rank-k bundle.

    Only k >= 1 is enforced; c1, c2, c3 are raw integers.  Rank-1 bundles
    O(a) carry no (c2, c3) convention here and are evaluated through
    :func:`chi_line_bundle`, never through :func:`chi_bundle`.
    """

    __slots__ = ()

    def __new__(cls, k: int, c1: int, c2: int, c3: int) -> BundleInvariants:
        if k < 1:
            raise DomainError(f"rank must be >= 1, got {k}")
        return tuple.__new__(cls, (k, c1, c2, c3))

    def __str__(self) -> str:
        return "({};{},{},{})".format(*self)


def _divide_exact(numerator: int, denominator: int, context: str) -> int:
    # the integer guard: numerator / denominator, which must be exact
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise NonIntegral(Fraction(numerator, denominator), context)
    return quotient


def chi_line_bundle(ctx: HypersurfaceContext, a: int) -> Fraction:
    """Euler characteristic of O_X(a) on the degree-r hypersurface X:

    chi(O_X(a)) = (r/6) a^3 + (r(5-r)/4) a^2
                + (r/12) ((r-5)^2 + (r^2-5r+10)) a
                + (r/24) (5-r) (r^2-5r+10)

    The value is an integer for every integer a; it is returned as an exact
    fraction, as :func:`chi_bundle` returns its value.
    """
    r = ctx.r
    # 24 chi in Horner form in a, with (r-5)^2 + (r^2-5r+10) = 2r^2 - 15r + 35
    return Fraction(
        2 * r * a * (a * (2 * a + 3 * (5 - r)) + 2 * r * r - 15 * r + 35)
        + r * (5 - r) * (r * r - 5 * r + 10),
        24,
    )


def chi_bundle(ctx: HypersurfaceContext, inv: BundleInvariants) -> Fraction:
    """Euler characteristic of a rank-k bundle with invariants (k; c1, c2, c3):

    chi(E) = (r/6) c1^3 - (1/2) c1 c2 + (1/2) c3 + (r(5-r)/4) c1^2
           - ((5-r)/2) c2 + (r/12) ((r-5)^2 + (r^2-5r+10)) c1
           + (r k/24) (5-r) (r^2-5r+10)
    """
    r = ctx.r
    k, c1, c2, c3 = inv
    # 24 chi, its c1-only terms in Horner form as in chi_line_bundle
    return Fraction(
        2 * r * c1 * (c1 * (2 * c1 + 3 * (5 - r)) + 2 * r * r - 15 * r + 35)
        - 12 * ((c1 + 5 - r) * c2 - c3) + r * k * (5 - r) * (r * r - 5 * r + 10),
        24,
    )


def twist(ctx: HypersurfaceContext, inv: BundleInvariants, n: int) -> BundleInvariants:
    """Invariants of the twist E(n) = E tensor O_X(n):

    c1 -> c1 + k n
    c2 -> c2 + r n (k-1) (c1 + n k / 2)
    c3 -> c3 + (k-2) n (c2 + (k-1) n r c1 / 2 + r n^2 k (k-1) / 6)

    Both fractional-looking terms are integral for every integer input; the
    exact division by 2 and by 6 stays in as a guard against coefficient
    typos.
    """
    k, c1, c2, c3 = inv
    nk = n * k
    step = ctx.r * n * (k - 1)  # r n (k-1), a factor of both numerators
    new_c2 = _divide_exact(2 * c2 + step * (2 * c1 + nk), 2, "twisted c2")
    new_c3 = _divide_exact(6 * c3 + (k - 2) * n * (6 * c2 + step * (3 * c1 + nk)),
                           6, "twisted c3")
    return BundleInvariants(k, c1 + nk, new_c2, new_c3)


def genus_general(ctx: HypersurfaceContext, inv: BundleInvariants) -> Fraction:
    """Arithmetic genus of the dependency-locus curve of a rank-k bundle, k >= 2:

    g = -(5/2) c2 + (1/2) c1 c2 + (1/2) c3 + (25/12) r + (r/2) c2
      - (35/24) r^2 + (5/12) r^3 - (1/24) r^4

    At r = 4 the constant block collapses to 1 and this agrees with
    :func:`genus_r4`.
    """
    k, c1, c2, c3 = inv
    if k < 2:
        raise DomainError(f"genus needs a bundle of rank >= 2, got rank {k}")
    r = ctx.r
    return Fraction(
        -60 * c2 + 12 * c1 * c2 + 12 * c3 + 50 * r + 12 * r * c2
        - 35 * r * r + 10 * r**3 - r**4,
        24,
    )


def genus_r4(inv: BundleInvariants) -> Fraction:
    """Quartic-hypersurface genus: g = 1 + (c1 c2 - c2 + c3) / 2."""
    _, c1, c2, c3 = inv
    return Fraction(c1 * c2 - c2 + c3 + 2, 2)
