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

All operations are pure functions on immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Rational",
    "DomainError",
    "NonIntegral",
    "HypersurfaceContext",
    "BundleInvariants",
    "CurveInvariants",
    "require_integer",
    "chi_line_bundle",
    "chi_bundle",
    "twist",
    "genus_general",
    "genus_r4",
]

# Exact fraction type used throughout: always lowest terms with a positive
# denominator, exact +,-,*,/ and ZeroDivisionError on zero denominators.
Rational = Fraction


class DomainError(ValueError):
    """Raised when an input lies outside an operation's mathematical domain."""


class NonIntegral(DomainError):
    """An exact value that had to be an integer turned out fractional.

    Carries the offending value in ``value``.  When raised on a quantity
    that is provably integral this signals a coefficient transcription bug,
    not bad user input.
    """

    def __init__(self, value: Fraction, context: str | None = None):
        self.value = value
        message = f"expected an integer, got {value}"
        if context:
            message = f"{context}: {message}"
        super().__init__(message)


def require_integer(x: Rational | int, context: str | None = None) -> int:
    """Return ``x`` as an int, raising :class:`NonIntegral` if it is not one."""
    frac = Fraction(x)
    if frac.denominator != 1:
        raise NonIntegral(frac, context)
    return int(frac)


@dataclass(frozen=True)
class HypersurfaceContext:
    """The ambient datum: a smooth degree-r hypersurface X in P^4, r >= 1."""

    r: int

    def __post_init__(self) -> None:
        if self.r < 1:
            raise DomainError(f"hypersurface degree must be >= 1, got {self.r}")

    def canonical_coefficient(self) -> int:
        """Coefficient of the hyperplane class in the canonical divisor: r - 5."""
        return self.r - 5

    def hyperplane_cube(self) -> int:
        """Triple self-intersection of the hyperplane class, in points: r."""
        return self.r


@dataclass(frozen=True)
class BundleInvariants:
    """The quadruple (k; c1, c2, c3) attached to a rank-k bundle.

    Only k >= 1 is enforced; c1, c2, c3 are raw integers.  Rank-1 bundles
    O(a) carry no (c2, c3) convention here and are evaluated through
    :func:`chi_line_bundle`, never through :func:`chi_bundle`.
    """

    k: int
    c1: int
    c2: int
    c3: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise DomainError(f"rank must be >= 1, got {self.k}")

    def quadruple(self) -> tuple[int, int, int, int]:
        return (self.k, self.c1, self.c2, self.c3)

    def __str__(self) -> str:
        return f"({self.k};{self.c1},{self.c2},{self.c3})"


@dataclass(frozen=True)
class CurveInvariants:
    """Degree and arithmetic genus of a curve inside the hypersurface."""

    degree: int
    genus: int

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise DomainError(f"curve degree must be >= 1, got {self.degree}")


def _theta(r: int) -> int:
    # coefficient (r-5)^2 + (r^2 - 5r + 10) shared by both chi formulas
    return (r - 5) ** 2 + (r * r - 5 * r + 10)


def _divide_exact(numerator: int, denominator: int, context: str) -> int:
    # the integer guard: numerator / denominator, which must be exact
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise NonIntegral(Fraction(numerator, denominator), context)
    return quotient


def chi_line_bundle(ctx: HypersurfaceContext, a: int) -> Rational:
    """Euler characteristic of O_X(a) on the degree-r hypersurface X:

    chi(O_X(a)) = (r/6) a^3 + (r(5-r)/4) a^2
                + (r/12) ((r-5)^2 + (r^2-5r+10)) a
                + (r/24) (5-r) (r^2-5r+10)

    The value is an integer for every integer a; it is returned as an exact
    fraction so callers can push it through :func:`require_integer`.
    """
    r = ctx.r
    return Fraction(
        4 * r * a**3 + 6 * r * (5 - r) * a * a + 2 * r * _theta(r) * a
        + r * (5 - r) * (r * r - 5 * r + 10),
        24,
    )


def chi_bundle(ctx: HypersurfaceContext, inv: BundleInvariants) -> Rational:
    """Euler characteristic of a rank-k bundle with invariants (k; c1, c2, c3):

    chi(E) = (r/6) c1^3 - (1/2) c1 c2 + (1/2) c3 + (r(5-r)/4) c1^2
           - ((5-r)/2) c2 + (r/12) ((r-5)^2 + (r^2-5r+10)) c1
           + (r k/24) (5-r) (r^2-5r+10)
    """
    r = ctx.r
    k, c1, c2, c3 = inv.quadruple()
    return Fraction(
        4 * r * c1**3 - 12 * c1 * c2 + 12 * c3 + 6 * r * (5 - r) * c1 * c1
        - 12 * (5 - r) * c2 + 2 * r * _theta(r) * c1
        + r * k * (5 - r) * (r * r - 5 * r + 10),
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
    r = ctx.r
    k, c1, c2, c3 = inv.quadruple()
    new_c2 = _divide_exact(2 * c2 + r * n * (k - 1) * (2 * c1 + n * k), 2, "twisted c2")
    new_c3 = _divide_exact(
        6 * c3
        + (k - 2) * n * (6 * c2 + 3 * (k - 1) * n * r * c1 + r * n * n * k * (k - 1)),
        6,
        "twisted c3",
    )
    return BundleInvariants(k, c1 + k * n, new_c2, new_c3)


def genus_general(ctx: HypersurfaceContext, inv: BundleInvariants) -> Rational:
    """Arithmetic genus of the dependency-locus curve of a rank-k bundle, k >= 2:

    g = -(5/2) c2 + (1/2) c1 c2 + (1/2) c3 + (25/12) r + (r/2) c2
      - (35/24) r^2 + (5/12) r^3 - (1/24) r^4

    At r = 4 the constant block collapses to 1 and this agrees with
    :func:`genus_r4`.
    """
    if inv.k < 2:
        raise DomainError(f"genus needs a bundle of rank >= 2, got rank {inv.k}")
    r = ctx.r
    c1, c2, c3 = inv.c1, inv.c2, inv.c3
    return Fraction(
        -60 * c2 + 12 * c1 * c2 + 12 * c3 + 50 * r + 12 * r * c2
        - 35 * r * r + 10 * r**3 - r**4,
        24,
    )


def genus_r4(inv: BundleInvariants) -> Rational:
    """Quartic-hypersurface genus: g = 1 + (c1 c2 - c2 + c3) / 2."""
    return Fraction(inv.c1 * inv.c2 - inv.c2 + inv.c3 + 2, 2)
