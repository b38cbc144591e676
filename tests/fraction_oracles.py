"""The ``Fraction`` transcriptions of the paper's formulas, kept as test
oracles for the integer kernel in ``chern`` and ``constraints``.

Each function evaluates its formula term by term in exact rationals, the
way it is printed, and converts to an integer only where the library does.
They are independent of the integer numerators and common denominators the
library uses, so a coefficient slip on either side shows as a mismatch.
"""

from __future__ import annotations

from fractions import Fraction

from acmbundles.chern import (
    BundleInvariants,
    DomainError,
    HypersurfaceContext,
    NonIntegral,
)


def _require_integer(value: Fraction, context: str) -> int:
    # the library's integrality check, copied so the oracle owns it
    if value.denominator != 1:
        raise NonIntegral(value, context)
    return int(value)


def _theta(r: int) -> int:
    # coefficient (r-5)^2 + (r^2 - 5r + 10) shared by both chi formulas
    return (r - 5) ** 2 + (r * r - 5 * r + 10)


def chi_line_bundle(ctx: HypersurfaceContext, a: int) -> Fraction:
    r = ctx.r
    return (
        Fraction(r, 6) * a**3
        + Fraction(r * (5 - r), 4) * a**2
        + Fraction(r * _theta(r), 12) * a
        + Fraction(r * (5 - r) * (r * r - 5 * r + 10), 24)
    )


def chi_bundle(ctx: HypersurfaceContext, inv: BundleInvariants) -> Fraction:
    r = ctx.r
    k, c1, c2, c3 = inv
    return (
        Fraction(r, 6) * c1**3
        - Fraction(1, 2) * c1 * c2
        + Fraction(1, 2) * c3
        + Fraction(r * (5 - r), 4) * c1**2
        - Fraction(5 - r, 2) * c2
        + Fraction(r * _theta(r), 12) * c1
        + Fraction(r * k * (5 - r) * (r * r - 5 * r + 10), 24)
    )


def twist(ctx: HypersurfaceContext, inv: BundleInvariants, n: int) -> BundleInvariants:
    r = ctx.r
    k, c1, c2, c3 = inv
    new_c2 = c2 + r * n * (k - 1) * (c1 + Fraction(n * k, 2))
    new_c3 = c3 + (k - 2) * n * (
        c2 + Fraction((k - 1) * n * r * c1, 2) + Fraction(r * n * n * k * (k - 1), 6)
    )
    return BundleInvariants(
        k,
        c1 + k * n,
        _require_integer(new_c2, "twisted c2"),
        _require_integer(new_c3, "twisted c3"),
    )


def genus_general(ctx: HypersurfaceContext, inv: BundleInvariants) -> Fraction:
    if inv.k < 2:
        raise DomainError(f"genus needs a bundle of rank >= 2, got rank {inv.k}")
    r = ctx.r
    c1, c2, c3 = inv.c1, inv.c2, inv.c3
    return (
        -Fraction(5, 2) * c2
        + Fraction(1, 2) * c1 * c2
        + Fraction(1, 2) * c3
        + Fraction(25 * r, 12)
        + Fraction(r, 2) * c2
        - Fraction(35 * r * r, 24)
        + Fraction(5 * r**3, 12)
        - Fraction(r**4, 24)
    )


def genus_r4(inv: BundleInvariants) -> Fraction:
    return 1 + Fraction(inv.c1 * inv.c2 - inv.c2 + inv.c3, 2)


def c3_from_acm(k: int, c1: int, c2: int) -> int:
    value = (
        -Fraction(4, 3) * c1**3
        + 2 * c1 * c1
        - Fraction(14, 3) * c1
        + (c1 - 1) * c2
        + 2 * k
    )
    return _require_integer(value, "quartic ACM c3")


def genus_from_acm(k: int, c1: int, c2: int) -> int:
    value = (
        -Fraction(2, 3) * c1**3
        + c1 * c1
        - Fraction(7, 3) * c1
        + 1
        + (c1 - 1) * c2
        + k
    )
    return _require_integer(value, "quartic ACM genus")
