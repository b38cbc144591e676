"""The ``Fraction`` transcriptions of the paper's formulas, kept as test
oracles for the integer kernel in ``chern`` and ``constraints``.

Each function evaluates its formula term by term in exact rationals, the
way it is printed, and converts to an integer only where the library does.
They are independent of the integer numerators and common denominators the
library uses, so a coefficient slip on either side shows as a mismatch.

``ring_product`` is the Whitney-sum oracle for ``extensions.extend_rank2``:
it multiplies total Chern classes in the cohomology ring instead of using
the closed-form c1/c2/c3 of an extension.
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


def ring_product(r: int, left: tuple[int, int], right: tuple[int, int]) -> tuple[int, int, int]:
    """Total-Chern-class product in the graded ring with basis (1, H, L, P):
    H*H = r*L, H*L = P, and everything past degree three vanishes."""
    out = {0: 0, 1: 0, 2: 0, 3: 0}
    a = {0: 1, 1: left[0], 2: left[1]}
    b = {0: 1, 1: right[0], 2: right[1]}
    for i, x in a.items():
        for j, y in b.items():
            degree = i + j
            if degree > 3:
                continue
            factor = r if (i, j) == (1, 1) else 1
            out[degree] += factor * x * y
    return (out[1], out[2], out[3])
