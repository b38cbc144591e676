"""Admissibility bounds for Chern classes of ACM bundles, and the complete
rank-3/rank-4 enumeration of admissible invariants on the quartic hypersurface.

Admissibility means passing every bound; it does not imply a bundle exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chern import (
    CurveInvariants,
    DomainError,
    HypersurfaceContext,
    _divide_exact,
)

__all__ = [
    "QUARTIC",
    "C2Interval",
    "RowEntry",
    "EnumerationRow",
    "c1_bounds",
    "c2_upper_general",
    "c3_from_acm",
    "genus_from_acm",
    "c2_interval_r4",
    "enumerate_acm_r4",
    "hs_sufficient_condition",
    "LOWER_BASE",
    "LOWER_ABOVE_ONE",
    "LOWER_RANK3",
    "UPPER_RESTRICTION",
    "UPPER_SECTIONS",
    "UPPER_RANK3",
    "EXACT_C1_ONE",
    "UNREFINED",
]

#: the quartic context used by every r=4-specific closed form below
QUARTIC = HypersurfaceContext(4)

# Tags naming the bound clause that set an interval endpoint.
LOWER_BASE = "lower:base"                # c2 >= 2c1^2 - 2c1 + k
LOWER_ABOVE_ONE = "lower:above-one"      # c1 > 1 only: c2 >= 2c1^2 - 4c1 + 8
LOWER_RANK3 = "lower:rank3"              # k = 3, c1 >= 3: c2 >= 2c1^2 - 4c1 + 11
UPPER_RESTRICTION = "upper:restriction"  # c2 <= 2c1^2 - 4c1 + 4k (hyperplane restriction)
UPPER_SECTIONS = "upper:sections"        # c2 <= 2c1^2 + k (chi >= k, forced by h^0 >= k)
UPPER_RANK3 = "upper:rank3"              # k = 3, c1 >= 3: c2 <= 2c1^2 - 4c1 + 12
EXACT_C1_ONE = "exact:c1-one"            # c1 = 1 forces c2 = k + 2 outright
UNREFINED = "unrefined"                  # only generic clauses applied (k not in {3,4})


@dataclass(frozen=True)
class C2Interval:
    """Closed integer interval of admissible c2 values; empty iff lower > upper.

    ``lower_tags``/``upper_tags`` record which bound clauses set each endpoint
    (every clause achieving the max/min is listed).
    """

    lower: int
    upper: int
    lower_tags: tuple[str, ...] = ()
    upper_tags: tuple[str, ...] = ()

    @property
    def is_empty(self) -> bool:
        return self.lower > self.upper

    def values(self) -> list[int]:
        """All integer points, ascending; empty list for an empty interval."""
        if self.is_empty:
            return []
        return list(range(self.lower, self.upper + 1))

    def __contains__(self, c2: int) -> bool:
        return self.lower <= c2 <= self.upper


def c1_bounds(ctx: HypersurfaceContext, k: int) -> tuple[int, int]:
    """Range of c1 for a normalized rank-k ACM bundle: 1 <= c1 <= k(r-1)/2,
    the upper end floored."""
    if k < 2:
        raise DomainError(f"c1 bounds need rank >= 2, got {k}")
    return 1, (k * (ctx.r - 1)) // 2


def c2_upper_general(ctx: HypersurfaceContext, k: int, c1: int) -> int:
    """General upper bound for c2 from restriction to a hyperplane section:

    c2 <= (r/2) c1^2 - (r(r-2)/2) c1 + (r(r-1)(r-2)/6) k

    The right side is an integer for every integer (r, k, c1): r c1 (c1-r+2)
    and r (r-1) (r-2) are always even and divisible by 6 respectively.  The
    exact division stays in as a guard against coefficient typos.
    """
    r = ctx.r
    return _divide_exact(
        3 * r * c1 * c1 - 3 * r * (r - 2) * c1 + r * (r - 1) * (r - 2) * k,
        6,
        "c2 upper bound",
    )


def _acm_affine(k: int, c1: int) -> tuple[tuple[int, int], tuple[int, int]]:
    # (slope, intercept) in c2 of the forced c3 and of the genus at one
    # (k, c1).  Both slopes are c1 - 1.  The only division, by 3, gives c3 at
    # c2 = 0; its numerator is even, so that quotient is even and the genus
    # intercept 1 + c3/2 (the quartic genus form) needs no second division.
    c3_zero = _divide_exact(
        -4 * c1**3 + 6 * c1 * c1 - 14 * c1 + 6 * k, 3, "quartic ACM c3"
    )
    return (c1 - 1, c3_zero), (c1 - 1, c3_zero // 2 + 1)


def c3_from_acm(k: int, c1: int, c2: int) -> int:
    """Third Chern class forced on the quartic by chi(E(-1)) = 0:

    c3 = -(4/3) c1^3 + 2 c1^2 - (14/3) c1 + (c1 - 1) c2 + 2k

    Integral for every integer input; the exact division by 3 doubles as a
    transcription-error detector for the rational coefficients.
    """
    (slope, intercept), _ = _acm_affine(k, c1)
    return slope * c2 + intercept


def genus_from_acm(k: int, c1: int, c2: int) -> int:
    """Genus of the dependency-locus curve of a quartic ACM bundle:

    g = -(2/3) c1^3 + c1^2 - (7/3) c1 + 1 + (c1 - 1) c2 + k

    It shares the division by 3 of :func:`c3_from_acm`, whose guard reports
    a failure under the context "quartic ACM c3".
    """
    _, (slope, intercept) = _acm_affine(k, c1)
    return slope * c2 + intercept


def c2_interval_r4(k: int, c1: int) -> C2Interval:
    """Intersection of every applicable c2 bound on the quartic.

    For k in {3, 4} all refinements apply: c1 = 1 collapses the interval to
    the single value c2 = k + 2, c1 > 1 adds a stronger lower bound, and
    k = 3 with c1 >= 3 pins c2 into a two-point window.  Other ranks k >= 2
    get only the generic clauses; callers should treat those intervals as
    unrefined supersets.  Lower bounds combine by max, upper bounds by min.
    """
    if k < 2:
        raise DomainError(f"c2 interval needs rank >= 2, got {k}")
    refined = k in (3, 4)
    if refined and c1 == 1:
        return C2Interval(k + 2, k + 2, (EXACT_C1_ONE,), (EXACT_C1_ONE,))

    lowers = [(2 * c1 * c1 - 2 * c1 + k, LOWER_BASE)]
    uppers = [
        (2 * c1 * c1 - 4 * c1 + 4 * k, UPPER_RESTRICTION),
        (2 * c1 * c1 + k, UPPER_SECTIONS),
    ]
    if refined:
        if c1 > 1:
            lowers.append((2 * c1 * c1 - 4 * c1 + 8, LOWER_ABOVE_ONE))
        if k == 3 and c1 >= 3:
            lowers.append((2 * c1 * c1 - 4 * c1 + 11, LOWER_RANK3))
            uppers.append((2 * c1 * c1 - 4 * c1 + 12, UPPER_RANK3))

    lower = max(value for value, _ in lowers)
    upper = min(value for value, _ in uppers)
    return C2Interval(
        lower,
        upper,
        tuple(tag for value, tag in lowers if value == lower),
        tuple(tag for value, tag in uppers if value == upper),
    )


@dataclass(frozen=True)
class RowEntry:
    """One admissible point of a table row: c2 with its forced c3 and genus."""

    c2: int
    c3: int
    genus: int


@dataclass(frozen=True)
class EnumerationRow:
    """All admissible invariants for one (k, c1) on the quartic."""

    k: int
    c1: int
    interval: C2Interval
    entries: tuple[RowEntry, ...]
    provenance: tuple[str, ...]

    @property
    def c2_values(self) -> list[int]:
        return [entry.c2 for entry in self.entries]

    @property
    def is_empty(self) -> bool:
        return self.interval.is_empty


def enumerate_acm_r4(k: int) -> list[EnumerationRow]:
    """Every admissible (c1; c2, c3, genus) row for rank-k ACM bundles
    satisfying the star condition on the quartic.

    Rows come out ascending in c1 with c2 ascending inside each row, one row
    per c1 in ``c1_bounds``.  Empty intervals are kept: an empty row is a
    finding (no such bundle), not missing data.  For k outside {3, 4} the
    provenance carries "unrefined" and the rows are supersets, with no
    completeness claim.
    """
    lo, hi = c1_bounds(QUARTIC, k)
    refined = k in (3, 4)
    rows = []
    for c1 in range(lo, hi + 1):
        interval = c2_interval_r4(k, c1)
        (s3, t3), (sg, tg) = _acm_affine(k, c1)
        entries = tuple(
            RowEntry(c2, s3 * c2 + t3, sg * c2 + tg) for c2 in interval.values()
        )
        tags = list(interval.lower_tags)
        tags += [tag for tag in interval.upper_tags if tag not in tags]
        if not refined:
            tags.append(UNREFINED)
        rows.append(EnumerationRow(k, c1, interval, entries, tuple(tags)))
    return rows


def hs_sufficient_condition(
    ctx: HypersurfaceContext, c1: int, curve: CurveInvariants
) -> bool:
    """Numeric sufficient test for the curve-to-bundle construction:
    2g - 2 < (r + c1 - 4) deg, strictly."""
    return 2 * curve.genus - 2 < (ctx.r + c1 - 4) * curve.degree
