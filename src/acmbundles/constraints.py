"""Admissibility bounds for Chern classes of ACM bundles, and the complete
rank-3/rank-4 enumeration of admissible invariants on the quartic hypersurface.

Admissibility means passing every bound; it does not imply a bundle exists.
"""

from __future__ import annotations

from collections import namedtuple

from .chern import (
    DomainError,
    HypersurfaceContext,
    _divide_exact,
)

__all__ = [
    "QUARTIC",
    "EnumerationRow",
    "c1_bounds",
    "c2_upper_general",
    "c3_from_acm",
    "genus_from_acm",
    "c2_interval_r4",
    "enumerate_acm_r4",
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
LOWER_BASE = "lower:base"
LOWER_ABOVE_ONE = "lower:above-one"
LOWER_RANK3 = "lower:rank3"
UPPER_RESTRICTION = "upper:restriction"
UPPER_SECTIONS = "upper:sections"
UPPER_RANK3 = "upper:rank3"
EXACT_C1_ONE = "exact:c1-one"
UNREFINED = "unrefined"

_REFINED_RANKS = (3, 4)  # every clause applies; their tables are complete

# The c2 bound clauses in provenance order: a row (tag, side, ranks, c1_min,
# a, b, d) bounds c2 from below or above by 2c1^2 + a c1 + b k + d for k in
# ranks and c1 >= c1_min (ranks None: every k >= 2 and c1).  Restriction is
# the hyperplane-section bound; sections is chi(E) >= k, from h^0(E) >= k.
_C2_CLAUSES = (
    (LOWER_BASE, "lower", None, None, -2, 1, 0),
    (LOWER_ABOVE_ONE, "lower", _REFINED_RANKS, 2, -4, 0, 8),
    (LOWER_RANK3, "lower", (3,), 3, -4, 0, 11),
    (UPPER_RESTRICTION, "upper", None, None, -4, 4, 0),
    (UPPER_SECTIONS, "upper", None, None, 0, 1, 0),
    (UPPER_RANK3, "upper", (3,), 3, -4, 0, 12),
)


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


def c2_interval_r4(k: int, c1: int) -> tuple[int, int, tuple[str, ...], tuple[str, ...]]:
    """Intersection of the ``_C2_CLAUSES`` bounds that apply at (k, c1), as
    (lower, upper, lower_tags, upper_tags): the closed integer interval of
    admissible c2, empty iff lower > upper, and the tags of every clause that
    sets each endpoint, in clause order.  Lower bounds combine by max, upper
    bounds by min.  For k in {3, 4}, c1 = 1 instead pins c2 = k + 2.  Other
    ranks k >= 2 get only the generic clauses; callers should treat those
    intervals as unrefined supersets.
    """
    if k < 2:
        raise DomainError(f"c2 interval needs rank >= 2, got {k}")
    if c1 == 1 and k in _REFINED_RANKS:
        return k + 2, k + 2, (EXACT_C1_ONE,), (EXACT_C1_ONE,)
    square = 2 * c1 * c1
    lower = upper = None  # each side's tightest bound so far, and its tags
    for tag, side, ranks, c1_min, a, b, d in _C2_CLAUSES:
        if ranks is None or (k in ranks and c1 >= c1_min):
            value = square + a * c1 + b * k + d
            if side == "lower":
                if lower is None or value > lower:
                    lower, lower_tags = value, (tag,)
                elif value == lower:
                    lower_tags += (tag,)
            elif upper is None or value < upper:
                upper, upper_tags = value, (tag,)
            elif value == upper:
                upper_tags += (tag,)
    return lower, upper, lower_tags, upper_tags


class EnumerationRow(namedtuple("EnumerationRow", "k c1 lower upper c3_form genus_form "
                                                  "provenance")):
    """All admissible invariants for one (k, c1) on the quartic.

    Along a row the forced c3 and the genus are affine in c2: ``c3_form``
    and ``genus_form`` are their (slope, intercept) pairs.  ``entries``, the
    row's admissible points as (c2, c3, genus) integer triples, is computed
    from the two forms over the closed interval ``lower``..``upper`` of c2
    on each access.
    """

    __slots__ = ()

    @property
    def entries(self) -> tuple[tuple[int, int, int], ...]:
        (s3, t3), (sg, tg) = self.c3_form, self.genus_form
        return tuple([(c2, s3 * c2 + t3, sg * c2 + tg)
                      for c2 in range(self.lower, self.upper + 1)])


def enumerate_acm_r4(k: int) -> list[EnumerationRow]:
    """Every admissible (c1; c2, c3, genus) row for rank-k ACM bundles
    satisfying the star condition on the quartic.

    Rows come out ascending in c1 with c2 ascending inside each row, one row
    per c1 in ``c1_bounds``, and no row is empty: lower <= upper at every
    rank.  For k outside {3, 4} the provenance carries "unrefined" and the
    rows are supersets, with no completeness claim.
    """
    lo, hi = c1_bounds(QUARTIC, k)
    unrefined = () if k in _REFINED_RANKS else (UNREFINED,)
    rows = []
    for c1 in range(lo, hi + 1):
        lower, upper, lower_tags, upper_tags = c2_interval_r4(k, c1)
        # a clause bounds one side; only the c1 = 1 pin tags both
        tags = lower_tags if upper_tags == lower_tags else lower_tags + upper_tags
        rows.append(EnumerationRow(k, c1, lower, upper, *_acm_affine(k, c1), tags + unrefined))
    return rows
