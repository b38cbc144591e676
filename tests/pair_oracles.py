"""The exhaustive pair scan, kept as a test oracle for
``extensions.extension_rows``, ``extensions.decompose_rows`` and
``extensions.coverage_report``.

``decompose_rows`` and ``coverage_report`` solve for the partner each left
class forces, and ``extension_rows`` pairs each class with those after it in
(c1, c2) order and merges the runs.  This oracle instead filters the pool
itself, tries every unordered pair of its classes (repetition allowed) in
``combinations_with_replacement`` order, the way the extension formulas
read, orients each pair itself and sorts the seven-integer rows, so a slip
in the partner arithmetic, the c3 check, the orientation, the tie order or
the pair bookkeeping shows as a mismatch.  ``decompose`` and ``coverage``
slice those rows.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from acmbundles.chern import BundleInvariants, HypersurfaceContext
from acmbundles.constraints import enumerate_acm_r4
from acmbundles.extensions import (
    CURVE_REALIZED,
    POOL_NORMALIZED,
    POOL_STAR,
    STATUS_CURVE,
    STATUS_EXTENSION,
    STATUS_OPEN,
    Catalog,
    CoverageItem,
    catalog,
    extend_rank2,
)


def extension_rows(
    r: int, pool: str = POOL_STAR, source: Catalog | None = None
) -> list[tuple]:
    """The rows of ``extensions.extension_rows``: each pool pair's extension
    and its classes, left <= right in (c1, c2) order, sorted."""
    ctx = HypersurfaceContext(r)
    entries = [e for e in catalog(r, source) if e.satisfies_star or pool == POOL_NORMALIZED]
    rows = []
    for a, b in combinations_with_replacement(entries, 2):
        left, right = sorted([a.pair, b.pair])
        _, c1, c2, c3 = extend_rank2(ctx, left, right).quadruple()
        rows.append((c1, c2, c3, *left, *right))
    rows.sort()
    return rows


def decompose(
    r: int,
    target: BundleInvariants,
    pool: str = POOL_STAR,
    source: Catalog | None = None,
) -> list[tuple]:
    """The rows of every pool pair whose extension equals the rank-4
    ``target``, sliced from the scan of all n(n+1)/2 pairs."""
    return [row for row in extension_rows(r, pool, source)
            if (4, *row[:3]) == target.quadruple()]


def coverage(k: int, source: Catalog | None = None) -> list[CoverageItem]:
    """The items of ``coverage_report(k, source)``, with the star-pool rows
    of each admissible quadruple grouped from the pair scan."""
    by_quadruple: dict[tuple, list[tuple]] = {}
    if k == 4:
        for row in extension_rows(4, POOL_STAR, source):
            by_quadruple.setdefault((4, *row[:3]), []).append(row)
    items = []
    for row in enumerate_acm_r4(k):
        for entry in row.entries:
            inv = BundleInvariants(k, row.c1, entry.c2, entry.c3)
            quad = inv.quadruple()
            witnesses = tuple(by_quadruple.get(quad, ()))
            if witnesses:
                status = STATUS_EXTENSION
                origin = "extension: " + "; ".join(
                    f"({w[3]},{w[4]})+({w[5]},{w[6]})" for w in witnesses)
            elif quad in CURVE_REALIZED:
                status, origin = STATUS_CURVE, CURVE_REALIZED[quad]
            else:
                status, origin = STATUS_OPEN, ""
            items.append(CoverageItem(inv, entry.genus, status, origin, witnesses))
    return items
