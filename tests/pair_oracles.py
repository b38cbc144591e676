"""The exhaustive pair scan, kept as a test oracle for ``extensions.decompose``,
``extensions.extension_rows``, ``extensions.extension_quadruples`` and
``extensions.coverage_report``.

``decompose`` and ``coverage_report`` solve for the partner each left class
forces, and ``extension_rows`` pairs each class with those after it in
(c1, c2) order and merges the runs.  This oracle instead tries every
unordered pair of the pool (repetition allowed) in
``combinations_with_replacement`` order, the way the extension formulas
read, orients each pair itself and sorts by :func:`sort_key`, so a slip in
the partner arithmetic, the c3 check, the orientation, the tie order, the
positions or the pair bookkeeping shows as a mismatch.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from acmbundles.chern import BundleInvariants, HypersurfaceContext
from acmbundles.constraints import enumerate_acm_r4
from acmbundles.extensions import (
    CURVE_REALIZED,
    POOL_STAR,
    STATUS_CURVE,
    STATUS_EXTENSION,
    STATUS_OPEN,
    Catalog,
    CoverageItem,
    ExtensionWitness,
    RankUnsupported,
    _pool_entries,
    catalog,
    extend_rank2,
)


def witness(ctx: HypersurfaceContext, a, b) -> ExtensionWitness:
    """The pair (a, b) with left <= right in (c1, c2) order; a stays left of
    an equal class."""
    left, right = (b, a) if b.pair < a.pair else (a, b)
    return ExtensionWitness(left, right, extend_rank2(ctx, left.pair, right.pair))


def sort_key(w: ExtensionWitness) -> tuple:
    """Resulting quadruple, then left class, then right class."""
    return (w.result.quadruple(), w.left.pair, w.right.pair)


def extension_rows(
    r: int, pool: str = POOL_STAR, source: Catalog | None = None
) -> list[tuple]:
    """The rows of ``extensions.extension_rows``: each pair's witness as
    integers, its index in ``combinations_with_replacement`` order and its
    entries, stably sorted by ``sort_key`` from that order."""
    ctx = HypersurfaceContext(r)
    entries = _pool_entries(catalog(r, source), pool)
    pairs = [(position, witness(ctx, a, b))
             for position, (a, b) in enumerate(combinations_with_replacement(entries, 2))]
    pairs.sort(key=lambda pair: sort_key(pair[1]))
    return [(*w.result.quadruple()[1:], *w.left.pair, *w.right.pair, position, w.left, w.right)
            for position, w in pairs]


def extension_quadruples(
    r: int, pool: str = POOL_STAR, source: Catalog | None = None
) -> list[ExtensionWitness]:
    """Every unordered pool pair with its extension, stably sorted by
    ``sort_key`` from ``combinations_with_replacement`` order."""
    ctx = HypersurfaceContext(r)
    entries = _pool_entries(catalog(r, source), pool)
    witnesses = [witness(ctx, a, b) for a, b in combinations_with_replacement(entries, 2)]
    witnesses.sort(key=sort_key)
    return witnesses


def decompose(
    r: int,
    target: BundleInvariants,
    pool: str = POOL_STAR,
    source: Catalog | None = None,
) -> list[ExtensionWitness]:
    """Every unordered pool pair whose extension equals ``target``, found by
    scanning all n(n+1)/2 pairs."""
    if target.k != 4:
        raise RankUnsupported(
            f"decomposition into two rank-two pieces needs rank 4, got {target.k}"
        )
    return [w for w in extension_quadruples(r, pool, source)
            if w.result.quadruple() == target.quadruple()]


def coverage(k: int, source: Catalog | None = None) -> list[CoverageItem]:
    """The items of ``coverage_report(k, source)``, with the star-pool
    witnesses of each admissible quadruple grouped from the pair scan."""
    by_quadruple: dict[tuple, list[ExtensionWitness]] = {}
    if k == 4:
        for w in extension_quadruples(4, POOL_STAR, source):
            by_quadruple.setdefault(w.result.quadruple(), []).append(w)
    items = []
    for row in enumerate_acm_r4(k):
        for entry in row.entries:
            inv = BundleInvariants(k, row.c1, entry.c2, entry.c3)
            quad = inv.quadruple()
            witnesses = tuple(by_quadruple.get(quad, ()))
            if witnesses:
                status = STATUS_EXTENSION
                origin = "extension: " + "; ".join(str(w) for w in witnesses)
            elif quad in CURVE_REALIZED:
                status, origin = STATUS_CURVE, CURVE_REALIZED[quad]
            else:
                status, origin = STATUS_OPEN, ""
            items.append(CoverageItem(inv, entry.genus, status, origin, witnesses))
    return items
