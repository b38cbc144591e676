"""The exhaustive pair scan, kept as a test oracle for ``extensions.decompose``
and ``extensions.extension_quadruples``.

``decompose`` solves for the partner each left class forces, and both build
their witnesses from sorted integer rows.  This oracle instead tries every
unordered pair of the pool (repetition allowed), the way the extension
formulas read, orients each pair itself and sorts the witnesses by
``ExtensionWitness.sort_key``, so a slip in the partner arithmetic, the c3
check, the orientation, the tie order or the pair bookkeeping shows as a
mismatch.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from acmbundles.chern import BundleInvariants, HypersurfaceContext
from acmbundles.extensions import (
    Catalog,
    ExtensionWitness,
    POOL_STAR,
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


def extension_quadruples(
    r: int, pool: str = POOL_STAR, source: Catalog | None = None
) -> list[ExtensionWitness]:
    """Every unordered pool pair with its extension, stably sorted by
    ``sort_key`` from ``combinations_with_replacement`` order."""
    ctx = HypersurfaceContext(r)
    entries = _pool_entries(catalog(r, source), pool)
    witnesses = [witness(ctx, a, b) for a, b in combinations_with_replacement(entries, 2)]
    witnesses.sort(key=ExtensionWitness.sort_key)
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
