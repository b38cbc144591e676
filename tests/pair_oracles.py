"""The exhaustive pair scan, kept as a test oracle for ``extensions.decompose``.

``decompose`` solves for the partner each left class forces.  This oracle
instead tries every unordered pair of the pool (repetition allowed), the way
the extension formulas read, so a slip in the partner arithmetic, the c3
check or the pair bookkeeping shows as a mismatch.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from acmbundles.chern import BundleInvariants, HypersurfaceContext
from acmbundles.extensions import (
    Catalog,
    ExtensionWitness,
    POOL_STAR,
    RankUnsupported,
    _make_witness,
    _pool_entries,
    catalog,
    extend_rank2,
)


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
    ctx = HypersurfaceContext(r)
    entries = _pool_entries(catalog(r, source), pool)
    hits = [
        _make_witness(ctx, a, b)
        for a, b in combinations_with_replacement(entries, 2)
        if extend_rank2(ctx, a.pair, b.pair).quadruple() == target.quadruple()
    ]
    hits.sort(key=ExtensionWitness.sort_key)
    return hits
