"""``decompose`` and ``coverage_report``, which solve for the forced partner
of each class, and ``extension_quadruples``, which sorts integer rows,
against the exhaustive pair scan in ``pair_oracles``: the same witnesses in
the same order and with the same multiplicity, on hand-built catalogs that
may repeat a class and on targets that are, nearly are, or are not pair
sums."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pair_oracles as oracle
from acmbundles.chern import BundleInvariants, HypersurfaceContext
from acmbundles.extensions import (
    POOL_NORMALIZED,
    POOL_STAR,
    Catalog,
    GlobalGeneration,
    Rank2CatalogEntry,
    catalog,
    coverage_report,
    decompose,
    extend_rank2,
    extension_quadruples,
)

POOLS = (POOL_STAR, POOL_NORMALIZED)


def entry(r, c1, c2, star=True):
    return Rank2CatalogEntry(r, c1, c2, star, GlobalGeneration.NO)


def test_repeated_class_yields_each_copy():
    # a Catalog built directly may repeat a class; load_catalog never does
    source = Catalog((entry(4, 1, 3), entry(4, 1, 3), entry(4, 2, 8)))
    target = extend_rank2(HypersurfaceContext(4), (1, 3), (1, 3))
    found = decompose(4, target, POOL_STAR, source)
    assert len(found) == 3  # copies (0, 0), (0, 1) and (1, 1)
    assert found == oracle.decompose(4, target, POOL_STAR, source)


@st.composite
def catalogs(draw):
    r = draw(st.integers(1, 8))
    cls = st.tuples(st.integers(-6, 6), st.integers(-20, 40))
    classes = draw(st.lists(cls, min_size=1, max_size=12))
    repeats = draw(st.lists(st.sampled_from(classes), max_size=4))
    entries = [
        Rank2CatalogEntry(
            r, c1, c2, draw(st.booleans()), draw(st.sampled_from(GlobalGeneration))
        )
        for c1, c2 in classes + repeats
    ]
    others = [entry(r + 1, c1, c2) for c1, c2 in draw(st.lists(cls, max_size=3))]
    return r, draw(st.permutations(entries + others))


@st.composite
def cases(draw):
    r, entries = draw(catalogs())
    own = [e for e in entries if e.r == r]
    a = draw(st.sampled_from(own))
    b = draw(st.one_of(st.just(a), st.sampled_from(own)))
    k, c1, c2, c3 = extend_rank2(HypersurfaceContext(r), a.pair, b.pair).quadruple()
    shift = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
    kind = draw(st.sampled_from(("sum", "c2", "c3", "random")))
    if kind == "c2":
        c2 += shift
    elif kind == "c3":
        c3 += shift
    elif kind == "random":
        c1 = draw(st.integers(-12, 12))
        c2 = draw(st.integers(-100, 200))
        c3 = draw(st.integers(-300, 300))
    target = BundleInvariants(k, c1, c2, c3)
    return r, Catalog(tuple(entries)), target, draw(st.sampled_from(POOLS))


@settings(max_examples=400, deadline=None)
@given(cases())
def test_decompose_matches_pair_scan(case):
    r, source, target, pool = case
    assert decompose(r, target, pool, source) == oracle.decompose(r, target, pool, source)


@settings(max_examples=300, deadline=None)
@given(catalogs(), st.sampled_from(POOLS))
def test_extension_quadruples_match_pair_scan(case, pool):
    # repeated classes tie on every integer, so this pins the tie order
    r, entries = case
    source = Catalog(tuple(entries))
    assert extension_quadruples(r, pool, source) == oracle.extension_quadruples(
        r, pool, source)


@st.composite
def quartic_catalogs(draw):
    # the built-in star classes planted, so every built-in witness recurs,
    # and random classes near them, some repeated and some outside the star
    # pool, so that new pairs land on admissible quadruples too
    planted = [e.pair for e in catalog(4) if e.satisfies_star]
    cls = st.tuples(st.integers(-1, 5), st.integers(0, 30))
    drawn = draw(st.lists(cls, max_size=12))
    repeats = draw(st.lists(st.sampled_from(planted + drawn), max_size=4))
    entries = [entry(4, c1, c2) for c1, c2 in planted] + [
        entry(4, c1, c2, draw(st.booleans())) for c1, c2 in drawn + repeats]
    return Catalog(tuple(draw(st.permutations(entries))))


@settings(max_examples=200, deadline=None)
@given(quartic_catalogs())
def test_coverage_matches_pair_scan(source):
    assert coverage_report(4, source).items == tuple(oracle.coverage(4, source))
