"""``decompose_rows`` and ``coverage_report``, which solve for the forced
partner of each class, and ``extension_rows``, which merges runs of integer
rows, against the exhaustive pair scan in ``pair_oracles``: the same rows in
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
    decompose_rows,
    extend_rank2,
    extension_rows,
)

POOLS = (POOL_STAR, POOL_NORMALIZED)


def entry(r, c1, c2, star=True):
    return Rank2CatalogEntry(r, c1, c2, star, GlobalGeneration.NO)


def assert_same_rows(got, want):
    # integers, positions and order by ==, the entries by identity
    assert [row[:8] for row in got] == [row[:8] for row in want]
    assert all(g[8] is w[8] and g[9] is w[9] for g, w in zip(got, want))


def test_repeated_class_yields_each_copy():
    # a Catalog built directly may repeat a class; load_catalog never does
    source = Catalog((entry(4, 1, 3), entry(4, 1, 3), entry(4, 2, 8)))
    target = extend_rank2(HypersurfaceContext(4), (1, 3), (1, 3))
    found = decompose_rows(4, target, POOL_STAR, source)
    assert [row[7] for row in found] == [0, 1, 3]  # copies (0, 0), (0, 1), (1, 1)
    assert_same_rows(found, oracle.decompose(4, target, POOL_STAR, source))


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
    assert_same_rows(decompose_rows(r, target, pool, source),
                     oracle.decompose(r, target, pool, source))


@settings(max_examples=300, deadline=None)
@given(catalogs(), st.sampled_from(POOLS))
def test_extension_quadruples_match_pair_scan(case, pool):
    # the quadruple listing is the rows' integer cells: wide random catalogs
    # (r up to 8, random flags, other degrees) against the pair scan
    r, entries = case
    source = Catalog(tuple(entries))
    assert_same_rows(extension_rows(r, pool, source),
                     oracle.extension_rows(r, pool, source))


@st.composite
def repeating_catalogs(draw):
    # few cells, so pairs collide on a quadruple, sometimes planted as
    # (x, u) + (x, v) and (x, u + d) + (x, v - d), which always do; every
    # class comes once, twice or three times with one star flag, so copies
    # meet in both pools
    r = draw(st.integers(1, 5))
    cls = st.tuples(st.integers(-3, 3), st.integers(-6, 12), st.booleans())
    classes = draw(st.lists(cls, min_size=1, max_size=9))
    if draw(st.booleans()):
        x, u = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        v, d = draw(st.integers(4, 9)), draw(st.integers(1, 2))
        classes += [(x, u, True), (x, v, True), (x, u + d, True), (x, v - d, True)]
    flags = {}
    for c1, c2, star in classes:
        flags.setdefault((c1, c2), star)
    entries = [entry(r, c1, c2, star)
               for (c1, c2), star in flags.items() for _ in range(draw(st.integers(1, 3)))]
    others = [entry(r + 1, c1, c2) for c1, c2, _ in draw(st.lists(cls, max_size=3))]
    return r, Catalog(tuple(draw(st.permutations(entries + others))))


@settings(max_examples=300, deadline=None)
@given(repeating_catalogs(), st.sampled_from(POOLS))
def test_extension_rows_match_pair_scan(case, pool):
    # repeated classes tie on every integer and pairs collide on a
    # quadruple, so this pins the tie order
    r, source = case
    rows = extension_rows(r, pool, source)
    assert_same_rows(rows, oracle.extension_rows(r, pool, source))
    # decompose_rows is the listing's slice for each quadruple it holds
    for c1, c2, c3 in {row[:3] for row in rows}:
        target = BundleInvariants(4, c1, c2, c3)
        assert_same_rows(decompose_rows(r, target, pool, source),
                         [row for row in rows if row[:3] == (c1, c2, c3)])


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
