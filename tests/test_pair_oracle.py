"""``decompose_rows`` and ``coverage_report``, which solve for the forced
partner of each class, and ``extension_rows``, which merges runs of integer
rows, against the exhaustive pair scan in ``oracles`` (``bench/oracles.py``,
which imports nothing from ``acmbundles``): the same rows in the same order,
on hand-built catalogs whose pairs collide on a quadruple and on targets
that are, nearly are, or are not pair sums.  A catalog holds each class
once."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from acmbundles.chern import BundleInvariants, DomainError
from acmbundles.extensions import (
    BUILTIN_CATALOG,
    POOL_NORMALIZED,
    POOL_STAR,
    Catalog,
    UnsupportedDegree,
    catalog,
    coverage_report,
    decompose_rows,
    extension_rows,
    load_catalog,
)

POOLS = (POOL_STAR, POOL_NORMALIZED)


def as_row(witness) -> tuple:
    """The oracle's (quadruple, left, right) as the library's seven integers."""
    (_, c1, c2, c3), left, right = witness
    return (c1, c2, c3, *left, *right)


def listing(r: int, pool: str, source: Catalog) -> list[tuple]:
    """The oracle's rows for every pair of the degree-r pool of ``source``."""
    classes = [(c1, c2, star) for degree, c1, c2, star in source.entries if degree == r]
    return [as_row(w) for w in oracles.all_witnesses(r, oracles.pool_pairs(classes, pool))]


def test_repeated_class_is_rejected():
    with pytest.raises(DomainError, match=r"repeats the class \(4, 1, 3\)"):
        Catalog(((4, 1, 3, True), (4, 2, 8, True), (4, 1, 3, False)))
    # a class is (r, c1, c2): the same (c1, c2) at two degrees is two classes
    two = Catalog(((3, 1, 3, True), (4, 1, 3, True)))
    assert catalog(3, two) == catalog(4, two) == [(1, 3, True)]
    # an unknown degree's error lists the catalog's degrees, sorted
    for source, known in ((two, "3, 4"), (BUILTIN_CATALOG, "3, 4"),
                          (load_catalog(Path(__file__).parent / "catalog_345.txt"), "3, 4, 5")):
        with pytest.raises(UnsupportedDegree, match=rf"\(available: {known}\)$"):
            catalog(6, source)


@st.composite
def catalogs(draw):
    r = draw(st.integers(1, 8))
    cls = st.tuples(st.integers(-6, 6), st.integers(-20, 40))
    classes = draw(st.lists(cls, min_size=1, max_size=12, unique=True))
    entries = [(r, c1, c2, draw(st.booleans())) for c1, c2 in classes]
    others = [(r + 1, c1, c2, True) for c1, c2 in draw(st.lists(cls, max_size=3, unique=True))]
    return r, draw(st.permutations(entries + others))


@st.composite
def cases(draw):
    r, entries = draw(catalogs())
    own = [(c1, c2) for degree, c1, c2, _ in entries if degree == r]
    a = draw(st.sampled_from(own))
    b = draw(st.one_of(st.just(a), st.sampled_from(own)))
    k, c1, c2, c3 = oracles.extend(r, a, b)
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
    assert decompose_rows(r, target, pool, source) == [
        row for row in listing(r, pool, source) if (4, *row[:3]) == target]


@settings(max_examples=300, deadline=None)
@given(catalogs(), st.sampled_from(POOLS))
def test_wide_catalog_rows_match_pair_scan(case, pool):
    # wide random catalogs (r up to 8, random flags, other degrees) against
    # the pair scan
    r, entries = case
    source = Catalog(tuple(entries))
    assert extension_rows(r, pool, source) == listing(r, pool, source)


@st.composite
def colliding_catalogs(draw):
    # few cells, so pairs collide on a quadruple, sometimes planted as
    # (x, u) + (x, v) and (x, u + d) + (x, v - d), which always do; a planted
    # class already drawn keeps its star flag
    r = draw(st.integers(1, 5))
    cls = st.tuples(st.integers(-3, 3), st.integers(-6, 12))
    flags = draw(st.dictionaries(cls, st.booleans(), min_size=1, max_size=9))
    if draw(st.booleans()):
        x, u = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        v, d = draw(st.integers(4, 9)), draw(st.integers(1, 2))
        for pair in [(x, u), (x, v), (x, u + d), (x, v - d)]:
            flags.setdefault(pair, True)
    entries = [(r, c1, c2, star) for (c1, c2), star in flags.items()]
    others = [(r + 1, c1, c2, True) for c1, c2 in draw(st.lists(cls, max_size=3, unique=True))]
    return r, Catalog(tuple(draw(st.permutations(entries + others))))


@settings(max_examples=300, deadline=None)
@given(colliding_catalogs(), st.sampled_from(POOLS))
def test_extension_rows_match_pair_scan(case, pool):
    # pairs collide on a quadruple, so this pins the tie order within one
    r, source = case
    rows = extension_rows(r, pool, source)
    assert rows == listing(r, pool, source)
    # decompose_rows is the listing's slice for each quadruple it holds
    for c1, c2, c3 in {row[:3] for row in rows}:
        target = BundleInvariants(4, c1, c2, c3)
        assert decompose_rows(r, target, pool, source) == [
            row for row in rows if row[:3] == (c1, c2, c3)]


@st.composite
def quartic_catalogs(draw):
    # the built-in star classes planted, so every built-in witness recurs,
    # and other random classes near them, some outside the star pool, so
    # that new pairs land on admissible quadruples too
    planted = oracles.pool_pairs(oracles.BUILTIN_CLASSES[4], "star")
    cls = st.tuples(st.integers(-1, 5), st.integers(0, 30)).filter(lambda c: c not in planted)
    drawn = draw(st.lists(cls, max_size=12, unique=True))
    entries = [(4, c1, c2, True) for c1, c2 in planted] + [
        (4, c1, c2, draw(st.booleans())) for c1, c2 in drawn]
    return Catalog(tuple(draw(st.permutations(entries))))


@settings(max_examples=200, deadline=None)
@given(quartic_catalogs())
def test_coverage_matches_pair_scan(source):
    star = oracles.pool_pairs([row[1:] for row in source.entries], "star")
    assert coverage_report(4, source) == [
        (*quad, genus, status, origin, tuple(map(as_row, found)))
        for quad, genus, status, origin, found in oracles.coverage_items(4, star)]
