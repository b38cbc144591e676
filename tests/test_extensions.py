"""Catalog data, extension arithmetic against a ring oracle, decomposability
search, the coverage report, and the catalog override file format."""

import re
from itertools import combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

from acmbundles.chern import BundleInvariants, HypersurfaceContext, genus_r4
from acmbundles.constraints import c3_from_acm, enumerate_acm_r4
from acmbundles.extensions import (
    BUILTIN_CATALOG,
    POOL_NORMALIZED,
    POOL_STAR,
    STATUS_CURVE,
    STATUS_EXTENSION,
    STATUS_OPEN,
    CatalogParseError,
    GlobalGeneration,
    RankUnsupported,
    UnsupportedDegree,
    catalog,
    coverage_report,
    decompose,
    distinct_quadruples,
    extend_rank2,
    extension_quadruples,
    load_catalog,
)

X3 = HypersurfaceContext(3)
X4 = HypersurfaceContext(4)

# The ten rank-four quadruples produced by star pairs on the quartic.
STAR_QUADRUPLES = {
    (4, 2, 10, 6),
    (4, 2, 11, 7),
    (4, 2, 12, 8),
    (4, 3, 19, 14),
    (4, 3, 20, 16),
    (4, 4, 29, 23),
    (4, 4, 30, 26),
    (4, 4, 32, 32),
    (4, 5, 46, 52),
    (4, 6, 64, 84),
}

REALIZED_K4 = frozenset(
    {(4, 1, 6, 4), (4, 5, 46, 52), (4, 6, 64, 84)}
    | {(4, 2, a, a - 4) for a in (10, 11, 12)}
    | {(4, 3, b, 2 * b - 24) for b in (19, 20)}
    | {(4, 4, c, 3 * c - 64) for c in (29, 30, 32)}
)


def ring_product(r, left, right):
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


class TestCatalog:
    def test_quartic_entries(self):
        entries = catalog(4)
        assert len(entries) == 7
        assert {e.pair for e in entries} == {
            (-1, 1), (0, 2), (1, 3), (1, 4), (1, 5), (2, 8), (3, 14),
        }
        starless = {e.pair for e in entries if not e.satisfies_star}
        assert starless == {(-1, 1), (0, 2), (1, 5)}
        by_pair = {e.pair: e for e in entries}
        assert by_pair[(3, 14)].globally_generated is GlobalGeneration.ALWAYS
        assert by_pair[(2, 8)].globally_generated is GlobalGeneration.GENERIC
        assert all(
            by_pair[p].globally_generated is GlobalGeneration.NO
            for p in by_pair
            if p not in {(3, 14), (2, 8)}
        )

    def test_cubic_entries(self):
        entries = catalog(3)
        assert {e.pair for e in entries} == {(0, 1), (1, 2), (2, 5)}
        assert {e.pair for e in entries if not e.satisfies_star} == {(0, 1)}

    def test_unclassified_degree_rejected(self):
        with pytest.raises(UnsupportedDegree):
            catalog(5)


class TestExtendRank2:
    def test_known_extensions(self):
        assert extend_rank2(X4, (3, 14), (3, 14)) == BundleInvariants(4, 6, 64, 84)
        assert extend_rank2(X4, (3, 14), (2, 8)) == BundleInvariants(4, 5, 46, 52)
        assert extend_rank2(X4, (1, 3), (1, 4)) == BundleInvariants(4, 2, 11, 7)

    def test_cubic_uses_degree_three_cross_term(self):
        assert extend_rank2(X3, (1, 2), (2, 5)) == BundleInvariants(4, 3, 13, 9)

    @given(
        r=st.integers(1, 8),
        e1=st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
        e2=st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
    )
    def test_symmetry(self, r, e1, e2):
        ctx = HypersurfaceContext(r)
        assert extend_rank2(ctx, e1, e2) == extend_rank2(ctx, e2, e1)

    @given(
        r=st.integers(1, 8),
        e1=st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
        e2=st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
    )
    def test_matches_ring_oracle(self, r, e1, e2):
        ctx = HypersurfaceContext(r)
        result = extend_rank2(ctx, e1, e2)
        assert ring_product(r, e1, e2) == (result.c1, result.c2, result.c3)

    def test_catalog_pairs_match_ring_oracle(self):
        for r, ctx in ((3, X3), (4, X4)):
            for a, b in combinations_with_replacement(catalog(r), 2):
                result = extend_rank2(ctx, a.pair, b.pair)
                assert ring_product(r, a.pair, b.pair) == (
                    result.c1, result.c2, result.c3,
                )


class TestExtensionQuadruples:
    def test_star_pool_on_quartic(self):
        witnesses = extension_quadruples(4, require_star=True)
        assert len(witnesses) == 10
        assert {w.result.quadruple() for w in witnesses} == STAR_QUADRUPLES
        assert len(distinct_quadruples(witnesses)) == 10
        assert BundleInvariants(4, 4, 32, 32) in [w.result for w in witnesses]

    def test_sorted_by_result_then_left(self):
        witnesses = extension_quadruples(4, require_star=True)
        keys = [w.sort_key() for w in witnesses]
        assert keys == sorted(keys)

    def test_normalized_pool_is_superset(self):
        witnesses = extension_quadruples(4, require_star=False)
        assert len(witnesses) == 28
        used = {w.left.pair for w in witnesses} | {w.right.pair for w in witnesses}
        assert {(-1, 1), (0, 2), (1, 5)} <= used
        star_results = {w.result.quadruple() for w in extension_quadruples(4, True)}
        assert star_results <= {w.result.quadruple() for w in witnesses}

    def test_cubic_star_pool(self):
        witnesses = extension_quadruples(3, require_star=True)
        assert [w.result.quadruple() for w in witnesses] == [
            (4, 2, 7, 4), (4, 3, 13, 9), (4, 4, 22, 20),
        ]

    def test_unclassified_degree_rejected(self):
        with pytest.raises(UnsupportedDegree):
            extension_quadruples(5)


class TestDecompose:
    def test_known_negative_over_full_catalog(self):
        assert decompose(4, BundleInvariants(4, 1, 6, 4), POOL_NORMALIZED) == []

    def test_unique_witnesses(self):
        found = decompose(4, BundleInvariants(4, 6, 64, 84), POOL_STAR)
        assert [(w.left.pair, w.right.pair) for w in found] == [((3, 14), (3, 14))]
        found = decompose(4, BundleInvariants(4, 4, 30, 26), POOL_STAR)
        assert [(w.left.pair, w.right.pair) for w in found] == [((1, 4), (3, 14))]

    def test_gap_value_needs_starless_class(self):
        # c2 = 31 in the c1 = 4 row: unreachable from star pairs, but the
        # starless (1,5) class does produce it
        target = BundleInvariants(4, 4, 31, 29)
        assert decompose(4, target, POOL_STAR) == []
        found = decompose(4, target, POOL_NORMALIZED)
        assert [(w.left.pair, w.right.pair) for w in found] == [((1, 5), (3, 14))]

    def test_exhaustive_over_witnesses(self):
        for r in (3, 4):
            for require_star, pool in ((True, POOL_STAR), (False, POOL_NORMALIZED)):
                for witness in extension_quadruples(r, require_star):
                    assert witness in decompose(r, witness.result, pool)

    def test_rank_and_degree_errors(self):
        with pytest.raises(RankUnsupported):
            decompose(4, BundleInvariants(3, 1, 5, 2), POOL_STAR)
        with pytest.raises(UnsupportedDegree):
            decompose(5, BundleInvariants(4, 1, 6, 4), POOL_STAR)

    def test_star_only_alias(self):
        found = decompose(4, BundleInvariants(4, 6, 64, 84), "star_only")
        assert len(found) == 1

    def test_witnesses_are_unordered(self):
        # the same pair found through targets built from either order is
        # one and the same witness object value
        small = extend_rank2(X4, (1, 4), (3, 14))
        forward = decompose(4, small, POOL_STAR)
        assert len(forward) == 1
        witness = forward[0]
        assert (witness.left.pair, witness.right.pair) == ((1, 4), (3, 14))
        assert witness.result == extend_rank2(X4, witness.left.pair, witness.right.pair)


class TestCrossModule:
    def test_star_quadruples_are_admissible(self):
        rows = {row.c1: row for row in enumerate_acm_r4(4)}
        for witness in extension_quadruples(4, require_star=True):
            result = witness.result
            row = rows[result.c1]
            assert result.c2 in row.interval
            assert c3_from_acm(4, result.c1, result.c2) == result.c3

    def test_star_quadruples_have_nonnegative_integer_genus(self):
        for witness in extension_quadruples(4, require_star=True):
            genus = genus_r4(witness.result)
            assert genus.denominator == 1
            assert genus >= 0


class TestCoverage:
    def test_rank4_report(self):
        report = coverage_report(4)
        assert len(report.items) == 22
        realized = {item.invariants.quadruple() for item in report.realized()}
        assert realized == REALIZED_K4
        by_quad = {item.invariants.quadruple(): item for item in report.items}
        assert by_quad[(4, 1, 6, 4)].status == STATUS_CURVE
        assert by_quad[(4, 6, 64, 84)].status == STATUS_EXTENSION
        assert by_quad[(4, 2, 8, 4)].status == STATUS_OPEN
        assert by_quad[(4, 6, 64, 84)].origin == "extension: (3,14)+(3,14)"

    def test_rank3_report(self):
        report = coverage_report(3)
        assert len(report.items) == 9
        realized = {item.invariants.quadruple() for item in report.realized()}
        assert realized == {(3, 1, 5, 2)}
        statuses = {item.invariants.quadruple(): item.status for item in report.items}
        assert statuses[(3, 1, 5, 2)] == STATUS_CURVE
        assert statuses[(3, 2, 8, 2)] == STATUS_OPEN
        assert len(report.open_items()) == 8


class TestCatalogFile:
    def test_roundtrip_with_comments_and_blanks(self, tmp_path):
        path = tmp_path / "catalog.txt"
        path.write_text(
            "# hypothetical degree-5 classification\n"
            "5 1 4 1 no\n"
            "5 2 9 0 generic\n"
            "\n"
            "4 3 14 1 always\n",
            encoding="utf-8",
        )
        loaded = load_catalog(path)
        assert loaded.degrees() == (4, 5)
        degree5 = catalog(5, loaded)
        assert [(e.pair, e.satisfies_star) for e in degree5] == [
            ((1, 4), True), ((2, 9), False),
        ]
        assert degree5[1].globally_generated is GlobalGeneration.GENERIC

    def test_override_threads_through_searches(self, tmp_path):
        path = tmp_path / "catalog.txt"
        path.write_text("5 1 4 1 no\n5 2 9 1 no\n", encoding="utf-8")
        loaded = load_catalog(path)
        witnesses = extension_quadruples(5, require_star=True, source=loaded)
        assert len(witnesses) == 3
        target = extend_rank2(HypersurfaceContext(5), (1, 4), (2, 9))
        found = decompose(5, target, POOL_STAR, source=loaded)
        assert [(w.left.pair, w.right.pair) for w in found] == [((1, 4), (2, 9))]

    def test_builtin_unaffected_by_override(self, tmp_path):
        path = tmp_path / "catalog.txt"
        path.write_text("5 1 4 1 no\n", encoding="utf-8")
        load_catalog(path)
        assert len(BUILTIN_CATALOG.entries) == 10

    @pytest.mark.parametrize(
        "content, lineno",
        [
            ("4 1 3 1\n", 1),
            ("4 1 3 1 always\n4 x 3 1 no\n", 2),
            ("4 1 3 2 always\n", 1),
            ("# fine\n4 1 3 1 sometimes\n", 2),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, tmp_path, content, lineno):
        path = tmp_path / "catalog.txt"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(CatalogParseError, match=f"line {lineno}"):
            load_catalog(path)

    @pytest.mark.parametrize(
        "content, lineno",
        [
            (b"\xff 1 3 1 no\n", 1),
            (b"4 1 3 1 no\n4 2 8 1 \xff generic\n", 2),
            (b"# caf\xc3\xa9\r\n\r\n4 1 3 1 no\n\xc3", 4),
        ],
    )
    def test_non_utf8_bytes_carry_line_numbers(self, tmp_path, content, lineno):
        path = tmp_path / "catalog.txt"
        path.write_bytes(content)
        message = f"{path}: line {lineno}: not valid UTF-8"
        with pytest.raises(CatalogParseError, match=re.escape(message)):
            load_catalog(path)
