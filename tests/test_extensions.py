"""Catalog data, extension arithmetic against a ring oracle, decomposability
search, the coverage report, and the catalog override file format."""

import re
import time
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fraction_oracles import ring_product
from acmbundles.chern import (
    BundleInvariants,
    DomainError,
    HypersurfaceContext,
    chi_bundle,
    genus_r4,
    twist,
)
from acmbundles.extensions import (
    BUILTIN_CATALOG,
    POOL_NORMALIZED,
    POOL_STAR,
    STATUS_CURVE,
    STATUS_EXTENSION,
    STATUS_OPEN,
    Catalog,
    CatalogParseError,
    RankUnsupported,
    UnsupportedDegree,
    catalog,
    coverage_report,
    decompose_rows,
    extend_rank2,
    extension_rows,
    load_catalog,
)

X3 = HypersurfaceContext(3)
X4 = HypersurfaceContext(4)


class TestCatalog:
    def test_quartic_entries(self):
        classes = catalog(4)
        assert len(classes) == 7
        assert {(c1, c2) for c1, c2, _ in classes} == {
            (-1, 1), (0, 2), (1, 3), (1, 4), (1, 5), (2, 8), (3, 14),
        }
        starless = {(c1, c2) for c1, c2, star in classes if not star}
        assert starless == {(-1, 1), (0, 2), (1, 5)}

    def test_cubic_entries(self):
        assert catalog(3) == [(0, 1, False), (1, 2, True), (2, 5, True)]

    def test_unclassified_degree_rejected(self):
        with pytest.raises(UnsupportedDegree):
            catalog(5)

    def test_star_flags_follow_from_riemann_roch(self):
        # star is chi(E(-1)) = 0, the relation that forces c3 on an ACM
        # bundle, and chi(E) >= 2, from h^0(E) >= rank; c3 = 0 at rank two
        for r, c1, c2, star in BUILTIN_CATALOG.entries:
            ctx = HypersurfaceContext(r)
            bundle = BundleInvariants(2, c1, c2, 0)
            derived = chi_bundle(ctx, twist(ctx, bundle, -1)) == 0 and chi_bundle(ctx, bundle) >= 2
            assert star == derived, (r, c1, c2)

    def test_late_repeat_is_found_in_one_pass(self):
        # 100,000 classes, then the first again: a search that rescans the
        # classes before each one takes minutes at this size
        rows = tuple((4, c1, 0, True) for c1 in range(100_000))
        start = time.perf_counter()
        with pytest.raises(DomainError, match=re.escape("catalog repeats the class (4, 0, 0)")):
            Catalog((*rows, rows[0]))
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("bad", [(4, 1, 3), (3, 1, 2, True, "no")], ids=["short", "long"])
    def test_malformed_row_is_named(self, bad):
        # every row is unpacked, so one of another degree is found too
        with pytest.raises(DomainError, match=re.escape(
                f"catalog row {bad} does not have the four fields r, c1, c2, star")):
            Catalog(((4, 2, 8, True), bad, (4, 3)))

    @pytest.mark.parametrize("rows, bad", [
        ((4,), 4),
        ((None,), None),
        (((4, 1, 3, True), 5), 5),
        (((4, 1, 3, True), ([4], 1, 3, True)), ([4], 1, 3, True)),
    ], ids=["int", "none", "int-after-a-row", "unhashable-field"])
    def test_row_that_is_not_a_sequence_is_named(self, rows, bad):
        with pytest.raises(DomainError, match=re.escape(
                f"catalog row {bad!r} is not a sequence of hashable fields")):
            Catalog(rows)

    @pytest.mark.parametrize("entries, name", [
        (5, "int"),
        (iter([(4, 1, 3, True)]), "list_iterator"),
        ([(4, 1, 3, True)], "list"),
    ], ids=["int", "iterator", "list"])
    def test_entries_that_are_not_a_tuple_are_named(self, entries, name):
        # a list would leave the frozen catalog mutable and unhashable
        with pytest.raises(DomainError, match=re.escape(
                f"catalog entries must be a tuple of rows, got {name}")):
            Catalog(entries)


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

    def test_chi_is_additive_on_a_grid(self):
        # Riemann-Roch is additive on extensions: chi(E(n)) = chi(A(n)) +
        # chi(B(n)).  Both sides are polynomials of degree at most 4 in r and
        # 3 in each of a1, a2, b1, b2, n (read off chern's formulas), so five
        # points per axis fix them and agreement there is agreement on every
        # integer point; the last point checks wide integers besides
        axis = range(-2, 3)
        points = [*product(range(1, 6), axis, axis, axis, axis, axis),
                  (7, 10**6 + 3, -10**9, 123_457, 10**12 + 1, -999_983)]
        assert len(points) == 5**6 + 1
        for r, a1, a2, b1, b2, n in points:
            ctx = HypersurfaceContext(r)
            left, right, whole = (chi_bundle(ctx, twist(ctx, inv, n)) for inv in (
                BundleInvariants(2, a1, a2, 0), BundleInvariants(2, b1, b2, 0),
                extend_rank2(ctx, (a1, a2), (b1, b2))))
            assert whole == left + right, (r, a1, a2, b1, b2, n)


def pairs(rows):
    """Each row's (left class, right class)."""
    return [(row[3:5], row[5:7]) for row in rows]


class TestExtensionQuadruples:
    def test_sorted_by_result_then_left(self):
        rows = extension_rows(4, POOL_STAR)
        keys = [(row[:3], row[3:5], row[5:7]) for row in rows]
        assert keys == sorted(keys)
        assert all(left <= right for left, right in pairs(rows))

    def test_normalized_pool_is_superset(self):
        rows = extension_rows(4, POOL_NORMALIZED)
        assert len(rows) == 28
        used = {cls for pair in pairs(rows) for cls in pair}
        assert {(-1, 1), (0, 2), (1, 5)} <= used
        star_results = {row[:3] for row in extension_rows(4, POOL_STAR)}
        assert star_results <= {row[:3] for row in rows}

    def test_cubic_star_pool(self):
        assert [row[:3] for row in extension_rows(3, POOL_STAR)] == [
            (2, 7, 4), (3, 13, 9), (4, 22, 20),
        ]

    def test_unclassified_degree_rejected(self):
        with pytest.raises(UnsupportedDegree):
            extension_rows(5)
        # the degree itself is checked before the catalog is looked up
        with pytest.raises(DomainError, match="hypersurface degree"):
            extension_rows(0)

    @pytest.mark.parametrize("pool", [POOL_STAR, POOL_NORMALIZED])
    def test_rows_carry_the_witnesses(self, pool):
        rows = extension_rows(4, pool)
        # the integers are two classes and their extension
        for row, (left, right) in zip(rows, pairs(rows)):
            assert extend_rank2(X4, left, right) == BundleInvariants(4, *row[:3])
        # one row for each unordered pair of the pool's classes, left <= right
        classes = sorted((c1, c2) for c1, c2, star in catalog(4)
                         if pool == POOL_NORMALIZED or star)
        assert sorted(pairs(rows)) == list(combinations_with_replacement(classes, 2))


class TestDecompose:
    def test_known_negative_over_full_catalog(self):
        assert decompose_rows(4, BundleInvariants(4, 1, 6, 4), POOL_NORMALIZED) == []

    def test_unique_witnesses(self):
        found = decompose_rows(4, BundleInvariants(4, 6, 64, 84), POOL_STAR)
        assert pairs(found) == [((3, 14), (3, 14))]
        found = decompose_rows(4, BundleInvariants(4, 4, 30, 26), POOL_STAR)
        assert pairs(found) == [((1, 4), (3, 14))]

    def test_gap_value_needs_starless_class(self):
        # c2 = 31 in the c1 = 4 row: unreachable from star pairs, but the
        # starless (1,5) class does produce it
        target = BundleInvariants(4, 4, 31, 29)
        assert decompose_rows(4, target, POOL_STAR) == []
        assert pairs(decompose_rows(4, target, POOL_NORMALIZED)) == [((1, 5), (3, 14))]

    def test_rank_and_degree_errors(self):
        with pytest.raises(RankUnsupported):
            decompose_rows(4, BundleInvariants(3, 1, 5, 2), POOL_STAR)
        with pytest.raises(UnsupportedDegree):
            decompose_rows(5, BundleInvariants(4, 1, 6, 4), POOL_STAR)

    @pytest.mark.parametrize("pool", ["star_only", True])
    def test_unknown_pool_rejected(self, pool):
        with pytest.raises(DomainError, match="unknown pool"):
            extension_rows(4, pool)
        with pytest.raises(DomainError, match="unknown pool"):
            decompose_rows(4, BundleInvariants(4, 6, 64, 84), pool)

    def test_witnesses_are_unordered(self):
        # a target built from either order of a pair finds that pair once,
        # with the smaller class on the left
        forward = extend_rank2(X4, (1, 4), (3, 14))
        assert extend_rank2(X4, (3, 14), (1, 4)) == forward
        found = decompose_rows(4, forward, POOL_STAR)
        assert pairs(found) == [((1, 4), (3, 14))]
        assert found[0][:3] == forward[1:]


class TestCrossModule:
    def test_star_quadruples_have_nonnegative_integer_genus(self):
        for c1, c2, c3, *_ in extension_rows(4, POOL_STAR):
            genus = genus_r4(BundleInvariants(4, c1, c2, c3))
            assert genus.denominator == 1
            assert genus >= 0


class TestCoverage:
    def test_rank4_report(self):
        report = coverage_report(4)
        by_quad = {row[:4]: row for row in report}
        assert by_quad[(4, 1, 6, 4)][5] == STATUS_CURVE
        assert by_quad[(4, 2, 8, 4)][5] == STATUS_OPEN
        assert by_quad[(4, 6, 64, 84)] == (4, 6, 64, 84, 203, STATUS_EXTENSION,
                                           "extension: (3,14)+(3,14)",
                                           ((6, 64, 84, 3, 14, 3, 14),))

    def test_rank3_report(self):
        report = coverage_report(3)
        statuses = {row[:4]: row[5] for row in report}
        assert statuses[(3, 1, 5, 2)] == STATUS_CURVE
        assert statuses[(3, 2, 8, 2)] == STATUS_OPEN
        assert sum(row[5] == STATUS_OPEN for row in report) == 8
        assert all(row[7] == () for row in report)


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
        with pytest.raises(UnsupportedDegree, match=r"\(available: 4, 5\)$"):
            catalog(3, loaded)
        assert catalog(5, loaded) == [(1, 4, True), (2, 9, False)]
        assert loaded.entries == ((5, 1, 4, True), (5, 2, 9, False), (4, 3, 14, True))

    def test_override_threads_through_searches(self, tmp_path):
        path = tmp_path / "catalog.txt"
        path.write_text("5 1 4 1 no\n5 2 9 1 no\n", encoding="utf-8")
        loaded = load_catalog(path)
        assert len(extension_rows(5, POOL_STAR, source=loaded)) == 3
        target = extend_rank2(HypersurfaceContext(5), (1, 4), (2, 9))
        found = decompose_rows(5, target, POOL_STAR, source=loaded)
        assert pairs(found) == [((1, 4), (2, 9))]

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

    def test_duplicate_class_is_rejected(self, tmp_path):
        path = tmp_path / "catalog.txt"
        path.write_text("4 1 3 1 no\n# again\n4 2 8 1 no\n4 1 3 0 always\n",
                        encoding="utf-8")
        message = f"{path}: line 4: duplicate class (4, 1, 3), first on line 1"
        with pytest.raises(CatalogParseError, match=re.escape(message)):
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
