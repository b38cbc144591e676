"""Bound clauses, closed forms, and the admissible-row enumeration."""

import warnings
from fractions import Fraction

import pytest

import bound_oracles as oracle
from oracles import c2_clauses
from acmbundles import constraints
from acmbundles.chern import (
    BundleInvariants,
    DomainError,
    HypersurfaceContext,
    chi_bundle,
    genus_r4,
    twist,
)
from acmbundles.constraints import (
    EXACT_C1_ONE,
    LOWER_ABOVE_ONE,
    LOWER_BASE,
    LOWER_RANK3,
    QUARTIC,
    UNREFINED,
    UPPER_RANK3,
    UPPER_RESTRICTION,
    UPPER_SECTIONS,
    EnumerationRow,
    c1_bounds,
    c2_interval_r4,
    c2_upper_general,
    c3_from_acm,
    enumerate_acm_r4,
    genus_from_acm,
)
from acmbundles.extensions import CURVE_REALIZED


class TestC1Bounds:
    def test_known_ranges(self):
        assert c1_bounds(QUARTIC, 4) == (1, 6)
        assert c1_bounds(QUARTIC, 3) == (1, 4)
        assert c1_bounds(HypersurfaceContext(3), 2) == (1, 2)

    def test_rank_below_two_rejected(self):
        with pytest.raises(DomainError):
            c1_bounds(QUARTIC, 1)


class TestC2UpperGeneral:
    def test_known_values(self):
        assert c2_upper_general(QUARTIC, 4, 3) == 22
        assert c2_upper_general(QUARTIC, 3, 2) == 12
        assert c2_upper_general(HypersurfaceContext(3), 2, 2) == 5

    def test_never_fractional_for_integer_inputs(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r in range(1, 9):
                ctx = HypersurfaceContext(r)
                for k in range(2, 9):
                    for c1 in range(1, 13):
                        assert isinstance(c2_upper_general(ctx, k, c1), int)


class TestClosedForms:
    def test_c3_spot_values(self):
        assert c3_from_acm(3, 1, 5) == 2
        assert c3_from_acm(4, 6, 64) == 84

    def test_c3_linear_row(self):
        for c2 in range(16, 23):
            assert c3_from_acm(4, 3, c2) == 2 * c2 - 24

    def test_genus_spot_values(self):
        assert genus_from_acm(4, 1, 6) == 3
        assert genus_from_acm(3, 2, 8) == 6
        assert genus_from_acm(4, 5, 46) == 119


class TestC2Interval:
    def test_endpoint_tags(self):
        # tags come in clause order; every clause attaining an endpoint is listed
        expected = {
            (3, 1): ((EXACT_C1_ONE,), (EXACT_C1_ONE,)),
            (3, 3): ((LOWER_RANK3,), (UPPER_RESTRICTION, UPPER_RANK3)),
            (4, 2): ((LOWER_BASE, LOWER_ABOVE_ONE), (UPPER_SECTIONS,)),
            (4, 6): ((LOWER_BASE,), (UPPER_RESTRICTION,)),
        }
        for (k, c1), tags in expected.items():
            assert c2_interval_r4(k, c1)[2:] == tags, (k, c1)

    def test_tags_match_clause_oracle(self):
        # the per-side tags of every window, refined ranks or not, against
        # the library-free transcription of the clauses
        for k in range(2, 151):
            for c1 in range(-2, 3 * k // 2 + 3):
                lower, upper, lower_tags, upper_tags = c2_clauses(k, c1)
                assert c2_interval_r4(k, c1) == (
                    lower, upper, tuple(lower_tags), tuple(upper_tags)), (k, c1)

    def test_rank_two_gets_generic_clauses_only(self):
        # without the c1 = 1 override, rank 2 keeps the whole window [2, 4]
        assert c2_interval_r4(2, 1)[:2] == (2, 4)

    def test_upper_never_exceeds_general_bound(self):
        for k in range(2, 9):
            lo, hi = c1_bounds(QUARTIC, k)
            for c1 in range(lo, hi + 1):
                _, upper, _, _ = c2_interval_r4(k, c1)
                assert upper <= c2_upper_general(QUARTIC, k, c1)

    def test_emptiness_is_representable(self):
        # just past the top of c1_bounds the rank-4 window is empty, and a
        # row over it has no points
        lower, upper, _, _ = c2_interval_r4(4, 7)
        assert (lower, upper) == (88, 86)
        row = EnumerationRow(4, 7, lower, upper, (6, 0), (6, 0), ())
        assert row.entries == ()

    def test_no_enumerated_row_is_empty(self):
        # c2_interval_r4 is empty past the top of c1_bounds, never inside it
        for k in range(2, 201):
            assert all(row.lower <= row.upper for row in enumerate_acm_r4(k)), k

    def test_rank_below_two_rejected(self):
        with pytest.raises(DomainError):
            c2_interval_r4(1, 1)


class TestEnumeration:
    def test_rank3_rows(self):
        rows = enumerate_acm_r4(3)
        assert [(row.c1, row.lower, row.upper) for row in rows] == [
            (1, 5, 5), (2, 8, 11), (3, 17, 18), (4, 27, 28),
        ]
        assert rows[0].entries[0] == (5, 2, 2)

    def test_rank4_rows(self):
        rows = enumerate_acm_r4(4)
        assert [(row.c1, row.lower, row.upper) for row in rows] == [
            (1, 6, 6), (2, 8, 12), (3, 16, 22), (4, 28, 32), (5, 44, 46), (6, 64, 64),
        ]
        assert rows[-1].entries[0] == (64, 84, 203)
        c1_three = rows[2]
        assert [c2 for c2, _, _ in c1_three.entries] == list(range(16, 23))
        assert [c3 for _, c3, _ in c1_three.entries] == [8, 10, 12, 14, 16, 18, 20]
        assert [genus for _, _, genus in c1_three.entries] == [21, 23, 25, 27, 29, 31, 33]

    def test_rows_satisfy_defining_relations(self):
        for k in (3, 4):
            for row in enumerate_acm_r4(k):
                for c2, c3, genus in row.entries:
                    inv = BundleInvariants(k, row.c1, c2, c3)
                    assert chi_bundle(QUARTIC, twist(QUARTIC, inv, -1)) == 0
                    assert chi_bundle(QUARTIC, inv) == -c2 + 2 * row.c1**2 + 2 * k
                    assert genus_r4(inv) == genus

    def test_refined_ranks_not_flagged(self):
        for k in (3, 4):
            for row in enumerate_acm_r4(k):
                assert UNREFINED not in row.provenance

    def test_rank_two_is_unrefined_superset_of_catalog(self):
        rows = {row.c1: row for row in enumerate_acm_r4(2)}
        for c1, c2 in [(1, 3), (1, 4), (2, 8), (3, 14)]:
            assert rows[c1].lower <= c2 <= rows[c1].upper
        for row in rows.values():
            assert UNREFINED in row.provenance

    def test_rows_match_pointwise_oracle(self):
        for k in range(2, 13):
            rows = enumerate_acm_r4(k)
            lo, hi = c1_bounds(QUARTIC, k)
            assert [row.c1 for row in rows] == list(range(lo, hi + 1))
            for row in rows:
                expected = [c2 for c2 in oracle.window(k, row.c1)
                            if oracle.admissible(k, row.c1, c2)]
                assert list(range(row.lower, row.upper + 1)) == expected, (k, row.c1)

    def test_genus_within_castelnuovo_bound(self):
        # a cell's curve, the dependency locus of k - 1 general sections, has
        # degree c2 and genus g; if smooth and connected and spanning P^n,
        # g <= pi(c2, n); the cells over pi(c2, 4) lie in a hyperplane
        assert [oracle.castelnuovo(d, 2) for d in range(1, 8)] == [
            (d - 1) * (d - 2) // 2 for d in range(1, 8)]
        assert [oracle.castelnuovo(d, 3) for d in range(1, 9)] == [0, 0, 0, 1, 2, 4, 6, 9]
        cells = {(k, row.c1, c2): genus for k in range(2, 13)
                 for row in enumerate_acm_r4(k) for c2, _, genus in row.entries}
        over = {n: {cell for cell, genus in cells.items()
                    if genus > oracle.castelnuovo(cell[2], n)} for n in (3, 4)}
        refined = {cell for cell in cells if cell[0] in (3, 4)}
        assert len(refined) == 9 + 22
        assert over[3] == {(2, 1, 2), (2, 1, 3), (5, 1, 5), (6, 1, 6)}
        assert over[4] & refined == {(3, 1, 5), (3, 2, 8), (4, 1, 6), (4, 2, 8), (4, 2, 9)}
        assert {quadruple[:3] for quadruple in CURVE_REALIZED} <= over[4]

    def test_restriction_tag_appears_at_tight_rows(self):
        rows = {row.c1: row for row in enumerate_acm_r4(4)}
        assert UPPER_RESTRICTION in rows[6].provenance


def _sections_bound(k: int, c1: int):
    # chi(E) >= k, from h^0(E) >= k, with c3 forced by c3_from_acm: chi is
    # affine in c2, so the largest c2 it allows is where chi(E) = k
    def chi(c2):
        return chi_bundle(QUARTIC, BundleInvariants(k, c1, c2, c3_from_acm(k, c1, c2)))
    slope = chi(1) - chi(0)
    assert slope < 0 and chi(2) - chi(1) == slope
    return (k - chi(0)) / slope


def _restriction_bound(k: int, c1: int):
    return c2_upper_general(QUARTIC, k, c1)


def _fit(bound):
    """(q, a, b, d) with bound(k, c1) = q c1^2 + a c1 + b k + d, interpolated
    exactly at four points and then checked on a grid."""
    base = bound(2, 0)
    q = Fraction(bound(2, 2) - 2 * bound(2, 1) + base, 2)
    a = bound(2, 1) - base - q
    b = bound(3, 0) - base
    d = base - 2 * b
    assert all(bound(k, c1) == q * c1 * c1 + a * c1 + b * k + d
               for k in range(2, 9) for c1 in range(-5, 9))
    return q, a, b, d


class TestDerivedClauses:
    # two rows of the clause table recovered from the kernels, sharing no
    # coefficient with it; every clause bounds c2 by 2c1^2 + a c1 + b k + d
    @pytest.mark.parametrize("tag, bound", [(UPPER_SECTIONS, _sections_bound),
                                            (UPPER_RESTRICTION, _restriction_bound)])
    def test_row_matches_its_kernel(self, tag, bound):
        (row,) = [row for row in constraints._C2_CLAUSES if row[0] == tag]
        q, a, b, d = _fit(bound)
        assert q == 2
        assert row[1:] == ("upper", None, None, a, b, d)
