"""Exactness guarantees, Riemann-Roch values, twisting, and genus formulas."""

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from acmbundles.chern import (
    BundleInvariants,
    DomainError,
    HypersurfaceContext,
    chi_bundle,
    chi_line_bundle,
    genus_general,
    genus_r4,
    twist,
)
from acmbundles.extensions import Catalog

X4 = HypersurfaceContext(4)


def chi_p4(m: int) -> Fraction:
    # chi of O(m) on P^4 as a polynomial in m: (m+1)(m+2)(m+3)(m+4)/24
    return Fraction((m + 1) * (m + 2) * (m + 3) * (m + 4), 24)


def chi_line_via_restriction(r: int, a: int) -> Fraction:
    # independent route: the restriction sequence of a degree-r hypersurface
    # gives chi(O_X(a)) = chi(O_P4(a)) - chi(O_P4(a-r))
    return chi_p4(a) - chi_p4(a - r)


invariants = st.builds(
    BundleInvariants,
    k=st.integers(1, 8),
    c1=st.integers(-20, 20),
    c2=st.integers(-60, 60),
    c3=st.integers(-80, 80),
)
rank2plus = st.builds(
    BundleInvariants,
    k=st.integers(2, 8),
    c1=st.integers(-20, 20),
    c2=st.integers(-60, 60),
    c3=st.integers(-80, 80),
)
contexts = st.integers(1, 8).map(HypersurfaceContext)


class TestDomainTypes:
    def test_context_rejects_degree_zero(self):
        with pytest.raises(DomainError):
            HypersurfaceContext(0)

    def test_bundle_invariants_rank(self):
        inv = BundleInvariants(3, 1, 5, 2)
        assert tuple(inv) == (3, 1, 5, 2)
        assert str(inv) == "(3;1,5,2)"
        with pytest.raises(DomainError):
            BundleInvariants(0, 1, 5, 2)

    def test_value_types_are_checked_named_tuples(self):
        # keyword reprs, no assignment, a checked _replace, and a record
        # equals its tuple
        inv = twist(X4, BundleInvariants(4, 1, 6, 4), -1)
        source = Catalog(((4, 1, 3, True),))
        assert repr(inv) == "BundleInvariants(k=4, c1=-3, c2=18, c3=-12)"
        assert repr(X4) == "HypersurfaceContext(r=4)"
        assert repr(source) == "Catalog(entries=((4, 1, 3, True),))"
        assert inv == BundleInvariants(k=4, c1=-3, c2=18, c3=-12)
        assert inv != BundleInvariants(4, -3, 18, -11)
        assert inv == (4, -3, 18, -12)
        assert hash(inv) == hash((4, -3, 18, -12))
        assert (X4, hash(X4)) == (HypersurfaceContext(4), hash((4,)))
        for value, field in ((inv, "c2"), (inv, "k"), (X4, "r"), (source, "entries"),
                             (inv, "rank")):
            with pytest.raises(AttributeError):
                setattr(value, field, 0)
        for bad in ({"k": 0}, {"k": -2}):
            with pytest.raises(DomainError, match=f"rank must be >= 1, got {bad['k']}"):
                inv._replace(**bad)
        for value, bad, message in (
                (X4, {"r": -1}, "hypersurface degree must be >= 1, got -1"),
                (source, {"entries": [(4, 1, 3, True)]}, "catalog entries must be a tuple"),
                (source, {"entries": ((4, 1, 3, True),) * 2}, "catalog repeats the class")):
            with pytest.raises(DomainError, match=re.escape(message)):
                value._replace(**bad)
        assert inv._replace(c3=5) == BundleInvariants(4, -3, 18, 5)
        assert X4._replace(r=3) == HypersurfaceContext(3)
        assert inv._fields == ("k", "c1", "c2", "c3")
        assert (X4._fields, source._fields) == (("r",), ("entries",))


class TestChiLineBundle:
    def test_spot_values_on_quartic(self):
        assert chi_line_bundle(X4, 0) == 1
        assert chi_line_bundle(X4, 1) == 5
        assert chi_line_bundle(X4, -1) == -1

    def test_matches_restriction_oracle(self):
        for r in range(1, 11):
            ctx = HypersurfaceContext(r)
            for a in range(-10, 11):
                assert chi_line_bundle(ctx, a) == chi_line_via_restriction(r, a)

    def test_constant_term(self):
        for r in range(1, 11):
            expected = Fraction(r * (5 - r) * (r * r - 5 * r + 10), 24)
            assert chi_line_bundle(HypersurfaceContext(r), 0) == expected


class TestChiBundle:
    def test_trivial_invariants_give_rank(self):
        for k in range(1, 7):
            assert chi_bundle(X4, BundleInvariants(k, 0, 0, 0)) == k

    def test_acm_example(self):
        # chi of the rank-four quadruple forced by the c1 = 1 case: equals
        # -c2 + 2 c1^2 + 2k = -6 + 2 + 8
        assert chi_bundle(X4, BundleInvariants(4, 1, 6, 4)) == 4


class TestTwist:
    def test_zero_is_identity(self):
        inv = BundleInvariants(3, 1, 5, 2)
        assert twist(X4, inv, 0) == inv

    def test_hand_computed_example(self):
        inv = BundleInvariants(3, 1, 5, 2)
        up = twist(X4, inv, 1)
        assert up == BundleInvariants(3, 4, 25, 15)
        assert twist(X4, up, -1) == inv

    @given(ctx=contexts, inv=invariants, n=st.integers(-10, 10))
    def test_roundtrip(self, ctx, inv, n):
        assert twist(ctx, twist(ctx, inv, n), -n) == inv

    @given(ctx=contexts, inv=invariants, m=st.integers(-10, 10), n=st.integers(-10, 10))
    def test_additive_action(self, ctx, inv, m, n):
        assert twist(ctx, twist(ctx, inv, m), n) == twist(ctx, inv, m + n)

    @given(ctx=contexts, inv=invariants)
    def test_chi_of_twist_is_cubic_in_n(self, ctx, inv):
        seq = [chi_bundle(ctx, twist(ctx, inv, n)) for n in range(-5, 6)]
        for i in range(len(seq) - 4):
            fourth = seq[i] - 4 * seq[i + 1] + 6 * seq[i + 2] - 4 * seq[i + 3] + seq[i + 4]
            assert fourth == 0


class TestGenus:
    def test_quartic_form_spot_values(self):
        assert genus_r4(BundleInvariants(4, 1, 6, 4)) == 3
        assert genus_r4(BundleInvariants(3, 2, 8, 2)) == 6

    def test_rank_one_rejected(self):
        with pytest.raises(DomainError):
            genus_general(X4, BundleInvariants(1, 1, 0, 0))

    @given(inv=rank2plus)
    def test_general_form_agrees_on_quartic(self, inv):
        assert genus_general(X4, inv) == genus_r4(inv)

    @given(
        k=st.integers(1, 8),
        c2=st.integers(-60, 60),
        c3=st.integers(-80, 80),
    )
    def test_c1_one_collapses_to_half_c3(self, k, c2, c3):
        assert genus_r4(BundleInvariants(k, 1, c2, c3)) == 1 + Fraction(c3, 2)
