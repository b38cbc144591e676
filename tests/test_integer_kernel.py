"""The integer-numerator kernel against the Fraction transcriptions of the
paper's formulas: equal in value and in type, over every rank, degree and
sign of the inputs, and on every entry of the quartic tables."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracles as oracle
from acmbundles import chern, constraints
from acmbundles.chern import BundleInvariants, HypersurfaceContext


def same(value, expected) -> bool:
    """Equal, of the same type, and a Fraction only in lowest terms."""
    if type(value) is not type(expected) or value != expected:
        return False
    if isinstance(value, Fraction):
        return value.denominator > 0 and gcd(value.numerator, value.denominator) == 1
    return True


def same_bundle(value: BundleInvariants, expected: BundleInvariants) -> bool:
    return all(same(a, b) for a, b in zip(value.quadruple(), expected.quadruple()))


def test_chi_line_bundle_grid():
    for r in range(1, 11):
        ctx = HypersurfaceContext(r)
        for a in range(-30, 31):
            assert same(chern.chi_line_bundle(ctx, a), oracle.chi_line_bundle(ctx, a))


signed = st.integers(-10**6, 10**6)


@settings(max_examples=300, deadline=None)
@given(
    r=st.integers(1, 10),
    k=st.integers(1, 8),
    c1=st.one_of(st.integers(-12, 12), signed),
    c2=st.one_of(st.integers(-40, 40), signed),
    c3=st.one_of(st.integers(-40, 40), signed),
)
def test_kernel_matches_fraction_oracle(r, k, c1, c2, c3):
    ctx = HypersurfaceContext(r)
    inv = BundleInvariants(k, c1, c2, c3)
    assert same(chern.chi_line_bundle(ctx, c1), oracle.chi_line_bundle(ctx, c1))
    assert same(chern.chi_bundle(ctx, inv), oracle.chi_bundle(ctx, inv))
    for n in range(-10, 11):
        assert same_bundle(chern.twist(ctx, inv, n), oracle.twist(ctx, inv, n))
    if k >= 2:
        assert same(chern.genus_general(ctx, inv), oracle.genus_general(ctx, inv))
    assert same(chern.genus_r4(inv), oracle.genus_r4(inv))
    assert same(constraints.c3_from_acm(k, c1, c2), oracle.c3_from_acm(k, c1, c2))
    assert same(constraints.genus_from_acm(k, c1, c2), oracle.genus_from_acm(k, c1, c2))


def test_enumeration_entries_match_fraction_oracle():
    for k in range(2, 41):
        for row in constraints.enumerate_acm_r4(k):
            for entry in row.entries:
                assert same(entry.c3, oracle.c3_from_acm(k, row.c1, entry.c2))
                assert same(entry.genus, oracle.genus_from_acm(k, row.c1, entry.c2))
