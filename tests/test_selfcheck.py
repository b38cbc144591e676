"""The self-verification suite itself: green on a healthy build, red when a
coefficient is corrupted, and byte-stable between runs."""

from fractions import Fraction

import pytest

from acmbundles import chern, constraints, selfcheck
from acmbundles.chern import BundleInvariants, NonIntegral


def test_all_checks_pass():
    results = selfcheck.run_all()
    assert len(results) >= 12
    names = [result.name for result in results]
    assert len(names) == len(set(names))
    assert all(result.passed for result in results), [
        result for result in results if not result.passed
    ]


def test_runs_are_deterministic():
    assert selfcheck.run_all() == selfcheck.run_all()


def test_corrupted_genus_coefficient_is_caught(monkeypatch):
    real = chern.genus_r4

    def skewed(inv):
        return real(inv) + Fraction(1, 2)

    monkeypatch.setattr(chern, "genus_r4", skewed)
    failed = [result for result in selfcheck.run_all() if not result.passed]
    assert failed


def test_corrupted_bound_clause_is_caught(monkeypatch):
    real = constraints.c2_interval_r4

    def widened(k, c1):
        interval = real(k, c1)
        return constraints.C2Interval(
            interval.lower, interval.upper + 1,
            interval.lower_tags, interval.upper_tags,
        )

    monkeypatch.setattr(constraints, "c2_interval_r4", widened)
    failed = {result.name for result in selfcheck.run_all() if not result.passed}
    assert "classification-table" in failed


def corrupt_numerators(monkeypatch, module):
    # every exact division in ``module`` sees its numerator off by one
    real = chern._divide_exact

    def off_by_one(numerator, denominator, context):
        return real(numerator + 1, denominator, context)

    monkeypatch.setattr(module, "_divide_exact", off_by_one)


def test_corrupted_acm_numerator_trips_the_guard(monkeypatch):
    corrupt_numerators(monkeypatch, constraints)
    with pytest.raises(NonIntegral, match="quartic ACM c3") as excinfo:
        constraints.c3_from_acm(4, 3, 16)
    # row (4, 3) has c3 = 2 c2 - 24; the guard reports c3 at c2 = 0
    assert excinfo.value.value == Fraction(-24 * 3 + 1, 3)
    with pytest.raises(NonIntegral, match="quartic ACM c3"):
        constraints.enumerate_acm_r4(4)


def test_corrupted_twist_numerator_trips_the_guard(monkeypatch):
    corrupt_numerators(monkeypatch, chern)
    with pytest.raises(NonIntegral, match="twisted c2") as excinfo:
        chern.twist(constraints.QUARTIC, BundleInvariants(4, 1, 6, 4), 1)
    # c2 + r n (k-1) (c1 + n k / 2) = 6 + 12 * 3, plus the corruption's 1/2
    assert excinfo.value.value == Fraction(2 * 42 + 1, 2)


def test_corrupted_acm_row_is_caught(monkeypatch):
    real = constraints._acm_affine

    def shifted(k, c1):
        (slope, intercept), genus = real(k, c1)
        return (slope, intercept + 2), genus

    monkeypatch.setattr(constraints, "_acm_affine", shifted)
    failed = {result.name for result in selfcheck.run_all() if not result.passed}
    assert {"acm-chi-twist-vanishing", "classification-table"} <= failed
