"""The self-verification suite itself: green on a healthy build, red when a
coefficient is corrupted, and byte-stable between runs."""

import random
from fractions import Fraction

import pytest

from acmbundles import chern, constraints, extensions, selfcheck
from acmbundles.chern import BundleInvariants, NonIntegral


def failures():
    # each failed check's name -> its detail
    return {result.name: result.detail for result in selfcheck.run_all() if not result.passed}


def check_result(name):
    result, = [result for result in selfcheck.run_all() if result.name == name]
    return result


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
    failed = failures()
    assert failed["genus-forms-agree"] == "(3;19,-8,-30)"
    assert failed["acm-genus-composition"] == "(3;19,2,-8470)"
    assert failed["extension-genus"] == "(4;2,10,6): g=19/2"


def test_corrupted_bound_clause_is_caught(monkeypatch):
    real = constraints.c2_interval_r4

    def widened(k, c1):
        lower, upper, lower_tags, upper_tags = real(k, c1)
        return lower, upper + 1, lower_tags, upper_tags

    monkeypatch.setattr(constraints, "c2_interval_r4", widened)
    failed = failures()
    assert "classification-table" in failed
    # the rank-2 row at c1 = 2 now exceeds the hyperplane-section bound
    assert failed["interval-within-general-bound"] == "k=2, c1=2"


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
    # a healthy run first: the ACM sample must be built afresh on every call
    assert not {name for name in failures() if name.startswith("acm-")}
    real = constraints._acm_affine

    def shifted(k, c1):
        (slope, intercept), genus = real(k, c1)
        return (slope, intercept + 2), genus

    monkeypatch.setattr(constraints, "_acm_affine", shifted)
    assert {"acm-chi-twist-vanishing", "classification-table"} <= failures().keys()


def test_repeated_decompose_hit_is_caught(monkeypatch):
    # a witness reported twice is a wrong count, though every hit is genuine
    real = extensions.decompose_rows

    def repeating(*args, **kwargs):
        hits = real(*args, **kwargs)
        return hits[:1] + hits

    monkeypatch.setattr(extensions, "decompose_rows", repeating)
    assert "decompose-exhaustive" in failures()


def test_unexpected_negative_witness_is_caught(monkeypatch):
    # a planted hit for (4,1,6,4) fails the check, which names its pair
    real = extensions.decompose_rows
    planted = {(4, 1, 6, 4): [(1, 6, 4, 0, 2, 1, 4)]}
    monkeypatch.setattr(extensions, "decompose_rows", lambda r, target, *args, **kwargs:
                        planted.get(target) or real(r, target, *args, **kwargs))
    assert check_result("known-negative-decomposition") == (
        "known-negative-decomposition", False, "unexpected witness (0,2)+(1,4)")


@pytest.mark.parametrize("quad, planted", [((4, 1, 6, 4), False), ((3, 2, 8, 2), True)],
                         ids=["dropped", "extra"])
def test_corrupted_curve_evidence_is_caught(monkeypatch, quad, planted):
    # a curve construction lost, or one claimed for an open quadruple,
    # changes the realized set of that rank
    curves = {q: origin for q, origin in extensions.CURVE_REALIZED.items() if q != quad}
    if planted:
        curves[quad] = "curve construction: planted"
    monkeypatch.setattr(extensions, "CURVE_REALIZED", curves)
    result = check_result("coverage-realized")
    assert not result.passed
    assert result.detail.startswith(f"k={quad[0]}: ")


def test_quartic_chi_under_twisting_is_caught(monkeypatch):
    # c1 -> c1 + k n makes c1^4 quartic in n: a nonzero fourth difference
    real = chern.chi_bundle
    monkeypatch.setattr(chern, "chi_bundle", lambda ctx, inv: real(ctx, inv) + inv.c1**4)
    assert "chi-twist-cubic" in failures()


def test_chi_off_z24_is_caught(monkeypatch):
    # a constant shift leaves every fourth difference zero; only the
    # denominator shows it
    real = chern.chi_bundle
    monkeypatch.setattr(chern, "chi_bundle", lambda ctx, inv: real(ctx, inv) + Fraction(1, 48))
    failed = failures()
    assert "Z/24" in failed["chi-twist-cubic"]
    # the ACM sample's closed form chi(E) = -c2 + 2 c1^2 + 2k misses it too
    assert failed["acm-chi-closed-form"] == "(3;19,2,-8470)"


def test_quadratic_c3_drift_in_twist_is_caught(monkeypatch):
    real = chern.twist

    def drifting(ctx, inv, n):
        twisted = real(ctx, inv, n)
        return BundleInvariants(twisted.k, twisted.c1, twisted.c2, twisted.c3 + n * n)

    monkeypatch.setattr(chern, "twist", drifting)
    failed = failures()
    assert failed["twist-roundtrip"] == "r=3, (7;-8,14,27), n=10 -> (7;-8,14,227)"
    assert failed["twist-additive"] == "r=3, (7;-8,14,27), m=10, n=5"


def test_known_negative_pair_count_is_counted(monkeypatch):
    # one class fewer at degree 4: 21 pairs instead of 28
    real = extensions.catalog
    monkeypatch.setattr(extensions, "catalog", lambda r, source=None: real(r, source)[1:])
    assert check_result("known-negative-decomposition") == (
        "known-negative-decomposition", False, "21 pairs")


def test_shifted_line_constant_term_is_caught(monkeypatch):
    real = chern.chi_line_bundle
    monkeypatch.setattr(chern, "chi_line_bundle", lambda ctx, a: real(ctx, a) + 1)
    # chi(O_X) on the degree-1 hypersurface, P^3, is 1
    assert check_result("chi-line-constant-term") == ("chi-line-constant-term", False, "r=1: 2")


def test_fractional_line_chi_is_caught(monkeypatch):
    real = chern.chi_line_bundle
    monkeypatch.setattr(chern, "chi_line_bundle", lambda ctx, a: real(ctx, a)
                        + (Fraction(1, 2) if (ctx.r, a) == (4, 3) else 0))
    assert check_result("chi-line-integral") == ("chi-line-integral", False, "r=4, a=3")


def test_unrefined_rank4_table_is_caught(monkeypatch):
    # the rank-4 rows keep their intervals but claim no completeness
    real = constraints.enumerate_acm_r4
    monkeypatch.setattr(constraints, "enumerate_acm_r4", lambda k: [
        row._replace(provenance=(*row.provenance, constraints.UNREFINED)) if k == 4 else row
        for row in real(k)])
    assert check_result("classification-table") == (
        "classification-table", False, "k=4 flagged unrefined")


def test_shifted_spot_genus_is_caught(monkeypatch):
    # the first spot entry, (3; 1, 5, 2) of genus 2, is named
    real = constraints.genus_from_acm
    monkeypatch.setattr(constraints, "genus_from_acm", lambda k, c1, c2: real(k, c1, c2) + 1)
    assert check_result("classification-table") == (
        "classification-table", False, "genus at (3, 1, 5)")


def test_shifted_genus_slope_form_is_caught(monkeypatch):
    # only the table's (4, 6) row changes its genus form; every spot value holds
    real = constraints.enumerate_acm_r4

    def shifted(k):
        return [row._replace(genus_form=(row.genus_form[0], row.genus_form[1] + 1))
                if (row.k, row.c1) == (4, 6) else row for row in real(k)]

    monkeypatch.setattr(constraints, "enumerate_acm_r4", shifted)
    assert check_result("classification-table") == (
        "classification-table", False, "genus slope form at (4,6,64)")


def skew_extensions(monkeypatch, skewed):
    # extend_rank2's c3 off by one wherever skewed(ctx, e1, e2) holds
    real = extensions.extend_rank2

    def extend(ctx, e1, e2):
        result = real(ctx, e1, e2)
        return result._replace(c3=result.c3 + skewed(ctx, e1, e2))

    monkeypatch.setattr(extensions, "extend_rank2", extend)


def test_catalog_whitney_mismatch_is_caught(monkeypatch):
    # the catalog pairs come first: the first degree-3 pair is named
    skew_extensions(monkeypatch, lambda ctx, e1, e2: ctx.r == 3)
    assert check_result("whitney-oracle") == ("whitney-oracle", False, "r=3, (0, 1)+(0, 1)")


def test_sampled_whitney_mismatch_is_caught(monkeypatch):
    # no catalog has degree 1, so only the sampled pairs see it
    skew_extensions(monkeypatch, lambda ctx, e1, e2: ctx.r == 1)
    assert check_result("whitney-oracle") == (
        "whitney-oracle", False, "r=1, (-18, -23)+(-6, -10)")


def test_asymmetric_extension_is_caught(monkeypatch):
    skew_extensions(monkeypatch, lambda ctx, e1, e2: e1 < e2)
    assert check_result("extension-symmetry") == (
        "extension-symmetry", False, "r=3, (24, 9), (-4, -18)")


def test_inadmissible_star_witness_is_caught(monkeypatch):
    # every listed extension's c3 off by one leaves the admissible table
    real = extensions.extension_rows
    monkeypatch.setattr(extensions, "extension_rows", lambda *args, **kwargs: [
        (c1, c2, c3 + 1, *rest) for c1, c2, c3, *rest in real(*args, **kwargs)])
    assert check_result("star-extensions-admissible") == (
        "star-extensions-admissible", False, "(4;2,10,7)")


def test_coverage_item_count_is_counted(monkeypatch):
    real = extensions.coverage_report
    monkeypatch.setattr(extensions, "coverage_report",
                        lambda k, source=None: real(k, source)[:-1])
    assert check_result("coverage-realized") == ("coverage-realized", False, "k=3: 8 items")


def test_witness_count_is_counted(monkeypatch):
    real = extensions.extension_rows
    monkeypatch.setattr(
        extensions, "extension_rows", lambda *args, **kwargs: real(*args, **kwargs)[1:]
    )
    results = {result.name: result for result in selfcheck.run_all()}
    assert results["star-extensions-admissible"].detail == "9 witnesses"
    assert results["extension-genus"].detail == "9 quadruples"
    assert not results["star-extensions-admissible"].passed
    assert not results["extension-genus"].passed


def test_draws_follow_randint(monkeypatch):
    # every range a run draws from yields randint's stream, so a Python whose
    # randint changes fails here instead of silently changing the sample
    real = selfcheck._draw
    ranges = set()

    def recording(rng, lo, hi):
        ranges.add((lo, hi))
        return real(rng, lo, hi)

    def refused(self, lo, hi):
        raise AssertionError("selfcheck draws ranges through _draw")

    monkeypatch.setattr(selfcheck, "_draw", recording)
    monkeypatch.setattr(random.Random, "randint", refused)
    selfcheck.run_all()
    monkeypatch.undo()
    assert ranges == {
        (1, 8), (2, 8), (-10, 10), (-20, 20), (-30, 30), (-50, 50), (-60, 60), (-80, 80)
    }
    # 100,000 draws from one seed, cycling through those ranges and wider ones
    cycle = [*sorted(ranges), (0, 1), (5, 5), (-10**6, 10**6), (0, 2**40)]
    bounds = [cycle[i % len(cycle)] for i in range(100_000)]
    drawn, expected = random.Random(selfcheck.SEED), random.Random(selfcheck.SEED)
    assert ([real(drawn, lo, hi) for lo, hi in bounds]
            == [expected.randint(lo, hi) for lo, hi in bounds])


def test_context_lookup_follows_choice():
    # for eight items rng.choice draws _randbelow(8), so the lookup by a
    # draw picks what rng.choice over the eight contexts picks
    eight = [chern.HypersurfaceContext(r) for r in range(1, 9)]
    assert selfcheck._CONTEXTS == tuple(eight)
    drawn, twin = random.Random(selfcheck.SEED), random.Random(selfcheck.SEED)
    assert ([selfcheck._CONTEXTS[selfcheck._draw(drawn, 1, 8) - 1] for _ in range(10_000)]
            == [twin.choice(eight) for _ in range(10_000)])


def record_degrees(monkeypatch):
    # the degrees that twist, chi_bundle and extend_rank2 are called with
    seen = {"twist": set(), "chi_bundle": set(), "extend_rank2": set()}

    def recording(module, name):
        real = getattr(module, name)

        def wrapper(ctx, *args):
            seen[name].add(ctx.r)
            return real(ctx, *args)

        monkeypatch.setattr(module, name, wrapper)

    recording(chern, "twist")
    recording(chern, "chi_bundle")
    recording(extensions, "extend_rank2")
    return seen


def test_sampled_checks_reach_every_degree(monkeypatch):
    # an index off by one drops a degree or raises on the last one
    seen = record_degrees(monkeypatch)
    assert all(result.passed for result in selfcheck.run_all())
    assert seen == {name: set(range(1, 9)) for name in seen}


@pytest.mark.parametrize("end, r", [("lo", 1), ("hi", 8)])
def test_degree_draw_picks_that_degree(monkeypatch, end, r):
    # every draw pinned to one end of its range: besides the quartic and the
    # two catalog degrees, the sampled checks see degree 1 or 8 alone, so an
    # index that is off by one, or rotated, shows
    seen = record_degrees(monkeypatch)
    monkeypatch.setattr(selfcheck, "_draw", lambda rng, lo, hi: lo if end == "lo" else hi)
    selfcheck.run_all()
    assert seen == {"twist": {r, 4}, "chi_bundle": {r, 4}, "extend_rank2": {r, 3, 4}}
