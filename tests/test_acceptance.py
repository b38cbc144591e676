"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
directly to the terminal (bypassing capture) and asserting at the stated
tolerance.  Every tolerance here is exact/zero; the property block (criterion
5) must finish in under five seconds total and criterion 1 in under 0.1 s.

Run with: pytest tests/test_acceptance.py -v
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

from fraction_oracles import ring_product
from acmbundles import cli
from acmbundles.chern import (
    BundleInvariants,
    HypersurfaceContext,
    chi_bundle,
    chi_line_bundle,
    genus_general,
    genus_r4,
    twist,
)
from acmbundles.constraints import (
    QUARTIC,
    c3_from_acm,
    enumerate_acm_r4,
    genus_from_acm,
)
from acmbundles.extensions import (
    POOL_NORMALIZED,
    POOL_STAR,
    STATUS_OPEN,
    catalog,
    coverage_report,
    decompose_rows,
    extend_rank2,
    extension_rows,
)

GOLDEN = Path(__file__).parent / "golden"

EXPECTED_STAR_QUADRUPLES = {
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

EXPECTED_REALIZED = {
    3: frozenset({(3, 1, 5, 2)}),
    4: frozenset(
        {(4, 1, 6, 4), (4, 5, 46, 52), (4, 6, 64, 84)}
        | {(4, 2, a, a - 4) for a in (10, 11, 12)}
        | {(4, 3, b, 2 * b - 24) for b in (19, 20)}
        | {(4, 4, c, 3 * c - 64) for c in (29, 30, 32)}
    ),
}

# accumulated wall-clock seconds of the criterion-5 parts, checked at the end
_PROPERTY_SECONDS = []


def _verdict(capsys, label, ok):
    with capsys.disabled():
        print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {label}"


def _sample_acm_triples(seed, count=1000):
    rng = random.Random(seed)
    return [
        (rng.randint(2, 8), rng.randint(-20, 20), rng.randint(-50, 50))
        for _ in range(count)
    ]


def test_criterion_1_table_reproduction(capsys):
    start = time.perf_counter()
    code3 = cli.main(["enumerate", "--k", "3"])
    out3 = capsys.readouterr().out
    code4 = cli.main(["enumerate", "--k", "4"])
    out4 = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    golden3 = (GOLDEN / "enumerate_k3.txt").read_text(encoding="utf-8")
    golden4 = (GOLDEN / "enumerate_k4.txt").read_text(encoding="utf-8")
    ok = (
        code3 == 0
        and code4 == 0
        and out3 == golden3
        and out4 == golden4
        and len(out3.splitlines()) == 1 + 4
        and len(out4.splitlines()) == 1 + 6
        and elapsed < 0.1
    )
    _verdict(capsys, "1 classification-table reproduction", ok)


def test_criterion_2_extension_coverage(capsys):
    witnesses = extension_rows(4, POOL_STAR)
    quadruples = {(4, *row[:3]) for row in witnesses}
    code = cli.main(["extensions", "--r", "4", "--pool", "star", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    cli_quadruples = {
        (res["result"]["k"], res["result"]["c1"],
         res["result"]["c2"], res["result"]["c3"])
        for res in payload["results"]
    }
    ok = (
        len(witnesses) == 10
        and quadruples == EXPECTED_STAR_QUADRUPLES
        and code == 0
        and cli_quadruples == EXPECTED_STAR_QUADRUPLES
    )
    _verdict(capsys, "2 extension coverage", ok)


def test_criterion_3_negative_decomposability(capsys):
    pair_count = len(list(combinations_with_replacement(catalog(4), 2)))
    hits = decompose_rows(4, BundleInvariants(4, 1, 6, 4), POOL_NORMALIZED)
    code = cli.main(
        ["decompose", "--r", "4", "--target", "4,1,6,4", "--pool", "normalized"]
    )
    out = capsys.readouterr().out
    ok = pair_count == 28 and hits == [] and code == 0 and out == "no decomposition\n"
    _verdict(capsys, "3 negative decomposability", ok)


def test_criterion_4_genus_spot_values(capsys):
    ok = (
        genus_general(QUARTIC, BundleInvariants(4, 6, 64, 84)) == 203
        and genus_general(QUARTIC, BundleInvariants(4, 1, 6, 4)) == 3
        and genus_general(QUARTIC, BundleInvariants(3, 1, 5, 2)) == 2
    )
    _verdict(capsys, "4 genus spot values", ok)


def test_criterion_5a_twist_group_action(capsys):
    start = time.perf_counter()
    rng = random.Random(501)
    ok = True
    for _ in range(1000):
        ctx = HypersurfaceContext(rng.randint(1, 8))
        inv = BundleInvariants(
            rng.randint(1, 8), rng.randint(-20, 20),
            rng.randint(-60, 60), rng.randint(-80, 80),
        )
        m, n = rng.randint(-10, 10), rng.randint(-10, 10)
        if twist(ctx, twist(ctx, inv, m), n) != twist(ctx, inv, m + n):
            ok = False
            break
    _PROPERTY_SECONDS.append(time.perf_counter() - start)
    _verdict(capsys, "5a twist group action", ok)


def test_criterion_5b_forced_c3_kills_chi_at_minus_one(capsys):
    start = time.perf_counter()
    ok = True
    for k, c1, c2 in _sample_acm_triples(502):
        inv = BundleInvariants(k, c1, c2, c3_from_acm(k, c1, c2))
        if chi_bundle(QUARTIC, twist(QUARTIC, inv, -1)) != 0:
            ok = False
            break
    _PROPERTY_SECONDS.append(time.perf_counter() - start)
    _verdict(capsys, "5b forced c3 gives chi(E(-1)) = 0", ok)


def test_criterion_5c_chi_closed_form(capsys):
    start = time.perf_counter()
    ok = True
    for k, c1, c2 in _sample_acm_triples(502):
        inv = BundleInvariants(k, c1, c2, c3_from_acm(k, c1, c2))
        if chi_bundle(QUARTIC, inv) != -c2 + 2 * c1 * c1 + 2 * k:
            ok = False
            break
    _PROPERTY_SECONDS.append(time.perf_counter() - start)
    _verdict(capsys, "5c chi closed form", ok)


def test_criterion_5d_genus_formula_coherence(capsys):
    start = time.perf_counter()
    rng = random.Random(504)
    ok = True
    for _ in range(1000):
        inv = BundleInvariants(
            rng.randint(2, 8), rng.randint(-20, 20),
            rng.randint(-60, 60), rng.randint(-80, 80),
        )
        if genus_general(QUARTIC, inv) != genus_r4(inv):
            ok = False
            break
    for k, c1, c2 in _sample_acm_triples(502):
        inv = BundleInvariants(k, c1, c2, c3_from_acm(k, c1, c2))
        if genus_r4(inv) != genus_from_acm(k, c1, c2):
            ok = False
            break
    _PROPERTY_SECONDS.append(time.perf_counter() - start)
    _verdict(capsys, "5d genus formula coherence", ok)


def test_criterion_5e_line_bundle_integrality(capsys):
    start = time.perf_counter()
    ok = all(
        chi_line_bundle(HypersurfaceContext(r), a).denominator == 1
        for r in range(1, 11)
        for a in range(-10, 11)
    )
    _PROPERTY_SECONDS.append(time.perf_counter() - start)
    _verdict(capsys, "5e line-bundle chi integrality", ok)


def test_criterion_5f_whitney_oracle(capsys):
    # independent route: multiply total classes in the cohomology ring
    start = time.perf_counter()
    ok = True
    for r in (3, 4):
        ctx = HypersurfaceContext(r)
        classes = [(c1, c2) for c1, c2, _ in catalog(r)]
        for a, b in combinations_with_replacement(classes, 2):
            result = extend_rank2(ctx, a, b)
            if ring_product(r, a, b) != (result.c1, result.c2, result.c3):
                ok = False
    rng = random.Random(506)
    for _ in range(500):
        r = rng.randint(1, 8)
        ctx = HypersurfaceContext(r)
        e1 = (rng.randint(-30, 30), rng.randint(-30, 30))
        e2 = (rng.randint(-30, 30), rng.randint(-30, 30))
        result = extend_rank2(ctx, e1, e2)
        if ring_product(r, e1, e2) != (result.c1, result.c2, result.c3):
            ok = False
            break
    _PROPERTY_SECONDS.append(time.perf_counter() - start)
    _verdict(capsys, "5f Whitney-sum ring oracle", ok)


def test_criterion_5_total_runtime(capsys):
    ok = len(_PROPERTY_SECONDS) == 6 and sum(_PROPERTY_SECONDS) < 5.0
    _verdict(
        capsys,
        f"5 property suite runtime ({sum(_PROPERTY_SECONDS):.2f}s)",
        ok,
    )


def test_criterion_6_cross_module_containment(capsys):
    admissible = {(row.c1, c2, c3) for row in enumerate_acm_r4(4) for c2, c3, _ in row.entries}
    contained = all(row[:3] in admissible for row in extension_rows(4, POOL_STAR))

    labels_ok = True
    for k in (3, 4):
        report = coverage_report(k)
        realized = {row[:4] for row in report if row[5] != STATUS_OPEN}
        if realized != EXPECTED_REALIZED[k]:
            labels_ok = False
        for row in report:
            expected_open = row[:4] not in EXPECTED_REALIZED[k]
            if expected_open != (row[5] == STATUS_OPEN):
                labels_ok = False
    counts_ok = len(coverage_report(4)) == 22 and len(coverage_report(3)) == 9
    _verdict(capsys, "6 cross-module containment", contained and labels_ok and counts_ok)
