"""Cross-module self-verification, runnable from the CLI without the test
suite.  All randomized checks draw from fixed-seed generators so repeated
runs produce byte-identical reports."""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations_with_replacement

from . import chern, constraints, extensions

SEED = 0x5EED
SAMPLE_COUNT = 1000

# Expected enumeration endpoints per rank: (c1, c2 lower, c2 upper).
_EXPECTED_TABLE = {
    3: ((1, 5, 5), (2, 8, 11), (3, 17, 18), (4, 27, 28)),
    4: ((1, 6, 6), (2, 8, 12), (3, 16, 22), (4, 28, 32), (5, 44, 46), (6, 64, 64)),
}

# Spot entries (k, c1, c2, c3, genus) pinned from the classification.
_SPOT_ENTRIES = (
    (3, 1, 5, 2, 2),
    (3, 2, 8, 2, 6),
    (4, 1, 6, 4, 3),
    (4, 5, 46, 52, 119),
    (4, 6, 64, 84, 203),
)

# Every quadruple known to be realized, per rank.
_REALIZED = {
    3: frozenset({(3, 1, 5, 2)}),
    4: frozenset(
        {(4, 1, 6, 4), (4, 5, 46, 52), (4, 6, 64, 84)}
        | {(4, 2, a, a - 4) for a in (10, 11, 12)}
        | {(4, 3, b, 2 * b - 24) for b in (19, 20)}
        | {(4, 4, c, 3 * c - 64) for c in (29, 30, 32)}
    ),
}

_EXPECTED_ITEM_COUNT = {3: 9, 4: 22}
_STAR_WITNESSES = 10  # pairs in the rank-4 star-pool extension listing


CheckResult = namedtuple("CheckResult", "name passed detail")

# the sampled checks pick their degree as _CONTEXTS[_draw(rng, 1, 8) - 1]
_CONTEXTS = tuple(chern.HypersurfaceContext(r) for r in range(1, 9))


def _draw(rng: random.Random, lo: int, hi: int) -> int:
    # the stream of rng.randint(lo, hi): CPython's _randbelow loop, inlined
    n = hi - lo + 1
    bits = n.bit_length()
    value = rng.getrandbits(bits)
    while value >= n:
        value = rng.getrandbits(bits)
    return lo + value


def _rand_invariants(rng: random.Random, kmin: int = 1) -> chern.BundleInvariants:
    return chern.BundleInvariants(
        _draw(rng, kmin, 8),
        _draw(rng, -20, 20),
        _draw(rng, -60, 60),
        _draw(rng, -80, 80),
    )


def _ring_product(r: int, left: tuple[int, int], right: tuple[int, int]) -> tuple[int, int, int]:
    """Independent route for the extension invariants: multiply the total
    classes 1 + c1*H + c2*L in the graded ring with basis (1, H, L, P),
    where H*H = r*L, H*L = P and every product past degree three vanishes.
    """
    x = [1, left[0], left[1], 0]
    y = [1, right[0], right[1], 0]
    out = [0, 0, 0, 0]
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            degree = i + j
            if degree > 3 or xi == 0 or yj == 0:
                continue
            structure = r if (i, j) == (1, 1) else 1
            out[degree] += structure * xi * yj
    return (out[1], out[2], out[3])


def _check_twist_roundtrip(rng: random.Random) -> tuple[bool, str]:
    for _ in range(SAMPLE_COUNT):
        ctx = _CONTEXTS[_draw(rng, 1, 8) - 1]
        inv = _rand_invariants(rng)
        n = _draw(rng, -10, 10)
        back = chern.twist(ctx, chern.twist(ctx, inv, n), -n)
        if back != inv:
            return False, f"r={ctx.r}, {inv}, n={n} -> {back}"
    return True, f"{SAMPLE_COUNT} cases"


def _check_twist_additive(rng: random.Random) -> tuple[bool, str]:
    for _ in range(SAMPLE_COUNT):
        ctx = _CONTEXTS[_draw(rng, 1, 8) - 1]
        inv = _rand_invariants(rng)
        m, n = _draw(rng, -10, 10), _draw(rng, -10, 10)
        stepped = chern.twist(ctx, chern.twist(ctx, inv, m), n)
        direct = chern.twist(ctx, inv, m + n)
        if stepped != direct:
            return False, f"r={ctx.r}, {inv}, m={m}, n={n}"
    return True, f"{SAMPLE_COUNT} cases"


def _check_chi_twist_cubic(rng: random.Random) -> tuple[bool, str]:
    cases = 200
    for _ in range(cases):
        ctx = _CONTEXTS[_draw(rng, 1, 8) - 1]
        inv = _rand_invariants(rng)
        chis = [chern.chi_bundle(ctx, chern.twist(ctx, inv, n)) for n in range(-5, 6)]
        if any(24 % chi.denominator for chi in chis):
            return False, f"chi off Z/24 at r={ctx.r}, {inv}"
        # 24 chi is an integer, so the fourth differences are exact in int
        seq = [chi.numerator * (24 // chi.denominator) for chi in chis]
        if any(
            seq[i] - 4 * seq[i + 1] + 6 * seq[i + 2] - 4 * seq[i + 3] + seq[i + 4]
            for i in range(len(seq) - 4)
        ):
            return False, f"nonzero 4th difference at r={ctx.r}, {inv}"
    return True, f"{cases} cases, n in [-5,5]"


def _check_chi_line_constant_term(rng: random.Random) -> tuple[bool, str]:
    for r in range(1, 11):
        ctx = chern.HypersurfaceContext(r)
        if 24 * chern.chi_line_bundle(ctx, 0) != r * (5 - r) * (r * r - 5 * r + 10):
            return False, f"r={r}: {chern.chi_line_bundle(ctx, 0)}"
    return True, "r in [1,10]"


def _check_chi_line_integral(rng: random.Random) -> tuple[bool, str]:
    for r in range(1, 11):
        ctx = chern.HypersurfaceContext(r)
        for a in range(-10, 11):
            if chern.chi_line_bundle(ctx, a).denominator != 1:
                return False, f"r={r}, a={a}"
    return True, "r in [1,10], a in [-10,10]"


def _check_genus_forms_agree(rng: random.Random) -> tuple[bool, str]:
    for _ in range(SAMPLE_COUNT):
        inv = _rand_invariants(rng, kmin=2)
        if chern.genus_general(constraints.QUARTIC, inv) != chern.genus_r4(inv):
            return False, str(inv)
    return True, f"{SAMPLE_COUNT} cases"


def _check_acm_sample(rng: random.Random) -> tuple[tuple[bool, str], ...]:
    """Three checks on one sample of ACM quadruples, drawn once per call:
    chi(E(-1)) = 0, the closed form of chi(E), and the genus composition,
    one (passed, detail) each.  Each check keeps its own first failure."""
    failures: list[str | None] = [None, None, None]
    quartic = constraints.QUARTIC
    for _ in range(SAMPLE_COUNT):
        k, c1, c2 = _draw(rng, 2, 8), _draw(rng, -20, 20), _draw(rng, -50, 50)
        inv = chern.BundleInvariants(k, c1, c2, constraints.c3_from_acm(k, c1, c2))
        if failures[0] is None:
            value = chern.chi_bundle(quartic, chern.twist(quartic, inv, -1))
            if value != 0:
                failures[0] = f"{inv}: chi(E(-1))={value}"
        if failures[1] is None and chern.chi_bundle(quartic, inv) != -c2 + 2 * c1 * c1 + 2 * k:
            failures[1] = str(inv)
        if failures[2] is None and chern.genus_r4(inv) != constraints.genus_from_acm(k, c1, c2):
            failures[2] = str(inv)
    return tuple((detail is None, detail or f"{SAMPLE_COUNT} cases") for detail in failures)


def _check_interval_within_general_bound(rng: random.Random) -> tuple[bool, str]:
    for k in range(2, 9):
        lo, hi = constraints.c1_bounds(constraints.QUARTIC, k)
        for c1 in range(lo, hi + 1):
            _, upper, _, _ = constraints.c2_interval_r4(k, c1)
            if upper > constraints.c2_upper_general(constraints.QUARTIC, k, c1):
                return False, f"k={k}, c1={c1}"
    return True, "k in [2,8]"


def _check_classification_table(rng: random.Random) -> tuple[bool, str]:
    row_at = {}
    for k, expected in _EXPECTED_TABLE.items():
        rows = constraints.enumerate_acm_r4(k)
        row_at.update(((row.k, row.c1), row) for row in rows)
        got = tuple((row.c1, row.lower, row.upper) for row in rows)
        if got != expected:
            return False, f"k={k}: {got}"
        if any(constraints.UNREFINED in row.provenance for row in rows):
            return False, f"k={k} flagged unrefined"
    for k, c1, c2, c3, genus in _SPOT_ENTRIES:
        if constraints.c3_from_acm(k, c1, c2) != c3:
            return False, f"c3 at {(k, c1, c2)}"
        if constraints.genus_from_acm(k, c1, c2) != genus:
            return False, f"genus at {(k, c1, c2)}"
    # the top rank-4 row prints its genus both as 203 and as a slope form
    slope, intercept = row_at[4, 6].genus_form
    if slope * 64 + intercept != 203:
        return False, "genus slope form at (4,6,64)"
    return True, "10 rows, 5 spot entries"


def _check_whitney_oracle(rng: random.Random) -> tuple[bool, str]:
    cases = 0
    for r in (3, 4):
        ctx = chern.HypersurfaceContext(r)
        classes = [(c1, c2) for c1, c2, _ in extensions.catalog(r)]
        for a, b in combinations_with_replacement(classes, 2):
            direct = extensions.extend_rank2(ctx, a, b)
            if _ring_product(r, a, b) != (direct.c1, direct.c2, direct.c3):
                return False, f"r={r}, {a}+{b}"
            cases += 1
    for _ in range(500):
        ctx = _CONTEXTS[_draw(rng, 1, 8) - 1]
        e1 = (_draw(rng, -30, 30), _draw(rng, -30, 30))
        e2 = (_draw(rng, -30, 30), _draw(rng, -30, 30))
        direct = extensions.extend_rank2(ctx, e1, e2)
        if _ring_product(ctx.r, e1, e2) != (direct.c1, direct.c2, direct.c3):
            return False, f"r={ctx.r}, {e1}+{e2}"
        cases += 1
    return True, f"{cases} cases"


def _check_extension_symmetry(rng: random.Random) -> tuple[bool, str]:
    for _ in range(500):
        ctx = _CONTEXTS[_draw(rng, 1, 8) - 1]
        e1 = (_draw(rng, -30, 30), _draw(rng, -30, 30))
        e2 = (_draw(rng, -30, 30), _draw(rng, -30, 30))
        if extensions.extend_rank2(ctx, e1, e2) != extensions.extend_rank2(ctx, e2, e1):
            return False, f"r={ctx.r}, {e1}, {e2}"
    return True, "500 cases"


def _check_star_extensions_admissible(rng: random.Random) -> tuple[bool, str]:
    admissible = {(row.c1, c2, c3)
                  for row in constraints.enumerate_acm_r4(4) for c2, c3, _ in row.entries}
    witnesses = extensions.extension_rows(4, extensions.POOL_STAR)
    for c1, c2, c3, *_ in witnesses:
        if (c1, c2, c3) not in admissible:
            return False, f"(4;{c1},{c2},{c3})"
    count = len(witnesses)
    return count == _STAR_WITNESSES, f"{count} witnesses"


def _check_decompose_exhaustive(rng: random.Random) -> tuple[bool, str]:
    cases = 0
    for r in (3, 4):
        for pool in (extensions.POOL_STAR, extensions.POOL_NORMALIZED):
            # decompose_rows must return exactly the listing's slice for a
            # quadruple: every pair once, no extra pair, the same order
            by_quadruple: dict[tuple[int, ...], list[tuple]] = {}
            for row in extensions.extension_rows(r, pool):
                by_quadruple.setdefault((4, *row[:3]), []).append(row)
            for quad, expected in by_quadruple.items():
                found = extensions.decompose_rows(r, chern.BundleInvariants(*quad), pool)
                if found != expected:
                    return False, f"r={r}, {pool}, {quad}"
                cases += len(expected)
    return True, f"{cases} witnesses"


def _check_extension_genus(rng: random.Random) -> tuple[bool, str]:
    witnesses = extensions.extension_rows(4, extensions.POOL_STAR)
    for c1, c2, c3, *_ in witnesses:
        genus = chern.genus_r4(chern.BundleInvariants(4, c1, c2, c3))
        if genus.denominator != 1 or genus < 0:
            return False, f"(4;{c1},{c2},{c3}): g={genus}"
    count = len(witnesses)
    return count == _STAR_WITNESSES, f"{count} quadruples"


def _check_coverage_realized(rng: random.Random) -> tuple[bool, str]:
    for k in (3, 4):
        report = extensions.coverage_report(k)
        if len(report) != _EXPECTED_ITEM_COUNT[k]:
            return False, f"k={k}: {len(report)} items"
        realized = {row[:4] for row in report if row[5] != extensions.STATUS_OPEN}
        if realized != _REALIZED[k]:
            return False, f"k={k}: {sorted(realized)}"
    return True, "ranks 3 and 4"


def _check_known_negative_decomposition(rng: random.Random) -> tuple[bool, str]:
    target = chern.BundleInvariants(4, 1, 6, 4)
    pairs = len(list(combinations_with_replacement(extensions.catalog(4), 2)))
    hits = extensions.decompose_rows(4, target, extensions.POOL_NORMALIZED)
    if pairs != 28:
        return False, f"{pairs} pairs"
    if hits:
        return False, "unexpected witness ({},{})+({},{})".format(*hits[0][3:])
    return True, "28 pairs, no witness"


# (check, *names): each check returns (passed, detail) for its one name,
# and the ACM sample check one such pair for each of its three names
_CHECKS = (
    (_check_twist_roundtrip, "twist-roundtrip"),
    (_check_twist_additive, "twist-additive"),
    (_check_chi_twist_cubic, "chi-twist-cubic"),
    (_check_chi_line_constant_term, "chi-line-constant-term"),
    (_check_chi_line_integral, "chi-line-integral"),
    (_check_genus_forms_agree, "genus-forms-agree"),
    (_check_acm_sample,
     "acm-chi-twist-vanishing", "acm-chi-closed-form", "acm-genus-composition"),
    (_check_interval_within_general_bound, "interval-within-general-bound"),
    (_check_classification_table, "classification-table"),
    (_check_whitney_oracle, "whitney-oracle"),
    (_check_extension_symmetry, "extension-symmetry"),
    (_check_star_extensions_admissible, "star-extensions-admissible"),
    (_check_decompose_exhaustive, "decompose-exhaustive"),
    (_check_extension_genus, "extension-genus"),
    (_check_coverage_realized, "coverage-realized"),
    (_check_known_negative_decomposition, "known-negative-decomposition"),
)


def run_all() -> list[CheckResult]:
    """Run every check with a fresh RNG seeded ``SEED`` each, in a fixed
    order; nothing is kept between calls."""
    import random  # here, so importing the CLI does not load it
    results = []
    for check, *names in _CHECKS:
        outcome = check(random.Random(SEED))
        outcomes = outcome if len(names) > 1 else [outcome]
        results += [CheckResult(name, *pair) for name, pair in zip(names, outcomes)]
    return results
