"""Reference answers for every query the benchmark sends.

Nothing here imports acmbundles: each formula is transcribed again from the
paper (as integer numerators over a common denominator where the library
uses Fraction coefficients), the built-in rank-two classification is copied
as data, and outputs are rebuilt with the standard library only.  The
checkers compare the program's stdout byte for byte with the expected text,
chunk by chunk, so no second copy of a large output is held in memory.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations_with_replacement

SCHEMA_VERSION = 1

# The paper's rank-two classification on cubic (r=3) and quartic (r=4)
# threefolds: (c1, c2, satisfies star), in the library's catalog order.
BUILTIN_CLASSES = {
    3: ((0, 1, False), (1, 2, True), (2, 5, True)),
    4: ((-1, 1, False), (0, 2, False), (1, 3, True), (1, 4, True),
        (1, 5, False), (2, 8, True), (3, 14, True)),
}

# Quadruples realized by explicit curve constructions in the paper.
CURVE_ORIGINS = {
    (4, 1, 6, 4): (
        "curve construction: projectively normal sextic of genus 3 "
        "inside a hyperplane section"
    ),
    (3, 1, 5, 2): (
        "curve construction: quintic of genus 2 (type (2,3) on a quadric) "
        "inside a hyperplane section"
    ),
}

SELFCHECK_COUNT = 18

_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)


# ---------------------------------------------------------------- formulas

def chi_line(r: int, a: int) -> Fraction:
    """chi(O_X(a)) on a degree-r threefold, over the denominator 24."""
    theta = (r - 5) ** 2 + r * r - 5 * r + 10
    return Fraction(
        4 * r * a**3 + 6 * r * (5 - r) * a * a + 2 * r * theta * a
        + r * (5 - r) * (r * r - 5 * r + 10),
        24,
    )


def chi_bundle(r: int, k: int, c1: int, c2: int, c3: int) -> Fraction:
    """Riemann-Roch for a rank-k bundle (k; c1, c2, c3), over 24."""
    theta = (r - 5) ** 2 + r * r - 5 * r + 10
    return Fraction(
        4 * r * c1**3 - 12 * c1 * c2 + 12 * c3 + 6 * r * (5 - r) * c1 * c1
        - 12 * (5 - r) * c2 + 2 * r * theta * c1
        + r * k * (5 - r) * (r * r - 5 * r + 10),
        24,
    )


def twist(r: int, k: int, c1: int, c2: int, c3: int, n: int) -> tuple[int, int, int, int]:
    """Invariants of E(n) with every binomial coefficient an integer."""
    return (
        k,
        c1 + k * n,
        c2 + r * n * (k - 1) * c1 + r * n * n * (k * (k - 1) // 2),
        c3 + (k - 2) * n * c2 + ((k - 1) * (k - 2) // 2) * n * n * r * c1
        + (k * (k - 1) * (k - 2) // 6) * r * n**3,
    )


def genus(r: int, c1: int, c2: int, c3: int) -> Fraction:
    """Genus of the dependency-locus curve, over the denominator 24."""
    return Fraction(
        -60 * c2 + 12 * c1 * c2 + 12 * c3 + 50 * r + 12 * r * c2
        - 35 * r * r + 10 * r**3 - r**4,
        24,
    )


def _exact_third(numerator: int) -> int:
    quotient, remainder = divmod(numerator, 3)
    if remainder:
        raise AssertionError(f"closed form {numerator}/3 is not integral")
    return quotient


def acm_c3_affine(k: int, c1: int) -> tuple[int, int]:
    """(slope, intercept) of the quartic ACM c3 as a function of c2."""
    return c1 - 1, _exact_third(-4 * c1**3 + 6 * c1 * c1 - 14 * c1 + 6 * k)


def acm_genus_affine(k: int, c1: int) -> tuple[int, int]:
    """(slope, intercept) of the quartic ACM genus as a function of c2."""
    return c1 - 1, _exact_third(-2 * c1**3 + 3 * c1 * c1 - 7 * c1 + 3 + 3 * k)


def c2_clauses(k: int, c1: int) -> tuple[int, int, list[str], list[str]]:
    """The c2 window on the quartic from each bound clause, with the tags of
    the clauses that set each endpoint."""
    refined = k in (3, 4)
    if refined and c1 == 1:
        return k + 2, k + 2, ["exact:c1-one"], ["exact:c1-one"]
    lowers = [(2 * c1 * c1 - 2 * c1 + k, "lower:base")]
    uppers = [(2 * c1 * c1 - 4 * c1 + 4 * k, "upper:restriction"),
              (2 * c1 * c1 + k, "upper:sections")]
    if refined and c1 > 1:
        lowers.append((2 * c1 * c1 - 4 * c1 + 8, "lower:above-one"))
    if k == 3 and c1 >= 3:
        lowers.append((2 * c1 * c1 - 4 * c1 + 11, "lower:rank3"))
        uppers.append((2 * c1 * c1 - 4 * c1 + 12, "upper:rank3"))
    lower = max(v for v, _ in lowers)
    upper = min(v for v, _ in uppers)
    return (lower, upper, [t for v, t in lowers if v == lower],
            [t for v, t in uppers if v == upper])


def table_rows(k: int):
    """Yield (c1, lower, upper, provenance, c3 affine, genus affine) for every
    c1 in 1..floor(3k/2) on the quartic."""
    for c1 in range(1, 3 * k // 2 + 1):
        lower, upper, lower_tags, upper_tags = c2_clauses(k, c1)
        tags = lower_tags + [t for t in upper_tags if t not in lower_tags]
        if k not in (3, 4):
            tags.append("unrefined")
        yield c1, lower, upper, tags, acm_c3_affine(k, c1), acm_genus_affine(k, c1)


def admissible(k: int):
    """Yield (k, c1, c2, c3, genus) for every admissible quartic entry."""
    for c1, lower, upper, _, (s3, i3), (sg, ig) in table_rows(k):
        for c2 in range(lower, upper + 1):
            yield k, c1, c2, s3 * c2 + i3, sg * c2 + ig


def extend(r: int, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int, int, int]:
    """Whitney sum of two rank-two classes (c1', c2') and (c1'', c2'')."""
    return 4, a[0] + b[0], a[1] + r * a[0] * b[0] + b[1], a[1] * b[0] + a[0] * b[1]


def pool_pairs(classes, pool: str) -> list[tuple[int, int]]:
    """(c1, c2) of the classes in ``pool``, in catalog order."""
    return [(c1, c2) for c1, c2, star in classes if pool == "normalized" or star]


def all_witnesses(r: int, pairs: list[tuple[int, int]]) -> list[tuple]:
    """Every unordered pair (repetition allowed) as (quadruple, left, right),
    left <= right, sorted the way the program lists them."""
    out = []
    for a, b in combinations_with_replacement(pairs, 2):
        if b < a:
            a, b = b, a
        out.append((extend(r, a, b), a, b))
    out.sort()
    return out


# -------------------------------------------------------------- rendering

def rational_doc(value: Fraction) -> dict:
    return {"numerator": value.numerator, "denominator": value.denominator,
            "value": str(value)}


def bundle_doc(quad) -> dict:
    k, c1, c2, c3 = quad
    return {"k": k, "c1": c1, "c2": c2, "c3": c3}


def pair_doc(pair) -> dict:
    return {"c1": pair[0], "c2": pair[1]}


def pair_text(pair) -> str:
    return f"({pair[0]},{pair[1]})"


def quad_text(quad) -> str:
    return f"({quad[0]};{quad[1]},{quad[2]},{quad[3]})"


def csv_line(fields) -> str:
    cells = []
    for field in fields:
        cell = str(field)
        if any(ch in cell for ch in ',"\r\n'):
            cell = '"' + cell.replace('"', '""') + '"'
        cells.append(cell)
    return ",".join(cells) + "\n"


def column_lines(rows: list[list[str]]):
    widths = [max(len(cell) for cell in column) for column in zip(*rows)]
    for row in rows:
        yield "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n"


def affine_text(slope: int, intercept: int) -> str:
    if slope == 0:
        return str(intercept)
    head = "c2" if slope == 1 else f"{slope}c2"
    if intercept > 0:
        return f"{head}+{intercept}"
    if intercept < 0:
        return f"{head}-{-intercept}"
    return head


# --------------------------------------------------------------- checking

def match_chunks(out: str, chunks) -> str | None:
    """None when ``out`` is exactly the concatenation of ``chunks``."""
    pos = 0
    for chunk in chunks:
        if not out.startswith(chunk, pos):
            line = out.count("\n", 0, pos) + 1
            return f"output differs at line {line}: expected {chunk[:60]!r}"
        pos += len(chunk)
    if pos != len(out):
        return f"unexpected trailing output {out[pos:pos + 60]!r}"
    return None


def match_json(out: str, command: str, inputs: dict, results) -> str | None:
    """Check a schema-v1 document field by field against ``results`` (any
    iterable of result objects), then check that ``out`` is its canonical
    serialization: sorted keys, two-space indent, one trailing newline."""
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return f"invalid JSON: {exc}"
    head = {"schema_version": SCHEMA_VERSION, "command": command, "inputs": inputs}
    if not isinstance(doc, dict) or set(doc) != set(head) | {"results"}:
        return "wrong top-level keys"
    for key, value in head.items():
        if doc[key] != value:
            return f"{key}: expected {value!r}, got {doc[key]!r}"
    got = doc["results"]
    count = 0
    for want in results:
        if count >= len(got) or got[count] != want:
            return f"result {count}: expected {want!r}"
        count += 1
    if count != len(got):
        return f"{len(got)} results, expected {count}"
    return match_chunks(out, _canonical_chunks(doc))


def _canonical_chunks(doc):
    yield from _ENCODER.iterencode(doc)
    yield "\n"


# ------------------------------------------------------- expected outputs
# Each ``expect_*`` returns a function (stdout) -> error message or None.

def expect_text(text: str):
    return lambda out: match_chunks(out, (text,))


def expect_chi_line(r: int, a: int, fmt: str):
    value = chi_line(r, a)
    if fmt == "json":
        inputs = {"r": r, "mode": "line", "a": a}
        return lambda out: match_json(out, "chi", inputs, [rational_doc(value)])
    if fmt == "csv":
        return expect_text(csv_line(["r", "a", "chi"]) + csv_line([r, a, value]))
    return expect_text(f"{value}\n")


def expect_chi_bundle(r: int, quad, fmt: str):
    value = chi_bundle(r, *quad)
    if fmt == "json":
        inputs = {"r": r, "mode": "bundle", "bundle": bundle_doc(quad)}
        return lambda out: match_json(out, "chi", inputs, [rational_doc(value)])
    if fmt == "csv":
        return expect_text(csv_line(["r", "k", "c1", "c2", "c3", "chi"])
                           + csv_line([r, *quad, value]))
    return expect_text(f"{value}\n")


def expect_twist(r: int, quad, n: int, fmt: str):
    result = twist(r, *quad, n)
    if fmt == "json":
        inputs = {"r": r, "bundle": bundle_doc(quad), "n": n}
        return lambda out: match_json(out, "twist", inputs, [bundle_doc(result)])
    if fmt == "csv":
        return expect_text(csv_line(["k", "c1", "c2", "c3"]) + csv_line(result))
    return expect_text(",".join(map(str, result)) + "\n")


def expect_genus(r: int, quad, fmt: str):
    value = genus(r, *quad[1:])
    if fmt == "json":
        inputs = {"r": r, "bundle": bundle_doc(quad)}
        return lambda out: match_json(out, "genus", inputs, [rational_doc(value)])
    if fmt == "csv":
        return expect_text(csv_line(["r", "k", "c1", "c2", "c3", "genus"])
                           + csv_line([r, *quad, value]))
    return expect_text(f"{value}\n")


def _enumerate_table(k: int):
    rows = [["k", "c1", "c2", "c3", "g"]]
    for c1, lower, upper, _, c3_form, g_form in table_rows(k):
        if lower > upper:
            rows.append([str(k), str(c1), "(empty)", "-", "-"])
        elif lower == upper:
            rows.append([str(k), str(c1), str(lower),
                         str(c3_form[0] * lower + c3_form[1]),
                         str(g_form[0] * lower + g_form[1])])
        else:
            rows.append([str(k), str(c1), f"[{lower},{upper}]",
                         affine_text(*c3_form), affine_text(*g_form)])
    return column_lines(rows)


def _enumerate_csv(k: int):
    yield csv_line(["k", "c1", "c2", "c3", "g"])
    for entry in admissible(k):
        yield csv_line(entry)


def _enumerate_results(k: int):
    for c1, lower, upper, tags, (s3, i3), (sg, ig) in table_rows(k):
        c2_values = list(range(lower, upper + 1))
        yield {
            "k": k, "c1": c1, "lower": lower, "upper": upper,
            "empty": lower > upper, "c2_values": c2_values,
            "entries": [{"c2": c2, "c3": s3 * c2 + i3, "genus": sg * c2 + ig}
                        for c2 in c2_values],
            "provenance": tags,
        }


def expect_enumerate(k: int, fmt: str, golden: str | None = None):
    if fmt == "json":
        return lambda out: match_json(out, "enumerate", {"k": k}, _enumerate_results(k))
    if fmt == "csv":
        return lambda out: match_chunks(out, _enumerate_csv(k))

    def check(out):
        if golden is not None and out != golden:
            return "differs from the committed golden table"
        return match_chunks(out, _enumerate_table(k))
    return check


_WITNESS_CSV_HEADER = ["left_c1", "left_c2", "right_c1", "right_c2", "k", "c1", "c2", "c3"]


# One witness inside "results" of a canonical document (sorted keys, indent
# 2).  Formatting it directly keeps the check of a 45,000-witness listing
# far cheaper than the query; the standard encoder would not be.
_WITNESS_JSON = (
    '    {{\n      "left": {{\n        "c1": {},\n        "c2": {}\n      }},\n'
    '      "result": {{\n        "c1": {},\n        "c2": {},\n        "c3": {},\n'
    '        "k": {}\n      }},\n'
    '      "right": {{\n        "c1": {},\n        "c2": {}\n      }}\n    }}'
)


def _witness_json(command: str, inputs: dict, witnesses):
    doc = {"schema_version": SCHEMA_VERSION, "command": command, "inputs": inputs}
    if not witnesses:
        yield _ENCODER.encode({**doc, "results": []}) + "\n"
        return
    head, tail = _ENCODER.encode({**doc, "results": ["@"]}).split('    "@"')
    yield head
    for index, ((k, c1, c2, c3), left, right) in enumerate(witnesses):
        if index:
            yield ",\n"
        yield _WITNESS_JSON.format(left[0], left[1], c1, c2, c3, k, right[0], right[1])
    yield tail + "\n"


def _witness_csv(witnesses):
    yield csv_line(_WITNESS_CSV_HEADER)
    for quad, left, right in witnesses:
        yield csv_line([*left, *right, *quad])


def expect_extensions(r: int, pool: str, catalog: str | None, witnesses, fmt: str):
    """``witnesses`` is the full sorted list from :func:`all_witnesses`."""
    if fmt == "json":
        inputs = {"r": r, "pool": pool, "catalog": catalog}
        return lambda out: match_chunks(out, _witness_json("extensions", inputs, witnesses))
    if fmt == "csv":
        return lambda out: match_chunks(out, _witness_csv(witnesses))

    def table():
        rows = [["left", "right", "result"]]
        rows += [[pair_text(l), pair_text(rt), quad_text(q)] for q, l, rt in witnesses]
        return column_lines(rows)
    return lambda out: match_chunks(out, table())


def expect_decompose(r: int, target, pool: str, catalog: str | None, witnesses, fmt: str):
    """``witnesses`` are the sorted (quadruple, left, right) hits for target."""
    if fmt == "json":
        inputs = {"r": r, "target": bundle_doc(target), "pool": pool,
                  "expect_witness": False, "catalog": catalog}
        return lambda out: match_chunks(out, _witness_json("decompose", inputs, witnesses))
    if fmt == "csv":
        return expect_text("".join(_witness_csv(witnesses)))
    if not witnesses:
        return expect_text("no decomposition\n")
    return expect_text("".join(
        f"{pair_text(l)}+{pair_text(rt)} -> {quad_text(q)}\n" for q, l, rt in witnesses))


def coverage_items(k: int, star_pairs_r4: list[tuple[int, int]]):
    """(quadruple, genus, status, origin, witnesses) for each admissible
    rank-k quartic quadruple; extension evidence only at rank four."""
    by_quad: dict = {}
    if k == 4:
        for w in all_witnesses(4, star_pairs_r4):
            by_quad.setdefault(w[0], []).append(w)
    for k_, c1, c2, c3, g in admissible(k):
        quad = (k_, c1, c2, c3)
        found = by_quad.get(quad, [])
        if found:
            origin = "extension: " + "; ".join(
                f"{pair_text(l)}+{pair_text(rt)}" for _, l, rt in found)
            yield quad, g, "realized-by-extension", origin, found
        elif quad in CURVE_ORIGINS:
            yield quad, g, "realized-by-curve", CURVE_ORIGINS[quad], []
        else:
            yield quad, g, "open", "", []


def expect_coverage(k: int, catalog: str | None, star_pairs_r4, fmt: str):
    items = list(coverage_items(k, star_pairs_r4))
    header = ["k", "c1", "c2", "c3", "g", "status", "origin"]
    if fmt == "json":
        results = [
            {"k": q[0], "c1": q[1], "c2": q[2], "c3": q[3], "genus": g,
             "status": status, "origin": origin,
             "witnesses": [{"left": pair_doc(l), "right": pair_doc(rt)}
                           for _, l, rt in found]}
            for q, g, status, origin, found in items
        ]
        inputs = {"k": k, "catalog": catalog}
        return lambda out: match_json(out, "coverage", inputs, results)
    if fmt == "csv":
        return expect_text(csv_line(header) + "".join(
            csv_line([*q, g, status, origin]) for q, g, status, origin, _ in items))
    rows = [header] + [[*map(str, q), str(g), status, origin or "-"]
                       for q, g, status, origin, _ in items]
    return expect_text("".join(column_lines(rows)))


def expect_selfcheck(fmt: str):
    """All checks pass; the names themselves are not pinned."""
    n = SELFCHECK_COUNT

    def check(out):
        if fmt == "json":
            try:
                doc = json.loads(out)
            except ValueError as exc:
                return f"invalid JSON: {exc}"
            results = doc.get("results", [])
            if doc.get("command") != "selfcheck" or len(results) != n:
                return f"expected {n} selfcheck results"
            if not all(item.get("passed") is True for item in results):
                return "a selfcheck result did not pass"
            return None
        lines = out.splitlines()
        if fmt == "csv":
            if lines[:1] != ["name,passed,detail"] or len(lines) != n + 1:
                return f"expected a header and {n} selfcheck rows"
            if not all(line.split(",")[1] == "true" for line in lines[1:]):
                return "a selfcheck row did not pass"
            return None
        passes = [line for line in lines if line.startswith("PASS ")]
        if len(passes) != n or lines[-1:] != [f"{n} checks: {n} passed, 0 failed"]:
            return f"expected {n} PASS lines and a clean summary"
        return None
    return check
