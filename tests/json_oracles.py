"""Whole-document ``json.dumps`` and ``csv.writer`` renderings of the CLI's
outputs, and ``str``-built witness tables, kept as test oracles for the
record templates in ``cli``.

``cli`` writes schema-v1 JSON from fixed per-record templates, ``enumerate``'s
CSV from each row's c3/genus forms, and the ``extensions`` listing in every
format from integer rows.  These builders instead make the dict tree, the
CSV rows and the table cells the obvious way, from ``row.entries``, the
library's values and the rows of the exhaustive pair scan in
``pair_oracles``, and serialize them with the standard library, so a slip
in a template (a key out of order, a missing comma, a wrong indent, an
unescaped string, a cell in the wrong column) or in the listing itself
shows as a byte mismatch.
"""

from __future__ import annotations

import csv
import io
import json

import pair_oracles
from acmbundles import constraints, extensions
from acmbundles.chern import (
    BundleInvariants,
    HypersurfaceContext,
    chi_bundle,
    chi_line_bundle,
    genus_general,
    twist,
)

SCHEMA_VERSION = 1


def document(command: str, inputs: dict, results: list) -> str:
    """The canonical schema-v1 document, as ``cli`` prints it."""
    doc = {"schema_version": SCHEMA_VERSION, "command": command,
           "inputs": inputs, "results": results}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def bundle_dict(inv: BundleInvariants) -> dict:
    return {"k": inv.k, "c1": inv.c1, "c2": inv.c2, "c3": inv.c3}


def result(row: tuple) -> BundleInvariants:
    """The extension a row records."""
    return BundleInvariants(4, *row[:3])


def pair_dict(row: tuple) -> dict:
    _, _, _, left_c1, left_c2, right_c1, right_c2 = row
    return {"left": {"c1": left_c1, "c2": left_c2},
            "right": {"c1": right_c1, "c2": right_c2}}


def pair_texts(row: tuple) -> list[str]:
    return [str(row[3:5]).replace(" ", ""), str(row[5:7]).replace(" ", "")]


def witness_dicts(rows) -> list[dict]:
    return [{**pair_dict(row), "result": bundle_dict(result(row))} for row in rows]


def rational_dict(value) -> dict:
    return {"numerator": value.numerator, "denominator": value.denominator,
            "value": str(value)}


def chi_line_json(r: int, a: int) -> str:
    value = chi_line_bundle(HypersurfaceContext(r), a)
    return document("chi", {"r": r, "mode": "line", "a": a}, [rational_dict(value)])


def chi_bundle_json(r: int, inv: BundleInvariants) -> str:
    value = chi_bundle(HypersurfaceContext(r), inv)
    inputs = {"r": r, "mode": "bundle", "bundle": bundle_dict(inv)}
    return document("chi", inputs, [rational_dict(value)])


def genus_json(r: int, inv: BundleInvariants) -> str:
    value = genus_general(HypersurfaceContext(r), inv)
    return document("genus", {"r": r, "bundle": bundle_dict(inv)}, [rational_dict(value)])


def twist_json(r: int, inv: BundleInvariants, n: int) -> str:
    result = twist(HypersurfaceContext(r), inv, n)
    return document("twist", {"r": r, "bundle": bundle_dict(inv), "n": n},
                    [bundle_dict(result)])


def selfcheck_json(results) -> str:
    return document("selfcheck", {}, [
        {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results])


def enumerate_json(k: int) -> str:
    results = [
        {"k": row.k, "c1": row.c1, "lower": row.interval.lower,
         "upper": row.interval.upper, "empty": row.is_empty,
         "c2_values": row.c2_values, "provenance": list(row.provenance),
         "entries": [{"c2": e.c2, "c3": e.c3, "genus": e.genus}
                     for e in row.entries]}
        for row in constraints.enumerate_acm_r4(k)
    ]
    return document("enumerate", {"k": k}, results)


def csv_text(rows: list[list]) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def enumerate_csv(k: int) -> str:
    return csv_text([["k", "c1", "c2", "c3", "g"]]
                    + [[row.k, row.c1, e.c2, e.c3, e.genus]
                       for row in constraints.enumerate_acm_r4(k) for e in row.entries])


def witness_csv(rows) -> str:
    return csv_text([["left_c1", "left_c2", "right_c1", "right_c2", "k", "c1", "c2", "c3"]]
                    + [[*row[3:], *result(row).quadruple()] for row in rows])


def _source(path: str | None) -> extensions.Catalog | None:
    return None if path is None else extensions.load_catalog(path)


def _extensions(r: int, pool: str, path: str | None):
    return pair_oracles.extension_rows(r, pool, source=_source(path))


def extensions_json(r: int, pool: str, path: str | None) -> str:
    return document("extensions", {"r": r, "pool": pool, "catalog": path},
                    witness_dicts(_extensions(r, pool, path)))


def extensions_csv(r: int, pool: str, path: str | None) -> str:
    return witness_csv(_extensions(r, pool, path))


def extensions_table(r: int, pool: str, path: str | None) -> str:
    cells = [["left", "right", "result"]] + [
        [*pair_texts(row), str(result(row))] for row in _extensions(r, pool, path)]
    widths = [max(len(cell) for cell in column) for column in zip(*cells)]
    return "".join("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
                   + "\n" for row in cells)


def _decompose(r: int, target: BundleInvariants, pool: str, path: str | None):
    return pair_oracles.decompose(r, target, pool, source=_source(path))


def decompose_json(r: int, target: BundleInvariants, pool: str,
                   path: str | None) -> str:
    inputs = {"r": r, "target": bundle_dict(target), "pool": pool,
              "expect_witness": False, "catalog": path}
    return document("decompose", inputs, witness_dicts(_decompose(r, target, pool, path)))


def decompose_csv(r: int, target: BundleInvariants, pool: str,
                  path: str | None) -> str:
    return witness_csv(_decompose(r, target, pool, path))


def decompose_table(r: int, target: BundleInvariants, pool: str,
                    path: str | None) -> str:
    return "".join("+".join(pair_texts(row)) + f" -> {result(row)}\n"
                   for row in _decompose(r, target, pool, path)) \
        or "no decomposition\n"


def coverage_json(k: int, path: str | None) -> str:
    items = extensions.coverage_report(k, source=_source(path)).items
    results = [
        {**bundle_dict(item.invariants), "genus": item.genus,
         "status": item.status, "origin": item.origin,
         "witnesses": [pair_dict(row) for row in item.witnesses]}
        for item in items
    ]
    return document("coverage", {"k": k, "catalog": path}, results)
