"""The CLI's output against ``oracles`` (``bench/oracles.py``), byte for
byte: every rank k in 2..60, and 100 and 150, which the ``tables``
benchmark reaches (its k runs up to 150); the built-in catalog and random
catalog files, behind a path with non-ASCII characters and JSON escapes, for
``extensions``, ``decompose`` and ``coverage``; listings on either side of
a rendering slice; random chi, genus and twist queries; and selfcheck, each
in every format.  ``oracles`` imports nothing from ``acmbundles``: it
transcribes the formulas and the c2 clauses again, copies the
classification as data, lists pairs by ``combinations_with_replacement``
and rebuilds each document with the standard library, so a slip in a
template or in the values behind it shows as a mismatch.  Also here: a
failing selfcheck document and the envelope head's writer against
``json.dumps``."""

import contextlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from acmbundles import cli, selfcheck

# a catalog file name that json.dumps must escape: non-ASCII, a quote and a
# backslash
CATALOG_NAME = 'katalog é∂ "q" \\ .txt'
FORMATS = ("table", "json", "csv")


def run(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(arg) for arg in argv])
    return code, out.getvalue()


def check(expect, *argv) -> None:
    """The command exits 0 with the stdout ``expect`` accepts."""
    code, out = run(*argv)
    assert (code, expect(out)) == (0, None), argv


def test_oracles_import_without_the_library():
    # a fresh interpreter in which any import of acmbundles fails
    bench = str(Path(oracles.__file__).parent)
    source = (f"import sys; sys.modules['acmbundles'] = None; "
              f"sys.path.insert(0, {bench!r}); import oracles")
    done = subprocess.run([sys.executable, "-c", source], capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")


def test_enumerate_matches_oracle():
    for k in [*range(2, 61), 100, 150]:
        for fmt in FORMATS:
            check(oracles.expect_enumerate(k, fmt), "enumerate", "--k", k, "--format", fmt)


def test_builtin_catalog_matches_oracle():
    # the built-in catalog gives coverage items with extension witnesses,
    # which random catalogs seldom do
    for fmt in FORMATS:
        for r in (3, 4):
            for pool in ("star", "normalized"):
                witnesses = oracles.all_witnesses(
                    r, oracles.pool_pairs(oracles.BUILTIN_CLASSES[r], pool))
                check(oracles.expect_extensions(r, pool, None, witnesses, fmt),
                      "extensions", "--r", r, "--pool", pool, "--format", fmt)
                for quad in ((4, 5, 46, 52), (4, 4, 31, 29), (4, 1, 6, 4)):
                    hits = [w for w in witnesses if w[0] == quad]
                    check(oracles.expect_decompose(r, quad, pool, None, hits, fmt),
                          "decompose", "--r", r, "--target", ",".join(map(str, quad)),
                          "--pool", pool, "--format", fmt)
        star = oracles.pool_pairs(oracles.BUILTIN_CLASSES[4], "star")
        for k in (3, 4):
            check(oracles.expect_coverage(k, None, star, fmt),
                  "coverage", "--k", k, "--format", fmt)


@st.composite
def catalog_cases(draw):
    """(r, file text, target quadruple, pool, coverage rank, the file's
    classes as (r, c1, c2, star))."""
    r = draw(st.integers(3, 5))
    keys = draw(st.lists(
        st.tuples(st.sampled_from((r, r, r, 3, 4, 5)), st.integers(-3, 6),
                  st.integers(-10, 40)),
        min_size=1, max_size=14, unique=True))
    lines, classes = [], []
    for cr, c1, c2 in keys:
        star = draw(st.sampled_from("01"))
        gg = draw(st.sampled_from(("always", "generic", "no")))
        lines.append(f"{cr} {c1} {c2} {star} {gg}")
        classes.append((cr, c1, c2, star == "1"))
    own = [(c1, c2) for cr, c1, c2 in keys if cr == r]
    if own and draw(st.booleans()):
        target = oracles.extend(r, draw(st.sampled_from(own)), draw(st.sampled_from(own)))
    else:
        target = (4, *draw(st.tuples(
            st.integers(-6, 12), st.integers(-20, 80), st.integers(-60, 60))))
    pool = draw(st.sampled_from(("star", "normalized")))
    return r, "\n".join(lines) + "\n", target, pool, draw(st.sampled_from((3, 4))), classes


@settings(max_examples=150, deadline=None)
@given(case=catalog_cases())
def test_catalog_commands_match_oracle(tmp_path_factory, case):
    r, text, target, pool, k, classes = case
    path = tmp_path_factory.getbasetemp() / CATALOG_NAME
    path.write_text(text, encoding="utf-8")
    catalog = str(path)
    extensions = ("extensions", "--r", r, "--pool", pool, "--catalog", catalog)
    decompose = ("decompose", "--r", r, "--target", ",".join(map(str, target)),
                 "--pool", pool, "--catalog", catalog)
    coverage = ("coverage", "--k", k, "--catalog", catalog)
    own = [(c1, c2, star) for cr, c1, c2, star in classes if cr == r]
    quartic = [(c1, c2, star) for cr, c1, c2, star in classes if cr == 4]
    witnesses = oracles.all_witnesses(r, oracles.pool_pairs(own, pool))
    hits = [w for w in witnesses if w[0] == target]
    for fmt in FORMATS:
        # a file without degree-r classes has no classification to search
        if own:
            check(oracles.expect_extensions(r, pool, catalog, witnesses, fmt),
                  *extensions, "--format", fmt)
            check(oracles.expect_decompose(r, target, pool, catalog, hits, fmt),
                  *decompose, "--format", fmt)
        else:
            assert run(*extensions, "--format", fmt) == (1, "")
            assert run(*decompose, "--format", fmt) == (1, "")
        # only rank 4 reads the degree-4 star pool
        if quartic or k == 3:
            check(oracles.expect_coverage(k, catalog, oracles.pool_pairs(quartic, "star"), fmt),
                  *coverage, "--format", fmt)
        else:
            assert run(*coverage, "--format", fmt) == (1, "")


def test_listings_across_a_slice_boundary(tmp_path):
    # 44 and 45 degree-4 classes give 990 and 1,035 normalized-pool rows:
    # one slice of the rendering, then a full slice and a short one
    assert 44 * 45 // 2 < cli._SLICE < 45 * 46 // 2
    grid = [(c1, c2) for c1 in range(-3, 7) for c2 in range(-10, 40)]
    for n in (44, 45):
        classes = random.Random(n).sample(grid, n)
        path = tmp_path / f"catalog-{n}.txt"
        path.write_text("".join(f"4 {c1} {c2} {i % 2} no\n" for i, (c1, c2) in
                                enumerate(classes)), encoding="utf-8")
        witnesses = oracles.all_witnesses(4, classes)
        assert len(witnesses) == n * (n + 1) // 2
        for fmt in FORMATS:
            check(oracles.expect_extensions(4, "normalized", str(path), witnesses, fmt),
                  "extensions", "--r", 4, "--pool", "normalized", "--catalog", path,
                  "--format", fmt)


@settings(max_examples=200, deadline=None)
@given(r=st.integers(1, 8), a=st.integers(-30, 30), n=st.integers(-6, 6),
       quad=st.tuples(st.integers(1, 6), st.integers(-12, 12),
                      st.integers(-60, 60), st.integers(-60, 60)))
def test_small_queries_match_oracle(r, a, n, quad):
    bundle = ",".join(map(str, quad))
    for fmt in FORMATS:
        check(oracles.expect_chi_line(r, a, fmt),
              "chi", "--r", r, "--line", "-a", a, "--format", fmt)
        check(oracles.expect_chi_bundle(r, quad, fmt),
              "chi", "--r", r, "--bundle", bundle, "--format", fmt)
        check(oracles.expect_twist(r, quad, n, fmt),
              "twist", "--r", r, "--bundle", bundle, "-n", n, "--format", fmt)
        # the dependency locus needs a bundle of rank at least 2
        if quad[0] == 1:
            assert run("genus", "--r", r, "--bundle", bundle, "--format", fmt) == (1, "")
        else:
            check(oracles.expect_genus(r, quad, fmt),
                  "genus", "--r", r, "--bundle", bundle, "--format", fmt)


def test_selfcheck_matches_oracle(monkeypatch):
    def document(results) -> str:
        records = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
        doc = {"schema_version": 1, "command": "selfcheck", "inputs": {}, "results": records}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    for fmt in FORMATS:
        check(oracles.expect_selfcheck(fmt), "selfcheck", "--format", fmt)
    results = selfcheck.run_all()
    assert run("selfcheck", "--format", "json") == (0, document(results))
    # failed checks, with details that json.dumps must escape and CSV must
    # quote: a comma, a quote and \n in one, a \r alone in the other
    failing = [selfcheck.CheckResult("twist-roundtrip", False, 'é∂ "q" \\ at (4;1,6,4)\n'),
               results[1]._replace(passed=False, detail="c3 \r mismatch"), *results[2:]]
    monkeypatch.setattr(selfcheck, "run_all", lambda: failing)
    assert run("selfcheck", "--format", "json") == (1, document(failing))
    assert run("selfcheck", "--format", "csv") == (1, "".join(map(oracles.csv_line, [
        ["name", "passed", "detail"],
        *([r.name, "true" if r.passed else "false", r.detail] for r in failing)])))


# the values an envelope head holds: ints, bools, None, strings (JSON escapes
# and non-ASCII included) and nested objects such as "bundle" and "target"
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(fields=st.dictionaries(st.text(), JSON_VALUES, max_size=6))
@example(fields={"command": "selfcheck", "inputs": {}})
@example(fields={"command": "decompose", "inputs": {
    "r": 4, "target": {"k": 4, "c1": 5, "c2": 46, "c3": 52}, "pool": "star",
    "expect_witness": False, "catalog": CATALOG_NAME}})
def test_json_object_matches_json_dumps(fields):
    assert cli._json_object(fields, "") == json.dumps(fields, indent=2, sort_keys=True)
