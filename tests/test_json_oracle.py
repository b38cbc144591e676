"""The CLI's template-written schema-v1 JSON, ``enumerate`` CSV and witness
listings against the whole-document ``json.dumps``, ``csv.writer`` and
``str`` renderings in ``json_oracles``, byte for byte: every rank k in
2..60; random catalog files, behind a path with non-ASCII characters and
JSON escapes, for ``extensions`` and ``decompose`` in every format and
``coverage`` as JSON; random chi, genus and twist queries; selfcheck
results, passing and failing; and the envelope head's writer."""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

import json_oracles as oracle
from acmbundles import cli, selfcheck
from acmbundles.chern import BundleInvariants, DomainError, HypersurfaceContext
from acmbundles.extensions import POOL_NORMALIZED, POOL_STAR, extend_rank2

# a catalog file name that json.dumps must escape: non-ASCII, a quote and a
# backslash
CATALOG_NAME = 'katalog é∂ "q" \\ .txt'

# format -> the oracle's rendering of each witness listing
EXTENSIONS = {"json": oracle.extensions_json, "csv": oracle.extensions_csv,
              "table": oracle.extensions_table}
DECOMPOSE = {"json": oracle.decompose_json, "csv": oracle.decompose_csv,
             "table": oracle.decompose_table}


def run(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(arg) for arg in argv])
    return code, out.getvalue()


def expected(render, *args) -> tuple[int, str]:
    """The oracle's document, or the domain-error exit with empty stdout."""
    try:
        return 0, render(*args)
    except DomainError:
        return 1, ""


def test_enumerate_matches_oracle():
    for k in range(2, 61):
        assert run("enumerate", "--k", k, "--format", "json") == (0, oracle.enumerate_json(k)), k
        assert run("enumerate", "--k", k, "--format", "csv") == (0, oracle.enumerate_csv(k)), k


def test_builtin_catalog_matches_oracle():
    # the built-in catalog gives coverage items with extension witnesses,
    # which random catalogs seldom do
    for r in (3, 4):
        for pool in (POOL_STAR, POOL_NORMALIZED):
            assert run("extensions", "--r", r, "--pool", pool, "--format", "json") == (
                0, oracle.extensions_json(r, pool, None))
            for quad in ((4, 5, 46, 52), (4, 4, 31, 29), (4, 1, 6, 4)):
                target = ",".join(map(str, quad))
                assert run("decompose", "--r", r, "--target", target, "--pool", pool,
                           "--format", "json") == (
                    0, oracle.decompose_json(r, BundleInvariants(*quad), pool, None))
    for k in (3, 4):
        assert run("coverage", "--k", k, "--format", "json") == (0, oracle.coverage_json(k, None))


@st.composite
def catalog_cases(draw):
    r = draw(st.integers(3, 5))
    classes = draw(st.lists(
        st.tuples(st.sampled_from((r, r, r, 3, 4, 5)), st.integers(-3, 6),
                  st.integers(-10, 40)),
        min_size=1, max_size=14, unique=True))
    lines = [f"{cr} {c1} {c2} {draw(st.sampled_from('01'))} "
             f"{draw(st.sampled_from(('always', 'generic', 'no')))}"
             for cr, c1, c2 in classes]
    own = [(c1, c2) for cr, c1, c2 in classes if cr == r]
    if own and draw(st.booleans()):
        a, b = draw(st.sampled_from(own)), draw(st.sampled_from(own))
        target = extend_rank2(HypersurfaceContext(r), a, b)
    else:
        target = BundleInvariants(4, *draw(st.tuples(
            st.integers(-6, 12), st.integers(-20, 80), st.integers(-60, 60))))
    pool = draw(st.sampled_from((POOL_STAR, POOL_NORMALIZED)))
    return r, "\n".join(lines) + "\n", target, pool, draw(st.sampled_from((3, 4)))


@settings(max_examples=150, deadline=None)
@given(case=catalog_cases())
def test_catalog_commands_match_oracle(tmp_path_factory, case):
    r, text, target, pool, k = case
    path = tmp_path_factory.getbasetemp() / CATALOG_NAME
    path.write_text(text, encoding="utf-8")
    catalog = str(path)
    quad = ",".join(map(str, target.quadruple()))
    for fmt in EXTENSIONS:
        assert run("extensions", "--r", r, "--pool", pool, "--catalog", catalog,
                   "--format", fmt) == expected(EXTENSIONS[fmt], r, pool, catalog)
        assert run("decompose", "--r", r, "--target", quad, "--pool", pool,
                   "--catalog", catalog, "--format", fmt) == expected(
            DECOMPOSE[fmt], r, target, pool, catalog)
    assert run("coverage", "--k", k, "--catalog", catalog,
               "--format", "json") == expected(oracle.coverage_json, k, catalog)


@settings(max_examples=200, deadline=None)
@given(r=st.integers(1, 8), a=st.integers(-30, 30), n=st.integers(-6, 6),
       quad=st.tuples(st.integers(1, 6), st.integers(-12, 12),
                      st.integers(-60, 60), st.integers(-60, 60)))
def test_small_queries_match_oracle(r, a, n, quad):
    inv = BundleInvariants(*quad)
    bundle = ",".join(map(str, quad))
    assert run("chi", "--r", r, "--line", "-a", a, "--format", "json") == expected(
        oracle.chi_line_json, r, a)
    assert run("chi", "--r", r, "--bundle", bundle, "--format", "json") == expected(
        oracle.chi_bundle_json, r, inv)
    assert run("genus", "--r", r, "--bundle", bundle, "--format", "json") == expected(
        oracle.genus_json, r, inv)
    assert run("twist", "--r", r, "--bundle", bundle, "-n", n, "--format", "json") == expected(
        oracle.twist_json, r, inv, n)


def test_selfcheck_matches_oracle(monkeypatch):
    results = selfcheck.run_all()
    assert run("selfcheck", "--format", "json") == (0, oracle.selfcheck_json(results))
    # a failed check, with a detail that json.dumps must escape
    failing = [selfcheck.CheckResult("twist-roundtrip", False, 'é∂ "q" \\ at (4;1,6,4)'),
               *results[1:]]
    monkeypatch.setattr(selfcheck, "run_all", lambda: failing)
    assert run("selfcheck", "--format", "json") == (1, oracle.selfcheck_json(failing))


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
