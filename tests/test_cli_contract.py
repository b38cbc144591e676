"""The CLI under random argv, in process: the flag-table parse in
``cli._parse_plain`` against argparse's own two-pass ``parse_args``, and
``cli.main``'s contract (exit code 0, 1 or 2; empty stdout on error; no
traceback; no exception escapes) over the same argv and random catalog-file
bytes."""

import argparse
import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acmbundles import cli

COMMANDS = ["chi", "twist", "genus", "enumerate", "extensions", "decompose",
            "coverage", "selfcheck"]
# values at the edge of what argparse reads as a value rather than a flag:
# "--" (stripped), "-" (a value), a negative number in any decimal digits
# ("-٥"; "-5\n" too, since the "$" of its regex matches before a newline),
# and what only int() accepts
EDGES = ("--", "-", "", "-٥", "-5\n", "-x y", "-.5", "-²", "+4", "1_0", "-0")
NUMBERS = ("4", "3", "5", "1", "0", "-1", "-3", "12", "x")
QUADRUPLES = ("4,1,6,4", "3,1,5,2", "4,5,46,52", "4,1", "4,x,1,1",
              "4,99999999999999999999,1,1", "-4,1,6,4")
# each option's values: good and bad ones, and one in four drawn from EDGES;
# no number exceeds 12, so --k stays small; CATALOG stands for the random
# catalog file, CATALOG.missing for none
VALUES = {"--r": NUMBERS, "-a": NUMBERS, "-n": NUMBERS, "--k": NUMBERS,
          "--bundle": QUADRUPLES, "--target": QUADRUPLES,
          "--format": ("table", "json", "csv", "xml"),
          "--pool": ("star", "normalized"), "--catalog": ("CATALOG", "CATALOG.missing")}
SWITCHES = ("--line", "--expect-witness")
# each command's required flags, then its optional ones besides --format
FLAGS = {
    "chi": (["--r"], ["--line", "-a", "--bundle"]),
    "twist": (["--r", "--bundle", "-n"], []),
    "genus": (["--r", "--bundle"], []),
    "enumerate": (["--k"], []),
    "extensions": (["--r"], ["--pool", "--catalog"]),
    "decompose": (["--r", "--target"], ["--pool", "--expect-witness", "--catalog"]),
    "coverage": (["--k"], ["--catalog"]),
    "selfcheck": ([], []),
}
# commands, unknown commands, help, "--", every flag whole, abbreviated and
# with "=", negative numbers, bad values, junk and extra positionals
TOKENS = [*COMMANDS, *VALUES, *SWITCHES, *NUMBERS, *QUADRUPLES,
          "frobnicate", "chis", "-h", "--help", "--he", "--", "-", "--=x", "-z",
          "--bogus", "--r=4", "--li", "-a3", "-a=-2", "--bu=3,1,5,2", "-n1", "--k=4",
          "--fo=json", "--form", "--po=normalized", "--ta=4,2,12,8", "--exp",
          "--cat=CATALOG", "CATALOG", "json", "xml", "normalized", "extra",
          *EDGES, "--catalog=--", "--k=-0", "-a=-٥", "--r=-5\n", "--line=", "-n=--",
          "--format=", "--pool=-", "--bundle=-x y"]
TAIL = st.lists(st.sampled_from(TOKENS), max_size=8)


@st.composite
def command_call(draw):
    """A command with its required flags and some optional ones, in any
    order, each with a good or bad value, separate or after "=", and now and
    then one token more: argv that often gets past the parse and runs the
    command."""
    name = draw(st.sampled_from(COMMANDS))
    required, optional = FLAGS[name]
    flags = draw(st.permutations(
        required + draw(st.lists(st.sampled_from([*optional, "--format"]), unique=True))))
    argv = [name]
    for flag in flags:
        if flag not in VALUES:
            argv.append(flag)
            continue
        value = draw(st.sampled_from(EDGES if draw(st.integers(0, 3)) == 0 else VALUES[flag]))
        argv += [flag, value] if draw(st.booleans()) else [f"{flag}={value}"]
    if draw(st.integers(0, 3)) == 0:
        argv.append(draw(st.sampled_from(TOKENS)))
    return argv


# any tokens; a command name and any tokens, which the flag tables try
# first; and a well-formed command call
ARGV = st.one_of(
    TAIL,
    st.builds(lambda name, rest: [name, *rest], st.sampled_from(COMMANDS), TAIL),
    command_call(),
)

LINE = st.one_of(
    st.builds("{} {} {} {} {}".format, st.integers(3, 5), st.integers(-3, 6),
              st.integers(-10, 40), st.sampled_from("012"),
              st.sampled_from(("always", "generic", "no", "maybe"))),
    st.sampled_from(("", "# comment", "4 1 2", "4 x 2 0 no", "  \t", "é")),
)
CATALOG_BYTES = st.one_of(
    st.lists(LINE, max_size=12).map(lambda lines: "\n".join(lines).encode()),
    st.binary(max_size=64),
    st.tuples(st.lists(LINE, max_size=6), st.binary(max_size=8)).map(
        lambda parts: "\n".join(parts[0]).encode() + parts[1]),
)


@pytest.fixture(autouse=True, scope="module")
def columns_80():
    # argparse wraps usage and help to the terminal width
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("COLUMNS", "80")
        yield


def _captured(call):
    """(result, stdout, stderr), where result is what ``call()`` returned or
    the code of the SystemExit it raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call()
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


# each explicit example fails if _parse_plain accepted an explicit "--", a
# dashed value, a missing required flag or a value outside the choices
@settings(max_examples=1000, deadline=None)
@given(argv=ARGV)
@example(argv=["coverage", "--catalog=--", "--k=-0"])
@example(argv=["coverage", "--k", "4", "--catalog", "--format"])
@example(argv=["twist", "--r", "4", "-n", "-1"])
@example(argv=["enumerate", "--k", "3", "--format", "xml"])
def test_plain_parse_is_none_or_parse_args(argv):
    result, out, err = _captured(lambda: cli._parse_plain(argv))
    assert (out, err) == ("", "")
    if result is not None:
        parser = cli._build_parser()[0]
        assert _captured(lambda: vars(parser.parse_args(argv))) == (vars(result), "", "")


# one well-formed argv per command, with the "=" form and negative values
PLAIN = [["chi", "--r", "4", "--line", "-a", "-2", "--format", "json"],
         ["chi", "--r=4", "--bundle=4,1,6,4"],
         ["twist", "--r", "4", "--bundle=3,1,5,2", "-n", "-1", "--format", "json"],
         ["genus", "--bundle", "4,6,64,84", "--r", "4", "--r", "5"],
         ["enumerate", "--k", "4", "--format=csv"],
         ["extensions", "--r", "4", "--pool", "normalized", "--catalog", "f.txt"],
         ["decompose", "--r", "4", "--target=4,2,12,8", "--expect-witness", "--pool=star"],
         ["coverage", "--k", "4", "--catalog", "-5"],
         ["selfcheck"]]


def test_well_formed_argv_skips_argparse(monkeypatch):
    # main hands each handler argparse's namespace without calling argparse
    expected = [vars(cli._build_parser()[0].parse_args(argv)) for argv in PLAIN]
    given = []

    def handler(args):
        given.append(vars(args))
        return [], 0

    def refuse(*args, **kwargs):
        raise AssertionError("parse_known_args called")

    for command in COMMANDS:
        monkeypatch.setattr(cli, f"cmd_{command}", handler)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    assert {argv[0] for argv in PLAIN} == set(COMMANDS)
    assert [cli.main(argv) for argv in PLAIN] == [0] * len(PLAIN)
    assert given == expected


@settings(max_examples=300, deadline=None)
@given(argv=ARGV, data=CATALOG_BYTES)
def test_main_keeps_the_contract(tmp_path_factory, argv, data):
    path = tmp_path_factory.getbasetemp() / "fuzz_catalog.txt"
    path.write_bytes(data)
    argv = [token.replace("CATALOG", str(path)) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except BaseException as exc:  # the contract: nothing escapes main
            pytest.fail(f"{type(exc).__name__} escaped main: {exc!r}")
    assert code in (0, 1, 2)
    assert code == 0 or out.getvalue() == ""
    assert "Traceback" not in err.getvalue()
