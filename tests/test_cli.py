"""The CLI in process: every row of ``tests/cli_cases.py``, and what no row
can pin: state between calls, the handler lookup, the imports, inputs made at
run time, a corrupted kernel, and write errors."""

import errno
import io
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from cli_cases import (
    ARGV_FORM_CASES,
    CATALOG,
    ERROR_CASES,
    GOLDEN,
    GOLDEN_CASES,
    GOLDEN_EXTENSIONS,
    ROOT,
    USAGE_CASES,
)
from acmbundles import cli, constraints


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("fmt", sorted(GOLDEN_EXTENSIONS))
@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output(capsys, monkeypatch, name, fmt):
    monkeypatch.chdir(ROOT)
    code, out, err = run_cli(capsys, *GOLDEN_CASES[name], "--format", fmt)
    assert (code, err) == (0, "")
    golden = GOLDEN / f"{name}.{GOLDEN_EXTENSIONS[fmt]}"
    assert out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(ARGV_FORM_CASES))
def test_argv_form_golden(capsys, name):
    assert run_cli(capsys, *ARGV_FORM_CASES[name]) == (
        0, (GOLDEN / name).read_text(encoding="utf-8"), "")


@pytest.mark.parametrize("name", sorted(USAGE_CASES))
def test_usage_golden(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    argv, expected_code, stream = USAGE_CASES[name]
    code, out, err = run_cli(capsys, *argv)
    text, other = (out, err) if stream == "out" else (err, out)
    assert (code, other) == (expected_code, "")
    assert text == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_error_golden(capsys, monkeypatch, name):
    monkeypatch.chdir(ROOT)
    argv, code, err = ERROR_CASES[name]
    text = err.read_text(encoding="utf-8") if isinstance(err, Path) else err
    assert run_cli(capsys, *argv) == (code, "", text)


def test_well_formed_argv_never_builds_the_parser(capsys, monkeypatch):
    # argparse is built only for help and malformed argv, and then once per
    # process: the cache the usage errors of a long-running caller rely on
    monkeypatch.chdir(ROOT)
    cli._build_parser.cache_clear()
    for argv in GOLDEN_CASES.values():
        for fmt in GOLDEN_EXTENSIONS:
            assert run_cli(capsys, *argv, "--format", fmt)[0] == 0
    assert cli._build_parser.cache_info().currsize == 0
    argv = USAGE_CASES["usage_enumerate_format"][0]
    assert [run_cli(capsys, *argv)[0] for _ in range(2)] == [2, 2]
    assert cli._build_parser.cache_info().misses == 1


# calls whose result must not depend on the call before them in the same
# process: (argv, exit code, stdout, or the golden file that holds it); each
# second call of a pair leaves out a flag the first one gave
NEIGHBOUR_CALLS = [
    (["chi", "--r", "4", "--line", "-a", "1"], 0, "5\n"),
    (["chi", "--r", "4", "--bundle", "4,1,6,4"], 0, "4\n"),
    (["decompose", "--r", "4", "--target", "4,1,6,4", "--expect-witness"], 1, ""),
    (["decompose", "--r", "4", "--target", "4,1,6,4"], 0, "no decomposition\n"),
    (["frobnicate"], 2, ""),
    (["--help"], 0, GOLDEN / "help.txt"),
    (GOLDEN_CASES["decompose_r4"], 0, GOLDEN / "decompose_r4.txt"),
]


def test_no_state_leaks_between_calls(capsys, monkeypatch):
    """A call's output, and the namespace its handler is given, are the same
    whatever call ran before it."""
    monkeypatch.setenv("COLUMNS", "80")
    given = []

    def recording(handler):
        def wrapper(args):
            given.append(dict(vars(args)))
            return handler(args)
        return wrapper

    for name in [name for name in vars(cli) if name.startswith("cmd_")]:
        monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
    # a call outside the sequence goes first, so the first pass follows
    # other flag values than the second
    run_cli(capsys, "decompose", "--r", "4", "--target", "4,4,31,29",
            "--pool", "normalized")
    passes = []
    for _ in range(2):
        results = []
        for argv, code, out in NEIGHBOUR_CALLS:
            given.clear()
            result = run_cli(capsys, *argv)
            expected = out.read_text(encoding="utf-8") if isinstance(out, Path) else out
            assert result[:2] == (code, expected), argv
            results.append((result, list(given)))
        passes.append(results)
    assert passes[0] == passes[1]


def test_handler_is_looked_up_by_name(capsys, monkeypatch):
    run_cli(capsys, "chi", "--r", "4", "--line", "-a", "1")
    seen = []

    def stub(args):
        seen.append(args.a)
        return iter(["st", "ub\n"]), 0

    monkeypatch.setattr(cli, "cmd_chi", stub)
    assert run_cli(capsys, "chi", "--r", "4", "--line", "-a", "2") == (0, "stub\n", "")
    assert seen == [2]


# what a command imports only where it runs: argparse (with gettext) for help
# and malformed argv, json for --format json, fractions (with decimal and
# numbers) for a chi or genus value, random for selfcheck; all of them but
# random import re
DEFERRED = {"argparse", "gettext", "json", "fractions", "decimal", "numbers", "random", "re"}
# what neither the import nor any command loads: the CLI writes its CSV itself
UNUSED = {"csv", "dataclasses", "inspect", "pathlib"}
# bench/tracer.py looks each of these up in sys.modules once the CLI is imported
TRACED = {f"acmbundles.{name}" for name in ("chern", "constraints", "extensions", "selfcheck")}
# a usage error that argparse reports, after _quadruple rejects the value
MALFORMED = ["twist", "--r", "4", "--bundle=1,2,3"]


def bare_process(source, *argv):
    """The words of the last line ``source`` prints, run with ``argv`` in a
    bare interpreter (-S: no site, so nothing a .pth file preloads) from the
    repository root, with src and tests on the path."""
    paths = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    done = subprocess.run([sys.executable, "-S", "-c", source, *argv], cwd=ROOT,
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": paths})
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()


def test_import_loads_only_the_library():
    # the records are named tuples and a catalog is read with open(), so the
    # import loads neither the dataclass machinery nor pathlib
    loaded = set(bare_process("import sys, acmbundles.cli; print(*sys.modules)"))
    assert loaded & (DEFERRED | UNUSED) == set()
    assert TRACED <= loaded


# argv, its exit code, the deferred modules it must load and those it must not
COMMAND_LOADS = [
    (["enumerate", "--k", "3"], 0, set(), DEFERRED),
    (["enumerate", "--k", "3", "--format", "csv"], 0, set(), DEFERRED),
    (["enumerate", "--k", "3", "--format", "json"], 0, {"json"}, DEFERRED - {"json", "re"}),
    (["chi", "--r", "4", "--line", "-a", "1"], 0, {"fractions"}, {"argparse", "json", "random"}),
    (["twist", "--r", "4", "--bundle", "3,1,5,2", "-n", "1", "--format", "csv"], 0, set(),
     DEFERRED),
    (["coverage", "--k", "3", "--format", "csv"], 0, set(), DEFERRED),
    (MALFORMED, 2, {"argparse"}, {"json", "fractions", "random"}),
    (["selfcheck", "--format", "csv"], 0, {"random"}, {"argparse", "json"}),
]


@pytest.mark.parametrize("argv, code, loads, skips", COMMAND_LOADS,
                         ids=[" ".join(case[0]) for case in COMMAND_LOADS])
def test_command_loads_only_what_it_runs(argv, code, loads, skips):
    given, *loaded = bare_process(
        "import sys; from acmbundles import cli; print(cli.main(sys.argv[1:]), *sys.modules)",
        *argv)
    assert int(given) == code
    assert loads - set(loaded) == set() and (skips | UNUSED) & set(loaded) == set()


# a fresh process, so a name that a first call rebinds is seen rebound
RESTORED = """import io, sys
from cli_cases import GOLDEN_CASES, GOLDEN_EXTENSIONS
from acmbundles import cli

def package_callables():
    return {(name, attr): value for name, module in list(sys.modules.items())
            if name.startswith("acmbundles")
            for attr, value in vars(module).items() if callable(value)}

before = package_callables()
streams = sys.stdout, sys.stderr
sys.stdout = sys.stderr = io.StringIO()
codes = [cli.main([*argv, "--format", fmt])
         for argv in GOLDEN_CASES.values() for fmt in GOLDEN_EXTENSIONS]
codes.append(cli.main(sys.argv[1:]))
sys.stdout, sys.stderr = streams
after = package_callables()
print(*codes, *sorted(f"{name}.{attr}" for name, attr in before.keys() | after.keys()
                      if before.get((name, attr)) is not after.get((name, attr))))
"""


def test_calls_rebind_no_package_function():
    # bench/smoke.py's "package functions not restored" check: every callable
    # in each acmbundles namespace is the object it was before any call
    runs = len(GOLDEN_CASES) * len(GOLDEN_EXTENSIONS)
    words = bare_process(RESTORED, *MALFORMED)
    assert (words[:runs + 1], words[runs + 1:]) == (["0"] * runs + ["2"], [])


class TestChi:
    def test_line_mode_trivial(self, capsys):
        code, out, _ = run_cli(capsys, "chi", "--r", "4", "--line", "-a", "0")
        assert (code, out) == (0, "1\n")

    def test_line_mode_negative_twist(self, capsys):
        code, out, _ = run_cli(capsys, "chi", "--r", "4", "--line", "-a", "-1")
        assert (code, out) == (0, "-1\n")

    def test_malformed_quadruple_is_usage_error(self, capsys):
        code, out, _ = run_cli(capsys, "chi", "--r", "4", "--bundle", "4,1,6")
        assert (code, out) == (2, "")


class TestTwistAndGenus:
    def test_twist_round(self, capsys):
        code, out, _ = run_cli(
            capsys, "twist", "--r", "4", "--bundle", "3,1,5,2", "-n", "1"
        )
        assert (code, out) == (0, "3,4,25,15\n")
        code, out, _ = run_cli(
            capsys, "twist", "--r", "4", "--bundle", "3,4,25,15", "-n", "-1"
        )
        assert (code, out) == (0, "3,1,5,2\n")


class TestExtensions:
    def test_missing_catalog_file_exits_one(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "extensions", "--r", "4", "--catalog", str(tmp_path / "nope.txt")
        )
        assert (code, out) == (1, "")

    def test_non_utf8_catalog_is_a_clean_error(self, capsys, tmp_path):
        path = tmp_path / "catalog.txt"
        path.write_bytes(b"4 1 3 1 no\n4 2 8 1 \xff generic\n")
        code, out, err = run_cli(
            capsys, "extensions", "--r", "4", "--catalog", str(path)
        )
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: {path}: line 2: not valid UTF-8"]


class TestCatalogErrors:
    # a parse error on a line of a degree the command does not read: exit 1,
    # empty stdout and this exact stderr
    @pytest.mark.parametrize("argv", [
        ["extensions", "--r", "5"],
        ["decompose", "--r", "4", "--target", "4,2,12,8"],
        ["coverage", "--k", "4"],
    ], ids=["extensions", "decompose", "coverage"])
    def test_parse_error_in_a_degree_not_read(self, capsys, tmp_path, argv):
        # line 24 holds the degree-3 class (2,5)
        text = (ROOT / CATALOG).read_text(encoding="utf-8")
        path = tmp_path / "catalog.txt"
        path.write_text(text.replace("\n3 2 5 1 no\n", "\n3 2 5 1 maybe\n"),
                        encoding="utf-8")
        assert run_cli(capsys, *argv, "--catalog", str(path)) == (1, "", (
            f"error: {path}: line 24: gg must be one of always/generic/no, "
            "got 'maybe'\n"))


class TestDecompose:
    def test_gap_value_defaults_to_star_pool(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--r", "4", "--target", "4,4,31,29")
        assert (code, out) == (0, "no decomposition\n")
        code, out, _ = run_cli(
            capsys, "decompose", "--r", "4", "--target", "4,4,31,29",
            "--pool", "normalized",
        )
        assert (code, out) == (0, "(1,5)+(3,14) -> (4;4,31,29)\n")


class TestSelfcheck:
    def test_detects_corrupted_coefficient(self, capsys, monkeypatch):
        real = constraints.c3_from_acm
        monkeypatch.setattr(
            constraints, "c3_from_acm", lambda k, c1, c2: real(k, c1, c2) + 1
        )
        code, out, _ = run_cli(capsys, "selfcheck")
        assert code == 1
        assert "FAIL" in out


class TestUsage:
    @pytest.mark.parametrize("argv, flag", [
        (["chi", "--r=--"], "--r"),
        (["genus", "--r", "4", "--bundle=--"], "--bundle"),
        (["enumerate", "--k", "3", "--format=--"], "--format"),
        (["coverage", "--k", "4", "--cat=--"], "--catalog"),
    ])
    def test_dashes_value_is_missing(self, capsys, argv, flag):
        # argparse strips a "--" value and stores []; no handler may see that
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f": error: argument {flag}: expected one argument\n")

    @pytest.mark.parametrize("argv", [
        ["chi", "--r", "4", "--line", "-a", "1"],
        ["enumerate", "--k", "3"],
        ["selfcheck"],
    ])
    def test_catalog_only_where_it_is_read(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--catalog", "X")
        assert (code, out) == (2, "")
        assert "--catalog" in err


class _FailingStdout(io.StringIO):
    """A stdout whose write raises ``exc`` once ``writes`` writes have
    succeeded."""

    def __init__(self, exc, writes=0):
        super().__init__()
        self.exc, self.writes = exc, writes

    def write(self, text):
        if self.writes == 0:
            raise self.exc
        self.writes -= 1
        return super().write(text)


class TestWriteErrors:
    # a closed reader and a full device: exit 1 with one error line, and
    # main points stdout at the null device and closes it, so the flush at
    # interpreter exit has nothing to fail on
    @pytest.mark.parametrize("exc", [
        BrokenPipeError(errno.EPIPE, "Broken pipe"),
        OSError(errno.ENOSPC, "No space left on device"),
    ])
    def test_stdout_write_error_exits_cleanly(self, capsys, monkeypatch, exc):
        failing = _FailingStdout(exc)
        monkeypatch.setattr(sys, "stdout", failing)
        code = cli.main(["chi", "--r", "4", "--line", "-a", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines() == [f"error: {exc}"]
        assert "Traceback" not in err
        assert (sys.stdout.name, sys.stdout.closed) == (os.devnull, True)

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--k", "20", "--format", "json"],
        ["enumerate", "--k", "20", "--format", "csv"],
        ["extensions", "--r", "4", "--pool", "normalized", "--format", "json"],
    ])
    def test_write_error_mid_stream_exits_cleanly(self, capsys, monkeypatch, argv):
        # the first chunk is written, the second write fails
        exc = BrokenPipeError(errno.EPIPE, "Broken pipe")
        monkeypatch.setattr(sys, "stdout", _FailingStdout(exc, writes=1))
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines() == [f"error: {exc}"]
        assert "Traceback" not in err
        assert (sys.stdout.name, sys.stdout.closed) == (os.devnull, True)

    @pytest.mark.parametrize("stage", ["handler", "rendering", "writing"])
    def test_out_of_memory_is_reported_after_release(self, monkeypatch, stage):
        # the null device is opened, and the error line written, only once
        # the frames the MemoryError passed through, and what they held, are
        # gone: a failed render's frame, or a suspended one main kept
        class Partial:
            pass

        held = []

        def chunks(partial):
            yield "partial\n"
            if stage == "rendering":
                raise MemoryError
            yield "rest\n"  # the write of this chunk runs out of memory

        def exhausted(args):
            partial = Partial()
            held.append(weakref.ref(partial))
            if stage == "handler":
                raise MemoryError
            return chunks(partial), 0

        class Stderr(io.StringIO):
            def write(self, text):
                assert held[0]() is None
                return super().write(text)

        def opening(*args):
            assert held[0]() is None
            return open(*args)

        # the class, so that no instance the stdout keeps holds a traceback
        stdout, stderr = _FailingStdout(MemoryError, writes=1), Stderr()
        monkeypatch.setattr(cli, "open", opening, raising=False)
        monkeypatch.setattr(cli, "cmd_enumerate", exhausted)
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(sys, "stderr", stderr)
        assert cli.main(["enumerate", "--k", "3"]) == 1
        assert stderr.getvalue() == "error: out of memory\n"
        if stage == "handler":
            assert (sys.stdout, stdout.getvalue()) == (stdout, "")
        else:
            assert stdout.getvalue() == "partial\n"
            assert (sys.stdout.name, sys.stdout.closed) == (os.devnull, True)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_as_a_process(self):
        # only a real interpreter runs the flush at exit
        self.check_full_device([])

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_as_a_process_in_dev_mode(self):
        # an unclosed null device would add a ResourceWarning line
        self.check_full_device(["-X", "dev"])

    @staticmethod
    def check_full_device(flags):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "acmbundles",
                 "chi", "--r", "4", "--line", "-a", "1"],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env)
        assert proc.returncode == 1
        full_error = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        assert proc.stderr.splitlines() == [f"error: {full_error}"]
