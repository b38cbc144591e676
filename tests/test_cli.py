"""Exit codes, output formats, determinism, and golden-table equality."""

import errno
import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from cli_cases import (
    ABSENT_DEGREE,
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


def test_catalog_error_golden(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    argv, golden = ERROR_CASES["catalog_faulty"]
    assert run_cli(capsys, *argv) == (1, "", golden.read_text(encoding="utf-8"))


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


def test_import_loads_neither_dataclasses_nor_inspect():
    # the records are named tuples and a catalog is read with open(), so a
    # bare interpreter (-S: no site packages) importing the CLI never loads
    # the dataclass machinery or pathlib
    source = ("import sys, acmbundles.cli; "
              "print(sorted({'dataclasses', 'inspect', 'pathlib'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-S", "-c", source],
                          capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


class TestChi:
    def test_line_mode(self, capsys):
        code, out, err = run_cli(capsys, "chi", "--r", "4", "--line", "-a", "1")
        assert (code, out, err) == (0, "5\n", "")

    def test_line_mode_trivial(self, capsys):
        code, out, _ = run_cli(capsys, "chi", "--r", "4", "--line", "-a", "0")
        assert (code, out) == (0, "1\n")

    def test_line_mode_negative_twist(self, capsys):
        code, out, _ = run_cli(capsys, "chi", "--r", "4", "--line", "-a", "-1")
        assert (code, out) == (0, "-1\n")

    def test_bundle_mode(self, capsys):
        code, out, _ = run_cli(capsys, "chi", "--r", "4", "--bundle", "4,1,6,4")
        assert (code, out) == (0, "4\n")

    def test_conflicting_flags_are_usage_errors(self, capsys):
        for flags, message in (
                (["--line", "-a", "1", "--bundle", "4,1,6,4"],
                 "--line and --bundle are mutually exclusive"),
                (["-a", "1", "--bundle", "4,1,6,4"], "-a only applies to --line mode")):
            assert run_cli(capsys, "chi", "--r", "4", *flags) == (2, "", f"error: {message}\n")

    def test_missing_mode_is_usage_error(self, capsys):
        for flags, message in (
                ([], "chi needs either --line with -a, or --bundle k,c1,c2,c3"),
                (["--line"], "--line needs a twist: -a N")):
            assert run_cli(capsys, "chi", "--r", "4", *flags) == (2, "", f"error: {message}\n")

    def test_malformed_quadruple_is_usage_error(self, capsys):
        code, out, _ = run_cli(capsys, "chi", "--r", "4", "--bundle", "4,1,6")
        assert (code, out) == (2, "")

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "chi", "--r", "4", "--line", "-a", "1", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["command"] == "chi"
        assert payload["inputs"] == {"a": 1, "mode": "line", "r": 4}
        assert payload["results"] == [
            {"denominator": 1, "numerator": 5, "value": "5"}
        ]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "chi", "--r", "4", "--bundle", "4,1,6,4", "--format", "csv"
        )
        assert out == "r,k,c1,c2,c3,chi\n4,4,1,6,4,4\n"


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

    def test_genus(self, capsys):
        code, out, _ = run_cli(capsys, "genus", "--r", "4", "--bundle", "4,6,64,84")
        assert (code, out) == (0, "203\n")

    def test_genus_rank_one_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "genus", "--r", "4", "--bundle", "1,1,0,0")
        assert (code, out) == (1, "")
        assert err != ""


class TestEnumerate:
    def test_json_expands_intervals(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--k", "4", "--format", "json")
        payload = json.loads(out)
        assert len(payload["results"]) == 6
        c1_five = next(r for r in payload["results"] if r["c1"] == 5)
        assert c1_five["c2_values"] == [44, 45, 46]
        assert c1_five["entries"][-1] == {"c2": 46, "c3": 52, "genus": 119}

    def test_json_round_trips_canonically(self, capsys):
        _, out, _ = run_cli(capsys, "enumerate", "--k", "4", "--format", "json")
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    def test_csv_expands_rows(self, capsys):
        _, out, _ = run_cli(capsys, "enumerate", "--k", "4", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "k,c1,c2,c3,g"
        assert len(lines) == 1 + 22
        assert lines[-1] == "4,6,64,84,203"

    def test_rank_one_is_domain_error(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--k", "1")
        assert (code, out) == (1, "")

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "enumerate", "--k", "3", "--format", "json")
        _, second, _ = run_cli(capsys, "enumerate", "--k", "3", "--format", "json")
        assert first == second


class TestExtensions:
    def test_star_pool_lists_ten_witnesses(self, capsys):
        code, out, _ = run_cli(capsys, "extensions", "--r", "4", "--pool", "star")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 1 + 10
        assert lines[1].split() == ["(1,3)", "(1,3)", "(4;2,10,6)"]
        assert lines[-1].split() == ["(3,14)", "(3,14)", "(4;6,64,84)"]

    def test_cubic_star_pool(self, capsys):
        code, out, _ = run_cli(capsys, "extensions", "--r", "3", "--pool", "star")
        assert code == 0
        assert len(out.splitlines()) == 1 + 3

    def test_unclassified_degree_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "extensions", "--r", "5")
        assert (code, out) == (1, "")
        assert "degree 5" in err

    def test_catalog_override_enables_new_degree(self, capsys, tmp_path):
        path = tmp_path / "catalog.txt"
        path.write_text("5 1 4 1 no\n5 2 9 1 no\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "extensions", "--r", "5", "--catalog", str(path)
        )
        assert code == 0
        assert len(out.splitlines()) == 1 + 3

    def test_missing_catalog_file_exits_one(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "extensions", "--r", "4", "--catalog", str(tmp_path / "nope.txt")
        )
        assert (code, out) == (1, "")

    def test_bad_catalog_reports_line(self, capsys, tmp_path):
        path = tmp_path / "catalog.txt"
        path.write_text("5 1 4 1 no\n5 2 9 1 maybe\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "extensions", "--r", "5", "--catalog", str(path)
        )
        assert (code, out) == (1, "")
        assert "line 2" in err

    def test_non_utf8_catalog_is_a_clean_error(self, capsys, tmp_path):
        path = tmp_path / "catalog.txt"
        path.write_bytes(b"4 1 3 1 no\n4 2 8 1 \xff generic\n")
        code, out, err = run_cli(
            capsys, "extensions", "--r", "4", "--catalog", str(path)
        )
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: {path}: line 2: not valid UTF-8"]

    def test_duplicate_catalog_class_is_a_clean_error(self, capsys, tmp_path):
        path = tmp_path / "catalog.txt"
        path.write_text("4 1 3 1 no\n4 1 3 1 no\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "extensions", "--r", "4", "--catalog", str(path)
        )
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: {path}: line 2: duplicate class (4, 1, 3), first on line 1"
        ]


class TestCatalogErrors:
    # error exits on the catalog fixture: exit 1, empty stdout and this
    # exact stderr, whatever degree the command reads
    @pytest.mark.parametrize("argv, err", [
        (["extensions", "--r", "6"], ABSENT_DEGREE),
        (["decompose", "--r", "6", "--target", "4,2,12,8"], ABSENT_DEGREE),
        (["extensions", "--r", "0"], "error: hypersurface degree must be >= 1, got 0\n"),
        (["decompose", "--r", "0", "--target", "4,2,12,8"],
         "error: hypersurface degree must be >= 1, got 0\n"),
    ], ids=["extensions-absent", "decompose-absent", "extensions-r0", "decompose-r0"])
    def test_fixture_errors(self, capsys, monkeypatch, argv, err):
        monkeypatch.chdir(ROOT)
        assert run_cli(capsys, *argv, "--catalog", CATALOG) == (1, "", err)

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
    def test_no_decomposition_message(self, capsys):
        code, out, _ = run_cli(
            capsys, "decompose", "--r", "4", "--target", "4,1,6,4",
            "--pool", "normalized",
        )
        assert (code, out) == (0, "no decomposition\n")

    def test_witness_found(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--r", "4", "--target", "4,5,46,52")
        assert code == 0
        assert out == "(2,8)+(3,14) -> (4;5,46,52)\n"

    def test_gap_value_defaults_to_star_pool(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--r", "4", "--target", "4,4,31,29")
        assert (code, out) == (0, "no decomposition\n")
        code, out, _ = run_cli(
            capsys, "decompose", "--r", "4", "--target", "4,4,31,29",
            "--pool", "normalized",
        )
        assert (code, out) == (0, "(1,5)+(3,14) -> (4;4,31,29)\n")

    def test_expect_witness_flips_exit_code(self, capsys):
        code, out, err = run_cli(
            capsys, "decompose", "--r", "4", "--target", "4,1,6,4",
            "--pool", "normalized", "--expect-witness",
        )
        assert (code, out) == (1, "")
        assert err != ""

    def test_wrong_rank_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--r", "4", "--target", "3,1,5,2")
        assert (code, out) == (1, "")


class TestCoverage:
    def test_rank4_counts(self, capsys):
        _, out, _ = run_cli(capsys, "coverage", "--k", "4", "--format", "csv")
        lines = out.splitlines()
        assert len(lines) == 1 + 22
        realized = [line for line in lines[1:] if "realized" in line]
        assert len(realized) == 11

    def test_rank3_realized_and_open(self, capsys):
        _, out, _ = run_cli(capsys, "coverage", "--k", "3", "--format", "json")
        payload = json.loads(out)
        realized = [r for r in payload["results"] if r["status"] != "open"]
        assert [(r["k"], r["c1"], r["c2"], r["c3"]) for r in realized] == [(3, 1, 5, 2)]
        opens = {(r["k"], r["c1"], r["c2"], r["c3"])
                 for r in payload["results"] if r["status"] == "open"}
        assert (3, 2, 8, 2) in opens

    def test_table_shows_witness_origin(self, capsys):
        _, out, _ = run_cli(capsys, "coverage", "--k", "4")
        assert "extension: (3,14)+(3,14)" in out

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "coverage", "--k", "4")
        _, second, _ = run_cli(capsys, "coverage", "--k", "4")
        assert first == second


class TestSelfcheck:
    def test_passes_on_healthy_build(self, capsys):
        code, out, err = run_cli(capsys, "selfcheck")
        assert code == 0
        lines = out.splitlines()
        assert sum(1 for line in lines if line.startswith("PASS")) >= 12
        assert lines[-1].endswith("0 failed")

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "selfcheck", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["results"]) >= 12
        assert all(result["passed"] for result in payload["results"])

    def test_detects_corrupted_coefficient(self, capsys, monkeypatch):
        real = constraints.c3_from_acm
        monkeypatch.setattr(
            constraints, "c3_from_acm", lambda k, c1, c2: real(k, c1, c2) + 1
        )
        code, out, _ = run_cli(capsys, "selfcheck")
        assert code == 1
        assert "FAIL" in out


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        code, out, _ = run_cli(capsys, "frobnicate")
        assert (code, out) == (2, "")

    def test_missing_required_flag(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate")
        assert (code, out) == (2, "")

    def test_bad_format_choice(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--k", "3", "--format", "xml")
        assert (code, out) == (2, "")

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
    # stdout points at the null device, so the flush at interpreter exit has
    # nothing to fail on
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
        assert sys.stdout.name == os.devnull
        sys.stdout.close()

    def test_out_of_memory_exits_cleanly(self, capsys, monkeypatch):
        # in the handler and in the write: one error line, exit 1, stdout empty
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_enumerate", exhausted)
        assert run_cli(capsys, "enumerate", "--k", "3") == (1, "", "error: out of memory\n")
        monkeypatch.setattr(sys, "stdout", _FailingStdout(MemoryError()))
        assert cli.main(["chi", "--r", "4", "--line", "-a", "1"]) == 1
        assert capsys.readouterr().err == "error: out of memory\n"
        assert sys.stdout.name == os.devnull
        sys.stdout.close()

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
        assert sys.stdout.name == os.devnull
        sys.stdout.close()

    @pytest.mark.parametrize("stage", ["handler", "rendering"])
    def test_out_of_memory_is_reported_after_release(self, capsys, monkeypatch, stage):
        # the error line is written only once the frames the MemoryError
        # passed through, and what they held, are gone
        class Partial:
            pass

        held = []

        def chunks(partial):
            yield "partial\n"
            raise MemoryError

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

        stderr = Stderr()
        monkeypatch.setattr(cli, "cmd_enumerate", exhausted)
        monkeypatch.setattr(sys, "stderr", stderr)
        assert cli.main(["enumerate", "--k", "3"]) == 1
        assert stderr.getvalue() == "error: out of memory\n"
        out = capsys.readouterr().out
        if stage == "handler":
            assert out == ""
        else:
            assert out == "partial\n"
            assert sys.stdout.name == os.devnull
            sys.stdout.close()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_as_a_process(self):
        # only a real interpreter runs the flush at exit
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "acmbundles", "chi", "--r", "4", "--line", "-a", "1"],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env)
        assert proc.returncode == 1
        full_error = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        assert proc.stderr.splitlines() == [f"error: {full_error}"]
