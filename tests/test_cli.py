"""Exit codes, output formats, determinism, and golden-table equality."""

import json
from pathlib import Path

import pytest

from acmbundles import cli, constraints

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        code, out, err = run_cli(
            capsys, "chi", "--r", "4", "--line", "-a", "1", "--bundle", "4,1,6,4"
        )
        assert code == 2
        assert out == ""
        assert err != ""

    def test_missing_mode_is_usage_error(self, capsys):
        code, out, _ = run_cli(capsys, "chi", "--r", "4")
        assert (code, out) == (2, "")

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
    def test_golden_k3(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--k", "3")
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "enumerate_k3.txt").read_text(encoding="utf-8")

    def test_golden_k4(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--k", "4")
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "enumerate_k4.txt").read_text(encoding="utf-8")

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
