"""The CLI's pinned cases, in one table: every exit whose exact bytes are
pinned, that is every argv whose output a file under ``tests/golden/``
holds, and every error exit with its exit code and exact stderr.

``tests/test_cli.py`` runs each row in process. Run as a script, this module
runs each row as a process instead, ``python -m acmbundles ARGV`` from the
repository root with ``COLUMNS=80`` and ``PYTHONPATH=src``, compares the exit
code, stdout and stderr byte for byte, prints a unified diff for each
mismatch and exits 1 if any row fails:

    python tests/cli_cases.py

It imports only the standard library, so it needs neither pytest nor an
installed package. A new golden, or a new exact error exit, is one row
here; ``test_error_golden`` runs each error row in process.
"""

import difflib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
# a catalog file with degrees 3, 4 and 5, comments, blank lines and
# indentation; its goldens run from the repository root, so the path that
# "inputs" records is this relative one
CATALOG = "tests/catalog_345.txt"

# one golden file per README invocation and format: tests/golden/NAME.EXT,
# where the table golden is also the default format's output;
# enumerate_k5 adds an unrefined rank, whose rows print a constant c3/genus
# and a bare "c2", and enumerate_k6 a genus form with a positive intercept
# ("c2+1"); decompose_none prints an empty "results" list and a
# header-only CSV; coverage_k3 is the curve-only rank, with no extension
# evidence; the *_catalog cases read CATALOG, and decompose_catalog's
# target has three star-pool witnesses
GOLDEN_CASES = {
    "chi_line": ["chi", "--r", "4", "--line", "-a", "1"],
    "chi_bundle": ["chi", "--r", "4", "--bundle", "4,1,6,4"],
    "twist": ["twist", "--r", "4", "--bundle", "3,1,5,2", "-n", "1"],
    "genus": ["genus", "--r", "4", "--bundle", "4,6,64,84"],
    "enumerate_k3": ["enumerate", "--k", "3"],
    "enumerate_k4": ["enumerate", "--k", "4"],
    "enumerate_k5": ["enumerate", "--k", "5"],
    "enumerate_k6": ["enumerate", "--k", "6"],
    "extensions_r4_star": ["extensions", "--r", "4", "--pool", "star"],
    "extensions_r4_normalized": ["extensions", "--r", "4", "--pool", "normalized"],
    "decompose_r4": ["decompose", "--r", "4", "--target", "4,5,46,52"],
    "decompose_none": ["decompose", "--r", "4", "--target", "4,1,6,4",
                       "--pool", "normalized"],
    "decompose_tie": ["decompose", "--r", "4", "--target", "4,2,12,8",
                      "--pool", "normalized"],
    "coverage_k3": ["coverage", "--k", "3"],
    "coverage_k4": ["coverage", "--k", "4"],
    "extensions_r5_catalog": ["extensions", "--r", "5", "--pool", "normalized",
                              "--catalog", CATALOG],
    "decompose_catalog": ["decompose", "--r", "4", "--target", "4,2,12,8",
                          "--pool", "star", "--catalog", CATALOG],
    "coverage_catalog": ["coverage", "--k", "4", "--catalog", CATALOG],
    "selfcheck": ["selfcheck"],
}
GOLDEN_EXTENSIONS = {"table": "txt", "json": "json", "csv": "csv"}

# argv forms with one golden each: a separate negative value and the "="
# form, which the flag table reads, and an attached value, which argparse reads
ARGV_FORM_CASES = {
    "twist_dashed.json": ["twist", "--r", "4", "--bundle=3,1,5,2", "-n", "-1",
                          "--format", "json"],
    "chi_line_dashed.txt": ["chi", "--r=4", "--line", "-a", "-2"],
    "chi_line_glued.txt": ["chi", "--r", "4", "--line", "-a3"],
}

# argparse's own text, rendered at 80 columns: name -> (argv, exit code,
# the stream that carries the text; the other stream stays empty); a
# command's own errors carry its prefix ("acmbundles enumerate:"), while an
# unknown command and leftover tokens are the top-level parser's
USAGE_CASES = {
    "help": (["--help"], 0, "out"),
    "help_decompose": (["decompose", "--help"], 0, "out"),
    "usage_catalog": (["enumerate", "--k", "3", "--catalog", "X"], 2, "err"),
    "usage_enumerate_missing": (["enumerate"], 2, "err"),
    "usage_enumerate_format": (["enumerate", "--k", "3", "--format", "xml"], 2, "err"),
    "usage_genus_int": (["genus", "--r", "x", "--bundle", "4,1,6,4"], 2, "err"),
    "usage_unknown_command": (["frobnicate"], 2, "err"),
    "usage_chi_leftover": (["chi", "--r", "4", "--line", "-a", "1", "extra"], 2, "err"),
}

# error exits: name -> (argv, exit code, the exact stderr, as text or as the
# golden file that holds it), with empty stdout; exit 2 is a usage error the
# handler finds, exit 1 a domain or catalog error; in catalog_faulty a
# duplicate class is on an earlier line than a bad gg, and the earlier is named
ABSENT_DEGREE = "error: no rank-two classification for degree 6 (available: 3, 4, 5)\n"
DEGREE_ZERO = "error: hypersurface degree must be >= 1, got 0\n"
CHI_NO_MODE = "error: chi needs either --line with -a, or --bundle k,c1,c2,c3\n"
ERROR_CASES = {
    "chi_no_mode": (["chi", "--r", "4"], 2, CHI_NO_MODE),
    # a usage error comes before the degree check
    "chi_r0_no_mode": (["chi", "--r", "0"], 2, CHI_NO_MODE),
    "chi_no_twist": (["chi", "--r", "4", "--line"], 2, "error: --line needs a twist: -a N\n"),
    "chi_line_and_bundle": (["chi", "--r", "4", "--line", "-a", "1", "--bundle", "4,1,6,4"],
                            2, "error: --line and --bundle are mutually exclusive\n"),
    "chi_twist_and_bundle": (["chi", "--r", "4", "-a", "1", "--bundle", "4,1,6,4"], 2,
                             "error: -a only applies to --line mode\n"),
    "genus_rank_one": (["genus", "--r", "4", "--bundle", "1,1,0,0"], 1,
                       "error: genus needs a bundle of rank >= 2, got rank 1\n"),
    "enumerate_rank_one": (["enumerate", "--k", "1"], 1,
                           "error: c1 bounds need rank >= 2, got 1\n"),
    "extensions_r5": (["extensions", "--r", "5"], 1,
                      "error: no rank-two classification for degree 5 (available: 3, 4)\n"),
    "decompose_rank3": (["decompose", "--r", "4", "--target", "3,1,5,2"], 1,
                        "error: decomposition into two rank-two pieces needs rank 4, got 3\n"),
    "decompose_expect_witness": (["decompose", "--r", "4", "--target", "4,1,6,4", "--pool",
                                  "normalized", "--expect-witness"], 1,
                                 "error: no decomposition of (4;1,6,4) over the "
                                 "normalized pool\n"),
    "catalog_faulty": (["extensions", "--r", "4", "--catalog", "tests/catalog_faulty.txt"],
                       1, GOLDEN / "error_catalog_faulty.txt"),
    "catalog_absent_degree": (["extensions", "--r", "6", "--catalog", CATALOG], 1,
                              ABSENT_DEGREE),
    "catalog_absent_degree_decompose": (["decompose", "--r", "6", "--target", "4,2,12,8",
                                         "--catalog", CATALOG], 1, ABSENT_DEGREE),
    "catalog_r0": (["extensions", "--r", "0", "--catalog", CATALOG], 1, DEGREE_ZERO),
    "catalog_r0_decompose": (["decompose", "--r", "0", "--target", "4,2,12,8",
                              "--catalog", CATALOG], 1, DEGREE_ZERO),
}


def process_cases():
    """Yield (label, argv, exit code, stdout bytes, stderr bytes) for every row."""
    for name, argv in GOLDEN_CASES.items():
        for fmt, ext in GOLDEN_EXTENSIONS.items():
            flags = [] if fmt == "table" else ["--format", fmt]
            yield f"{name}.{ext}", argv + flags, 0, (GOLDEN / f"{name}.{ext}").read_bytes(), b""
    for name, argv in ARGV_FORM_CASES.items():
        yield name, argv, 0, (GOLDEN / name).read_bytes(), b""
    for name, (argv, code, stream) in USAGE_CASES.items():
        text = (GOLDEN / f"{name}.txt").read_bytes()
        yield name, argv, code, *((text, b"") if stream == "out" else (b"", text))
    for name, (argv, code, err) in ERROR_CASES.items():
        yield name, argv, code, b"", err.read_bytes() if isinstance(err, Path) else err.encode()


def main():
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": "src"}
    failed = total = 0
    for label, argv, code, out, err in process_cases():
        total += 1
        done = subprocess.run([sys.executable, "-m", "acmbundles", *argv],
                              cwd=ROOT, env=env, capture_output=True)
        expected = [f"{code}\n".encode(), out, err]
        actual = [f"{done.returncode}\n".encode(), done.stdout, done.stderr]
        if actual == expected:
            continue
        failed += 1
        print(f"FAIL {label}: acmbundles {' '.join(argv)}")
        for part, want, got in zip(("exit code", "stdout", "stderr"), expected, actual):
            sys.stdout.writelines(difflib.unified_diff(
                want.decode("utf-8", "replace").splitlines(keepends=True),
                got.decode("utf-8", "replace").splitlines(keepends=True),
                f"{label} {part} (expected)", f"{label} {part} (actual)"))
    print(f"{total - failed} of {total} cases match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
