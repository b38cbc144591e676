"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload at a tiny size, untraced and traced, in this process,
and checks that:

- every metric BENCHMARK.json declares for the mode is reported and printed
  with its unit, and no query fails (failed_ratio is 0);
- after a traced run every public function of acmbundles is the original
  object again, and no wrapper is left anywhere in the package;
- the benchmark starts no thread, and its only subprocesses are the
  sequential fresh interpreters that time set-up and measure peak memory;
- run.py exits nonzero, printing nothing on stdout, in a directory that
  holds only BENCHMARK.json and the benchmark's own files.

Exits 1 and names the first check that failed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading

import run
import tracer
from workloads import WORKLOADS


class SmokeFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def package_functions() -> dict:
    return {(name, attr): value for name, module in list(sys.modules.items())
            if module is not None and name.startswith("acmbundles")
            for attr, value in vars(module).items() if callable(value)}


def check_runs(spec) -> None:
    children = {"active": 0, "peak": 0, "spawns": 0}
    threads = []
    original_run, original_call = subprocess.run, run.call

    def counting_run(*args, **kwargs):
        children["active"] += 1
        children["spawns"] += 1
        children["peak"] = max(children["peak"], children["active"])
        try:
            return original_run(*args, **kwargs)
        finally:
            children["active"] -= 1

    def watching_call(cli, argv, clock=None):
        threads.append(threading.active_count())
        return original_call(cli, argv, clock)

    run.import_program()
    before = package_functions()
    subprocess.run, run.call = counting_run, watching_call
    try:
        for name in WORKLOADS:
            for trace in (False, True):
                label = f"{name} trace={int(trace)}"
                children["spawns"] = 0
                result, lines = run.execute(name, 1, 0.5, trace, tiny=True)
                declared = spec["per_layer" if trace else "end_to_end"]
                expect(set(result["metrics"]) == {m["name"] for m in declared},
                       f"{label}: reported metrics differ from BENCHMARK.json")
                for metric in declared:
                    got = result["metrics"][metric["name"]]
                    expect(got["unit"] == metric["unit"], f"{label}: unit of {metric['name']}")
                    expect(any(line.startswith(f"{metric['name']} = ")
                               and line.endswith(" " + metric["unit"]) for line in lines),
                           f"{label}: {metric['name']} not printed with its unit")
                expect(result["failed"] == 0 and result["correct"],
                       f"{label}: failed queries: {lines}")
                expect(any(line.startswith("failed_ratio = 0 ") for line in lines),
                       f"{label}: failed_ratio not printed as 0")
                expect(not tracer.leftover_wrappers(), f"{label}: a wrapper survived")
                expect(package_functions() == before,
                       f"{label}: package functions not restored")
                # 3 to time set-up, 1 more untraced to measure peak memory
                expect(children["spawns"] <= (3 if trace else 4) and children["peak"] == 1,
                       f"{label}: {children['spawns']} spawns, {children['peak']} at once")
                print(f"ok  {label}: {result['attempted']} queries")
    finally:
        subprocess.run, run.call = original_run, original_call
    expect(max(threads) == 1, f"{max(threads)} threads alive during queries")
    expect(children["peak"] <= (os.cpu_count() or 1), "more processes than CPUs")


def check_bare_directory(spec) -> None:
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=run.ROOT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        for path in spec["paths"]:
            shutil.copytree(run.ROOT / path, os.path.join(tmp, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", "queries",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180, check=False)
    expect(proc.returncode != 0 and proc.stdout == "",
           f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    print("ok  bare directory: exit", proc.returncode)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        check_runs(spec)
        check_bare_directory(spec)
    except SmokeFailure as exc:
        print(f"FAIL {exc}")
        return 1
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
