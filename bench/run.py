"""The acmbundles benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) from the root of a source checkout as
a single closed-loop client: each ``acmbundles.cli.main`` call is made in
this process and waits for its answer before the next is sent.  Every
answer is checked against the oracles in oracles.py outside the timed
interval.  The last line of stdout is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (``--trace 0``) or its
per-layer metrics (``--trace 1``).  The lines before it print the same
numbers for a reader, with failed_ratio and the tail's sample counts.

With ``--trace 0`` the loop runs whole rounds until the queries, timed at
reference speed (speed.py), and the reference samples beside them add up to
``--seconds``; its timings are reported at reference speed.  With
``--trace 1`` it runs the workload's fixed number of trace rounds twice,
plain and then with spans around every public function (tracer.py), so the
per-layer counts repeat exactly for a seed; the difference is the tracing
overhead; per-layer times are plain wall times.  Spans are written to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import speed
import tracer as tracing
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 11         # fresh interpreters per run for setup_s
TAIL_BEYOND = 10          # samples the tail percentile must leave above it

# A fresh interpreter that imports the CLI and reports, on the shared
# monotonic clock, when its own code started and when the import finished.
# Then it times the reference work of speed.py (median of five passes), so
# that its set-up can be scaled by the speed of the very process it timed.
_CHILD = (
    "import sys, time\n"
    "t0 = time.monotonic()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import acmbundles.cli\n"
    "t1 = time.monotonic()\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import speed\n"
    "ref = sorted(speed.sample() for _ in range(5))[2]\n"
    "print(t0, t1, ref, acmbundles.cli.__file__)\n"
)


# A fresh interpreter that runs the given queries (argv lists on stdin, as
# JSON) with stdout and stderr sent to /dev/null, and reports its own peak
# resident memory.  It holds only the program and its output, never the
# oracles or the benchmark's inputs.
_RSS_CHILD = (
    "import json, os, resource, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import acmbundles.cli\n"
    "queries = json.load(sys.stdin)\n"
    "real = sys.stdout\n"
    "sys.stdout = sys.stderr = open(os.devnull, 'w')\n"
    "codes = [acmbundles.cli.main(argv) for argv in queries]\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, *codes, file=real)\n"
)


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def spawn_import() -> tuple[float, float, float]:
    """(interpreter start, import, reference work) seconds for one fresh
    interpreter."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(SRC), str(BENCH)],
                          capture_output=True, text=True, timeout=60, check=False)
    if proc.returncode != 0:
        raise SetupError(f"fresh interpreter failed: {proc.stderr.strip()[-300:]}")
    t0, t1, ref, path = proc.stdout.split(maxsplit=3)
    if not Path(path.strip()).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"imported acmbundles from {path.strip()}, not from {SRC}")
    return float(t0) - start, float(t1) - float(t0), float(ref)


def measure_setup(spawns: int) -> tuple[list[float], list[float]]:
    """(interpreter start, import) seconds of each timed spawn, scaled to
    reference speed by the spawn's own reference timing."""
    spawn_import()  # unmeasured: lets the interpreter write bytecode caches
    interp, imports = [], []
    for _ in range(spawns):
        start, imported, ref = spawn_import()
        interp.append(start * speed.REFERENCE_S / ref)
        imports.append(imported * speed.REFERENCE_S / ref)
    return interp, imports


def import_program():
    if not (SRC / "acmbundles" / "cli.py").is_file():
        raise SetupError(f"no acmbundles sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import acmbundles.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"imported acmbundles from {cli.__file__}, not from {SRC}")
    return cli


def call(cli, argv, clock=None):
    """One query, timed: (seconds, exit code or exception, stdout, stderr).
    With a ``speed.Scaler`` the seconds leave out the reference samples it
    takes during the query, and the clock records the query's time."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        if clock is not None:
            clock.arm()
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except (Exception, SystemExit) as exc:  # counted as a failed query
            code = exc
        elapsed = time.perf_counter() - start
        if clock is not None:
            elapsed = clock.disarm(start, elapsed)
    return elapsed, code, out.getvalue(), err.getvalue()


def verdict(query, code, out, err) -> str | None:
    """None when the answer is right, else what is wrong with it."""
    if not isinstance(code, int):
        return f"uncaught {type(code).__name__}: {code}"
    if "Traceback" in err:
        return "traceback on stderr"
    if code != query.code:
        return f"exit code {code}, expected {query.code}; stderr {err.strip()[-120:]!r}"
    if code != 0:
        if out:
            return "stdout not empty on an error path"
        return None if err.strip() else "no error message on stderr"
    try:
        return query.check(out)
    except Exception as exc:  # an oracle that cannot read the output
        return f"oracle failed on the output: {exc!r}"


class Run:
    """Counts every query's outcome; keeps the first few failures."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failures = []
        self.output_bytes = 0

    def query(self, q, tracer=None, clock=None) -> float:
        if tracer is not None:
            tracer.begin_query()
        elapsed, code, out, err = call(self.cli, q.argv, clock)
        if tracer is not None:
            tracer.end_query()
            self.output_bytes += len(out.encode("utf-8"))
        self.attempted += 1
        problem = verdict(q, code, out, err)
        if problem is not None:
            self.failures.append(f"{' '.join(q.argv)}: {problem}")
        return elapsed


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest nearest-rank
    percentile that leaves TAIL_BEYOND samples above it: the
    (TAIL_BEYOND + 1)-th largest sample, or the maximum when there are fewer.
    Unlike a fixed list of percentiles, it cannot jump between p90 and p99
    when the sample count crosses a threshold."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, 1)
    return 100 * rank / n, ordered[rank - 1], n - rank


def peak_rss_mb(queries) -> float:
    """Peak resident memory of a fresh interpreter that imports the CLI and
    answers ``queries`` (the workload's heaviest) one after another."""
    proc = subprocess.run([sys.executable, "-c", _RSS_CHILD, str(SRC)],
                          input=json.dumps([list(q.argv) for q in queries]),
                          capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise SetupError(f"memory probe failed: {proc.stderr.strip()[-300:]}")
    peak, *codes = map(int, proc.stdout.split())
    if codes != [q.code for q in queries]:
        raise SetupError(f"memory probe exit codes {codes}, expected "
                         f"{[q.code for q in queries]}")
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024


def end_to_end(run, workload, seconds, interp, imports, lines):
    # Whole rounds run until the queries and reference samples together
    # have taken ``seconds`` at reference speed, so that a run does the
    # same work however fast the machine runs at the time.
    clock = speed.Scaler()
    start = time.monotonic()
    i = 0
    while clock.at_reference() < seconds:
        for q in workload.round(i):
            run.query(q, clock=clock)
        i += 1
    latencies, busy = clock.scaled, sum(clock.scaled)
    setup = [a + b for a, b in zip(interp, imports)]
    p, tail_value, beyond = tail(latencies)
    raw_p50 = statistics.median(clock.raw)
    lines.append(f"rounds {i}, {len(latencies)} timed queries, {sum(clock.raw):.2f} s busy, "
                 f"{time.monotonic() - start:.2f} s wall")
    lines.append(f"timings are at reference speed (speed.py); unscaled p50 "
                 f"{raw_p50 * 1e3:.4g} ms, the machine ran at "
                 f"{statistics.median(latencies) / raw_p50:.3f} of reference speed")
    lines.append(f"latency_tail_ms is p{p:.2f}: {len(latencies)} samples, {beyond} beyond it")
    return {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "throughput_qps": len(latencies) / busy,
        "peak_rss_mb": peak_rss_mb(workload.warmup()),
    }


def per_layer(run, workload, interp, imports, lines, spans_path):
    rounds = 1 if workload.tiny else workload.trace_rounds
    queries = [q for i in range(rounds) for q in workload.round(i)]
    plain = sum(run.query(q) for q in queries)
    t = tracing.Tracer()
    t.install()
    try:
        traced = sum(run.query(q, t) for q in queries)
    finally:
        t.remove()
    leftover = tracing.leftover_wrappers()
    if leftover:
        raise SetupError(f"wrappers left installed: {leftover}")
    spans_path.parent.mkdir(exist_ok=True)
    t.write(spans_path)
    counts = t.counts
    handler_self = sum(stat[2] for name, stat in t.stats.items()
                       if name.startswith("cli.cmd_")) / 1e6
    values = {
        "process.interpreter_ms": statistics.median(interp) * 1e3,
        "process.import_ms": statistics.median(imports) * 1e3,
        "cli.main.self_ms": t.ms("cli.main", 2),
        "cli.handler.self_ms": handler_self,
        "cli.calls": t.calls("cli.main"),
        "cli.output_bytes": run.output_bytes,
        "constraints.rows": counts["rows"],
        "constraints.entries": counts["entries"],
        "constraints.us_per_entry": (t.ms("constraints.enumerate_acm_r4") * 1e3
                                     / counts["entries"]) if counts["entries"] else 0.0,
        "chern.require_integer.calls": t.calls("chern.require_integer"),
        "extensions.load_catalog.ms": t.ms("extensions.load_catalog"),
        "extensions.load_catalog.lines": counts["catalog_lines"],
        "extensions.extend_rank2.calls": (t.calls("extensions.extend_rank2")
                                          - counts["rebuilds"]),
        "extensions.decompose.hit_ratio": (counts["decompose_hits"] / counts["decompose_pairs"]
                                           if counts["decompose_pairs"] else 0.0),
        "trace.overhead_ms": (traced - plain) * 1e3,
        "trace.overhead_ratio": (traced - plain) / plain,
    }
    for name in ("constraints.enumerate_acm_r4", "extensions.decompose",
                 "extensions.extension_quadruples", "extensions.coverage_report",
                 "selfcheck.run_all"):
        values[f"{name}.self_ms"] = t.ms(name, 2)
        values[f"{name}.calls"] = t.calls(name)
    for name in ("constraints.c2_interval_r4", "constraints.c3_from_acm",
                 "constraints.genus_from_acm", "chern.twist", "chern.chi_bundle",
                 "chern.chi_line_bundle", "chern.genus_general", "chern.genus_r4"):
        values[f"{name}.ms"] = t.ms(name)
        values[f"{name}.calls"] = t.calls(name)
    total = t.ms("query")
    for module in tracing.MODULES:
        values[f"{module}.self_ms"] = t.module_self_ms(module)
    shares = ", ".join(f"{m} {values[m + '.self_ms'] / total:.1%}" for m in tracing.MODULES)
    lines.append(f"trace: {len(queries)} queries, {plain * 1e3:.1f} ms plain, "
                 f"{traced * 1e3:.1f} ms traced; self-time shares: {shares}; "
                 f"{len(t.spans)} spans kept, {t.dropped} dropped -> {spans_path}")
    return values


def execute(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns (result object, report lines)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    cli = import_program()
    system = os.uname()
    lines = [f"workload {name}, seed {seed}, trace {int(trace)}; python "
             f"{platform.python_version()} ({platform.python_implementation()}), "
             f"nproc {os.cpu_count()}, {system.sysname} {system.release} {system.machine}"]
    interp, imports = measure_setup(2 if tiny else SETUP_SPAWNS)
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        workload = WORKLOADS[name](seed, tiny, ROOT, Path(tmp))
        run = Run(cli)
        for q in workload.warmup():
            run.query(q)
        # The benchmark's own objects (inputs, oracle tables) would otherwise
        # be scanned by every full collection that a query triggers, and
        # those collections set the tail of short queries.
        gc.collect()
        gc.freeze()
        try:
            if trace:
                spans = ROOT / ".bench_out" / f"spans-{name}-seed{seed}.jsonl"
                values = per_layer(run, workload, interp, imports, lines, spans)
            else:
                values = end_to_end(run, workload, seconds, interp, imports, lines)
        finally:
            gc.unfreeze()
    failed = len(run.failures)
    lines.append(f"failed_ratio = {failed / run.attempted:g} ({failed}/{run.attempted})")
    lines += [f"FAILED {f}" for f in run.failures[:10]]
    metrics = {}
    for metric in declared:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        lines.append(f"{metric['name']} = {value:.6g} {metric['unit']}")
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def pin_to_one_cpu() -> None:
    """Keep this process, and the interpreters it spawns, on one CPU: the
    program then never migrates between cores of different speed, and the
    reference work runs on the core the queries run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    try:
        result, lines = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, OSError, ImportError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
