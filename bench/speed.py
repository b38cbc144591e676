"""How fast the machine runs right now, for scaling timings to one speed.

On a shared host the same CPU-bound Python code runs up to 40% slower or
faster from one second to the next, because neighbours contend for the
cores and caches.  Every timing of the program moves with it, so ten runs
of one workload spread more than any useful regression bound.

The benchmark therefore times a fixed piece of reference work, written
here and independent of the program, next to the program's own queries,
and scales each query's wall time by ``REFERENCE_S / reference time``: a
timing "at reference speed".  The reference work mixes what the program
does: Fraction arithmetic (the chern kernel), small dicts, lists and
strings (rows and rendering) and JSON encoding (output).  It is the same
on every commit, so a change to the program moves scaled timings as it
moves wall times.
"""

from __future__ import annotations

import gc
import json
import random
import signal
import statistics
import time
from fractions import Fraction

# Seconds one pass of reference_work took at the median speed of the
# machine the bounds were set on (CPython 3.11.7, 2 vCPUs, Linux x86_64).
REFERENCE_S = 0.001
FLANK = 2        # reference samples on either side of a query
TICK_S = 0.02    # interval between reference samples inside a long query


def reference_work() -> int:
    rng = random.Random(0x5EED)
    acc = Fraction(0)
    rows = []
    for i in range(1, 50):
        a, b = rng.randint(-60, 60), rng.randint(1, 24)
        acc = Fraction(a, b) * i + Fraction(i, 6) - acc / 7
        acc = Fraction(acc.numerator % 1000003, acc.denominator % 997 + 1)
        rows.append({"k": i, "c": [a, b, i * i], "s": str(acc)})
    return len(json.dumps(rows)) + len(",".join(row["s"] for row in rows))


def sample() -> float:
    """Seconds for one pass of the reference work, with the cyclic garbage
    collector held off so that the program's heap does not add to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Scaler:
    """Times queries and scales each to reference speed.

    ``arm`` takes ``FLANK`` reference samples just before a query and starts
    an interval timer that takes one more every ``TICK_S`` while the query
    runs; ``disarm`` stops it and takes ``FLANK`` samples just after.  The
    query's own time (its wall time less the samples taken inside it) is
    scaled by the mean of all these samples.  A short query is judged by
    the samples on either side of it; the machine's slow spells last longer
    than such a query.  A long one spans several spells and is judged
    mostly by the samples inside it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.ticks: list[tuple[float, float]] = []
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.taken = 0  # reference samples taken so far

    def at_reference(self) -> float:
        """Seconds the queries and samples so far took at reference speed."""
        return sum(self.scaled) + self.taken * REFERENCE_S

    def _tick(self, signum, frame) -> None:
        self.ticks.append((time.perf_counter(), sample()))

    def arm(self) -> None:
        self.samples = [sample() for _ in range(FLANK)]
        self.ticks = []
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def disarm(self, start: float, elapsed: float) -> float:
        """Stop sampling; record and return the query's own time, the
        wall time from ``start`` less the samples taken inside it."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        inside = [took for at, took in self.ticks if at < start + elapsed]
        own = elapsed - sum(inside)
        self.samples += inside + [sample() for _ in range(FLANK)]
        self.taken += len(self.samples)
        self.raw.append(own)
        self.scaled.append(own * REFERENCE_S / statistics.fmean(self.samples))
        return own
