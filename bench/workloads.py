"""Seeded query streams for the four workloads.

Every workload is one closed-loop client calling ``acmbundles.cli.main``
in process.  A workload is a list of warm-up queries plus an endless
sequence of rounds; round ``i`` is drawn from ``Random(f"{seed}:{name}:{i}")``
so the same seed always yields the same queries.  The seed chooses values,
targets, catalog contents and order; sizes, pools and formats follow a fixed
rotation, so that medians and tails stay comparable between seeds and
between commits.

The warm-up holds each workload's largest query, so that peak memory is set
by the same query on every run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

FORMATS = ("table", "json", "csv")
GOLDEN = (math.sqrt(5) - 1) / 2  # Weyl-sequence step: spreads offsets evenly


@dataclass(frozen=True)
class Query:
    """One CLI invocation and what a correct answer looks like.

    ``check`` validates stdout of a successful call; expected-error queries
    have ``check=None`` and are judged by exit code, empty stdout and a
    traceback-free stderr.
    """

    argv: tuple[str, ...]
    code: int
    check: Callable[[str], str | None] | None


def _fmt(argv: list, fmt: str) -> tuple[str, ...]:
    return tuple(str(a) for a in argv) + ("--format", fmt)


def _quad_arg(flag: str, quad) -> str:
    # the '=' form keeps argparse from reading a leading '-' as an option
    return f"{flag}={','.join(map(str, quad))}"


class Workload:
    name = ""
    trace_rounds = 1

    def __init__(self, seed: int, tiny: bool, root: Path, tmp: Path):
        self.seed, self.tiny, self.root, self.tmp = seed, tiny, root, tmp

    def rng(self, tag) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{tag}")

    def warmup(self) -> list[Query]:
        raise NotImplementedError

    def round(self, i: int) -> list[Query]:
        raise NotImplementedError


def _golden(root: Path, k: int) -> str:
    return (root / "tests" / "golden" / f"enumerate_k{k}.txt").read_text(encoding="utf-8")


class Tables(Workload):
    # enumerate is the paper's main product.  Entries grow as k^3.  Each
    # round asks for the refined ranks 3 and 4 once in every format, plus
    # one k per log-uniform band of [5, K_MAX]: a few large calls.  Within
    # its band each k follows a Weyl sequence started at a seeded phase, so
    # every seed covers the bands evenly, and each band keeps one format, so
    # latency rises smoothly through a band.  The median falls near k = 10,
    # where per-entry work outweighs the CLI's fixed cost, and the tail near
    # the top band.
    # The work is c3/genus per entry in constraints and chern, and
    # O(entries) CSV/JSON rendering in cli; extensions is never reached.
    name = "tables"
    trace_rounds = 2

    def __init__(self, *args):
        super().__init__(*args)
        self.k_max = 12 if self.tiny else 150
        bands = 3 if self.tiny else 9
        rng = self.rng("phases")
        self.phases = [rng.random() for _ in range(bands)]
        self.golden = {k: _golden(self.root, k) for k in (3, 4)}

    def query(self, k: int, fmt: str) -> Query:
        golden = self.golden.get(k) if fmt == "table" else None
        return Query(_fmt(["enumerate", "--k", k], fmt), 0,
                     oracles.expect_enumerate(k, fmt, golden))

    def warmup(self):
        return [self.query(self.k_max, "json")]

    def round(self, i):
        low, high = math.log(5), math.log(self.k_max)
        bands = len(self.phases)
        queries = [self.query(k, f) for k in (3, 4) for f in FORMATS]
        for j, phase in enumerate(self.phases):
            offset = (phase + i * GOLDEN) % 1.0
            k = round(math.exp(low + (j + offset) / bands * (high - low)))
            queries.append(self.query(k, FORMATS[j % 3]))
        self.rng(i).shuffle(queries)
        return queries


class Search(Workload):
    # decompose and extensions scan every unordered pair of a catalog, so
    # cost grows as n^2.  Catalog override files of geometrically spaced
    # sizes hold degrees 3, 4 and 5 with mixed star flags.  Most calls are
    # decompose, one per pool per file each round, rotating between a
    # target with several witnesses, a realizable target (built from a
    # pair) and an unrealizable one.
    # extensions lists every pair of the smaller files each round, so the
    # work of a round stays level, and coverage --k 4 combines the star-pool
    # listing with the rank-4 table.  The seed picks catalog contents and
    # targets; sizes, pools and formats rotate.
    name = "search"
    trace_rounds = 3
    DEGREES = (3, 4, 5)
    TARGETS = 8  # targets of each kind per (file, degree), at most

    def __init__(self, *args):
        super().__init__(*args)
        sizes = (6, 12) if self.tiny else tuple(round(20 * 15 ** (j / 7)) for j in range(8))
        # Files below this index get one listing per round in a rotating pool
        # and format, and coverage.  The file at the index is listed in full
        # as JSON every round: the heaviest query, so the tail of a run sits
        # inside that one query shape.  Larger files get decompose only; one
        # listing of theirs would outweigh the rest of a round.
        self.listed = 1 if self.tiny else 4
        self.files = []
        for index, n in enumerate(sizes):
            rng = self.rng(f"catalog{index}")
            classes = {r: self._classes(rng, n) for r in self.DEGREES}
            path = self.tmp / f"catalog-{n}.txt"
            path.write_text(self._catalog_text(rng, classes), encoding="utf-8")
            targets = {r: self._targets(rng, r, classes[r]) for r in self.DEGREES}
            self.files.append((str(path), classes, targets))

    @staticmethod
    def _classes(rng, n):
        """n distinct (c1, c2, star) classes.  Four of them, all star, are
        planted as two pairs with a common c1 and the same sum of c2, so the
        pairs extend to the same quadruple: (x, u) + (x, v) and
        (x, u + d) + (x, v - d).  Sparse random cells rarely collide, and
        without the plant a small catalog has no target with two witnesses."""
        x, u, d = rng.randint(-4, 12), rng.randint(-5, 60), rng.randint(1, 4)
        v = u + rng.randint(10, 80)
        planted = [(x, u), (x, v), (x, u + d), (x, v - d)]
        grid = [(c1, c2) for c1 in range(-4, 13) for c2 in range(-5, 150)
                if (c1, c2) not in planted]
        classes = [(c1, c2, True) for c1, c2 in planted]
        classes += [(c1, c2, rng.random() < 0.6) for c1, c2 in rng.sample(grid, n - 4)]
        rng.shuffle(classes)
        return classes

    @staticmethod
    def _catalog_text(rng, classes) -> str:
        lines = [(r, c1, c2, star) for r, entries in classes.items()
                 for c1, c2, star in entries]
        rng.shuffle(lines)
        out = ["# synthetic rank-two catalogue — degrees 3, 4, 5", ""]
        for index, (r, c1, c2, star) in enumerate(lines):
            if index % 50 == 49:
                out += ["", f"# block {index // 50}"]
            gg = rng.choice(("always", "generic", "no"))
            out.append(f"{'  ' if index % 7 == 0 else ''}{r} {c1} {c2} {int(star)} {gg}")
        return "\n".join(out) + "\n"

    def _targets(self, rng, r, classes):
        """Targets with their witnesses, from a brute-force map of every
        pair's extension: {kind: [(target, {pool: witnesses})]}.  "multi"
        targets have two or more witnesses in both pools, so an answer that
        drops one of them shows; "real" ones are pair sums; "unreal" ones
        are pair sums moved off every pair."""
        star = {(c1, c2) for c1, c2, s in classes if s}
        witnesses = oracles.all_witnesses(r, oracles.pool_pairs(classes, "normalized"))
        hits = {}
        for w in witnesses:
            found = hits.setdefault(w[0], {"star": [], "normalized": []})
            found["normalized"].append(w)
            if w[1] in star and w[2] in star:
                found["star"].append(w)
        multi = [quad for quad, found in hits.items() if len(found["star"]) >= 2]
        if not multi:
            raise AssertionError(f"catalog for r={r} has no target with two witnesses")
        real = [w[0] for w in rng.sample(witnesses, self.TARGETS)]
        unreal = []
        for k, c1, c2, c3 in real:
            shift = rng.choice((-3, -2, -1, 1, 2, 3))
            quad = (k, c1, c2, c3 + shift) if rng.random() < 0.5 else (k, c1, c2 + shift, c3)
            if quad not in hits:
                unreal.append((quad, {"star": [], "normalized": []}))
        return {
            "multi": [(quad, hits[quad])
                      for quad in rng.sample(multi, min(len(multi), self.TARGETS))],
            "real": [(quad, hits[quad]) for quad in real],
            "unreal": unreal,
        }

    def decompose(self, path, r, target, pool, hits, fmt) -> Query:
        argv = ["decompose", "--r", r, _quad_arg("--target", target), "--pool", pool,
                "--catalog", path]
        return Query(_fmt(argv, fmt), 0,
                     oracles.expect_decompose(r, target, pool, path, hits[pool], fmt))

    def extensions(self, file, r, pool, fmt) -> Query:
        path, classes, _ = file

        def check(out):
            witnesses = oracles.all_witnesses(r, oracles.pool_pairs(classes[r], pool))
            return oracles.expect_extensions(r, pool, path, witnesses, fmt)(out)
        argv = ["extensions", "--r", r, "--pool", pool, "--catalog", path]
        return Query(_fmt(argv, fmt), 0, check)

    def coverage(self, file, fmt) -> Query:
        path, classes, _ = file
        star_pairs = oracles.pool_pairs(classes[4], "star")
        return Query(_fmt(["coverage", "--k", 4, "--catalog", path], fmt), 0,
                     oracles.expect_coverage(4, path, star_pairs, fmt))

    def warmup(self):
        path, _, targets = self.files[-1]
        target, hits = targets[4]["real"][0]
        return [self.extensions(self.files[self.listed], 4, "normalized", "json"),
                self.decompose(path, 4, target, "normalized", hits, "json")]

    def round(self, i):
        rng = self.rng(i)
        queries = []
        for f, (path, _, targets) in enumerate(self.files):
            r = self.DEGREES[(i + f) % 3]
            for p, pool in enumerate(("star", "normalized")):
                kind = ("multi", "real", "unreal")[(i + f + p) % 3]
                target, hits = rng.choice(targets[r][kind] or targets[r]["real"])
                queries.append(self.decompose(path, r, target, pool, hits,
                                              FORMATS[(i + 2 * f + p) % 3]))
        for f in range(self.listed):
            queries.append(self.extensions(self.files[f], self.DEGREES[(i + 2 * f) % 3],
                                           ("star", "normalized")[(i + f) % 2],
                                           FORMATS[(i + f) % 3]))
        queries.append(self.extensions(self.files[self.listed], self.DEGREES[i % 3],
                                       "normalized", "json"))
        queries.append(self.coverage(self.files[i % self.listed], FORMATS[i // 2 % 3]))
        rng.shuffle(queries)
        return queries


class Queries(Workload):
    # The paper's own small queries plus random chi/twist/genus lookups and
    # a minority of invocations that must fail cleanly (exit 2 for usage,
    # 1 for domain errors, nothing on stdout, no traceback).  The kernels
    # do microseconds of work here, so argparse set-up, dispatch, rendering
    # and the error paths of the CLI front end dominate.
    name = "queries"
    trace_rounds = 10
    RANDOM_PER_KIND = 8
    ERRORS = 8

    def __init__(self, *args):
        super().__init__(*args)
        self.golden = {k: _golden(self.root, k) for k in (3, 4)}
        self.missing = str(self.tmp / "missing-catalog.txt")
        builtin_star_r4 = oracles.pool_pairs(oracles.BUILTIN_CLASSES[4], "star")
        paper = []
        for fmt in FORMATS:
            paper += [
                Query(_fmt(["chi", "--r", 4, "--line", "-a", 1], fmt), 0,
                      oracles.expect_chi_line(4, 1, fmt)),
                Query(_fmt(["chi", "--r", 4, "--bundle", "4,1,6,4"], fmt), 0,
                      oracles.expect_chi_bundle(4, (4, 1, 6, 4), fmt)),
                Query(_fmt(["twist", "--r", 4, "--bundle", "3,1,5,2", "-n", 1], fmt), 0,
                      oracles.expect_twist(4, (3, 1, 5, 2), 1, fmt)),
                Query(_fmt(["genus", "--r", 4, "--bundle", "4,6,64,84"], fmt), 0,
                      oracles.expect_genus(4, (4, 6, 64, 84), fmt)),
            ]
            for k in (3, 4):
                paper.append(Query(_fmt(["enumerate", "--k", k], fmt), 0,
                                   oracles.expect_enumerate(
                                       k, fmt, self.golden[k] if fmt == "table" else None)))
                paper.append(Query(_fmt(["coverage", "--k", k], fmt), 0,
                                   oracles.expect_coverage(k, None, builtin_star_r4, fmt)))
            for pool in ("star", "normalized"):
                for r in (3, 4):
                    pairs = oracles.pool_pairs(oracles.BUILTIN_CLASSES[r], pool)
                    paper.append(Query(
                        _fmt(["extensions", "--r", r, "--pool", pool], fmt), 0,
                        oracles.expect_extensions(r, pool, None,
                                                  oracles.all_witnesses(r, pairs), fmt)))
                paper.append(Query(
                    _fmt(["decompose", "--r", 4, "--target", "4,1,6,4", "--pool", pool], fmt),
                    0, oracles.expect_decompose(4, (4, 1, 6, 4), pool, None, [], fmt)))
        self.paper = paper
        self._check_known_answers()

    @staticmethod
    def _check_known_answers():
        """The oracle must reproduce the paper's published values."""
        known = [
            (oracles.chi_line(4, 1), 5),
            (oracles.chi_bundle(4, 4, 1, 6, 4), 4),
            (oracles.twist(4, 3, 1, 5, 2, 1), (3, 4, 25, 15)),
            (oracles.genus(4, 6, 64, 84), 203),
            (len(oracles.all_witnesses(4, oracles.pool_pairs(oracles.BUILTIN_CLASSES[4],
                                                             "normalized"))), 28),
            (len(oracles.all_witnesses(4, oracles.pool_pairs(oracles.BUILTIN_CLASSES[4],
                                                             "star"))), 10),
        ]
        for got, want in known:
            if got != want:
                raise AssertionError(f"oracle gives {got}, the paper {want}")
        pairs = oracles.pool_pairs(oracles.BUILTIN_CLASSES[4], "normalized")
        if any(w[0] == (4, 1, 6, 4) for w in oracles.all_witnesses(4, pairs)):
            raise AssertionError("oracle decomposes (4;1,6,4)")

    def _random(self, rng, i) -> list[Query]:
        out = []
        for j in range(self.RANDOM_PER_KIND):
            fmt = FORMATS[(i + j) % 3]
            r = rng.randint(1, 8)
            quad = (rng.randint(1, 8), rng.randint(-20, 20), rng.randint(-60, 60),
                    rng.randint(-80, 80))
            a, n = rng.randint(-10, 10), rng.randint(-10, 10)
            out += [
                Query(_fmt(["chi", "--r", r, "--line", "-a", a], fmt), 0,
                      oracles.expect_chi_line(r, a, fmt)),
                Query(_fmt(["chi", "--r", r, _quad_arg("--bundle", quad)], fmt), 0,
                      oracles.expect_chi_bundle(r, quad, fmt)),
                Query(_fmt(["twist", "--r", r, _quad_arg("--bundle", quad), "-n", n], fmt), 0,
                      oracles.expect_twist(r, quad, n, fmt)),
            ]
            gquad = (max(2, quad[0]),) + quad[1:]
            out.append(Query(_fmt(["genus", "--r", r, _quad_arg("--bundle", gquad)], fmt), 0,
                             oracles.expect_genus(r, gquad, fmt)))
        return out

    def _errors(self, rng) -> list[Query]:
        r = rng.randint(1, 8)
        quad = (rng.randint(2, 8), rng.randint(-9, 9), rng.randint(-30, 30),
                rng.randint(-30, 30))
        bundle = _quad_arg("--bundle", quad)
        usage = [
            ["chi", "--r", r, "--line"],
            ["chi", "--r", r],
            ["chi", "--r", r, "--line", "-a", 1, bundle],
            ["chi", "--r", r, bundle, "-a", 2],
            ["twist", "--r", r, "--bundle=1,2,3"],
            ["twist", "--r", r, bundle],
            ["genus", "--r", "x", bundle],
            ["enumerate", "--k", quad[0], "--format", "xml"],
            ["frobnicate"],
        ]
        domain = [
            ["chi", "--r", 0, "--line", "-a", 1],
            ["chi", f"--r={-r}", bundle],
            ["genus", "--r", r, _quad_arg("--bundle", (1,) + quad[1:])],
            ["decompose", "--r", 4, _quad_arg("--target", (3,) + quad[1:])],
            ["extensions", "--r", rng.choice((1, 2, 5, 6))],
            ["decompose", "--r", 4, "--target", "4,1,6,4", "--expect-witness"],
            ["enumerate", "--k", 1],
            ["extensions", "--r", 4, "--catalog", self.missing],
        ]
        picks = [(argv, 2) for argv in rng.sample(usage, self.ERRORS // 2)]
        picks += [(argv, 1) for argv in rng.sample(domain, self.ERRORS - self.ERRORS // 2)]
        return [Query(tuple(map(str, argv)), code, None) for argv, code in picks]

    def warmup(self):
        return list(self.paper)

    def round(self, i):
        rng = self.rng(i)
        queries = self.paper + self._random(rng, i) + self._errors(rng)
        rng.shuffle(queries)
        return queries


class Selfcheck(Workload):
    # selfcheck drives the Fraction kernel in chern (twist, chi_bundle,
    # genus) through thousands of random cases.  Elsewhere chern hides under
    # microsecond calls, so without this workload it would go unmeasured.
    name = "selfcheck"

    def warmup(self):
        return [Query(_fmt(["selfcheck"], "json"), 0, oracles.expect_selfcheck("json"))]

    def round(self, i):
        formats = list(FORMATS)
        self.rng(i).shuffle(formats)
        return [Query(_fmt(["selfcheck"], f), 0, oracles.expect_selfcheck(f))
                for f in formats]


WORKLOADS = {w.name: w for w in (Tables, Search, Queries, Selfcheck)}
