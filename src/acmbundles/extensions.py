"""The classified rank-two ACM bundles on degree-3 and degree-4 hypersurfaces,
rank-four extension arithmetic, exhaustive decomposability search, and the
realized/open coverage report for the admissibility tables.

The built-in catalog is finished classification data; an override file can be
supplied for exploring hypothetical catalogs at other degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations_with_replacement
from pathlib import Path

from . import constraints
from .chern import BundleInvariants, DomainError, HypersurfaceContext

__all__ = [
    "UnsupportedDegree",
    "RankUnsupported",
    "CatalogParseError",
    "GlobalGeneration",
    "Rank2CatalogEntry",
    "Catalog",
    "BUILTIN_CATALOG",
    "load_catalog",
    "catalog",
    "extend_rank2",
    "ExtensionWitness",
    "extension_quadruples",
    "distinct_quadruples",
    "decompose",
    "POOL_NORMALIZED",
    "POOL_STAR",
    "CURVE_REALIZED",
    "CoverageItem",
    "CoverageReport",
    "coverage_report",
    "STATUS_EXTENSION",
    "STATUS_CURVE",
    "STATUS_OPEN",
]


class UnsupportedDegree(DomainError):
    """The rank-two classification covers only hypersurface degrees 3 and 4."""


class RankUnsupported(DomainError):
    """Splitting into two rank-two pieces only makes sense at rank 4."""


class CatalogParseError(DomainError):
    """A catalog override file failed to parse; the message carries the line number."""


class GlobalGeneration(str, Enum):
    """Whether bundles in a catalog class are generated by global sections."""

    ALWAYS = "always"
    GENERIC = "generic"  # the general member is; not asserted for all members
    NO = "no"


@dataclass(frozen=True)
class Rank2CatalogEntry:
    """A normalized undecomposable rank-two ACM class (c1, c2) on a degree-r
    hypersurface, with its star and global-generation flags."""

    r: int
    c1: int
    c2: int
    satisfies_star: bool
    globally_generated: GlobalGeneration

    @property
    def pair(self) -> tuple[int, int]:
        return (self.c1, self.c2)

    def __str__(self) -> str:
        return f"({self.c1},{self.c2})"


@dataclass(frozen=True)
class Catalog:
    """An immutable collection of rank-two classes, keyed by ambient degree."""

    entries: tuple[Rank2CatalogEntry, ...]

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({entry.r for entry in self.entries}))

    def for_degree(self, r: int) -> list[Rank2CatalogEntry]:
        found = [entry for entry in self.entries if entry.r == r]
        if not found:
            known = ", ".join(map(str, self.degrees())) or "none"
            raise UnsupportedDegree(
                f"no rank-two classification for degree {r} (available: {known})"
            )
        return found


#: The complete normalized rank-two classification for degrees 3 and 4.
#: Star fails exactly for (0,1) at r=3 and for (-1,1), (0,2), (1,5) at r=4;
#: on the quartic, (3,14) is always globally generated and the general (2,8)
#: is ("generic" records that without claiming every member).
BUILTIN_CATALOG = Catalog(
    (
        Rank2CatalogEntry(3, 0, 1, False, GlobalGeneration.NO),
        Rank2CatalogEntry(3, 1, 2, True, GlobalGeneration.NO),
        Rank2CatalogEntry(3, 2, 5, True, GlobalGeneration.NO),
        Rank2CatalogEntry(4, -1, 1, False, GlobalGeneration.NO),
        Rank2CatalogEntry(4, 0, 2, False, GlobalGeneration.NO),
        Rank2CatalogEntry(4, 1, 3, True, GlobalGeneration.NO),
        Rank2CatalogEntry(4, 1, 4, True, GlobalGeneration.NO),
        Rank2CatalogEntry(4, 1, 5, False, GlobalGeneration.NO),
        Rank2CatalogEntry(4, 2, 8, True, GlobalGeneration.GENERIC),
        Rank2CatalogEntry(4, 3, 14, True, GlobalGeneration.ALWAYS),
    )
)


def load_catalog(path: str | Path) -> Catalog:
    """Parse a catalog override file.

    One entry per line, whitespace separated: ``r c1 c2 star gg`` with
    star in {0, 1} and gg in {always, generic, no}.  Lines starting with
    ``#`` and blank lines are skipped.  UTF-8 only.
    """
    entries = []
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # number lines as splitlines() does below: the text before the bad
        # byte is valid, and a sentinel marks whether it ends mid-line
        lineno = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise CatalogParseError(f"{path}: line {lineno}: not valid UTF-8") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 5:
            raise CatalogParseError(
                f"{path}: line {lineno}: expected 5 fields 'r c1 c2 star gg', "
                f"got {len(tokens)}"
            )
        try:
            r, c1, c2 = int(tokens[0]), int(tokens[1]), int(tokens[2])
        except ValueError:
            raise CatalogParseError(
                f"{path}: line {lineno}: r, c1, c2 must be integers"
            ) from None
        if tokens[3] not in ("0", "1"):
            raise CatalogParseError(
                f"{path}: line {lineno}: star must be 0 or 1, got {tokens[3]!r}"
            )
        try:
            gg = GlobalGeneration(tokens[4])
        except ValueError:
            raise CatalogParseError(
                f"{path}: line {lineno}: gg must be one of always/generic/no, "
                f"got {tokens[4]!r}"
            ) from None
        entries.append(Rank2CatalogEntry(r, c1, c2, tokens[3] == "1", gg))
    return Catalog(tuple(entries))


def catalog(r: int, source: Catalog | None = None) -> list[Rank2CatalogEntry]:
    """All normalized rank-two ACM classes on the degree-r hypersurface."""
    return (source or BUILTIN_CATALOG).for_degree(r)


def extend_rank2(
    ctx: HypersurfaceContext,
    e1: tuple[int, int],
    e2: tuple[int, int],
) -> BundleInvariants:
    """Invariants of a rank-four bundle sitting in an extension of two
    rank-two bundles with classes (c1', c2') and (c1'', c2''):

    c1 = c1' + c1''
    c2 = c2' + r c1' c1'' + c2''
    c3 = c2' c1'' + c1' c2''

    The cross term in c2 is the intersection number of the two divisor
    classes, hence the factor r; on the quartic it is the literal 4.
    """
    a1, a2 = e1
    b1, b2 = e2
    return BundleInvariants(4, a1 + b1, a2 + ctx.r * a1 * b1 + b2, a2 * b1 + a1 * b2)


@dataclass(frozen=True)
class ExtensionWitness:
    """An unordered pair of catalog classes with the invariants of their
    extension; left <= right in (c1, c2) order."""

    left: Rank2CatalogEntry
    right: Rank2CatalogEntry
    result: BundleInvariants

    def sort_key(self) -> tuple:
        return (self.result.quadruple(), self.left.pair, self.right.pair)

    def __str__(self) -> str:
        return f"{self.left}+{self.right}"


def _make_witness(
    ctx: HypersurfaceContext, a: Rank2CatalogEntry, b: Rank2CatalogEntry
) -> ExtensionWitness:
    if b.pair < a.pair:
        a, b = b, a
    return ExtensionWitness(a, b, extend_rank2(ctx, a.pair, b.pair))


POOL_NORMALIZED = "normalized"  # the full classification list
POOL_STAR = "star"              # only classes satisfying the star condition


def _pool_entries(entries: list[Rank2CatalogEntry], pool: str) -> list[Rank2CatalogEntry]:
    if pool in (POOL_STAR, "star_only"):
        return [entry for entry in entries if entry.satisfies_star]
    if pool == POOL_NORMALIZED:
        return list(entries)
    raise DomainError(f"unknown pool {pool!r}; expected 'star' or 'normalized'")


def extension_quadruples(
    r: int, require_star: bool = True, source: Catalog | None = None
) -> list[ExtensionWitness]:
    """Every unordered pair (repetition allowed) of catalog classes on the
    degree-r hypersurface, optionally restricted to star classes, with the
    invariants of the corresponding extension.

    Sorted by resulting quadruple, then by left entry; pairs producing the
    same quadruple are all retained.
    """
    ctx = HypersurfaceContext(r)
    pool = POOL_STAR if require_star else POOL_NORMALIZED
    entries = _pool_entries(catalog(r, source), pool)
    witnesses = [
        _make_witness(ctx, a, b)
        for a, b in combinations_with_replacement(entries, 2)
    ]
    witnesses.sort(key=ExtensionWitness.sort_key)
    return witnesses


def distinct_quadruples(witnesses: list[ExtensionWitness]) -> list[BundleInvariants]:
    """The distinct resulting quadruples of a witness list, ascending."""
    seen: dict[tuple[int, int, int, int], BundleInvariants] = {}
    for witness in witnesses:
        seen.setdefault(witness.result.quadruple(), witness.result)
    return [seen[quad] for quad in sorted(seen)]


def decompose(
    r: int,
    target: BundleInvariants,
    pool: str = POOL_STAR,
    source: Catalog | None = None,
) -> list[ExtensionWitness]:
    """All unordered catalog pairs on the degree-r hypersurface whose
    extension invariants equal ``target`` (which must have rank 4).

    An empty list is a definitive negative over the chosen pool: no pair of
    classified rank-two bundles can produce these invariants.
    """
    if target.k != 4:
        raise RankUnsupported(
            f"decomposition into two rank-two pieces needs rank 4, got {target.k}"
        )
    ctx = HypersurfaceContext(r)
    entries = _pool_entries(catalog(r, source), pool)
    hits = [
        _make_witness(ctx, a, b)
        for a, b in combinations_with_replacement(entries, 2)
        if extend_rank2(ctx, a.pair, b.pair).quadruple() == target.quadruple()
    ]
    hits.sort(key=ExtensionWitness.sort_key)
    return hits


STATUS_EXTENSION = "realized-by-extension"
STATUS_CURVE = "realized-by-curve"
STATUS_OPEN = "open"

#: Quadruples known to be realized by explicit curve constructions rather
#: than extensions, with a description of the constructing curve.
CURVE_REALIZED: dict[tuple[int, int, int, int], str] = {
    (4, 1, 6, 4): (
        "curve construction: projectively normal sextic of genus 3 "
        "inside a hyperplane section"
    ),
    (3, 1, 5, 2): (
        "curve construction: quintic of genus 2 (type (2,3) on a quadric) "
        "inside a hyperplane section"
    ),
}


@dataclass(frozen=True)
class CoverageItem:
    """One admissible quadruple with its realization status and evidence."""

    invariants: BundleInvariants
    genus: int
    status: str
    origin: str
    witnesses: tuple[ExtensionWitness, ...]


@dataclass(frozen=True)
class CoverageReport:
    """Realization labels for every admissible rank-k quadruple on the quartic."""

    k: int
    items: tuple[CoverageItem, ...]

    def realized(self) -> list[CoverageItem]:
        return [item for item in self.items if item.status != STATUS_OPEN]

    def open_items(self) -> list[CoverageItem]:
        return [item for item in self.items if item.status == STATUS_OPEN]


def coverage_report(k: int, source: Catalog | None = None) -> CoverageReport:
    """Label every admissible rank-k quadruple on the quartic as realized
    (by a star-pool extension or by a known curve construction) or open.

    Extension evidence exists only at rank four; rank-three realizations come
    solely from the curve list, since a nontrivial extension needs both
    pieces of rank at least two.
    """
    by_quadruple: dict[tuple[int, int, int, int], list[ExtensionWitness]] = {}
    if k == 4:
        for witness in extension_quadruples(4, require_star=True, source=source):
            by_quadruple.setdefault(witness.result.quadruple(), []).append(witness)

    items = []
    for row in constraints.enumerate_acm_r4(k):
        for entry in row.entries:
            inv = BundleInvariants(k, row.c1, entry.c2, entry.c3)
            quad = inv.quadruple()
            witnesses = tuple(by_quadruple.get(quad, ()))
            if witnesses:
                status = STATUS_EXTENSION
                origin = "extension: " + "; ".join(str(w) for w in witnesses)
            elif quad in CURVE_REALIZED:
                status = STATUS_CURVE
                origin = CURVE_REALIZED[quad]
            else:
                status = STATUS_OPEN
                origin = ""
            items.append(CoverageItem(inv, entry.genus, status, origin, witnesses))
    return CoverageReport(k, tuple(items))
