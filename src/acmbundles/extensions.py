"""The classified rank-two ACM bundles on degree-3 and degree-4 hypersurfaces,
rank-four extension arithmetic, exhaustive decomposability search, and the
realized/open coverage report for the admissibility tables.  Each extension
pair is one integer row, as :func:`extension_rows` lists them.

The built-in catalog is finished classification data; an override file can be
supplied for exploring hypothetical catalogs at other degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
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
    "extension_rows",
    "decompose_rows",
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

    def __init__(self, r: int, c1: int, c2: int, satisfies_star: bool,
                 globally_generated: GlobalGeneration) -> None:
        # written out, as chern.HypersurfaceContext's is
        self.__dict__.update(r=r, c1=c1, c2=c2, satisfies_star=satisfies_star,
                             globally_generated=globally_generated)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.c1, self.c2)


@dataclass(frozen=True)
class Catalog:
    """An immutable set of rank-two classes, keyed by ambient degree: a class
    (r, c1, c2) comes at most once."""

    entries: tuple[Rank2CatalogEntry, ...]

    def __post_init__(self) -> None:
        keys = [(entry.r, entry.c1, entry.c2) for entry in self.entries]
        if len(set(keys)) != len(keys):
            repeat = next(key for i, key in enumerate(keys) if key in keys[:i])
            raise DomainError(f"catalog repeats the class {repeat}")

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


_STAR = {"0": False, "1": True}
_GG = {gg.value: gg for gg in GlobalGeneration}


def load_catalog(path: str | Path, r: int | None = None) -> Catalog:
    """Parse a catalog override file.

    One entry per line, whitespace separated: ``r c1 c2 star gg`` with
    star in {0, 1} and gg in {always, generic, no}.  Lines starting with
    ``#`` and blank lines are skipped.  UTF-8 only.  A class (r, c1, c2)
    may appear only once.

    Every line is checked.  With ``r`` given, only degree-r classes become
    entries, unless there are none: then all do, for ``for_degree``'s message.
    The file is parsed whole; :func:`_first_fault` words a failure.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # number lines as splitlines() does below: the text before the bad
        # byte is valid, and a sentinel marks whether it ends mid-line
        lineno = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise CatalogParseError(f"{path}: line {lineno}: not valid UTF-8") from None
    lines = text.splitlines()
    try:
        # a wrong field count fails the unpacking, a bad field int() or a lookup
        rows = [(int(a), int(b), int(c), _STAR[star], _GG[gg])
                for tokens in map(str.split, lines) if tokens and tokens[0][0] != "#"
                for a, b, c, star, gg in (tokens,)]
    except (ValueError, KeyError):
        rows = None
    if rows is None or len({(a, b, c) for a, b, c, _, _ in rows}) != len(rows):
        raise CatalogParseError(_first_fault(path, lines))
    wanted = [row for row in rows if row[0] == r] or rows
    return Catalog(tuple(Rank2CatalogEntry(*row) for row in wanted))


def _first_fault(path: str | Path, lines: list[str]) -> str:
    """The error of the first faulty line of a file that failed to parse, by
    field count, then integers, star, gg and an earlier line's class."""
    first_lines: dict[tuple[int, int, int], int] = {}
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        where = f"{path}: line {lineno}:"
        if len(tokens) != 5:
            return f"{where} expected 5 fields 'r c1 c2 star gg', got {len(tokens)}"
        try:
            key = int(tokens[0]), int(tokens[1]), int(tokens[2])
        except ValueError:
            return f"{where} r, c1, c2 must be integers"
        if tokens[3] not in _STAR:
            return f"{where} star must be 0 or 1, got {tokens[3]!r}"
        if tokens[4] not in _GG:
            return f"{where} gg must be one of always/generic/no, got {tokens[4]!r}"
        first = first_lines.setdefault(key, lineno)
        if first != lineno:
            return f"{where} duplicate class {key}, first on line {first}"


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
    (a1, a2), (b1, b2) = e1, e2
    return BundleInvariants(4, a1 + b1, a2 + ctx.r * a1 * b1 + b2, a2 * b1 + a1 * b2)


POOL_NORMALIZED = "normalized"  # the full classification list
POOL_STAR = "star"              # only classes satisfying the star condition


def _pool_classes(r: int, pool: str, source: Catalog | None) -> list[tuple[int, int]]:
    """The (c1, c2) classes of the degree-r pool, in catalog order."""
    entries = catalog(r, source)
    if pool == POOL_STAR:
        return [entry.pair for entry in entries if entry.satisfies_star]
    if pool == POOL_NORMALIZED:
        return [entry.pair for entry in entries]
    raise DomainError(f"unknown pool {pool!r}; expected 'star' or 'normalized'")


def extension_rows(
    r: int, pool: str = POOL_STAR, source: Catalog | None = None
) -> list[tuple]:
    """Every unordered pair (repetition allowed) of the pool's classes, with
    its extension's invariants, as sorted integer rows

    (c1, c2, c3, left_c1, left_c2, right_c1, right_c2)

    (c1, c2, c3) are the extension's invariants (its rank is 4), and left <=
    right in (c1, c2) order.  A catalog holds each class once, so the seven
    integers name a pair and no two rows tie.
    """
    ctx = HypersurfaceContext(r)
    classes = sorted(_pool_classes(r, pool, source))
    # each class with those at or after it: left <= right, in a run
    # ascending in (c1, c2, c3, right), so the sort only merges the n runs
    rows = [(a1 + b1, a2 + ctx.r * a1 * b1 + b2, a2 * b1 + a1 * b2, a1, a2, b1, b2)
            for p, (a1, a2) in enumerate(classes)
            for b1, b2 in classes[p:]]
    rows.sort()
    return rows


def _forced_pairs(ctx: HypersurfaceContext, classes, quads) -> list[list[tuple]]:
    """For each quadruple in ``quads``, the rows of the pool ``classes``
    extending to it, as :func:`extension_rows` has them.  A class (a1, a2)
    forces its partner, b1 = c1 - a1 and b2 = c2 - a2 - r a1 b1, so one set
    of the classes serves every quadruple at O(n) lookups, and only c3 is
    left to check."""
    index = set(classes)
    found = []
    for quad in quads:
        _, c1, c2, c3 = quad
        rows = []
        for a1, a2 in classes:
            b1 = c1 - a1
            partner = (b1, c2 - a2 - ctx.r * a1 * b1)
            # (a1, a2) <= partner yields each unordered pair once, the self-pair
            # included
            if (partner in index and (a1, a2) <= partner
                    and extend_rank2(ctx, (a1, a2), partner).quadruple() == quad):
                rows.append((c1, c2, c3, a1, a2, *partner))
        found.append(sorted(rows))  # one quadruple: by left, then right
    return found


def decompose_rows(r: int, target: BundleInvariants, pool: str = POOL_STAR,
                   source: Catalog | None = None) -> list[tuple]:
    """The rows of :func:`extension_rows` whose invariants are ``target``'s
    (rank 4), in the same order, found in O(n) by solving for each class's
    forced partner.  An empty list is a definitive negative over the pool."""
    if target.k != 4:
        raise RankUnsupported(f"decomposition into two rank-two pieces needs rank 4, "
                              f"got {target.k}")
    ctx = HypersurfaceContext(r)
    return _forced_pairs(ctx, _pool_classes(r, pool, source), [target.quadruple()])[0]


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
    """One admissible quadruple with its realization status and evidence:
    ``witnesses`` holds its star-pool rows, seven integers each, as
    :func:`decompose_rows` gives them."""

    invariants: BundleInvariants
    genus: int
    status: str
    origin: str
    witnesses: tuple[tuple, ...]


@dataclass(frozen=True)
class CoverageReport:
    """Realization labels for every admissible rank-k quadruple on the quartic."""

    k: int
    items: tuple[CoverageItem, ...]

    def realized(self) -> list[CoverageItem]:
        return [item for item in self.items if item.status != STATUS_OPEN]


def coverage_report(k: int, source: Catalog | None = None) -> CoverageReport:
    """Label every admissible rank-k quadruple on the quartic as realized
    (by a star-pool extension or by a known curve construction) or open.

    Extension evidence exists only at rank four; rank-three realizations come
    solely from the curve list, since a nontrivial extension needs both
    pieces of rank at least two.
    """
    cells = [(BundleInvariants(k, row.c1, c2, s3 * c2 + t3), sg * c2 + tg)
             for row in constraints.enumerate_acm_r4(k)
             for (s3, t3), (sg, tg) in [(row.c3_form, row.genus_form)]
             for c2 in row.c2_values]
    quads = [inv.quadruple() for inv, _ in cells]
    classes = _pool_classes(4, POOL_STAR, source) if k == 4 else []
    found = _forced_pairs(HypersurfaceContext(4), classes, quads)
    items = []
    for (inv, genus), quad, rows in zip(cells, quads, found):
        if rows:
            status = STATUS_EXTENSION
            origin = "extension: " + "; ".join(["({},{})+({},{})".format(*row[3:])
                                                 for row in rows])
        elif quad in CURVE_REALIZED:
            status = STATUS_CURVE
            origin = CURVE_REALIZED[quad]
        else:
            status = STATUS_OPEN
            origin = ""
        items.append(CoverageItem(inv, genus, status, origin, tuple(rows)))
    return CoverageReport(k, tuple(items))
