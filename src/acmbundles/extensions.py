"""The classified rank-two ACM bundles on degree-3 and degree-4 hypersurfaces,
rank-four extension arithmetic, exhaustive decomposability search, and the
realized/open coverage report for the admissibility tables.  Each extension
pair is one integer row, as :func:`extension_rows` lists them.

The built-in catalog is finished classification data; an override file can be
supplied for exploring hypothetical catalogs at other degrees.
"""

from __future__ import annotations

import functools
import os

from . import constraints
from .chern import BundleInvariants, DomainError, HypersurfaceContext, _record

__all__ = [
    "UnsupportedDegree",
    "RankUnsupported",
    "CatalogParseError",
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


class Catalog(_record("Catalog", "entries")):
    """An immutable set of rank-two classes, as integer rows (r, c1, c2, star)
    on the degree-r hypersurface: a class (r, c1, c2) comes at most once."""

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[int, int, int, bool], ...]) -> Catalog:
        if not isinstance(entries, tuple):
            raise DomainError(f"catalog entries must be a tuple of rows, "
                              f"got {type(entries).__name__}")
        classes = set()
        for row in entries:  # the first faulty row is named
            try:
                if len(row) != 4:  # an iterator has no len(), so is never used up
                    raise DomainError(f"catalog row {row} does not have the four "
                                      f"fields r, c1, c2, star")
                hash(row)  # a list row would leave the catalog mutable
                r, c1, c2, star = row
            except TypeError:
                raise DomainError(f"catalog row {row!r} is not a sequence "
                                  f"of hashable fields") from None
            # by type(), so a bool is not an int
            if (type(r), type(c1), type(c2), type(star)) != (int, int, int, bool):
                raise DomainError(f"catalog row {row!r} must hold integers r, c1, c2 "
                                  f"and a bool star")
            key = r, c1, c2
            if key in classes:
                raise DomainError(f"catalog repeats the class {key}")
            classes.add(key)
        return tuple.__new__(cls, (entries,))


#: The complete normalized rank-two classification for degrees 3 and 4, as
#: rows (r, c1, c2, star).  Star, chi(E(-1)) = 0 and chi(E) >= 2 for E of
#: class (2; c1, c2, 0), fails exactly for (0,1) at r=3 and for (-1,1),
#: (0,2), (1,5) at r=4.  On the quartic, (3,14) is always globally
#: generated and the general (2,8) is; no other class is.
BUILTIN_CATALOG = Catalog(
    (
        (3, 0, 1, False),
        (3, 1, 2, True),
        (3, 2, 5, True),
        (4, -1, 1, False),
        (4, 0, 2, False),
        (4, 1, 3, True),
        (4, 1, 4, True),
        (4, 1, 5, False),
        (4, 2, 8, True),
        (4, 3, 14, True),
    )
)


_STAR = {"0": False, "1": True}
_GG = ("always", "generic", "no")


def load_catalog(path: str | os.PathLike) -> Catalog:
    """Parse a catalog override file.

    One class per line, whitespace separated: ``r c1 c2 star gg`` with
    star in {0, 1} and gg in {always, generic, no}.  Lines starting with
    ``#`` and blank lines are skipped.  UTF-8 only.  A class (r, c1, c2)
    may appear only once.

    Every field of every line is checked; gg is not kept.  The error names
    the path and the first faulty line.
    """
    with open(path, "rb") as file:
        data = file.read()
    try:
        return _parse(data)
    except CatalogParseError as exc:
        raise CatalogParseError(f"{path}: {exc}") from None


@functools.lru_cache(maxsize=16)
def _parse(data: bytes) -> Catalog:
    """The catalog a file of exactly these bytes holds, read line by line;
    the first faulty line raises, by field count, then integers, star, gg
    and an earlier line's class.  The cache is keyed on the bytes, not the
    path, so an edited file is parsed again, and it keeps only successes."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # number lines as splitlines() does below: the text before the bad
        # byte is valid, and a sentinel marks whether it ends mid-line
        lineno = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise CatalogParseError(f"line {lineno}: not valid UTF-8") from None
    rows = []
    first_lines: dict[tuple[int, int, int], int] = {}
    for lineno, tokens in enumerate(map(str.split, text.splitlines()), start=1):
        if not tokens or tokens[0][0] == "#":
            continue
        if len(tokens) != 5:
            raise CatalogParseError(f"line {lineno}: expected 5 fields "
                                    f"'r c1 c2 star gg', got {len(tokens)}")
        r, c1, c2, star, gg = tokens
        try:
            key = int(r), int(c1), int(c2)
        except ValueError:
            raise CatalogParseError(f"line {lineno}: r, c1, c2 must be integers") from None
        if star not in _STAR:
            raise CatalogParseError(f"line {lineno}: star must be 0 or 1, got {star!r}")
        if gg not in _GG:
            raise CatalogParseError(f"line {lineno}: gg must be one of "
                                    f"always/generic/no, got {gg!r}")
        first = first_lines.setdefault(key, lineno)
        if first != lineno:
            raise CatalogParseError(f"line {lineno}: duplicate class {key}, "
                                    f"first on line {first}")
        rows.append((*key, _STAR[star]))
    return Catalog(tuple(rows))


def catalog(r: int, source: Catalog | None = None) -> list[tuple[int, int, bool]]:
    """All normalized rank-two ACM classes on the degree-r hypersurface, as
    (c1, c2, star) triples in catalog order."""
    source = source or BUILTIN_CATALOG
    found = [(c1, c2, star) for degree, c1, c2, star in source.entries if degree == r]
    if not found:
        known = ", ".join(map(str, sorted({row[0] for row in source.entries}))) or "none"
        raise UnsupportedDegree(
            f"no rank-two classification for degree {r} (available: {known})"
        )
    return found


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
    classes = catalog(r, source)
    if pool == POOL_STAR:
        return [(c1, c2) for c1, c2, star in classes if star]
    if pool == POOL_NORMALIZED:
        return [(c1, c2) for c1, c2, _ in classes]
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
    HypersurfaceContext(r)  # checks r >= 1
    classes = sorted(_pool_classes(r, pool, source))
    # each class with those at or after it: left <= right, in a run
    # ascending in (c1, c2, c3, right), so the sort only merges the n runs
    rows = [(a1 + b1, a2 + r * a1 * b1 + b2, a2 * b1 + a1 * b2, a1, a2, b1, b2)
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
    for _, c1, c2, c3 in quads:
        rows = []
        for a1, a2 in classes:
            b1 = c1 - a1
            b2 = c2 - a2 - ctx.r * a1 * b1
            # (a1, a2) <= (b1, b2) yields each unordered pair once, the
            # self-pair included
            if (b1, b2) in index and (a1, a2) <= (b1, b2) and a2 * b1 + a1 * b2 == c3:
                rows.append((c1, c2, c3, a1, a2, b1, b2))
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
    return _forced_pairs(ctx, _pool_classes(r, pool, source), [target])[0]


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


def coverage_report(k: int, source: Catalog | None = None) -> list[tuple]:
    """Label every admissible rank-k quadruple on the quartic as realized
    (by a star-pool extension or by a known curve construction) or open, as
    one row per quadruple in table order

    (k, c1, c2, c3, genus, status, origin, witnesses)

    ``witnesses`` holds the quadruple's star-pool rows, seven integers each,
    as :func:`decompose_rows` gives them.  Extension evidence exists only at
    rank four; rank-three realizations come solely from the curve list,
    since a nontrivial extension needs both pieces of rank at least two.
    """
    cells = [(k, row.c1, *entry) for row in constraints.enumerate_acm_r4(k)
             for entry in row.entries]
    classes = _pool_classes(4, POOL_STAR, source) if k == 4 else []
    found = _forced_pairs(constraints.QUARTIC, classes, [cell[:4] for cell in cells])
    report = []
    for cell, rows in zip(cells, found):
        if rows:
            status = STATUS_EXTENSION
            origin = "extension: " + "; ".join(["({},{})+({},{})".format(*row[3:])
                                                 for row in rows])
        elif cell[:4] in CURVE_REALIZED:
            status, origin = STATUS_CURVE, CURVE_REALIZED[cell[:4]]
        else:
            status, origin = STATUS_OPEN, ""
        report.append((*cell, status, origin, tuple(rows)))
    return report
