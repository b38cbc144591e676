"""The line-by-line catalog loader, kept as a test oracle for
``extensions.load_catalog``.

``load_catalog`` parses a valid file whole, in one comprehension over the
split lines, and walks the lines one by one only to word the error of a file
that failed.  This loader checks and stores each line in turn and raises at
the first faulty one, so a slip in the bulk parse (a line it skips or keeps
wrongly, a field it converts differently, a duplicate it misses) or in the
wording and order of the errors shows as a different catalog or message.
"""

from __future__ import annotations

from pathlib import Path

from acmbundles.extensions import Catalog, CatalogParseError

_STAR = {"0": False, "1": True}
_GG = ("always", "generic", "no")


def load_catalog(path: str | Path) -> Catalog:
    """``extensions.load_catalog``'s contract, one line at a time."""
    rows = []
    first_lines: dict[tuple[int, int, int], int] = {}
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # number lines as splitlines() does below: the text before the bad
        # byte is valid, and a sentinel marks whether it ends mid-line
        lineno = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise CatalogParseError(f"{path}: line {lineno}: not valid UTF-8") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != 5:
            raise CatalogParseError(
                f"{path}: line {lineno}: expected 5 fields 'r c1 c2 star gg', "
                f"got {len(tokens)}"
            )
        try:
            key = int(tokens[0]), int(tokens[1]), int(tokens[2])
        except ValueError:
            raise CatalogParseError(
                f"{path}: line {lineno}: r, c1, c2 must be integers"
            ) from None
        star = _STAR.get(tokens[3])
        if star is None:
            raise CatalogParseError(
                f"{path}: line {lineno}: star must be 0 or 1, got {tokens[3]!r}"
            )
        if tokens[4] not in _GG:
            raise CatalogParseError(
                f"{path}: line {lineno}: gg must be one of always/generic/no, "
                f"got {tokens[4]!r}"
            )
        first = first_lines.setdefault(key, lineno)
        if first != lineno:
            raise CatalogParseError(
                f"{path}: line {lineno}: duplicate class {key}, first on line {first}"
            )
        rows.append((*key, star))
    return Catalog(tuple(rows))
