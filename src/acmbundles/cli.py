"""Command-line front end: exact Riemann-Roch queries, twisting, genus, the
admissible-invariant tables, extension search, decomposability checks, the
coverage report, and the self-verification suite.

Output is deterministic: identical invocations produce byte-identical
standard output.  Exit codes: 0 success, 1 domain errors, 2 usage errors.
A handler finds every usage and domain error before it returns the chunks
``main`` writes, so those error paths write nothing to standard output; a
write that fails, or memory that runs out, after the first chunk can leave
a prefix of the document there.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import types
from collections.abc import Iterable, Iterator, Sequence

from . import constraints, extensions, selfcheck
from .chern import (
    BundleInvariants,
    DomainError,
    HypersurfaceContext,
    chi_bundle,
    chi_line_bundle,
    genus_general,
    twist,
)

SCHEMA_VERSION = 1
FORMATS = ("table", "json", "csv")
_JSON_WORDS = {None: "null", True: "true", False: "false"}


class UsageError(Exception):
    """Bad flag combinations detected after parsing; exits with code 2."""


def _quadruple(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    message = "expected k,c1,c2,c3"
    if len(parts) == 4:
        try:
            return tuple(map(int, parts))
        except ValueError:
            message = "quadruple entries must be integers"
    import argparse  # only on this path: argparse reads the argv from here on
    raise argparse.ArgumentTypeError(f"{message} (got {text!r})")


@functools.cache  # json, with the json.decoder and re it imports, only for --format json
def _json_encoder():
    """The C function ``json.dumps`` calls to encode a str."""
    from json.encoder import encode_basestring_ascii
    return encode_basestring_ascii


def _emit(args, inputs: dict, *, results, table, csv_lines) -> Iterator[str]:
    """Yield the one format ``--format`` selects, in the chunks ``main``
    writes; ``results``, ``table`` and ``csv_lines`` are zero-argument
    callables, and only the selected one runs, as the chunks are written.

    ``results`` yields finished record texts, each written from a fixed
    template and indented for the "results" list, extension records joined
    ``_SLICE`` to a chunk; ``_json_encoder()``, the C function ``json.dumps``
    calls for a str, encodes every string in them, so the bytes are json's.
    The document is canonical JSON (sorted keys, indent 2): keys sort
    command < inputs < results < schema_version, so the head is the
    envelope's first two keys without its closing brace.  ``csv_lines``
    yields the header line, then one chunk per row (per ``_SLICE`` extension
    rows); ``table`` returns the whole table, one chunk, since its column
    widths need every row."""
    if args.format == "json":
        head = _json_object({"command": args.command, "inputs": inputs}, "")[:-2]
        yield f'{head},\n  "results": ['
        separator = "\n"
        for record in results():
            yield from (separator, record)  # not separator + record, a copy
            separator = ",\n"
        close = "]" if separator == "\n" else "\n  ]"
        yield f'{close},\n  "schema_version": {SCHEMA_VERSION}\n}}\n'
    elif args.format == "csv":
        yield from csv_lines()
    else:
        yield table()


def _json_object(fields: dict, indent: str) -> str:
    """``json.dumps(fields, indent=2, sort_keys=True)`` nested at ``indent``,
    for int, bool, None, str and dict values; a str goes to ``_json_encoder()``."""
    if not fields:
        return "{}"
    inner, encode = indent + "  ", _json_encoder()
    return "{\n" + ",\n".join([f"{inner}{encode(key)}: " + (
        _json_object(value, inner) if isinstance(value, dict)
        else str(value) if type(value) is int  # not a bool
        else encode(value) if isinstance(value, str) else _JSON_WORDS[value])
        for key, value in sorted(fields.items())]) + f"\n{indent}}}"


def _json_list(items: list[str]) -> str:
    # a list in a result record: each item encoded, on a line of its own
    return "[\n        " + ",\n        ".join(items) + "\n      ]" if items else "[]"


@functools.cache  # csv, and the re it imports, only when a CSV is written through it
def _csv_line():
    # csv.writer's writerow returns what its file's write returns: here the line
    import csv
    return csv.writer(types.SimpleNamespace(write=str), lineterminator="\n").writerow


def _csv(header: list[str], rows: Iterable[list]) -> Iterator[str]:
    return map(_csv_line(), itertools.chain([header], rows))


def _columns(rows: list[Sequence[str]]) -> str:
    # one template per table: each column but the last (never empty) padded to width + 2
    columns = itertools.islice(zip(*rows), len(rows[0]) - 1)
    template = "".join(f"{{:<{max(map(len, column)) + 2}}}" for column in columns) + "{}\n"
    return "".join(itertools.starmap(template.format, rows))


_SLICE = 1024  # rows rendered, joined and written as one chunk


def _slices(rows: list) -> Iterator[list]:
    return (rows[start:start + _SLICE] for start in range(0, len(rows), _SLICE))


def _emit_rational(args, inputs: dict, value, header: list[str],
                   row: list) -> tuple[Iterator[str], int]:
    return _emit(
        args, inputs,
        results=lambda: [f'    {{\n      "denominator": {value.denominator},\n'
                         f'      "numerator": {value.numerator},\n'
                         f'      "value": {_json_encoder()(str(value))}\n    }}'],
        table=lambda: f"{value}\n",
        csv_lines=lambda: _csv(header, [[*row, str(value)]]),
    ), 0


def _emit_witnesses(args, inputs: dict, rows, table) -> tuple[Iterator[str], int]:
    """Render extension rows, (c1, c2, c3, left_c1, left_c2, right_c1,
    right_c2) as :func:`extensions.extension_rows` and
    :func:`extensions.decompose_rows` give them; the result's rank is 4."""
    return _emit(
        args, inputs,
        results=lambda: (",\n".join([
            f'    {{\n      "left": {{\n        "c1": {l1},\n'
            f'        "c2": {l2}\n      }},\n      "result": {{\n'
            f'        "c1": {c1},\n        "c2": {c2},\n'
            f'        "c3": {c3},\n        "k": 4\n      }},\n'
            f'      "right": {{\n        "c1": {r1},\n'
            f'        "c2": {r2}\n      }}\n    }}'
            for c1, c2, c3, l1, l2, r1, r2 in part]) for part in _slices(rows)),
        table=table,
        # integer cells only, which csv never quotes
        csv_lines=lambda: itertools.chain(
            ["left_c1,left_c2,right_c1,right_c2,k,c1,c2,c3\n"],
            ("".join([f"{l1},{l2},{r1},{r2},4,{c1},{c2},{c3}\n"
                      for c1, c2, c3, l1, l2, r1, r2 in part]) for part in _slices(rows))),
    ), 0


def _load_source(args) -> extensions.Catalog | None:
    return None if args.catalog is None else extensions.load_catalog(args.catalog)


def cmd_chi(args) -> tuple[Iterator[str], int]:
    # each usage error before the degree check, so "chi --r 0" exits 2
    if args.line and args.bundle is not None:
        raise UsageError("--line and --bundle are mutually exclusive")
    if args.line:
        if args.a is None:
            raise UsageError("--line needs a twist: -a N")
        return _emit_rational(args, {"r": args.r, "mode": "line", "a": args.a},
                              chi_line_bundle(HypersurfaceContext(args.r), args.a),
                              ["r", "a", "chi"], [args.r, args.a])
    if args.bundle is not None:
        if args.a is not None:
            raise UsageError("-a only applies to --line mode")
        ctx, inv = HypersurfaceContext(args.r), BundleInvariants(*args.bundle)
        inputs = {"r": args.r, "mode": "bundle", "bundle": inv._asdict()}
        return _emit_rational(args, inputs, chi_bundle(ctx, inv),
                              ["r", "k", "c1", "c2", "c3", "chi"],
                              [args.r, *inv])
    raise UsageError("chi needs either --line with -a, or --bundle k,c1,c2,c3")


def cmd_twist(args) -> tuple[Iterator[str], int]:
    ctx = HypersurfaceContext(args.r)
    inv = BundleInvariants(*args.bundle)
    result = twist(ctx, inv, args.n)
    return _emit(
        args, {"r": args.r, "bundle": inv._asdict(), "n": args.n},
        results=lambda: [f'    {{\n      "c1": {result.c1},\n      "c2": {result.c2},\n'
                         f'      "c3": {result.c3},\n      "k": {result.k}\n    }}'],
        table=lambda: f"{result.k},{result.c1},{result.c2},{result.c3}\n",
        csv_lines=lambda: _csv(["k", "c1", "c2", "c3"], [result]),
    ), 0


def cmd_genus(args) -> tuple[Iterator[str], int]:
    ctx = HypersurfaceContext(args.r)
    inv = BundleInvariants(*args.bundle)
    return _emit_rational(args, {"r": args.r, "bundle": inv._asdict()},
                          genus_general(ctx, inv),
                          ["r", "k", "c1", "c2", "c3", "genus"],
                          [args.r, *inv])


def _affine_text(form: tuple[int, int]) -> str:
    slope, intercept = form
    if slope == 0:
        return str(intercept)
    head = "c2" if slope == 1 else f"{slope}c2"
    return f"{head}{intercept:+d}" if intercept else head


def _enumerate_cells(row: constraints.EnumerationRow) -> list[str]:
    head = [str(row.k), str(row.c1)]
    lower, upper = row.lower, row.upper
    forms = (row.c3_form, row.genus_form)
    if lower == upper:
        return head + [str(lower), *(str(s * lower + t) for s, t in forms)]
    return head + [f"[{lower},{upper}]", *map(_affine_text, forms)]


def _enumerate_record(row: constraints.EnumerationRow) -> str:
    lower, count = row.lower, row.upper - row.lower + 1
    (s3, t3), (sg, tg) = row.c3_form, row.genus_form
    c2s = list(map(str, range(lower, lower + count)))  # written in both lists
    entries = _json_list([f'{{\n          "c2": {c2},\n          "c3": {c3},\n'
                          f'          "genus": {genus}\n        }}' for c2, c3, genus in zip(
                              c2s, _progression(s3 * lower + t3, s3, count),
                              _progression(sg * lower + tg, sg, count))])
    # schema v1 keeps the "empty" key, false on every enumerated row
    return (f'    {{\n      "c1": {row.c1},\n      "c2_values": {_json_list(c2s)},\n'
            f'      "empty": false,\n      "entries": {entries},\n      "k": {row.k},\n'
            f'      "lower": {lower},\n'
            f'      "provenance": {_json_list(list(map(_json_encoder(), row.provenance)))},\n'
            f'      "upper": {row.upper}\n    }}')


def _progression(start: int, step: int, count: int) -> Iterable[int]:
    return range(start, start + step * count, step) if step else itertools.repeat(start, count)


def _enumerate_csv(rows: list[constraints.EnumerationRow]) -> Iterator[str]:
    """The header line, then one chunk per row, written by one ``%`` format
    over the row's three progressions: c2 steps by 1, c3 and the genus by
    their slopes.  Integer cells only, which csv never quotes."""
    yield "k,c1,c2,c3,g\n"
    for row in rows:
        lower, count = row.lower, row.upper - row.lower + 1
        (s3, t3), (sg, tg) = row.c3_form, row.genus_form
        yield (f"{row.k},{row.c1},%d,%d,%d\n" * count) % tuple(itertools.chain.from_iterable(
            zip(range(lower, lower + count), _progression(s3 * lower + t3, s3, count),
                _progression(sg * lower + tg, sg, count))))


def cmd_enumerate(args) -> tuple[Iterator[str], int]:
    rows = constraints.enumerate_acm_r4(args.k)
    return _emit(
        args, {"k": args.k},
        results=lambda: map(_enumerate_record, rows),
        table=lambda: _columns([["k", "c1", "c2", "c3", "g"],
                                *map(_enumerate_cells, rows)]),
        csv_lines=lambda: _enumerate_csv(rows),
    ), 0


def cmd_extensions(args) -> tuple[Iterator[str], int]:
    rows = extensions.extension_rows(args.r, args.pool, source=_load_source(args))
    return _emit_witnesses(
        args, {"r": args.r, "pool": args.pool, "catalog": args.catalog}, rows,
        lambda: _columns([("left", "right", "result"), *(
            (f"({l1},{l2})", f"({r1},{r2})", f"(4;{c1},{c2},{c3})")
            for c1, c2, c3, l1, l2, r1, r2 in rows)]),
    )


def cmd_decompose(args) -> tuple[Iterator[str], int]:
    source = _load_source(args)
    target = BundleInvariants(*args.target)
    rows = extensions.decompose_rows(args.r, target, args.pool, source=source)
    if not rows and args.expect_witness:
        raise DomainError(f"no decomposition of {target} over the {args.pool} pool")
    inputs = {"r": args.r, "target": target._asdict(), "pool": args.pool,
              "expect_witness": args.expect_witness, "catalog": args.catalog}
    return _emit_witnesses(
        args, inputs, rows,
        lambda: "".join([f"({l1},{l2})+({r1},{r2}) -> (4;{c1},{c2},{c3})\n"
                         for c1, c2, c3, l1, l2, r1, r2 in rows]) or "no decomposition\n",
    )


def _coverage_record(row: tuple) -> str:
    k, c1, c2, c3, genus, status, origin, witnesses = row
    pairs = _json_list([f'{{\n          "left": {{\n            "c1": {w[3]},\n'
                        f'            "c2": {w[4]}\n          }},\n'
                        f'          "right": {{\n            "c1": {w[5]},\n'
                        f'            "c2": {w[6]}\n          }}\n        }}'
                        for w in witnesses])
    return (f'    {{\n      "c1": {c1},\n      "c2": {c2},\n'
            f'      "c3": {c3},\n      "genus": {genus},\n      "k": {k},\n'
            f'      "origin": {_json_encoder()(origin)},\n'
            f'      "status": {_json_encoder()(status)},\n'
            f'      "witnesses": {pairs}\n    }}')


def cmd_coverage(args) -> tuple[Iterator[str], int]:
    report = extensions.coverage_report(args.k, source=_load_source(args))
    header = ["k", "c1", "c2", "c3", "g", "status", "origin"]
    return _emit(
        args, {"k": args.k, "catalog": args.catalog},
        results=lambda: map(_coverage_record, report),
        table=lambda: _columns([header, *([*map(str, row[:5]), row[5], row[6] or "-"]
                                          for row in report)]),
        csv_lines=lambda: _csv(header, (row[:7] for row in report)),
    ), 0


def _selfcheck_table(results: list[selfcheck.CheckResult]) -> str:
    failed = sum(not r.passed for r in results)
    lines = [f"PASS {r.name} ({r.detail})" if r.passed else f"FAIL {r.name}: {r.detail}"
             for r in results]
    lines.append(f"{len(results)} checks: {len(results) - failed} passed, {failed} failed")
    return "\n".join(lines) + "\n"


def cmd_selfcheck(args) -> tuple[Iterator[str], int]:
    results = selfcheck.run_all()
    return _emit(
        args, {},
        results=lambda: (f'    {{\n      "detail": {_json_encoder()(r.detail)},\n'
                         f'      "name": {_json_encoder()(r.name)},\n'
                         f'      "passed": {"true" if r.passed else "false"}\n    }}'
                         for r in results),
        table=lambda: _selfcheck_table(results),
        csv_lines=lambda: _csv(["name", "passed", "detail"], (
            [r.name, "true" if r.passed else "false", r.detail] for r in results)),
    ), 0 if all(r.passed for r in results) else 1


# each command once, read by both parsers: name -> (summary, {flag: its
# add_argument keywords}), the flags in help order
_INT = {"type": int, "required": True}
_R = {**_INT, "help": "hypersurface degree"}
_QUADRUPLE = {"type": _quadruple, "required": True, "metavar": "K,C1,C2,C3"}
_POOL = {"choices": (extensions.POOL_STAR, extensions.POOL_NORMALIZED),
         "default": extensions.POOL_STAR, "help": "catalog pool (default: star)"}
_FORMAT = {"choices": FORMATS, "default": "table", "help": "output format (default: table)"}
_CATALOG = {"metavar": "FILE", "default": None, "help": "rank-two catalog override file"}
_COMMANDS = {
    "chi": ("Euler characteristic of a line bundle or quadruple", {"--r": _R, "--line": {
        "action": "store_true", "help": "line-bundle mode: evaluate O(a)"},
        "-a": {"type": int, "default": None, "help": "twist for --line mode"},
        "--bundle": {**_QUADRUPLE, "required": False, "default": None}, "--format": _FORMAT}),
    "twist": ("invariants of E(n)", {"--r": _R, "--bundle": _QUADRUPLE, "-n": {
        **_INT, "help": "twist amount"}, "--format": _FORMAT}),
    "genus": ("genus of the dependency-locus curve",
              {"--r": _R, "--bundle": _QUADRUPLE, "--format": _FORMAT}),
    "enumerate": ("admissible invariants table for rank k", {
        "--k": {**_INT, "help": "rank (refined for 3 and 4)"}, "--format": _FORMAT}),
    "extensions": ("rank-four extensions of catalog pairs",
                   {"--r": _R, "--pool": _POOL, "--format": _FORMAT, "--catalog": _CATALOG}),
    "decompose": ("find catalog pairs realizing a quadruple", {
        "--r": _R, "--target": _QUADRUPLE, "--pool": _POOL, "--expect-witness": {
            "action": "store_true", "help": "exit 1 if no decomposition exists"},
        "--format": _FORMAT, "--catalog": _CATALOG}),
    "coverage": ("realized/open labels for the rank-k table", {
        "--k": {**_INT, "help": "rank (3 or 4)"}, "--format": _FORMAT, "--catalog": _CATALOG}),
    "selfcheck": ("run the cross-module invariant suite", {"--format": _FORMAT}),
}
# argparse reads "-5" as a value only while no option could be read as one
assert not any(flag[1] == "." or flag[1].isdecimal()
               for _, flags in _COMMANDS.values() for flag in flags)
# each flag's dest, as argparse names it: its one option string, undashed
_DEST = {flag: flag.lstrip("-").replace("-", "_")
         for _, flags in _COMMANDS.values() for flag in flags}


@functools.cache  # built only for help and the argv _parse_plain leaves to argparse
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser, and each command's own parser by name."""
    import argparse
    parser = argparse.ArgumentParser(prog="acmbundles", description=(
        "Exact Chern-class calculus and the admissible-invariant tables "
        "for ACM bundles on low-degree hypersurfaces in P^4."))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for flag, options in flags.items():
            command.add_argument(flag, **options)
    return parser, sub.choices


def _parse_plain(argv: list[str]) -> types.SimpleNamespace | None:
    """A namespace with the dests and values argparse gives, for argv that
    names a command and then only that command's exact flags, each value
    passing its type and choices and none readable as a flag, every required
    flag present; for any other argv None, and argparse reads it.  Reads
    ``_COMMANDS``, not argparse's actions, and imports no argparse for a
    well-formed argv.  Never raises, never prints."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags, given, tokens = _COMMANDS[argv[0]][1], {}, iter(argv[1:])
    for token in tokens:
        flag, equals, value = token.partition("=")
        options = flags.get(flag)
        if options is None or "action" in options and equals:  # a switch takes no value
            return None
        if "action" not in options:  # the one action is store_true
            # a missing value, "--" (argparse strips it) and "-x" fall back
            value = value if equals else next(tokens, "--")
            if value[:1] == "-" and not value[1:].isdecimal():
                return None
            try:
                value = options["type"](value) if "type" in options else value
            except Exception:  # int's ValueError, _quadruple's ArgumentTypeError
                return None
            if "choices" in options and value not in options["choices"]:
                return None
        given[flag] = True if "action" in options else value
    for flag, options in flags.items():
        if options.get("required") and flag not in given:
            return None
        given.setdefault(flag, False if "action" in options else options.get("default"))
    return types.SimpleNamespace(command=argv[0], **{_DEST[f]: v for f, v in given.items()})


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        # argv is parsed once: by the flag tables if well-formed, else by argparse
        args = _parse_plain(argv)
        if args is None:
            parser, commands = _build_parser()
            args = parser.parse_args(argv)
            for flag in _COMMANDS[args.command][1]:
                if getattr(args, _DEST[flag]) == []:  # argparse's value for "--r=--"
                    commands[args.command].error(f"argument {flag}: expected one argument")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    chunks = None
    try:
        chunks, code = globals()[f"cmd_{args.command}"](args)
        return _write(chunks, code)
    except MemoryError:  # first: matching it allocates nothing, unlike the tuple below
        message, code = "out of memory", 1
    except (UsageError, DomainError, OSError) as exc:
        message, code = str(exc), 2 if isinstance(exc, UsageError) else 1
    # the except block has dropped the traceback, and with it the frames the
    # error passed through and what they held
    if chunks is not None:  # the write failed and its output is lost
        del chunks  # and the render's own frame, before anything is allocated
        # the flush at exit must not retry it; -X dev would report it unclosed
        sys.stdout = open(os.devnull, "w")
        sys.stdout.close()
    print(f"error: {message}", file=sys.stderr)
    return code


def _write(chunks: Iterable[str], code: int) -> int:
    """Write and flush the chunks a handler returned, then return its exit
    code.  The handler has checked everything, so only rendering runs here;
    an error reaches ``main``, which owns every failed exit."""
    write = sys.stdout.write
    for chunk in chunks:
        write(chunk)
    sys.stdout.flush()
    return code


def entrypoint() -> None:
    raise SystemExit(main())
