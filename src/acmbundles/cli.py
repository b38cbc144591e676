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


class _Usage(Exception):
    """An argv the parser rejects, as (command, message): the message goes
    after the command's usage block, or the top level's if command is ""."""


def _quadruple(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    message = "expected k,c1,c2,c3"
    if len(parts) == 4:
        try:
            return tuple(map(int, parts))
        except ValueError:
            message = "quadruple entries must be integers"
    raise ValueError(f"{message} (got {text!r})")


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


def _csv_text(text: str) -> str:
    # csv's minimal quoting, for the two free-text cells (coverage's origin,
    # selfcheck's detail): quoted, its quotes doubled, if it holds , " \n or \r
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv(header: list[str], rows: Iterable[Sequence]) -> Iterator[str]:
    # every cell here an int, an a/b rational, a fixed word or _csv_text's
    return (",".join(map(str, row)) + "\n" for row in itertools.chain([header], rows))


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
        # integer cells only, so none needs _csv_text
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
    their slopes.  Integer cells only, so none needs :func:`_csv_text`."""
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
        csv_lines=lambda: _csv(header, ((*row[:6], _csv_text(row[6])) for row in report)),
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
            [r.name, "true" if r.passed else "false", _csv_text(r.detail)] for r in results)),
    ), 0 if all(r.passed for r in results) else 1


# each command once, read by the parser and the help: name -> (summary,
# {flag: its add_argument keywords}), the flags in help order
_INT = {"type": int, "required": True}
_R = {**_INT, "help": "hypersurface degree"}
_QUADRUPLE = {"type": _quadruple, "required": True, "metavar": "K,C1,C2,C3"}
_POOL = {"choices": (extensions.POOL_STAR, extensions.POOL_NORMALIZED),
         "default": extensions.POOL_STAR, "help": "catalog pool (default: star)"}
_FORMAT = {"choices": FORMATS, "default": "table", "help": "output format (default: table)"}
_CATALOG = {"metavar": "FILE", "default": None, "help": "rank-two catalog override file"}
_COMMANDS = {
    "chi": ("Euler characteristic of a line bundle or quadruple", {"--r": _R, "--line": {
        "action": "store_true", "default": False, "help": "line-bundle mode: evaluate O(a)"},
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
            "action": "store_true", "default": False, "help": "exit 1 if no decomposition exists"},
        "--format": _FORMAT, "--catalog": _CATALOG}),
    "coverage": ("realized/open labels for the rank-k table", {
        "--k": {**_INT, "help": "rank (3 or 4)"}, "--format": _FORMAT, "--catalog": _CATALOG}),
    "selfcheck": ("run the cross-module invariant suite", {"--format": _FORMAT}),
}
# each flag's attribute on the namespace: the flag undashed, "-" read as "_"
_DEST = {flag: flag.lstrip("-").replace("-", "_")
         for _, flags in _COMMANDS.values() for flag in flags}
# -h and --help: flags of every command, and the top level's only ones
_HELP = dict.fromkeys(("-h", "--help"), {"action": "help"})
_CHOICES = "{" + ",".join(_COMMANDS) + "}"


def _option(command: str, flags: dict, token: str) -> tuple[str, str | None] | None:
    """None if ``token`` (not "--") is a value; else the flag it names, whole
    or a long flag's unique prefix (the token itself if none), and the value
    it carries after "=" or glued to a one-letter flag."""
    if token[:1] != "-" or token == "-":
        return None
    head, equals, value = token.partition("=")
    names = [head] if head in flags or head in _HELP else [
        name for name in (*_HELP, *flags) if name.startswith(head)] if token[1] == "-" else []
    if len(names) > 1:
        raise _Usage(command, f"ambiguous option: {token} could match {', '.join(names)}")
    if names or token[:2] in flags or token[:2] in _HELP:
        return (names[0], value if equals else None) if names else (token[:2], token[2:])
    # a negative number, or text with a space, is a value
    whole, dot, fraction = token[1:].removesuffix("\n").partition(".")
    number = (whole + fraction).isdecimal() and (fraction or not dot)
    return None if number or " " in token else (token, None)


def _parse(argv: list[str]) -> types.SimpleNamespace:
    """The command and each of its flags' values or defaults, read in order
    as argparse reads argv: the first value names the command, before which
    only -h and --help are known, and all from "--" on is left over.  A fault
    raises ``_Usage`` where it is met, but a leftover only after any missing
    required flag.  -h or --help ends the reading: the namespace is then
    ``command=None`` and ``help``, the command asked about ("" for none)."""
    command, flags, given, extras, tokens = "", {}, {}, [], iter(argv)
    for token in tokens:
        flag, equals, value = token.partition("=")
        if flag in flags:  # a flag of the command, whole
            value = value if equals else None
        elif not command and token in _COMMANDS:  # the first value names the command
            command, flags = token, _COMMANDS[token][1]
            continue
        elif token == "--":  # the rest is left over
            extras += [token, *tokens]
            break
        else:
            flag, value = _option(command, flags, token) or (None, token)
        options = flags.get(flag) or _HELP.get(flag)
        if flag is None and not command:
            raise _Usage(command, _invalid("command", token, _COMMANDS))
        if options is None:
            extras.append(token)
        elif "action" in options:  # help, or store_true: no value
            if value is not None:
                raise _Usage(command, f"argument {flag}: ignored explicit argument {value!r}")
            if flag in _HELP:
                for rest in itertools.takewhile("--".__ne__, tokens):
                    _option(command, flags, rest)  # an ambiguous prefix anywhere comes first
                return types.SimpleNamespace(command=None, help=command)
            given[flag] = True
        else:
            if value is None:  # the next token, unless it is a flag
                value = next(tokens, "--")
                if value[:1] == "-" and not value[1:].isdecimal() and value != "--" and _option(
                        command, flags, value):
                    value = "--"
            if value == "--":
                raise _Usage(command, f"argument {flag}: expected one argument")
            kind = options.get("type")
            try:
                given[flag] = kind(value) if kind else value
            except ValueError as exc:
                raise _Usage(command, f"argument {flag}: " + (
                    str(exc) if kind is _quadruple else f"invalid int value: {value!r}"))
            if "choices" in options and value not in options["choices"]:
                raise _Usage(command, _invalid(flag, value, options["choices"]))
    missing, values = [] if command else ["command"], {"command": command}
    for flag, options in flags.items():
        if flag in given or not options.get("required"):
            values[_DEST[flag]] = given.get(flag, options.get("default"))
        else:
            missing.append(flag)
    if missing:
        raise _Usage(command, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _Usage("", f"unrecognized arguments: {' '.join(extras)}")
    return types.SimpleNamespace(**values)


def _invalid(name: str, value: str, choices: Iterable[str]) -> str:
    return f"argument {name}: invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})"


def _usage(command: str) -> str:
    """The command's usage block at 80 columns, as argparse wraps it: its
    parts fill lines of up to 78 columns, each further line indented under
    the first."""
    prog = f"acmbundles {command}".rstrip()
    lines, indent = [f"usage: {prog}"], " " * (len(prog) + 7)
    for part in ["[-h]", *([_CHOICES, "..."] if not command else [
            _shown(flag, options) if options.get("required") else f"[{_shown(flag, options)}]"
            for flag, options in _COMMANDS[command][1].items()])]:
        if len(lines[-1]) + 1 + len(part) > 78 and lines[-1] != indent:
            lines.append(indent)
        lines[-1] += " " + part
    return "\n".join(lines) + "\n"


def _shown(flag: str, options: dict) -> str:
    # a flag as usage and help show it, with its value's name if it takes one
    return flag if "action" in options else f"{flag} " + (
        "{" + ",".join(options["choices"]) + "}" if "choices" in options
        else options.get("metavar", _DEST[flag].upper()))


def _help(command: str) -> str:
    rows = [("  -h, --help", "show this help message and exit")]
    if command:
        rows += [(f"  {_shown(flag, options)}", options.get("help"))
                 for flag, options in _COMMANDS[command][1].items()]
        return f"{_usage(command)}\noptions:\n{_rows(rows)}"
    return (f"{_usage(command)}\nExact Chern-class calculus and the admissible-invariant tables "
            f"for ACM bundles\non low-degree hypersurfaces in P^4.\n\npositional arguments:\n"
            f"  {_CHOICES}\n" + _rows((f"    {name}", summary) for name, (summary, _)
                                     in _COMMANDS.items()) + f"\noptions:\n{_rows(rows)}")


def _rows(rows: Iterable[tuple[str, str | None]]) -> str:
    # help starts in column 24, as each table has an entry too wide for less
    return "".join(f"{head}\n" if text is None else f"{head:<24}{text}\n" if len(head) <= 22
                   else f"{head}\n{'':24}{text}\n" for head, text in rows)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    chunks = None
    try:
        args = _parse(argv)
        chunks, code = ([_help(args.help)], 0) if args.command is None else globals()[
            f"cmd_{args.command}"](args)
        return _write(chunks, code)
    except MemoryError:  # first: matching it allocates nothing, unlike the tuple below
        message, code = "out of memory", 1
    except _Usage as usage:  # the usage block, then one error line
        command, message = usage.args
        prog = f"acmbundles {command}".rstrip()
        sys.stderr.write(f"{_usage(command)}{prog}: error: {message}\n")
        return 2
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
