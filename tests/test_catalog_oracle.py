"""``extensions.load_catalog``, which reads a catalog file line by line behind
a parse cache and adds the path to the error of the first faulty line,
against the separately written loader in ``catalog_oracles``: the same
catalog, or a byte-identical message, for arbitrary bytes and for files
built to sit on the edges of the format, on a first load and on a second,
which may be a parse-cache hit.

The built files mix integers that ``int`` takes but a strict digit pattern
would not, whitespace that ``str.split`` honours, line breaks that
``str.splitlines`` honours, ``#`` glued to a token, an integer longer than
``int`` parses, and up to three faults in one file, in any order."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

import catalog_oracles as oracle
from acmbundles.extensions import CatalogParseError, load_catalog

SPACES = (" ", "  ", "\t", "\xa0", "\x1f", "\u3000")
BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028")
# int() takes each of these; none is a plain decimal
ODD_INTS = ("+4", "007", "-0", "1_0", "\u0663", "\uff14")
HUGE_INT = "1" * 4301  # past int()'s default limit of 4300 digits
BAD_FIELDS = {
    "int": ("x", "1__0", "4#", "0x1", "1.0", HUGE_INT),
    "star": ("2", "01", "true", "#1"),
    "gg": ("maybe", "ALWAYS", "no#", "0"),
}


def outcome(load, path):
    try:
        return load(path)
    except CatalogParseError as exc:
        return f"error: {exc}"


def assert_loads_match(path):
    # twice: a second load may be a parse-cache hit, or an error again
    expected = outcome(oracle.load_catalog, path)
    assert [outcome(load_catalog, path) for _ in range(2)] == [expected, expected]


@st.composite
def data_lines(draw) -> list[str]:
    return [
        draw(st.sampled_from(("3", "4", "5", "+4", "04"))),
        draw(st.integers(-3, 6).map(str) | st.sampled_from(ODD_INTS)),
        draw(st.integers(-20, 60).map(str)),
        draw(st.sampled_from("01")),
        draw(st.sampled_from(("always", "generic", "no"))),
    ]


def _break(draw, tokens: list[str], kind: str) -> list[str]:
    """``tokens`` with one fault of the given kind."""
    tokens = list(tokens)
    if kind == "fields":
        return tokens[:draw(st.integers(1, 4))] if draw(st.booleans()) else [*tokens, "no"]
    if kind == "glued":
        # on the first token, the line becomes a comment
        index = draw(st.integers(0, 4))
        tokens[index] = "#" + tokens[index]
        return tokens
    index = {"int": draw(st.integers(0, 2)), "star": 3, "gg": 4}[kind]
    tokens[index] = draw(st.sampled_from(BAD_FIELDS[kind]))
    return tokens


@st.composite
def catalog_files(draw) -> str:
    lines = draw(st.lists(data_lines(), max_size=10))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("fields", "glued", "duplicate", *BAD_FIELDS)))
        if kind == "duplicate" and lines:
            # another line's class again, with its own star and gg, anywhere
            repeat = [*draw(st.sampled_from(lines))[:3], *draw(data_lines())[3:]]
            lines.insert(draw(st.integers(0, len(lines))), repeat)
        elif lines:
            # a second fault may land on the same line, unless the first
            # changed its field count
            index = draw(st.integers(0, len(lines) - 1))
            if len(lines[index]) == 5:
                lines[index] = _break(draw, lines[index], kind)
                if draw(st.booleans()) and len(lines[index]) == 5:
                    kind = draw(st.sampled_from(("fields", "glued", *BAD_FIELDS)))
                    lines[index] = _break(draw, lines[index], kind)
    texts = [draw(st.sampled_from(SPACES)).join(tokens) for tokens in lines]
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.sampled_from(("", "  ", "# a comment", "#4 1 3 1 no", "\t#")))
        texts.insert(draw(st.integers(0, len(texts))), extra)
    return "".join(text + draw(st.sampled_from(BREAKS)) for text in texts)


@settings(max_examples=400, deadline=None)
@given(text=catalog_files())
# two faults on one line: the checks run in a fixed order
@example(text="4 x 3 1\n")
@example(text="4 x 3 2 no\n")
@example(text="4 1 3 2 maybe\n")
@example(text="4 1 3 1 no\n4 1 3 1 maybe\n")
# two faults on two lines: the first line that has one is named
@example(text="4 1 3 1 no\n4 1 3 0 no\n4 2 8 1 maybe\n")
@example(text="4 1 3 1 no\n4 2 8 x no\n4 1 3 0 no\n")
@example(text="4 1 3 2 no\n4 1 3 1 no\n4 1 3 1 no\n")
@example(text=f"4 1 {HUGE_INT} 1 no\n")
@example(text="4 +1 007 1 no\x854 \u0663 1_0 0 always\u20284\xa01\x1f-0 1 generic\r\n")
@example(text="4#1 3 1 no\n")
def test_built_files_match_the_line_by_line_loader(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "differential-catalog.txt"
    path.write_text(text, encoding="utf-8", newline="")
    assert_loads_match(path)


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=120) | st.text(max_size=60).map(str.encode))
@example(data=b"4 1 3 1 no\n\xff\n4 1 3 1 no\n")
def test_arbitrary_bytes_match_the_line_by_line_loader(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "differential-catalog.bin"
    path.write_bytes(data)
    assert_loads_match(path)
