"""Cost contracts as exact counts: the Python lines the library runs grow
linearly with a catalog file and with the rank it enumerates, and the pair
listing quadratically with the file; the memory ``enumerate`` holds while
it writes grows with its largest row, and the memory ``extensions`` holds
beyond its rows with a slice of them, not with the document.

Each count is the number of ``sys.settrace`` line events in code under the
package's own directory, so it is exact and repeats from run to run, unlike
a timing; each memory figure is a ``tracemalloc`` peak.  The contracts are
ratios between an input and one twice its size, not absolute counts,
because the events a line yields, and the size of an object, may differ
between Python versions; the one bound in bytes, on what ``extensions``
holds beyond its rows, is taken from the same process's rows and
document."""

import io
import sys
import tracemalloc
from pathlib import Path

import pytest

from acmbundles import cli, extensions
from acmbundles.chern import BundleInvariants
from acmbundles.constraints import enumerate_acm_r4
from acmbundles.extensions import (
    POOL_NORMALIZED,
    STATUS_OPEN,
    coverage_report,
    decompose_rows,
    extension_rows,
    load_catalog,
)

PACKAGE = str(Path(extensions.__file__).parent)
# the bounds on the ratio between a doubled input's count and the input's
LINEAR = 2.2
QUADRATIC = 4.2


def line_events(call) -> int:
    """The line events in the package's own code while ``call()`` runs."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count


def catalog_file(directory: Path, n: int) -> Path:
    """A file of ``n`` distinct classes at each of degrees 3, 4 and 5, with a
    comment and a blank line every ten classes."""
    lines = []
    for r in (3, 4, 5):
        for i in range(n):
            if i % 10 == 0:
                lines += [f"# degree {r}, from class {i}", ""]
            lines.append(f"{r} {i % 7 - 2} {i} {i % 2} {('always', 'generic', 'no')[i % 3]}")
    path = directory / f"catalog-{n}.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# (1,3) + (1,10) on the quartic: both files hold the two classes
TARGET = BundleInvariants(4, 2, 17, 13)


def assert_ratio(counts: list[int], bound: float = LINEAR) -> None:
    assert counts[0] > 100
    assert counts[1] / counts[0] < bound, counts


@pytest.fixture
def files(tmp_path) -> list[Path]:
    return [catalog_file(tmp_path, 100), catalog_file(tmp_path, 200)]


def parse_events(path: Path) -> int:
    """The line events of ``load_catalog(path)`` with an empty parse cache,
    whatever test loaded the same bytes before."""
    extensions._parse.cache_clear()
    return line_events(lambda: load_catalog(path))


def test_load_catalog_grows_linearly(files):
    assert_ratio([parse_events(path) for path in files])


def test_a_second_load_costs_the_same_at_every_size(files):
    # a hit reads the file and looks its bytes up; it parses nothing
    for path in files:
        load_catalog(path)
    assert len({line_events(lambda: load_catalog(path)) for path in files}) == 1


def test_decompose_rows_grows_linearly(files):
    sources = [load_catalog(path) for path in files]
    assert all(decompose_rows(4, TARGET, POOL_NORMALIZED, source=s) for s in sources)
    assert_ratio([line_events(lambda: decompose_rows(4, TARGET, POOL_NORMALIZED, source=s))
                  for s in sources])


def test_coverage_report_grows_linearly(files):
    sources = [load_catalog(path) for path in files]
    assert all(any(row[5] != STATUS_OPEN for row in coverage_report(4, source=s))
               for s in sources)
    assert_ratio([line_events(lambda: coverage_report(4, source=s)) for s in sources])


def test_extension_rows_grow_quadratically(files):
    sources = [load_catalog(path) for path in files]
    assert_ratio([line_events(lambda: extension_rows(4, POOL_NORMALIZED, source=s))
                  for s in sources], QUADRATIC)


def test_enumerate_grows_linearly_in_rows():
    # k = 20 and 40 give 30 and 60 rows but 480 and 1,860 entries, so the
    # count follows the rows only while nothing is built per entry
    assert_ratio([line_events(lambda: enumerate_acm_r4(k)) for k in (20, 40)])


class _Discard:
    """A stdout that keeps nothing it is given."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def peak_bytes(monkeypatch, argv: list[str]) -> int:
    """The ``tracemalloc`` peak while ``cli.main(argv)`` runs and writes to
    a stdout that keeps nothing."""
    monkeypatch.setattr(sys, "stdout", _Discard())
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_enumerate_memory_grows_with_the_largest_row(monkeypatch, fmt):
    # k = 100 and 200 give 11,400 and 45,300 entries but rows of at most
    # 151 and 301, so the peak follows the rows only while the document is
    # written in chunks; a first call imports what the format needs (json
    # for --format json) outside the count
    peak_bytes(monkeypatch, ["enumerate", "--k", "3", "--format", fmt])
    peaks = [peak_bytes(monkeypatch, ["enumerate", "--k", str(k), "--format", fmt])
             for k in (100, 200)]
    assert peaks[1] / peaks[0] < 2.5, peaks


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_extensions_memory_holds_a_few_slices(monkeypatch, tmp_path, fmt):
    # 200 degree-4 classes give 20,100 normalized-pool rows; writing them
    # may pass the peak of building the rows by a few slices, each its text
    # and its 1,024 row strings, far less than the document and its strings
    path = catalog_file(tmp_path, 200)
    argv = ["extensions", "--r", "4", "--pool", "normalized", "--catalog", str(path),
            "--format", fmt]
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    # also fills the parse cache, so both loads measured below are hits
    assert cli.main(argv) == 0
    tracemalloc.start()
    try:
        assert len(extension_rows(4, POOL_NORMALIZED, source=load_catalog(path))) == 20100
        rows = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one_slice = 1024 * (len(out.getvalue()) / 20100 + sys.getsizeof(""))
    assert peak_bytes(monkeypatch, argv) - rows < 6 * one_slice, (rows, one_slice)
