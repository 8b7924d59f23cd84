"""The one CSV table format: exact round trips and the 17-digit layout, by
both of the writer's paths."""

import csv
import math
import os
import stat
import subprocess
import sys
from fractions import Fraction
from itertools import chain, repeat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from turning_frame import InvalidStateError, _csv

# every finite float64, with the signed zero, the smallest subnormal and the
# largest magnitudes given as explicit examples below
finite = st.floats(allow_nan=False, allow_infinity=False)
EDGES = [-0.0, 5e-324, -2.2250738585072014e-308,
         1.7976931348623157e308, -1.7976931348623157e308]


def neighbours(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


# where the digit path can go wrong: a log10 guess of the exponent that is
# one off and %g's switches of notation (1e-5, 1e-4, 1e16, 1e17), an exact
# tie (2**-25 has 18 significant digits ending in 5), a carry into the next
# decade, and the magnitudes it leaves to %
DECADES = [v for x in (1e-12, 1e-5, 1e-4, 1e16, 1e17) for v in neighbours(x)]
CARRIES = [9.9999999999999998e-13, 0.99999999999999989, np.nextafter(1.0, 0.0)]
HARD = DECADES + CARRIES + [2.0**-25, -(2.0**-25), 0.0] + EDGES


def reference(rows, seps):
    """``format(x, ".17g")`` of every value, each followed by its separator."""
    return "".join(format(x, ".17g") + sep
                   for row in rows for x, sep in zip(row, seps)).encode()


def mixed_values(drawn, seed, size):
    """``size`` values: random bit patterns, normal values, short decimals
    and the hard cases, with ``drawn`` scattered through them."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64)
    choices = [np.where(np.isfinite(bits), bits, 0.0),
               rng.normal(size=size) * 10.0 ** rng.integers(-30, 30, size),
               np.round(rng.normal(size=size) * 100, int(rng.integers(0, 6))),
               rng.choice(np.array(HARD), size)]
    values = np.choose(rng.integers(0, len(choices), size), choices)
    values[rng.choice(size, drawn.size, replace=False)] = drawn
    return values


def big_table(drawn, seed, width):
    """A table of at least ``DIGITS_MIN_VALUES`` values, which ``write``
    formats by the digit path."""
    rows = -(-_csv.DIGITS_MIN_VALUES // width) + seed % 64
    return mixed_values(drawn, seed, rows * width).reshape(rows, width)


def big_matrix(drawn, seed, n):
    return mixed_values(drawn, seed, 2 * n * n).reshape(n, n, 2)


drawn = arrays(np.float64, st.integers(1, 40), elements=finite)
seeds = st.integers(0, 2**32 - 1)
# the smallest n with an n x n complex matrix over the cut-over
BIG_N = math.isqrt(_csv.DIGITS_MIN_VALUES // 2) + 1
tables = st.one_of(
    arrays(np.float64, st.tuples(st.integers(0, 12), st.integers(1, 5)), elements=finite),
    st.builds(big_table, drawn, seeds, st.integers(1, 5)))
matrices = st.one_of(
    arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6), st.just(2)),
           elements=finite),
    st.builds(big_matrix, drawn, seeds, st.integers(BIG_N, BIG_N + 6)))
file_settings = settings(max_examples=200, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@file_settings
@given(table=tables)
@example(table=np.array([EDGES]))
@example(table=np.array(EDGES)[:, None])
@example(table=np.resize(np.array(HARD), (_csv.DIGITS_MIN_VALUES, 3)))
def test_table_round_trip_is_exact(tmp_path, table):
    header = [f"c{j}" for j in range(table.shape[1])]
    path = tmp_path / "table.csv"
    _csv.write(path, header, list(table.T))

    head = (",".join(header) + "\n").encode()
    seps = [","] * (table.shape[1] - 1) + ["\n"]
    assert path.read_bytes() == head + reference(table.tolist(), seps)
    columns = _csv.read(path, header)
    assert len(columns) == table.shape[1]
    for got, want in zip(columns, table.T):
        assert same_bits(got, np.ascontiguousarray(want))


@file_settings
@given(pairs=matrices)
@example(pairs=np.array(EDGES[:4]).reshape(1, 2, 2))
def test_matrix_round_trip_is_exact(tmp_path, pairs):
    matrix = pairs.view(np.complex128)[..., 0]
    path = tmp_path / "matrix.csv"
    _csv.write_matrix(path, matrix)

    reference = "".join(
        ",".join(f"{format(z.real, '.17g')}:{format(z.imag, '.17g')}" for z in row) + "\n"
        for row in matrix.tolist()
    )
    assert path.read_bytes() == reference.encode()
    assert same_bits(_csv.read_matrix(path), matrix)


@settings(max_examples=500, deadline=None)
@given(values=arrays(np.float64, st.integers(1, 64), elements=finite))
@example(values=np.array(HARD))
@example(values=np.array(DECADES))
@example(values=np.array([2.0**-25, -(2.0**-25)]))
@example(values=np.array(CARRIES))
@example(values=np.array(EDGES))
@example(values=np.array([0.0, -0.0]))
@example(values=np.array([np.inf, -np.inf, np.nan, 1.0]))
def test_digit_path_writes_the_bytes_of_percent(values):
    """The digit path, called on any size of column, writes what
    ``format(x, ".17g")`` writes."""
    assert _csv._digit_text(values[:, None], b"\n") == reference(values[:, None].tolist(), "\n")


def test_digit_path_on_every_power_of_ten_and_two():
    """Every 10**k for k in -300..300 with both neighbours, and every 2**k
    for k in -1074..1023, of either sign."""
    tens = np.array([10.0**k for k in range(-300, 301)])
    values = np.concatenate([np.nextafter(tens, 0.0), tens, np.nextafter(tens, np.inf),
                             np.ldexp(1.0, np.arange(-1074, 1024))])
    values = np.concatenate([values, -values])
    assert _csv._digit_text(values[:, None], b"\n") == reference(values[:, None].tolist(), "\n")


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=st.builds(big_table, drawn, seeds, st.integers(1, 5)))
def test_a_table_writes_the_bytes_of_its_slices(tmp_path, table):
    """A table over the cut-over (digit path) writes the bytes of its slices
    under it (``%`` path), row for row."""
    header = [f"c{j}" for j in range(table.shape[1])]
    whole = tmp_path / "whole.csv"
    _csv.write(whole, header, list(table.T))
    rows = (_csv.DIGITS_MIN_VALUES - 1) // table.shape[1]
    bodies = []
    for start in range(0, table.shape[0], rows):
        part = tmp_path / f"part{start}.csv"
        _csv.write(part, header, list(table[start:start + rows].T))
        bodies.append(part.read_bytes().split(b"\n", 1)[1])
    assert table.size >= _csv.DIGITS_MIN_VALUES > rows * table.shape[1]
    assert whole.read_bytes().split(b"\n", 1)[1] == b"".join(bodies)


def test_power_table_is_exact():
    """Each hi is 10**k correctly rounded, its halves add up to it with 26
    significant bits each, and hi + lo is within 2**-100 of 10**k."""
    hi, hi_high, hi_low, lo = _csv._power_table()
    for k, h, hh, hl, low in zip(range(_csv._K_MIN, _csv._K_MAX + 1),
                                 hi.tolist(), hi_high.tolist(), hi_low.tolist(), lo.tolist()):
        exact = Fraction(10) ** k
        assert h == float(exact)
        assert hh + hl == h
        assert all(x == 0.0 or math.frexp(x)[0] * 2**26 % 1 == 0 for x in (hh, hl))
        assert abs(Fraction(h) + Fraction(low) - exact) <= exact / 2**100


# the % path and the digit path, over a file far longer and one far shorter
@pytest.mark.parametrize("rows", [10, 1000])
@pytest.mark.parametrize("old", [2**21, 1])
def test_writing_over_a_file_gives_the_bytes_of_a_fresh_one(tmp_path, rows, old):
    """An existing file is rewritten in place: same inode, no old tail."""
    columns = list(np.random.default_rng(rows).standard_normal((3, rows)))
    fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
    _csv.write(fresh, ["a", "b", "c"], columns)
    reused.write_bytes((b"junk\n" * old)[:old])
    inode = reused.stat().st_ino
    _csv.write(reused, ["a", "b", "c"], columns)
    assert reused.read_bytes() == fresh.read_bytes()
    assert reused.stat().st_ino == inode


def test_a_new_file_gets_the_mode_open_gives_under_the_umask(tmp_path):
    umask = os.umask(0o027)
    try:
        _csv.write(tmp_path / "new.csv", ["a"], [np.zeros(2)])
        open(tmp_path / "plain.csv", "wb").close()
    finally:
        os.umask(umask)
    modes = {stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("new.csv", "plain.csv")}
    assert modes == {0o640}


_POWER_TABLE_BUILDS = """
import os
import numpy as np
import turning_frame.cli
from turning_frame import _csv
print(_csv._power_table.cache_info().currsize)
_csv.write(os.devnull, ["x"], [np.ones(_csv.DIGITS_MIN_VALUES)])
print(_csv._power_table.cache_info().currsize)
"""


def test_importing_the_cli_builds_no_power_table():
    """The digit path's power table is built on its first table, not at
    import, so a run that writes only smaller tables never pays for it."""
    src = str(Path(_csv.__file__).parent.parent)
    run = subprocess.run([sys.executable, "-c", _POWER_TABLE_BUILDS], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.stdout.split() == ["0", "1"]


_CSV_IMPORTS = """
import sys
import tempfile
import turning_frame.cli
from turning_frame import InvalidStateError, _csv
with tempfile.NamedTemporaryFile(suffix=".csv") as fh:
    fh.write(b"c0\\n1\\n")
    fh.flush()
    _csv.read(fh.name, ["c0"])
    fh.write(b"2,3\\n")
    fh.flush()
    try:
        _csv.read(fh.name, ["c0"])
    except InvalidStateError:
        print("csv" in sys.modules)
"""


def test_reading_any_file_leaves_csv_unimported():
    """Importing the CLI, reading a well-formed file and refusing a
    malformed one leave the ``csv`` module unimported: the bytes pass is the
    only reader."""
    src = str(Path(_csv.__file__).parent.parent)
    run = subprocess.run([sys.executable, "-c", _CSV_IMPORTS], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.stdout.split() == ["False"]


# -- the reader ---------------------------------------------------------------

def oracle_parse(path, head, parts):
    """The row-by-row ``csv.reader`` walk the bytes pass replaced, kept as
    the reference: the package's reader gives its bits, or its error, on
    every file without a ``"``, a lone ``\\r`` or a non-ASCII character."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0]:
        raise InvalidStateError(f"{path}: file is empty or starts with a blank line")
    width = len(rows[0])
    body = rows[head:]
    cells = list(map(str.split, chain.from_iterable(body), repeat(":")))
    if set(map(len, body)) <= {width} and set(map(len, cells)) <= {parts}:
        try:
            values = np.fromiter(map(float, chain.from_iterable(cells)), np.float64)
        except ValueError:
            pass
        else:
            return rows[:head], values.reshape(-1, width * parts)
    for line, row in enumerate(rows[head:], start=head + 1):
        cells = [cell.split(":") for cell in row]
        if len(cells) != width or any(len(cell) != parts for cell in cells):
            raise InvalidStateError(f"{path}, line {line}: malformed row {row}")
        try:
            [float(x) for cell in cells for x in cell]
        except ValueError as exc:
            raise InvalidStateError(f"{path}, line {line}: {exc}") from None


def oracle_read(path, names):
    [header], table = oracle_parse(path, 1, 1)
    if [cell.strip() for cell in header[:len(names)]] != names:
        raise InvalidStateError(f"{path}: header {header} does not start with {names}")
    return list(table.T[:len(names)])


def oracle_read_matrix(path):
    return oracle_parse(path, 0, 2)[1].view(np.complex128)


def refused_at(path, line, why):
    """What a reader gives for a file refused at ``line`` for ``why``."""
    return "raises", InvalidStateError, f"{path}, line {line}: {why}"


def outcome(read, *args):
    """What ``read(*args)`` gives: the shapes and bytes of its arrays, or the
    type and text of what it raises."""
    try:
        result = read(*args)
    except Exception as exc:  # noqa: BLE001 - any exception must match the oracle's
        return "raises", type(exc), str(exc)
    arrays = result if isinstance(result, list) else [result]
    return "reads", [(a.shape, a.tobytes()) for a in arrays]


def table_file(path, table):
    header = [f"c{j}" for j in range(table.shape[1])]
    _csv.write(path, header, list(table.T))
    return _csv.read, oracle_read, header


def matrix_file(path, pairs):
    _csv.write_matrix(path, pairs.view(np.complex128)[..., 0])
    return _csv.read_matrix, oracle_read_matrix


# a file as ``write`` or ``write_matrix`` wrote it, rewritten with ``\n`` or
# ``\r\n`` line ends and with or without its final one
saved = st.one_of(st.tuples(st.just(table_file), tables),
                  st.tuples(st.just(matrix_file), matrices))
line_ends = st.tuples(st.sampled_from([b"\n", b"\r\n"]), st.booleans())


def rewritten(path, end, final):
    text = path.read_bytes().replace(b"\n", end)
    if not final:
        text = text[:-len(end)]
    path.write_bytes(text)


@file_settings
@given(saved=saved, ends=line_ends)
@example(saved=(table_file, np.zeros((0, 3))), ends=(b"\n", True))
def test_the_reader_returns_the_bits_of_the_row_reader(tmp_path, monkeypatch, saved, ends):
    """Every file the writers produce, with either line end and with or
    without the last one, reads as the row-by-row reader reads it, and none,
    a table with no rows included, is refused."""
    kind, values = saved
    path = tmp_path / "saved.csv"
    new, old, *args = kind(path, values)
    rewritten(path, *ends)
    calls = []

    def counted(*call, _original=_csv._refusal):
        calls.append(call)
        return _original(*call)
    monkeypatch.setattr(_csv, "_refusal", counted)
    got = outcome(new, path, *args)
    assert got[0] == "reads"
    assert got == outcome(old, path, *args)
    assert calls == []


# one edit of a written file: a separator dropped or doubled, or a blank
# line, a quote, a letter, a lone carriage return or a non-ASCII letter put in
EDITS = ["drop ,", "drop :", "double ,", "double :", "blank line", '"', "x", "\r", "é"]


@file_settings
@given(saved=saved, ends=line_ends, edit=st.sampled_from(EDITS), at=st.floats(0.0, 1.0))
@example(saved=(table_file, np.ones((2, 2))), ends=(b"\n", True), edit="blank line", at=1.0)
@example(saved=(table_file, np.ones((2, 2))), ends=(b"\n", True), edit="\r", at=0.9)
@example(saved=(matrix_file, np.ones((2, 2, 2))), ends=(b"\n", False), edit="drop :", at=0.0)
@example(saved=(table_file, np.ones((2, 2))), ends=(b"\r\n", True), edit='"', at=0.34)
def test_an_edited_file_reads_or_fails_as_with_the_row_reader(tmp_path, saved, ends, edit, at):
    """After one edit both readers give the same bits, or raise the same
    error with the same text: file, line and cause.  A ``"``, a lone ``\\r``
    or a non-ASCII character, which the row reader may read, is refused at
    its line instead."""
    kind, values = saved
    path = tmp_path / "edited.csv"
    new, old, *args = kind(path, values)
    rewritten(path, *ends)
    text = path.read_bytes()
    if edit.startswith(("drop", "double")):
        sites = [i for i, c in enumerate(text) if c == ord(edit[-1])]
    elif edit == "blank line":
        sites = [0] + [i + 1 for i, c in enumerate(text) if c == ord("\n")]
    else:
        sites = range(len(text) + 1)
    if not sites:
        return
    i = sites[min(int(at * len(sites)), len(sites) - 1)]
    if edit.startswith("drop"):
        text = text[:i] + text[i + 1:]
    elif edit.startswith("double"):
        text = text[:i] + text[i:i + 1] + text[i:]
    else:
        text = text[:i] + (ends[0] if edit == "blank line" else edit.encode()) + text[i:]
    path.write_bytes(text)
    if edit in ('"', "é") or b"\r" in text.replace(b"\r\n", b"\n"):
        # an edit inside a \r\n leaves its \r first on the line
        char = "\r" if text[i - 1:i] == b"\r" else edit
        expected = refused_at(path, text.count(b"\n", 0, i) + 1,
                              f"{char!r} is outside the format")
    else:
        expected = outcome(old, path, *args)
    assert outcome(new, path, *args) == expected


@pytest.mark.parametrize("text, matrix", [
    (b"", False), (b"\n", False), (b"c0\n", False), (b"c0", False), (b"c0,c1\n", False),
    (b"\n1\n2\n", False), (b"\n1:0\n", True), (b"1:0\n\n", True), (b"1:0,2:0\r\n", True),
    (b"c0\n1\r2\n", False), (b"c0\n1\r\n\r\n", False), (b"c0\n 1 ,\n", False),
    (b"c0\n1_0\n", False), (b"c0\n 1\t\n", False), (b"c0\n1\x1c\n", False),
    (b"c0\n1\x00\n", False), (b'c0\n"1"\n', False), (b"c0\ninf\n-nan\n", False),
    (b"c0\n1:2\n", False), (b"1,2\n", True), (b"1:2:3\n", True),
    (b"c\xc3\xa9\n1\n", False),
])
def test_hand_written_files_read_as_with_the_row_reader(tmp_path, text, matrix):
    """Each file reads as the row reader reads it, or fails as it fails;
    the three it read that hold a ``"``, a lone ``\\r`` or a non-ASCII
    character are refused at that line."""
    path = tmp_path / "hand.csv"
    path.write_bytes(text)
    readers = [(_csv.read_matrix, oracle_read_matrix)] if matrix else [
        (lambda p: _csv.read(p, names), lambda p: oracle_read(p, names))
        for names in ([], ["c0"])]
    refused = {b'c0\n"1"\n': (2, """'"' is outside the format"""),
               b"c0\n1\r2\n": (2, r"'\r' is outside the format"),
               b"c\xc3\xa9\n1\n": (1, "'é' is outside the format")}
    for new, old in readers:
        expected = refused_at(path, *refused[text]) if text in refused else outcome(old, path)
        assert outcome(new, path) == expected


FOREIGN = [b'"', b"\r", "é".encode(), b"\xff"]
PIECES = [b"1", b"-2.5e3", b"inf", b" ", b"\t", b"\x00", b"\x1c", b"\x1f", b"x", b",", b":",
          b"\n", b"\r\n", *FOREIGN]


@file_settings
@given(text=st.lists(st.sampled_from(PIECES), max_size=12).map(b"".join), matrix=st.booleans())
def test_any_file_reads_as_the_row_reader_or_is_refused(tmp_path, text, matrix):
    """On any file a reader returns the row reader's bits or raises
    InvalidStateError naming the file, and parts from the row reader only on
    a file holding a ``"``, a lone ``\\r`` or a non-ASCII byte."""
    path = tmp_path / "any.csv"
    path.write_bytes(text)
    new, old = ((_csv.read_matrix, oracle_read_matrix) if matrix else
                (lambda p: _csv.read(p, []), lambda p: oracle_read(p, [])))
    got = outcome(new, path)
    if got[0] == "reads" or not any(char in text.replace(b"\r\n", b"\n") for char in FOREIGN):
        assert got == outcome(old, path)
    else:
        assert got[1] is InvalidStateError and got[2].startswith(f"{path}")


@pytest.mark.parametrize("text, line, matrix", [
    (b"c" * 9000 + b"\xe9\n1\n", 1, False),
    (b"c0\n" + b"1\n" * 5000 + b"2\xff\n3\n", 5002, False),
    (b"c0\r\n1\r\n\x80\r\n", 3, False),
    (b"1:0,2:0\n3:0,4:\xc3\n", 2, True),
], ids=["header", "past-8192-bytes", "crlf", "matrix"])
def test_a_byte_that_is_not_utf8_names_its_line(tmp_path, text, line, matrix):
    """One of the two kinds of file the readers part on: where the oracle,
    decoding by the locale, raises UnicodeDecodeError, the reader raises
    InvalidStateError naming the file and the line that holds the byte."""
    path = tmp_path / "bad.csv"
    path.write_bytes(text)
    with pytest.raises(UnicodeDecodeError) as cause:
        text.decode("utf-8")
    with pytest.raises(InvalidStateError) as raised:
        _csv.read_matrix(path) if matrix else _csv.read(path, ["c0"])
    assert str(raised.value) == f"{path}, line {line}: {cause.value}"


def test_a_field_over_the_csv_field_limit_is_read(tmp_path):
    """The other kind of file the readers part on: ``csv.reader`` refuses a
    field over its limit of 131072 characters, the float pass reads it."""
    path = tmp_path / "long.csv"
    path.write_bytes(b"c0\n" + b"0" * 2**17 + b"1\n")
    with pytest.raises(csv.Error, match="field larger than field limit"):
        oracle_read(path, ["c0"])
    [column] = _csv.read(path, ["c0"])
    assert column.tolist() == [1.0]
