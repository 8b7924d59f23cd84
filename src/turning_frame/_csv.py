"""The package's one CSV format: a header row, then rows of numbers written
to 17 significant digits (enough to round-trip every float64), joined by
``,`` and ended by ``\\n``.  Observable matrices have no header and write
each entry as one ``re:im`` cell.  Readers also accept ``\\r\\n`` line ends
and raise InvalidStateError, naming the file and line, on any other file.

A file is read in two passes over its bytes, with ``\\r\\n`` turned into
``\\n`` and a final line end supplied if it has none:

* the shape pass deletes every byte of the body (the rows after the
  header) but ``,``, ``:`` and ``\\n`` with one ``bytes.translate``.  What
  is left must be the row skeleton, ``width`` cells of ``parts`` numbers
  (``,,\\n`` for a 3-column table, ``:,:\\n`` for a 2-column matrix), once
  per row: so every row has the first row's width, every cell its number
  of parts, and there is no blank line;
* the float pass splits the body at every separator and parses the fields
  with one ``np.fromiter(map(float, ...))``.

Every file the package writes takes these passes, a header-only table
too, and they are the only way a table loads.  Any other file is refused:
one that is empty or starts with a blank line, holds a ``"``, a lone
``\\r`` or a non-ASCII byte, fails the skeleton or has a field ``float``
refuses.  Only then does ``_refusal`` read it line by line, each field as
bytes as the float pass does, for the InvalidStateError naming the first
line outside the format and why: the character, ``malformed row [...]``,
``could not convert string to float: '...'`` or a UnicodeDecodeError.
On a 2-core x86-64 VM an 8192 x 4 table reads in 13-15 ms, 10 of them in
``float``, and a 128 x 3 table in 0.15 ms.

Every number is written as ``'%.17g' % x`` writes it, by one of two paths
chosen by the size of the table:

* under ``DIGITS_MIN_VALUES`` values, one ``%`` pass over the whole table;
* from ``DIGITS_MIN_VALUES`` values on, ``_digit_text``: one NumPy pass that
  computes each number's 17 digits and lays out the ``%g`` text.  It scales
  ``|x|`` by ``10**(16 - E)`` in double-double arithmetic (Dekker's exact
  product against ``10**k`` held as hi + lo), whose error stays below 1e-14
  of the last digit, corrects the guess ``E = floor(log10|x|)`` on that
  unrounded product, and rounds it half-even to the integer ``N`` with
  ``10**16 <= N < 10**17`` (a carry to ``10**17`` moves E up).  A cell
  whose fraction lies within 1e-6 of one half, a magnitude outside
  [1e-270, 1e280] and a non-finite value are formatted by ``%`` instead.

So every cell holds the bytes of ``%``, and a file's bytes do not depend on
which path wrote it.  On a 2-core x86-64 VM the digit path takes about
0.2 µs per value at 16k values, against 0.5 µs for ``%``, but inside a
running benchmark pass it has a fixed cost of about 0.5 ms per table:
timed there, ``%`` won at 768 and 855 values (0.44 and 0.58 ms against 0.47
and 0.72) and lost at 1705 (1.24 ms against 0.96), a break-even near 1100
values, hence the cut-over at 1200.

Every output file of the package, each CSV here and the CLI's JSON, is
opened by ``rewrite``: without ``O_TRUNC`` (its opener clears that flag and
keeps mode ``0o666``, so a new file gets what ``open`` gives under the
umask), written over its old bytes, then cut at the end of what was written,
also when the write raises part-way, so no old tail survives.  Only a
regular file is cut, so a name linked to ``/dev/null`` still works.  The
file's bytes are those of a fresh write.  On a 2-core x86-64 VM whose ext4
root is mounted with ``discard``, truncating a 250 KB file to zero in
``open`` took 160-230 µs and its ``close`` 20-40 µs, against 2-30 µs and
1-4 µs in place; a new file gains nothing.
"""

from __future__ import annotations

import contextlib
import functools
import os
import stat

import numpy as np

from .errors import InvalidStateError

_NUMBER = "%.17g"
DIGITS_MIN_VALUES = 1200

# magnitudes the digit path formats; outside, the scaled products or the
# low parts of the power table would leave the normal range
_TINY, _HUGE = 1e-270, 1e280
# Dekker's splitting constant 2**27 + 1 cuts hi into two halves of at most
# 26 significant bits, so each of their products with the high 26 and low 27
# bits of |x| is exact
_SPLIT = 134217729.0
_K_MIN, _K_MAX = -270, 290

# the reader's shape pass keeps only the separators; its float pass splits
# the body at every one of them
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b",:\n")))
_COMMAS = bytes.maketrans(b":\n", b",,")


@functools.cache
def _power_table() -> np.ndarray:
    """Rows hi, hi's high and low halves, and lo of ``10**k`` for k in
    [_K_MIN, _K_MAX]: hi is ``10**k`` correctly rounded and lo the rounded
    remainder, both from exact integer arithmetic.  Built on the first call
    (about 1.5 ms), not at import."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            h = float(10**k)
            rest = 10**k - int(h), 1
        else:
            h = 1 / 10**-k
            num, den = h.as_integer_ratio()
            rest = den - num * 10**-k, den * 10**-k
        hi.append(h)
        lo.append(rest[0] / rest[1])
    hi = np.array(hi)
    t = _SPLIT * hi
    hi_high = t - (t - hi)
    return np.stack([hi, hi_high, hi - hi_high, np.array(lo)])


# row j of the digit block holds digit j - 1 of N: row 0 is a zero above
# N's 17 digits and row 18 a blank below them
_ROWS19 = np.arange(19, dtype=np.uint8)[:, None]
_ROWS18 = _ROWS19[:18]
# "0.000" before the digits of a fixed E < 0: char i shows for -E > _LEAD[i]
_LEAD_CHARS = np.frombuffer(b"0.000", np.uint8)[:, None]
_LEAD = np.array([0, 0, 1, 2, 3], np.uint8)[:, None]
# clears the low 27 bits of a float64's 52-bit fraction
_HIGH_BITS = np.uint64(2**64 - 2**27)


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**(16 - e)`` as a normalised double-double ``s + r``, for
    normal ``a``: Dekker's exact product of ``a``, cut to its high 26 and
    low 27 bits, and hi, plus ``a * lo``."""
    hi, hi_high, hi_low, lo = np.take(_power_table(), 16 - e - _K_MIN, axis=1)
    a_high = (a.view(np.uint64) & _HIGH_BITS).view(np.float64)
    a_low = a - a_high
    p = a * hi
    r = a_high * hi_high
    r -= p
    for u, v in ((a_high, hi_low), (a_low, hi_high), (a_low, hi_low), (a, lo)):
        np.multiply(u, v, out=hi)
        r += hi
    s = p + r
    p -= s
    p += r
    return s, p


def _digit_text(values: np.ndarray, seps: bytes) -> bytes:
    """The rows of ``values``, each value written as ``'%.17g' % x`` and
    followed by its separator in ``seps``, in one NumPy pass."""
    x = values.ravel()
    m = x.size
    a = np.abs(x)
    zero = a == 0.0
    fast = (a >= _TINY) & (a <= _HUGE)
    a[~fast] = 1.0

    # the decimal exponent E and N = |x| * 10**(16 - E) unrounded, with E
    # corrected before rounding so that 10**16 <= N < 10**17
    e = np.floor(np.log10(a)).astype(np.int64)
    s, r = _scaled(a, e)
    low = (s < 1e16) | ((s == 1e16) & (r < 0.0))
    high = (s > 1e17) | ((s == 1e17) & (r >= 0.0))
    wrong = np.flatnonzero(low | high)
    if wrong.size:
        e[wrong] += np.where(high[wrong], 1, -1)
        s[wrong], r[wrong] = _scaled(a[wrong], e[wrong])

    # round half-even; a near tie goes to %, as do magnitudes outside the
    # range and non-finite values
    whole = np.rint(r)
    n = s.astype(np.int64)
    n += whole.astype(np.int64)
    r -= whole
    slow = np.flatnonzero(~(fast | zero) | (np.abs(r) > 0.5 - 1e-6))
    n[zero] = 0
    carry = n == 10**17
    n[carry] = 10**16
    e = e.astype(np.int16)
    e += carry
    e[zero] = 0

    # the 17 digits of N, from two uint32 halves
    halves = np.empty((2, m), np.uint32)
    np.floor_divide(n, 10**9, out=halves[0], casting="unsafe")
    np.subtract(n, halves[0] * np.int64(10**9), out=halves[1], casting="unsafe")
    block = np.zeros((19, m), np.uint8)
    digits = block[:18].reshape(2, 9, m)
    for k in range(8, -1, -1):
        rest = halves // 10
        np.subtract(halves, rest * 10, out=digits[:, k], casting="unsafe")
        halves = rest
    # the digits up to the last nonzero one; 0 for N = 0
    used = np.max(_ROWS19 * (block != 0), axis=0)

    # %g: fixed notation for -4 <= E < 17, else exponential; trailing zeros
    # and a point with nothing after it are dropped.  keep is the number of
    # digits shown, point the row of the "." among the 18 rows they share
    # with it (after digit point - 1), 18 for none
    sci = (e < -4) | (e >= 17)
    lead = ~sci & (e < 0)
    keep = np.where(sci, used, np.maximum(used, e + 1)).astype(np.uint8)
    point = np.where(sci, 1, e + 1)
    point[(used <= point) | lead] = 18
    point = point.astype(np.uint8)

    # each value's 30 bytes, NUL where no character goes: the sign, "0.000",
    # the digits with the point among them, "e+XXX" and the separator
    text = np.empty((30, m), np.uint8)
    np.multiply(np.signbit(x), np.uint8(ord("-")), out=text[0])
    np.multiply(_LEAD_CHARS, _LEAD < (-e * lead).astype(np.uint8), out=text[1:6])
    block += np.uint8(ord("0"))
    block *= _ROWS19 <= keep
    np.multiply(block[1:], _ROWS18 < point, out=text[6:24])
    text[6:24] += block[:18] * (_ROWS18 > point)
    text[6:24] += (_ROWS18 == point) * np.uint8(ord("."))
    ae = np.abs(e)
    np.multiply(sci, np.uint8(ord("e")), out=text[24])
    np.multiply(sci, (e < 0) * np.uint8(2) + np.uint8(ord("+")), out=text[25])
    np.multiply(sci & (ae >= 100), ae // 100 + ord("0"), out=text[26], casting="unsafe")
    np.multiply(sci, ae // 10 % 10 + ord("0"), out=text[27], casting="unsafe")
    np.multiply(sci, ae % 10 + ord("0"), out=text[28], casting="unsafe")
    text[29].reshape(-1, len(seps))[:] = np.frombuffer(seps, np.uint8)

    if slow.size:
        cells = [(_NUMBER % v).encode() for v in x[slow].tolist()]
        text[:29, slow] = np.array(cells, dtype="S29").view(np.uint8).reshape(-1, 29).T
    return text.T.tobytes().translate(None, b"\0")


def _keep_old_bytes(path, flags: int) -> int:
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextlib.contextmanager
def rewrite(path, mode: str, **kwargs):
    """``open(path, mode, **kwargs)`` for writing over the file's old bytes
    instead of truncating it first; on leaving, also by an exception, a
    regular file is cut at the end of what was written."""
    with open(path, mode, opener=_keep_old_bytes, **kwargs) as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def _dump(path, head: str, values: np.ndarray, seps: str) -> None:
    """Write ``head``, then every row of ``values``: each value to 17
    significant digits and followed by its separator in ``seps``."""
    if values.size < DIGITS_MIN_VALUES:
        row = "".join(_NUMBER + sep for sep in seps)
        body = ((row * values.shape[0]) % tuple(values.ravel().tolist())).encode()
    else:
        body = _digit_text(values, seps.encode())
    with rewrite(path, "wb") as fh:
        fh.write(head.encode() + body)


def _parse(path, head: int, parts: int) -> tuple[list, np.ndarray]:
    """The first ``head`` rows, then a float table of the rest: every row has
    as many cells as the first, each ``parts`` numbers joined by ``:``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    data = raw.replace(b"\r\n", b"\n") if b"\r" in raw else raw
    if not data.endswith(b"\n"):
        data += b"\n"
    *header, body = data.split(b"\n", head)
    width = data.count(b",", 0, data.index(b"\n")) + 1
    row = (",".join([":" * (parts - 1)] * width) + "\n").encode()
    skeleton = body.translate(None, _NOT_SEPARATORS)
    rows = len(skeleton) // len(row)
    if (skeleton == row * rows and not data.startswith(b"\n")
            and data.isascii() and b'"' not in data and b"\r" not in data):
        # the body ends in a line end, so its last field is empty
        fields = body.translate(_COMMAS).split(b",")
        try:
            values = np.fromiter(map(float, fields), np.float64, len(fields) - 1)
        except ValueError:
            pass
        else:
            return ([line.decode().split(",") for line in header],
                    values.reshape(rows, width * parts))
    raise _refusal(path, raw, data, head, width, parts)


def _refusal(path, raw: bytes, data: bytes, head: int, width: int, parts: int):
    """The InvalidStateError naming the first line outside the format of a
    file ``_parse`` refuses: ``raw`` as read, ``data`` with ``\\n`` ends."""
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        return InvalidStateError(f"{path}, line {line}: {exc}")
    if data.startswith(b"\n"):
        return InvalidStateError(f"{path}: file is empty or starts with a blank line")
    for line, text in enumerate(data.split(b"\n")[:-1], start=1):
        if char := next((c for c in text.decode() if c in '"\r' or not c.isascii()), None):
            return InvalidStateError(f"{path}, line {line}: {char!r} is outside the format")
        if line <= head:
            continue
        row = text.decode().split(",") if text else []
        if len(row) != width or any(cell.count(":") != parts - 1 for cell in row):
            return InvalidStateError(f"{path}, line {line}: malformed row {row}")
        for field in text.replace(b":", b",").split(b","):
            try:
                float(field)  # bytes, as the float pass reads them
            except ValueError:
                return InvalidStateError(f"{path}, line {line}: could not convert "
                                         f"string to float: {field.decode()!r}")


def write(path, header: list[str], columns) -> None:
    """Write equal-length float columns under a header row."""
    _dump(path, ",".join(header) + "\n", np.column_stack(columns).astype(np.float64, copy=False),
          "," * (len(columns) - 1) + "\n")


def read(path, names: list[str]) -> list[np.ndarray]:
    """The leading columns ``names`` of a table, as float64 arrays."""
    [header], table = _parse(path, 1, 1)
    if [cell.strip() for cell in header[:len(names)]] != names:
        raise InvalidStateError(f"{path}: header {header} does not start with {names}")
    return list(table.T[:len(names)])


def write_matrix(path, matrix: np.ndarray) -> None:
    """Write a complex matrix as rows of ``re:im`` cells."""
    pairs = np.stack([matrix.real, matrix.imag], axis=-1).reshape(matrix.shape[0], -1)
    _dump(path, "", pairs, ":," * (matrix.shape[1] - 1) + ":\n")


def read_matrix(path) -> np.ndarray:
    """A complex matrix from rows of ``re:im`` cells."""
    return _parse(path, 0, 2)[1].view(np.complex128)
