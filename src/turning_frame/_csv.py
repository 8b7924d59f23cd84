"""The package's one CSV format: a header row, then rows of numbers written
to 17 significant digits (enough to round-trip every float64), joined by
``,`` and ended by ``\\n``.  A column written many times can be formatted
once by ``cells``.  Observable matrices have no header and write each
entry as one ``re:im`` cell.  Readers also accept ``\\r\\n`` line ends and
raise InvalidStateError, naming the file and line, on a malformed file.
"""

from __future__ import annotations

import csv
from itertools import chain, repeat

import numpy as np

from .errors import InvalidStateError

_NUMBER = "%.17g"


def _dump(path, head: str, values: np.ndarray, row: str) -> None:
    """Write ``head``, then every row of ``values`` through one ``%`` pass."""
    body = ((row + "\n") * values.shape[0]) % tuple(values.ravel().tolist())
    with open(path, "w", newline="") as fh:
        fh.write(head + body)


def _parse(path, head: int, parts: int) -> tuple[list, np.ndarray]:
    """The first ``head`` rows, then a float table of the rest: every row has
    as many cells as the first, each ``parts`` numbers joined by ``:``."""
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
    raise _first_bad_row(path, rows, head, width, parts)


def _first_bad_row(path, rows: list, head: int, width: int, parts: int) -> InvalidStateError:
    """The error naming the first body row that ``_parse`` refuses: one of
    another width, with a cell of other than ``parts`` numbers, or with a
    cell that is not a number."""
    for line, row in enumerate(rows[head:], start=head + 1):
        cells = [cell.split(":") for cell in row]
        if len(cells) != width or any(len(cell) != parts for cell in cells):
            return InvalidStateError(f"{path}, line {line}: malformed row {row}")
        try:
            [float(x) for cell in cells for x in cell]
        except ValueError as exc:
            return InvalidStateError(f"{path}, line {line}: {exc}")


def cells(values) -> np.ndarray:
    """Float values as their 17-digit cells: an object array of strings that
    ``write`` takes as a column, so a column written many times is
    formatted once."""
    text = ((_NUMBER + "\n") * len(values)) % tuple(values.tolist())
    return np.array(text.split("\n")[:-1], dtype=object)


def write(path, header: list[str], columns) -> None:
    """Write equal-length columns under a header row: float columns to 17
    significant digits, ``cells`` columns as the strings they hold."""
    table = np.empty((len(columns[0]), len(columns)), dtype=object)
    for j, column in enumerate(columns):
        table[:, j] = column
    _dump(path, ",".join(header) + "\n", table,
          ",".join(["%s" if column.dtype == object else _NUMBER for column in columns]))


def read(path, names: list[str]) -> list[np.ndarray]:
    """The leading columns ``names`` of a table, as float64 arrays."""
    [header], table = _parse(path, 1, 1)
    if [cell.strip() for cell in header[:len(names)]] != names:
        raise InvalidStateError(f"{path}: header {header} does not start with {names}")
    return list(table.T[:len(names)])


def write_matrix(path, matrix: np.ndarray) -> None:
    """Write a complex matrix as rows of ``re:im`` cells."""
    pairs = np.stack([matrix.real, matrix.imag], axis=-1)
    _dump(path, "", pairs, ",".join([f"{_NUMBER}:{_NUMBER}"] * matrix.shape[1]))


def read_matrix(path) -> np.ndarray:
    """A complex matrix from rows of ``re:im`` cells."""
    return _parse(path, 0, 2)[1].view(np.complex128)
