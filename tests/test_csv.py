"""The one CSV table format: exact round trips and the 17-digit layout."""

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from turning_frame import _csv

# every finite float64, with the signed zero, the smallest subnormal and the
# largest magnitudes given as explicit examples below
finite = st.floats(allow_nan=False, allow_infinity=False)
EDGES = [-0.0, 5e-324, -2.2250738585072014e-308,
         1.7976931348623157e308, -1.7976931348623157e308]
tables = arrays(np.float64, st.tuples(st.integers(0, 12), st.integers(1, 5)),
                elements=finite)
matrices = arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6), st.just(2)),
                  elements=finite)
file_settings = settings(max_examples=200, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@file_settings
@given(table=tables)
@example(table=np.array([EDGES]))
@example(table=np.array(EDGES)[:, None])
def test_table_round_trip_is_exact(tmp_path, table):
    header = [f"c{j}" for j in range(table.shape[1])]
    path = tmp_path / "table.csv"
    _csv.write(path, header, list(table.T))

    reference = "".join(
        ",".join(row) + "\n"
        for row in [header] + [[format(x, ".17g") for x in r] for r in table.tolist()]
    )
    assert path.read_bytes() == reference.encode()
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


@file_settings
@given(values=arrays(np.float64, st.integers(0, 12), elements=finite),
       other=st.floats(allow_nan=False, allow_infinity=False))
@example(values=np.array(EDGES), other=EDGES[1])
def test_cells_write_the_bytes_of_their_floats(tmp_path, values, other):
    """A ``cells`` column, formatted once, writes what its floats write."""
    rest = np.full_like(values, other)
    floats, cells = tmp_path / "floats.csv", tmp_path / "cells.csv"
    _csv.write(floats, ["x", "y", "z"], [values, rest, values])
    _csv.write(cells, ["x", "y", "z"], [_csv.cells(values), rest, _csv.cells(values)])
    assert cells.read_bytes() == floats.read_bytes()
