"""Tests for energy-representation propagation and matrix observables."""

import numpy as np
import pytest

from turning_frame import (
    DomainError,
    InvalidStateError,
    ObservableMatrix,
    SpectralState,
    evolve,
    expectation,
    load_momentum_csv,
    load_observable_csv,
    load_spectral_csv,
    propagate,
    save_momentum_csv,
    save_observable_csv,
    save_spectral_csv,
    total_phase,
)


@pytest.fixture
def two_level():
    return SpectralState(
        energies=np.array([1.0, 2.0]),
        coeffs=np.array([1.0, 1.0]) / np.sqrt(2.0),
    )


def test_spectral_state_validation():
    with pytest.raises(DomainError):
        SpectralState(energies=np.array([0.0, 1.0]), coeffs=np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        SpectralState(energies=np.array([2.0, 1.0]), coeffs=np.array([1.0, 0.0]))
    with pytest.raises(InvalidStateError):
        SpectralState(energies=np.array([1.0, 2.0]), coeffs=np.array([1.0, 1.0]))
    with pytest.raises(InvalidStateError):
        SpectralState(energies=np.array([1.0, 2.0]), coeffs=np.array([1.0, np.nan]))
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            SpectralState(energies=np.array([1.0, bad, 3.0]),
                          coeffs=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(InvalidStateError, match="matching"):
        SpectralState(energies=np.array([1.0, 2.0]), coeffs=np.array([1.0]))


def test_observable_must_be_hermitian():
    with pytest.raises(InvalidStateError):
        ObservableMatrix(np.array([[0.0, 1.0], [0.5, 0.0]]))
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidStateError):
            ObservableMatrix(np.array([[1.0, bad], [bad, 1.0]]))
    with pytest.raises(InvalidStateError):
        ObservableMatrix(np.zeros((0, 0)))
    with pytest.raises(DomainError):  # an int beyond float range
        ObservableMatrix([[1.0, 10**400], [10**400, 1.0]])
    obs = ObservableMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert obs.dim == 2


def test_propagate_identity_and_norm(two_level, model):
    same = propagate(two_level, 0.0, model)
    np.testing.assert_array_equal(same.coeffs, two_level.coeffs)
    moved = propagate(two_level, 1.3, model)
    assert np.sum(np.abs(moved.coeffs) ** 2) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(
        np.abs(moved.coeffs), np.abs(two_level.coeffs), rtol=1e-15, atol=0
    )


def test_single_eigenstate_observables_are_static(model):
    state = SpectralState(energies=np.array([1.7]), coeffs=np.array([1.0 + 0.0j]))
    proj = ObservableMatrix(np.array([[1.0]]))
    for tau in (0.0, 0.4, 2.0, 9.0):
        moved = propagate(state, tau, model)
        assert abs(moved.coeffs[0]) == pytest.approx(1.0, abs=1e-15)
        assert expectation(moved, proj) == pytest.approx(1.0, abs=1e-12)


def test_identity_expectation_is_normalization(two_level):
    assert expectation(two_level, ObservableMatrix(np.eye(2))) == pytest.approx(1.0)


def test_diagonal_observables_are_conserved(two_level, model):
    energy_op = ObservableMatrix(np.diag([1.0, 2.0]))
    initial = expectation(two_level, energy_op)
    assert initial == pytest.approx(1.5)
    for tau in (0.3, 0.9, 4.0):
        assert expectation(propagate(two_level, tau, model), energy_op) == (
            pytest.approx(initial, abs=1e-12)
        )


def test_exchange_observable_oscillates_with_phase_difference(two_level, model):
    """2x2 brute force: <A>(tau) = cos((Phi(tau,2) - Phi(tau,1))/hbar)."""
    exchange = ObservableMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert expectation(two_level, exchange) == pytest.approx(1.0)
    for tau in (0.2, 0.7, 1.5, 3.0):
        moved = propagate(two_level, tau, model)
        dphi = total_phase(tau, 2.0, model) - total_phase(tau, 1.0, model)
        assert expectation(moved, exchange) == pytest.approx(
            np.cos(dphi / model.hbar), abs=1e-12
        )


def test_expectation_dimension_mismatch(two_level):
    with pytest.raises(DomainError):
        expectation(two_level, ObservableMatrix(np.eye(3)))


def test_momentum_grid_spectrum_reproduces_evolve(trunc_state, model):
    """Weights folded into coefficients make both propagators coincide."""
    h = trunc_state.grid.h
    spectral = SpectralState(
        energies=trunc_state.grid.nodes,
        coeffs=np.asarray(trunc_state.amps) * np.sqrt(h),
    )
    tau = 1.7
    moved = propagate(spectral, tau, model)
    evolved = evolve(trunc_state, tau, model)
    np.testing.assert_allclose(
        moved.coeffs / np.sqrt(h), evolved.amps, rtol=0, atol=1e-12
    )


def test_spectral_csv_roundtrip(tmp_path, two_level):
    path = tmp_path / "spectrum.csv"
    save_spectral_csv(two_level, path)
    loaded = load_spectral_csv(path)
    np.testing.assert_array_equal(loaded.energies, two_level.energies)
    np.testing.assert_array_equal(loaded.coeffs, two_level.coeffs)


def test_observable_csv_roundtrip(tmp_path):
    obs = ObservableMatrix(np.array([[1.0, 0.5 + 0.25j], [0.5 - 0.25j, -2.0]]))
    path = tmp_path / "obs.csv"
    save_observable_csv(obs, path)
    loaded = load_observable_csv(path)
    np.testing.assert_array_equal(loaded.matrix, obs.matrix)


# Files as the library wrote them before the writers moved to ``\n`` line
# ends, with the arrays each loaded object carries.
CRLF_FILES = {
    "momentum": (load_momentum_csv, save_momentum_csv,
                 lambda state: [state.grid.nodes, state.amps],
                 "p,re,im\r\n0.5,-0,1\r\n1,4.9406564584124654e-324,1\r\n"),
    "spectral": (load_spectral_csv, save_spectral_csv,
                 lambda state: [state.energies, state.coeffs],
                 "E,re,im\r\n1,0.59999999999999998,-0\r\n2,0,0.80000000000000004\r\n"),
    "observable": (load_observable_csv, save_observable_csv,
                   lambda obs: [obs.matrix],
                   "1:0,0.5:-0.25\r\n0.5:0.25,-2:-0\r\n"),
}


@pytest.mark.parametrize("kind", sorted(CRLF_FILES))
def test_crlf_files_load_like_the_new_writer_round_trip(tmp_path, kind):
    load, save, arrays, text = CRLF_FILES[kind]
    old = tmp_path / "old.csv"
    old.write_bytes(text.encode())
    loaded = load(old)
    new = tmp_path / "new.csv"
    save(loaded, new)
    assert new.read_bytes() == text.replace("\r\n", "\n").encode()
    for a, b in zip(arrays(loaded), arrays(load(new)), strict=True):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("load, text", [
    pytest.param(load_momentum_csv, "", id="momentum-empty"),
    pytest.param(load_momentum_csv, "p,re,im\n0.5,1\n1,0,0\n", id="momentum-short-row"),
    pytest.param(load_momentum_csv, "p,re,im\n0.5,1,x\n1,0,0\n", id="momentum-not-a-number"),
    pytest.param(load_momentum_csv, "p,re,im\n0.5,1,0\n", id="momentum-one-node"),
    pytest.param(load_momentum_csv, "p,re,im\n0,1,0\n1,0,0\n3,0,0\n", id="momentum-uneven-nodes"),
    pytest.param(load_momentum_csv, "p,re,im\n0,1,0\nnan,0,0\n2,0,0\n", id="momentum-nan-node"),
    pytest.param(load_momentum_csv, "p,re,im\n0,1,0\n1,0,0\nnan,0,0\n", id="momentum-nan-last-node"),
    pytest.param(load_momentum_csv, "p,re,im\n0,1,0\n1,0,0\ninf,0,0\n", id="momentum-inf-node"),
    pytest.param(load_momentum_csv, "p,re,im\n0,1,0\n1,1,0\n", id="momentum-unnormalized"),
    pytest.param(load_momentum_csv, "p,re,im\n0,1e200,0\n1,0,0\n", id="momentum-overflowing"),
    pytest.param(load_momentum_csv, "q,re,im\n0,1,0\n1,0,0\n", id="momentum-wrong-header"),
    pytest.param(load_momentum_csv, "p,re,im\n1,1,0\n0,0,0\n", id="momentum-descending"),
    pytest.param(load_spectral_csv, "", id="spectral-empty"),
    pytest.param(load_spectral_csv, "E,re,im\n1,1\n", id="spectral-short-row"),
    pytest.param(load_spectral_csv, "E,re,im\n1,one,0\n", id="spectral-not-a-number"),
    pytest.param(load_spectral_csv, "E,re,im\n2,1,0\n1,0,0\n", id="spectral-descending"),
    pytest.param(load_observable_csv, "", id="observable-empty"),
    pytest.param(load_observable_csv, "1:0,0:0\n0:0\n", id="observable-short-row"),
    pytest.param(load_observable_csv, "E,re,im\n1:0,0:0,0:0\n", id="observable-not-a-number"),
    pytest.param(load_observable_csv, "1:0:0\n", id="observable-three-part-cell"),
])
def test_malformed_csv_raises_invalid_state(tmp_path, load, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(InvalidStateError, match="bad.csv"):
        load(path)
