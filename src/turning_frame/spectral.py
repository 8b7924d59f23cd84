"""Evolution in the energy representation for general system Hamiltonians.

The phase law survives arbitrary Hamiltonians once states are expanded in
energy eigenstates: each coefficient picks up the same accumulated phase
with the eigenvalue substituted for the momentum.  Continuous spectra are
handled by the caller as quadrature nodes with weights folded into the
coefficients.  Observables are supplied as Hermitian matrices in the
eigenbasis; no conjugate "time operator" is exposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _csv, _kernels
from .errors import DomainError, InvalidStateError
from .model import (FrameModel, _finite_floats, _floats, _require_finite,
                    _require_increasing)

# Sum |c|^2 over a discrete spectrum is exact up to rounding, so it is held
# to 1e-9; model.NORM_TOLERANCE (1e-6) bounds a grid quadrature of |f|^2
# and would loosen this check 1000-fold.
_NORM_TOL = 1e-9
_HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class SpectralState:
    """Normalized coefficients over a discrete positive energy spectrum."""

    energies: np.ndarray
    coeffs: np.ndarray
    tau: float = 0.0

    def __post_init__(self):
        _require_finite(self.tau, "tau")
        energies = _finite_floats(self.energies, "energies")
        coeffs = _floats(self.coeffs, "coeffs", np.complex128)
        if energies.ndim != 1 or energies.shape != coeffs.shape:
            raise InvalidStateError("energies and coeffs must be matching 1-d arrays")
        _require_increasing(energies, "energies")
        if not np.all(energies > 0.0):
            raise DomainError("all energies must be positive")
        norm2 = float(np.sum(np.abs(coeffs) ** 2))
        if not abs(norm2 - 1.0) <= _NORM_TOL:
            raise InvalidStateError(
                f"coefficient norm^2 {norm2:.12f} deviates from 1 beyond {_NORM_TOL}"
            )
        energies.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "coeffs", coeffs)


@dataclass(frozen=True)
class ObservableMatrix:
    """Hermitian matrix in the energy eigenbasis."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _floats(self.matrix, "matrix", np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise InvalidStateError("observable must be a non-empty square matrix")
        if not (np.all(np.isfinite(m))
                and np.max(np.abs(m - m.conj().T)) <= _HERMITICITY_TOL):
            raise InvalidStateError("observable matrix is not finite and Hermitian")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def propagate(state: SpectralState, tau: float, model: FrameModel) -> SpectralState:
    """Advance spectral coefficients by the turning-point phase law."""
    _require_finite(tau, "tau")
    coeffs = _kernels.advance(state.energies, state.coeffs, float(state.tau),
                              float(tau), model.lam, model.hbar)
    return SpectralState(energies=state.energies, coeffs=coeffs, tau=float(tau))


def expectation(state: SpectralState, obs: ObservableMatrix) -> float:
    """Real expectation value <c, A c> of a Hermitian observable."""
    if obs.dim != state.energies.shape[0]:
        raise DomainError(
            f"observable dimension {obs.dim} does not match spectrum "
            f"length {state.energies.shape[0]}"
        )
    value = complex(np.vdot(state.coeffs, obs.matrix @ state.coeffs))
    if abs(value.imag) > 1e-10:
        raise InvalidStateError(
            f"expectation imaginary residual {value.imag:.3e} exceeds 1e-10"
        )
    return float(value.real)


def save_spectral_csv(state: SpectralState, path) -> None:
    """Write a spectral state as ``E,re,im`` rows."""
    _csv.write(path, ["E", "re", "im"],
               [state.energies, state.coeffs.real, state.coeffs.imag])


def load_spectral_csv(path, tau: float = 0.0) -> SpectralState:
    """Read an ``E,re,im`` file back into a spectral state."""
    energies, re, im = _csv.read(path, ["E", "re", "im"])
    _require_increasing(energies, f"{path}: E", InvalidStateError)
    coeffs = np.column_stack([re, im]).view(np.complex128).ravel()
    return SpectralState(energies=energies, coeffs=coeffs, tau=tau)


def save_observable_csv(obs: ObservableMatrix, path) -> None:
    """Write an observable as dense rows of ``re:im`` cell pairs."""
    _csv.write_matrix(path, obs.matrix)


def load_observable_csv(path) -> ObservableMatrix:
    """Read a dense ``re:im`` matrix file back into an observable."""
    return ObservableMatrix(matrix=_csv.read_matrix(path))
