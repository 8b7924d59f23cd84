"""Exact phase evolution through the turning point and position statistics.

Evolution in the momentum representation is a pure pointwise phase:
``psi(tau, p) = f(p) exp(-i Phi(tau, p) / hbar)`` with the four-branch
accumulated phase Phi carried by :mod:`turning_frame._kernels`.  Position
expectations are computed by two deliberately independent routes:

* analytic: quadrature of the per-momentum displacement kernel D(tau, p)
  against the initial density |f|^2, plus the phase-derived anchor q0;
* numeric: ``i hbar <psi, d psi/dp>`` with fourth-order finite
  differences on the evolved state.

The pair forms a self-validating oracle; they share nothing below the
state container except the anchor definition.

For states truncated at the grid edge, the inner product
``i hbar <psi, d psi/dp>`` acquires an exact imaginary boundary term
``i hbar [|psi|^2]/2``.  The same difference operator applied to the
modulus profile reproduces that term discretely, so the imaginary
residual reported after subtracting it measures genuine phase-resolution
error and stays at rounding level on healthy grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .errors import ConsistencyError, DomainError, ResolutionError
from .model import (
    ClassicalState,
    ExpectationSeries,
    FrameModel,
    MomentumState,
    _check_normalized,
    _require_finite_tau,
)
from .classical import q_of_tau

IMAG_RESIDUAL_LIMIT = 1e-4
CROSS_CHECK_TOLERANCE = 1e-4
MIN_DERIVATIVE_NODES = 5


def phase_branch(tau: float, p: float, model: FrameModel) -> int:
    """Branch index 1..4 of the scale interval containing tau for momentum p.

    Boundaries belong to the earlier branch.
    """
    _require_positive_momentum(p)
    edge = p * p / model.lam
    if tau <= 0.0:
        return 1
    if tau <= edge:
        return 2
    if tau <= 2.0 * edge:
        return 3
    return 4


def _require_positive_momentum(p: float) -> None:
    if not p > 0.0:
        raise DomainError(f"momentum must be positive, got {p}")


def phase_theta(phi: float, p: float, model: FrameModel) -> float:
    """Accumulated phase as a function of the raw frame value phi.

    Linear before the potential region, Airy-type inside it; only defined
    up to the turning point of the given momentum component.
    """
    _require_positive_momentum(p)
    lam = model.lam
    if phi <= 0.0:
        return p * phi
    p2 = p * p
    u = p2 - lam * phi
    if u < -_kernels._SNAP * p2:
        raise DomainError(
            f"phi={phi} lies beyond the turning point {p2 / lam} (forbidden region)"
        )
    u = 0.0 if abs(u) <= _kernels._SNAP * p2 else u
    return (2.0 / 3.0) * (p2 * p - u * np.sqrt(u)) / lam


def total_phase(tau: float, p: float, model: FrameModel) -> float:
    """Accumulated evolution phase Phi(tau, p) along the monotonic scale."""
    _require_positive_momentum(p)
    _require_finite_tau(tau)
    out = _kernels.phase_profile(np.array([float(p)]), float(tau), model.lam)
    return float(out[0])


def displacement_kernel(tau: float, p: float, model: FrameModel) -> float:
    """Per-momentum displacement D(tau, p) = dPhi/dp.

    Position expectations follow as q0 + integral of |f|^2 D.
    """
    _require_positive_momentum(p)
    _require_finite_tau(tau)
    out = _kernels.displacement_profile(np.array([float(p)]), float(tau), model.lam)
    return float(out[0])


def evolve(initial: MomentumState, tau: float, model: FrameModel) -> MomentumState:
    """Advance a state to scale tau by the exact pointwise phase law."""
    _require_finite_tau(tau)
    p = initial.grid.nodes
    dphi = (
        _kernels.phase_profile(p, float(tau), model.lam)
        - _kernels.phase_profile(p, float(initial.tau), model.lam)
    )
    amps = _kernels.apply_phase(np.asarray(initial.amps), dphi, model.hbar)
    return MomentumState(grid=initial.grid, amps=amps, tau=float(tau))


def _fd_position_mean(amps: np.ndarray, h: float, hbar: float) -> tuple[float, float]:
    """(mean, imaginary residual) of i hbar <psi, dpsi/dp> on the grid.

    The exact truncation boundary term is removed via the modulus-profile
    route before the residual is reported.
    """
    if amps.shape[0] < MIN_DERIVATIVE_NODES:
        raise ResolutionError("derivative stencils need at least 5 grid nodes")
    d = _kernels.derivative(np.asarray(amps), h)
    raw = 1j * hbar * np.sum(np.conj(amps) * d) * h
    mod = np.abs(amps).astype(np.complex128)
    dmod = _kernels.derivative(mod, h)
    boundary = hbar * float(np.real(np.sum(mod * dmod))) * h
    return float(raw.real), float(abs(raw.imag - boundary))


def position_expectation_numeric(state: MomentumState, model: FrameModel) -> float:
    """Position expectation from finite differences of the evolved state."""
    _check_normalized(state)
    value, residual = _fd_position_mean(state.amps, state.grid.h, model.hbar)
    if not residual <= IMAG_RESIDUAL_LIMIT:
        raise ResolutionError(
            f"imaginary residual {residual:.3e} exceeds {IMAG_RESIDUAL_LIMIT}; "
            "grid too coarse for the state's phase"
        )
    return value


def _reference_amplitudes(initial: MomentumState, model: FrameModel) -> np.ndarray:
    """Recover f(p) from a state referenced at tau <= 0 (pre-potential)."""
    if initial.tau > 0.0:
        raise DomainError(
            f"initial state must be referenced at tau <= 0, got {initial.tau}"
        )
    if initial.tau == 0.0:
        return np.asarray(initial.amps)
    p = initial.grid.nodes
    return _kernels.apply_phase(
        np.asarray(initial.amps), -p * initial.tau, model.hbar
    )


def position_expectation_analytic(
    initial: MomentumState, tau: float, model: FrameModel
) -> float:
    """Position expectation from the displacement-kernel quadrature."""
    _check_normalized(initial)
    _require_finite_tau(tau)
    f = _reference_amplitudes(initial, model)
    anchor, residual = _fd_position_mean(f, initial.grid.h, model.hbar)
    if not residual <= IMAG_RESIDUAL_LIMIT:
        raise ResolutionError(
            f"imaginary residual {residual:.3e} exceeds {IMAG_RESIDUAL_LIMIT} "
            "while extracting the position anchor"
        )
    dens = np.abs(f) ** 2
    kernel = _kernels.displacement_profile(initial.grid.nodes, float(tau), model.lam)
    return anchor + float(np.sum(dens * kernel) * initial.grid.h)


def position_variance(state: MomentumState, model: FrameModel) -> float:
    """Position variance via the symmetric form hbar^2 sum |dpsi/dp|^2 h."""
    _check_normalized(state)
    d = _kernels.derivative(np.asarray(state.amps), state.grid.h)
    mean_q2 = model.hbar**2 * float(np.sum(np.abs(d) ** 2) * state.grid.h)
    mean_q, _ = _fd_position_mean(state.amps, state.grid.h, model.hbar)
    var = mean_q2 - mean_q**2
    if var < -1e-9:
        raise ConsistencyError(f"variance {var:.3e} is negative beyond tolerance")
    return max(var, 0.0)


@dataclass(frozen=True)
class PositionProfile:
    """Position-representation snapshot with its quadrature norm."""

    q: np.ndarray
    amps: np.ndarray
    norm: float
    coverage_ok: bool


def to_position_representation(
    state: MomentumState, q_grid: np.ndarray, model: FrameModel
) -> PositionProfile:
    """Fourier quadrature of the state onto a uniform position grid.

    ``coverage_ok`` is cleared when the squared norm over the window
    deviates from 1 by more than 1e-3 (insufficient coverage).
    """
    _check_normalized(state)
    q = np.asarray(q_grid, dtype=np.float64)
    if q.ndim != 1 or q.shape[0] < 2:
        raise DomainError("q_grid must be a 1-d array with at least 2 nodes")
    dq = np.diff(q)
    if np.max(np.abs(dq - dq[0])) > 1e-9 * max(abs(q[0]), abs(q[-1]), 1.0):
        raise DomainError("q_grid must be uniformly spaced")
    raw = _kernels.position_transform(
        state.grid.nodes, np.asarray(state.amps), q, model.hbar
    )
    amps = raw * state.grid.h / np.sqrt(2.0 * np.pi * model.hbar)
    norm = float(np.sum(np.abs(amps) ** 2) * dq[0])
    return PositionProfile(
        q=q, amps=amps, norm=norm, coverage_ok=bool(abs(norm - 1.0) <= 1e-3)
    )


def expectation_series(
    initial: MomentumState,
    taus,
    model: FrameModel,
    with_variance: bool = False,
    classical: Optional[ClassicalState] = None,
    cross_check_stride: int = 1,
) -> ExpectationSeries:
    """Position statistics over a strictly increasing list of tau samples.

    Each sample is computed by the analytic route and cross-checked
    against the numeric route every ``cross_check_stride`` samples
    (0 disables checking); disagreement beyond 1e-4 raises
    :class:`ConsistencyError` naming the offending tau.  Samples are
    independent, evaluated in order, and summed in fixed order.
    """
    taus = np.asarray(taus, dtype=np.float64)
    if taus.ndim != 1 or taus.shape[0] == 0:
        raise DomainError("need a non-empty 1-d array of tau samples")
    if np.any(np.diff(taus) <= 0.0):
        raise DomainError("tau samples must be strictly increasing")
    _check_normalized(initial)

    q_mean = np.empty_like(taus)
    norms = np.empty_like(taus)
    q_var = np.empty_like(taus) if with_variance else None
    for k, tau in enumerate(taus):
        q_mean[k] = position_expectation_analytic(initial, tau, model)
        evolved = evolve(initial, tau, model)
        norms[k] = evolved.norm()
        if cross_check_stride and k % cross_check_stride == 0:
            numeric = position_expectation_numeric(evolved, model)
            if not abs(numeric - q_mean[k]) <= CROSS_CHECK_TOLERANCE:
                raise ConsistencyError(
                    f"analytic/numeric expectation mismatch "
                    f"{abs(numeric - q_mean[k]):.3e} at tau={tau}"
                )
        if with_variance:
            q_var[k] = position_variance(evolved, model)

    q_classical = None
    if classical is not None:
        q_classical = q_of_tau(taus, classical, model)
    return ExpectationSeries(
        taus=taus, q_mean=q_mean, norm=norms, q_var=q_var, q_classical=q_classical
    )
