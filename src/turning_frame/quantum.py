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
error and stays at rounding level on healthy grids.  The evolution is a
unimodular phase, so ``|psi(tau)| = |f|`` and a series takes the term from
``|f|`` once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import _kernels
from .errors import ConsistencyError, DomainError, ResolutionError
from .model import (
    ClassicalState,
    ExpectationSeries,
    FrameModel,
    MomentumState,
    _check_norm,
    _check_normalized,
    _norm,
    _require_finite_tau,
    _square,
)
from .classical import q_of_tau

IMAG_RESIDUAL_LIMIT = 1e-4
CROSS_CHECK_TOLERANCE = 1e-4
MIN_DERIVATIVE_NODES = 5


def phase_branch(tau: float, p: float, model: FrameModel) -> int:
    """Branch index 1..4 of the scale interval containing tau for momentum p.

    Boundaries belong to the earlier branch.  The kernel's own comparisons
    decide both boundaries, so the index names the formula it evaluates.
    """
    _require_positive_momentum(p)
    p2 = p * p
    if tau <= 0.0:
        return 1
    if not _kernels.before_exit(p2, tau, model.lam):
        return 4
    return 2 if _kernels.branch(p2, tau, model.lam)[0] >= 0.0 else 3


def _require_positive_momentum(p: float) -> None:
    if not p > 0.0:
        raise DomainError(f"momentum must be positive, got {p}")


def phase_theta(phi: float, p: float, model: FrameModel) -> float:
    """Accumulated phase as a function of the raw frame value phi.

    Linear before the potential region, Airy-type inside it; only defined
    up to the turning point of the given momentum component.
    """
    _require_positive_momentum(p)
    lam, p2 = model.lam, p * p
    if _kernels.branch(p2, phi, lam)[0] < 0.0:
        raise DomainError(
            f"phi={phi} lies beyond the turning point {p2 / lam} (forbidden region)"
        )
    return total_phase(phi, p, model)


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
    p_arr = np.array([float(p)])
    _, out = _kernels.phase_and_displacement(p_arr, float(tau), model.lam)
    return float(out[0])


def evolve(initial: MomentumState, tau: float, model: FrameModel) -> MomentumState:
    """Advance a state to scale tau by the exact pointwise phase law."""
    _require_finite_tau(tau)
    p = initial.grid.nodes
    start = _kernels.phase_profile(p, float(initial.tau), model.lam)
    dphi = _kernels.phase_profile(p, float(tau), model.lam) - start
    amps = _kernels.apply_phase(initial.amps, dphi, model.hbar)
    return MomentumState(grid=initial.grid, amps=amps, tau=float(tau))


def _derivative(values: np.ndarray, h: float) -> np.ndarray:
    if values.shape[0] < MIN_DERIVATIVE_NODES:
        raise ResolutionError("derivative stencils need at least 5 grid nodes")
    return _kernels.derivative(values, h)


def _boundary_term(modulus: np.ndarray, h: float, hbar: float) -> float:
    """Truncation term hbar sum |psi| d|psi|/dp h of i hbar <psi, dpsi/dp>.

    It depends on the modulus only, so it is the same for every state that
    differs by a pointwise unimodular phase.
    """
    return hbar * float(np.sum(modulus * _derivative(modulus, h))) * h


def _fd_position_mean(
    amps: np.ndarray, d: np.ndarray, h: float, hbar: float, boundary: float
) -> tuple[float, float]:
    """(mean, imaginary residual) of i hbar <psi, dpsi/dp> on the grid.

    ``d`` is the stencil derivative of ``amps``; the truncation term
    ``boundary`` is removed before the residual is reported.
    """
    raw = 1j * hbar * np.sum(np.conj(amps) * d) * h
    return float(raw.real), float(abs(raw.imag - boundary))


def _check_residual(residual: float, where: str) -> None:
    if not residual <= IMAG_RESIDUAL_LIMIT:
        raise ResolutionError(
            f"imaginary residual {residual:.3e} exceeds {IMAG_RESIDUAL_LIMIT}{where}"
        )


def _variance(d: np.ndarray, mean_q: float, h: float, hbar: float) -> float:
    """<q^2> - <q>^2 with <q^2> = hbar^2 sum |dpsi/dp|^2 h (symmetric form)."""
    mean_q2 = _square(hbar, "hbar") * float(np.sum(np.abs(d) ** 2) * h)
    var = mean_q2 - _square(mean_q, "mean position")
    if not var >= -1e-9:
        raise ConsistencyError(f"variance {var:.3e} is negative beyond tolerance")
    return max(var, 0.0)


def position_expectation_numeric(state: MomentumState, model: FrameModel) -> float:
    """Position expectation from finite differences of the evolved state."""
    _check_normalized(state)
    amps, h, hbar = state.amps, state.grid.h, model.hbar
    value, residual = _fd_position_mean(
        amps, _derivative(amps, h), h, hbar, _boundary_term(np.abs(amps), h, hbar)
    )
    _check_residual(residual, "; grid too coarse for the state's phase")
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


class _Reference(NamedTuple):
    """The tau-invariant part of every position statistic of one state."""

    anchor: float  # <q> of f(p), from i hbar <f, df/dp>
    density: np.ndarray  # |f|^2, the same at every tau
    boundary: float  # truncation term of |f|, the same at every tau


def _reference(initial: MomentumState, model: FrameModel) -> _Reference:
    f = _reference_amplitudes(initial, model)
    h, hbar = initial.grid.h, model.hbar
    modulus = np.abs(f)
    boundary = _boundary_term(modulus, h, hbar)
    anchor, residual = _fd_position_mean(f, _derivative(f, h), h, hbar, boundary)
    _check_residual(residual, " while extracting the position anchor")
    return _Reference(anchor, modulus**2, boundary)


def _analytic_mean(ref: _Reference, kernel: np.ndarray, h: float) -> float:
    return ref.anchor + float(np.sum(ref.density * kernel) * h)


def position_expectation_analytic(
    initial: MomentumState, tau: float, model: FrameModel
) -> float:
    """Position expectation from the displacement-kernel quadrature."""
    _check_normalized(initial)
    _require_finite_tau(tau)
    grid = initial.grid
    _, kernel = _kernels.phase_and_displacement(grid.nodes, float(tau), model.lam)
    return _analytic_mean(_reference(initial, model), kernel, grid.h)


def position_variance(state: MomentumState, model: FrameModel) -> float:
    """Position variance via the symmetric form hbar^2 sum |dpsi/dp|^2 h."""
    _check_normalized(state)
    amps, h = state.amps, state.grid.h
    d = _derivative(amps, h)
    mean_q, _ = _fd_position_mean(amps, d, h, model.hbar, 0.0)
    return _variance(d, mean_q, h, model.hbar)


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
    :class:`ConsistencyError` naming the offending tau.  The tau-invariant
    work is done once: the anchor, the density |f|^2 and the truncation
    term, which depends on |psi| = |f| only because the evolution is a
    unimodular phase.  Each sample then runs one derivative stencil, which
    serves both the numeric route and the variance, so every value equals
    that of the single-tau functions bit for bit.  Samples are evaluated
    in order and summed in fixed order.
    """
    taus = np.asarray(taus, dtype=np.float64)
    if taus.ndim != 1 or taus.shape[0] == 0:
        raise DomainError("need a non-empty 1-d array of tau samples")
    _require_finite_tau(taus)
    if np.any(np.diff(taus) <= 0.0):
        raise DomainError("tau samples must be strictly increasing")
    _check_normalized(initial)
    ref = _reference(initial, model)
    p, h, hbar = initial.grid.nodes, initial.grid.h, model.hbar
    start = _kernels.phase_profile(p, float(initial.tau), model.lam)

    q_mean = np.empty_like(taus)
    norms = np.empty_like(taus)
    q_var = np.empty_like(taus) if with_variance else None
    for k, tau in enumerate(taus):
        phase, kernel = _kernels.phase_and_displacement(p, float(tau), model.lam)
        q_mean[k] = _analytic_mean(ref, kernel, h)
        amps = _kernels.apply_phase(initial.amps, phase - start, hbar)
        norms[k] = _norm(amps, h)
        _check_norm(norms[k])
        cross_check = bool(cross_check_stride) and k % cross_check_stride == 0
        if not (cross_check or with_variance):
            continue
        d = _derivative(amps, h)
        numeric, residual = _fd_position_mean(amps, d, h, hbar, ref.boundary)
        if cross_check:
            _check_residual(residual, f" at tau={tau}; grid too coarse for its phase")
            if not abs(numeric - q_mean[k]) <= CROSS_CHECK_TOLERANCE:
                raise ConsistencyError(
                    f"analytic/numeric expectation mismatch "
                    f"{abs(numeric - q_mean[k]):.3e} at tau={tau}"
                )
        if with_variance:
            q_var[k] = _variance(d, numeric, h, hbar)

    q_classical = None
    if classical is not None:
        q_classical = q_of_tau(taus, classical, model)
    return ExpectationSeries(
        taus=taus, q_mean=q_mean, norm=norms, q_var=q_var, q_classical=q_classical
    )
