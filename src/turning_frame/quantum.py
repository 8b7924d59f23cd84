"""Exact phase evolution through the turning point and position statistics.

Evolution in the momentum representation is a pure pointwise phase:
``psi(tau, p) = f(p) exp(-i Phi(tau, p) / hbar)`` with the four-branch
accumulated phase Phi carried by :mod:`turning_frame._kernels`.  Position
expectations are computed by two deliberately independent routes:

* analytic: quadrature of the per-momentum displacement kernel D(tau, p)
  against the initial density |f|^2, plus the anchor <q> of f;
* numeric: ``i hbar <psi, d psi/dp>`` with fourth-order finite
  differences on the evolved state.

The pair forms a self-validating oracle; they share nothing below the
state container except the anchor definition.  :func:`expectation_series`
runs both routes at every tau and checks one against the other, takes the
variance from the numeric route's stencil, and carries the anchor, which
the shift fit subtracts from its intercept.  It builds one kernel
workspace and reuses it at every tau, with the same expressions as the
single-tau functions.

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
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import ConsistencyError, DomainError, ResolutionError
from .model import (
    ExpectationSeries,
    FrameModel,
    MomentumState,
    _check_norm,
    _evenly_spaced,
    _finite_floats,
    _floats,
    _integral,
    _norm,
    _require_finite,
    _require_increasing,
    _require_positive,
    _square,
)

IMAG_RESIDUAL_LIMIT = 1e-4
CROSS_CHECK_TOLERANCE = 1e-4


def phase_branch(tau: float, p: float, model: FrameModel) -> int:
    """Branch index 1..4 of the scale interval containing tau for momentum p.

    Boundaries belong to the earlier branch.  The kernel's own comparisons
    decide both boundaries, so the index names the formula it evaluates.
    """
    _require_positive(p, "momentum")
    _require_finite(tau, "tau")
    p2 = p * p
    if tau <= 0.0:
        return 1
    if not _kernels.before_exit(p2, tau, model.lam):
        return 4
    return 2 if _kernels.branch(p2, tau, model.lam)[0] >= 0.0 else 3


def phase_theta(phi: float, p: float, model: FrameModel) -> float:
    """Accumulated phase as a function of the raw frame value phi.

    Linear before the potential region, Airy-type inside it; only defined
    up to the turning point of the given momentum component.
    """
    _require_positive(p, "momentum")
    _require_finite(phi, "phi")
    lam, p2 = model.lam, p * p
    if _kernels.branch(p2, phi, lam)[0] < 0.0:
        raise DomainError(
            f"phi={phi} lies beyond the turning point {p2 / lam} (forbidden region)"
        )
    return total_phase(phi, p, model)


def total_phase(tau: float, p: float, model: FrameModel) -> float:
    """Accumulated evolution phase Phi(tau, p) along the monotonic scale."""
    _require_positive(p, "momentum")
    _require_finite(tau, "tau")
    out = _kernels.phase_profile(np.array([float(p)]), float(tau), model.lam)
    return float(out[0])


def displacement_kernel(tau: float, p: float, model: FrameModel) -> float:
    """Per-momentum displacement D(tau, p) = dPhi/dp.

    Position expectations follow as q0 + integral of |f|^2 D.
    """
    _require_positive(p, "momentum")
    _require_finite(tau, "tau")
    p_arr = np.array([float(p)])
    _, out = _kernels.phase_and_displacement(p_arr, float(tau), model.lam)
    return float(out[0])


def evolve(initial: MomentumState, tau: float, model: FrameModel) -> MomentumState:
    """Advance a state to scale tau by the exact pointwise phase law."""
    _require_finite(tau, "tau")
    amps = _kernels.advance(initial.grid.nodes, initial.amps, float(initial.tau),
                            float(tau), model.lam, model.hbar)
    return MomentumState(grid=initial.grid, amps=amps, tau=float(tau))


def _boundary_term(modulus: np.ndarray, h: float, hbar: float) -> float:
    """Truncation term hbar sum |psi| d|psi|/dp h of i hbar <psi, dpsi/dp>.

    It depends on the modulus only, so it is the same for every state that
    differs by a pointwise unimodular phase.
    """
    return float(_integral(modulus * _kernels.derivative(modulus, h), h, hbar))


def _fd_position_mean(
    amps: np.ndarray, d: np.ndarray, h: float, hbar: float, boundary: float,
    out=None,
) -> tuple[float, float]:
    """(mean, imaginary residual) of i hbar <psi, dpsi/dp> on the grid.

    ``d`` is the stencil derivative of ``amps``; the truncation term
    ``boundary`` is removed before the residual is reported.  ``out``
    receives the integrand.
    """
    integrand = np.multiply(np.conj(amps, out=out), d, out=out)
    raw = _integral(integrand, h, 1j * hbar)
    return float(raw.real), float(abs(raw.imag - boundary))


def _check_residual(residual: float, where: str, *args) -> None:
    """Refuse a residual above the limit; ``where.format(*args)`` ends the
    message, which is built only then."""
    if not residual <= IMAG_RESIDUAL_LIMIT:
        raise ResolutionError(f"imaginary residual {residual:.3e} exceeds "
                              f"{IMAG_RESIDUAL_LIMIT}{where.format(*args)}")


def _variance(d: np.ndarray, mean_q: float, h: float, hbar: float,
              out=None) -> float:
    """<q^2> - <q>^2 with <q^2> = hbar^2 sum |dpsi/dp|^2 h (symmetric form).

    ``out`` receives |dpsi/dp|^2.
    """
    square = np.square(np.abs(d, out=out), out=out)
    mean_q2 = _square(hbar, "hbar") * float(_integral(square, h))
    var = mean_q2 - _square(mean_q, "mean position")
    if not var >= -1e-9:
        raise ConsistencyError(f"variance {var:.3e} is negative beyond tolerance")
    return max(var, 0.0)


def position_expectation_numeric(state: MomentumState, model: FrameModel) -> float:
    """Position expectation from finite differences of the evolved state."""
    amps, h, hbar = state.amps, state.grid.h, model.hbar
    value, residual = _fd_position_mean(amps, _kernels.derivative(amps, h), h, hbar,
                                        _boundary_term(np.abs(amps), h, hbar))
    _check_residual(residual, "; grid too coarse for the state's phase")
    return value


class _Reference(NamedTuple):
    """The tau-invariant part of every position statistic of one state."""

    anchor: float  # <q> of f(p), from i hbar <f, df/dp>
    density: np.ndarray  # |f|^2, the same at every tau
    boundary: float  # truncation term of |f|, the same at every tau


def _reference(initial: MomentumState, model: FrameModel) -> _Reference:
    """The statistics of f(p), the state carried back from tau <= 0 to 0."""
    if initial.tau > 0.0:
        raise DomainError(
            f"initial state must be referenced at tau <= 0, got {initial.tau}"
        )
    h, hbar = initial.grid.h, model.hbar
    f = initial.amps
    if initial.tau != 0.0:
        f = _kernels.advance(initial.grid.nodes, f, initial.tau, 0.0, model.lam, hbar)
    modulus = np.abs(f)
    boundary = _boundary_term(modulus, h, hbar)
    anchor, residual = _fd_position_mean(f, _kernels.derivative(f, h), h, hbar, boundary)
    _check_residual(residual, " while extracting the position anchor")
    return _Reference(anchor, modulus**2, boundary)


def _analytic_mean(ref: _Reference, kernel: np.ndarray, h: float,
                   out=None) -> float:
    """anchor + sum |f|^2 D h; ``out`` receives the integrand."""
    integrand = np.multiply(ref.density, kernel, out=out)
    return ref.anchor + float(_integral(integrand, h))


def position_expectation_analytic(
    initial: MomentumState, tau: float, model: FrameModel
) -> float:
    """Position expectation from the displacement-kernel quadrature."""
    _require_finite(tau, "tau")
    grid = initial.grid
    _, kernel = _kernels.phase_and_displacement(grid.nodes, float(tau), model.lam)
    return _analytic_mean(_reference(initial, model), kernel, grid.h)


def position_variance(state: MomentumState, model: FrameModel) -> float:
    """Position variance via the symmetric form hbar^2 sum |dpsi/dp|^2 h."""
    amps, h = state.amps, state.grid.h
    d = _kernels.derivative(amps, h)
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
    q = _floats(q_grid, "q_grid")
    if q.ndim != 1 or q.shape[0] < 2:
        raise DomainError("q_grid must be a 1-d array with at least 2 nodes")
    if not _evenly_spaced(q):
        raise DomainError("q_grid must be finite and evenly spaced")
    _require_increasing(q, "q_grid")
    raw = _kernels.position_transform(
        state.grid.nodes, np.asarray(state.amps), q, model.hbar
    )
    amps = raw * state.grid.h / np.sqrt(2.0 * np.pi * model.hbar)
    norm = float(_integral(np.abs(amps) ** 2, q[1] - q[0]))
    return PositionProfile(
        q=q, amps=amps, norm=norm, coverage_ok=bool(abs(norm - 1.0) <= 1e-3)
    )


def expectation_series(initial: MomentumState, taus,
                       model: FrameModel) -> ExpectationSeries:
    """Position mean and variance over a strictly increasing list of tau.

    Each sample is computed by the analytic route and cross-checked
    against the numeric route; disagreement beyond 1e-4 raises
    :class:`ConsistencyError` naming the offending tau and the grid's n,
    or :class:`DomainError` on a grid reaching p <= 0.
    The tau-invariant work is done once: the anchor, the density |f|^2 and
    the truncation term, which depends on |psi| = |f| only because the
    evolution is a unimodular phase.  One :func:`_kernels.workspace` holds
    the kernel's tau-invariant arrays and every array a sample overwrites.
    Each sample then runs one derivative stencil, which serves both the
    numeric route and the variance, and writes into the workspace through
    the same expressions as the single-tau functions, which allocate
    instead, so every value equals theirs bit for bit.  Samples are
    evaluated in order and summed in fixed order.
    """
    taus = _finite_floats(taus, "tau samples")
    if taus.ndim != 1 or taus.shape[0] == 0:
        raise DomainError("need a non-empty 1-d array of tau samples")
    _require_increasing(taus, "tau samples")
    ref = _reference(initial, model)
    p, h, hbar, lam = initial.grid.nodes, initial.grid.h, model.hbar, model.lam
    start = _kernels.phase_profile(p, float(initial.tau), lam)
    ws = _kernels.workspace(p, lam)

    q_mean = np.empty_like(taus)
    norms = np.empty_like(taus)
    q_var = np.empty_like(taus)
    for k, tau in enumerate(taus):
        phase, kernel = _kernels.phase_and_displacement(p, float(tau), lam, ws)
        q_mean[k] = _analytic_mean(ref, kernel, h, ws.real)
        phase -= start
        amps = _kernels.apply_phase(initial.amps, phase, hbar, ws)
        norms[k] = _norm(amps, h, ws.real)
        _check_norm(norms[k])
        d = _kernels.derivative(amps, h, ws=ws)
        numeric, residual = _fd_position_mean(amps, d, h, hbar, ref.boundary, ws.work)
        _check_residual(residual, " at tau={}; grid too coarse for its phase", tau)
        gap = abs(numeric - q_mean[k])
        if not gap <= CROSS_CHECK_TOLERANCE:
            message = (f"analytic/numeric expectation mismatch {gap:.3e} "
                       f"at tau={tau} on the n={p.shape[0]} grid")
            if initial.grid.p_min <= 0.0:
                raise DomainError(
                    f"{message}: the grid reaches p <= 0, and the phase law jumps "
                    f"at tau = 0+ for p < 0, so a finer grid may not help")
            raise ConsistencyError(message)
        q_var[k] = _variance(d, numeric, h, hbar, ws.real)
    return ExpectationSeries(taus, q_mean, norms, q_var, ref.anchor)
