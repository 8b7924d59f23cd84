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
state container except the anchor definition.  ``_statistics`` is the one
numeric route, for the anchor, every single state and every tau of
:func:`expectation_series`, which runs both routes, checks one against
the other, takes the variance from the numeric route's stencil, and
carries the anchor, which the shift fit subtracts from its intercept.  A
series evolves f, the state at tau = 0, and stencils it only on the nodes
not yet past their exit; the stencil rows past it enter ``_statistics``
as the free-flight range sums of ``_kernels.free_flight``, the same
fourth-order stencil of the evolved state regrouped into tau-invariant
sums, so the numeric route still never reads D.

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

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import ConsistencyError, DomainError, ResolutionError
from .model import (
    ExpectationSeries,
    FrameModel,
    MomentumGrid,
    MomentumState,
    _abs2,
    _check_norm,
    _evenly_spaced,
    _finite_floats,
    _frozen,
    _integral,
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
    _square(p, "momentum")
    p2 = p * p  # the kernel's bits; _square's p**2 goes through libm's pow
    if tau <= 0.0:
        return 1
    if not _kernels.before_exit(p2, tau, model.lam):
        return 4
    return 2 if _kernels.branch(p2, tau, model.lam) >= 0.0 else 3


def phase_theta(phi: float, p: float, model: FrameModel) -> float:
    """Accumulated phase as a function of the raw frame value phi.

    Linear before the potential region, Airy-type inside it; only defined
    up to the turning point of the given momentum component.
    """
    _require_positive(p, "momentum")
    _require_finite(phi, "phi")
    _square(p, "momentum")
    lam, p2 = model.lam, p * p
    if _kernels.branch(p2, phi, lam) < 0.0:
        raise DomainError(
            f"phi={phi} lies beyond the turning point {p2 / lam} (forbidden region)"
        )
    return total_phase(phi, p, model)


def total_phase(tau: float, p: float, model: FrameModel) -> float:
    """Accumulated evolution phase Phi(tau, p) along the monotonic scale."""
    _require_positive(p, "momentum")
    _require_finite(tau, "tau")
    _square(p, "momentum")
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        out = _kernels.phase_profile(np.array([float(p)]), float(tau), model.lam)
    _require_finite(out[0], f"phase at tau={tau}, momentum={p}")
    return float(out[0])


def displacement_kernel(tau: float, p: float, model: FrameModel) -> float:
    """Per-momentum displacement D(tau, p) = dPhi/dp.

    Position expectations follow as q0 + integral of |f|^2 D.
    """
    _require_positive(p, "momentum")
    _require_finite(tau, "tau")
    _square(p, "momentum")
    with np.errstate(over="ignore", invalid="ignore"):  # Phi may overflow, unread
        _, out = _kernels.phase_and_displacement(np.array([float(p)]), float(tau),
                                                 model.lam)
    _require_finite(out[0], f"displacement at tau={tau}, momentum={p}")
    return float(out[0])


def evolve(initial: MomentumState, tau: float, model: FrameModel) -> MomentumState:
    """Advance a state to scale tau by the exact pointwise phase law."""
    _require_finite(tau, "tau")
    grid = initial.grid
    amps = _kernels.advance(grid.nodes, initial.amps, float(initial.tau), float(tau),
                            model.lam, model.hbar)
    return MomentumState(grid=grid, amps=amps, tau=float(tau))


def _boundary_term(modulus: np.ndarray, h: float, hbar: float) -> float:
    """Truncation term hbar sum |psi| d|psi|/dp h of i hbar <psi, dpsi/dp>.

    It depends on the modulus only, so it is the same for every state that
    differs by a pointwise unimodular phase.
    """
    d = _kernels.derivative(modulus.astype(np.complex128), h).real
    return float(_integral(modulus * d, h, hbar))


# the free part of a state given on every node: no dropped row, and sums of
# -0.0, which add nothing to a sum, not even to the sign of a zero
_WHOLE = (0, -0.0, complex(-0.0, -0.0))


def _statistics(
    amps: np.ndarray, h: float, hbar: float, boundary: float, stencil=None, work=None,
    free=_WHOLE,
) -> tuple[float, float, float, np.ndarray]:
    """(norm, mean, imaginary residual, stencil d) of i hbar <psi, dpsi/dp>.

    ``amps`` is psi on every node of a state.  A series sample passes psi on
    its tail [e:n) only, and in ``free`` the number of one-sided rows at the
    head of the tail's stencil to drop (2 when e > 0), which are then not
    computed, and the sums of |psi|^2 and conj(psi) d over every other row,
    from ``_kernels.free_flight``; d is then the tail's rows, or None when
    the tail is empty, every node being past its exit.  d goes to
    ``stencil``; the norm's squares, the stencil's 8 v and conj(psi) d go in
    turn to ``work``; fresh arrays stand in for either when not given.  The
    truncation term ``boundary`` is removed from the residual.  Each caller
    checks.  The amplitudes come from a checked state, whose squares cannot
    overflow, so the norm needs no ``errstate`` of ``_norm``.
    """
    skip, norm2, mean = free
    if amps.shape[0]:
        psi, w = amps[skip:], None if work is None else work[skip:]
        norm = math.sqrt(_integral(_abs2(psi, None if w is None else w.view(np.float64)),
                                   h, free=norm2))
        d = _kernels.derivative(amps, h, out=stencil, work=work, _skip=skip)[skip:]
        integrand = np.multiply(np.conj(psi, out=w), d, out=w)
    else:  # a series sample with every node past its exit: no node, no row
        norm, d, integrand = math.sqrt(_integral(None, h, free=norm2)), None, None
    raw = _integral(integrand, h, 1j * hbar, mean)
    return norm, float(raw.real), float(abs(raw.imag - boundary)), d


def _check_residual(residual: float, where: str, *args) -> None:
    """Refuse a residual above the limit; ``where.format(*args)`` ends the
    message, which is built only then."""
    if not residual <= IMAG_RESIDUAL_LIMIT:
        raise ResolutionError(f"imaginary residual {residual:.3e} exceeds "
                              f"{IMAG_RESIDUAL_LIMIT}{where.format(*args)}")


def _variance(d: np.ndarray | None, mean_q: float, h: float, hbar2: float,
              out=None, free=-0.0) -> float:
    """<q^2> - <q>^2 with <q^2> = hbar^2 sum |dpsi/dp|^2 h (symmetric form).

    ``hbar2`` is ``_square(hbar, "hbar")``, checked once by the caller.  The
    sum runs over ``_abs2(d, out)``, plus the sum ``free`` over a series
    sample's other rows; d is None for a sample with every node past its
    exit.
    """
    mean_q2 = hbar2 * float(_integral(_abs2(d, out), h, free=free))
    var = mean_q2 - _square(mean_q, "mean position")
    if not var >= -1e-9:
        raise ConsistencyError(f"variance {var:.3e} is negative beyond tolerance")
    return max(var, 0.0)


def position_expectation_numeric(state: MomentumState, model: FrameModel) -> float:
    """Position expectation from finite differences of the evolved state."""
    amps, h, hbar = state.amps, state.grid.h, model.hbar
    _, value, residual, _ = _statistics(amps, h, hbar,
                                        _boundary_term(np.abs(amps), h, hbar))
    _check_residual(residual, "; grid too coarse for the state's phase")
    return value


class _Reference(NamedTuple):
    """The tau-invariant part of every position statistic of one state."""

    amps: np.ndarray  # f(p), the amplitudes at tau = 0
    anchor: float  # <q> of f(p), from i hbar <f, df/dp>
    density: np.ndarray  # |f|^2, the same at every tau
    boundary: float  # truncation term of |f|, the same at every tau


def _reference(initial: MomentumState, model: FrameModel) -> _Reference:
    """f(p), the state carried from tau <= 0 to 0, and its statistics."""
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
    _, anchor, residual, _ = _statistics(f, h, hbar, boundary)
    _check_residual(residual, " while extracting the position anchor")
    return _Reference(f, anchor, modulus**2, boundary)


def _analytic_mean(ref: _Reference, kernel: np.ndarray, h: float) -> float:
    """anchor + sum |f|^2 D h; the integrand overwrites ``kernel``."""
    integrand = np.multiply(ref.density, kernel, out=kernel)
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
    _, mean_q, _, d = _statistics(amps, h, model.hbar, 0.0)
    return _variance(d, mean_q, h, _square(model.hbar, "hbar"))


@dataclass(frozen=True)
class PositionProfile:
    """Position-representation snapshot with its quadrature norm."""

    q: np.ndarray
    amps: np.ndarray
    norm: float
    coverage_ok: bool


class PositionPlan(NamedTuple):
    """A checked uniform q grid and the chirp-z plan onto it from one
    momentum grid at one hbar: the work every snapshot on them shares."""

    grid: MomentumGrid
    q: np.ndarray
    hbar: float
    chirp: _kernels.ChirpPlan


def position_plan(grid: MomentumGrid, q_grid, model: FrameModel) -> PositionPlan:
    """Check ``q_grid`` and plan the transform of states on ``grid`` onto a
    read-only copy of it, which a later write to ``q_grid`` does not reach."""
    q = _frozen(q_grid, "q_grid")
    if q.ndim != 1 or q.shape[0] < 2:
        raise DomainError("q_grid must be a 1-d array with at least 2 nodes")
    if not _evenly_spaced(q):
        raise DomainError("q_grid must be finite and evenly spaced")
    _require_increasing(q, "q_grid")
    return PositionPlan(grid, q, model.hbar,
                        _kernels.chirp_plan(grid.nodes, q, model.hbar))


def position_profile(state: MomentumState, plan: PositionPlan) -> PositionProfile:
    """Fourier quadrature of a state on ``plan.grid`` onto ``plan.q``.

    ``coverage_ok`` is cleared when the squared norm over the window
    deviates from 1 by more than 1e-3 (insufficient coverage).
    """
    if state.grid != plan.grid:
        raise DomainError(f"state grid {state.grid} is not the planned {plan.grid}")
    q = plan.q
    raw = _kernels.position_transform(
        state.grid.nodes, np.asarray(state.amps), q, plan.hbar, plan.chirp
    )
    amps = raw * state.grid.h / np.sqrt(2.0 * np.pi * plan.hbar)
    amps.setflags(write=False)
    norm = float(_integral(np.abs(amps) ** 2, q[1] - q[0]))
    return PositionProfile(
        q=q, amps=amps, norm=norm, coverage_ok=bool(abs(norm - 1.0) <= 1e-3)
    )


def to_position_representation(
    state: MomentumState, q_grid: np.ndarray, model: FrameModel
) -> PositionProfile:
    """``position_profile`` of the state on a plan built for it alone."""
    return position_profile(state, position_plan(state.grid, q_grid, model))


def expectation_series(initial: MomentumState, taus,
                       model: FrameModel) -> ExpectationSeries:
    """Position mean and variance over a strictly increasing list of tau.

    Each sample is computed by the analytic route and cross-checked
    against the numeric route; disagreement beyond 1e-4 raises
    :class:`ConsistencyError` naming the offending tau and the grid's n,
    or :class:`DomainError` on a grid reaching p <= 0.
    The tau-invariant work is done once: f, the state carried to tau = 0,
    its anchor, the density |f|^2, the truncation term, which depends on
    |psi| = |f| only because the evolution is a unimodular phase, hbar^2,
    checked once, and ``_kernels.free_flight``, the sums over the stencil
    rows whose nodes are all past their exit, for every tau at once.  One
    :func:`_kernels.workspace` holds the phase kernel's arrays, and the
    series allocates the angle, psi, the stencil and its scratch once.
    Each sample evolves f on its tail only, the nodes before their exit and
    4 to 11 beside them, by ``apply_phase`` of Phi(tau), which the phase
    kernel writes on the tail only, and runs
    ``_statistics`` on it with the free sums: its one stencil serves both
    the numeric route and the variance.
    A sample with every node past its exit runs no per-node numeric work.
    ``q_mean`` equals the single-state analytic route bit for bit; ``norm``
    and ``q_var`` equal ``evolve(...).norm()`` and ``position_variance`` to
    rounding, since their sums are grouped otherwise.  A state at tau < 0
    gives the bits of the series of ``evolve(initial, 0.0, model)``.
    Samples are evaluated in order.
    """
    taus = _finite_floats(taus, "tau samples")
    if taus.ndim != 1 or taus.shape[0] == 0:
        raise DomainError("need a non-empty 1-d array of tau samples")
    _require_increasing(taus, "tau samples")
    ref = _reference(initial, model)
    p, h, hbar, lam = initial.grid.nodes, initial.grid.h, model.hbar, model.lam
    n = p.shape[0]
    ws = _kernels.workspace(p, lam)
    free = _kernels.free_flight(p, h, ref.amps, ws.cubic, ws.p2, taus, lam, hbar)
    hbar2 = _square(hbar, "hbar")
    theta = np.empty(n)
    psi, stencil, work = np.empty((3, n), dtype=np.complex128)

    q_mean = np.empty_like(taus)
    norms = np.empty_like(taus)
    q_var = np.empty_like(taus)
    for k, (tau, e, norm2, mean, q2) in enumerate(zip(*(column.tolist()
                                                        for column in (taus, *free)))):
        phase, kernel = _kernels.phase_and_displacement(p, tau, lam, ws, e)
        q_mean[k] = _analytic_mean(ref, kernel, h)
        if e < n:
            _kernels.apply_phase(ref.amps[e:], phase[e:], hbar, psi[e:], theta[e:])
        skip = 2 if e else 0
        norm, numeric, residual, d = _statistics(
            psi[e:], h, hbar, ref.boundary, stencil[e:], work[e:], (skip, norm2, mean))
        norms[k] = norm
        _check_norm(norm)
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
        q_var[k] = _variance(d, numeric, h, hbar2,
                             work[e + skip:].view(np.float64), q2)
    return ExpectationSeries(taus, q_mean, norms, q_var, ref.anchor)
