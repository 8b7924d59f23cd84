"""Closed-form classical solutions of the constrained frame-system pair.

The constraint ``-p_phi^2 - lam*phi*theta(phi) + H^2 = 0`` fixes how the
frame variable phi and the system position q co-vary.  All trajectories
here are exact piecewise expressions: gauge-parameter solutions, the
frame-position correlations phi(q) and q(phi), the unwound monotonic
scale tau, and the relational trajectory q(tau).

Scalar arguments return floats; ndarray arguments broadcast elementwise.
q(tau) and both sheets of q(phi) are one kernel-backed trajectory.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError
from .model import (ClassicalState, FrameModel, _finite_floats, _require_finite,
                    _require_positive, _square)


class Branch(enum.Enum):
    """Trajectory sheet relative to the turning point."""

    BEFORE = "before"
    AFTER = "after"


@dataclass(frozen=True)
class GaugeSample:
    """One point of the gauge-parameter solution (epsilon, phi, p_phi)."""

    epsilon: float
    phi: float
    p_phi: float

    def __post_init__(self):
        for name in ("epsilon", "phi", "p_phi"):
            _require_finite(getattr(self, name), name)

    def constraint_residual(self, H: float, model: FrameModel) -> float:
        """Value of -p_phi^2 - lam*phi*theta(phi) + H^2 (zero on shell)."""
        _require_finite(H, "H")
        potential = model.lam * self.phi if self.phi > 0.0 else 0.0
        residual = -_square(self.p_phi, "p_phi") - potential + _square(H, "H")
        _require_finite(residual, "constraint residual")
        return residual


def gauge_solution(H: float, model: FrameModel, epsilon: float) -> GaugeSample:
    """Frame trajectory (phi, p_phi) at gauge parameter epsilon.

    The boundary condition phi(0) = 0 fixes all integration constants;
    the turning point sits at epsilon = H/lam.
    """
    _require_positive(H, "H")
    _require_finite(epsilon, "epsilon")
    lam = model.lam
    if epsilon <= 0.0:
        phi = 2.0 * H * epsilon
        p_phi = -H
    elif epsilon <= 2.0 * H / lam:
        phi = epsilon * (2.0 * H - lam * epsilon)
        p_phi = lam * epsilon - H
    else:
        phi = -2.0 * H * epsilon + 4.0 * _square(H, "H") / lam
        p_phi = H
    return GaugeSample(epsilon=epsilon, phi=phi, p_phi=p_phi)


def turning_point(H: float, model: FrameModel) -> float:
    """Largest frame value reached by a solution of energy H: H^2/lam."""
    _require_positive(H, "H")
    phi_t = _square(H, "H") / model.lam
    _require_finite(phi_t, "turning point")
    return phi_t


def phi_of_q(q, state: ClassicalState, model: FrameModel):
    """Frame value as a function of the system position (single-valued)."""
    q_arr = _finite_floats(q, "q")
    dq = q_arr - state.q0
    lam, p = model.lam, state.p
    p2 = _square(p, "p")
    span = 4.0 * p2 / lam
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        middle = dq * (1.0 - 0.25 * lam * dq / p2)  # inf or NaN at p^2 -> 0, dropped
    out = np.where(dq <= 0.0, dq, np.where(dq <= span, middle, span - dq))
    return float(out) if np.isscalar(q) else out


def q_of_phi(phi, branch: Branch, state: ClassicalState, model: FrameModel):
    """System position on one sheet of the double-valued correlation q(phi).

    BEFORE covers the approach to the turning point, AFTER the return;
    the sheets meet at phi = p^2/lam.  Each is q(tau) at the tau that
    unwinds phi on it: phi before, 2 p^2/lam - phi after.
    """
    phi_arr = _finite_floats(phi, "phi")
    lam, p2 = model.lam, state.p * state.p
    with np.errstate(over="ignore"):  # lam phi = +-inf still gives the sign of u
        beyond = np.any(_kernels.branch(p2, phi_arr, lam) < 0.0)
    if beyond:
        raise DomainError("phi lies beyond the turning point p^2/lam")
    tau = phi_arr if branch is Branch.BEFORE else 2.0 * p2 / lam - phi_arr
    out = _kernels.classical_position_profile(tau, state.q0, state.p, lam)
    out = _finite_floats(out, "q")  # 2 p^2 overflows for p^2 near the float64 maximum
    return float(out) if np.isscalar(phi) else out


def unwind_phi(tau, H: float, model: FrameModel):
    """Frame value reconstructed from the monotonic scale tau."""
    _require_positive(H, "H")
    tau_arr = _finite_floats(tau, "tau")
    phi_t = _square(H, "H") / model.lam
    out = np.where(tau_arr <= phi_t, tau_arr, 2.0 * phi_t - tau_arr)
    return float(out) if np.isscalar(tau) else out


def q_of_tau(tau, state: ClassicalState, model: FrameModel):
    """Relational trajectory q(tau): free, slowed, re-crossing, free again."""
    tau_arr = _finite_floats(tau, "tau")
    out = _kernels.classical_position_profile(tau_arr, state.q0, state.p, model.lam)
    out = _finite_floats(out, "q")  # 2 p^2 overflows for p^2 near the float64 maximum
    return float(out) if np.isscalar(tau) else out


def q_rate(tau: float, state: ClassicalState, model: FrameModel) -> float:
    """One-sided rate dq/dtau; infinite exactly at the turning scale."""
    _require_finite(tau, "tau")
    lam, p2 = model.lam, state.p * state.p
    if tau <= 0.0 or not _kernels.before_exit(p2, tau, lam):
        return 1.0
    u = _kernels.branch(p2, tau, lam)
    if u == 0.0:
        return float("inf")
    return float(1.0 / np.sqrt(np.abs(u) / p2))


def classical_shift(p: float, model: FrameModel) -> float:
    """Late-scale displacement 2 p^2 / lam gained from the frame reversal."""
    _require_positive(p, "p")
    shift = 2.0 * _square(p, "p") / model.lam
    _require_finite(shift, "classical shift")
    return shift
