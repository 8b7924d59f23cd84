"""Closed-form classical solutions of the constrained frame-system pair.

The constraint ``-p_phi^2 - lam*phi*theta(phi) + H^2 = 0`` fixes how the
frame variable phi and the system position q co-vary.  All trajectories
here are exact piecewise expressions: gauge-parameter solutions, the
frame-position correlations phi(q) and q(phi), the unwound monotonic
scale tau, and the relational trajectory q(tau).

Scalar arguments return floats; ndarray arguments broadcast elementwise
(the hot q(tau) path is kernel-backed).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError
from .model import ClassicalState, FrameModel, _require_finite_tau, _square


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

    def constraint_residual(self, H: float, model: FrameModel) -> float:
        """Value of -p_phi^2 - lam*phi*theta(phi) + H^2 (zero on shell)."""
        potential = model.lam * self.phi if self.phi > 0.0 else 0.0
        return -_square(self.p_phi, "p_phi") - potential + _square(H, "H")


def _require_positive(value: float, name: str) -> None:
    if not value > 0.0:
        raise DomainError(f"{name} must be positive, got {value}")


def gauge_solution(H: float, model: FrameModel, epsilon: float) -> GaugeSample:
    """Frame trajectory (phi, p_phi) at gauge parameter epsilon.

    The boundary condition phi(0) = 0 fixes all integration constants;
    the turning point sits at epsilon = H/lam.
    """
    _require_positive(H, "H")
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
    return _square(H, "H") / model.lam


def phi_of_q(q, state: ClassicalState, model: FrameModel):
    """Frame value as a function of the system position (single-valued)."""
    q_arr = np.asarray(q, dtype=np.float64)
    dq = q_arr - state.q0
    lam, p = model.lam, state.p
    p2 = _square(p, "p")
    span = 4.0 * p2 / lam
    middle = dq * (1.0 - 0.25 * lam * dq / p2)
    out = np.where(dq <= 0.0, dq, np.where(dq <= span, middle, span - dq))
    return float(out) if np.isscalar(q) else out


def q_of_phi(phi, branch: Branch, state: ClassicalState, model: FrameModel):
    """System position on one sheet of the double-valued correlation q(phi).

    BEFORE covers the approach to the turning point, AFTER the return;
    the sheets meet at phi = p^2/lam.
    """
    phi_arr = np.asarray(phi, dtype=np.float64)
    lam, q0, p2 = model.lam, state.q0, state.p * state.p
    u, _ = _kernels.branch(p2, phi_arr, lam)
    if np.any(u < 0.0):
        raise DomainError("phi lies beyond the turning point p^2/lam")
    s = np.sqrt(np.abs(u) / p2)
    if branch is Branch.BEFORE:
        out = np.where(phi_arr <= 0.0, q0 + phi_arr, q0 + 2.0 * phi_arr / (1.0 + s))
    else:
        out = np.where(
            phi_arr <= 0.0,
            q0 - phi_arr + 4.0 * p2 / lam,
            q0 + 2.0 * p2 * (1.0 + s) / lam,
        )
    return float(out) if np.isscalar(phi) else out


def unwind_phi(tau, H: float, model: FrameModel):
    """Frame value reconstructed from the monotonic scale tau."""
    _require_positive(H, "H")
    tau_arr = np.asarray(tau, dtype=np.float64)
    phi_t = _square(H, "H") / model.lam
    out = np.where(tau_arr <= phi_t, tau_arr, 2.0 * phi_t - tau_arr)
    return float(out) if np.isscalar(tau) else out


def q_of_tau(tau, state: ClassicalState, model: FrameModel):
    """Relational trajectory q(tau): free, slowed, re-crossing, free again."""
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=np.float64))
    _require_finite_tau(tau_arr)
    out = _kernels.classical_position_profile(tau_arr, state.q0, state.p, model.lam)
    return float(out[0]) if np.isscalar(tau) else out.reshape(np.shape(tau))


def q_rate(tau: float, state: ClassicalState, model: FrameModel) -> float:
    """One-sided rate dq/dtau; infinite exactly at the turning scale."""
    _require_finite_tau(tau)
    lam, p2 = model.lam, state.p * state.p
    if tau <= 0.0 or not _kernels.before_exit(p2, tau, lam):
        return 1.0
    u, _ = _kernels.branch(p2, tau, lam)
    if u == 0.0:
        return float("inf")
    return float(1.0 / np.sqrt(np.abs(u) / p2))


def classical_shift(p: float, model: FrameModel) -> float:
    """Late-scale displacement 2 p^2 / lam gained from the frame reversal."""
    _require_positive(p, "p")
    return 2.0 * _square(p, "p") / model.lam
