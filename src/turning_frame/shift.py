"""Displacement-shift formulas and asymptotic extraction from series data.

After every momentum component has re-crossed the frame origin, the
position expectation runs exactly parallel to the free solution but
offset; extrapolating that line back to tau = 0 and comparing with the
classical offset isolates the quantum shift.  The leading term of the
total shift survives hbar -> 0 because the evolution phase enters every
observable divided by hbar.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NotAsymptoticError
from .model import (
    ExpectationSeries,
    FrameModel,
    MomentumState,
    ShiftConvention,
    ShiftReport,
    _is_finite,
    _require_finite,
    _require_positive,
    _shown,
    _square,
    moments,
)
from .classical import classical_shift

SLOPE_ERROR_TOLERANCE = 1e-2
MIN_FIT_SAMPLES = 3


def quantum_shift_analytic(mean_p2: float, model: FrameModel) -> float:
    """Quantum displacement -2 <p^2> / lam (note the sign reversal)."""
    _require_positive(mean_p2, "mean square momentum")
    shift = -2.0 * mean_p2 / model.lam
    _require_finite(shift, "quantum shift")
    return shift


def total_shift(mean_p: float, var_p: float, model: FrameModel) -> float:
    """Total quantum-minus-classical shift under the model's convention.

    MEAN_MOMENTUM: -4<p>^2/lam - 2(dp)^2/lam.
    MEAN_SQUARE_MOMENTUM: -4<p^2>/lam (classical p^2 read as <p^2>).
    """
    _require_finite(mean_p, "mean momentum")
    if not (_is_finite(var_p) and var_p >= 0.0):
        raise DomainError(
            f"momentum variance must be non-negative and finite, got {_shown(var_p)}")
    mean_p2 = _square(mean_p, "mean momentum")
    if model.shift_convention is ShiftConvention.MEAN_SQUARE_MOMENTUM:
        shift = -4.0 * (mean_p2 + var_p) / model.lam
    else:
        shift = -4.0 * mean_p2 / model.lam - 2.0 * var_p / model.lam
    _require_finite(shift, "total shift")
    return shift


def asymptotic_tau_bound(grid_p_max: float, model: FrameModel) -> float:
    """Scale beyond which every grid component is past re-crossing."""
    _require_finite(grid_p_max, "grid p_max")
    bound = 2.0 * _square(grid_p_max, "grid p_max") / model.lam
    _require_finite(bound, "asymptotic tau bound")
    return bound


def extract_shift_numeric(
    series: ExpectationSeries, initial: MomentumState, model: FrameModel
) -> ShiftReport:
    """Fit the late-scale line of a series and assemble the shift report.

    Uses every sample with tau >= 2 p_max^2 / lam (all components past
    re-crossing there, so the closed-form line holds on the grid) and
    subtracts the series' anchor from the intercept.  The fitted slope
    doubles as an asymptoticity diagnostic.
    """
    bound = asymptotic_tau_bound(initial.grid.p_max, model)
    mask = series.taus >= bound
    n_fit = int(np.count_nonzero(mask))
    if n_fit < MIN_FIT_SAMPLES:
        raise NotAsymptoticError(
            f"need at least {MIN_FIT_SAMPLES} samples with tau >= {bound:.6g}, "
            f"got {n_fit}"
        )
    slope, intercept = np.polyfit(series.taus[mask], series.q_mean[mask], 1)
    if abs(slope - 1.0) > SLOPE_ERROR_TOLERANCE:
        raise NotAsymptoticError(
            f"fitted slope {slope:.6f} deviates from 1 beyond "
            f"{SLOPE_ERROR_TOLERANCE}; window tau >= {bound:.6g} is not asymptotic"
        )

    stats = moments(initial)
    # the intercept relative to the state's own starting position
    quantum_numeric = float(intercept) - series.anchor
    quantum_analytic = quantum_shift_analytic(stats.mean_p2, model)
    if model.shift_convention is ShiftConvention.MEAN_SQUARE_MOMENTUM:
        classical = 2.0 * stats.mean_p2 / model.lam
    else:
        classical = classical_shift(stats.mean_p, model)
    return ShiftReport(
        delta_q_classical=classical,
        delta_q_quantum_analytic=quantum_analytic,
        delta_q_quantum_numeric=quantum_numeric,
        delta_q_total=quantum_numeric - classical,
        extrapolation_tau=bound,
        residual=abs(quantum_analytic - quantum_numeric),
        slope=float(slope),
        convention=model.shift_convention,
    )
