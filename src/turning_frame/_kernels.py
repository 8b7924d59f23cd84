"""Hot numeric kernels: branchwise phase laws, displacement kernels, stencils
and the position transform.

Every kernel is vectorised NumPy over whole grids.  Numerical conventions:

* Branch geometry lives in ``branch``: ``u = p**2 - lam*tau`` is snapped
  to zero within ``8 eps`` relative to ``p**2`` so that values computed
  exactly at the turning point land on the closed-form joint value
  instead of picking up a ``sqrt(eps)`` spray from the infinite one-sided
  slope.  ``before_exit`` places tau against the outer boundary.
* Branch dispatch assigns boundary points to the earlier branch;
  continuity makes the choice unobservable.
* Reductions run in NumPy's fixed order, so results are reproducible.
* The plane-wave sum onto a position grid is a chirp-z transform
  (Bluestein's algorithm), O((N_p + N_q) log(N_p + N_q)) instead of the
  direct O(N_p N_q) sum; both grids must be uniform.
"""

from __future__ import annotations

import math

import numpy as np

_SNAP = 8.0 * float(np.finfo(np.float64).eps)


def branch(p2, tau, lam):
    """(u, s): u = p2 - lam tau snapped to 0 at the turning point, s = sqrt|u|."""
    u = p2 - lam * tau
    u = np.where(np.abs(u) <= _SNAP * p2, 0.0, u)
    return u, np.sqrt(np.abs(u))


def before_exit(p2, tau, lam):
    """True where tau <= 2 p2/lam, before the frame leaves the potential."""
    return p2 >= 0.5 * lam * tau


def _phase(p, p2, tau, lam, u, s, early):
    # u >= 0: (2/3)(p^3 - u^{3/2})/lam ; u < 0: (2/3)(p^3 + |u|^{3/2})/lam
    mid = (2.0 / 3.0) * (p2 * p - u * s) / lam
    return np.where(early, mid, p * tau - (2.0 / 3.0) * p2 * p / lam)


def phase_profile(p, tau, lam):
    """Accumulated evolution phase for every momentum node at scale tau."""
    if tau <= 0.0:
        return p * tau
    p2 = p * p
    return _phase(p, p2, tau, lam, *branch(p2, tau, lam), before_exit(p2, tau, lam))


def phase_and_displacement(p, tau, lam):
    """(Phi, D): the phase of ``phase_profile`` and its kernel D = dPhi/dp."""
    if tau <= 0.0:
        return p * tau, np.full_like(p, tau)
    p2 = p * p
    u, s = branch(p2, tau, lam)
    early = before_exit(p2, tau, lam)
    # Approaching branch: 2(p^2 - p sqrt(u))/lam rewritten as 2 p tau/(p+sqrt(u))
    # to avoid the p^2 - p*sqrt(p^2 - lam*tau) cancellation near tau -> 0.
    # The rewrite needs p + sqrt(u) > 0, so keep the direct form for p <= 0.
    approaching = (u >= 0.0) & (p > 0.0)
    denom = np.where(approaching, p + s, 1.0)
    mid = np.where(approaching, 2.0 * p * tau / denom, 2.0 * (p2 - p * s) / lam)
    late = tau - 2.0 * p2 / lam
    return _phase(p, p2, tau, lam, u, s, early), np.where(early, mid, late)


def classical_position_profile(taus, q0, p, lam):
    """Closed-form relational trajectory q(tau) for conserved momentum p."""
    p2 = p * p
    u, _ = branch(p2, taus, lam)
    s = np.sqrt(np.abs(u) / p2)
    rising = q0 + 2.0 * taus / (1.0 + s)          # 0 <= tau <= p^2/lam
    returning = q0 + 2.0 * p2 * (1.0 + s) / lam   # p^2/lam <= tau <= 2 p^2/lam
    out = np.where(u >= 0.0, rising, np.where(before_exit(p2, taus, lam), returning,
                                              q0 + taus + 2.0 * p2 / lam))
    return np.where(taus <= 0.0, q0 + taus, out)


def apply_phase(amps, phase, hbar):
    """Multiply amplitudes by exp(-i phase / hbar)."""
    return amps * np.exp(-1j * phase / hbar)


def derivative(values, h):
    """Fourth-order finite-difference derivative on a uniform grid (n >= 5)."""
    d = np.empty_like(values)
    d[2:-2] = (values[:-4] - 8.0 * values[1:-3]
               + 8.0 * values[3:-1] - values[4:]) / (12.0 * h)
    d[0] = (-25.0 * values[0] + 48.0 * values[1] - 36.0 * values[2]
            + 16.0 * values[3] - 3.0 * values[4]) / (12.0 * h)
    d[1] = (-3.0 * values[0] - 10.0 * values[1] + 18.0 * values[2]
            - 6.0 * values[3] + values[4]) / (12.0 * h)
    d[-2] = (3.0 * values[-1] + 10.0 * values[-2] - 18.0 * values[-3]
             + 6.0 * values[-4] - values[-5]) / (12.0 * h)
    d[-1] = (25.0 * values[-1] - 48.0 * values[-2] + 36.0 * values[-3]
             - 16.0 * values[-4] + 3.0 * values[-5]) / (12.0 * h)
    return d


def _chirp(n, c):
    """exp(i c n) for integer-valued float arrays n >= 0 and large |c n|.

    ``c`` is split into a head with few enough significant bits that
    ``head * n`` is exact, and a small tail, so the phase carries no
    rounding error of the size of ``|c n| * eps``.
    """
    bits = int(n.max()).bit_length()
    mant, exp = math.frexp(c)
    head = math.ldexp(round(math.ldexp(mant, 53 - bits)), exp - 53 + bits)
    return np.exp(1j * (head * n)) * np.exp(1j * ((c - head) * n))


def position_transform(p, amps, q, hbar):
    """Plane-wave quadrature sum_j amps_j exp(i p_j q_k / hbar) per q node.

    Both grids must be uniform with at least 2 nodes; the spacings are read
    from their ends.
    With p_j = p_0 + j dp and q_k = q_0 + k dq,
    p_j q_k = p_0 q_k + q_0 (p_j - p_0) + dp dq jk, and
    jk = (j^2 + k^2 - (k-j)^2)/2 turns the sum into one convolution with the
    chirp exp(-i dp dq m^2 / 2hbar), evaluated by zero-padded FFTs
    (Bluestein's chirp-z algorithm).
    """
    n_p, n_q = p.shape[0], q.shape[0]
    dp = (p[-1] - p[0]) / (n_p - 1)
    dq = (q[-1] - q[0]) / (n_q - 1)
    c = 0.5 * dp * dq / hbar
    j = np.arange(n_p, dtype=np.float64)
    k = np.arange(n_q, dtype=np.float64)
    size = 1 << (n_p + n_q - 2).bit_length()
    # circular offsets k - j: 0..n_q-1 at the front, -(n_p-1)..-1 at the back
    m = np.arange(size, dtype=np.float64)
    m = np.where(m < n_q, m, size - m)
    y = amps * np.exp(1j * q[0] * (p - p[0]) / hbar) * _chirp(j * j, c)
    conv = np.fft.ifft(np.fft.fft(y, size) * np.fft.fft(_chirp(m * m, -c)))[:n_q]
    return conv * _chirp(k * k, c) * np.exp(1j * p[0] * q / hbar)
