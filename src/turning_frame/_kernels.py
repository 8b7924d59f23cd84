"""Hot numeric kernels: branchwise phase laws, displacement kernels, the one
propagation step, stencils and the position transform.

Every kernel is vectorised NumPy over whole grids.  Numerical conventions:

* Branch geometry lives in ``branch``: ``u = p**2 - lam*tau`` is snapped
  to zero within ``8 eps`` relative to ``p**2`` so that values computed
  exactly at the turning point land on the closed-form joint value
  instead of picking up a ``sqrt(eps)`` spray from the infinite one-sided
  slope.  ``before_exit`` places tau against the outer boundary.
* The phase and its displacement kernel give every node the free-flight
  forms ``p tau - (2/3) p^3/lam`` and ``tau - 2 p^2/lam``; the
  turning-region formulas run only from the first node before its exit
  on, so the nodes past their exit (a prefix on an ascending grid of
  positive momenta, and every node once tau is past the last exit) get
  the free-flight form alone.  Nodes may come in any order: a node past its
  exit inside the tail keeps its free-flight value by the select.
* Branch dispatch assigns boundary points to the earlier branch;
  continuity makes the choice unobservable.
* Reductions run in NumPy's fixed order, so results are reproducible.
* A series over tau builds one ``workspace``: the grid invariants and
  every array a tau overwrites.  Each per-tau kernel takes it as ``ws``
  and writes into it with the same expressions, in the same order, as a
  single call, which allocates its arrays instead.  Results are
  bit-identical either way.
* ``advance``, the product with exp(-i (Phi(tau) - Phi(start)) / hbar), is
  the one propagation; only the tau loop of a series, which keeps Phi in
  its workspace, calls ``apply_phase`` itself.
* ``apply_phase`` writes exp(i theta), theta = -phase / hbar, as
  ``cos theta`` and ``sin theta`` into the two float64 slots of psi: the
  bits of NumPy's complex ``exp(+0 + i theta)``, which is ``(cos theta,
  sin theta)``, without its complex loop.
* Complex-by-real-scalar arithmetic (the interior of ``derivative``) runs
  on the float64 view of the complex array, as real ufuncs.  NumPy would
  cast the scalar x to ``x + 0j`` and run a complex loop, in which every
  product with the zero imaginary part is +-0 and its complex division
  (Smith's algorithm) is a multiply by ``1 / x``; so the bits are the
  same.  Only the sign of a zero can differ, where a component is exactly
  +-0 and NumPy's extra ``+-0`` term flips it.
* The plane-wave sum onto a position grid is a chirp-z transform
  (Bluestein's algorithm), O((N_p + N_q) log(N_p + N_q)) instead of the
  direct O(N_p N_q) sum; both grids must be uniform.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ResolutionError

_SNAP = 8.0 * float(np.finfo(np.float64).eps)


class Workspace(NamedTuple):
    """Every array the tau loop of a series reads or overwrites, on nodes p.

    The first six are the tau-invariant subexpressions of
    ``phase_and_displacement``, so every tau gets the same bits; the rest are
    written at each tau and hold Phi, D, psi and the stencil until the next
    one, the branch scratch ``u``, ``s``, ``t`` and ``mask`` only from the
    first node before its exit on.
    ``workspace`` fills all of them.  A kernel given the all-None ``_FRESH``
    allocates its arrays, as a single call does.
    """

    p2: np.ndarray | None = None        # p^2
    snap: np.ndarray | None = None      # _SNAP p^2, the snap width of ``branch``
    p3: np.ndarray | None = None        # p^2 p of the turning-region phase
    cubic: np.ndarray | None = None     # (2/3) p^2 p / lam of the late phase
    exit: np.ndarray | None = None      # 2 p^2 / lam of the late displacement
    positive: np.ndarray | None = None  # p > 0, where the approaching rewrite holds
    phi: np.ndarray | None = None       # Phi
    d: np.ndarray | None = None         # D
    u: np.ndarray | None = None         # u, then 2 p tau
    s: np.ndarray | None = None         # |u|, sqrt|u|, then the direct D form
    t: np.ndarray | None = None         # the phase scratch, then p + sqrt(u)
    mask: np.ndarray | None = None      # the snap mask, then the approaching one
    early: np.ndarray | None = None     # before_exit
    theta: np.ndarray | None = None     # the angle -phase / hbar of apply_phase
    psi: np.ndarray | None = None       # the evolved amplitudes
    stencil: np.ndarray | None = None   # their derivative
    work: np.ndarray | None = None      # the stencil's 8 v, then an integrand
    real: np.ndarray | None = None      # the integrand of a real reduction


_FRESH = Workspace()


def _phase_terms(p, lam):
    p2 = p * p
    return p2, p2 * p, (2.0 / 3.0) * p2 * p / lam


def workspace(p, lam) -> Workspace:
    """The invariants on nodes p and one array of every per-tau kind."""
    p2, p3, cubic = _phase_terms(p, lam)
    n = p.shape[0]
    return Workspace(p2, _SNAP * p2, p3, cubic, 2.0 * p2 / lam, p > 0.0,
                     *np.empty((5, n)), *np.empty((2, n), dtype=bool), np.empty(n),
                     *np.empty((3, n), dtype=np.complex128), np.empty(n))


def branch(p2, tau, lam, ws=_FRESH):
    """(u, s): u = p2 - lam tau snapped to 0 at the turning point, s = sqrt|u|.

    The snap width is ``ws.snap``, or ``_SNAP * p2`` computed here; u, |u|
    and the snap mask go to ``ws.u``, ``ws.s`` and ``ws.mask``.
    """
    u = np.subtract(p2, lam * tau, out=ws.u)
    turning = np.less_equal(np.abs(u, out=ws.s),
                            _SNAP * p2 if ws.snap is None else ws.snap, out=ws.mask)
    if ws.u is None:  # u may be a scalar, which has no in-place select
        u = np.where(turning, 0.0, u)
    else:
        np.copyto(u, 0.0, where=turning)
    return u, np.sqrt(np.abs(u, out=ws.s), out=ws.s)


def before_exit(p2, tau, lam, ws=_FRESH):
    """True where tau <= 2 p2/lam, before the frame leaves the potential."""
    return np.greater_equal(p2, 0.5 * lam * tau, out=ws.early)


def _phase(phase, p3, u, s, early, lam, t=None):
    """Overwrite ``phase`` with the turning-region phase where ``early``."""
    # u >= 0: (2/3)(p^3 - u^{3/2})/lam ; u < 0: (2/3)(p^3 + |u|^{3/2})/lam
    mid = np.multiply(u, s, out=t)
    np.subtract(p3, mid, out=mid)
    np.multiply(2.0 / 3.0, mid, out=mid)
    mid /= lam
    np.copyto(phase, mid, where=early)


def _first_early(early):
    """Index of the first node before its exit, or None if there is none."""
    lo = int(early.argmax())
    return lo if early[lo] else None


def phase_profile(p, tau, lam):
    """Accumulated evolution phase for every momentum node at scale tau."""
    if tau <= 0.0:
        return p * tau
    p2, p3, cubic = _phase_terms(p, lam)
    phase = p * tau
    phase -= cubic
    early = before_exit(p2, tau, lam)
    lo = _first_early(early)
    if lo is not None:
        u, s = branch(p2[lo:], tau, lam)
        _phase(phase[lo:], p3[lo:], u, s, early[lo:], lam)
    return phase


def phase_and_displacement(p, tau, lam, ws=None):
    """(Phi, D): the phase of ``phase_profile`` and its kernel D = dPhi/dp.

    ``ws`` is ``workspace(p, lam)``, built here for a single call; Phi and D
    come back in ``ws.phi`` and ``ws.d``.  Every node gets the free-flight
    forms; the turning-region formulas overwrite them from the first node
    before its exit on, on the tails of the nodes and of the scratch arrays.
    """
    if ws is None:
        ws = workspace(p, lam)
    if tau <= 0.0:
        ws.d.fill(tau)
        return np.multiply(p, tau, out=ws.phi), ws.d
    phase = np.multiply(p, tau, out=ws.phi)
    phase -= ws.cubic
    d = np.subtract(tau, ws.exit, out=ws.d)
    early = before_exit(ws.p2, tau, lam, ws)
    lo = _first_early(early)
    if lo is None:
        return phase, d
    p, p2, early, t = p[lo:], ws.p2[lo:], early[lo:], ws.t[lo:]
    u, s = branch(p2, tau, lam, Workspace(snap=ws.snap[lo:], u=ws.u[lo:],
                                          s=ws.s[lo:], mask=ws.mask[lo:]))
    _phase(phase[lo:], ws.p3[lo:], u, s, early, lam, t)
    # Approaching branch: 2(p^2 - p sqrt(u))/lam rewritten as 2 p tau/(p+sqrt(u))
    # to avoid the p^2 - p*sqrt(p^2 - lam*tau) cancellation near tau -> 0.
    # The rewrite needs p + sqrt(u) > 0, so it replaces the direct form only
    # where u >= 0 and p > 0.  Each array is dead once read, so s then u
    # take the next intermediates.
    approaching = np.greater_equal(u, 0.0, out=ws.mask[lo:])
    approaching &= ws.positive[lo:]
    denom = np.add(p, s, out=t)
    mid = np.multiply(p, s, out=s)
    np.subtract(p2, mid, out=mid)
    np.multiply(2.0, mid, out=mid)
    mid /= lam
    np.divide(np.multiply(p, 2.0 * tau, out=u), denom, out=mid, where=approaching)
    np.copyto(d[lo:], mid, where=early)
    return phase, d


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


def apply_phase(amps, phase, hbar, ws=_FRESH):
    """Multiply amplitudes by exp(-i phase / hbar) into ``ws.psi``.

    The angle ``phase * (-1 / hbar)``, NumPy's bits of the imaginary part
    of ``-1j * phase / hbar``, goes to ``ws.theta``; its cos and sin go to
    the real and imaginary slots of ``ws.psi``.
    """
    psi = np.empty(phase.shape, dtype=np.complex128) if ws.psi is None else ws.psi
    theta = np.multiply(phase, -1.0 / hbar, out=ws.theta)
    np.cos(theta, out=psi.real)
    np.sin(theta, out=psi.imag)
    return np.multiply(amps, psi, out=psi)


def advance(x, amps, start, tau, lam, hbar):
    """Amplitudes on nodes x at scale start, carried to tau by the phase law."""
    return apply_phase(amps, phase_profile(x, tau, lam) - phase_profile(x, start, lam),
                       hbar)


def derivative(values, h, ws=_FRESH):
    """Fourth-order finite-difference derivative on a uniform grid (n >= 5).

    The derivative goes to ``ws.stencil`` and the scratch 8 values of the
    interior stencil to ``ws.work``, both shaped like ``values``.  The
    interior runs on the float64 views, two slots per complex value, and
    equals NumPy's complex arithmetic bit for bit, except that a zero can
    take the other sign where a component of ``values`` is exactly +-0.
    A real ``values`` keeps the true division by 12 h.
    """
    if values.shape[0] < 5:
        raise ResolutionError("derivative stencils need at least 5 grid nodes")
    d = np.empty_like(values) if ws.stencil is None else ws.stencil
    k = 2 if values.dtype.kind == "c" else 1
    v, dv = values.view(np.float64), d.view(np.float64)
    eight = np.multiply(8.0, v[k:-k],
                        out=None if ws.work is None else ws.work.view(np.float64)[k:-k])
    inner = np.subtract(v[:-4 * k], eight[:-2 * k], out=dv[2 * k:-2 * k])
    inner += eight[2 * k:]
    inner -= v[4 * k:]
    if k == 2:  # NumPy divides a complex number by 12 h + 0j as * (1 / (12 h))
        inner *= 1.0 / (12.0 * h)
    else:
        inner /= 12.0 * h
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
