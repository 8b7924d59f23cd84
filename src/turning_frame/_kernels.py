"""Hot numeric kernels: branchwise phase laws, displacement kernels, the one
propagation, stencils, the free-flight range sums and the position
transform.

Every kernel is vectorised NumPy over grids or index ranges of them.
Numerical conventions:

* Branch geometry lives in ``branch``: ``u = p**2 - lam*tau`` is snapped
  to zero within ``8 eps`` relative to ``p**2`` so that values computed
  exactly at the turning point land on the closed-form joint value
  instead of picking up a ``sqrt(eps)`` spray from the infinite one-sided
  slope.  ``before_exit`` places tau against the outer boundary.
* On ascending nodes p^2 falls over p <= 0 and rises over p > 0, so every
  branch is an index range.  ``exit_split``, the one exit search, finds
  the boundaries of ``before_exit`` with its comparison, for one tau or
  every tau of a series at once, and ``snap_band`` the snapped nodes next
  to the sign change of u, with the snap of ``branch``.
  ``_phase``, the one Phi at tau > 0, runs the free-flight form ``p tau -
  (2/3) p^3/lam`` on the nodes past their exit and the turning-region form
  on the rest; ``phase_profile`` calls it on fresh arrays, and
  ``phase_and_displacement`` on its workspace before it writes D on the
  same ranges.  Given a start index, the free-flight form (and p tau at
  tau <= 0) skips the nodes before it: a series reads Phi on its tail
  only, so a sample with no tail writes no Phi.  D is always whole.
  Ascending nodes (repeats allowed) are the contract of every
  phase kernel: ``workspace`` checks the order once and raises
  ``DomainError`` on nodes out of order; ``phase_profile``, whose callers
  pass grid nodes, increasing energies or one node, checks none.
* Branch dispatch assigns boundary points to the earlier branch;
  continuity makes the choice unobservable.
* Reductions run in NumPy's fixed order, so results are reproducible.
* A ``workspace`` holds the phase kernel's grid invariants and the four
  arrays a tau overwrites; a series builds one and passes it as ``ws``.
  ``apply_phase`` and ``derivative`` take the arrays they write, as
  NumPy's ``out=``.  Each writes into what it is given with the same
  expressions, in the same order, as a single call, which allocates its
  arrays instead.  Results are bit-identical either way.
* ``advance``, the product with exp(-i (Phi(tau) - Phi(start)) / hbar), is
  the one propagation, on any ascending nodes: grid nodes or energies.
* A series evolves no node past its exit.  ``free_flight`` takes, for
  every tau at once, the sums of |psi|^2, conj(psi) d and |d|^2 over the
  stencil rows whose nodes are all past their exit: tau-invariant sums of
  products of the spun amplitudes and their differences, in pairwise
  blocks (``row_leaves``, ``block_sums``, ``prefix_sums``), weighted by
  cos and sin of h tau / hbar and twice that.  These are node sums like
  ``model._integral``'s: a change of quadrature rule edits both.
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
* The four one-sided edge rows of ``derivative`` run on Python scalars
  (``tolist``), cheaper than NumPy scalars or 4-wide arrays.  CPython
  promotes a float operand to ``x + 0j`` as NumPy does (before CPython
  3.14), and a complex row is scaled as NumPy divides by ``12 h + 0j``:
  ``(re + im r, im - re r) * (1 / (12 h))`` with ``r = 0 / (12 h)``.  So
  the rows are NumPy's bits, zeros' signs included.  A caller that drops
  rows 0 and 1, a series' tail stencil, has them skipped.
* The plane-wave sum onto a position grid is a chirp-z transform
  (Bluestein's algorithm), O((N_p + N_q) log(N_p + N_q)) instead of the
  direct O(N_p N_q) sum; both grids must be uniform.  ``chirp_plan``
  holds the factors fixed by the grids and hbar, so snapshots on the same
  grids build them once.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ResolutionError

_SNAP = 8.0 * float(np.finfo(np.float64).eps)


class Workspace(NamedTuple):
    """The arrays of ``phase_and_displacement`` on ascending nodes p.

    The first four are its tau-invariant subexpressions, so every tau gets
    the same bits; the rest hold Phi and D, and the branch scratch ``u`` and
    ``s`` on the turning-region ranges only.  ``workspace`` fills all of
    them.
    """

    p2: np.ndarray        # p^2
    p3: np.ndarray        # p^2 p of the turning-region phase
    cubic: np.ndarray     # (2/3) p^2 p / lam of the free-flight phase
    exit: np.ndarray      # 2 p^2 / lam of the free-flight displacement
    phi: np.ndarray       # Phi
    d: np.ndarray         # D
    u: np.ndarray         # u, snapped
    s: np.ndarray         # sqrt|u|, then p + sqrt(u) of the approach


def _phase_terms(p, lam):
    p2 = p * p
    return p2, p2 * p, (2.0 / 3.0) * p2 * p / lam


def workspace(p, lam) -> Workspace:
    """The invariants and the per-tau arrays of the phase kernel on the
    ascending nodes p; nodes out of order raise ``DomainError``."""
    if not np.all(p[1:] >= p[:-1]):
        raise DomainError("momentum nodes must be in ascending order")
    p2, p3, cubic = _phase_terms(p, lam)
    return Workspace(p2, p3, cubic, 2.0 * p2 / lam, *np.empty((4, p.shape[0])))


def branch(p2, tau, lam):
    """u = p2 - lam tau, snapped to 0 at the turning point."""
    u = np.subtract(p2, lam * tau)
    return np.where(np.abs(u) <= _SNAP * p2, 0.0, u)


def before_exit(p2, tau, lam):
    """True where tau <= 2 p2/lam, before the frame leaves the potential."""
    return np.greater_equal(p2, 0.5 * lam * tau)


def exit_split(p, p2, tau, lam):
    """(a, b) on ascending nodes p with squares p2: ``before_exit(p2, tau,
    lam)`` holds exactly on [0:a) and [b:n).  For an array of tau, b is an
    array of them, and so is a unless it is 0, with no node p <= 0.

    p2 falls over the nodes p <= 0 and rises over the rest, so each side has
    one boundary, found by ``searchsorted`` with the comparison of
    ``before_exit``.
    """
    edge = 0.5 * lam * tau
    if p[0] > 0.0:  # p2 rises over every node
        return 0, p2.searchsorted(edge)  # first p2 >= edge
    zero = p.searchsorted(0.0, "right")  # the nodes p <= 0
    return (zero - p2[zero - 1::-1].searchsorted(edge),  # first p2 < edge
            zero + p2[zero:].searchsorted(edge))


def snap_band(u, p2):
    """Snap the non-decreasing u = p2 - lam tau to 0 where |u| <= 8 eps p2,
    as ``branch`` does, on the nodes it reads, and return that band [i:j),
    the nodes next to the sign change of u; from i on, u >= 0."""
    i = j = u.searchsorted(0.0)  # first u >= 0
    while i and -u[i - 1] <= _SNAP * p2[i - 1]:
        i -= 1
    while j < u.shape[0] and u[j] <= _SNAP * p2[j]:
        j += 1
    if i < j:
        u[i:j] = 0.0
    return i, j


def _phase(p, p2, p3, cubic, tau, lam, phi, u, s, lo=0):
    """Phi at tau > 0 on the ascending nodes p into ``phi``, given p2, p3 =
    p^2 p and cubic = (2/3) p^2 p / lam: the free-flight form on [a:b), past
    the exit, from node ``lo`` on, the turning-region form on [0:a) and
    [b:n), where ``u`` and ``s`` get u and sqrt|u|.  Returns (a, b, c): u >=
    0 and p > 0 on [c:n)."""
    n = p.shape[0]
    a, b = exit_split(p, p2, tau, lam)
    f = max(a, lo)
    if f < b:
        free = np.multiply(p[f:b], tau, out=phi[f:b])
        free -= cubic[f:b]
    # u = p^2 - lam tau rises over [b:n), where p > 0, and falls over [0:a),
    # where p <= 0, so its snapped nodes sit next to each sign change.
    c = n
    if b < n:
        c = b + snap_band(np.subtract(p2[b:], lam * tau, out=u[b:]), p2[b:])[0]
    if a:
        snap_band(np.subtract(p2[:a], lam * tau, out=u[:a])[::-1], p2[:a][::-1])
    # u >= 0: (2/3)(p^3 - u^{3/2})/lam ; u < 0: (2/3)(p^3 + |u|^{3/2})/lam
    for i, j in ((0, a), (b, n)):
        if i < j:
            v, root, mid = u[i:j], s[i:j], phi[i:j]
            np.sqrt(np.abs(v, out=root), out=root)
            np.multiply(v, root, out=mid)
            np.subtract(p3[i:j], mid, out=mid)
            mid *= 2.0 / 3.0
            mid /= lam
    return a, b, c


def phase_profile(p, tau, lam):
    """Accumulated evolution phase on the ascending nodes p at scale tau."""
    if tau <= 0.0:
        return p * tau
    n = p.shape[0]
    phi = np.empty(n)
    _phase(p, *_phase_terms(p, lam), tau, lam, phi, np.empty(n), np.empty(n))
    return phi


def phase_and_displacement(p, tau, lam, ws=None, lo=0):
    """(Phi, D): the phase of ``phase_profile`` and its kernel D = dPhi/dp.

    The nodes p must be ascending; without ``ws`` nodes out of order raise
    ``DomainError``.  ``ws`` is ``workspace(p, lam)``, built here when not
    given; Phi and D come back in ``ws.phi`` and ``ws.d``.  Phi comes from
    ``_phase``, and D runs on the same ranges: its free-flight form on
    [a:b), its direct form on [0:a) and [b:c), and its approaching rewrite
    on [c:n).  D is written on every node, Phi on [lo:n) at least: the
    free-flight form, p tau at tau <= 0, skips the nodes before ``lo``.
    """
    if ws is None:
        ws = workspace(p, lam)
    phi, d = ws.phi, ws.d
    if tau <= 0.0:
        d.fill(tau)
        if lo < p.shape[0]:
            np.multiply(p[lo:], tau, out=phi[lo:])
        return phi, d
    a, b, c = _phase(p, ws.p2, ws.p3, ws.cubic, tau, lam, phi, ws.u, ws.s, lo)
    np.subtract(tau, ws.exit[a:b], out=d[a:b])
    for i, j in ((0, a), (b, c)):
        if i < j:
            mid = np.multiply(p[i:j], ws.s[i:j], out=d[i:j])
            np.subtract(ws.p2[i:j], mid, out=mid)
            mid *= 2.0
            mid /= lam
    # The approaching branch 2(p^2 - p sqrt(u))/lam is rewritten as
    # 2 p tau/(p + sqrt(u)) to avoid the cancellation near tau -> 0.  The
    # rewrite needs p + sqrt(u) > 0, so it holds only where u >= 0 and p > 0.
    # Its denominator overwrites sqrt(u), which nothing reads after it.
    if c < p.shape[0]:
        late = np.multiply(p[c:], 2.0 * tau, out=d[c:])
        late /= np.add(p[c:], ws.s[c:], out=ws.s[c:])
    return phi, d


def classical_position_profile(taus, q0, p, lam):
    """Closed-form relational trajectory q(tau) for conserved momentum p."""
    p2 = p * p
    if p2 == 0.0:  # free flight; a subnormal lam tau would round to u = 0 and 0/0
        return q0 + taus
    u = branch(p2, taus, lam)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = np.sqrt(np.abs(u) / p2)  # inf or NaN at p^2 -> 0, only in dropped lanes
        rising = q0 + 2.0 * taus / (1.0 + s)          # 0 <= tau <= p^2/lam
        returning = q0 + 2.0 * p2 * (1.0 + s) / lam   # p^2/lam <= tau <= 2 p^2/lam
    out = np.where(u >= 0.0, rising, np.where(before_exit(p2, taus, lam), returning,
                                              q0 + taus + 2.0 * p2 / lam))
    return np.where(taus <= 0.0, q0 + taus, out)


def _unit(theta, out=None):
    """exp(i theta) as ``cos theta`` and ``sin theta`` in the two float64
    slots of the complex ``out``."""
    out = np.empty(theta.shape, dtype=np.complex128) if out is None else out
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def apply_phase(amps, phase, hbar, out=None, theta=None):
    """Multiply amplitudes by exp(-i phase / hbar) into ``out``.

    The angle ``phase * (-1 / hbar)``, NumPy's bits of the imaginary part
    of ``-1j * phase / hbar``, goes to ``theta``; its cos and sin go to
    the real and imaginary slots of ``out``.  Either is allocated when not
    given.
    """
    psi = _unit(np.multiply(phase, -1.0 / hbar, out=theta), out)
    return np.multiply(amps, psi, out=psi)


def advance(x, amps, start, tau, lam, hbar):
    """Amplitudes on the ascending nodes x at scale start, carried to tau by
    the phase law: ``apply_phase`` of Phi(tau) - Phi(start)."""
    return apply_phase(amps, phase_profile(x, tau, lam) - phase_profile(x, start, lam),
                       hbar)


def _edge_rows(values):
    """12 h times rows 0 and 1 of the one-sided stencil of ``derivative``,
    from values[0:5] along the first axis, arrays or Python scalars; rows
    n-1 and n-2 are those of the reversed values at -h."""
    return [-25.0 * values[0] + 48.0 * values[1] - 36.0 * values[2]
            + 16.0 * values[3] - 3.0 * values[4],
            -3.0 * values[0] - 10.0 * values[1] + 18.0 * values[2]
            - 6.0 * values[3] + values[4]]


def derivative(values, h, out=None, work=None, _skip=0):
    """Fourth-order finite-difference derivative of the complex128 ``values``
    on a uniform grid (n >= 5).

    The derivative goes to ``out`` and the scratch 8 values of the interior
    stencil to ``work``, both shaped like ``values`` and allocated when not
    given.  The interior runs on the float64 views, two slots per value, and
    equals NumPy's complex arithmetic bit for bit, except that a zero can
    take the other sign where a component of ``values`` is +-0.  The four
    one-sided edge rows run on Python scalars with NumPy's bits.  ``_skip``
    = 2 leaves rows 0 and 1 unwritten, for a caller that drops them.
    """
    if values.shape[0] < 5:
        raise ResolutionError("derivative stencils need at least 5 grid nodes")
    d = np.empty_like(values) if out is None else out
    v, dv = values.view(np.float64), d.view(np.float64)
    eight = np.multiply(8.0, v[2:-2],
                        out=None if work is None else work.view(np.float64)[2:-2])
    inner = np.subtract(v[:-8], eight[:-4], out=dv[4:-4])
    inner += eight[4:]
    inner -= v[8:]
    # NumPy divides a complex array by c = 12 h + 0j as * (1 / c), and a
    # complex scalar z as (re + im r, im - re r) * (1 / c) with r = 0 / c
    c = 12.0 * h
    scale, r = 1.0 / c, 0.0 / c
    inner *= scale
    # 12 h times the edge rows n-2, n-1, then 0, 1, on Python scalars; rows
    # n-2 and n-1 keep their own expressions, as the reversed rows 0 and 1
    # at -h would flip the sign of a zero sum
    x0, x1, x2, x3, x4 = values[-5:].tolist()
    rows = [3.0 * x4 + 10.0 * x3 - 18.0 * x2 + 6.0 * x1 - x0,
            25.0 * x4 - 48.0 * x3 + 36.0 * x2 - 16.0 * x1 + 3.0 * x0]
    at = [-2, -1]
    if not _skip:
        rows += _edge_rows(values[:5].tolist())
        at += [0, 1]
    for i, z in zip(at, rows):
        d[i] = complex((z.real + z.imag * r) * scale, (z.imag - z.real * r) * scale)
    return d


# The products conj(v_x) v_y, x <= y, whose sums over stencil rows make
# the free part of a series' statistics, with v = (g, A1, A2, S1, S2) on row
# j, A_k = g[j+k] - g[j-k] and S_k = g[j+k] + g[j-k]: |g|^2, conj(g) V_r
# and the Hermitian conj(V_r) V_r' that |d|^2 reads.
_PAIRS = tuple((x, y) for x in range(5) for y in range(x, 5))
_LEAF = 8  # rows per leaf of the range sums; a free prefix is whole leaves


def row_leaves(g):
    """The products ``_PAIRS`` on the interior stencil rows 2 .. n-3 of g,
    summed pairwise over aligned leaves of ``_LEAF`` rows (the last one
    filled with zero rows), as a (15, ceil((n - 4) / _LEAF)) array.  The
    differences and sums of g come before any product, so the products
    keep the stencil's cancellation."""
    rows = g.shape[0] - 4
    v = np.zeros((5, -(-rows // _LEAF) * _LEAF), dtype=np.complex128)
    v[0, :rows] = g[2:-2]
    np.subtract(g[3:-1], g[1:-3], out=v[1, :rows])
    np.subtract(g[4:], g[:-4], out=v[2, :rows])
    np.add(g[3:-1], g[1:-3], out=v[3, :rows])
    np.add(g[4:], g[:-4], out=v[4, :rows])
    out = np.empty((len(_PAIRS), v.shape[1] // _LEAF), dtype=np.complex128)
    conj, term = np.empty((2, v.shape[1]), dtype=np.complex128)
    for row, (x, y) in zip(out, _PAIRS):
        if x == y:
            np.conj(v[x], out=conj)
        level = np.multiply(conj, v[y], out=term)
        while level.shape[0] > row.shape[0]:
            level = level[0::2] + level[1::2]
        row[:] = level
    return out


def block_sums(leaves):
    """(table, offsets): the pairwise sums of ``row_leaves`` over the
    aligned blocks of 2**l leaves, one block per row of the table, level l
    from row offsets[l] on, behind a row of zeros."""
    level, blocks = leaves, [np.zeros((leaves.shape[0], 1), dtype=np.complex128)]
    while level.shape[1]:
        blocks.append(level)
        even = level.shape[1] // 2 * 2
        level = level[:, 0:even:2] + level[:, 1:even:2]
    return (np.concatenate(blocks, axis=1).T.copy(),
            np.cumsum([block.shape[1] for block in blocks])[:-1])


def prefix_sums(table, offsets, counts):
    """The sums of the row products over their first ``counts * _LEAF``
    rows, for each count in the int array ``counts``, from ``block_sums``:
    one aligned block per set bit of the count, the smallest first; a
    (15, n_counts) array."""
    blocks = counts >> np.arange(offsets.shape[0])[:, None]
    rows = np.where(blocks & 1, offsets[:, None] + blocks - 1, 0)
    out = np.zeros((counts.shape[0], table.shape[1]), dtype=np.complex128)
    for level in rows:
        out += table[level]
    return out.T


def free_sums(g, h, lo, alpha):
    """Per sample, the start e of the tail that the tau loop evolves itself
    and the sums of |psi|^2, conj(psi) d and |d|^2 over the other stencil
    rows, where d is the stencil of psi at spacing h and, on the nodes
    [0:lo) before each sample's end lo, psi_j = g_j exp(-i j alpha) up to a
    unit factor.

    On a row whose five nodes all follow that law, 12 h d_j = exp(-i j
    alpha) (8 cos alpha A1 - cos 2 alpha A2 - 8 i sin alpha S1 + i sin 2
    alpha S2)_j, so a sum over such rows is a sum of ``row_leaves(g)``
    (``prefix_sums``, or over every leaf) weighted by cos and sin of alpha
    and 2 alpha.  The free rows are [2:e+2), with e the whole leaves below
    lo - 4, and the edge rows 0 and 1 when e > 0; the tail is [e:n), the
    first two rows of whose stencil are one-sided.  Once lo = n the tail is
    empty (e = n): the free rows are [2:n-2), and the four edge rows take
    their nodes as (5, n_samples) arrays.
    """
    n = g.shape[0]
    past = lo == n
    counts = np.where(past, 0, np.maximum(lo - 4, 0) // _LEAF)
    starts = np.where(past, n, counts * _LEAF)
    leaves = row_leaves(g)
    table, offsets = block_sums(leaves[:, :counts.max(initial=0)])
    sums = np.where(past, np.add.reduce(leaves, axis=1)[:, None],
                    prefix_sums(table, offsets, counts))
    a, b = 8.0 * np.cos(alpha), -np.cos(2.0 * alpha)
    c, s = -8.0 * np.sin(alpha), np.sin(2.0 * alpha)
    gram = dict(zip(_PAIRS, sums))  # sum conj(v_x) v_y at (x, y)
    scale = 1.0 / (12.0 * h)
    mean = scale * (a * gram[0, 1] + b * gram[0, 2]
                    + 1j * (c * gram[0, 3] + s * gram[0, 4]))
    q2 = (scale * scale) * (
        a * a * gram[1, 1].real + b * b * gram[2, 2].real + c * c * gram[3, 3].real
        + s * s * gram[4, 4].real
        + 2.0 * (a * b * gram[1, 2].real + c * s * gram[3, 4].real
                 - a * c * gram[1, 3].imag - a * s * gram[1, 4].imag
                 - b * c * gram[2, 3].imag - b * s * gram[2, 4].imag))
    turn = _unit(np.arange(5.0)[:, None] * -alpha)  # exp(-i k alpha), k = 0 .. 4
    head, tail = g[:5, None] * turn, g[-5:, None] * turn
    (d0, d1), (d2, d3), twelve_h = _edge_rows(head), _edge_rows(tail[::-1]), 12.0 * h
    d = np.stack((d0 / twelve_h, d1 / twelve_h, d2 / -twelve_h, d3 / -twelve_h))
    psi = np.stack((head[0], head[1], tail[4], tail[3]))
    edges = np.stack((starts > 0, starts > 0, past, past))
    norm = gram[0, 0].real + np.add.reduce(edges * (psi.real ** 2 + psi.imag ** 2))
    mean += np.add.reduce(edges * (np.conj(psi) * d))
    q2 += np.add.reduce(edges * (d.real ** 2 + d.imag ** 2))
    return starts, norm, mean, q2


def free_flight(p, h, amps, cubic, p2, taus, lam, hbar):
    """``free_sums`` of a series on the ascending uniform nodes p (spacing
    h, squares p2) from the amplitudes ``amps`` at tau = 0, at the
    increasing taus.

    A node past its exit has psi = g exp(-i p tau / hbar), with g the
    amplitudes themselves while tau <= 0 and amps exp(+i cubic / hbar)
    after, where cubic = (2/3) p^3 / lam.  Each tau's prefix of such nodes,
    from ``exit_split``, is empty when the first node is before its exit,
    and every node once tau <= 0.
    """
    a, b = exit_split(p, p2, taus, lam)
    lo = np.where(taus <= 0.0, p.shape[0], np.where(a > 0, 0, b))
    alpha = taus * (h / hbar)
    k = int(np.searchsorted(taus, 0.0, side="right"))
    parts = (free_sums(amps, h, lo[:k], alpha[:k]),
             free_sums(apply_phase(amps, -cubic, hbar), h, lo[k:], alpha[k:]))
    return tuple(np.concatenate(pair) for pair in zip(*parts))


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


class ChirpPlan(NamedTuple):
    """The factors of ``position_transform`` fixed by the two grids and hbar,
    built once by ``chirp_plan`` for every amplitude array on them."""

    ramp: np.ndarray    # exp(i q_0 (p_j - p_0) / hbar)
    pre: np.ndarray     # the chirp exp(i c j^2)
    kernel: np.ndarray  # FFT of the chirp exp(-i c m^2), m the circular k - j
    post: np.ndarray    # the chirp exp(i c k^2)
    shift: np.ndarray   # exp(i p_0 q_k / hbar)
    size: int           # the FFT length, a power of 2 >= n_p + n_q - 1
    n_q: int


def chirp_plan(p, q, hbar) -> ChirpPlan:
    """The plan of ``position_transform`` from nodes p onto nodes q.

    Both grids must be uniform with at least 2 nodes; the spacings are read
    from their ends.
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
    return ChirpPlan(np.exp(1j * q[0] * (p - p[0]) / hbar), _chirp(j * j, c),
                     np.fft.fft(_chirp(m * m, -c)), _chirp(k * k, c),
                     np.exp(1j * p[0] * q / hbar), size, n_q)


def position_transform(p, amps, q, hbar, plan=None):
    """Plane-wave quadrature sum_j amps_j exp(i p_j q_k / hbar) per q node.

    ``plan`` is ``chirp_plan(p, q, hbar)``, built here when not given; a
    reused plan gives the bits of a fresh one.
    With p_j = p_0 + j dp and q_k = q_0 + k dq,
    p_j q_k = p_0 q_k + q_0 (p_j - p_0) + dp dq jk, and
    jk = (j^2 + k^2 - (k-j)^2)/2 turns the sum into one convolution with the
    chirp exp(-i dp dq m^2 / 2hbar), evaluated by zero-padded FFTs
    (Bluestein's chirp-z algorithm).
    """
    if plan is None:
        plan = chirp_plan(p, q, hbar)
    y = amps * plan.ramp * plan.pre
    conv = np.fft.ifft(np.fft.fft(y, plan.size) * plan.kernel)[:plan.n_q]
    return conv * plan.post * plan.shift
