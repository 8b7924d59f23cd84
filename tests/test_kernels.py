"""Kernel checks: boundary snapping, stencil order, the free-flight plane
wave and the chirp-z transform against direct sums."""

import contextlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import turning_frame
from turning_frame import (FrameModel, GaussianSpec, MomentumGrid, evolve, make_gaussian,
                           to_position_representation)
from turning_frame import _kernels as K, quantum


def test_snap_produces_exact_boundary_values():
    """Values at fl(p^2/lam) land on the joint closed form exactly."""
    for p, lam in ((0.37, 2.9), (1.25, 4.0), (9.7, 0.13)):
        edge = p * p / lam
        _, d = K.phase_and_displacement(np.array([p]), edge, lam)
        assert d[0] == pytest.approx(2.0 * p * p / lam, abs=1e-12)


# -- reference: the allocating kernels the buffered ones must reproduce ----

_REF_SNAP = 8.0 * float(np.finfo(np.float64).eps)


def _ref_branch(p2, tau, lam):
    u = p2 - lam * tau
    u = np.where(np.abs(u) <= _REF_SNAP * p2, 0.0, u)
    return u, np.sqrt(np.abs(u))


def _ref_phase(p, p2, tau, lam, u, s, early):
    mid = (2.0 / 3.0) * (p2 * p - u * s) / lam
    return np.where(early, mid, p * tau - (2.0 / 3.0) * p2 * p / lam)


def ref_phase_and_displacement(p, tau, lam):
    if tau <= 0.0:
        return p * tau, np.full_like(p, tau)
    p2 = p * p
    u, s = _ref_branch(p2, tau, lam)
    early = p2 >= 0.5 * lam * tau
    approaching = (u >= 0.0) & (p > 0.0)
    denom = np.where(approaching, p + s, 1.0)
    mid = np.where(approaching, 2.0 * p * tau / denom, 2.0 * (p2 - p * s) / lam)
    late = tau - 2.0 * p2 / lam
    return _ref_phase(p, p2, tau, lam, u, s, early), np.where(early, mid, late)


def ref_apply_phase(amps, phase, hbar):
    return amps * np.exp(-1j * phase / hbar)


def ref_derivative(values, h):
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


# Grids reach p <= 0, where the displacement takes its direct form, and tau
# ranges over both sides of 0 and past the outer boundary 2 p^2 / lam.
@settings(max_examples=200, deadline=None)
@given(
    p_lo=st.floats(-3.0, 3.0),
    p_span=st.floats(0.0, 6.0),
    n=st.integers(1, 64),
    tau=st.floats(-5.0, 20.0),
    lam=st.floats(1e-3, 1e3),
)
@example(p_lo=-1.0, p_span=2.0, n=9, tau=0.25, lam=4.0)
def test_phase_profile_is_the_fused_phase(p_lo, p_span, n, tau, lam):
    """Both entry points give the reference's bits on ascending nodes."""
    p = np.linspace(p_lo, p_lo + p_span, n)
    phase, kernel = K.phase_and_displacement(p, tau, lam)
    ref_phase, ref_kernel = ref_phase_and_displacement(p, tau, lam)
    assert phase.tobytes() == ref_phase.tobytes()
    assert kernel.tobytes() == ref_kernel.tobytes()
    assert K.phase_profile(p, tau, lam).tobytes() == phase.tobytes()


@pytest.mark.parametrize("order", ["descending", "shuffled"])
def test_kernel_refuses_nodes_out_of_order(order):
    """The kernel and its workspace take ascending nodes only; repeats pass."""
    p = np.linspace(-1.0, 3.0, 16)
    p = p[::-1] if order == "descending" else np.random.default_rng(16).permutation(p)
    with pytest.raises(turning_frame.DomainError, match="ascending"):
        K.phase_and_displacement(p, 0.5, 4.0)
    with pytest.raises(turning_frame.DomainError, match="ascending"):
        K.workspace(p, 4.0)
    repeated = np.sort(np.concatenate((p, p[:4])))
    assert K.phase_and_displacement(repeated, 0.5, 4.0)[1].tobytes() == \
        ref_phase_and_displacement(repeated, 0.5, 4.0)[1].tobytes()


def test_no_branch_work_past_every_exit():
    """Past every exit the kernel returns the free-flight forms alone."""
    p, lam, tau = np.linspace(0.01, 5.0, 64), 4.0, 13.0  # every exit <= 12.5
    ws = K.workspace(p, lam)
    for scratch in (ws.u, ws.s):
        scratch.fill(np.nan)
    phase, kernel = K.phase_and_displacement(p, tau, lam, ws)
    assert phase.tobytes() == (p * tau - ws.cubic).tobytes()
    assert kernel.tobytes() == (tau - ws.exit).tobytes()
    assert np.isnan(ws.u).all() and np.isnan(ws.s).all()


# tau <= 0; free, returning and approaching nodes; past every exit; and a grid
# reaching p <= 0, whose turning form runs on [0:a), with lo inside [0:a)
@settings(max_examples=200, deadline=None)
@given(
    p_lo=st.floats(-3.0, 3.0),
    p_span=st.floats(0.0, 6.0),
    n=st.integers(1, 64),
    tau=st.floats(-5.0, 20.0),
    lam=st.floats(1e-3, 1e3),
    share=st.floats(0.0, 1.0),
)
@example(p_lo=0.01, p_span=4.99, n=64, tau=-1.0, lam=4.0, share=0.5)
@example(p_lo=0.01, p_span=4.99, n=64, tau=3.0, lam=4.0, share=0.25)
@example(p_lo=0.01, p_span=4.99, n=64, tau=20.0, lam=4.0, share=0.5)
@example(p_lo=-2.5, p_span=5.0, n=64, tau=1.0, lam=4.0, share=0.1)
def test_phase_from_a_start_index_is_the_full_phase_there(p_lo, p_span, n, tau, lam,
                                                          share):
    """With a start index lo the kernel gives the full call's Phi on [lo:n)
    and its D on every node, bit for bit."""
    p = np.linspace(p_lo, p_lo + p_span, n)
    lo = int(share * n)
    phase, kernel = (x.copy() for x in K.phase_and_displacement(p, tau, lam))
    ws = K.workspace(p, lam)
    ws.phi.fill(np.nan)
    got_phase, got_kernel = K.phase_and_displacement(p, tau, lam, ws, lo)
    assert got_phase[lo:].tobytes() == phase[lo:].tobytes()
    assert got_kernel.tobytes() == kernel.tobytes()


@pytest.mark.parametrize("tau", [-1.0, 0.0, 13.0])  # every exit <= 12.5
def test_no_phase_without_a_tail(tau):
    """A sample with no tail, at tau <= 0 or past every exit, writes no Phi."""
    p, lam = np.linspace(0.01, 5.0, 64), 4.0
    ws = K.workspace(p, lam)
    ws.phi.fill(np.nan)
    _, kernel = K.phase_and_displacement(p, tau, lam, ws, p.shape[0])
    assert np.isnan(ws.phi).all()
    assert kernel.tobytes() == ref_phase_and_displacement(p, tau, lam)[1].tobytes()


def test_single_call_builds_only_the_kernel_arrays():
    """Without a workspace the kernel builds its own, the eight arrays it
    touches, and nothing more; phase_profile holds Phi, its three invariants
    and two scratch arrays."""
    n = 4096
    p = np.linspace(0.01, 5.0, n)
    for call, arrays in ((K.phase_and_displacement, 9), (K.phase_profile, 7)):
        call(p, 4.0, 4.0)  # both branches run at tau = 4
        tracemalloc.start()
        try:
            call(p, 4.0, 4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= arrays * 8 * n, call.__name__


def _marked_tau(p, lam, pick):
    """tau at 0, a node's turning point p^2/lam or its exit 2 p^2/lam,
    moved by -1, 0 or +1 units in the last place."""
    node, multiple, ulps = pick
    tau = multiple * (p[node % p.size] ** 2 / lam)
    for _ in range(abs(ulps)):
        tau = np.nextafter(tau, ulps * np.inf)
    return float(tau)


_WIDE_PICKS = [(node, multiple, ulps) for node in range(0, 8192, 397)
               for multiple in (0.0, 1.0, 2.0) for ulps in (-1, 0, 1)]
# every 97th node's exit on the reference grid, where the nodes before
# their exit are a strict suffix
_EXIT_PICKS = [(node, 2.0, ulps) for node in range(0, 4096, 97) for ulps in (-1, 0, 1)]


# Grids reach p <= 0; tau sits on and one ulp beside 0, the turning points
# and the exits of the nodes, plus free values up past every exit.  One
# workspace serves every tau, in shuffled order, so a snap mask or branch
# select left by one tau that leaked into the next would show.
@settings(max_examples=60, deadline=None)
@given(
    p_lo=st.floats(-3.0, 3.0),
    p_span=st.floats(0.1, 6.0),
    n=st.integers(5, 64),
    lam=st.floats(1e-3, 1e3),
    hbar=st.floats(0.05, 2.0),
    picks=st.lists(st.tuples(st.integers(0, 2**16), st.sampled_from([0.0, 1.0, 2.0]),
                             st.integers(-1, 1)), max_size=12),
    free=st.lists(st.floats(-5.0, 20.0), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@example(p_lo=-2.5, p_span=8.0, n=8192, lam=4.0, hbar=1.0, picks=_WIDE_PICKS,
         free=list(np.linspace(-1.0, 16.0, 35)), seed=0)
@example(p_lo=0.01, p_span=4.99, n=4096, lam=4.0, hbar=1.0, picks=_EXIT_PICKS,
         free=[1e-5, 13.0], seed=0)  # before every turning point, past every exit
def test_buffered_kernels_equal_the_allocating_reference(p_lo, p_span, n, lam, hbar,
                                                         picks, free, seed):
    rng = np.random.default_rng(seed)
    p = np.linspace(p_lo, p_lo + p_span, n)
    h = p[1] - p[0]
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    taus = [_marked_tau(p, lam, pick) for pick in picks] + free
    rng.shuffle(taus)
    ws = K.workspace(p, lam)
    theta = np.empty(n)
    psi, stencil, work = np.empty((3, n), dtype=np.complex128)
    for tau in taus:
        phase, kernel = ref_phase_and_displacement(p, tau, lam)
        for got in (K.phase_and_displacement(p, tau, lam, ws),
                    K.phase_and_displacement(p, tau, lam)):
            assert got[0].tobytes() == phase.tobytes(), tau
            assert got[1].tobytes() == kernel.tobytes(), tau
        assert K.phase_profile(p, tau, lam).tobytes() == phase.tobytes(), tau
        evolved = ref_apply_phase(amps, phase, hbar)
        got = K.apply_phase(amps, phase, hbar, psi, theta)
        assert got.tobytes() == evolved.tobytes()
        assert K.apply_phase(amps, phase, hbar).tobytes() == evolved.tobytes()
        d = ref_derivative(evolved, h)
        assert K.derivative(evolved, h, stencil, work).tobytes() == d.tobytes()
        assert K.derivative(evolved, h).tobytes() == d.tobytes()


# Ascending grids, some crossing p = 0 and some with repeated nodes; tau
# sits on and one ulp beside 0, the turning points and the exits of the
# nodes, plus free values up past every exit.
@settings(max_examples=150, deadline=None)
@given(
    p_lo=st.floats(-3.0, 3.0),
    p_span=st.floats(0.0, 6.0),
    n=st.integers(1, 64),
    lam=st.floats(1e-3, 1e3),
    picks=st.lists(st.tuples(st.integers(0, 2**16), st.sampled_from([0.0, 1.0, 2.0]),
                             st.integers(-1, 1)), max_size=12),
    free=st.lists(st.floats(-5.0, 20.0), max_size=4),
)
@example(p_lo=-2.5, p_span=8.0, n=8192, lam=4.0, picks=_WIDE_PICKS,
         free=list(np.linspace(-1.0, 16.0, 35)))
@example(p_lo=0.01, p_span=4.99, n=4096, lam=4.0, picks=_EXIT_PICKS, free=[1e-5, 13.0])
@example(p_lo=-1.0, p_span=2.0, n=3, lam=1.0, picks=[],
         free=[1.0 + 2.0**-49, 1.0 - 2.0**-49])  # u = -+ the snap width exactly
def test_split_points_are_the_branch_masks(p_lo, p_span, n, lam, picks, free):
    """[0:a) and [b:n) are the before_exit mask, [c:n) the approaching one,
    and the snapped nodes exactly those with |u| <= 8 eps p^2.  One call over
    every tau gives each tau's (a, b), and the free-flight prefix taken from
    them is the run of leading nodes past their exit (every node at tau <= 0)."""
    p = np.linspace(p_lo, p_lo + p_span, n)
    p2 = p * p
    taus = [_marked_tau(p, lam, pick) for pick in picks] + free
    every_a, every_b = K.exit_split(p, p2, np.array(taus), lam)
    ends = np.where(np.array(taus) <= 0.0, n, np.where(every_a > 0, 0, every_b))
    for tau, a_k, b_k, end in zip(taus, np.broadcast_to(every_a, len(taus)),
                                  every_b, ends):
        a, b = K.exit_split(p, p2, tau, lam)
        assert (a, b) == (a_k, b_k), tau
        early = np.zeros(n, dtype=bool)
        early[:a] = early[b:] = True
        assert a <= b and np.array_equal(early, K.before_exit(p2, tau, lam)), tau
        assert end == (n if tau <= 0.0 else np.argmax(np.append(early, True))), tau

        u = p2 - lam * tau
        want, _ = _ref_branch(p2, tau, lam)
        assert K.branch(p2, tau, lam).tobytes() == want.tobytes(), tau
        got, band = u.copy(), np.zeros(n, dtype=bool)
        i, j = K.snap_band(got[b:], p2[b:])
        band[b + i:b + j] = True
        left, right = K.snap_band(got[:a][::-1], p2[:a][::-1])
        band[a - right:a - left] = True
        assert np.array_equal(band, np.abs(u) <= _REF_SNAP * p2), tau
        assert got[early].tobytes() == want[early].tobytes(), tau
        approaching = np.zeros(n, dtype=bool)
        approaching[b + i:] = True
        assert np.array_equal(approaching, (want >= 0.0) & (p > 0.0)), tau


def _not_power_of_two(x):
    return math.frexp(x)[0] != 0.5


# The kernels run complex-by-real-scalar arithmetic on float64 views; the
# references above are the complex expressions they replaced.  Values span
# twelve decades, and a share of their components (and of the phases) are
# exactly +-0, where NumPy's complex route adds a +-0 term of its own.
@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(5, 512),
    h=st.floats(1e-4, 1.0).filter(_not_power_of_two),
    hbar=st.floats(1e-3, 20.0).filter(_not_power_of_two),
    zero_share=st.sampled_from([0.0, 0.02, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=512, h=(5.0 - 0.01) / 511, hbar=1.0 / 3.0, zero_share=0.0, seed=1)
def test_real_view_kernels_equal_the_complex_expressions(n, h, hbar, zero_share, seed):
    rng = np.random.default_rng(seed)

    def floats(size):
        x = rng.normal(size=size) * 10.0 ** rng.uniform(-6.0, 6.0, size=size)
        zeros = rng.random(size) < zero_share
        x[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
        return x

    amps = floats(2 * n).view(np.complex128)
    phase = floats(n)
    theta = np.empty(n)
    psi, stencil, work = np.empty((3, n), dtype=np.complex128)
    evolved = ref_apply_phase(amps, phase, hbar)
    for got in (K.apply_phase(amps, phase, hbar, psi, theta),
                K.apply_phase(amps, phase, hbar)):
        assert np.array_equal(got.view(np.uint64), evolved.view(np.uint64))

    values = floats(2 * n).view(np.complex128)
    want = ref_derivative(values, h).view(np.float64)
    got = K.derivative(values, h, stencil, work).view(np.float64)
    assert np.array_equal(K.derivative(values, h).view(np.uint64), got.view(np.uint64))
    # only the sign of a zero may differ, and only beside a component that is +-0
    differ = got.view(np.uint64) != want.view(np.uint64)
    assert np.all(got[differ] == 0.0) and np.all(want[differ] == 0.0)
    assert not differ.any() or np.any(values.view(np.float64) == 0.0)


# Signed zeros, the smallest subnormal and normal angles (where glibc's cexp
# takes a shortcut of its own), pi/2 and huge angles.
_EXACT_ANGLES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                 -2.2250738585072014e-308, math.pi / 2, 1e22, -1e22, 1e300]


def test_apply_phase_at_exact_angles():
    """cos and sin of the angle are the bits of the complex exp it replaced."""
    theta = np.array(_EXACT_ANGLES)
    phase = -theta  # phase * (-1 / hbar) at hbar = 1 is the angle, sign of zero too
    angle, psi = np.empty(theta.shape), np.empty(theta.shape, dtype=np.complex128)
    for amps in (np.ones(theta.shape, dtype=np.complex128),
                 np.full(theta.shape, 1.5 - 0.25j)):
        want = ref_apply_phase(amps, phase, 1.0)
        for got in (K.apply_phase(amps, phase, 1.0, psi, angle),
                    K.apply_phase(amps, phase, 1.0)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(angle.view(np.uint64), theta.view(np.uint64))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_apply_phase_of_a_non_finite_phase_is_nan(bad):
    """An infinite angle warns, as NumPy's exp did; cos and sin of NaN do not."""
    with (pytest.warns(RuntimeWarning, match="invalid value") if math.isinf(bad)
          else contextlib.nullcontext()):
        got = K.apply_phase(np.ones(2, dtype=np.complex128), np.array([0.5, bad]), 1.0)
    assert got[0] == np.exp(-0.5j)
    assert np.isnan(got[1].real) and np.isnan(got[1].imag)


# An angle x t / hbar is off by a few eps (1 + |x| |t| / hbar), and each
# complex product adds a few eps more.
def _phase_bound(amps, x, t, hbar):
    eps = np.finfo(np.float64).eps
    return 8.0 * (1.0 + np.abs(x).max() * abs(t) / hbar) * eps * np.abs(amps)


@pytest.mark.parametrize("hbar", [0.75, 1.0])
def test_evolve_is_the_direct_phase(hbar):
    """On the reference grid from tau0 = -1, ``evolve`` before, across and past
    every exit agrees with exp(-i (Phi(tau) - Phi(tau0)) / hbar) to that bound."""
    model = FrameModel(lam=4.0, hbar=hbar)
    grid = MomentumGrid(0.01, 5.0, 4096)
    state = evolve(make_gaussian(GaussianSpec(4.0, 1.25, 1.0), grid, model), -1.0, model)
    p = grid.nodes
    for tau in (-0.5, 0.0, 3.0, 8.0, 16.0):
        phase = K.phase_profile(p, tau, model.lam) - K.phase_profile(p, -1.0, model.lam)
        got = evolve(state, tau, model).amps
        assert np.all(np.abs(got - ref_apply_phase(state.amps, phase, hbar))
                      <= _phase_bound(state.amps, p, tau + 1.0, hbar)), tau


# The free-flight sums on random amplitudes g with psi_j = g_j exp(-i j alpha),
# at every end lo of the nodes that follow that law: each sum equals the
# direct stencil's over the rows it covers, [0:e+2) for a tail from e > 0 or
# every row once lo = n, to a few eps of its scale (|psi|^2, |psi| c and c^2,
# with c = 128 max|psi| / 12 h over a row's five nodes, the largest stencil
# row weight): at most 2.9, 0.29 and 0.09 eps over 600 draws.  The block
# sums behind them equal np.add.reduce over the same rows to 2 log2(n) eps of
# the summed magnitudes, the two pairwise error bounds (at most 2.0 seen).
@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(8, 300),
    alpha=st.floats(-0.5, 0.5),
    h=st.floats(1e-3, 1.0),
    size=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=8, alpha=0.5, h=1.0, size=1.0, seed=0)  # one leaf of rows, no more
@example(n=300, alpha=-0.5, h=1e-3, size=1e3, seed=1)
def test_free_sums_are_the_direct_stencil_sums(n, alpha, h, size, seed):
    rng = np.random.default_rng(seed)
    g = size * (rng.normal(size=n) + 1j * rng.normal(size=n))
    eps = np.finfo(float).eps
    lo = np.arange(n + 1)
    starts, norm, mean, q2 = K.free_sums(g, h, lo, np.full(n + 1, alpha))
    assert starts[-1] == n and starts[:5].tolist() == [0] * 5
    psi = g * np.exp(-1j * alpha * np.arange(n))
    d = K.derivative(psi, h)
    mod = np.abs(psi)
    near = np.pad(mod, 2, mode="edge")
    c = 128.0 * np.max([near[k:k + n] for k in range(5)], axis=0) / (12.0 * h)
    for end, e in zip(lo, starts):
        assert e == n or (e % 8 == 0 and e <= max(end - 4, 0))
        rows = slice(0, n if e == n else e + 2 if e else 0)
        square = np.sum(mod[rows] ** 2)
        assert abs(norm[end] - square) <= 16 * eps * square
        assert abs(mean[end] - np.sum(np.conj(psi[rows]) * d[rows])) <= (
            4 * eps * np.sum(mod[rows] * c[rows]))
        assert abs(q2[end] - np.sum(np.abs(d[rows]) ** 2)) <= eps * np.sum(c[rows] ** 2)

    v = np.stack([g[2:-2], g[3:-1] - g[1:-3], g[4:] - g[:-4], g[3:-1] + g[1:-3],
                  g[4:] + g[:-4]])
    terms = np.stack([np.conj(v[x]) * v[y] for x, y in K._PAIRS])
    leaves = K.row_leaves(g)
    counts = np.arange((n - 4) // 8 + 1)
    got = np.concatenate([K.prefix_sums(*K.block_sums(leaves), counts),
                          np.add.reduce(leaves, axis=1)[:, None]], axis=1)
    for k, rows in enumerate([*(8 * counts), n - 4]):
        want = np.add.reduce(terms[:, :rows], axis=1)
        for part in ("real", "imag"):
            size = np.sum(np.abs(getattr(terms[:, :rows], part)), axis=1)
            miss = np.abs(getattr(got[:, k] - want, part))
            assert np.all(miss <= 2 * math.log2(n) * eps * size), (rows, part)


# Digests of ``advance`` before, across and past every exit and of each
# column of two series, at hbar = 1 and 0.75, so that the free-flight range
# sums run at two scales of alpha = h tau / hbar, on a state that comes
# from a complex exp, which calls libm: a real np.exp, as in make_gaussian's
# envelope, has other bits under AVX-512.
_STEP_DIGEST = """
import hashlib
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from turning_frame import FrameModel, MomentumGrid, MomentumState, expectation_series
from turning_frame import _kernels as K
grid = MomentumGrid(0.01, 5.0, 4096)
p, h = grid.nodes, grid.h
amps = np.exp(-(p - 1.25) ** 2 - 4j * p)
amps /= np.sqrt(np.add.reduce(np.abs(amps) ** 2) * h)
state = MomentumState(grid, amps, -1.0)
digest = hashlib.sha256()
for tau in (-0.5, 3.0, 8.0, 16.0):
    digest.update(K.advance(p, state.amps, -1.0, tau, 4.0, 1.0).tobytes())
taus = np.linspace(-1.0, 16.0, 35)
series = [expectation_series(state, taus, FrameModel(4.0, hbar))
          for hbar in (1.0, 0.75)]
print("x86_v4", __cpu_features__["X86_V4"])
print("step", digest.hexdigest())
for name in ("q_mean", "norm", "q_var"):
    print(name, hashlib.sha256(b"".join(getattr(s, name).tobytes()
                                         for s in series)).hexdigest())
"""


def _step_digest(**env):
    src = str(Path(turning_frame.__file__).parent.parent)
    run = subprocess.run([sys.executable, "-c", _STEP_DIGEST], capture_output=True,
                         text=True, check=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": src, **env})
    return dict(line.split() for line in run.stdout.splitlines())


def _dispatches_x86_v4():
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return False
    return "X86_V4" in __cpu_dispatch__ and __cpu_features__.get("X86_V4", False)


@pytest.fixture(scope="module")
def dispatch_digests():
    """The digests with AVX-512 dispatch on, and off in a fresh process."""
    if not _dispatches_x86_v4():
        pytest.skip("NumPy does not dispatch X86_V4 here")
    wide = _step_digest()
    narrow = _step_digest(NPY_DISABLE_CPU_FEATURES="AVX512_ICL AVX512_SPR X86_V4")
    assert (wide.pop("x86_v4"), narrow.pop("x86_v4")) == ("True", "False")  # it took
    return wide, narrow


def test_free_flight_bits_do_not_depend_on_avx512(dispatch_digests):
    """``advance`` and the free-flight range sums take cos, sin and complex
    products, whose bits hold with AVX-512 dispatch disabled in a fresh
    process."""
    wide, narrow = dispatch_digests
    for key in ("step", "q_mean"):
        assert narrow[key] == wide[key], key


def test_norm_and_variance_bits_do_not_depend_on_avx512(dispatch_digests):
    """The norm and variance sums square the float64 view and add in NumPy's
    fixed order; their bits hold with AVX-512 dispatch disabled."""
    wide, narrow = dispatch_digests
    for key in ("norm", "q_var"):
        assert narrow[key] == wide[key], key


def test_derivative_zero_sign_beside_an_exact_zero():
    """The pinned case: NumPy's complex 8 * (1 - 0j) is 8 + 0j, the view's 8 - 0j."""
    values = np.array([complex(0.0, -0.0), 0j, 0j, complex(1.0, -0.0), 0j])
    got, want = K.derivative(values, 0.3)[2], ref_derivative(values, 0.3)[2]
    assert got == want
    assert math.copysign(1.0, got.imag) == -1.0
    assert math.copysign(1.0, want.imag) == 1.0


# Components of moderate size, a large share of them exactly +-0, where the
# sign of a zero shows which arithmetic ran.
_COMPONENT = st.one_of(st.sampled_from([0.0, -0.0]),
                       st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(parts=st.lists(st.tuples(_COMPONENT, _COMPONENT), min_size=5, max_size=12),
       h=st.floats(1e-4, 10.0), negative=st.booleans())
@example(parts=[(0.0, -0.0), (-0.0, 0.0), (-0.0, 1.0), (0.0, 0.0), (-0.0, -0.0)],
         h=0.3, negative=False)
def test_derivative_edge_rows_are_the_complex_expressions(parts, h, negative):
    """The four edge rows, on Python scalars, are the bits of NumPy's complex
    scalar expressions, zeros' signs included, at either sign of h; with
    rows 0 and 1 skipped those stay unwritten and the rest holds."""
    h = -h if negative else h
    values = np.array([complex(re, im) for re, im in parts])
    edges = [0, 1, -2, -1]
    want = ref_derivative(values, h)[edges]
    got = K.derivative(values, h)
    assert np.array_equal(got[edges].view(np.uint64), want.view(np.uint64))
    out = np.full_like(values, 7.0)
    skipped = K.derivative(values, h, out=out, _skip=2)
    assert skipped is out and np.all(out[:2] == 7.0)
    assert np.array_equal(out[2:].view(np.uint64), got[2:].view(np.uint64))


# The truncation term stencils the modulus as complex values, whose rows
# are scaled by 1 / (12 h) where the real stencil divides by 12 h: a row
# moves by about an ulp, so the term by a few eps of the sum of its terms'
# magnitudes (at most 2.3 eps over 20000 random moduli).
@settings(max_examples=200, deadline=None)
@given(m=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e3)), min_size=5,
                  max_size=64),
       h=st.floats(1e-4, 1.0), hbar=st.floats(1e-3, 20.0))
@example(m=np.exp(-(np.linspace(0.01, 5.0, 64) - 1.25) ** 2).tolist(),
         h=(5.0 - 0.01) / 63, hbar=0.75)
def test_boundary_term_is_the_real_stencil_sum(m, h, hbar):
    m = np.array(m)
    terms = m * ref_derivative(m, h)
    want = hbar * np.add.reduce(terms) * h
    scale = hbar * np.add.reduce(np.abs(terms)) * h
    got = quantum._boundary_term(m, h, hbar)
    assert abs(got - want) <= 4.0 * np.finfo(float).eps * scale


def test_derivative_is_fourth_order():
    """Exact for quartics, converging at h^4 on a transcendental."""
    x = np.linspace(0.0, 1.0, 21)
    h = x[1] - x[0]
    poly = (x**4 - 2.0 * x**2 + 3.0 * x).astype(complex)
    expected = 4.0 * x**3 - 4.0 * x + 3.0
    np.testing.assert_allclose(K.derivative(poly, h), expected, atol=1e-11)

    errs = []
    for n in (41, 81):
        x = np.linspace(0.0, 1.0, n)
        h = x[1] - x[0]
        err = np.max(np.abs(K.derivative(np.exp(3j * x), h) - 3j * np.exp(3j * x)))
        errs.append(err)
    assert errs[0] / errs[1] > 12.0  # ~16 for a clean fourth order


# p and q windows: the lower end ranges over negative, zero-crossing and
# positive placements; the largest phase |p q| / hbar stays near 2000 rad,
# where the direct sum still resolves each term to ~1e-13.  The amplitudes
# are a noisy packet aimed at one q node, so the peak is a coherent sum and
# not a near-cancellation that would leave only the oracle's own rounding.
@settings(max_examples=150, deadline=None)
@given(
    n_p=st.integers(2, 4096),
    n_q=st.integers(2, 1500),
    hbar=st.floats(0.05, 2.0),
    p_lo=st.floats(-4.0, 2.0),
    p_span=st.floats(0.1, 6.0),
    q_lo=st.floats(-4.0, 4.0),
    q_span=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_p=4095, n_q=2, hbar=0.05, p_lo=2.0, p_span=6.0, q_lo=4.0,
         q_span=10.0, seed=0)
@example(n_p=3, n_q=1499, hbar=0.05, p_lo=-4.0, p_span=6.0, q_lo=-4.0,
         q_span=10.0, seed=1)
@example(n_p=8, n_q=2, hbar=2.0, p_lo=-0.05, p_span=0.1, q_lo=-3.0,
         q_span=1.0, seed=2)
def test_chirp_z_matches_direct_sum(n_p, n_q, hbar, p_lo, p_span, q_lo,
                                    q_span, seed):
    rng = np.random.default_rng(seed)
    p = np.linspace(p_lo, p_lo + p_span, n_p)
    q = np.linspace(q_lo, q_lo + q_span, n_q)
    target = q[rng.integers(n_q)]
    amps = rng.uniform(0.1, 1.0, n_p) * np.exp(
        1j * (rng.uniform(-0.5, 0.5, n_p) - p * target / hbar))
    direct = np.exp(1j * np.outer(q, p) / hbar) @ amps
    fast = K.position_transform(p, amps, q, hbar)
    peak = np.max(np.abs(direct))
    assert np.max(np.abs(fast - direct)) <= 1e-12 * peak


def test_position_representation_of_wide_state(wide_state, model):
    q = np.linspace(-2.0, 12.0, 701)
    profile = to_position_representation(wide_state, q, model)
    p = wide_state.grid.nodes
    direct = (np.exp(1j * np.outer(q, p) / model.hbar) @ wide_state.amps
              * wide_state.grid.h / np.sqrt(2.0 * np.pi * model.hbar))
    assert profile.coverage_ok
    assert profile.norm == pytest.approx(
        float(np.sum(np.abs(direct) ** 2) * (q[1] - q[0])), abs=1e-12)
    assert np.max(np.abs(profile.amps - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_reused_chirp_plan_gives_the_bits_of_a_fresh_transform(wide_state, model):
    """One plan serves every snapshot on its grids with the bits of a
    transform that plans for itself."""
    p = wide_state.grid.nodes
    q = np.linspace(-2.0, 12.0, 1051)
    for hbar in (1.0, 0.5):
        plan = K.chirp_plan(p, q, hbar)
        for tau in (-1.0, 0.0, 0.4, 0.75, 1.5):
            amps = evolve(wide_state, tau, model).amps
            reused = K.position_transform(p, amps, q, hbar, plan)
            fresh = K.position_transform(p, amps, q, hbar)
            assert reused.tobytes() == fresh.tobytes()
