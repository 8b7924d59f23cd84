"""Kernel checks: boundary snapping, stencil order, chirp-z vs direct sum."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from turning_frame import _kernels as K
from turning_frame import to_position_representation


def test_snap_produces_exact_boundary_values():
    """Values at fl(p^2/lam) land on the joint closed form exactly."""
    for p, lam in ((0.37, 2.9), (1.25, 4.0), (9.7, 0.13)):
        edge = p * p / lam
        d = K.displacement_profile(np.array([p]), edge, lam)[0]
        assert d == pytest.approx(2.0 * p * p / lam, abs=1e-12)


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
