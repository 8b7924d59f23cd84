"""Tests for domain types, Gaussian construction, and momentum moments."""

import dataclasses
import math

import numpy as np
import pytest

from turning_frame import (
    ClassicalState,
    DomainError,
    ExpectationSeries,
    FrameModel,
    GaussianMode,
    GaussianSpec,
    InvalidStateError,
    MomentumGrid,
    MomentumState,
    ResolutionError,
    load_momentum_csv,
    make_gaussian,
    moments,
    save_momentum_csv,
)

from conftest import REF_P0, REF_SIGMA, riemann


def test_frame_model_rejects_bad_parameters():
    with pytest.raises(DomainError):
        FrameModel(lam=0.0)
    with pytest.raises(DomainError):
        FrameModel(lam=-1.0)
    with pytest.raises(DomainError):
        FrameModel(lam=1.0, hbar=0.0)


def test_grid_validation():
    with pytest.raises(DomainError):
        MomentumGrid(1.0, 1.0, 8)
    with pytest.raises(DomainError):
        MomentumGrid(0.0, 1.0, 1)
    grid = MomentumGrid(0.0, 1.0, 11)
    assert grid.h == pytest.approx(0.1)
    assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 1.0


def test_gaussian_spec_requires_positive_sigma():
    with pytest.raises(DomainError):
        GaussianSpec(q0=0.0, p0=1.0, sigma=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_value_types_reject_non_finite_parameters(bad):
    for make in (
        lambda: FrameModel(lam=bad),
        lambda: FrameModel(lam=4.0, hbar=bad),
        lambda: GaussianSpec(q0=bad, p0=1.25, sigma=1.0),
        lambda: GaussianSpec(q0=4.0, p0=bad, sigma=1.0),
        lambda: GaussianSpec(q0=4.0, p0=1.25, sigma=bad),
        lambda: ClassicalState(q0=bad, p=1.25),
        lambda: MomentumGrid(bad, 5.0, 64),
    ):
        with pytest.raises(DomainError, match="finite"):
            make()


def test_make_gaussian_is_normalized_to_1e12(trunc_state, wide_state):
    assert abs(trunc_state.norm() - 1.0) < 1e-12
    assert abs(wide_state.norm() - 1.0) < 1e-12


def test_make_gaussian_truncate_mode_needs_positive_grid(ref_spec, model):
    grid = MomentumGrid(-1.0, 5.0, 2048)
    with pytest.raises(DomainError):
        make_gaussian(ref_spec, grid, model, mode=GaussianMode.TRUNCATE_POSITIVE)
    # same grid is fine verbatim
    state = make_gaussian(ref_spec, grid, model, mode=GaussianMode.RAW)
    assert abs(state.norm() - 1.0) < 1e-12


def test_make_gaussian_rejects_coarse_grid(ref_spec, model):
    # sigma_p = 0.5, so 6 sigma_p = 3; 16 nodes across that needs h <= 0.1875
    with pytest.raises(ResolutionError):
        make_gaussian(ref_spec, MomentumGrid(0.01, 5.0, 16), model)


@pytest.mark.parametrize("hbar, sigma", [
    (1.3407807929942597e154, 1.0),
    (1.3407807929942597e154, 1.3407807929942597e154),
], ids=["hbar", "sigma"])
def test_make_gaussian_overflowing_square_is_a_domain_error(trunc_grid, hbar, sigma):
    spec = GaussianSpec(q0=0.0, p0=REF_P0, sigma=sigma)
    with pytest.raises(DomainError, match="overflows"):
        make_gaussian(spec, trunc_grid, FrameModel(lam=4.0, hbar=hbar))


def test_make_gaussian_rejects_positive_reference_tau(ref_spec, trunc_grid, model):
    with pytest.raises(DomainError):
        make_gaussian(ref_spec, trunc_grid, model, tau0=0.5)


def test_wide_grid_moments_match_analytic_gaussian(wide_state):
    got = moments(wide_state)
    # minimum-uncertainty packet: <p> = p0, var = (hbar/(2 sigma))^2
    var = (1.0 / (2.0 * REF_SIGMA)) ** 2
    assert got.mean_p == pytest.approx(REF_P0, abs=1e-9)
    assert got.mean_p2 == pytest.approx(REF_P0**2 + var, abs=1e-9)
    assert got.var_p == pytest.approx(var, abs=1e-9)


def test_truncated_moments_match_erf_oracle(trunc_state):
    """Grid moments vs closed-form moments of the edge-truncated Gaussian."""
    a, b = trunc_state.grid.p_min, trunc_state.grid.p_max
    sig_p = 1.0 / (2.0 * REF_SIGMA)

    def phi(z):
        return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    def cdf(z):
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

    za, zb = (a - REF_P0) / sig_p, (b - REF_P0) / sig_p
    w = cdf(zb) - cdf(za)
    mean_z = (phi(za) - phi(zb)) / w
    mean_z2 = 1.0 + (za * phi(za) - zb * phi(zb)) / w
    mean_p = REF_P0 + sig_p * mean_z
    mean_p2 = REF_P0**2 + 2.0 * REF_P0 * sig_p * mean_z + sig_p**2 * mean_z2

    got = moments(trunc_state)
    # grid node-sum vs continuum integral differ by the O(h) edge cell
    assert got.mean_p == pytest.approx(mean_p, abs=5e-5)
    assert got.mean_p2 == pytest.approx(mean_p2, abs=2e-4)
    # headline numbers: within 1% of the untruncated values
    assert got.mean_p == pytest.approx(REF_P0, rel=0.01)
    assert got.mean_p2 == pytest.approx(1.8125, rel=0.01)
    # spot value pinned by the state itself
    assert got.mean_p2 == pytest.approx(1.8125, abs=0.02)


def test_moments_trivial_point_masses():
    grid = MomentumGrid(1.0, 3.0, 3)  # nodes 1, 2, 3 with h = 1
    delta = MomentumState(grid=grid, amps=np.array([0.0, 1.0, 0.0]), tau=0.0)
    got = moments(delta)
    assert got == pytest.approx((2.0, 4.0, 0.0))

    two_point = MomentumState(
        grid=grid, amps=np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0), tau=0.0
    )
    got = moments(two_point)
    assert got == pytest.approx((2.0, 5.0, 1.0))


def test_moments_rejects_unnormalized_state(trunc_grid):
    state = MomentumState(grid=trunc_grid, amps=np.ones(trunc_grid.n), tau=0.0)
    with pytest.raises(InvalidStateError):
        moments(state)


def test_moments_rejects_nan_state(trunc_grid):
    state = MomentumState(grid=trunc_grid, amps=np.full(trunc_grid.n, np.nan),
                          tau=0.0)
    with pytest.raises(InvalidStateError):
        moments(state)


def test_moment_convergence_on_doubling(ref_spec, model):
    """Doubling n on a decayed-support grid moves moments below 1e-8."""
    vals = []
    for n in (4096, 8192):
        grid = MomentumGrid(-2.5, 5.5, n)
        state = make_gaussian(ref_spec, grid, model, mode=GaussianMode.RAW)
        got = moments(state)
        vals.append((got.mean_p, got.mean_p2))
    assert abs(vals[0][0] - vals[1][0]) < 1e-8
    assert abs(vals[0][1] - vals[1][1]) < 1e-8


def test_variance_is_nonnegative_for_random_states(trunc_grid):
    rng = np.random.default_rng(7)
    for _ in range(25):
        amps = rng.normal(size=trunc_grid.n) + 1j * rng.normal(size=trunc_grid.n)
        amps /= np.sqrt(riemann(np.abs(amps) ** 2, trunc_grid.h))
        state = MomentumState(grid=trunc_grid, amps=amps, tau=0.0)
        assert moments(state).var_p >= 0.0


def test_phase_center_sets_position_anchor(trunc_grid, model):
    """q0 = 0 gives a zero position expectation at tau = 0."""
    from turning_frame import position_expectation_numeric

    spec = GaussianSpec(q0=0.0, p0=1.25, sigma=1.0)
    state = make_gaussian(spec, trunc_grid, model)
    assert position_expectation_numeric(state, model) == pytest.approx(0.0, abs=1e-9)


def test_expectation_series_validation():
    with pytest.raises(DomainError):
        ExpectationSeries(
            taus=np.array([0.0, 0.0]),
            q_mean=np.zeros(2),
            norm=np.ones(2),
        )
    with pytest.raises(InvalidStateError):
        ExpectationSeries(
            taus=np.array([0.0, 1.0]),
            q_mean=np.zeros(3),
            norm=np.ones(2),
        )


def test_expectation_series_is_immutable():
    q_var = np.zeros(2)
    series = ExpectationSeries(taus=[0.0, 1.0], q_mean=np.zeros(2),
                               norm=np.ones(2), q_var=q_var)
    with pytest.raises(dataclasses.FrozenInstanceError):
        series.q_mean = np.ones(2)
    for arr in (series.taus, series.q_mean, series.norm, series.q_var):
        assert arr.dtype == np.float64 and not arr.flags.writeable
    assert series.q_classical is None
    q_var[0] = 1.0  # the caller's array stays its own
    assert series.q_var[0] == 0.0


def test_momentum_state_csv_roundtrip(tmp_path, trunc_state):
    path = tmp_path / "state.csv"
    save_momentum_csv(trunc_state, path)
    loaded = load_momentum_csv(path, tau=trunc_state.tau)
    assert loaded.grid.n == trunc_state.grid.n
    assert loaded.grid.p_min == pytest.approx(trunc_state.grid.p_min)
    np.testing.assert_array_equal(loaded.amps, trunc_state.amps)
