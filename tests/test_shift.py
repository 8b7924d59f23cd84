"""Tests for shift formulas and the asymptotic extraction pipeline."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from turning_frame import (
    DomainError,
    ExpectationSeries,
    FrameModel,
    GaussianMode,
    GaussianSpec,
    InvalidStateError,
    MomentumGrid,
    NotAsymptoticError,
    ShiftConvention,
    asymptotic_tau_bound,
    classical_shift,
    evolve,
    expectation_series,
    extract_shift_numeric,
    make_gaussian,
    moments,
    position_expectation_analytic,
    quantum_shift_analytic,
    total_shift,
)


def test_quantum_shift_analytic_values(model):
    assert quantum_shift_analytic(1.8125, model) == pytest.approx(-0.90625)
    assert quantum_shift_analytic(2.0, model) == pytest.approx(-1.0)
    # same magnitude, opposite sign as the classical shift at p = 1
    assert quantum_shift_analytic(1.0, model) == pytest.approx(
        -classical_shift(1.0, model)
    )


def test_quantum_shift_analytic_rejects_nonpositive(model):
    with pytest.raises(DomainError):
        quantum_shift_analytic(0.0, model)


def test_total_shift_reference_value(model):
    assert total_shift(1.25, 0.25, model) == pytest.approx(-1.6875)


def test_total_shift_dispersionless_limit(model):
    assert total_shift(2.0, 0.0, model) == pytest.approx(-4.0)


def test_total_shift_mean_square_convention():
    model = FrameModel(lam=4.0, shift_convention=ShiftConvention.MEAN_SQUARE_MOMENTUM)
    assert total_shift(1.25, 0.25, model) == pytest.approx(-1.8125)


def test_total_shift_rejects_negative_variance(model):
    with pytest.raises(DomainError):
        total_shift(1.0, -0.1, model)


def test_synthetic_linear_series_recovery(trunc_state, model):
    """A manufactured exact line is recovered with zero residual."""
    anchor = position_expectation_analytic(trunc_state, 0.0, model)
    offset = quantum_shift_analytic(moments(trunc_state).mean_p2, model)
    taus = np.linspace(13.0, 16.0, 8)
    series = ExpectationSeries(
        taus=taus, q_mean=anchor + taus + offset, norm=np.ones_like(taus),
        q_var=np.zeros_like(taus), anchor=anchor,
    )
    report = extract_shift_numeric(series, trunc_state, model)
    assert report.delta_q_quantum_numeric == pytest.approx(offset, abs=1e-9)
    assert report.residual == pytest.approx(0.0, abs=1e-9)
    assert report.slope == pytest.approx(1.0, abs=1e-12)


def test_full_pipeline_reference_shift(trunc_state, model):
    taus = np.linspace(13.0, 16.0, 16)
    series = expectation_series(trunc_state, taus, model)
    report = extract_shift_numeric(series, trunc_state, model)
    assert report.delta_q_quantum_numeric == pytest.approx(-0.90625, rel=0.02)
    assert report.delta_q_total == pytest.approx(-1.6875, rel=0.02)
    assert report.residual < 1e-8
    assert report.extrapolation_tau == pytest.approx(12.5)
    assert report.convention is ShiftConvention.MEAN_MOMENTUM
    # consistency: numeric extraction equals -2 <p^2>/lambda from the state
    assert report.delta_q_quantum_numeric == pytest.approx(
        quantum_shift_analytic(moments(trunc_state).mean_p2, model), abs=1e-8
    )


def test_pipeline_mean_square_convention(ref_spec, trunc_grid):
    model = FrameModel(lam=4.0, shift_convention=ShiftConvention.MEAN_SQUARE_MOMENTUM)
    state = make_gaussian(ref_spec, trunc_grid, model)
    taus = np.linspace(13.0, 16.0, 8)
    report = extract_shift_numeric(
        expectation_series(state, taus, model), state, model
    )
    assert report.delta_q_total == pytest.approx(-1.8125, rel=0.02)


def test_extract_requires_enough_asymptotic_samples(trunc_state, model):
    taus = np.linspace(-1.0, 3.0, 32)  # all below 2 p_max^2 / lambda = 12.5
    series = expectation_series(trunc_state, taus, model)
    with pytest.raises(NotAsymptoticError) as err:
        extract_shift_numeric(series, trunc_state, model)
    assert "12.5" in str(err.value)


def test_extract_rejects_nonlinear_window(trunc_state, model):
    taus = np.linspace(13.0, 16.0, 8)
    series = ExpectationSeries(
        taus=taus, q_mean=taus + 0.02 * taus**2, norm=np.ones_like(taus),
        q_var=np.zeros_like(taus), anchor=0.0,
    )
    with pytest.raises(NotAsymptoticError):
        extract_shift_numeric(series, trunc_state, model)


def test_sign_reversal_across_random_states():
    """Quantum shift negative, classical positive, for admissible packets."""
    rng = np.random.default_rng(2024)
    for _ in range(8):
        lam = rng.uniform(2.0, 8.0)
        p0 = rng.uniform(0.8, 2.0)
        sigma = rng.uniform(0.8, 1.5)
        model = FrameModel(lam=lam)
        sig_p = model.hbar / (2.0 * sigma)
        grid = MomentumGrid(0.01, p0 + 6.0 * sig_p, 4096)
        state = make_gaussian(
            GaussianSpec(q0=rng.uniform(-2.0, 4.0), p0=p0, sigma=sigma),
            grid, model, mode=GaussianMode.TRUNCATE_POSITIVE,
        )
        bound = asymptotic_tau_bound(grid.p_max, model)
        taus = np.linspace(bound + 0.1, bound + 2.1, 6)
        report = extract_shift_numeric(
            expectation_series(state, taus, model), state, model
        )
        assert report.delta_q_quantum_numeric < 0.0
        assert report.delta_q_classical > 0.0
        assert report.slope == pytest.approx(1.0, abs=1e-3)


@settings(max_examples=16, deadline=None)
@given(n=st.sampled_from([4096, 8192]), lam=st.floats(2.0, 8.0),
       hbar=st.sampled_from([0.5, 1.0]), q0=st.floats(0.0, 6.0),
       p0=st.floats(1.0, 1.5), sigma=st.floats(0.7, 1.4),
       convention=st.sampled_from(ShiftConvention),
       tau0=st.sampled_from([0.0, -0.5]))
def test_numeric_shift_equals_closed_form_on_grid_moments(n, lam, hbar, q0, p0,
                                                          sigma, convention,
                                                          tau0):
    """Over the benchmark's shift domain the fit and the extrapolation add
    nothing: the numeric total equals the closed form on the state's own grid
    moments, for either convention and reference scale."""
    model = FrameModel(lam=lam, hbar=hbar, shift_convention=convention)
    grid = MomentumGrid(0.01, 5.0, n)
    state = evolve(make_gaussian(GaussianSpec(q0, p0, sigma), grid, model), tau0, model)
    bound = asymptotic_tau_bound(grid.p_max, model)
    taus = np.concatenate([np.linspace(-1.0, bound, 8, endpoint=False),
                           np.linspace(bound, 1.15 * bound, 4)])
    report = extract_shift_numeric(expectation_series(state, taus, model),
                                   state, model)
    stats = moments(state)
    assert abs(report.delta_q_total
               - total_shift(stats.mean_p, stats.var_p, model)) <= 1e-10


def test_hbar_invariance_of_total_shift(trunc_grid):
    """Fixed momentum distribution: the pipeline result ignores hbar."""
    results = {}
    for hbar in (0.5, 1.0, 2.0):
        model = FrameModel(lam=4.0, hbar=hbar)
        sigma = hbar  # keeps dp = 0.5 fixed
        state = make_gaussian(
            GaussianSpec(q0=4.0, p0=1.25, sigma=sigma), trunc_grid, model
        )
        taus = np.linspace(13.0, 16.0, 8)
        report = extract_shift_numeric(
            expectation_series(state, taus, model), state, model
        )
        results[hbar] = report.delta_q_total
    base = results[1.0]
    for hbar, value in results.items():
        assert value == pytest.approx(base, rel=1e-3)


def test_report_serialization_round_trip(trunc_state, model):
    taus = np.linspace(13.0, 16.0, 8)
    report = extract_shift_numeric(
        expectation_series(trunc_state, taus, model), trunc_state, model
    )
    payload = report.to_dict()
    assert payload["convention"] == "mean_momentum"
    with pytest.raises(InvalidStateError, match="residual"):
        dataclasses.replace(report, residual=-1.0)
    assert payload["delta_q_total"] == pytest.approx(
        payload["delta_q_quantum_numeric"] - payload["delta_q_classical"]
    )
