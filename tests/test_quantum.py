"""Tests for phase evolution, expectation routes, variance, and transforms."""

import dataclasses
import math
import operator
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from turning_frame import (
    Branch,
    ClassicalState,
    ConsistencyError,
    DomainError,
    FrameModel,
    GaussianSpec,
    InvalidStateError,
    MomentumGrid,
    MomentumState,
    ResolutionError,
    SpectralState,
    asymptotic_tau_bound,
    displacement_kernel,
    evolve,
    expectation_series,
    extract_shift_numeric,
    gauge_solution,
    make_gaussian,
    moments,
    phase_branch,
    phase_theta,
    phi_of_q,
    position_expectation_analytic,
    position_expectation_numeric,
    position_variance,
    propagate,
    q_of_phi,
    q_of_tau,
    quantum_shift_analytic,
    to_position_representation,
    total_phase,
    total_shift,
    unwind_phi,
)
from turning_frame import _kernels, quantum
from turning_frame.model import _check_norm, _norm
from turning_frame.quantum import position_plan, position_profile

from conftest import REF_LAMBDA, REF_P0, REF_Q0, REF_SIGMA, riemann

positive = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)


def kernel_oracle(tau, p, lam):
    """Test-side displacement kernel written directly from the branch forms."""
    if tau <= 0.0:
        return tau
    if p * p >= lam * tau:
        return 2.0 * (p * p - p * math.sqrt(p * p - lam * tau)) / lam
    if 2.0 * p * p >= lam * tau:
        return 2.0 * (p * p - p * math.sqrt(lam * tau - p * p)) / lam
    return tau - 2.0 * p * p / lam


# -- scalar phase laws ------------------------------------------------------

def test_phase_theta_examples(model):
    assert phase_theta(0.0, 1.0, model) == 0.0
    assert phase_theta(0.390625, 1.25, model) == pytest.approx(
        (2.0 / 3.0) * 1.25**3 / 4.0, abs=1e-15
    )
    assert phase_theta(-2.0, 1.0, model) == pytest.approx(-2.0)


def test_phase_theta_rejects_forbidden_frame_value(model):
    with pytest.raises(DomainError):
        phase_theta(0.26, 1.0, model)
    with pytest.raises(DomainError):
        phase_theta(0.1, -1.0, model)


def test_total_phase_branch_joints(model):
    # tau = p^2/lambda: approaching and receding forms both give (2/3)p^3/lambda
    assert total_phase(0.25, 1.0, model) == pytest.approx(1.0 / 6.0, abs=1e-14)
    # tau = 2p^2/lambda: receding and free forms both give (4/3)p^3/lambda... /4
    assert total_phase(0.5, 1.0, model) == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert total_phase(-2.0, 1.0, model) == pytest.approx(-2.0)


def test_phase_branch_ordering(model):
    assert phase_branch(-0.1, 1.0, model) == 1
    assert phase_branch(0.0, 1.0, model) == 1
    assert phase_branch(0.2, 1.0, model) == 2
    assert phase_branch(0.25, 1.0, model) == 2
    assert phase_branch(0.4, 1.0, model) == 3
    assert phase_branch(0.5, 1.0, model) == 3
    assert phase_branch(0.6, 1.0, model) == 4


@settings(max_examples=300, deadline=None)
@given(p=st.floats(1e-3, 1e3), lam=st.floats(1e-3, 1e3))
@example(p=5.258289681532501, lam=3.1093163368339667)
def test_phase_branch_names_the_formula_the_kernel_evaluates(p, lam):
    """At fl(p^2/lam), fl(2p^2/lam) and their neighbours the index follows
    the kernel: it never decreases, and it is <= 3 exactly where the kernel
    takes the in-potential formula, p*p >= 0.5*lam*tau."""
    model = FrameModel(lam=lam)
    taus = []
    for edge in (p * p / lam, 2.0 * p * p / lam):
        taus += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
    branches = [phase_branch(float(tau), p, model) for tau in taus]
    assert branches == sorted(branches)
    for tau, index in zip(taus, branches):
        assert (index <= 3) == (p * p >= 0.5 * lam * tau)


@settings(max_examples=300, deadline=None)
@given(p=positive, lam=positive)
def test_phase_continuity_at_boundaries(p, lam):
    model = FrameModel(lam=lam)
    edge = p * p / lam
    third = (2.0 / 3.0) * p**3 / lam
    assert total_phase(0.0, p, model) == pytest.approx(0.0, abs=1e-10)
    assert total_phase(edge, p, model) == pytest.approx(third, abs=1e-10)
    assert total_phase(2.0 * edge, p, model) == pytest.approx(2.0 * third, abs=1e-10)
    # theta joins its linear branch at phi = 0 and caps at the turning point
    assert phase_theta(0.0, p, model) == 0.0
    assert phase_theta(edge, p, model) == pytest.approx(third, abs=1e-10)


@settings(max_examples=300, deadline=None)
@given(p=positive, lam=positive)
def test_kernel_continuity_and_plateau(p, lam):
    model = FrameModel(lam=lam)
    edge = p * p / lam
    cap = 2.0 * p * p / lam
    assert displacement_kernel(0.0, p, model) == pytest.approx(0.0, abs=1e-10)
    assert displacement_kernel(edge, p, model) == pytest.approx(cap, abs=1e-10)
    assert displacement_kernel(2.0 * edge, p, model) == pytest.approx(0.0, abs=1e-10)
    # the per-component displacement peaks at the turning scale
    taus = np.linspace(0.0, 2.0 * edge, 101)
    values = [displacement_kernel(float(t), p, model) for t in taus]
    assert max(values) <= cap + 1e-12
    assert np.argmax(values) == 50


def test_kernel_examples(model):
    assert displacement_kernel(0.25, 1.0, model) == pytest.approx(0.5, abs=1e-14)
    # symmetric slowdown on both sides of the turning scale
    v1 = displacement_kernel(0.125, 1.0, model)
    v2 = displacement_kernel(0.375, 1.0, model)
    expected = 2.0 * (1.0 - math.sqrt(0.5)) / 4.0
    assert v1 == pytest.approx(expected, abs=1e-14)
    assert v2 == pytest.approx(expected, abs=1e-14)
    assert displacement_kernel(0.5, 1.0, model) == pytest.approx(0.0, abs=1e-14)
    assert displacement_kernel(-3.0, 1.0, model) == -3.0
    # the p^3 of the discarded phase overflows, a warning the suite turns
    # into an error; D = 2 p tau / (p + sqrt u) is tau
    assert displacement_kernel(1.0, 1e110, model) == 1.0


def test_kernel_matches_test_side_oracle(model):
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = rng.uniform(0.1, 10.0)
        tau = rng.uniform(-1.0, 3.0) * p * p / model.lam
        assert displacement_kernel(tau, p, model) == pytest.approx(
            kernel_oracle(tau, p, model.lam), rel=1e-12, abs=1e-12
        )


# -- evolution --------------------------------------------------------------

def test_evolve_identity_at_same_tau(trunc_state, model):
    out = evolve(trunc_state, trunc_state.tau, model)
    np.testing.assert_array_equal(out.amps, trunc_state.amps)


def test_evolve_is_pointwise_phase(trunc_state, model):
    for tau in (-1.0, 0.3, 0.75, 2.0, 16.0):
        out = evolve(trunc_state, tau, model)
        np.testing.assert_allclose(
            np.abs(out.amps), np.abs(trunc_state.amps), rtol=1e-15, atol=0.0
        )
        assert abs(out.norm() - 1.0) < 1e-9


def test_evolve_composes_through_intermediate_scales(trunc_state, model):
    direct = evolve(trunc_state, 2.0, model)
    stepped = evolve(evolve(trunc_state, 0.7, model), 2.0, model)
    np.testing.assert_allclose(stepped.amps, direct.amps, rtol=0, atol=1e-12)


def test_evolved_expectation_reference_value(trunc_state, model):
    """Late-scale expectation approaches q0 + tau - 2<p^2>/lambda."""
    evolved = evolve(trunc_state, 2.0, model)
    value = position_expectation_numeric(evolved, model)
    assert value == pytest.approx(4.0 + 2.0 - 2.0 * 1.8125 / 4.0, rel=0.02)


# -- expectation routes -----------------------------------------------------

def test_numeric_expectation_at_anchor(trunc_state, model):
    assert position_expectation_numeric(trunc_state, model) == pytest.approx(
        REF_Q0, abs=1e-6
    )


def test_numeric_expectation_pre_turning_translation(trunc_state, model):
    evolved = evolve(trunc_state, -1.0, model)
    assert position_expectation_numeric(evolved, model) == pytest.approx(
        3.0, abs=1e-6
    )


def test_routes_agree_across_the_turning_region(trunc_state, model):
    for tau in np.linspace(-1.0, 3.0, 17):
        numeric = position_expectation_numeric(evolve(trunc_state, tau, model), model)
        analytic = position_expectation_analytic(trunc_state, tau, model)
        assert numeric == pytest.approx(analytic, abs=1e-5)


def test_analytic_expectation_is_exact_before_potential(trunc_state, model):
    anchor = position_expectation_analytic(trunc_state, 0.0, model)
    for tau in (-2.0, -0.5):
        assert position_expectation_analytic(trunc_state, tau, model) == pytest.approx(
            anchor + tau, abs=1e-12
        )


def test_analytic_expectation_reaches_asymptotic_line(trunc_state, model):
    stats = moments(trunc_state)
    bound = 2.0 * trunc_state.grid.p_max**2 / REF_LAMBDA
    anchor = position_expectation_analytic(trunc_state, 0.0, model)
    for tau in (bound, bound + 1.7):
        expected = anchor + tau - 2.0 * stats.mean_p2 / REF_LAMBDA
        assert position_expectation_analytic(
            trunc_state, tau, model
        ) == pytest.approx(expected, abs=1e-10)


def test_turning_region_expectation_against_quadrature_oracle(wide_state, model):
    """Mid-region value from an independent test-side quadrature."""
    p = wide_state.grid.nodes
    dens = np.abs(wide_state.amps) ** 2
    oracle = REF_Q0 + riemann(
        dens * np.array([kernel_oracle(0.3, pi, REF_LAMBDA) for pi in p]),
        wide_state.grid.h,
    )
    got = position_expectation_analytic(wide_state, 0.3, model)
    assert got == pytest.approx(oracle, abs=1e-9)
    # strictly below the classical trajectory at the mean momentum, above q0
    classical = q_of_tau(0.3, ClassicalState(q0=REF_Q0, p=REF_P0), model)
    assert REF_Q0 < got < classical
    assert got == pytest.approx(4.3008, abs=2e-3)


def test_analytic_route_requires_pre_turning_reference(trunc_state, model):
    evolved = evolve(trunc_state, 1.0, model)
    with pytest.raises(DomainError):
        position_expectation_analytic(evolved, 2.0, model)


def test_routes_consistent_from_negative_reference(ref_spec, trunc_grid, model):
    state = evolve(make_gaussian(ref_spec, trunc_grid, model), -0.5, model)
    assert state.tau == -0.5
    got = position_expectation_analytic(state, 0.3, model)
    base = make_gaussian(ref_spec, trunc_grid, model)
    assert got == pytest.approx(
        position_expectation_analytic(base, 0.3, model), abs=1e-9
    )


def test_fd_convergence_is_at_least_second_order(ref_spec, model):
    """Halving h shrinks the route discrepancy by >= 4 (observed order >= 2)."""
    errs = []
    for n in (2048, 4095):
        grid = MomentumGrid(0.01, 5.0, n)
        state = make_gaussian(ref_spec, grid, model)
        worst = 0.0
        for tau in np.linspace(-1.0, 3.0, 9):
            numeric = position_expectation_numeric(evolve(state, tau, model), model)
            analytic = position_expectation_analytic(state, tau, model)
            worst = max(worst, abs(numeric - analytic))
        errs.append(worst)
    assert errs[0] / errs[1] >= 4.0


# -- variance ---------------------------------------------------------------

def test_variance_starts_at_sigma_squared(wide_state, model):
    assert position_variance(wide_state, model) == pytest.approx(1.0, abs=1e-4)


def test_variance_asymptote_matches_fourth_moment_oracle(wide_state, model):
    # sigma^2 + Var(2 p^2/lambda) with Gaussian fourth moments:
    # Var(p^2) = 4 p0^2 dp^2 + 2 dp^4
    dp2 = (1.0 / (2.0 * REF_SIGMA)) ** 2
    var_p2 = 4.0 * REF_P0**2 * dp2 + 2.0 * dp2**2
    expected = REF_SIGMA**2 + 4.0 * var_p2 / REF_LAMBDA**2
    assert expected == pytest.approx(1.421875)
    got = position_variance(evolve(wide_state, 16.0, model), model)
    assert got == pytest.approx(expected, rel=0.02)


def test_variance_grows_through_turning_region(wide_state, model):
    """The spread rises above its initial value near the turning scale and
    keeps growing toward the asymptote (dispersion accumulates; the
    turning-scale value stays below sigma^2 + tau*^2 because the
    displacement kernel is bounded by 2*tau there)."""
    tau_star = REF_P0**2 / REF_LAMBDA
    v0 = position_variance(wide_state, model)
    v_star = position_variance(evolve(wide_state, tau_star, model), model)
    v_late = position_variance(evolve(wide_state, 16.0, model), model)
    assert v_star > v0
    assert v_star < v_late
    assert v_star < REF_SIGMA**2 + tau_star**2 + 1e-2


# components whose squares are subnormal, ordinary, and near the top of the
# range, of either sign
component = st.builds(operator.mul, st.sampled_from([-1.0, 1.0]), st.one_of(
    st.just(0.0), st.floats(1e-161, 1e-159), st.floats(0.1, 10.0),
    st.floats(1e149, 1e151)))


@settings(max_examples=300, deadline=None)
@given(parts=st.lists(st.tuples(component, component), min_size=1, max_size=64),
       h=st.floats(1e-3, 1.0), scratch=st.booleans())
@example(parts=[(1e-160, -1e-160)] * 5, h=0.5, scratch=False)
@example(parts=[(1e150, 3.0), (1e-160, 0.0)], h=0.01, scratch=True)
def test_norm_and_variance_sums_match_the_hypot_forms(parts, h, scratch):
    """The squares of the float64 view sum to the old sqrt(sum |z|^2 h) and
    hbar^2 sum |z|^2 h, from np.square(np.abs(z)), to a few eps n relative;
    a subnormal square may round by one unit of 2^-1074 either way."""
    z = np.array([complex(re, im) for re, im in parts])
    n, eps = z.shape[0], np.finfo(float).eps
    out = np.empty(2 * n) if scratch else None
    old = np.add.reduce(np.square(np.abs(z))) * h
    tiny = 4 * n * 2.0**-1074
    assert abs(quantum._variance(z, 0.0, h, 1.0, out) - old) <= 4 * n * eps * old + tiny
    assert abs(_norm(z, h) - math.sqrt(old)) <= (
        (4 * n + 2) * eps * math.sqrt(old) + math.sqrt(tiny))


@pytest.mark.parametrize("amps", [[1e155, 1.0], [complex(1e154, 1e154), 0.0]],
                         ids=["square-overflows", "sum-overflows"])
def test_overflowing_norm_is_infinite_and_refused(amps):
    """An amplitude whose square, or the sum of two finite squares, overflows
    gives an infinite norm and no RuntimeWarning; ``_check_norm`` refuses it."""
    norm = _norm(np.array(amps, dtype=complex), 0.5)
    assert norm == math.inf
    with pytest.raises(InvalidStateError, match="inf"):
        _check_norm(norm)


def test_variance_with_overflowing_hbar_squared_is_a_domain_error(trunc_state):
    model = FrameModel(lam=REF_LAMBDA, hbar=1.3407807929942597e154)
    with pytest.raises(DomainError, match="overflows"):
        position_variance(trunc_state, model)


def test_variance_decomposition(wide_state, model):
    """Variance = (width term) + Var_density(D) at any scale."""
    tau = 0.8
    p = wide_state.grid.nodes
    h = wide_state.grid.h
    dens = np.abs(wide_state.amps) ** 2
    d_vals = np.array([kernel_oracle(tau, pi, REF_LAMBDA) for pi in p])
    mean_d = riemann(dens * d_vals, h)
    var_d = riemann(dens * (d_vals - mean_d) ** 2, h)
    got = position_variance(evolve(wide_state, tau, model), model)
    assert got == pytest.approx(REF_SIGMA**2 + var_d, abs=5e-3)


# -- position representation ------------------------------------------------

@pytest.fixture(scope="module")
def q_window():
    return np.linspace(-2.0, 12.0, 1401)


def test_position_profile_is_initial_gaussian(wide_state, model, q_window):
    profile = to_position_representation(wide_state, q_window, model)
    assert profile.coverage_ok
    assert profile.norm == pytest.approx(1.0, abs=1e-3)
    rho = np.abs(profile.amps) ** 2
    dq = q_window[1] - q_window[0]
    center = riemann(rho * q_window, dq) / profile.norm
    spread = riemann(rho * (q_window - center) ** 2, dq) / profile.norm
    assert center == pytest.approx(REF_Q0, abs=1e-6)
    assert spread == pytest.approx(REF_SIGMA**2, rel=0.01)


def test_position_profile_translates_rigidly_before_potential(
    wide_state, model, q_window
):
    profile = to_position_representation(evolve(wide_state, -1.0, model), model=model,
                                         q_grid=q_window)
    rho = np.abs(profile.amps) ** 2
    dq = q_window[1] - q_window[0]
    center = riemann(rho * q_window, dq) / profile.norm
    assert center == pytest.approx(REF_Q0 - 1.0, abs=1e-5)


def test_position_profile_skews_in_turning_window(wide_state, model, q_window):
    profile = to_position_representation(evolve(wide_state, 0.75, model), q_window,
                                         model)
    rho = np.abs(profile.amps) ** 2
    dq = q_window[1] - q_window[0]
    m0 = riemann(rho, dq)
    m1 = riemann(rho * q_window, dq) / m0
    m2 = riemann(rho * (q_window - m1) ** 2, dq) / m0
    m3 = riemann(rho * (q_window - m1) ** 3, dq) / m0
    assert abs(m3 / m2**1.5) > 0.05


def test_position_profile_flags_poor_coverage(wide_state, model):
    narrow = np.linspace(3.0, 5.0, 301)
    profile = to_position_representation(wide_state, narrow, model)
    assert not profile.coverage_ok


def test_position_profile_rejects_nonuniform_grid(wide_state, model):
    """Uneven and non-finite nodes alike; a NaN step compares False."""
    for q_grid in ([0.0, 1.0, 3.0], [0.0, math.nan, 2.0], [0.0, 1.0, math.inf]):
        with pytest.raises(DomainError, match="evenly spaced"):
            to_position_representation(wide_state, np.array(q_grid), model)
    for q_grid in (np.zeros((2, 2)), np.array([1.0])):
        with pytest.raises(DomainError, match="1-d array with at least 2 nodes"):
            to_position_representation(wide_state, q_grid, model)


def test_position_profile_rejects_non_increasing_grid(wide_state, model):
    """A descending or repeated grid would give a negative or zero norm."""
    for q_grid in ([2.0, 1.0], np.linspace(12.0, -2.0, 101), [1.0, 1.0]):
        with pytest.raises(DomainError, match="^q_grid must be strictly increasing$"):
            to_position_representation(wide_state, q_grid, model)


def test_position_plan_keeps_its_own_q_grid(wide_state, model, q_window):
    """A plan copies the caller's q grid: writing into that array later
    relabels no profile, and the caller's array stays writeable."""
    q = q_window.copy()
    plan = position_plan(wide_state.grid, q, model)
    q += 5.0
    profile = position_profile(wide_state, plan)
    assert q.flags.writeable
    assert profile.q.tobytes() == q_window.tobytes()
    assert profile.coverage_ok
    assert to_position_representation(wide_state, q_window, model).q is not q_window


def test_value_types_hold_read_only_arrays(trunc_state, wide_state, model, q_window):
    values = [trunc_state, SpectralState([1.0, 2.0], [0.6, 0.8]),
              expectation_series(trunc_state, [0.0, 1.0], model),
              to_position_representation(wide_state, q_window, model)]
    for value in values:
        arrays = [getattr(value, f.name) for f in dataclasses.fields(value)
                  if isinstance(getattr(value, f.name), np.ndarray)]
        assert arrays, type(value).__name__  # not vacuous
        for arr in arrays:
            assert not arr.flags.writeable, type(value).__name__
    # the grid's nodes are built once, on first use, with linspace's bits
    grid = trunc_state.grid
    assert grid.nodes is grid.nodes and not grid.nodes.flags.writeable
    assert grid.nodes.tobytes() == np.linspace(grid.p_min, grid.p_max, grid.n).tobytes()
    assert dataclasses.asdict(grid) == {"p_min": grid.p_min, "p_max": grid.p_max, "n": grid.n}
    twin = MomentumGrid(grid.p_min, grid.p_max, grid.n)
    assert twin == grid and hash(twin) == hash(grid)


def test_position_plan_refuses_a_state_on_another_grid(wide_state, trunc_state,
                                                       model, q_window):
    plan = position_plan(wide_state.grid, q_window, model)
    assert position_profile(wide_state, plan).coverage_ok
    with pytest.raises(DomainError, match="is not the planned"):
        position_profile(trunc_state, plan)


def test_nan_state_is_refused_before_rendering(wide_grid):
    with pytest.raises(InvalidStateError):
        MomentumState(grid=wide_grid, amps=np.full(wide_grid.n, np.nan), tau=0.0)


# -- expectation series -----------------------------------------------------

def test_series_pre_turning_translation(trunc_state, model):
    series = expectation_series(trunc_state, np.array([-1.0, 0.0]), model)
    anchor = series.q_mean[1]
    np.testing.assert_allclose(series.q_mean, [anchor - 1.0, anchor], atol=1e-12)
    np.testing.assert_allclose(series.norm, 1.0, atol=1e-9)


def test_series_late_slope_is_unity(trunc_state, model):
    taus = np.linspace(13.0, 16.0, 16)
    series = expectation_series(trunc_state, taus, model)
    slope = np.polyfit(series.taus, series.q_mean, 1)[0]
    assert slope == pytest.approx(1.0, abs=1e-3)


def test_series_carries_variance_and_anchor(trunc_state, model):
    taus = np.linspace(-0.5, 1.0, 7)
    series = expectation_series(trunc_state, taus, model)
    assert np.all(series.q_var > 0.0)
    assert series.anchor == pytest.approx(REF_Q0, abs=1e-9)


def test_series_rejects_unordered_taus(trunc_state, model):
    with pytest.raises(DomainError):
        expectation_series(trunc_state, np.array([0.0, 0.0, 1.0]), model)
    with pytest.raises(DomainError, match="non-empty"):
        expectation_series(trunc_state, [], model)


@settings(max_examples=25, deadline=None)
@given(q0=st.floats(0.0, 6.0), p0=st.floats(1.0, 1.5), sigma=st.floats(0.7, 1.4),
       lam=st.floats(2.0, 8.0), hbar=st.floats(0.5, 1.0),
       tau0=st.sampled_from([0.0, -0.5]),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5, unique=True))
def test_series_equals_single_tau_functions(q0, p0, sigma, lam, hbar, tau0,
                                            fractions):
    """Over the benchmark's shift domain (grid [0.01, 5] x 4096, tau from -1
    to 1.15 times the asymptotic bound) every series mean is bit-identical to
    the single-tau functions, its norm and variance equal theirs to rounding,
    and the two expectation routes agree to 1e-4."""
    model = FrameModel(lam=lam, hbar=hbar)
    grid = MomentumGrid(0.01, 5.0, 4096)
    state = evolve(make_gaussian(GaussianSpec(q0, p0, sigma), grid, model), tau0, model)
    stop = 1.15 * 2.0 * grid.p_max**2 / lam
    taus = np.unique(-1.0 + np.array(fractions) * (stop + 1.0))
    _assert_series_equals_single_tau_functions(state, taus, model)


def test_wide_series_equals_single_tau_functions(wide_state, model):
    """The same on the 8192-node raw grid [-2.5, 5.5], whose nodes p <= 0
    take the direct form of the displacement kernel."""
    taus = np.linspace(-1.0, 16.0, 35)
    series = _assert_series_equals_single_tau_functions(wide_state, taus, model)
    np.testing.assert_allclose(series.q_mean[:3], [3.0, 3.5, 4.0], atol=1e-9)


# The series sums the free-flight rows of its norm and variance as range sums
# of tau-invariant products (_kernels.free_flight), the single-tau functions
# node by node, so those two agree to rounding: the norm to 4 eps, the
# variance to 64 eps of <q^2> = q_var + q_mean^2, from which it cancels (at
# most 7.8 eps over 120 draws of the shift domain).  The mean is the analytic
# route either way.  A series runs from the state carried to tau = 0, so a
# state at tau < 0 gives the bits of the series of that carried state.
def _assert_series_equals_single_tau_functions(state, taus, model):
    series = expectation_series(state, taus, model)
    at_zero = expectation_series(evolve(state, 0.0, model), taus, model)
    for name in ("taus", "q_mean", "norm", "q_var"):
        assert getattr(at_zero, name).tobytes() == getattr(series, name).tobytes(), name
    assert at_zero.anchor == series.anchor
    eps = np.finfo(float).eps
    # D(0, p) = 0, so the analytic route at tau = 0 is the anchor itself
    assert series.anchor == position_expectation_analytic(state, 0.0, model)
    for k, tau in enumerate(taus):
        evolved = evolve(state, tau, model)
        analytic = position_expectation_analytic(state, tau, model)
        assert series.q_mean[k] == analytic
        assert abs(series.norm[k] - evolved.norm()) <= 4 * eps
        second_moment = series.q_var[k] + series.q_mean[k] ** 2
        assert abs(series.q_var[k] - position_variance(evolved, model)) <= (
            64 * eps * second_moment)
        assert abs(position_expectation_numeric(evolved, model) - analytic) <= 1e-4
    return series


def test_series_runs_one_stencil_per_tau(trunc_state, model, monkeypatch):
    """The tau-invariant stencils run once per series, not once per sample,
    and the shift fit reuses the series' anchor instead of running any."""
    calls = []
    genuine = _kernels.derivative

    def counted(values, h, **buffers):
        calls.append(values.shape)
        return genuine(values, h, **buffers)

    monkeypatch.setattr(_kernels, "derivative", counted)
    taus = np.linspace(-1.0, 16.0, 41)
    series = expectation_series(trunc_state, taus, model)
    assert len(calls) <= taus.size + 3
    calls.clear()
    extract_shift_numeric(series, trunc_state, model)
    assert len(calls) == 0
    position_variance(evolve(trunc_state, 0.5, model), model)
    assert len(calls) == 1


def test_entirely_free_samples_run_no_per_node_kernel(trunc_state, model, monkeypatch):
    """A sample at tau <= 0 or past every exit, tau > 2 p_max^2 / lam, takes its
    numeric route from the free-flight range sums alone: the kernels that
    evolve or stencil a state run as often for 41 such samples as for one,
    while a sample with a tail adds its one step and one stencil."""
    counts = {}
    for name in ("derivative", "apply_phase"):
        def counted(*args, _name=name, _genuine=getattr(_kernels, name), **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _genuine(*args, **kwargs)
        monkeypatch.setattr(_kernels, name, counted)

    def calls(taus):
        counts.clear()
        expectation_series(trunc_state, taus, model)
        return dict(counts)

    past = 2.0 * trunc_state.grid.p_max ** 2 / model.lam
    once = calls([0.0])
    assert calls(np.concatenate([np.linspace(-1.0, 0.0, 21),
                                 np.linspace(past + 0.2, past + 4.0, 20)])) == once
    assert calls([0.0, 5.0]) == {**once, "derivative": once["derivative"] + 1,
                                 "apply_phase": once["apply_phase"] + 1}


# The per-sample floor: Python calls and C calls (NumPy functions and
# methods, builtins; ufuncs fire no profile event) per tau of the reference
# series, its per-series work shared out over the samples.  It reads 37.7
# on CPython 3.11 with NumPy 2.4, so per-sample overhead that creeps back
# into the loop fails here, without any timing.
CALLS_PER_TAU_CEILING = 39.0


def test_series_calls_per_tau_stay_under_the_ceiling(trunc_state, model):
    taus = np.linspace(-1.0, 16.0, 341)
    expectation_series(trunc_state, taus, model)  # first-call work off the count
    events = {"call": 0, "c_call": 0}

    def count(frame, event, arg):
        if event in events:
            events[event] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        expectation_series(trunc_state, taus, model)
    finally:
        sys.setprofile(previous)
    per_tau = (events["call"] + events["c_call"]) / taus.size
    assert 0.0 < per_tau <= CALLS_PER_TAU_CEILING, per_tau


def test_series_cross_check_flags_inconsistent_routes(trunc_state, model):
    """A coarse grid degrades the numeric route enough to trip the guard."""
    grid = MomentumGrid(0.01, 5.0, 96)
    state = make_gaussian(
        GaussianSpec(q0=REF_Q0, p0=REF_P0, sigma=REF_SIGMA), grid,
        FrameModel(lam=REF_LAMBDA)
    )
    with pytest.raises(ConsistencyError):
        expectation_series(state, np.array([0.2, 0.5, 0.9]), model)


# -- non-finite input -------------------------------------------------------

# every route (single-tau functions, the series' anchor and its samples)
# reads the norm, the mean and the imaginary residual through
# quantum._statistics; the stand-ins carry a passing norm
_NAN_RESIDUAL = ("_statistics", lambda *args: (1.0, 0.0, math.nan, None))
_NAN_MEAN = ("_statistics", lambda *args: (1.0, math.nan, 0.0, None))
_GUARD_MESSAGES = {"q-of-tau-array-one-nan": r"^tau\[200\] must be finite, got nan$",
                   "phase-theta-nan": r"^phi must be finite, got nan$",
                   "total-phase-p-cubed-inf": r"^phase at tau=1.0, momentum=1e\+110 "
                                              r"must be finite, got nan$",
                   "total-shift-inf": r"^total shift must be finite, got -inf$",
                   "shift-analytic-inf-result": r"^quantum shift must be finite, "
                                                r"got -inf$",
                   "gauge-phi-inf": r"^phi must be finite, got -inf$",
                   "gauge-phi-nan": r"^phi must be finite, got nan$"}


@pytest.mark.parametrize("patch, call, error", [
    (None, lambda s, m: evolve(s, math.nan, m), DomainError),
    (None, lambda s, m: evolve(s, math.inf, m), DomainError),
    (None, lambda s, m: position_expectation_analytic(s, math.nan, m), DomainError),
    (None, lambda s, m: total_phase(math.nan, REF_P0, m), DomainError),
    (None, lambda s, m: q_of_tau(math.nan, ClassicalState(REF_Q0, REF_P0), m),
     DomainError),
    (None, lambda s, m: q_of_tau(np.array([0.0, -np.inf]),
                                 ClassicalState(REF_Q0, REF_P0), m), DomainError),
    (None, lambda s, m: position_expectation_analytic(
        MomentumState(grid=s.grid, amps=s.amps, tau=math.nan), 1.0, m), DomainError),
    # a NaN residual or route gap must trip the guards, not pass them
    (_NAN_RESIDUAL, lambda s, m: position_expectation_numeric(s, m), ResolutionError),
    (_NAN_RESIDUAL, lambda s, m: position_expectation_analytic(s, 0.5, m),
     ResolutionError),
    (_NAN_RESIDUAL, lambda s, m: expectation_series(s, [0.5], m), ResolutionError),
    (_NAN_MEAN, lambda s, m: expectation_series(s, [0.5], m), ConsistencyError),
    (None, lambda s, m: expectation_series(s, [0.5, math.nan], m), DomainError),
    (None, lambda s, m: SpectralState([1.0], [1.0], tau=math.nan), DomainError),
    (None, lambda s, m: SpectralState([1.0], [1.0], tau=math.inf), DomainError),
    (None, lambda s, m: propagate(SpectralState([1.0], [1.0]), math.nan, m),
     DomainError),
    (None, lambda s, m: propagate(SpectralState([1.0], [1.0]), math.inf, m),
     DomainError),
    (None, lambda s, m: unwind_phi(math.nan, REF_P0, m), DomainError),
    (None, lambda s, m: unwind_phi(np.array([0.0, math.inf]), REF_P0, m), DomainError),
    (None, lambda s, m: phi_of_q(math.nan, ClassicalState(REF_Q0, REF_P0), m),
     DomainError),
    (None, lambda s, m: q_of_phi(math.nan, Branch.BEFORE,
                                 ClassicalState(REF_Q0, REF_P0), m), DomainError),
    (None, lambda s, m: gauge_solution(REF_P0, m, math.nan), DomainError),
    (None, lambda s, m: phase_branch(math.nan, REF_P0, m), DomainError),
    (None, lambda s, m: total_shift(math.nan, 0.0, m), DomainError),
    (None, lambda s, m: total_shift(1.0, math.nan, m), DomainError),
    (None, lambda s, m: asymptotic_tau_bound(math.nan, m), DomainError),
    (None, lambda s, m: quantum_shift_analytic(math.inf, m), DomainError),
    (None, lambda s, m: gauge_solution(math.inf, m, 1.0), DomainError),
    (None, lambda s, m: displacement_kernel(1.0, math.inf, m), DomainError),
    (None, lambda s, m: q_of_tau(np.where(np.arange(401) == 200, math.nan, 0.5),
                                 ClassicalState(REF_Q0, REF_P0), m), DomainError),
    (None, lambda s, m: MomentumGrid(0.1, 1.0, math.nan), DomainError),
    (None, lambda s, m: MomentumGrid(0.1, 1.0, 2.5), DomainError),
    (None, lambda s, m: evolve(s, 10**400, m), DomainError),
    (None, lambda s, m: q_of_tau(10**400, ClassicalState(REF_Q0, REF_P0), m),
     DomainError),
    (None, lambda s, m: expectation_series(s, [0.5, 10**400], m), DomainError),
    (None, lambda s, m: to_position_representation(s, [0.0, 10**400], m), DomainError),
    (None, lambda s, m: SpectralState([1.0, 10**400], [1.0, 0.0]), DomainError),
    (None, lambda s, m: SpectralState([1.0, 2.0], [1.0, 10**400]), DomainError),
    # NumPy drops an imaginary part with only a warning; math.isfinite raises
    # a bare TypeError on a complex scalar
    (None, lambda s, m: SpectralState([1 + 1j, 2.0], [1.0, 0.0]), DomainError),
    (None, lambda s, m: expectation_series(s, [0.5 + 1j, 1.0], m), DomainError),
    (None, lambda s, m: q_of_tau([0.5 + 1j], ClassicalState(REF_Q0, REF_P0), m),
     DomainError),
    (None, lambda s, m: unwind_phi([0.5 + 1j], REF_P0, m), DomainError),
    (None, lambda s, m: to_position_representation(s, [1j, 1, 2], m), DomainError),
    (None, lambda s, m: FrameModel(lam=1 + 0j), DomainError),
    (None, lambda s, m: FrameModel(lam=np.complex64(1.0)), DomainError),
    (None, lambda s, m: evolve(s, 0.5 + 1j, m), DomainError),
    (None, lambda s, m: evolve(s, np.array(0.5 + 1j), m), DomainError),
    (None, lambda s, m: SpectralState([1j, 10**400], [1.0, 0.0]), DomainError),
    (None, lambda s, m: phase_theta(math.nan, REF_P0, m), DomainError),
    # p^3 overflows and the turning-region phase reads inf - inf
    (None, lambda s, m: total_phase(1.0, 1e110, m), DomainError),
    (None, lambda s, m: phase_theta(1.0, 1e110, m), DomainError),
    (None, lambda s, m: total_phase(1e300, 1e10, m), DomainError),  # p tau overflows
    # a finite input whose shift or gauge value overflows to inf, or reads
    # inf - inf
    (None, lambda s, m: total_shift(1.0, 1.7e308, FrameModel(1e-10)), DomainError),
    (None, lambda s, m: quantum_shift_analytic(1.7e308, FrameModel(1e-10)),
     DomainError),
    (None, lambda s, m: gauge_solution(1e200, FrameModel(4.0), -1e200), DomainError),
    (None, lambda s, m: gauge_solution(1e154, FrameModel(4.0), 1e154), DomainError),
], ids=["evolve-nan", "evolve-inf", "analytic-nan", "total-phase-nan",
        "q-of-tau-nan", "q-of-tau-array-inf", "state-tau-nan",
        "numeric-nan-residual", "analytic-nan-residual", "series-nan-residual",
        "nan-cross-check", "series-tau-nan", "spectral-state-tau-nan",
        "spectral-state-tau-inf", "propagate-nan", "propagate-inf",
        "unwind-phi-nan", "unwind-phi-array-inf", "phi-of-q-nan", "q-of-phi-nan",
        "gauge-epsilon-nan", "phase-branch-nan", "total-shift-mean-nan",
        "total-shift-var-nan", "tau-bound-nan", "shift-analytic-inf", "gauge-energy-inf",
        "displacement-p-inf", "q-of-tau-array-one-nan", "grid-n-nan",
        "grid-n-fractional", "evolve-int-beyond-float", "q-of-tau-int-beyond-float",
        "series-int-beyond-float", "q-grid-int-beyond-float",
        "spectral-energies-int-beyond-float", "spectral-coeffs-int-beyond-float",
        "spectral-energies-complex", "series-tau-complex", "q-of-tau-complex",
        "unwind-phi-complex", "q-grid-complex", "lambda-complex", "lambda-complex64",
        "evolve-tau-complex", "evolve-tau-0d-complex",
        "spectral-energies-complex-and-big-int", "phase-theta-nan",
        "total-phase-p-cubed-inf", "phase-theta-p-cubed-inf", "total-phase-p-tau-inf",
        "total-shift-inf", "shift-analytic-inf-result", "gauge-phi-inf",
        "gauge-phi-nan"])
def test_non_finite_tau_and_nan_guards_raise(trunc_state, model, monkeypatch,
                                             request, patch, call, error):
    if patch is not None:
        monkeypatch.setattr(quantum, *patch)
    match = _GUARD_MESSAGES.get(request.node.callspec.id)
    with pytest.raises(error, match=match) as info:
        call(trunc_state, model)
    # a refusal names the offending sample, never the whole array
    assert len(str(info.value)) <= 200


_TOO_COARSE = " at tau=0.5; grid too coarse for its phase$"


@pytest.mark.parametrize("mean, residual, error, message", [
    (0.0, math.nan, ResolutionError, "^imaginary residual nan exceeds 0.0001" + _TOO_COARSE),
    (math.nan, 0.0, ConsistencyError, "tau=0.5"),
    (0.0, 2.5e-3, ResolutionError,
     r"^imaginary residual 2\.500e-03 exceeds 0\.0001" + _TOO_COARSE),
], ids=["nan-residual", "nan-route-gap", "large-residual"])
def test_series_sample_nan_guards_raise(trunc_state, model, monkeypatch,
                                        mean, residual, error, message):
    """A NaN past the anchor, on a tau sample, trips that sample's guard."""
    genuine = quantum._statistics
    calls = []

    def nan_after_anchor(*args):
        calls.append(args)
        return genuine(*args) if len(calls) == 1 else (1.0, mean, residual, None)

    monkeypatch.setattr(quantum, "_statistics", nan_after_anchor)
    with pytest.raises(error, match=message):
        expectation_series(trunc_state, [0.5, 1.0], model)
    assert len(calls) == 2

