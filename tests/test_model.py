"""Tests for domain types, Gaussian construction, and momentum moments."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from turning_frame import (
    ClassicalState,
    DomainError,
    ExpectationSeries,
    FrameModel,
    GaugeSample,
    GaussianMode,
    GaussianSpec,
    InvalidStateError,
    MomentumGrid,
    MomentumState,
    PhysicalScenario,
    ResolutionError,
    ShiftReport,
    SpectralState,
    TurningFrameError,
    evolve,
    expectation_series,
    gauge_solution,
    load_momentum_csv,
    make_gaussian,
    moments,
    phase_branch,
    position_variance,
    propagate,
    q_of_tau,
    q_rate,
    save_momentum_csv,
    total_phase,
    total_shift,
    unwind_phi,
)
from turning_frame.model import _square
from turning_frame.quantum import position_plan

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
    assert MomentumGrid(0.0, 1.0, np.int64(11)).nodes.shape == (11,)


def test_gaussian_spec_requires_positive_sigma():
    with pytest.raises(DomainError):
        GaussianSpec(q0=0.0, p0=1.0, sigma=0.0)


# 10**400 is a Python int beyond float range: finite as an int, no float
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400, -10**400],
                         ids=["nan", "inf", "-inf", "int-beyond-float", "-int-beyond-float"])
def test_value_types_reject_non_finite_parameters(bad):
    for make in (
        lambda: FrameModel(lam=bad),
        lambda: FrameModel(lam=4.0, hbar=bad),
        lambda: GaussianSpec(q0=bad, p0=1.25, sigma=1.0),
        lambda: GaussianSpec(q0=4.0, p0=bad, sigma=1.0),
        lambda: GaussianSpec(q0=4.0, p0=1.25, sigma=bad),
        lambda: ClassicalState(q0=bad, p=1.25),
        lambda: MomentumGrid(bad, 5.0, 64),
        lambda: ShiftReport(0.0, 0.0, 0.0, bad, 0.0, 0.0, 1.0),
        lambda: total_shift(1.25, bad, FrameModel(4.0)),
        lambda: PhysicalScenario.from_amu(bad, 1e-6),
    ):
        with pytest.raises(DomainError, match="finite"):
            make()


# Text is never a number: a scalar once ended in math.isfinite's bare
# TypeError, and NumPy parsed a str or bytes array silently.  The CLI
# converts its flags and config values to floats before any of these.
@pytest.mark.parametrize("make, message", [
    (lambda s, m: FrameModel(lam="4"), "potential slope must be positive and finite, "
                                       "got '4'"),
    (lambda s, m: FrameModel(lam=4.0, hbar=b"1"), "hbar must be positive and finite, "
                                                  "got b'1'"),
    (lambda s, m: MomentumGrid("0.01", 5.0, 512), "p_min must be finite, got '0.01'"),
    (lambda s, m: GaussianSpec("4", 1.25, 1.0), "q0 must be finite, got '4'"),
    (lambda s, m: ClassicalState(4.0, "1.25"), "momentum must be positive and finite"),
    (lambda s, m: evolve(s, "1", m), "tau must be finite, got '1'"),
    (lambda s, m: total_phase("1", 1.25, m), "tau must be finite, got '1'"),
    (lambda s, m: propagate(SpectralState([1.0], [1.0]), "1", m), "tau must be finite"),
    (lambda s, m: expectation_series(s, ["1", "2"], m), "tau samples must be numbers"),
    (lambda s, m: expectation_series(s, [b"0.5"], m), "tau samples must be numbers"),
    (lambda s, m: expectation_series(s, np.array([0.5, "1"], dtype=object), m),
     "tau samples must be numbers"),
    (lambda s, m: q_of_tau(["1"], ClassicalState(4.0, 1.25), m), "tau must be numbers"),
    (lambda s, m: unwind_phi(["1"], 1.25, m), "tau must be numbers"),
    (lambda s, m: MomentumState(s.grid, s.amps.astype(str), 0.0),
     "amps must be numbers"),
    (lambda s, m: SpectralState(["1.0"], [1.0]), "energies must be numbers"),
    (lambda s, m: SpectralState([1.0], ["1.0"]), "coeffs must be numbers"),
    # NumPy raised a bare ValueError for a ragged nest, and a TypeError when
    # it converted an object array holding None
    (lambda s, m: q_of_tau([[1.0], [2.0, 3.0]], ClassicalState(4.0, 1.25), m),
     "tau must be numbers"),
    (lambda s, m: expectation_series(s, np.array([0.5, None]), m),
     "tau samples must be numbers"),
    (lambda s, m: SpectralState([1.0, 2.0], np.array([1.0, None])),
     "coeffs must be numbers"),
], ids=["lambda-str", "hbar-bytes", "grid-str", "gaussian-str", "classical-str",
        "evolve-str", "total-phase-str", "propagate-str", "series-str-list",
        "series-bytes-list", "series-object-array", "q-of-tau-str-list",
        "unwind-phi-str-list", "momentum-state-str-array", "spectral-energies-str",
        "spectral-coeffs-str", "q-of-tau-ragged", "series-object-none",
        "spectral-coeffs-object-none"])
def test_text_is_refused_as_a_domain_error(trunc_state, model, make, message):
    with pytest.raises(DomainError, match=message):
        make(trunc_state, model)


# Each public scalar parameter, filled by one draw.  Only a finite
# numbers.Real passes, or a 0-d array holding one.
_SCALAR_PARAMETERS = {
    "lambda": lambda s, m, x: FrameModel(lam=x),
    "hbar": lambda s, m, x: FrameModel(4.0, hbar=x),
    "classical-q0": lambda s, m, x: ClassicalState(x, 1.25),
    "classical-p": lambda s, m, x: ClassicalState(4.0, x),
    "gaussian-q0": lambda s, m, x: GaussianSpec(x, 1.25, 1.0),
    "gaussian-p0": lambda s, m, x: GaussianSpec(4.0, x, 1.0),
    "gaussian-sigma": lambda s, m, x: GaussianSpec(4.0, 1.25, x),
    "grid-p-min": lambda s, m, x: MomentumGrid(x, 5.0, 64),
    "grid-p-max": lambda s, m, x: MomentumGrid(0.01, x, 64),
    "grid-n": lambda s, m, x: MomentumGrid(0.01, 5.0, x),
    "evolve-tau": lambda s, m, x: evolve(s, x, m),
    "propagate-tau": lambda s, m, x: propagate(SpectralState([1.0], [1.0]), x, m),
    "total-phase-tau": lambda s, m, x: total_phase(x, 1.25, m),
    "total-phase-p": lambda s, m, x: total_phase(1.0, x, m),
    "phase-branch-tau": lambda s, m, x: phase_branch(x, 1.25, m),
    "phase-branch-p": lambda s, m, x: phase_branch(1.0, x, m),
    "q-rate-tau": lambda s, m, x: q_rate(x, ClassicalState(4.0, 1.25), m),
    "gauge-solution-h": lambda s, m, x: gauge_solution(x, m, 0.5),
    "gauge-solution-epsilon": lambda s, m, x: gauge_solution(1.25, m, x),
    "constraint-residual-h": lambda s, m, x:
        GaugeSample(0.0, 0.0, 1.25).constraint_residual(x, m),
    "total-shift-mean": lambda s, m, x: total_shift(x, 0.1, m),
    "total-shift-var": lambda s, m, x: total_shift(1.25, x, m),
    "from-amu-mass": lambda s, m, x: PhysicalScenario.from_amu(x, 1e-6),
    "from-amu-temperature": lambda s, m, x: PhysicalScenario.from_amu(100.0, x),
    "from-amu-gravity": lambda s, m, x: PhysicalScenario.from_amu(100.0, 1e-6, x),
}
_NOT_A_REAL = st.one_of(
    st.none(), st.text(max_size=4), st.binary(max_size=4), st.builds(object),
    st.lists(st.floats(), max_size=2), st.just(np.True_), st.decimals(),
    st.complex_numbers(), st.complex_numbers().map(np.complex128),
    st.floats().map(lambda x: np.array([x])),
    st.integers(-10, 10).map(lambda x: np.array([x])),
)


@pytest.mark.parametrize("call", _SCALAR_PARAMETERS.values(), ids=_SCALAR_PARAMETERS)
@settings(max_examples=40, deadline=None)
@given(bad=_NOT_A_REAL)
def test_a_scalar_parameter_that_is_not_a_real_number_is_refused(trunc_state, model,
                                                                 call, bad):
    """None, text, a list, np.True_, a Decimal, a complex value or a
    1-element array raises a TurningFrameError, never a bare TypeError,
    ValueError or OverflowError."""
    with pytest.raises(TurningFrameError):
        call(trunc_state, model, bad)


def test_frozen_fields_are_read_only_copies(trunc_state, wide_state, model):
    """Each array a record takes from its caller is copied, even when its
    dtype already matches, and frozen; the caller's array stays writeable."""
    amps = trunc_state.amps.copy()
    energies, coeffs = np.array([1.0, 2.0]), np.array([0.6, 0.8j])
    columns = [np.array([0.0, 1.0]), np.zeros(2), np.ones(2), np.zeros(2)]
    q = np.linspace(-2.0, 12.0, 101)
    held = [
        (amps, MomentumState(trunc_state.grid, amps, 0.0).amps),
        (energies, SpectralState(energies, coeffs).energies),
        (coeffs, SpectralState(energies, coeffs).coeffs),
        (q, position_plan(wide_state.grid, q, model).q),
    ]
    series = ExpectationSeries(*columns, anchor=0.0)
    held += [(caller, getattr(series, name))
             for caller, name in zip(columns, ("taus", "q_mean", "norm", "q_var"))]
    for caller, field in held:
        assert field.dtype == caller.dtype and np.array_equal(field, caller)
        assert not np.shares_memory(field, caller)
        assert not field.flags.writeable and caller.flags.writeable


@settings(max_examples=500, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False)
       | st.integers(-2**70, 2**70)
       | st.floats(allow_nan=False, allow_infinity=False).map(np.float64))
def test_square_has_the_bits_of_a_numpy_square(x):
    """``_square`` squares ``float(x)`` by a power, NumPy's scalar bits, and
    refuses an overflow, a NumPy scalar's included, with no warning."""
    with np.errstate(over="ignore"):
        want = np.float64(x) ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if np.isinf(want):
            with pytest.raises(DomainError, match="its square overflows"):
                _square(x, "x")
        else:
            got = _square(x, "x")
            assert type(got) is float and np.float64(got).tobytes() == want.tobytes()


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
    with pytest.raises(ResolutionError, match="5 grid nodes"):  # too few for a stencil
        position_variance(delta, FrameModel(lam=4.0))

    two_point = MomentumState(
        grid=grid, amps=np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0), tau=0.0
    )
    got = moments(two_point)
    assert got == pytest.approx((2.0, 5.0, 1.0))


def test_unnormalized_state_is_refused_when_built(trunc_grid):
    with pytest.raises(InvalidStateError):
        MomentumState(grid=trunc_grid, amps=np.ones(trunc_grid.n), tau=0.0)
    with pytest.raises(InvalidStateError):  # |amps|^2 overflows to inf
        MomentumState(MomentumGrid(0.5, 1.0, 3), np.full(3, 1e200), 0.0)
    with pytest.raises(InvalidStateError, match="shape"):
        MomentumState(grid=trunc_grid, amps=np.ones(3), tau=0.0)
    with pytest.raises(DomainError):  # an int beyond float range
        MomentumState(MomentumGrid(0.5, 1.0, 3), [1.0, 10**400, 0.0], 0.0)


def test_nan_state_is_refused_when_built(trunc_grid):
    with pytest.raises(InvalidStateError):
        MomentumState(grid=trunc_grid, amps=np.full(trunc_grid.n, np.nan), tau=0.0)


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
            q_var=np.zeros(2),
            anchor=0.0,
        )
    with pytest.raises(InvalidStateError):
        ExpectationSeries(
            taus=np.array([0.0, 1.0]),
            q_mean=np.zeros(3),
            norm=np.ones(2),
            q_var=np.zeros(2),
            anchor=0.0,
        )
    valid = dict(taus=[0.0, 1.0, 2.0], q_mean=np.zeros(3), norm=np.ones(3),
                 q_var=np.zeros(3), anchor=0.0)
    for field, nan_value in (("taus", [0.0, math.nan, 2.0]), ("anchor", math.nan),
                             ("q_mean", [0.0, math.nan, 0.0]),
                             ("taus", [0.0, 1.0, 10**400])):
        with pytest.raises(DomainError):
            ExpectationSeries(**{**valid, field: nan_value})
    with pytest.raises(DomainError):
        ExpectationSeries(np.float64(1.0), 0.0, 1.0, 0.0, 0.0)


def test_expectation_series_is_immutable():
    q_var = np.zeros(2)
    series = ExpectationSeries(taus=[0.0, 1.0], q_mean=np.zeros(2),
                               norm=np.ones(2), q_var=q_var, anchor=np.float32(4))
    with pytest.raises(dataclasses.FrozenInstanceError):
        series.q_mean = np.ones(2)
    for arr in (series.taus, series.q_mean, series.norm, series.q_var):
        assert arr.dtype == np.float64 and not arr.flags.writeable
    assert type(series.anchor) is float and series.anchor == 4.0
    q_var[0] = 1.0  # the caller's array stays its own
    assert series.q_var[0] == 0.0


def test_momentum_state_csv_roundtrip(tmp_path, trunc_state):
    path = tmp_path / "state.csv"
    save_momentum_csv(trunc_state, path)
    loaded = load_momentum_csv(path, tau=trunc_state.tau)
    assert loaded.grid.n == trunc_state.grid.n
    assert loaded.grid.p_min == pytest.approx(trunc_state.grid.p_min)
    np.testing.assert_array_equal(loaded.amps, trunc_state.amps)
