"""Tests for the closed-form classical trajectories and correlations."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from turning_frame import (
    Branch,
    ClassicalState,
    DomainError,
    FrameModel,
    GaugeSample,
    asymptotic_tau_bound,
    classical_shift,
    displacement_kernel,
    gauge_solution,
    phase_branch,
    phase_theta,
    phi_of_q,
    q_of_phi,
    q_of_tau,
    q_rate,
    total_phase,
    total_shift,
    turning_point,
    unwind_phi,
)
from turning_frame import _kernels as K

positive = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)


@pytest.fixture(scope="module")
def unit_state():
    return ClassicalState(q0=0.0, p=1.0)


@pytest.fixture(scope="module")
def lam4():
    return FrameModel(lam=4.0)


# -- gauge solution ---------------------------------------------------------

def test_gauge_solution_boundary_condition(lam4):
    sample = gauge_solution(1.25, lam4, 0.0)
    assert sample.phi == 0.0
    assert sample.p_phi == -1.25


def test_gauge_solution_vertex_is_turning_point(lam4):
    sample = gauge_solution(1.25, lam4, 0.3125)  # epsilon = H/lambda
    assert sample.phi == pytest.approx(0.390625, abs=1e-14)
    assert sample.p_phi == pytest.approx(0.0, abs=1e-14)
    assert sample.phi == pytest.approx(turning_point(1.25, lam4), abs=1e-14)


def test_gauge_solution_returns_to_origin(lam4):
    sample = gauge_solution(1.25, lam4, 0.625)  # epsilon = 2H/lambda
    assert sample.phi == pytest.approx(0.0, abs=1e-14)
    assert sample.p_phi == pytest.approx(1.25, abs=1e-14)
    assert sample.constraint_residual(1.25, lam4) == pytest.approx(0.0, abs=1e-12)


def test_gauge_solution_rejects_nonpositive_energy(lam4):
    with pytest.raises(DomainError):
        gauge_solution(0.0, lam4, 0.1)
    with pytest.raises(DomainError):
        gauge_solution(-2.0, lam4, 0.1)


@settings(max_examples=300, deadline=None)
@given(H=positive, lam=positive, x=st.floats(min_value=-3.0, max_value=4.0))
def test_gauge_solution_constraint_residual(H, lam, x):
    """On-shell residual vanishes for gauge parameters on every branch."""
    model = FrameModel(lam=lam)
    epsilon = x * H / lam  # spans all three branches
    sample = gauge_solution(H, model, epsilon)
    assert abs(sample.constraint_residual(H, model)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(H=positive, lam=positive)
def test_gauge_solution_continuity_at_branch_edges(H, lam):
    model = FrameModel(lam=lam)
    for eps in (0.0, 2.0 * H / lam):
        got = gauge_solution(H, model, eps)
        # adjacent branch closed forms evaluated at the edge
        free_in, slowed = 2.0 * H * eps, eps * (2.0 * H - lam * eps)
        free_out = -2.0 * H * eps + 4.0 * H**2 / lam
        assert min(abs(got.phi - free_in), abs(got.phi - free_out)) < 1e-10
        assert abs(got.phi - slowed) < 1e-10


# -- turning point ----------------------------------------------------------

@pytest.mark.parametrize(
    "H,lam,expected",
    [(1.25, 4.0, 0.390625), (1.0, 1.0, 1.0), (2.0, 4.0, 1.0)],
)
def test_turning_point_values(H, lam, expected):
    assert turning_point(H, FrameModel(lam=lam)) == pytest.approx(expected)


@settings(max_examples=200, deadline=None)
@given(H=positive, lam=positive)
def test_turning_point_is_gauge_solution_maximum(H, lam):
    model = FrameModel(lam=lam)
    phi_t = turning_point(H, model)
    eps = np.linspace(-H / lam, 3.0 * H / lam, 101)
    phis = np.array([gauge_solution(H, model, e).phi for e in eps])
    assert phis.max() <= phi_t + 1e-12
    assert gauge_solution(H, model, H / lam).phi == pytest.approx(phi_t, abs=1e-12)


# -- phi(q) and q(phi) ------------------------------------------------------

def test_phi_of_q_vanishes_at_start(unit_state, lam4):
    assert phi_of_q(0.0, unit_state, lam4) == 0.0


def test_phi_of_q_reaches_turning_point(unit_state, lam4):
    # q at half the potential crossing: phi equals p^2/lambda
    assert phi_of_q(0.5, unit_state, lam4) == pytest.approx(0.25, abs=1e-14)


def test_phi_of_q_returns_to_zero(unit_state, lam4):
    assert phi_of_q(1.0, unit_state, lam4) == pytest.approx(0.0, abs=1e-14)


def test_q_of_phi_sheets_meet_at_turning_point(lam4):
    state = ClassicalState(q0=4.0, p=1.25)
    phi_t = turning_point(1.25, lam4)
    before = q_of_phi(phi_t, Branch.BEFORE, state, lam4)
    after = q_of_phi(phi_t, Branch.AFTER, state, lam4)
    assert before == pytest.approx(after, abs=1e-12)
    assert before == pytest.approx(4.0 + 2.0 * 1.25**2 / 4.0, abs=1e-12)


def test_q_of_phi_identities(unit_state, lam4):
    assert q_of_phi(0.0, Branch.BEFORE, unit_state, lam4) == pytest.approx(0.0)
    assert q_of_phi(0.0, Branch.AFTER, unit_state, lam4) == pytest.approx(1.0)


def test_q_of_phi_rejects_forbidden_region(unit_state, lam4):
    with pytest.raises(DomainError):
        q_of_phi(0.26, Branch.BEFORE, unit_state, lam4)


def _sheet_formulas(phi, branch, q0, p2, lam):
    """q(phi) by each sheet's own closed form in u = p^2 - lam phi, with no
    unwound tau: the oracle of ``q_of_phi``."""
    u = K.branch(p2, phi, lam)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = np.sqrt(np.abs(u) / p2)
        if branch is Branch.BEFORE:
            return np.where(phi <= 0.0, q0 + phi, q0 + 2.0 * phi / (1.0 + s))
        return np.where(phi <= 0.0, q0 - phi + 4.0 * p2 / lam,
                        q0 + 2.0 * p2 * (1.0 + s) / lam)


# q_of_phi is q(tau) at the unwound tau: tau = phi before the turning point
# gives the sheet formula's bits, and tau = 2 p^2/lam - phi after it rounds
# once more.  On the AFTER sheet q has slope -1/s in phi, s = sqrt(|u|/p^2),
# so that rounding moves q by a few eps of the scale |q0| + 4 p^2/lam + |phi|
# times 1 + 1/s, with s under sqrt(eps) only in the snap band: at most 3.8
# eps of it over 20000 draws crowded at the turning point (1.9e-8 of the
# scale there, 4.6e-15 for phi drawn evenly).  p^2 underflows to 0 at p =
# 1e-200, where the sheets are q0 + phi and q0 - phi.
@settings(max_examples=300, deadline=None)
@given(p=st.one_of(positive, st.just(1e-200)), lam=positive,
       q0=st.floats(-10.0, 10.0),
       fractions=st.lists(st.floats(-3.0, 1.0), min_size=1, max_size=40),
       branch=st.sampled_from(Branch))
@example(p=9.548991577079423, lam=9.683302565248882, q0=0.0,
         fractions=[0.999993670101655, 1.0 - 2.0**-50, 1.0 - 1e-12],
         branch=Branch.AFTER)
def test_q_of_phi_matches_the_sheet_formulas(p, lam, q0, fractions, branch):
    model = FrameModel(lam=lam)
    p2 = p * p
    edge = p2 / lam
    phi = np.concatenate([np.array(fractions) * edge, [0.0, edge],
                          -np.abs(fractions)])
    phi = phi[K.branch(p2, phi, lam) >= 0.0]  # edge itself may round past it
    got = q_of_phi(phi, branch, ClassicalState(q0=q0, p=p), model)
    want = _sheet_formulas(phi, branch, q0, p2, lam)
    if branch is Branch.BEFORE:
        assert got.tobytes() == want.tobytes()
    else:
        eps = np.finfo(np.float64).eps
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at p^2 = 0
            s = np.fmax(np.sqrt(np.abs(K.branch(p2, phi, lam)) / p2), np.sqrt(eps))
        scale = abs(q0) + 4.0 * edge + np.abs(phi)
        assert np.all(np.abs(got - want) <= 16.0 * eps * scale * (1.0 + 1.0 / s))


# -- unwinding and q(tau) ---------------------------------------------------

def test_unwind_phi_identity_branch(lam4):
    assert unwind_phi(0.0, 1.25, lam4) == 0.0
    assert unwind_phi(0.390625, 1.25, lam4) == pytest.approx(0.390625)
    assert unwind_phi(0.78125, 1.25, lam4) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize(
    "tau,expected",
    [(-1.0, -1.0), (0.25, 0.5), (0.5, 1.0), (2.0, 2.5)],
)
def test_q_of_tau_reference_values(tau, expected, unit_state, lam4):
    assert q_of_tau(tau, unit_state, lam4) == pytest.approx(expected, abs=1e-12)


def test_q_of_tau_array_matches_scalars(unit_state, lam4):
    taus = np.linspace(-1.0, 2.0, 301)
    arr = q_of_tau(taus, unit_state, lam4)
    sample = [q_of_tau(float(t), unit_state, lam4) for t in taus[::50]]
    np.testing.assert_allclose(arr[::50], sample, rtol=0, atol=0)


@settings(max_examples=200, deadline=None)
@given(p=positive, lam=positive)
def test_q_of_tau_monotonic_and_continuous(p, lam):
    model = FrameModel(lam=lam)
    state = ClassicalState(q0=0.0, p=p)
    edge = p * p / lam
    taus = np.unique(np.concatenate([
        np.linspace(-edge, 3.0 * edge, 201), [0.0, edge, 2.0 * edge]
    ]))
    q = q_of_tau(taus, state, model)
    assert np.all(np.diff(q) >= -1e-12)
    # joint values against closed forms
    assert q_of_tau(edge, state, model) == pytest.approx(2.0 * p * p / lam, abs=1e-10)
    assert q_of_tau(2.0 * edge, state, model) == pytest.approx(
        4.0 * p * p / lam, abs=1e-10
    )


@settings(max_examples=200, deadline=None)
@given(p=positive, lam=positive, x=st.floats(min_value=-1.0, max_value=2.0))
def test_round_trip_through_phi(p, lam, x):
    """phi(q(tau)) recovers the unwound frame value on both sheets."""
    model = FrameModel(lam=lam)
    state = ClassicalState(q0=0.0, p=p)
    tau = x * p * p / lam
    expected = unwind_phi(tau, p, model)
    got = phi_of_q(q_of_tau(tau, state, model), state, model)
    assert got == pytest.approx(expected, abs=1e-10 * max(1.0, p * p / lam))


@settings(max_examples=200, deadline=None)
@given(p=positive, lam=positive)
def test_late_branch_runs_parallel_to_free_motion(p, lam):
    model = FrameModel(lam=lam)
    state = ClassicalState(q0=0.0, p=p)
    taus = 2.0 * p * p / lam + np.array([0.0, 0.7, 1.9, 13.0])
    q = q_of_tau(taus, state, model)
    offsets = q - taus
    np.testing.assert_allclose(offsets, 2.0 * p * p / lam, rtol=0, atol=1e-12)


def test_q_rate_diverges_only_at_turning_scale(unit_state, lam4):
    assert q_rate(-1.0, unit_state, lam4) == 1.0
    assert q_rate(0.25, unit_state, lam4) == np.inf
    assert q_rate(0.2, unit_state, lam4) == pytest.approx(1.0 / np.sqrt(0.2), abs=1e-12)
    assert q_rate(1.0, unit_state, lam4) == 1.0


# tau = x p^2/lam with x kept 0.05 away from 0, the turning scale (x = 1) and
# the exit (x = 2), where q'' jumps or q' diverges
_MARGINED = (st.floats(-3.0, -0.05) | st.floats(0.05, 0.95) | st.floats(1.05, 1.95)
             | st.floats(2.05, 5.0))


@settings(max_examples=300, deadline=None)
@given(p=positive, lam=positive, x=_MARGINED, q0=st.floats(-10.0, 10.0))
def test_q_rate_is_the_slope_of_q_of_tau(p, lam, x, q0):
    """q_rate is the centred difference of q_of_tau with step delta = 1e-4
    p^2/lam.  Its truncation error q''' delta^2 / 6 = (1/8) |1 - x|^{-5/2}
    (1e-4)^2 is below 1/8 * 0.0499^{-5/2} * 1e-8 < 2.3e-6 within the margin;
    the rest is the rounding of q over 2 delta."""
    model, state = FrameModel(lam=lam), ClassicalState(q0=q0, p=p)
    scale = p * p / lam
    tau, delta = x * scale, 1e-4 * scale
    q = q_of_tau(np.array([tau - delta, tau + delta]), state, model)
    rounding = 64.0 * np.spacing(abs(q0) + abs(tau) + 4.0 * scale) / delta
    assert abs((q[1] - q[0]) / (2.0 * delta) - q_rate(tau, state, model)) \
        <= 2.3e-6 + rounding


# -- classical shift --------------------------------------------------------

@pytest.mark.parametrize(
    "p,lam,expected", [(1.25, 4.0, 0.78125), (1.0, 2.0, 1.0), (1.0, 4.0, 0.5)]
)
def test_classical_shift_values(p, lam, expected):
    assert classical_shift(p, FrameModel(lam=lam)) == pytest.approx(expected)


def test_classical_shift_matches_late_trajectory(unit_state, lam4):
    shift = classical_shift(1.0, lam4)
    assert q_of_tau(2.0, unit_state, lam4) - (0.0 + 2.0) == pytest.approx(shift)


def test_classical_shift_rejects_nonpositive_momentum(lam4):
    with pytest.raises(DomainError):
        classical_shift(0.0, lam4)


# the smallest float whose square overflows: sqrt(max float) rounded up
_SQUARE_OVERFLOWS = 1.3407807929942597e154


@pytest.mark.parametrize("call", [
    lambda m: unwind_phi(0.5, _SQUARE_OVERFLOWS, m),
    lambda m: turning_point(_SQUARE_OVERFLOWS, m),
    lambda m: classical_shift(_SQUARE_OVERFLOWS, m),
    lambda m: gauge_solution(_SQUARE_OVERFLOWS, m, 1e154),
    lambda m: phi_of_q(1.0, ClassicalState(q0=0.0, p=_SQUARE_OVERFLOWS), m),
    lambda m: gauge_solution(1.0, m, 0.0).constraint_residual(_SQUARE_OVERFLOWS, m),
    # without the refusal p^2 = inf snaps u = inf to the turning point: q(tau)
    # and q(phi) read 2.0 and D 2.0 where the true values are about 1.0
    lambda m: q_of_tau(1.0, ClassicalState(q0=0.0, p=_SQUARE_OVERFLOWS), m),
    lambda m: q_of_phi(1.0, Branch.BEFORE, ClassicalState(0.0, _SQUARE_OVERFLOWS), m),
    lambda m: q_rate(1.0, ClassicalState(q0=0.0, p=_SQUARE_OVERFLOWS), m),
    lambda m: displacement_kernel(1.0, _SQUARE_OVERFLOWS, m),
    lambda m: total_phase(1.0, _SQUARE_OVERFLOWS, m),
    lambda m: phase_theta(1.0, _SQUARE_OVERFLOWS, m),
    lambda m: phase_branch(1.0, _SQUARE_OVERFLOWS, m),
    # an int within float range whose exact square is not, and a NumPy
    # scalar, whose square overflows to inf with a warning
    lambda m: turning_point(10**200, m),
    lambda m: classical_shift(10**200, m),
    lambda m: phase_branch(1.0, 10**200, m),
    lambda m: ClassicalState(0.0, np.float64(_SQUARE_OVERFLOWS)),
    # the shift formulas square through the same guard
    lambda m: asymptotic_tau_bound(1e200, m),
    lambda m: total_shift(1e200, 0.0, m),
], ids=["unwind-phi", "turning-point", "classical-shift", "gauge-solution",
        "phi-of-q", "constraint-residual", "q-of-tau", "q-of-phi", "q-rate",
        "displacement-kernel", "total-phase", "phase-theta", "phase-branch",
        "turning-point-int", "classical-shift-int", "phase-branch-int",
        "classical-state-float64", "tau-bound", "total-shift"])
def test_overflowing_square_is_a_domain_error(lam4, call):
    with pytest.raises(DomainError, match="overflows"):
        call(lam4)


# finite squares whose quotient by a tiny lambda, or whose product with lambda,
# overflows: each result is refused by name instead of returned as +-inf
@pytest.mark.parametrize("call, name", [
    (lambda: turning_point(1e150, FrameModel(1e-10)), "turning point"),
    (lambda: classical_shift(1e150, FrameModel(1e-10)), "classical shift"),
    (lambda: GaugeSample(1.0, 1e308, 0.0).constraint_residual(1.0, FrameModel(4.0)),
     "constraint residual"),
], ids=["turning-point", "classical-shift", "constraint-residual"])
def test_overflowing_classical_result_is_a_domain_error(call, name):
    with pytest.raises(DomainError, match=f"^{name} must be finite, got -?inf$"):
        call()


# lam tau overflows at |tau| = 1e308, so far past the exit or before the
# start that q is free flight, and far past the turning point in phi; under
# the suite's filterwarnings = error an overflow warning would fail the call
@pytest.mark.parametrize("tau", [1e308, -1e308])
def test_a_huge_tau_is_free_flight(unit_state, lam4, tau):
    q0, p = unit_state.q0, unit_state.p
    want = q0 + tau + (2.0 * p * p / lam4.lam if tau > 0.0 else 0.0)
    assert q_of_tau(tau, unit_state, lam4) == want
    assert q_of_tau(np.array([tau, 0.25]), unit_state, lam4).tolist() == [want, 0.5]


def test_a_huge_phi_is_beyond_the_turning_point(unit_state, lam4):
    with pytest.raises(DomainError, match="beyond the turning point"):
        q_of_phi(1e308, Branch.BEFORE, unit_state, lam4)


# p^2 underflows to 0 at p = 1e-200 and to a subnormal at p = 1e-160: every
# turning scale is 0 or below eps, so the values are those of free flight,
# and the lanes np.where drops divide by p^2 without a warning
@pytest.mark.parametrize("p", [1e-200, 1e-160])
@pytest.mark.parametrize("call, want", [
    (lambda s, m: q_of_tau(np.array([-1.5, 0.0, 2.0]), s, m), [-1.0, 0.5, 2.5]),
    (lambda s, m: q_of_phi(np.array([-1.5, 0.0]), Branch.BEFORE, s, m), [-1.0, 0.5]),
    (lambda s, m: q_of_phi(np.array([-1.5, 0.0]), Branch.AFTER, s, m), [2.0, 0.5]),
    (lambda s, m: phi_of_q(np.array([-1.0, 0.5, 2.5]), s, m), [-1.5, 0.0, -2.0]),
], ids=["q-of-tau", "q-of-phi-before", "q-of-phi-after", "phi-of-q"])
def test_underflowing_square_keeps_free_flight(lam4, p, call, want):
    assert call(ClassicalState(q0=0.5, p=p), lam4).tolist() == want


# at lam < 1/2, lam tau underflows to 0 at the smallest subnormal tau: with
# p^2 = 0 the branch masks then place tau at the turning point, where the
# sheet's sqrt(|u| / p^2) reads 0/0
def test_subnormal_tau_with_underflowing_square_keeps_free_flight():
    state, model = ClassicalState(q0=0.0, p=1e-200), FrameModel(lam=0.3)
    assert q_of_tau(5e-324, state, model) == 5e-324
    assert q_of_phi(5e-324, Branch.BEFORE, state, model) == 5e-324
    assert q_of_phi(-5e-324, Branch.AFTER, state, model) == 5e-324
