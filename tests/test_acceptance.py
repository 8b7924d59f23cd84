"""Acceptance suite: the package's exit criteria at pinned tolerances.

Every test prints one ``ACCEPTANCE <k> PASS/FAIL`` line (run pytest with
``-s`` to see them).  Criterion 9's turning-scale/asymptote comparison is
expected to fail and is marked strict-xfail: the variance decomposes as
(constant width term) + Var(D(tau, .)) with 0 <= D <= 2 tau, so its value
at tau* = p0^2/lambda is bounded by sigma^2 + tau*^2 = 1.153, below the
asymptotic 1.422.  The README's final section records the analysis.
"""

import json
import time

import numpy as np
import pytest

from turning_frame import (
    ClassicalState,
    FrameModel,
    GaussianMode,
    GaussianSpec,
    MomentumGrid,
    SpectralState,
    asymptotic_tau_bound,
    displacement_kernel,
    evolve,
    expectation_series,
    extract_shift_numeric,
    gauge_solution,
    make_gaussian,
    moments,
    phase_theta,
    phi_of_q,
    position_expectation_analytic,
    position_expectation_numeric,
    position_variance,
    propagate,
    q_of_phi,
    q_of_tau,
    total_phase,
    turning_point,
    unwind_phi,
)
from turning_frame.classical import Branch
from turning_frame.cli import main

from conftest import REF_LAMBDA, REF_P0, REF_Q0, REF_SIGMA


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion:>2} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def run_shift_pipeline(hbar=1.0, sigma=REF_SIGMA):
    model = FrameModel(lam=REF_LAMBDA, hbar=hbar)
    grid = MomentumGrid(0.01, 5.0, 4096)
    state = make_gaussian(
        GaussianSpec(q0=REF_Q0, p0=REF_P0, sigma=sigma), grid, model,
        mode=GaussianMode.TRUNCATE_POSITIVE,
    )
    taus = np.linspace(-1.0, 16.0, 341)
    series = expectation_series(state, taus, model)
    return extract_shift_numeric(series, state, model), series, state


def test_criterion_1_shift_regression():
    start = time.perf_counter()
    report_obj, _, _ = run_shift_pipeline()
    elapsed = time.perf_counter() - start
    value = report_obj.delta_q_total
    ok = abs(value / -1.6875 - 1.0) <= 0.02 and elapsed < 5.0
    report(1, ok,
           f"delta_q_total = {value:.6f} vs -1.6875 "
           f"({value / -1.6875 - 1.0:+.3%}), runtime {elapsed:.2f}s")


def test_criterion_2_route_oracle_and_convergence(model, ref_spec):
    taus = np.linspace(-1.0, 3.0, 64)
    worst = {}
    for n in (4096, 8191):  # 8191 halves h exactly
        grid = MomentumGrid(0.01, 5.0, n)
        state = make_gaussian(ref_spec, grid, model)
        errs = [
            abs(
                position_expectation_numeric(evolve(state, t, model), model)
                - position_expectation_analytic(state, t, model)
            )
            for t in taus
        ]
        worst[n] = max(errs)
    ratio = worst[4096] / worst[8191]
    ok = worst[4096] <= 1e-5 and ratio >= 3.0
    report(2, ok,
           f"max|analytic-numeric| = {worst[4096]:.3e} at n=4096, "
           f"halving h improves {ratio:.2f}x")


def test_criterion_3_branch_continuity():
    rng = np.random.default_rng(12345)
    ps = rng.uniform(0.1, 10.0, 1000)
    lams = rng.uniform(0.1, 10.0, 1000)
    tol = 1e-10
    worst = 0.0
    for p, lam in zip(ps, lams):
        model = FrameModel(lam=lam)
        state = ClassicalState(q0=0.0, p=p)
        edge = p * p / lam
        third = (2.0 / 3.0) * p**3 / lam
        cap = 2.0 * p * p / lam
        checks = [
            # gauge trajectory at both branch edges
            gauge_solution(p, model, 0.0).phi - 0.0,
            gauge_solution(p, model, 0.0).p_phi + p,
            gauge_solution(p, model, 2.0 * p / lam).phi - 0.0,
            gauge_solution(p, model, 2.0 * p / lam).p_phi - p,
            # phi(q) at its two joins
            phi_of_q(0.0, state, model) - 0.0,
            phi_of_q(4.0 * p * p / lam, state, model) - 0.0,
            # q(phi) sheet join at the turning point
            q_of_phi(turning_point(p, model), Branch.BEFORE, state, model)
            - q_of_phi(turning_point(p, model), Branch.AFTER, state, model),
            # phi(tau) at the reflection
            unwind_phi(edge, p, model) - edge,
            # q(tau) at both joins
            q_of_tau(edge, state, model) - cap,
            q_of_tau(2.0 * edge, state, model) - 2.0 * cap,
            # theta and total phase at their joins
            phase_theta(0.0, p, model) - 0.0,
            phase_theta(edge, p, model) - third,
            total_phase(0.0, p, model) - 0.0,
            total_phase(edge, p, model) - third,
            total_phase(2.0 * edge, p, model) - 2.0 * third,
            # displacement kernel at all three boundaries
            displacement_kernel(0.0, p, model) - 0.0,
            displacement_kernel(edge, p, model) - cap,
            displacement_kernel(2.0 * edge, p, model) - 0.0,
        ]
        worst = max(worst, max(abs(c) for c in checks))
    report(3, worst <= tol,
           f"worst boundary mismatch {worst:.3e} over 1000 random (p, lambda)")


def test_criterion_4_constraint_residual():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        H = rng.uniform(0.1, 10.0)
        lam = rng.uniform(0.1, 10.0)
        model = FrameModel(lam=lam)
        for x in rng.uniform(-2.0, 4.0, 3):  # epsions on all branches
            sample = gauge_solution(H, model, x * H / lam)
            worst = max(worst, abs(sample.constraint_residual(H, model)))
    report(4, worst <= 1e-12, f"worst constraint residual {worst:.3e}")


def test_criterion_5_unitarity(trunc_state, model):
    taus = np.linspace(-1.0, 16.0, 35)
    series = expectation_series(trunc_state, taus, model)
    norm_dev = np.max(np.abs(series.norm - 1.0))
    mod_dev = 0.0
    base = np.abs(trunc_state.amps)
    for tau in (-1.0, 0.4, 0.78, 3.0, 16.0):
        out = np.abs(evolve(trunc_state, tau, model).amps)
        mod_dev = max(mod_dev, float(np.max(np.abs(out - base) / base)))
    ok = norm_dev <= 1e-9 and mod_dev <= 1e-15
    report(5, ok,
           f"norm deviation {norm_dev:.2e}, pointwise |psi| drift {mod_dev:.2e} "
           "(exact to roundoff)")


def test_criterion_6_pre_turning_translation(trunc_state, model):
    worst = 0.0
    for tau in (-1.0, -0.52, -0.125, 0.0):
        got = position_expectation_numeric(evolve(trunc_state, tau, model), model)
        worst = max(worst, abs(got - (REF_Q0 + tau)))
    report(6, worst <= 1e-9, f"max |<q>(tau) - (q0 + tau)| = {worst:.3e}")


def test_criterion_7_sign_reversal():
    rng = np.random.default_rng(77)
    worst_slope = 0.0
    ok = True
    details = []
    for _ in range(10):
        lam = rng.uniform(2.0, 8.0)
        p0 = rng.uniform(0.8, 2.0)
        sigma = rng.uniform(0.8, 1.5)
        model = FrameModel(lam=lam)
        sig_p = model.hbar / (2.0 * sigma)
        # 6 sigma_p of support and a moderate upper edge keep the numeric
        # route accurate across the whole asymptotic window
        grid = MomentumGrid(0.01, p0 + 6.0 * sig_p, 4096)
        state = make_gaussian(GaussianSpec(q0=0.0, p0=p0, sigma=sigma),
                              grid, model)
        bound = asymptotic_tau_bound(grid.p_max, model)
        taus = np.linspace(bound + 0.1, bound + 2.1, 6)
        rep = extract_shift_numeric(
            expectation_series(state, taus, model), state, model
        )
        ok = ok and rep.delta_q_quantum_numeric < 0.0 < rep.delta_q_classical
        worst_slope = max(worst_slope, abs(rep.slope - 1.0))
    ok = ok and worst_slope <= 1e-3
    report(7, ok,
           f"quantum < 0 < classical on 10 random packets, "
           f"worst |slope-1| = {worst_slope:.2e}")


def test_criterion_8_turning_region_suppression(trunc_state, model):
    stats = moments(trunc_state)
    window = np.linspace(0.0, 2.0 * REF_P0**2 / REF_LAMBDA, 200)
    quantum_max = max(
        position_expectation_analytic(trunc_state, t, model) - REF_Q0
        for t in window
    )
    classical_max = 4.0 * stats.mean_p**2 / REF_LAMBDA
    ok = quantum_max < classical_max
    report(8, ok,
           f"max quantum advance {quantum_max:.4f} < classical maximum "
           f"{classical_max:.4f}")


def test_criterion_9_variance_spreading(wide_state, model):
    tau_star = REF_P0**2 / REF_LAMBDA
    v0 = position_variance(wide_state, model)
    v_star = position_variance(evolve(wide_state, tau_star, model), model)
    v_late = position_variance(evolve(wide_state, 16.0, model), model)
    ok = (
        abs(v0 - REF_SIGMA**2) <= 1e-4
        and v_star > v0
        and abs(v_late / 1.421875 - 1.0) <= 0.02
    )
    report(9, ok,
           f"var(0) = {v0:.6f}, var(tau*) = {v_star:.6f} > var(0), "
           f"asymptotic {v_late:.6f} vs 1.421875")


@pytest.mark.xfail(
    strict=True,
    reason="variance = width term + Var(D) with 0 <= D <= 2 tau, so "
    "var(tau*) <= sigma^2 + tau*^2 = 1.153 < asymptotic 1.422; "
    "the asserted peak above the asymptote cannot occur (see README)",
)
def test_criterion_9_peak_exceeds_asymptote(wide_state, model):
    tau_star = REF_P0**2 / REF_LAMBDA
    v_star = position_variance(evolve(wide_state, tau_star, model), model)
    v_late = position_variance(evolve(wide_state, 16.0, model), model)
    report("9b", v_star > v_late,
           f"var(tau*) = {v_star:.6f} does not exceed asymptotic {v_late:.6f}")


def test_criterion_10_hbar_invariance():
    base = run_shift_pipeline(hbar=1.0, sigma=1.0)[0].delta_q_total
    worst = 0.0
    for hbar in (0.5, 2.0):
        value = run_shift_pipeline(hbar=hbar, sigma=hbar)[0].delta_q_total
        worst = max(worst, abs(value / base - 1.0))
    report(10, worst < 0.005,
           f"delta_q_total drifts {worst:.2e} relative under hbar in {{0.5, 2}}")


def test_criterion_11_spectral_equivalence(trunc_state, model):
    h = trunc_state.grid.h
    spectral = SpectralState(
        energies=trunc_state.grid.nodes,
        coeffs=np.asarray(trunc_state.amps) * np.sqrt(h),
    )
    worst = 0.0
    for tau in (0.3, 1.0, 14.0):
        via_spectrum = propagate(spectral, tau, model).coeffs / np.sqrt(h)
        via_grid = evolve(trunc_state, tau, model).amps
        worst = max(worst, float(np.max(np.abs(via_spectrum - via_grid))))
    report(11, worst <= 1e-12, f"max amplitude difference {worst:.2e}")


def test_criterion_12_lab_estimates():
    from turning_frame import PhysicalScenario, coherence_time_estimate, \
        displacement_estimate

    cold = PhysicalScenario.from_amu(100.0, 1e-6)
    warm = PhysicalScenario.from_amu(100.0, 1.0)
    dq_cold = displacement_estimate(cold)
    dq_warm = displacement_estimate(warm)
    dtau = coherence_time_estimate(cold)
    ok = (3e-6 <= dq_cold <= 3e-5) and (3e-4 <= dtau <= 3e-3) and (3.0 <= dq_warm <= 30.0)
    report(12, ok,
           f"dq(1uK) = {dq_cold:.3e} m, dtau(1uK) = {dtau:.3e} s, "
           f"dq(1K) = {dq_warm:.2f} m")


def test_criterion_13_determinism(tmp_path):
    cfg = {
        "model": {"lambda": 4.0, "hbar": 1.0},
        "state": {"q0": 4.0, "p0": 1.25, "sigma": 1.0},
        "grid": {"p_min": 0.01, "p_max": 5.0, "n": 1024},
        "tau": {"start": -1.0, "stop": 16.0, "num": 120},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    payloads = []
    for sub in ("run1", "run2"):
        outdir = tmp_path / sub
        outdir.mkdir()
        assert main(["shift", "--config", str(cfg_path),
                     "--outdir", str(outdir)]) == 0
        payloads.append(tuple(
            (outdir / name).read_bytes()
            for name in ("shift_series.csv", "shift_report.json")
        ))
    ok = payloads[0] == payloads[1]
    report(13, ok, "repeated cmd_shift runs are byte-identical")
