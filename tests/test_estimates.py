"""Tests for the gravitational-realization order-of-magnitude estimates."""

import math

import pytest

from turning_frame import (
    AMU_KG,
    BOLTZMANN_J_PER_K,
    DomainError,
    PhysicalScenario,
    coherence_time_estimate,
    displacement_estimate,
    lambda_gravitational,
)


def test_scenario_validation():
    with pytest.raises(DomainError):
        PhysicalScenario(mass_kg=0.0, temperature_k=1.0)
    with pytest.raises(DomainError):
        PhysicalScenario(mass_kg=1.0, temperature_k=-1.0)
    with pytest.raises(DomainError):
        PhysicalScenario(mass_kg=1.0, temperature_k=1.0, gravity=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            PhysicalScenario(mass_kg=1.0, temperature_k=1.0, gravity=bad)
        with pytest.raises(DomainError):
            PhysicalScenario(mass_kg=bad, temperature_k=1.0)
        with pytest.raises(DomainError):
            PhysicalScenario(mass_kg=1.0, temperature_k=bad)


@pytest.mark.parametrize("estimate, scenario", [
    (lambda_gravitational, PhysicalScenario.from_amu(1e300, 1.0)),
    (displacement_estimate, PhysicalScenario(1e-200, 1.0, gravity=1e-200)),
    (coherence_time_estimate, PhysicalScenario(1e-300, 1e300)),
])
def test_overflowing_estimates_raise_domain_error(estimate, scenario):
    with pytest.raises(DomainError):
        estimate(scenario)


def test_amu_conversion_round_trip():
    scenario = PhysicalScenario.from_amu(100.0, 1.0)
    assert scenario.mass_kg == pytest.approx(1.6605390666e-25)
    assert scenario.mass_amu == pytest.approx(100.0)


def test_lambda_gravitational_values():
    assert lambda_gravitational(
        PhysicalScenario(mass_kg=1.0, temperature_k=1.0)
    ) == pytest.approx(9.81)
    hundred_amu = PhysicalScenario.from_amu(100.0, 1.0)
    assert lambda_gravitational(hundred_amu) == pytest.approx(2.705e-49, rel=1e-3)


def test_lambda_scales_with_mass_squared():
    one = PhysicalScenario(mass_kg=2.0, temperature_k=1.0)
    two = PhysicalScenario(mass_kg=4.0, temperature_k=1.0)
    assert lambda_gravitational(two) == pytest.approx(4 * lambda_gravitational(one))


def test_displacement_reference_values():
    warm = PhysicalScenario.from_amu(100.0, 1.0)
    cold = PhysicalScenario.from_amu(100.0, 1e-6)
    # k_B T / (m g) with exact SI constants
    expected_warm = BOLTZMANN_J_PER_K / (100.0 * AMU_KG * 9.81)
    assert displacement_estimate(warm) == pytest.approx(expected_warm)
    assert displacement_estimate(warm) == pytest.approx(8.4755, abs=2e-3)
    assert displacement_estimate(cold) == pytest.approx(8.4755e-6, abs=2e-9)
    # headline orders of magnitude: ~10 m warm, ~1e-5 m in a microkelvin trap
    assert 3.0 < displacement_estimate(warm) < 30.0
    assert 3e-6 < displacement_estimate(cold) < 3e-5


def test_displacement_linearity_in_temperature():
    t1 = displacement_estimate(PhysicalScenario.from_amu(50.0, 1.0))
    t2 = displacement_estimate(PhysicalScenario.from_amu(50.0, 2.0))
    assert t2 == pytest.approx(2.0 * t1)


def test_coherence_time_reference_values():
    cold = PhysicalScenario.from_amu(100.0, 1e-6)
    assert coherence_time_estimate(cold) == pytest.approx(9.295e-4, abs=2e-6)
    assert 3e-4 < coherence_time_estimate(cold) < 3e-3  # ~1 ms


def test_coherence_time_scaling_with_mass():
    base = coherence_time_estimate(PhysicalScenario.from_amu(25.0, 1.0))
    heavier = coherence_time_estimate(PhysicalScenario.from_amu(100.0, 1.0))
    assert heavier == pytest.approx(base / 2.0)


def test_prefactors_match_rounded_coefficients():
    """Dimensionless prefactors sit within 1.5x of the rounded values
    1e-24 kg m^-1 K^-1 and 10 s K^-1/2 amu^1/2."""
    shift_coefficient = BOLTZMANN_J_PER_K / 9.81          # per (T/K) (kg/m)
    assert 1.0 / 1.5 < shift_coefficient / 1e-24 < 1.5
    time_coefficient = math.sqrt(BOLTZMANN_J_PER_K / AMU_KG) / 9.81
    assert 1.0 / 1.5 < time_coefficient / 10.0 < 1.5
    # the exact value behind the rounded 10: about 9.3
    assert time_coefficient == pytest.approx(9.295, abs=0.01)


def test_dimensional_consistency():
    """k_B T / (m g) carries length: scaling checks on every input."""
    base = PhysicalScenario(mass_kg=1e-25, temperature_k=1e-3)
    assert displacement_estimate(
        PhysicalScenario(mass_kg=2e-25, temperature_k=1e-3)
    ) == pytest.approx(displacement_estimate(base) / 2.0)
    assert displacement_estimate(
        PhysicalScenario(mass_kg=1e-25, temperature_k=1e-3, gravity=2 * 9.81)
    ) == pytest.approx(displacement_estimate(base) / 2.0)
