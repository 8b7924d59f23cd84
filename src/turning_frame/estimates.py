"""Laboratory-scale order-of-magnitude estimates for a gravitational frame.

If the frame degree of freedom is the vertical position of a particle of
mass m in Earth's gravity, the potential slope is ``lam = m^2 g`` (the
mass enters squared because the momentum term carries no inverse-mass
factor).  Relating the thermal momentum of an atom ensemble to
temperature via ``<p>^2 / m ~ k_B T`` turns the shift and crossing time
into the displayed estimates, with order-one coefficients dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .model import _require_positive

BOLTZMANN_J_PER_K = 1.380649e-23   # exact SI
AMU_KG = 1.66053906660e-27
STANDARD_GRAVITY = 9.81


@dataclass(frozen=True)
class PhysicalScenario:
    """Mass, temperature, and effective acceleration of a realization.

    ``gravity`` may be replaced by a larger effective acceleration (for
    example an electric force on an ion divided by its mass).
    """

    mass_kg: float
    temperature_k: float
    gravity: float = STANDARD_GRAVITY

    def __post_init__(self):
        for name in ("mass_kg", "temperature_k", "gravity"):
            _require_positive(getattr(self, name), name)

    @classmethod
    def from_amu(
        cls, mass_amu: float, temperature_k: float, gravity: float = STANDARD_GRAVITY
    ) -> "PhysicalScenario":
        _require_positive(mass_amu, "mass_amu")
        return cls(mass_kg=mass_amu * AMU_KG, temperature_k=temperature_k,
                   gravity=gravity)

    @property
    def mass_amu(self) -> float:
        return self.mass_kg / AMU_KG


def _finite_estimate(name: str, compute) -> float:
    try:
        value = compute()
    except ArithmeticError:  # float ** overflows and / by an underflowed 0 raise
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"{name} overflows double precision for this scenario")
    return value


def lambda_gravitational(scenario: PhysicalScenario) -> float:
    """Frame potential slope m^2 g in SI units (kg^2 m/s^2)."""
    return _finite_estimate(
        "lambda", lambda: scenario.mass_kg**2 * scenario.gravity
    )


def displacement_estimate(scenario: PhysicalScenario) -> float:
    """Expected shift magnitude k_B T / (m g) in meters (unit coefficient)."""
    return _finite_estimate("delta_q", lambda: (
        BOLTZMANN_J_PER_K
        * scenario.temperature_k
        / (scenario.mass_kg * scenario.gravity)
    ))


def coherence_time_estimate(scenario: PhysicalScenario) -> float:
    """Turning-point crossing time sqrt(k_B T / m) / g in seconds."""
    return _finite_estimate("delta_tau", lambda: (
        math.sqrt(BOLTZMANN_J_PER_K * scenario.temperature_k / scenario.mass_kg)
        / scenario.gravity
    ))
