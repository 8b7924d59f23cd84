"""Domain types and state construction.

Conventions used throughout the package:

* The frame potential is linear with slope ``lam`` and acts only at
  positive frame values, so a system carrying energy H meets a single
  turning point at ``H**2 / lam``.
* Momentum-space states live on uniform grids; every quadrature is the
  plain node sum ``sum(values) * h``, and states are normalized so that
  ``sum(|amps|**2) * h == 1``.
* ``hbar`` defaults to 1 (model units).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import _csv
from .errors import DomainError, InvalidStateError, ResolutionError

NORM_TOLERANCE = 1e-6


def _norm(amps: np.ndarray, h: float) -> float:
    return float(np.sqrt(np.sum(np.abs(amps) ** 2) * h))


def _check_norm(norm: float) -> None:
    if not abs(norm - 1.0) <= NORM_TOLERANCE:
        raise InvalidStateError(
            f"state norm {norm:.9f} deviates from 1 beyond {NORM_TOLERANCE}"
        )


def _check_normalized(state: MomentumState) -> None:
    _check_norm(state.norm())


def _square(value: float, name: str) -> float:
    """``value**2``, or DomainError when the square overflows."""
    try:
        square = value**2
    except OverflowError:  # a Python float; NumPy scalars give inf
        square = math.inf
    if math.isinf(square):
        raise DomainError(f"{name}={value} is too large: its square overflows")
    return square


def _require_finite(obj, *names: str) -> None:
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def _require_finite_tau(tau) -> None:
    if not np.all(np.isfinite(tau)):
        raise DomainError(f"tau must be finite, got {tau}")


class ShiftConvention(enum.Enum):
    """How the classical momentum entering shift formulas is read off a state.

    MEAN_MOMENTUM maps the classical p to <p> (fluctuations appear as a
    separate term); MEAN_SQUARE_MOMENTUM maps the classical p**2 to <p^2>.
    """

    MEAN_MOMENTUM = "mean_momentum"
    MEAN_SQUARE_MOMENTUM = "mean_square_momentum"


class GaussianMode(enum.Enum):
    """Support handling for Gaussian construction.

    TRUNCATE_POSITIVE requires a strictly positive grid and renormalizes
    there (the model's positive-energy orientation makes p <= 0 components
    ill-defined); RAW evaluates the Gaussian formula verbatim on whatever
    grid is supplied, for comparison runs.
    """

    TRUNCATE_POSITIVE = "truncate_positive"
    RAW = "raw"


@dataclass(frozen=True)
class FrameModel:
    """Frame parameters: potential slope, Planck constant, shift convention."""

    lam: float
    hbar: float = 1.0
    shift_convention: ShiftConvention = ShiftConvention.MEAN_MOMENTUM

    def __post_init__(self):
        _require_finite(self, "lam", "hbar")
        if not self.lam > 0.0:
            raise DomainError(f"potential slope must be positive, got {self.lam}")
        if not self.hbar > 0.0:
            raise DomainError(f"hbar must be positive, got {self.hbar}")


@dataclass(frozen=True)
class ClassicalState:
    """Initial data (q0, p) for the linear system Hamiltonian H = p."""

    q0: float
    p: float

    def __post_init__(self):
        _require_finite(self, "q0", "p")
        if not self.p > 0.0:
            raise DomainError(
                f"momentum must be positive for a forward turning point, got {self.p}"
            )


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform momentum grid with n nodes on [p_min, p_max]."""

    p_min: float
    p_max: float
    n: int

    def __post_init__(self):
        _require_finite(self, "p_min", "p_max")
        if not self.p_min < self.p_max:
            raise DomainError(f"need p_min < p_max, got [{self.p_min}, {self.p_max}]")
        if self.n < 2:
            raise DomainError(f"need at least 2 grid nodes, got {self.n}")

    @property
    def h(self) -> float:
        return (self.p_max - self.p_min) / (self.n - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.n)


@dataclass(frozen=True)
class MomentumState:
    """Complex amplitudes over a momentum grid at scale value tau.

    Amplitudes are density-normalized: ``sum(|amps|**2) * grid.h == 1``
    for every state produced by this package. The array is copied and
    frozen at construction.
    """

    grid: MomentumGrid
    amps: np.ndarray
    tau: float

    def __post_init__(self):
        _require_finite_tau(self.tau)
        amps = np.array(self.amps, dtype=np.complex128)
        if amps.shape != (self.grid.n,):
            raise InvalidStateError(
                f"amplitude shape {amps.shape} does not match grid size {self.grid.n}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    def norm(self) -> float:
        return _norm(self.amps, self.grid.h)


@dataclass(frozen=True)
class GaussianSpec:
    """Minimum-uncertainty packet: position center, momentum center, width.

    ``sigma`` is the position-space standard deviation, so the momentum
    variance is ``(hbar / (2 sigma))**2``.
    """

    q0: float
    p0: float
    sigma: float

    def __post_init__(self):
        _require_finite(self, "q0", "p0", "sigma")
        if not self.sigma > 0.0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class ExpectationSeries:
    """Scale-ordered samples of position statistics along an evolution.

    The arrays are copied as float64 and frozen at construction.
    """

    taus: np.ndarray
    q_mean: np.ndarray
    norm: np.ndarray
    q_var: Optional[np.ndarray] = None
    q_classical: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("taus", "q_mean", "norm", "q_var", "q_classical"):
            if getattr(self, name) is not None:
                arr = np.array(getattr(self, name), dtype=np.float64)
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)
        if np.any(np.diff(self.taus) <= 0.0):
            raise DomainError("tau samples must be strictly increasing")
        n = self.taus.shape[0]
        for name in ("q_mean", "norm", "q_var", "q_classical"):
            arr = getattr(self, name)
            if arr is not None and arr.shape != (n,):
                raise InvalidStateError(f"{name} length does not match taus")


@dataclass(frozen=True)
class ShiftReport:
    """Classical, quantum, and total displacement shifts for one state."""

    delta_q_classical: float
    delta_q_quantum_analytic: float
    delta_q_quantum_numeric: float
    delta_q_total: float
    extrapolation_tau: float
    residual: float
    slope: float
    convention: ShiftConvention = ShiftConvention.MEAN_MOMENTUM

    def __post_init__(self):
        if self.residual < 0.0:
            raise InvalidStateError("residual must be non-negative")

    def to_dict(self) -> dict:
        return {
            "delta_q_classical": self.delta_q_classical,
            "delta_q_quantum_analytic": self.delta_q_quantum_analytic,
            "delta_q_quantum_numeric": self.delta_q_quantum_numeric,
            "delta_q_total": self.delta_q_total,
            "extrapolation_tau": self.extrapolation_tau,
            "residual": self.residual,
            "slope": self.slope,
            "convention": self.convention.value,
        }


class Moments(NamedTuple):
    mean_p: float
    mean_p2: float
    var_p: float


def make_gaussian(
    spec: GaussianSpec,
    grid: MomentumGrid,
    model: FrameModel,
    mode: GaussianMode = GaussianMode.TRUNCATE_POSITIVE,
    tau0: float = 0.0,
) -> MomentumState:
    """Build a normalized Gaussian momentum state referenced to tau0 <= 0.

    Amplitudes follow ``exp(-sigma^2 (p - p0)^2 / hbar^2) exp(-i p q0 / hbar)``
    and are renormalized on the grid. In TRUNCATE_POSITIVE mode the grid
    must be strictly positive.
    """
    if mode is GaussianMode.TRUNCATE_POSITIVE and not grid.p_min > 0.0:
        raise DomainError(
            f"truncate-positive mode needs p_min > 0, got {grid.p_min}"
        )
    _require_finite_tau(tau0)
    if tau0 > 0.0:
        raise DomainError(f"reference tau0 must be <= 0, got {tau0}")
    sigma_p = model.hbar / (2.0 * spec.sigma)
    if 6.0 * sigma_p / grid.h < 16.0:
        raise ResolutionError(
            f"grid spacing {grid.h:.3g} leaves fewer than 16 nodes across "
            f"6 sigma_p = {6.0 * sigma_p:.3g}"
        )
    p = grid.nodes
    sigma2 = _square(spec.sigma, "sigma")
    # A p0 far off the grid overflows the square; exp(-inf) = 0 and the
    # no-support check below reports it.
    with np.errstate(over="ignore"):
        envelope = np.exp(-sigma2 * (p - spec.p0) ** 2 / _square(model.hbar, "hbar"))
    amps = envelope * np.exp(-1j * p * spec.q0 / model.hbar)
    if tau0 != 0.0:
        amps = amps * np.exp(-1j * p * tau0 / model.hbar)
    norm2 = np.sum(np.abs(amps) ** 2) * grid.h
    if norm2 <= 0.0:
        raise ResolutionError("state has no support on the supplied grid")
    return MomentumState(grid=grid, amps=amps / np.sqrt(norm2), tau=tau0)


def moments(state: MomentumState) -> Moments:
    """Momentum mean, raw second moment, and variance by grid quadrature."""
    _check_normalized(state)
    p = state.grid.nodes
    dens = np.abs(state.amps) ** 2
    h = state.grid.h
    mean_p = float(np.sum(dens * p) * h)
    mean_p2 = float(np.sum(dens * p * p) * h)
    return Moments(mean_p, mean_p2, mean_p2 - mean_p**2)


def save_momentum_csv(state: MomentumState, path) -> None:
    """Write a state as ``p,re,im`` rows at full round-trip precision."""
    _csv.write(path, ["p", "re", "im"],
               [state.grid.nodes, state.amps.real, state.amps.imag])


def load_momentum_csv(path, tau: float = 0.0) -> MomentumState:
    """Read a ``p,re,im`` file back into a state on a uniform grid."""
    p_arr, re, im = _csv.read(path, ["p", "re", "im"])
    if p_arr.size < 2:
        raise InvalidStateError("state CSV holds fewer than 2 nodes")
    steps = np.diff(p_arr)
    if np.max(np.abs(steps - steps[0])) > 1e-9 * max(abs(p_arr[0]), abs(p_arr[-1]), 1.0):
        raise InvalidStateError("state CSV nodes are not uniformly spaced")
    grid = MomentumGrid(float(p_arr[0]), float(p_arr[-1]), int(p_arr.size))
    amps = np.column_stack([re, im]).view(np.complex128).ravel()
    return MomentumState(grid=grid, amps=amps, tau=tau)
