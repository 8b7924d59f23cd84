"""Domain types and state construction.

Conventions used throughout the package:

* The frame potential is linear with slope ``lam`` and acts only at
  positive frame values, so a system carrying energy H meets a single
  turning point at ``H**2 / lam``.
* Momentum-space states live on uniform grids; every quadrature is the
  node sum :func:`_integral`, ``sum(values) * h``, and a state is built
  normalized to ``sum(|amps|**2) * h == 1``; no consumer checks again.
  A series' nodes past their exit enter that sum as ``free``, a sum taken
  by ``_kernels.free_flight``, the second place a change of rule edits.
  A norm or a variance sums ``|z|**2`` as :func:`_abs2`, the squares of
  the real and imaginary parts; the density ``|f|**2`` of the analytic
  route and the moments keep NumPy's ``abs``.
* ``hbar`` defaults to 1 (model units).
* A scalar input must be a finite ``numbers.Real`` (or a 0-d array of
  one), an array input real numbers (complex ones where complex values are
  wanted); anything else raises ``DomainError``.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import operator
import reprlib
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from . import _csv
from .errors import DomainError, InvalidStateError, ResolutionError

NORM_TOLERANCE = 1e-6


def _integral(values: np.ndarray | None, h: float, factor=1.0, free=-0.0):
    """``factor * (free + sum(values)) * h``, evaluated left to right: the one
    node sum.

    ``free`` is the sum over the nodes outside ``values`` (a series' free
    flight), added to theirs first; ``values`` is None when there are none.
    The default -0.0 leaves a sum, and the sign of a zero, as it is; a
    complex sum passes complex(-0.0, -0.0).
    """
    return factor * (free if values is None else free + np.add.reduce(values)) * h


def _abs2(values: np.ndarray | None, out=None) -> np.ndarray | None:
    """The squares of the float64 view of the 1-d complex128 ``values``: re^2
    and im^2 of each value, two slots per value, whose sum is
    sum |values|^2 without the hypot of a complex ``abs``.  ``out`` is a
    float64 array of that length.  ``values`` is contiguous, as every array
    of a state is; None, no node, stays None."""
    if values is None:
        return None
    return np.square(values.view(np.float64), out=out)


def _norm(amps: np.ndarray, h: float) -> float:
    """sqrt(sum |amps|^2 h), summed over ``_abs2(amps)``.

    A huge amplitude overflows to an infinite norm, which ``_check_norm``
    refuses, so the overflow warning is silenced.
    """
    with np.errstate(over="ignore"):
        return float(np.sqrt(_integral(_abs2(amps), h)))


def _check_norm(norm: float) -> None:
    if not abs(norm - 1.0) <= NORM_TOLERANCE:
        raise InvalidStateError(
            f"state norm {norm:.9f} deviates from 1 beyond {NORM_TOLERANCE}"
        )


def _square(value: float, name: str) -> float:
    """``float(value) ** 2``, or DomainError when the square overflows.
    ``float`` would parse text, so the caller checks ``value`` first."""
    try:
        return float(value) ** 2
    except OverflowError:
        raise DomainError(f"{name}={_shown(value)} is too large: its square "
                          "overflows") from None


def _is_finite(value) -> bool:
    """Whether ``value``, or the value of a 0-d array, is a finite
    ``numbers.Real``; a Python int beyond float range is not."""
    if isinstance(value, np.ndarray) and not value.ndim:
        value = value[()]
    try:  # float first: the ABC's check alone takes about 0.4 us for a float
        return isinstance(value, (float, numbers.Real)) and math.isfinite(value)
    except OverflowError:
        return False


def _shown(value) -> str:
    """A refused value for a message: a float or NumPy number as ``str``
    gives it, anything else by a ``repr`` cut to about 40 characters."""
    return str(value) if isinstance(value, (float, np.number)) else reprlib.repr(value)


def _require_positive(value: float, name: str) -> None:
    if not (_is_finite(value) and value > 0.0):
        raise DomainError(f"{name} must be positive and finite, got {_shown(value)}")


def _require_increasing(values: np.ndarray, name: str, error=DomainError) -> None:
    """Raise ``error`` unless values strictly increase; callers refuse inf first.

    Neighbours are compared, not subtracted: a NaN fails, no step overflows.
    """
    if not np.all(values[1:] > values[:-1]):
        raise error(f"{name} must be strictly increasing")


def _require_finite(value, name: str) -> None:
    """Refuse a scalar that is not a finite real number, by its name; no
    NumPy call, so the check is cheap enough for hot paths."""
    if not _is_finite(value):
        raise DomainError(f"{name} must be finite, got {_shown(value)}")


def _floats(value, name: str, dtype=np.float64) -> np.ndarray:
    """``value`` as an array of ``dtype``, or DomainError unless it holds
    only real numbers, or complex ones for a complex ``dtype``.  NumPy would
    parse text, drop an imaginary part with a warning and raise a bare
    error for a ragged nest, ``None`` or a Python int beyond float range."""
    kinds, number = (("biufc", numbers.Complex) if np.dtype(dtype).kind == "c"
                     else ("biuf", numbers.Real))
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nest
        arr = np.array(None)
    if not (arr.dtype.kind in kinds or arr.dtype.kind == "O"
            and all(isinstance(x, number) for x in arr.flat)):
        raise DomainError(f"{name} must be numbers, {number.__name__.lower()} ones, "
                          f"got {reprlib.repr(value)}")
    try:
        return np.asarray(arr, dtype=dtype)
    except OverflowError:
        raise DomainError(f"{name} must be finite, got an int beyond float range") from None


def _finite_floats(value, name: str) -> np.ndarray:
    """``value`` as a float64 array unless an entry is not finite: the refusal
    names the first such index and its value, not every sample."""
    arr = _floats(value, name)
    if not np.isfinite(arr).all():
        index = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
        where = list(index) if index else ""
        raise DomainError(f"{name}{where} must be finite, got {arr[index]}")
    return arr


def _frozen(value, name: str, dtype=np.float64) -> np.ndarray:
    """A read-only copy of ``_floats(value, name, dtype)``, which no later
    write to ``value`` reaches."""
    arr = _floats(value, name, dtype).copy()
    arr.setflags(write=False)
    return arr


def _evenly_spaced(nodes: np.ndarray) -> bool:
    """Whether 2 or more nodes are finite and evenly spaced to 1e-9 relative."""
    if not np.all(np.isfinite(nodes)):
        return False
    with np.errstate(over="ignore", invalid="ignore"):  # an inf step fails it
        steps = np.diff(nodes)
        gaps = np.abs(steps - steps[0])
    return bool(np.all(gaps <= 1e-9 * max(abs(nodes[0]), abs(nodes[-1]), 1.0)))


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
        _require_positive(self.lam, "potential slope")
        _require_positive(self.hbar, "hbar")


@dataclass(frozen=True)
class ClassicalState:
    """Initial data (q0, p) for the linear system Hamiltonian H = p."""

    q0: float
    p: float

    def __post_init__(self):
        _require_finite(self.q0, "q0")
        _require_positive(self.p, "momentum")
        _square(self.p, "momentum")


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform momentum grid with n nodes on [p_min, p_max]."""

    p_min: float
    p_max: float
    n: int

    def __post_init__(self):
        _require_finite(self.p_min, "p_min")
        _require_finite(self.p_max, "p_max")
        if not self.p_min < self.p_max:
            raise DomainError(f"need p_min < p_max, got [{self.p_min}, {self.p_max}]")
        try:
            operator.index(self.n)  # int or np.integer; NaN and 2.5 are refused
        except TypeError:
            raise DomainError(f"grid size n must be an integer, got {self.n}") from None
        if self.n < 2:
            raise DomainError(f"need at least 2 grid nodes, got {self.n}")
        if not _is_finite(self.n):
            raise DomainError(f"grid size n must be within float range, got {_shown(self.n)}")
        if not 0.0 < self.h < math.inf:
            raise DomainError(f"grid step of {self} must be positive and finite, got {self.h}")

    @property
    def h(self) -> float:
        return (self.p_max - self.p_min) / (self.n - 1)

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """The n nodes, built on first use and read-only."""
        nodes = np.linspace(self.p_min, self.p_max, self.n)
        nodes.setflags(write=False)
        return nodes


@dataclass(frozen=True)
class MomentumState:
    """Complex amplitudes over a momentum grid at scale value tau.

    Amplitudes are density-normalized, ``sum(|amps|**2) * grid.h == 1``
    to ``NORM_TOLERANCE``: construction refuses any other array, NaN
    included, with InvalidStateError, then copies and freezes it.
    """

    grid: MomentumGrid
    amps: np.ndarray
    tau: float

    def __post_init__(self):
        _require_finite(self.tau, "tau")
        amps = _frozen(self.amps, "amps", np.complex128)
        if amps.shape != (self.grid.n,):
            raise InvalidStateError(
                f"amplitude shape {amps.shape} does not match grid size {self.grid.n}"
            )
        _check_norm(_norm(amps, self.grid.h))
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
        _require_finite(self.q0, "q0")
        _require_finite(self.p0, "p0")
        _require_positive(self.sigma, "sigma")


@dataclass(frozen=True)
class ExpectationSeries:
    """Scale-ordered position statistics along an evolution.

    ``q_mean`` is the analytic route, cross-checked against the numeric
    route at every sample; ``q_var`` is the position variance; ``anchor``
    is <q> of the reference amplitudes f(p), the position the shift fit
    subtracts.  The arrays are copied as float64 and frozen; every value
    must be finite and the taus strictly increasing.
    """

    taus: np.ndarray
    q_mean: np.ndarray
    norm: np.ndarray
    q_var: np.ndarray
    anchor: float

    def __post_init__(self):
        for name in ("taus", "q_mean", "norm", "q_var"):
            object.__setattr__(self, name,
                               _finite_floats(_frozen(getattr(self, name), name), name))
        _require_finite(self.anchor, "anchor")
        object.__setattr__(self, "anchor", float(self.anchor))
        if self.taus.ndim != 1:
            raise DomainError("tau samples must be a 1-d array")
        _require_increasing(self.taus, "tau samples")
        for name in ("q_mean", "norm", "q_var"):
            if getattr(self, name).shape != self.taus.shape:
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
        for f in fields(self):
            if f.name != "convention":
                _require_finite(getattr(self, f.name), f.name)
        if self.residual < 0.0:
            raise InvalidStateError("residual must be non-negative")

    def to_dict(self) -> dict:
        return {**asdict(self), "convention": self.convention.value}


class Moments(NamedTuple):
    mean_p: float
    mean_p2: float
    var_p: float


def make_gaussian(
    spec: GaussianSpec,
    grid: MomentumGrid,
    model: FrameModel,
    mode: GaussianMode = GaussianMode.TRUNCATE_POSITIVE,
) -> MomentumState:
    """Build a normalized Gaussian momentum state at tau = 0.

    Amplitudes follow ``exp(-sigma^2 (p - p0)^2 / hbar^2) exp(-i p q0 / hbar)``
    and are renormalized on the grid; ``evolve`` carries the state to any
    other tau. In TRUNCATE_POSITIVE mode the grid must be strictly positive.
    """
    if mode is GaussianMode.TRUNCATE_POSITIVE and not grid.p_min > 0.0:
        raise DomainError(
            f"truncate-positive mode needs p_min > 0, got {grid.p_min}"
        )
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
    norm = _norm(amps, grid.h)
    if norm <= 0.0:
        raise ResolutionError("state has no support on the supplied grid")
    return MomentumState(grid=grid, amps=amps / norm, tau=0.0)


def moments(state: MomentumState) -> Moments:
    """Momentum mean, raw second moment, and variance by grid quadrature."""
    p = state.grid.nodes
    dens = np.abs(state.amps) ** 2
    h = state.grid.h
    mean_p = float(_integral(dens * p, h))
    mean_p2 = float(_integral(dens * p * p, h))
    return Moments(mean_p, mean_p2, mean_p2 - mean_p**2)


def save_momentum_csv(state: MomentumState, path) -> None:
    """Write a state as ``p,re,im`` rows at full round-trip precision."""
    _csv.write(path, ["p", "re", "im"],
               [state.grid.nodes, state.amps.real, state.amps.imag])


def load_momentum_csv(path, tau: float = 0.0) -> MomentumState:
    """Read a ``p,re,im`` file back into a normalized state on a uniform grid."""
    p_arr, re, im = _csv.read(path, ["p", "re", "im"])
    if p_arr.size < 2:
        raise InvalidStateError(f"{path}: holds fewer than 2 nodes")
    if not _evenly_spaced(p_arr):
        raise InvalidStateError(f"{path}: nodes are not finite and evenly spaced")
    _require_increasing(p_arr, f"{path}: p", InvalidStateError)
    grid = MomentumGrid(float(p_arr[0]), float(p_arr[-1]), int(p_arr.size))
    amps = np.column_stack([re, im]).view(np.complex128).ravel()
    try:
        return MomentumState(grid=grid, amps=amps, tau=tau)
    except InvalidStateError as exc:
        raise InvalidStateError(f"{path}: {exc}") from None
