"""Seeded requests, how each is run, and its output check.

A run is a sequence of passes.  The sizes that set a request's cost (grid
nodes, tau samples, q nodes, snapshots, spectrum dimension) are a fixed
design that spans each range once per pass, so every pass does the same
amount of work whatever the seed; the seed draws the order of the design
once per run.  The physical parameters (lambda, p0, sigma, q0, tau ranges,
snapshot times, spectra, observables) are drawn afresh for every pass from
the seeded generator, so apart from the shift reference no input repeats and
a cache of results across identical requests cannot help.  Every parameter
range stays inside the domain where the package's own checks pass: the
1e-4 analytic/numeric cross-check of ``expectation_series`` holds down to
n=4096 on [0.01, 5] only while ``tau.stop`` stays within 1.15 times the
asymptotic bound ``2 p_max^2 / lambda`` (worst corner measured: 5.2e-5 at
hbar=0.5, lambda=2, q0=6), and at n<=2048 it fails for part of the range,
so no coarser grid is drawn.

A request raises :class:`CheckFailed` from ``check`` when its output is
wrong; the worker counts it as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import turning_frame as tf
from turning_frame import cli

REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "shift_reference.json"
REFERENCE_SHIFT = -1.6875
REFERENCE_REL_TOL = 0.02
# the package's own limits: quantum.CROSS_CHECK_TOLERANCE and
# shift.SLOPE_REPORT_TOLERANCE, copied so a change to them cannot loosen
# the benchmark's check
RESIDUAL_TOL = 1e-4
SLOPE_TOL = 1e-3
# a render must match the benchmark's direct sum to this share of its peak
# amplitude; loose enough for an FFT-based transform (about 1e-12 at hbar=0.05)
RENDER_TOL = 1e-9
RENDER_ORACLE_POINTS = 13

BOLTZMANN_J_PER_K = 1.380649e-23
AMU_KG = 1.66053906660e-27
GRAVITY = 9.81


class CheckFailed(Exception):
    """A request's output is missing or wrong."""


def _run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"turning-frame {argv[0]} exited with {code}")


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Workload:
    """Passes of seeded requests; ``run`` is timed, ``check`` is not."""

    DESIGN: list = []

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.order = self.rng.permutation(len(self.DESIGN)).tolist()

    def new_pass(self) -> list[dict]:
        """The next pass: every design entry once, in the run's order, with
        fresh parameters.  ``prefix`` names the request's files."""
        requests = []
        for index in self.order:
            prefix = f"{type(self).__name__.lower()}{index:02d}"
            requests.append({**self._request(prefix, self.DESIGN[index]), "prefix": prefix})
        return requests

    def _request(self, prefix: str, size) -> dict:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def run(self, request: dict):
        raise NotImplementedError

    def check(self, request: dict, output) -> None:
        raise NotImplementedError

    def facts(self) -> dict:
        """Values recorded with the result, such as output digests."""
        return {}


class ShiftSweep(Workload):
    """``turning-frame shift`` on generated configs.

    Stresses the per-tau loop of ``quantum.expectation_series`` and the
    ``_kernels`` stencils; never calls ``position_transform``.  Grids of
    4096 and 8192 nodes are working sets of 64 KB and 128 KB per state.
    """

    # (grid nodes, tau samples, hbar) of the generated requests in a pass;
    # every pass starts with configs/shift_reference.json (4096, 341, 1), the
    # workload's one repeated input
    DESIGN = [(4096, 171, 0.5), (4096, 681, 1.0), (8192, 171, 1.0), (8192, 426, 0.5)]
    P_MIN, P_MAX = 0.01, 5.0

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.reference_delta: float | None = None
        self.deltas: list[float] = []

    def new_pass(self):
        reference = {"config": REFERENCE_CONFIG, "num": 341, "reference": True,
                     "prefix": "reference"}
        return [reference] + super().new_pass()

    def _request(self, prefix, size):
        n, num, hbar = size
        lam = self.rng.uniform(2.0, 8.0)
        stop = 2.0 * self.P_MAX**2 / lam * self.rng.uniform(1.05, 1.15)
        cfg = {
            "model": {"lambda": lam, "hbar": hbar, "convention": "mean_momentum"},
            "state": {"q0": self.rng.uniform(0.0, 6.0),
                      "p0": self.rng.uniform(1.0, 1.5),
                      "sigma": self.rng.uniform(0.7, 1.4),
                      "mode": "truncate_positive"},
            "grid": {"p_min": self.P_MIN, "p_max": self.P_MAX, "n": n},
            "tau": {"start": -1.0, "stop": stop, "num": num},
        }
        path = self.workdir / f"{prefix}.json"
        path.write_text(json.dumps(cfg))
        return {"config": path, "num": num, "reference": False}

    def warmup(self):
        _run_cli(["shift", "--config", str(REFERENCE_CONFIG), "--tau-num", "41",
                  "--outdir", str(self.workdir), "--prefix", "warmup"])

    def run(self, request):
        _run_cli(["shift", "--config", str(request["config"]),
                  "--outdir", str(self.workdir), "--prefix", request["prefix"]])

    def check(self, request, output):
        report = json.loads((self.workdir / f"{request['prefix']}_report.json").read_text())
        if not report["residual"] <= RESIDUAL_TOL:
            raise CheckFailed(f"residual {report['residual']} exceeds {RESIDUAL_TOL}")
        if not abs(report["slope"] - 1.0) <= SLOPE_TOL:
            raise CheckFailed(f"slope {report['slope']} deviates from 1 beyond {SLOPE_TOL}")
        delta = report["delta_q_total"]
        if not math.isfinite(delta):
            raise CheckFailed(f"delta_q_total {delta} is not finite")
        if request["reference"] and not abs(delta / REFERENCE_SHIFT - 1.0) <= REFERENCE_REL_TOL:
            raise CheckFailed(f"reference delta_q_total {delta} is not within "
                              f"{REFERENCE_REL_TOL:.0%} of {REFERENCE_SHIFT}")
        with open(self.workdir / f"{request['prefix']}_series.csv") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != request["num"]:
            raise CheckFailed(f"series has {rows} rows, expected {request['num']}")
        if request["reference"]:
            if self.reference_delta is None:
                self.reference_delta = delta
            elif delta != self.reference_delta:
                raise CheckFailed(f"reference delta_q_total changed between passes: "
                                  f"{self.reference_delta} -> {delta}")
        self.deltas.append(delta)

    def facts(self):
        first_pass = self.deltas[:len(self.DESIGN) + 1]
        text = ",".join(format(v, ".10e") for v in first_pass)
        return {
            "reference_delta_q_total": self.reference_delta,
            "first_pass_delta_q_total_digest": hashlib.sha256(text.encode()).hexdigest()[:16],
        }


class SnapshotRender(Workload):
    """``turning-frame evolve`` with a position grid (RAW mode, no stencils).

    Most of a request is the O(N_p N_q) ``_kernels.position_transform``; the
    rest is the 17-digit CSV writer.  The check compares the written position
    amplitudes with a direct plane-wave sum of the written momentum
    amplitudes at a subsample of q nodes.
    """

    # (momentum nodes, q nodes, snapshots, hbar) of the requests in a pass.
    # Every entry computes the same number of plane-wave terms (momentum
    # nodes x q nodes x snapshots, about 17.2 million), so request times form
    # one cluster and their median is not the gap between two clusters.
    DESIGN = [(4096, 1401, 3, 1.0), (4096, 1051, 4, 0.5),
              (8192, 1051, 2, 1.0), (8192, 701, 3, 0.5)]
    P_RANGE = (-2.5, 5.5)
    Q_RANGE = (-2.0, 12.0)

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.warm_config = workdir / "render_warmup.json"
        self.warm_config.write_text(json.dumps(
            self._config(4096, 64, [1.0], 1.0, lam=4.0, q0=4.0, p0=1.25, sigma=1.0)))

    def _request(self, prefix, size):
        n, nq, snaps, hbar = size
        taus = np.sort(self.rng.uniform(0.0, 2.0, snaps)).tolist()
        cfg = self._config(n, nq, taus, hbar,
                           lam=self.rng.uniform(2.0, 8.0),
                           q0=self.rng.uniform(3.0, 4.0),
                           p0=self.rng.uniform(1.0, 1.5),
                           sigma=self.rng.uniform(0.7, 1.4))
        path = self.workdir / f"{prefix}.json"
        path.write_text(json.dumps(cfg))
        return {"config": path, "nq": nq, "snapshots": snaps, "hbar": hbar}

    def _config(self, n, nq, taus, hbar, lam, q0, p0, sigma):
        return {
            "model": {"lambda": lam, "hbar": hbar},
            "state": {"q0": q0, "p0": p0, "sigma": sigma, "mode": "raw"},
            "grid": {"p_min": self.P_RANGE[0], "p_max": self.P_RANGE[1], "n": n},
            "snapshots": taus,
            "q_grid": {"q_min": self.Q_RANGE[0], "q_max": self.Q_RANGE[1], "n": nq},
        }

    def warmup(self):
        _run_cli(["evolve", "--config", str(self.warm_config),
                  "--outdir", str(self.workdir), "--prefix", "warmup"])

    def run(self, request):
        _run_cli(["evolve", "--config", str(request["config"]),
                  "--outdir", str(self.workdir), "--prefix", request["prefix"]])

    def check(self, request, output):
        summary = json.loads(
            (self.workdir / f"{request['prefix']}_summary.json").read_text())
        entries = summary["snapshots"]
        if len(entries) != request["snapshots"]:
            raise CheckFailed(f"{len(entries)} snapshots, expected {request['snapshots']}")
        q_expected = np.linspace(*self.Q_RANGE, request["nq"])
        sample = np.linspace(0, request["nq"] - 1, RENDER_ORACLE_POINTS).astype(int)
        for entry in entries:
            if not abs(entry["norm_p"] - 1.0) <= 1e-9:
                raise CheckFailed(f"momentum norm {entry['norm_p']} at tau={entry['tau']}")
            p, re, im = _read_csv(self.workdir / entry["momentum_csv"])[:, :3].T
            q, qre, qim, abs2 = _read_csv(self.workdir / entry["position_csv"]).T
            if not np.array_equal(q, q_expected):
                raise CheckFailed(f"position grid differs at tau={entry['tau']}")
            h = (p[-1] - p[0]) / (p.shape[0] - 1)
            hbar = request["hbar"]
            oracle = (np.exp(1j * np.outer(q[sample], p) / hbar) @ (re + 1j * im)
                      * h / math.sqrt(2.0 * math.pi * hbar))
            rendered = qre[sample] + 1j * qim[sample]
            peak = float(np.max(np.hypot(qre, qim)))
            error = float(np.max(np.abs(rendered - oracle)))
            if not error <= RENDER_TOL * peak:
                raise CheckFailed(f"render differs from direct sum by {error:.3e} "
                                  f"(peak {peak:.3e}) at tau={entry['tau']}")
            norm = float(np.sum(abs2) * (q[1] - q[0]))
            if not abs(norm - entry["norm_q"]) <= 1e-9 * entry["norm_q"]:
                raise CheckFailed(f"summary norm_q {entry['norm_q']} != {norm}")


class SpectralRoundtrip(Workload):
    """Many small library calls: spectral propagation, CSV round trips,
    a classical trajectory and one laboratory estimate per request.

    The only workload that covers ``spectral``, ``classical`` and
    ``estimates`` and that reads files back; its calls are small, so fixed
    per-call costs in the shared ``_kernels`` functions show here.
    """

    # spectrum dimensions of the requests in a pass (log-spaced over [16, 256])
    DESIGN = [16, 22, 32, 45, 64, 90, 128, 181, 256]
    TAU_SAMPLES = 64
    TRAJECTORY_SAMPLES = 401
    # the dense observable CSV grows as d^2 and the momentum CSV with its
    # grid, so both round trips use a small fixed size; at the full d they
    # would be 90% of a request and hide the propagation and kernel calls
    OBSERVABLE_CSV_DIM = 16
    MOMENTUM_NODES = 128

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.warm_request = {**self._request("warmup", 16), "prefix": "warmup"}

    def _request(self, prefix, d):
        rng = self.rng
        energies = 0.2 + np.cumsum(rng.uniform(0.5, 1.5, d)) * (2.8 / d)
        coeffs = rng.normal(size=d) + 1j * rng.normal(size=d)
        coeffs /= np.sqrt(np.sum(np.abs(coeffs) ** 2))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        lam = rng.uniform(2.0, 8.0)
        hbar = float(rng.choice([0.5, 1.0]))
        p = rng.uniform(1.0, 1.5)
        return {
            "lam": lam, "hbar": hbar, "energies": energies, "coeffs": coeffs,
            "observable": (a + a.conj().T) / 2.0,
            "taus": np.linspace(-1.0, 2.0 * energies[-1] ** 2 / lam + 1.0,
                                self.TAU_SAMPLES),
            "trajectory": {"q0": rng.uniform(0.0, 6.0), "p": p,
                           "taus": np.linspace(-1.0, 3.0 * p * p / lam,
                                               self.TRAJECTORY_SAMPLES)},
            "gaussian": {"q0": rng.uniform(0.0, 6.0), "p0": rng.uniform(1.0, 1.5),
                         "sigma": rng.uniform(0.7, 1.4)},
            "scenario": {"mass_amu": 10.0 ** rng.uniform(0.0, 2.5),
                         "temperature_k": 10.0 ** rng.uniform(-7.0, -4.0)},
        }

    def warmup(self):
        self.run(self.warm_request)

    def run(self, request):
        model = tf.FrameModel(lam=request["lam"], hbar=request["hbar"])
        state = tf.SpectralState(energies=request["energies"], coeffs=request["coeffs"])
        observable = tf.ObservableMatrix(request["observable"])
        energy = tf.ObservableMatrix(np.diag(request["energies"]))
        states, values, energies = [], [], []
        for tau in request["taus"]:
            evolved = tf.propagate(state, tau, model)
            states.append(evolved)
            values.append(tf.expectation(evolved, observable))
            energies.append(tf.expectation(evolved, energy))
        back = tf.propagate(evolved, state.tau, model)

        base = self.workdir / request["prefix"]
        tf.save_spectral_csv(evolved, f"{base}_state.csv")
        state_read = tf.load_spectral_csv(f"{base}_state.csv", tau=evolved.tau)
        block = self.OBSERVABLE_CSV_DIM
        small = tf.ObservableMatrix(request["observable"][:block, :block])
        tf.save_observable_csv(small, f"{base}_observable.csv")
        small_read = tf.load_observable_csv(f"{base}_observable.csv")

        g = request["gaussian"]
        packet = tf.make_gaussian(tf.GaussianSpec(q0=g["q0"], p0=g["p0"], sigma=g["sigma"]),
                                  tf.MomentumGrid(0.01, 5.0, self.MOMENTUM_NODES), model)
        tf.save_momentum_csv(packet, f"{base}_momentum.csv")
        packet_read = tf.load_momentum_csv(f"{base}_momentum.csv")

        t = request["trajectory"]
        classical = tf.ClassicalState(q0=t["q0"], p=t["p"])
        q = tf.q_of_tau(t["taus"], classical, model)
        phi = tf.unwind_phi(t["taus"], t["p"], model)
        before = t["taus"] <= t["p"] ** 2 / model.lam
        s = request["scenario"]
        scenario = tf.PhysicalScenario.from_amu(s["mass_amu"], s["temperature_k"])
        return {
            "state": state, "back": back, "states": states, "values": values,
            "energies": energies, "evolved": evolved, "state_read": state_read,
            "observable": small, "observable_read": small_read,
            "packet": packet, "packet_read": packet_read,
            "moments": (tf.moments(packet), tf.moments(packet_read)),
            "q": q, "phi": phi, "phi_of_q": tf.phi_of_q(q, classical, model),
            "q_before": tf.q_of_phi(phi[before], tf.Branch.BEFORE, classical, model),
            "q_after": tf.q_of_phi(phi[~before], tf.Branch.AFTER, classical, model),
            "before": before,
            "estimates": (tf.lambda_gravitational(scenario),
                          tf.displacement_estimate(scenario),
                          tf.coherence_time_estimate(scenario)),
        }

    def check(self, request, out):
        norms = [np.sum(np.abs(s.coeffs) ** 2) for s in out["states"]]
        if not np.max(np.abs(np.asarray(norms) - 1.0)) <= 1e-12:
            raise CheckFailed("propagation changed the norm")
        energies = np.asarray(out["energies"])
        if not np.max(np.abs(energies - energies[0])) <= 1e-12 * request["energies"][-1]:
            raise CheckFailed("energy expectation is not invariant")
        if not np.all(np.isfinite(out["values"])):
            raise CheckFailed("observable expectation is not finite")
        if not np.max(np.abs(out["back"].coeffs - out["state"].coeffs)) <= 1e-10:
            raise CheckFailed("propagating back does not recover the initial state")
        if not (np.array_equal(out["state_read"].energies, out["evolved"].energies)
                and np.array_equal(out["state_read"].coeffs, out["evolved"].coeffs)):
            raise CheckFailed("spectral CSV round trip is not exact")
        if not np.array_equal(out["observable_read"].matrix, out["observable"].matrix):
            raise CheckFailed("observable CSV round trip is not exact")
        if not (np.array_equal(out["packet_read"].amps, out["packet"].amps)
                and np.array_equal(out["packet_read"].grid.nodes, out["packet"].grid.nodes)
                and out["moments"][0] == out["moments"][1]):
            raise CheckFailed("momentum CSV round trip is not exact")
        t = request["trajectory"]
        scale = max(1.0, t["q0"] + t["taus"][-1] + 2.0 * t["p"] ** 2 / request["lam"])
        if not np.max(np.abs(out["phi_of_q"] - out["phi"])) <= 1e-9 * scale:
            raise CheckFailed("phi_of_q(q_of_tau) differs from unwind_phi")
        q = out["q"]
        if not (np.max(np.abs(out["q_before"] - q[out["before"]])) <= 1e-6 * scale
                and np.max(np.abs(out["q_after"] - q[~out["before"]])) <= 1e-6 * scale):
            raise CheckFailed("q_of_phi differs from q_of_tau")
        s = request["scenario"]
        mass = s["mass_amu"] * AMU_KG
        kt = BOLTZMANN_J_PER_K * s["temperature_k"]
        expected = (mass**2 * GRAVITY, kt / (mass * GRAVITY), math.sqrt(kt / mass) / GRAVITY)
        for got, want in zip(out["estimates"], expected):
            if not abs(got - want) <= 1e-12 * want:
                raise CheckFailed(f"estimate {got} differs from {want}")


WORKLOADS = {
    "shift_sweep": ShiftSweep,
    "snapshot_render": SnapshotRender,
    "spectral_roundtrip": SpectralRoundtrip,
}
