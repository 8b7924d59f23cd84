"""Command-line front end: config-driven pipelines emitting CSV/JSON files.

Commands::

    turning-frame classical --config cfg.json   # tau, phi, q trajectory table
    turning-frame evolve    --config cfg.json   # wavefunction snapshots
    turning-frame shift     --config cfg.json   # expectation series + report
    turning-frame estimate  --mass-amu 100 --temp-k 1e-6

One JSON document configures a whole pipeline (sections: model, state,
grid, tau, snapshots, q_grid, output); the flags in ``FLAGS`` override
single fields and are typed by the same readers as config values
(``--n 1e3`` reads like ``"n": 1e3``).  A command accepts only the flags
of the fields it reads.  The default output directory
comes from ``$TURNING_FRAME_OUTDIR`` when set.  Outputs are
deterministic: identical configs produce byte-identical files on machines
where NumPy picks the same SIMD loops.

Exit codes: 0 success, 1 output pipe closed, 2 configuration or validation
problem, 3 grid resolution failure (a ResolutionError or a ConsistencyError),
4 fit window not asymptotic.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import _csv
from .errors import (
    ConfigError,
    ConsistencyError,
    NotAsymptoticError,
    ResolutionError,
    TurningFrameError,
)
from .model import (
    ClassicalState,
    FrameModel,
    GaussianMode,
    GaussianSpec,
    MomentumGrid,
    ShiftConvention,
    make_gaussian,
)
from .classical import q_of_tau, unwind_phi
from .quantum import evolve, expectation_series, position_plan, position_profile
from .shift import extract_shift_numeric
from .estimates import STANDARD_GRAVITY, PhysicalScenario, \
    coherence_time_estimate, displacement_estimate, lambda_gravitational

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_CONFIG = 2
EXIT_RESOLUTION = 3
EXIT_ASYMPTOTICS = 4
# for a state supported on p > 0, a ConsistencyError (the two expectation
# routes disagree, or the variance turns negative) means a grid too coarse
# for the state's phase
_EXIT_CODES = {ResolutionError: EXIT_RESOLUTION, ConsistencyError: EXIT_RESOLUTION,
               NotAsymptoticError: EXIT_ASYMPTOTICS}

_MISSING = object()

# config path -> the flag that overrides it
FLAGS = {
    "model.lambda": "--lambda",
    "model.hbar": "--hbar",
    "model.convention": "--convention",
    "state.q0": "--q0",
    "state.p0": "--p0",
    "state.sigma": "--sigma",
    "state.mode": "--mode",
    "grid.p_min": "--p-min",
    "grid.p_max": "--p-max",
    "grid.n": "--n",
    "tau.start": "--tau-start",
    "tau.stop": "--tau-stop",
    "tau.num": "--tau-num",
    "output.dir": "--outdir",
    "output.prefix": "--prefix",
}


def _get(cfg: dict, path: str, default=_MISSING):
    node = cfg
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            if default is _MISSING:
                raise ConfigError(path, "required field is missing")
            return default
        node = node[key]
    return node


def _finite(value, field: str) -> float:
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(field, f"need a finite number, got {value!r}")
    return number


def _number(cfg: dict, path: str, default=_MISSING) -> float:
    return _finite(_get(cfg, path, default), path)


def _count(cfg: dict, path: str) -> int:
    value = _number(cfg, path)
    if not value.is_integer():
        raise ConfigError(path, f"need a whole number, got {value!r}")
    return int(value)


def _choice(cfg: dict, path: str, kind, default):
    value = _get(cfg, path, default.value)
    try:
        return kind(value)
    except ValueError:
        valid = ", ".join(member.value for member in kind)
        raise ConfigError(path, f"need one of {valid}, got {value!r}")


def _text(cfg: dict, path: str, default) -> str:
    value = _get(cfg, path, default)
    if not isinstance(value, str) or "\0" in value:
        raise ConfigError(path, f"need a string without NUL, got {value!r}")
    return value


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError("config", f"{path}: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config", f"need a JSON object, got {type(doc).__name__}")
    return doc


def _override(cfg: dict, path: str, value) -> None:
    if value is None:
        return
    section, key = path.split(".")
    node = cfg.setdefault(section, {})
    if not isinstance(node, dict):
        raise ConfigError(section, f"need an object, got {node!r}")
    node[key] = value


def _output(cfg: dict, default_prefix: str) -> tuple[Path, str]:
    """``output.dir``, made if missing, and ``output.prefix``, refused first
    if a path separator would take the files out of that directory."""
    prefix = _text(cfg, "output.prefix", default_prefix)
    if any(sep and sep in prefix for sep in (os.sep, os.altsep)):
        raise ConfigError("output.prefix", f"need a file name, got a path {prefix!r}")
    default = os.environ.get("TURNING_FRAME_OUTDIR", ".")
    path = Path(_text(cfg, "output.dir", default))
    path.mkdir(parents=True, exist_ok=True)
    return path, prefix


def _model_from(cfg: dict) -> FrameModel:
    return FrameModel(
        lam=_number(cfg, "model.lambda"),
        hbar=_number(cfg, "model.hbar", 1.0),
        shift_convention=_choice(cfg, "model.convention", ShiftConvention,
                                 ShiftConvention.MEAN_MOMENTUM),
    )


def _grid_from(cfg: dict) -> MomentumGrid:
    return MomentumGrid(
        p_min=_number(cfg, "grid.p_min"),
        p_max=_number(cfg, "grid.p_max"),
        n=_count(cfg, "grid.n"),
    )


def _gaussian_from(cfg: dict, grid: MomentumGrid, model: FrameModel):
    mode = _choice(cfg, "state.mode", GaussianMode, GaussianMode.TRUNCATE_POSITIVE)
    spec = GaussianSpec(
        q0=_number(cfg, "state.q0"),
        p0=_number(cfg, "state.p0"),
        sigma=_number(cfg, "state.sigma"),
    )
    return spec, make_gaussian(spec, grid, model, mode=mode)


def _linspace(cfg: dict, start: str, stop: str, num: str) -> np.ndarray:
    lo = _number(cfg, start)
    hi = _number(cfg, stop)
    n = _count(cfg, num)
    if not hi > lo:
        raise ConfigError(stop, f"range [{lo}, {hi}] is empty")
    if n < 2:
        raise ConfigError(num, f"need at least 2 samples, got {n}")
    return np.linspace(lo, hi, n)


def _taus_from(cfg: dict) -> np.ndarray:
    return _linspace(cfg, "tau.start", "tau.stop", "tau.num")


def _write_amplitudes(path: Path, axis: str, nodes: np.ndarray, amps: np.ndarray) -> None:
    _csv.write(path, [axis, "re", "im", "abs2"],
               [nodes, amps.real, amps.imag, np.abs(amps) ** 2])


def _write_json(path: Path, payload: dict) -> None:
    with _csv.rewrite(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_classical(cfg: dict) -> int:
    model = _model_from(cfg)
    state = ClassicalState(q0=_number(cfg, "state.q0"), p=_number(cfg, "state.p0"))
    taus = _taus_from(cfg)
    phi = unwind_phi(taus, state.p, model)
    q = q_of_tau(taus, state, model)
    outdir, prefix = _output(cfg, "classical")
    out = outdir / f"{prefix}_trajectory.csv"
    _csv.write(out, ["tau", "phi", "q_classical"], [taus, phi, q])
    print(out)
    return EXIT_OK


def cmd_evolve(cfg: dict) -> int:
    model = _model_from(cfg)
    grid = _grid_from(cfg)
    spec, state = _gaussian_from(cfg, grid, model)
    snapshots = _get(cfg, "snapshots")
    if not isinstance(snapshots, (list, tuple)) or len(snapshots) == 0:
        raise ConfigError("snapshots", "need a non-empty list of tau values")
    snapshots = [_finite(t, "snapshots") for t in snapshots]

    # the work every snapshot shares, done once and before any file is written
    plan = None
    if _get(cfg, "q_grid", None) is not None:
        q_grid = _linspace(cfg, "q_grid.q_min", "q_grid.q_max", "q_grid.n")
        plan = position_plan(grid, q_grid, model)

    outdir, prefix = _output(cfg, "evolve")
    summary = {"snapshots": [], "state": {"q0": spec.q0, "p0": spec.p0,
                                          "sigma": spec.sigma}}
    for k, tau in enumerate(snapshots):
        evolved = evolve(state, tau, model)
        p_path = outdir / f"{prefix}_momentum_{k:02d}.csv"
        _write_amplitudes(p_path, "p", grid.nodes, evolved.amps)
        entry = {"tau": tau, "norm_p": evolved.norm() ** 2,
                 "momentum_csv": p_path.name}
        if plan is not None:
            profile = position_profile(evolved, plan)
            q_path = outdir / f"{prefix}_position_{k:02d}.csv"
            _write_amplitudes(q_path, "q", plan.q, profile.amps)
            entry.update(
                norm_q=profile.norm,
                coverage_ok=profile.coverage_ok,
                position_csv=q_path.name,
            )
        summary["snapshots"].append(entry)
    out = outdir / f"{prefix}_summary.json"
    _write_json(out, summary)
    print(out)
    return EXIT_OK


def cmd_shift(cfg: dict) -> int:
    model = _model_from(cfg)
    grid = _grid_from(cfg)
    spec, state = _gaussian_from(cfg, grid, model)
    taus = _taus_from(cfg)
    classical = ClassicalState(q0=spec.q0, p=spec.p0)
    series = expectation_series(state, taus, model)
    q_classical = q_of_tau(taus, classical, model)
    report = extract_shift_numeric(series, state, model)

    outdir, prefix = _output(cfg, "shift")
    series_path = outdir / f"{prefix}_series.csv"
    _csv.write(
        series_path,
        ["tau", "q_classical", "q_mean", "q_var", "norm"],
        [series.taus, q_classical, series.q_mean, series.q_var,
         series.norm],
    )
    report_path = outdir / f"{prefix}_report.json"
    payload = report.to_dict()
    payload["inputs"] = {
        "lambda": model.lam,
        "hbar": model.hbar,
        "q0": spec.q0,
        "p0": spec.p0,
        "sigma": spec.sigma,
        "grid": {"p_min": grid.p_min, "p_max": grid.p_max, "n": grid.n},
    }
    _write_json(report_path, payload)
    print(series_path)
    print(report_path)
    return EXIT_OK


def cmd_estimate(args: argparse.Namespace) -> int:
    temp_k = _finite(args.temp_k, "temp_k")
    gravity = _finite(args.gravity, "gravity")
    if args.mass_amu is not None:
        scenario = PhysicalScenario.from_amu(_finite(args.mass_amu, "mass_amu"),
                                             temp_k, gravity)
    else:
        scenario = PhysicalScenario(_finite(args.mass_kg, "mass_kg"), temp_k, gravity)
    payload = {
        "lambda_SI": lambda_gravitational(scenario),
        "delta_q_m": displacement_estimate(scenario),
        "delta_tau_s": coherence_time_estimate(scenario),
        "inputs": {
            "mass_kg": scenario.mass_kg,
            "mass_amu": scenario.mass_amu,
            "temperature_k": scenario.temperature_k,
            "gravity": scenario.gravity,
        },
    }
    # flush here so that a closed pipe raises inside main, not at shutdown
    print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False),
          flush=True)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _collect_config(args: argparse.Namespace) -> dict:
    cfg = _load_config(args.config)
    for path in FLAGS:
        _override(cfg, path, getattr(args, path, None))
    if getattr(args, "snapshots", None) is not None:
        cfg["snapshots"] = args.snapshots.split(",")
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turning-frame",
        description="Relational evolution against a frame with a turning point",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # no flag for a config path the command never reads, so argparse refuses it
    for name, helptext, unread in (
        ("classical", "emit the closed-form relational trajectory",
         ("state.sigma", "state.mode", "grid.")),
        ("evolve", "emit wavefunction snapshots in momentum/position space", ("tau.",)),
        ("shift", "emit the expectation series and displacement-shift report", ()),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON configuration file")
        for path, flag in FLAGS.items():
            if not path.startswith(unread):
                p.add_argument(flag, dest=path, metavar=path)
        if name == "evolve":
            p.add_argument("--snapshots", help="comma-separated tau values")

    p_est = sub.add_parser("estimate", help="laboratory order-of-magnitude numbers")
    mass = p_est.add_mutually_exclusive_group(required=True)
    mass.add_argument("--mass-amu")
    mass.add_argument("--mass-kg")
    p_est.add_argument("--temp-k", required=True)
    p_est.add_argument("--gravity", default=STANDARD_GRAVITY)
    return parser


# one parser per process: argparse keeps no state between parses
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "estimate":
            return cmd_estimate(args)
        cfg = _collect_config(args)
        if args.command == "classical":
            return cmd_classical(cfg)
        if args.command == "evolve":
            return cmd_evolve(cfg)
        return cmd_shift(cfg)
    except (TurningFrameError, ArithmeticError) as exc:  # 1e200 ** 2 overflows
        message, code = str(exc), _EXIT_CODES.get(type(exc), EXIT_CONFIG)
    except MemoryError as exc:  # a count such as --n 1e15, refused at allocation
        message, code = f"out of memory: {str(exc) or 'allocation failed'}", EXIT_CONFIG
    except BrokenPipeError:
        # The reader of stdout has gone (``| head -1``).  As the SIGPIPE note
        # in the docs of Python's signal module advises, exit 1 without a
        # message and point stdout at devnull, so the flush at shutdown
        # stays silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except OSError as exc:
        if exc.filename is None:  # a failed write to stdout, e.g. a full disk
            message = f"output: {exc.strerror}"
        else:
            field = "config" if exc.filename == vars(args).get("config") else "output.dir"
            message = f"{field}: {exc.filename}: {exc.strerror}"
        code = EXIT_CONFIG
    print(f"error: {message}", file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
