"""Tests for the command-line front end: schemas, exit codes, determinism."""

import errno
import hashlib
import json
import math
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from turning_frame import (
    ClassicalState,
    FrameModel,
    MomentumGrid,
    MomentumState,
    ObservableMatrix,
    SpectralState,
    _csv,
    _kernels,
    load_momentum_csv,
    load_observable_csv,
    load_spectral_csv,
    q_of_tau,
    save_momentum_csv,
    save_observable_csv,
    save_spectral_csv,
)
from turning_frame.cli import FLAGS, _write_json, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BASE_CONFIG = {
    "model": {"lambda": 4.0, "hbar": 1.0, "convention": "mean_momentum"},
    "state": {"q0": 4.0, "p0": 1.25, "sigma": 1.0, "mode": "truncate_positive"},
    "grid": {"p_min": 0.01, "p_max": 5.0, "n": 1024},
    "tau": {"start": -1.0, "stop": 16.0, "num": 120},
}


def write_config(tmp_path, name="config.json", **overrides):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",").reshape(-1, len(header))
    return header, data


# -- classical ---------------------------------------------------------------

def test_classical_trajectory_endpoints(tmp_path, capsys):
    cfg = write_config(tmp_path, tau={"start": -1.0, "stop": 3.0, "num": 401})
    code = main(["classical", "--config", str(cfg), "--outdir", str(tmp_path)])
    assert code == 0
    out_path = capsys.readouterr().out.strip()
    header, data = read_csv(out_path)
    assert header == ["tau", "phi", "q_classical"]
    assert data.shape == (401, 3)
    assert data[0, 2] == pytest.approx(3.0)       # q(-1) = q0 - 1
    assert data[-1, 2] == pytest.approx(7.78125)  # q(3) = q0 + 3 + 2 p^2/lam


def test_classical_free_range_is_translation(tmp_path, capsys):
    cfg = write_config(tmp_path, tau={"start": -5.0, "stop": -1.0, "num": 41})
    assert main(["classical", "--config", str(cfg), "--outdir", str(tmp_path)]) == 0
    _, data = read_csv(capsys.readouterr().out.strip())
    np.testing.assert_allclose(data[:, 2], 4.0 + data[:, 0], atol=1e-12)


@pytest.mark.parametrize("key", ["p", "p0"])
def test_classical_reads_either_momentum_key(tmp_path, capsys, key):
    """``classical`` reads ``state.p0`` like every command; ``p`` alone exits 2."""
    cfg = write_config(tmp_path, tau={"start": -1.0, "stop": 3.0, "num": 41})
    doc = json.loads(cfg.read_text())
    doc["state"] = {"q0": 4.0, key: 1.25}
    cfg.write_text(json.dumps(doc))
    argv = ["classical", "--config", str(cfg), "--outdir", str(tmp_path)]
    if key == "p":
        assert main(argv) == 2
        assert "state.p0" in capsys.readouterr().err
        return
    assert main(argv) == 0
    _, data = read_csv(capsys.readouterr().out.strip())
    assert data[-1, 2] == pytest.approx(7.78125)  # q(3) = q0 + 3 + 2 p^2/lam
    assert main(argv + ["--p0", "2.0"]) == 0
    _, data = read_csv(capsys.readouterr().out.strip())
    assert data[-1, 2] == pytest.approx(9.0)  # the flag wins over the key


def test_classical_rejects_empty_tau_range(tmp_path):
    cfg = write_config(tmp_path, tau={"start": 1.0, "stop": 1.0, "num": 10})
    assert main(["classical", "--config", str(cfg), "--outdir", str(tmp_path)]) == 2


def test_classical_at_a_huge_tau_stop_prints_no_warning(tmp_path, capsys):
    """lam tau overflows at tau = 1e308, where q is free flight: the run
    writes q0 + tau + 2 p^2/lam there and leaves stderr empty."""
    argv = ["classical", "--config", str(CONFIGS / "classical_trajectory.json"),
            "--tau-stop", "1e308", "--outdir", str(tmp_path)]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    _, data = read_csv(out.strip())
    exit_shift = 2 * 1.25**2 / 4.0  # 2 p^2/lam of the checked-in config
    assert data[-1].tolist() == [1e308, exit_shift - 1e308, 4.0 + 1e308 + exit_shift]


# -- evolve -------------------------------------------------------------------

def test_evolve_writes_snapshots_with_unit_norms(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        state={"mode": "raw"},
        grid={"p_min": -2.5, "p_max": 5.5, "n": 2048},
        snapshots=[0.5, 0.75, 1.0],
        q_grid={"q_min": -2.0, "q_max": 12.0, "n": 701},
    )
    code = main(["evolve", "--config", str(cfg), "--outdir", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "evolve_summary.json").read_text())
    assert len(summary["snapshots"]) == 3
    for entry in summary["snapshots"]:
        assert entry["norm_p"] == pytest.approx(1.0, abs=1e-9)
        assert entry["norm_q"] == pytest.approx(1.0, abs=1e-3)
        assert entry["coverage_ok"] is True
        header, data = read_csv(tmp_path / entry["momentum_csv"])
        assert header == ["p", "re", "im", "abs2"]
        assert data.shape[0] == 2048
        header, data = read_csv(tmp_path / entry["position_csv"])
        assert header == ["q", "re", "im", "abs2"]

    # tau = 0 profile is the initial packet centered at q0 = 4
    cfg0 = write_config(
        tmp_path, "cfg0.json",
        state={"mode": "raw"},
        grid={"p_min": -2.5, "p_max": 5.5, "n": 2048},
        snapshots=[0.0],
        q_grid={"q_min": -2.0, "q_max": 10.0, "n": 601},
        output={"prefix": "t0"},
    )
    assert main(["evolve", "--config", str(cfg0), "--outdir", str(tmp_path)]) == 0
    _, data = read_csv(tmp_path / "t0_position_00.csv")
    q, rho = data[:, 0], data[:, 3]
    center = np.sum(q * rho) / np.sum(rho)
    assert center == pytest.approx(4.0, abs=1e-3)


@pytest.mark.parametrize("flag, value", [
    ("--q0", "nan"), ("--p0", "inf"), ("--sigma", "nan"),
    ("--lambda", "-inf"), ("--hbar", "nan"), ("--snapshots", "0.5,nan"),
    ("--snapshots", "0.5,abc"), ("--snapshots", ""),
])
def test_evolve_rejects_non_finite_input_without_output(tmp_path, capsys,
                                                        flag, value):
    cfg = write_config(tmp_path, state={"mode": "raw"},
                       grid={"p_min": -2.5, "p_max": 5.5, "n": 1024},
                       snapshots=[0.5],
                       q_grid={"q_min": -2.0, "q_max": 12.0, "n": 101})
    out = tmp_path / "out"
    code = main(["evolve", "--config", str(cfg), "--outdir", str(out),
                 f"{flag}={value}"])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["classical", "evolve", "shift"])
@pytest.mark.parametrize("prefix", ["a/b", "../escape"])
def test_prefix_with_a_path_separator_is_refused_before_output(tmp_path, capsys,
                                                               command, prefix):
    """A prefix names files inside output.dir, not a path out of it."""
    cfg = write_config(tmp_path, snapshots=[0.5])
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--outdir", str(out),
                 "--prefix", prefix])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: output.prefix: ")
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_evolve_rejects_empty_snapshots(tmp_path):
    cfg = write_config(tmp_path, snapshots=[])
    assert main(["evolve", "--config", str(cfg), "--outdir", str(tmp_path)]) == 2


def test_evolve_resolution_error_exit_code(tmp_path):
    cfg = write_config(tmp_path, grid={"p_min": 0.01, "p_max": 5.0, "n": 16},
                       snapshots=[0.5])
    assert main(["evolve", "--config", str(cfg), "--outdir", str(tmp_path)]) == 3


# -- shift ---------------------------------------------------------------------

def test_shift_pipeline_reference_value(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["shift", "--config", str(cfg), "--outdir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "shift_report.json").read_text())
    assert report["delta_q_total"] == pytest.approx(-1.6875, rel=0.02)
    assert report["convention"] == "mean_momentum"
    header, data = read_csv(tmp_path / "shift_series.csv")
    assert header == ["tau", "q_classical", "q_mean", "q_var", "norm"]
    np.testing.assert_allclose(data[:, 4], 1.0, atol=1e-9)
    classical = q_of_tau(data[:, 0], ClassicalState(q0=4.0, p=1.25), FrameModel(4.0))
    assert data[:, 1].tobytes() == classical.tobytes()


def test_reference_config_holds_the_digest(tmp_path):
    """The checked-in reference run: a refactor may not move delta_q_total."""
    cfg = CONFIGS / "shift_reference.json"
    assert main(["shift", "--config", str(cfg), "--outdir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "shift_reference_report.json").read_text())
    assert report["delta_q_total"] == pytest.approx(-1.7049193085925887, abs=1e-12)


# sha256 of every file the checked-in configs produce; a change that alters
# one byte of them changes the package's published numbers.  hbar = 0.75 is
# not a power of two, so it shows a reordered hbar * sum * h; hbar = 1 cannot
GOLDEN = {
    ("classical", "classical_trajectory.json", ()): {
        "classical_trajectory.csv":
            "ae0613196ef8057a93a33c0684077e8ab7e826efbb3f6f1446fefc48eed759af",
    },
    ("shift", "shift_reference.json", ()): {
        "shift_reference_report.json":
            "8d99fb03f986543d37499c82764c35fef6f3f46877c09e7f680b46778d085f24",
        "shift_reference_series.csv":
            "6a1f3d02c0686635212729531d4ae82f736a45ca46896e662bd224716760cd48",
    },
    ("shift", "shift_reference.json", ("--hbar", "0.75")): {
        "shift_reference_report.json":
            "bcee9d5c2ad59f1997fac01ca90207605f945b991bc201eeb14cbc52b20462c5",
        "shift_reference_series.csv":
            "5026dfbc72484cd8e8b100a00a0c59886178b295d19e3f2171955d6eb84fef83",
    },
    ("evolve", "wavefunction_snapshots.json", ()): {
        "snapshots_momentum_00.csv":
            "bfa5f9df2359c5436daeeb83ac40d6401dca5c69fb23fa058186ec9e142fa8b8",
        "snapshots_momentum_01.csv":
            "4392e9b57fade6048ae4c5a809ec8320dc2411c98cd3c16c504460517784e812",
        "snapshots_momentum_02.csv":
            "da9ce1d9a9604b214cbb5329533c2379b7722b62ae0bb8c24b9421fa9dbb6ae3",
        "snapshots_momentum_03.csv":
            "d40e25ab91d53dbf2c02a58d4526fcfe1c058715ae7dfca2d9d3a93f5f3bd4d1",
        "snapshots_position_00.csv":
            "19fa99612bb04e238d97106a5626b1e71924fe5157c2c07419c0298b43be0537",
        "snapshots_position_01.csv":
            "3c1ecbc802ba252d6278a49b98936ae6cf999b414ba13acf18374323a25dbdec",
        "snapshots_position_02.csv":
            "67ca4add24b48495fea0bde45fc7f257c75b6f4a682c23b626f7974c0b24a33b",
        "snapshots_position_03.csv":
            "64c25dd6fbd7e8be3580b8f7f66b7c1799168105be04deb59fe2b1f5ce8e302d",
        "snapshots_summary.json":
            "6b90597aad5bf38276a330b19cb90b735aa0af6e6e958154bb62b7a486180e3c",
    },
}


GOLDEN_IDS = ["-".join([command, config, *(flag.lstrip("-") for flag in flags)])
              for command, config, flags in GOLDEN]


@pytest.mark.parametrize("command, config, flags", GOLDEN, ids=GOLDEN_IDS)
def test_checked_in_configs_give_the_recorded_bytes(tmp_path, command, config, flags):
    assert main([command, "--config", str(CONFIGS / config),
                 "--outdir", str(tmp_path), *flags]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert written == GOLDEN[command, config, flags]


@pytest.mark.parametrize("junk", [2**21, 1], ids=["2MB", "1B"])
@pytest.mark.parametrize("command, config, flags", GOLDEN, ids=GOLDEN_IDS)
def test_existing_outputs_are_rewritten_to_the_recorded_bytes(tmp_path, command, config,
                                                              flags, junk):
    """Every output file already exists, far longer or far shorter than
    what the run writes; the run leaves exactly the recorded bytes."""
    for name in GOLDEN[command, config, flags]:
        (tmp_path / name).write_bytes((b"junk\n" * junk)[:junk])
    assert main([command, "--config", str(CONFIGS / config),
                 "--outdir", str(tmp_path), *flags]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert written == GOLDEN[command, config, flags]


def test_outputs_linked_to_dev_null_are_written_there(tmp_path):
    """A device is written over but never cut: the CSV and the JSON of a
    ``shift`` both go to ``/dev/null`` and the run exits 0."""
    names = GOLDEN["shift", "shift_reference.json", ()]
    for name in names:
        (tmp_path / name).symlink_to(os.devnull)
    assert main(["shift", "--config", str(CONFIGS / "shift_reference.json"),
                 "--outdir", str(tmp_path)]) == 0
    assert all((tmp_path / name).is_symlink() for name in names)


def test_a_json_write_that_fails_part_way_leaves_no_old_tail(tmp_path):
    """A NaN deep in a payload stops the dump part-way (``allow_nan=False``);
    over a longer file, what is left is a prefix of the new text."""
    path = tmp_path / "report.json"
    path.write_bytes(b"#" * 2**20)
    rows = [0.5] * 20000
    with pytest.raises(ValueError):
        _write_json(path, {"rows": rows, "tail": [1.0, math.nan]})
    left = path.read_text()
    assert left and "#" not in left
    assert json.dumps({"rows": rows, "tail": [1.0, 0.0]}, indent=2,
                      sort_keys=True).startswith(left)


def test_one_process_runs_successive_commands(tmp_path, capsys):
    """The parser is built once per process and every call parses afresh:
    a refused flag, then a shift and an evolve with their recorded bytes."""
    assert main(["classical", "--n", "64"]) == 2
    assert "--n" in capsys.readouterr().err
    for command, config, flags in [("shift", "shift_reference.json", ()),
                                   ("evolve", "wavefunction_snapshots.json", ())]:
        out = tmp_path / command
        assert main([command, "--config", str(CONFIGS / config),
                     "--outdir", str(out), *flags]) == 0
        written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in out.iterdir()}
        assert written == GOLDEN[command, config, flags]
        assert capsys.readouterr().err == ""


def test_evolve_does_its_snapshot_invariant_work_once(tmp_path, monkeypatch, capsys):
    """One chirp-z plan per command, whatever the number of snapshots."""
    calls = []

    def counted(*args, _original=_kernels._chirp):
        calls.append(args)
        return _original(*args)
    monkeypatch.setattr(_kernels, "_chirp", counted)
    counts = []
    for snapshots in ([0.5], [0.25, 0.5, 0.75, 1.0]):
        cfg = write_config(tmp_path, state={"mode": "raw"},
                           grid={"p_min": -2.5, "p_max": 5.5, "n": 512},
                           snapshots=snapshots,
                           q_grid={"q_min": -2.0, "q_max": 12.0, "n": 101})
        calls.clear()
        assert main(["evolve", "--config", str(cfg), "--outdir", str(tmp_path)]) == 0
        counts.append(len(calls))
    assert counts == [3, 3]


def test_recorded_evolve_tables_take_the_digit_path(tmp_path, monkeypatch):
    """Every table of the recorded evolve files (8192 x 4 and 1401 x 4
    values) is formatted by the digit path, so their sha256 values test it
    wherever the cut-over lies."""
    sizes = []

    def counted(values, seps, _original=_csv._digit_text):
        sizes.append(values.size)
        return _original(values, seps)
    monkeypatch.setattr(_csv, "_digit_text", counted)
    key = ("evolve", "wavefunction_snapshots.json", ())
    assert main(["evolve", "--config", str(CONFIGS / key[1]), "--outdir", str(tmp_path)]) == 0
    assert sorted(sizes) == [1401 * 4] * 4 + [8192 * 4] * 4
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert written == GOLDEN[key]


def test_the_package_files_take_the_bytes_pass(tmp_path, monkeypatch):
    """No file the package writes is read row by row: the three saved
    objects at sizes on both sides of the writer's cut-over, and every CSV
    of the recorded runs."""
    rows = []

    def counted(*args, _original=_csv._parse_rows):
        rows.append(args)
        return _original(*args)
    monkeypatch.setattr(_csv, "_parse_rows", counted)
    rng = np.random.default_rng(33)
    loaded = 0
    for n in (2, 100, 1000, 8192):
        grid = MomentumGrid(-1.0, 3.0, n)
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        coeffs = amps / np.linalg.norm(amps)
        m = rng.normal(size=(min(n, 40),) * 2) + 1j * rng.normal(size=(min(n, 40),) * 2)
        for value, save, load in [
                (MomentumState(grid, coeffs / math.sqrt(grid.h), 0.0),
                 save_momentum_csv, load_momentum_csv),
                (SpectralState(np.arange(1.0, n + 1.0), coeffs),
                 save_spectral_csv, load_spectral_csv),
                (ObservableMatrix(m + m.conj().T), save_observable_csv, load_observable_csv)]:
            path = tmp_path / f"{save.__name__}_{n}.csv"
            save(value, path)
            load(path)
            loaded += 1
    for command, config, flags in GOLDEN:
        out = tmp_path / "-".join([command, *flags])
        assert main([command, "--config", str(CONFIGS / config),
                     "--outdir", str(out), *flags]) == 0
        for path in out.glob("*.csv"):
            header = path.read_text().split("\n", 1)[0].split(",")
            assert _csv.read(path, header)
            loaded += 1
    assert loaded == 3 * 4 + 1 + 1 + 1 + 8  # saved, classical, two shifts, evolve
    assert rows == []


def test_route_gap_names_the_grid_and_exits_3(tmp_path, capsys):
    """The two expectation routes part on a grid too coarse for the phase."""
    argv = ["shift", "--config", str(CONFIGS / "shift_reference.json"),
            "--n", "1024", "--outdir", str(tmp_path)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "expectation mismatch" in err
    assert "tau=0.45" in err and "n=1024" in err
    assert not any(tmp_path.iterdir())


def test_free_flight_resolution_gap_exits_3(tmp_path, capsys):
    """At hbar = sigma = 1/8 the phase outruns the n = 4096 grid past the exits,
    where the numeric route reads the free-flight range sums: the gap of about
    1.3 (tau h / hbar)^4 still shows there."""
    argv = ["shift", "--config", str(CONFIGS / "shift_reference.json"),
            "--hbar", "0.125", "--sigma", "0.125", "--outdir", str(tmp_path)]
    assert main(argv) == 3
    assert capsys.readouterr().err.strip().endswith(
        "analytic/numeric expectation mismatch 1.011e-04 at tau=9.600000000000001 "
        "on the n=4096 grid")
    assert not any(tmp_path.iterdir())


def test_route_gap_on_a_grid_reaching_p_le_0_exits_2(tmp_path, capsys):
    """A raw state with mass at p < 0 meets the phase law's jump at tau = 0+."""
    argv = ["shift", "--config", str(CONFIGS / "shift_reference.json"),
            "--mode", "raw", "--p0", "0.3", "--sigma", "0.3",
            "--p-min", "-5", "--p-max", "5", "--outdir", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "expectation mismatch 2.392e-03" in err
    assert "tau=0.05" in err and "n=4096" in err
    assert "p <= 0" in err and "finer grid may not help" in err
    assert not any(tmp_path.iterdir())


def test_shift_convention_override(tmp_path):
    cfg = write_config(tmp_path)
    code = main([
        "shift", "--config", str(cfg), "--outdir", str(tmp_path),
        "--convention", "mean_square_momentum", "--prefix", "msq",
    ])
    assert code == 0
    report = json.loads((tmp_path / "msq_report.json").read_text())
    assert report["delta_q_total"] == pytest.approx(-1.8125, rel=0.02)


def test_shift_window_guard_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, tau={"start": -1.0, "stop": 3.0, "num": 40})
    assert main(["shift", "--config", str(cfg), "--outdir", str(tmp_path)]) == 4
    assert "12.5" in capsys.readouterr().err


def test_shift_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        assert main(["shift", "--config", str(cfg),
                     "--outdir", str(tmp_path / sub)]) == 0
    for name in ("shift_series.csv", "shift_report.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


# -- estimate -------------------------------------------------------------------

def test_estimate_reference_numbers(capsys):
    code = main(["estimate", "--mass-amu", "100", "--temp-k", "1e-6"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta_q_m"] == pytest.approx(8.4755e-6, rel=1e-3)
    assert payload["delta_tau_s"] == pytest.approx(9.295e-4, rel=1e-3)
    assert payload["lambda_SI"] == pytest.approx(2.705e-49, rel=1e-3)
    assert payload["inputs"]["mass_amu"] == pytest.approx(100.0)


def test_estimate_missing_arguments_exit_code(capsys):
    assert main(["estimate", "--temp-k", "1.0"]) == 2
    assert main(["estimate", "--mass-amu", "100"]) == 2
    assert "the following arguments are required: --temp-k" in capsys.readouterr().err
    # the two masses exclude each other
    assert main(["estimate", "--mass-amu", "1", "--mass-kg", "2", "--temp-k", "1e-6"]) == 2
    assert capsys.readouterr().out == ""


def test_estimate_rejects_zero_gravity():
    assert main(["estimate", "--mass-amu", "100", "--temp-k", "1.0",
                 "--gravity", "0"]) == 2


@pytest.mark.parametrize("argv, field", [
    (["--mass-amu", "100", "--temp-k", "1e-6", "--gravity", "inf"], "gravity"),
    (["--mass-amu", "100", "--temp-k", "nan"], "temp_k"),
    (["--mass-kg", "true", "--temp-k", "1.0"], "mass_kg"),
    (["--mass-amu", "1e300", "--temp-k", "1.0"], "lambda"),
    (["--mass-kg", "1e-200", "--temp-k", "1.0", "--gravity", "1e-200"], "delta_q"),
])
def test_estimate_rejects_non_finite_input_and_overflow(capsys, argv, field):
    assert main(["estimate", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err


def test_broken_stdout_is_not_labelled_as_config(capsys, monkeypatch):
    """A closed stdout, as under ``| head -1``, exits 1 without a message."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed:
        monkeypatch.setattr("sys.stdout", closed)
        assert main(["estimate", "--mass-amu", "100", "--temp-k", "1e-6"]) == 1
        assert capsys.readouterr().err == ""
        closed.write("later output\n")  # now lands in devnull, as at shutdown


class _FullDisk:
    """A stdout redirected to a file on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_stdout_write_is_labelled_output(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdout", _FullDisk())
    assert main(["estimate", "--mass-amu", "100", "--temp-k", "1e-6"]) == 2
    assert capsys.readouterr().err == "error: output: No space left on device\n"


# -- config handling -------------------------------------------------------------

def test_missing_config_field_names_the_field(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text(json.dumps({"model": {"lambda": 4.0}}))
    assert main(["shift", "--config", str(cfg), "--outdir", str(tmp_path)]) == 2
    assert "grid.p_min" in capsys.readouterr().err

    cfg.write_text(json.dumps({
        "model": {"lambda": 4.0},
        "grid": {"p_min": 0.01, "p_max": 5.0, "n": 1024},
    }))
    assert main(["shift", "--config", str(cfg), "--outdir", str(tmp_path)]) == 2
    assert "state.q0" in capsys.readouterr().err


@pytest.mark.parametrize("command, overrides, outdir, field", [
    ("shift", {"grid": {"n": 4096.7}}, "out", "grid.n"),
    ("classical", {"tau": {"num": 40.5}}, "out", "tau.num"),
    ("evolve", {"snapshots": [0.5],
                "q_grid": {"q_min": -2.0, "q_max": 12.0, "n": 100.5}},
     "out", "q_grid.n"),
    ("shift", {"state": {"sigma": None}}, "out", "state.sigma"),
    ("classical", {}, "plain.txt/out", "output.dir"),
    ("classical", {"output": {"prefix": "missing/run"}}, "out", "output.prefix"),
    ("evolve", {"snapshots": [0.5],
                "q_grid": {"q_min": -2.0, "q_max": 12.0, "n": 1}},
     "out", "q_grid.n"),
    # a string names a prepared config file in place of overrides
    ("shift", "config_dir", "out", "config_dir"),
    ("shift", "latin1.json", "out", "latin1.json"),
    ("shift", "list.json", "out", "config"),
    # flags after the command name; outdir None reads output.dir from the config
    ("shift --q0 1", {"state": 5}, "out", "state"),
    ("classical", {"output": {"dir": 5}}, None, "output.dir"),
    ("classical", {"output": {"prefix": "a\u0000b"}}, "out", "output.prefix"),
    ("classical", {"output": {"prefix": ["x"]}}, "out", "output.prefix"),
    ("classical", {"model": {"hbar": True}}, "out", "model.hbar"),
    ("classical", {"state": {"p0": True}}, "out", "state.p0"),
    # a finite range too narrow for its nodes: linspace repeats a node
    ("evolve", {"snapshots": [0.5],
                "q_grid": {"q_min": 0.0, "q_max": 1e-323, "n": 5}},
     "out", "q_grid"),
    # a key no command reads, such as a misspelt one, is refused by its path
    ("shift", {"model": {"hbr": 0.5}}, "out", "model.hbr: unknown field; known: "
                                              "model.lambda, model.hbar"),
    ("classical", {"modle": {"lambda": 4.0}}, "out", "modle: unknown section"),
    ("evolve", {"snapshots": [0.5],
                "q_grid": {"qmin": -2.0, "q_max": 12.0, "n": 101}},
     "out", "q_grid.qmin: unknown field; known: q_grid.q_min"),
])
def test_malformed_counts_and_outputs_exit_2(tmp_path, capsys, command,
                                              overrides, outdir, field):
    (tmp_path / "plain.txt").write_text("a regular file\n")
    (tmp_path / "config_dir").mkdir()
    (tmp_path / "latin1.json").write_bytes('{"note": "\u00e9"}'.encode("latin-1"))
    (tmp_path / "list.json").write_text("[1]")
    if isinstance(overrides, str):
        cfg = tmp_path / overrides
    else:
        cfg = write_config(tmp_path, **overrides)
    argv = [*command.split(), "--config", str(cfg)]
    out = tmp_path / (outdir or "unused")
    if outdir is not None:
        argv += ["--outdir", str(out)]
    code = main(argv)
    assert code == 2
    assert field in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


# 1e15 float64 nodes (7 PiB) are refused at allocation, before any memory
# is touched; a count the machine could really allocate has no place here
@pytest.mark.parametrize("command, overrides", [
    ("shift --n 1e15", {}),
    ("shift --tau-num 1e15", {}),
    ("classical --tau-num 1e15", {}),
    ("evolve", {"snapshots": [0.5], "q_grid": {"q_min": -2.0, "q_max": 12.0, "n": 1e15}}),
])
def test_count_too_large_to_allocate_exits_2(tmp_path, capsys, command, overrides):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert main([*command.split(), "--config", str(cfg), "--outdir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())


def test_unknown_config_file_exit_code(tmp_path, capsys):
    assert main(["shift", "--config", str(tmp_path / "nope.json")]) == 2


def test_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(tmp_path, tau={"start": -1.0, "stop": 2.0, "num": 31})
    code = main([
        "classical", "--config", str(cfg), "--outdir", str(tmp_path),
        "--q0", "0.0", "--p0", "1.0",
    ])
    assert code == 0
    _, data = read_csv(capsys.readouterr().out.strip())
    assert data[-1, 2] == pytest.approx(2.5)  # q(2) for q0=0, p=1, lam=4


@pytest.mark.parametrize("command, flag", [
    ("classical", "--sigma"), ("classical", "--mode"), ("classical", "--p-min"),
    ("classical", "--p-max"), ("classical", "--n"), ("evolve", "--tau-start"),
    ("evolve", "--tau-stop"), ("evolve", "--tau-num"),
])
def test_command_refuses_flags_of_fields_it_never_reads(tmp_path, capsys,
                                                         command, flag):
    cfg = write_config(tmp_path, snapshots=[0.5])
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--outdir", str(out), flag, "1"]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()
    assert main([command, "--help"]) == 0
    assert flag not in capsys.readouterr().out


def test_outdir_env_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TURNING_FRAME_OUTDIR", str(tmp_path / "envout"))
    cfg = write_config(tmp_path, tau={"start": -1.0, "stop": 1.0, "num": 11})
    assert main(["classical", "--config", str(cfg)]) == 0
    out_path = capsys.readouterr().out.strip()
    assert str(tmp_path / "envout") in out_path


# -- the flag table ----------------------------------------------------------------

# one valid value per overridable field, as flag text; the config gets the
# same text parsed as JSON when it parses, else the text as a string
FLAG_VALUES = {
    "model.lambda": "3.5",
    "model.hbar": "0.5",
    "model.convention": "mean_square_momentum",
    "state.q0": "-2",
    "state.p0": "1.5",
    "state.sigma": "1.5",
    "state.mode": "raw",
    "grid.p_min": "0.5",
    "grid.p_max": "4.5",
    "grid.n": "1e3",
    "tau.start": "-2",
    "tau.stop": "2.5",
    "tau.num": "33",
    "output.dir": "out",
    "output.prefix": "run",
}
# the cheapest command whose output depends on each field; classical otherwise
FIELD_COMMANDS = {"model.convention": "shift", "model.hbar": "evolve",
                  "state.sigma": "evolve", "state.mode": "evolve",
                  "grid.p_min": "evolve", "grid.p_max": "evolve", "grid.n": "evolve"}


@pytest.mark.parametrize("path, flag", sorted(FLAGS.items()))
def test_flag_writes_the_same_files_as_its_config_value(tmp_path, monkeypatch,
                                                        path, flag):
    text = FLAG_VALUES[path]
    try:
        value = json.loads(text)
    except ValueError:
        value = text
    section, key = path.split(".")
    monkeypatch.delenv("TURNING_FRAME_OUTDIR", raising=False)
    command = FIELD_COMMANDS.get(path, "classical")
    outputs = []
    for run, extra in (("flag", [flag, text]), ("config", [])):
        overrides = {"snapshots": [0.5]}
        if command == "evolve":
            overrides["grid"] = {"n": 256}
        if run == "config":
            overrides.setdefault(section, {})[key] = value
        cfg = write_config(tmp_path, f"{run}.json", **overrides)
        work = tmp_path / run
        work.mkdir()
        monkeypatch.chdir(work)
        assert main([command, "--config", str(cfg), *extra]) == 0
        outputs.append({f.relative_to(work): f.read_bytes()
                        for f in work.rglob("*") if f.is_file()})
    assert outputs[0] and outputs[0] == outputs[1]


@pytest.mark.parametrize("argv, field, valid", [
    (["--mode", "bogus"], "state.mode", "truncate_positive, raw"),
    (["--convention", "0"], "model.convention",
     "mean_momentum, mean_square_momentum"),
])
def test_enum_errors_list_the_valid_values(tmp_path, capsys, argv, field, valid):
    cfg = write_config(tmp_path)
    assert main(["shift", "--config", str(cfg), "--outdir", str(tmp_path), *argv]) == 2
    err = capsys.readouterr().err
    assert field in err and valid in err


# ASCII letters only, so a generated output.dir or prefix stays inside the
# working directory; the samples add numbers-as-text, NUL and enum names
_TEXT = st.text(alphabet="abcxyz_", max_size=6) | st.sampled_from(
    ["", "nan", "inf", "-1", "0.5", "12", "a\x00b", "raw", "mean_momentum"])
_COUNT_PATHS = {"grid.n", "tau.num"}


def _field_values(path):
    if path in _COUNT_PATHS:  # counts stay <= 512 so no run allocates much
        numbers = st.integers(max_value=512) | st.floats(max_value=512)
    else:
        numbers = st.integers() | st.floats()
    return st.one_of(
        st.none(), st.booleans(), _TEXT, numbers,
        st.lists(st.integers(), max_size=3),
        st.dictionaries(_TEXT, st.integers(), max_size=2),
    )


_PATHS = sorted(FLAGS)


@st.composite
def config_documents(draw):
    """BASE_CONFIG with some fields replaced, removed, or whole sections junk."""
    doc = json.loads(json.dumps(BASE_CONFIG))
    for path in draw(st.lists(st.sampled_from(_PATHS), max_size=4, unique=True)):
        section, key = path.split(".")
        node = doc.setdefault(section, {})
        if draw(st.booleans()):
            node[key] = draw(_field_values(path))
        else:
            node.pop(key, None)
    for section in draw(st.lists(st.sampled_from(["model", "state", "grid", "tau",
                                                   "output"]), max_size=1)):
        doc[section] = draw(_field_values(section))
    return doc


def _base_with(section, key, value):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc[section][key] = value
    return doc


@settings(max_examples=60, deadline=None)
@given(doc=config_documents())
# finite values whose squares overflow a double
@example(doc=_base_with("model", "hbar", 1.3407807929942597e154))
@example(doc=_base_with("state", "p0", 1e200))
# momenta whose squares underflow to 0 and to a subnormal
@example(doc=_base_with("state", "p0", 1e-200))
@example(doc=_base_with("state", "p0", 1e-160))
def test_any_config_document_exits_with_a_documented_code(doc):
    with tempfile.TemporaryDirectory() as work, \
            mock.patch.dict(os.environ), mock.patch("sys.stdout"), \
            mock.patch("sys.stderr"):
        os.environ.pop("TURNING_FRAME_OUTDIR", None)
        cfg = Path(work) / "config.json"
        cfg.write_text(json.dumps(doc))
        cwd = os.getcwd()
        os.chdir(work)
        try:
            for command in ("classical", "shift"):
                assert main([command, "--config", str(cfg)]) in (0, 2, 3, 4)
        finally:
            os.chdir(cwd)
