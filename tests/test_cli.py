"""Tests for the command-line front end: schemas, exit codes, determinism."""

import json

import numpy as np
import pytest

from turning_frame.cli import main

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
    cfg = write_config(tmp_path, tau={"start": -1.0, "stop": 3.0, "num": 41})
    doc = json.loads(cfg.read_text())
    doc["state"] = {"q0": 4.0, key: 1.25}
    cfg.write_text(json.dumps(doc))
    assert main(["classical", "--config", str(cfg), "--outdir", str(tmp_path)]) == 0
    _, data = read_csv(capsys.readouterr().out.strip())
    assert data[-1, 2] == pytest.approx(7.78125)  # q(3) = q0 + 3 + 2 p^2/lam
    assert main(["classical", "--config", str(cfg), "--outdir", str(tmp_path),
                 "--p0", "2.0"]) == 0
    _, data = read_csv(capsys.readouterr().out.strip())
    assert data[-1, 2] == pytest.approx(9.0)  # the flag wins over either key


def test_classical_rejects_empty_tau_range(tmp_path):
    cfg = write_config(tmp_path, tau={"start": 1.0, "stop": 1.0, "num": 10})
    assert main(["classical", "--config", str(cfg), "--outdir", str(tmp_path)]) == 2


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
    ("--snapshots", "0.5,abc"),
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


def test_estimate_missing_arguments_exit_code():
    assert main(["estimate", "--temp-k", "1.0"]) == 2
    assert main(["estimate", "--mass-amu", "100"]) == 2


def test_estimate_rejects_zero_gravity():
    assert main(["estimate", "--mass-amu", "100", "--temp-k", "1.0",
                 "--gravity", "0"]) == 2


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
    ("classical", {"output": {"prefix": "missing/run"}}, "out", "output.dir"),
    ("evolve", {"snapshots": [0.5],
                "q_grid": {"q_min": -2.0, "q_max": 12.0, "n": 1}},
     "out", "q_grid.n"),
    # a string names a prepared config file in place of overrides
    ("shift", "config_dir", "out", "config_dir"),
    ("shift", "latin1.json", "out", "latin1.json"),
])
def test_malformed_counts_and_outputs_exit_2(tmp_path, capsys, command,
                                              overrides, outdir, field):
    (tmp_path / "plain.txt").write_text("a regular file\n")
    (tmp_path / "config_dir").mkdir()
    (tmp_path / "latin1.json").write_bytes('{"note": "\u00e9"}'.encode("latin-1"))
    if isinstance(overrides, str):
        cfg = tmp_path / overrides
    else:
        cfg = write_config(tmp_path, **overrides)
    out = tmp_path / outdir
    code = main([command, "--config", str(cfg), "--outdir", str(out)])
    assert code == 2
    assert field in capsys.readouterr().err
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


def test_outdir_env_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TURNING_FRAME_OUTDIR", str(tmp_path / "envout"))
    cfg = write_config(tmp_path, tau={"start": -1.0, "stop": 1.0, "num": 11})
    assert main(["classical", "--config", str(cfg)]) == 0
    out_path = capsys.readouterr().out.strip()
    assert str(tmp_path / "envout") in out_path
