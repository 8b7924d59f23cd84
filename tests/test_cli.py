"""Tests for the command-line front end: schemas, exit codes, determinism."""

import errno
import hashlib
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from turning_frame import ClassicalState, FrameModel, q_of_tau
from turning_frame.cli import FLAGS, main

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
            "496e0d52225bc2838dc77f4cef1c60181ba73d3cdf9f4bd955fe02b651017a8c",
    },
    ("shift", "shift_reference.json", ("--hbar", "0.75")): {
        "shift_reference_report.json":
            "bcee9d5c2ad59f1997fac01ca90207605f945b991bc201eeb14cbc52b20462c5",
        "shift_reference_series.csv":
            "f51a0cc4d1c2f8add1a9ca32f0c82a662956c017475e9bd54bb86ddd4398b4ac",
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


@pytest.mark.parametrize("command, config, flags", GOLDEN, ids=[
    "-".join([command, config, *(flag.lstrip("-") for flag in flags)])
    for command, config, flags in GOLDEN])
def test_checked_in_configs_give_the_recorded_bytes(tmp_path, command, config, flags):
    assert main([command, "--config", str(CONFIGS / config),
                 "--outdir", str(tmp_path), *flags]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert written == GOLDEN[command, config, flags]


def test_route_gap_names_the_grid_and_exits_3(tmp_path, capsys):
    """The two expectation routes part on a grid too coarse for the phase."""
    argv = ["shift", "--config", str(CONFIGS / "shift_reference.json"),
            "--n", "1024", "--outdir", str(tmp_path)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "expectation mismatch" in err
    assert "tau=0.45" in err and "n=1024" in err
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


def test_estimate_missing_arguments_exit_code():
    assert main(["estimate", "--temp-k", "1.0"]) == 2
    assert main(["estimate", "--mass-amu", "100"]) == 2


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
    ("classical", {"output": {"prefix": "missing/run"}}, "out", "output.dir"),
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
