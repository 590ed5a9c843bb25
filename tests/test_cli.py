"""Batch front door: the byte-identical output promise and the exit-code contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qmkdv import cli

SIMULATE_CONFIG = """study.kind = simulate
grid.n = 64
grid.box_length = 20.0
coeff.family = cubic_poly
initial.amplitude = 0.3
run.t_end = 0.2
run.eps_tol = 1e-8
run.monitor_count = 4
"""


def _main(tmp_path, study, config, out, *extra):
    path = tmp_path / f"{study}.cfg"
    path.write_text(config, encoding="utf-8")
    return cli.main([study, "--config", str(path), "--out", str(out), *extra])


def _assert_identical_runs(tmp_path, study, config, files, *extra, code=0):
    """Run a study twice; both exit with `code` and write exactly `files`,
    byte for byte the same."""
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        assert _main(tmp_path, study, config, out, *extra) == code
        assert sorted(p.name for p in out.iterdir()) == sorted(files)
    for name in files:
        first = (outs[0] / name).read_bytes()
        assert first, name
        assert first == (outs[1] / name).read_bytes(), name
    return outs[0]


def test_simulate_output_is_byte_identical(tmp_path):
    _assert_identical_runs(tmp_path, "simulate", SIMULATE_CONFIG, ["monitor.csv", "report.json", "final_state.bin"])


def test_identities_output_is_byte_identical(tmp_path):
    _assert_identical_runs(tmp_path, "identities", "identities.samples = 200\n", ["identities.json"], "--seed", "7")


DECAY_CONFIG = """grid.n = 256
grid.box_length = 200.0
run.t_end = 3.0
decay.fit_t_min = 1.2
decay.linear_n = 1024
decay.samples = 10
decay.t_min = 2.0
decay.t_max = 20.0
"""


def test_decay_output_is_byte_identical(tmp_path):
    out = _assert_identical_runs(
        tmp_path, "decay", DECAY_CONFIG, ["linear_decay.csv", "decay_monitor.csv", "decay_report.json"]
    )
    # decay is ungated: a run this short cannot decide its slopes, and still exits 0
    assert cli._false_gates(json.loads((out / "decay_report.json").read_text(encoding="utf-8")))


def test_decay_linear_only_output_is_byte_identical(tmp_path):
    out = _assert_identical_runs(
        tmp_path, "decay", DECAY_CONFIG, ["linear_decay.csv", "decay_report.json"], "--linear-only"
    )
    assert "nonlinear" not in json.loads((out / "decay_report.json").read_text(encoding="utf-8"))


SCATTERING_CONFIG = """grid.n = 512
grid.box_length = 300.0
run.t_end = 4.0
scattering.samples = 9
scattering.fit_t_min = 1.5
scattering.target_frequencies = 1.0
"""


def test_scattering_output_is_byte_identical(tmp_path):
    _assert_identical_runs(tmp_path, "scattering", SCATTERING_CONFIG, ["theta.csv", "scattering_report.json"])


RESONANCE_CONFIG = """study.kind = resonance
resonance.j_min = 0
resonance.j_max = 0
resonance.n_axis = 48
"""


def test_resonance_false_gate_exits_1_with_identical_outputs(tmp_path, capsys):
    # At n_axis 48 a resolution doubling still moves the ratios by 16-20%,
    # so doubling_ok is false for T1 and dT1.
    _assert_identical_runs(tmp_path, "resonance", RESONANCE_CONFIG, ["resonance.csv", "resonance_report.json"], code=1)
    err = capsys.readouterr().err
    assert err.count("summary.T1.doubling_ok") == 2 and err.count("summary.dT1.doubling_ok") == 2
    assert "spread_ok" not in err


def test_oscillatory_false_gate_exits_1(tmp_path, capsys, monkeypatch):
    real_study = cli.nonresonant_decay_study

    def flat_separated(t_list, region, alpha2):
        study = real_study(t_list, region=region, alpha2=alpha2)
        return {**study, "slope": 0.0} if region == "separated" else study

    monkeypatch.setattr(cli, "nonresonant_decay_study", flat_separated)
    config = tmp_path / "oscillatory.cfg"
    config.write_text("study.kind = oscillatory\noscillatory.b_values = 8.0\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["oscillatory", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.strip().endswith("oscillatory gates failed: contrast.separated_ok")
    assert (out / "oscillatory_report.json").read_bytes()


def test_oscillatory_passing_gates_exit_0(tmp_path):
    _assert_identical_runs(
        tmp_path,
        "oscillatory",
        "study.kind = oscillatory\noscillatory.b_values = 8.0\n",
        ["two_pi.csv", "separated.csv", "resonant.csv", "oscillatory_report.json"],
    )


def test_false_gates_named_by_dotted_path():
    report = {
        "study": "x",
        "a_ok": True,
        "b": {"c_ok": False, "value_ok_not": False, "list": [{"ok": True}, {"ok": False}]},
        # identities' form: entries addressed by name, and an overall flag
        "checks": [{"name": "c", "passed": True}, {"name": "d", "passed": False}],
        "passed": False,
    }
    assert cli._false_gates(report) == ["b.c_ok", "b.list.1.ok", "checks.d.passed", "passed"]


FAULT_CONFIG = "identities.samples = 100\nfault.bump_stretch = 2.0\n"


def test_identities_fault_exits_1_after_writing_its_report(tmp_path, capsys):
    out = tmp_path / "out"
    assert _main(tmp_path, "identities", FAULT_CONFIG, out) == 1
    assert "lp_partition" in capsys.readouterr().err
    report = json.loads((out / "identities.json").read_text(encoding="utf-8"))
    assert report["passed"] is False
    assert [c["name"] for c in report["checks"] if not c["passed"]] == ["lp_partition"]


@pytest.mark.parametrize(
    "study, config",
    [
        ("simulate", "grid.q = 1\n"),
        ("simulate", "grid.n = 64\ngrid.n = 64\n"),
        ("simulate", "grid.n = 6.4\n"),
        ("simulate", "study.kind = decay\n"),
        ("simulate", "grid.n = 63\n"),
        ("simulate", "grid.n = 64\nrun.eps_tol = 1e-3\n"),
        ("simulate", "grid.n = 64\nrun.eps_tol = 1e-13\n"),
        ("resonance", "resonance.j_min = 2\nresonance.j_max = 1\n"),
        ("scattering", SCATTERING_CONFIG.replace("= 1.0\n", "= 1000.0\n")),
    ],
    ids=[
        "unknown-key",
        "duplicate-key",
        "bad-value",
        "kind-mismatch",
        "odd-grid",
        "eps-tol-above",
        "eps-tol-below",
        "j-min-above-j-max",
        "unrepresentable-frequency",
    ],
)
def test_configuration_errors_exit_2(tmp_path, capsys, study, config):
    out = tmp_path / "out"
    assert _main(tmp_path, study, config, out) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists() or not any(out.iterdir())


def test_process_exit_status_is_mains_return(tmp_path):
    config = tmp_path / "identities.cfg"
    config.write_text(FAULT_CONFIG, encoding="utf-8")
    argv = ["identities", "--config", str(config), "--out", str(tmp_path / "out")]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "qmkdv.cli", *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == cli.main(argv) == 1
