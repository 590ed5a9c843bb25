"""Batch front door: the byte-identical output promise, the exit-code contract,
and the six studies' reach over the package's public functions."""

import argparse
import functools
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qmkdv import cli, identities
from qmkdv.model import CoefficientSpec
from qmkdv.spectral_core import (GridSpec, derivative, fractional_abs_derivative, free_evolve, norm, save_snapshot,
                                 synthesize, transform)

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
    out = _assert_identical_runs(tmp_path, "simulate", SIMULATE_CONFIG, ["monitor.csv", "report.json", "final_state.bin"])
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["rhs_evals"] == 12 * (report["steps"] + report["rejected_steps"])


HEADER_KEYS = {"artifact_version", "seed", "grid_n", "grid_box_length", "coeff_family", "coeff_a", "coeff_b",
               "coeff_c", "delta", "p0", "p1", "gamma_l", "gamma_h", "s", "decay_exponent"}


def test_report_header_and_dataclass_keys_are_pinned(tmp_path):
    """Each CoefficientSpec field is a config key and a header line, and each
    field of the fixed BootstrapConstants a header line only: a new field
    changes the header, and must change this test."""
    assert {k for k in cli._KEY_PARSERS if k.startswith(("coeff.", "constants."))} == {
        "coeff.family", "coeff.a", "coeff.b", "coeff.c"}
    out = tmp_path / "out"
    assert _main(tmp_path, "simulate", SIMULATE_CONFIG, out) == 0
    meta = json.loads((out / "report.json").read_text(encoding="utf-8"))["metadata"]
    assert {k: type(v) for k, v in meta.items()} == {
        **dict.fromkeys(HEADER_KEYS, float), "artifact_version": str, "seed": int, "grid_n": int, "coeff_family": str}
    lines = (out / "monitor.csv").read_text(encoding="utf-8").splitlines()
    assert [line[2:].split("=")[0] for line in lines if line.startswith("# ")] == sorted(HEADER_KEYS)


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
    report = json.loads((out / "decay_report.json").read_text(encoding="utf-8"))
    assert cli._false_gates(report)
    nonlinear = report["nonlinear"]
    assert nonlinear["rhs_evals"] == 12 * (nonlinear["steps"] + nonlinear["rejected_steps"])


def _dispersive_ratio_per_call(h, t, beta):
    """The dispersive ratio as one self-contained call per (t, beta): the
    oracle for the sweep, which shares e^{-t d_x^3} and the profile's sizes."""
    g = h.grid
    lhs = np.abs(synthesize(free_evolve(fractional_abs_derivative(h, beta), t)))
    amp = float(np.max(np.abs(h.coeffs)))
    xw = g.x * synthesize(h)
    wnorm = float(np.sqrt(g.dx * np.sum(np.abs(xw) ** 2)))
    profile = (1.0 + np.abs(g.x) * t ** (-1.0 / 3.0)) ** (-0.25 + 0.5 * beta)
    rhs = t ** (-1.0 / 3.0 - beta / 3.0) * profile * (amp + t ** (-1.0 / 6.0) * wnorm)
    return float(np.max(lhs / rhs))


# "defaults" keeps the Airy part's defaults and shortens the nonlinear run, as the CI short config does
@pytest.mark.parametrize("config", [DECAY_CONFIG, "study.kind = decay\nrun.t_end = 4\ndecay.fit_t_min = 1.2\n"],
                         ids=["test-config", "defaults"])
def test_linear_decay_rows_equal_the_per_call_form(tmp_path, config):
    out = tmp_path / "out"
    assert _main(tmp_path, "decay", config, out) == 0
    lines = (out / "linear_decay.csv").read_text(encoding="utf-8").splitlines()
    got = [[float(v) for v in line.split(",")] for line in [ln for ln in lines if not ln.startswith("#")][1:]]
    cfg = {**cli._STUDIES["decay"].defaults, **cli.parse_config(str(tmp_path / "decay.cfg"))}
    grid = GridSpec(cfg["decay.linear_n"], 12000.0)  # the Airy part's fixed box and Gaussian width
    h = transform(grid, np.exp(-((grid.x / 1.5) ** 2)))
    want = []
    for t in np.exp(np.linspace(math.log(cfg["decay.t_min"]), math.log(cfg["decay.t_max"]), cfg["decay.samples"])):
        t = float(t)
        phi_t = free_evolve(h, t)
        weight = (1.0 + np.abs(grid.x) * t ** (-1.0 / 3.0)) ** (-0.25)
        want.append([t, norm(phi_t, "Linf"), float(np.max(np.abs(synthesize(derivative(phi_t, 1))) * weight)),
                     _dispersive_ratio_per_call(h, t, 0.0), _dispersive_ratio_per_call(h, t, 1.0)])
    assert got == want


SCATTERING_CONFIG = """grid.n = 512
grid.box_length = 300.0
run.t_end = 4.0
scattering.samples = 9
scattering.fit_t_min = 1.5
scattering.target_frequencies = 1.0
"""


def test_scattering_output_is_byte_identical(tmp_path):
    out = _assert_identical_runs(tmp_path, "scattering", SCATTERING_CONFIG, ["theta.csv", "scattering_report.json"])
    # one theta column per probe, and one drift law: the stationary-phase
    # coefficient times |hhat(t_end)|^2 is each probe's predicted slope
    lines = [ln for ln in (out / "theta.csv").read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    assert lines[0] == "t,abs_h_0,arg_h_0,theta_0"
    abs_h_end = float(lines[-1].split(",")[1])
    text = (out / "scattering_report.json").read_text(encoding="utf-8")
    assert "variant" not in text
    report = json.loads(text)
    assert report["steps"] > 0 and report["rhs_evals"] == 12 * (report["steps"] + report["rejected_steps"])
    assert len(report["per_frequency"]) == len(report["frozen_profile_drift"]) == 1
    for monitor, frozen in zip(report["per_frequency"], report["frozen_profile_drift"]):
        assert monitor["predicted_slope"] == pytest.approx(frozen["stationary_phase"] * abs_h_end**2, rel=1e-12)


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


def test_resonance_output_is_the_same_at_one_and_two_threads(tmp_path):
    # each cell's contraction forms its pair columns in buffers of its own
    config = RESONANCE_CONFIG.replace("resonance.j_min = 0", "resonance.j_min = -2")
    outs = [tmp_path / f"threads_{k}" for k in (1, 2)]
    for k, out in zip((1, 2), outs):
        assert _main(tmp_path, "resonance", config, out, "--threads", str(k)) == 1
    for name in ("resonance.csv", "resonance_report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_resonance_dT1_rows_equal_each_cells_own_evaluation(tmp_path):
    # dT1 is evaluated on one cell and its row copied to the others; each copy
    # must carry the bits that cell's own evaluation gives
    config = RESONANCE_CONFIG.replace("j_min = 0", "j_min = -1").replace("j_max = 0", "j_max = 1")
    assert _main(tmp_path, "resonance", config, tmp_path / "out") == 1  # doubling gates, as above
    lines = (tmp_path / "out" / "resonance.csv").read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines if line.startswith("dT1,")]
    assert [int(r[1]) for r in rows] == [-1, 0, 1]
    for r in rows:
        j = int(r[1])
        rep = cli.dyadic_symbol_bound(j, j, j, 1.0, which="dT1", n_axis=48, refine=True)
        assert [float(v) for v in r[2:]] == [rep["ratio"], rep["refined_ratio"], rep["rel_change"]]


OSCILLATORY_FILES = ["two_pi.csv", "separated.csv", "resonant.csv", "oscillatory_report.json"]


def test_oscillatory_false_gate_exits_1(tmp_path, capsys, monkeypatch):
    real_study = cli.nonresonant_decay_study

    def flat_separated(region, alpha2):
        study = real_study(region, alpha2)
        return {**study, "slope": 0.0} if region == "separated" else study

    monkeypatch.setattr(cli, "nonresonant_decay_study", flat_separated)
    config = tmp_path / "oscillatory.cfg"
    config.write_text("study.kind = oscillatory\noscillatory.b_values = 8.0\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["oscillatory", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.strip().endswith("oscillatory gates failed: contrast.separated_ok")
    assert (out / "oscillatory_report.json").read_bytes()


def test_oscillatory_passing_gates_exit_0(tmp_path):
    out = _assert_identical_runs(
        tmp_path,
        "oscillatory",
        "study.kind = oscillatory\noscillatory.b_values = 8.0\n",
        OSCILLATORY_FILES,
    )
    # each region's series: the time and the largest |I(t; xi)| over its sampled xi
    for name in ("separated.csv", "resonant.csv"):
        lines = [ln for ln in (out / name).read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
        assert lines[0] == "t,max_abs_i"
        assert all(len(ln.split(",")) == 2 for ln in lines[1:])


def test_oscillatory_output_is_the_same_at_one_and_two_threads(tmp_path):
    config = "study.kind = oscillatory\noscillatory.b_values = 8.0, 16.0\n"
    outs = [tmp_path / f"threads_{k}" for k in (1, 2)]
    for k, out in zip((1, 2), outs):
        assert _main(tmp_path, "oscillatory", config, out, "--threads", str(k)) == 0
    for name in OSCILLATORY_FILES:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_study_flags_are_pinned():
    """Every study takes exactly these flags: a new one changes this test."""
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(cli.STUDIES)
    for name, p in sub.choices.items():
        flags = {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        assert flags == {"--config", "--out", "--seed", "--threads"}, name


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_is_a_usage_error(tmp_path, capsys, threads):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        _main(tmp_path, "oscillatory", "oscillatory.b_values = 8.0\n", out, "--threads", threads)
    assert exit_info.value.code == 2
    assert f"--threads: must be >= 1, got {threads}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_64_bits_is_a_usage_error(tmp_path, capsys, seed):
    # SplitMix64 keeps a seed mod 2^64: 2^64 would run seed 0's stream and -1 that of 2^64 - 1
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        _main(tmp_path, "identities", "identities.samples = 20\n", out, "--seed", seed)
    assert exit_info.value.code == 2
    assert f"--seed: must be in [0, 2^64), got {seed}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seeds_at_the_ends_of_64_bits_are_accepted(tmp_path, seed):
    out = tmp_path / "out"
    assert _main(tmp_path, "identities", "identities.samples = 20\n", out, "--seed", str(seed)) == 0
    assert json.loads((out / "identities.json").read_text(encoding="utf-8"))["metadata"]["seed"] == seed


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


# each function the identities study checks (as qmkdv.identities names it), a
# break of it, and exactly the checks that break must fail; the phase turns NaN
# at negative xi only and its gradient at positive xi only, and every largest
# error must carry that NaN
IDENTITY_FAULTS = {
    "phase_phi": (lambda real: lambda xi, e1, e2: real(xi, e1, e2) + (math.nan if np.any(np.less(xi, 0.0)) else 0.0),
                  ["local_phase_residual", "phase_factorization", "resonance_phase_values"]),
    "symbol_t1": (lambda real: lambda e1, e2, e3, a2: real(e1, e2, e3, a2) + 1e-3 * np.asarray(e1),
                  ["t1_reduced_form", "t1_symmetry"]),
    "grad_phase_phi": (lambda real: lambda xi, *eta: tuple(g + (math.nan if xi > 0 else 0.0) for g in real(xi, *eta)),
                       ["resonance_gradients"]),
    "symbol_t2": (lambda real: lambda *eta: real(*eta) + 1.0, ["t2_spot_values"]),
    "scaling_field_direct": (lambda real: lambda phi, spec: phi.with_coeffs(2.0 * real(phi, spec).coeffs),
                             ["commutator_s_dx", "commutator_s_dx3"]),
    "lp.bump": (lambda real: lambda xi: real(2.0 * np.asarray(xi)), ["lp_partition"]),  # a stretched mother bump
}


@pytest.mark.parametrize("name", IDENTITY_FAULTS)
def test_identities_fault_exits_1_after_writing_its_report(tmp_path, capsys, monkeypatch, name):
    broken, failing = IDENTITY_FAULTS[name]
    *path, attr = name.split(".")
    owner = functools.reduce(getattr, path, identities)
    monkeypatch.setattr(owner, attr, broken(getattr(owner, attr)))
    out = tmp_path / "out"
    assert _main(tmp_path, "identities", "identities.samples = 100\n", out) == 1
    gates = [f"checks.{c}.passed" for c in failing] + ["passed"]
    assert capsys.readouterr().err.strip().endswith(": " + ", ".join(gates))
    report = json.loads((out / "identities.json").read_text(encoding="utf-8"))
    assert report["passed"] is False
    assert [c["name"] for c in report["checks"] if not c["passed"]] == failing


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
        ("decay", "decay.linear_n = 63\n"),
        ("oscillatory", "oscillatory.b_values = 8.0, 2.0\n"),
        ("oscillatory", "oscillatory.b_values = 64.0, 4.0\n"),
        ("oscillatory", "oscillatory.b_values = 8.0, 16.0, 16.0\n"),
        ("resonance", "resonance.j_min = 0\nresonance.j_max = 0\nresonance.n_axis = 47\n"),
        ("decay", "decay.samples = 5\n"),
        ("decay", DECAY_CONFIG.replace("decay.fit_t_min = 1.2", "decay.fit_t_min = 2.9")),
        ("scattering", SCATTERING_CONFIG.replace("fit_t_min = 1.5", "fit_t_min = 3.5")),
        ("scattering", SCATTERING_CONFIG.replace("run.t_end = 4.0", "run.t_end = 3.0")),
        ("scattering", SCATTERING_CONFIG.replace("fit_t_min = 1.5", "fit_t_min = -1.0")),
        ("identities", "identities.samples = 0\n"),
        ("identities", "identities.samples = -3\n"),
        ("decay", "decay.samples = -1\n"),
        ("scattering", "scattering.samples = -1\n"),
        ("simulate", "run.monitor_count = -1\n"),
        ("resonance", "decay.t_min = 7.0\n"),
        ("identities", "initial.snapshot = /nonexistent\n"),
        ("simulate", SIMULATE_CONFIG.replace("initial.amplitude = 0.3", "initial.amplitude = 0.0")),
        ("decay", DECAY_CONFIG.replace("t_min = 2.0", "t_min = 4.0").replace("t_max = 20.0", "t_max = 4.0")),
        ("resonance", RESONANCE_CONFIG + "coeff.a = 0.0\n"),
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
        "odd-linear-grid",
        "b-value-below-4",
        "b-values-decreasing",
        "b-values-repeated",
        "odd-n-axis",
        "linear-decay-window",
        "nonlinear-decay-window",
        "drift-fit-window",
        "dyadic-times",
        "negative-drift-fit-start",
        "zero-identity-samples",
        "negative-identity-samples",
        "negative-decay-samples",
        "negative-scattering-samples",
        "negative-monitor-count",
        "key-of-another-study",
        "snapshot-outside-an-integrator-study",
        "zero-datum",
        "decay-fit-at-one-time",
        "resonance-at-zero-alpha2",
    ],
)
def test_configuration_errors_exit_2(tmp_path, capsys, study, config):
    out = tmp_path / "out"
    assert _main(tmp_path, study, config, out) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def _write_snapshots(where: Path) -> None:
    """Snapshot files that SIMULATE_CONFIG's run refuses, each named for its fault."""
    grid = GridSpec(64, 20.0)
    phi = transform(grid, 0.3 * np.exp(-(grid.x**2)))
    ident = CoefficientSpec().identifier()  # cubic_poly at its defaults, as SIMULATE_CONFIG
    save_snapshot(where / "at_t_end.bin", phi.with_coeffs(phi.coeffs, time=0.2), ident)
    save_snapshot(where / "after_t_end.bin", phi.with_coeffs(phi.coeffs, time=0.3), ident)
    save_snapshot(where / "other_grid.bin", transform(GridSpec(64, 30.0), np.exp(-(grid.x**2))), ident)
    save_snapshot(where / "other_coeff.bin", phi, CoefficientSpec("linear", b=0.0).identifier())
    data = (where / "at_t_end.bin").read_bytes()
    (where / "truncated.bin").write_bytes(data[:-8])
    (where / "wrong_magic.bin").write_bytes(b"QMKDV1" + data[6:])
    (where / "trailing.bin").write_bytes(data + bytes(8))
    coeffs = phi.coeffs.copy()
    coeffs[5] = np.nan
    save_snapshot(where / "non_finite.bin", phi.with_coeffs(coeffs), ident)


# the keys that no longer exist, each at its last default, given to the study
# that read it: the bootstrap constants are fixed, as are the Airy part's box
# and width and the oscillatory region times
REMOVED_KEYS = {
    "constants.delta": ("resonance", "0.001"),
    "constants.p1": ("resonance", "0.001"),
    "constants.gamma_l": ("resonance", "0.0"),
    "constants.gamma_h": ("resonance", "2.5"),
    "constants.s": ("resonance", "12.0"),
    "constants.decay_exponent": ("resonance", "0.48"),
    "decay.linear_box": ("decay", "12000.0"),
    "decay.linear_width": ("decay", "1.5"),
    "oscillatory.t_min": ("oscillatory", "3.0"),
    "oscillatory.t_max": ("oscillatory", "96.0"),
    "oscillatory.samples": ("oscillatory", "45"),
}
STUDY_CONFIGS = {"resonance": RESONANCE_CONFIG, "decay": DECAY_CONFIG,
                 "oscillatory": "oscillatory.b_values = 8.0\n"}


SNAPSHOT_FAULTS = ("missing", "wrong_magic", "truncated", "trailing", "non_finite", "other_grid", "other_coeff")


@pytest.mark.parametrize(
    "study, config, named",
    [
        *[("simulate", SIMULATE_CONFIG + f"initial.snapshot = {{dir}}/{name}.bin\n", "initial.snapshot")
          for name in SNAPSHOT_FAULTS],
        ("simulate", SIMULATE_CONFIG + "initial.snapshot = {dir}/at_t_end.bin\n", "t_end"),
        ("simulate", SIMULATE_CONFIG + "initial.snapshot = {dir}/after_t_end.bin\n", "t_end"),
        ("simulate", SIMULATE_CONFIG.replace("run.t_end = 0.2", "run.t_end = inf"), "run.t_end"),
        ("scattering", SCATTERING_CONFIG.replace("run.t_end = 4.0", "run.t_end = inf"), "run.t_end"),
        ("simulate", SIMULATE_CONFIG + "run.dt_init = nan\n", "run.dt_init"),
        ("simulate", SIMULATE_CONFIG + "initial.width = 0.0\n", "initial.width"),
        ("decay", DECAY_CONFIG.replace("decay.t_max = 20.0", "decay.t_max = nan"), "decay.t_max"),
        ("oscillatory", "oscillatory.b_values = 8.0, nan\n", "oscillatory.b_values"),
        ("decay", DECAY_CONFIG.replace("run.t_end = 3.0", "run.t_end = -1.0"), "run.t_end"),
        ("scattering", SCATTERING_CONFIG.replace("run.t_end = 4.0", "run.t_end = -1.0"), "run.t_end"),
        ("decay", DECAY_CONFIG.replace("decay.t_min = 2.0", "decay.t_min = 0.0"), "decay.t_min"),
        ("decay", DECAY_CONFIG.replace("decay.t_min = 2.0", "decay.t_min = 0.5"), "decay.t_min"),
        ("simulate", SIMULATE_CONFIG + "run.dt_init = -1.0\n", "dt_init"),
        *[(study, STUDY_CONFIGS[study] + f"{key} = {value}\n", f"unknown key {key!r}")
          for key, (study, value) in REMOVED_KEYS.items()],
    ],
    ids=[*(f"snapshot-{name}" for name in SNAPSHOT_FAULTS), "snapshot-at-t-end", "snapshot-after-t-end",
         "simulate-infinite-t-end", "scattering-infinite-t-end", "nan-dt-init", "zero-width", "nan-float", "nan-in-float-list",
         "decay-t-end", "scattering-t-end", "decay-t-min-zero", "decay-t-min-below-1",
         "negative-dt-init",
         *(f"removed-{key}" for key in REMOVED_KEYS)],
)
def test_out_of_range_values_exit_2_naming_them(tmp_path, capsys, study, config, named):
    """Each value would fail only once work had started (a math domain
    error, a division by zero, t < 1 in the dispersive ratio after the whole
    Airy sweep, an overflow at an infinite horizon) or be taken silently (a
    run of no steps to t = inf): each is refused before anything runs, by a
    message that names it.  A snapshot that cannot start the run is such a
    value.  run.dt_init and the REMOVED_KEYS are no longer keys: any value
    of them, even the last default, is refused by name as an unknown key."""
    _write_snapshots(tmp_path)
    out = tmp_path / "out"
    assert _main(tmp_path, study, config.replace("{dir}", str(tmp_path)), out) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err
    assert not out.exists()


@pytest.mark.parametrize(
    "study, config, error",
    [
        ("resonance", "resonance.j_min = -2000\nresonance.j_max = -2000\n", "ZeroDivisionError"),
        ("resonance", "resonance.j_min = 1100\nresonance.j_max = 1100\n", "OverflowError"),
        ("resonance", "coeff.a = 1e200\n", "OverflowError"),
        ("oscillatory", "oscillatory.b_values = 1e200\n", "OverflowError"),
    ],
    ids=["resonance-cell-underflow", "resonance-cell-overflow", "alpha2-overflow", "b-value-overflow"],
)
def test_arithmetic_errors_exit_1_in_one_line(tmp_path, capsys, study, config, error):
    """2^j at j = -2000 divides by zero and at j = 1100 overflows, as do
    alpha2 = a^2 and B^2 at 1e200: each is a numerical error of the study,
    printed as one line naming it, with exit 1 and nothing written."""
    out = tmp_path / "out"
    assert _main(tmp_path, study, config, out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{error}: ") and err.count("\n") == 1
    assert not out.exists()


def test_count_at_its_floor_runs(tmp_path):
    # run.monitor_count's floor is 0: the run records only t = 0 and t_end
    out = tmp_path / "out"
    assert _main(tmp_path, "simulate", SIMULATE_CONFIG.replace("monitor_count = 4", "monitor_count = 0"), out) == 0
    rows = [r for r in (out / "monitor.csv").read_text(encoding="utf-8").splitlines() if not r.startswith("#")]
    assert [r.split(",")[0] for r in rows[1:]] == ["0.0", "0.2"]


def test_process_exit_status_is_mains_return(tmp_path):
    config = tmp_path / "resonance.cfg"
    config.write_text(RESONANCE_CONFIG, encoding="utf-8")
    argv = ["resonance", "--config", str(config), "--out", str(tmp_path / "out")]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "qmkdv.cli", *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == cli.main(argv) == 1


MODULES = ("spectral_core", "littlewood_paley", "model", "integrator", "diagnostics", "oscillatory", "rng",
           "identities", "cli")

# Public functions and methods that no study calls, each with the reason it stays.
UNREACHED = {
    "littlewood_paley.b_norm": "to be recorded along the decay run (ROADMAP direction 5)",
    "littlewood_paley.interpolation_ratio": "to be recorded along the decay run (ROADMAP direction 5)",
    "littlewood_paley.project": "b_norm's band projection (ROADMAP direction 5)",
    "littlewood_paley.psi_tilde": "interpolation_ratio's fattened band (ROADMAP direction 5)",
    "rng.SplitMix64.next_u64": "perfbench/tracer.py hooks it by name",
    "rng.SplitMix64.normal": "perfbench/tracer.py hooks it by name",
    "rng.SplitMix64.normals": "perfbench/tracer.py hooks it by name",
    "rng.SplitMix64.uniform": "perfbench/tracer.py hooks it by name",
}


def _public_definitions(mod) -> dict:
    """The public functions and classes a module defines itself."""
    return {
        name: obj
        for name, obj in vars(mod).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == mod.__name__
    }


def _public_code(module_name: str, mod) -> dict:
    """The code object of every public function, method and property getter,
    keyed by dotted name."""
    out = {}
    for name, obj in _public_definitions(mod).items():
        if inspect.isfunction(obj):
            out[f"{module_name}.{name}"] = obj.__code__
            continue
        for attr, member in vars(obj).items():
            fn = member.fget if isinstance(member, property) else getattr(member, "__func__", member)
            if not attr.startswith("_") and inspect.isfunction(fn):
                out[f"{module_name}.{name}.{attr}"] = fn.__code__
    return out


def test_every_public_function_is_reached_by_a_study(tmp_path):
    """Each __all__ lists exactly its module's public functions and classes,
    and small runs of the six studies (plus a resume from a snapshot) call
    every public function and method except those in UNREACHED."""
    modules = {name: importlib.import_module(f"qmkdv.{name}") for name in MODULES}
    for name, mod in modules.items():
        if hasattr(mod, "__all__"):
            assert sorted(mod.__all__) == sorted(_public_definitions(mod)), name

    snapshot = tmp_path / "simulate" / "final_state.bin"
    resumed = SIMULATE_CONFIG.replace("run.t_end = 0.2", "run.t_end = 0.4") + f"initial.snapshot = {snapshot}\n"
    runs = [  # (output directory, study, config, exit code)
        ("identities", "identities", "identities.samples = 200\n", 0),
        ("simulate", "simulate", SIMULATE_CONFIG, 0),
        ("decay", "decay", DECAY_CONFIG, 0),
        ("scattering", "scattering", SCATTERING_CONFIG, 0),
        ("resonance", "resonance", RESONANCE_CONFIG, 1),
        ("oscillatory", "oscillatory", "study.kind = oscillatory\noscillatory.b_values = 8.0\n", 0),
        ("resumed", "simulate", resumed, 0),
    ]
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    codes = []
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for out, study, config, _ in runs:
            codes.append(_main(tmp_path, study, config, tmp_path / out))
    finally:
        sys.setprofile(previous)
    assert codes == [code for *_, code in runs]

    public = {}
    for name, mod in modules.items():
        public.update(_public_code(name, mod))
    assert sorted(name for name, code in public.items() if code not in called) == sorted(UNREACHED)
