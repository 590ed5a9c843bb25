"""Batch front door: the byte-identical output promise of the studies."""

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


def test_simulate_output_is_byte_identical(tmp_path):
    config = tmp_path / "simulate.cfg"
    config.write_text(SIMULATE_CONFIG, encoding="utf-8")
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    for name in ("monitor.csv", "report.json", "final_state.bin"):
        first = (outs[0] / name).read_bytes()
        assert first, name
        assert first == (outs[1] / name).read_bytes(), name


RESONANCE_CONFIG = """study.kind = resonance
resonance.j_min = 0
resonance.j_max = 0
resonance.n_axis = 48
"""


def test_resonance_false_gate_exits_1_with_identical_outputs(tmp_path, capsys):
    # At n_axis 48 a resolution doubling still moves the ratios by 16-20%,
    # so doubling_ok is false for T1 and dT1.
    config = tmp_path / "resonance.cfg"
    config.write_text(RESONANCE_CONFIG, encoding="utf-8")
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        assert cli.main(["resonance", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "summary.T1.doubling_ok" in err and "summary.dT1.doubling_ok" in err
        assert "spread_ok" not in err
    for name in ("resonance.csv", "resonance_report.json"):
        first = (outs[0] / name).read_bytes()
        assert first, name
        assert first == (outs[1] / name).read_bytes(), name


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
    config = tmp_path / "oscillatory.cfg"
    config.write_text("study.kind = oscillatory\noscillatory.b_values = 8.0\n", encoding="utf-8")
    assert cli.main(["oscillatory", "--config", str(config), "--out", str(tmp_path / "out")]) == 0


def test_false_gates_named_by_dotted_path():
    report = {
        "study": "x",
        "a_ok": True,
        "b": {"c_ok": False, "value_ok_not": False, "list": [{"ok": True}, {"ok": False}]},
    }
    assert cli._false_gates(report) == ["b.c_ok", "b.list.1.ok"]
