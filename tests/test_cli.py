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
