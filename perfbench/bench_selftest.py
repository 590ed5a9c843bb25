"""Tests of the benchmark itself, on tiny versions of each workload.

Run from the repository root: ``python3 -m pytest -q perfbench/bench_selftest.py``.
(The file name keeps it out of the package's default test collection; a
full pass takes about a minute.)
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
from make_resonance_reference import reference_doc  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str, tmp: Path):
    w = WORKLOADS[name]
    if name == "simulate-small":
        return dataclasses.replace(w, base={**w.base, "grid.n": 64, "grid.box_length": 20.0, "run.t_end": 0.5})
    if name == "decay-wide":
        return dataclasses.replace(
            w, base={**w.base, "grid.n": 512, "grid.box_length": 375.0, "run.t_end": 1.5, "decay.fit_t_min": 1.1}
        )
    if name == "resonance-sweep":
        base = {**w.base, "resonance.n_axis": 256}
        ref = tmp / "resonance.json"
        ref.write_text(json.dumps(reference_doc(base, 512)), encoding="utf-8")
        return dataclasses.replace(w, base=base, reference_path=ref)
    return dataclasses.replace(
        w,
        configs={
            "identities": {"identities.samples": 200},
            "oscillatory": {"oscillatory.b_values": "8.0,16.0"},
        },
    )


@pytest.fixture
def bench_dirs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(run, "CACHE", tmp_path / "cache")
    return tmp_path


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_end_to_end(name, bench_dirs, capsys):
    result = run.run_workload(tiny(name, bench_dirs), seed=3, seconds=0, trace=False)
    assert result["correct"], capsys.readouterr().out
    assert result["attempted"] == run.MIN_REPS and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    printed = capsys.readouterr().out
    assert all(f"  {k} " in printed for k in want)
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat(name, bench_dirs):
    w = tiny(name, bench_dirs)
    ref = run.reference(w, 3, bench_dirs)
    reps = [run.checked(w, 3, bench_dirs, ref, trace=True) for _ in range(2)]
    assert not any(r["failed"] for r in reps), [r["reasons"] for r in reps]
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    layers = [r["layers"] for r in reps]
    assert set(layers[0]) | {"trace.overhead_s"} == set(want)
    counts = [k for k in layers[0] if not k.endswith(run.TIME_SUFFIXES)]
    assert "spectral_core.fft.points" in counts and "rng.draws" in counts
    assert {k: layers[0][k] for k in counts} == {k: layers[1][k] for k in counts}
    for k in layers[0]:
        assert run.layer_unit(k) == want[k]


def test_rhs_law_on_integrator(bench_dirs):
    w = tiny("simulate-small", bench_dirs)
    ref = run.reference(w, 3, bench_dirs)
    rec = run.checked(w, 3, bench_dirs, ref, trace=True)
    law, layers = rec["law"], rec["layers"]
    attempted = law["accepted"] + law["rejected"]
    assert law["rhs_calls"] == run.RHS_PER_ATTEMPT * attempted > 0
    assert layers["integrator.rhs_per_step"] == pytest.approx(run.RHS_PER_ATTEMPT * attempted / law["accepted"])


def test_refuses_without_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "desk-studies", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_sampler_slices_during_calls():
    with calibrate.Sampler("interp") as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 6 * calibrate.INTERVAL_S:
            sum(range(1000))
        wall = time.perf_counter() - t0
    assert len(sampler.slices) >= 3
    assert 0 < sum(sampler.slices) <= sampler.handler_s < wall
    assert sampler.speed_factor() > 0
    with calibrate.Sampler("gemm") as sampler:
        pass
    assert len(sampler.slices) == 1 and sampler.handler_s == 0
