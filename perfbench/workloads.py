"""The benchmark's workloads: inputs from a seed, gates, and correctness checks.

Load model: one batch client in a closed loop.  A repetition is one fresh
process that runs the workload's studies in order through
``qmkdv.cli.main`` with ``--threads 1``; repetitions run one after another.
The program sees only the config files generated here (and, for
``identities``, ``--seed``).

Seeds.  ``simulate-small`` and ``decay-wide`` draw the initial amplitude
within +-0.5% and the width within +-0.05% of the study default, and the
modulation in ``[0, 0.01]`` and ``[0, 0.005]``.  ``desk-studies`` passes
the seed to ``identities --seed``.  ``resonance-sweep`` has no random input;
its seed changes nothing.

A repetition fails when a study exits non-zero, when a counted gate is false,
or when a tolerance is exceeded.  The gates are every boolean named ``*_ok``,
``ok`` or ``passed`` in the report JSON, since ``decay``, ``resonance`` and
``oscillatory`` exit 0 even when one is false (ROADMAP defect D2).  All are
counted except a workload's ``uncounted`` ones.  Per workload:

* ``simulate-small``: no report gates.  ``err_vs_ref`` (root-mean-square
  over the monitor times of the relative deviation of ``linf`` from a run at
  ``eps_tol / 1000``) <= ``eps_tol`` = 3e-8; relative L2 and Hamiltonian
  drift over the run <= 1e-8.
* ``decay-wide``: ``linear.linf_slope_ok``, ``linear.weighted_linf_dx_slope_ok``,
  ``linear.ratios_ok`` and ``nonlinear.bounded_ok`` count.  The nonlinear
  slope gates do not: they test t^-1/2 and t^-1 decay rates, which a run to
  t=4 cannot decide, so the slopes are recorded as values.  ``err_vs_ref``
  (as above, over ``linf_dx`` and ``linf_dxx``, the larger) <= 1e-9; drifts
  <= 1e-8.
* ``resonance-sweep``: ``spread_ok`` and ``doubling_ok`` of T1 and dT1 count.
  ``ratio`` and ``refined_ratio`` must equal the committed
  ``reference/resonance.json`` to 1e-8 relative; ``err_vs_ref``, their
  largest relative deviation from the committed ratio on a 1536-point axis,
  must stay <= 0.02 (the study's own doubling gate).
* ``desk-studies``: every identities check, the identities ``passed`` flag
  and every oscillatory gate count.  ``err_vs_ref``, the largest error of the
  2 pi identity and the Gaussian self-test relative to 2 pi, <= 1e-5.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESONANCE_REFERENCE = HERE / "reference" / "resonance.json"

# Seeded initial data: amplitude within +-AMPLITUDE_SPREAD and width within
# +-WIDTH_SPREAD of the study default, modulation in [0, modulation_max].
# The width sets the spectral content that the adaptive step size and the
# error depend on most: +-0.5% in width moves err_vs_ref by +-11% and the
# step count by +-2%, against +-4% and none for +-0.5% in amplitude.
AMPLITUDE_SPREAD = 0.005
WIDTH_SPREAD = 0.0005
# The reference run of an integrator workload uses eps_tol / REF_FACTOR.
REF_FACTOR = 1000.0
# Relative drift of the L2 norm and the Hamiltonian allowed over a run.
DRIFT_TOLERANCE = 1e-8
# Computed resonance ratios must reproduce the committed ones to this.
RESONANCE_MATCH = 1e-8


def _seeded_initial(seed: int, amplitude: float, width: float, modulation_max: float) -> dict:
    rng = random.Random(seed)
    return {
        "initial.amplitude": amplitude * rng.uniform(1.0 - AMPLITUDE_SPREAD, 1.0 + AMPLITUDE_SPREAD),
        "initial.width": width * rng.uniform(1.0 - WIDTH_SPREAD, 1.0 + WIDTH_SPREAD),
        "initial.modulation": rng.uniform(0.0, modulation_max),
    }


def config_text(cfg: dict) -> str:
    return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n" for k, v in cfg.items())


def read_csv(path: Path) -> dict:
    """Columns of a study CSV (metadata comment lines skipped) as lists of strings."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    cols: dict = {h: [] for h in header}
    for ln in lines[1:]:
        for h, v in zip(header, ln.split(",")):
            cols[h].append(v)
    return cols


def _floats(col: list) -> list:
    return [float(v) for v in col]


def gate_flags(report, prefix: str = "") -> dict:
    """Every ``*_ok`` / ``ok`` / ``passed`` boolean in a report, by dotted path."""
    flags = {}
    if isinstance(report, dict):
        for k, v in report.items():
            path = f"{prefix}{k}"
            if isinstance(v, bool) and (k.endswith("_ok") or k in ("ok", "passed")):
                flags[path] = v
            else:
                flags.update(gate_flags(v, path + "."))
    elif isinstance(report, list):
        for i, v in enumerate(report):
            flags.update(gate_flags(v, f"{prefix}{i}."))
    return flags


def rms_rel_dev(run: dict, ref: dict, columns: tuple) -> float:
    """Largest, over the columns, root-mean-square over the monitor times of
    |run - ref| / |ref|.  (The maximum over the times is set by one early
    monitor time and jumps by up to 2x from seed to seed; the RMS does not.)"""
    if run["t"] != ref["t"]:
        raise ValueError("monitor times differ from the reference run")
    worst = 0.0
    for c in columns:
        devs = [abs(a - b) / abs(b) for a, b in zip(_floats(run[c]), _floats(ref[c]))]
        worst = max(worst, math.sqrt(sum(d * d for d in devs) / len(devs)))
    return worst


def drifts(monitor: dict) -> dict:
    l2 = _floats(monitor["l2"])
    ham = _floats(monitor["hamiltonian"])
    return {
        "l2_drift_rel": max(abs(v - l2[0]) for v in l2) / l2[0],
        "hamiltonian_drift_rel": max(abs(v - ham[0]) for v in ham) / abs(ham[0]),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    tolerance: float
    uncounted: frozenset = frozenset()
    # the calibrate.py kernel that tracks the host speed this workload sees
    probe: str = "interp"

    def studies(self, seed: int, reference: bool = False) -> list:
        """(study, config dict, extra argv) in run order."""
        raise NotImplementedError

    def check(self, out: Path, reference) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Integrator(Workload):
    """An adaptive integrator study with seeded Gaussian initial data."""

    study: str = ""
    report: str = ""
    monitor: str = ""
    observables: tuple = ()
    base: dict = field(default_factory=dict)
    initial: tuple = ()

    def studies(self, seed: int, reference: bool = False) -> list:
        cfg = {"study.kind": self.study, **self.base, **_seeded_initial(seed, *self.initial)}
        if reference:
            cfg["run.eps_tol"] = cfg["run.eps_tol"] / REF_FACTOR
        return [(self.study, cfg, [])]

    def check(self, out: Path, reference) -> dict:
        report = json.loads((out / self.study / self.report).read_text(encoding="utf-8"))
        monitor = read_csv(out / self.study / self.monitor)
        steps = report.get("nonlinear", report)
        values = {
            **drifts(monitor),
            "steps": steps["steps"],
            "rejected_steps": steps["rejected_steps"],
        }
        nonlinear = report.get("nonlinear", {})
        values.update({k: v for k, v in nonlinear.items() if k.endswith("_slope")})
        limits = {
            "l2_drift_rel": values["l2_drift_rel"] <= DRIFT_TOLERANCE,
            "hamiltonian_drift_rel": values["hamiltonian_drift_rel"] <= DRIFT_TOLERANCE,
        }
        return {
            "err_vs_ref": rms_rel_dev(monitor, reference, self.observables),
            "flags": gate_flags(report),
            "limits": limits,
            "values": values,
        }

    def reference_series(self, out: Path) -> dict:
        monitor = read_csv(out / self.study / self.monitor)
        return {c: monitor[c] for c in ("t", *self.observables)}


@dataclass(frozen=True)
class Resonance(Workload):
    base: dict = field(default_factory=dict)
    reference_path: Path = RESONANCE_REFERENCE

    def studies(self, seed: int, reference: bool = False) -> list:
        # the resonance study has no random input: the seed changes nothing
        return [("resonance", {"study.kind": "resonance", **self.base}, [])]

    def check(self, out: Path, reference) -> dict:
        report = json.loads((out / "resonance" / "resonance_report.json").read_text(encoding="utf-8"))
        rows = read_csv(out / "resonance" / "resonance.csv")
        committed = {(r["which"], r["j"]): r for r in reference["rows"]}
        err = 0.0
        match = 0.0
        for which, j, ratio, refined in zip(rows["which"], rows["j1"], rows["ratio"], rows["refined_ratio"]):
            ref = committed[(which, int(j))]
            for got, want in ((float(ratio), ref["ratio"]), (float(refined), ref["refined_ratio"])):
                match = max(match, abs(got - want) / abs(want))
                err = max(err, abs(got - ref["fine_ratio"]) / abs(ref["fine_ratio"]))
        return {
            "err_vs_ref": err,
            "flags": gate_flags(report),
            "limits": {"matches_committed_ratios": match <= RESONANCE_MATCH},
            "values": {"committed_ratio_rel_dev": match, "rows": len(rows["which"])},
        }


@dataclass(frozen=True)
class Desk(Workload):
    configs: dict = field(default_factory=lambda: {"identities": {}, "oscillatory": {}})

    def studies(self, seed: int, reference: bool = False) -> list:
        return [
            ("identities", {"study.kind": "identities", **self.configs["identities"]}, ["--seed", str(seed)]),
            ("oscillatory", {"study.kind": "oscillatory", **self.configs["oscillatory"]}, []),
        ]

    def check(self, out: Path, reference) -> dict:
        ident = json.loads((out / "identities" / "identities.json").read_text(encoding="utf-8"))
        osc = json.loads((out / "oscillatory" / "oscillatory_report.json").read_text(encoding="utf-8"))
        # relative error of the 2 pi identity and the Gaussian self-test
        # against their closed forms
        err = max(e / (2.0 * math.pi) for e in osc["two_pi"]["errors"])
        err = max(err, max(r["error"] / (2.0 * math.pi) for r in osc["gaussian_selftest"]))
        flags = {**gate_flags(ident, "identities."), **gate_flags(osc, "oscillatory.")}
        return {"err_vs_ref": err, "flags": flags, "limits": {}, "values": {}}


SIMULATE_SMALL = {
    "grid.n": 256,
    "grid.box_length": 50.0,
    "coeff.family": "cubic_poly",
    "run.eps_tol": 3e-8,
    "run.t_end": 5.0,
    "run.monitor_count": 40,
}
DECAY_WIDE = {
    "grid.n": 6144,
    "grid.box_length": 4500.0,
    "coeff.family": "cubic_poly",
    "run.eps_tol": 1e-9,
    "run.t_end": 4.0,
    "decay.fit_t_min": 1.2,
    "decay.linear_n": 16384,
}

WORKLOADS = {
    w.name: w
    for w in (
        Integrator(
            name="simulate-small",
            tolerance=SIMULATE_SMALL["run.eps_tol"],
            study="simulate",
            report="report.json",
            monitor="monitor.csv",
            observables=("linf",),
            base=SIMULATE_SMALL,
            initial=(0.01, 1.0, 0.01),
        ),
        Integrator(
            name="decay-wide",
            tolerance=DECAY_WIDE["run.eps_tol"],
            uncounted=frozenset(f"nonlinear.{k}_slope_ok" for k in ("linf_dx", "linf_dxx", "sharp_product")),
            study="decay",
            report="decay_report.json",
            monitor="decay_monitor.csv",
            observables=("linf_dx", "linf_dxx"),
            base=DECAY_WIDE,
            initial=(0.02, 3.0, 0.005),
            probe="fft",
        ),
        Resonance(
            name="resonance-sweep",
            tolerance=0.02,
            probe="gemm",
            base={
                "coeff.family": "cubic_poly",
                "resonance.j_min": 0,
                "resonance.j_max": 0,
                "resonance.n_axis": 384,
            },
        ),
        Desk(name="desk-studies", tolerance=1e-5),
    )
}
