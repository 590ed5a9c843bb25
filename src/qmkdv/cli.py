"""Batch front door: config parsing, study orchestration, reproducible reports.

Studies: identities, simulate, decay, scattering, resonance, oscillatory.
Configuration is flat ``key = value`` text (``#`` comments); every output
file carries the same metadata header (constants, grid, coefficient family,
seed, version) and is byte-identical across repeated invocations with the
same config and seed: floats are written with ``repr`` (shortest roundtrip),
JSON keys are sorted, and no timestamps or machine identifiers appear.

Each study is declared once (:func:`_study`): a body that only computes,
its config keys with their defaults, its report file, its fixed grid where
it has one, and whether a false gate sets the exit code.  One driver builds
the shared objects, writes the report and applies the exit-code rule.

Exit codes: 0 all checks passed, 1 a check failed or a study raised a
numerical error, 2 configuration/usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, identities
from .diagnostics import (
    MIN_DECAY_FIT_SAMPLES,
    MIN_DRIFT_FIT_SAMPLES,
    MIN_DYADIC_SAMPLES,
    decay_fit,
    dispersive_ratio,
    energy,
    frequency_window,
    probe_indices,
    profile_sizes,
    scattering_monitor,
    sharp_decay_product,
    theta_series,
)
from .integrator import SimConfig, distinct_times, gaussian_datum, run
from .model import BOOTSTRAP, CoefficientSpec, dyadic_symbol_bound
from .oscillatory import (gaussian_two_pi_selftest, nonresonant_decay_study, resonant_drift_measurement,
                          stationary_phase_drift, two_pi_identity)
from .spectral_core import (
    GridSpec,
    SpectralField,
    airy_factor,
    derivative,
    fractional_abs_derivative,
    load_snapshot,
    norm,
    profile_from_solution,
    save_snapshot,
    synthesize,
    transform,
)


class ConfigError(ValueError):
    """Bad configuration or usage; maps to exit code 2."""


class CheckFailure(RuntimeError):
    """A named check ran and exceeded its tolerance; maps to exit code 1."""


def _false_gates(node, path: str = "") -> list:
    """Dotted paths of every ``*_ok``, ``ok`` or ``passed`` flag that is False
    in a report.  A list entry that has a ``name`` is addressed by it."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = ((str(v.get("name", i) if isinstance(v, dict) else i), v) for i, v in enumerate(node))
    else:
        return []
    failed = []
    for key, value in items:
        where = f"{path}.{key}" if path else key
        if value is False and (key.endswith("_ok") or key in ("ok", "passed")):
            failed.append(where)
        else:
            failed += _false_gates(value, where)
    return failed


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    """A float config value; inf and nan are refused like any malformed value."""
    if not math.isfinite(value := float(text)):
        raise ValueError(f"{text!r} is not finite")
    return value


def _float_list(text: str) -> tuple:
    return tuple(_finite_float(x) for x in text.split(","))


# a value below its floor, or one in _POSITIVE that is not > 0, is refused when the
# config is read, before anything runs; decay.t_min's floor is dispersive_ratio's t >= 1
_FLOORS = {"identities.samples": 1, "run.monitor_count": 0, "decay.samples": 0, "scattering.samples": 0,
           "scattering.fit_t_min": 0.0, "decay.t_min": 1.0}
_POSITIVE = ("run.t_end", "initial.width")  # a zero width makes a NaN datum


def parse_config(path: str) -> dict:
    """Flat key = value configuration; unknown or duplicate keys and values below their floor are errors."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from e
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            out[key] = _KEY_PARSERS[key](value)
        except (ValueError, TypeError) as e:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from e
        if key in _FLOORS and not out[key] >= _FLOORS[key]:
            raise ConfigError(f"{path}:{lineno}: {key} must be >= {_FLOORS[key]}, got {out[key]}")
        if key in _POSITIVE and not out[key] > 0:
            raise ConfigError(f"{path}:{lineno}: {key} must be > 0, got {out[key]}")
    return out


def _metadata(grid: GridSpec, coeff: CoefficientSpec, seed: int) -> dict:
    """The report header: every field of ``coeff`` (as coeff_<name>) and of ``BOOTSTRAP``, and the derived p0."""
    coeffs = {f"coeff_{k}": v if isinstance(v, str) else float(v) for k, v in asdict(coeff).items()}
    constants = {k: float(v) for k, v in asdict(BOOTSTRAP).items()}
    return {"artifact_version": __version__, "seed": int(seed), "grid_n": int(grid.n),
            "grid_box_length": float(grid.box_length), **coeffs, **constants, "p0": float(BOOTSTRAP.p0)}


# ---------------------------------------------------------------------------
# Deterministic writers
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path: Path, metadata: dict, header: list, rows: list) -> None:
    lines = [f"# {k}={_fmt(metadata[k])}" for k in sorted(metadata)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _py(obj):
    """Coerce numpy scalars/arrays so json output is type-stable."""
    if isinstance(obj, dict):
        return {k: _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_py(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_py(v) for v in obj.tolist()]
    return obj


def write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(_py(obj), sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _map(fn, items, threads: int) -> list:
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))


def _require_samples(what: str, times, lo: float, hi: float, needed: int) -> None:
    """Refuse, before anything runs, a plan whose fit window holds too few distinct times."""
    have = len({t for t in times if lo <= t <= hi})
    if have < needed:
        raise ConfigError(f"{what} in [{lo}, {hi}]: {have} distinct planned, need >= {needed}")


def _run_counts(state) -> dict:
    """The step, rejected-step and right-hand-side counts of an integrator run."""
    return {"steps": state.steps, "rejected_steps": state.rejected, "rhs_evals": state.rhs_evals}


def _slope_gate(name: str, series, window: tuple, target: float, tol: float) -> dict:
    """The decay exponent fitted to ``series`` in ``window``, its standard error, and whether it is target +- tol."""
    slope, stderr = decay_fit(series, window)
    return {f"{name}_slope": slope, f"{name}_slope_stderr": stderr, f"{name}_slope_ok": abs(slope - target) <= tol}


def _snapshot_datum(path: str, grid: GridSpec, coeff: CoefficientSpec) -> SpectralField:
    """The snapshot at ``path``, its zero mode set to 0, if it is readable and on ``grid`` with ``coeff``."""
    try:
        phi, coeff_id = load_snapshot(path)
    except (OSError, ValueError) as e:
        raise ConfigError(f"initial.snapshot {path!r}: {e}") from e
    if phi.grid != grid:
        raise ConfigError(f"initial.snapshot grid {phi.grid} is not the configured {grid}")
    if coeff_id != coeff.identifier():
        raise ConfigError(f"initial.snapshot coefficients {coeff_id!r} are not the configured {coeff.identifier()!r}")
    phi.coeffs[0] = 0.0
    return phi


# ---------------------------------------------------------------------------
# Study declarations and the driver
# ---------------------------------------------------------------------------

@dataclass
class _Context:
    """What a study body sees: its config with every default filled in, the
    objects the driver built from it, and where to write."""

    args: argparse.Namespace
    cfg: dict
    outdir: Path
    grid: GridSpec
    coeff: CoefficientSpec
    meta: dict

    def path(self, name: str) -> Path:
        """Where to write ``name``.  The output directory is made at the first
        write, so a run refused before it writes leaves no directory."""
        self.outdir.mkdir(parents=True, exist_ok=True)
        return self.outdir / name

    def csv(self, name: str, header: list, rows: list) -> None:
        write_csv(self.path(name), self.meta, header, rows)

    def sim(self, monitor_times: tuple) -> SimConfig:
        """The integrator run the config describes, from the snapshot at
        ``initial.snapshot`` or else the ``initial.*`` Gaussian, ending at
        ``run.t_end``; a field with no nonzero coefficient is refused."""
        cfg = self.cfg
        if "initial.snapshot" in cfg:
            initial = _snapshot_datum(cfg["initial.snapshot"], self.grid, self.coeff)
        else:
            initial = gaussian_datum(
                self.grid, cfg["initial.amplitude"], cfg["initial.width"], cfg["initial.modulation"]
            )
        if not np.any(initial.coeffs):
            raise ConfigError("the initial field is zero: every coefficient vanishes")
        try:
            return SimConfig(
                coeff=self.coeff,
                initial=initial,
                t_end=cfg["run.t_end"],
                eps_tol=cfg["run.eps_tol"],
                monitor_times=monitor_times,
            )
        except ValueError as e:
            raise ConfigError(str(e)) from e


@dataclass(frozen=True)
class _Study:
    """A study's declaration; see :func:`_study`."""

    body: Callable[[_Context], dict]
    report: str
    defaults: dict
    grid: tuple | None = None
    gated: bool = True


_STUDIES: dict = {}

# each field of CoefficientSpec is the config key coeff.<field>, its default the field's
_COMMON_DEFAULTS = {f"coeff.{f.name}": f.default for f in fields(CoefficientSpec)}

# keys with no default, read only by the studies that integrate (those with a run.t_end)
_INTEGRATOR_KEYS = {"initial.snapshot": str}

# the frequency-side studies record this placeholder grid in their metadata
_DESK_GRID = (16, 2.0 * math.pi)


def _integrator_defaults(n: int, box: float, amplitude: float, width: float, t_end: float, eps_tol: float) -> dict:
    return {
        "grid.n": n,
        "grid.box_length": box,
        "initial.amplitude": amplitude,
        "initial.width": width,
        "initial.modulation": 0.0,
        "run.t_end": t_end,
        "run.eps_tol": eps_tol,
    }


def _study(name: str, report: str, defaults: dict, grid: tuple | None = None, gated: bool = True):
    """Declare a study: its body returns the report entries past ``study`` and
    ``metadata``.  Each config key's default is stated here and nowhere else."""

    def register(body):
        _STUDIES[name] = _Study(body, report, {**_COMMON_DEFAULTS, **defaults}, grid, gated)
        return body

    return register


def _run_study(study: _Study, args, cfg: dict, outdir: Path) -> int:
    """Refuse unread keys, build the shared objects, run the body, write its report, gate the exit code."""
    unread = set(cfg) - {"study.kind", *study.defaults, *(_INTEGRATOR_KEYS if "run.t_end" in study.defaults else ())}
    if unread:
        raise ConfigError(f"{args.study} does not read {', '.join(sorted(unread))}")
    cfg = {**study.defaults, **cfg}
    try:
        n, box = study.grid or (cfg["grid.n"], cfg["grid.box_length"])
        grid = GridSpec(n=n, box_length=box)
        coeff = CoefficientSpec(**{f.name: cfg[f"coeff.{f.name}"] for f in fields(CoefficientSpec)})
    except ValueError as e:
        raise ConfigError(str(e)) from e
    ctx = _Context(args, cfg, outdir, grid, coeff, _metadata(grid, coeff, args.seed))
    entries = study.body(ctx)  # may add to ctx.meta
    report = {"study": args.study, "metadata": ctx.meta, **entries}
    write_json(ctx.path(study.report), report)
    failed = _false_gates(report) if study.gated else []
    if failed:
        raise CheckFailure(f"{args.study} gates failed: {', '.join(failed)}")
    return 0


# ---------------------------------------------------------------------------
# The studies, in the order the CLI lists them
# ---------------------------------------------------------------------------

@_study(
    "identities",
    "identities.json",
    {"identities.samples": 10000},
    grid=(512, 60.0),
)
def _identities(ctx: _Context) -> dict:
    samples = ctx.cfg["identities.samples"]
    checks = identities.run(ctx.args.seed, samples, ctx.grid, ctx.coeff)
    return {"samples": samples, "checks": checks, "passed": all(c["passed"] for c in checks)}


@_study(
    "simulate",
    "report.json",
    {**_integrator_defaults(n=256, box=50.0, amplitude=0.01, width=1.0, t_end=200.0, eps_tol=3e-8),
     "run.monitor_count": 40},
)
def _simulate(ctx: _Context) -> dict:
    t_end = ctx.cfg["run.t_end"]
    count = ctx.cfg["run.monitor_count"]
    sim = ctx.sim(tuple(t_end * (i + 1) / count for i in range(count)))

    def observer(phi, rec):
        rec["linf"] = norm(phi, "Linf")

    state, records = run(sim, observer=observer)
    header = ["t", "mass", "l2", "hamiltonian", "linf"]
    ctx.csv("monitor.csv", header, [[r[k] for k in header] for r in records])
    save_snapshot(ctx.path("final_state.bin"), state.phi, ctx.coeff.identifier())

    m0, l0, h0 = records[0]["mass"], records[0]["l2"], records[0]["hamiltonian"]
    return {
        **_run_counts(state),
        "final_dt": state.dt,
        "mass_drift_abs": max(abs(r["mass"] - m0) for r in records),
        "l2_drift_rel": max(abs(r["l2"] - l0) for r in records) / l0,
        "hamiltonian_drift_rel": max(abs(r["hamiltonian"] - h0) for r in records) / abs(h0),
    }


# Ungated: a run too short to decide its asymptotic slopes (as the
# benchmark's decay workload is) would otherwise always exit 1.
@_study(
    "decay",
    "decay_report.json",
    {
        **_integrator_defaults(n=6144, box=4500.0, amplitude=0.02, width=3.0, t_end=500.0, eps_tol=1e-9),
        "decay.t_min": 20.0,
        "decay.t_max": 500.0,
        "decay.samples": 25,
        "decay.fit_t_min": 50.0,
        "decay.linear_n": 16384,
    },
    gated=False,
)
def _decay(ctx: _Context) -> dict:
    cfg = ctx.cfg
    t_min, t_max = cfg["decay.t_min"], cfg["decay.t_max"]

    # Free Airy evolution of a fixed Gaussian on its own wide box (exact
    # propagator, no stepping).  The plain sup norm decays at t^{-1/3}; for
    # one derivative the sup is weighted by (1+|x|/t^{1/3})^{-1/4}, which
    # cancels the |x|^{1/4} growth of the stationary-phase tail so that the
    # weighted sup decays at the interior rate t^{-2/3}.
    try:
        lin_grid = GridSpec(cfg["decay.linear_n"], 12000.0)
    except ValueError as e:
        raise ConfigError(f"decay.linear_n: {e}") from e
    times = np.exp(np.linspace(math.log(t_min), math.log(t_max), cfg["decay.samples"]))
    _require_samples("decay.samples/t_min/t_max: samples", times, t_min, t_max, MIN_DECAY_FIT_SAMPLES)
    t_end = cfg["run.t_end"]
    monitor = tuple(float(t) for t in np.exp(np.linspace(0.0, math.log(t_end), 40)))
    _require_samples("decay.fit_t_min: monitor times", distinct_times([*monitor, t_end]), cfg["decay.fit_t_min"],
                     t_end, MIN_DECAY_FIT_SAMPLES)
    sim = ctx.sim(monitor)

    h = transform(lin_grid, np.exp(-((lin_grid.x / 1.5) ** 2)))
    sizes = profile_sizes(h)
    h1 = fractional_abs_derivative(h, 1.0)
    rows = []
    for t in map(float, times):
        airy = airy_factor(lin_grid, t)  # e^{-t d_x^3}, as free_evolve forms it, once per time
        phi_t = h.with_coeffs(airy * h.coeffs, time=t)
        vals = np.abs(synthesize(phi_t))  # also the beta = 0 left-hand side
        dx_vals = np.abs(synthesize(derivative(phi_t, 1)))
        weight = (1.0 + np.abs(lin_grid.x) * t ** (-1.0 / 3.0)) ** (-0.25)
        lhs1 = np.abs(synthesize(h1.with_coeffs(airy * h1.coeffs)))  # | |d_x| phi_t |, the beta = 1 side
        rows.append([t, float(np.max(vals)), float(np.max(dx_vals * weight)),
                     dispersive_ratio(vals, lin_grid, t, 0.0, sizes),
                     dispersive_ratio(lhs1, lin_grid, t, 1.0, sizes)])
    ctx.csv("linear_decay.csv", ["t", "linf", "weighted_linf_dx", "ratio_beta0", "ratio_beta1"], rows)
    r0 = [r[3] for r in rows]
    r1 = [r[4] for r in rows]
    report = {
        "linear": {
            **_slope_gate("linf", [(r[0], r[1]) for r in rows], (t_min, t_max), -1.0 / 3.0, 0.03),
            **_slope_gate("weighted_linf_dx", [(r[0], r[2]) for r in rows], (t_min, t_max), -2.0 / 3.0, 0.05),
            "ratio_beta0_spread": max(r0) / min(r0),
            "ratio_beta1_spread": max(r1) / min(r1),
            "ratios_ok": bool(max(r0) / min(r0) <= 2.0 and max(r1) / min(r1) <= 2.0),
        },
    }

    def observer(phi, rec):
        d = [synthesize(derivative(phi, j)) for j in range(4)]
        rec["linf_dx"] = float(np.max(np.abs(d[1])))
        rec["linf_dxx"] = float(np.max(np.abs(d[2])))
        rec["sharp_product"] = sharp_decay_product(d)
        eb = energy(phi, ctx.coeff)
        rec["z_norm"] = eb.z_norm
        rec["energy_total"] = eb.total
        rec["h_mass_fraction"] = eb.h_mass_fraction

    state, records = run(sim, observer=observer)
    header = ["t", "mass", "l2", "hamiltonian", "linf_dx", "linf_dxx", "sharp_product", "z_norm",
              "energy_total", "h_mass_fraction"]
    ctx.csv("decay_monitor.csv", header, [[r[k] for k in header] for r in records])

    def gate(key, target, tol):
        series = [(r["t"], r[key]) for r in records if r["t"] > 0]
        return _slope_gate(key, series, (cfg["decay.fit_t_min"], t_end), target, tol)

    e_ratio = [r["energy_total"] * (1.0 + r["t"]) ** (-2.0 * BOOTSTRAP.p0) for r in records]
    z_vals = [r["z_norm"] for r in records]
    ratios = {"energy_ratio_max": max(e_ratio) / e_ratio[0], "energy_ratio_min": min(e_ratio) / e_ratio[0],
              "z_ratio_max": max(z_vals) / z_vals[0], "z_ratio_min": min(z_vals) / z_vals[0]}
    report["nonlinear"] = {
        **_run_counts(state),
        **gate("linf_dx", -0.5, 0.07),
        **gate("linf_dxx", -0.5, 0.07),
        **gate("sharp_product", -1.0, 0.15),
        **ratios,
        "h_mass_fraction_min": min(r["h_mass_fraction"] for r in records),
        "bounded_ok": all(0.25 <= r <= 4.0 for r in ratios.values()),
    }
    return report


# Ungated until the drift law's match is settled (no probe matches at the
# defaults, see ROADMAP direction 4).
@_study(
    "scattering",
    "scattering_report.json",
    {
        **_integrator_defaults(n=8192, box=6000.0, amplitude=0.35, width=2.0, t_end=128.0, eps_tol=1e-8),
        "coeff.family": "linear",
        "coeff.b": 0.0,
        "scattering.target_frequencies": (1.0, 1.0011, 1.0021),
        "scattering.fit_t_min": 16.0,
        "scattering.samples": 121,
    },
    gated=False,
)
def _scattering(ctx: _Context) -> dict:
    cfg, grid, coeff = ctx.cfg, ctx.grid, ctx.coeff
    t_end = cfg["run.t_end"]
    fit_t_min = cfg["scattering.fit_t_min"]
    try:
        idx = probe_indices(grid, cfg["scattering.target_frequencies"])
    except ValueError as e:
        raise ConfigError(str(e)) from e
    probe_xi = grid.dxi * idx

    dyadics = {float(2**k) for k in range(int(math.log2(t_end)) + 1) if 2**k <= t_end}
    geom = {
        float(t)
        for t in np.exp(np.linspace(0.0, math.log(t_end), cfg["scattering.samples"]))[1:-1]
    }
    planned = distinct_times(dyadics | geom | {1.0, float(t_end)})
    _require_samples("run.t_end: dyadic times", dyadics, 1.0, t_end, MIN_DYADIC_SAMPLES)
    _require_samples("scattering.fit_t_min: samples", planned, max(fit_t_min, 1.0), t_end, MIN_DRIFT_FIT_SAMPLES)
    sim = ctx.sim(tuple(planned))

    times, samples = [], []

    def observer(phi, rec):
        if phi.time >= 1.0:
            times.append(phi.time)
            samples.append(profile_from_solution(phi).coeffs[idx])

    state, _ = run(sim, observer=observer)
    hhat = np.stack(samples)
    frequencies = [float(x) for x in probe_xi]
    drift = [stationary_phase_drift(x, coeff.alpha2) for x in frequencies]
    theta = theta_series(times, hhat, drift)

    header = ["t"] + [f"{c}_{i}" for i in range(idx.size) for c in ("abs_h", "arg_h", "theta")]
    # scalar abs and angle: numpy's array abs can differ from them in the last bit
    rows = [[t] + [v for h, th in zip(hs, ths) for v in (abs(h), float(np.angle(h)), th)]
            for t, hs, ths in zip(times, hhat, theta)]
    ctx.csv("theta.csv", header, rows)

    return {
        **_run_counts(state),
        "probe_frequencies": frequencies,
        "window_floor": min(float(np.min(frequency_window(t, probe_xi))) for t in (fit_t_min, t_end)),
        "per_frequency": scattering_monitor(times, hhat, drift, fit_t_min),
        "frozen_profile_drift": resonant_drift_measurement(
            frequencies, grid, alpha2=coeff.alpha2, amplitude=cfg["initial.amplitude"], width=cfg["initial.width"]
        ),
    }


@_study(
    "resonance",
    "resonance_report.json",
    {"resonance.j_min": -4, "resonance.j_max": 4, "resonance.n_axis": 384},
    grid=_DESK_GRID,
)
def _resonance(ctx: _Context) -> dict:
    j_min, j_max = ctx.cfg["resonance.j_min"], ctx.cfg["resonance.j_max"]
    n_axis = ctx.cfg["resonance.n_axis"]
    if ctx.coeff.alpha2 == 0.0:  # dT1 would vanish identically, its ratio spread 0/0
        raise ConfigError(f"coeff.a: resonance needs alpha2 = a^2 > 0, got {ctx.coeff.alpha2!r}")
    if j_min > j_max:
        raise ConfigError("resonance.j_min must be <= resonance.j_max")
    try:
        GridSpec(n_axis, 1.0)  # each axis of the S_infty lattice has n_axis points
    except ValueError as e:
        raise ConfigError(f"resonance.n_axis: {e}") from e
    js = range(j_min, j_max + 1)

    def evaluate(task):
        which, j = task
        rep = dyadic_symbol_bound(j, j, j, ctx.coeff.alpha2, which=which, n_axis=n_axis, refine=True)
        return [which, j, rep["ratio"], rep["refined_ratio"], rep["rel_change"]]

    # dT1 is homogeneous of degree one and its lattice dilates by 2^j, so its
    # ratios are bitwise the same on every cell: evaluate one, copy its row
    *rows, d_row = _map(evaluate, [("T1", j) for j in js] + [("dT1", j_min)], ctx.args.threads)
    rows += [["dT1", j, *d_row[2:]] for j in js]
    ctx.meta["n_axis"] = n_axis
    ctx.csv("resonance.csv", ["which", "j1", "ratio", "refined_ratio", "rel_change"], rows)
    summary = {}
    for which in ("T1", "dT1"):
        vals = [r[2] for r in rows if r[0] == which]
        changes = [r[4] for r in rows if r[0] == which]
        summary[which] = {
            "ratio_max": max(vals),
            "ratio_min": min(vals),
            "ratio_spread": max(vals) / min(vals),
            "max_rel_change": max(changes),
            "spread_ok": bool(max(vals) / min(vals) <= 10.0),
            "doubling_ok": bool(max(changes) <= 0.02),
        }
    return {"summary": summary}


@_study(
    "oscillatory",
    "oscillatory_report.json",
    {"oscillatory.b_values": (8.0, 16.0, 32.0, 64.0, 128.0)},
    grid=_DESK_GRID,
)
def _oscillatory(ctx: _Context) -> dict:
    b_values = ctx.cfg["oscillatory.b_values"]
    if min(b_values) < 4.0:
        raise ConfigError(f"oscillatory.b_values must all be >= 4, got {b_values}")
    if any(a >= b for a, b in zip(b_values, b_values[1:])):  # the gates read the first and last B
        raise ConfigError(f"oscillatory.b_values must increase strictly, got {b_values}")
    results = _map(two_pi_identity, b_values, ctx.args.threads)
    ctx.csv("two_pi.csv", ["parameter", "value_re", "value_im", "error"],
            [[r.parameter, r.value.real, r.value.imag, r.error] for r in results])

    self_tests = [gaussian_two_pi_selftest(b) for b in (8.0, 16.0)]
    separated, resonant = (nonresonant_decay_study(region, ctx.coeff.alpha2) for region in ("separated", "resonant"))
    for name, study in (("separated", separated), ("resonant", resonant)):
        ctx.csv(f"{name}.csv", ["t", "max_abs_i"], study["series"])  # the largest |I(t; xi)| over the sampled xi

    weighted = [r.error * math.sqrt(r.parameter) for r in results]
    return {
        "two_pi": {
            "b_values": [r.parameter for r in results],
            "errors": [r.error for r in results],
            "error_times_sqrt_b": weighted,
            "weighted_bounded_ok": bool(max(weighted) <= max(weighted[0], 1e-3)),
            "final_error_ok": bool(results[-1].error < 1e-3),
        },
        "gaussian_selftest": [
            {"B": r.parameter, "error": r.error, "ok": bool(r.error <= 1e-8)} for r in self_tests
        ],
        "contrast": {
            "separated_slope": separated["slope"],
            "separated_stderr": separated["stderr"],
            "resonant_slope": resonant["slope"],
            "resonant_stderr": resonant["stderr"],
            "separated_ok": bool(separated["slope"] <= -0.9),
            "resonant_ok": bool(resonant["slope"] >= -0.7),
        },
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

STUDIES = tuple(_STUDIES)


def _key_parsers() -> dict:
    """Each config key's parser, by the type of its default (floats finite), the same in every study."""
    parsers = {"study.kind": str, **_INTEGRATOR_KEYS}
    for study in _STUDIES.values():
        for key, default in study.defaults.items():
            parser = {tuple: _float_list, float: _finite_float}.get(type(default), type(default))
            if parsers.setdefault(key, parser) is not parser:
                raise TypeError(f"config key {key!r} has defaults of different types")
    return parsers


_KEY_PARSERS = _key_parsers()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmkdv",
        description="Pseudo-spectral studies of the quasilinear modified KdV equation.",
    )
    sub = parser.add_subparsers(dest="study", required=True)
    for name in STUDIES:
        p = sub.add_parser(name, help=f"run the {name} study")
        p.add_argument("--config", required=True, help="flat key=value configuration file")
        p.add_argument("--out", default=None, help="output directory (default: qmkdv_out/<study>)")
        p.add_argument("--seed", type=int, default=1, help="64-bit seed for randomized suites")
        p.add_argument("--threads", type=int, default=1, help="worker threads for sweeps")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"argument --threads: must be >= 1, got {args.threads}")  # a usage error: exit 2
    if not 0 <= args.seed < 2**64:  # SplitMix64 would take it mod 2^64
        parser.error(f"argument --seed: must be in [0, 2^64), got {args.seed}")
    try:
        cfg = parse_config(args.config)
        kind = cfg.get("study.kind")
        if kind is not None and kind != args.study:
            raise ConfigError(f"config is for study {kind!r}, invoked as {args.study!r}")
        outdir = Path(args.out) if args.out else Path("qmkdv_out") / args.study
        return _run_study(_STUDIES[args.study], args, cfg, outdir)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except CheckFailure as e:
        print(f"check failure: {e}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError, ArithmeticError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
