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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from . import littlewood_paley as lp
from .diagnostics import (
    VARIANTS,
    decay_fit,
    dispersive_ratio,
    energy,
    frequency_window,
    ScatteringProbe,
    scattering_monitor,
    sharp_decay_product,
    theta_accumulate,
    theta_coefficient,
)
from .integrator import InitialSpec, SimConfig, run
from .model import (
    BootstrapConstants,
    CoefficientSpec,
    dyadic_symbol_bound,
    grad_phase_phi,
    phase_phi,
    resonance_points,
    symbol_t1,
    symbol_t2,
)
from .oscillatory import (
    gaussian_two_pi_selftest,
    local_phase_residual,
    nonresonant_decay_study,
    resonant_drift_measurement,
    stationary_phase_drift,
    two_pi_identity,
)
from .rng import SplitMix64
from .spectral_core import (
    GridSpec,
    derivative,
    free_evolve,
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

def _float_list(text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as e:
        raise ConfigError(f"expected comma-separated floats, got {text!r}") from e


def parse_config(path: str) -> dict:
    """Flat key = value configuration; unknown or duplicate keys are errors."""
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
    return out


def _metadata(grid: GridSpec, coeff: CoefficientSpec, bc: BootstrapConstants, seed: int) -> dict:
    return {
        "artifact_version": __version__,
        "seed": int(seed),
        "grid_n": int(grid.n),
        "grid_box_length": float(grid.box_length),
        "coeff_family": coeff.family,
        "coeff_a": float(coeff.a),
        "coeff_b": float(coeff.b),
        "coeff_c": float(coeff.c),
        "delta": float(bc.delta),
        "p0": float(bc.p0),
        "p1": float(bc.p1),
        "gamma_l": float(bc.gamma_l),
        "gamma_h": float(bc.gamma_h),
        "s": float(bc.s),
        "decay_exponent": float(bc.decay_exponent),
    }


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


def _uniform_array(rng: SplitMix64, count: int, lo: float, hi: float) -> np.ndarray:
    return np.array([rng.uniform(lo, hi) for _ in range(count)])


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
    bc: BootstrapConstants
    meta: dict

    def csv(self, name: str, header: list, rows: list) -> None:
        write_csv(self.outdir / name, self.meta, header, rows)

    def sim(self, monitor_times: tuple, pad: int = 3) -> SimConfig:
        """The integrator run the config describes, ending at ``run.t_end``."""
        cfg = self.cfg
        if "initial.snapshot" in cfg:
            initial = InitialSpec(kind="snapshot", path=cfg["initial.snapshot"])
        else:
            initial = InitialSpec(
                amplitude=cfg["initial.amplitude"],
                width=cfg["initial.width"],
                modulation=cfg["initial.modulation"],
            )
        try:
            return SimConfig(
                grid=self.grid,
                coeff=self.coeff,
                initial=initial,
                t_end=cfg["run.t_end"],
                eps_tol=cfg["run.eps_tol"],
                dt_init=cfg.get("run.dt_init"),
                monitor_times=monitor_times,
                linear_only=self.args.linear_only,
                pad=pad,
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

_COMMON_DEFAULTS = {
    "coeff.family": "cubic_poly",
    "coeff.a": 1.0,
    "coeff.b": 1.0,
    "coeff.c": 0.0,
    "constants.delta": 1e-3,
    "constants.p1": 1e-3,
    "constants.gamma_l": 0.0,
    "constants.gamma_h": 2.5,
    "constants.s": 12.0,
    "constants.decay_exponent": 0.48,
}

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
    """Build the shared objects, run the body, write its report, gate the exit code."""
    cfg = {**study.defaults, **cfg}
    try:
        n, box = study.grid or (cfg["grid.n"], cfg["grid.box_length"])
        grid = GridSpec(n=n, box_length=box)
        coeff = CoefficientSpec(
            family=cfg["coeff.family"], a=cfg["coeff.a"], b=cfg["coeff.b"], c=cfg["coeff.c"]
        )
        delta = cfg["constants.delta"]
        bc = BootstrapConstants(
            delta=delta,
            p0=delta / 10.0,
            p1=cfg["constants.p1"],
            gamma_l=cfg["constants.gamma_l"],
            gamma_h=cfg["constants.gamma_h"],
            s=cfg["constants.s"],
            decay_exponent=cfg["constants.decay_exponent"],
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e
    ctx = _Context(args, cfg, outdir, grid, coeff, bc, _metadata(grid, coeff, bc, args.seed))
    entries = study.body(ctx)  # may add to ctx.meta
    report = {"study": args.study, "metadata": ctx.meta, **entries}
    write_json(outdir / study.report, report)
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
    {"identities.samples": 10000, "fault.bump_stretch": 1.0},
    grid=(512, 60.0),
)
def _identities(ctx: _Context) -> dict:
    samples = ctx.cfg["identities.samples"]
    stretch = ctx.cfg["fault.bump_stretch"]
    alpha2 = ctx.coeff.alpha2
    rng = SplitMix64(ctx.args.seed)
    checks = []

    def record(name: str, max_error: float, tolerance: float):
        checks.append({"name": name, "max_error": float(max_error), "tolerance": float(tolerance),
                       "passed": bool(max_error <= tolerance)})

    # cubic phase: factored product form against the expanded cubic differences
    xi = _uniform_array(rng, samples, -20.0, 20.0)
    e1 = _uniform_array(rng, samples, -20.0, 20.0)
    e2 = _uniform_array(rng, samples, -20.0, 20.0)
    e3 = xi - e1 - e2
    expanded = xi**3 - e3**3 - e1**3 - e2**3
    scale = np.maximum(1.0, np.abs(xi) ** 3 + np.abs(e1) ** 3 + np.abs(e2) ** 3 + np.abs(e3) ** 3)
    record("phase_factorization", np.max(np.abs(phase_phi(xi, e1, e2) - expanded) / scale), 1e-12)

    # six-fold argument symmetry of the cubic symbol, bitwise
    base = symbol_t1(e1, e2, e3, alpha2)
    sym_err = 0.0
    for p in ((e1, e3, e2), (e2, e1, e3), (e2, e3, e1), (e3, e1, e2), (e3, e2, e1)):
        sym_err = max(sym_err, float(np.max(np.abs(symbol_t1(*p, alpha2) - base))))
    record("t1_symmetry", sym_err, 0.0)

    # reduced form on the convolution surface eta1+eta2+eta3 = xi
    xr = _uniform_array(rng, samples, -10.0, 10.0)
    a1 = _uniform_array(rng, samples, -10.0, 10.0)
    a2 = _uniform_array(rng, samples, -10.0, 10.0)
    a3 = xr - a1 - a2
    reduced = (alpha2 / 6.0) * ((a1**2 + a2**2 + a3**2) + xr**2) - 1.0
    rel = np.abs(symbol_t1(a1, a2, a3, alpha2) - reduced) / np.maximum(1.0, np.abs(reduced))
    record("t1_reduced_form", np.max(rel), 1e-12)

    # gradient zeros and phase values at the four stationary points
    grad_err = 0.0
    phase_err = 0.0
    for _ in range(500):
        x = rng.uniform(0.05, 8.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
        rs = resonance_points(x)
        for (p1, p2) in rs.points:
            g1, g2 = grad_phase_phi(x, p1, p2)
            grad_err = max(grad_err, max(abs(g1), abs(g2)) / max(1.0, x * x))
        for (p1, p2) in rs.space_time:
            phase_err = max(phase_err, abs(phase_phi(x, p1, p2)) / max(1.0, abs(x) ** 3))
        q1, q2 = rs.space_only
        phase_err = max(phase_err, abs(phase_phi(x, q1, q2) - 8.0 * x**3 / 9.0) / max(1.0, abs(x) ** 3))
    record("resonance_gradients", grad_err, 1e-12)
    record("resonance_phase_values", phase_err, 1e-12)

    # exactness of the local quadratic-plus-cubic factorization of the phase
    res_err = 0.0
    for _ in range(2000):
        x = rng.uniform(-5.0, 5.0)
        z1 = rng.uniform(-5.0, 5.0)
        z2 = rng.uniform(-5.0, 5.0)
        denom = max(1.0, abs(x) ** 3, abs(z1) ** 3, abs(z2) ** 3)
        res_err = max(res_err, abs(local_phase_residual(x, z1, z2)) / denom)
        res_err = max(res_err, abs(local_phase_residual(x, z1, 0.0)))
    record("local_phase_residual", res_err, 1e-12)

    # quadrilinear symbol spot values
    spots = [
        ((1.0, 1.0, 1.0, 0.0), -5.0),
        ((1.0, 0.0, 0.0, 0.0), -2.0),
        ((0.0, 3.0, -2.0, 1.0), 0.0),
        ((2.0, 1.0, -1.0, 5.0), -10.0),
    ]
    t2_err = max(abs(symbol_t2(*pt) - want) for pt, want in spots)
    record("t2_spot_values", t2_err, 1e-12)

    # dyadic partition of unity (the fault-injection hook enters here)
    def psi(u):
        return lp.bump(stretch * np.asarray(u))

    k_top = 8
    xs = np.linspace(-(2.0**k_top), 2.0**k_top, 4001)
    total = lp.psi_le(xs, 0, psi=psi)
    for k in range(1, k_top + 1):
        total = total + lp.psi_k(xs, k, psi=psi)
    record("lp_partition", np.max(np.abs(total - 1.0)), 1e-12)

    # scaling-field commutators on a localized test field
    g = ctx.grid
    u = np.exp(-(g.x**2))
    f = transform(g, u)

    def s_apply(field):
        return transform(g, g.x * np.real(synthesize(derivative(field, 1))))

    lhs1 = s_apply(derivative(f, 1)).coeffs - derivative(s_apply(f), 1).coeffs
    rhs1 = -derivative(f, 1).coeffs
    c1 = norm(f.with_coeffs(lhs1 - rhs1), "L2") / norm(f.with_coeffs(rhs1), "L2")

    lhs3 = s_apply(derivative(f, 3)).coeffs - derivative(s_apply(f), 3).coeffs
    rhs3 = -3.0 * derivative(f, 3).coeffs
    c3 = norm(f.with_coeffs(lhs3 - rhs3), "L2") / norm(f.with_coeffs(rhs3), "L2")

    ux = np.real(synthesize(derivative(f, 1)))
    s_vals = g.x * ux
    term1 = derivative(transform(g, 3.0 * u**2 * s_vals), 1)
    cube_xx = np.real(synthesize(derivative(transform(g, u**3), 2)))
    lhs_c = np.real(synthesize(term1)) - g.x * cube_xx
    rhs_c = 3.0 * u**2 * ux
    cc = float(np.sqrt(np.sum(np.abs(lhs_c - rhs_c) ** 2)) / np.sqrt(np.sum(np.abs(rhs_c) ** 2)))
    record("commutator_s_dx", c1, 1e-8)
    record("commutator_s_dx3", c3, 1e-8)
    record("commutator_cubic", cc, 1e-8)

    checks.sort(key=lambda c: c["name"])
    return {
        "samples": int(samples),
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


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
    save_snapshot(ctx.outdir / "final_state.bin", state.phi, ctx.coeff.identifier())

    m0, l0, h0 = records[0]["mass"], records[0]["l2"], records[0]["hamiltonian"]
    return {
        "steps": state.steps,
        "rejected_steps": state.rejected,
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
        "decay.linear_box": 12000.0,
        "decay.linear_width": 1.5,
    },
    gated=False,
)
def _decay(ctx: _Context) -> dict:
    cfg, bc = ctx.cfg, ctx.bc
    t_min, t_max = cfg["decay.t_min"], cfg["decay.t_max"]

    # Free Airy evolution of a fixed Gaussian on its own wide box (exact
    # propagator, no stepping).  The plain sup norm decays at t^{-1/3}; for
    # one derivative the sup is weighted by (1+|x|/t^{1/3})^{-1/4}, which
    # cancels the |x|^{1/4} growth of the stationary-phase tail so that the
    # weighted sup decays at the interior rate t^{-2/3}.
    lin_grid = GridSpec(cfg["decay.linear_n"], cfg["decay.linear_box"])
    h = transform(lin_grid, np.exp(-((lin_grid.x / cfg["decay.linear_width"]) ** 2)))
    times = np.exp(np.linspace(math.log(t_min), math.log(t_max), cfg["decay.samples"]))
    rows = []
    for t in map(float, times):
        phi_t = free_evolve(h, t)
        dx_vals = np.abs(synthesize(derivative(phi_t, 1)))
        weight = (1.0 + np.abs(lin_grid.x) * t ** (-1.0 / 3.0)) ** (-0.25)
        rows.append([t, norm(phi_t, "Linf"), float(np.max(dx_vals * weight)),
                     dispersive_ratio(h, t, 0.0), dispersive_ratio(h, t, 1.0)])
    ctx.csv("linear_decay.csv", ["t", "linf", "weighted_linf_dx", "ratio_beta0", "ratio_beta1"], rows)
    slope0, err0 = decay_fit([(r[0], r[1]) for r in rows], (t_min, t_max))
    slope1, err1 = decay_fit([(r[0], r[2]) for r in rows], (t_min, t_max))
    r0 = [r[3] for r in rows]
    r1 = [r[4] for r in rows]
    report = {
        "linear": {
            "linf_slope": slope0,
            "linf_slope_stderr": err0,
            "weighted_linf_dx_slope": slope1,
            "weighted_linf_dx_slope_stderr": err1,
            "ratio_beta0_spread": max(r0) / min(r0),
            "ratio_beta1_spread": max(r1) / min(r1),
            "linf_slope_ok": bool(abs(slope0 + 1.0 / 3.0) <= 0.03),
            "weighted_linf_dx_slope_ok": bool(abs(slope1 + 2.0 / 3.0) <= 0.05),
            "ratios_ok": bool(max(r0) / min(r0) <= 2.0 and max(r1) / min(r1) <= 2.0),
        },
    }
    if ctx.args.linear_only:
        return report

    t_end = cfg["run.t_end"]
    sim = ctx.sim(tuple(float(t) for t in np.exp(np.linspace(0.0, math.log(t_end), 40))))

    def observer(phi, rec):
        rec["linf_dx"] = norm(derivative(phi, 1), "Linf")
        rec["linf_dxx"] = norm(derivative(phi, 2), "Linf")
        rec["sharp_product"] = sharp_decay_product(phi)
        eb = energy(phi, phi.time, ctx.coeff, bc)
        rec["z_norm"] = eb.z_norm
        rec["energy_total"] = eb.total
        rec["h_mass_fraction"] = eb.h_mass_fraction

    state, records = run(sim, observer=observer)
    header = ["t", "mass", "l2", "hamiltonian", "linf_dx", "linf_dxx", "sharp_product", "z_norm",
              "energy_total", "h_mass_fraction"]
    ctx.csv("decay_monitor.csv", header, [[r[k] for k in header] for r in records])

    def slope(key):
        return decay_fit([(r["t"], r[key]) for r in records if r["t"] > 0], (cfg["decay.fit_t_min"], t_end))

    sdx, sdx_err = slope("linf_dx")
    sdxx, sdxx_err = slope("linf_dxx")
    sprod, sprod_err = slope("sharp_product")
    e_ratio = [r["energy_total"] * (1.0 + r["t"]) ** (-2.0 * bc.p0) for r in records]
    z_vals = [r["z_norm"] for r in records]
    report["nonlinear"] = {
        "steps": state.steps,
        "rejected_steps": state.rejected,
        "linf_dx_slope": sdx,
        "linf_dx_slope_stderr": sdx_err,
        "linf_dxx_slope": sdxx,
        "linf_dxx_slope_stderr": sdxx_err,
        "sharp_product_slope": sprod,
        "sharp_product_slope_stderr": sprod_err,
        "energy_ratio_max": max(e_ratio) / e_ratio[0],
        "energy_ratio_min": min(e_ratio) / e_ratio[0],
        "z_ratio_max": max(z_vals) / z_vals[0],
        "z_ratio_min": min(z_vals) / z_vals[0],
        "h_mass_fraction_min": min(r["h_mass_fraction"] for r in records),
        "linf_dx_slope_ok": bool(abs(sdx + 0.5) <= 0.07),
        "linf_dxx_slope_ok": bool(abs(sdxx + 0.5) <= 0.07),
        "sharp_product_slope_ok": bool(abs(sprod + 1.0) <= 0.15),
        "bounded_ok": bool(
            max(e_ratio) / e_ratio[0] <= 4.0
            and min(e_ratio) / e_ratio[0] >= 0.25
            and max(z_vals) / z_vals[0] <= 4.0
            and min(z_vals) / z_vals[0] >= 0.25
        ),
    }
    return report


# Ungated until its variant match is settled (no variant matches at the
# defaults, see ROADMAP direction 5).
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
        probe = ScatteringProbe.from_grid(grid, cfg["scattering.target_frequencies"], coeff.alpha2)
    except ValueError as e:
        raise ConfigError(str(e)) from e

    dyadics = {float(2**k) for k in range(int(math.log2(t_end)) + 1) if 2**k <= t_end}
    geom = {
        float(t)
        for t in np.exp(np.linspace(0.0, math.log(t_end), cfg["scattering.samples"]))[1:-1]
    }
    # for the purely cubic linear-family nonlinearity a padding factor of 2
    # already dealiases the products exactly
    sim = ctx.sim(tuple(sorted(dyadics | geom | {1.0, float(t_end)})), pad=2 if coeff.family == "linear" else 3)

    def observer(phi, rec):
        t = phi.time
        if t < 1.0:
            return
        hhat = profile_from_solution(phi, t).coeffs[probe.indices]
        if not probe.times:
            probe.first_sample(hhat, t)
        else:
            theta_accumulate(probe, hhat, probe.times[-1], t)

    run(sim, observer=observer)

    header = ["t"]
    for i in range(len(probe.frequencies)):
        header += [f"abs_h_{i}", f"arg_h_{i}", f"theta_a_{i}", f"theta_b_{i}"]
    rows = []
    for m, t in enumerate(probe.times):
        row = [t]
        for i, hh in enumerate(probe.h_history[m]):
            row += [abs(hh), float(np.angle(hh)), probe.theta["A"][m][i], probe.theta["B"][m][i]]
        rows.append(row)
    ctx.csv("theta.csv", header, rows)

    reports = scattering_monitor(probe, fit_t_min=fit_t_min)
    matched = [v for v in VARIANTS if all(r["matched"] for r in reports if r["variant"] == v)]
    frequencies = [float(x) for x in probe.frequencies]
    drift_rows = resonant_drift_measurement(
        frequencies,
        grid,
        alpha2=coeff.alpha2,
        amplitude=cfg["initial.amplitude"],
        width=cfg["initial.width"],
    )
    window_floor = min(
        float(np.min(frequency_window(t, probe.frequencies, ctx.bc))) for t in (fit_t_min, t_end)
    )
    return {
        "probe_frequencies": frequencies,
        "window_floor": window_floor,
        "per_variant": reports,
        "matched_variant": matched[0] if len(matched) == 1 else "none",
        "variant_coefficients": {
            v: [theta_coefficient(x, coeff.alpha2, v) for x in frequencies] for v in VARIANTS
        },
        "frozen_profile_drift": drift_rows,
        "stationary_phase_drift": [stationary_phase_drift(x, coeff.alpha2) for x in frequencies],
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
    if j_min > j_max:
        raise ConfigError("resonance.j_min must be <= resonance.j_max")
    tasks = [(which, j) for which in ("T1", "dT1") for j in range(j_min, j_max + 1)]

    def evaluate(task):
        which, j = task
        rep = dyadic_symbol_bound(j, j, j, ctx.coeff.alpha2, which=which, n_axis=n_axis, refine=True)
        return [which, j, rep["ratio"], rep["refined_ratio"], rep["rel_change"]]

    rows = _map(evaluate, tasks, ctx.args.threads)
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
    {
        "oscillatory.b_values": (8.0, 16.0, 32.0, 64.0, 128.0),
        "oscillatory.t_min": 3.0,
        "oscillatory.t_max": 96.0,
        "oscillatory.samples": 45,
    },
    grid=_DESK_GRID,
)
def _oscillatory(ctx: _Context) -> dict:
    t_min, t_max = ctx.cfg["oscillatory.t_min"], ctx.cfg["oscillatory.t_max"]
    alpha2 = ctx.coeff.alpha2
    results = _map(two_pi_identity, ctx.cfg["oscillatory.b_values"], ctx.args.threads)
    columns = ["parameter", "value_re", "value_im", "error"]
    ctx.csv("two_pi.csv", columns, [[r.parameter, r.value.real, r.value.imag, r.error] for r in results])

    self_tests = [gaussian_two_pi_selftest(b) for b in (8.0, 16.0)]

    def t_grid(lo, hi):
        return [float(t) for t in np.exp(np.linspace(math.log(lo), math.log(hi), ctx.cfg["oscillatory.samples"]))]

    separated = nonresonant_decay_study(t_grid(t_min, t_max), region="separated", alpha2=alpha2)
    resonant = nonresonant_decay_study(t_grid(t_min, 3.0 * t_max), region="resonant", alpha2=alpha2)
    for name, study in (("separated", separated), ("resonant", resonant)):
        ctx.csv(f"{name}.csv", columns, [[t, v, 0.0, 0.0] for t, v in study["series"]])

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
    """Each config key's parser: the type of its default, the same in every study."""
    parsers = {"study.kind": str, "initial.snapshot": str, "run.dt_init": float}
    for study in _STUDIES.values():
        for key, default in study.defaults.items():
            parser = _float_list if isinstance(default, tuple) else type(default)
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
        p.add_argument("--linear-only", action="store_true", help="disable the nonlinearity")
        p.add_argument("--threads", type=int, default=1, help="worker threads for sweeps")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        kind = cfg.get("study.kind")
        if kind is not None and kind != args.study:
            raise ConfigError(f"config is for study {kind!r}, invoked as {args.study!r}")
        outdir = Path(args.out) if args.out else Path("qmkdv_out") / args.study
        outdir.mkdir(parents=True, exist_ok=True)
        return _run_study(_STUDIES[args.study], args, cfg, outdir)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except CheckFailure as e:
        print(f"check failure: {e}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
