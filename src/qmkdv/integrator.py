"""Adaptive integrating-factor time stepping for the quasilinear flow.

The profile formulation removes the stiff linear part exactly: writing
phihat_t = i xi^3 phihat + G(phi) with G = -F[N(phi)], a Lawson(4) step
applies classical RK4 to the integrating-factor variable, which reduces to
per-step multipliers exp(i xi^3 dt) and exp(i xi^3 dt/2) — no global phase
ever enters, so the scheme is exact for the free flow regardless of horizon
(Lawson 1967).  Step size is controlled by step doubling: one full step is
compared against two half steps in L^2, the pair is kept when the defect is
below eps_tol * ||phi||_{L2}, and dt follows the standard fourth-order
controller with growth clamps.

Reality and zero mean of the field are re-enforced after every accepted
step; both are exact invariants of the equation, so this only removes
round-off dust.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CoefficientSpec, hamiltonian, mass, nonlinearity_full
from .spectral_core import (
    GridSpec,
    SpectralField,
    _multipliers,
    enforce_real_zero_mean,
    norm,
    synthesize,
    transform,
)

__all__ = [
    "StepUnderflow",
    "InitialSpec",
    "SimConfig",
    "SimState",
    "initial_field",
    "lawson_step",
    "step",
    "fixed_step_run",
    "run",
]

DT_FLOOR = 1e-12


class StepUnderflow(RuntimeError):
    """dt fell below the floor — blow-up or under-resolution."""


@dataclass(frozen=True)
class InitialSpec:
    """Initial data: a modulated Gaussian or a snapshot file."""

    kind: str = "gaussian"
    amplitude: float = 0.01
    width: float = 1.0
    modulation: float = 0.0
    path: str | None = None


@dataclass(frozen=True)
class SimConfig:
    grid: GridSpec
    coeff: CoefficientSpec
    initial: InitialSpec
    t_end: float
    eps_tol: float = 1e-9
    dt_init: float | None = None
    monitor_times: tuple = ()
    linear_only: bool = False
    pad: int = 3

    def __post_init__(self):
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        if not 1e-12 <= self.eps_tol <= 1e-4:
            raise ValueError("eps_tol must lie in [1e-12, 1e-4]")


@dataclass
class SimState:
    phi: SpectralField
    dt: float
    steps: int = 0
    rejected: int = 0


def initial_field(cfg: SimConfig) -> SpectralField:
    """Build the initial field (real, projected to zero mean)."""
    init = cfg.initial
    if init.kind == "gaussian":
        x = cfg.grid.x
        u = init.amplitude * np.exp(-((x / init.width) ** 2))
        if init.modulation != 0.0:
            u = u * np.cos(init.modulation * x)
        f = transform(cfg.grid, u, time=0.0)
    elif init.kind == "snapshot":
        from .spectral_core import load_snapshot

        f, coeff_id = load_snapshot(init.path)
        if f.grid != cfg.grid:
            raise ValueError("snapshot grid does not match configured grid")
        if coeff_id != cfg.coeff.identifier():
            raise ValueError(
                f"snapshot coefficients {coeff_id!r} do not match configured {cfg.coeff.identifier()!r}"
            )
    else:
        raise ValueError(f"unknown initial-data kind {init.kind!r}")
    return enforce_real_zero_mean(f)


def default_dt_init(phi0: SpectralField, spec: CoefficientSpec) -> float:
    """Parabolic-style guard for the first step; the controller takes over."""
    u = np.real(synthesize(phi0))
    cmax = float(np.max(np.abs(spec.c_of(u)))) if u.size else 0.0
    return 0.5 * phi0.grid.dx**2 / max(1.0, cmax**2)


def _rhs(phi: SpectralField, spec: CoefficientSpec, linear_only: bool, pad: int) -> np.ndarray:
    if linear_only:
        return np.zeros_like(phi.coeffs)
    return -nonlinearity_full(phi, spec, pad).coeffs


def lawson_step(
    phi: SpectralField,
    spec: CoefficientSpec,
    dt: float,
    linear_only: bool = False,
    pad: int = 3,
) -> SpectralField:
    """One integrating-factor RK4 step of length dt."""
    lam = _multipliers(phi.grid.n, phi.grid.box_length, pad)[2]
    e_full = np.exp(lam * dt)
    e_half = np.exp(lam * (0.5 * dt))
    y = phi.coeffs
    t = phi.time

    def G(coeffs, time):
        return _rhs(phi.with_coeffs(coeffs, time=time), spec, linear_only, pad)

    a = G(y, t)
    b = G(e_half * (y + 0.5 * dt * a), t + 0.5 * dt)
    c = G(e_half * y + 0.5 * dt * b, t + 0.5 * dt)
    d = G(e_full * y + dt * e_half * c, t + dt)
    out = e_full * y + (dt / 6.0) * (e_full * a + 2.0 * e_half * (b + c) + d)
    return phi.with_coeffs(out, time=t + dt)


def step(state: SimState, cfg: SimConfig, dt_cap: float | None = None) -> SimState:
    """Advance by one accepted step-doubling-controlled step.

    The accepted solution is the two-half-step one; the full step serves as
    the error gauge.  dt_cap (when given) clamps the attempted length, e.g.
    to land exactly on a monitor time.
    """
    phi = state.phi
    dt = state.dt
    rejected = state.rejected
    base = norm(phi, "L2")
    while True:
        capped = dt_cap is not None and dt_cap < dt
        dt_try = dt_cap if capped else dt
        if dt_try < DT_FLOOR:
            raise StepUnderflow(f"dt={dt_try:.3e} below {DT_FLOOR} at t={phi.time}")
        full = lawson_step(phi, cfg.coeff, dt_try, cfg.linear_only, cfg.pad)
        half = lawson_step(phi, cfg.coeff, 0.5 * dt_try, cfg.linear_only, cfg.pad)
        pair = lawson_step(half, cfg.coeff, 0.5 * dt_try, cfg.linear_only, cfg.pad)
        err = norm(pair.with_coeffs(pair.coeffs - full.coeffs), "L2")
        tol = cfg.eps_tol * base
        if not np.isfinite(err):
            # overflow inside the trial step: reject hard (nan would otherwise
            # poison the controller and loop forever)
            factor = 0.2
            err = np.inf
        elif err == 0.0:
            factor = 5.0
        else:
            factor = float(np.clip(0.9 * (tol / err) ** 0.2, 0.2, 5.0))
        if err <= tol:
            next_dt = dt_try * factor
            if capped:
                # a cap-shortened step must not erode the controller's length
                next_dt = max(next_dt, dt)
            return SimState(
                phi=enforce_real_zero_mean(pair),
                dt=next_dt,
                steps=state.steps + 1,
                rejected=rejected,
            )
        rejected += 1
        dt = dt_try * factor


def fixed_step_run(
    phi0: SpectralField,
    spec: CoefficientSpec,
    dt: float,
    n_steps: int,
    linear_only: bool = False,
    pad: int = 3,
) -> SpectralField:
    """n_steps equal Lawson steps without error control (order studies)."""
    phi = phi0
    for _ in range(n_steps):
        phi = enforce_real_zero_mean(lawson_step(phi, spec, dt, linear_only, pad))
    return phi


def monitor_record(phi: SpectralField, spec: CoefficientSpec, pad: int = 3) -> dict:
    return {
        "t": phi.time,
        "mass": mass(phi),
        "l2": norm(phi, "L2"),
        "hamiltonian": hamiltonian(phi, spec, pad),
    }


def run(cfg: SimConfig, observer=None) -> tuple[SimState, list[dict]]:
    """Integrate to t_end, emitting a monitor record at each monitor time.

    `observer(phi, record)`, when given, is called at every monitor time and
    may extend the record dict in place (diagnostics, snapshot writing).
    The run starts at the initial field's time t0 (0, or a snapshot's time).
    Records are also emitted at t0 and t_end; monitor times outside
    (t0, t_end] are ignored.
    """
    phi0 = initial_field(cfg)
    if not phi0.time < cfg.t_end:
        raise ValueError(f"initial time {phi0.time} is not before t_end {cfg.t_end}")
    dt0 = cfg.dt_init if cfg.dt_init is not None else default_dt_init(phi0, cfg.coeff)
    state = SimState(phi=phi0, dt=max(dt0, DT_FLOOR))
    stops = sorted({float(t) for t in cfg.monitor_times if phi0.time < t <= cfg.t_end} | {cfg.t_end})

    records = []

    def emit(phi):
        rec = monitor_record(phi, cfg.coeff, cfg.pad)
        if observer is not None:
            observer(phi, rec)
        records.append(rec)

    emit(state.phi)
    for stop in stops:
        while state.phi.time < stop - 1e-12 * max(1.0, stop):
            state = step(state, cfg, dt_cap=stop - state.phi.time)
        # land exactly on the stop to keep monitor timestamps clean
        state.phi = state.phi.with_coeffs(state.phi.coeffs, time=stop)
        emit(state.phi)
    return state, records
