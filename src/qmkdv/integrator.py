"""Adaptive integrating-factor time stepping for the quasilinear flow.

The profile formulation removes the stiff linear part exactly: writing
phihat_t = i xi^3 phihat + G(phi) with G = -F[N(phi)], a Lawson(4) step
applies classical RK4 to the integrating-factor variable, which reduces to
per-step multipliers exp(i xi^3 dt) and exp(i xi^3 dt/2) — no global phase
ever enters, so the scheme is exact for the free flow regardless of horizon
(Lawson 1967).  Step size is controlled by step doubling: one full step is
compared against two half steps in L^2, the pair is kept when the defect is
below eps_tol * ||phi||_{L2}, and dt follows the standard fourth-order
controller with growth clamps.  An attempt makes three Lawson steps (the
full step and two half steps, which share its three exponentials) of four
N(phi) evaluations each; a step forms its stages in place in one scratch
array, bitwise the single-expression form of the scheme.

The state holds only the coefficients of a real field (see `spectral_core`),
so a step needs no projection back onto real, zero-mean fields: both are
properties of the representation and of N(phi)'s divergence form.

The datum is given: `SimConfig.initial` is the initial field, whose grid and
time are the run's, built by the caller (`gaussian_datum`, or a snapshot).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CoefficientSpec, hamiltonian, mass, nonlinearity_full
from .spectral_core import (
    GridSpec,
    SpectralField,
    airy_factor,
    norm,
    synthesize,
    transform,
)

__all__ = [
    "StepUnderflow",
    "SimConfig",
    "SimState",
    "gaussian_datum",
    "default_dt_init",
    "lawson_step",
    "step",
    "monitor_record",
    "distinct_times",
    "run",
]

DT_FLOOR = 1e-12
# planned times closer than this, relative, differ only by rounding
TIME_MERGE = 1e-9


class StepUnderflow(RuntimeError):
    """dt fell below the floor — blow-up or under-resolution."""


@dataclass(frozen=True)
class SimConfig:
    """An integrator run: from the field `initial`, on its grid and at its time, to `t_end`."""

    coeff: CoefficientSpec
    initial: SpectralField
    t_end: float
    eps_tol: float = 1e-9
    monitor_times: tuple = ()

    def __post_init__(self):
        if not (np.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError(f"t_end must be finite and positive, got {self.t_end}")
        if not self.initial.time < self.t_end:
            raise ValueError(f"initial time {self.initial.time} is not before t_end {self.t_end}")
        if not 1e-12 <= self.eps_tol <= 1e-4:
            raise ValueError("eps_tol must lie in [1e-12, 1e-4]")


@dataclass
class SimState:
    phi: SpectralField
    dt: float
    steps: int = 0
    rejected: int = 0

    @property
    def rhs_evals(self) -> int:
        """N(phi) evaluations, rejected attempts included: 12 per attempt."""
        return 12 * (self.steps + self.rejected)


def gaussian_datum(grid: GridSpec, amplitude: float, width: float, modulation: float = 0.0) -> SpectralField:
    """amplitude * exp(-(x/width)^2) * cos(modulation * x) at time 0, its zero
    mode set to 0 (zero mean)."""
    x = grid.x
    u = amplitude * np.exp(-((x / width) ** 2))
    if modulation != 0.0:
        u = u * np.cos(modulation * x)
    f = transform(grid, u, time=0.0)
    f.coeffs[0] = 0.0
    return f


def default_dt_init(phi0: SpectralField, spec: CoefficientSpec) -> float:
    """Parabolic-style guard for the first step; the controller takes over."""
    u = synthesize(phi0)
    cmax = float(np.max(np.abs(spec.c_of(u))))
    return 0.5 * phi0.grid.dx**2 / max(1.0, cmax**2)


def lawson_step(
    phi: SpectralField,
    spec: CoefficientSpec,
    dt: float,
    factors: tuple[np.ndarray, np.ndarray] | None = None,
) -> SpectralField:
    """One integrating-factor RK4 step of length dt.

    `factors`, when given, are exp(i xi^3 dt) and exp(i xi^3 dt/2) as the
    step would compute them; a caller that holds them saves the exponentials.

    With E = e_full, e = e_half and h = dt/2 the step is

        a = G(y),  b = G(e (y + h a)),  c = G(e y + h b),  d = G(E y + (dt e) c),
        y' = E y + (dt/6) (E a + (2 e) (b + c) + d),

    where G, the stage closure, calls `nonlinearity_full` by this module's
    name (looked up at each call) on the stage's field and negates N's fresh
    spectrum in place.  The step is formed in one scratch array for the stage
    inputs, with E y computed once and the stage outputs a and b as
    accumulators.  Every product keeps the operand order of this formula:
    numpy's complex product is not bitwise commutative.
    """
    e_full, e_half = factors or (airy_factor(phi.grid, dt), airy_factor(phi.grid, 0.5 * dt))
    y = phi.coeffs
    t = phi.time
    h = 0.5 * dt

    def G(coeffs, time):
        g = nonlinearity_full(SpectralField(phi.grid, coeffs, time), spec).coeffs
        return np.negative(g, out=g)

    w = np.empty_like(y)  # each stage's input, then 2 e
    ey = np.empty_like(y)  # h b, then E y
    a = G(y, t)
    np.add(y, np.multiply(h, a, out=w), out=w)
    b = G(np.multiply(e_half, w, out=w), t + h)
    c = G(np.add(np.multiply(e_half, y, out=w), np.multiply(h, b, out=ey), out=w), t + h)
    np.multiply(e_full, y, out=ey)
    np.multiply(np.multiply(dt, e_half, out=w), c, out=w)
    d = G(np.add(ey, w, out=w), t + dt)
    np.multiply(e_full, a, out=a)
    np.add(b, c, out=b)
    np.multiply(np.multiply(2.0, e_half, out=w), b, out=b)
    np.add(np.add(a, b, out=a), d, out=a)
    np.add(ey, np.multiply(dt / 6.0, a, out=a), out=a)
    return phi.with_coeffs(a, time=t + dt)


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
        # the half steps' exp(i xi^3 h) and exp(i xi^3 h/2) are the full step's
        # exp(i xi^3 dt/2) and exp(i xi^3 dt/4), bit for bit
        h = 0.5 * dt_try
        e_full, e_half, e_quarter = (airy_factor(phi.grid, s) for s in (dt_try, h, 0.5 * h))
        full = lawson_step(phi, cfg.coeff, dt_try, (e_full, e_half))
        half = lawson_step(phi, cfg.coeff, h, (e_half, e_quarter))
        pair = lawson_step(half, cfg.coeff, h, (e_half, e_quarter))
        np.subtract(pair.coeffs, full.coeffs, out=full.coeffs)  # the defect, in the full step's array
        err = norm(full, "L2")
        tol = cfg.eps_tol * base
        if not np.isfinite(err):
            # overflow inside the trial step: reject hard (nan would otherwise
            # poison the controller and loop forever)
            factor = 0.2
            err = np.inf
        elif err == 0.0:
            factor = 5.0
        else:
            factor = min(max(0.9 * (tol / err) ** 0.2, 0.2), 5.0)
        if err <= tol:
            next_dt = dt_try * factor
            if capped:
                # a cap-shortened step must not erode the controller's length
                next_dt = max(next_dt, dt)
            return SimState(phi=pair, dt=next_dt, steps=state.steps + 1, rejected=rejected)
        rejected += 1
        dt = dt_try * factor


def monitor_record(phi: SpectralField, spec: CoefficientSpec) -> dict:
    return {
        "t": phi.time,
        "mass": mass(phi),
        "l2": norm(phi, "L2"),
        "hamiltonian": hamiltonian(phi, spec),
    }


def distinct_times(times) -> list[float]:
    """`times` ascending, each dropped that lies within TIME_MERGE relative of
    the next: of times that differ only by rounding (a geometric time
    exp(k log(T)/K) next to T or to a power of two) the latest is kept."""
    ts = sorted({float(t) for t in times})
    return [t for t, later in zip(ts, ts[1:]) if later - t > TIME_MERGE * abs(later)] + ts[-1:]


def run(cfg: SimConfig, observer=None) -> tuple[SimState, list[dict]]:
    """Integrate to t_end, emitting a monitor record at each monitor time.

    `observer(phi, record)`, when given, is called at every monitor time and
    may extend the record dict in place (diagnostics, snapshot writing).
    The run integrates the given field `cfg.initial` from its time t0 (0, or
    a snapshot's time), which `SimConfig` holds before t_end.  Records are
    also emitted at t0 and t_end; monitor times outside (t0, t_end] are
    ignored, and the others merged by `distinct_times`, so that no state is
    recorded twice.
    """
    phi0 = cfg.initial
    state = SimState(phi=phi0, dt=max(default_dt_init(phi0, cfg.coeff), DT_FLOOR))
    stops = distinct_times([t for t in cfg.monitor_times if phi0.time < t <= cfg.t_end] + [cfg.t_end])

    records = []

    def emit(phi):
        rec = monitor_record(phi, cfg.coeff)
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
