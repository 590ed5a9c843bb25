"""Solution functionals tracked along runs.

The composite energy combines six squared norms of the solution phi, its
scaling-field image S phi = (x d_x + 3t d_t) phi, and the frequency-side
derivative of the profile hhat(xi) = e^{-i t xi^3} phihat(xi):

    E[phi] = ||d_x^{-1} phi||_{L2}^2 + ||phi||_{Hs}^2
           + ||d_x^{-1} S phi||_{L2}^2 + ||S phi||_{L2}^2
           + ||xi d_xi hhat||_{L2}^2 + ||d_xi hhat||_{L2}^2 ,

and the weighted amplitude norm is Z = sup_xi (|xi|^{gl} + |xi|^{gh}) |phihat|.

On the periodic surrogate the physical field wraps around the box long
before the end of a long run, so every x-weighted quantity is taken through
the profile h (which stays concentrated) and S phi is computed from the
frequency-side identity

    F[S phi] = -e^{i t xi^3} xi d_xi hhat - 3t F[N(phi)] - phihat ,

which needs no x-weighting of phi itself.  The direct physical-space route
exists in the model module and the two are cross-checked on concentrated
fields, where both are valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import BootstrapConstants, CoefficientSpec, hamiltonian, nonlinearity_full
from .littlewood_paley import _smooth_step
from .spectral_core import (
    GridSpec,
    SpectralField,
    _require_zero_mean,
    antiderivative,
    derivative,
    fractional_abs_derivative,
    free_evolve,
    mass_fraction_inside,
    norm,
    profile_from_solution,
    synthesize,
    xi_derivative_coefficients,
    xi_l2_norm,
)

__all__ = [
    "NonMonotoneTime",
    "InsufficientData",
    "EnergyBreakdown",
    "ScatteringProbe",
    "energy",
    "z_norm",
    "scaling_field_spectral",
    "frequency_window",
    "theta_coefficient",
    "theta_accumulate",
    "scattering_monitor",
    "decay_fit",
    "dispersive_ratio",
    "sharp_decay_product",
]


class NonMonotoneTime(ValueError):
    """Accumulation called with decreasing or mismatched times."""


class InsufficientData(ValueError):
    """Not enough samples for the requested fit or report."""


# ---------------------------------------------------------------------------
# Energy and Z
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyBreakdown:
    antiderivative_sq: float
    sobolev_sq: float
    scaling_antiderivative_sq: float
    scaling_sq: float
    xi_dxi_profile_sq: float
    dxi_profile_sq: float
    total: float
    z_norm: float
    hamiltonian: float
    t: float
    h_mass_fraction: float

    def summands(self) -> tuple:
        return (
            self.antiderivative_sq,
            self.sobolev_sq,
            self.scaling_antiderivative_sq,
            self.scaling_sq,
            self.xi_dxi_profile_sq,
            self.dxi_profile_sq,
        )


def z_norm(phi: SpectralField, bc: BootstrapConstants = BootstrapConstants()) -> float:
    """sup_xi (|xi|^{gamma_l} + |xi|^{gamma_h}) |phihat(xi)|."""
    axi = np.abs(phi.grid.xi)
    weight = axi**bc.gamma_l + axi**bc.gamma_h
    return float(np.max(weight * np.abs(phi.coeffs)))


def scaling_field_spectral(phi: SpectralField, t: float, spec: CoefficientSpec, pad: int = 3) -> SpectralField:
    """S phi from the frequency-side identity (wrap-safe route).

    F[S phi] = -e^{i t xi^3} xi d_xi hhat - 3t F[N(phi)] - phihat.
    At t=0 this reduces to F[x d_x phi] = -d_xi(xi phihat).
    """
    _require_zero_mean(phi)
    return _scaling_field(phi, t, spec, pad, xi_derivative_coefficients(profile_from_solution(phi, t)))


def _scaling_field(phi: SpectralField, t: float, spec: CoefficientSpec, pad: int, dh: np.ndarray) -> SpectralField:
    """S phi given dh, the xi-derivative of the profile at time t."""
    g = phi.grid
    out = -np.exp(1j * t * g.xi**3) * g.xi * dh - phi.coeffs
    if t != 0.0:
        out = out - 3.0 * t * nonlinearity_full(phi, spec, pad).coeffs
    return phi.with_coeffs(out)


def energy(
    phi: SpectralField,
    t: float,
    spec: CoefficientSpec,
    bc: BootstrapConstants = BootstrapConstants(),
    pad: int = 3,
) -> EnergyBreakdown:
    """The six-summand energy, Z-norm and Hamiltonian at one time."""
    e1 = norm(antiderivative(phi), "L2") ** 2  # also the zero-mean check, before the costly terms
    h = profile_from_solution(phi, t)
    dh = xi_derivative_coefficients(h)
    s_phi = _scaling_field(phi, t, spec, pad, dh)
    e2 = norm(phi, "Hs", s=bc.s) ** 2
    e3 = norm(antiderivative(s_phi), "L2") ** 2
    e4 = norm(s_phi, "L2") ** 2
    e5 = xi_l2_norm(phi.grid.xi * dh, phi.grid) ** 2
    e6 = xi_l2_norm(dh, phi.grid) ** 2
    return EnergyBreakdown(
        antiderivative_sq=e1,
        sobolev_sq=e2,
        scaling_antiderivative_sq=e3,
        scaling_sq=e4,
        xi_dxi_profile_sq=e5,
        dxi_profile_sq=e6,
        total=e1 + e2 + e3 + e4 + e5 + e6,
        z_norm=z_norm(phi, bc),
        hamiltonian=hamiltonian(phi, spec, pad),
        t=t,
        h_mass_fraction=mass_fraction_inside(h),
    )


# ---------------------------------------------------------------------------
# Frequency window
# ---------------------------------------------------------------------------


def frequency_window(t: float, xi, bc: BootstrapConstants = BootstrapConstants()):
    """Smooth window equal to 1 for (t+1)^{-2 p0} <= |xi| <= (t+1)^{p1}.

    Rises smoothly from 0 across [a/2, a] with a = (t+1)^{-2 p0} and falls
    across [b, b+1] with b = (t+1)^{p1}.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    a = (t + 1.0) ** (-2.0 * bc.p0)
    b = (t + 1.0) ** bc.p1
    axi = np.abs(np.asarray(xi, dtype=np.float64))
    rising = _smooth_step((axi - 0.5 * a) / (0.5 * a))
    falling = _smooth_step(b + 1.0 - axi)
    return rising * falling


# ---------------------------------------------------------------------------
# Modified-scattering probe
# ---------------------------------------------------------------------------

VARIANTS = ("A", "B")


def theta_coefficient(xi: float, alpha2: float, variant: str) -> float:
    """Phase-correction coefficient, both bookkeeping variants.

    variant "A": -pi (2 alpha2 xi^2 - 3) / 18
    variant "B": -pi (2 alpha2 xi^2 - 1) / 6
    """
    if variant == "A":
        return -math.pi * (2.0 * alpha2 * xi**2 - 3.0) / 18.0
    if variant == "B":
        return -math.pi * (2.0 * alpha2 * xi**2 - 1.0) / 6.0
    raise ValueError(f"unknown variant {variant!r}")


@dataclass
class ScatteringProbe:
    """History of hhat and the accumulated phase correction at fixed xi's."""

    frequencies: np.ndarray
    indices: np.ndarray
    alpha2: float
    times: list = field(default_factory=list)
    h_history: list = field(default_factory=list)
    theta: dict = field(default_factory=lambda: {v: [] for v in VARIANTS})

    @classmethod
    def from_grid(cls, grid: GridSpec, targets, alpha2: float) -> "ScatteringProbe":
        idx = []
        for target in targets:
            if target <= 0:
                raise ValueError("probe frequencies must be positive")
            j = int(round(target / grid.dxi))
            if not 1 <= j < grid.n // 2:
                raise ValueError(f"frequency {target} not representable")
            idx.append(j)
        idx = np.asarray(sorted(set(idx)), dtype=int)
        return cls(frequencies=grid.dxi * idx, indices=idx, alpha2=alpha2)

    def coefficient(self, variant: str) -> np.ndarray:
        return np.array([theta_coefficient(x, self.alpha2, variant) for x in self.frequencies])

    def first_sample(self, hhat: np.ndarray, t: float = 1.0) -> "ScatteringProbe":
        if self.times:
            raise NonMonotoneTime("probe already started")
        if t < 1.0:
            raise NonMonotoneTime("accumulation starts at t >= 1")
        self.times.append(float(t))
        self.h_history.append(np.asarray(hhat, dtype=np.complex128).copy())
        for v in VARIANTS:
            self.theta[v].append(np.zeros(len(self.frequencies)))
        return self


def theta_accumulate(probe: ScatteringProbe, hhat_now, t_prev: float, t_now: float) -> ScatteringProbe:
    """Trapezoid-in-log-time update of Theta = coeff * int |hhat|^2 dtau/tau."""
    if not probe.times:
        raise NonMonotoneTime("probe has no first sample; call first_sample at t >= 1")
    if abs(t_prev - probe.times[-1]) > 1e-9 * max(1.0, t_prev):
        raise NonMonotoneTime(f"t_prev={t_prev} does not match last recorded {probe.times[-1]}")
    if t_now < t_prev:
        raise NonMonotoneTime(f"t_now={t_now} < t_prev={t_prev}")
    if t_now == t_prev:
        return probe
    hhat_now = np.asarray(hhat_now, dtype=np.complex128).copy()
    dlog = math.log(t_now) - math.log(t_prev)
    mean_sq = 0.5 * (np.abs(probe.h_history[-1]) ** 2 + np.abs(hhat_now) ** 2)
    probe.times.append(float(t_now))
    probe.h_history.append(hhat_now)
    for v in VARIANTS:
        probe.theta[v].append(probe.theta[v][-1] + probe.coefficient(v) * mean_sq * dlog)
    return probe


def _dyadic_sample_indices(times) -> list:
    out = []
    for i, t in enumerate(times):
        if t < 1.0:
            continue
        m = round(math.log2(t))
        if abs(t - 2.0**m) <= 1e-9 * t:
            out.append(i)
    return out


def scattering_monitor(probe: ScatteringProbe, fit_t_min: float = 16.0) -> list:
    """Per-frequency, per-variant convergence report.

    For each probed xi and each phase-correction variant: the Cauchy
    increments |vhat(t_{m+1}) - vhat(t_m)| over recorded dyadic times with
    vhat = e^{i Theta} hhat, the raw drift slope d(arg hhat)/d(log t) fitted
    over t >= fit_t_min, and the variant's prediction -coeff(xi) |hhat|^2.
    """
    dyadic = _dyadic_sample_indices(probe.times)
    if len(dyadic) < 3:
        raise InsufficientData(f"need >= 3 dyadic-time snapshots, have {len(dyadic)}")
    times = np.asarray(probe.times)
    hmat = np.stack(probe.h_history)  # (n_times, n_freqs)
    reports = []
    fit_sel = times >= fit_t_min
    if np.count_nonzero(fit_sel) < 4:
        raise InsufficientData("need >= 4 samples at t >= fit_t_min for the drift fit")
    logt = np.log(times[fit_sel])
    for i, xi in enumerate(probe.frequencies):
        phases = np.unwrap(np.angle(hmat[:, i]))
        slope = float(np.polyfit(logt, phases[fit_sel], 1)[0])
        h2 = float(np.abs(hmat[-1, i]) ** 2)
        for v in VARIANTS:
            theta_series = np.array([probe.theta[v][m][i] for m in dyadic])
            vhat = np.exp(1j * theta_series) * hmat[dyadic, i]
            inc = np.abs(np.diff(vhat))
            coeff = theta_coefficient(float(xi), probe.alpha2, v)
            predicted = -coeff * h2
            matched = abs(slope - predicted) <= 0.2 * abs(predicted)
            # 20% noise allowance plus an absolute floor so that increments
            # at round-off scale (a fully converged vhat) still count
            floor = 1e-12 * float(np.max(np.abs(hmat[dyadic, i]), initial=0.0))
            monotone = (
                bool(np.all(inc[1:] <= 1.2 * inc[:-1] + floor)) if inc.size >= 2 else False
            )
            reports.append(
                {
                    "xi": float(xi),
                    "variant": v,
                    "cauchy_increments": [float(x) for x in inc],
                    "drift_slope": slope,
                    "predicted_slope": float(predicted),
                    "matched": bool(matched),
                    "monotone_decrease": monotone,
                }
            )
    return reports


# ---------------------------------------------------------------------------
# Decay fitting and the dispersive ratio
# ---------------------------------------------------------------------------


def decay_fit(series, window) -> tuple[float, float]:
    """Least-squares slope of log(value) against log(t) inside the window.

    Returns (exponent, standard error of the exponent).
    """
    t_lo, t_hi = window
    pts = [(t, v) for t, v in series if t_lo <= t <= t_hi]
    if len(pts) < 8:
        raise InsufficientData(f"need >= 8 samples in [{t_lo}, {t_hi}], have {len(pts)}")
    if any(v <= 0.0 for _, v in pts):
        raise InsufficientData("decay fit requires strictly positive values")
    logt = np.log([t for t, _ in pts])
    logv = np.log([v for _, v in pts])
    a = np.vstack([logt, np.ones_like(logt)]).T
    coef, residuals, _, _ = np.linalg.lstsq(a, logv, rcond=None)
    slope = float(coef[0])
    dof = len(pts) - 2
    ss = float(residuals[0]) if residuals.size else float(np.sum((logv - a @ coef) ** 2))
    var = ss / dof / float(np.sum((logt - logt.mean()) ** 2)) if dof > 0 else 0.0
    return slope, math.sqrt(max(var, 0.0))


def dispersive_ratio(h: SpectralField, t: float, beta: float, n: int = 0) -> float:
    """Sharpness ratio of the pointwise linear dispersive estimate.

    ratio = max_x |LHS(x)| / RHS(x) with LHS = |d_x|^beta e^{-t d_x^3} d_x^n h
    and RHS = t^{-1/3-beta/3} (1+|x| t^{-1/3})^{-1/4+beta/2}
              ( sup_xi |xi|^n |hhat| + t^{-1/6} || x |d_x|^n h ||_{L2} ).
    """
    if t < 1.0:
        raise ValueError("t must be >= 1")
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    g = h.grid
    lhs_field = free_evolve(fractional_abs_derivative(derivative(h, n), beta), t)
    lhs = np.abs(synthesize(lhs_field))
    amp = float(np.max(np.abs(g.xi) ** n * np.abs(h.coeffs)))
    habs = fractional_abs_derivative(h, float(n))
    xw = g.x * synthesize(habs)
    wnorm = float(np.sqrt(g.dx * np.sum(np.abs(xw) ** 2)))
    profile = (1.0 + np.abs(g.x) * t ** (-1.0 / 3.0)) ** (-0.25 + 0.5 * beta)
    rhs = t ** (-1.0 / 3.0 - beta / 3.0) * profile * (amp + t ** (-1.0 / 6.0) * wnorm)
    return float(np.max(lhs / rhs))


# ---------------------------------------------------------------------------
# The sharp-decay product
# ---------------------------------------------------------------------------


def sharp_decay_product(phi: SpectralField) -> float:
    """max_x |phi|_2 |d_x phi|_2 with |f|_2 = sqrt(sum_{j<=2} |d^j f|^2)."""
    d = [np.real(synthesize(derivative(phi, j))) for j in range(4)]
    low = np.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
    high = np.sqrt(d[1] ** 2 + d[2] ** 2 + d[3] ** 2)
    return float(np.max(low * high))
