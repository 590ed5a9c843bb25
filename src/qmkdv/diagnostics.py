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

which needs no x-weighting of phi itself.  :func:`energy` computes S phi
this way, and only there.  The direct physical-space route is
``model.scaling_field_direct``; the test-suite cross-checks the two on
concentrated fields, where both are valid.

Modified scattering is read off the recorded series of hhat at a few probe
frequencies (:func:`probe_indices`), against one drift law per probe, the
d(arg hhat)/d(log t) / |hhat|^2 of ``oscillatory.stationary_phase_drift``.
:func:`theta_series` integrates the phase correction Theta = -drift(xi)
int |hhat|^2 dt/t by the trapezoid rule in log t, and
:func:`scattering_monitor`, from the Theta of its own series, reports per
frequency the Cauchy increments of vhat = e^{i Theta} hhat at dyadic times
and the fitted drift against the law's prediction.  Both take the stacked
arrays (times, hhat), so a synthetic series tests them directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrator import TIME_MERGE
from .model import BOOTSTRAP, CoefficientSpec, nonlinearity_full
from .littlewood_paley import _smooth_step
from .spectral_core import (
    GridSpec,
    SpectralField,
    airy_factor,
    antiderivative,
    mass_fraction_inside,
    norm,
    synthesize,
    xi_derivative_coefficients,
    xi_l2_norm,
)

__all__ = [
    "InsufficientData",
    "EnergyBreakdown",
    "energy",
    "z_norm",
    "frequency_window",
    "probe_indices",
    "theta_series",
    "scattering_monitor",
    "decay_fit",
    "profile_sizes",
    "dispersive_ratio",
    "sharp_decay_product",
]


class InsufficientData(ValueError):
    """Not enough samples for the requested fit or report."""


# The fewest samples each fit accepts; the CLI checks planned runs against these.
MIN_DECAY_FIT_SAMPLES = 8  # decay_fit, inside its window
MIN_DYADIC_SAMPLES = 3  # scattering_monitor, at dyadic times t = 2^m
MIN_DRIFT_FIT_SAMPLES = 4  # scattering_monitor, at t >= fit_t_min


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
    h_mass_fraction: float


def z_norm(phi: SpectralField) -> float:
    """sup_xi (|xi|^{gamma_l} + |xi|^{gamma_h}) |phihat(xi)|."""
    axi = np.abs(phi.grid.half_xi)
    weight = axi**BOOTSTRAP.gamma_l + axi**BOOTSTRAP.gamma_h
    return float(np.max(weight * np.abs(phi.coeffs)))


def _scaling_field(phi: SpectralField, spec: CoefficientSpec, dh: np.ndarray, airy: np.ndarray) -> SpectralField:
    """S phi at t = phi.time, given dh, the xi-derivative of the profile at
    time t, and airy = e^{i t xi^3} on the grid.

    F[S phi] = -e^{i t xi^3} xi dh - 3t F[N(phi)] - phihat; at t=0 this
    reduces to F[x d_x phi] = -d_xi(xi phihat).
    """
    out = -airy * phi.grid.half_xi * dh - phi.coeffs
    if phi.time != 0.0:
        out = out - 3.0 * phi.time * nonlinearity_full(phi, spec).coeffs
    return phi.with_coeffs(out)


def energy(phi: SpectralField, spec: CoefficientSpec) -> EnergyBreakdown:
    """The six-summand energy and the Z-norm at phi's time."""
    e1 = norm(antiderivative(phi), "L2") ** 2  # also the zero-mean check, before the costly terms
    xi = phi.grid.half_xi
    airy = airy_factor(phi.grid, phi.time)
    # the profile's e^{-i t xi^3} is airy's conjugate, bitwise bar the sign of a zero imaginary part
    h = phi.with_coeffs(np.conj(airy) * phi.coeffs)
    dh = xi_derivative_coefficients(h)
    s_phi = _scaling_field(phi, spec, dh, airy)
    e2 = norm(phi, "Hs", s=BOOTSTRAP.s) ** 2
    e3 = norm(antiderivative(s_phi), "L2") ** 2
    e4 = norm(s_phi, "L2") ** 2
    e5 = xi_l2_norm(xi * dh, phi.grid) ** 2
    e6 = xi_l2_norm(dh, phi.grid) ** 2
    return EnergyBreakdown(
        antiderivative_sq=e1,
        sobolev_sq=e2,
        scaling_antiderivative_sq=e3,
        scaling_sq=e4,
        xi_dxi_profile_sq=e5,
        dxi_profile_sq=e6,
        total=e1 + e2 + e3 + e4 + e5 + e6,
        z_norm=z_norm(phi),
        h_mass_fraction=mass_fraction_inside(h),
    )


# ---------------------------------------------------------------------------
# Frequency window
# ---------------------------------------------------------------------------


def frequency_window(t: float, xi):
    """Smooth window equal to 1 for (t+1)^{-2 p0} <= |xi| <= (t+1)^{p1}.

    Rises smoothly from 0 across [a/2, a] with a = (t+1)^{-2 p0} and falls
    across [b, b+1] with b = (t+1)^{p1}.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    a = (t + 1.0) ** (-2.0 * BOOTSTRAP.p0)
    b = (t + 1.0) ** BOOTSTRAP.p1
    axi = np.abs(np.asarray(xi, dtype=np.float64))
    rising = _smooth_step((axi - 0.5 * a) / (0.5 * a))
    falling = _smooth_step(b + 1.0 - axi)
    return rising * falling


# ---------------------------------------------------------------------------
# Modified scattering
# ---------------------------------------------------------------------------

def probe_indices(grid: GridSpec, targets) -> np.ndarray:
    """Sorted, distinct positive-frequency indices nearest the target xi's."""
    idx = []
    for target in targets:
        if target <= 0:
            raise ValueError("probe frequencies must be positive")
        j = int(round(target / grid.dxi))
        if not 1 <= j < grid.n // 2:
            raise ValueError(f"frequency {target} not representable")
        idx.append(j)
    return np.asarray(sorted(set(idx)), dtype=int)


def theta_series(times, hhat, drift) -> np.ndarray:
    """Theta(t_m) = -drift(xi) * int_{t_0}^{t_m} |hhat|^2 dtau/tau, one column
    per frequency of ``hhat`` (n_times, n_freqs), one law coefficient each in
    ``drift``: the trapezoid rule in log t, from Theta = 0 at the first time.
    """
    times = [float(t) for t in times]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("times must be strictly increasing")
    sq = np.abs(np.asarray(hhat, dtype=np.complex128)) ** 2
    mean_sq = 0.5 * (sq[:-1] + sq[1:])
    dlog = np.array([math.log(b) - math.log(a) for a, b in zip(times, times[1:])])
    steps = -np.asarray(drift, dtype=np.float64) * mean_sq * dlog[:, None]
    return np.cumsum(np.vstack([np.zeros((1, sq.shape[1])), steps]), axis=0)


def _dyadic_sample_indices(times) -> list:
    out = []
    for i, t in enumerate(times):
        if t < 1.0:
            continue
        m = round(math.log2(t))
        if abs(t - 2.0**m) <= TIME_MERGE * t:
            out.append(i)
    return out


def scattering_monitor(times, hhat, drift, fit_t_min: float) -> list:
    """Per-frequency convergence report against the drift law.

    For each probed frequency, with its law coefficient drift(xi) and its
    column of theta_series(times, hhat, drift), which refuses times that do
    not strictly increase: the Cauchy increments |vhat(t_{m+1}) - vhat(t_m)|
    over recorded dyadic times with vhat = e^{i Theta} hhat, the raw drift
    slope d(arg hhat)/d(log t) fitted over t >= fit_t_min, and the law's
    prediction drift(xi) |hhat|^2.
    """
    theta = theta_series(times, hhat, drift)
    times = np.asarray(times, dtype=np.float64)
    dyadic = _dyadic_sample_indices(times)
    if (have := len(dyadic)) < MIN_DYADIC_SAMPLES:
        raise InsufficientData(f"need >= {MIN_DYADIC_SAMPLES} dyadic times, have {have}")
    fit_sel = times >= fit_t_min
    if (have := np.count_nonzero(fit_sel)) < MIN_DRIFT_FIT_SAMPLES:
        raise InsufficientData(f"need >= {MIN_DRIFT_FIT_SAMPLES} times at t >= fit_t_min, have {have}")
    hmat = np.asarray(hhat, dtype=np.complex128)
    logt = np.log(times[fit_sel])
    reports = []
    for i, d in enumerate(drift):
        phases = np.unwrap(np.angle(hmat[:, i]))
        slope = float(np.polyfit(logt, phases[fit_sel], 1)[0])
        predicted = float(d) * float(np.abs(hmat[-1, i]) ** 2)
        vhat = np.exp(1j * theta[dyadic, i]) * hmat[dyadic, i]
        inc = np.abs(np.diff(vhat))
        # 20% noise allowance plus an absolute floor so that increments
        # at round-off scale (a fully converged vhat) still count
        floor = 1e-12 * float(np.max(np.abs(hmat[dyadic, i]), initial=0.0))
        # at least MIN_DYADIC_SAMPLES dyadic times, so at least two increments
        monotone = bool(np.all(inc[1:] <= 1.2 * inc[:-1] + floor))
        reports.append(
            {
                "cauchy_increments": [float(x) for x in inc],
                "drift_slope": slope,
                "predicted_slope": predicted,
                "matched_ok": bool(abs(slope - predicted) <= 0.2 * abs(predicted)),
                "monotone_ok": monotone,
            }
        )
    return reports


# ---------------------------------------------------------------------------
# Decay fitting and the dispersive ratio
# ---------------------------------------------------------------------------


def decay_fit(series, window) -> tuple[float, float]:
    """Least-squares slope of log(value) against log(t) inside the window.

    Returns (exponent, standard error of the exponent).  The window must
    hold MIN_DECAY_FIT_SAMPLES distinct times: repeats of one time fit no slope.
    """
    t_lo, t_hi = window
    pts = [(t, v) for t, v in series if t_lo <= t <= t_hi]
    distinct = len({t for t, _ in pts})
    if distinct < MIN_DECAY_FIT_SAMPLES:
        raise InsufficientData(f"need >= {MIN_DECAY_FIT_SAMPLES} distinct times in [{t_lo}, {t_hi}], have {distinct}")
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


def profile_sizes(h: SpectralField) -> tuple[float, float]:
    """(sup_xi |hhat|, || x h ||_{L2}): the profile's part of the right-hand
    side of the dispersive estimate, the same at every t."""
    g = h.grid
    xw = g.x * synthesize(h)
    return float(np.max(np.abs(h.coeffs))), float(np.sqrt(g.dx * np.sum(xw**2)))


def dispersive_ratio(lhs: np.ndarray, grid: GridSpec, t: float, beta: float, sizes: tuple[float, float]) -> float:
    """Sharpness ratio of the pointwise linear dispersive estimate.

    ratio = max_x LHS(x) / RHS(x) with LHS = | |d_x|^beta e^{-t d_x^3} h |,
    given as its samples `lhs` on `grid`, and
    RHS = t^{-1/3-beta/3} (1+|x| t^{-1/3})^{-1/4+beta/2}
          ( sup_xi |hhat| + t^{-1/6} || x h ||_{L2} ),  sizes = profile_sizes(h).
    """
    if t < 1.0:
        raise ValueError("t must be >= 1")
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    amp, wnorm = sizes
    profile = (1.0 + np.abs(grid.x) * t ** (-1.0 / 3.0)) ** (-0.25 + 0.5 * beta)
    rhs = t ** (-1.0 / 3.0 - beta / 3.0) * profile * (amp + t ** (-1.0 / 6.0) * wnorm)
    return float(np.max(lhs / rhs))


# ---------------------------------------------------------------------------
# The sharp-decay product
# ---------------------------------------------------------------------------


def sharp_decay_product(d) -> float:
    """max_x |phi|_2 |d_x phi|_2 with |f|_2 = sqrt(sum_{j<=2} |d^j f|^2), from
    d[j], the real samples of d_x^j phi for j = 0..3."""
    low = np.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
    high = np.sqrt(d[1] ** 2 + d[2] ** 2 + d[3] ** 2)
    return float(np.max(low * high))
