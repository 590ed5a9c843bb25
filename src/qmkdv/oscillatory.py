"""Desk-scale stationary-phase studies.

Two groups of checks on the oscillatory integrals behind the long-time
analysis:

* the quadratic-phase mass identity  iint e^{-i x1 x2} psi(x1/B) psi(x2/B)
  -> 2pi  as B grows, evaluated through the exact 1D reduction
  (the inner integral is B * psihat_check(B x2), so the double integral is
  int psi(u/B^2) psicheck(u) du with psicheck the inverse transform of the
  bump), plus a closed-form Gaussian self-test.  The bump's spectrum head
  ends below k = n/32 (32 points per oscillation), so psicheck is exact on
  phase rows of n/p points, each one short inverse real FFT (p + 1 of the
  2p rows, as the integrand is even in u), summed a row at a time against
  the u-side cutoff, which like the head is evaluated on its transition
  bands only.  The odd rows are the n midpoints, so the resolution-doubling
  check's 2n-point sum is the mean of two n-point sums;

* direct small-n evaluations of the trilinear oscillatory integral

      I(t; xi) = i xi iint e^{-i t Phi} T1 h1(eta1) h2(eta2) h3(xi-eta1-eta2)

  used for two decay studies (separated bands versus resonance-overlapping
  bands) and for a frozen-profile measurement of the long-time phase-drift
  coefficient (three nondegenerate critical points, each carrying
  stationary-phase mass 2pi/(6|xi| t), give drift sgn(xi) pi T1(xi,xi,-xi)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import littlewood_paley as lp
from .diagnostics import decay_fit
from .model import CoefficientSpec, nonlinearity_full, phase_phi, resonance_points, symbol_t1
from .spectral_core import GridSpec, SpectralField, free_evolve, synthesize, transform

__all__ = [
    "UnresolvedOscillation",
    "OscillatoryResult",
    "two_pi_identity",
    "gaussian_two_pi_selftest",
    "trilinear_integral",
    "nonresonant_decay_study",
    "stationary_phase_drift",
    "resonant_drift_measurement",
]

NOISE_FLOOR = 1e-12  # below this, doubling differences are round-off, not resolution


class UnresolvedOscillation(ValueError):
    """Oscillatory quadrature failed its resolution-doubling gate."""


@dataclass(frozen=True)
class OscillatoryResult:
    parameter: float
    value: complex
    error: float


def _bump_samples(start: float, step: float, scale: float, count: int) -> np.ndarray:
    """lp.bump((start + step * k) / scale) for k = 0..count-1 (step, scale > 0),
    with lp.bump evaluated on its two transition bands only: 1 is written on
    the plateau and 0 left off the support.  The bands' index ranges are
    widened by two points, where bump itself returns exact 0s and 1s, so
    rounding in the index arithmetic cannot move a bit."""
    out = np.zeros(count)

    def index(x: float) -> float:  # the fractional k at which the grid reaches x * scale
        return (x * scale - start) / step

    def clip(k: int) -> int:
        return min(max(k, 0), count)

    out[clip(math.ceil(index(-lp.PLATEAU_EDGE))) : clip(math.floor(index(lp.PLATEAU_EDGE)) + 1)] = 1.0
    for lo, hi in ((-lp.SUPPORT_EDGE, -lp.PLATEAU_EDGE), (lp.PLATEAU_EDGE, lp.SUPPORT_EDGE)):
        k0, k1 = clip(math.floor(index(lo)) - 2), clip(math.ceil(index(hi)) + 3)
        if k0 < k1:
            out[k0:k1] = lp.bump((start + step * np.arange(k0, k1)) / scale)
    return out


def _two_pi_values(B: float, u_extent: float, n: int) -> tuple[complex, complex]:
    """int psi(u / B^2) psicheck(u) du (the 1D reduction) by the trapezoid
    sums T_n and T_2n on the centred n-point and 2n-point u-grids of length
    u_extent, summed a row at a time so that no array is longer than a row.

    Row r < 2p holds the m = n/p points -u_extent/2 + r du/2 + p du q: one
    m-point inverse real FFT of the head's `support` nonzero entries times
    (-1)^k e^{i pi k r/n} m dxi, exact while support < m/2 (p is the largest
    power of two dividing n with m >= max(4 support, 4096)).  The even rows
    sum to T_n and the odd rows to the midpoint sum M_n, and T_2n = (T_n +
    M_n) / 2 only while the 2n-point head is the n-point one zero-padded, so
    a head reaching k = n/2 raises UnresolvedOscillation.  psi, psicheck and
    the cutoff (lp.bump takes |x|) are even, so row 2p - r is row r reversed
    (q -> m - 1 - q): rows 0 and p, their own mirrors, count once and rows
    0 < r < p twice, p + 1 row transforms and cutoffs in place of 2p."""
    grid = GridSpec(n=n, box_length=u_extent)
    support = math.ceil(lp.SUPPORT_EDGE / grid.dxi)  # psi(k dxi) = 0 from here on
    if support >= n // 2:
        raise UnresolvedOscillation(f"B={B}: the spectrum head reaches the n={n} band edge")
    p = 1
    while n % (2 * p) == 0 and n // (2 * p) >= max(4 * support, 4096):  # a shorter row costs more than it saves
        p *= 2
    m = n // p
    head = _bump_samples(0.0, grid.dxi, 1.0, support) * (m * grid.dxi)
    head[1::2] *= -1.0
    row_head = np.zeros(m // 2 + 1, dtype=np.complex128)
    angle = math.pi / n * np.arange(support)
    sums = [0.0, 0.0]
    for r in range(p + 1):  # row 2p - r, of the same parity, is row r mirrored
        np.multiply(head, np.exp(1j * r * angle), out=row_head[:support])
        row = np.fft.irfft(row_head, m)
        cutoff = _bump_samples(0.5 * r * grid.dx - 0.5 * u_extent, p * grid.dx, B**2, m)
        sums[r % 2] += (1.0 if r in (0, p) else 2.0) * np.sum(np.multiply(row, cutoff, out=row))
    return complex(grid.dx * sums[0]), complex(0.5 * grid.dx * (sums[0] + sums[1]))


def _two_pi_grid(B: float) -> tuple[float, int]:
    """two_pi_identity's (u_extent, n) for B."""
    u_extent = 2.0 * lp.SUPPORT_EDGE * B**2 * 1.25  # margin beyond the outer support
    per_unit = 32.0 * lp.SUPPORT_EDGE / (2.0 * math.pi)  # 32 points per oscillation
    return u_extent, int(2 ** math.ceil(math.log2(u_extent * per_unit)))


def two_pi_identity(B: float) -> OscillatoryResult:
    """Quadratic-phase mass identity with a resolution-doubling gate.

    The grid (`_two_pi_grid`) keeps at least 32 points per oscillation of
    psicheck (whose fastest oscillation is the support edge 8/5) over the
    whole u-range.  Doubling the resolution must move the value by less than
    10% of the reported error; once both are at the round-off floor the gate
    is considered satisfied (float64 cannot resolve below ~1e-12 here).  The
    n-point sum T_n and the doubled value (T_n + M_n) / 2 come from the phase
    rows of `_two_pi_values`, exact since the head (up to 8/5) lies inside
    the n-point band (n/2 dxi >= 25.6 for every B >= 4) and each row's band,
    and p + 1 of the 2p rows give both, the integrand being even in u.
    """
    if B < 4.0:
        raise ValueError("B must be >= 4")
    value, doubled = _two_pi_values(B, *_two_pi_grid(B))
    error = abs(value - 2.0 * math.pi)
    change = abs(doubled - value)
    if change >= 0.1 * error and max(change, error) > NOISE_FLOOR:
        raise UnresolvedOscillation(
            f"B={B}: doubling moved the value by {change:.3e} against error {error:.3e}"
        )
    return OscillatoryResult(parameter=float(B), value=value, error=error)


def gaussian_two_pi_selftest(B: float) -> OscillatoryResult:
    """The 1D reduction with a Gaussian cutoff, checked against the closed form.
    Its head is not compactly supported, so its inner integral is the n-point
    `synthesize` of the head, whose dropped Nyquist entry is e^{-64} of the peak.

    iint e^{-i x1 x2} e^{-x1^2/B^2} e^{-x2^2/B^2} dx1 dx2
        = sqrt(pi) B int e^{-x2^2/B^2} e^{-B^2 x2^2 / 4} dx2
        = 2 pi / sqrt(1 + 4 / B^4).
    """
    if B < 4.0:
        raise ValueError("B must be >= 4")
    half_width = 8.0 * B  # e^{-64}: far below double precision
    n = int(2 ** math.ceil(math.log2(40.7 * B**2)))
    # inner integral over x1, evaluated spectrally on the dual grid:
    # int e^{-x1^2/B^2} e^{i x1 u} dx1 at the grid points u
    grid = GridSpec(n=n, box_length=2.0 * half_width)
    inner = synthesize(SpectralField(grid, np.exp(-((grid.dxi * np.arange(n // 2)) ** 2) / B**2)))
    du = 2.0 * half_width / n
    value = complex(du * np.sum(np.exp(-(grid.x**2) / B**2) * inner))
    reference = 2.0 * math.pi / math.sqrt(1.0 + 4.0 / B**4)
    return OscillatoryResult(parameter=float(B), value=value, error=abs(value - reference))


# ---------------------------------------------------------------------------
# Trilinear oscillatory integrals (small-n direct double sums)
# ---------------------------------------------------------------------------


def trilinear_integral(grid: GridSpec, h1, h2, h3, alpha2: float, xi: float, t_values) -> np.ndarray:
    """I(t; xi) by direct double sum over the grid's frequencies.

    h1, h2, h3 are callables evaluating the three spectral profiles; the
    third is evaluated at xi - eta1 - eta2 directly (no periodic wrap), so
    the sum reproduces the whole-line integral for band-limited profiles.
    """
    eta = np.sort(grid.xi)
    e1 = eta[:, None]
    e2 = eta[None, :]
    e3 = xi - e1 - e2
    kernel = (
        symbol_t1(e1, e2, e3, alpha2)
        * np.asarray(h1(e1), dtype=np.complex128)
        * np.asarray(h2(e2), dtype=np.complex128)
        * np.asarray(h3(e3), dtype=np.complex128)
    )
    # the kernel vanishes off the product of the band supports: sum only where it does not
    nz = kernel != 0.0
    phi = phase_phi(xi, e1, e2)[nz]
    t = np.asarray(t_values, dtype=np.float64)
    return 1j * xi * grid.dxi**2 * (np.exp(-1j * t[:, None] * phi) @ kernel[nz])


def _band(center: float, width: float):
    """Smooth compactly supported spectral bump of the given center/width."""

    def f(eta):
        return lp.bump((np.asarray(eta) - center) / width)

    return f


# h1, h2, h3 are the (center, width) of each profile's band, t_max the last of its `_region_times`
_REGIONS = {
    "separated": {
        # disjoint bands placed so that on the whole support xi - eta2 >= 0.16
        # and eta1 - eta3 >= 0.17: the first-argument phase gradient
        # 3(xi - eta2)(eta3 - eta1) never vanishes, so repeated integration by
        # parts applies and |I(t)| decays superpolynomially once t|Phi| >> 1.
        # The eta-lattice (n=128 over box 480) keeps >= 4 samples across each
        # bump transition and resolves the oscillation through t = 96: doubling
        # the lattice reproduces the integral to round-off.
        "h1": (0.55, 0.15),
        "h2": (0.0, 0.15),
        "h3": (-0.10, 0.15),
        "xi": (0.40, 0.45, 0.50),
        "n": 128,
        "box": 480.0,
        "window": (12.0, 96.0),
        "t_max": 96.0,
    },
    "resonant": {
        # one broad band through all the (merged, nearly degenerate) stationary
        # points of a near-zero output frequency: decay saturates near t^{-2/3}
        "h1": (0.0, 1.0),
        "h2": (0.0, 1.0),
        "h3": (0.0, 1.0),
        "xi": (0.02, 0.03),
        "n": 96,
        "box": 40.0,
        "window": None,
        "t_max": 3.0 * 96.0,
    },
}


def _region_times(region: str) -> np.ndarray:
    """The region's 45 geometric times from t = 3 to its t_max."""
    return np.exp(np.linspace(math.log(3.0), math.log(_REGIONS[region]["t_max"]), 45))


def _envelope_times(t_list) -> list:
    """The time of each envelope point: the geometric mean of each bin of
    three consecutive sorted times (a short last bin is dropped)."""
    return [math.exp(np.mean(np.log(t_list[i : i + 3]))) for i in range(0, len(t_list) - 2, 3)]


def nonresonant_decay_study(region: str, alpha2: float) -> dict:
    """Fitted envelope decay of |I(t)| for a named interaction region.

    region "separated": disjoint bands on which the phase gradient in the
    first argument is bounded below (integration by parts available
    everywhere; fast decay).  region "resonant": bands overlapping the
    stationary set at small output frequency (decay saturates around
    t^{-2/3}).  |I| is sampled at the region's own times (`_region_times`).
    The envelope takes the maximum of |I| over the sampled output
    frequencies and over bins of three consecutive times, then fits a
    log-log slope over the region's fit window (all of the envelope when the
    region has none), on the region's calibrated lattice.
    """
    spec = _REGIONS[region]
    t_list = _region_times(region)
    grid = GridSpec(n=spec["n"], box_length=spec["box"])
    h1, h2, h3 = (_band(*spec[k]) for k in ("h1", "h2", "h3"))
    mags = np.zeros(len(t_list))
    for xi in spec["xi"]:
        vals = trilinear_integral(grid, h1, h2, h3, alpha2, xi, t_list)
        mags = np.maximum(mags, np.abs(vals))
    env_times = _envelope_times(t_list)
    env = [(t, float(np.max(mags[3 * k : 3 * k + 3]))) for k, t in enumerate(env_times)]
    slope, stderr = decay_fit(env, spec["window"] or (env_times[0], env_times[-1]))
    return {"slope": slope, "stderr": stderr, "series": [(float(t), float(v)) for t, v in zip(t_list, mags)]}


# ---------------------------------------------------------------------------
# Frozen-profile drift measurement
# ---------------------------------------------------------------------------


def stationary_phase_drift(xi: float, alpha2: float) -> float:
    """Direct stationary-phase value of the long-time phase-drift coefficient.

    Three nondegenerate space-time critical points, each of mass
    2 pi / (6 |xi| t) and signature zero, with equal symbol values, give

        d(arg hhat)/d(log t) = sgn(xi) * pi * T1(xi, xi, -xi) * |hhat(xi)|^2 ,

    so the coefficient multiplying |hhat|^2 is sgn(xi) pi T1(xi,xi,-xi).
    """
    return math.copysign(math.pi, xi) * float(symbol_t1(xi, xi, -xi, alpha2))


def _drift_regression(ts, series, omega: float) -> tuple[float, float]:
    """(a, residual rms) of the least-squares fit
    series(t) = a + c cos(omega t) + d sin(omega t) + e / t,
    with omega given, not fitted."""
    basis = np.column_stack([np.ones_like(ts), np.cos(omega * ts), np.sin(omega * ts), 1.0 / ts])
    coef = np.linalg.lstsq(basis, series, rcond=None)[0]
    return float(coef[0]), float(np.sqrt(np.mean((series - basis @ coef) ** 2)))


def resonant_drift_measurement(targets, grid: GridSpec, alpha2: float, amplitude: float, width: float) -> list[dict]:
    """Measured drift coefficient from a frozen profile, by FFT.

    For the fixed real profile h = amplitude e^{-(x/width)^2}, the cubic
    contribution to d(arg hhat)/dt at frequency xi equals
    Re[ I(t; xi) / (i hhat(xi)) ] / |hhat(xi)|^2 with

        I(t; xi) = -e^{-i t xi^3} F[N3(e^{-t d_x^3} h)](xi) ,

    where N3 is the cubic part of N.  The measurement uses the "linear"
    family c(v) = sqrt(alpha2) v, whose N(phi) is exactly N3 (no quartic or
    higher terms, and its products are alias-free at its pad 2), so
    nonlinearity_full gives N3 directly.  t * Re[I / (i |hhat|^2 hhat)]
    converges to the drift coefficient as t grows (relative error O(1/t));
    averaging over 96 times of a window suppresses the oscillatory
    contribution of the space-only stationary point.  That contribution
    oscillates at omega = Phi(xi, xi/3, xi/3) = 8 xi^3 / 9, so ``regressed``
    is the a of the fit a + c cos(omega t) + d sin(omega t) + e/t to the
    same series, next to its plain mean (``measured``) and std (``spread``).

    The window must stay clear of periodic wrap-around: the Airy group
    velocity is 3 eta^2, so radiation carried by the profile (|eta| up to
    about 2 for width 2, the `scattering` study's) re-enters after
    t ~ box_length/24.  The window is (box/54, box/18), balancing the O(1/t)
    systematic error against wrap contamination.
    """
    if alpha2 < 0:
        raise ValueError("alpha2 must be nonnegative")
    spec = CoefficientSpec(family="linear", a=math.sqrt(alpha2))
    u = amplitude * np.exp(-((grid.x / width) ** 2))
    h = transform(grid, u)
    idx = [int(round(x / grid.dxi)) for x in targets]
    xs, hh = grid.xi[idx], h.coeffs[idx]
    xi3 = xs**3
    ts = np.linspace(grid.box_length / 54.0, grid.box_length / 18.0, 96)
    acc = np.zeros((len(idx), ts.size))
    for s, t in enumerate(ts):
        phi = free_evolve(h, float(t))
        i_vals = -np.exp(-1j * t * xi3) * nonlinearity_full(phi, spec).coeffs[idx]
        acc[:, s] = t * np.real(i_vals / (1j * np.abs(hh) ** 2 * hh))
    out = []
    for row, j in enumerate(idx):
        xi = float(xs[row])
        regressed, rms = _drift_regression(ts, acc[row], phase_phi(xi, *resonance_points(xi).space_only))
        out.append(
            {
                "xi": xi,
                "measured": float(np.mean(acc[row])),
                "spread": float(np.std(acc[row])),
                "regressed": regressed,
                "regression_rms": rms,
                "stationary_phase": stationary_phase_drift(xi, alpha2),
                "h_sq": float(np.abs(h.coeffs[j]) ** 2),
            }
        )
    return out
