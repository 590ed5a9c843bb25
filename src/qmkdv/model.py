"""The quasilinear mKdV right-hand side and its interaction structure.

The evolution equation is

    phi_t + phi_xxx + d_x(phi^3) + d_x( c(phi) d_x( c(phi) d_x phi ) ) = 0,

with a coefficient function c vanishing at 0.  Everything downstream depends
only on the first Taylor data of c through

    alpha2 = c'(0)^2,        alpha3 = (1/2) c''(0) c'(0),

and on the modified dispersion weight c1(phi) = sqrt(c(phi)^2 + 1) >= 1.

This module supplies the nonlinearity N(phi) (divergence form, so its zero
mode vanishes exactly), its cubic/quartic/quintic-and-higher splitting, the
trilinear and quadrilinear interaction symbols, the cubic and quartic phase
functions with their resonance geometry, dyadic multiplier bounds for the
cubic symbol, the scaling vector field S = x d_x + 3t d_t, and the weighted
derivatives (c1 d_x)^k used by the norm-equivalence diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import littlewood_paley as lp
from .spectral_core import (
    GridSpec,
    SpectralField,
    _multipliers,
    derivative,
    padded_values,
    synthesize,
    transform,
    transform_from_padded,
)

__all__ = [
    "CoefficientSpec",
    "BootstrapConstants",
    "ResonanceSet",
    "ZeroFrequency",
    "nonlinearity_full",
    "nonlinearity_split",
    "quintic_remainder_display",
    "symbol_t1",
    "symbol_t1_d1",
    "symbol_t2",
    "phase_phi",
    "grad_phase_phi",
    "phase_quartic",
    "grad_phase_quartic",
    "resonance_points",
    "dyadic_symbol_bound",
    "scaling_field_direct",
    "weighted_derivative",
    "weighted_norm_weight",
    "hamiltonian",
    "mass",
]


class ZeroFrequency(ValueError):
    """Resonance geometry is undefined at xi = 0."""


@dataclass(frozen=True)
class CoefficientSpec:
    """Coefficient function c(phi) drawn from one of three families.

    family "linear":     c(v) = a*v
    family "sine":       c(v) = sin(a*v)
    family "cubic_poly": c(v) = a*v + b*v^2 + c*v^3
    """

    family: str = "cubic_poly"
    a: float = 1.0
    b: float = 1.0
    c: float = 0.0

    def __post_init__(self):
        if self.family not in ("linear", "sine", "cubic_poly"):
            raise ValueError(f"unknown coefficient family {self.family!r}")

    def identifier(self) -> str:
        return f"{self.family}:a={self.a!r},b={self.b!r},c={self.c!r}"

    def c_of(self, v):
        if self.family == "linear":
            return self.a * v
        if self.family == "sine":
            return np.sin(self.a * v)
        return self.a * v + self.b * v**2 + self.c * v**3

    def c_prime0(self) -> float:
        return self.a

    def c_doubleprime0(self) -> float:
        return 2.0 * self.b if self.family == "cubic_poly" else 0.0

    @property
    def alpha2(self) -> float:
        return self.c_prime0() ** 2

    @property
    def alpha3(self) -> float:
        return 0.5 * self.c_doubleprime0() * self.c_prime0()

    def c1_of(self, v):
        """Modified dispersion weight sqrt(c^2 + 1) >= 1."""
        return np.sqrt(self.c_of(v) ** 2 + 1.0)

    def c3_of(self, v):
        """Cubic-and-higher Taylor remainder of c."""
        return self.c_of(v) - self.c_prime0() * v - 0.5 * self.c_doubleprime0() * v**2


@dataclass(frozen=True)
class BootstrapConstants:
    """The fixed small parameters every windowed diagnostic shares."""

    delta: float = 1e-3
    p0: float = 1e-4
    p1: float = 1e-3
    gamma_l: float = 0.0
    gamma_h: float = 2.5
    s: float = 12.0
    decay_exponent: float = 0.48

    def __post_init__(self):
        if abs(self.p0 - self.delta / 10.0) > 1e-15:
            raise ValueError("p0 must equal delta/10")
        if self.p1 < 2.0 * self.p0 / (self.s + 1.0 - 2.0 * self.gamma_h):
            raise ValueError("p1 too small: requires p1 >= 2 p0 / (s + 1 - 2 gamma_h)")


# ---------------------------------------------------------------------------
# Nonlinearity
# ---------------------------------------------------------------------------


def _fine_derivative_values(grid: GridSpec, pad: int, w_values: np.ndarray) -> np.ndarray:
    """d_x of samples on the pad-refined grid, computed spectrally there.

    This is synthesize(derivative(transform(fine, w), 1)) on the fine grid
    with its two parity signs cancelled, which leaves the value bits as they
    are.
    """
    m = pad * grid.n
    scale = grid.box_length / (2.0 * np.pi * m)
    ixi_fine = _multipliers(grid.n, grid.box_length, pad)[1]
    return np.fft.ifft(scale * np.fft.fft(w_values) * ixi_fine) * (m * grid.dxi)


def nonlinearity_full(phi: SpectralField, spec: CoefficientSpec, pad: int = 3) -> SpectralField:
    """N(phi) = d_x( phi^3 + c(phi) d_x( c(phi) d_x phi ) ).

    Products are evaluated on a pad-refined grid (cubic polynomial terms are
    dealiased exactly for pad >= 2; the non-polynomial c(phi) factors are
    evaluated pointwise there, with residual aliasing measured by resolution
    doubling in the test-suite).  The outer d_x acts after truncation, so the
    zero mode of the output vanishes exactly.
    """
    ixi = _multipliers(phi.grid.n, phi.grid.box_length, pad)[0]
    u = padded_values(phi, pad)
    ux = padded_values(phi.with_coeffs(phi.coeffs * ixi), pad)
    cu = spec.c_of(u)
    inner = _fine_derivative_values(phi.grid, pad, cu * ux)
    flux = u**3 + cu * inner
    out = transform_from_padded(phi.grid, flux, phi.time)
    return out.with_coeffs(out.coeffs * ixi)


def nonlinearity_split(
    phi: SpectralField, spec: CoefficientSpec, pad: int = 3
) -> tuple[SpectralField, SpectralField, SpectralField]:
    """(N3, N4, N5plus) with N3 + N4 + N5plus = nonlinearity_full.

    N3 = d_x( phi^3 + alpha2 (phi^2 phi_xx + phi phi_x^2) )
    N4 = alpha3 d_x( phi^2 d_x(phi phi_x) + phi d_x(phi^2 phi_x) )
    N5plus = N_full - N3 - N4   (so the decomposition is exact by construction)
    """
    u = padded_values(phi, pad)
    ux = padded_values(derivative(phi, 1), pad)
    uxx = padded_values(derivative(phi, 2), pad)

    flux3 = u**3 + spec.alpha2 * (u**2 * uxx + u * ux**2)
    n3 = derivative(transform_from_padded(phi.grid, flux3, phi.time), 1)

    if spec.alpha3 == 0.0:
        n4 = phi.with_coeffs(np.zeros_like(phi.coeffs))
    else:
        v1x = _fine_derivative_values(phi.grid, pad, u * ux)
        v2x = _fine_derivative_values(phi.grid, pad, u**2 * ux)
        flux4 = spec.alpha3 * (u**2 * v1x + u * v2x)
        n4 = derivative(transform_from_padded(phi.grid, flux4, phi.time), 1)

    full = nonlinearity_full(phi, spec, pad)
    n5 = full.with_coeffs(full.coeffs - n3.coeffs - n4.coeffs)
    return n3, n4, n5


def quintic_remainder_display(phi: SpectralField, spec: CoefficientSpec, pad: int = 3) -> SpectralField:
    """Closed-form quintic-and-higher remainder, valid when c3 == 0.

    For coefficient functions whose Taylor expansion stops at second order
    (c3 identically zero) the remainder reduces to d_x( q d_x( q d_x phi ) )
    with q = (1/2) c''(0) phi^2; used as a low-resolution consistency check
    against the subtraction route.
    """
    u = padded_values(phi, pad)
    ux = padded_values(derivative(phi, 1), pad)
    q = 0.5 * spec.c_doubleprime0() * u**2
    inner = _fine_derivative_values(phi.grid, pad, q * ux)
    return derivative(transform_from_padded(phi.grid, q * inner, phi.time), 1)


# ---------------------------------------------------------------------------
# Interaction symbols and phases
# ---------------------------------------------------------------------------


def symbol_t1(eta1, eta2, eta3, alpha2: float):
    """Symmetrized cubic interaction symbol.

    T1 = (alpha2/3) (eta1^2 + eta2^2 + eta3^2 + eta1 eta2 + eta1 eta3 + eta2 eta3) - 1.

    The frequencies are sorted pointwise before combining, which makes the
    six-fold argument symmetry hold bitwise (float addition commutes but does
    not associate, so a fixed evaluation order alone would not be exact).
    """
    t = np.stack(
        np.broadcast_arrays(
            np.asarray(eta1, dtype=np.float64),
            np.asarray(eta2, dtype=np.float64),
            np.asarray(eta3, dtype=np.float64),
        )
    )
    t.sort(axis=0)
    a, b, c = t[0], t[1], t[2]
    square = (a * a + b * b) + c * c
    cross = (a * b + a * c) + b * c
    return (alpha2 / 3.0) * (square + cross) - 1.0


def symbol_t1_d1(eta1, eta2, eta3, alpha2: float):
    """Partial derivative of symbol_t1 in its first argument."""
    return (alpha2 / 3.0) * (2.0 * eta1 + eta2 + eta3)


def symbol_t2(eta1, eta2, eta3, eta4):
    """Quadrilinear interaction symbol -2 eta1^2 - 2 eta1 eta2 - eta1 eta3."""
    del eta4  # the symbol happens not to involve the last frequency
    return -2.0 * eta1**2 - 2.0 * eta1 * eta2 - eta1 * eta3


def phase_phi(xi, eta1, eta2):
    """Cubic oscillation phase 3 (eta1+eta2) (xi-eta1) (xi-eta2).

    Equals xi^3 - (xi-eta1-eta2)^3 - eta1^3 - eta2^3.
    """
    return 3.0 * (eta1 + eta2) * (xi - eta1) * (xi - eta2)


def grad_phase_phi(xi, eta1, eta2):
    """Gradient of phase_phi in (eta1, eta2)."""
    g1 = 3.0 * (xi - eta2) * (xi - 2.0 * eta1 - eta2)
    g2 = 3.0 * (xi - eta1) * (xi - 2.0 * eta2 - eta1)
    return g1, g2


def phase_quartic(xi, eta1, eta2, eta3):
    """Quartic oscillation phase xi^3 - (xi-eta1-eta2-eta3)^3 - sum eta_i^3."""
    eta4 = xi - eta1 - eta2 - eta3
    return xi**3 - eta4**3 - eta1**3 - eta2**3 - eta3**3


def grad_phase_quartic(xi, eta1, eta2, eta3):
    """Gradient of phase_quartic in (eta1, eta2, eta3): 3 eta4^2 - 3 eta_i^2."""
    eta4 = xi - eta1 - eta2 - eta3
    return (
        3.0 * eta4**2 - 3.0 * eta1**2,
        3.0 * eta4**2 - 3.0 * eta2**2,
        3.0 * eta4**2 - 3.0 * eta3**2,
    )


@dataclass(frozen=True)
class ResonanceSet:
    """Stationary points of phase_phi(xi, .) for a fixed output frequency."""

    xi: float
    points: tuple = field(default=())

    @property
    def space_time(self) -> tuple:
        """The three points where the phase itself also vanishes."""
        return self.points[:3]

    @property
    def space_only(self) -> tuple:
        """The single stationary point with non-vanishing phase."""
        return self.points[3]


def resonance_points(xi: float) -> ResonanceSet:
    """The four stationary points of the cubic phase at output frequency xi.

    (xi, xi), (xi, -xi), (-xi, xi) are space-time resonances (phase zero);
    (xi/3, xi/3) is stationary with phase 8 xi^3 / 9.
    """
    if xi == 0.0:
        raise ZeroFrequency("resonance geometry undefined at xi = 0")
    pts = ((xi, xi), (xi, -xi), (-xi, xi), (xi / 3.0, xi / 3.0))
    return ResonanceSet(xi=xi, points=pts)


def _dyadic_s_infty(js: tuple[int, int, int], alpha2: float, which: str, n_axis: int) -> float:
    """S_infty of which(eta)*psi_{j1}(eta1)psi_{j2}(eta2)psi_{j3}(eta3).

    Both T1 and its first-argument derivative are short sums of monomials, so
    the cutoff product is a sum of tensor products of the per-axis factors
    psi, eta psi, eta^2 psi; the separable evaluator then reaches y-lattices
    far beyond what a dense 3D transform could hold in memory.
    """
    if which == "T1":
        third = alpha2 / 3.0
        terms = [
            (third, (2, 0, 0)),
            (third, (0, 2, 0)),
            (third, (0, 0, 2)),
            (third, (1, 1, 0)),
            (third, (1, 0, 1)),
            (third, (0, 1, 1)),
            (-1.0, (0, 0, 0)),
        ]
    else:
        terms = [
            (2.0 * alpha2 / 3.0, (1, 0, 0)),
            (alpha2 / 3.0, (0, 1, 0)),
            (alpha2 / 3.0, (0, 0, 1)),
        ]
    extents = tuple(4.0 * 2.0 * lp.SUPPORT_EDGE * 2.0**j for j in js)
    axes = tuple(
        GridSpec(n=n_axis, box_length=2.0 * np.pi * n_axis / extent) for extent in extents
    )
    coeffs = [c for c, _ in terms]
    factors = []
    for axis, (ax, j) in enumerate(zip(axes, js)):
        psi = lp.psi_k(ax.xi, j)
        factors.append(np.stack([psi * ax.xi ** powers[axis] for _, powers in terms]))
    return lp.s_infty_separable(axes, coeffs, factors)


def dyadic_symbol_bound(
    j1: int,
    j2: int,
    j3: int,
    alpha2: float,
    which: str = "T1",
    n_axis: int = 384,
    refine: bool = False,
):
    """Multiplier-norm ratio for the cubic symbol on a dyadic frequency cell.

    Computes S_infty( which(eta) * psi_{j1}(eta1) psi_{j2}(eta2) psi_{j3}(eta3) )
    divided by the dyadic reference weight: 2^{max(2 j1, 0)} for the symbol
    itself ("T1"), 2^{j1} for its first-argument derivative ("dT1").  The
    tensor grid extends 4x each cutoff's support per axis.  With refine=True
    a per-axis resolution-doubling report is returned instead of the bare
    ratio.
    """
    if not (j1 >= j2 >= j3):
        raise ValueError("requires j1 >= j2 >= j3")
    if which == "T1":
        ref = 2.0 ** max(2 * j1, 0)
    elif which == "dT1":
        ref = 2.0**j1
    else:
        raise ValueError(f"which must be 'T1' or 'dT1', got {which!r}")

    js = (j1, j2, j3)
    value = _dyadic_s_infty(js, alpha2, which, n_axis)
    if not refine:
        return value / ref
    fine = _dyadic_s_infty(js, alpha2, which, 2 * n_axis)
    rel = abs(fine - value) / max(abs(fine), 1e-300)
    return {
        "ratio": value / ref,
        "refined_ratio": fine / ref,
        "rel_change": rel,
    }


# ---------------------------------------------------------------------------
# Scaling vector field, weighted derivatives, conserved functionals
# ---------------------------------------------------------------------------


def scaling_field_direct(phi: SpectralField, t: float, spec: CoefficientSpec) -> SpectralField:
    """S phi = x d_x phi + 3 t d_t phi with d_t phi = -phi_xxx - N(phi).

    The x factor is the centered sawtooth coordinate, so the result is
    faithful only for fields concentrated well inside the box.
    """
    g = phi.grid
    ux = synthesize(derivative(phi, 1))
    out = transform(g, g.x * ux, phi.time)
    if t != 0.0:
        dt_phi = -derivative(phi, 3).coeffs - nonlinearity_full(phi, spec).coeffs
        out = out.with_coeffs(out.coeffs + 3.0 * t * dt_phi)
    return out


def weighted_derivative(phi: SpectralField, spec: CoefficientSpec, k: int, pad: int = 3) -> SpectralField:
    """k-th weighted derivative (c1(phi) d_x)^k phi on the padded grid."""
    if k < 0:
        raise ValueError("k must be >= 0")
    u = padded_values(phi, pad)
    c1 = spec.c1_of(u)
    w = u
    for _ in range(k):
        w = c1 * _fine_derivative_values(phi.grid, pad, w)
    return transform_from_padded(phi.grid, w, phi.time)


def weighted_norm_weight(phi: SpectralField, spec: CoefficientSpec, k: int, pad: int = 3) -> np.ndarray:
    """The companion weight c1(phi)^{-(k-1)/3} on the padded grid."""
    u = padded_values(phi, pad)
    return spec.c1_of(u) ** (-(k - 1) / 3.0)


def hamiltonian(phi: SpectralField, spec: CoefficientSpec, pad: int = 3) -> float:
    """Conserved energy integral H = int -phi^4/4 + (c(phi)^2 + 1) phi_x^2 / 2 dx."""
    u = np.real(padded_values(phi, pad))
    ux = np.real(padded_values(derivative(phi, 1), pad))
    integrand = -0.25 * u**4 + 0.5 * (spec.c_of(u) ** 2 + 1.0) * ux**2
    fine_dx = phi.grid.box_length / (pad * phi.grid.n)
    return float(fine_dx * np.sum(integrand))


def mass(phi: SpectralField) -> float:
    """Conserved mass int phi dx = 2 pi * phihat(0)."""
    return float(2.0 * np.pi * np.real(phi.coeffs[0]))
