"""The quasilinear mKdV right-hand side and its interaction structure.

The evolution equation is

    phi_t + phi_xxx + d_x(phi^3) + d_x( c(phi) d_x( c(phi) d_x phi ) ) = 0,

with a coefficient function c vanishing at 0.  The interaction analysis
depends only on the first Taylor data of c through

    alpha2 = c'(0)^2,        alpha3 = (1/2) c''(0) c'(0).

This module supplies the nonlinearity N(phi) (divergence form, so its zero
mode vanishes exactly; the flux by the product rule from the padded samples
of phi, phi_x and phi_xx at the padding factor `CoefficientSpec.pad`, which
the family of c sets), the trilinear and quadrilinear interaction
symbols, the cubic phase with its resonance geometry, dyadic multiplier
bounds for the cubic symbol and its first-argument derivative from one table
of monomials, the field S = x d_x + 3t d_t, and the mass and Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import littlewood_paley as lp
from .spectral_core import (
    GridSpec,
    SpectralField,
    _padded_rows,
    derivative,
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
    "symbol_t1",
    "symbol_t2",
    "phase_phi",
    "grad_phase_phi",
    "resonance_points",
    "dyadic_symbol_bound",
    "scaling_field_direct",
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

    def c_of(self, v, out=None):
        """c(v), written into `out` when given (an array shaped like v)."""
        if self.family == "linear":
            return np.multiply(self.a, v, out=out)
        if self.family == "sine":
            return np.sin(np.multiply(self.a, v, out=out), out=out)
        if self.c == 0.0:  # v * (a + b * v): the form below bitwise, as b + c * v = b
            w = np.multiply(self.b, v, out=out)
            return np.multiply(v, np.add(self.a, w, out=out), out=out)
        # v * (a + v * (b + c * v)), operation for operation
        w = np.multiply(self.c, v, out=out)
        w = np.multiply(v, np.add(self.b, w, out=out), out=out)
        return np.multiply(v, np.add(self.a, w, out=out), out=out)

    def c_prime_of(self, v, out=None):
        """c'(v), written into `out` when given; a scalar for the linear family."""
        if self.family == "linear":
            return self.a
        if self.family == "sine":
            return np.multiply(self.a, np.cos(np.multiply(self.a, v, out=out), out=out), out=out)
        if self.c == 0.0:  # a + v * 2b: the form below bitwise, as 2b + 3c * v = 2b
            return np.add(self.a, np.multiply(v, 2.0 * self.b, out=out), out=out)
        # a + v * (2b + 3c * v), operation for operation
        w = np.multiply(3.0 * self.c, v, out=out)
        return np.add(self.a, np.multiply(v, np.add(2.0 * self.b, w, out=out), out=out), out=out)

    @property
    def alpha2(self) -> float:
        return self.a**2  # c'(0) = a in every family

    @property
    def pad(self) -> int:
        """N(phi)'s padding factor: 2 for "linear", whose flux has degree 3, and
        3 otherwise, alias-free for `cubic_poly` with c = 0 (degree 5)."""
        return 2 if self.family == "linear" else 3


@dataclass(frozen=True)
class BootstrapConstants:
    """The fixed small parameters every windowed diagnostic shares.  The code
    reads the single instance :data:`BOOTSTRAP`, which the refusals check at import."""

    delta: float = 1e-3
    p1: float = 1e-3
    gamma_l: float = 0.0
    gamma_h: float = 2.5
    s: float = 12.0
    decay_exponent: float = 0.48

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ValueError("delta must be positive")
        if not self.s + 1.0 - 2.0 * self.gamma_h > 0.0:
            raise ValueError("requires s + 1 - 2 gamma_h > 0, the denominator of the p1 bound")
        if self.p1 < 2.0 * self.p0 / (self.s + 1.0 - 2.0 * self.gamma_h):
            raise ValueError("p1 too small: requires p1 >= 2 p0 / (s + 1 - 2 gamma_h)")

    @property
    def p0(self) -> float:
        """Tied to delta: p0 = delta/10."""
        return self.delta / 10.0


BOOTSTRAP = BootstrapConstants()


# ---------------------------------------------------------------------------
# Nonlinearity
# ---------------------------------------------------------------------------


def nonlinearity_full(phi: SpectralField, spec: CoefficientSpec) -> SpectralField:
    """N(phi) = d_x( phi^3 + c(phi) d_x( c(phi) d_x phi ) ) for a real field phi.

    The flux is phi^3 + c(phi) (c'(phi) phi_x^2 + c(phi) phi_xx) by the
    product rule, formed in real arithmetic, pointwise and so in any layout,
    in place on this thread's plan rows for (n, L, pad) at the family's
    padding factor ``spec.pad`` (see `spectral_core`): the samples of phi,
    phi_x and phi_xx from one batched n-point inverse real FFT, c(u) and
    c'(u) in the caller's two rows, one batched forward FFT of the flux and
    the plan's i xi on the truncated spectrum, in place; no derivative is
    taken on the refined grid.  For c of degree d the flux has degree
    2d + 1, and pad p leaves a product of degree at most 2p - 1 alias-free:
    `linear` (d = 1) at its pad 2 and `cubic_poly` with c = 0 (d = 2) at its
    pad 3, which covers every default.  At pad 3 `cubic_poly` with c != 0
    (degree 7) and `sine` (not a polynomial) alias; the test-suite measures
    them against pad 8.  The outer d_x acts after truncation, so the zero
    mode of the output vanishes exactly.
    """
    plan = _padded_rows(phi, spec.pad, (0, 1, 2))
    u, ux, uxx, cu, cpu = plan.rows
    spec.c_of(u, out=cu)
    # flux = u*u*u + cu*(c'(u)*(ux*ux) + cu*uxx), in place, operand for operand
    ux *= ux
    ux *= spec.c_prime_of(u, out=cpu)
    ux += np.multiply(cu, uxx, out=uxx)
    ux *= cu
    ux += np.multiply(np.multiply(u, u, out=uxx), u, out=uxx)
    out = transform_from_padded(phi.grid, ux, phi.time)
    np.multiply(out.coeffs, plan.ixi, out=out.coeffs)
    return out


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


# T1 = (alpha2/3) sum_m k_m eta^{p_m} - 1, by the integer weight k_m and the powers p_m of each monomial
_T1 = ((1, (2, 0, 0)), (1, (0, 2, 0)), (1, (0, 0, 2)), (1, (1, 1, 0)), (1, (1, 0, 1)), (1, (0, 1, 1)))
# which: (monomials of the alpha2/3 part, constant, reference weight at j1); dT1's are T1's differentiated in eta1
_SYMBOLS = {
    "T1": (_T1, -1.0, lambda j1: 2.0 ** max(2 * j1, 0)),
    "dT1": (tuple((k * p[0], (p[0] - 1, *p[1:])) for k, p in _T1 if p[0]), 0.0, lambda j1: 2.0**j1),
}


def _terms(monomials, constant: float, alpha2: float):
    """The coefficients (k_m alpha2) / 3 and a nonzero constant, and their powers, for `lp.s_infty_separable`."""
    terms = [((k * alpha2) / 3.0, p) for k, p in monomials] + ([(constant, (0, 0, 0))] if constant else [])
    return [c for c, _ in terms], [p for _, p in terms]


def _cell_axes(js, n_axis: int):
    """One n_axis-point axis per band j of the cell, spanning 4x the support of psi_j."""
    return tuple(GridSpec(n=n_axis, box_length=2.0 * np.pi * n_axis / (4.0 * 2.0 * lp.SUPPORT_EDGE * 2.0**j)) for j in js)


def dyadic_symbol_bound(
    j1: int,
    j2: int,
    j3: int,
    alpha2: float,
    n_axis: int,
    which: str = "T1",
    refine: bool = False,
):
    """Multiplier-norm ratio for the cubic symbol on a dyadic frequency cell.

    Computes S_infty( which(eta) * psi_{j1}(eta1) psi_{j2}(eta2) psi_{j3}(eta3) )
    divided by the dyadic reference weight: 2^{max(2 j1, 0)} for the symbol
    itself ("T1"), 2^{j1} for its first-argument derivative ("dT1"), both
    sums of `_SYMBOLS` monomials.  Each axis spans 4x its cutoff's support, in
    n_axis points.  With refine=True a per-axis resolution-doubling report is
    returned instead of the bare ratio.
    """
    if not (j1 >= j2 >= j3):
        raise ValueError("requires j1 >= j2 >= j3")
    try:
        monomials, constant, weight = _SYMBOLS[which]
    except KeyError:
        raise ValueError(f"which must be 'T1' or 'dT1', got {which!r}") from None
    ref = weight(j1)
    js = (j1, j2, j3)
    coeffs, powers = _terms(monomials, constant, alpha2)
    value = lp.s_infty_separable(_cell_axes(js, n_axis), coeffs, powers, js)
    if not refine:
        return value / ref
    fine = lp.s_infty_separable(_cell_axes(js, 2 * n_axis), coeffs, powers, js)
    rel = abs(fine - value) / max(abs(fine), 1e-300)
    return {
        "ratio": value / ref,
        "refined_ratio": fine / ref,
        "rel_change": rel,
    }


# ---------------------------------------------------------------------------
# Scaling vector field, conserved functionals
# ---------------------------------------------------------------------------


def scaling_field_direct(phi: SpectralField, spec: CoefficientSpec) -> SpectralField:
    """S phi = x d_x phi + 3 t d_t phi at t = phi.time, with d_t phi = -phi_xxx - N(phi).

    phi is a real field; the x factor is the centered sawtooth coordinate,
    so the result is faithful only for fields concentrated well inside the
    box.
    """
    g = phi.grid
    ux = synthesize(derivative(phi, 1))
    out = transform(g, g.x * ux, phi.time)
    if phi.time != 0.0:
        dt_phi = -derivative(phi, 3).coeffs - nonlinearity_full(phi, spec).coeffs
        out = out.with_coeffs(out.coeffs + 3.0 * phi.time * dt_phi)
    return out


def hamiltonian(phi: SpectralField, spec: CoefficientSpec) -> float:
    """Conserved energy H = int -phi^4/4 + (c(phi)^2 + 1) phi_x^2 / 2 dx, formed in place in the plan's rows."""
    u, ux, u2, cu, _ = _padded_rows(phi, spec.pad, (0, 1)).rows
    # integrand = -0.25 * (u2 * u2) + 0.5 * (cu * cu + 1.0) * (ux * ux), u2 = u * u, cu = c(u)
    np.multiply(u, u, out=u2)
    np.multiply(-0.25, np.multiply(u2, u2, out=u2), out=u2)
    np.multiply(spec.c_of(u, out=cu), cu, out=cu)
    np.multiply(0.5, np.add(cu, 1.0, out=cu), out=cu)
    u2 += np.multiply(cu, np.multiply(ux, ux, out=ux), out=ux)
    return float(phi.grid.box_length / u.size * np.sum(u2))


def mass(phi: SpectralField) -> float:
    """Conserved mass int phi dx = 2 pi * phihat(0)."""
    return float(2.0 * np.pi * np.real(phi.coeffs[0]))
