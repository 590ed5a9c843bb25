"""The algebraic facts behind the space-time resonance argument, each checked once.

The factored cubic phase and its local form, the symmetry and reduced form of
T1, the stationary points of the phase, spot values of T2, the Littlewood-Paley
partition of unity, and the commutators of S = x d_x + 3t d_t.  Each function
returns its largest error on the inputs it is given, in the scale its tolerance
uses; :func:`run` draws the ``identities`` study's inputs.
"""

from __future__ import annotations

import numpy as np

from . import littlewood_paley as lp
from .model import (CoefficientSpec, grad_phase_phi, phase_phi, resonance_points, scaling_field_direct, symbol_t1,
                    symbol_t2)
from .rng import SplitMix64
from .spectral_core import GridSpec, derivative, norm, synthesize, transform

__all__ = ["phase_factorization_error", "local_phase_residual", "t1_symmetry_error", "t1_reduced_form_error",
           "resonance_errors", "t2_spot_error", "partition_error", "commutator_errors", "run"]

_T2_SPOTS = (((1.0, 1.0, 1.0, 0.0), -5.0), ((1.0, 0.0, 0.0, 0.0), -2.0), ((0.0, 3.0, -2.0, 1.0), 0.0),
             ((2.0, 1.0, -1.0, 5.0), -10.0), ((0.0, 5.0, -3.0, 2.0), 0.0))


def _largest(errors: list) -> float:
    """max(errors), or NaN when one is NaN (Python's max can drop a NaN)."""
    return float("nan") if any(e != e for e in errors) else max(errors)


def phase_factorization_error(xi, eta1, eta2) -> float:
    """Phi against xi^3 - eta3^3 - eta1^3 - eta2^3, eta3 = xi - eta1 - eta2, relative to max(1, sum of |cubes|)."""
    eta3 = xi - eta1 - eta2
    expanded = xi**3 - eta3**3 - eta1**3 - eta2**3
    scale = np.maximum(1.0, np.abs(xi) ** 3 + np.abs(eta1) ** 3 + np.abs(eta2) ** 3 + np.abs(eta3) ** 3)
    return float(np.max(np.abs(phase_phi(xi, eta1, eta2) - expanded) / scale))


def local_phase_residual(xi: float, z1: float, z2: float) -> float:
    """Phi(xi, xi+z1, xi+z2) - 6 xi z1 z2 - 3 (z1+z2) z1 z2; identically zero."""
    return float(phase_phi(xi, xi + z1, xi + z2) - 6.0 * xi * z1 * z2 - 3.0 * (z1 + z2) * z1 * z2)


def t1_symmetry_error(eta1, eta2, eta3, alpha2: float) -> float:
    """Largest change of T1 under the five other orders of its arguments; 0.0 when bitwise symmetric."""
    base = symbol_t1(eta1, eta2, eta3, alpha2)
    orders = ((eta1, eta3, eta2), (eta2, eta1, eta3), (eta2, eta3, eta1), (eta3, eta1, eta2), (eta3, eta2, eta1))
    return _largest([float(np.max(np.abs(symbol_t1(*p, alpha2) - base))) for p in orders])


def t1_reduced_form_error(xi, eta1, eta2, alpha2: float) -> float:
    """T1 at eta3 = xi - eta1 - eta2 against (alpha2/6)(eta1^2 + eta2^2 + eta3^2 + xi^2) - 1,
    relative to max(1, |reduced form|)."""
    eta3 = xi - eta1 - eta2
    reduced = (alpha2 / 6.0) * ((eta1**2 + eta2**2 + eta3**2) + xi**2) - 1.0
    return float(np.max(np.abs(symbol_t1(eta1, eta2, eta3, alpha2) - reduced) / np.maximum(1.0, np.abs(reduced))))


def resonance_errors(xi: float) -> tuple:
    """At the four stationary points of Phi(xi, .): the largest gradient component
    relative to max(1, xi^2), and the largest error of Phi (0 at the three
    space-time resonances, 8 xi^3 / 9 at the space-only point) relative to max(1, |xi|^3)."""
    rs = resonance_points(xi)
    grad = _largest([abs(g) for p in rs.points for g in grad_phase_phi(xi, *p)]) / max(1.0, xi * xi)
    targets = [(p, 0.0) for p in rs.space_time] + [(rs.space_only, 8.0 * xi**3 / 9.0)]
    return grad, _largest([abs(phase_phi(xi, *p) - want) for p, want in targets]) / max(1.0, abs(xi) ** 3)


def t2_spot_error() -> float:
    """Largest |T2(eta1, eta2, eta3, eta4) - value| over the tabulated ((eta1, ..., eta4), value) spots."""
    return _largest([abs(symbol_t2(*pt) - want) for pt, want in _T2_SPOTS])


def partition_error(xs, k_low: int, k_high: int) -> float:
    """Largest |psi_{<=k_low} + sum over k_low < k <= k_high of psi_k - 1| on xs."""
    total = lp.psi_le(xs, k_low)
    for k in range(k_low + 1, k_high + 1):
        total = total + lp.psi_k(xs, k)
    return float(np.max(np.abs(total - 1.0)))


def commutator_errors(grid: GridSpec, u: np.ndarray, spec: CoefficientSpec) -> tuple:
    """For real samples u concentrated away from the box seam, at t = 0, the L2
    errors relative to the right side of [S, d_x] = -d_x and [S, d_x^3] = -3 d_x^3
    (spectrally), and of d_x(3 u^2 S u) - x d_x^2 (u^3) = 3 u^2 u_x (on the grid)."""
    f = transform(grid, u)
    s_f = scaling_field_direct(f, spec)
    errors = []
    for order, factor in ((1, 1.0), (3, 3.0)):
        lhs = scaling_field_direct(derivative(f, order), spec).coeffs - derivative(s_f, order).coeffs
        rhs = -factor * derivative(f, order).coeffs
        errors.append(norm(f.with_coeffs(lhs - rhs), "L2") / norm(f.with_coeffs(rhs), "L2"))
    ux = synthesize(derivative(f, 1))
    term1 = derivative(transform(grid, 3.0 * u**2 * (grid.x * ux)), 1)
    lhs_c = synthesize(term1) - grid.x * synthesize(derivative(transform(grid, u**3), 2))
    rhs_c = 3.0 * u**2 * ux
    return (*errors, float(np.sqrt(np.sum(np.abs(lhs_c - rhs_c) ** 2)) / np.sqrt(np.sum(np.abs(rhs_c) ** 2))))


def run(seed: int, samples: int, grid: GridSpec, spec: CoefficientSpec) -> list:
    """Every check on inputs drawn from SplitMix64(seed), the commutators on
    e^{-x^2} sampled on ``grid``: records {name, max_error, tolerance, passed}, sorted by name."""
    rng = SplitMix64(seed)
    xi, e1, e2 = (rng.uniforms(samples, -20.0, 20.0) for _ in range(3))
    xr, a1, a2 = (rng.uniforms(samples, -10.0, 10.0) for _ in range(3))
    magnitude, coin = rng.uniforms(1000).reshape(500, 2).T  # drawn in turn for each frequency
    signed = (0.05 + (8.0 - 0.05) * magnitude) * np.where(coin < 0.5, 1.0, -1.0)
    grad_err, phase_err = map(_largest, zip(*[resonance_errors(x) for x in signed.tolist()]))
    local = []
    for x, z1, z2 in rng.uniforms(6000, -5.0, 5.0).reshape(2000, 3).tolist():
        denom = max(1.0, abs(x) ** 3, abs(z1) ** 3, abs(z2) ** 3)
        local += [abs(local_phase_residual(x, z1, z2)) / denom, abs(local_phase_residual(x, z1, 0.0))]
    c1, c3, cc = commutator_errors(grid, np.exp(-(grid.x**2)), spec)
    checks = {  # name: (max error, tolerance)
        "phase_factorization": (phase_factorization_error(xi, e1, e2), 1e-12),
        "t1_symmetry": (t1_symmetry_error(e1, e2, xi - e1 - e2, spec.alpha2), 0.0),
        "t1_reduced_form": (t1_reduced_form_error(xr, a1, a2, spec.alpha2), 1e-12),
        "resonance_gradients": (grad_err, 1e-12),
        "resonance_phase_values": (phase_err, 1e-12),
        "local_phase_residual": (_largest(local), 1e-12),
        "t2_spot_values": (t2_spot_error(), 1e-12),
        "lp_partition": (partition_error(np.linspace(-256.0, 256.0, 4001), 0, 8), 1e-12),
        "commutator_s_dx": (c1, 1e-8),
        "commutator_s_dx3": (c3, 1e-8),
        "commutator_cubic": (cc, 1e-8),
    }
    return [{"name": name, "max_error": float(err), "tolerance": tol, "passed": bool(err <= tol)}
            for name, (err, tol) in sorted(checks.items())]
