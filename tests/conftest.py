"""Shared fixtures and field builders for the test suite."""

import numpy as np
import pytest

from qmkdv.model import CoefficientSpec, nonlinearity_full
from qmkdv.rng import SplitMix64
from qmkdv.spectral_core import (
    GridSpec,
    SpectralField,
    derivative,
    synthesize,
    transform,
    transform_from_padded,
)


@pytest.fixture
def grid():
    """Medium grid wide enough for Gaussians of O(1) width."""
    return GridSpec(n=256, box_length=40.0)


@pytest.fixture
def wide_grid():
    """Finer, wider grid for quadrature-grade comparisons."""
    return GridSpec(n=1024, box_length=120.0)


def real_zero_mean_head(z: np.ndarray) -> np.ndarray:
    """c_0 .. c_{n/2-1} of the real zero-mean part of n coefficients z in FFT
    order: c_j = (z_j + conj(z_{-j}))/2, c_0 = 0."""
    h = z.size // 2
    c = 0.5 * (z[:h] + np.conj(z[-np.arange(h)]))
    c[0] = 0.0
    return c


def random_real_field(grid: GridSpec, seed: int, decay: float = 1.0) -> SpectralField:
    """Random real zero-mean field with exponentially decaying spectrum: the
    real zero-mean part of (normal + i normal) * exp(-|xi|/decay), drawn at
    each of the n frequencies in FFT order, a generic smooth real field."""
    rng = SplitMix64(seed)
    z = np.array([rng.normal() + 1j * rng.normal() for _ in range(grid.n)])
    return SpectralField(grid, real_zero_mean_head(z * np.exp(-np.abs(grid.xi) / decay)))


def band_spectrum(c: np.ndarray) -> np.ndarray:
    """The 2 h - 1 coefficients at j = -(h-1) .. h-1, frequency-sorted, of the
    real field whose c_0 .. c_{h-1} are `c`: c_{-j} = conj(c_j).  After
    convolving r of them, entry k sits at frequency (k - r (h-1)) dxi."""
    return np.concatenate((np.conj(c[:0:-1]), c))


def gaussian_field(grid: GridSpec, amplitude: float, width: float) -> SpectralField:
    return transform(grid, amplitude * np.exp(-((grid.x / width) ** 2)))


def symbol_t1_d1(eta1, eta2, eta3, alpha2: float):
    """dT1/d eta1 = (alpha2/3)(2 eta1 + eta2 + eta3): the oracle for the
    model's "dT1" dyadic cells."""
    return (alpha2 / 3.0) * (2.0 * eta1 + eta2 + eta3)


def c_doubleprime0(spec: CoefficientSpec) -> float:
    """c''(0) of the family's c: 2b for "cubic_poly", 0 for "linear" and "sine"."""
    return 2.0 * spec.b if spec.family == "cubic_poly" else 0.0


def alpha3(spec: CoefficientSpec) -> float:
    """The quartic coefficient (1/2) c''(0) c'(0); zero for "linear" and "sine"."""
    return 0.5 * c_doubleprime0(spec) * spec.c_prime_of(0.0)


def padded_values(f: SpectralField, pad_factor: int, order: int = 0) -> np.ndarray:
    """d_x^order of a real field on a pad_factor-refined grid (float64), in a
    fresh array: the oracle for the model's workspace rows, bitwise the
    samples of padded_values(derivative(f, order), pad_factor).
    """
    if pad_factor < 2:
        raise ValueError("pad_factor must be >= 2")
    g = f.grid
    h = g.n // 2
    m = pad_factor * g.n
    half = np.zeros(m // 2 + 1, dtype=np.complex128)
    half[:h] = f.coeffs
    if order:
        half[:h] *= (1j * g.half_xi) ** order
    odd = half[1:h:2]
    np.negative(odd, out=odd)
    return np.fft.irfft(half, m) * (m * g.dxi)


def phase_rows(w: np.ndarray, n: int) -> np.ndarray:
    """Samples in the refined grid's natural order as the (pad, n) phase rows
    `transform_from_padded` takes: row r holds the points q * pad + r."""
    return w.reshape(n, -1).T


def natural_order(rows: np.ndarray) -> np.ndarray:
    """(pad, n) phase rows back in the refined grid's natural order."""
    return rows.T.reshape(-1)


def assert_matches_oracle(got: np.ndarray, want: np.ndarray) -> None:
    """got equals the m-point oracle to 1e-13 of its largest value: the padded
    products are formed on n-point phase rows, the same sums as the oracle's
    m-point transforms in exact arithmetic but in another order (at most
    1.2e-15 of the largest value in the tests), so not bitwise."""
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def fine_derivative_values(grid: GridSpec, pad: int, w: np.ndarray) -> np.ndarray:
    """d_x of real samples on the pad-refined grid, taken spectrally there."""
    fine = GridSpec(pad * grid.n, grid.box_length)
    return synthesize(derivative(transform(fine, w), 1))


def nonlinearity_split(
    phi: SpectralField, spec: CoefficientSpec
) -> tuple[SpectralField, SpectralField, SpectralField]:
    """(N3, N4, N5plus) with N3 + N4 + N5plus = nonlinearity_full: the oracle
    for the model's nonlinearity, each piece assembled from its own Taylor
    form rather than from c(phi), at the family's padding factor spec.pad.

    N3 = d_x( phi^3 + alpha2 (phi^2 phi_xx + phi phi_x^2) )
    N4 = alpha3 d_x( phi^2 d_x(phi phi_x) + phi d_x(phi^2 phi_x) )
    N5plus = N_full - N3 - N4   (so the decomposition is exact by construction)
    """
    pad = spec.pad
    u = padded_values(phi, pad)
    ux = padded_values(derivative(phi, 1), pad)
    uxx = padded_values(derivative(phi, 2), pad)

    u2 = u * u
    flux3 = u2 * u + spec.alpha2 * (u2 * uxx + u * (ux * ux))
    n3 = derivative(transform_from_padded(phi.grid, phase_rows(flux3, phi.grid.n), phi.time), 1)

    if alpha3(spec) == 0.0:
        n4 = phi.with_coeffs(np.zeros_like(phi.coeffs))
    else:
        v1x = fine_derivative_values(phi.grid, pad, u * ux)
        v2x = fine_derivative_values(phi.grid, pad, u2 * ux)
        flux4 = alpha3(spec) * (u2 * v1x + u * v2x)
        n4 = derivative(transform_from_padded(phi.grid, phase_rows(flux4, phi.grid.n), phi.time), 1)

    full = nonlinearity_full(phi, spec)
    n5 = full.with_coeffs(full.coeffs - n3.coeffs - n4.coeffs)
    return n3, n4, n5
