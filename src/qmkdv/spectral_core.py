"""Periodic pseudo-spectral calculus on a centered box.

The continuum convention matched throughout is

    f(x) = int fhat(xi) e^{i xi x} dxi,    fhat(xi) = (1/2pi) int f(x) e^{-i xi x} dx,

discretized on the centered grid x_m = -L/2 + m*dx (m = 0..n-1, dx = L/n)
with represented frequencies xi_j = (2pi/L)*j, j = -n/2..n/2-1, so that

    f(x_m) = dxi * sum_j fhat_j e^{i xi_j x_m},        dxi = 2pi/L.

With these weights grid sums approximate whole-line integrals for fields
concentrated inside the box; Parseval reads

    dx * sum_m |f(x_m)|^2 = 2pi * dxi * sum_j |fhat_j|^2.

Coefficients are stored in FFT order (j = 0..n/2-1, -n/2..-1).  Relative to
numpy's transforms the centered grid contributes a phase (-1)^j, which by
evenness of n equals (-1)^k for the raw array index k, so analysis/synthesis
reduce to one FFT plus a parity sign and a scale.  The parity is applied by
negating the odd entries of a copy, not by multiplying with a sign array;
`GridSpec.parity` remains as the explicit form of the same sign.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "SpectralField",
    "GridMismatch",
    "NonZeroMean",
    "transform",
    "synthesize",
    "values",
    "field_from_coefficients",
    "derivative",
    "fractional_abs_derivative",
    "antiderivative",
    "profile_from_solution",
    "free_evolve",
    "norm",
    "xi_l2_norm",
    "pointwise_product",
    "padded_values",
    "transform_from_padded",
    "xi_derivative_coefficients",
    "enforce_real_zero_mean",
    "hermitian_defect",
    "mass_fraction_inside",
    "save_snapshot",
    "load_snapshot",
]


class GridMismatch(ValueError):
    """Two fields do not share the same grid."""


class NonZeroMean(ValueError):
    """Operation requires a zero-mean field (vanishing zero mode)."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: `n` points on a box of length `box_length`."""

    n: int
    box_length: float

    def __post_init__(self):
        if self.n < 16 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 16, got {self.n}")
        if not self.box_length > 0:
            raise ValueError("box_length must be positive")

    @property
    def dx(self) -> float:
        return self.box_length / self.n

    @property
    def dxi(self) -> float:
        return 2.0 * np.pi / self.box_length

    @property
    def x(self) -> np.ndarray:
        """Centered collocation points x_m = -L/2 + m*dx."""
        return -0.5 * self.box_length + self.dx * np.arange(self.n)

    @property
    def xi(self) -> np.ndarray:
        """Frequencies xi_j in FFT order."""
        return self.dxi * self.n * np.fft.fftfreq(self.n)

    @property
    def parity(self) -> np.ndarray:
        """(-1)^j in FFT order (equal to (-1)^index for even n)."""
        return np.where(np.arange(self.n) % 2 == 0, 1.0, -1.0)


@functools.lru_cache(maxsize=4)
def _multipliers(n: int, box_length: float, pad: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i*xi on the n-point grid, i*xi on its pad-refined grid, i*xi^3 on the
    n-point grid), read-only.

    Memoized for the time-stepping hot path only (the nonlinearity and the
    Lawson step), which evaluates them thousands of times on one grid.
    GridSpec's own properties stay uncached: a cache there would also keep
    the large one-shot grids of the quadrature studies alive.
    """
    xi = GridSpec(n, box_length).xi
    out = (1j * xi, 1j * GridSpec(pad * n, box_length).xi, 1j * xi**3)
    for a in out:
        a.flags.writeable = False
    return out


@dataclass(frozen=True)
class SpectralField:
    """Immutable value: coefficients (FFT order) on a grid at time `time`."""

    grid: GridSpec
    coeffs: np.ndarray
    time: float = 0.0

    def with_coeffs(self, coeffs: np.ndarray, time: float | None = None) -> "SpectralField":
        return SpectralField(self.grid, coeffs, self.time if time is None else time)


def field_from_coefficients(grid: GridSpec, coeffs: np.ndarray, time: float = 0.0) -> SpectralField:
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.shape != (grid.n,):
        raise GridMismatch(f"expected {grid.n} coefficients, got shape {c.shape}")
    return SpectralField(grid, c, time)


def _alternate_signs(a: np.ndarray) -> np.ndarray:
    """A copy of `a` times (-1)^k: the odd entries negated, no sign array built."""
    out = a.copy()
    odd = out[1::2]
    np.negative(odd, out=odd)
    return out


def transform(grid: GridSpec, u, time: float = 0.0) -> SpectralField:
    """Analyze physical samples on the centered grid into coefficients."""
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (grid.n,):
        raise GridMismatch(f"expected {grid.n} samples, got shape {u.shape}")
    scale = grid.box_length / (2.0 * np.pi * grid.n)
    return SpectralField(grid, _alternate_signs(scale * np.fft.fft(u)), time)


def synthesize(f: SpectralField) -> np.ndarray:
    """Evaluate the field at the grid points (complex samples)."""
    g = f.grid
    return np.fft.ifft(_alternate_signs(f.coeffs)) * (g.n * g.dxi)


def values(f: SpectralField) -> np.ndarray:
    """Real part of the synthesis — physical samples of a real-valued field."""
    return np.real(synthesize(f))


def derivative(f: SpectralField, n: int) -> SpectralField:
    """n-th spatial derivative: multiplier (i*xi)^n."""
    if n < 0:
        raise ValueError("derivative order must be >= 0")
    return f.with_coeffs(f.coeffs * (1j * f.grid.xi) ** n)


def fractional_abs_derivative(f: SpectralField, beta: float) -> SpectralField:
    """|partial_x|^beta: multiplier |xi|^beta."""
    if not 0.0 <= beta <= 3.0:
        raise ValueError("beta must lie in [0, 3]")
    return f.with_coeffs(f.coeffs * np.abs(f.grid.xi) ** beta)


MEAN_TOLERANCE = 1e-10


def _require_zero_mean(f: SpectralField) -> None:
    """Raise NonZeroMean unless the zero mode is below MEAN_TOLERANCE of the
    largest coefficient (or of 1, if that is larger)."""
    scale = np.max(np.abs(f.coeffs))
    if np.abs(f.coeffs[0]) > MEAN_TOLERANCE * max(1.0, scale):
        raise NonZeroMean(f"zero mode {f.coeffs[0]:.3e} exceeds tolerance")


def antiderivative(f: SpectralField) -> SpectralField:
    """Inverse of `derivative(.., 1)` on zero-mean fields: division by i*xi."""
    _require_zero_mean(f)
    xi = f.grid.xi.astype(np.complex128)
    xi[0] = 1.0  # avoid 0/0; the zero mode is forced to zero below
    out = f.coeffs / (1j * xi)
    out[0] = 0.0
    return f.with_coeffs(out)


def profile_from_solution(phi: SpectralField, t: float) -> SpectralField:
    """Factor out the Airy group: hhat(xi) = e^{-i t xi^3} phihat(xi)."""
    return phi.with_coeffs(np.exp(-1j * t * phi.grid.xi**3) * phi.coeffs, time=t)


def free_evolve(h: SpectralField, t: float) -> SpectralField:
    """Airy evolution of a profile: phihat(xi) = e^{+i t xi^3} hhat(xi)."""
    return h.with_coeffs(np.exp(1j * t * h.grid.xi**3) * h.coeffs, time=t)


def norm(f: SpectralField, kind: str, s: float | None = None) -> float:
    """Norms in the conventions above.

    kind = "L2":   sqrt(dx * sum |f|^2)            (physical L^2, via Parseval)
    kind = "Linf": max |f| over the grid
    kind = "L1":   dx * sum |f| over the grid
    kind = "Hs":   sqrt(2pi * dxi * sum (1+xi^2)^s |fhat|^2); requires s.

    The 2pi in "Hs" is Parseval's constant for this transform pair, so that
    Hs with s=0 coincides with "L2".
    """
    g = f.grid
    if kind == "L2":
        return float(np.sqrt(2.0 * np.pi * g.dxi * np.sum(np.abs(f.coeffs) ** 2)))
    if kind == "Linf":
        return float(np.max(np.abs(synthesize(f))))
    if kind == "L1":
        return float(g.dx * np.sum(np.abs(synthesize(f))))
    if kind == "Hs":
        if s is None:
            raise ValueError("kind='Hs' requires s")
        if not -1.0 <= s <= 14.0:
            raise ValueError("s must lie in [-1, 14]")
        w = (1.0 + g.xi**2) ** s
        return float(np.sqrt(2.0 * np.pi * g.dxi * np.sum(w * np.abs(f.coeffs) ** 2)))
    raise ValueError(f"unknown norm kind {kind!r}")


def xi_l2_norm(a: np.ndarray, grid: GridSpec) -> float:
    """Plain frequency-side L^2 norm sqrt(dxi * sum |a_j|^2)."""
    return float(np.sqrt(grid.dxi * np.sum(np.abs(a) ** 2)))


def _padded_coeffs(f: SpectralField, m: int) -> np.ndarray:
    n = f.grid.n
    out = np.zeros(m, dtype=np.complex128)
    out[: n // 2] = f.coeffs[: n // 2]
    out[m - n // 2 :] = f.coeffs[n // 2 :]
    return out


def padded_values(f: SpectralField, pad_factor: int) -> np.ndarray:
    """Evaluate the trigonometric polynomial on a pad_factor-refined grid."""
    if pad_factor < 1:
        raise ValueError("pad_factor must be >= 1")
    g = f.grid
    m = pad_factor * g.n
    return np.fft.ifft(_alternate_signs(_padded_coeffs(f, m))) * (m * g.dxi)


def transform_from_padded(grid: GridSpec, w: np.ndarray, time: float = 0.0) -> SpectralField:
    """Analyze samples from a refined grid and truncate to `grid`'s band."""
    m = w.shape[0]
    if m % grid.n != 0:
        raise GridMismatch("padded length must be a multiple of grid.n")
    scale = grid.box_length / (2.0 * np.pi * m)
    chat = np.fft.fft(np.asarray(w, dtype=np.complex128))
    n = grid.n
    # m - n is even, so every kept entry keeps the parity of its index
    kept = np.concatenate((chat[: n // 2], chat[m - n // 2 :]))
    return SpectralField(grid, _alternate_signs(scale * kept), time)


def pointwise_product(f: SpectralField, g: SpectralField, pad_factor: int = 3) -> SpectralField:
    """Product of two fields, dealiased by zero padding.

    pad_factor p represents products of total degree <= 2p - 1 exactly.
    """
    if f.grid != g.grid:
        raise GridMismatch("fields live on different grids")
    uf = padded_values(f, pad_factor)
    ug = padded_values(g, pad_factor)
    return transform_from_padded(f.grid, uf * ug, f.time)


def xi_derivative_coefficients(f: SpectralField) -> np.ndarray:
    """Samples of d/dxi of fhat, computed as the transform of (-i x) f.

    The centered sawtooth x is used, so the result is meaningful only for
    fields concentrated well inside the box (see `mass_fraction_inside`).
    """
    u = synthesize(f)
    return transform(f.grid, -1j * f.grid.x * u, f.time).coeffs


def hermitian_defect(f: SpectralField) -> float:
    """Relative size of the non-Hermitian part (0 for real-valued fields)."""
    c = f.coeffs
    n = f.grid.n
    mirrored = np.conj(c[(-np.arange(n)) % n])
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(c - mirrored)) / (2.0 * scale))


def enforce_real_zero_mean(f: SpectralField) -> SpectralField:
    """Project onto real-valued, zero-mean fields (exact Hermitian symmetry)."""
    c = f.coeffs
    n = f.grid.n
    mirrored = np.conj(c[(-np.arange(n)) % n])
    out = 0.5 * (c + mirrored)
    out[0] = 0.0
    return f.with_coeffs(out)


def mass_fraction_inside(f: SpectralField, half_width: float | None = None) -> float:
    """Fraction of the L^2 mass carried by |x| <= half_width (default L/4)."""
    g = f.grid
    if half_width is None:
        half_width = 0.25 * g.box_length
    u2 = np.abs(synthesize(f)) ** 2
    total = np.sum(u2)
    if total == 0.0:
        return 1.0
    return float(np.sum(u2[np.abs(g.x) <= half_width]) / total)


# ---------------------------------------------------------------------------
# Snapshot format: magic "QMKDV1", little-endian u32 n, f64 L, f64 t,
# u32 byte-length of the coefficient-spec identifier, the identifier (UTF-8),
# then n little-endian (re, im) f64 pairs in ascending frequency order
# j = -n/2 .. n/2-1.
# ---------------------------------------------------------------------------

SNAPSHOT_MAGIC = b"QMKDV1"


def save_snapshot(path, f: SpectralField, coeff_id: str) -> None:
    ident = coeff_id.encode("utf-8")
    shifted = np.fft.fftshift(f.coeffs)
    data = np.empty(2 * f.grid.n, dtype="<f8")
    data[0::2] = shifted.real
    data[1::2] = shifted.imag
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<IddI", f.grid.n, f.grid.box_length, f.time, len(ident)))
        fh.write(ident)
        fh.write(data.tobytes())


def load_snapshot(path) -> tuple[SpectralField, str]:
    with open(path, "rb") as fh:
        magic = fh.read(len(SNAPSHOT_MAGIC))
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"not a QMKDV1 snapshot: magic {magic!r}")
        header = fh.read(24)
        if len(header) != 24:
            raise ValueError("snapshot truncated")
        n, box_length, time, id_len = struct.unpack("<IddI", header)
        ident = fh.read(id_len).decode("utf-8")
        raw = np.frombuffer(fh.read(16 * n), dtype="<f8")
    if raw.size != 2 * n:
        raise ValueError("snapshot truncated")
    coeffs = np.fft.ifftshift(raw[0::2] + 1j * raw[1::2])
    grid = GridSpec(n=int(n), box_length=float(box_length))
    return SpectralField(grid, coeffs.astype(np.complex128), float(time)), ident
