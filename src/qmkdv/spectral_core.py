"""Periodic pseudo-spectral calculus on a centered box.

The continuum convention matched throughout is

    f(x) = int fhat(xi) e^{i xi x} dxi,    fhat(xi) = (1/2pi) int f(x) e^{-i xi x} dx,

discretized on the centered grid x_m = -L/2 + m*dx (m = 0..n-1, dx = L/n)
with represented frequencies xi_j = (2pi/L)*j, |j| < n/2, so that

    f(x_m) = dxi * sum_j fhat_j e^{i xi_j x_m},        dxi = 2pi/L.

With these weights grid sums approximate whole-line integrals for fields
concentrated inside the box; Parseval reads

    dx * sum_m |f(x_m)|^2 = 2pi * dxi * sum_j |fhat_j|^2.

A field is real, so fhat_{-j} = conj(fhat_j): `SpectralField.coeffs` holds
only c_0 .. c_{n/2-1}, the head of numpy's real FFT, at the frequencies
`GridSpec.half_xi`, and the sums over the band (the norms) count each j >= 1
twice.  The Nyquist mode j = n/2 is not represented: it is zero, as in the
real band-limited interpolant, whose odd derivatives have a zero multiplier
there (Trefethen, Spectral Methods in MATLAB, ch. 3).  Relative to numpy's
transforms the centered grid contributes a phase (-1)^j, so analysis and
synthesis are one real FFT, a parity sign and a scale, the parity (and the
analysis scale) taken from memoized per-grid tables in one multiply.
`GridSpec.parity` and `GridSpec.xi` remain, in full FFT order, for the
frequency-side studies that sample whole lattices.

Products of real fields are formed on a refined grid in real arithmetic.
The refined grid's m = p n points x_q + r dx/p (q < n, r < p, pad factor p)
are held as p phase rows of n points, row r the grid shifted by r dx/p.
The zero-padded spectrum vanishes above n/2, so each m-point transform
splits exactly into n-point ones (the decimation of a zero-padded DFT):
row r of d_x^k f is the unscaled n-point inverse real FFT of
dxi c_j (-1)^j (i xi_j)^k e^{2 pi i j r/m}, and the analysis of real
samples w is c_j = sum_r (-1)^j L/(2 pi m) e^{-2 pi i j r/m} rfft_n(w_r)[j].
The products are formed by d_x^k f sampled on the rows (each order's p
heads written in one multiply by a memoized table that holds the twiddle,
the parity, (i xi)^k and the scale; then one batched inverse real FFT over
all rows), multiplied there pointwise, and analyzed by
`transform_from_padded` (one batched real FFT over the p rows, whose
spectra are weighted by a memoized table and summed).  A plan memoized per
thread and (n, L, pad_factor) holds the heads, five stacks of sample rows
(three orders, two for the caller's products), the spectra and the tables,
so a warm product makes one lookup for its samples and one for its
analysis; the rows are valid until the thread's next padded product on
that grid.  A pad factor p >= 2 represents products of degree <= 2p - 1 exactly.
"""

from __future__ import annotations

import functools
import struct
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "SpectralField",
    "GridMismatch",
    "NonZeroMean",
    "ComplexSamples",
    "transform",
    "synthesize",
    "derivative",
    "fractional_abs_derivative",
    "antiderivative",
    "airy_factor",
    "profile_from_solution",
    "free_evolve",
    "norm",
    "xi_l2_norm",
    "transform_from_padded",
    "xi_derivative_coefficients",
    "mass_fraction_inside",
    "save_snapshot",
    "load_snapshot",
]


class GridMismatch(ValueError):
    """Two fields do not share the same grid."""


class NonZeroMean(ValueError):
    """Operation requires a zero-mean field (vanishing zero mode)."""


class ComplexSamples(ValueError):
    """A real-field transform was handed complex samples."""


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
    def half_xi(self) -> np.ndarray:
        """Frequencies xi_0 .. xi_{n/2-1} of a field's coefficients: the head of `xi`."""
        return self.xi[: self.n // 2]

    @property
    def parity(self) -> np.ndarray:
        """(-1)^j in FFT order (equal to (-1)^index for even n)."""
        return np.where(np.arange(self.n) % 2 == 0, 1.0, -1.0)


@functools.lru_cache(maxsize=4)
def _multipliers(n: int, box_length: float) -> tuple[np.ndarray, np.ndarray]:
    """(i*xi, i*xi^3) at the n/2 coefficient frequencies, read-only, memoized
    for the plans and `airy_factor` (each Lawson step, energy, profile and
    Airy-sweep time).  GridSpec's own properties stay uncached: a cache there
    would also keep the large one-shot grids of the quadrature studies alive.
    """
    xi = GridSpec(n, box_length).half_xi
    out = (1j * xi, 1j * xi**3)
    for a in out:
        a.flags.writeable = False
    return out


@dataclass(frozen=True)
class SpectralField:
    """Immutable value: a real field's coefficients c_0 .. c_{n/2-1} on a grid at time `time`."""

    grid: GridSpec
    coeffs: np.ndarray
    time: float = 0.0

    def with_coeffs(self, coeffs: np.ndarray, time: float | None = None) -> "SpectralField":
        return SpectralField(self.grid, coeffs, self.time if time is None else time)


def transform(grid: GridSpec, u, time: float = 0.0) -> SpectralField:
    """Analyze real samples on the centered grid into coefficients; complex
    samples raise ComplexSamples."""
    u = np.asarray(u)
    if np.iscomplexobj(u):
        raise ComplexSamples(f"transform takes real samples, got {u.dtype}")
    if u.shape != (grid.n,):
        raise GridMismatch(f"expected {grid.n} samples, got shape {u.shape}")
    head = np.fft.rfft(u)[: grid.n // 2]
    return SpectralField(grid, head * _analysis_table(grid.n, grid.box_length, 1)[0, : grid.n // 2], time)


def synthesize(f: SpectralField) -> np.ndarray:
    """Evaluate the field at the grid points (real samples)."""
    g = f.grid
    return np.fft.irfft(f.coeffs * _parity_table(g.n, g.box_length), g.n) * (g.n * g.dxi)


def derivative(f: SpectralField, n: int) -> SpectralField:
    """n-th spatial derivative: multiplier (i*xi)^n."""
    if n < 0:
        raise ValueError("derivative order must be >= 0")
    return f.with_coeffs(f.coeffs * (1j * f.grid.half_xi) ** n)


def fractional_abs_derivative(f: SpectralField, beta: float) -> SpectralField:
    """|partial_x|^beta: multiplier |xi|^beta."""
    if not 0.0 <= beta <= 3.0:
        raise ValueError("beta must lie in [0, 3]")
    return f.with_coeffs(f.coeffs * np.abs(f.grid.half_xi) ** beta)


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
    xi = f.grid.half_xi.astype(np.complex128)
    xi[0] = 1.0  # avoid 0/0; the zero mode is forced to zero below
    out = f.coeffs / (1j * xi)
    out[0] = 0.0
    return f.with_coeffs(out)


def airy_factor(grid: GridSpec, t: float) -> np.ndarray:
    """e^{i t xi^3} at the n/2 coefficient frequencies: the Airy group e^{-t d_x^3}, any sign of t."""
    return np.exp(_multipliers(grid.n, grid.box_length)[1] * t)


def profile_from_solution(phi: SpectralField) -> SpectralField:
    """Factor out the Airy group at t = phi.time: hhat(xi) = e^{-i t xi^3} phihat(xi)."""
    return phi.with_coeffs(airy_factor(phi.grid, -phi.time) * phi.coeffs)


def free_evolve(h: SpectralField, t: float) -> SpectralField:
    """Airy evolution of a profile: phihat(xi) = e^{+i t xi^3} hhat(xi)."""
    return h.with_coeffs(airy_factor(h.grid, t) * h.coeffs, time=t)


def _band_sum(w: np.ndarray) -> float:
    """sum over the band j = -n/2+1 .. n/2-1 of a quantity even in j, from its
    entries at j = 0 .. n/2-1 (`.sum()`: np.sum's reduction, without its wrapper)."""
    return float(w[0] + 2.0 * w[1:].sum())


def norm(f: SpectralField, kind: str, s: float | None = None) -> float:
    """Norms in the conventions above.

    kind = "L2":   sqrt(dx * sum |f|^2)            (physical L^2, via Parseval)
    kind = "Linf": max |f| over the grid
    kind = "Hs":   sqrt(2pi * dxi * sum (1+xi^2)^s |fhat|^2); requires s.

    The frequency sums run over the whole band.  The 2pi in "Hs" is
    Parseval's constant for this transform pair, so that Hs with s=0
    coincides with "L2".
    """
    g = f.grid
    if kind == "L2":
        return float(np.sqrt(2.0 * np.pi * g.dxi * _band_sum(np.abs(f.coeffs) ** 2)))
    if kind == "Linf":
        return float(np.max(np.abs(synthesize(f))))
    if kind == "Hs":
        if s is None:
            raise ValueError("kind='Hs' requires s")
        if not -1.0 <= s <= 14.0:
            raise ValueError("s must lie in [-1, 14]")
        w = (1.0 + g.half_xi**2) ** s
        return float(np.sqrt(2.0 * np.pi * g.dxi * _band_sum(w * np.abs(f.coeffs) ** 2)))
    raise ValueError(f"unknown norm kind {kind!r}")


def xi_l2_norm(a: np.ndarray, grid: GridSpec) -> float:
    """Plain frequency-side L^2 norm sqrt(dxi * sum |a_j|^2) over the whole band,
    of a real field's frequency-side samples a_j, j = 0 .. n/2-1."""
    return float(np.sqrt(grid.dxi * _band_sum(np.abs(a) ** 2)))


def _derivative_table(n: int, box_length: float, order: int) -> np.ndarray:
    """(-1)^j (i xi_j)^order on j = 0..n/2-1 (order 0 the parity alone): the
    rows of `_synthesis_table` and `_parity_table`, memoized only there."""
    table = _multipliers(n, box_length)[0] ** order
    np.negative(table[1::2], out=table[1::2])
    return table


@functools.lru_cache(maxsize=8)
def _parity_table(n: int, box_length: float) -> np.ndarray:
    """(-1)^j on j = 0..n/2-1, complex and read-only: the multiplier of `synthesize`."""
    table = _derivative_table(n, box_length, 0)
    table.flags.writeable = False
    return table


def _twiddles(n: int, pad_factor: int, sign: float) -> np.ndarray:
    """e^{sign 2 pi i j r/(pad_factor n)} on r = 1..pad_factor-1, j = 0..n/2-1."""
    angle = np.outer(np.arange(1, pad_factor), np.arange(n // 2) * (sign * 2.0 * np.pi / (pad_factor * n)))
    return np.exp(1j * angle)


@functools.lru_cache(maxsize=16)
def _synthesis_table(n: int, box_length: float, pad_factor: int, order: int) -> np.ndarray:
    """dxi (-1)^j (i xi_j)^order e^{2 pi i j r/(pad_factor n)} on the phase
    rows r < pad_factor and j = 0..n/2-1, read-only: the multipliers of
    `_padded_rows`, whose unscaled n-point inverse real FFT of row r is
    d_x^order of the field at x_q + r dx/pad_factor."""
    table = np.empty((pad_factor, n // 2), np.complex128)
    np.multiply(_derivative_table(n, box_length, order), 2.0 * np.pi / box_length, out=table[0])
    np.multiply(_twiddles(n, pad_factor, 1.0), table[0], out=table[1:])
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=16)
def _analysis_table(n: int, box_length: float, pad_factor: int) -> np.ndarray:
    """(-1)^j L/(2 pi m) e^{-2 pi i j r/m}, m = pad_factor n, on the phase rows
    r < pad_factor and j = 0..n/2-1, and 0 at j = n/2, read-only: the weights
    whose sum over the rows takes their n-point real FFTs to n/2
    coefficients.  Complex, so numpy needs no cast buffer to multiply a
    spectrum by it; row 0 has no twiddle, and at pad_factor 1 is the table
    of `transform`."""
    h = n // 2
    table = np.zeros((pad_factor, h + 1), np.complex128)
    table[0, :h] = box_length / (2.0 * np.pi * pad_factor * n)
    np.negative(table[0, 1:h:2], out=table[0, 1:h:2])
    np.multiply(_twiddles(n, pad_factor, -1.0), table[0, :h], out=table[1:, :h])
    table.flags.writeable = False
    return table


# The multiplies below take operands of one shape, all contiguous: numpy gives a ufunc
# on broadcast or strided 2-D operands iterator buffers of up to 8192 items per call.
class _Plan(dict):
    """One thread's padded products on (n, L, pad_factor): stacks of pad_factor
    phase rows, three of n/2-point `heads` (the inverse FFT takes the Nyquist
    entry as 0), five of n-point `rows` and the n/2 + 1-point `spectra`; `ixi`;
    and the tables `analysis` and plan[order], each looked up when first read."""

    def __init__(self, n: int, box_length: float, pad_factor: int):
        self.grid = (n, box_length, pad_factor)
        self.heads = np.empty((3, pad_factor, n // 2), np.complex128)
        self.rows = np.empty((5, pad_factor, n))
        self.spectra = np.empty((pad_factor, n // 2 + 1), np.complex128)
        self.ixi = _multipliers(n, box_length)[0]

    def __missing__(self, order: int) -> np.ndarray:
        table = self[order] = _synthesis_table(*self.grid, order)
        return table

    @functools.cached_property
    def analysis(self) -> np.ndarray:
        return _analysis_table(*self.grid)


@functools.lru_cache(maxsize=8)
def _plan(thread: int, n: int, box_length: float, pad_factor: int) -> _Plan:
    return _Plan(n, box_length, pad_factor)


def _padded_rows(f: SpectralField, pad_factor: int, orders: tuple[int, ...]) -> _Plan:
    """This thread's plan for f's grid at pad_factor, its first rows now the
    float64 samples of d_x^k f, k in `orders` (at most three, in any order),
    as (pad_factor, n) phase rows of the refined grid; the rest the caller's."""
    if pad_factor < 2:
        raise ValueError("pad_factor must be >= 2")
    g = f.grid
    plan = _plan(threading.get_ident(), g.n, g.box_length, pad_factor)
    # the last head holds the coefficients' copies until its own multiply
    *front, last = heads = plan.heads[: len(orders)]
    last[...] = f.coeffs
    for head, k in zip(front, orders):
        np.multiply(last, plan[k], out=head)
    last *= plan[orders[-1]]
    np.fft.irfft(heads, g.n, axis=-1, norm="forward", out=plan.rows[: len(orders)])
    return plan


def transform_from_padded(grid: GridSpec, w: np.ndarray, time: float = 0.0) -> SpectralField:
    """Analyze real samples on a refined grid, given as (pad_factor, n) phase
    rows (row r at x_q + r dx/pad_factor, as `_padded_rows` lays them out),
    truncated to `grid`'s n/2 coefficients: one batched n-point real FFT, the
    spectra weighted by the plan's table and summed.  Complex samples raise ComplexSamples."""
    w = np.asarray(w)
    if np.iscomplexobj(w):
        raise ComplexSamples(f"transform_from_padded takes real samples, got {w.dtype}")
    if w.ndim != 2 or w.shape[1] != grid.n:
        raise GridMismatch(f"expected phase rows of {grid.n} samples, got shape {w.shape}")
    plan = _plan(threading.get_ident(), grid.n, grid.box_length, w.shape[0])
    spectra = np.fft.rfft(w, axis=-1, out=plan.spectra)
    np.multiply(spectra, plan.analysis, out=spectra)
    return SpectralField(grid, np.add.reduce(spectra[:, : grid.n // 2], axis=0), time)


def xi_derivative_coefficients(f: SpectralField) -> np.ndarray:
    """Samples of d/dxi of fhat at j = 0 .. n/2-1, computed as -i times the
    transform of the real field x f.

    The centered sawtooth x is used, so the result is meaningful only for
    fields concentrated well inside the box (see `mass_fraction_inside`).
    """
    return -1j * transform(f.grid, f.grid.x * synthesize(f), f.time).coeffs


def mass_fraction_inside(f: SpectralField) -> float:
    """Fraction of the L^2 mass carried by the middle half of the box, |x| <= L/4."""
    g = f.grid
    u2 = synthesize(f) ** 2
    total = np.sum(u2)
    if total == 0.0:
        return 1.0
    return float(np.sum(u2[np.abs(g.x) <= 0.25 * g.box_length]) / total)


# ---------------------------------------------------------------------------
# Snapshot format: magic "QMKDV2", little-endian u32 n, f64 L, f64 t,
# u32 byte-length of the coefficient-spec identifier, the identifier (UTF-8),
# then the n/2 stored coefficients as little-endian (re, im) f64 pairs in
# ascending frequency order j = 0 .. n/2-1.  QMKDV1 files, which held all n
# coefficients, are refused by their magic.
# ---------------------------------------------------------------------------

SNAPSHOT_MAGIC = b"QMKDV2"


def save_snapshot(path, f: SpectralField, coeff_id: str) -> None:
    ident = coeff_id.encode("utf-8")
    data = np.empty(f.grid.n, dtype="<f8")
    data[0::2] = f.coeffs.real
    data[1::2] = f.coeffs.imag
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<IddI", f.grid.n, f.grid.box_length, f.time, len(ident)))
        fh.write(ident)
        fh.write(data.tobytes())


def load_snapshot(path) -> tuple[SpectralField, str]:
    with open(path, "rb") as fh:
        magic = fh.read(len(SNAPSHOT_MAGIC))
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"not a {SNAPSHOT_MAGIC.decode()} snapshot: magic {magic!r}")
        header = fh.read(24)
        if len(header) != 24:
            raise ValueError("snapshot truncated")
        n, box_length, time, id_len = struct.unpack("<IddI", header)
        ident = fh.read(id_len).decode("utf-8")
        raw = np.frombuffer(fh.read(8 * n), dtype="<f8")
        if fh.read(1):
            raise ValueError("snapshot has trailing bytes after its coefficients")
    if raw.size != n:
        raise ValueError("snapshot truncated")
    if not np.all(np.isfinite(raw)):
        raise ValueError("snapshot has non-finite coefficients")
    grid = GridSpec(n=int(n), box_length=float(box_length))
    return SpectralField(grid, raw[0::2] + 1j * raw[1::2], float(time)), ident
