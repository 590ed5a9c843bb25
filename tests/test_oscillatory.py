"""Stationary-phase studies: the trilinear double sum, the drift law, the
refusal paths of the two-pi identity, and the decay study's region times."""

import math
import tracemalloc

import numpy as np
import pytest

from qmkdv import cli, oscillatory
from qmkdv import littlewood_paley as lp
from qmkdv.diagnostics import MIN_DECAY_FIT_SAMPLES
from qmkdv.model import CoefficientSpec, phase_phi, symbol_t1
from qmkdv.rng import SplitMix64
from qmkdv.oscillatory import (
    UnresolvedOscillation,
    resonant_drift_measurement,
    stationary_phase_drift,
    trilinear_integral,
    two_pi_identity,
)
from qmkdv.spectral_core import GridSpec, SpectralField, free_evolve, synthesize, transform

from conftest import nonlinearity_split


def _poly_mul(p: dict, q: dict) -> dict:
    """Product of polynomials in (eta1, eta2) stored as {(a, b): coefficient}."""
    out: dict = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            out[a1 + a2, b1 + b2] = out.get((a1 + a2, b1 + b2), 0.0) + c1 * c2
    return out


@pytest.mark.parametrize("xi, alpha2", [(0.45, 1.0), (-0.3, 0.7)])
def test_trilinear_integral_at_t0_splits_into_moments(xi, alpha2):
    # At t = 0 the kernel is T1(eta1, eta2, xi - eta1 - eta2) h1(eta1) h2(eta2)
    # h3(xi - eta1 - eta2).  On that surface T1 = (alpha2/3)(eta1^2 + eta2^2
    # + eta1 eta2 - xi eta1 - xi eta2 + xi^2) - 1, and with the polynomial
    # h3(e) = 0.5 + e the double sum is a sum of products of 1D moments
    # sum_eta eta^p h(eta) of the two band profiles.
    grid = GridSpec(n=128, box_length=480.0)
    h1 = lambda eta: lp.bump((np.asarray(eta) - 0.55) / 0.15)
    h2 = lambda eta: lp.bump(np.asarray(eta) / 0.15)
    h3 = lambda eta: 0.5 + np.asarray(eta)
    third = alpha2 / 3.0
    t1 = {(2, 0): third, (0, 2): third, (1, 1): third, (1, 0): -third * xi, (0, 1): -third * xi,
          (0, 0): third * xi**2 - 1.0}
    kernel = _poly_mul(t1, {(0, 0): 0.5 + xi, (1, 0): -1.0, (0, 1): -1.0})
    eta = grid.xi
    m1 = [float(np.sum(eta**p * h1(eta))) for p in range(4)]
    m2 = [float(np.sum(eta**p * h2(eta))) for p in range(4)]
    want = 1j * xi * grid.dxi**2 * sum(c * m1[a] * m2[b] for (a, b), c in kernel.items())
    got = trilinear_integral(grid, h1, h2, h3, alpha2, xi, [0.0])
    assert got.shape == (1,)
    assert abs(got[0] - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("alpha2", [1.0, 2.5])
def test_stationary_phase_drift_sign_and_zero(alpha2):
    # sgn(xi) pi T1(xi, xi, -xi) with T1(xi, xi, -xi) = 2 alpha2 xi^2 / 3 - 1:
    # odd in xi, -pi sgn(xi) near 0, zero at |xi| = (3 / (2 alpha2))^{1/2},
    # and of the sign of xi beyond it
    root = math.sqrt(1.5 / alpha2)
    assert stationary_phase_drift(root, alpha2) == pytest.approx(0.0, abs=1e-14)
    for xi in (0.01, 0.5 * root, 0.99 * root, 1.01 * root, 3.0 * root):
        value = stationary_phase_drift(xi, alpha2)
        assert value == -stationary_phase_drift(-xi, alpha2)
        assert (value > 0.0) == (xi > root)
    assert stationary_phase_drift(1e-8, alpha2) == pytest.approx(-math.pi, rel=1e-12)


def test_drift_measurement_takes_the_cubic_part_from_n_phi():
    # For the linear family N(phi) is its own cubic part, so the measurement's
    # time average must match the one built from the oracle's N3
    grid = GridSpec(n=1024, box_length=600.0)
    alpha2, amplitude, width = 1.0, 0.35, 2.0
    targets = [1.0, 1.05]
    rows = resonant_drift_measurement(targets, grid, alpha2=alpha2, amplitude=amplitude, width=width)
    spec = CoefficientSpec(family="linear", a=math.sqrt(alpha2))
    h = transform(grid, amplitude * np.exp(-((grid.x / width) ** 2)))
    idx = [int(round(x / grid.dxi)) for x in targets]
    hh = h.coeffs[idx]
    samples = []
    for t in np.linspace(grid.box_length / 54.0, grid.box_length / 18.0, 96):
        n3 = nonlinearity_split(free_evolve(h, float(t)), spec)[0]
        i_vals = -np.exp(-1j * t * grid.xi[idx] ** 3) * n3.coeffs[idx]
        samples.append(t * np.real(i_vals / (1j * np.abs(hh) ** 2 * hh)))
    want = np.mean(samples, axis=0)
    assert [r["xi"] for r in rows] == [float(grid.xi[j]) for j in idx]
    for row, w in zip(rows, want):
        assert abs(row["measured"] - w) <= 1e-13 * abs(w)


def test_drift_regression_recovers_the_constant_under_the_space_only_oscillation():
    # the frozen-profile series' shape: the drift constant, the space-only
    # point's oscillation at omega = 8 xi^3 / 9 of amplitude ~20, an O(1/t)
    # tail, on the measurement's 96 times; then 1e-3 rms noise on top
    ts = np.linspace(111.0, 333.0, 96)
    omega = 8.0 / 9.0
    clean = -1.047 + 12.0 * np.cos(omega * ts) - 16.0 * np.sin(omega * ts) + 30.0 / ts
    a, rms = oscillatory._drift_regression(ts, clean, omega)
    assert a == pytest.approx(-1.047, rel=1e-10) and rms < 1e-10
    noise = math.sqrt(3.0) * 1e-3 * SplitMix64(11).uniforms(ts.size, -1.0, 1.0)
    a, rms = oscillatory._drift_regression(ts, clean + noise, omega)
    assert abs(a + 1.047) < 1e-3
    assert 0.8e-3 < rms < 1.2e-3
    # the plain mean, which `measured` reports, is off by far more
    assert abs(np.mean(clean + noise) + 1.047) > 1e-2


@pytest.mark.parametrize("alpha2", [1.0, 0.0])
def test_regressed_drift_meets_the_law_on_the_scattering_grid(alpha2):
    # at alpha2 = 0 (plain mKdV) the law is -pi at every xi > 0
    defaults = cli._STUDIES["scattering"].defaults
    grid = GridSpec(n=defaults["grid.n"], box_length=defaults["grid.box_length"])
    rows = resonant_drift_measurement(
        [0.5, 1.0], grid, alpha2=alpha2, amplitude=defaults["initial.amplitude"], width=defaults["initial.width"]
    )
    for row in rows:
        assert abs(row["regressed"] - row["stationary_phase"]) <= 0.01 * abs(row["stationary_phase"])
        assert row["regression_rms"] < 0.05


def test_two_pi_identity_refuses_small_b():
    with pytest.raises(ValueError, match="B must be >= 4"):
        two_pi_identity(3.9)


def test_two_pi_identity_refuses_an_unresolved_value(monkeypatch):
    # a quadrature that moves by as much as its error under doubling
    monkeypatch.setattr(
        oscillatory, "_two_pi_values",
        lambda B, u_extent, n: (complex(2.0 * math.pi + 1e-6 * n), complex(2.0 * math.pi + 2e-6 * n)),
    )
    with pytest.raises(UnresolvedOscillation, match="doubling"):
        two_pi_identity(8.0)


def _complex_synthesis(spectrum, u_extent, n):
    """The inverse transform as first written: the spectrum at every FFT-order
    frequency, the Nyquist one included, synthesised by a complex inverse FFT
    with the centered grid's parity, real part kept."""
    grid = GridSpec(n=n, box_length=u_extent)
    return np.real(np.fft.ifft(grid.parity * spectrum(grid.xi))) * (n * grid.dxi)


@pytest.mark.parametrize("n", [4096, 8192])
@pytest.mark.parametrize(
    "spectrum, u_extent",
    [(lp.bump, 2.0 * lp.SUPPORT_EDGE * 8.0**2 * 1.25), (lambda x: np.exp(-(x**2) / 64.0), 128.0)],
    ids=["bump", "gaussian"],
)
def test_real_even_transform_matches_complex_synthesis(spectrum, u_extent, n):
    """`synthesize` of a real, even spectrum's n/2 head samples, the Gaussian
    self-test's inner integral, is the complex synthesis of all n samples:
    the Nyquist entry it drops is negligible for both spectra."""
    grid = GridSpec(n=n, box_length=u_extent)
    got = synthesize(SpectralField(grid, spectrum(grid.dxi * np.arange(n // 2))))
    want = _complex_synthesis(spectrum, u_extent, n)
    assert got.dtype == np.float64
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _plain_two_pi_value(B, u_extent, n):
    """The 2 pi value as first written: the bump on the whole spectrum head
    and on the whole u-grid."""
    grid = GridSpec(n=n, box_length=u_extent)
    c = lp.bump(grid.dxi * np.arange(n // 2 + 1))
    c[1::2] *= -1.0
    psicheck = np.fft.irfft(c, n) * (n * grid.dxi)
    return complex(u_extent / n * np.sum(lp.bump(grid.x / B**2) * psicheck))


def _assert_bump_samples_exact(start, step, scale, count):
    got = oscillatory._bump_samples(start, step, scale, count)
    want = lp.bump((start + step * np.arange(count)) / scale)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("B", [8.0, 16.0])
@pytest.mark.parametrize("points", ["n", "midpoints", "row"])
def test_bump_samples_on_the_two_pi_grids(B, points, monkeypatch):
    u_extent, n = oscillatory._two_pi_grid(B)
    grid = GridSpec(n=n, box_length=u_extent)
    _assert_bump_samples_exact(0.0, grid.dxi, 1.0, n // 2 + 1)  # the spectrum head
    if points == "row":  # each row cutoff _two_pi_values asks for: p + 1 rows, p = 1 at B = 8 and 4 at B = 16
        calls = []
        bump_samples = oscillatory._bump_samples
        monkeypatch.setattr(oscillatory, "_bump_samples", lambda *args: calls.append(args) or bump_samples(*args))
        oscillatory._two_pi_values(B, u_extent, n)
        monkeypatch.undo()
        assert len(calls) == 1 + {8.0: 2, 16.0: 5}[B]  # the head, then the rows
        for args in calls[1:]:
            _assert_bump_samples_exact(*args)
    else:  # the u-side cutoff
        shift = 0.5 * grid.dx if points == "midpoints" else 0.0
        _assert_bump_samples_exact(shift - 0.5 * u_extent, grid.dx, B**2, n)


@pytest.mark.parametrize("scale", [1.0, 64.0, 256.0])
@pytest.mark.parametrize("edge", [lp.PLATEAU_EDGE, lp.SUPPORT_EDGE])
def test_bump_samples_with_a_point_on_each_edge(scale, edge):
    # with scale a power of 2 (B^2 at B = 8 and 16), start = -edge*scale and
    # 256 steps of 2*edge*scale/256 put grid points exactly on both edges
    start, step, count = -edge * scale, 2.0 * edge * scale / 256, 400
    x = (start + step * np.arange(count)) / scale
    assert x[0] == -edge and x[256] == edge
    _assert_bump_samples_exact(start, step, scale, count)


@pytest.mark.parametrize(
    "start, step, count",
    [(-1.0, 1e-3, 450), (-1.5, 1e-3, 2000), (-1.5, 1e-3, 100), (1.3, 1e-3, 100), (-1.55, 0.5, 7),
     (-1.0, 1e-2, 200), (1.7, 1e-2, 200), (-40.0, 1e-2, 200)],
    ids=["ends-in-upper-band", "starts-in-lower-band", "inside-lower-band", "inside-upper-band", "coarse",
         "inside-plateau", "above-support", "below-support"],
)
def test_bump_samples_on_grids_ending_in_a_band_or_a_constant_piece(start, step, count):
    _assert_bump_samples_exact(start, step, 1.0, count)


@pytest.mark.parametrize("B", [4.0, 8.0, 16.0, 32.0, 64.0])
def test_two_pi_value_matches_the_plain_form(B):
    # the phase rows (p = 1 at B = 4 and 8, where a row of n/8 points would be
    # under 4096, p = 4 at B = 16, p = 8 from B = 32 on) and the plain n-point
    # sum add the same terms in different orders: equal up to the rounding of
    # two sums
    u_extent, n = oscillatory._two_pi_grid(B)
    assert abs(oscillatory._two_pi_values(B, u_extent, n)[0] - _plain_two_pi_value(B, u_extent, n)) <= 1e-14


@pytest.mark.parametrize("B", [4.0, 8.0, 16.0, 32.0, 64.0])
def test_doubled_two_pi_value_is_the_2n_point_sum(B):
    # the mean of the n-point and the midpoint sums, against the plain form on
    # the 2n-point grid: equal up to the rounding of two different sums
    u_extent, n = oscillatory._two_pi_grid(B)
    doubled = oscillatory._two_pi_values(B, u_extent, n)[1]
    assert abs(doubled - _plain_two_pi_value(B, u_extent, 2 * n)) <= 1e-14


def _every_phase_row(B, u_extent, n):
    """(p, dx, rows): the integrand on each of the 2p phase rows, the rows'
    loop as first written, before the mirrored rows were folded together."""
    grid = GridSpec(n=n, box_length=u_extent)
    support = math.ceil(lp.SUPPORT_EDGE / grid.dxi)
    p = 1
    while n % (2 * p) == 0 and n // (2 * p) >= max(4 * support, 4096):
        p *= 2
    m = n // p
    head = oscillatory._bump_samples(0.0, grid.dxi, 1.0, support) * (m * grid.dxi)
    head[1::2] *= -1.0
    row_head = np.zeros(m // 2 + 1, dtype=np.complex128)
    angle = math.pi / n * np.arange(support)
    rows = []
    for r in range(2 * p):
        np.multiply(head, np.exp(1j * r * angle), out=row_head[:support])
        row = np.fft.irfft(row_head, m)
        cutoff = oscillatory._bump_samples(0.5 * r * grid.dx - 0.5 * u_extent, p * grid.dx, B**2, m)
        rows.append(np.multiply(row, cutoff, out=row))
    return p, grid.dx, rows


@pytest.mark.parametrize("B", [16.0, 32.0, 64.0, 128.0])
def test_mirrored_rows_give_the_sums_of_every_row(B):
    # p + 1 rows, the inner ones counted twice, against all 2p rows summed as
    # first written: equal up to the rounding of two sums
    u_extent, n = oscillatory._two_pi_grid(B)
    p, dx, rows = _every_phase_row(B, u_extent, n)
    sums = [sum(float(np.sum(row)) for row in rows[parity::2]) for parity in (0, 1)]
    value, doubled = oscillatory._two_pi_values(B, u_extent, n)
    assert abs(value - dx * sums[0]) <= 1e-14
    assert abs(doubled - 0.5 * dx * (sums[0] + sums[1])) <= 1e-14


@pytest.mark.parametrize("B", [16.0, 32.0])
def test_row_2p_minus_r_is_row_r_mirrored(B):
    # the premise of the fold: row 2p - r is row r reversed (q -> m - 1 - q),
    # row p its own mirror and row 0 its own about q = 0 (u = -u_extent/2,
    # where the period wraps), so each mirrored pair's sums agree to round-off
    u_extent, n = oscillatory._two_pi_grid(B)
    p, _, rows = _every_phase_row(B, u_extent, n)
    assert p == {16.0: 4, 32.0: 8}[B]
    for r in range(p + 1):
        row, mirror = rows[r], (np.roll(rows[0][::-1], 1) if r == 0 else rows[2 * p - r][::-1])
        scale = float(np.max(np.abs(row)))
        assert np.max(np.abs(row - mirror)) <= 1e-14 * scale, r
        assert abs(float(np.sum(row)) - float(np.sum(mirror))) <= 1e-14 * float(np.sum(np.abs(row))), r


def test_two_pi_values_refuse_a_head_reaching_the_band_edge():
    # the midpoint sum is the 2n-point one only while psi(k dxi) vanishes from
    # k = n/2 on; at B = 8 the head's support ends at k = ceil(1.6 / dxi) = 66
    u_extent, _ = oscillatory._two_pi_grid(8.0)
    support = math.ceil(lp.SUPPORT_EDGE / GridSpec(n=16, box_length=u_extent).dxi)
    assert support == 66
    with pytest.raises(UnresolvedOscillation, match="band edge"):
        oscillatory._two_pi_values(8.0, u_extent, 2 * support)
    oscillatory._two_pi_values(8.0, u_extent, 2 * support + 2)


@pytest.mark.parametrize("B", [32.0, 128.0])
def test_two_pi_values_peak_under_one_array(B):
    """tracemalloc sees numpy's data buffers: the phase rows peak at about
    0.6 arrays of n float64, a row of n/8 points with its head, FFT and
    cutoff.  The two n-point inverse FFTs they replaced peaked at 4.3."""
    u_extent, n = oscillatory._two_pi_grid(B)
    oscillatory._two_pi_values(B, u_extent, n)
    tracemalloc.start()
    try:
        oscillatory._two_pi_values(B, u_extent, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n


def _dense_trilinear(grid, h1, h2, h3, alpha2, xi, t_values):
    """I(t; xi) as first written: the double sum over the whole lattice, one t at a time."""
    eta = np.sort(grid.xi)
    e1, e2 = eta[:, None], eta[None, :]
    e3 = xi - e1 - e2
    kernel = symbol_t1(e1, e2, e3, alpha2) * h1(e1) * h2(e2) * h3(e3)
    phi = phase_phi(xi, e1, e2)
    return np.array([1j * xi * grid.dxi**2 * np.sum(kernel * np.exp(-1j * t * phi)) for t in t_values])


@pytest.mark.parametrize("region, t_max", [(region, spec["t_max"]) for region, spec in oscillatory._REGIONS.items()])
def test_sparse_trilinear_sum_matches_the_dense_sum(region, t_max):
    spec = oscillatory._REGIONS[region]
    grid = GridSpec(n=spec["n"], box_length=spec["box"])
    hs = [oscillatory._band(*spec[k]) for k in ("h1", "h2", "h3")]
    t_values = [0.0, *oscillatory._region_times(region)]  # t = 0, then every time of the region's study
    assert t_values[-1] == pytest.approx(t_max, rel=1e-14)
    for xi in spec["xi"]:
        got = trilinear_integral(grid, *hs, 1.0, xi, t_values)
        want = _dense_trilinear(grid, *hs, 1.0, xi, t_values)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


@pytest.mark.parametrize("region", oscillatory._REGIONS)
def test_oscillatory_region_times_fill_their_fit_windows(region):
    # each region's own times give its envelope fit enough points
    env = oscillatory._envelope_times(oscillatory._region_times(region))
    lo, hi = oscillatory._REGIONS[region]["window"] or (env[0], env[-1])
    assert len({t for t in env if lo <= t <= hi}) >= MIN_DECAY_FIT_SAMPLES
