"""Solution functionals: the wrap-safe scaling field, the energy, and the
scattering estimator."""

import numpy as np
import pytest

from qmkdv import cli
from qmkdv.diagnostics import (
    InsufficientData,
    _scaling_field,
    decay_fit,
    energy,
    probe_indices,
    scattering_monitor,
    theta_series,
    z_norm,
)
from qmkdv.model import CoefficientSpec, scaling_field_direct
from qmkdv.oscillatory import stationary_phase_drift
from qmkdv.spectral_core import (
    GridSpec,
    NonZeroMean,
    derivative,
    norm,
    profile_from_solution,
    transform,
    xi_derivative_coefficients,
)

SPEC = CoefficientSpec()


def concentrated_field(grid: GridSpec, t: float):
    """x-derivative of a width-3 Gaussian (zero mean), labelled with time t."""
    phi = derivative(transform(grid, 0.1 * np.exp(-((grid.x / 3.0) ** 2))), 1)
    return phi.with_coeffs(phi.coeffs, time=t)


def spectral_scaling_field(phi):
    """S phi by the wrap-safe frequency-side route that energy takes."""
    airy = np.exp(1j * phi.time * phi.grid.half_xi**3)
    return _scaling_field(phi, SPEC, xi_derivative_coefficients(profile_from_solution(phi)), airy)


def relative_gap(grid: GridSpec, t: float) -> float:
    phi = concentrated_field(grid, t)
    spectral = spectral_scaling_field(phi)
    direct = scaling_field_direct(phi, SPEC)
    return norm(spectral.with_coeffs(spectral.coeffs - direct.coeffs), "L2") / norm(direct, "L2")


@pytest.mark.parametrize("t", [0.0, 2.0])
def test_spectral_scaling_field_matches_direct_route(t):
    # the box (240) holds the profile at t=2, so the sawtooth x of the
    # direct route sees no wrap-around
    assert relative_gap(GridSpec(1024, 240.0), t) < 1e-9


def test_direct_route_fails_once_the_profile_wraps():
    # on a box of 80 the Airy tail reaches the edge by t=2: the cross-check
    # is valid only for concentrated fields, as the module docstring says
    assert relative_gap(GridSpec(2048, 80.0), 2.0) > 1e-6


def test_energy_shares_the_scaling_field_and_z_norm():
    grid = GridSpec(1024, 240.0)
    phi = concentrated_field(grid, 2.0)
    eb = energy(phi, SPEC)
    s_phi = spectral_scaling_field(phi)
    assert eb.scaling_sq == norm(s_phi, "L2") ** 2
    assert eb.z_norm == z_norm(phi)
    summands = (eb.antiderivative_sq, eb.sobolev_sq, eb.scaling_antiderivative_sq, eb.scaling_sq,
                eb.xi_dxi_profile_sq, eb.dxi_profile_sq)
    assert eb.total == sum(summands)


def test_nonzero_mean_is_refused():
    grid = GridSpec(256, 40.0)
    phi = transform(grid, np.exp(-(grid.x**2)))
    with pytest.raises(NonZeroMean):
        energy(phi, SPEC)


# ---------------------------------------------------------------------------
# The scattering estimator on synthetic series
# ---------------------------------------------------------------------------

# Two probes whose law coefficients (of either sign) and amplitudes differ,
# so that a transposed (time, frequency) index changes every result.
XI = np.array([0.8, 2.5])
ALPHA2 = 1.0
AMP = np.array([0.3, 0.5])
TIMES = np.array(sorted({2.0**k for k in range(6)} | set(np.exp(np.linspace(0.0, np.log(32.0), 33)))))
DRIFT = np.array([stationary_phase_drift(x, ALPHA2) for x in XI])


def log_phase_series(slope):
    """hhat = AMP exp(i (0.3 + slope log t)), one column per probe."""
    return AMP * np.exp(1j * (0.3 + slope * np.log(TIMES)[:, None]))


@pytest.mark.parametrize("growth", [0.0, 0.02], ids=["constant-modulus", "modulus-squared-linear-in-log-t"])
def test_theta_integrates_the_modulus_squared_in_log_time(growth):
    # |hhat|^2 = AMP^2 + growth * log t: the trapezoid rule in log t is exact,
    # so Theta = -drift (AMP^2 log(t/t0) + growth (log^2 t - log^2 t0) / 2)
    s = np.log(TIMES)[:, None]
    hhat = log_phase_series(np.array([0.7, -0.2])) * np.sqrt(1.0 + growth * s / AMP**2)
    theta = theta_series(TIMES, hhat, DRIFT)
    integral = AMP**2 * (s - s[0]) + 0.5 * growth * (s**2 - s[0] ** 2)
    assert theta.shape == (TIMES.size, XI.size)
    np.testing.assert_allclose(theta, -DRIFT * integral, rtol=1e-13, atol=1e-16)


def test_monitor_matches_the_law_whose_correction_cancels_the_drift():
    b = DRIFT * AMP**2
    reports = scattering_monitor(TIMES, log_phase_series(b), DRIFT, fit_t_min=4.0)
    assert len(reports) == XI.size
    for i, r in enumerate(reports):
        assert "xi" not in r and "variant" not in r
        assert r["drift_slope"] == pytest.approx(b[i], rel=1e-10)
        assert r["predicted_slope"] == pytest.approx(b[i], rel=1e-14)
        assert r["matched_ok"]
        # e^{i Theta} hhat is constant: its dyadic increments are round-off
        assert len(r["cauchy_increments"]) == 5
        assert max(r["cauchy_increments"]) < 1e-14
        assert r["monotone_ok"]


# The two coefficients the law replaced, as drift slopes per |hhat|^2: one
# sixth of the law, and pi (2 alpha2 xi^2 - 1) / 6, which has the opposite
# sign at xi = 0.8 and is 40% short at xi = 2.5 (it comes within 20% of the
# law only for 1.49 < xi < 1.78 at alpha2 = 1).
OLD_DRIFTS = {"one-sixth": DRIFT / 6.0, "two-xi-squared-minus-one": np.pi * (2.0 * ALPHA2 * XI**2 - 1.0) / 6.0}


@pytest.mark.parametrize("old", OLD_DRIFTS.values(), ids=OLD_DRIFTS.keys())
def test_monitor_does_not_match_a_drift_off_the_law(old):
    reports = scattering_monitor(TIMES, log_phase_series(old * AMP**2), DRIFT, fit_t_min=4.0)
    for i, r in enumerate(reports):
        assert r["drift_slope"] == pytest.approx(old[i] * AMP[i] ** 2, rel=1e-10)
        assert not r["matched_ok"]


def test_false_monitor_flags_are_named_as_gates():
    # a growing modulus at a fixed phase: no drift slope, and increments
    # that double with each dyadic time
    reports = scattering_monitor(TIMES, AMP * TIMES[:, None] + 0j, DRIFT, fit_t_min=4.0)
    assert cli._false_gates({"per_frequency": reports}) == [
        f"per_frequency.{i}.{flag}" for i in range(XI.size) for flag in ("matched_ok", "monotone_ok")
    ]


def test_monitor_refuses_too_few_samples():
    hhat = log_phase_series(np.zeros(2))
    three_dyadic = TIMES < 5.0  # t = 1, 2 and 4
    scattering_monitor(TIMES[three_dyadic], hhat[three_dyadic], DRIFT, fit_t_min=1.0)
    two_dyadic = TIMES < 3.0
    with pytest.raises(InsufficientData, match="dyadic"):
        scattering_monitor(TIMES[two_dyadic], hhat[two_dyadic], DRIFT, fit_t_min=1.0)
    assert np.count_nonzero(TIMES >= 23.0) == 4 and np.count_nonzero(TIMES >= 25.0) == 3
    scattering_monitor(TIMES, hhat, DRIFT, fit_t_min=23.0)
    with pytest.raises(InsufficientData, match="fit_t_min"):
        scattering_monitor(TIMES, hhat, DRIFT, fit_t_min=25.0)


@pytest.mark.parametrize(
    "times, fit_t_min",
    [([1.0, 1.0, 1.0, 3.0, 5.0, 6.0, 7.0], 1.0), ([1.0, 2.0, 4.0, 8.0, 8.0, 8.0, 8.0], 8.0),
     ([1.0, 2.0, 4.0, 4.0, 8.0, 16.0, 16.0, 32.0], 1.0)],
    ids=["one-dyadic-time-thrice", "one-fit-time-four-times", "two-dyadic-times-twice"],
)
def test_monitor_counts_distinct_times(times, fit_t_min):
    # the monitor forms its Theta with theta_series, which refuses a repeated
    # time: no time is counted twice in a check, nor gives a zero increment
    hhat = AMP * np.exp(1j * np.log(times))[:, None]
    with pytest.raises(ValueError, match="strictly increasing"):
        scattering_monitor(times, hhat, DRIFT, fit_t_min)


@pytest.mark.parametrize("times", [[1.0, 2.0, 2.0, 4.0], [1.0, 4.0, 2.0, 8.0]], ids=["repeated", "decreasing"])
def test_non_increasing_times_are_refused(times):
    hhat = np.ones((len(times), XI.size), dtype=complex)
    with pytest.raises(ValueError, match="strictly increasing"):
        theta_series(times, hhat, DRIFT)


def test_probe_indices_are_sorted_distinct_and_representable():
    grid = GridSpec(512, 300.0)  # dxi = 0.0209...
    idx = probe_indices(grid, (1.1, 1.0, 1.0001))
    assert idx.tolist() == [48, 53]
    assert idx.dtype.kind == "i"
    for bad in ((0.0,), (1.0, -1.0)):
        with pytest.raises(ValueError, match="positive"):
            probe_indices(grid, bad)
    for bad in (0.4 * grid.dxi, 256 * grid.dxi):  # rounds to index 0, or to n/2
        with pytest.raises(ValueError, match="not representable"):
            probe_indices(grid, (bad,))


def test_decay_fit_counts_distinct_times():
    """A power law on eight distinct times gives its exponent; 25 samples at
    one time, or seven distinct times each taken twice, fit no slope."""
    ts = 2.0 ** np.arange(8.0)
    assert decay_fit([(t, t**-0.5) for t in ts], (1.0, 128.0))[0] == pytest.approx(-0.5, rel=1e-12)
    with pytest.raises(InsufficientData, match="distinct times"):
        decay_fit([(4.0, 1.0 + 1e-3 * i) for i in range(25)], (1.0, 8.0))
    seven = [(t, t**-0.5) for t in ts[:7]]
    with pytest.raises(InsufficientData, match="distinct times"):
        decay_fit(seven + seven, (1.0, 128.0))
