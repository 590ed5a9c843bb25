"""Solution functionals: the wrap-safe scaling field and the energy."""

import numpy as np
import pytest

from qmkdv.diagnostics import energy, scaling_field_spectral, z_norm
from qmkdv.model import BootstrapConstants, CoefficientSpec, scaling_field_direct
from qmkdv.spectral_core import GridSpec, NonZeroMean, derivative, norm, transform

SPEC = CoefficientSpec()


def concentrated_field(grid: GridSpec, t: float):
    """x-derivative of a width-3 Gaussian (zero mean), labelled with time t."""
    phi = derivative(transform(grid, 0.1 * np.exp(-((grid.x / 3.0) ** 2))), 1)
    return phi.with_coeffs(phi.coeffs, time=t)


def relative_gap(grid: GridSpec, t: float) -> float:
    phi = concentrated_field(grid, t)
    spectral = scaling_field_spectral(phi, t, SPEC)
    direct = scaling_field_direct(phi, t, SPEC)
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
    bc = BootstrapConstants()
    phi = concentrated_field(grid, 2.0)
    eb = energy(phi, 2.0, SPEC, bc)
    s_phi = scaling_field_spectral(phi, 2.0, SPEC)
    assert eb.scaling_sq == norm(s_phi, "L2") ** 2
    assert eb.z_norm == z_norm(phi, bc)
    assert eb.total == sum(eb.summands())


def test_nonzero_mean_is_refused():
    grid = GridSpec(256, 40.0)
    phi = transform(grid, np.exp(-(grid.x**2)))
    with pytest.raises(NonZeroMean):
        energy(phi, 1.0, SPEC)
    with pytest.raises(NonZeroMean):
        scaling_field_spectral(phi, 1.0, SPEC)
