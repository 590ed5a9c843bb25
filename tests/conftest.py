"""Shared fixtures and field builders for the test suite."""

import numpy as np
import pytest

from qmkdv.rng import SplitMix64
from qmkdv.spectral_core import (
    GridSpec,
    SpectralField,
    enforce_real_zero_mean,
    transform,
)


@pytest.fixture
def grid():
    """Medium grid wide enough for Gaussians of O(1) width."""
    return GridSpec(n=256, box_length=40.0)


@pytest.fixture
def wide_grid():
    """Finer, wider grid for quadrature-grade comparisons."""
    return GridSpec(n=1024, box_length=120.0)


def random_real_field(grid: GridSpec, seed: int, decay: float = 1.0) -> SpectralField:
    """Random real zero-mean field with exponentially decaying spectrum.

    The coefficient at frequency xi is (normal + i normal) * exp(-|xi|/decay);
    enforce_real_zero_mean then imposes the Hermitian symmetry and kills the
    mean, so the result is a generic smooth real field.
    """
    rng = SplitMix64(seed)
    z = np.array([rng.normal() + 1j * rng.normal() for _ in range(grid.n)])
    f = SpectralField(grid, z * np.exp(-np.abs(grid.xi) / decay))
    return enforce_real_zero_mean(f)


def gaussian_field(grid: GridSpec, amplitude: float, width: float) -> SpectralField:
    return transform(grid, amplitude * np.exp(-((grid.x / width) ** 2)))


def symbol_t1_d1(eta1, eta2, eta3, alpha2: float):
    """dT1/d eta1 = (alpha2/3)(2 eta1 + eta2 + eta3): the oracle for the
    model's "dT1" dyadic cells."""
    return (alpha2 / 3.0) * (2.0 * eta1 + eta2 + eta3)
