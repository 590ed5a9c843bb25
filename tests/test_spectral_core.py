"""Transform conventions, calculus operators, norms, and the snapshot format.

Oracle values are closed forms under the convention f(x) = int fhat e^{i xi x} dxi:
the transform of A exp(-x^2) is G(xi) = (A / (2 sqrt(pi))) exp(-xi^2/4), a pure
complex mode a e^{i xi0 x} carries coefficient a/dxi at the node xi0, and
Parseval reads ||f||_{L2}^2 = 2 pi int |fhat|^2 dxi.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmkdv.spectral_core import (
    GridMismatch,
    GridSpec,
    NonZeroMean,
    antiderivative,
    derivative,
    enforce_real_zero_mean,
    field_from_coefficients,
    fractional_abs_derivative,
    free_evolve,
    hermitian_defect,
    load_snapshot,
    mass_fraction_inside,
    norm,
    pointwise_product,
    profile_from_solution,
    save_snapshot,
    synthesize,
    transform,
    values,
    xi_derivative_coefficients,
    xi_l2_norm,
)

from conftest import gaussian_field, random_real_field


class TestGridSpec:
    def test_lattice_geometry(self, grid):
        """dx and dxi tile the box and the represented band exactly."""
        assert grid.n * grid.dx == pytest.approx(grid.box_length, rel=1e-15)
        assert grid.dxi == pytest.approx(2.0 * math.pi / grid.box_length, rel=1e-15)
        assert grid.x[0] == pytest.approx(-0.5 * grid.box_length)
        assert 0.0 in grid.x  # center node present for even n
        assert grid.xi[0] == 0.0
        assert np.min(grid.xi) == pytest.approx(-0.5 * grid.n * grid.dxi)

    def test_parity_alternates(self, grid):
        assert np.all(grid.parity[::2] == 1.0)
        assert np.all(grid.parity[1::2] == -1.0)

    def test_xi_and_parity_are_plain_properties(self):
        # uncached, so one-shot grids are freed; the benchmark's tracer also
        # re-wraps them through .fget
        for attr in ("xi", "parity"):
            assert type(vars(GridSpec)[attr]) is property

    @pytest.mark.parametrize("n", [15, 14, 0, -4])
    def test_bad_n_rejected(self, n):
        with pytest.raises(ValueError):
            GridSpec(n=n, box_length=10.0)

    def test_bad_box_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(n=64, box_length=0.0)


class TestTransform:
    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, seed):
        """synthesize(transform(u)) returns u to near round-off."""
        grid = GridSpec(n=128, box_length=30.0)
        f = random_real_field(grid, seed)
        u = values(f)
        again = values(transform(grid, u))
        assert np.max(np.abs(again - u)) <= 1e-13 * max(1.0, np.max(np.abs(u)))

    def test_single_mode_coefficient(self):
        """A pure mode a cos(xi0 x) puts a/(2 dxi) at +-xi0 and nothing else."""
        grid = GridSpec(n=64, box_length=8.0 * math.pi)  # xi lattice = multiples of 1/4
        a, k = 0.7, 8  # xi0 = 2.0
        f = transform(grid, a * np.cos(grid.xi[k] * grid.x))
        expect = np.zeros(grid.n, dtype=complex)
        expect[k] = a / (2.0 * grid.dxi)
        expect[-k] = a / (2.0 * grid.dxi)
        np.testing.assert_allclose(f.coeffs, expect, atol=1e-13 * abs(a) / grid.dxi)

    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_parseval(self, seed):
        """2 pi dxi sum |fhat|^2 equals dx sum |f|^2."""
        grid = GridSpec(n=128, box_length=30.0)
        f = random_real_field(grid, seed)
        u = synthesize(f)
        physical = math.sqrt(grid.dx * float(np.sum(np.abs(u) ** 2)))
        assert norm(f, "L2") == pytest.approx(physical, rel=1e-12)

    def test_shape_mismatch_rejected(self, grid):
        with pytest.raises(GridMismatch):
            transform(grid, np.zeros(grid.n + 2))
        with pytest.raises(GridMismatch):
            field_from_coefficients(grid, np.zeros(grid.n - 2, dtype=complex))


class TestDerivative:
    def test_sine_third_derivative(self):
        """d^3/dx^3 sin(x) = -cos(x) on a 2-pi-periodic box."""
        grid = GridSpec(n=128, box_length=8.0 * math.pi)
        f = transform(grid, np.sin(grid.x))
        np.testing.assert_allclose(values(derivative(f, 3)), -np.cos(grid.x), atol=1e-12)

    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=20, deadline=None)
    def test_composition(self, seed):
        """derivative(f, 1) twice equals derivative(f, 2)."""
        grid = GridSpec(n=128, box_length=30.0)
        f = random_real_field(grid, seed)
        twice = derivative(derivative(f, 1), 1)
        scale = np.max(np.abs(derivative(f, 2).coeffs))
        np.testing.assert_allclose(twice.coeffs, derivative(f, 2).coeffs, atol=1e-13 * scale)

    def test_single_mode_eigenfunction(self):
        """Each Fourier mode is an eigenfunction with eigenvalue (i xi)^n."""
        grid = GridSpec(n=64, box_length=16.0)
        c = np.zeros(grid.n, dtype=complex)
        c[5] = 2.0 - 1.0j
        f = field_from_coefficients(grid, c)
        d = derivative(f, 2)
        assert d.coeffs[5] == pytest.approx((1j * grid.xi[5]) ** 2 * c[5])
        assert np.count_nonzero(d.coeffs) == 1

    def test_negative_order_rejected(self, grid):
        with pytest.raises(ValueError):
            derivative(transform(grid, np.zeros(grid.n)), -1)


class TestFractionalDerivative:
    def test_beta_zero_is_identity(self, grid):
        f = random_real_field(grid, 3)
        np.testing.assert_array_equal(fractional_abs_derivative(f, 0.0).coeffs, f.coeffs)

    def test_half_derivative_of_gaussian(self):
        """|d_x|^{1/2} A e^{-x^2} has L2 norm A sqrt(1 - dxi^2/12) + O(dxi^4).

        Continuum: 2 pi int |xi| G^2 dxi = A^2 exactly.  The |xi| kink at 0
        makes the lattice sum a trapezoid rule with Euler-Maclaurin defect
        -dxi^2/12 relative, which the oracle includes.
        """
        grid = GridSpec(n=1024, box_length=120.0)
        a = 0.3
        f = gaussian_field(grid, a, 1.0)
        want = a * math.sqrt(1.0 - grid.dxi**2 / 12.0)
        assert norm(fractional_abs_derivative(f, 0.5), "L2") == pytest.approx(want, rel=1e-6)

    def test_beta_range_enforced(self, grid):
        f = random_real_field(grid, 4)
        with pytest.raises(ValueError):
            fractional_abs_derivative(f, -0.1)
        with pytest.raises(ValueError):
            fractional_abs_derivative(f, 3.5)


class TestAntiderivative:
    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=20, deadline=None)
    def test_inverts_derivative(self, seed):
        grid = GridSpec(n=128, box_length=30.0)
        f = random_real_field(grid, seed)
        back = antiderivative(derivative(f, 1))
        scale = max(1.0, np.max(np.abs(f.coeffs)))
        np.testing.assert_allclose(back.coeffs, f.coeffs, atol=1e-12 * scale)

    def test_gaussian_derivative_pair(self):
        """The antiderivative of d/dx[A e^{-x^2}] is A e^{-x^2} minus its box mean.

        (The zero mode of an antiderivative is a free constant; the operator
        pins it to zero, i.e. it returns the zero-mean primitive.)
        """
        grid = GridSpec(n=512, box_length=60.0)
        a = 0.8
        phi = transform(grid, -2.0 * a * grid.x * np.exp(-grid.x**2))
        want = a * np.exp(-grid.x**2) - a * math.sqrt(math.pi) / grid.box_length
        np.testing.assert_allclose(values(antiderivative(phi)), want, atol=1e-12)

    def test_nonzero_mean_rejected(self, grid):
        with pytest.raises(NonZeroMean):
            antiderivative(gaussian_field(grid, 0.5, 1.0))


class TestProfileAndFreeEvolution:
    def test_profile_inverts_free_evolution(self, grid):
        h = random_real_field(grid, 11)
        t = 7.3
        again = profile_from_solution(free_evolve(h, t), t)
        np.testing.assert_allclose(again.coeffs, h.coeffs, atol=1e-13 * np.max(np.abs(h.coeffs)))
        assert again.time == t

    def test_free_evolution_is_an_isometry(self, grid):
        h = random_real_field(grid, 12)
        assert norm(free_evolve(h, 31.0), "L2") == pytest.approx(norm(h, "L2"), rel=1e-14)

    def test_group_property(self, grid):
        h = random_real_field(grid, 13)
        one = free_evolve(h, 5.0 + 2.0)
        two = free_evolve(free_evolve(h, 5.0), 2.0)
        np.testing.assert_allclose(one.coeffs, two.coeffs, atol=1e-12 * np.max(np.abs(h.coeffs)))


class TestNorms:
    def test_gaussian_closed_forms(self):
        """L2, L1 and Linf of A e^{-x^2} match Gaussian integrals."""
        grid = GridSpec(n=512, box_length=60.0)
        a = 1.7
        f = gaussian_field(grid, a, 1.0)
        assert norm(f, "L2") == pytest.approx(a * (math.pi / 2.0) ** 0.25, rel=1e-12)
        assert norm(f, "L1") == pytest.approx(a * math.sqrt(math.pi), rel=1e-12)
        assert norm(f, "Linf") == pytest.approx(a, rel=1e-12)

    def test_single_mode_sobolev(self):
        """||a cos(xi0 x)||_{Hs} = a sqrt(L/2) (1+xi0^2)^{s/2}."""
        grid = GridSpec(n=64, box_length=8.0 * math.pi)
        a, k, s = 0.9, 6, 3.0
        xi0 = grid.xi[k]
        f = transform(grid, a * np.cos(xi0 * grid.x))
        want = a * math.sqrt(grid.box_length / 2.0) * (1.0 + xi0**2) ** (s / 2.0)
        assert norm(f, "Hs", s=s) == pytest.approx(want, rel=1e-12)

    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=20, deadline=None)
    def test_h0_equals_l2(self, seed):
        grid = GridSpec(n=128, box_length=30.0)
        f = random_real_field(grid, seed)
        assert norm(f, "Hs", s=0.0) == pytest.approx(norm(f, "L2"), rel=1e-13)

    def test_sobolev_index_range(self, grid):
        f = random_real_field(grid, 5)
        with pytest.raises(ValueError):
            norm(f, "Hs", s=14.5)
        with pytest.raises(ValueError):
            norm(f, "Hs")
        with pytest.raises(ValueError):
            norm(f, "H1")

    def test_xi_l2_norm_carries_no_parseval_factor(self, grid):
        a = np.ones(grid.n)
        assert xi_l2_norm(a, grid) == pytest.approx(math.sqrt(grid.dxi * grid.n), rel=1e-14)


class TestPointwiseProduct:
    def test_matches_discrete_convolution(self):
        """Padded product equals dxi * (fhat conv ghat) for band-limited inputs."""
        grid = GridSpec(n=128, box_length=40.0)
        third = grid.n // 6  # keep products inside the represented band
        f = random_real_field(grid, 21)
        g = random_real_field(grid, 22)
        fc, gc = f.coeffs.copy(), g.coeffs.copy()
        for c in (fc, gc):
            c[third : grid.n - third + 1] = 0.0
        f, g = f.with_coeffs(fc), g.with_coeffs(gc)
        prod = pointwise_product(f, g)

        fs = np.fft.fftshift(fc)
        gs = np.fft.fftshift(gc)
        conv = np.convolve(fs, gs) * grid.dxi  # entry k sits at frequency (k-n) dxi
        lo = grid.n // 2  # index of frequency -n/2 * dxi
        expect = np.fft.ifftshift(conv[lo : lo + grid.n])
        scale = np.max(np.abs(expect))
        np.testing.assert_allclose(prod.coeffs, expect, atol=1e-12 * scale)

    def test_matches_physical_product(self):
        """With both bands in the inner third the truncation loses nothing."""
        grid = GridSpec(n=128, box_length=40.0)
        third = grid.n // 6
        f = random_real_field(grid, 23)
        g = random_real_field(grid, 24)
        fc, gc = f.coeffs.copy(), g.coeffs.copy()
        for c in (fc, gc):
            c[third : grid.n - third + 1] = 0.0
        f, g = f.with_coeffs(fc), g.with_coeffs(gc)
        exact = values(f) * values(g)
        got = values(pointwise_product(f, g))
        assert np.max(np.abs(got - exact)) <= 1e-12 * max(1.0, np.max(np.abs(exact)))

    def test_grid_mismatch_rejected(self):
        f = random_real_field(GridSpec(n=64, box_length=20.0), 1)
        g = random_real_field(GridSpec(n=64, box_length=21.0), 1)
        with pytest.raises(GridMismatch):
            pointwise_product(f, g)


class TestXiDerivative:
    def test_gaussian_frequency_derivative(self):
        """d/dxi of the Gaussian transform G is -(xi/2) G."""
        grid = GridSpec(n=512, box_length=120.0)
        a = 1.1
        f = gaussian_field(grid, a, 1.0)
        got = xi_derivative_coefficients(f)
        G = (a / (2.0 * math.sqrt(math.pi))) * np.exp(-grid.xi**2 / 4.0)
        want = -(grid.xi / 2.0) * G
        np.testing.assert_allclose(got, want, atol=1e-12 * np.max(np.abs(want)))


class TestHermitianMachinery:
    def test_real_fields_have_zero_defect(self, grid):
        assert hermitian_defect(gaussian_field(grid, 1.0, 2.0)) <= 1e-15

    def test_complex_perturbation_detected(self, grid):
        f = gaussian_field(grid, 1.0, 2.0)
        c = f.coeffs.copy()
        c[3] += 0.5j * np.max(np.abs(c))
        assert hermitian_defect(f.with_coeffs(c)) > 1e-3

    def test_projection_output_is_real_and_zero_mean(self, grid):
        rngc = np.exp(1j * np.linspace(0.0, 5.0, grid.n))
        f = field_from_coefficients(grid, rngc)
        p = enforce_real_zero_mean(f)
        assert p.coeffs[0] == 0.0
        assert hermitian_defect(p) <= 1e-15
        assert np.max(np.abs(np.imag(synthesize(p)))) <= 1e-13


class TestMassFraction:
    def test_narrow_gaussian_is_contained(self, grid):
        f = gaussian_field(grid, 1.0, 1.0)
        assert mass_fraction_inside(f) > 0.999999
        assert mass_fraction_inside(f, half_width=0.5) < 0.9

    def test_monotone_in_half_width(self, grid):
        f = random_real_field(grid, 9)
        widths = [2.0, 5.0, 10.0, 20.0]
        fracs = [mass_fraction_inside(f, w) for w in widths]
        assert all(a <= b + 1e-15 for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] == pytest.approx(1.0)


class TestSnapshotFormat:
    def test_roundtrip(self, tmp_path, grid):
        f = random_real_field(grid, 31).with_coeffs
        field = random_real_field(grid, 31)
        field = field.with_coeffs(field.coeffs, time=12.5)
        path = tmp_path / "state.bin"
        save_snapshot(path, field, "cubic_poly(a=1,b=2,c=0)")
        back, ident = load_snapshot(path)
        assert ident == "cubic_poly(a=1,b=2,c=0)"
        assert back.grid == field.grid
        assert back.time == field.time
        np.testing.assert_array_equal(back.coeffs, field.coeffs)

    def test_magic_is_checked(self, tmp_path, grid):
        path = tmp_path / "state.bin"
        save_snapshot(path, random_real_field(grid, 32), "x")
        blob = bytearray(path.read_bytes())
        blob[:6] = b"NOTMAG"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="magic"):
            load_snapshot(path)

    def test_truncation_is_detected(self, tmp_path, grid):
        path = tmp_path / "state.bin"
        save_snapshot(path, random_real_field(grid, 33), "x")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(ValueError, match="truncated"):
            load_snapshot(path)

    def test_truncated_header_is_detected(self, tmp_path, grid):
        path = tmp_path / "state.bin"
        save_snapshot(path, random_real_field(grid, 34), "x")
        path.write_bytes(path.read_bytes()[:16])  # magic and 10 of 24 header bytes
        with pytest.raises(ValueError, match="truncated"):
            load_snapshot(path)
