"""The equation right-hand side, its splitting, symbols, and resonance geometry.

Oracle notes: with pad=3 every polynomial product of degree <= 5 is alias-free
on the retained band (a degree-d product reaches frequency d*m with
m = (n/2)*dxi; on the 3n grid it wraps to d*m - 3*n*dxi, which stays outside
|xi| < m for d <= 5), so the splitting identities below hold to round-off, not
just to a padding tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmkdv import littlewood_paley as lp
from qmkdv.model import (
    BootstrapConstants,
    CoefficientSpec,
    ZeroFrequency,
    dyadic_symbol_bound,
    grad_phase_phi,
    grad_phase_quartic,
    hamiltonian,
    mass,
    nonlinearity_full,
    nonlinearity_split,
    phase_phi,
    phase_quartic,
    quintic_remainder_display,
    resonance_points,
    scaling_field_direct,
    symbol_t1,
    symbol_t1_d1,
    symbol_t2,
    weighted_derivative,
    weighted_norm_weight,
)
from qmkdv.rng import SplitMix64
from qmkdv.spectral_core import (
    GridSpec,
    antiderivative,
    derivative,
    norm,
    padded_values,
    synthesize,
    transform,
    transform_from_padded,
)

from conftest import gaussian_field, random_real_field

FAMILIES = (
    CoefficientSpec("linear", a=1.3, b=0.0, c=0.0),
    CoefficientSpec("sine", a=1.1, b=0.0, c=0.0),
    CoefficientSpec("cubic_poly", a=0.8, b=0.5, c=1.0),
)


def moderate_field(grid, seed, peak=0.8):
    """Random smooth real field rescaled to max |phi| = peak."""
    f = random_real_field(grid, seed, decay=2.0)
    return f.with_coeffs(f.coeffs * (peak / np.max(np.abs(synthesize(f)))))


class TestCoefficientSpec:
    """Taylor data and derived constants of the three coefficient families."""

    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.family)
    def test_c_vanishes_at_zero(self, spec):
        assert spec.c_of(0.0) == 0.0

    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.family)
    def test_dispersion_weight_at_least_one(self, spec):
        v = np.linspace(-20.0, 20.0, 4001)
        assert np.all(spec.c1_of(v) >= 1.0)

    @given(v=st.floats(-1e3, 1e3), a=st.floats(-5.0, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_c1_at_least_one_everywhere(self, v, a):
        spec = CoefficientSpec("cubic_poly", a=a, b=-a, c=0.5)
        assert spec.c1_of(v) >= 1.0

    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.family)
    def test_c3_triple_zero_numerically(self, spec):
        # Central differences: first derivative at h=1e-7 (truncation c*h^2),
        # second at h=1e-3 (cancellation round-off scales like eps*a/h).
        d0 = spec.c3_of(0.0)
        d1 = (spec.c3_of(1e-7) - spec.c3_of(-1e-7)) / 2e-7
        d2 = (spec.c3_of(1e-3) - 2.0 * spec.c3_of(0.0) + spec.c3_of(-1e-3)) / 1e-6
        assert abs(d0) <= 1e-12
        assert abs(d1) <= 1e-12
        assert abs(d2) <= 1e-12

    def test_linear_family_has_no_remainder(self):
        spec = CoefficientSpec("linear", a=1.7, b=0.0, c=0.0)
        v = np.linspace(-5.0, 5.0, 101)
        assert np.all(spec.c3_of(v) == 0.0)

    def test_alpha_constants_per_family(self):
        lin = CoefficientSpec("linear", a=1.3, b=0.0, c=0.0)
        sin = CoefficientSpec("sine", a=1.1, b=0.0, c=0.0)
        cub = CoefficientSpec("cubic_poly", a=0.8, b=0.5, c=1.0)
        assert lin.alpha2 == 1.3**2 and lin.alpha3 == 0.0
        assert sin.alpha2 == 1.1**2 and sin.alpha3 == 0.0
        assert cub.alpha2 == 0.8**2
        # alpha3 = (1/2) c''(0) c'(0) = (1/2)(2b)(a) = a b
        assert cub.alpha3 == 0.8 * 0.5

    def test_identifier_distinguishes_parameters(self):
        a = CoefficientSpec("cubic_poly", a=1.0, b=1.0, c=0.0)
        b = CoefficientSpec("cubic_poly", a=1.0, b=1.0, c=0.5)
        assert a.identifier() != b.identifier()
        assert a.identifier() == CoefficientSpec("cubic_poly", a=1.0, b=1.0, c=0.0).identifier()

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            CoefficientSpec("quintic", a=1.0, b=0.0, c=0.0)


class TestBootstrapConstants:
    """Consistency relations among the fixed small parameters."""

    def test_defaults_are_consistent(self):
        bc = BootstrapConstants()
        assert bc.p0 == bc.delta / 10.0
        assert bc.p1 >= 2.0 * bc.p0 / (bc.s + 1.0 - 2.0 * bc.gamma_h)
        assert bc.decay_exponent == 0.48

    def test_p0_tied_to_delta(self):
        with pytest.raises(ValueError, match="delta"):
            BootstrapConstants(delta=1e-3, p0=2e-4)

    def test_p1_floor_enforced(self):
        with pytest.raises(ValueError, match="p1"):
            BootstrapConstants(p1=1e-6)


class TestNonlinearity:
    """Full right-hand side and its cubic/quartic/quintic splitting."""

    def test_zero_field_maps_to_zero(self, grid):
        zero = transform(grid, np.zeros(grid.n))
        spec = FAMILIES[2]
        assert np.all(nonlinearity_full(zero, spec).coeffs == 0.0)
        for piece in nonlinearity_split(zero, spec):
            assert np.all(piece.coeffs == 0.0)

    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.family)
    def test_outputs_have_zero_mean(self, grid, spec):
        phi = moderate_field(grid, 7)
        pieces = (nonlinearity_full(phi, spec), *nonlinearity_split(phi, spec))
        scale = max(np.max(np.abs(p.coeffs)) for p in pieces)
        for piece in pieces:
            assert abs(piece.coeffs[0]) <= 1e-14 * scale

    def test_pure_cubic_single_mode_closed_form(self, grid):
        # With c == 0 the equation reduces to d_x(phi^3); for phi = A cos(k0 x),
        # phi^3 = (A^3/4)(3 cos(k0 x) + cos(3 k0 x)).
        k0 = 6 * grid.dxi
        amp = 0.7
        phi = transform(grid, amp * np.cos(k0 * grid.x))
        out = nonlinearity_full(phi, CoefficientSpec("linear", a=0.0, b=0.0, c=0.0))
        want = transform(
            grid,
            -(3.0 * amp**3 * k0 / 4.0) * (np.sin(k0 * grid.x) + np.sin(3.0 * k0 * grid.x)),
        )
        err = np.max(np.abs(out.coeffs - want.coeffs)) / np.max(np.abs(want.coeffs))
        assert err <= 1e-10

    def test_pure_cubic_matches_dense_convolution(self, grid):
        # Independent assembly of d_x(phi^3): two dense convolutions of the
        # frequency-sorted coefficients (conv index k <-> frequency
        # (k - r*(n//2)) * dxi after r convolutions), then multiply by i xi.
        phi = random_real_field(grid, 11, decay=1.5)
        out = nonlinearity_full(phi, CoefficientSpec("linear", a=0.0, b=0.0, c=0.0))
        c = np.fft.fftshift(phi.coeffs)
        c3 = np.convolve(np.convolve(c, c), c) * grid.dxi**2
        lo = 2 * (grid.n // 2)
        want = 1j * np.sort(grid.xi) * c3[lo : lo + grid.n]
        want = np.fft.ifftshift(want)
        assert np.max(np.abs(out.coeffs - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.family)
    def test_recomposition_is_exact(self, grid, spec):
        phi = moderate_field(grid, 7)
        full = nonlinearity_full(phi, spec)
        n3, n4, n5 = nonlinearity_split(phi, spec)
        rec = n3.coeffs + n4.coeffs + n5.coeffs
        assert np.max(np.abs(rec - full.coeffs)) <= 1e-13 * np.max(np.abs(full.coeffs))

    def test_quartic_term_vanishes_without_curvature(self, grid):
        # c''(0) = 0 for both the linear and the sine family, so alpha3 = 0
        # and the quartic piece is the zero field.
        phi = moderate_field(grid, 13)
        for spec in FAMILIES[:2]:
            _, n4, _ = nonlinearity_split(phi, spec)
            assert np.all(n4.coeffs == 0.0)

    def test_linear_family_is_purely_cubic(self, grid):
        # c(v) = a v equals its own first Taylor term, so the cubic piece
        # reproduces the full nonlinearity and the remainder is round-off.
        phi = moderate_field(grid, 17)
        spec = CoefficientSpec("linear", a=1.2, b=0.0, c=0.0)
        full = nonlinearity_full(phi, spec)
        _, _, n5 = nonlinearity_split(phi, spec)
        assert norm(n5, "L2") <= 1e-12 * norm(full, "L2")

    def test_quintic_display_matches_subtraction_route(self, grid):
        # For c(v) = a v + b v^2 the quintic-and-higher remainder collapses to
        # d_x(q d_x(q d_x phi)) with q = b phi^2; both routes are alias-free.
        phi = moderate_field(grid, 19)
        spec = CoefficientSpec("cubic_poly", a=1.0, b=0.6, c=0.0)
        _, _, n5 = nonlinearity_split(phi, spec)
        disp = quintic_remainder_display(phi, spec)
        diff = n5.with_coeffs(n5.coeffs - disp.coeffs)
        assert norm(diff, "L2") <= 1e-10 * norm(n5, "L2")


class TestInteractionSymbols:
    """The trilinear symbol, its derivative, and the quadrilinear symbol."""

    def test_spot_values(self):
        assert symbol_t1(0.0, 0.0, 0.0, 0.7) == -1.0
        # T1(xi, xi, -xi) = (2 alpha2 / 3) xi^2 - 1
        assert abs(symbol_t1(1.0, 1.0, -1.0, 1.0) - (2.0 / 3.0 - 1.0)) <= 1e-15
        assert abs(symbol_t1(2.0, 2.0, -2.0, 0.9) - (2.0 * 0.9 / 3.0 * 4.0 - 1.0)) <= 1e-14

    @given(
        a=st.floats(-1e3, 1e3),
        b=st.floats(-1e3, 1e3),
        c=st.floats(-1e3, 1e3),
        alpha2=st.floats(0.0, 4.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_six_fold_symmetry_is_bitwise(self, a, b, c, alpha2):
        base = symbol_t1(a, b, c, alpha2)
        for p in ((a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)):
            assert symbol_t1(*p, alpha2) == base

    def test_reduced_form_on_constraint_surface(self):
        # On eta3 = xi - eta1 - eta2 the symmetrized symbol equals
        # (alpha2/3)(eta1^2 + eta2^2 + xi^2 + eta1 eta2 - eta1 xi - eta2 xi) - 1.
        rng = SplitMix64(303)
        vals = np.array([rng.uniform() for _ in range(3 * 10**4)]).reshape(3, -1)
        e1, e2, xi = vals * 16.0 - 8.0
        sym = symbol_t1(e1, e2, xi - e1 - e2, 0.9)
        red = (0.9 / 3.0) * (e1**2 + e2**2 + xi**2 + e1 * e2 - e1 * xi - e2 * xi) - 1.0
        assert np.max(np.abs(sym - red)) <= 1e-12 * np.max(np.abs(red))

    def test_first_argument_derivative(self):
        # T1 is quadratic, so the centered difference is exact up to round-off.
        pts = [(0.3, -1.2, 2.1), (1.0, 1.0, -1.0), (-0.7, 0.4, 0.9)]
        h = 1e-3
        for e1, e2, e3 in pts:
            want = symbol_t1_d1(e1, e2, e3, 1.4)
            diff = (symbol_t1(e1 + h, e2, e3, 1.4) - symbol_t1(e1 - h, e2, e3, 1.4)) / (2 * h)
            assert abs(diff - want) <= 1e-9
        assert symbol_t1_d1(1.0, 2.0, 3.0, 0.9) == pytest.approx(0.3 * (2.0 + 2.0 + 3.0))

    def test_quadrilinear_spot_values(self):
        assert symbol_t2(0.0, 5.0, -3.0, 2.0) == 0.0
        assert symbol_t2(1.0, 0.0, 0.0, 0.0) == -2.0
        assert symbol_t2(1.0, 1.0, 1.0, 0.0) == -5.0
        assert symbol_t2(0.0, 3.0, -2.0, 1.0) == 0.0
        assert symbol_t2(2.0, 1.0, -1.0, 5.0) == -10.0

    @given(e4=st.floats(-1e6, 1e6))
    @settings(max_examples=50, deadline=None)
    def test_last_frequency_is_inert(self, e4):
        assert symbol_t2(1.5, -0.3, 0.8, e4) == symbol_t2(1.5, -0.3, 0.8, 0.0)


class TestCubicPhase:
    """Factored and expanded forms of the oscillation phase and its gradient."""

    def test_spot_value_both_forms(self):
        assert phase_phi(4.0, 1.0, 2.0) == 54.0
        assert 4.0**3 - (4.0 - 3.0) ** 3 - 1.0 - 8.0 == 54.0

    @given(
        xi=st.floats(-8.0, 8.0),
        e1=st.floats(-8.0, 8.0),
        e2=st.floats(-8.0, 8.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_factored_equals_expanded(self, xi, e1, e2):
        factored = phase_phi(xi, e1, e2)
        expanded = xi**3 - (xi - e1 - e2) ** 3 - e1**3 - e2**3
        assert abs(factored - expanded) <= 1e-9

    def test_gradient_matches_centered_difference(self):
        # phase_phi is quadratic in each of eta1, eta2 separately, so the
        # centered difference carries no truncation error.
        h = 1e-3
        for xi, e1, e2 in [(1.3, 0.4, -0.9), (2.0, 2.0, 2.0), (-0.5, 0.1, 0.7)]:
            g1, g2 = grad_phase_phi(xi, e1, e2)
            d1 = (phase_phi(xi, e1 + h, e2) - phase_phi(xi, e1 - h, e2)) / (2 * h)
            d2 = (phase_phi(xi, e1, e2 + h) - phase_phi(xi, e1, e2 - h)) / (2 * h)
            assert abs(g1 - d1) <= 1e-9
            assert abs(g2 - d2) <= 1e-9

    @given(
        xi=st.floats(-8.0, 8.0),
        z1=st.floats(-8.0, 8.0),
        z2=st.floats(-8.0, 8.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_local_expansion_near_output_frequency(self, xi, z1, z2):
        # Phi(xi, xi+z1, xi+z2) = 6 xi z1 z2 + 3 (z1+z2) z1 z2, exactly.
        lhs = phase_phi(xi, xi + z1, xi + z2)
        rhs = 6.0 * xi * z1 * z2 + 3.0 * (z1 + z2) * z1 * z2
        assert abs(lhs - rhs) <= 1e-9


class TestResonanceGeometry:
    """Stationary points of the cubic phase and the quartic no-resonance scan."""

    def test_four_points_listed(self):
        rs = resonance_points(1.0)
        assert rs.points == ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (1.0 / 3.0, 1.0 / 3.0))
        assert rs.space_time == rs.points[:3]
        assert rs.space_only == rs.points[3]

    @pytest.mark.parametrize("xi", [1.0, -2.5, 0.3])
    def test_gradient_vanishes_on_the_set(self, xi):
        rs = resonance_points(xi)
        tol = 1e-12 * max(1.0, xi**2)
        for e1, e2 in rs.points:
            g1, g2 = grad_phase_phi(xi, e1, e2)
            assert abs(g1) <= tol and abs(g2) <= tol

    @pytest.mark.parametrize("xi", [1.3, -0.8])
    def test_phase_values_on_the_set(self, xi):
        rs = resonance_points(xi)
        for e1, e2 in rs.space_time:
            assert phase_phi(xi, e1, e2) == 0.0
        want = 8.0 * xi**3 / 9.0
        assert abs(phase_phi(xi, *rs.space_only) - want) <= 1e-12 * abs(want)

    def test_zero_frequency_rejected(self):
        with pytest.raises(ZeroFrequency):
            resonance_points(0.0)
        assert issubclass(ZeroFrequency, ValueError)

    def test_gradient_nonzero_off_the_set(self):
        # 2e4 uniform samples in [-3,3]^2, at least 0.1|xi| away from each
        # stationary point: the gradient norm never drops anywhere near the
        # 1e-6 xi^2 floor (the four listed points are the only zeros).
        xi = 1.3
        pts = np.array(resonance_points(xi).points)
        rng = SplitMix64(404)
        samp = np.array([rng.uniform() for _ in range(4 * 10**4)]).reshape(2, -1)
        samp = samp * 6.0 - 3.0
        dist2 = np.min(np.sum((samp[None, :, :] - pts[:, :, None]) ** 2, axis=1), axis=0)
        keep = dist2 >= (0.1 * xi) ** 2
        assert keep.sum() > 10**4
        g1, g2 = grad_phase_phi(xi, samp[0][keep], samp[1][keep])
        assert np.min(np.hypot(g1, g2)) > 1e-6 * xi**2

    def test_hessian_diagonal_values(self):
        # d^2/d eta1^2 Phi = -6 (xi - eta2): zero at (xi, xi), -4 xi at the
        # space-only point (xi/3, xi/3).  Quadratic in eta1, so the second
        # difference is exact.
        xi, h = 1.3, 1e-3
        def second(e1, e2):
            return (
                phase_phi(xi, e1 + h, e2) - 2.0 * phase_phi(xi, e1, e2) + phase_phi(xi, e1 - h, e2)
            ) / h**2
        assert abs(second(xi, xi)) <= 1e-6
        assert abs(second(xi / 3.0, xi / 3.0) - (-4.0 * xi)) <= 1e-6

    def test_quartic_phase_definition_and_gradient(self):
        # Psi = xi^3 - eta4^3 - eta1^3 - eta2^3 - eta3^3 with eta4 the output
        # remainder; gradient components are 3 eta4^2 - 3 eta_i^2.
        xi, e1, e2, e3 = 2.0, 0.5, -1.0, 0.25
        e4 = xi - e1 - e2 - e3
        assert phase_quartic(xi, e1, e2, e3) == pytest.approx(
            xi**3 - e4**3 - e1**3 - e2**3 - e3**3, rel=1e-15
        )
        g = grad_phase_quartic(xi, e1, e2, e3)
        for gi, ei in zip(g, (e1, e2, e3)):
            assert gi == pytest.approx(3.0 * e4**2 - 3.0 * ei**2, rel=1e-15)

    def test_quartic_phase_has_no_nonzero_resonance(self):
        # Minimize Psi^2 + |grad Psi|^2 over [-2,2]^4 with |xi| >= 0.2 on a
        # 41-node grid, then refine once around the argmin: the minimum stays
        # at 3.6e-5 (pinned to the |xi| = 0.2 boundary), far above 1e-6, so
        # the system Psi = 0, grad Psi = 0 has no solution with xi != 0.
        def scan(lo, hi, m):
            axes = [np.linspace(lo[i], hi[i], m) for i in range(4)]
            xi, e1, e2, e3 = np.meshgrid(*axes, indexing="ij")
            obj = phase_quartic(xi, e1, e2, e3) ** 2
            for g in grad_phase_quartic(xi, e1, e2, e3):
                obj = obj + g**2
            obj = np.where(np.abs(xi) >= 0.2, obj, np.inf)
            idx = np.unravel_index(np.argmin(obj), obj.shape)
            return obj[idx], np.array([axes[i][idx[i]] for i in range(4)])

        val, pt = scan([-2.0] * 4, [2.0] * 4, 41)
        assert val > 1e-6
        h = 4.0 / 40.0
        val2, pt2 = scan(pt - h, pt + h, 21)
        assert val2 > 1e-6
        assert abs(pt2[0]) >= 0.2 - 1e-12


class TestDyadicSymbolBound:
    """Multiplier-norm ratios of the cubic symbol on dyadic cells."""

    def test_ordering_precondition(self):
        with pytest.raises(ValueError, match="j1 >= j2 >= j3"):
            dyadic_symbol_bound(0, 1, 0, 1.0)

    def test_unknown_symbol_choice(self):
        with pytest.raises(ValueError, match="T1"):
            dyadic_symbol_bound(0, 0, 0, 1.0, which="T3")

    def test_constant_symbol_factorizes(self):
        # With alpha2 = 0 the symbol is the constant -1, so the multiplier
        # norm of psi_0 x psi_0 x psi_0 is the cube of the one-dimensional
        # value int |int psi(eta) e^{i eta y} d eta| dy, computed here by
        # direct quadrature.  The evaluator's y-lattice spacing is fixed at
        # 2 pi / extent, leaving a small percent-level quadrature bias.
        eta = np.linspace(-2.0, 2.0, 4001)
        deta = eta[1] - eta[0]
        psi = lp.bump(eta)
        ys = np.linspace(-60.0, 60.0, 24001)
        vals = np.empty_like(ys)
        for s in range(0, ys.size, 512):
            ker = np.exp(1j * np.outer(ys[s : s + 512], eta))
            vals[s : s + 512] = np.abs(ker @ psi) * deta
        cube = np.trapezoid(vals, ys) ** 3
        ratio = dyadic_symbol_bound(0, 0, 0, alpha2=0.0, which="T1", n_axis=384)
        assert abs(ratio - cube) <= 0.03 * cube

    def test_ratio_sweep_is_uniform(self):
        ratios = [
            dyadic_symbol_bound(j, j, j, alpha2=1.0, which="T1", n_axis=256)
            for j in (-1, 0, 1)
        ]
        assert max(ratios) / min(ratios) < 10.0

    def test_derivative_symbol_scales_exactly(self):
        # The derivative symbol is homogeneous of degree one and the lattice
        # scales with the cell, so the normalized ratio is j-independent.
        ratios = [
            dyadic_symbol_bound(j, j, j, alpha2=1.0, which="dT1", n_axis=256)
            for j in (-1, 0, 1)
        ]
        assert max(ratios) / min(ratios) <= 1.0 + 1e-12

    def test_refinement_report(self):
        report = dyadic_symbol_bound(1, 0, 0, alpha2=1.0, which="T1", n_axis=256, refine=True)
        assert set(report) == {"ratio", "refined_ratio", "rel_change"}
        assert report["rel_change"] <= 0.05


class TestScalingField:
    """S = x d_x + 3 t d_t with the centered sawtooth x-coordinate."""

    def test_pure_dilation_on_gaussian(self, grid):
        amp, w = 0.5, 1.5
        phi = gaussian_field(grid, amp, w)
        out = synthesize(scaling_field_direct(phi, 0.0, FAMILIES[0]))
        want = grid.x * (-2.0 * grid.x / w**2) * amp * np.exp(-((grid.x / w) ** 2))
        assert np.max(np.abs(out - want)) <= 1e-10

    def test_time_term_uses_the_equation(self, grid):
        phi = moderate_field(grid, 23, peak=0.4)
        spec = FAMILIES[2]
        s0 = scaling_field_direct(phi, 0.0, spec)
        s1 = scaling_field_direct(phi, 0.5, spec)
        dt_phi = -derivative(phi, 3).coeffs - nonlinearity_full(phi, spec).coeffs
        want = s0.coeffs + 1.5 * dt_phi
        assert np.max(np.abs(s1.coeffs - want)) <= 1e-12 * np.max(np.abs(want))

    def test_commutator_with_dx(self, grid):
        # [S, d_x] phi = -d_x phi at t = 0 for fields concentrated away from
        # the box seam (the sawtooth jump contributes e^{-(L/2w)^2} ~ 0).
        phi = transform(grid, np.exp(-((grid.x / 3.0) ** 2)) * np.cos(2.0 * grid.x))
        spec = FAMILIES[0]
        s_dx = scaling_field_direct(derivative(phi, 1), 0.0, spec)
        dx_s = derivative(scaling_field_direct(phi, 0.0, spec), 1)
        resid = s_dx.with_coeffs(s_dx.coeffs - dx_s.coeffs + derivative(phi, 1).coeffs)
        assert norm(resid, "L2") <= 1e-8 * norm(derivative(phi, 1), "L2")

    def test_commutator_with_dx3(self, grid):
        phi = transform(grid, np.exp(-((grid.x / 3.0) ** 2)) * np.cos(2.0 * grid.x))
        spec = FAMILIES[0]
        s_d3 = scaling_field_direct(derivative(phi, 3), 0.0, spec)
        d3_s = derivative(scaling_field_direct(phi, 0.0, spec), 3)
        resid = s_d3.with_coeffs(s_d3.coeffs - d3_s.coeffs + 3.0 * derivative(phi, 3).coeffs)
        assert norm(resid, "L2") <= 1e-8 * norm(derivative(phi, 3), "L2")


class TestWeightedDerivative:
    """(c1(phi) d_x)^k and its companion weight."""

    def test_zeroth_is_identity(self, grid):
        phi = gaussian_field(grid, 0.5, 1.5)
        out = weighted_derivative(phi, FAMILIES[0], 0)
        assert np.max(np.abs(out.coeffs - phi.coeffs)) <= 1e-13 * np.max(np.abs(phi.coeffs))

    def test_first_matches_closed_form(self, grid):
        amp, w, a = 0.5, 1.5, 0.7
        spec = CoefficientSpec("linear", a=a, b=0.0, c=0.0)
        phi = gaussian_field(grid, amp, w)
        u = amp * np.exp(-((grid.x / w) ** 2))
        ux = -2.0 * grid.x / w**2 * u
        want = np.sqrt((a * u) ** 2 + 1.0) * ux
        out = synthesize(weighted_derivative(phi, spec, 1))
        assert np.max(np.abs(out - want)) <= 1e-12

    def test_negative_order_rejected(self, grid):
        with pytest.raises(ValueError, match="k"):
            weighted_derivative(gaussian_field(grid, 0.1, 1.0), FAMILIES[0], -1)

    def test_weight_is_one_for_k_equal_one(self, grid):
        phi = gaussian_field(grid, 0.5, 1.5)
        w = weighted_norm_weight(phi, FAMILIES[2], 1)
        assert w.shape == (3 * grid.n,)
        assert np.all(w == 1.0)

    def test_weight_closed_form(self, grid):
        phi = gaussian_field(grid, 0.5, 1.5)
        spec = FAMILIES[2]
        w = weighted_norm_weight(phi, spec, 4, pad=3)
        from qmkdv.spectral_core import padded_values

        u = padded_values(phi, 3)
        assert np.max(np.abs(w - spec.c1_of(u) ** -1.0)) <= 1e-15


class TestConservedFunctionals:
    """Mass and energy against Gaussian closed forms."""

    def test_mass_closed_form(self, wide_grid):
        amp = 0.3
        phi = gaussian_field(wide_grid, amp, 1.0)
        want = amp * np.sqrt(np.pi)
        assert abs(mass(phi) - want) <= 1e-12 * want

    def test_mass_of_projected_field_is_zero(self, grid):
        phi = random_real_field(grid, 29)
        assert mass(phi) == 0.0

    def test_hamiltonian_closed_form(self, wide_grid):
        # phi = d_x(A e^{-x^2}) = -2 A x e^{-x^2}; Gaussian moments give
        # H = A^4 sqrt(pi) (7 a^2 - 3)/32 + (3/2) A^2 sqrt(pi/2)
        # for the linear family c = a phi.
        amp, a = 0.3, 0.7
        phi = transform(wide_grid, -2.0 * amp * wide_grid.x * np.exp(-(wide_grid.x**2)))
        want = (7.0 * a**2 - 3.0) / 32.0 * amp**4 * np.sqrt(np.pi)
        want += 1.5 * amp**2 * np.sqrt(np.pi / 2.0)
        got = hamiltonian(phi, CoefficientSpec("linear", a=a, b=0.0, c=0.0))
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_hamiltonian_of_zero_field(self, grid):
        zero = transform(grid, np.zeros(grid.n))
        assert hamiltonian(zero, FAMILIES[1]) == 0.0


# Unfused reference for the hot path: the composition the pseudo-spectral
# core is built from, with the (-1)^k parity applied as explicit products
# with GridSpec.parity and every derivative taken on a freshly built grid.


def _ref_transform(grid, u):
    scale = grid.box_length / (2.0 * np.pi * grid.n)
    return grid.parity * scale * np.fft.fft(np.asarray(u, dtype=np.complex128))


def _ref_derivative(grid, coeffs):
    return coeffs * (1j * grid.xi) ** 1


def _ref_synthesize(grid, coeffs):
    return np.fft.ifft(grid.parity * coeffs) * (grid.n * grid.dxi)


def _ref_padded_values(grid, coeffs, pad):
    fine = GridSpec(pad * grid.n, grid.box_length)
    n = grid.n
    padded = np.zeros(fine.n, dtype=np.complex128)
    padded[: n // 2] = coeffs[: n // 2]
    padded[fine.n - n // 2 :] = coeffs[n // 2 :]
    return _ref_synthesize(fine, padded)


def _ref_transform_from_padded(grid, w):
    m = w.shape[0]
    chat = _ref_transform(GridSpec(m, grid.box_length), w)
    n = grid.n
    return np.concatenate((chat[: n // 2], chat[m - n // 2 :]))


def _ref_nonlinearity_full(phi, spec, pad):
    g = phi.grid
    fine = GridSpec(pad * g.n, g.box_length)
    u = _ref_padded_values(g, phi.coeffs, pad)
    ux = _ref_padded_values(g, _ref_derivative(g, phi.coeffs), pad)
    cu = spec.c_of(u)
    inner = _ref_synthesize(fine, _ref_derivative(fine, _ref_transform(fine, cu * ux)))
    flux = u**3 + cu * inner
    return _ref_derivative(g, _ref_transform_from_padded(g, flux))


class TestHotPathMatchesUnfusedReference:
    """The sign-flip transforms and the memoized multipliers compute the same
    bits as the unfused composition with explicit parity products."""

    @pytest.mark.parametrize("seed", [61, 62])
    def test_transform_and_synthesize(self, grid, seed):
        phi = random_real_field(grid, seed)
        u = _ref_synthesize(grid, phi.coeffs)
        assert np.array_equal(synthesize(phi), u)
        assert np.array_equal(transform(grid, u).coeffs, _ref_transform(grid, u))

    @pytest.mark.parametrize("pad", [2, 3, 4])
    def test_padded_transforms(self, grid, pad):
        phi = random_real_field(grid, 63 + pad)
        w = _ref_padded_values(grid, phi.coeffs, pad)
        assert np.array_equal(padded_values(phi, pad), w)
        w = w**2
        assert np.array_equal(transform_from_padded(grid, w).coeffs, _ref_transform_from_padded(grid, w))

    @pytest.mark.parametrize("pad", [2, 3, 4])
    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.family)
    def test_nonlinearity_full(self, grid, spec, pad):
        phi = moderate_field(grid, 70 + pad)
        assert np.array_equal(nonlinearity_full(phi, spec, pad).coeffs, _ref_nonlinearity_full(phi, spec, pad))
