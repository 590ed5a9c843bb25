"""The equation right-hand side, its splitting, symbols, and resonance geometry.

Oracle notes: with pad=3 every polynomial product of degree <= 5 is alias-free
on the retained band (a degree-d product reaches frequency d*m with
m = (n/2)*dxi; on the 3n grid it wraps to d*m - 3*n*dxi, which stays outside
|xi| < m for d <= 5), so the splitting identities below hold to round-off, not
just to a padding tolerance.
"""

import json
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmkdv import littlewood_paley as lp
from qmkdv import spectral_core
from qmkdv.integrator import SimConfig, gaussian_datum, run
from qmkdv.identities import (commutator_errors, local_phase_residual, phase_factorization_error, resonance_errors,
                              t1_reduced_form_error, t1_symmetry_error, t2_spot_error)
from qmkdv.model import (
    _SYMBOLS,
    BootstrapConstants,
    CoefficientSpec,
    ZeroFrequency,
    _terms,
    dyadic_symbol_bound,
    grad_phase_phi,
    hamiltonian,
    mass,
    nonlinearity_full,
    phase_phi,
    resonance_points,
    scaling_field_direct,
    symbol_t1,
    symbol_t2,
)
from qmkdv.rng import SplitMix64
from qmkdv.spectral_core import (
    GridSpec,
    _padded_rows,
    derivative,
    norm,
    synthesize,
    transform,
    transform_from_padded,
)

from conftest import (
    alpha3,
    assert_matches_oracle,
    band_spectrum,
    c_doubleprime0,
    fine_derivative_values,
    gaussian_field,
    natural_order,
    nonlinearity_split,
    padded_values,
    phase_rows,
    random_real_field,
    symbol_t1_d1,
)

FAMILIES = (
    CoefficientSpec("linear", a=1.3, b=0.0, c=0.0),
    CoefficientSpec("sine", a=1.1, b=0.0, c=0.0),
    CoefficientSpec("cubic_poly", a=0.8, b=0.5, c=1.0),
)
# the families and every study's default c (a = 1, b = 1, c = 0), which takes
# the c == 0 forms of c_of and c_prime_of
WITH_DEFAULT = FAMILIES + (CoefficientSpec(),)


def spec_id(spec):
    return "default" if spec == CoefficientSpec() else spec.family


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
    def test_c3_triple_zero_numerically(self, spec):
        # c3 = c - c'(0) v - c''(0) v^2 / 2 vanishes to third order exactly
        # when c_prime_of(0) and the oracle's c_doubleprime0
        # (which its alpha3 reads) are the Taylor data of c_of.  Central
        # differences: first derivative at h=1e-7 (truncation c*h^2), second
        # at h=1e-3 (cancellation round-off scales like eps*a/h).
        def c3(v):
            return spec.c_of(v) - spec.c_prime_of(0.0) * v - 0.5 * c_doubleprime0(spec) * v**2

        d0 = c3(0.0)
        d1 = (c3(1e-7) - c3(-1e-7)) / 2e-7
        d2 = (c3(1e-3) - 2.0 * c3(0.0) + c3(-1e-3)) / 1e-6
        assert abs(d0) <= 1e-12
        assert abs(d1) <= 1e-12
        assert abs(d2) <= 1e-12

    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.family)
    def test_c_prime_matches_centered_differences(self, spec):
        # truncation |c'''| h^2/6 and round-off eps |c| / h both stay far
        # below 1e-9 at h = 1e-5
        v = np.linspace(-1.5, 1.5, 61)
        h = 1e-5
        diff = (spec.c_of(v + h) - spec.c_of(v - h)) / (2.0 * h)
        assert np.max(np.abs(spec.c_prime_of(v) - diff)) <= 1e-9

    @pytest.mark.parametrize("spec", WITH_DEFAULT, ids=spec_id)
    def test_out_gives_the_expression_forms_bits(self, spec):
        v = np.linspace(-1.5, 1.5, 61)
        if spec.family == "linear":
            c, cp = spec.a * v, spec.a
        elif spec.family == "sine":
            c, cp = np.sin(spec.a * v), spec.a * np.cos(spec.a * v)
        else:
            c = v * (spec.a + v * (spec.b + spec.c * v))
            cp = spec.a + v * (2.0 * spec.b + 3.0 * spec.c * v)
        out = np.empty_like(v)
        assert spec.c_of(v, out=out) is out and np.array_equal(out, c)
        assert np.array_equal(spec.c_of(v), c)
        got = spec.c_prime_of(v, out=out)
        assert np.array_equal(got, cp) and (got is out or spec.family == "linear")
        assert np.array_equal(spec.c_prime_of(v), cp)

    def test_linear_family_has_no_remainder(self):
        spec = CoefficientSpec("linear", a=1.7, b=0.0, c=0.0)
        v = np.linspace(-5.0, 5.0, 101)
        assert c_doubleprime0(spec) == 0.0
        assert np.all(spec.c_of(v) == spec.c_prime_of(0.0) * v)

    def test_alpha_constants_per_family(self):
        lin = CoefficientSpec("linear", a=1.3, b=0.0, c=0.0)
        sin = CoefficientSpec("sine", a=1.1, b=0.0, c=0.0)
        cub = CoefficientSpec("cubic_poly", a=0.8, b=0.5, c=1.0)
        assert lin.alpha2 == 1.3**2 and alpha3(lin) == 0.0
        assert sin.alpha2 == 1.1**2 and alpha3(sin) == 0.0
        assert cub.alpha2 == 0.8**2
        # alpha3 = (1/2) c''(0) c'(0) = (1/2)(2b)(a) = a b
        assert alpha3(cub) == 0.8 * 0.5

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
        # p0 is derived from delta, so no caller can set the two apart
        assert BootstrapConstants(delta=2e-3).p0 == 2e-3 / 10.0
        assert BootstrapConstants().p0 == 1e-4  # the value every report's metadata carries
        with pytest.raises(TypeError, match="p0"):
            BootstrapConstants(delta=1e-3, p0=2e-4)

    def test_p1_floor_enforced(self):
        with pytest.raises(ValueError, match="p1"):
            BootstrapConstants(p1=1e-6)

    @pytest.mark.parametrize("s", [4.0, 3.0])
    def test_p1_bound_denominator_positive(self, s):
        """s + 1 - 2 gamma_h is 0 at s = 4 (a division by zero) and negative
        at s = 3 (a vacuous bound); both are refused before the bound."""
        with pytest.raises(ValueError, match="s \\+ 1 - 2 gamma_h > 0"):
            BootstrapConstants(s=s)


def quintic_remainder_c3_zero(phi, spec):
    """N5plus in closed form for c(v) = a v + b v^2 (c3 = 0):
    d_x(q d_x(q d_x phi)) with q = b phi^2, the inner d_x taken spectrally on
    the grid padded by spec.pad."""
    pad = spec.pad
    u = padded_values(phi, pad)
    ux = padded_values(derivative(phi, 1), pad)
    q = 0.5 * c_doubleprime0(spec) * u**2
    inner = fine_derivative_values(phi.grid, pad, q * ux)
    return derivative(transform_from_padded(phi.grid, phase_rows(q * inner, phi.grid.n), phi.time), 1)


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
        # frequency-sorted spectrum of the real field (see band_spectrum),
        # then multiply by i xi.
        phi = random_real_field(grid, 11, decay=1.5)
        out = nonlinearity_full(phi, CoefficientSpec("linear", a=0.0, b=0.0, c=0.0))
        c = band_spectrum(phi.coeffs)
        c3 = np.convolve(np.convolve(c, c), c) * grid.dxi**2
        lo = 3 * (grid.n // 2 - 1)
        want = 1j * grid.half_xi * c3[lo : lo + grid.n // 2]
        assert np.max(np.abs(out.coeffs - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "spec",
        [CoefficientSpec("linear", a=1.3, b=0.0, c=0.0), CoefficientSpec("cubic_poly", a=0.8, b=0.5, c=0.0)],
        ids=["linear-pad2", "cubic_poly-c0-pad3"],
    )
    def test_whole_nonlinearity_matches_dense_convolution(self, grid, spec):
        # Independent assembly of the whole N(phi) where the flux is a
        # polynomial of degree <= 2 spec.pad - 1: expand u^3 + c(u) (c'(u) u_x^2 +
        # c(u) u_xx) into monomials in u, u_x, u_xx (c = a u + b u^2, so
        # c c' = a^2 u + 3ab u^2 + 2b^2 u^3 and c^2 = a^2 u^2 + 2ab u^3 + b^2 u^4),
        # form each by dense convolutions of the spectra (see band_spectrum),
        # keep the stored coefficients and multiply by i xi.  Every stored
        # coefficient is alias-free.
        phi = moderate_field(grid, 31)
        out = nonlinearity_full(phi, spec).coeffs
        h = grid.n // 2
        c = band_spectrum(phi.coeffs)
        xi = grid.dxi * np.arange(1 - h, h)
        rows = [c, 1j * xi * c, -(xi**2) * c]
        a, b = spec.a, spec.b
        monomials = [
            (1.0, (0, 0, 0)),
            (a * a, (0, 1, 1)), (3.0 * a * b, (0, 0, 1, 1)), (2.0 * b * b, (0, 0, 0, 1, 1)),
            (a * a, (0, 0, 2)), (2.0 * a * b, (0, 0, 0, 2)), (b * b, (0, 0, 0, 0, 2)),
        ]
        flux = np.zeros(h, dtype=np.complex128)
        for coef, orders in monomials:
            conv = rows[orders[0]]
            for k in orders[1:]:
                conv = np.convolve(conv, rows[k]) * grid.dxi
            lo = len(orders) * (h - 1)
            flux += coef * conv[lo : lo + h]
        want = 1j * grid.half_xi * flux
        assert np.max(np.abs(out - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.family)
    def test_recomposition_is_exact(self, grid, spec):
        phi = moderate_field(grid, 7)
        full = nonlinearity_full(phi, spec)
        n3, n4, n5 = nonlinearity_split(phi, spec)
        rec = n3.coeffs + n4.coeffs + n5.coeffs
        assert np.max(np.abs(rec - full.coeffs)) <= 1e-13 * np.max(np.abs(full.coeffs))

    @pytest.mark.parametrize("seed", [7, 31, 72])
    @pytest.mark.parametrize("spec", FAMILIES[1:], ids=lambda s: s.family)
    def test_aliasing_at_pad_3_is_round_off(self, grid, spec, seed):
        # sine (not a polynomial) and cubic_poly with c != 0 (a degree-7
        # flux) alias at their pad 3; against pad 8 the aliases read at
        # round-off on moderate fields (about 1e-15 of max |N|)
        assert spec.pad == 3 and (spec.family == "sine" or spec.c != 0.0)
        phi = moderate_field(grid, seed)
        want = _ref_nonlinearity_full(phi, spec, 8)
        got = nonlinearity_full(phi, spec).coeffs
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

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
        disp = quintic_remainder_c3_zero(phi, spec)
        diff = n5.with_coeffs(n5.coeffs - disp.coeffs)
        assert norm(diff, "L2") <= 1e-10 * norm(n5, "L2")


class TestPaddedWorkspace:
    """N(phi) forms its products in a plan's workspace reused per thread and
    per (n, L, pad): no result depends on what an earlier call or another
    thread left there, and a warm call allocates no padded rows of its own."""

    def test_other_box_with_same_n_leaves_no_trace(self):
        spec = FAMILIES[2]
        phi1 = moderate_field(GridSpec(n=128, box_length=40.0), 90)
        phi2 = moderate_field(GridSpec(n=128, box_length=70.0), 91)
        first = nonlinearity_full(phi1, spec).coeffs
        nonlinearity_full(phi2, spec)
        assert np.array_equal(nonlinearity_full(phi1, spec).coeffs, first)
        # the same n at pad 2 (the linear family) after pad 3, and back
        linear = FAMILIES[0]
        assert (linear.pad, spec.pad) == (2, 3)
        assert_matches_oracle(nonlinearity_full(phi1, linear).coeffs, _ref_nonlinearity_full(phi1, linear, 2))
        assert np.array_equal(nonlinearity_full(phi1, spec).coeffs, first)

    def test_oracle_row_unchanged_by_a_call(self, grid):
        phi = moderate_field(grid, 92)
        row = padded_values(phi, 3, 1)
        before = row.copy()
        nonlinearity_full(phi, FAMILIES[2])
        hamiltonian(phi, FAMILIES[2])
        assert np.array_equal(row, before)

    def test_threads_keep_their_own_rows(self):
        """More threads than cores, switching often, each 50 times on its own
        field, N(phi) and H interleaved on the thread's one plan: every result
        is bitwise the serial one."""
        grid = GridSpec(n=1024, box_length=120.0)
        spec = FAMILIES[2]
        fields = [moderate_field(grid, seed) for seed in range(93, 97)]

        def both(phi):
            return nonlinearity_full(phi, spec).coeffs.tobytes(), hamiltonian(phi, spec)

        serial = [both(phi) for phi in fields]

        def repeat(phi):
            return [both(phi) for _ in range(50)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(fields)) as ex:
                runs = list(ex.map(repeat, fields, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for want, got in zip(serial, runs):
            assert all(pair == want for pair in got)

    def test_warm_calls_make_one_plan_lookup_per_padded_product(self):
        """A warm N(phi) looks its plan up once for its samples and once for
        their analysis, a warm H once for its samples; neither makes any other
        memoized lookup in spectral_core (tables, i xi), hit or miss."""
        memoized = {name: fn for name, fn in vars(spectral_core).items() if hasattr(fn, "cache_info")}
        assert "_plan" in memoized

        def counts():
            return {name: fn.cache_info()[:2] for name, fn in memoized.items()}

        phi = moderate_field(GridSpec(n=256, box_length=45.0), 97)
        for spec in (FAMILIES[0], FAMILIES[2]):
            for call, lookups in ((nonlinearity_full, 2), (hamiltonian, 1)):
                call(phi, spec)
                before = counts()
                call(phi, spec)
                after = counts()
                hits, misses = before.pop("_plan")
                assert after.pop("_plan") == (hits + lookups, misses)
                assert after == before

    def test_plan_holds_only_the_orders_asked_for(self):
        """A run asks N(phi) for orders 0, 1, 2 and H for 0, 1: its plan holds
        no order-3 table, which only the tests ask for."""
        grid = GridSpec(n=64, box_length=21.0)  # a grid no other test uses
        spec = CoefficientSpec()
        cfg = SimConfig(coeff=spec, initial=gaussian_datum(grid, 0.5, 1.0), t_end=0.05)
        run(cfg)
        plan = spectral_core._plan(threading.get_ident(), grid.n, grid.box_length, spec.pad)
        assert sorted(plan) == [0, 1, 2]

    def test_warm_call_allocates_under_four_padded_rows(self):
        """tracemalloc sees numpy's data buffers: a warm call at pad 3 peaks
        at 0.40 rows at n = 1024 and 0.34 rows at the decay study's n = 6144,
        its output spectrum (n/2 complex values, 1/3 of a row) and numpy's
        small buffers.  A 2-D ufunc on broadcast or strided operands would
        take iterator buffers of up to 8192 items (0.9 of a row each at
        n = 6144).  With c(u) and c'(u) outside the workspace the peak was
        3.03 rows, and with fresh rows, half spectra and product spectrum
        8.05."""
        spec = CoefficientSpec()
        assert spec.pad == 3
        for n in (1024, 6144):
            grid = GridSpec(n=n, box_length=120.0 * n / 1024)
            phi = moderate_field(grid, 95)
            nonlinearity_full(phi, spec)
            tracemalloc.start()
            try:
                nonlinearity_full(phi, spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16 * (grid.n // 2) + 8 * 3 * grid.n / 8  # the output and an eighth of a row

    def test_warm_hamiltonian_allocates_no_padded_rows(self):
        """A warm H at n = 1024, pad 3 forms its integrand in two scratch rows
        of the workspace and peaks at 0.08 rows, numpy's small buffers.  With
        u*u, c(u) and the integrand as fresh arrays the peak was 6.03 rows."""
        grid = GridSpec(n=1024, box_length=120.0)
        phi = moderate_field(grid, 95)
        spec = CoefficientSpec()
        assert spec.pad == 3
        hamiltonian(phi, spec)
        tracemalloc.start()
        try:
            hamiltonian(phi, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 3 * grid.n / 8  # an eighth of a row


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
        assert t1_symmetry_error(a, b, c, alpha2) == 0.0

    def test_reduced_form_on_constraint_surface(self):
        # relative to max(1, |reduced form|) at each point, so at most the old 1e-12 max|reduced form|
        rng = SplitMix64(303)
        vals = np.array([rng.uniform() for _ in range(3 * 10**4)]).reshape(3, -1)
        e1, e2, xi = vals * 16.0 - 8.0
        assert t1_reduced_form_error(xi, e1, e2, 0.9) <= 1e-12

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
        assert t2_spot_error() == 0.0

    @given(e4=st.floats(-1e6, 1e6))
    @settings(max_examples=50, deadline=None)
    def test_last_frequency_is_inert(self, e4):
        assert symbol_t2(1.5, -0.3, 0.8, e4) == symbol_t2(1.5, -0.3, 0.8, 0.0)


class TestCubicPhase:
    """Factored and expanded forms of the oscillation phase and its gradient."""

    def test_spot_value_both_forms(self):
        assert phase_phi(4.0, 1.0, 2.0) == 54.0
        assert phase_factorization_error(4.0, 1.0, 2.0) == 0.0

    @given(
        xi=st.floats(-8.0, 8.0),
        e1=st.floats(-8.0, 8.0),
        e2=st.floats(-8.0, 8.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_factored_equals_expanded(self, xi, e1, e2):
        # relative to max(1, sum of |cubes|) <= 3 * 8^3 + 24^3 on this box: the old absolute 1e-9
        assert phase_factorization_error(xi, e1, e2) <= 1e-9 / (3 * 8.0**3 + 24.0**3)

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
        assert abs(local_phase_residual(xi, z1, z2)) <= 1e-9


def phase_quartic(xi, eta1, eta2, eta3):
    """Quartic oscillation phase xi^3 - eta4^3 - sum eta_i^3, eta4 = xi - eta1 - eta2 - eta3."""
    eta4 = xi - eta1 - eta2 - eta3
    return xi**3 - eta4**3 - eta1**3 - eta2**3 - eta3**3


def grad_phase_quartic(xi, eta1, eta2, eta3):
    """Gradient of phase_quartic in (eta1, eta2, eta3): 3 eta4^2 - 3 eta_i^2."""
    eta4 = xi - eta1 - eta2 - eta3
    return tuple(3.0 * eta4**2 - 3.0 * e**2 for e in (eta1, eta2, eta3))


class TestResonanceGeometry:
    """Stationary points of the cubic phase and the quartic no-resonance scan."""

    def test_four_points_listed(self):
        rs = resonance_points(1.0)
        assert rs.points == ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (1.0 / 3.0, 1.0 / 3.0))
        assert rs.space_time == rs.points[:3]
        assert rs.space_only == rs.points[3]

    @pytest.mark.parametrize("xi", [1.0, -2.5, 0.3])
    def test_gradient_vanishes_on_the_set(self, xi):
        assert resonance_errors(xi)[0] <= 1e-12  # relative to max(1, xi^2)

    @pytest.mark.parametrize("xi", [1.3, -0.8])
    def test_phase_values_on_the_set(self, xi):
        for e1, e2 in resonance_points(xi).space_time:
            assert phase_phi(xi, e1, e2) == 0.0
        # relative to max(1, |xi|^3): the old 1e-12 times the space-only value 8 |xi|^3 / 9
        assert resonance_errors(xi)[1] <= 1e-12 * (8.0 / 9.0) * min(1.0, abs(xi) ** 3)

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
        # With eta3 = 0 the quartic phase is the cubic one; the gradient
        # matches centered differences, which are exact up to round-off
        # because the third eta_i-derivative of the phase vanishes.
        xi, e1, e2, e3, h = 2.0, 0.5, -1.0, 0.25, 1e-3
        assert phase_quartic(xi, e1, e2, 0.0) == pytest.approx(phase_phi(xi, e1, e2), rel=1e-14)
        g = grad_phase_quartic(xi, e1, e2, e3)
        for i in range(3):
            up, down = [e1, e2, e3], [e1, e2, e3]
            up[i] += h
            down[i] -= h
            diff = (phase_quartic(xi, *up) - phase_quartic(xi, *down)) / (2 * h)
            assert abs(g[i] - diff) <= 1e-9

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
            dyadic_symbol_bound(0, 1, 0, 1.0, n_axis=48)

    def test_unknown_symbol_choice(self):
        with pytest.raises(ValueError, match="T1"):
            dyadic_symbol_bound(0, 0, 0, 1.0, n_axis=48, which="T3")

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
        # Every grid and factor scales by a power of two, so the ratio is
        # bitwise equal.
        ratios = [
            dyadic_symbol_bound(j, j, j, alpha2=1.0, which="dT1", n_axis=256)
            for j in (-1, 0, 1)
        ]
        assert ratios[0] == ratios[1] == ratios[2]

    @pytest.mark.parametrize("which, want", [("T1", 1999.0472599273248), ("dT1", 2162.8272721755993)])
    def test_unit_cell_ratios_pinned(self, which, want):
        # The j=0 cell of the resonance study at its default n_axis.
        assert dyadic_symbol_bound(0, 0, 0, 1.0, which=which, n_axis=384) == pytest.approx(want, rel=1e-12)

    def test_refinement_report(self):
        report = dyadic_symbol_bound(1, 0, 0, alpha2=1.0, which="T1", n_axis=256, refine=True)
        assert set(report) == {"ratio", "refined_ratio", "rel_change"}
        assert report["rel_change"] <= 0.05

    @pytest.mark.parametrize("which, oracle", [("T1", symbol_t1), ("dT1", symbol_t1_d1)])
    def test_monomial_table_sums_to_its_symbol(self, which, oracle):
        """The terms `dyadic_symbol_bound` contracts, T1's monomials and those
        derived from them, sum to symbol_t1 and to the conftest's dT1/deta1.
        Each side rounds a few times on terms of size at most S, the sum of
        the terms' absolute values, so they agree to 1e-14 S at every point;
        a dropped monomial, constant or factor k_m p_m1 moves the sum by a
        sizeable part of S."""
        eta = SplitMix64(36).uniforms(3 * 4000, -8.0, 8.0).reshape(3, -1)
        monomials, constant, _ = _SYMBOLS[which]
        coeffs, powers = _terms(monomials, constant, 1.7)
        terms = np.array([c * eta[0] ** p[0] * eta[1] ** p[1] * eta[2] ** p[2] for c, p in zip(coeffs, powers)])
        error = np.abs(terms.sum(axis=0) - oracle(*eta, 1.7))
        assert np.all(error <= 1e-14 * np.abs(terms).sum(axis=0))

    def test_benchmark_reference_reproduces(self):
        """`perfbench/make_resonance_reference.py` calls `dyadic_symbol_bound`
        by keyword; its rows still equal the committed reference to 1e-12
        relative.  It runs in a subprocess, as its np.trapz alias must stay
        out of this one, and writes no file."""
        root = Path(__file__).resolve().parents[1]
        code = ("import json; from make_resonance_reference import FINE_N_AXIS, WORKLOADS, reference_doc; "
                "print(json.dumps(reference_doc(WORKLOADS['resonance-sweep'].base, FINE_N_AXIS)))")
        env = {**os.environ, "PYTHONPATH": "perfbench"}
        done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True,
                              check=True)
        got = json.loads(done.stdout)["rows"]
        want = json.loads((root / "perfbench" / "reference" / "resonance.json").read_text(encoding="utf-8"))["rows"]
        assert [(r["which"], r["j"]) for r in got] == [(r["which"], r["j"]) for r in want]
        for g, w in zip(got, want):
            for key in ("ratio", "refined_ratio", "fine_ratio"):
                assert g[key] == pytest.approx(w[key], rel=1e-12, abs=0.0), (g["which"], key)


class TestScalingField:
    """S = x d_x + 3 t d_t with the centered sawtooth x-coordinate."""

    def test_pure_dilation_on_gaussian(self, grid):
        amp, w = 0.5, 1.5
        phi = gaussian_field(grid, amp, w)
        out = synthesize(scaling_field_direct(phi, FAMILIES[0]))
        want = grid.x * (-2.0 * grid.x / w**2) * amp * np.exp(-((grid.x / w) ** 2))
        assert np.max(np.abs(out - want)) <= 1e-10

    def test_time_term_uses_the_equation(self, grid):
        phi = moderate_field(grid, 23, peak=0.4)
        spec = FAMILIES[2]
        s0 = scaling_field_direct(phi, spec)
        s1 = scaling_field_direct(phi.with_coeffs(phi.coeffs, time=0.5), spec)
        dt_phi = -derivative(phi, 3).coeffs - nonlinearity_full(phi, spec).coeffs
        want = s0.coeffs + 1.5 * dt_phi
        assert np.max(np.abs(s1.coeffs - want)) <= 1e-12 * np.max(np.abs(want))

    def test_commutator_with_dx(self, grid):
        # [S, d_x] phi = -d_x phi at t = 0 for fields concentrated away from
        # the box seam (the sawtooth jump contributes e^{-(L/2w)^2} ~ 0).
        u = np.exp(-((grid.x / 3.0) ** 2)) * np.cos(2.0 * grid.x)
        assert commutator_errors(grid, u, FAMILIES[0])[0] <= 1e-8

    def test_commutator_with_dx3(self, grid):
        # relative to ||3 d_x^3 phi||, so 1e-8 / 3 is the old 1e-8 ||d_x^3 phi||
        u = np.exp(-((grid.x / 3.0) ** 2)) * np.cos(2.0 * grid.x)
        assert commutator_errors(grid, u, FAMILIES[0])[1] <= 1e-8 / 3.0


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
# Every transform is real: half spectra and rfft/irfft.


def _ref_transform(grid, u):
    scale = grid.box_length / (2.0 * np.pi * grid.n)
    return grid.parity[: grid.n // 2] * scale * np.fft.rfft(u)[: grid.n // 2]


def _ref_derivative(grid, coeffs, k=1):
    return coeffs * (1j * grid.xi[: grid.n // 2]) ** k


def _ref_synthesize(grid, coeffs):
    return np.fft.irfft(grid.parity[: grid.n // 2] * coeffs, grid.n) * (grid.n * grid.dxi)


def _ref_padded_values(grid, coeffs, pad):
    fine = GridSpec(pad * grid.n, grid.box_length)
    half = np.zeros(fine.n // 2 + 1, dtype=np.complex128)
    half[: grid.n // 2] = coeffs
    return np.fft.irfft(fine.parity[: fine.n // 2 + 1] * half, fine.n) * (fine.n * fine.dxi)


def _ref_transform_from_padded(grid, w):
    scale = grid.box_length / (2.0 * np.pi * w.shape[0])
    return grid.parity[: grid.n // 2] * (scale * np.fft.rfft(w)[: grid.n // 2])


def _ref_nonlinearity_full(phi, spec, pad):
    """The product-rule flux u^3 + c(u) (c'(u) u_x^2 + c(u) u_xx) at padding factor pad."""
    g = phi.grid
    u, ux, uxx = (_ref_padded_values(g, _ref_derivative(g, phi.coeffs, k), pad) for k in range(3))
    cu = spec.c_of(u)
    flux = u * u * u + cu * (spec.c_prime_of(u) * (ux * ux) + cu * uxx)
    return _ref_derivative(g, _ref_transform_from_padded(g, flux))


@dataclass(frozen=True)
class _SpecAtPad(CoefficientSpec):
    """A family's c at a padding factor other than its own: the hot path is
    generic in the pad and the family only chooses it, so the oracles cover
    any pad a family may take later."""

    forced_pad: int = 3

    @property
    def pad(self) -> int:
        return self.forced_pad


def at_pad(spec, pad):
    """spec itself at its own pad, else its c at the given pad."""
    return spec if pad == spec.pad else _SpecAtPad(spec.family, spec.a, spec.b, spec.c, forced_pad=pad)


class TestHotPathMatchesUnfusedReference:
    """The sign-flip transforms and the memoized multipliers compute the same
    bits as the unfused composition with explicit parity products; the
    padded products, formed on phase rows, match it to round-off."""

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
        assert_matches_oracle(natural_order(_padded_rows(phi, pad, (0,)).rows[0]), w)
        w = w**2
        assert_matches_oracle(transform_from_padded(grid, phase_rows(w, grid.n)).coeffs, _ref_transform_from_padded(grid, w))

    @pytest.mark.parametrize("pad", [2, 3, 4])
    @pytest.mark.parametrize("spec", WITH_DEFAULT, ids=spec_id)
    def test_nonlinearity_full(self, grid, spec, pad):
        """Every family and the default c at pads 2-4, its own (spec.pad) among them."""
        phi = moderate_field(grid, 70 + pad)
        got = nonlinearity_full(phi, at_pad(spec, pad)).coeffs
        assert_matches_oracle(got, _ref_nonlinearity_full(phi, spec, pad))

    @pytest.mark.parametrize("spec", WITH_DEFAULT, ids=spec_id)
    def test_hamiltonian(self, grid, spec):
        """H formed in workspace rows is the expression on fresh samples, to
        1e-13 relative: its rows and its sum run over the phase rows."""
        phi = moderate_field(grid, 76)
        u, ux = (_ref_padded_values(grid, _ref_derivative(grid, phi.coeffs, k), spec.pad) for k in range(2))
        u2 = u * u
        cu = spec.c_of(u)
        integrand = -0.25 * (u2 * u2) + 0.5 * (cu * cu + 1.0) * (ux * ux)
        want = float(grid.box_length / u.size * np.sum(integrand))
        assert abs(hamiltonian(phi, spec) - want) <= 1e-13 * abs(want)


def _complex_padded_values(grid, coeffs, pad):
    """Complex samples on the refined grid of the whole spectrum, split into
    c_j at j >= 0 and its mirror conj(c_j) at -j."""
    fine = GridSpec(pad * grid.n, grid.box_length)
    h = grid.n // 2
    padded = np.zeros(fine.n, dtype=np.complex128)
    padded[:h] = coeffs
    padded[fine.n - h + 1 :] = np.conj(coeffs[:0:-1])
    return np.fft.ifft(fine.parity * padded) * (fine.n * fine.dxi)


def _complex_nonlinearity_full(phi, spec, pad):
    """N(phi) composed in complex arithmetic on the whole spectrum, the flux
    by the product rule."""
    g = phi.grid
    fine = GridSpec(pad * g.n, g.box_length)
    u, ux, uxx = (_complex_padded_values(g, _ref_derivative(g, phi.coeffs, k), pad) for k in range(3))
    cu = spec.c_of(u)
    flux = u**3 + cu * (spec.c_prime_of(u) * ux**2 + cu * uxx)
    chat = fine.parity * (g.box_length / (2.0 * np.pi * fine.n)) * np.fft.fft(flux)
    return _ref_derivative(g, chat[: g.n // 2])


class TestRealInterpolant:
    """The real padded products read a real field as its real band-limited
    interpolant: they equal the complex composition on the whole spectrum,
    split into c_j at j >= 0 and conj(c_j) at -j, with no Nyquist mode."""

    @pytest.mark.parametrize("pad", [2, 3, 4])
    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.family)
    def test_matches_complex_composition_of_split_spectrum(self, grid, spec, pad):
        phi = moderate_field(grid, 80 + pad)
        got = nonlinearity_full(phi, at_pad(spec, pad)).coeffs
        want = _complex_nonlinearity_full(phi, spec, pad)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
