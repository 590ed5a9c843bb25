"""Dyadic cutoffs, band projections, B^{a,b} norms, S_infty, interpolation.

The bump is the smoothed-step construction with plateau |xi| <= 5/4 and
support |xi| <= 8/5; everything else is derived from it.  The value frozen
below (bump(1.3)) was computed once from that construction and guards
against accidental recalibration.

The oracle for the separable S_infty contraction is the dense route: sample
the assembled symbol on the full tensor grid and take one n-dimensional
inverse FFT (`dense_s_infty`).  The oracle for its bits is the contraction
of slices of the whole (y2, y3) pair matrix, built first
(`materialized_s_infty`); the package forms those columns one row at a time.
Cells with at most two lead-axis powers (dT1) are summed by a line sweep
instead, which adds in another order: they match that oracle to 1e-13, and
the sweep itself matches the direct sum over the lead axis.  Cells with
equal js and axes whose terms are closed under every permutation of their
powers (T1 on (j, j, j)) are summed over one point of each orbit of the 12
maps y -> +-(y permuted), also in another order: they match the dense route
to 1e-12 and that oracle to 1e-13, whatever the tile.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmkdv import littlewood_paley, model
from qmkdv.identities import partition_error
from qmkdv.littlewood_paley import (
    SUPPORT_EDGE,
    DegenerateInput,
    UnresolvedSymbol,
    b_norm,
    bump,
    interpolation_ratio,
    project,
    psi_k,
    psi_tilde,
    s_infty_separable,
)
from qmkdv.rng import SplitMix64
from qmkdv.spectral_core import (
    GridSpec,
    SpectralField,
    synthesize,
    transform,
)

from conftest import gaussian_field, random_real_field, real_zero_mean_head, symbol_t1_d1


def symbol_axes(xi_extents, n_axis):
    """One GridSpec per axis whose xi samples span the given full width."""
    # GridSpec with box_length Y makes grid.xi cover [-pi n/Y, pi n/Y)
    return tuple(GridSpec(n=n_axis, box_length=2.0 * np.pi * n_axis / extent) for extent in xi_extents)


def dense_s_infty(fn, axes):
    """S_infty of fn sampled on the full tensor grid of `axes`, by one
    n-dimensional inverse FFT.  Refuses a grid on which the symbol has not
    decayed to 1e-14 of its peak at the edge frequencies."""
    mesh = np.meshgrid(*(ax.xi for ax in axes), indexing="ij", sparse=True)
    vals = np.broadcast_to(np.asarray(fn(*mesh), dtype=np.complex128), tuple(ax.n for ax in axes))
    peak = np.max(np.abs(vals))
    for axis, ax in enumerate(axes):
        edge = np.take(vals, [ax.n // 2, ax.n // 2 - 1], axis=axis)
        if np.max(np.abs(edge)) > 1e-14 * peak:
            raise UnresolvedSymbol("symbol has not decayed at the grid edge")
    for axis, ax in enumerate(axes):
        shape = [1] * len(axes)
        shape[axis] = ax.n
        vals = vals * ax.parity.reshape(shape)
    scale = np.prod([ax.n * ax.dxi * ax.dx for ax in axes])
    return float(np.sum(np.abs(np.fft.ifftn(vals))) * scale)


def materialized_s_infty(axes, coeffs, powers, js):
    """`s_infty_separable` with every pair column built before the contraction:
    the whole (y2, y3) pair matrix, whose row slices go through `_abs_sum`,
    each from column k + 1 on and then the diagonal when exchange symmetric."""
    signed, lead, left, right, symmetry = littlewood_paley._kernel_factors(axes, coeffs, powers, js)
    lead, n1, n2 = lead * signed, left.shape[1], right.shape[1]
    pair = (left[:, :, None] * right[:, None, :]).reshape(lead.shape[1], -1)
    if symmetry > 1:
        upper = [pair[:, k * n2 + k + 1 : (k + 1) * n2] for k in range(n2 - 1)]
        diagonal = np.ascontiguousarray(pair[:, :: n2 + 1])
        return 2.0 * littlewood_paley._abs_sum(lead, upper, n2) + littlewood_paley._abs_sum(lead, [diagonal], n2)
    return littlewood_paley._abs_sum(lead, [pair[:, k * n2 : (k + 1) * n2] for k in range(n1)], n2)


cell_axes = model._cell_axes  # the model's axes for the cell js, which `dense_s_infty` refuses if too narrow


def model_terms(which):
    """The coefficients and powers of the model's symbol `which` at alpha2 = 1."""
    monomials, constant, _ = model._SYMBOLS[which]
    return model._terms(monomials, constant, 1.0)


def cell_symbol(coeffs, powers, js):
    """The assembled symbol sum_m c_m prod_i x_i^p_mi psi_{j_i}(x_i), for `dense_s_infty`."""
    def fn(x, y, z):
        cutoff = psi_k(x, js[0]) * psi_k(y, js[1]) * psi_k(z, js[2])
        return sum(c * x ** p[0] * y ** p[1] * z ** p[2] for c, p in zip(coeffs, powers)) * cutoff

    return fn


class TestBump:
    def test_plateau_and_support(self):
        xs = np.linspace(-1.25, 1.25, 101)
        np.testing.assert_array_equal(bump(xs), np.ones_like(xs))
        assert bump(1.25) == 1.0
        assert bump(1.6) == 0.0
        assert bump(-1.6) == 0.0
        assert bump(5.0) == 0.0

    def test_transition_value_frozen(self):
        """bump(1.3) sits just past the plateau; value frozen at construction."""
        v = float(bump(1.3))
        assert 0.99 < v < 1.0
        assert v == pytest.approx(0.9970802502076078, rel=1e-12)

    def test_even_and_monotone(self):
        xs = np.linspace(1.25, 1.6, 200)
        vals = bump(xs)
        assert np.all(np.diff(vals) <= 1e-15)
        np.testing.assert_allclose(bump(-xs), vals, atol=0)

    @given(x=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_range(self, x):
        assert 0.0 <= bump(x) <= 1.0


def _smooth_step_everywhere(u):
    """The smooth step as first written: both exponentials at every point."""
    u = np.asarray(u, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(u > 0.0, np.exp(-1.0 / np.where(u > 0.0, u, 1.0)), 0.0)
        b = np.where(u < 1.0, np.exp(-1.0 / np.where(u < 1.0, 1.0 - u, 1.0)), 0.0)
        return a / (a + b)  # 0/0 at NaN


def _bump_clipped(xi):
    """bump as first written: the step's argument clipped to [0, 1]."""
    a = np.abs(np.asarray(xi, dtype=np.float64))
    return _smooth_step_everywhere(np.clip((SUPPORT_EDGE - a) / (SUPPORT_EDGE - 1.25), 0.0, 1.0))


def _assert_same_bits(got, want):
    """Equal bit patterns, NaN matching NaN; same type and shape (a 0-d input gives a scalar)."""
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    got, want = np.asarray(got), np.asarray(want)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    keep = ~np.isnan(want)
    np.testing.assert_array_equal(got[keep].view(np.uint64), want[keep].view(np.uint64))


class TestBandLimitedStep:
    """The step and the bump evaluate their exponentials on the transition band
    only, with the same bits as the formulas evaluated everywhere."""

    EDGES = [0.0, -0.0, 1.0, np.inf, -np.inf, np.nan, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0),
             1e-3, 1.0 - 1e-3, 0.5, -2.0, 3.0, 5e-324, 1.0 + 2.0**-52, -1e300]

    def test_step_edges_and_band(self):
        u = np.concatenate([self.EDGES, np.linspace(-0.5, 1.5, 4001)])
        _assert_same_bits(littlewood_paley._smooth_step(u), _smooth_step_everywhere(u))

    def test_step_zero_d_and_two_d(self):
        for x in self.EDGES:
            _assert_same_bits(littlewood_paley._smooth_step(x), _smooth_step_everywhere(x))
            _assert_same_bits(littlewood_paley._smooth_step(np.float64(x)), _smooth_step_everywhere(np.float64(x)))
        u = np.linspace(-0.25, 1.25, 60).reshape(6, 10)
        _assert_same_bits(littlewood_paley._smooth_step(u), _smooth_step_everywhere(u))

    def test_bump_without_clip(self):
        xi = np.concatenate([self.EDGES, -np.asarray(self.EDGES), [1.25, 1.6, np.nextafter(1.6, 0.0)],
                             np.linspace(-2.0, 2.0, 8001), GridSpec(n=4096, box_length=2000.0).xi])
        _assert_same_bits(bump(xi), _bump_clipped(xi))
        _assert_same_bits(bump(xi.reshape(-1, 2)), _bump_clipped(xi.reshape(-1, 2)))
        for x in (0.0, 1.3, 1.6, np.inf, np.nan):
            _assert_same_bits(bump(x), _bump_clipped(x))


class TestDyadicPartition:
    def test_psi_k_at_zero(self):
        for k in (-3, 0, 5):
            assert psi_k(0.0, k) == 0.0

    def test_band_value_near_plateau(self):
        """psi_k(2^k * 1.3) = bump(1.3) - bump(2.6); the subtrahend vanishes."""
        for k in (-2, 0, 3):
            assert psi_k(2.0**k * 1.3, k) == pytest.approx(0.9970802502076078, rel=1e-12)

    def test_telescoping_partition(self):
        """psi_{<= -21} + sum_{k=-20}^{20} psi_k = 1 away from xi = 0."""
        xs = np.linspace(-1000.0, 1000.0, 4001)
        xs = xs[xs != 0.0]
        assert partition_error(xs, -21, 20) <= 1e-12

    def test_inhomogeneous_partition(self):
        """psi_{<= 0} + sum_{k >= 1} psi_k = 1 everywhere (zero included)."""
        assert partition_error(np.linspace(-200.0, 200.0, 2001), 0, 8) <= 1e-12

    def test_tilde_covers_band(self):
        """psi_tilde_k == 1 on the support of psi_k."""
        for k in (-1, 0, 2):
            xs = np.linspace(-2.0 * 2.0**k, 2.0 * 2.0**k, 2001)
            band = psi_k(xs, k)
            defect = np.abs(band * (1.0 - psi_tilde(xs, k)))
            assert np.max(defect) <= 1e-15

    def test_ge_complements_le(self):
        """psi_{>= 3} = sum_{k=3}^{14} psi_k complements psi_{<= 2} (the support is bounded here)."""
        assert partition_error(np.linspace(-50.0, 50.0, 1001), 2, 14) <= 1e-12


class TestProjection:
    def test_single_mode_in_plateau_unchanged(self):
        grid = GridSpec(n=128, box_length=16.0 * math.pi)  # dxi = 1/8
        k0 = int(round(2.0 / grid.dxi))  # xi0 = 2.0, psi_1(2.0) = 1
        f = transform(grid, 0.5 * np.cos(grid.xi[k0] * grid.x))
        p = project(f, "k", 1)
        np.testing.assert_allclose(p.coeffs, f.coeffs, atol=1e-14 * np.max(np.abs(f.coeffs)))

    def test_distant_bands_are_disjoint(self, grid):
        f = random_real_field(grid, 41)
        a = project(f, "k", 1)
        b = project(f, "k", 4)
        assert np.max(np.abs(a.coeffs * b.coeffs)) == 0.0

    def test_tilde_after_band_is_identity(self, grid):
        f = random_real_field(grid, 42)
        pk = project(f, "k", 2)
        again = project(pk, "tilde", 2)
        np.testing.assert_allclose(again.coeffs, pk.coeffs, atol=1e-15 * np.max(np.abs(pk.coeffs)))

    def test_bands_resum_to_field(self, grid):
        """P_{<=0} plus the active high bands recover f exactly."""
        f = random_real_field(grid, 43)
        total = project(f, "le", 0).coeffs.copy()
        for k in range(1, 12):
            total += project(f, "k", k).coeffs
        np.testing.assert_allclose(total, f.coeffs, atol=1e-12 * np.max(np.abs(f.coeffs)))

    def test_unknown_selector_rejected(self, grid):
        with pytest.raises(ValueError):
            project(random_real_field(grid, 44), "band", 1)


class TestBNorm:
    def test_zero_field(self, grid):
        z = SpectralField(grid, np.zeros(grid.n // 2, dtype=complex))
        assert b_norm(z, 0.25, 1.0) == 0.0

    def test_two_band_mode_closed_form(self):
        """A mode at xi0 = 12 meets exactly psi_3 and psi_4."""
        grid = GridSpec(n=256, box_length=16.0 * math.pi)
        amp, a, b = 0.6, 0.5, 2.0
        k0 = int(round(12.0 / grid.dxi))
        xi0 = grid.xi[k0]
        f = transform(grid, amp * np.cos(xi0 * grid.x))
        want = sum((2.0 ** (a * j) + 2.0 ** (b * j)) * amp * float(psi_k(xi0, j)) for j in (3, 4))
        assert b_norm(f, a, b) == pytest.approx(want, rel=1e-12)

    def test_equal_exponents_merge(self, grid):
        """B^{a,a} equals the merged-weight sum 2 * sum_j 2^{aj} ||P_j f||_inf."""
        f = random_real_field(grid, 45)
        a = 0.75
        direct = 0.0
        for j in range(-20, 16):
            sup = float(np.max(np.abs(synthesize(project(f, "k", j)))))
            direct += 2.0 * 2.0 ** (a * j) * sup
        assert b_norm(f, a, a) == pytest.approx(direct, rel=1e-12)

    def test_order_enforced(self, grid):
        with pytest.raises(ValueError):
            b_norm(random_real_field(grid, 46), 2.0, 1.0)


class TestSInftyNorm:
    def test_bump_value_stable_under_refinement(self):
        value = dense_s_infty(bump, symbol_axes((6.4,), 256))
        refined = dense_s_infty(bump, symbol_axes((6.4,), 512))
        assert value > 0.0
        assert abs(refined - value) <= 0.02 * refined

    def test_boundary_decay_enforced(self):
        with pytest.raises(UnresolvedSymbol):
            dense_s_infty(np.ones_like, symbol_axes((4.0,), 64))

    def test_modulation_on_lattice_is_exact(self):
        """e^{i c xi} with c on the y-lattice translates F^{-1} exactly."""
        axes = symbol_axes((6.4,), 4096)
        dy = axes[0].dx
        v1 = dense_s_infty(bump, axes)
        for m in (1, 7, 100):
            c = m * dy
            v2 = dense_s_infty(lambda u: bump(u) * np.exp(1j * c * u), axes)
            assert v2 == pytest.approx(v1, rel=1e-12)

    def test_modulation_generic_shift_converges(self):
        """Off-lattice shifts agree to quadrature tolerance, improving with dy."""
        errs = []
        for extent, n in ((6.4, 512), (64.0, 8192), (640.0, 131072)):
            axes = symbol_axes((extent,), n)
            v1 = dense_s_infty(bump, axes)
            v2 = dense_s_infty(lambda u: bump(u) * np.exp(1j * 2.7 * u), axes)
            errs.append(abs(v1 - v2) / v1)
        assert errs[1] < 0.1 * errs[0]
        assert errs[2] < 0.01 * errs[1]
        assert errs[2] <= 1e-7

    def test_product_rule(self):
        """S_infty is submultiplicative on bump-localized symbols."""
        rng = SplitMix64(404)
        axes = symbol_axes((8.0,), 512)
        for _ in range(10):
            c1, c2 = 2.0 * rng.uniform() - 1.0, 3.0 * rng.uniform()
            m1 = lambda u: bump(u) * (1.0 + c1 * u)
            m2 = lambda u: bump(u / 1.2) * np.exp(1j * c2 * u)
            a = dense_s_infty(m1, axes)
            b = dense_s_infty(m2, axes)
            ab = dense_s_infty(lambda u: m1(u) * m2(u), axes)
            assert ab <= a * b * (1.0 + 1e-12)

    def test_separable_matches_dense(self):
        """Two terms, one folding a -1 phase, on a cell of three unequal bands:
        the contraction equals the dense 3D route."""
        coeffs, powers, js = [2.0, -1.0], [(2, 0, 0), (1, 1, 0)], (1, 0, -1)
        axes = cell_axes(js, 48)
        sep = s_infty_separable(axes, coeffs, powers, js)
        assert sep == pytest.approx(dense_s_infty(cell_symbol(coeffs, powers, js), axes), rel=1e-12)

    @pytest.mark.parametrize("which", ["T1", "dT1"])
    @pytest.mark.parametrize("js", [(0, 0, 0), (1, 0, 0), (1, 1, 0)])
    def test_dyadic_cells_match_dense(self, js, which):
        """The model's cell sums equal the dense transform of the assembled symbol.

        Both symbols mix even and odd powers (T1 folds a -1 phase into its
        cross terms, dT1 has one odd power per term), (1,0,0) has unequal
        axes, and (1,1,0) has j2 != j3, so it takes the full (y2, y3) plane:
        this checks the half-lattice weights, the sign fold and both paths.
        """
        alpha2 = 1.0
        symbol = model.symbol_t1 if which == "T1" else symbol_t1_d1
        dense = dense_s_infty(
            lambda e1, e2, e3: symbol(e1, e2, e3, alpha2)
            * psi_k(e1, js[0])
            * psi_k(e2, js[1])
            * psi_k(e3, js[2]),
            cell_axes(js, 48),
        )
        assert s_infty_separable(cell_axes(js, 48), *model_terms(which), js) == pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize("which", ["T1", "dT1"])
    def test_dyadic_cell_has_the_bits_of_materialized_pairs(self, monkeypatch, which):
        """T1 (three lead powers) on the full plane of (1, 1, 0) contracts
        through `_abs_sum` with the bits of the materialized pairs; on (0, 0, 0)
        it is summed over one point of each orbit, and dT1 (two) is swept and
        never reaches `_abs_sum`: both add in another order, so they match to
        1e-13."""
        cells = [(0, 0, 0), (1, 1, 0)]  # the orbit domain (T1) or the half plane (dT1), and the full plane
        calls = []
        real = littlewood_paley._abs_sum

        def counted(lead, blocks, width):
            calls.append(lead.shape)
            return real(lead, blocks, width)

        monkeypatch.setattr(littlewood_paley, "_abs_sum", counted)
        streamed = [model.dyadic_symbol_bound(*js, 1.0, n_axis=384, which=which) for js in cells]
        # T1: one block per lead row b = 1..192, the ties and the a = 0 slice, then the full plane
        assert len(calls) == (384 // 2 + 2 + 1 if which == "T1" else 0)
        monkeypatch.setattr(littlewood_paley, "_abs_sum", real)
        monkeypatch.setattr(littlewood_paley, "s_infty_separable", materialized_s_infty)
        materialized = [model.dyadic_symbol_bound(*js, 1.0, n_axis=384, which=which) for js in cells]
        if which == "T1":
            assert streamed[0] == pytest.approx(materialized[0], rel=1e-13)
            assert streamed[1] == materialized[1]
        else:
            assert streamed == pytest.approx(materialized, rel=1e-13)

    @pytest.mark.parametrize("tile", [20000, 1000, 100])
    @pytest.mark.parametrize("js", [(0, 0, 0), (1, 1, 0), (1, 0, 0)])
    def test_swept_blocks_at_any_tile(self, monkeypatch, js, tile):
        """dT1's row blocks hold a quarter tile: 39 rows of 128 at 20000, one
        row while rows are wider and then squares of 2 and more rows on the
        half plane at 1000, mostly one row at 100.  Each sums to the
        materialized pairs' value."""
        coeffs, powers = model_terms("dT1")
        axes = cell_axes(js, 128)
        monkeypatch.setattr(littlewood_paley, "_TILE", tile)
        swept = s_infty_separable(axes, coeffs, powers, js)
        assert swept == pytest.approx(materialized_s_infty(axes, coeffs, powers, js), rel=1e-13)

    @pytest.mark.parametrize("which", ["T1", "dT1"])
    def test_contraction_memory_is_tile_sized(self, which):
        """The (y2, y3) pair matrix of T1 at n_axis 768 would be 7 x 294,528
        float64 (16.5 MB), dT1's 3 x 294,528 (7.1 MB); formed block by block
        either call stays far below."""
        tracemalloc.start()
        try:
            model.dyadic_symbol_bound(0, 0, 0, 1.0, n_axis=768, which=which)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_contraction_buffers_start_on_a_cache_line(self):
        for size in (1, 7, 2048, 7 * 2048, 1 << 16):
            buf = littlewood_paley._cache_aligned(size)
            assert buf.ctypes.data % 64 == 0 and buf.shape == (size,) and buf.dtype == np.float64

    # Terms (coeff, powers of eta1, eta2, eta3); swapping the powers of eta2
    # and eta3 maps the list to itself.
    SWAP_CLOSED = [
        (1.5, (2, 0, 0)),
        (0.7, (0, 2, 0)),
        (0.7, (0, 0, 2)),
        (-0.4, (1, 1, 0)),
        (-0.4, (1, 0, 1)),
        (0.9, (0, 1, 1)),
        (-1.0, (0, 0, 0)),
    ]

    def _swap_case(self, monkeypatch, terms, js, axes):
        """Separable and dense S_infty of the terms on the cell js, with the
        column count of each contraction's blocks.  The separable value must
        have the bits of the materialized pairs'."""
        calls = []
        real = littlewood_paley._abs_sum

        def counted(lead, blocks, width):
            blocks = list(blocks)
            calls.append(sum(cols.shape[1] for cols in blocks))
            return real(lead, blocks, width)

        coeffs, powers = [c for c, _ in terms], [p for _, p in terms]
        materialized = materialized_s_infty(axes, coeffs, powers, js)
        monkeypatch.setattr(littlewood_paley, "_abs_sum", counted)
        sep = s_infty_separable(axes, coeffs, powers, js)
        assert sep == materialized
        return calls, sep, dense_s_infty(cell_symbol(coeffs, powers, js), axes)

    def test_exchange_symmetric_sum_matches_dense(self, monkeypatch):
        """n = 128: rows of 127 down to 1 columns, then the diagonal of 128."""
        calls, sep, dense = self._swap_case(monkeypatch, self.SWAP_CLOSED, (0, 0, 0), cell_axes((0, 0, 0), 128))
        # the strict upper triangle of the (y2, y3) plane, then its diagonal
        assert calls == [128 * 127 // 2, 128]
        assert sep == pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize("tile", [1000, 100])
    def test_row_tiles_and_blocks_wider_than_a_tile(self, monkeypatch, tile):
        """A 1000-entry tile cuts the 65 lead rows of a 128-column block into
        row tiles of 7 with a partial last one; a 100-entry tile is narrower
        than the blocks, which are then contracted one row at a time.  Both
        keep the bits of the materialized pairs and the value to round-off."""
        axes = cell_axes((0, 0, 0), 128)
        unequal = [(c * (1.25 if p == (0, 0, 2) else 1.0), p) for c, p in self.SWAP_CLOSED]
        cases = [([c for c, _ in terms], [p for _, p in terms]) for terms in (self.SWAP_CLOSED, unequal)]
        whole = [s_infty_separable(axes, *case, (0, 0, 0)) for case in cases]
        monkeypatch.setattr(littlewood_paley, "_TILE", tile)
        for case, value in zip(cases, whole):
            tiled = s_infty_separable(axes, *case, (0, 0, 0))
            assert tiled == materialized_s_infty(axes, *case, (0, 0, 0))
            assert tiled == pytest.approx(value, rel=1e-14)

    def test_unequal_swap_partners_take_the_full_plane(self, monkeypatch):
        terms = [(c * (1.25 if p == (0, 0, 2) else 1.0), p) for c, p in self.SWAP_CLOSED]
        calls, sep, dense = self._swap_case(monkeypatch, terms, (0, 0, 0), cell_axes((0, 0, 0), 128))
        assert calls == [128 * 128]
        assert sep == pytest.approx(dense, rel=1e-12)

    def test_unequal_cells_take_the_full_plane(self, monkeypatch):
        """Swap-closed terms whose axes 2 and 3 differ, by band (j2 != j3), by
        grid spacing or by both, take the full (y2, y3) plane."""
        # (js, the cell whose axes are used)
        for js, grid in [((0, 0, -1), (0, 0, 0)), ((0, 0, 0), (0, 0, -1)), ((0, 0, -1), (0, 0, -1))]:
            calls, sep, dense = self._swap_case(monkeypatch, self.SWAP_CLOSED, js, cell_axes(grid, 128))
            assert calls == [128 * 128]
            assert sep == pytest.approx(dense, rel=1e-12)

    def test_separable_rejects_mixed_phase_terms(self):
        # a T1 term (no odd power) beside a dT1 term (one odd power)
        with pytest.raises(ValueError, match="phase"):
            s_infty_separable(cell_axes((0, 0, 0), 64), [1.0, 1.0], [(0, 0, 0), (1, 0, 0)], (0, 0, 0))

    def test_separable_boundary_defect_enforced(self):
        # psi_0 is 1 at the edge xi = -1 of an axis spanning [-1, 1)
        with pytest.raises(UnresolvedSymbol):
            s_infty_separable(symbol_axes((2.0,) * 3, 64), [1.0], [(0, 0, 0)], (0, 0, 0))


class TestOrbitSum:
    """`_orbit_sum`: T1 and a second permutation-closed set on diagonal cells,
    against the dense route, the materialized pairs at any tile, and the
    cells that keep the exchange or the full plane."""

    T1 = model_terms("T1")
    # another coefficient on each orbit of the powers under permutation
    PERMUTATION_CLOSED = ([0.9] * 3 + [-0.4] * 3 + [-1.0], T1[1])

    @pytest.mark.parametrize("n_axis", [16, 48])
    @pytest.mark.parametrize("js", [(0, 0, 0), (-3, -3, -3), (2, 2, 2)])
    @pytest.mark.parametrize("terms", ["T1", "PERMUTATION_CLOSED"])
    def test_orbit_sum_matches_dense(self, terms, js, n_axis):
        coeffs, powers = getattr(self, terms)
        axes = cell_axes(js, n_axis)
        assert littlewood_paley._kernel_factors(axes, coeffs, powers, js)[4] == 6
        sep = s_infty_separable(axes, coeffs, powers, js)
        assert sep == pytest.approx(dense_s_infty(cell_symbol(coeffs, powers, js), axes), rel=1e-12)

    @pytest.mark.parametrize("tile", [None, 1000, 100])
    @pytest.mark.parametrize("n_axis", [18, 128, 384])
    @pytest.mark.parametrize("terms", ["T1", "PERMUTATION_CLOSED"])
    def test_orbit_sum_matches_materialized_pairs(self, monkeypatch, terms, n_axis, tile):
        """n/2 odd at 18; at tile 100 every block of the orbit domain, up to
        n - 1 columns wide, is contracted one row at a time."""
        coeffs, powers = getattr(self, terms)
        js = (0, 0, 0)
        axes = cell_axes(js, n_axis)
        materialized = materialized_s_infty(axes, coeffs, powers, js)
        if tile is not None:
            monkeypatch.setattr(littlewood_paley, "_TILE", tile)
        assert s_infty_separable(axes, coeffs, powers, js) == pytest.approx(materialized, rel=1e-13)

    def test_orbit_sum_only_where_every_permutation_fixes_the_kernel(self, monkeypatch):
        """T1 on (j, j, j) takes `_orbit_sum`; terms closed under y2 <-> y3
        only, T1 on (1, 1, 0) and (1, 0, 0), and T1 with equal js on unequal
        axes keep the exchange or the full plane, with the bits of the
        materialized pairs."""
        calls = []
        real = littlewood_paley._orbit_sum

        def counted(*args):
            calls.append(args[0].shape)
            return real(*args)

        monkeypatch.setattr(littlewood_paley, "_orbit_sum", counted)
        t1 = self.T1
        for js in [(0, 0, 0), (-3, -3, -3), (2, 2, 2)]:
            s_infty_separable(cell_axes(js, 48), *t1, js)
        assert calls == [(25, 7)] * 3
        swap_closed = ([c for c, _ in TestSInftyNorm.SWAP_CLOSED], [p for _, p in TestSInftyNorm.SWAP_CLOSED])
        # (terms, js, the cell whose axes are used, the permutations that fix |K|)
        kept = [
            (swap_closed, (0, 0, 0), (0, 0, 0), 2),
            (t1, (1, 1, 0), (1, 1, 0), 1),
            (t1, (1, 0, 0), (1, 0, 0), 2),
            (t1, (0, 0, 0), (1, 0, 0), 2),
            (t1, (0, 0, 0), (0, 0, -1), 1),
        ]
        for terms, js, grid, symmetry in kept:
            axes = cell_axes(grid, 48)
            assert littlewood_paley._kernel_factors(axes, *terms, js)[4] == symmetry
            assert s_infty_separable(axes, *terms, js) == materialized_s_infty(axes, *terms, js)
        assert len(calls) == 3


class TestLineSweep:
    """`_line_sweep` and `_swept_sum` against the direct sum over the lead
    axis, sum_y w_y |a0_y b0 + a1_y b1|, with every tie and infinity the
    sweep can meet: no RuntimeWarning may escape."""

    @staticmethod
    def swept(lead, b0, b1):
        """`_swept_sum` of one (y2, y3) pair whose b_g are b0 and b1."""
        pair = np.array([[b0], [b1]])
        return littlewood_paley._swept_sum(lead, np.ones(2), pair, np.ones((2, 1)), [(0, 0, 0), (1, 0, 0)], False)

    def test_sweep_matches_the_direct_sum(self):
        rng = SplitMix64(2305)
        a0, a1 = rng.uniforms(40, -1.0, 1.0), rng.uniforms(40, -1.0, 1.0)
        a0[5:10], a1[5:10] = a0[:5], a1[:5]  # repeated lead rows: coincident breakpoints
        a0[10:13], a1[10:13] = -0.5 * a0[:3], -0.5 * a1[:3]  # the same breakpoints, other slopes
        a1[13:16] = 0.0  # no breakpoint
        a0[16], a1[16] = 0.0, 0.0
        w = np.where(rng.uniforms(40) < 0.5, 1.0, 2.0)  # like the lead axis: exact, ties stay ties
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lines = littlewood_paley._line_sweep(w * a0, w * a1)
        b0, b1 = rng.uniforms(300, -2.0, 2.0), rng.uniforms(300, -2.0, 2.0)
        b0[:36], b1[:36] = 1.0, lines[0]  # tau on each breakpoint
        b0[100:104], b1[100:104] = [0.0, -0.0, 0.0, -0.0], [1.5, 1.5, -0.5, -0.5]  # tau = +-inf
        b0[104:106], b1[104:106] = 0.0, 0.0  # tau = NaN
        b1[106:110] = 0.0  # tau = 0
        b0[110:114], b1[110:114] = [5e-324, -5e-324, 5e-324, -5e-324], [1.0, 1.0, -1.0, -1.0]  # b1 / b0 overflows
        direct = np.sum(w[:, None] * np.abs(a0[:, None] * b0 + a1[:, None] * b1), axis=0)
        lead = np.stack([w * a0, w * a1], axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.array([self.swept(lead, x0, x1) for x0, x1 in zip(b0, b1)])
        assert np.all(np.diff(lines[0]) >= 0.0) and np.sum(np.diff(lines[0]) == 0.0) == 8
        assert lines[0].size == 36 and lines[1].size == 37
        np.testing.assert_array_equal(got[104:106], 0.0)
        np.testing.assert_allclose(got, direct, rtol=1e-13, atol=0.0)

    def test_one_lead_power(self):
        """All a1_y = 0: one interval, alpha = sum |a0|, beta = 0, and a cell
        of one lead power (no second group) sums sum |a0| * sum |b0|."""
        a0 = np.array([0.5, -2.0, 0.0, 1.25])
        breaks, alpha, beta = littlewood_paley._line_sweep(a0, np.zeros(4))
        assert breaks.size == 0 and alpha.tolist() == [3.75] and beta.tolist() == [0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = littlewood_paley._swept_sum(a0[:, None], np.ones(1), np.array([[2.0, -1.0, 0.0]]), np.ones((1, 1)),
                                              [(0, 0, 0)], False)
        assert got == 3.75 * 3.0


class TestInterpolationRatio:
    def test_gaussian_low_band(self):
        grid = GridSpec(n=512, box_length=100.0)
        f = gaussian_field(grid, 1.0, 1.0)
        r = interpolation_ratio(f, 0)
        assert 0.0 < r < 10.0

    def test_randomized_suite_bounded(self):
        """The recorded constant across 100 band-limited trials stays <= 10."""
        grid = GridSpec(n=512, box_length=100.0)
        rng = SplitMix64(77)
        base = SpectralField(grid, np.zeros(grid.n // 2, dtype=complex))
        order = np.argsort(np.argsort(grid.xi))
        worst = 0.0
        for trial in range(100):
            k = 1 + (trial % 4)
            z = np.array([rng.normal() + 1j * rng.normal() for _ in range(grid.n)])
            envelope = bump(np.sort(grid.xi) / (2.0**k * 1.3))[order]
            fld = base.with_coeffs(real_zero_mean_head(z * envelope))
            worst = max(worst, interpolation_ratio(fld, k))
        assert 0.0 < worst <= 10.0

    def test_rescaling_shifts_band_index(self):
        """f(2x) doubles frequencies: ratio at k+1 matches ratio at k within 20%."""
        grid = GridSpec(n=1024, box_length=200.0)
        base = SpectralField(grid, np.zeros(grid.n // 2, dtype=complex))
        env = lambda s: np.exp(-(((np.abs(s) - 4.0) / 0.8) ** 2)) * np.sin(3.0 * s)
        f1 = base.with_coeffs(env(grid.half_xi) + 0j)
        f2 = base.with_coeffs(0.5 * env(grid.half_xi / 2.0) + 0j)
        r1 = interpolation_ratio(f1, 2)
        r2 = interpolation_ratio(f2, 3)
        assert abs(r2 - r1) <= 0.2 * r1

    def test_empty_band_rejected(self):
        grid = GridSpec(n=256, box_length=40.0)
        c = np.zeros(grid.n // 2, dtype=complex)
        c[int(round(20.0 / grid.dxi))] = 1.0  # xi = 20, far above the k=0 band
        f = SpectralField(grid, c)
        with pytest.raises(DegenerateInput):
            interpolation_ratio(f, 0)

    def test_negative_band_rejected(self, grid):
        with pytest.raises(ValueError):
            interpolation_ratio(random_real_field(grid, 48), -1)
