"""Dyadic frequency decomposition, multiplier norms, and band interpolation.

The cutoff family is built from one even bump psi with psi = 1 on
[-5/4, 5/4], psi = 0 outside (-8/5, 8/5), and a C^infinity monotone
transition (the classical exp(-1/u) smoothed step).  Band k uses

    psi_k(xi) = psi(xi / 2^k) - psi(xi / 2^{k-1}),

supported in 2^k * ([-8/5, -5/8] u [5/8, 8/5]); sums over k telescope to a
partition of unity away from xi = 0.

The multiplier norm used for symbol estimates is

    S_infty(m) = int |F^{-1} m (y)| dy,    F^{-1} m (y) = int m(xi) e^{i xi.y} dxi,

computed by tensor trapezoid sums on grids whose extent covers the symbol's
support with margin (symbols are always compactly cut off before this norm
is taken).  The symbols met here are monomials cut off to a dyadic cell,

    sum_m c_m prod_i xi_i^{p_mi} psi_{j_i}(xi_i)    (i = 1, 2, 3),

so the inverse transform is a sum of tensor products of one 1D kernel per
axis and distinct power, contracted one axis at a time
(:func:`s_infty_separable`) and never assembled as a dense 3D array: the
(y2, y3) pair columns are formed one y2 row at a time, over half the plane
when exchange symmetric, and each row's block is summed in L2-sized tiles, so
the memory taken is O(tile + m n), not O(m n^2) for m terms on n-point axes.
Every kernel has the joint parity |K(-y)| = |K(y)|.  When, besides, the js
and the axes are equal and the terms map to themselves under every
permutation of their three powers (T1 on every (j, j, j) cell), |K| is fixed
by the 12 maps y -> +-(y permuted), and one point of each orbit is summed,
about n^3/12 where the exchange alone leaves n^3/4 (`_orbit_sum`).
A GEMM over the lead axis costs O(n) per (y2, y3) pair.  With at most two
lead-axis powers (every dT1 cell; T1 has three) K = a0(y1) b0 + a1(y1) b1, and
sum_y1 |K| = |b0| g(b1 / b0) with g convex and piecewise linear: one sort of
its breakpoints, then O(log n) per pair by a line sweep, exact up to summation
order (a tie takes the interval below, b0 = 0 an end interval; `_swept_sum`).
"""

from __future__ import annotations

import numpy as np

from .spectral_core import GridSpec, SpectralField, synthesize, xi_l2_norm, xi_derivative_coefficients

__all__ = [
    "UnresolvedSymbol",
    "DegenerateInput",
    "bump",
    "psi_k",
    "psi_le",
    "psi_tilde",
    "project",
    "b_norm",
    "s_infty_separable",
    "interpolation_ratio",
]

PLATEAU_EDGE = 1.25  # psi == 1 for |xi| <= 5/4
SUPPORT_EDGE = 1.6  # psi == 0 for |xi| >= 8/5
_TILE = 1 << 16  # S_infty GEMM tile: 512 KiB


class UnresolvedSymbol(ValueError):
    """Symbol grid does not resolve the symbol (boundary decay violated)."""


class DegenerateInput(ValueError):
    """Input carries no mass where the operation needs it."""


def _smooth_step(u):
    """C^inf step: 0 for u <= 0, 1 for u >= 1, strictly increasing between.

    The exponentials are evaluated on the transition band 0 < u < 1 only;
    NaN passes through.
    """
    u = np.asarray(u, dtype=np.float64)
    out = np.where(u >= 1.0, 1.0, np.where(u <= 0.0, 0.0, u))
    band = (u > 0.0) & (u < 1.0)
    v = u[band]
    with np.errstate(over="ignore"):  # -1/v at subnormal v: exp(-inf) = 0
        a, b = np.exp(-1.0 / v), np.exp(-1.0 / (1.0 - v))
    out[band] = a / (a + b)
    return out[()]


def bump(xi):
    """The mother cutoff psi: 1 on [-5/4, 5/4], 0 outside (-8/5, 8/5)."""
    a = np.abs(np.asarray(xi, dtype=np.float64))
    return _smooth_step((SUPPORT_EDGE - a) / (SUPPORT_EDGE - PLATEAU_EDGE))


def psi_k(xi, k: int):
    """Dyadic annulus cutoff psi(xi/2^k) - psi(xi/2^{k-1})."""
    return bump(np.asarray(xi) / 2.0**k) - bump(np.asarray(xi) / 2.0 ** (k - 1))


def psi_le(xi, k: int):
    """Low-pass cutoff psi(xi/2^k) (equals sum of psi_j for j <= k)."""
    return bump(np.asarray(xi) / 2.0**k)


def psi_tilde(xi, k: int):
    """Fattened annulus psi_{k-1} + psi_k + psi_{k+1}; equals 1 on supp psi_k."""
    return bump(np.asarray(xi) / 2.0 ** (k + 1)) - bump(np.asarray(xi) / 2.0 ** (k - 2))


_SELECTORS = {
    "k": psi_k,
    "le": psi_le,
    "tilde": psi_tilde,
}


def project(f: SpectralField, selector: str, k: int) -> SpectralField:
    """Fourier multiplier projection.

    selector: "k" (P_k), "le" (P_{<=k}), "tilde" (~P_k).
    """
    try:
        window = _SELECTORS[selector]
    except KeyError:
        raise ValueError(f"unknown selector {selector!r}") from None
    return f.with_coeffs(f.coeffs * window(f.grid.half_xi, k))


def _feasible_bands(grid: GridSpec) -> range:
    ximax = np.max(np.abs(grid.xi))
    j_hi = int(np.ceil(np.log2(ximax / 0.625))) + 1
    j_lo = int(np.floor(np.log2(grid.dxi / 1.6))) - 1
    return range(j_hi, j_lo - 1, -1)


def b_norm(f: SpectralField, a: float, b: float, tail: float = 1e-14) -> float:
    """Weighted dyadic sum  sum_j (2^{aj} + 2^{bj}) ||P_j f||_{L_inf}.

    Iterates bands from the highest represented downward and stops once a
    term falls below `tail` times the running total (fields are band
    limited, so the sum is effectively finite).
    """
    if a > b:
        raise ValueError("b_norm requires a <= b")
    total = 0.0
    for j in _feasible_bands(f.grid):
        pj = project(f, "k", j)
        term = (2.0 ** (a * j) + 2.0 ** (b * j)) * float(np.max(np.abs(synthesize(pj))))
        total += term
        if total > 0.0 and term < tail * total:
            break
    return total


# ---------------------------------------------------------------------------
# S_infty multiplier norm of separable symbols
# ---------------------------------------------------------------------------


def s_infty_separable(axes, coeffs, powers, js) -> float:
    """S_infty of sum_m coeffs[m] prod_i xi_i^powers[m][i] psi_{js[i]}(xi_i) on the three ``axes``.

    The inverse FFT of each term is the outer product of the 1D inverse FFTs
    of xi^p psi_j, so the value equals that of one dense 3D inverse FFT to
    round-off, on y-lattices far larger than a dense array allows.  Those 1D
    kernels are real for even p and imaginary for odd p: a term with k odd
    powers carries the phase i^k, and all terms must share it up to a sign
    (ValueError otherwise), which is folded into the real coefficient.  As
    |K(-y)| = |K(y)|, only the lead-axis rows 0..n/2 are summed, rows
    1..n/2-1 with weight 2.  The (y2, y3) pair columns are formed one y2 row
    k at a time, left[:, k] * right, so the memory taken is O(tile + m n),
    not O(m n^2).  When js[1] == js[2] on equal axes 2 and 3 and the terms
    map to themselves when powers 2 and 3 swap, |K(y1, y2, y3)| =
    |K(y1, y3, y2)|: only y2 < y3 (twice, row k from column k + 1 on) and
    y2 = y3 (once, as one block left * right) are summed.  A cell takes one
    of three paths: with at most two distinct lead-axis powers (every dT1
    cell), `_swept_sum` replaces the GEMM, O(n) per (y2, y3) pair, by an
    exact line sweep, O(log n) per pair; with equal js and axes and terms
    closed under every permutation of their powers (T1 on (j, j, j)),
    `_orbit_sum` sums one point of each orbit of the 12 symmetries; every
    other cell takes the GEMM, over half the (y2, y3) plane when exchange
    symmetric (T1 on j2 = j3 != j1) and the full plane otherwise.
    """
    signed, lead, left, right, symmetry = _kernel_factors(axes, coeffs, powers, js)
    if len({p[0] for p in powers}) <= 2:
        return _swept_sum(lead, signed, left, right, powers, symmetry > 1)
    lead, n2 = lead * signed, right.shape[1]
    if symmetry == 6:
        return _orbit_sum(lead, left, right)
    if symmetry == 2:
        upper = (left[:, k, None] * right[:, k + 1 :] for k in range(n2 - 1))
        return 2.0 * _abs_sum(lead, upper, n2) + _abs_sum(lead, [left * right], n2)
    return _abs_sum(lead, (left[:, k, None] * right for k in range(left.shape[1])), n2)


def _kernel_factors(axes, coeffs, powers, js):
    """The contraction's inputs: the terms' signed coefficients, the weighted
    lead-axis rows of their kernels as an (n1/2 + 1, m) matrix, the real
    kernel rows of axes 2 and 3, and the number of permutations of (y1, y2,
    y3) that fix |K|: 6 for all, 2 for the exchange of y2 and y3 alone, else
    1.  Each axis takes one inverse FFT per distinct power."""
    odd = np.sum(np.asarray(powers) % 2, axis=1)
    shift = odd - odd[0]
    if np.any(shift % 2):
        raise ValueError("terms differ in phase by +-i; split them into separate sums")
    signed = np.asarray(coeffs, dtype=np.float64) * np.where(shift % 4 == 0, 1.0, -1.0)
    ft = []
    for ax, j, column in zip(axes, js, zip(*powers)):
        distinct = sorted(set(column))
        psi = psi_k(ax.xi, j)
        rows = np.stack([psi * ax.xi**p for p in distinct])
        edge, peak = np.max(np.abs(rows[:, [ax.n // 2, ax.n // 2 - 1]])), np.max(np.abs(rows))
        if peak > 0.0 and edge > 1e-14 * peak:
            raise UnresolvedSymbol(f"axis factor boundary defect {edge / peak:.2e} exceeds 1e-14; enlarge the grid")
        t = np.fft.ifft(rows * ax.parity, axis=1) * (ax.n * ax.dxi * ax.dx)
        kernels = np.stack([t[i].imag if p % 2 else t[i].real for i, p in enumerate(distinct)])
        ft.append(kernels[[distinct.index(p) for p in column]])
    half = axes[0].n // 2
    weights = np.where(np.arange(half + 1) % half, 2.0, 1.0)
    lead = (ft[0][:, : half + 1] * weights).T  # times signed: the bits of (ft[0] * signed) * weights
    terms = sorted(zip(coeffs, map(tuple, powers)))

    def fixes(i, k):  # whether the exchange of y_i and y_k fixes |K|
        o = [k if a == i else i if a == k else a for a in range(3)]
        return js[i] == js[k] and axes[i] == axes[k] and terms == sorted((c, tuple(p[a] for a in o)) for c, p in terms)

    return signed, lead, ft[1], ft[2], (6 if fixes(0, 1) else 2) if fixes(1, 2) else 1


def _cache_aligned(size: int) -> np.ndarray:
    """An uninitialized float64 buffer of ``size`` items that starts on a
    64-byte cache line.  malloc aligns to 16 bytes only, so whether the rows
    that `_abs_sum`'s GEMM writes straddle cache lines would depend on
    unrelated earlier allocations; straddling rows ran 10-20% slower
    (2-core x86 host, OpenBLAS)."""
    raw = np.empty(size + 7)
    start = -raw.ctypes.data % 64 // 8
    return raw[start : start + size]


def _abs_sum(lead, blocks, width: int) -> float:
    """sum |lead @ cols| over the column blocks, each of at most ``width``
    columns, contracted in row tiles of at most max(_TILE, width) entries,
    every tile's product written into one cache-aligned buffer."""
    buf = _cache_aligned(max(_TILE, width))
    total = 0.0
    for cols in blocks:
        height = max(1, _TILE // cols.shape[1])
        for r0 in range(0, lead.shape[0], height):
            rows = lead[r0 : r0 + height]
            block = buf[: rows.shape[0] * cols.shape[1]].reshape(rows.shape[0], -1)
            np.matmul(rows, cols, out=block)
            total += float(np.abs(block, out=block).sum())  # np.sum's reduction without its wrapper
    return total


def _orbit_sum(lead, left, right) -> float:
    """sum |K| over one point of each orbit of the 12 maps y -> +-(y permuted),
    which fix |K| when the three axes, js and kernels agree.  Index i pairs
    with n - i, which reverses 1..n-1 and fixes 0 and n/2, so the sorted
    triples 1 <= a <= b <= c <= n-1 whose middle b <= n/2 lies on the lead
    axis (its fold counts b < n/2 twice) and the slice a = 0 cover the
    lattice.  A point counts 6, 3 or 1 times as a, b, c are distinct, two or
    all equal: per b, 6 x (rows a <= b by columns c >= b) less 3 x (row a = b
    and column c = b, both the row |K(b, b, .)|) plus the corner K(b, b, b);
    on the slice, 3 x its plane less 3 x its row b = 0 plus K(0, 0, 0)."""
    half, n = lead.shape[0] - 1, right.shape[1]
    rows = np.ascontiguousarray(left.T)
    main = sum(_abs_sum(rows[1 : b + 1] * lead[b], [right[:, b:]], n) for b in range(1, half + 1))
    ties = lead[1:] * rows[1 : half + 1]  # K(b, b, c) = ties[b - 1] @ right[:, c]
    corners = np.abs((ties * right[:, 1 : half + 1].T).sum(axis=1)).sum()
    zero = rows * lead[0]  # K(0, b, c) = zero[b] @ right[:, c]
    edge = np.abs(zero[0] @ right)  # |K(0, 0, c)|
    slice0 = 3.0 * _abs_sum(zero, [right], n) - 3.0 * edge.sum() + edge[0]
    return 6.0 * main - 3.0 * _abs_sum(ties, [right[:, 1:]], n) - 2.0 * corners + slice0


def _line_sweep(a0, a1):
    """The sorted breakpoints -a0_y/a1_y and (alpha_k, beta_k) such that
    sum_y |a0_y + a1_y tau| = alpha_k + beta_k tau when k breakpoints lie
    below tau: each line below adds sign(a1_y)(a0_y + a1_y tau), each line
    above subtracts it, and a line with a1_y = 0 adds |a0_y| everywhere."""
    moving = a1 != 0.0
    breaks = -a0[moving] / a1[moving]
    order = np.argsort(breaks, kind="stable")
    lines = np.stack([np.sign(a1) * a0, np.abs(a1)])[:, moving][:, order]
    below = np.cumsum(np.hstack([np.zeros((2, 1)), lines]), axis=1)
    alpha, beta = 2.0 * below - below[:, -1:]  # the lines below less those above
    return breaks[order], alpha + np.sum(np.abs(a0[~moving])), beta


def _swept_sum(lead, signed, left, right, powers, symmetric) -> float:
    """sum_y |a0_y b0 + a1_y b1| over the (y2, y3) pairs, with b_g the sum of
    signed_t left_t x right_t over the terms t of lead power g and a_g its
    lead row, formed in row blocks of at most max(_TILE / 4, n3) entries (a
    block's b0, b1, tau and interval index take one GEMM tile).  When
    exchange symmetric, rows r0..r0+h-1 start at column r0: their h x h
    square once and the columns after it twice make up the whole plane."""
    groups = ([[t for t, p in enumerate(powers) if p[0] == q] for q in sorted({p[0] for p in powers})] + [[]])[:2]
    breaks, alpha, beta = _line_sweep(*(lead[:, g[0]] if g else np.zeros(lead.shape[0]) for g in groups))
    factors = [(np.ascontiguousarray((left[g] * signed[g, None]).T), right[g]) for g in groups]
    n2, n3 = left.shape[1], right.shape[1]
    bufs = [_cache_aligned(max(_TILE // 4, n3)) for _ in range(3)]
    total, r0 = 0.0, 0
    while r0 < n2:
        c0 = r0 if symmetric else 0
        h = min(n2 - r0, max(1, _TILE // 4 // (n3 - c0)))
        b0, b1, scratch = (buf[: h * (n3 - c0)].reshape(h, -1) for buf in bufs)
        for (row, col), b in zip(factors, (b0, b1)):
            np.matmul(row[r0 : r0 + h], col[:, c0:], out=b)
        # |alpha_k b0 + beta_k b1| at k = searchsorted(breaks, b1 / b0): a tie takes the interval below
        # (its lines add 0 there); b0 = 0 gives +-inf (an end interval, beta b1) or NaN (the last, 0),
        # and a subnormal b0 can overflow b1 / b0 to the same +-inf: past every breakpoint, so exact
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            k = np.searchsorted(breaks, np.divide(b1, b0, out=scratch))
        np.multiply(np.take(alpha, k, out=scratch, mode="clip"), b0, out=b0)
        np.multiply(np.take(beta, k, out=scratch, mode="clip"), b1, out=b1)
        v = np.abs(np.add(b0, b1, out=b0), out=b0)
        total += float(v[:, :h].sum() + 2.0 * v[:, h:].sum()) if symmetric else float(v.sum())
        r0 += h
    return total


def interpolation_ratio(f: SpectralField, k: int) -> float:
    """Band-interpolation ratio

        (sup_xi |psi_k fhat|)^2
        -----------------------------------------------------------
        2^{-k} ||fhat||_{L2} ( 2^k ||d_xi fhat||_{L2} + ||fhat||_{L2} )

    with plain dxi-weighted frequency-side L^2 norms; d_xi fhat is computed
    as the transform of (-i x) f, so f must be concentrated in the box.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    g = f.grid
    band = psi_tilde(g.half_xi, k)
    if not np.any(np.abs(f.coeffs * band) > 0.0):
        raise DegenerateInput(f"no spectral mass in the fattened band k={k}")
    lhs = float(np.max(np.abs(psi_k(g.half_xi, k) * f.coeffs))) ** 2
    l2 = xi_l2_norm(f.coeffs, g)
    dl2 = xi_l2_norm(xi_derivative_coefficients(f), g)
    rhs = 2.0 ** (-k) * l2 * (2.0**k * dl2 + l2)
    return lhs / rhs
