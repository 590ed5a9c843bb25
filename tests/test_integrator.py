"""Integrating-factor stepping: exact free flow, fourth order, conservation.

The step-doubling controller accepts the two-half-step solution, so a run's
global error behaves like the classical RK4 wherever the nonlinearity is
active, while the free flow is reproduced exactly (the integrating factor is
the exact Airy propagator).
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from qmkdv import integrator
from qmkdv.cli import ConfigError, _snapshot_datum
from qmkdv.integrator import (
    DT_FLOOR,
    SimConfig,
    SimState,
    StepUnderflow,
    default_dt_init,
    gaussian_datum,
    lawson_step,
    monitor_record,
    run,
    step,
)
from qmkdv.model import CoefficientSpec
from qmkdv.spectral_core import (
    GridSpec,
    airy_factor,
    free_evolve,
    norm,
    save_snapshot,
    synthesize,
    transform,
)

from conftest import random_real_field

LINEAR = CoefficientSpec("linear", a=1.0, b=0.0, c=0.0)
CUBIC = CoefficientSpec("cubic_poly", a=1.0, b=1.0, c=0.0)


def fixed_step_run(phi0, spec, dt, n_steps):
    """n_steps equal Lawson steps without error control."""
    phi = phi0
    for _ in range(n_steps):
        phi = lawson_step(phi, spec, dt)
    return phi


def zero_nonlinearity(monkeypatch):
    """Make N(phi) = 0 inside the integrator: its steps are then the free Airy flow."""
    monkeypatch.setattr(integrator, "nonlinearity_full", lambda phi, spec: phi.with_coeffs(np.zeros_like(phi.coeffs)))


def relative_l2(a, b):
    """||a - b||_{L2} / ||b||_{L2}."""
    return norm(a.with_coeffs(a.coeffs - b.coeffs), "L2") / norm(b, "L2")


def lawson_step_expression(phi, spec, dt):
    """`lawson_step` as one expression per stage on fresh temporaries, the
    form the in-place stages must reproduce bit for bit.  It reads N(phi)
    from `integrator`, so a test that replaces it there replaces it here."""
    e_full, e_half = airy_factor(phi.grid, dt), airy_factor(phi.grid, 0.5 * dt)
    y = phi.coeffs
    t = phi.time

    def G(coeffs, time):
        return -integrator.nonlinearity_full(phi.with_coeffs(coeffs, time=time), spec).coeffs

    a = G(y, t)
    b = G(e_half * (y + 0.5 * dt * a), t + 0.5 * dt)
    c = G(e_half * y + 0.5 * dt * b, t + 0.5 * dt)
    d = G(e_full * y + dt * e_half * c, t + dt)
    out = e_full * y + (dt / 6.0) * (e_full * a + 2.0 * e_half * (b + c) + d)
    return phi.with_coeffs(out, time=t + dt)


def small_config(grid, amplitude=0.01, width=1.0, **kw):
    """A run on `grid` from a Gaussian datum, unless `initial` is given."""
    defaults = dict(coeff=LINEAR, initial=gaussian_datum(grid, amplitude, width), t_end=1.0)
    defaults.update(kw)
    return SimConfig(**defaults)


class TestInitialData:
    """The Gaussian datum and a snapshot as the CLI reads it, always real with zero mean."""

    def test_gaussian_profile(self, grid):
        phi = gaussian_datum(grid, 0.2, 1.5)
        u = 0.2 * np.exp(-((grid.x / 1.5) ** 2))
        want = u - np.mean(u)  # zero-mean projection removes the box average
        assert np.max(np.abs(synthesize(phi) - want)) <= 1e-14
        assert phi.coeffs[0] == 0.0
        assert phi.grid == grid and phi.time == 0.0

    def test_modulated_gaussian(self, grid):
        nu = 8 * grid.dxi
        phi = gaussian_datum(grid, 0.2, 2.0, modulation=nu)
        u = 0.2 * np.exp(-((grid.x / 2.0) ** 2)) * np.cos(nu * grid.x)
        want = u - np.mean(u)
        assert np.max(np.abs(synthesize(phi) - want)) <= 1e-14

    def test_snapshot_roundtrip(self, grid, tmp_path):
        f = random_real_field(grid, 5)
        path = tmp_path / "state.bin"
        save_snapshot(path, f.with_coeffs(f.coeffs, time=2.5), LINEAR.identifier())
        phi = _snapshot_datum(str(path), grid, LINEAR)
        assert np.max(np.abs(phi.coeffs - f.coeffs)) <= 1e-15 * np.max(np.abs(f.coeffs))
        assert phi.time == 2.5

    def test_snapshot_grid_mismatch(self, grid, tmp_path):
        f = random_real_field(GridSpec(n=128, box_length=40.0), 5)
        path = tmp_path / "state.bin"
        save_snapshot(path, f, "test")
        with pytest.raises(ConfigError, match="grid"):
            _snapshot_datum(str(path), grid, LINEAR)

    def test_snapshot_coefficient_mismatch(self, grid, tmp_path):
        path = tmp_path / "state.bin"
        save_snapshot(path, random_real_field(grid, 5), CUBIC.identifier())
        with pytest.raises(ConfigError, match="coefficients"):
            _snapshot_datum(str(path), grid, LINEAR)


class TestSimConfig:
    """Config validation."""

    def test_t_end_positive(self, grid):
        with pytest.raises(ValueError, match="t_end"):
            small_config(grid, t_end=0.0)
        with pytest.raises(ValueError, match="t_end"):
            small_config(grid, t_end=-1.0)

    @pytest.mark.parametrize("t_end", [float("inf"), float("nan")])
    def test_t_end_finite(self, grid, t_end):
        """An infinite horizon would run no step at all; a NaN one compares false everywhere."""
        with pytest.raises(ValueError, match="t_end"):
            small_config(grid, t_end=t_end)

    @pytest.mark.parametrize("eps", [1e-13, 1e-3])
    def test_eps_tol_window(self, grid, eps):
        with pytest.raises(ValueError, match="eps_tol"):
            small_config(grid, eps_tol=eps)

    def test_valid_config_accepted(self, grid):
        cfg = small_config(grid, eps_tol=1e-8)
        assert cfg.eps_tol == 1e-8


class TestDefaultDtInit:
    """First-step guard 0.5 dx^2 / max(1, max|c(phi)|^2)."""

    def test_small_amplitude_branch(self, grid):
        phi = gaussian_datum(grid, 0.01, 1.0)
        assert default_dt_init(phi, LINEAR) == 0.5 * grid.dx**2

    def test_large_amplitude_branch(self, grid):
        k = 8 * grid.dxi
        phi = transform(grid, 2.0 * np.cos(k * grid.x))
        spec = CoefficientSpec("linear", a=2.0, b=0.0, c=0.0)
        # max |c| = 2 * 2 = 4 (the cosine attains 1 at the x = 0 node)
        assert default_dt_init(phi, spec) == pytest.approx(0.5 * grid.dx**2 / 16.0, rel=1e-12)


class TestFreeFlow:
    """With N(phi) = 0 the integrating factor reproduces the Airy group exactly."""

    def test_single_linear_step_is_exact(self, grid, monkeypatch):
        zero_nonlinearity(monkeypatch)
        phi = random_real_field(grid, 3)
        out = lawson_step(phi, LINEAR, 0.7)
        want = free_evolve(phi, 0.7)
        assert np.max(np.abs(out.coeffs - want.coeffs)) <= 1e-14 * np.max(np.abs(want.coeffs))
        assert out.time == pytest.approx(0.7)

    def test_linear_run_matches_airy_solution(self, grid, monkeypatch):
        zero_nonlinearity(monkeypatch)
        phi0 = random_real_field(grid, 4)
        out = fixed_step_run(phi0, LINEAR, dt=1e-2, n_steps=100)
        assert relative_l2(out, free_evolve(phi0, 1.0)) <= 1e-11


class TestOrderOfAccuracy:
    """Self-convergence of the fixed-step scheme on the full equation."""

    def test_fourth_order(self):
        g = GridSpec(n=128, box_length=30.0)
        phi0 = transform(g, 0.15 * np.exp(-((g.x / 2.0) ** 2)))
        phi0.coeffs[0] = 0.0
        t_end = 1.0
        finals = []
        for dt in (8e-3, 4e-3, 2e-3):
            finals.append(fixed_step_run(phi0, CUBIC, dt, int(round(t_end / dt))))
        d1 = norm(finals[0].with_coeffs(finals[0].coeffs - finals[1].coeffs), "L2")
        d2 = norm(finals[1].with_coeffs(finals[1].coeffs - finals[2].coeffs), "L2")
        order = np.log2(d1 / d2)
        assert 3.7 <= order <= 4.3
        assert d2 < 1e-10  # absolute self-convergence at the finest pair

    def test_fourth_order_down_to_round_off_with_mass_near_xi_max(self):
        """The cubic_poly defaults at amplitude 0.3 (n=256, L=50) put mass
        near xi_max.  Fixed steps of T/512 .. T/4096 to T=0.5, each against
        T/8192: every halving of dt divides the error by at least 12, where
        fourth order gives 16.  A step that alters a Nyquist bin the
        controller does not see, as a per-step real projection does, leaves
        an error floor near 1e-10 that fails this bound."""
        grid = GridSpec(n=256, box_length=50.0)
        phi0 = gaussian_datum(grid, 0.3, 1.0)
        spec = CoefficientSpec()
        ref = fixed_step_run(phi0, spec, 0.5 / 8192, 8192)
        errors = [relative_l2(fixed_step_run(phi0, spec, 0.5 / k, k), ref) for k in (512, 1024, 2048, 4096)]
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert min(ratios) >= 12.0, (errors, ratios)


# each family at its own pad: linear at 2, sine and cubic_poly at 3
FAMILIES = (
    CoefficientSpec("linear", a=1.3, b=0.0, c=0.0),
    CoefficientSpec("sine", a=1.1, b=0.0, c=0.0),
    CoefficientSpec("cubic_poly", a=0.8, b=0.5, c=1.0),
)


@functools.lru_cache(maxsize=None)
def stage_field(n):
    """A smooth real field of peak 0.5 on an n-point grid with the decay
    study's spacing at n = 6144."""
    f = random_real_field(GridSpec(n=n, box_length=4500.0 * n / 6144), 41, decay=2.0)
    return f.with_coeffs(f.coeffs * (0.5 / np.max(np.abs(synthesize(f)))))


class TestInPlaceStages:
    """The stages are formed in place in one scratch array; every product keeps
    the formula's operand order, so the step is bitwise the expression form."""

    @pytest.mark.parametrize("n", [64, 6144])
    # "linear_only": N(phi) = 0, the free flow
    @pytest.mark.parametrize("free", [False, True], ids=["nonlinear", "linear_only"])
    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.family)
    def test_matches_expression_form(self, spec, free, n, monkeypatch):
        if free:
            zero_nonlinearity(monkeypatch)
        phi = stage_field(n).with_coeffs(stage_field(n).coeffs.copy(), time=0.3)
        before = phi.coeffs.copy()
        for dt in (1e-3, 0.05):
            got = lawson_step(phi, spec, dt)
            want = lawson_step_expression(phi, spec, dt)
            assert np.array_equal(got.coeffs, want.coeffs)
            assert got.time == want.time
        # the factors step() passes give the same bits as the step's own
        factors = airy_factor(phi.grid, 0.05), airy_factor(phi.grid, 0.025)
        assert np.array_equal(lawson_step(phi, spec, 0.05, factors).coeffs, want.coeffs)
        assert np.array_equal(phi.coeffs, before)  # the input is left alone

    def test_warm_step_allocates_six_arrays(self):
        """tracemalloc sees numpy's data buffers: a warm step at n = 1024 with
        the factors step() passes peaks at 6.23 state arrays (n/2 complex
        values each): its scratch, E y and the four stage outputs (a becoming
        the result), and numpy's small buffers."""
        grid = GridSpec(n=1024, box_length=120.0)
        phi = random_real_field(grid, 95, decay=2.0)
        spec = CoefficientSpec()
        factors = airy_factor(grid, 1e-3), airy_factor(grid, 5e-4)
        lawson_step(phi, spec, 1e-3, factors)
        tracemalloc.start()
        try:
            lawson_step(phi, spec, 1e-3, factors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * 16 * (grid.n // 2)


class TestAdaptiveStep:
    """Step doubling: acceptance, rejection, caps, and the underflow guard."""

    def test_zero_data_stays_zero(self, grid):
        cfg = small_config(grid, amplitude=0.0, t_end=0.5)
        state, records = run(cfg)
        assert np.all(state.phi.coeffs == 0.0)
        assert records[-1]["l2"] == 0.0

    def test_underflow_guard(self, grid):
        phi = random_real_field(grid, 6)
        cfg = small_config(grid)
        state = SimState(phi=phi, dt=1e-3)
        with pytest.raises(StepUnderflow):
            step(state, cfg, dt_cap=0.5 * DT_FLOOR)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_oversized_first_step_is_rejected(self, grid):
        # dt = 5 overflows the trial step (cubing amplified stage values);
        # the controller must reject hard and recover rather than loop on nan.
        phi = random_real_field(grid, 8)
        phi = phi.with_coeffs(phi.coeffs * (0.5 / np.max(np.abs(synthesize(phi)))))
        cfg = small_config(grid, coeff=CUBIC, eps_tol=1e-9)
        out = step(SimState(phi=phi, dt=5.0), cfg)
        assert out.steps == 1
        assert out.rejected >= 1
        assert out.dt < 5.0

    def test_capped_step_keeps_controller_length(self, grid):
        cfg = small_config(grid, coeff=CUBIC, eps_tol=1e-8)
        state = SimState(phi=cfg.initial, dt=1e-2)
        out = step(state, cfg, dt_cap=1e-4)
        assert out.phi.time == pytest.approx(1e-4)
        assert out.dt >= 1e-2  # the cap must not erode the controller's dt

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("dt, rejects", [(1e-4, False), (5.0, True)])
    def test_twelve_nonlinearity_calls_per_attempt(self, grid, monkeypatch, dt, rejects):
        # three Lawson steps (one full, two halves) of four stages each; the
        # benchmark's traced run checks the same law from outside
        calls = {"lawson": 0, "rhs": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(integrator, "lawson_step", counted("lawson", integrator.lawson_step))
        monkeypatch.setattr(integrator, "nonlinearity_full", counted("rhs", integrator.nonlinearity_full))
        phi = gaussian_datum(grid, 0.3, 1.0)
        out = step(SimState(phi=phi, dt=dt), small_config(grid, coeff=CUBIC, eps_tol=1e-8))
        attempted = out.steps + out.rejected
        assert (out.rejected > 0) == rejects
        assert calls == {"lawson": 3 * attempted, "rhs": 12 * attempted}

    def test_accepted_step_keeps_zero_mean(self, grid):
        """N(phi) is a derivative, so its zero mode is exactly 0 and the mean
        stays 0 with no projection."""
        cfg = small_config(grid, coeff=CUBIC, eps_tol=1e-8)
        phi = gaussian_datum(grid, 0.3, 1.0)
        out = step(SimState(phi=phi, dt=1e-3), cfg)
        assert out.phi.coeffs[0] == 0.0


class TestRun:
    """Monitor scheduling and short-horizon conservation."""

    def test_monitor_times_are_exact(self, grid):
        cfg = small_config(
            grid, coeff=CUBIC, t_end=0.75, monitor_times=(0.25, 0.5), eps_tol=1e-7
        )
        _, records = run(cfg)
        assert [r["t"] for r in records] == [0.0, 0.25, 0.5, 0.75]

    def test_out_of_window_monitors_ignored(self, grid):
        cfg = small_config(
            grid, t_end=0.5, monitor_times=(-1.0, 0.0, 0.3, 5.0), eps_tol=1e-7
        )
        _, records = run(cfg)
        assert [r["t"] for r in records] == [0.0, 0.3, 0.5]

    @pytest.mark.parametrize("t_end", [512.0, 500.0], ids=["scattering-512", "decay-500"])
    def test_times_equal_up_to_rounding_are_recorded_once(self, t_end):
        """Planned times that differ only by rounding give one record: the
        scattering plan at t_end = 512 (dyadic and 121 geometric times) holds
        7.999999999999998 next to 8.0 and 63.99999999999998 next to 64.0, and
        decay's 40 geometric times to 500 end at 499.99999999999983."""
        if t_end == 512.0:
            geometric = np.exp(np.linspace(0.0, math.log(t_end), 121))[1:-1]
            times = {2.0**k for k in range(10)} | {float(t) for t in geometric}
        else:
            times = {float(t) for t in np.exp(np.linspace(0.0, math.log(t_end), 40))}
        planned = sorted(times | {t_end})
        assert any(b - a <= 1e-9 * b for a, b in zip(planned, planned[1:]))
        cfg = small_config(GridSpec(n=32, box_length=10.0), amplitude=0.0, t_end=t_end, monitor_times=tuple(times))
        _, records = run(cfg)
        recorded = [r["t"] for r in records]
        assert all(b - a > 1e-9 * b for a, b in zip(recorded, recorded[1:]))
        assert recorded[-1] == t_end

    def test_observer_extends_records(self, grid):
        seen = []

        def observer(phi, rec):
            rec["linf"] = norm(phi, "Linf")
            seen.append(phi.time)

        cfg = small_config(grid, t_end=0.4, monitor_times=(0.2,), eps_tol=1e-7)
        _, records = run(cfg, observer)
        assert seen == [0.0, 0.2, 0.4]
        assert all("linf" in r for r in records)

    def test_resume_from_snapshot_starts_at_its_time(self, grid, tmp_path):
        cfg = small_config(grid, t_end=1.0, monitor_times=(0.5,), eps_tol=1e-7)
        fresh, _ = run(cfg)
        phi0 = cfg.initial
        path = tmp_path / "state.bin"
        save_snapshot(path, phi0.with_coeffs(phi0.coeffs, time=5.0), LINEAR.identifier())
        resumed = small_config(
            grid,
            initial=_snapshot_datum(str(path), grid, LINEAR),
            t_end=6.0,
            monitor_times=(1.0, 2.0, 5.5),
            eps_tol=1e-7,
        )
        state, records = run(resumed)
        assert [r["t"] for r in records] == [5.0, 5.5, 6.0]
        # the flow is autonomous: [5, 6] from the snapshot is [0, 1] from t=0
        scale = np.max(np.abs(fresh.phi.coeffs))
        assert np.max(np.abs(state.phi.coeffs - fresh.phi.coeffs)) <= 1e-6 * scale

    def test_snapshot_at_or_after_t_end_rejected(self, grid, tmp_path):
        path = tmp_path / "state.bin"
        phi = random_real_field(grid, 5)
        for t0 in (4.0, 5.0):
            save_snapshot(path, phi.with_coeffs(phi.coeffs, time=t0), LINEAR.identifier())
            with pytest.raises(ValueError, match="t_end"):
                small_config(grid, initial=_snapshot_datum(str(path), grid, LINEAR), t_end=4.0)

    def test_short_run_conserves_invariants(self):
        grid = GridSpec(n=256, box_length=50.0)
        cfg = SimConfig(
            coeff=CUBIC,
            initial=gaussian_datum(grid, amplitude=0.05, width=1.0),
            t_end=2.0,
            eps_tol=1e-9,
        )
        _, records = run(cfg)
        first, last = records[0], records[-1]
        assert abs(last["mass"] - first["mass"]) <= 1e-12
        assert abs(last["l2"] - first["l2"]) <= 1e-7 * first["l2"]
        assert abs(last["hamiltonian"] - first["hamiltonian"]) <= 1e-6 * abs(
            first["hamiltonian"]
        )

    def test_rhs_evals_count_every_nonlinearity_call(self, grid, monkeypatch):
        """rhs_evals, 12 per attempted step from the step counts, is the
        number of N(phi) calls made, rejected attempts included.  A first
        step of 0.05 is too long for eps_tol at amplitude 0.3, so the first
        attempts are rejected."""
        calls = []
        real = integrator.nonlinearity_full

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(integrator, "nonlinearity_full", counted)
        cfg = small_config(grid, amplitude=0.3, coeff=CUBIC, eps_tol=1e-8)
        state = SimState(phi=cfg.initial, dt=0.05)
        for cap in (None, 0.01, None):
            state = step(state, cfg, dt_cap=cap)
        assert state.steps == 3 and state.rejected > 0
        assert state.rhs_evals == len(calls) == 12 * (state.steps + state.rejected)

    def test_monitor_record_fields(self, grid):
        phi = random_real_field(grid, 9)
        rec = monitor_record(phi, LINEAR)
        assert set(rec) == {"t", "mass", "l2", "hamiltonian"}
        assert rec["l2"] == pytest.approx(norm(phi, "L2"))
