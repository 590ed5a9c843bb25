"""Integrating-factor stepping: exact free flow, fourth order, conservation.

The step-doubling controller accepts the two-half-step solution, so a run's
global error behaves like the classical RK4 wherever the nonlinearity is
active, while the free flow is reproduced exactly (the integrating factor is
the exact Airy propagator).
"""

import numpy as np
import pytest

from qmkdv import integrator
from qmkdv.integrator import (
    DT_FLOOR,
    InitialSpec,
    SimConfig,
    SimState,
    StepUnderflow,
    default_dt_init,
    fixed_step_run,
    initial_field,
    lawson_step,
    monitor_record,
    run,
    step,
)
from qmkdv.model import CoefficientSpec
from qmkdv.spectral_core import (
    GridSpec,
    enforce_real_zero_mean,
    free_evolve,
    norm,
    save_snapshot,
    synthesize,
    transform,
)

from conftest import random_real_field

LINEAR = CoefficientSpec("linear", a=1.0, b=0.0, c=0.0)
CUBIC = CoefficientSpec("cubic_poly", a=1.0, b=1.0, c=0.0)


def small_config(grid, **kw):
    defaults = dict(
        grid=grid,
        coeff=LINEAR,
        initial=InitialSpec(kind="gaussian", amplitude=0.01, width=1.0),
        t_end=1.0,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


class TestInitialData:
    """Gaussian and snapshot initial data, always real with zero mean."""

    def test_gaussian_profile(self, grid):
        cfg = small_config(grid, initial=InitialSpec("gaussian", 0.2, 1.5))
        phi = initial_field(cfg)
        u = 0.2 * np.exp(-((grid.x / 1.5) ** 2))
        want = u - np.mean(u)  # zero-mean projection removes the box average
        assert np.max(np.abs(synthesize(phi) - want)) <= 1e-14
        assert phi.coeffs[0] == 0.0

    def test_modulated_gaussian(self, grid):
        nu = 8 * grid.dxi
        cfg = small_config(grid, initial=InitialSpec("gaussian", 0.2, 2.0, modulation=nu))
        phi = initial_field(cfg)
        u = 0.2 * np.exp(-((grid.x / 2.0) ** 2)) * np.cos(nu * grid.x)
        want = u - np.mean(u)
        assert np.max(np.abs(synthesize(phi) - want)) <= 1e-14

    def test_snapshot_roundtrip(self, grid, tmp_path):
        f = random_real_field(grid, 5)
        path = tmp_path / "state.bin"
        save_snapshot(path, f, LINEAR.identifier())
        cfg = small_config(grid, initial=InitialSpec(kind="snapshot", path=str(path)))
        phi = initial_field(cfg)
        assert np.max(np.abs(phi.coeffs - f.coeffs)) <= 1e-15 * np.max(np.abs(f.coeffs))

    def test_snapshot_grid_mismatch(self, grid, tmp_path):
        f = random_real_field(GridSpec(n=128, box_length=40.0), 5)
        path = tmp_path / "state.bin"
        save_snapshot(path, f, "test")
        cfg = small_config(grid, initial=InitialSpec(kind="snapshot", path=str(path)))
        with pytest.raises(ValueError, match="grid"):
            initial_field(cfg)

    def test_snapshot_coefficient_mismatch(self, grid, tmp_path):
        path = tmp_path / "state.bin"
        save_snapshot(path, random_real_field(grid, 5), CUBIC.identifier())
        cfg = small_config(grid, initial=InitialSpec(kind="snapshot", path=str(path)))
        with pytest.raises(ValueError, match="coefficients"):
            initial_field(cfg)

    def test_unknown_kind(self, grid):
        cfg = small_config(grid, initial=InitialSpec(kind="soliton"))
        with pytest.raises(ValueError, match="soliton"):
            initial_field(cfg)


class TestSimConfig:
    """Config validation."""

    def test_t_end_positive(self, grid):
        with pytest.raises(ValueError, match="t_end"):
            small_config(grid, t_end=0.0)
        with pytest.raises(ValueError, match="t_end"):
            small_config(grid, t_end=-1.0)

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
        cfg = small_config(grid)
        phi = initial_field(cfg)
        assert default_dt_init(phi, LINEAR) == 0.5 * grid.dx**2

    def test_large_amplitude_branch(self, grid):
        k = 8 * grid.dxi
        phi = transform(grid, 2.0 * np.cos(k * grid.x))
        spec = CoefficientSpec("linear", a=2.0, b=0.0, c=0.0)
        # max |c| = 2 * 2 = 4 (the cosine attains 1 at the x = 0 node)
        assert default_dt_init(phi, spec) == pytest.approx(0.5 * grid.dx**2 / 16.0, rel=1e-12)


class TestFreeFlow:
    """The integrating factor reproduces the Airy group exactly."""

    def test_single_linear_step_is_exact(self, grid):
        phi = random_real_field(grid, 3)
        out = lawson_step(phi, LINEAR, 0.7, linear_only=True)
        want = free_evolve(phi, 0.7)
        assert np.max(np.abs(out.coeffs - want.coeffs)) <= 1e-14 * np.max(np.abs(want.coeffs))
        assert out.time == pytest.approx(0.7)

    def test_linear_run_matches_airy_solution(self, grid):
        phi0 = random_real_field(grid, 4)
        # The unpaired Nyquist slot of an even grid cannot stay Hermitian
        # under the Airy rotation; zero it so the per-step reality projection
        # is exactly the identity and the comparison isolates phase round-off.
        c = phi0.coeffs.copy()
        c[grid.n // 2] = 0.0
        phi0 = phi0.with_coeffs(c)
        out = fixed_step_run(phi0, LINEAR, dt=1e-2, n_steps=100, linear_only=True)
        want = free_evolve(phi0, 1.0)
        rel = norm(out.with_coeffs(out.coeffs - want.coeffs), "L2") / norm(want, "L2")
        assert rel <= 1e-11


class TestOrderOfAccuracy:
    """Self-convergence of the fixed-step scheme on the full equation."""

    def test_fourth_order(self):
        g = GridSpec(n=128, box_length=30.0)
        phi0 = enforce_real_zero_mean(
            transform(g, 0.15 * np.exp(-((g.x / 2.0) ** 2)))
        )
        t_end = 1.0
        finals = []
        for dt in (8e-3, 4e-3, 2e-3):
            finals.append(fixed_step_run(phi0, CUBIC, dt, int(round(t_end / dt))))
        d1 = norm(finals[0].with_coeffs(finals[0].coeffs - finals[1].coeffs), "L2")
        d2 = norm(finals[1].with_coeffs(finals[1].coeffs - finals[2].coeffs), "L2")
        order = np.log2(d1 / d2)
        assert 3.7 <= order <= 4.3
        assert d2 < 1e-10  # absolute self-convergence at the finest pair


class TestAdaptiveStep:
    """Step doubling: acceptance, rejection, caps, and the underflow guard."""

    def test_zero_data_stays_zero(self, grid):
        cfg = small_config(grid, initial=InitialSpec("gaussian", 0.0), t_end=0.5)
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
        phi = initial_field(cfg)
        state = SimState(phi=phi, dt=1e-2)
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
        phi = initial_field(small_config(grid, initial=InitialSpec("gaussian", 0.3)))
        out = step(SimState(phi=phi, dt=dt), small_config(grid, coeff=CUBIC, eps_tol=1e-8))
        attempted = out.steps + out.rejected
        assert (out.rejected > 0) == rejects
        assert calls == {"lawson": 3 * attempted, "rhs": 12 * attempted}

    def test_accepted_step_is_projected(self, grid):
        cfg = small_config(grid, coeff=CUBIC, eps_tol=1e-8)
        phi = initial_field(small_config(grid, initial=InitialSpec("gaussian", 0.3)))
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
        phi0 = initial_field(cfg)
        path = tmp_path / "state.bin"
        save_snapshot(path, phi0.with_coeffs(phi0.coeffs, time=5.0), LINEAR.identifier())
        resumed = small_config(
            grid,
            initial=InitialSpec(kind="snapshot", path=str(path)),
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
        save_snapshot(path, phi.with_coeffs(phi.coeffs, time=5.0), LINEAR.identifier())
        cfg = small_config(grid, initial=InitialSpec(kind="snapshot", path=str(path)), t_end=4.0)
        with pytest.raises(ValueError, match="t_end"):
            run(cfg)

    def test_short_run_conserves_invariants(self):
        grid = GridSpec(n=256, box_length=50.0)
        cfg = SimConfig(
            grid=grid,
            coeff=CUBIC,
            initial=InitialSpec("gaussian", amplitude=0.05, width=1.0),
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

    def test_monitor_record_fields(self, grid):
        phi = random_real_field(grid, 9)
        rec = monitor_record(phi, LINEAR)
        assert set(rec) == {"t", "mass", "l2", "hamiltonian"}
        assert rec["l2"] == pytest.approx(norm(phi, "L2"))
