import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import immwind
from immwind import (
    BaselineController,
    NumericalError,
    ScenarioPreset,
    TurbineParameters,
    aero_torque,
    generate_cp_schedule,
    generate_wind,
    simulate_plant,
)
from immwind.plant import rews_step_std
from immwind.turbine import OMEGA_FLOOR, V_FLOOR


def preset(v_op=8.0, ti=0.10, duration=600.0, seed=1):
    return ScenarioPreset(v_op, ti, duration, seed)


class TestWindField:
    def test_rews_is_exact_pointwise_mean(self):
        wind = generate_wind(preset(seed=3))
        np.testing.assert_array_equal(wind.rews, wind.points.mean(axis=1))

    def test_no_turbulence_means_constant_wind(self):
        wind = generate_wind(preset(ti=0.0, duration=60.0))
        assert np.all(wind.points == 8.0)
        assert np.all(wind.rews == 8.0)

    def test_sample_statistics_in_expected_band(self):
        wind = generate_wind(preset(seed=1))
        assert wind.rews.mean() == pytest.approx(8.0, abs=0.2)
        assert 0.5 <= wind.rews.std() <= 1.1

    def test_point_std_tracks_turbulence_intensity(self):
        wind = generate_wind(preset(seed=2))
        stds = wind.points.std(axis=0)
        np.testing.assert_allclose(stds, 0.8, rtol=0.25)

    def test_deterministic_for_fixed_seed(self):
        a = generate_wind(preset(seed=7))
        b = generate_wind(preset(seed=7))
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.rews, b.rews)
        c = generate_wind(preset(seed=8))
        assert not np.array_equal(a.rews, c.rews)

    def test_floor_respected_in_heavy_turbulence(self):
        wind = generate_wind(ScenarioPreset(1.0, 0.5, 300.0, seed=4))
        assert np.all(wind.points >= V_FLOOR)

    def test_runtime_needs_no_scipy(self):
        src = str(Path(immwind.__file__).resolve().parents[1])
        probe = "import sys, immwind; sys.exit('scipy' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", probe], env={"PYTHONPATH": src}, timeout=60)
        assert done.returncode == 0

    def test_step_std_formula_matches_series(self):
        p = preset(seed=5, duration=3000.0)
        wind = generate_wind(p)
        measured = np.diff(wind.rews).std()
        assert measured == pytest.approx(rews_step_std(8.0, 0.10, p.dt), rel=0.15)


class TestCpSchedule:
    def test_zero_bound_is_identically_zero(self):
        sch = generate_cp_schedule("walk", 0.0, 1000, 0.05, 1)
        assert np.all(sch.offsets == 0.0)

    def test_walk_never_exceeds_bound(self):
        sch = generate_cp_schedule("walk", 0.04, 1_000_000, 0.05, 2)
        assert np.all(np.abs(sch.offsets) <= 0.04)

    def test_regime_dwell_limits_segment_count(self):
        # 300 s with dwell >= 100 s fits at most 3 regimes
        sch = generate_cp_schedule("regime", 0.04, 6001, 0.05, 3)
        changes = int((np.diff(sch.offsets) != 0).sum())
        assert changes <= 2

    def test_regime_levels_and_sustained_windows(self):
        sch = generate_cp_schedule("regime", 0.04, 12001, 0.05, 4)
        assert set(np.unique(sch.offsets)) <= {-0.04, 0.0, 0.04}
        # every completed segment dwells at least 100 s; both signed levels
        # appear as sustained windows inside 600 s
        changes = np.flatnonzero(np.diff(sch.offsets) != 0)
        bounds = np.concatenate([[0], changes + 1, [sch.offsets.size]])
        lengths = np.diff(bounds)
        for level in (0.04, -0.04):
            seg_ok = [
                lengths[i] >= 2000
                for i in range(len(lengths))
                if sch.offsets[bounds[i]] == level
            ]
            assert any(seg_ok)
        assert np.all(lengths[:-1] >= 2000)  # all complete segments >= 100 s

    def test_deterministic(self):
        a = generate_cp_schedule("regime", 0.04, 12001, 0.05, 5)
        b = generate_cp_schedule("regime", 0.04, 12001, 0.05, 5)
        np.testing.assert_array_equal(a.offsets, b.offsets)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown schedule kind"):
            generate_cp_schedule("sine", 0.04, 100, 0.05, 1)

    def test_negative_bound(self):
        with pytest.raises(ValueError, match="nonnegative"):
            generate_cp_schedule("walk", -0.01, 100, 0.05, 1)


class TestController:
    def test_zero_speed_zero_torque(self, params, grid_surface):
        ctl = BaselineController(params, grid_surface)
        assert ctl.step(0.0).torque == 0.0

    def test_optimal_tracking_equilibrium_identity(self, params, grid_surface):
        # at lambda*, the K_opt law balances the aerodynamic torque exactly
        ctl = BaselineController(params, grid_surface)
        v = 8.0
        omega = ctl.lam_star * v / params.radius
        tau_a = aero_torque(omega, v, ctl.fine_pitch, params, grid_surface)
        assert ctl.step(omega).torque == pytest.approx(tau_a, rel=1e-6)

    def test_above_rated_regulation(self, params, grid_surface):
        p = preset(v_op=15.0, ti=0.0, duration=120.0, seed=1)
        sch = generate_cp_schedule("regime", 0.0, p.n_steps, p.dt, 1)
        traj = simulate_plant(p, sch, params, grid_surface, 0.0)
        tail = traj.omega[int(60.0 / p.dt):]
        assert np.abs(tail - params.omega_rated).max() / params.omega_rated < 0.02

    def test_equilibrium_pitch_balances_rated_torque(self, params, grid_surface):
        ctl = BaselineController(params, grid_surface)
        pitch = ctl.equilibrium_pitch(params.omega_rated, 15.0)
        tau = aero_torque(params.omega_rated, 15.0, pitch, params, grid_surface)
        assert tau == pytest.approx(params.tau_rated, rel=1e-6)


class TestSimulatePlant:
    def test_region_two_equilibrium(self, params, grid_surface):
        p = preset(ti=0.0, duration=120.0)
        sch = generate_cp_schedule("regime", 0.0, p.n_steps, p.dt, 1)
        traj = simulate_plant(p, sch, params, grid_surface, 0.0)
        tail = slice(int(60.0 / p.dt), None)
        lam = traj.omega[tail] * params.radius / traj.v_rews[tail]
        ctl = BaselineController(params, grid_surface)
        assert np.all(np.abs(lam / ctl.lam_star - 1.0) < 0.01)
        assert np.abs(np.diff(traj.omega[tail])).max() < 1e-6

    def test_noiseless_measurement_equals_state(self, params, grid_surface):
        p = preset(duration=60.0)
        sch = generate_cp_schedule("regime", 0.04, p.n_steps, p.dt, 1)
        traj = simulate_plant(p, sch, params, grid_surface, 0.0)
        np.testing.assert_array_equal(traj.y_meas, traj.omega)

    def test_deterministic(self, params, grid_surface):
        p = preset(duration=60.0)
        sch = generate_cp_schedule("walk", 0.04, p.n_steps, p.dt, 1)
        a = simulate_plant(p, sch, params, grid_surface, 1e-3)
        b = simulate_plant(p, sch, params, grid_surface, 1e-3)
        for field in ("omega", "v_rews", "pitch", "tau_g", "cp_true", "y_meas"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_energy_telescoping_identity(self, params, grid_surface):
        p = preset(duration=120.0, seed=6)
        sch = generate_cp_schedule("regime", 0.04, p.n_steps, p.dt, 6)
        traj = simulate_plant(p, sch, params, grid_surface, 1e-4)
        k = 0.5 * params.air_density * math.pi * params.radius**2
        tau_a = k * traj.cp_true * traj.v_rews**3 / traj.omega
        impulse = np.sum(tau_a[:-1] - traj.tau_g[:-1]) * params.dt
        delta = params.inertia * (traj.omega[-1] - traj.omega[0])
        assert impulse == pytest.approx(delta, rel=1e-6)

    def test_cp_true_is_the_lookup_that_drove_the_step(self, params, grid_surface):
        p = preset(v_op=15.0, duration=30.0, seed=3)
        sch = generate_cp_schedule("walk", 0.04, p.n_steps, p.dt, 3)
        traj = simulate_plant(p, sch, params, grid_surface, 1e-4)
        k_rotor = 0.5 * params.air_density * math.pi * params.radius**2
        for k in range(traj.t.size):
            omega, v = float(traj.omega[k]), float(traj.v_rews[k])
            cp = grid_surface.evaluate(
                omega * params.radius / v, float(traj.pitch[k]), float(sch.offsets[k])
            )
            assert traj.cp_true[k] == cp
            if k + 1 < traj.t.size:
                tau_a = k_rotor * cp * v**3 / omega
                nxt = omega + params.dt / params.inertia * (tau_a - float(traj.tau_g[k]))
                assert traj.omega[k + 1] == max(nxt, OMEGA_FLOOR)

    def test_rotor_speed_within_safe_envelope(self, params, grid_surface):
        p = preset(v_op=15.0, duration=120.0, seed=7)
        sch = generate_cp_schedule("regime", 0.04, p.n_steps, p.dt, 7)
        traj = simulate_plant(p, sch, params, grid_surface, 1e-4)
        assert np.all(traj.omega >= 0.0)
        assert np.all(traj.omega <= 1.5 * params.omega_rated)

    def test_escape_aborts_with_diagnostic(self, grid_surface):
        # absurdly small inertia makes the closed loop blow through the cap
        bad = TurbineParameters(inertia=1e3)
        p = preset(duration=30.0)
        sch = generate_cp_schedule("regime", 0.0, p.n_steps, p.dt, 1)
        with pytest.raises(NumericalError, match="rotor speed"):
            simulate_plant(p, sch, bad, grid_surface, 0.0)

    def test_schedule_too_short_rejected(self, params, grid_surface):
        p = preset(duration=60.0)
        sch = generate_cp_schedule("regime", 0.04, 10, p.dt, 1)
        with pytest.raises(ValueError, match="shorter"):
            simulate_plant(p, sch, params, grid_surface, 0.0)

    def test_csv_export_layout(self, params, grid_surface, tmp_path):
        p = preset(duration=5.0)
        sch = generate_cp_schedule("regime", 0.04, p.n_steps, p.dt, 1)
        traj = simulate_plant(p, sch, params, grid_surface, 1e-4)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,omega,v_rews,pitch,tau_g,cp_true,y_meas"
        assert len(lines) == traj.t.size + 1
        row = [float(c) for c in lines[1].split(",")]
        assert row[0] == traj.t[0]
        assert row[6] == traj.y_meas[0]


class TestScenarioPreset:
    def test_invariants(self):
        with pytest.raises(ValueError):
            ScenarioPreset(-1.0, 0.1, 600.0, 1)
        with pytest.raises(ValueError):
            ScenarioPreset(8.0, 0.6, 600.0, 1)
        with pytest.raises(ValueError):
            ScenarioPreset(8.0, 0.1, 0.0, 1)

    def test_step_count(self):
        assert ScenarioPreset(8.0, 0.1, 600.0, 1).n_steps == 12001
