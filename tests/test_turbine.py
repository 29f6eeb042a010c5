import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from immwind import (
    ControlInput,
    DomainError,
    GridCpSurface,
    StateVector,
    TurbineModel,
    TurbineParameters,
    aero_torque,
    jacobian_f,
    step_dynamics,
)
from immwind.turbine import MEASUREMENT_JACOBIAN, OMEGA_FLOOR, V_FLOOR


class TestAeroTorque:
    def test_zero_coefficient_gives_zero_torque(self, params):
        zero = GridCpSurface.constant(0.0)
        assert aero_torque(1.0, 8.0, 0.0, params, zero) == 0.0

    def test_hand_evaluated_closed_form(self):
        # independent scalar evaluation of 0.5*rho*pi*R^2*Cp*v^3/omega
        p = TurbineParameters(radius=50.0)
        expected = 0.5 * 1.225 * math.pi * 50.0**2 * 0.48 * 8.0**3 / 1.0
        surf = GridCpSurface.constant(0.48)
        assert aero_torque(1.0, 8.0, 0.0, p, surf) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.1822e6, rel=1e-4)

    def test_cubic_scaling_in_wind(self, params, flat_surface):
        t1 = aero_torque(1.0, 6.0, 0.0, params, flat_surface)
        t2 = aero_torque(1.0, 12.0, 0.0, params, flat_surface)
        assert t2 / t1 == pytest.approx(8.0, rel=1e-12)

    def test_floor_violations(self, params, flat_surface):
        with pytest.raises(DomainError, match="rotor speed"):
            aero_torque(0.01, 8.0, 0.0, params, flat_surface)
        with pytest.raises(DomainError, match="wind speed"):
            aero_torque(1.0, 0.2, 0.0, params, flat_surface)

    def test_extra_offset_shifts_surface(self, params):
        surf = GridCpSurface.constant(0.30)
        base = aero_torque(1.0, 8.0, 0.0, params, surf)
        shifted = aero_torque(1.0, 8.0, 0.0, params, surf, offset=0.10)
        assert shifted / base == pytest.approx(0.40 / 0.30, rel=1e-12)


class TestStepDynamics:
    def test_equilibrium_keeps_speed(self, params, flat_surface):
        x = StateVector(0.9, 8.0)
        tau = aero_torque(x.omega, x.v, 0.0, params, flat_surface)
        nxt = step_dynamics(x, ControlInput(0.0, tau), params, flat_surface)
        assert nxt.omega == x.omega

    def test_wind_passes_through_exactly(self, params, flat_surface):
        for v in (0.7, 8.0, 15.123456789):
            nxt = step_dynamics(StateVector(0.9, v), ControlInput(0.0, 1e6), params, flat_surface)
            assert nxt.v == v

    def test_hand_evaluated_euler_step(self, flat_surface):
        # omega' = 0.9 + 0.05/1.6e8 * 1.6e6 = 0.9005
        p = TurbineParameters(inertia=1.6e8, dt=0.05)
        x = StateVector(0.9, 8.0)
        tau_a = aero_torque(x.omega, x.v, 0.0, p, flat_surface)
        nxt = step_dynamics(x, ControlInput(0.0, tau_a - 1.6e6), p, flat_surface)
        assert nxt.omega == pytest.approx(0.9005, abs=1e-12)

    def test_output_reclamped_to_floor(self, params, flat_surface):
        x = StateVector(OMEGA_FLOOR, 8.0)
        nxt = step_dynamics(x, ControlInput(0.0, 1e9), params, flat_surface)
        assert nxt.omega == OMEGA_FLOOR


class TestJacobian:
    def test_zero_coefficient_gives_identity(self, params):
        zero = GridCpSurface.constant(0.0)
        F = jacobian_f(StateVector(0.9, 8.0), ControlInput(0.0, 1e6), params, zero)
        np.testing.assert_allclose(F, np.eye(2), rtol=0, atol=1e-15)

    def test_bottom_row_is_random_walk(self, params, analytic_surface):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = StateVector(rng.uniform(0.3, 1.3), rng.uniform(5.0, 15.0))
            F = jacobian_f(x, ControlInput(0.1, 1e6), params, analytic_surface)
            assert F[1, 0] == 0.0
            assert F[1, 1] == 1.0

    def test_matches_finite_differences(self, params, analytic_surface):
        rng = np.random.default_rng(7)
        u = ControlInput(math.radians(4.0), 3e6)
        for _ in range(200):
            lam = rng.uniform(3.0, 12.0)
            v = rng.uniform(5.0, 11.0)
            x = np.array([lam * v / params.radius, v])
            F = jacobian_f(StateVector(*x), u, params, analytic_surface)
            # scale floor keeps the relative test meaningful where an
            # off-diagonal entry happens to cross zero
            floor = 1e-6 * np.abs(F).max()
            for i in range(2):
                for j in range(2):
                    h = 1e-4 * (1.0 + abs(x[j]))
                    xp = x.copy()
                    xm = x.copy()
                    xp[j] += h
                    xm[j] -= h
                    fp = step_dynamics(StateVector(*xp), u, params, analytic_surface)
                    fm = step_dynamics(StateVector(*xm), u, params, analytic_surface)
                    fd = ((fp.omega, fp.v)[i] - (fm.omega, fm.v)[i]) / (2 * h)
                    scale = max(abs(fd), abs(F[i, j]), floor)
                    assert abs(F[i, j] - fd) / scale < 1e-4

    def test_floor_violation(self, params, flat_surface):
        with pytest.raises(DomainError):
            jacobian_f(StateVector(0.9, 0.1), ControlInput(0.0, 0.0), params, flat_surface)


class TestMeasurement:
    def test_jacobian_is_constant_row(self):
        np.testing.assert_array_equal(MEASUREMENT_JACOBIAN, [[1.0, 0.0]])


class TestParameters:
    @pytest.mark.parametrize(
        "field", ["inertia", "radius", "air_density", "omega_rated", "tau_rated", "dt", "sigma_n"]
    )
    def test_positivity_enforced(self, field):
        with pytest.raises(ValueError, match=field):
            TurbineParameters(**{field: 0.0})

    def test_step_size_bound(self):
        with pytest.raises(ValueError, match="dt"):
            TurbineParameters(dt=0.2)


class TestTurbineModel:
    def test_clamps_instead_of_raising(self, params, flat_surface):
        model = TurbineModel(params, flat_surface)
        out = model.f(np.array([0.001, 0.1]), ControlInput(0.0, 0.0))
        assert np.all(np.isfinite(out))
        ref = model.f(np.array([OMEGA_FLOOR, V_FLOOR]), ControlInput(0.0, 0.0))
        np.testing.assert_array_equal(out, ref)

    def test_h_and_jac_h(self, params, flat_surface):
        model = TurbineModel(params, flat_surface)
        x = np.array([0.9, 8.0])
        assert model.h(x, None)[0] == 0.9
        np.testing.assert_array_equal(model.jac_h(x, None), [[1.0, 0.0]])

    @pytest.mark.parametrize(
        "omega, v", [(0.9, 8.0), (0.001, 8.0), (0.9, 0.1), (-1.0, -3.0), (OMEGA_FLOOR, V_FLOOR)]
    )
    def test_model_is_the_state_vector_path_at_the_floored_state(
        self, params, analytic_surface, grid_surface, omega, v
    ):
        floored = StateVector(max(omega, OMEGA_FLOOR), max(v, V_FLOOR))
        u = ControlInput(math.radians(3.0), 2e6)
        x = np.array([omega, v])
        for surf in (analytic_surface, grid_surface):
            model = TurbineModel(params, surf)
            nxt = step_dynamics(floored, u, params, surf)
            np.testing.assert_array_equal(model.f(x, u), [nxt.omega, nxt.v])
            np.testing.assert_array_equal(model.jac_f(x, u), jacobian_f(floored, u, params, surf))
            lam = floored.omega * params.radius / floored.v
            assert model.cp_at(x, u.pitch) == surf.evaluate(lam, u.pitch)

    def test_offset_is_added_to_the_surface(self, params, grid_surface):
        x, u = np.array([0.9, 8.0]), ControlInput(math.radians(3.0), 2e6)
        model = TurbineModel(params, grid_surface, 0.04)
        lam = 0.9 * params.radius / 8.0
        assert model.cp_at(x, u.pitch) == grid_surface.evaluate(lam, u.pitch, 0.04)
        tau_a = aero_torque(0.9, 8.0, u.pitch, params, grid_surface, 0.04)
        assert model.f(x, u)[0] == 0.9 + params.dt / params.inertia * (tau_a - u.torque)


class TestFusedStep:
    @settings(max_examples=300, deadline=None)
    @given(
        omega=st.floats(-1.0, 3.0),
        v=st.floats(-5.0, 60.0),
        pitch=st.floats(-0.3, 0.9),
        torque=st.floats(0.0, 2e7),
        offset=st.sampled_from([0.0, 0.04, -0.6, 0.5]),
        kind=st.sampled_from(["analytic", "grid"]),
    )
    @example(omega=0.0, v=0.1, pitch=0.0, torque=0.0, offset=0.0, kind="grid")  # both floors
    @example(omega=3.0, v=0.5, pitch=0.1, torque=0.0, offset=0.0, kind="grid")  # lambda above
    @example(omega=0.05, v=60.0, pitch=-0.2, torque=0.0, offset=0.0, kind="analytic")  # below
    def test_equals_f_and_jac_f_bit_for_bit(
        self, params, analytic_surface, grid_surface, omega, v, pitch, torque, offset, kind
    ):
        surface = {"analytic": analytic_surface, "grid": grid_surface}[kind]
        model = TurbineModel(params, surface, offset)
        x = np.array([omega, v])
        u = ControlInput(pitch, torque)
        F = model.jac_f(x, u)
        want = (*model.f(x, u).tolist(), *F[0].tolist())
        got = model.f_and_jac(omega, v, torque, surface.at_pitch(pitch))
        assert [g.hex() for g in got] == [w.hex() for w in want]
        assert F[1].tolist() == [0.0, 1.0]

    def test_cp_at_offsets_equals_cp_at(self, params, grid_surface):
        x = np.array([0.001, 40.0])  # omega below its floor, lambda below the grid
        models = [TurbineModel(params, grid_surface, d) for d in (0.0, 0.3, -0.4)]
        at = grid_surface.at_pitch(0.1)
        got = models[0].cp_at_offsets(0.001, 40.0, at, [m.offset for m in models])
        assert got == [m.cp_at(x, 0.1) for m in models]
