"""Simplified rigid-drivetrain turbine model shared by plant and filters.

State is the pair (rotor speed, wind speed).  The rotor integrates the
imbalance between aerodynamic and generator torque; the wind component
is a random walk whose deterministic part is the identity.  One formula,
``drivetrain_step``, gives the discrete step and its analytic Jacobian
to the simulator and to every Kalman filter, so model mismatch in
experiments comes only from the power-coefficient mapping: a Cp surface
plus an additive offset, which the plant takes per step from its
true-Cp schedule and each filter's ``TurbineModel`` holds as its mode's
offset.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cp import CpAtPitch, CpSurface
from .errors import DomainError

OMEGA_FLOOR = 0.05  # rad/s, guards the 1/omega singularity of the torque
V_FLOOR = 0.5  # m/s, guards 1/v in the tip-speed ratio


@dataclass(frozen=True)
class TurbineParameters:
    """Physical constants of the lumped turbine.

    Defaults are representative of a 10 MW class reference machine
    (they are package defaults, not measured values).  ``sigma_n`` is
    the per-step standard deviation of the random-walk wind model used
    by the estimators.
    """

    inertia: float = 1.6e8  # kg m^2
    radius: float = 89.2  # m
    air_density: float = 1.225  # kg/m^3
    omega_rated: float = 1.005  # rad/s
    tau_rated: float = 9.8e6  # N m
    dt: float = 0.05  # s
    sigma_n: float = 0.1  # m/s per step

    def __post_init__(self) -> None:
        for name in (
            "inertia",
            "radius",
            "air_density",
            "omega_rated",
            "tau_rated",
            "dt",
            "sigma_n",
        ):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"TurbineParameters.{name} must be strictly positive")
        # explicit-Euler stability margin for the slow drivetrain mode
        if self.dt > 0.1:
            raise ValueError("TurbineParameters.dt must be <= 0.1 s")

    @functools.cached_property
    def drivetrain(self) -> tuple[float, float, float]:
        """(R, 0.5 rho pi R^2, dt/J), the constants of ``drivetrain_step``."""
        k = 0.5 * self.air_density * math.pi * self.radius**2
        return self.radius, k, self.dt / self.inertia


@dataclass(frozen=True)
class StateVector:
    """(rotor speed, wind speed); both must sit above the domain floors."""

    omega: float  # rad/s
    v: float  # m/s


@dataclass(frozen=True)
class ControlInput:
    """Collective pitch (rad) and generator torque (N m).

    The controller keeps pitch within its actuation range and torque
    within [0, 1.2 * tau_rated]; the type itself does not re-validate.
    """

    pitch: float
    torque: float


def _check_floors(omega: float, v: float) -> None:
    if omega < OMEGA_FLOOR:
        raise DomainError(f"rotor speed {omega} rad/s is below the floor {OMEGA_FLOOR}")
    if v < V_FLOOR:
        raise DomainError(f"wind speed {v} m/s is below the floor {V_FLOOR}")


def drivetrain_step(
    params: TurbineParameters, omega: float, v: float, torque: float, cp_at: CpAtPitch,
    offset: float,
) -> tuple[float, float, float, float, float]:
    """(omega_next, Cp, tau_a, F00, F01) at a state (omega, v) on or above the floors.

    Cp is one lookup of ``cp_at``, the surface at the step's pitch, under
    ``offset``; tau_a = 0.5 rho pi R^2 Cp v^3 / omega; omega_next is the
    explicit-Euler step omega + dt/J (tau_a - torque) raised to the floor;
    (F00, F01) is the step's Jacobian's top row, using dCp/dlambda taken
    before the value clamp; the wind passes through, so the bottom row is
    (0, 1).  ``TurbineModel`` raises a filter state to the floors first;
    ``aero_torque``, ``step_dynamics`` and ``jacobian_f`` raise DomainError.
    """
    radius, k, a = params.drivetrain
    cp_val, dcp_dlam = cp_at.eval_with_dlam(omega * radius / v, offset)
    v2 = v**2
    kcv3 = k * cp_val * v**3
    tau_a = kcv3 / omega
    omega_next = omega + a * (tau_a - torque)
    omega_next = OMEGA_FLOOR if OMEGA_FLOOR > omega_next else omega_next  # max(., OMEGA_FLOOR)
    dtau_domega = k * v2 * radius * dcp_dlam / omega - kcv3 / omega**2
    dtau_dv = 3.0 * k * cp_val * v2 / omega - k * radius * v * dcp_dlam
    return omega_next, cp_val, tau_a, 1.0 + a * dtau_domega, a * dtau_dv


def aero_torque(
    omega: float,
    v: float,
    pitch: float,
    params: TurbineParameters,
    cp: CpSurface,
    offset: float = 0.0,
) -> float:
    """Aerodynamic torque 0.5 rho pi R^2 Cp(lambda, theta) v^3 / omega,
    with ``offset`` added to the surface's Cp."""
    _check_floors(omega, v)
    return drivetrain_step(params, omega, v, 0.0, cp.at_pitch(pitch), offset)[2]


def step_dynamics(
    x: StateVector, u: ControlInput, params: TurbineParameters, cp: CpSurface
) -> StateVector:
    """One explicit-Euler step of the drivetrain; wind passes through."""
    _check_floors(x.omega, x.v)
    return StateVector(
        drivetrain_step(params, x.omega, x.v, u.torque, cp.at_pitch(u.pitch), 0.0)[0], x.v
    )


def jacobian_f(
    x: StateVector, u: ControlInput, params: TurbineParameters, cp: CpSurface
) -> np.ndarray:
    """Jacobian of ``step_dynamics`` with respect to the state.

    [[1 + dt/J * dtau/domega, dt/J * dtau/dv], [0, 1]], using the Cp
    surface's dCp/dlambda (taken before the value clamp).
    """
    _check_floors(x.omega, x.v)
    *_, f00, f01 = drivetrain_step(params, x.omega, x.v, u.torque, cp.at_pitch(u.pitch), 0.0)
    return np.array(((f00, f01), (0.0, 1.0)))


MEASUREMENT_JACOBIAN = np.array([[1.0, 0.0]])


@dataclass(frozen=True)
class TurbineModel:
    """Adapter exposing the turbine as an (f, h, jac_f, jac_h) model.

    The model's Cp is ``cp`` plus ``offset``, the additive offset of a
    mode of the filter bank.  Filter estimates may transiently wander
    below the domain floors; the adapter raises them to the floors
    before evaluating ``f``, ``jac_f`` or ``cp_at``, which is exactly
    what the floors exist for.
    """

    params: TurbineParameters
    cp: CpSurface
    offset: float = 0.0

    def f(self, x: np.ndarray, u: ControlInput) -> np.ndarray:
        return np.array(self._f_and_jac_at(x, u)[:2])

    def jac_f(self, x: np.ndarray, u: ControlInput) -> np.ndarray:
        return np.array((self._f_and_jac_at(x, u)[2:], (0.0, 1.0)))

    def _f_and_jac_at(self, x: np.ndarray, u: ControlInput) -> tuple[float, float, float, float]:
        return self.f_and_jac(float(x[0]), float(x[1]), u.torque, self.cp.at_pitch(u.pitch))

    def f_and_jac(
        self, x0: float, x1: float, torque: float, cp_at: CpAtPitch
    ) -> tuple[float, float, float, float]:
        """``f`` and the top row of ``jac_f`` at the state (x0, x1), from one Cp lookup.

        ``cp_at`` is ``cp.at_pitch(pitch)``.  Returns (f0, f1, F00, F01)
        at u = (pitch, torque): ``drivetrain_step`` at the state raised
        to the floors.  F's bottom row is always (0, 1).
        """
        omega = OMEGA_FLOOR if OMEGA_FLOOR > x0 else x0  # max(x0, OMEGA_FLOOR)
        v = V_FLOOR if V_FLOOR > x1 else x1
        f0, _, _, f00, f01 = drivetrain_step(self.params, omega, v, torque, cp_at, self.offset)
        return f0, v, f00, f01

    def cp_at(self, x: np.ndarray, pitch: float) -> float:
        """This model's Cp at the filter state ``x``."""
        cp_at = self.cp.at_pitch(pitch)
        return self.cp_at_offsets(float(x[0]), float(x[1]), cp_at, (self.offset,))[0]

    def cp_at_offsets(self, x0: float, x1: float, cp_at: CpAtPitch, offsets) -> list[float]:
        """``cp_at`` at the state (x0, x1) under each offset in ``offsets`` in
        place of this model's, from one lookup of ``cp_at`` (as in ``f_and_jac``)."""
        omega = OMEGA_FLOOR if OMEGA_FLOOR > x0 else x0
        v = V_FLOOR if V_FLOOR > x1 else x1
        return cp_at.evaluate_offsets(omega * self.params.radius / v, offsets)

    def h(self, x: np.ndarray, u: ControlInput) -> np.ndarray:
        return np.array([float(x[0])])

    def jac_h(self, x: np.ndarray, u: ControlInput) -> np.ndarray:
        return MEASUREMENT_JACOBIAN
