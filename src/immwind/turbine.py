"""Simplified rigid-drivetrain turbine model shared by plant and filters.

State is the pair (rotor speed, wind speed).  The rotor integrates the
imbalance between aerodynamic and generator torque; the wind component
is a random walk whose deterministic part is the identity.  The same
discrete step and analytic Jacobian are used by the simulator and by
every Kalman filter, so model mismatch in experiments comes only from
the power-coefficient mapping: a Cp surface plus an additive offset,
which the plant takes per step from its true-Cp schedule and each
filter's ``TurbineModel`` holds as its mode's offset.
"""

from __future__ import annotations

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


def _aero(
    omega: float,
    v: float,
    pitch: float,
    params: TurbineParameters,
    cp: CpSurface,
    offset: float = 0.0,
) -> tuple[float, float]:
    """(Cp, aerodynamic torque) at a state checked against the floors."""
    _check_floors(omega, v)
    cp_val = cp.evaluate(omega * params.radius / v, pitch, offset)
    return cp_val, _torque(omega, v, cp_val, params)


def _torque(omega: float, v: float, cp_val: float, params: TurbineParameters) -> float:
    k = 0.5 * params.air_density * math.pi * params.radius**2
    return k * cp_val * v**3 / omega


def _euler(omega: float, tau_a: float, torque: float, params: TurbineParameters) -> float:
    """The next rotor speed, raised to the floor."""
    return max(omega + params.dt / params.inertia * (tau_a - torque), OMEGA_FLOOR)


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
    return _aero(omega, v, pitch, params, cp, offset)[1]


def step_dynamics(
    x: StateVector, u: ControlInput, params: TurbineParameters, cp: CpSurface
) -> StateVector:
    """One explicit-Euler step of the drivetrain; wind passes through."""
    return StateVector(_step_core(x.omega, x.v, u.pitch, u.torque, params, cp)[0], x.v)


def _step_core(
    omega: float,
    v: float,
    pitch: float,
    torque: float,
    params: TurbineParameters,
    cp: CpSurface,
    offset: float = 0.0,
) -> tuple[float, float]:
    """(next rotor speed, the Cp that drove the step)."""
    cp_val, tau_a = _aero(omega, v, pitch, params, cp, offset)
    return _euler(omega, tau_a, torque, params), cp_val


def jacobian_f(
    x: StateVector, u: ControlInput, params: TurbineParameters, cp: CpSurface
) -> np.ndarray:
    """Jacobian of ``step_dynamics`` with respect to the state.

    [[1 + dt/J * dtau/domega, dt/J * dtau/dv], [0, 1]], using the Cp
    surface's dCp/dlambda (taken before the value clamp).
    """
    _check_floors(x.omega, x.v)
    return _jacobian_core(x.omega, x.v, u.pitch, params, cp)


def _jacobian_core(
    omega: float, v: float, pitch: float, params: TurbineParameters, cp: CpSurface,
    offset: float = 0.0,
) -> np.ndarray:
    cp_val, dcp_dlam = cp.at_pitch(pitch).eval_with_dlam(omega * params.radius / v, offset)
    return np.array([_jacobian_row(omega, v, cp_val, dcp_dlam, params), (0.0, 1.0)])


def _jacobian_row(
    omega: float, v: float, cp_val: float, dcp_dlam: float, params: TurbineParameters
) -> tuple[float, float]:
    """The Jacobian's top row: d omega_next / d omega and d omega_next / d v."""
    k = 0.5 * params.air_density * math.pi * params.radius**2
    dtau_domega = k * v**2 * params.radius * dcp_dlam / omega - k * cp_val * v**3 / omega**2
    dtau_dv = 3.0 * k * cp_val * v**2 / omega - k * params.radius * v * dcp_dlam
    a = params.dt / params.inertia
    return 1.0 + a * dtau_domega, a * dtau_dv


MEASUREMENT_JACOBIAN = np.array([[1.0, 0.0]])


def _floored(x: np.ndarray) -> tuple[float, float]:
    """A filter state's (omega, v) as floats raised to the domain floors."""
    return max(float(x[0]), OMEGA_FLOOR), max(float(x[1]), V_FLOOR)


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
        omega, v = _floored(x)
        return np.array(
            [_step_core(omega, v, u.pitch, u.torque, self.params, self.cp, self.offset)[0], v]
        )

    def jac_f(self, x: np.ndarray, u: ControlInput) -> np.ndarray:
        return _jacobian_core(*_floored(x), u.pitch, self.params, self.cp, self.offset)

    def __post_init__(self) -> None:
        p = self.params
        # R, 0.5 rho pi R^2 and dt/J, formed as _torque, _euler and _jacobian_row form them
        k = 0.5 * p.air_density * math.pi * p.radius**2
        object.__setattr__(self, "_constants", (p.radius, k, p.dt / p.inertia))

    def f_and_jac(
        self, x0: float, x1: float, torque: float, cp_at: CpAtPitch
    ) -> tuple[float, float, float, float]:
        """``f`` and ``jac_f`` at the state (x0, x1) as floats, from one Cp lookup.

        ``cp_at`` is ``cp.at_pitch(pitch)``.  Returns (f0, f1, F00, F01),
        equal bit for bit to ``f(x, u)`` and the top row of ``jac_f(x, u)``
        at u = (pitch, torque), whose helpers it inlines; F's bottom row
        is always (0, 1).
        """
        omega = OMEGA_FLOOR if OMEGA_FLOOR > x0 else x0  # max(x0, OMEGA_FLOOR), as _floored
        v = V_FLOOR if V_FLOOR > x1 else x1
        radius, k, a = self._constants
        cp_val, dcp_dlam = cp_at.eval_with_dlam(omega * radius / v, self.offset)
        v2 = v**2
        kcv3 = k * cp_val * v**3
        omega_next = omega + a * (kcv3 / omega - torque)
        dtau_domega = k * v2 * radius * dcp_dlam / omega - kcv3 / omega**2
        dtau_dv = 3.0 * k * cp_val * v2 / omega - k * radius * v * dcp_dlam
        return (
            OMEGA_FLOOR if OMEGA_FLOOR > omega_next else omega_next,
            v,
            1.0 + a * dtau_domega,
            a * dtau_dv,
        )

    def cp_at(self, x: np.ndarray, pitch: float) -> float:
        """This model's Cp at the filter state ``x``."""
        omega, v = _floored(x)
        return self.cp.evaluate(omega * self.params.radius / v, pitch, self.offset)

    def cp_at_offsets(self, x0: float, x1: float, cp_at: CpAtPitch, offsets) -> list[float]:
        """``cp_at`` at the state (x0, x1) under each offset in ``offsets`` in
        place of this model's, from one lookup of ``cp_at`` (as in ``f_and_jac``)."""
        omega = OMEGA_FLOOR if OMEGA_FLOOR > x0 else x0
        v = V_FLOOR if V_FLOOR > x1 else x1
        return cp_at.evaluate_offsets(omega * self._constants[0] / v, offsets)

    def h(self, x: np.ndarray, u: ControlInput) -> np.ndarray:
        return np.array([float(x[0])])

    def jac_h(self, x: np.ndarray, u: ControlInput) -> np.ndarray:
        return MEASUREMENT_JACOBIAN
