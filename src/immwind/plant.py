"""Synthetic closed-loop turbine plant and ground-truth generators.

The plant stands in for an aeroelastic simulation at desk scale: a
9-point turbulent wind field whose arithmetic mean defines the
rotor-effective wind speed (REWS), a true power-coefficient offset
schedule that deviates from the nominal surface, a baseline
torque/pitch controller, and explicit-Euler integration of the
drivetrain driven by the REWS.  Everything is deterministic for fixed
seeds.
"""

from __future__ import annotations

import csv
import math
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cp import CpSurface
from .errors import NumericalError
from .turbine import (
    OMEGA_FLOOR,
    V_FLOOR,
    ControlInput,
    TurbineParameters,
    aero_torque,
    drivetrain_step,
)

SHARED_CORNER_HZ = 0.05  # large-scale component seen by the whole rotor
POINT_CORNER_HZ = 0.5  # small-scale per-point component
SHARED_VARIANCE_FRACTION = 0.9


@dataclass(frozen=True)
class ScenarioPreset:
    """Mean wind, turbulence intensity, duration and seed of one run."""

    mean_wind: float  # m/s
    turbulence_intensity: float  # std / mean
    duration: float  # s
    seed: int
    dt: float = TurbineParameters.dt

    def __post_init__(self) -> None:
        if self.mean_wind <= 0.0:
            raise ValueError("mean wind must be positive")
        if not 0.0 <= self.turbulence_intensity <= 0.5:
            raise ValueError("turbulence intensity must be within [0, 0.5]")
        if self.duration <= 0.0 or self.dt <= 0.0:
            raise ValueError("duration and dt must be positive")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt)) + 1


@dataclass(frozen=True, eq=False)
class WindField:
    """9 point series on a 3x3 rotor grid plus their mean, the REWS."""

    points: np.ndarray  # (n, 9)
    rews: np.ndarray  # (n,)


@dataclass(frozen=True, eq=False)
class TrueCpSchedule:
    """Time series of the plant's true Cp offset, bounded by delta_max."""

    offsets: np.ndarray


def rews_step_std(mean_wind: float, turbulence_intensity: float, dt: float) -> float:
    """Per-step increment std of the generated REWS series.

    Follows from the AR(1) structure of the shaped components: each
    contributes 2 (1 - a) of its variance to the one-step increment.
    Estimator wind-process noise is matched to this scale by default.
    """
    sigma2 = (turbulence_intensity * mean_wind) ** 2
    a_shared = math.exp(-2.0 * math.pi * SHARED_CORNER_HZ * dt)
    a_point = math.exp(-2.0 * math.pi * POINT_CORNER_HZ * dt)
    var = (
        SHARED_VARIANCE_FRACTION * sigma2 * 2.0 * (1.0 - a_shared)
        + (1.0 - SHARED_VARIANCE_FRACTION) * sigma2 / 9.0 * 2.0 * (1.0 - a_point)
    )
    return math.sqrt(var)


def first_order_filter(x: np.ndarray, a: float, y0: float) -> np.ndarray:
    """Single-pole recursion y_0 = y0, y_k = a y_{k-1} + (1-a) x_k for k >= 1."""
    b = 1.0 - a
    out = [float(y0)]
    for xk in np.asarray(x, dtype=float)[1:].tolist():
        out.append(a * out[-1] + b * xk)
    return np.array(out)


def _shaped_noise(rng: np.random.Generator, n: int, corner_hz: float, dt: float) -> np.ndarray:
    """Unit-variance stationary first-order low-passed white noise."""
    a = math.exp(-2.0 * math.pi * corner_hz * dt)
    gain = math.sqrt((1.0 - a) / (1.0 + a))  # stationary std of the recursion
    z = rng.standard_normal(n)
    return first_order_filter(z, a, gain * z[0]) / gain


def generate_wind(preset: ScenarioPreset) -> WindField:
    """Seeded 9-point wind field with shared slow and independent fast parts.

    Each point carries the same slow rotor-wide component (0.05 Hz
    corner, 90% of the variance) plus its own fast component (0.5 Hz
    corner), scaled so the per-point standard deviation is TI * mean.
    The REWS therefore keeps the slow energy while the fast parts
    average down across the rotor.
    """
    n = preset.n_steps
    rng = np.random.default_rng(np.random.SeedSequence([preset.seed, 0]))
    sigma = preset.turbulence_intensity * preset.mean_wind
    shared = _shaped_noise(rng, n, SHARED_CORNER_HZ, preset.dt)
    points = np.empty((n, 9))
    s_shared = math.sqrt(SHARED_VARIANCE_FRACTION) * sigma
    s_own = math.sqrt(1.0 - SHARED_VARIANCE_FRACTION) * sigma
    for i in range(9):
        own = _shaped_noise(rng, n, POINT_CORNER_HZ, preset.dt)
        points[:, i] = preset.mean_wind + s_shared * shared + s_own * own
    np.maximum(points, V_FLOOR, out=points)
    rews = points.mean(axis=1)
    return WindField(points=points, rews=rews)


# regime dwell in seconds; the -delta level dwells longer so the true
# deviation is predominantly one-sided, as a static nominal map would
# mispredict in practice
_REGIME_DWELL = {+1: 100.0, 0: 100.0, -1: 180.0}
_DWELL_JITTER = 20.0


def generate_cp_schedule(
    kind: str, delta_max: float, n_steps: int, dt: float, seed: int
) -> TrueCpSchedule:
    """Offset schedule: bounded random walk or piecewise-constant regimes.

    Regime mode starts with a seeded permutation of the three levels
    (0, +delta_max, -delta_max), so any run of three dwells is
    guaranteed to contain a sustained window of each level, then keeps
    drawing levels that differ from the previous one.
    """
    if delta_max < 0.0:
        raise ValueError("delta_max must be nonnegative")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    if kind == "walk":
        steps = rng.normal(0.0, delta_max / 200.0, size=n_steps)
        offsets = np.empty(n_steps)
        delta = 0.0
        for k in range(n_steps):
            delta = min(max(delta + steps[k], -delta_max), delta_max)
            offsets[k] = delta
    elif kind == "regime":
        pending = [int(s) for s in rng.permutation([0, 1, -1])]
        offsets = np.empty(n_steps)
        prev = None
        k = 0
        while k < n_steps:
            if pending:
                sign = pending.pop(0)
            elif prev != -1:
                sign = -1  # revisit the dominant level between excursions
            else:
                sign = int(rng.choice([0, 1]))
            prev = sign
            dwell_s = _REGIME_DWELL[sign] + rng.uniform(0.0, _DWELL_JITTER)
            n_dwell = max(int(round(dwell_s / dt)), 1)
            offsets[k : k + n_dwell] = sign * delta_max
            k += n_dwell
    else:
        raise ValueError(f"unknown schedule kind {kind!r} (expected 'walk' or 'regime')")
    return TrueCpSchedule(offsets=offsets)


# each surface's (Cp_max, lambda*) at fine pitch, scanned once; an entry goes with its surface
_OPTIMA: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class BaselineController:
    """Quadratic torque law below rated, gain-scheduled PI pitch above.

    Below rated the generator torque tracks the optimal-lambda curve
    K_opt * omega^2 with K_opt derived from the nominal surface's
    (Cp_max, lambda_star); the pitch PI regulates rotor speed to rated
    and saturates at fine pitch below rated (conditional anti-windup).
    """

    fine_pitch = 0.0  # rad
    max_pitch = math.radians(30.0)
    kp = 3.2
    ki = 0.65
    gain_schedule_pitch = math.radians(10.0)  # the gain halves at this pitch

    def __init__(self, params: TurbineParameters, cp: CpSurface) -> None:
        self.params = params
        self.cp = cp
        optimum = _OPTIMA.get(cp)
        if optimum is None:
            optimum = _OPTIMA[cp] = self._surface_optimum(cp, self.fine_pitch)
        self.cp_max, self.lam_star = optimum
        self.k_opt = (
            0.5
            * params.air_density
            * math.pi
            * params.radius**5
            * self.cp_max
            / self.lam_star**3
        )
        self.reset()

    @staticmethod
    def _surface_optimum(cp: CpSurface, pitch: float) -> tuple[float, float]:
        lam_lo, lam_hi = cp.lam_bounds
        lams = np.linspace(max(lam_lo, 2.0), min(lam_hi, 14.0), 2401)
        vals = [cp.evaluate(float(l), pitch) for l in lams]
        best = int(np.argmax(vals))
        return float(vals[best]), float(lams[best])

    def reset(self, pitch: float | None = None) -> None:
        self._pitch = self.fine_pitch if pitch is None else pitch
        self._pitch_int = self._pitch

    def step(self, omega: float) -> ControlInput:
        """Control for the coming interval, from the measured rotor speed."""
        p = self.params
        torque = min(self.k_opt * max(omega, 0.0) ** 2, p.tau_rated)
        err = omega - p.omega_rated
        sched = 1.0 / (1.0 + self._pitch / self.gain_schedule_pitch)
        unsat = self._pitch_int + self.kp * sched * err
        pitch = min(max(unsat, self.fine_pitch), self.max_pitch)
        saturated_out = (unsat > self.max_pitch and err > 0.0) or (
            unsat < self.fine_pitch and err < 0.0
        )
        if not saturated_out:
            self._pitch_int += self.ki * sched * err * p.dt
            self._pitch_int = min(max(self._pitch_int, self.fine_pitch), self.max_pitch)
        self._pitch = pitch
        return ControlInput(pitch=pitch, torque=torque)

    def equilibrium_pitch(self, omega: float, v: float) -> float:
        """Pitch that balances aerodynamic and rated torque, by bisection."""
        lo, hi = self.fine_pitch, self.max_pitch
        f_lo = aero_torque(omega, v, lo, self.params, self.cp) - self.params.tau_rated
        if f_lo <= 0.0:
            return lo
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if aero_torque(omega, v, mid, self.params, self.cp) > self.params.tau_rated:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


@dataclass(frozen=True, eq=False)
class PlantTrajectory:
    """Per-step closed-loop records shared by every estimator run."""

    t: np.ndarray
    omega: np.ndarray
    v_rews: np.ndarray
    pitch: np.ndarray
    tau_g: np.ndarray
    cp_true: np.ndarray
    y_meas: np.ndarray

    def write_csv(self, path: str | Path) -> None:
        columns = (self.t, self.omega, self.v_rews, self.pitch, self.tau_g,
                   self.cp_true, self.y_meas)
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "omega", "v_rews", "pitch", "tau_g", "cp_true", "y_meas"])
            writer.writerows(row.tolist() for row in np.column_stack(columns))


def simulate_plant(
    preset: ScenarioPreset,
    schedule: TrueCpSchedule,
    params: TurbineParameters,
    cp_nominal: CpSurface,
    meas_noise_std: float,
) -> PlantTrajectory:
    """Closed-loop run of the drivetrain against the offset Cp truth.

    The rotor is driven by the REWS; the measurement is the rotor speed
    plus seeded Gaussian noise; the controller acts on the measurement.
    Aborts with a NumericalError naming the time if the state falls below
    the floors or the rotor speed escapes [0, 1.5 * omega_rated].
    """
    wind = generate_wind(preset)
    n = wind.rews.size
    if schedule.offsets.size < n:
        raise ValueError(
            f"schedule length {schedule.offsets.size} shorter than run length {n}"
        )
    controller = BaselineController(params, cp_nominal)
    meas_rng = np.random.default_rng(np.random.SeedSequence([preset.seed, 1]))
    noise = meas_rng.normal(0.0, meas_noise_std, size=n)

    omega, pitch, tau_g, cp_true, y_meas = (np.empty(n) for _ in range(5))

    # start at the region-appropriate equilibrium for the mean wind
    omega0 = controller.lam_star * preset.mean_wind / params.radius
    if omega0 >= params.omega_rated:
        omega0 = params.omega_rated
        pitch0 = controller.equilibrium_pitch(omega0, preset.mean_wind)
    else:
        pitch0 = controller.fine_pitch
    controller.reset(pitch0)

    omega_k = omega0
    omega_cap = 1.5 * params.omega_rated
    # the loop reads its inputs and writes its five series through memoryviews: float
    # arithmetic, not numpy scalar arithmetic, at 8 bytes a value where a list holds 32
    noise, rews = memoryview(noise), memoryview(wind.rews)
    deltas = memoryview(np.ascontiguousarray(schedule.offsets, dtype=float))
    omega_w, pitch_w, tau_g_w, cp_w, y_w = map(memoryview, (omega, pitch, tau_g, cp_true, y_meas))
    for k in range(n):
        y_k = omega_k + noise[k]
        u = controller.step(y_k)
        omega_w[k] = omega_k
        pitch_w[k] = u.pitch
        tau_g_w[k] = u.torque
        y_w[k] = y_k
        v_k = rews[k]
        if omega_k < OMEGA_FLOOR or v_k < V_FLOOR:
            raise NumericalError(
                f"state (rotor speed {omega_k:.4g} rad/s, wind speed {v_k:.4g} m/s) is below the "
                f"floors ({OMEGA_FLOOR}, {V_FLOOR}) at t={k * preset.dt:.2f} s; check the mean wind"
            )
        omega_k, cp_w[k], _, _, _ = drivetrain_step(
            params, omega_k, v_k, u.torque, cp_nominal.at_pitch(u.pitch), deltas[k]
        )
        if not 0.0 <= omega_k <= omega_cap:
            raise NumericalError(
                f"rotor speed {omega_k:.3f} rad/s left [0, {omega_cap:.3f}] at "
                f"t={k * preset.dt:.2f} s; check controller and parameters"
            )
    t = np.arange(n) * preset.dt
    return PlantTrajectory(
        t=t,
        omega=omega,
        v_rews=wind.rews,
        pitch=pitch,
        tau_g=tau_g,
        cp_true=cp_true,
        y_meas=y_meas,
    )
