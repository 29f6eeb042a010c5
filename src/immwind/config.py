"""Flat key-value experiment configuration.

The on-disk format is one ``key = value`` per line, ``#`` comments and
blank lines allowed.  Unknown and duplicate keys are errors, and text
values hold no ``#``, line break or edge whitespace, so a written
config echo always round-trips to the identical experiment.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .cp import AnalyticCpSurface, CpSurface, GridCpSurface, default_grid_surface
from .errors import ConfigError
from .imm import symmetric_transition
from .plant import ScenarioPreset, rews_step_std
from .turbine import TurbineParameters

SCENARIO_MEAN_WIND = {"below": 8.0, "above": 15.0}

# auto q_wind_std = this factor times the REWS per-step increment std;
# sits at the empirical crossover where neither offset mode is
# structurally favoured by the likelihoods
WIND_NOISE_MATCH_FACTOR = 0.7

# ``None`` (auto) passes the positive rule; each value must be finite
_POSITIVE_KEYS = (
    "v_op", "duration_s", "q_wind_std", "r_std", "p0_omega_std", "p0_wind_std",
    "inertia", "radius", "air_density", "omega_rated", "tau_rated",
)
_NONNEGATIVE_KEYS = ("schedule_delta_max", "delta_cp", "q_omega_std", "meas_noise_std")
# written verbatim into the echo, so they must read back unchanged
_TEXT_KEYS = ("out_dir", "cp_table")


@dataclass(frozen=True)
class ExperimentConfig:
    """Every effective parameter of one experiment, flat and writable.

    Construction (``dataclasses.replace`` too) runs ``validate``, so an
    instance always holds a valid experiment.
    """

    scenario: str = "below"
    v_op: float | None = None  # None = use the scenario default
    turbulence_intensity: float = 0.10
    duration_s: float = 600.0
    dt: float = TurbineParameters.dt
    seeds: tuple[int, ...] = (1,)
    schedule: str = "regime"
    schedule_delta_max: float = 0.04
    delta_cp: float = 0.04
    pi_stay: float = 0.999
    mu0: tuple[float, float, float] = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    q_omega_std: float = 1e-4
    q_wind_std: float | None = None  # None = match the wind generator's step std
    r_std: float = 1e-5
    meas_noise_std: float = 1e-5
    p0_omega_std: float = 0.1
    p0_wind_std: float = 0.5
    settle_s: float = 30.0
    hist_bins: int = 41
    out_dir: str = "out"
    cp_table: str = "builtin-grid"
    inertia: float = TurbineParameters.inertia
    radius: float = TurbineParameters.radius
    air_density: float = TurbineParameters.air_density
    omega_rated: float = TurbineParameters.omega_rated
    tau_rated: float = TurbineParameters.tau_rated

    def __post_init__(self) -> None:
        self.validate()
        # a repeated seed runs once: keep each seed's first occurrence
        object.__setattr__(self, "seeds", tuple(dict.fromkeys(self.seeds)))
        object.__setattr__(self, "mu0", tuple(self.mu0))

    # -- derived objects ------------------------------------------------

    def effective_v_op(self) -> float:
        if self.v_op is not None:
            return self.v_op
        return SCENARIO_MEAN_WIND[self.scenario]

    def effective_q_wind_std(self) -> float:
        if self.q_wind_std is not None:
            return self.q_wind_std
        matched = WIND_NOISE_MATCH_FACTOR * rews_step_std(
            self.effective_v_op(), self.turbulence_intensity, self.dt
        )
        return max(matched, 1e-6)  # keep the random-walk model alive at TI = 0

    def turbine_params(self) -> TurbineParameters:
        return TurbineParameters(
            inertia=self.inertia,
            radius=self.radius,
            air_density=self.air_density,
            omega_rated=self.omega_rated,
            tau_rated=self.tau_rated,
            dt=self.dt,
            sigma_n=self.effective_q_wind_std(),
        )

    def preset(self, seed: int) -> ScenarioPreset:
        return ScenarioPreset(
            mean_wind=self.effective_v_op(),
            turbulence_intensity=self.turbulence_intensity,
            duration=self.duration_s,
            seed=seed,
            dt=self.dt,
        )

    def surface(self) -> CpSurface:
        """The nominal Cp surface, built on the first call and kept by this
        instance, so the seeds of a run share it (and the optimum that the
        controller scans once per surface)."""
        surface = vars(self).get("_surface")
        if surface is None:
            surface = self._build_surface()
            object.__setattr__(self, "_surface", surface)
        return surface

    def _build_surface(self) -> CpSurface:
        if self.cp_table == "builtin-grid":
            return default_grid_surface()
        if self.cp_table == "builtin-analytic":
            return AnalyticCpSurface()
        path = Path(self.cp_table)
        if not path.exists():
            raise ConfigError(f"cp_table file not found: {path}")
        try:
            return GridCpSurface.from_csv(path)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def transition(self) -> np.ndarray:
        return symmetric_transition(3, self.pi_stay)

    def validate(self) -> None:
        """Raise ConfigError listing every violated invariant."""
        problems = [
            f"{f.name} must be {_TYPE_RULES[f.type][1]}, got {getattr(self, f.name)!r}"
            for f in fields(self)
            if not _TYPE_RULES[f.type][0](getattr(self, f.name))
        ]
        if problems:  # the value checks below assume the types
            raise ConfigError("; ".join(problems))
        for name in _POSITIVE_KEYS:
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                problems.append(f"{name} must be positive and finite")
        for name in _NONNEGATIVE_KEYS:
            if not 0.0 <= getattr(self, name) < math.inf:
                problems.append(f"{name} must be nonnegative and finite")
        for name in _TEXT_KEYS:
            value = getattr(self, name)
            if value != value.strip() or "#" in value or len(value.splitlines()) > 1:
                problems.append(
                    f"{name} must hold no '#' or line break and no leading or trailing whitespace"
                )
        if self.scenario not in SCENARIO_MEAN_WIND:
            problems.append(f"scenario must be 'below' or 'above', got {self.scenario!r}")
        if not 0.0 <= self.turbulence_intensity <= 0.5:
            problems.append("turbulence_intensity must be within [0, 0.5]")
        if not 0.0 < self.dt <= 0.1:
            problems.append("dt must be in (0, 0.1] s")
        if len(self.seeds) < 1:
            problems.append("at least one seed is required")
        if self.schedule not in ("regime", "walk"):
            problems.append(f"schedule must be 'regime' or 'walk', got {self.schedule!r}")
        if not 0.0 < self.pi_stay <= 1.0:
            problems.append("pi_stay must be in (0, 1]")
        if not all(0.0 <= w < math.inf for w in self.mu0):
            problems.append("mu0 entries must be nonnegative and finite")
        elif abs(sum(self.mu0) - 1.0) > 1e-6:
            problems.append(f"mu0 must sum to 1 (got {sum(self.mu0)!r})")
        if not 0.0 <= self.settle_s < self.duration_s:
            problems.append("settle_s must be within [0, duration_s)")
        if self.hist_bins < 1:
            problems.append("hist_bins must be at least 1")
        if problems:
            raise ConfigError("; ".join(problems))


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# (check, description) of the values each field annotation admits; the
# annotations are strings under ``from __future__ import annotations``
_TYPE_RULES = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a number"),
    "float | None": (lambda v: v is None or _is_number(v), "a number or None"),
    "tuple[int, ...]": (
        lambda v: isinstance(v, (tuple, list)) and all(map(_is_int, v)),
        "a sequence of integers",
    ),
    "tuple[float, float, float]": (
        lambda v: isinstance(v, (tuple, list)) and len(v) == 3 and all(map(_is_number, v)),
        "a sequence of 3 numbers",
    ),
}


def _parse_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}") from None


def _parse_optional_float(raw: str) -> float | None:
    if raw == "auto":
        return None
    return _parse_float(raw)


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}") from None


def _parse_seeds(raw: str) -> tuple[int, ...]:
    return tuple(_parse_int(part.strip()) for part in raw.split(",") if part.strip())


def _parse_mu0(raw: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if len(parts) != 3:
        raise ConfigError(f"mu0 needs exactly 3 comma-separated values, got {raw!r}")
    a, b, c = (_parse_float(p) for p in parts)
    return (a, b, c)


def _fmt_float(value: float) -> str:
    return repr(float(value))


def _fmt_optional_float(value: float | None) -> str:
    return "auto" if value is None else _fmt_float(value)


def _fmt_seeds(value: tuple[int, ...]) -> str:
    return ",".join(str(v) for v in value)


def _fmt_mu0(value: tuple[float, float, float]) -> str:
    return ",".join(_fmt_float(v) for v in value)


# (parser, formatter) per field annotation; the annotations are strings
# under ``from __future__ import annotations``
_TYPE_CODECS = {
    "str": (str, str),
    "int": (_parse_int, str),
    "float": (_parse_float, _fmt_float),
    "float | None": (_parse_optional_float, _fmt_optional_float),
    "tuple[int, ...]": (_parse_seeds, _fmt_seeds),
    "tuple[float, float, float]": (_parse_mu0, _fmt_mu0),
}

_KEY_CODECS = {f.name: _TYPE_CODECS[f.type] for f in fields(ExperimentConfig)}


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text; unknown or repeated keys raise ConfigError."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEY_CODECS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        parser, _ = _KEY_CODECS[key]
        try:
            values[key] = parser(raw)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: key {key!r}: {exc}") from None
    return ExperimentConfig(**values)


def format_config(config: ExperimentConfig) -> str:
    """Render every effective parameter; output parses back identically."""
    lines = []
    for f in fields(ExperimentConfig):
        _, fmt = _KEY_CODECS[f.name]
        lines.append(f"{f.name} = {fmt(getattr(config, f.name))}")
    return "\n".join(lines) + "\n"


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
