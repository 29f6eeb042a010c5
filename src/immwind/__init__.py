"""Multiple-model Kalman estimation of rotor-effective wind speed.

A bank of extended Kalman filters over power-coefficient offset models,
combined and mixed through a Markov mode chain, benchmarked against a
single nominal-model EKF on a synthetic closed-loop turbine plant.
"""

from .config import ExperimentConfig, format_config, load_config, parse_config
from .cp import AnalyticCpSurface, CpSurface, GridCpSurface, default_grid_surface
from .ekf import EstimatorState, NoiseModel, UpdateReport, predict, update
from .errors import ConfigError, DomainError, NumericalError
from .harness import (
    ExperimentResult,
    RunMetrics,
    low_pass,
    run_experiment,
    wind_error_series,
    write_outputs,
)
from .imm import (
    ImmOutput,
    ModeBank,
    build_cp_mode_bank,
    combine,
    estimate_cp,
    imm_step,
    likelihood,
    mix,
    mixing_weights,
    predict_mode_probs,
    symmetric_transition,
    update_mode_probs,
)
from .plant import (
    BaselineController,
    PlantTrajectory,
    ScenarioPreset,
    TrueCpSchedule,
    WindField,
    generate_cp_schedule,
    generate_wind,
    simulate_plant,
)
from .turbine import (
    ControlInput,
    StateVector,
    TurbineModel,
    TurbineParameters,
    aero_torque,
    jacobian_f,
    step_dynamics,
)

__version__ = "0.1.0"
