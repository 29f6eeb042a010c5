"""Records that hold arrays compare and hash by identity.

A generated ``__eq__`` would compare ndarray fields as tuples, which
raises instead of answering; these types declare ``eq=False``.
"""

import copy

import numpy as np
import pytest

from immwind import (
    ControlInput,
    EstimatorState,
    GridCpSurface,
    NoiseModel,
    ScenarioPreset,
    TurbineModel,
    TurbineParameters,
    UpdateReport,
    build_cp_mode_bank,
    generate_wind,
    imm_step,
    run_experiment,
    symmetric_transition,
)
from immwind.config import ExperimentConfig


@pytest.fixture(scope="module")
def records():
    result = run_experiment(ExperimentConfig(duration_s=20.0, seeds=(1,), settle_s=5.0))
    run = result.runs[0]
    params = TurbineParameters()
    surface = GridCpSurface.constant(0.45)
    noise = NoiseModel(Q=np.diag([1e-8, 1e-2]), R=np.array([[1e-10]]))
    bank = build_cp_mode_bank(
        params, surface, 0.04, noise, np.array([0.9, 8.0]), np.eye(2) * 0.01,
        symmetric_transition(3, 0.99), np.full(3, 1.0 / 3.0),
    )
    _, out = imm_step(bank, 0.9, ControlInput(0.0, 1e6))
    return {
        "EstimatorState": EstimatorState(np.array([1.0, 2.0]), np.eye(2)),
        "NoiseModel": noise,
        "UpdateReport": UpdateReport(np.zeros(1), np.eye(1)),
        "ModeBank": bank,
        "ImmOutput": out,
        "GridCpSurface": surface,
        "WindField": generate_wind(ScenarioPreset(8.0, 0.1, 5.0, 1)),
        "TrueCpSchedule": run.schedule,
        "PlantTrajectory": run.trajectory,
        "EstimatorMetrics": run.metrics.imm,
        "SeedRun": run,
        "ExperimentResult": result,
    }


@pytest.mark.parametrize(
    "name",
    [
        "EstimatorState", "NoiseModel", "UpdateReport", "ModeBank", "ImmOutput",
        "GridCpSurface", "WindField", "TrueCpSchedule", "PlantTrajectory",
        "EstimatorMetrics", "SeedRun", "ExperimentResult",
    ],
)
def test_equality_and_hash_answer(records, name):
    a = records[name]
    assert type(a).__name__ == name
    b = copy.copy(a)
    assert a == a
    assert a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


def test_turbine_models_compare_through_their_surface():
    params = TurbineParameters()
    surface = GridCpSurface.constant(0.45)
    a = TurbineModel(params, surface)
    assert a == TurbineModel(params, surface)
    assert hash(a) == hash(TurbineModel(params, surface))
    assert a != TurbineModel(params, GridCpSurface.constant(0.45))
