"""Experiment orchestration: run both estimators, score them, write CSVs.

For every seed the harness simulates the plant once, feeds the same
measurement/input stream to the 3-mode bank and to a single EKF on the
nominal surface, and scores both against the rotor-effective wind speed
and the 0.1 Hz low-passed true power coefficient.  Errors are relative
percentages of the true value; the first ``settle_s`` seconds are
discarded from the statistics.
"""

from __future__ import annotations

import csv
import math
import re
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ekf, imm
from .config import ExperimentConfig, format_config
from .errors import NumericalError
from .plant import (
    PlantTrajectory,
    TrueCpSchedule,
    first_order_filter,
    generate_cp_schedule,
    simulate_plant,
)
from .turbine import V_FLOOR, ControlInput, TurbineModel

CP_REFERENCE_CUTOFF_HZ = 0.1
CP_REFERENCE_FLOOR = 1e-3


def low_pass(series: np.ndarray, cutoff_hz: float, dt: float) -> np.ndarray:
    """Single-pole low-pass y_k = a y_{k-1} + (1-a) x_k, y_0 = x_0."""
    if not cutoff_hz * dt < 0.5:
        raise ValueError(f"cutoff*dt must be < 0.5, got {cutoff_hz * dt}")
    x = np.asarray(series, dtype=float)
    return first_order_filter(x, math.exp(-2.0 * math.pi * cutoff_hz * dt), x[0])


def _percent_error(est: np.ndarray, truth: np.ndarray, floor: float) -> np.ndarray:
    """100 (est - truth) / truth where truth >= floor; NaN marks excluded samples."""
    est = np.asarray(est, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if est.shape != truth.shape:
        raise ValueError("estimate and truth series must have equal length")
    err = np.full(truth.shape, np.nan)
    ok = truth >= floor
    err[ok] = 100.0 * (est[ok] - truth[ok]) / truth[ok]
    return err


def wind_error_series(v_hat: np.ndarray, v_true: np.ndarray) -> np.ndarray:
    """Relative wind error in percent; NaN marks excluded samples."""
    return _percent_error(v_hat, v_true, V_FLOOR)


@dataclass(frozen=True)
class ErrorStats:
    """Mean/std of a scored percent-error series plus bookkeeping counts."""

    mean_pct: float
    std_pct: float
    n_scored: int
    n_excluded: int


def _scored(err: np.ndarray, settle_idx: int) -> np.ndarray:
    """The scored samples of an error series: after settling, NaNs dropped."""
    tail = err[settle_idx:]
    return tail[~np.isnan(tail)]


def _score(err: np.ndarray, settle_idx: int) -> ErrorStats:
    scored = _scored(err, settle_idx)
    n_excluded = err[settle_idx:].size - scored.size
    if scored.size == 0:
        return ErrorStats(math.nan, math.nan, 0, n_excluded)
    return ErrorStats(
        float(scored.mean()), float(scored.std()), int(scored.size), n_excluded
    )


@dataclass(frozen=True, eq=False)
class EstimatorMetrics:
    wind: ErrorStats
    cp: ErrorStats
    wind_hist: np.ndarray  # counts over the shared scenario bin edges


@dataclass(frozen=True)
class RunMetrics:
    imm: EstimatorMetrics
    kf: EstimatorMetrics


@dataclass(frozen=True, eq=False)
class SeedRun:
    """Everything recorded for one seed: truth, estimates and scores."""

    seed: int
    trajectory: PlantTrajectory
    schedule: TrueCpSchedule
    v_imm: np.ndarray
    cp_imm: np.ndarray
    mu: np.ndarray  # (n, 3) posterior mode probabilities
    v_kf: np.ndarray
    cp_kf: np.ndarray
    settle_idx: int
    metrics: RunMetrics


@dataclass(frozen=True)
class AggregateMetrics:
    """Seed-averaged statistics (aggregation order is seed-sorted)."""

    imm_wind: ErrorStats
    kf_wind: ErrorStats
    imm_cp: ErrorStats
    kf_cp: ErrorStats
    n_seeds: int
    n_failed: int


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    config: ExperimentConfig
    runs: tuple[SeedRun, ...]
    failed: tuple[tuple[int, str], ...]
    hist_edges: np.ndarray
    aggregate: AggregateMetrics


def _aggregate_stats(per_seed: list[ErrorStats]) -> ErrorStats:
    return ErrorStats(
        mean_pct=float(np.mean([s.mean_pct for s in per_seed])),
        std_pct=float(np.mean([s.std_pct for s in per_seed])),
        n_scored=int(sum(s.n_scored for s in per_seed)),
        n_excluded=int(sum(s.n_excluded for s in per_seed)),
    )


def _hist_edges(pooled: np.ndarray, bins: int) -> np.ndarray:
    center = float(pooled.mean()) if pooled.size else 0.0
    half = 5.0 * float(pooled.std()) if pooled.size else 1.0
    half = max(half, 1e-9)
    return np.linspace(center - half, center + half, bins + 1)


def _hist_counts(err: np.ndarray, settle_idx: int, edges: np.ndarray) -> np.ndarray:
    # clip outliers into the edge bins so counts always sum to n_scored
    clipped = np.clip(_scored(err, settle_idx), edges[0], edges[-1])
    counts, _ = np.histogram(clipped, bins=edges)
    return counts


def _estimator_metrics(
    wind_err: np.ndarray, cp_err: np.ndarray, settle_idx: int, edges: np.ndarray
) -> EstimatorMetrics:
    return EstimatorMetrics(
        wind=_score(wind_err, settle_idx),
        cp=_score(cp_err, settle_idx),
        wind_hist=_hist_counts(wind_err, settle_idx, edges),
    )


def _run_estimators(config: ExperimentConfig, seed: int) -> dict:
    """One seed's plant run and estimates, keyed by their ``SeedRun`` fields."""
    params = config.turbine_params()
    cp0 = config.surface()
    preset = config.preset(seed)
    schedule = generate_cp_schedule(
        config.schedule, config.schedule_delta_max, preset.n_steps, config.dt, seed
    )
    traj = simulate_plant(preset, schedule, params, cp0, config.meas_noise_std)
    n = traj.t.size

    noise = ekf.NoiseModel(
        Q=np.diag([config.q_omega_std**2, params.sigma_n**2]),
        R=np.array([[config.r_std**2]]),
    )
    x0 = np.array([traj.y_meas[0], preset.mean_wind])
    P0 = np.diag([config.p0_omega_std**2, config.p0_wind_std**2])
    bank = imm.build_cp_mode_bank(
        params, cp0, config.delta_cp, noise, x0, P0,
        config.transition(), np.asarray(config.mu0),
    )
    nominal = TurbineModel(params, cp0)
    # the nominal KF runs on the float steps that ekf.predict and ekf.update take
    # for a turbine model, its state held as (x0, x1, P) floats across the loop
    kf_x0, kf_x1 = x0.tolist()
    kf_P = P0.ravel().tolist()
    q, r = noise.q_entries, noise.R.item()
    kf_offset = (nominal.offset,)

    # the loop reads the input series as floats through memoryviews and appends
    # the estimates to float arrays: either holds 8 bytes a value, as an
    # ndarray does, where a list holds a float object of 32 bytes
    pitch, torque, y_meas = memoryview(traj.pitch), memoryview(traj.tau_g), memoryview(traj.y_meas)
    v_imm = array("d", [x0[1]])
    cp_imm = array("d", [imm.estimate_cp(bank, x0, pitch[0])])
    mu = array("d", bank.mu.tolist())  # row-major (n, modes)
    v_kf = array("d", [kf_x1])
    cp_kf = array("d", [nominal.cp_at(x0, pitch[0])])

    try:
        for k in range(1, n):
            pitch_prev, torque_prev = pitch[k - 1], torque[k - 1]
            y_k = y_meas[k]
            estimator = "imm"
            bank, out = imm.imm_step(bank, y_k, ControlInput(pitch_prev, torque_prev))
            estimator = "kf"
            # one lookup at the step's pitch, for the KF's step and its Cp estimate
            cp_at = cp0.at_pitch(pitch_prev)
            f0, f1, f00, f01 = nominal.f_and_jac(kf_x0, kf_x1, torque_prev, cp_at)
            kf_P = ekf.propagate_walk(kf_P, f00, f01, q)
            kf_x0, kf_x1, kf_P, _ = ekf.correct_first(f0, f1, kf_P, y_k - f0, r)
            # the paper's filter shape runs on the float kernel: read its floats
            _, v, _, post = out._floats
            v_imm.append(v)
            mu.extend(post)
            cp_imm.append(out.cp_estimate)
            v_kf.append(kf_x1)
            cp_kf.append(nominal.cp_at_offsets(kf_x0, kf_x1, cp_at, kf_offset)[0])
    except NumericalError as exc:
        raise NumericalError(f"{estimator} step {k}, t={k * config.dt:.2f} s: {exc}") from exc
    # the ndarrays share the float arrays' buffers, with no copy
    v_imm, cp_imm, mu, v_kf, cp_kf = map(np.frombuffer, (v_imm, cp_imm, mu, v_kf, cp_kf))
    return dict(
        seed=seed, trajectory=traj, schedule=schedule,
        v_imm=v_imm, cp_imm=cp_imm, mu=mu.reshape(n, -1), v_kf=v_kf, cp_kf=cp_kf,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every seed, score both estimators, aggregate over seeds.

    A seed whose estimators fail numerically is recorded under
    ``failed`` and skipped by the aggregation; remaining seeds proceed.
    """
    settle_idx = int(round(config.settle_s / config.dt))
    raws: list[dict] = []
    failed: list[tuple[int, str]] = []
    for seed in sorted(config.seeds):
        try:
            raws.append(_run_estimators(config, seed))
        except NumericalError as exc:
            failed.append((seed, str(exc)))
    if not raws and failed:
        raise NumericalError(
            "every seed failed: " + "; ".join(f"{s}: {m}" for s, m in failed)
        )

    # per seed: estimator name -> (wind error series, Cp error series)
    errors: list[dict[str, tuple[np.ndarray, np.ndarray]]] = []
    for raw in raws:
        traj = raw["trajectory"]
        cp_ref = low_pass(traj.cp_true, CP_REFERENCE_CUTOFF_HZ, config.dt)
        errors.append({
            name: (
                wind_error_series(raw[f"v_{name}"], traj.v_rews),
                _percent_error(raw[f"cp_{name}"], cp_ref, CP_REFERENCE_FLOOR),
            )
            for name in ("imm", "kf")
        })
    pooled = [
        _scored(wind_err, settle_idx)
        for seed_errors in errors
        for wind_err, _ in seed_errors.values()
    ]
    edges = _hist_edges(np.concatenate(pooled), config.hist_bins)

    runs: list[SeedRun] = []
    for raw, seed_errors in zip(raws, errors):
        metrics = RunMetrics(**{
            name: _estimator_metrics(wind_err, cp_err, settle_idx, edges)
            for name, (wind_err, cp_err) in seed_errors.items()
        })
        runs.append(SeedRun(**raw, settle_idx=settle_idx, metrics=metrics))

    aggregate = AggregateMetrics(
        imm_wind=_aggregate_stats([r.metrics.imm.wind for r in runs]),
        kf_wind=_aggregate_stats([r.metrics.kf.wind for r in runs]),
        imm_cp=_aggregate_stats([r.metrics.imm.cp for r in runs]),
        kf_cp=_aggregate_stats([r.metrics.kf.cp for r in runs]),
        n_seeds=len(runs),
        n_failed=len(failed),
    )
    return ExperimentResult(
        config=config,
        runs=tuple(runs),
        failed=tuple(failed),
        hist_edges=edges,
        aggregate=aggregate,
    )


# -- output files -------------------------------------------------------

# names of the files ``write_outputs`` writes that depend on the result
_RESULT_FILE = re.compile(r"(timeseries|hist)_-?\d+\.csv|failed\.csv")


def _write_table(path: Path, header: list[str], rows) -> Path:
    """Write one CSV table; ``csv`` writes a float as ``str``, which is its ``repr``."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_outputs(result: ExperimentResult, out_dir: str | Path) -> list[Path]:
    """Write summary, per-seed time series and histograms, config echo.

    Identical results produce byte-identical files.  Per-seed and
    failure files that an earlier result left in ``out_dir`` and that
    this result does not write are deleted; other files are left alone.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc

    agg = result.aggregate
    written = [_write_table(
        out / "summary.csv",
        ["scenario", "estimator", "wind_mean_pct", "wind_std_pct", "cp_mean_pct",
         "cp_std_pct", "n_scored_wind", "n_excluded_wind", "n_scored_cp",
         "n_excluded_cp", "n_seeds", "n_failed"],
        [
            [result.config.scenario, name, wind.mean_pct, wind.std_pct, cp.mean_pct,
             cp.std_pct, wind.n_scored, wind.n_excluded, cp.n_scored, cp.n_excluded,
             agg.n_seeds, agg.n_failed]
            for name, wind, cp in (
                ("imm", agg.imm_wind, agg.imm_cp),
                ("kf", agg.kf_wind, agg.kf_cp),
            )
        ],
    )]

    edges = result.hist_edges.tolist()
    for run in result.runs:
        traj = run.trajectory
        table = np.column_stack((
            traj.t, traj.v_rews, run.v_imm, run.v_kf,
            traj.cp_true, run.cp_imm, run.cp_kf, run.mu,
        ))
        written.append(_write_table(
            out / f"timeseries_{run.seed}.csv",
            ["t", "v_rews", "v_imm", "v_kf", "cp_true", "cp_imm", "cp_kf",
             "mu1", "mu2", "mu3"],
            # row by row: a whole-table tolist() holds every cell as a float object
            (row.tolist() for row in table),
        ))
        written.append(_write_table(
            out / f"hist_{run.seed}.csv",
            ["bin_left", "bin_right", "count_imm", "count_kf"],
            zip(edges[:-1], edges[1:], run.metrics.imm.wind_hist.tolist(),
                run.metrics.kf.wind_hist.tolist()),
        ))

    if result.failed:
        written.append(_write_table(out / "failed.csv", ["seed", "error"], result.failed))

    echo = out / "config_echo.txt"
    echo.write_text(format_config(result.config), encoding="utf-8")
    written.append(echo)

    names = {path.name for path in written}
    for path in out.iterdir():
        if _RESULT_FILE.fullmatch(path.name) and path.name not in names:
            path.unlink()
    return written
