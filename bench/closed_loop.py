"""Closed-loop workloads: plant, both estimators, scoring and CSV outputs.

``long-above`` runs long above-rated seeds, one at a time, through
``run_experiment`` and ``write_outputs``; ``seed-sweep`` runs
below-rated seeds, three at a time, through
``immwind.cli.main(["run", ...])``.  After each timed operation the
first REPLAY_STEPS steps of one seed's recorded (y, u) stream are
replayed through ``imm_step`` and the nominal EKF and checked, and
then their calls are timed one by one.  Rounds cycle through the same
seeds, so the accuracy metrics depend on ``--seed`` alone.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import io
import time
from pathlib import Path

import numpy as np

from immwind import cli, ekf, harness, imm, plant, turbine
from immwind import config as config_mod

import checks
import tracing
from common import OUT, SPEED, Outcome, call_latencies, require, rounds

REPLAY_STEPS = 1200  # replayed steps per round: 60 s of the stream
LATENCY_STRIDE = 2  # every second replayed step's calls are timed
ORACLE_STEPS = 100  # leading replayed steps checked against the straight-line cycle
STAGE_STRIDE = 10  # every tenth replayed bank feeds the traced stage calls
LONG_SEEDS = 3  # one 600 s seed per round; the accuracy metrics pool all three
SWEEP_SEEDS = 9  # the paper's claim is checked on the aggregate of all nine
SWEEP_GROUP = 3  # seeds per CLI run; round r runs group r mod 3

LONG_ABOVE_CONFIG = """\
scenario = above
duration_s = 600.0
seeds = {seeds}
out_dir = {out_dir}
"""

SEED_SWEEP_CONFIG = """\
scenario = below
duration_s = 240.0
seeds = {seeds}
out_dir = {out_dir}
"""


def _clear(out_dir: Path) -> None:
    """Remove the last round's files, so every round writes afresh."""
    for path in out_dir.iterdir():
        path.unlink()


def _write_config(name: str, template: str, seeds) -> Path:
    out_dir = OUT / name
    out_dir.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{name}.cfg"
    path.write_text(template.format(seeds=",".join(map(str, seeds)), out_dir=out_dir))
    return path


def _plant_run(config, seed: int) -> plant.PlantTrajectory:
    """The seed's closed-loop plant run, composed as the harness composes it."""
    preset = config.preset(seed)
    schedule = plant.generate_cp_schedule(
        config.schedule, config.schedule_delta_max, preset.n_steps, config.dt, seed
    )
    return plant.simulate_plant(
        preset, schedule, config.turbine_params(), config.surface(), config.meas_noise_std
    )


def _replay(config, traj: plant.PlantTrajectory, seed: int, series: dict, what: str, tracer):
    """Replay the stream through both estimators, then time their calls.

    Checks the IMM's invariants at every replayed step, the first
    ORACLE_STEPS against the straight-line cycle and a textbook EKF, and
    that the replay reproduces the run's series bit for bit.  Returns
    the latencies (s, at the reference speed) of every LATENCY_STRIDE-th
    call of ``imm_step`` and of the EKF.
    """
    params = config.turbine_params()
    cp0 = config.surface()
    noise = ekf.NoiseModel(
        Q=np.diag([config.q_omega_std**2, params.sigma_n**2]),
        R=np.array([[config.r_std**2]]),
    )
    x0 = np.array([traj.y_meas[0], config.preset(seed).mean_wind])
    P0 = np.diag([config.p0_omega_std**2, config.p0_wind_std**2])
    bank0 = imm.build_cp_mode_bank(
        params, cp0, config.delta_cp, noise, x0, P0, config.transition(), np.asarray(config.mu0)
    )
    nominal = turbine.TurbineModel(params, cp0)
    n = min(traj.t.size - 1, REPLAY_STEPS)
    ys = traj.y_meas[: n + 1].tolist()
    us = [turbine.ControlInput(p, t) for p, t in zip(traj.pitch[:n].tolist(), traj.tau_g[:n].tolist())]

    rec = checks.ImmRecord(n, len(bank0.models), x0.size)
    imm_calls, kf_calls = [], []
    kf_x = np.empty((n, x0.size))
    kf_P = np.empty((n, x0.size, x0.size))
    samples = []
    bank = bank0
    state = ekf.EstimatorState(x0, P0)
    # both estimators step in turn, as in the harness's loop
    for k in range(n):
        if k % LATENCY_STRIDE == 0:
            imm_calls.append(functools.partial(imm.imm_step, bank, ys[k + 1], us[k]))
            kf_calls.append(functools.partial(_ekf_cycle, state, ys[k + 1], us[k], nominal, noise))
        new_bank, out = imm.imm_step(bank, ys[k + 1], us[k])
        state, _ = _ekf_cycle(state, ys[k + 1], us[k], nominal, noise)
        rec.store(k, new_bank, out)
        kf_x[k] = state.x
        kf_P[k] = state.P
        if k % STAGE_STRIDE == 0:
            samples.append((bank, out.mu, new_bank.mu))
        bank = new_bank

    checks.check_invariants(rec, bank0.transition, what, has_cp=True)
    w = ORACLE_STEPS
    checks.check_oracle(bank0.models, noise, bank0, ys[1 : w + 1], us[:w], rec, what)
    x, P = x0, P0
    for k in range(w):
        x, P, _, _ = checks.ekf_cycle(nominal, x, P, ys[k + 1], us[k], noise.Q, noise.R)
        checks.close(kf_x[k], x, f"{what}: EKF x at step {k + 1}")
        checks.close(kf_P[k], P, f"{what}: EKF P at step {k + 1}")
    for name, got in (("v_imm", rec.x[:, 1]), ("cp_imm", rec.cp), ("mu", rec.mu), ("v_kf", kf_x[:, 1])):
        require(np.array_equal(got, series[name][1 : n + 1]), f"{what}: replayed {name} differs from the run")
    if tracer is not None:
        tracing.stage_calls(tracer, samples)
    return call_latencies(imm_calls), call_latencies(kf_calls)


def _ekf_cycle(state, y, u, model, noise):
    return ekf.update(ekf.predict(state, u, model, noise), y, u, model, noise)


def _rmse_metrics(imm_wind, imm_cp, kf_wind, kf_cp, what: str) -> dict:
    """RMS percent errors from (mean, std) pairs; the IMM must beat the EKF."""
    values = {
        "imm_wind_rmse_pct": checks.rmse(*imm_wind),
        "imm_cp_rmse_pct": checks.rmse(*imm_cp),
        "kf_wind_rmse_pct": checks.rmse(*kf_wind),
    }
    kf_cp_rmse = checks.rmse(*kf_cp)
    require(values["imm_wind_rmse_pct"] < values["kf_wind_rmse_pct"],
            f"{what}: IMM wind RMSE {values['imm_wind_rmse_pct']:.3f}% not below "
            f"the EKF's {values['kf_wind_rmse_pct']:.3f}%")
    require(values["imm_cp_rmse_pct"] < kf_cp_rmse,
            f"{what}: IMM Cp RMSE {values['imm_cp_rmse_pct']:.3f}% not below the EKF's {kf_cp_rmse:.3f}%")
    return values


def _run(seconds: float, tracer, clock, config, n_seeds: int, min_rounds: int, one_round) -> Outcome:
    """Round loop shared by both closed-loop workloads.

    ``one_round(r, tracer_or_None)`` runs round r's timed operation on
    ``n_seeds`` seeds and its checks, and returns (wall, failed seeds,
    bytes written, own error statistics per seed, IMM latencies, EKF
    latencies).  Its locals die with it, so peak memory does not grow
    with the number of rounds.  The accuracy metrics aggregate the
    statistics of every seed the rounds ran, as the harness aggregates
    seeds: the mean over seeds of each mean and each std.
    """
    n_steps = config.preset(config.seeds[0]).n_steps
    outcome = Outcome()
    imm_lat, kf_lat, stats = [], [], {}
    clock.setup_done()
    for r in rounds(seconds, max(min_rounds, 1 if tracer is None else 2)):
        traced = tracer is not None and r % 2 == 1
        wall, failed, nbytes, per_seed, lat_i, lat_k = one_round(r, tracer if traced else None)
        outcome.failed += failed
        outcome.add_round(wall, traced, n_seeds, n_seeds * n_steps, n_seeds * (n_steps - 1), nbytes)
        stats.update(per_seed)
        imm_lat.append(lat_i)
        kf_lat.append(lat_k)
    require(bool(stats), "every seed failed")
    agg = {key: tuple(float(np.mean([s[key][i] for s in stats.values()])) for i in (0, 1))
           for key in ("imm_wind", "imm_cp", "kf_wind", "kf_cp")}
    imm_lat, kf_lat = np.concatenate(imm_lat), np.concatenate(kf_lat)
    outcome.e2e.update(
        wall_s=float(np.median(outcome.wall_untraced)),
        imm_cycle_p50_us=float(np.percentile(imm_lat, 50)) * 1e6,
        imm_cycle_p90_us=float(np.percentile(imm_lat, 90)) * 1e6,
        ekf_cycle_p50_us=float(np.percentile(kf_lat, 50)) * 1e6,
        **_rmse_metrics(agg["imm_wind"], agg["imm_cp"], agg["kf_wind"], agg["kf_cp"],
                        f"aggregate of seeds {sorted(stats)}"),
    )
    return outcome


def _series_of(run: harness.SeedRun) -> dict:
    traj = run.trajectory
    return {"v_rews": traj.v_rews, "cp_true": traj.cp_true, "v_imm": run.v_imm,
            "cp_imm": run.cp_imm, "v_kf": run.v_kf, "cp_kf": run.cp_kf, "mu": run.mu}


def long_above(seed: int, seconds: float, tracer, clock) -> Outcome:
    seeds = list(range(LONG_SEEDS * seed, LONG_SEEDS * (seed + 1)))
    config = config_mod.load_config(_write_config("long-above", LONG_ABOVE_CONFIG, seeds))
    one_seed = [dataclasses.replace(config, seeds=(s,)) for s in seeds]
    config.surface()
    settle_idx = int(round(config.settle_s / config.dt))
    out_dir = Path(config.out_dir)

    def one_round(r, traced_by):
        _clear(out_dir)
        with tracing.timed(traced_by):
            t0 = time.perf_counter()
            result = harness.run_experiment(one_seed[r % LONG_SEEDS])
            written = harness.write_outputs(result, out_dir)
            wall = SPEED.interval(t0, time.perf_counter())
        require(bool(result.runs), f"long-above: seed failed: {result.failed}")
        run = result.runs[0]
        what = f"long-above seed {run.seed}"
        series = _series_of(run)
        checks.check_series(series["mu"], series["cp_imm"], what)
        own = checks.seed_stats(series, config.dt, settle_idx)
        m = run.metrics
        for key, stats in (("imm_wind", m.imm.wind), ("imm_cp", m.imm.cp),
                           ("kf_wind", m.kf.wind), ("kf_cp", m.kf.cp)):
            checks.check_stats(own[key], stats.mean_pct, stats.std_pct,
                               stats.n_scored, stats.n_excluded, f"{what} {key}")
        _rmse_metrics(*(own[key][:2] for key in ("imm_wind", "imm_cp", "kf_wind", "kf_cp")), what)
        lat = _replay(config, run.trajectory, run.seed, series, what, traced_by)
        return wall, len(result.failed), sum(p.stat().st_size for p in written), {run.seed: own}, *lat

    return _run(seconds, tracer, clock, config, 1, LONG_SEEDS, one_round)


def _read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _series_from_csv(path) -> dict:
    rows = _read_csv(path)
    cols = {key: np.array([float(row[key]) for row in rows]) for key in rows[0]}
    cols["mu"] = np.column_stack([cols.pop(f"mu{j}") for j in (1, 2, 3)])
    return cols


def _check_sweep_outputs(seeds, out_dir: Path, dt: float, settle_idx: int) -> tuple[dict, int, tuple]:
    """Recompute every written seed's scores from the CSVs.

    The mean over seeds of the recomputed means and stds must equal
    ``summary.csv``.  Returns the own statistics per seed, the number of
    failed seeds and the first written seed with its series.
    """
    failed = len(_read_csv(out_dir / "failed.csv")) if (out_dir / "failed.csv").exists() else 0
    summary = {row["estimator"]: row for row in _read_csv(out_dir / "summary.csv")}
    per_seed, first = {}, None
    for s in seeds:
        path = out_dir / f"timeseries_{s}.csv"
        if not path.exists():
            continue
        series = _series_from_csv(path)
        first = first or (s, series)
        checks.check_series(series["mu"], series["cp_imm"], f"seed-sweep seed {s}")
        own = checks.seed_stats(series, dt, settle_idx)
        hist = _read_csv(out_dir / f"hist_{s}.csv")
        for est in ("imm", "kf"):
            require(sum(int(row[f"count_{est}"]) for row in hist) == own[f"{est}_wind"][2],
                    f"seed-sweep seed {s}: {est} histogram does not sum to the scored samples")
        per_seed[s] = own
    require(bool(per_seed), f"seed-sweep: seeds {list(seeds)} all failed")
    for est in ("imm", "kf"):
        for qty in ("wind", "cp"):
            key = f"{est}_{qty}"
            own = [o[key] for o in per_seed.values()]
            row = summary[est]
            checks.check_stats(
                (float(np.mean([o[0] for o in own])), float(np.mean([o[1] for o in own])),
                 sum(o[2] for o in own), sum(o[3] for o in own)),
                float(row[f"{qty}_mean_pct"]), float(row[f"{qty}_std_pct"]),
                int(row[f"n_scored_{qty}"]), int(row[f"n_excluded_{qty}"]),
                f"seed-sweep seeds {list(seeds)} aggregate {key}",
            )
    return per_seed, failed, first


def seed_sweep(seed: int, seconds: float, tracer, clock) -> Outcome:
    seeds = list(range(SWEEP_SEEDS * seed, SWEEP_SEEDS * (seed + 1)))
    groups = [seeds[i : i + SWEEP_GROUP] for i in range(0, SWEEP_SEEDS, SWEEP_GROUP)]
    cfg_path = _write_config("seed-sweep", SEED_SWEEP_CONFIG, seeds)
    config = config_mod.load_config(cfg_path)
    config.surface()
    out_dir = Path(config.out_dir)
    settle_idx = int(round(config.settle_s / config.dt))

    def one_round(r, traced_by):
        group = groups[r % len(groups)]
        argv = ["run", "--config", str(cfg_path)] + [f"--seed={s}" for s in group]
        _clear(out_dir)
        printed = io.StringIO()
        with tracing.timed(traced_by):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(printed):
                status = cli.main(argv)
            wall = SPEED.interval(t0, time.perf_counter())
        require(status in (0, 2), f"seed-sweep: immwind run exited {status}: {printed.getvalue()}")
        per_seed, failed, (s0, series0) = _check_sweep_outputs(group, out_dir, config.dt, settle_idx)
        nbytes = sum(p.stat().st_size for p in out_dir.iterdir())
        what = f"seed-sweep seed {s0}"
        traj = _plant_run(config, s0)
        for name in ("v_rews", "cp_true"):
            require(np.array_equal(getattr(traj, name), series0[name]),
                    f"{what}: regenerated {name} differs from the written series")
        lat = _replay(config, traj, s0, series0, what, traced_by)
        return wall, failed, nbytes, per_seed, *lat

    return _run(seconds, tracer, clock, config, SWEEP_GROUP, len(groups), one_round)
