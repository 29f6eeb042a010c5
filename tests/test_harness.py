import csv
import dataclasses
import math
import weakref

import numpy as np
import pytest

from immwind import (
    ControlInput,
    EstimatorState,
    ModeBank,
    NoiseModel,
    NumericalError,
    TurbineModel,
    imm_step,
    low_pass,
    run_experiment,
    wind_error_series,
    write_outputs,
)
from immwind.config import ExperimentConfig
import immwind.cp as cp
import immwind.harness as harness
import immwind.plant as plant
import immwind.ekf as ekf
import immwind.imm as imm


def tiny_config(**overrides):
    base = dict(duration_s=40.0, seeds=(1,), settle_s=10.0)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestLowPass:
    def test_constant_input_passes_through(self):
        x = np.full(100, 3.7)
        np.testing.assert_array_equal(low_pass(x, 0.1, 0.05), x)

    def test_unit_step_closed_form(self):
        dt = 0.05
        a = math.exp(-2 * math.pi * 0.1 * dt)
        x = np.concatenate([[0.0], np.ones(200)])
        y = low_pass(x, 0.1, dt)
        expected = 1.0 - a ** np.arange(201)
        np.testing.assert_allclose(y, expected, rtol=1e-12)

    def test_wide_open_filter_approaches_identity(self):
        dt = 0.05
        cutoff = 9.0  # a = exp(-2 pi 0.45) ~= 0.059
        a = math.exp(-2 * math.pi * cutoff * dt)
        x = np.concatenate([[0.0], np.ones(50)])
        y = low_pass(x, cutoff, dt)
        assert np.abs(y - x).max() <= a + 1e-12

    def test_cutoff_precondition(self):
        with pytest.raises(ValueError, match="cutoff"):
            low_pass(np.ones(10), 10.0, 0.05)


class TestWindErrorSeries:
    def test_perfect_estimate_gives_zeros(self):
        v = np.array([8.0, 8.1, 7.9])
        np.testing.assert_array_equal(wind_error_series(v, v), np.zeros(3))

    def test_proportional_bias(self):
        v = np.array([6.0, 8.0, 10.0])
        np.testing.assert_allclose(wind_error_series(1.02 * v, v), np.full(3, 2.0), rtol=1e-12)

    def test_hand_arithmetic(self):
        err = wind_error_series(np.array([8.16]), np.array([8.0]))
        assert err[0] == pytest.approx(2.0, abs=1e-12)

    def test_below_floor_excluded_as_nan(self):
        err = wind_error_series(np.array([1.0, 1.0]), np.array([0.1, 8.0]))
        assert np.isnan(err[0])
        assert not np.isnan(err[1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            wind_error_series(np.ones(3), np.ones(4))


def cp_error_series(cp_hat, cp_true, dt):
    """The Cp error series that ``run_experiment`` scores: percent error against
    the low-passed true Cp, NaN where that reference is below its floor."""
    ref = low_pass(cp_true, harness.CP_REFERENCE_CUTOFF_HZ, dt)
    return harness._percent_error(cp_hat, ref, harness.CP_REFERENCE_FLOOR)


class TestCpErrorSeries:
    def test_estimate_equal_to_reference_gives_zeros(self):
        dt = 0.05
        cp_true = 0.4 + 0.05 * np.sin(np.arange(400) * 0.1)
        ref = low_pass(cp_true, 0.1, dt)
        err = cp_error_series(ref, cp_true, dt)
        np.testing.assert_allclose(err, np.zeros(400), atol=1e-12)

    def test_constant_series_dc_gain(self):
        dt = 0.05
        cp_true = np.full(100, 0.42)
        err = cp_error_series(np.full(100, 0.42), cp_true, dt)
        np.testing.assert_allclose(err, np.zeros(100), atol=1e-12)

    def test_step_reaches_63_percent_at_time_constant(self):
        dt = 0.05
        x = np.concatenate([[0.5], np.full(400, 1.5)])  # step of 1 at k=1
        ref = low_pass(x, 0.1, dt)
        target = 0.5 + (1.0 - math.exp(-1.0)) * 1.0
        k_hit = int(np.argmax(ref >= target))
        t_hit = k_hit * dt
        assert abs(t_hit - (1.0 / (2 * math.pi * 0.1) + dt)) <= dt + 1e-9

    def test_small_reference_excluded(self):
        dt = 0.05
        cp_true = np.full(50, 1e-4)
        err = cp_error_series(np.full(50, 0.3), cp_true, dt)
        assert np.all(np.isnan(err))


class TestRunExperiment:
    def test_cp_reference_low_passed_once_per_seed(self, monkeypatch):
        calls = []

        def counting(series, cutoff_hz, dt):
            calls.append(cutoff_hz)
            return low_pass(series, cutoff_hz, dt)

        monkeypatch.setattr(harness, "low_pass", counting)
        res = run_experiment(tiny_config(duration_s=20.0, seeds=(1, 2), settle_s=5.0))
        assert len(res.runs) == 2
        assert calls == [harness.CP_REFERENCE_CUTOFF_HZ] * 2

    def test_deterministic_metrics(self):
        cfg = tiny_config()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.aggregate == b.aggregate
        np.testing.assert_array_equal(a.runs[0].v_imm, b.runs[0].v_imm)

    def test_seed_order_does_not_matter(self):
        r12 = run_experiment(tiny_config(seeds=(1, 2)))
        r21 = run_experiment(tiny_config(seeds=(2, 1)))
        assert r12.aggregate == r21.aggregate

    def test_near_perfect_conditions(self):
        cfg = tiny_config(
            duration_s=60.0,
            settle_s=30.0,
            turbulence_intensity=0.0,
            schedule_delta_max=0.0,
            meas_noise_std=0.0,
        )
        res = run_experiment(cfg)
        assert abs(res.aggregate.imm_wind.mean_pct) < 0.1
        assert abs(res.aggregate.kf_wind.mean_pct) < 0.1

    def test_every_sample_scored_or_excluded(self):
        cfg = tiny_config()
        res = run_experiment(cfg)
        n_tail = res.runs[0].trajectory.t.size - res.runs[0].settle_idx
        for est in (res.runs[0].metrics.imm, res.runs[0].metrics.kf):
            assert est.wind.n_scored + est.wind.n_excluded == n_tail
            assert est.cp.n_scored + est.cp.n_excluded == n_tail
            assert est.wind_hist.sum() == est.wind.n_scored

    def test_set_up_runs_once_per_process_not_per_seed(self, monkeypatch):
        """The built-in grid is sampled and its cell table built once, and the
        controller scans a surface's optimum once, however many seeds run."""
        calls = {"sample": 0, "table": 0, "scan": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cp.AnalyticCpSurface, "to_grid",
                            counted("sample", cp.AnalyticCpSurface.to_grid))
        monkeypatch.setattr(cp, "_cell_table", counted("table", cp._cell_table))
        scan = plant.BaselineController._surface_optimum
        monkeypatch.setattr(plant.BaselineController, "_surface_optimum",
                            staticmethod(counted("scan", scan)))
        cp.default_grid_surface.cache_clear()
        run_experiment(tiny_config(seeds=(1,), duration_s=5.0, settle_s=1.0))
        assert calls == {"sample": 1, "table": 1, "scan": 1}
        run_experiment(tiny_config(seeds=(2, 3), duration_s=5.0, settle_s=1.0))
        assert calls == {"sample": 1, "table": 1, "scan": 1}

    @pytest.mark.parametrize("table", ["csv", "builtin-analytic"])
    def test_surface_built_once_per_run(self, tmp_path, monkeypatch, table):
        """A run's seeds share one surface: a CSV table is read and tabled once,
        the analytic surface built once, and either one's optimum scanned once."""
        if table == "csv":
            table = str(tmp_path / "cp.csv")
            cp.default_grid_surface().to_csv(table)
        calls = {"build": 0, "table": 0, "scan": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cp.GridCpSurface, "from_csv",
                            classmethod(counted("build", cp.GridCpSurface.from_csv.__func__)))
        monkeypatch.setattr(cp.AnalyticCpSurface, "__post_init__",
                            counted("build", cp.AnalyticCpSurface.__post_init__))
        monkeypatch.setattr(cp, "_cell_table", counted("table", cp._cell_table))
        scan = plant.BaselineController._surface_optimum
        monkeypatch.setattr(plant.BaselineController, "_surface_optimum",
                            staticmethod(counted("scan", scan)))
        monkeypatch.setattr(plant, "_OPTIMA", weakref.WeakKeyDictionary())
        res = run_experiment(
            tiny_config(seeds=(1, 2, 3), duration_s=5.0, settle_s=1.0, cp_table=table)
        )
        assert res.aggregate.n_seeds == 3
        assert calls == {"build": 1, "table": int(table.endswith(".csv")), "scan": 1}

    def test_failed_seed_reported_and_others_continue(self, monkeypatch):
        real = harness._run_estimators

        def flaky(config, seed):
            if seed == 2:
                raise NumericalError("synthetic failure")
            return real(config, seed)

        monkeypatch.setattr(harness, "_run_estimators", flaky)
        res = run_experiment(tiny_config(seeds=(1, 2)))
        assert res.failed == ((2, "synthetic failure"),)
        assert res.aggregate.n_seeds == 1
        assert res.aggregate.n_failed == 1

    def test_all_seeds_failing_raises(self, monkeypatch):
        def always_fail(config, seed):
            raise NumericalError("boom")

        monkeypatch.setattr(harness, "_run_estimators", always_fail)
        with pytest.raises(NumericalError, match="every seed failed"):
            run_experiment(tiny_config(seeds=(1, 2)))

    def test_estimator_failure_names_the_step(self, monkeypatch):
        real = imm.imm_step
        calls = []

        def failing_at_step_7(bank, y, u):
            calls.append(y)
            if len(calls) == 7:  # the loop starts at k = 1
                raise NumericalError("synthetic failure")
            return real(bank, y, u)

        monkeypatch.setattr(imm, "imm_step", failing_at_step_7)
        res = run_experiment(tiny_config(seeds=(1, 2), duration_s=20.0, settle_s=5.0))
        assert res.failed == ((1, "imm step 7, t=0.35 s: synthetic failure"),)
        assert [run.seed for run in res.runs] == [2]

    def test_failure_names_the_estimator(self, monkeypatch):
        real = ekf.update
        calls = []

        def failing_at_step_3(state, y, u, model, noise):
            calls.append(y)
            if len(calls) == 3:
                raise NumericalError("synthetic failure")
            return real(state, y, u, model, noise)

        monkeypatch.setattr(ekf, "update", failing_at_step_3)
        res = run_experiment(tiny_config(seeds=(1, 2), duration_s=20.0, settle_s=5.0))
        assert res.failed == ((1, "kf step 3, t=0.15 s: synthetic failure"),)

    def test_kernel_failure_names_estimator_step_and_mode(self, monkeypatch):
        """A measurement that turns NaN at step 5 fails the IMM's first mode there."""
        real = harness.simulate_plant

        def nan_at_step_5(*args, **kwargs):
            traj = real(*args, **kwargs)
            traj.y_meas[5] = math.nan
            return traj

        monkeypatch.setattr(harness, "simulate_plant", nan_at_step_5)
        with pytest.raises(NumericalError) as failure:
            run_experiment(tiny_config(seeds=(1,), duration_s=20.0, settle_s=5.0))
        assert str(failure.value).startswith(
            "every seed failed: 1: imm step 5, t=0.25 s: mode 0 (Cp offset +0): "
            "state or covariance is not finite after the correction"
        )

    def test_single_kf_equals_imm_with_one_mode(self):
        """The dedicated KF path must match the IMM machinery at m = 1."""
        cfg = tiny_config()
        res = run_experiment(cfg)
        run = res.runs[0]
        traj = run.trajectory

        params = cfg.turbine_params()
        cp0 = cfg.surface()
        noise = NoiseModel(
            Q=np.diag([cfg.q_omega_std**2, params.sigma_n**2]),
            R=np.array([[cfg.r_std**2]]),
        )
        x0 = np.array([traj.y_meas[0], cfg.effective_v_op()])
        P0 = np.diag([cfg.p0_omega_std**2, cfg.p0_wind_std**2])
        bank = ModeBank(
            models=(TurbineModel(params, cp0),),
            states=(EstimatorState(x0, P0),),
            mu=np.array([1.0]),
            transition=np.array([[1.0]]),
            noise=noise,
        )
        v_m1 = [x0[1]]
        for k in range(1, traj.t.size):
            u_prev = ControlInput(float(traj.pitch[k - 1]), float(traj.tau_g[k - 1]))
            bank, out = imm_step(bank, float(traj.y_meas[k]), u_prev)
            v_m1.append(out.x[1])
        np.testing.assert_allclose(np.array(v_m1), run.v_kf, rtol=1e-10, atol=1e-12)

    def test_regime_mode_probabilities_favor_active_mode(self):
        cfg = ExperimentConfig(duration_s=600.0, seeds=(1,))
        res = run_experiment(cfg)
        run = res.runs[0]
        off = run.schedule.offsets
        for level, idx in ((0.04, 1), (-0.04, 2)):
            mask = off == level
            assert mask.sum() > 0
            avg = run.mu[mask].mean(axis=0)
            assert avg[idx] == max(avg)


class TestWriteOutputs:
    def test_files_written_and_byte_identical(self, tmp_path):
        cfg = tiny_config(hist_bins=11)
        res = run_experiment(cfg)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        files1 = write_outputs(res, out1)
        write_outputs(run_experiment(cfg), out2)
        names = sorted(p.name for p in files1)
        assert names == ["config_echo.txt", "hist_1.csv", "summary.csv", "timeseries_1.csv"]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_histogram_counts_sum_to_scored(self, tmp_path):
        cfg = tiny_config(hist_bins=11)
        res = run_experiment(cfg)
        write_outputs(res, tmp_path)
        lines = (tmp_path / "hist_1.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 12  # header + 11 bins
        tot_imm = sum(int(l.split(",")[2]) for l in lines[1:])
        tot_kf = sum(int(l.split(",")[3]) for l in lines[1:])
        assert tot_imm == res.runs[0].metrics.imm.wind.n_scored
        assert tot_kf == res.runs[0].metrics.kf.wind.n_scored

    def test_summary_layout(self, tmp_path):
        cfg = tiny_config()
        write_outputs(run_experiment(cfg), tmp_path)
        lines = (tmp_path / "summary.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("scenario,estimator,wind_mean_pct")
        assert lines[1].split(",")[:2] == ["below", "imm"]
        assert lines[2].split(",")[:2] == ["below", "kf"]

    def test_config_echo_round_trips_to_same_metrics(self, tmp_path):
        from immwind import load_config

        cfg = tiny_config()
        res = run_experiment(cfg)
        write_outputs(res, tmp_path)
        cfg2 = load_config(tmp_path / "config_echo.txt")
        assert cfg2 == cfg
        res2 = run_experiment(cfg2)
        assert res2.aggregate == res.aggregate

    def test_timeseries_columns(self, tmp_path):
        cfg = tiny_config()
        res = run_experiment(cfg)
        write_outputs(res, tmp_path)
        lines = (tmp_path / "timeseries_1.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,v_rews,v_imm,v_kf,cp_true,cp_imm,cp_kf,mu1,mu2,mu3"
        assert len(lines) == res.runs[0].trajectory.t.size + 1
        row = [float(c) for c in lines[5].split(",")]
        assert row[7] + row[8] + row[9] == pytest.approx(1.0, abs=1e-9)

    def test_failed_runs_recorded(self, tmp_path, monkeypatch):
        real = harness._run_estimators
        message = 'pitch "p" left [0, 1.508]'

        def flaky(config, seed):
            if seed == 2:
                raise NumericalError(message)
            return real(config, seed)

        monkeypatch.setattr(harness, "_run_estimators", flaky)
        res = run_experiment(tiny_config(seeds=(1, 2)))
        write_outputs(res, tmp_path)
        with (tmp_path / "failed.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["seed", "error"], ["2", message]]

    def test_stale_seed_files_removed(self, tmp_path):
        cfg = tiny_config(duration_s=20.0, settle_s=5.0)
        write_outputs(run_experiment(dataclasses.replace(cfg, seeds=(1, 2))), tmp_path)
        foreign = ["notes.txt", "timeseries_best.csv", "hist_2.txt"]
        for name in foreign:
            (tmp_path / name).write_text("kept", encoding="utf-8")
        written = write_outputs(run_experiment(cfg), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [p.name for p in written] + foreign
        )
        assert not (tmp_path / "timeseries_2.csv").exists()
        assert not (tmp_path / "hist_2.csv").exists()

    def test_stale_failed_file_removed(self, tmp_path, monkeypatch):
        cfg = tiny_config(seeds=(1, 2), duration_s=20.0, settle_s=5.0)
        real = harness._run_estimators

        def flaky(config, seed):
            if seed == 2:
                raise NumericalError("synthetic failure")
            return real(config, seed)

        with monkeypatch.context() as patch:
            patch.setattr(harness, "_run_estimators", flaky)
            write_outputs(run_experiment(cfg), tmp_path)
        assert (tmp_path / "failed.csv").exists()
        res = run_experiment(cfg)
        assert res.aggregate.n_failed == 0
        write_outputs(res, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config_echo.txt", "hist_1.csv", "hist_2.csv", "summary.csv",
            "timeseries_1.csv", "timeseries_2.csv",
        ]
