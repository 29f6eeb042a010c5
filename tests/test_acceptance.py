"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The comparative
criteria (5-7) share one set of benchmark runs over seeds 1-10 in both
wind presets; everything is deterministic, so these results are exactly
reproducible.
"""

import math
import time

import numpy as np
import pytest

from immwind import (
    ControlInput,
    EstimatorState,
    ModeBank,
    NoiseModel,
    build_cp_mode_bank,
    imm_step,
    jacobian_f,
    load_config,
    mixing_weights,
    predict,
    predict_mode_probs,
    run_experiment,
    step_dynamics,
    symmetric_transition,
    update,
    write_outputs,
)
from immwind.config import ExperimentConfig
from immwind.turbine import StateVector

from conftest import LinearModel, random_psd

ACCEPT_SEEDS = tuple(range(1, 11))
MU_FLOOR = 1e-12


def _report(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


# ----------------------------------------------------------------------
# criterion 1: IMM cycle vs an independent straight-line implementation
# ----------------------------------------------------------------------


def oracle_imm_sequence(models, noise, x0, P0, mu0, trans, ys, us):
    """Plain-loop implementation of one IMM cycle per measurement:
    filter predict/update, Gaussian likelihoods, Bayes probabilities
    (floored), combination, Markov prediction, mixing at end of cycle."""
    m = len(models)
    states = [(x0.copy(), P0.copy()) for _ in range(m)]
    mu = mu0.copy()
    Q, R = noise.Q, noise.R
    outs = []
    for y, u in zip(ys, us):
        posts = []
        lams = []
        for j in range(m):
            x, P = states[j]
            F = models[j].jac_f(x, u)
            xp = models[j].f(x, u)
            Pp = F @ P @ F.T + Q
            Pp = 0.5 * (Pp + Pp.T)
            H = models[j].jac_h(xp, u)
            z = y - float(models[j].h(xp, u)[0])
            S = float((H @ Pp @ H.T)[0, 0] + R[0, 0])
            L = (Pp @ H.T) / S
            xn = xp + L[:, 0] * z
            Pn = (np.eye(x.size) - L @ H) @ Pp
            Pn = 0.5 * (Pn + Pn.T)
            posts.append((xn, Pn))
            lams.append(math.exp(-0.5 * z * z / S) / math.sqrt(2.0 * math.pi * S))
        w = mu * np.array(lams)
        mu_post = w / w.sum()
        mu_post = np.maximum(mu_post, MU_FLOOR)
        mu_post = mu_post / mu_post.sum()
        xc = sum(mu_post[j] * posts[j][0] for j in range(m))
        Pc = np.zeros_like(P0)
        for j in range(m):
            d = posts[j][0] - xc
            Pc = Pc + mu_post[j] * (posts[j][1] + np.outer(d, d))
        Pc = 0.5 * (Pc + Pc.T)
        mu_prior = trans.T @ mu_post
        W = trans * mu_post[:, None] / mu_prior[None, :]
        mixed = []
        for j in range(m):
            xm = sum(W[i, j] * posts[i][0] for i in range(m))
            Pm = np.zeros_like(P0)
            for i in range(m):
                d = xm - posts[i][0]
                Pm = Pm + W[i, j] * (posts[i][1] + np.outer(d, d))
            mixed.append((xm, 0.5 * (Pm + Pm.T)))
        states = mixed
        mu = mu_prior
        outs.append((xc, Pc, mu_post))
    return outs


def test_criterion_1_imm_oracle_equivalence(params, grid_surface):
    # moderate noise scales keep the comparison well conditioned: huge
    # z^2/S ratios would amplify last-bit summation-order differences
    # beyond any meaningful implementation check
    noise = NoiseModel(Q=np.diag([1e-8, 1e-2]), R=[[1e-4]])
    x0 = np.array([0.72, 8.0])
    P0 = np.diag([0.01, 4.0])
    trans = symmetric_transition(3, 0.99)
    mu0 = np.full(3, 1.0 / 3.0)
    rng = np.random.default_rng(42)
    ys = 0.72 + 2e-2 * rng.normal(size=20)
    us = [ControlInput(0.0, 5.2e6 + 1e5 * rng.normal()) for _ in range(20)]

    bank = build_cp_mode_bank(params, grid_surface, 0.04, noise, x0, P0, trans, mu0)
    t0 = time.perf_counter()
    got = []
    for y, u in zip(ys, us):
        bank, out = imm_step(bank, float(y), u)
        got.append((out.x, out.P, out.mu))
    expected = oracle_imm_sequence(bank.models, noise, x0, P0, mu0, trans, ys, us)
    elapsed = time.perf_counter() - t0

    for (x, P, mu), (xe, Pe, mue) in zip(got, expected):
        np.testing.assert_allclose(x, xe, rtol=1e-10)
        np.testing.assert_allclose(P, Pe, rtol=1e-10, atol=1e-30)
        # atol covers probabilities at the 1e-12 floor, where summation
        # order alone moves the last bits
        np.testing.assert_allclose(mu, mue, rtol=1e-10, atol=1e-15)
    assert elapsed < 1.0
    _report(1, "IMM oracle equivalence, 20 steps, 1e-10")


# ----------------------------------------------------------------------
# criterion 2: EKF equals a textbook linear Kalman filter
# ----------------------------------------------------------------------


def test_criterion_2_linear_kalman_equivalence():
    F = np.array([[1.0, 0.05], [0.0, 1.0]])
    H = np.array([[1.0, 0.0]])
    Q = np.diag([1e-4, 1e-2])
    R = np.array([[0.04]])
    model = LinearModel(F, H)
    noise = NoiseModel(Q=Q, R=R)
    rng = np.random.default_rng(7)
    ys = rng.normal(size=50)

    t0 = time.perf_counter()
    state = EstimatorState([0.5, -0.2], np.diag([1.0, 4.0]))
    x_ref = state.x.copy()
    P_ref = state.P.copy()
    for y in ys:
        state = predict(state, None, model, noise)
        state, _ = update(state, y, None, model, noise)
        x_ref = F @ x_ref
        P_ref = 0.5 * ((F @ P_ref @ F.T + Q) + (F @ P_ref @ F.T + Q).T)
        S = H @ P_ref @ H.T + R
        K = P_ref @ H.T @ np.linalg.inv(S)
        x_ref = x_ref + K @ (np.atleast_1d(y) - H @ x_ref)
        P_ref = (np.eye(2) - K @ H) @ P_ref
        P_ref = 0.5 * (P_ref + P_ref.T)
        np.testing.assert_allclose(state.x, x_ref, rtol=1e-10)
        np.testing.assert_allclose(state.P, P_ref, rtol=1e-10)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, "EKF vs linear KF, 50 steps, 1e-10")


# ----------------------------------------------------------------------
# criterion 3: analytic Jacobian vs finite differences, 1000 points
# ----------------------------------------------------------------------


def test_criterion_3_jacobian_finite_differences(params, analytic_surface):
    rng = np.random.default_rng(11)
    u = ControlInput(math.radians(4.0), 3.0e6)
    for _ in range(1000):
        lam = rng.uniform(3.0, 12.0)
        v = rng.uniform(5.0, 11.0)
        x = np.array([lam * v / params.radius, v])
        F = jacobian_f(StateVector(*x), u, params, analytic_surface)
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
                fd = ((fp.omega, fp.v)[i] - (fm.omega, fm.v)[i]) / (2.0 * h)
                scale = max(abs(fd), abs(F[i, j]), floor)
                assert abs(F[i, j] - fd) / scale < 1e-4
    _report(3, "Jacobian vs finite differences, 1000 points, <1e-4")


# ----------------------------------------------------------------------
# criterion 4: invariants over 1e5 randomized IMM cycles
# ----------------------------------------------------------------------


def eig_min_2x2(P):
    tr = P[0, 0] + P[1, 1]
    disc = math.sqrt(max((P[0, 0] - P[1, 1]) ** 2 + 4.0 * P[0, 1] ** 2, 0.0))
    return 0.5 * (tr - disc)


def test_criterion_4_invariant_suite():
    rng = np.random.default_rng(123)
    H = np.array([[1.0, 0.0]])
    t0 = time.perf_counter()
    n_cycles = 100_000
    bank = None
    for k in range(n_cycles):
        if k % 2000 == 0:
            models = []
            for _ in range(3):
                F = np.eye(2) + 0.1 * rng.normal(size=(2, 2))
                F /= max(1.0, np.abs(np.linalg.eigvals(F)).max())
                models.append(LinearModel(F, H))
            noise = NoiseModel(Q=random_psd(rng, 2, 0.05), R=[[rng.uniform(0.01, 1.0)]])
            states = tuple(
                EstimatorState(rng.normal(size=2), random_psd(rng, 2)) for _ in range(3)
            )
            mu0 = rng.uniform(0.05, 1.0, size=3)
            trans = symmetric_transition(3, rng.uniform(0.8, 0.999))
            bank = ModeBank(
                models=tuple(models),
                states=states,
                mu=mu0 / mu0.sum(),
                transition=trans,
                noise=noise,
            )
        y = rng.normal(scale=10.0 if k % 97 == 0 else 1.0)
        bank, out = imm_step(bank, y, None)
        # mode probabilities on the simplex (the transition rows are
        # validated once, when the bank above is built)
        assert abs(out.mu.sum() - 1.0) <= 1e-12 and np.all(out.mu >= 0.0)
        assert abs(bank.mu.sum() - 1.0) <= 1e-12 and np.all(bank.mu >= 0.0)
        # every covariance symmetric positive semidefinite
        assert out.P[0, 1] == out.P[1, 0]
        assert eig_min_2x2(out.P) >= -1e-10 * max(out.P.trace(), 1e-300)
        for s in bank.states:
            assert s.P[0, 1] == s.P[1, 0]
            assert eig_min_2x2(s.P) >= -1e-10 * max(s.P.trace(), 1e-300)
        # mixing-weight columns sum to one
        w = mixing_weights(bank.transition, out.mu, predict_mode_probs(bank.transition, out.mu))
        assert np.abs(w.sum(axis=0) - 1.0).max() <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(4, f"invariants over 1e5 IMM cycles in {elapsed:.1f} s")


# ----------------------------------------------------------------------
# criteria 5-7: comparative benchmark, both presets, seeds 1-10
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def benchmark_runs():
    results = {}
    t0 = time.perf_counter()
    for scenario in ("below", "above"):
        cfg = ExperimentConfig(scenario=scenario, seeds=ACCEPT_SEEDS)
        results[scenario] = run_experiment(cfg)
    results["elapsed"] = time.perf_counter() - t0
    return results


def test_criterion_5_wind_error_comparison(benchmark_runs):
    for scenario in ("below", "above"):
        agg = benchmark_runs[scenario].aggregate
        assert agg.n_failed == 0
        assert abs(agg.imm_wind.mean_pct) <= 0.5 * abs(agg.kf_wind.mean_pct), scenario
        assert agg.imm_wind.std_pct <= 1.05 * agg.kf_wind.std_pct, scenario
    assert benchmark_runs["elapsed"] < 120.0
    b = benchmark_runs["below"].aggregate
    a = benchmark_runs["above"].aggregate
    _report(
        5,
        "wind errors: below |%.2f| vs |%.2f|%%, above |%.2f| vs |%.2f|%%, %.0f s"
        % (
            b.imm_wind.mean_pct,
            b.kf_wind.mean_pct,
            a.imm_wind.mean_pct,
            a.kf_wind.mean_pct,
            benchmark_runs["elapsed"],
        ),
    )


def test_criterion_6_cp_error_comparison(benchmark_runs):
    for scenario in ("below", "above"):
        agg = benchmark_runs[scenario].aggregate
        assert abs(agg.imm_cp.mean_pct) <= 0.7 * abs(agg.kf_cp.mean_pct), scenario
    b = benchmark_runs["below"].aggregate
    a = benchmark_runs["above"].aggregate
    _report(
        6,
        "cp errors: below |%.2f| vs |%.2f|%%, above |%.2f| vs |%.2f|%%"
        % (b.imm_cp.mean_pct, b.kf_cp.mean_pct, a.imm_cp.mean_pct, a.kf_cp.mean_pct),
    )


def sustained_windows(offsets, level, dt, min_len_s=100.0):
    n_min = int(round(min_len_s / dt))
    mask = offsets == level
    start = None
    for k in range(mask.size + 1):
        if k < mask.size and mask[k]:
            if start is None:
                start = k
        else:
            if start is not None and k - start >= n_min:
                yield start, k
            start = None


def test_criterion_7_mode_identification(benchmark_runs):
    n_windows = 0
    for scenario in ("below", "above"):
        result = benchmark_runs[scenario]
        dt = result.config.dt
        n10 = int(round(10.0 / dt))
        for run in result.runs:
            for level, idx in ((0.04, 1), (-0.04, 2)):
                found = False
                for start, end in sustained_windows(run.schedule.offsets, level, dt):
                    avg = run.mu[start + n10 : end].mean(axis=0)
                    others = np.delete(avg, idx)
                    assert avg[idx] > others.max(), (scenario, run.seed, level)
                    found = True
                    n_windows += 1
                assert found, (scenario, run.seed, level)
    _report(7, f"mode identification over {n_windows} sustained windows")


# ----------------------------------------------------------------------
# criterion 8: degenerate convergence
# ----------------------------------------------------------------------


def test_criterion_8_degenerate_convergence():
    for scenario in ("below", "above"):
        cfg = ExperimentConfig(
            scenario=scenario,
            seeds=(1,),
            duration_s=120.0,
            turbulence_intensity=0.0,
            schedule_delta_max=0.0,
            meas_noise_std=0.0,
        )
        res = run_experiment(cfg)
        run = res.runs[0]
        k30 = int(round(30.0 / cfg.dt))
        v = run.trajectory.v_rews
        for label, series in (("imm", run.v_imm), ("kf", run.v_kf)):
            rel = np.abs(series[k30:] - v[k30:]) / v[k30:]
            assert rel.max() <= 0.01, (scenario, label)
    _report(8, "noise-free convergence within 1% by 30 s")


# ----------------------------------------------------------------------
# criterion 9: determinism and I/O round trip
# ----------------------------------------------------------------------


def test_criterion_9_determinism_and_io(tmp_path):
    cfg = ExperimentConfig(duration_s=60.0, seeds=(1, 2), settle_s=10.0, hist_bins=11)
    res1 = run_experiment(cfg)
    res2 = run_experiment(cfg)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    files1 = sorted(p.name for p in write_outputs(res1, out1))
    write_outputs(res2, out2)
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    cfg_back = load_config(out1 / "config_echo.txt")
    assert cfg_back == cfg
    res3 = run_experiment(cfg_back)
    assert res3.aggregate == res1.aggregate
    for r1, r3 in zip(res1.runs, res3.runs):
        for est in ("imm", "kf"):
            m1 = getattr(r1.metrics, est)
            m3 = getattr(r3.metrics, est)
            assert m1.wind == m3.wind and m1.cp == m3.cp
            np.testing.assert_array_equal(m1.wind_hist, m3.wind_hist)
    _report(9, "byte-identical outputs and config round trip")
