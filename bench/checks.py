"""Independent computations and invariants the program's outputs must meet.

Nothing here calls the program's filter, Bayes, combination or mixing
arithmetic: the straight-line cycle below re-derives them from the
models' ``f``/``jac_f``/``h``/``jac_h`` alone, and the scoring helpers
re-derive the harness's error statistics with their own low-pass.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.signal import lfilter

from immwind import imm

from common import require

TOL = 1e-9
MU_FLOOR = 1e-12  # the program's floor on posterior mode probabilities
CP_MAX = 0.593  # Betz limit, the ceiling of every Cp estimate

# scoring definition: relative percent errors, Cp scored against its
# 0.1 Hz single-pole low-pass, samples whose truth sits below a floor
# excluded, the first settle_s seconds discarded
CP_CUTOFF_HZ = 0.1
WIND_FLOOR = 0.5
CP_FLOOR = 1e-3


def close(got, want, what: str, scale: float | None = None) -> None:
    """Normwise agreement to TOL, relative to ``scale`` (default: max |want|)."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if scale is None:
        scale = max(float(np.abs(want).max()), 1e-300)
    err = float(np.abs(got - want).max())
    require(err <= TOL * scale, f"{what}: differs by {err:.3e} at scale {scale:.3e}")


# -- straight-line filters ----------------------------------------------


def ekf_cycle(model, x, P, y, u, Q, R):
    """Textbook EKF predict + update; returns (x, P, residual, S)."""
    F = np.asarray(model.jac_f(x, u), dtype=float)
    xp = np.asarray(model.f(x, u), dtype=float).reshape(-1)
    Pp = F @ P @ F.T + Q
    Pp = 0.5 * (Pp + Pp.T)
    H = np.atleast_2d(np.asarray(model.jac_h(xp, u), dtype=float))
    z = np.atleast_1d(y) - np.asarray(model.h(xp, u), dtype=float).reshape(-1)
    S = H @ Pp @ H.T + R
    K = Pp @ H.T @ np.linalg.inv(S)
    xn = xp + K @ z
    Pn = (np.eye(xp.size) - K @ H) @ Pp
    return xn, 0.5 * (Pn + Pn.T), z, S


def gaussian(z, S) -> float:
    """n-variate normal density of residual z with covariance S."""
    quad = float(z @ np.linalg.solve(S, z))
    norm = math.sqrt((2.0 * math.pi) ** z.size * float(np.linalg.det(S)))
    return math.exp(-0.5 * quad) / norm


def straight_line_imm(models, Q, R, states, mu, trans, ys, us):
    """IMM cycles as plain loops: per-mode EKF, Gaussian likelihoods,
    floored Bayes update, combination, Markov prediction, then mixing
    at the end of the cycle.  Returns (x, P, mu_post) per step."""
    m = len(models)
    states = [(np.array(x, dtype=float), np.array(P, dtype=float)) for x, P in states]
    mu = np.array(mu, dtype=float)
    out = []
    for y, u in zip(ys, us):
        posts = []
        lam = np.empty(m)
        for j, model in enumerate(models):
            xn, Pn, z, S = ekf_cycle(model, *states[j], y, u, Q, R)
            posts.append((xn, Pn))
            lam[j] = gaussian(z, S)
        w = mu * lam
        if w.sum() > 0.0:
            post = np.maximum(w / w.sum(), MU_FLOOR)
            post = post / post.sum()
        else:  # every likelihood underflowed: the prior carries over
            post = mu.copy()
        xc = sum(post[j] * posts[j][0] for j in range(m))
        Pc = sum(post[j] * (posts[j][1] + np.outer(posts[j][0] - xc, posts[j][0] - xc))
                 for j in range(m))
        out.append((xc, 0.5 * (Pc + Pc.T), post))
        mu = trans.T @ post
        mixed = []
        for j in range(m):
            wj = [trans[i, j] * post[i] / mu[j] for i in range(m)]
            xm = sum(wj[i] * posts[i][0] for i in range(m))
            Pm = sum(wj[i] * (posts[i][1] + np.outer(xm - posts[i][0], xm - posts[i][0]))
                     for i in range(m))
            mixed.append((xm, 0.5 * (Pm + Pm.T)))
        states = mixed
    return out


# -- recorded IMM outputs and their invariants ---------------------------


class ImmRecord:
    """Per-step outputs of ``imm_step`` kept in arrays for vectorised checks."""

    def __init__(self, n: int, m: int, dim: int) -> None:
        self.x = np.empty((n, dim))
        self.P = np.empty((n, dim, dim))
        self.mu = np.empty((n, m))
        self.mu_prior = np.empty((n, m))
        self.P_mixed = np.empty((n, m, dim, dim))
        self.cp = np.empty(n)

    def store(self, k: int, bank, out) -> None:
        self.x[k] = out.x
        self.P[k] = out.P
        self.mu[k] = out.mu
        self.cp[k] = out.cp_estimate
        self.mu_prior[k] = bank.mu
        for j, state in enumerate(bank.states):
            self.P_mixed[k, j] = state.P


def _check_psd(P: np.ndarray, what: str) -> None:
    require(np.array_equal(P, np.swapaxes(P, -1, -2)), f"{what}: covariance not symmetric")
    eig_min = np.linalg.eigvalsh(P)[..., 0]
    trace = np.maximum(np.trace(P, axis1=-2, axis2=-1), 1e-300)
    worst = float((eig_min / trace).min())
    require(worst >= -1e-10, f"{what}: covariance not PSD (min eigenvalue / trace {worst:.3e})")


def check_series(mu: np.ndarray, cp: np.ndarray | None, what: str) -> None:
    """Mode probabilities on the simplex and above MU_FLOOR, Cp within [0, Betz]."""
    require(np.abs(mu.sum(axis=1) - 1.0).max() <= 1e-12, f"{what}: mode probabilities off the simplex")
    require(mu.min() >= MU_FLOOR * (1.0 - 1e-9), f"{what}: mode probability below MU_FLOOR")
    if cp is not None:
        require(bool(np.all((cp >= 0.0) & (cp <= CP_MAX))), f"{what}: Cp estimate outside [0, {CP_MAX}]")


def check_invariants(rec: ImmRecord, transition: np.ndarray, what: str, has_cp: bool) -> None:
    """The method's properties at every recorded step."""
    check_series(rec.mu, rec.cp if has_cp else None, f"{what}: posterior")
    check_series(rec.mu_prior, None, f"{what}: prior")
    _check_psd(rec.P, f"{what}: combined")
    _check_psd(rec.P_mixed, f"{what}: mixed")
    worst = max(
        float(np.abs(imm.mixing_weights(transition, mu, prior).sum(axis=0) - 1.0).max())
        for mu, prior in zip(rec.mu, rec.mu_prior)
    )
    require(worst <= 1e-12, f"{what}: mixing-weight column sums off by {worst:.3e}")


def check_oracle(models, noise, bank0, ys, us, rec: ImmRecord, what: str) -> None:
    """``imm_step`` over the first len(ys) steps against the straight-line cycle."""
    states = [(s.x, s.P) for s in bank0.states]
    want = straight_line_imm(models, noise.Q, noise.R, states, bank0.mu, bank0.transition, ys, us)
    for k, (x, P, mu) in enumerate(want):
        close(rec.x[k], x, f"{what}: combined x at step {k + 1}")
        close(rec.P[k], P, f"{what}: combined P at step {k + 1}")
        close(rec.mu[k], mu, f"{what}: posterior mu at step {k + 1}", scale=1.0)


# -- scoring ---------------------------------------------------------------


def low_pass(x: np.ndarray, cutoff_hz: float, dt: float) -> np.ndarray:
    a = math.exp(-2.0 * math.pi * cutoff_hz * dt)
    return lfilter([1.0 - a], [1.0, -a], x, zi=[a * x[0]])[0]


def percent_errors(est: np.ndarray, truth: np.ndarray, floor: float) -> np.ndarray:
    err = np.full(truth.shape, np.nan)
    ok = truth >= floor
    err[ok] = 100.0 * (est[ok] - truth[ok]) / truth[ok]
    return err


def error_stats(err: np.ndarray, settle_idx: int) -> tuple[float, float, int, int]:
    """(mean, population std, n_scored, n_excluded) after the settle window."""
    tail = err[settle_idx:]
    scored = tail[~np.isnan(tail)]
    return float(scored.mean()), float(scored.std()), int(scored.size), int(tail.size - scored.size)


def seed_stats(series: dict, dt: float, settle_idx: int) -> dict:
    """Own error statistics of both estimators from one seed's series."""
    cp_ref = low_pass(series["cp_true"], CP_CUTOFF_HZ, dt)
    return {
        f"{est}_{qty}": error_stats(
            percent_errors(series[f"{pre}_{est}"], truth, floor), settle_idx
        )
        for est in ("imm", "kf")
        for qty, pre, truth, floor in (
            ("wind", "v", series["v_rews"], WIND_FLOOR),
            ("cp", "cp", cp_ref, CP_FLOOR),
        )
    }


def check_stats(own: tuple, mean: float, std: float, n_scored: int, n_excluded: int, what: str) -> None:
    require(abs(own[0] - mean) <= TOL and abs(own[1] - std) <= TOL,
            f"{what}: mean/std {own[:2]} recomputed, program reports {(mean, std)}")
    require(own[2:] == (n_scored, n_excluded),
            f"{what}: counts {own[2:]} recomputed, program reports {(n_scored, n_excluded)}")


def rmse(mean: float, std: float) -> float:
    """RMS percent error from a mean and a population standard deviation."""
    return math.hypot(mean, std)
