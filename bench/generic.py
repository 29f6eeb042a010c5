"""imm-generic: the IMM on random linear models with a known truth.

Each block draws three stable 2-state models x' = A x + c, y = x[0],
with A = [[a, b], [0, r]] and c = (0, (1 - r) * HIDDEN_MEAN): a measured
state driven through b by a hidden mean-reverting state, the shape of
rotor speed driven by wind.  The three models differ in the pole a of
the measured state by -0.1, 0 and +0.1; b, r and the noise are drawn
per block.  A jump-Markov chain over the three models generates the
truth, and every OUTLIER_EVERY-th measurement carries ten times the
noise.  The filters see only the program's generic model interface:
no turbine, Cp, plant or harness code runs.

The accuracy metrics read the hidden state as "wind" and the
probability-weighted pole sum_j mu_j a_j, against the true mode's a,
as "Cp"; the baseline EKF runs the block's first model alone.
"""

from __future__ import annotations

import bisect
import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from immwind import ekf, imm
from immwind.errors import NumericalError

import checks
import tracing
from common import SPEED, Outcome, call_latencies, require, rounds

MODES = 3
SETS = 8  # distinct block sets; round r runs set r % SETS
BLOCKS = 12  # per set
CYCLES = 500  # per block
SETTLE = 50  # leading cycles of a block left out of the accuracy metrics
OUTLIER_EVERY = 97
HIDDEN_MEAN = 10.0
ORACLE_STEPS = 100
COLLAPSE_STEPS = 200
STAGE_STRIDE = 10
LATENCY_STRIDE = 10  # every tenth cycle of a block is timed for the latencies
H = np.array([[1.0, 0.0]])


class AffineModel:
    """x' = A x + c, y = H x, behind the (f, h, jac_f, jac_h) interface."""

    def __init__(self, A, c) -> None:
        self.A = np.asarray(A, dtype=float)
        self.c = np.asarray(c, dtype=float)

    def f(self, x, u):
        return self.A @ x + self.c

    def jac_f(self, x, u):
        return self.A

    def h(self, x, u):
        return H @ x

    def jac_h(self, x, u):
        return H


@dataclass
class Block:
    models: tuple
    pole: np.ndarray  # a of each model, the parameter the modes differ in
    noise: ekf.NoiseModel
    transition: np.ndarray
    mu0: np.ndarray
    states0: tuple  # (x, P) per filter
    modes: np.ndarray  # true model index per cycle
    truth: np.ndarray  # (CYCLES, 2) true states
    ys: list

    def bank(self, models=None, states0=None) -> imm.ModeBank:
        return imm.ModeBank(
            models=self.models if models is None else models,
            states=tuple(ekf.EstimatorState(x, P) for x, P in (states0 or self.states0)),
            mu=self.mu0,
            transition=self.transition,
            noise=self.noise,
        )


def draw_block(rng: np.random.Generator) -> Block:
    a = rng.uniform(0.7, 0.75) + 0.1 * np.array([0.0, 1.0, -1.0])
    b = rng.uniform(0.3, 0.35, MODES)
    r = rng.uniform(0.96, 0.97, MODES)
    models = tuple(
        AffineModel([[a[j], b[j]], [0.0, r[j]]], [0.0, (1.0 - r[j]) * HIDDEN_MEAN])
        for j in range(MODES)
    )
    q = np.array([rng.uniform(0.1, 0.2), rng.uniform(0.02, 0.03)])
    r_std = rng.uniform(0.02, 0.03)
    noise = ekf.NoiseModel(Q=np.diag(q**2), R=[[r_std**2]])
    transition = imm.symmetric_transition(MODES, rng.uniform(0.9, 0.92))
    mu0 = rng.uniform(0.05, 1.0, MODES)
    mu0 /= mu0.sum()

    mode = int(rng.choice(MODES, p=mu0))
    x = np.array([b[mode] * HIDDEN_MEAN / (1.0 - a[mode]), HIDDEN_MEAN])
    states0 = tuple((x + rng.normal(0.0, 0.5, 2), np.diag([0.25, 0.25])) for _ in range(MODES))
    cum = np.cumsum(transition, axis=1).tolist()
    jumps = rng.random(CYCLES).tolist()
    w = (rng.normal(0.0, 1.0, (CYCLES, 2)) * q).tolist()
    v = rng.normal(0.0, r_std, CYCLES)
    v[::OUTLIER_EVERY] *= 10.0
    modes = np.empty(CYCLES, dtype=int)
    truth = np.empty((CYCLES, 2))
    s, h = x.tolist()
    for k in range(CYCLES):
        mode = min(bisect.bisect_right(cum[mode], jumps[k]), MODES - 1)
        s, h = (a[mode] * s + b[mode] * h + w[k][0],
                r[mode] * h + (1.0 - r[mode]) * HIDDEN_MEAN + w[k][1])
        modes[k] = mode
        truth[k] = s, h
    ys = (truth[:, 0] + v).tolist()
    return Block(models, a, noise, transition, mu0, states0, modes, truth, ys)


def _kalman(A, c, Q, R, x, P, ys):
    """Textbook linear Kalman filter; returns (x, P) after each measurement."""
    out = []
    for y in ys:
        x = A @ x + c
        P = A @ P @ A.T + Q
        S = H @ P @ H.T + R
        K = P @ H.T / S[0, 0]
        x = x + K[:, 0] * (y - x[0])
        P = P - K @ H @ P
        P = 0.5 * (P + P.T)
        out.append((x, P))
    return out


def _check_collapse(block: Block) -> None:
    """Three copies of one model from one state: the IMM is that model's KF."""
    model = block.models[0]
    x0, P0 = block.states0[0]
    bank = block.bank(models=(model,) * MODES, states0=((x0, P0),) * MODES)
    ys = block.ys[:COLLAPSE_STEPS]
    want = _kalman(model.A, model.c, block.noise.Q, block.noise.R, x0, P0, ys)
    for k, (y, (x, P)) in enumerate(zip(ys, want)):
        prior = bank.mu
        bank, out = imm.imm_step(bank, y, None)
        checks.close(out.x, x, f"imm-generic collapse: x at cycle {k + 1}")
        checks.close(out.P, P, f"imm-generic collapse: P at cycle {k + 1}")
        checks.close(out.mu, prior, f"imm-generic collapse: mu at cycle {k + 1}", scale=1.0)


def _ekf_cycle(state, y, model, noise):
    return ekf.update(ekf.predict(state, None, model, noise), y, None, model, noise)


def _pct_errors(est: np.ndarray, truth: np.ndarray) -> np.ndarray:
    return 100.0 * (est - truth) / truth


def _rms(errors: list[np.ndarray]) -> float:
    return math.sqrt(float(np.mean(np.concatenate(errors) ** 2)))


def imm_generic(seed: int, seconds: float, tracer, clock) -> Outcome:
    rng = np.random.default_rng([seed, 4])
    sets = [[draw_block(rng) for _ in range(BLOCKS)] for _ in range(SETS)]
    outcome = Outcome()
    latencies, kf_latencies = [], []
    errors = {"imm_wind": [], "imm_cp": [], "kf_wind": []}
    clock.setup_done()
    pc = time.perf_counter
    for r in rounds(seconds, SETS):
        blocks = sets[r % SETS]
        traced = tracer is not None and r % 2 == 1
        recs = [checks.ImmRecord(CYCLES, MODES, 2) for _ in blocks]
        ok = np.ones((BLOCKS, CYCLES), dtype=bool)
        timed_calls = []
        samples = []
        with tracing.timed(tracer if traced else None):
            t_round = pc()
            for bi, block in enumerate(blocks):
                bank = block.bank()
                rec = recs[bi]
                for k, y in enumerate(block.ys):
                    try:
                        new_bank, out = imm.imm_step(bank, y, None)
                    except NumericalError:
                        ok[bi, k] = False
                        continue
                    if k % LATENCY_STRIDE == 0:
                        timed_calls.append(functools.partial(imm.imm_step, bank, y, None))
                    rec.store(k, new_bank, out)
                    if k % STAGE_STRIDE == 0:
                        samples.append((bank, out.mu, new_bank.mu))
                    bank = new_bank
            wall = SPEED.interval(t_round, pc())
        n_cycles = BLOCKS * CYCLES
        outcome.failed += int((~ok).sum())
        outcome.add_round(wall, traced, n_cycles, n_cycles, n_cycles)
        if traced:
            tracing.stage_calls(tracer, samples)
        latencies.append(call_latencies(timed_calls))

        timed_calls = []
        kf_v = np.empty((BLOCKS, CYCLES))
        for bi, block in enumerate(blocks):
            state = ekf.EstimatorState(*block.states0[0])
            model = block.models[0]
            for k, y in enumerate(block.ys):
                if k % LATENCY_STRIDE == 0:
                    timed_calls.append(functools.partial(_ekf_cycle, state, y, model, block.noise))
                state, _ = _ekf_cycle(state, y, model, block.noise)
                kf_v[bi, k] = state.x[1]
        kf_latencies.append(call_latencies(timed_calls))

        for bi, (block, rec) in enumerate(zip(blocks, recs)):
            if not ok[bi].all():
                continue
            what = f"imm-generic set {r % SETS} block {bi}"
            checks.check_invariants(rec, block.transition, what, has_cp=False)
            checks.check_oracle(block.models, block.noise, block.bank(),
                                block.ys[:ORACLE_STEPS], [None] * ORACLE_STEPS, rec, what)
            if r < SETS:
                tail = slice(SETTLE, None)
                hidden = block.truth[tail, 1]
                errors["imm_wind"].append(_pct_errors(rec.x[tail, 1], hidden))
                errors["imm_cp"].append(_pct_errors(rec.mu[tail] @ block.pole, block.pole[block.modes[tail]]))
                errors["kf_wind"].append(_pct_errors(kf_v[bi, tail], hidden))

    _check_collapse(sets[0][0])
    require(bool(errors["imm_wind"]), "imm-generic: every block had a failed cycle")
    latencies, kf_latencies = np.concatenate(latencies), np.concatenate(kf_latencies)
    outcome.e2e.update(
        wall_s=float(np.median(outcome.wall_untraced)),
        imm_cycle_p50_us=float(np.percentile(latencies, 50)) * 1e6,
        imm_cycle_p90_us=float(np.percentile(latencies, 90)) * 1e6,
        ekf_cycle_p50_us=float(np.percentile(kf_latencies, 50)) * 1e6,
        **{f"{key}_rmse_pct": _rms(errs) for key, errs in errors.items()},
    )
    return outcome
