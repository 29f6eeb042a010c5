"""Interacting multiple-model estimator over a bank of EKFs.

Each cycle runs four stages: per-filter EKF predict/update, Bayesian
mode-probability update from the Gaussian residual likelihoods,
probability-weighted output combination, and Markov-chain interaction
(mixing).  Mixing executes at the end of a cycle and seeds every
filter's starting state for the next one, so the bank stored between
calls always holds mixed states together with the predicted (prior)
mode probabilities.

Every filter has the EKF's one shape, two states and one measured
channel, and ``imm_step`` runs a cycle over Python floats.  The public
stage functions (``likelihood``, ``update_mode_probs``, ``combine``,
``predict_mode_probs``, ``mixing_weights``, ``mix``) write the same
stages over numpy for callers that take a cycle apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ekf
from .cp import CpSurface
from .errors import NumericalError
from .turbine import TurbineModel, TurbineParameters

MU_FLOOR = 1e-12  # keeps every mode alive and mixing denominators positive


@ekf.float_backed(
    x=lambda filters, mu: np.array([v for x0, x1, _ in filters for v in (x0, x1)]).reshape(-1, 2),
    P=lambda filters, mu: np.array([v for _, _, P in filters for v in P]).reshape(-1, 2, 2),
    mu=lambda filters, mu: np.array(mu),
)
@dataclass(frozen=True, init=False, eq=False)
class ModeBank:
    """Parallel filters plus the Markov machinery tying them together.

    The filters' states are stored stacked: ``x`` is (m, 2) and ``P``
    is (m, 2, 2), row j being filter j.  The constructor takes them as
    per-filter ``states`` or as the stacked ``x`` and ``P`` (which is
    how ``dataclasses.replace`` passes them); either way the new bank
    is validated.  ``mu`` holds the prior mode probabilities for the
    next measurement.  ``underflow_count`` counts the
    cycles whose likelihoods all underflowed to zero (the probabilities
    are then carried through unchanged).

    A bank that ``imm_step`` returns holds ``_floats`` = (filters, mu),
    with one (x0, x1, P) per filter, P a row-major 4-tuple, and builds
    ``x``, ``P`` and ``mu`` when they are read.
    """

    models: tuple
    x: np.ndarray
    P: np.ndarray
    mu: np.ndarray
    transition: np.ndarray
    noise: ekf.NoiseModel
    underflow_count: int = 0

    def __init__(
        self, models, states=None, mu=None, transition=None, noise=None,
        *, x=None, P=None, underflow_count=0,
    ):
        if mu is None or transition is None or noise is None:
            raise TypeError("ModeBank needs mu, transition and noise")
        if states is not None:
            if x is not None or P is not None:
                raise TypeError("ModeBank takes per-filter states or stacked x and P, not both")
            x, P = _stacked(states)
        elif x is None or P is None:
            raise TypeError("ModeBank needs per-filter states or stacked x and P")
        models = tuple(models)
        transition = np.array(transition, dtype=float)
        # what every bank that imm_step derives from this one shares with it
        fixed = dict(
            models=models,
            transition=transition,
            noise=noise,
            _cp_base=_shared_cp_base(models),
            _columns=tuple(zip(*transition.tolist())),  # column j: pi_ij over i
        )
        vars(self).update(
            fixed,
            _fixed=fixed,
            x=np.array(x, dtype=float),
            P=np.array(P, dtype=float),
            mu=np.array(mu, dtype=float).reshape(-1),
            underflow_count=underflow_count,
        )
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate a caller-built bank; ``imm_step`` derives the next one unchecked."""
        mu, pi, x = self.mu, self.transition, self.x
        for name in ("x", "P", "mu", "transition"):
            value = getattr(self, name)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"ModeBank.{name} must be finite, got {value}")
        m = len(self.models)
        if m == 0 or mu.size != m:
            raise ValueError("models, states and mu must have matching length >= 1")
        if x.shape != (m, 2) or self.P.shape != (m, 2, 2):
            raise ValueError(
                f"stacked x {x.shape} and P {self.P.shape} must be ({m}, 2) and ({m}, 2, 2)"
            )
        if np.any(mu < 0.0) or abs(float(mu.sum()) - 1.0) > 1e-12:
            raise ValueError(f"mode probabilities must lie on the simplex, got {mu}")
        if pi.shape != (m, m) or np.any(pi < 0.0):
            raise ValueError("transition matrix must be m x m with nonnegative entries")
        if np.any(np.abs(pi.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError(f"every transition-matrix row must sum to 1, got {pi}")
        if type(self.underflow_count) is not int or self.underflow_count < 0:
            raise ValueError(f"underflow_count must be an int >= 0, got {self.underflow_count!r}")

    @property
    def states(self) -> tuple[ekf.EstimatorState, ...]:
        """Per-filter view of the stacked state, built on each access."""
        return tuple(map(ekf.EstimatorState, self.x, self.P))

    def _advanced(self, underflowed: bool, floats) -> ModeBank:
        """The next cycle's bank, derived from this validated one, holding
        ``floats`` = (filters, mu)."""
        new = object.__new__(ModeBank)
        vars(new).update(
            self._fixed, _fixed=self._fixed,
            underflow_count=self.underflow_count + int(underflowed), _floats=floats,
        )
        return new

    def _mode_name(self, j: int) -> str:
        model = self.models[j]
        if isinstance(model, TurbineModel):
            return f"mode {j} (Cp offset {model.offset:+g})"
        return f"mode {j}"


def _shared_cp_base(models) -> tuple[TurbineModel, tuple[float, ...]] | None:
    """(first model, each mode's Cp offset) when every mode is a turbine model
    and the modes differ in their offset alone, so that they share one lookup.

    Surfaces compare by value, a grid's by identity.
    """
    if models and all(
        isinstance(m, TurbineModel) and m.params == models[0].params and m.cp == models[0].cp
        for m in models
    ):
        return models[0], tuple(m.offset for m in models)
    return None


@ekf.float_backed(
    x=lambda x0, x1, P, mu: np.array((x0, x1)),
    P=lambda x0, x1, P, mu: np.array(P).reshape(2, 2),
    mu=lambda x0, x1, P, mu: np.array(mu),
)
@dataclass(frozen=True, eq=False)
class ImmOutput:
    """Combined estimate, covariance, posterior mode probabilities, Cp.

    ``_floats`` is (x0, x1, P, mu), P a row-major 4-tuple and mu a list.
    """

    x: np.ndarray
    P: np.ndarray
    mu: np.ndarray
    cp_estimate: float


def likelihood(z, S) -> float:
    """Gaussian likelihood (2 pi S)^(-1/2) exp(-z^2 / 2S) of a one-channel residual z,
    each of z and S a float or a size-1 array."""
    z = np.asarray(z, dtype=float).item()
    s = np.asarray(S, dtype=float).item()
    if not s > 0.0:
        raise NumericalError(f"innovation covariance S={s} is not positive")
    # z * z overflows to inf where z ** 2 raises
    return math.exp(-0.5 * z * z / s) / math.sqrt(2.0 * math.pi * s)


def update_mode_probs(mu: np.ndarray, likelihoods: np.ndarray) -> np.ndarray:
    """Bayes update of the mode probabilities, floored and renormalised.

    If every weighted likelihood underflows to zero the prior is
    returned unchanged (the caller counts these events).
    """
    mu = np.asarray(mu, dtype=float)
    lam = np.asarray(likelihoods, dtype=float)
    weighted = mu * lam
    total = float(weighted.sum())
    if not total > 0.0:
        return mu.copy()
    post = weighted / total
    post = np.maximum(post, MU_FLOOR)
    return post / post.sum()


def _stacked(states) -> tuple[np.ndarray, np.ndarray]:
    """Per-filter states as stacked arrays x (m, 2) and P (m, 2, 2)."""
    states = tuple(states)
    return np.array([s.x for s in states]), np.array([s.P for s in states])


def _mix_arrays(xs: np.ndarray, Ps: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    xm = w.T @ xs  # (m, 2), row j = mixed state of filter j
    d = xm[None, :, :] - xs[:, None, :]  # d[i, j] = x_mixed_j - x_i
    Pm = np.einsum("ij,ikl->jkl", w, Ps) + np.einsum("ij,ijk,ijl->jkl", w, d, d)
    return xm, 0.5 * (Pm + Pm.transpose(0, 2, 1))


def combine(
    states: tuple[ekf.EstimatorState, ...] | list[ekf.EstimatorState], mu: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Probability-weighted mean and spread-corrected covariance.

    This is mixing with the single weight column ``mu``.
    """
    x, P = _mix_arrays(*_stacked(states), np.asarray(mu, dtype=float)[:, None])
    return x[0], P[0]


def predict_mode_probs(transition: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Prior mode probabilities for the next cycle: mu'_j = sum_i pi_ij mu_i."""
    return np.asarray(transition, dtype=float).T @ np.asarray(mu, dtype=float)


def mixing_weights(
    transition: np.ndarray, mu: np.ndarray, mu_prior_next: np.ndarray
) -> np.ndarray:
    """W[i, j] = pi_ij mu_i / mu'_j; every column sums to one."""
    pi = np.asarray(transition, dtype=float)
    mu = np.asarray(mu, dtype=float)
    denom = np.asarray(mu_prior_next, dtype=float)
    if np.any(denom <= 0.0):
        raise NumericalError(f"predicted mode probabilities contain zeros: {denom}")
    return pi * mu[:, None] / denom[None, :]


def mix(
    states: tuple[ekf.EstimatorState, ...] | list[ekf.EstimatorState],
    weights: np.ndarray,
) -> tuple[ekf.EstimatorState, ...]:
    """Re-seed every filter with the weight-mixed state and covariance."""
    xm, Pm = _mix_arrays(*_stacked(states), np.asarray(weights, dtype=float))
    return tuple(map(ekf.EstimatorState, xm, Pm))


def estimate_cp(bank: ModeBank, x: np.ndarray, pitch: float, mu=None) -> float:
    """Probability-weighted Cp of the mode surfaces at the combined state.

    Uses the bank's stored probabilities unless ``mu`` is supplied
    (``imm_step`` passes the posterior of the current cycle).  Each
    mode's Cp is ``TurbineModel.cp_at``, which raises the state to the
    domain floors; modes that differ in their offset alone share one
    lookup.  Returns NaN when the bank's models are not turbine models.
    """
    if mu is None:
        mu = bank.mu
    if bank._cp_base is not None:
        model, offsets = bank._cp_base
        values = model.cp_at_offsets(float(x[0]), float(x[1]), model.cp.at_pitch(pitch), offsets)
    elif all(isinstance(m, TurbineModel) for m in bank.models):
        values = [model.cp_at(x, pitch) for model in bank.models]
    else:
        return math.nan
    total = 0.0
    for w, cp in zip(mu, values):
        total += float(w) * cp
    return total


def _mix2(w, posts) -> tuple[float, float, tuple[float, float, float, float]]:
    """Weight-mixed state and spread-corrected covariance of 2-state filters.

    ``posts`` holds (x0, x1, P) per filter, P a symmetric row-major
    4-tuple; the mixed P is symmetric by construction.
    """
    x0 = x1 = 0.0
    for wi, (a0, a1, _) in zip(w, posts):
        x0 += wi * a0
        x1 += wi * a1
    p00 = p01 = p11 = 0.0
    for wi, (a0, a1, (q00, q01, _, q11)) in zip(w, posts):
        d0 = a0 - x0
        d1 = a1 - x1
        p00 += wi * (q00 + d0 * d0)
        p01 += wi * (q01 + d0 * d1)
        p11 += wi * (q11 + d1 * d1)
    return x0, x1, (p00, p01, p01, p11)


def imm_step(bank: ModeBank, y, u) -> tuple[ModeBank, ImmOutput]:
    """One full IMM cycle over Python floats; returns the next bank and the combined output.

    ``y`` is a float or a size-1 array.  The paper's bank, turbine
    filters on one base Cp map, runs each filter on the turbine's
    structure and finds the pitch's place on that map once per cycle,
    for the filters and the Cp estimate alike; any other bank runs the
    general 2x2 steps.  A failing filter raises NumericalError naming
    its mode; the caller's bank value is untouched.
    """
    y = ekf.scalar_measurement(y)
    Q = bank.noise.q_entries
    r = bank.noise.R.item()
    floats = vars(bank).get("_floats")
    if floats is None:  # a bank built by its constructor
        filters = [
            (x0, x1, (*P0, *P1)) for (x0, x1), (P0, P1) in zip(bank.x.tolist(), bank.P.tolist())
        ]
        mu = bank.mu.tolist()
    else:
        filters, mu = floats
    shared = bank._cp_base
    if shared is not None:
        cp_model, offsets = shared
        cp_at = cp_model.cp.at_pitch(u.pitch)
        torque = u.torque
    exp, sqrt, two_pi = math.exp, math.sqrt, 2.0 * math.pi
    posts, weighted = [], []
    for j, (model, (x0, x1, P)) in enumerate(zip(bank.models, filters)):
        try:
            if shared is not None:  # F = [[f00, f01], [0, 1]] and H = (1, 0)
                x0, x1, P, z, S = ekf.turbine_cycle(model, x0, x1, P, y, torque, cp_at, Q, r)
            else:
                f0, f1, *F = ekf.transition2(model, x0, x1, u)
                P = ekf.propagate2(P, F, Q)
                h, h0, h1 = ekf.measurement2(model, f0, f1, u)
                z = y - h
                x0, x1, P, S = ekf.correct2(f0, f1, P, z, h0, h1, r)
        except NumericalError as exc:
            raise NumericalError(f"{bank._mode_name(j)}: {exc}") from exc
        posts.append((x0, x1, P))
        weighted.append(mu[j] * (exp(-0.5 * z * z / S) / sqrt(two_pi * S)))  # likelihood inline
    # Bayes: floored posterior, or the prior carried over if every likelihood underflowed
    total = sum(weighted)
    underflow = not total > 0.0
    if underflow:
        post = mu
    else:  # loops, not comprehensions, which build a frame per call before Python 3.12
        floored = []
        for w in weighted:
            p = w / total
            floored.append(MU_FLOOR if MU_FLOOR > p else p)  # max(p, MU_FLOOR)
        total = sum(floored)
        post = []
        for p in floored:
            post.append(p / total)

    xc0, xc1, P_c = _mix2(post, posts)  # combination: one weight column
    if shared is None:
        cp_hat = estimate_cp(bank, (xc0, xc1), getattr(u, "pitch", 0.0), mu=post)
    else:  # estimate_cp on the cycle's pitch lookup
        cp_hat = 0.0
        for w, cp in zip(post, cp_model.cp_at_offsets(xc0, xc1, cp_at, offsets)):
            cp_hat += w * cp

    # Markov prediction and mixing, one transition-matrix column per mode
    prior, mixed = [], []
    for column in bank._columns:
        joint = []
        for p, q in zip(column, post):
            joint.append(p * q)  # pi_ij mu_i
        total = sum(joint)
        if not total > 0.0:
            prior = [sum(p * q for p, q in zip(col, post)) for col in bank._columns]
            raise NumericalError(f"predicted mode probabilities contain zeros: {prior}")
        prior.append(total)
        weights = []
        for w in joint:
            weights.append(w / total)
        mixed.append(_mix2(weights, posts))
    out = ImmOutput._of_floats((xc0, xc1, P_c, post), cp_estimate=cp_hat)
    return bank._advanced(underflow, (mixed, prior)), out


def build_cp_mode_bank(
    params: TurbineParameters,
    cp_nominal: CpSurface,
    delta_cp: float,
    noise: ekf.NoiseModel,
    x0: np.ndarray,
    P0: np.ndarray,
    transition: np.ndarray,
    mu0: np.ndarray,
) -> ModeBank:
    """Three turbine filters with Cp offsets (0, +delta_cp, -delta_cp)."""
    offsets = (0.0, +float(delta_cp), -float(delta_cp))
    models = tuple(TurbineModel(params, cp_nominal, d) for d in offsets)
    state0 = ekf.EstimatorState(x0, P0)
    mu0 = np.asarray(mu0, dtype=float)
    return ModeBank(
        models=models,
        states=(state0,) * len(offsets),
        mu=mu0 / mu0.sum(),
        transition=np.asarray(transition, dtype=float),
        noise=noise,
    )


def symmetric_transition(m: int, stay: float) -> np.ndarray:
    """m x m transition matrix with ``stay`` on the diagonal."""
    if not 0.0 < stay <= 1.0:
        raise ValueError(f"stay probability must be in (0, 1], got {stay}")
    if m == 1:
        return np.array([[1.0]])
    off = (1.0 - stay) / (m - 1)
    pi = np.full((m, m), off)
    np.fill_diagonal(pi, stay)
    return pi
