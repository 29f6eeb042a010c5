"""Discrete-time extended Kalman filter over an abstract model.

A model is any object with ``f(x, u)``, ``h(x, u)``, ``jac_f(x, u)`` and
``jac_h(x, u)``; state dimension is inferred from the arrays, so the
same code serves the 2-state turbine filters and the low-dimensional
models used in tests.  Filter state is a value: ``predict`` and
``update`` return new states and never mutate their inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError


@dataclass(frozen=True, eq=False)
class EstimatorState:
    """State estimate and its error covariance."""

    x: np.ndarray
    P: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float).reshape(-1)
        P = np.asarray(self.P, dtype=float)
        if P.shape != (x.size, x.size):
            raise ValueError(f"covariance shape {P.shape} does not match state {x.size}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "P", P)


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Process covariance Q and measurement covariance R."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self) -> None:
        Q = np.atleast_2d(np.array(self.Q, dtype=float))
        R = np.atleast_2d(np.array(self.R, dtype=float))
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        for name, M in (("Q", Q), ("R", R)):
            if M.shape[0] != M.shape[1]:
                raise ValueError(f"{name} must be square, got {M.shape}")
            if not np.allclose(M, M.T, rtol=0.0, atol=1e-12 * (1 + np.abs(M).max())):
                raise ValueError(f"{name} must be symmetric")
        if np.any(np.linalg.eigvalsh(Q) < -1e-10 * max(np.trace(Q), 1e-300)):
            raise ValueError("Q must be positive semidefinite")
        try:
            np.linalg.cholesky(R)
        except np.linalg.LinAlgError as exc:
            raise ValueError("R must be strictly positive definite") from exc


@dataclass(frozen=True, eq=False)
class UpdateReport:
    """Residual, innovation covariance and gain from one measurement update."""

    residual: np.ndarray
    innovation_cov: np.ndarray
    gain: np.ndarray


@functools.cache  # np.eye(n) costs about as much as a small update's matrix products
def _identity(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def check_positive_definite(S: np.ndarray) -> None:
    """Raise NumericalError unless S, or every matrix in a stack S, is positive definite."""
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"innovation covariance is not positive definite: S={S}") from exc


def propagate(F: np.ndarray, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Predicted covariance F P F' + Q, symmetrised; leading axes batch filters."""
    P = F @ P @ F.mT + Q
    return 0.5 * (P + P.mT)


def correct(
    x: np.ndarray, P: np.ndarray, z: np.ndarray, H: np.ndarray, R: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Correction by residual z; returns (x, P, S, gain); leading axes batch filters.

    Raises NumericalError when an innovation covariance S is not positive definite.
    """
    S = H @ P @ H.mT + R
    if S.shape[-1] == 1:
        for s in S.ravel().tolist():
            if not s > 0.0:
                raise NumericalError(f"innovation covariance S={s} is not positive")
        L = (P @ H.mT) / S
        x = x + L[..., 0] * z
    else:
        check_positive_definite(S)
        L = P @ H.mT @ np.linalg.inv(S)
        x = x + (L @ z[..., None])[..., 0]
    P = (_identity(x.shape[-1]) - L @ H) @ P
    return x, 0.5 * (P + P.mT), S, L


def predict(state: EstimatorState, u, model, noise: NoiseModel) -> EstimatorState:
    """Time update: propagate the estimate through f and grow P."""
    F = model.jac_f(state.x, u)
    x = np.asarray(model.f(state.x, u), dtype=float).reshape(-1)
    return EstimatorState(x, propagate(F, state.P, noise.Q))


def update(
    state: EstimatorState, y, u, model, noise: NoiseModel
) -> tuple[EstimatorState, UpdateReport]:
    """Measurement update; raises NumericalError when S is not invertible."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    H = model.jac_h(state.x, u)
    z = y - np.asarray(model.h(state.x, u), dtype=float).reshape(-1)
    x, P, S, L = correct(state.x, state.P, z, H, noise.R)
    return EstimatorState(x, P), UpdateReport(z, S, L)
