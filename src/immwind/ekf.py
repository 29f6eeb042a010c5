"""Discrete-time extended Kalman filter over an abstract model.

A model is any object with ``f(x, u)``, ``h(x, u)``, ``jac_f(x, u)`` and
``jac_h(x, u)``; state dimension is inferred from the arrays, so the
same code serves the 2-state turbine filters and the low-dimensional
models used in tests.  Filter state is a value: ``predict`` and
``update`` return new states and never mutate their inputs.

The paper's filters have two states and one measured channel.  That
shape runs on a kernel over Python floats, where numpy's per-call
overhead would outweigh the 2x2 arithmetic: a turbine filter on steps
written out for the turbine's structure (``propagate_walk`` for
F = [[f00, f01], [0, 1]], ``correct_first`` for H = (1, 0)), any other
model on general 2x2 algebra (``transition2``, ``measurement2``,
``propagate2``, ``correct2``).  Every other shape runs on the batched
numpy kernel (``propagate``, ``correct``).  The records the float
kernel returns hold its floats and build their ndarray fields only
when those are read (``float_backed``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .turbine import TurbineModel


class _FromFloats:
    """An ndarray field that a record made by the float kernel builds from
    its floats when the field is first read, and then keeps.

    A non-data descriptor: a record that holds the field itself, as one
    built by its constructor does, never reaches it.
    """

    def __init__(self, name: str, build) -> None:
        self.name = name
        self.build = build

    def __get__(self, record, owner=None):
        if record is None:
            return self
        array = self.build(*record._floats)
        array.setflags(write=False)  # so it cannot drift from the floats
        vars(record)[self.name] = array
        return array


def float_backed(**arrays):
    """Class decorator, placed above ``@dataclass``, for the records the float kernel makes.

    ``cls._of_floats(floats, **fields)`` makes a record that holds the
    kernel's floats in ``_floats`` and the given other fields; each
    field named in ``arrays`` is built by ``arrays[name](*floats)``
    when first read, as a read-only array.
    """

    def of_floats(cls, floats, **fields):
        record = object.__new__(cls)
        vars(record).update(fields, _floats=floats)
        return record

    def decorate(cls):
        for name, build in arrays.items():
            setattr(cls, name, _FromFloats(name, build))
        cls._of_floats = classmethod(of_floats)
        return cls

    return decorate


@float_backed(
    x=lambda x0, x1, P: np.array((x0, x1)),
    P=lambda x0, x1, P: np.array(P).reshape(2, 2),
)
@dataclass(frozen=True, eq=False)
class EstimatorState:
    """State estimate and its error covariance.

    On the float kernel ``_floats`` is (x0, x1, P), P a row-major 4-tuple.
    """

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

    @functools.cached_property
    def q_entries(self) -> tuple[float, ...]:
        """Q's entries in row-major order, as floats."""
        return tuple(self.Q.ravel().tolist())


@float_backed(
    residual=lambda z, S, l0, l1: np.array((z,)),
    innovation_cov=lambda z, S, l0, l1: np.array(((S,),)),
    gain=lambda z, S, l0, l1: np.array(((l0,), (l1,))),
)
@dataclass(frozen=True, eq=False)
class UpdateReport:
    """Residual, innovation covariance and gain from one measurement update.

    On the float kernel ``_floats`` is (residual, S, gain0, gain1).
    """

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


# -- two states, one measured channel: the kernel over Python floats ------


def is_scalar2(x: np.ndarray, R: np.ndarray) -> bool:
    """Whether a filter with state(s) x and measurement covariance R has the float kernel's shape."""
    return x.shape[-1] == 2 and R.shape == (1, 1)


def transition2(model, x0: float, x1: float, u) -> tuple[float, ...]:
    """f(x) and F of a 2-state model at x = (x0, x1): (f0, f1, F00, F01, F10, F11)."""
    x = np.array((x0, x1))
    f = np.asarray(model.f(x, u), dtype=float).reshape(2).tolist()
    return (*f, *np.asarray(model.jac_f(x, u), dtype=float).reshape(4).tolist())


def measurement2(model, x0: float, x1: float, u) -> tuple[float, float, float]:
    """h(x) and H's row of a 2-state, one-channel model at x = (x0, x1): (h, H0, H1)."""
    x = np.array((x0, x1))
    h = np.asarray(model.h(x, u), dtype=float).reshape(1).tolist()
    return (*h, *np.asarray(model.jac_h(x, u), dtype=float).reshape(2).tolist())


def propagate2(P, F, Q) -> tuple[float, float, float, float]:
    """F P F' + Q, symmetrised, for 2x2 matrices given as row-major 4-tuples."""
    p00, p01, p10, p11 = P
    f00, f01, f10, f11 = F
    q00, q01, q10, q11 = Q
    a00 = f00 * p00 + f01 * p10  # A = F P
    a01 = f00 * p01 + f01 * p11
    a10 = f10 * p00 + f11 * p10
    a11 = f10 * p01 + f11 * p11
    off = 0.5 * ((a00 * f10 + a01 * f11 + q01) + (a10 * f00 + a11 * f01 + q10))
    return a00 * f00 + a01 * f01 + q00, off, off, a10 * f10 + a11 * f11 + q11


def correct2(x0: float, x1: float, P, z: float, h0: float, h1: float, r: float):
    """Correction of a 2-state filter by a scalar residual z; P is a row-major 4-tuple.

    Returns (x0, x1, P, S, L0, L1).  Raises NumericalError when the
    innovation covariance S is not positive or the corrected state or
    covariance is not finite.
    """
    p00, p01, p10, p11 = P
    c0 = p00 * h0 + p01 * h1  # P H'
    c1 = p10 * h0 + p11 * h1
    S = h0 * c0 + h1 * c1 + r
    if not S > 0.0:
        raise NumericalError(f"innovation covariance S={S} is not positive")
    l0 = c0 / S
    l1 = c1 / S
    x0 = x0 + l0 * z
    x1 = x1 + l1 * z
    m00 = 1.0 - l0 * h0  # I - L H
    m01 = -(l0 * h1)
    m10 = -(l1 * h0)
    m11 = 1.0 - l1 * h1
    u00 = m00 * p00 + m01 * p10
    u11 = m10 * p01 + m11 * p11
    off = 0.5 * ((m00 * p01 + m01 * p11) + (m10 * p00 + m11 * p10))
    isfinite = math.isfinite
    if not (isfinite(x0) and isfinite(x1) and isfinite(u00) and isfinite(off) and isfinite(u11)):
        raise NumericalError(
            f"state or covariance is not finite after the correction: "
            f"x=({x0}, {x1}), P=({u00}, {off}, {u11})"
        )
    return x0, x1, (u00, off, off, u11), S, l0, l1


# -- the turbine's structure: F's bottom row is (0, 1), H = (1, 0) --------
#
# Each step equals its general counterpart above with those entries put
# in, bit for bit, for finite input whose off-diagonal entries of P and Q
# are not -0.0 (filters never make one): a product by 0 or 1 is dropped
# only where the sum it enters is unchanged by it.


def propagate_walk(P, f00: float, f01: float, Q) -> tuple[float, float, float, float]:
    """``propagate2`` for F = [[f00, f01], [0, 1]], whose second state F carries through."""
    p00, p01, p10, p11 = P
    q00, q01, q10, q11 = Q
    a00 = f00 * p00 + f01 * p10  # the top row of F P; its bottom row is P's
    a01 = f00 * p01 + f01 * p11
    off = 0.5 * ((a01 + q01) + (p10 * f00 + p11 * f01 + q10))
    return a00 * f00 + a01 * f01 + q00, off, off, p11 + q11


def correct_first(x0: float, x1: float, P, z: float, r: float):
    """``correct2`` for H = (1, 0), a measurement of the first state."""
    p00, p01, p10, p11 = P
    S = p00 + r
    if not S > 0.0:
        raise NumericalError(f"innovation covariance S={S} is not positive")
    l0 = p00 / S
    l1 = p10 / S
    x0 = x0 + l0 * z
    x1 = x1 + l1 * z
    m00 = 1.0 - l0
    u00 = m00 * p00
    u11 = p11 - l1 * p01
    off = 0.5 * (m00 * p01 + (p10 - l1 * p00))
    isfinite = math.isfinite
    if not (isfinite(x0) and isfinite(x1) and isfinite(u00) and isfinite(off) and isfinite(u11)):
        raise NumericalError(
            f"state or covariance is not finite after the correction: "
            f"x=({x0}, {x1}), P=({u00}, {off}, {u11})"
        )
    return x0, x1, (u00, off, off, u11), S, l0, l1


def scalar_measurement(y) -> float:
    """A one-channel measurement given as a float or a size-1 array."""
    if type(y) is float:
        return y
    y = np.asarray(y, dtype=float)
    if y.size != 1:
        raise ValueError(f"a one-channel filter takes one measurement, got {y.size}")
    return y.item()


# -- value-style filter steps ---------------------------------------------


# A single filter takes the float kernel, on the turbine's structure, for a
# turbine model measuring one channel; a generic model's f, jac_f, h and
# jac_h build arrays anyway, so a single filter on one keeps the numpy kernel.


def _kernel_floats(state: EstimatorState, noise: NoiseModel):
    """(x0, x1, P) of a turbine filter that runs on the float kernel, else None."""
    if noise.R.shape != (1, 1):
        return None
    floats = vars(state).get("_floats")
    if floats is None and state.x.shape == (2,):  # a state built by its constructor
        floats = (*state.x.tolist(), state.P.ravel().tolist())
    return floats


def predict(state: EstimatorState, u, model, noise: NoiseModel) -> EstimatorState:
    """Time update: propagate the estimate through f and grow P."""
    floats = _kernel_floats(state, noise) if type(model) is TurbineModel else None
    if floats is not None:
        x0, x1, P = floats
        f0, f1, f00, f01 = model.f_and_jac(x0, x1, u.torque, model.cp.at_pitch(u.pitch))
        return EstimatorState._of_floats((f0, f1, propagate_walk(P, f00, f01, noise.q_entries)))
    x = state.x
    F = model.jac_f(x, u)
    x = np.asarray(model.f(x, u), dtype=float).reshape(-1)
    return EstimatorState(x, propagate(F, state.P, noise.Q))


def update(
    state: EstimatorState, y, u, model, noise: NoiseModel
) -> tuple[EstimatorState, UpdateReport]:
    """Measurement update; raises NumericalError when S is not positive
    definite and, on the float kernel, when the corrected state or
    covariance is not finite."""
    floats = _kernel_floats(state, noise) if type(model) is TurbineModel else None
    if floats is not None:
        x0, x1, P = floats
        z = scalar_measurement(y) - x0  # a turbine model measures its first state
        x0, x1, P, S, l0, l1 = correct_first(x0, x1, P, z, noise.R.item())
        return EstimatorState._of_floats((x0, x1, P)), UpdateReport._of_floats((z, S, l0, l1))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    x = state.x
    H = model.jac_h(x, u)
    z = y - np.asarray(model.h(x, u), dtype=float).reshape(-1)
    x, P, S, L = correct(x, state.P, z, H, noise.R)
    return EstimatorState(x, P), UpdateReport(z, S, L)
