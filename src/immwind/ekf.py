"""Discrete-time extended Kalman filter with two states and one measured channel.

A model is any object with ``f(x, u)``, ``h(x, u)``, ``jac_f(x, u)`` and
``jac_h(x, u)``.  The paper's filters have two states and one measured
channel, and that is the only shape: ``EstimatorState`` and
``NoiseModel`` reject any other.  Filter state is a value: ``predict``
and ``update`` return new states and never mutate their inputs.

The steps run over Python floats, where numpy's per-call overhead would
outweigh the 2x2 arithmetic: a turbine filter on steps written out for
the turbine's structure (``propagate_walk`` for F = [[f00, f01], [0, 1]],
``correct_first`` for H = (1, 0)), any other model on general 2x2
algebra (``transition2``, ``measurement2``, ``propagate2``,
``correct2``); ``turbine_cycle`` is the turbine filter's whole cycle.
The records the steps return hold their floats and build their ndarray
fields only when those are read (``float_backed``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .turbine import OMEGA_FLOOR, V_FLOOR, TurbineModel, drivetrain_step


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
    """State estimate x, shape (2,), and its error covariance P, shape (2, 2).

    A state that ``predict`` or ``update`` returns holds ``_floats`` =
    (x0, x1, P), P a row-major 4-tuple.
    """

    x: np.ndarray
    P: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        P = np.asarray(self.P, dtype=float)
        if x.shape != (2,):
            raise ValueError(f"state shape {x.shape} is not (2,)")
        if P.shape != (2, 2):
            raise ValueError(f"covariance shape {P.shape} is not (2, 2)")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "P", P)


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Process covariance Q, 2x2, and measurement covariance R, 1x1."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self) -> None:
        Q = np.atleast_2d(np.array(self.Q, dtype=float))
        R = np.atleast_2d(np.array(self.R, dtype=float))
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        if Q.shape != (2, 2):
            raise ValueError(f"Q shape {Q.shape} is not (2, 2)")
        if R.shape != (1, 1):
            raise ValueError(f"R shape {R.shape} is not (1, 1)")
        if not np.allclose(Q, Q.T, rtol=0.0, atol=1e-12 * (1 + np.abs(Q).max())):
            raise ValueError("Q must be symmetric")
        if np.any(np.linalg.eigvalsh(Q) < -1e-10 * max(np.trace(Q), 1e-300)):
            raise ValueError("Q must be positive semidefinite")
        if not R.item() > 0.0:
            raise ValueError("R must be strictly positive definite")

    @functools.cached_property
    def q_entries(self) -> tuple[float, ...]:
        """Q's entries in row-major order, as floats."""
        return tuple(self.Q.ravel().tolist())


@float_backed(
    residual=lambda z, S: np.array((z,)),
    innovation_cov=lambda z, S: np.array(((S,),)),
)
@dataclass(frozen=True, eq=False)
class UpdateReport:
    """Residual and innovation covariance from one measurement update.

    A report that ``update`` returns holds ``_floats`` = (residual, S).
    """

    residual: np.ndarray
    innovation_cov: np.ndarray


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

    Returns (x0, x1, P, S).  Raises NumericalError when the
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
    return x0, x1, (u00, off, off, u11), S


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
    return x0, x1, (u00, off, off, u11), S


def turbine_cycle(
    model: TurbineModel, x0: float, x1: float, P, y: float, torque: float, cp_at, Q, r: float
):
    """``predict`` then ``update`` of a turbine filter, ``cp_at`` = ``cp.at_pitch(pitch)``
    and Q a row-major 4-tuple: the corrected (x0, x1, P), the residual z and its S.

    The state is raised to the floors as ``TurbineModel.f_and_jac`` raises it,
    written out here to save that call in every filter's step."""
    f1 = V_FLOOR if V_FLOOR > x1 else x1
    f0, _, _, f00, f01 = drivetrain_step(
        model.params, OMEGA_FLOOR if OMEGA_FLOOR > x0 else x0, f1, torque, cp_at, model.offset
    )
    z = y - f0
    x0, x1, P, S = correct_first(f0, f1, propagate_walk(P, f00, f01, Q), z, r)
    return x0, x1, P, z, S


def scalar_measurement(y) -> float:
    """A one-channel measurement given as a float or a size-1 array."""
    if type(y) is float:
        return y
    y = np.asarray(y, dtype=float)
    if y.size != 1:
        raise ValueError(f"a one-channel filter takes one measurement, got {y.size}")
    return y.item()


# -- value-style filter steps ---------------------------------------------


def _state_floats(state: EstimatorState):
    """(x0, x1, P) of a filter state, P a row-major 4-tuple."""
    floats = vars(state).get("_floats")
    if floats is None:  # a state built by its constructor
        floats = (*state.x.tolist(), tuple(state.P.ravel().tolist()))
    return floats


def predict(state: EstimatorState, u, model, noise: NoiseModel) -> EstimatorState:
    """Time update: propagate the estimate through f and grow P."""
    x0, x1, P = _state_floats(state)
    if type(model) is TurbineModel:
        f0, f1, f00, f01 = model.f_and_jac(x0, x1, u.torque, model.cp.at_pitch(u.pitch))
        P = propagate_walk(P, f00, f01, noise.q_entries)
    else:
        f0, f1, *F = transition2(model, x0, x1, u)
        P = propagate2(P, F, noise.q_entries)
    return EstimatorState._of_floats((f0, f1, P))


def update(
    state: EstimatorState, y, u, model, noise: NoiseModel
) -> tuple[EstimatorState, UpdateReport]:
    """Measurement update; raises NumericalError when S is not positive or
    the corrected state or covariance is not finite."""
    x0, x1, P = _state_floats(state)
    y = scalar_measurement(y)
    if type(model) is TurbineModel:
        z = y - x0  # a turbine model measures its first state
        x0, x1, P, S = correct_first(x0, x1, P, z, noise.R.item())
    else:
        h, h0, h1 = measurement2(model, x0, x1, u)
        z = y - h
        x0, x1, P, S = correct2(x0, x1, P, z, h0, h1, noise.R.item())
    return EstimatorState._of_floats((x0, x1, P)), UpdateReport._of_floats((z, S))
