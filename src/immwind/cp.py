"""Power-coefficient surfaces Cp(lambda, theta).

Two interchangeable base maps are provided: an analytic surrogate with
an exact dCp/dlambda, and a rectangular-grid lookup with bilinear
interpolation.  A surface is read through one pitch-fixed lookup,
``at_pitch(theta)``, which holds the clamp rules: inputs are clamped to
the surface bounds, the caller's additive offset is added, and the
value is clamped to [0, CP_CEILING].
"""

from __future__ import annotations

import bisect
import csv
import functools
import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

CP_CEILING = 0.593  # Betz limit

_DEG_PER_RAD = 180.0 / math.pi

# Surrogate coefficients c1..c6 of the widely used exponential Cp fit.
_C1 = 0.5176
_C2 = 116.0
_C3 = 0.4
_C4 = 5.0
_C5 = 21.0
_C6 = 0.0068


class CpSurface:
    """A base map Cp0(lambda, theta) on the box ``lam_bounds`` x ``theta_bounds``.

    Subclasses give ``at_pitch``, the map's lookup at one pitch.
    """

    lam_bounds: tuple[float, float]
    theta_bounds: tuple[float, float]

    def at_pitch(self, theta: float) -> CpAtPitch:
        """Lookups of the base map at the pitch ``theta`` (radians), clamped once."""
        raise NotImplementedError

    def evaluate(self, lam: float, theta: float, offset: float = 0.0) -> float:
        """Cp at (lam, theta) under ``offset``, with the clamp rules of ``CpAtPitch``."""
        return self.at_pitch(theta).eval_with_dlam(lam, offset)[0]


class CpAtPitch:
    """A surface's base map at one pitch, and the clamp rules, in one place.

    The pitch is clamped to the surface's bounds when the lookup is
    made.  ``eval_with_dlam(lam, offset)`` is (Cp, dCp/dlam) and
    ``evaluate_offsets(lam, offsets)`` the Cp under each offset: lambda
    is clamped to its bounds, the offset added and the value clamped to
    [0, CP_CEILING].  dCp/dlam is taken before the value clamp and is
    zero where lambda lies outside its bounds.

    Subclasses bind the base map at the clamped pitch (``_bind``) and
    give its (value, dCp/dlam) at a lambda inside the bounds (``_base_at``).
    """

    __slots__ = ("_lam_bounds",)

    def __init__(self, surface: CpSurface, theta: float) -> None:
        th_lo, th_hi = surface.theta_bounds
        self._lam_bounds = surface.lam_bounds
        self._bind(surface, th_lo if theta < th_lo else th_hi if theta > th_hi else theta)

    def _bind(self, surface: CpSurface, theta: float) -> None:
        raise NotImplementedError

    def _base_at(self, lam: float) -> tuple[float, float]:
        raise NotImplementedError

    def eval_with_dlam(self, lam: float, offset: float) -> tuple[float, float]:
        lam_lo, lam_hi = self._lam_bounds
        lam_out = lam < lam_lo or lam > lam_hi
        val, d_lam = self._base_at(lam_lo if lam < lam_lo else lam_hi if lam_out else lam)
        val += offset
        return (
            0.0 if val < 0.0 else CP_CEILING if val > CP_CEILING else val,
            0.0 if lam_out else d_lam,
        )

    def evaluate_offsets(self, lam: float, offsets) -> list[float]:
        lam_lo, lam_hi = self._lam_bounds
        base = self._base_at(lam_lo if lam < lam_lo else lam_hi if lam > lam_hi else lam)[0]
        values = []
        for offset in offsets:
            val = base + offset
            values.append(0.0 if val < 0.0 else CP_CEILING if val > CP_CEILING else val)
        return values


class _AnalyticAtPitch(CpAtPitch):
    """``CpAtPitch`` of the surrogate: the pitch's terms, formed once."""

    __slots__ = ("_theta_shift", "_theta_pole", "_theta_slope")

    def _bind(self, surface: AnalyticCpSurface, theta: float) -> None:
        theta_deg = theta * _DEG_PER_RAD
        self._theta_shift = 0.08 * theta_deg
        self._theta_pole = 0.035 / (theta_deg**3 + 1.0)
        self._theta_slope = _C3 * theta_deg

    def _base_at(self, lam: float) -> tuple[float, float]:
        denom = lam + self._theta_shift
        g = 1.0 / denom - self._theta_pole  # g = 1/lambda_i
        a = _C2 * g - self._theta_slope - _C4
        e = math.exp(-_C5 * g)
        common = _C2 - _C5 * a  # d/dg of a*exp(-c5 g) divided by exp(-c5 g)
        return _C1 * (a * e) + _C6 * lam, _C1 * e * (-1.0 / denom**2) * common + _C6


class _GridAtPitch(CpAtPitch):
    """``CpAtPitch`` of a grid: the pitch's column of the cell table and its
    weight across the cell, found once; a lookup is one lambda bisection
    and one fetch."""

    __slots__ = ("_lam_axis", "_lam_hi", "_column", "_u")

    def _bind(self, grid: GridCpSurface, theta: float) -> None:
        lam_axis, lam_hi, theta_axis, theta_hi, columns = grid._search
        column = columns[bisect.bisect_right(theta_axis, theta, 1, theta_hi) - 1]
        _, _, theta0, theta_w = column[0][:4]
        self._lam_axis = lam_axis
        self._lam_hi = lam_hi
        self._column = column
        self._u = (theta - theta0) / theta_w

    def _base_at(self, lam: float) -> tuple[float, float]:
        lam0, lam_w, _, _, a0, da, b0, db, c0, dc, e0, de = self._column[
            bisect.bisect_right(self._lam_axis, lam, 1, self._lam_hi) - 1
        ]
        t = (lam - lam0) / lam_w
        u = self._u
        a = a0 + t * da
        c = c0 + t * dc
        return a + u * (b0 + t * db - a), c + u * (e0 + t * de - c)


@dataclass(frozen=True)
class AnalyticCpSurface(CpSurface):
    """Exponential Cp surrogate with an analytic dCp/dlambda.

    Cp0(lam, theta) = c1*(c2/li - c3*theta_deg - c4)*exp(-c5/li) + c6*lam
    with 1/li = 1/(lam + 0.08*theta_deg) - 0.035/(theta_deg^3 + 1) and
    theta supplied in radians.
    """

    lam_bounds: tuple[float, float] = (0.5, 20.0)
    theta_bounds: tuple[float, float] = (0.0, math.radians(35.0))

    def __post_init__(self) -> None:
        lam_lo, lam_hi = self.lam_bounds
        th_lo, th_hi = self.theta_bounds
        if not (lam_lo < lam_hi and th_lo < th_hi):
            raise ValueError("surface bounds must be non-empty intervals")
        # guard the 1/(lam + 0.08*theta_deg) pole over the whole domain
        if lam_lo + 0.08 * th_lo * _DEG_PER_RAD <= 1e-9:
            raise ValueError("lambda lower bound too close to the surrogate pole")

    def at_pitch(self, theta: float) -> CpAtPitch:
        return _AnalyticAtPitch(self, theta)

    def to_grid(self, lam_axis: np.ndarray, theta_axis: np.ndarray) -> GridCpSurface:
        """Sample the base map onto a grid, at pitches clamped to ``theta_bounds``."""
        lam_axis = np.asarray(lam_axis, dtype=float)
        theta_axis = np.asarray(theta_axis, dtype=float)
        lookups = [self.at_pitch(theta) for theta in theta_axis.tolist()]
        values = [[at._base_at(lam)[0] for at in lookups] for lam in lam_axis.tolist()]
        return GridCpSurface(lam_axis, theta_axis, np.array(values))


@dataclass(frozen=True, eq=False)
class GridCpSurface(CpSurface):
    """Bilinear interpolation on a rectangular (lambda, theta) grid.

    ``theta_axis`` is stored in radians; the axes and values are stored
    as read-only arrays.  dCp/dlambda interpolates a nodal derivative
    grid obtained by central differences (one-sided at the edges), so
    it agrees with plain grid differences at the nodes and varies
    continuously in between.

    A lookup finds its cell by one bisection per axis and fetches the
    cell's entry from a table built with the surface, held as one
    column of cells per pitch interval so that ``at_pitch`` finds its
    column once: the entry holds the cell's lambda and theta origins and
    widths, then for the values and for dCp/dlambda in turn, the
    corners at the cell's lower and upper theta, each with its
    difference across the cell in lambda.  The interpolation
    a + u (b - a), a and b the corners plus t times their differences,
    is the plain bilinear form over the four nodes, bit for bit.
    """

    lam_axis: np.ndarray
    theta_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        lam = np.array(self.lam_axis, dtype=float)
        theta = np.array(self.theta_axis, dtype=float)
        vals = np.array(self.values, dtype=float)
        if lam.ndim != 1 or theta.ndim != 1 or lam.size < 2 or theta.size < 2:
            raise ValueError("grid axes must be 1-D with at least two points")
        if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(theta))):
            raise ValueError("grid axes must be finite")
        for name, axis in (("lam_axis", lam), ("theta_axis", theta)):
            with np.errstate(over="ignore"):  # a span past the largest double
                spacing = np.diff(axis)
            if not np.all(spacing > 0):
                raise ValueError("grid axes must be strictly increasing")
            if not np.all(np.isfinite(spacing)):
                raise ValueError(f"grid axis {name} spacing must be finite")
        if vals.shape != (lam.size, theta.size):
            raise ValueError(
                f"value matrix shape {vals.shape} does not match axes "
                f"({lam.size}, {theta.size})"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must be finite")
        with np.errstate(all="ignore"):  # spacings near a double's limits; checked below
            d_lam = np.gradient(vals, lam, axis=0)
        if not np.all(np.isfinite(d_lam)):
            raise ValueError(
                "grid dCp/dlambda must be finite: lam_axis spacing is too fine for the values"
            )
        for name, array in (("lam_axis", lam), ("theta_axis", theta), ("values", vals)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        lam_list, theta_list = lam.tolist(), theta.tolist()
        object.__setattr__(self, "lam_bounds", (lam_list[0], lam_list[-1]))
        object.__setattr__(self, "theta_bounds", (theta_list[0], theta_list[-1]))
        object.__setattr__(self, "_search", (
            lam_list, lam.size - 1, theta_list, theta.size - 1,
            _cell_table(lam, theta, (vals, d_lam)),
        ))

    def at_pitch(self, theta: float) -> CpAtPitch:
        return _GridAtPitch(self, theta)

    @classmethod
    def constant(cls, value: float) -> GridCpSurface:
        """Flat surface Cp == value over lambda [0, 30], theta [0, 45 deg] (handy in tests)."""
        lam_axis = np.array([0.0, 30.0])
        theta_axis = np.array([0.0, math.radians(45.0)])
        return cls(lam_axis, theta_axis, np.full((2, 2), float(value)))

    @classmethod
    def from_csv(cls, path: str | Path) -> GridCpSurface:
        """Load a grid from CSV; every error names the file.

        Layout: first row is the pitch axis in degrees (its first cell is
        ignored), first column of subsequent rows is the tip-speed-ratio
        axis, the body holds Cp values.
        """
        path = Path(path)
        with path.open(newline="", encoding="utf-8") as fh:
            rows = [(line, row) for line, row in enumerate(csv.reader(fh), 1) if row]
        if len(rows) < 3 or len(rows[0][1]) < 3:
            raise ValueError(f"{path}: need at least a 2x2 grid plus axes")
        width = len(rows[0][1])
        for line, row in rows[1:]:
            if len(row) != width:
                raise ValueError(
                    f"{path}: ragged Cp table: row {line} has {len(row)} cells, "
                    f"the pitch header {width}"
                )
        try:
            theta_deg = [float(c) for c in rows[0][1][1:]]
            lam_axis = [float(row[0]) for _, row in rows[1:]]
            values = [[float(c) for c in row[1:]] for _, row in rows[1:]]
        except ValueError as exc:
            raise ValueError(f"{path}: non-numeric cell in Cp table: {exc}") from exc
        try:
            return cls(lam_axis, np.radians(theta_deg), values)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

    def to_csv(self, path: str | Path) -> None:
        """Write the grid in the layout accepted by ``from_csv``."""
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([""] + np.degrees(self.theta_axis).tolist())
            writer.writerows(
                [lam] + row
                for lam, row in zip(self.lam_axis.tolist(), self.values.tolist())
            )


def _cell_table(lam: np.ndarray, theta: np.ndarray, grids) -> tuple[tuple[tuple, ...], ...]:
    """Entry [j][i]: the ``GridCpSurface`` lookup tuple over ``grids`` of the cell
    of lambda interval i and theta interval j.

    The floats are taken from one ``tolist`` per array, so neighbouring
    cells share their objects.
    """
    lam0, lam_w = lam[:-1].tolist(), np.diff(lam).tolist()
    theta0, theta_w = theta[:-1].tolist(), np.diff(theta).tolist()
    lower = [grid[:-1].tolist() for grid in grids]
    across = [np.diff(grid, axis=0).tolist() for grid in grids]
    rows = []
    for i in range(len(lam0)):
        corners = []
        for grid_lower, grid_across in zip(lower, across):
            a, d = grid_lower[i], grid_across[i]
            corners += (a, d, a[1:], d[1:])
        rows.append(tuple(zip(repeat(lam0[i]), repeat(lam_w[i]), theta0, theta_w, *corners)))
    return tuple(zip(*rows))


@functools.cache
def default_grid_surface() -> GridCpSurface:
    """The analytic surrogate sampled onto the working grid, built once per process.

    lambda runs from 1 to 15 in steps of 0.25, theta from 0 to 30 degrees
    in steps of 0.5 degrees.
    """
    lam_axis = np.arange(1.0, 15.0 + 1e-9, 0.25)
    theta_axis = np.radians(np.arange(0.0, 30.0 + 1e-9, 0.5))
    return AnalyticCpSurface().to_grid(lam_axis, theta_axis)
