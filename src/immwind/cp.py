"""Power-coefficient surfaces Cp(lambda, theta).

Two interchangeable representations are provided: an analytic surrogate
with exact partial derivatives, and a rectangular-grid lookup with
bilinear interpolation.  Both carry an additive scalar offset and clamp
their inputs to the surface bounds; evaluated values are clamped to
[0, CP_CEILING].
"""

from __future__ import annotations

import bisect
import csv
import functools
import math
from dataclasses import dataclass, fields
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
    """Common evaluation contract for Cp surfaces.

    Subclasses implement ``_base_value`` and ``_base_with_partials`` on
    the un-offset base map at inputs already clamped to the bounds.  The
    public methods, and the pitch-fixed lookups of ``at_pitch``, hold
    the clamp rules: inputs are clamped to the bounds, the offset is
    added and the value is clamped to [0, CP_CEILING]; partials are
    taken before the value clamp and forced to zero in any direction
    whose input clamp engaged.
    """

    offset: float
    lam_bounds: tuple[float, float]
    theta_bounds: tuple[float, float]

    def _base_value(self, lam: float, theta: float) -> float:
        raise NotImplementedError

    def _base_with_partials(self, lam: float, theta: float) -> tuple[float, float, float]:
        raise NotImplementedError

    def _clamped_base(self, lam: float, theta: float) -> float:
        lam_lo, lam_hi = self.lam_bounds
        th_lo, th_hi = self.theta_bounds
        return self._base_value(
            lam_lo if lam < lam_lo else lam_hi if lam > lam_hi else lam,
            th_lo if theta < th_lo else th_hi if theta > th_hi else theta,
        )

    def evaluate(self, lam: float, theta: float, extra_offset: float = 0.0) -> float:
        """Cp at (lam, theta) after input clamping, offset and value clamp.

        ``extra_offset`` is added on top of the surface's own offset; it
        lets a caller probe a shifted surface without constructing one.
        """
        val = self._clamped_base(lam, theta) + self.offset + extra_offset
        return 0.0 if val < 0.0 else CP_CEILING if val > CP_CEILING else val

    def shares_base(self, other: CpSurface) -> bool:
        """Whether ``other`` differs from this surface in its offset alone."""
        return type(other) is type(self) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
            if f.name != "offset"
        )

    def partials(self, lam: float, theta: float) -> tuple[float, float]:
        """(dCp/dlam, dCp/dtheta) with theta in radians, as in ``eval_with_partials``."""
        return self.eval_with_partials(lam, theta)[1:]

    def eval_with_partials(self, lam: float, theta: float) -> tuple[float, float, float]:
        """(value, dCp/dlam, dCp/dtheta): one fused lookup for Jacobians.

        The value equals ``evaluate``; the partials are evaluated before
        the value clamp and are zero in a direction whose input lies
        outside the bounds.
        """
        lam_lo, lam_hi = self.lam_bounds
        th_lo, th_hi = self.theta_bounds
        lam_out = lam < lam_lo or lam > lam_hi
        theta_out = theta < th_lo or theta > th_hi
        val, d_lam, d_theta = self._base_with_partials(
            lam_lo if lam < lam_lo else lam_hi if lam_out else lam,
            th_lo if theta < th_lo else th_hi if theta_out else theta,
        )
        val += self.offset
        return (
            0.0 if val < 0.0 else CP_CEILING if val > CP_CEILING else val,
            0.0 if lam_out else d_lam,
            0.0 if theta_out else d_theta,
        )

    def at_pitch(self, theta: float) -> CpAtPitch:
        """Lookups of this surface's base map at the pitch ``theta``, clamped once.

        The lookup takes the offset per call, so one serves every
        surface that differs from this one in its offset alone.
        """
        return CpAtPitch(self, theta)

    def with_offset(self, delta: float) -> CpSurface:
        """Copy of this surface with ``delta`` added to its offset.

        The copy shares this surface's base map and everything built
        from it, such as a grid's cell table.
        """
        copy = object.__new__(type(self))
        vars(copy).update(vars(self), offset=self.offset + delta)
        return copy


class CpAtPitch:
    """Lookups of a surface's base map at one pitch, clamped to the bounds once.

    ``eval_with_dlam(lam, offset)`` is (Cp, dCp/dlam) and
    ``evaluate_offsets(lam, offsets)`` the Cp under each offset, at
    (lam, pitch) on the surface with this base map and the given offset
    in place of its own: equal bit for bit to ``eval_with_partials``'s
    first two entries and to ``evaluate`` on that surface.
    """

    __slots__ = ("_surface", "_theta", "_lam_bounds")

    def __init__(self, surface: CpSurface, theta: float) -> None:
        th_lo, th_hi = surface.theta_bounds
        self._surface = surface
        self._theta = th_lo if theta < th_lo else th_hi if theta > th_hi else theta
        self._lam_bounds = surface.lam_bounds

    def _base_at(self, lam: float) -> tuple[float, float]:
        """(base value, dCp/dlam) at a lambda already clamped to the bounds."""
        return self._surface._base_with_partials(lam, self._theta)[:2]

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


class _GridAtPitch(CpAtPitch):
    """``CpAtPitch`` of a grid: the pitch's column of the cell table and its
    weight across the cell, found once; a lookup is one lambda bisection
    and one fetch."""

    __slots__ = ("_lam_axis", "_lam_hi", "_column", "_u")

    def __init__(self, grid: GridCpSurface, theta: float) -> None:
        lam_axis, lam_hi, theta_axis, theta_hi, columns = grid._search
        th_lo, th_hi = grid.theta_bounds
        theta = th_lo if theta < th_lo else th_hi if theta > th_hi else theta
        column = columns[bisect.bisect_right(theta_axis, theta, 1, theta_hi) - 1]
        _, _, theta0, theta_w = column[0][:4]
        self._lam_bounds = grid.lam_bounds
        self._lam_axis = lam_axis
        self._lam_hi = lam_hi
        self._column = column
        self._u = (theta - theta0) / theta_w

    def _base_at(self, lam: float) -> tuple[float, float]:
        lam0, lam_w, _, _, a0, da, b0, db, c0, dc, e0, de, _, _, _, _ = self._column[
            bisect.bisect_right(self._lam_axis, lam, 1, self._lam_hi) - 1
        ]
        t = (lam - lam0) / lam_w
        u = self._u
        a = a0 + t * da
        c = c0 + t * dc
        return a + u * (b0 + t * db - a), c + u * (e0 + t * de - c)


@dataclass(frozen=True)
class AnalyticCpSurface(CpSurface):
    """Exponential Cp surrogate with analytic partial derivatives.

    Cp0(lam, theta) = c1*(c2/li - c3*theta_deg - c4)*exp(-c5/li) + c6*lam
    with 1/li = 1/(lam + 0.08*theta_deg) - 0.035/(theta_deg^3 + 1) and
    theta supplied in radians.
    """

    offset: float = 0.0
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

    def _terms(self, lam: float, theta: float) -> tuple[float, float, float, float, float]:
        theta_deg = theta * _DEG_PER_RAD
        denom = lam + 0.08 * theta_deg
        g = 1.0 / denom - 0.035 / (theta_deg**3 + 1.0)  # g = 1/lambda_i
        a = _C2 * g - _C3 * theta_deg - _C4
        return theta_deg, denom, g, a, math.exp(-_C5 * g)

    def _base_value(self, lam: float, theta: float) -> float:
        _, _, _, a, e = self._terms(lam, theta)
        return _C1 * (a * e) + _C6 * lam

    def _base_with_partials(self, lam: float, theta: float) -> tuple[float, float, float]:
        theta_deg, denom, g, a, e = self._terms(lam, theta)
        dg_dlam = -1.0 / denom**2
        dg_dtheta_deg = -0.08 / denom**2 + 0.105 * theta_deg**2 / (theta_deg**3 + 1.0) ** 2
        common = _C2 - _C5 * a  # d/dg of a*exp(-c5 g) divided by exp(-c5 g)
        d_lam = _C1 * e * dg_dlam * common + _C6
        d_theta_deg = _C1 * e * (dg_dtheta_deg * common - _C3)
        return _C1 * (a * e) + _C6 * lam, d_lam, d_theta_deg * _DEG_PER_RAD

    def to_grid(self, lam_axis: np.ndarray, theta_axis: np.ndarray) -> GridCpSurface:
        """Sample the base map onto a grid (offset is carried over)."""
        lam_axis = np.asarray(lam_axis, dtype=float)
        theta_axis = np.asarray(theta_axis, dtype=float)
        values = np.array(
            [[self._base_value(l, t) for t in theta_axis] for l in lam_axis]
        )
        return GridCpSurface(lam_axis, theta_axis, values, offset=self.offset)


@dataclass(frozen=True, eq=False)
class GridCpSurface(CpSurface):
    """Bilinear interpolation on a rectangular (lambda, theta) grid.

    ``theta_axis`` is stored in radians; the axes and values are stored
    as read-only arrays.  Partials interpolate nodal derivative grids
    obtained by central differences (one-sided at the edges), so they
    agree with plain grid differences at the nodes and vary
    continuously in between.

    A lookup finds its cell by one bisection per axis and fetches the
    cell's entry from a table built once per base map (``with_offset``
    copies share it), held as one column of cells per pitch interval so
    that ``at_pitch`` finds its column once: the entry holds the cell's
    lambda and theta origins and widths,
    then for the values, the lambda partials and the theta partials in
    turn, the corners at the cell's lower and upper theta, each with its
    difference across the cell in lambda.  The interpolation
    a + u (b - a), a and b the corners plus t times their differences,
    is the plain bilinear form over the four nodes, bit for bit.
    """

    lam_axis: np.ndarray
    theta_axis: np.ndarray
    values: np.ndarray
    offset: float = 0.0

    def __post_init__(self) -> None:
        lam = np.array(self.lam_axis, dtype=float)
        theta = np.array(self.theta_axis, dtype=float)
        vals = np.array(self.values, dtype=float)
        if lam.ndim != 1 or theta.ndim != 1 or lam.size < 2 or theta.size < 2:
            raise ValueError("grid axes must be 1-D with at least two points")
        if not (np.all(np.diff(lam) > 0) and np.all(np.diff(theta) > 0)):
            raise ValueError("grid axes must be strictly increasing")
        if vals.shape != (lam.size, theta.size):
            raise ValueError(
                f"value matrix shape {vals.shape} does not match axes "
                f"({lam.size}, {theta.size})"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must be finite")
        for name, array in (("lam_axis", lam), ("theta_axis", theta), ("values", vals)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        lam_list, theta_list = lam.tolist(), theta.tolist()
        object.__setattr__(self, "lam_bounds", (lam_list[0], lam_list[-1]))
        object.__setattr__(self, "theta_bounds", (theta_list[0], theta_list[-1]))
        grids = (vals, np.gradient(vals, lam, axis=0), np.gradient(vals, theta, axis=1))
        object.__setattr__(self, "_search", (
            lam_list, lam.size - 1, theta_list, theta.size - 1, _cell_table(lam, theta, grids)
        ))

    def _cell(self, lam: float, theta: float) -> tuple[float, ...]:
        """The table entry of the cell holding (lam, theta); the edge cells extend outward."""
        lam_axis, lam_hi, theta_axis, theta_hi, columns = self._search
        return columns[bisect.bisect_right(theta_axis, theta, 1, theta_hi) - 1][
            bisect.bisect_right(lam_axis, lam, 1, lam_hi) - 1
        ]

    def at_pitch(self, theta: float) -> CpAtPitch:
        return _GridAtPitch(self, theta)

    def _base_value(self, lam: float, theta: float) -> float:
        lam0, lam_w, theta0, theta_w, a0, da, b0, db = self._cell(lam, theta)[:8]
        t = (lam - lam0) / lam_w
        u = (theta - theta0) / theta_w
        a = a0 + t * da
        return a + u * (b0 + t * db - a)

    def _base_with_partials(self, lam: float, theta: float) -> tuple[float, float, float]:
        lam0, lam_w, theta0, theta_w, a0, da, b0, db, c0, dc, e0, de, g0, dg, h0, dh = (
            self._cell(lam, theta)
        )
        t = (lam - lam0) / lam_w
        u = (theta - theta0) / theta_w
        a = a0 + t * da
        c = c0 + t * dc
        g = g0 + t * dg
        return a + u * (b0 + t * db - a), c + u * (e0 + t * de - c), g + u * (h0 + t * dh - g)

    @classmethod
    def constant(cls, value: float) -> GridCpSurface:
        """Flat surface Cp == value over lambda [0, 30], theta [0, 45 deg] (handy in tests)."""
        lam_axis = np.array([0.0, 30.0])
        theta_axis = np.array([0.0, math.radians(45.0)])
        return cls(lam_axis, theta_axis, np.full((2, 2), float(value)))

    @classmethod
    def from_csv(cls, path: str | Path) -> GridCpSurface:
        """Load a grid from CSV.

        Layout: first row is the pitch axis in degrees (its first cell is
        ignored), first column of subsequent rows is the tip-speed-ratio
        axis, the body holds Cp values.
        """
        path = Path(path)
        with path.open(newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row]
        if len(rows) < 3 or len(rows[0]) < 3:
            raise ValueError(f"{path}: need at least a 2x2 grid plus axes")
        try:
            theta_deg = np.array([float(c) for c in rows[0][1:]])
            lam_axis = np.array([float(row[0]) for row in rows[1:]])
            values = np.array([[float(c) for c in row[1:]] for row in rows[1:]])
        except ValueError as exc:
            raise ValueError(f"{path}: non-numeric cell in Cp table: {exc}") from exc
        return cls(lam_axis, np.radians(theta_deg), values)

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
