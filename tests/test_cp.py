import bisect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from immwind import AnalyticCpSurface, GridCpSurface
from immwind.cp import CP_CEILING, default_grid_surface


def quad_grid():
    """Small grid with a known quadratic: Cp = 0.4 - 0.005 (lam-7)^2 - 0.2 theta."""
    lam = np.linspace(2.0, 12.0, 21)
    theta = np.radians(np.linspace(0.0, 20.0, 11))
    values = 0.4 - 0.005 * (lam[:, None] - 7.0) ** 2 - 0.2 * theta[None, :]
    return GridCpSurface(lam, theta, values)


class TestGridEvaluation:
    def test_node_identity(self):
        surf = quad_grid()
        for i in (0, 5, 20):
            for j in (0, 4, 10):
                lam = float(surf.lam_axis[i])
                th = float(surf.theta_axis[j])
                assert surf.evaluate(lam, th) == pytest.approx(surf.values[i, j], abs=1e-15)

    def test_offset_is_additive_away_from_clamps(self):
        surf = quad_grid()
        shifted = surf.with_offset(0.03)
        rng = np.random.default_rng(1)
        for _ in range(50):
            lam = rng.uniform(2.0, 12.0)
            th = rng.uniform(0.0, math.radians(20.0))
            assert shifted.evaluate(lam, th) == pytest.approx(
                surf.evaluate(lam, th) + 0.03, abs=1e-14
            )

    def test_extra_offset_matches_with_offset(self):
        surf = quad_grid()
        assert surf.evaluate(7.3, 0.1, 0.02) == pytest.approx(
            surf.with_offset(0.02).evaluate(7.3, 0.1), abs=1e-15
        )

    def test_clamp_beyond_bounds_equals_edge(self):
        surf = quad_grid()
        assert surf.evaluate(99.0, 0.1) == surf.evaluate(12.0, 0.1)
        assert surf.evaluate(-3.0, 0.1) == surf.evaluate(2.0, 0.1)
        assert surf.evaluate(5.0, 2.0) == surf.evaluate(5.0, float(surf.theta_axis[-1]))

    def test_value_clamped_to_betz_window(self):
        high = GridCpSurface.constant(0.58).with_offset(0.2)
        assert high.evaluate(5.0, 0.1) == CP_CEILING
        low = GridCpSurface.constant(0.02).with_offset(-0.2)
        assert low.evaluate(5.0, 0.1) == 0.0

    def test_plus_minus_offsets_symmetric_about_nominal(self):
        surf = quad_grid()
        up = surf.with_offset(0.04)
        down = surf.with_offset(-0.04)
        rng = np.random.default_rng(2)
        for _ in range(50):
            lam = rng.uniform(2.5, 11.5)
            th = rng.uniform(0.0, math.radians(18.0))
            base = surf.evaluate(lam, th)
            assert up.evaluate(lam, th) - base == pytest.approx(
                base - down.evaluate(lam, th), abs=1e-14
            )


class TestGridPartials:
    def test_interior_partials_match_quadratic(self):
        surf = quad_grid()
        # central differences reproduce the derivative of a quadratic exactly
        d_lam, d_theta = surf.partials(7.5, math.radians(10.0))
        assert d_lam == pytest.approx(-0.005 * 2 * 0.5, rel=1e-10)
        assert d_theta == pytest.approx(-0.2, rel=1e-10)

    def test_partials_zero_outside_bounds(self):
        surf = quad_grid()
        assert surf.partials(13.0, 0.1)[0] == 0.0
        assert surf.partials(5.0, -0.2)[1] == 0.0
        # the in-bounds direction is still live
        assert surf.partials(13.0, 0.1)[1] != 0.0

    def test_partials_unaffected_by_value_clamp(self):
        surf = quad_grid().with_offset(1.0)  # value clamps to the ceiling everywhere
        assert surf.evaluate(7.5, 0.1) == CP_CEILING
        d_lam, d_theta = surf.partials(7.5, math.radians(10.0))
        assert d_lam == pytest.approx(-0.005, rel=1e-10)
        assert d_theta == pytest.approx(-0.2, rel=1e-10)

    def test_eval_with_partials_consistent(self):
        surf = quad_grid()
        rng = np.random.default_rng(3)
        for _ in range(30):
            lam = rng.uniform(1.0, 13.0)
            th = rng.uniform(-0.1, 0.5)
            val, dl, dt = surf.eval_with_partials(lam, th)
            assert val == surf.evaluate(lam, th)
            assert (dl, dt) == surf.partials(lam, th)


class TestAnalyticSurface:
    def test_peak_location_and_value(self, analytic_surface):
        lams = np.linspace(2.0, 14.0, 2401)
        vals = [analytic_surface.evaluate(float(l), 0.0) for l in lams]
        best = int(np.argmax(vals))
        assert lams[best] == pytest.approx(8.1, abs=0.01)
        assert vals[best] == pytest.approx(0.48, abs=0.001)

    def test_partials_match_finite_differences(self, analytic_surface):
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(300):
            lam = rng.uniform(2.0, 14.0)
            th = rng.uniform(0.0, math.radians(20.0))
            fd_l = (
                analytic_surface._base_value(lam + h, th)
                - analytic_surface._base_value(lam - h, th)
            ) / (2 * h)
            fd_t = (
                analytic_surface._base_value(lam, th + h)
                - analytic_surface._base_value(lam, th - h)
            ) / (2 * h)
            _, dl, dt = analytic_surface._base_with_partials(lam, th)
            assert dl == pytest.approx(fd_l, rel=1e-5, abs=1e-9)
            assert dt == pytest.approx(fd_t, rel=1e-5, abs=1e-9)

    def test_grid_sampling_tracks_analytic(self, analytic_surface, grid_surface):
        rng = np.random.default_rng(5)
        # tight where the plant operates: the zero-pitch line and pitched runs
        for lam in np.linspace(3.0, 14.5, 200):
            assert grid_surface.evaluate(float(lam), 0.0) == pytest.approx(
                analytic_surface.evaluate(float(lam), 0.0), abs=1e-3
            )
        for _ in range(100):
            lam = rng.uniform(3.0, 14.5)
            th = rng.uniform(math.radians(2.0), math.radians(28.0))
            assert grid_surface.evaluate(lam, th) == pytest.approx(
                analytic_surface.evaluate(lam, th), abs=3e-3
            )
        # the surrogate's theta^3 term is strongly curved below ~1.5 deg,
        # so the 0.5 deg sampling is only loosely faithful there
        for _ in range(50):
            lam = rng.uniform(3.0, 14.5)
            th = rng.uniform(0.0, math.radians(2.0))
            assert grid_surface.evaluate(lam, th) == pytest.approx(
                analytic_surface.evaluate(lam, th), abs=5e-2
            )

    def test_pole_guard_rejected(self):
        with pytest.raises(ValueError):
            AnalyticCpSurface(lam_bounds=(0.0, 10.0), theta_bounds=(0.0, 0.5))


class TestGridValidation:
    def test_non_monotonic_axis(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            GridCpSurface(np.array([1.0, 0.5, 2.0]), np.array([0.0, 0.1]), np.zeros((3, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match axes"):
            GridCpSurface(np.array([1.0, 2.0]), np.array([0.0, 0.1]), np.zeros((3, 2)))

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least two points"):
            GridCpSurface(np.array([1.0]), np.array([0.0, 0.1]), np.zeros((1, 2)))

    def test_non_finite_values(self):
        vals = np.zeros((2, 2))
        vals[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            GridCpSurface(np.array([1.0, 2.0]), np.array([0.0, 0.1]), vals)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        surf = quad_grid()
        path = tmp_path / "cp.csv"
        surf.to_csv(path)
        loaded = GridCpSurface.from_csv(path)
        np.testing.assert_allclose(loaded.lam_axis, surf.lam_axis, rtol=0, atol=1e-15)
        np.testing.assert_allclose(loaded.theta_axis, surf.theta_axis, rtol=0, atol=1e-15)
        np.testing.assert_allclose(loaded.values, surf.values, rtol=0, atol=1e-15)

    def test_layout_first_row_is_pitch_in_degrees(self, tmp_path):
        surf = quad_grid()
        path = tmp_path / "cp.csv"
        surf.to_csv(path)
        first = path.read_text(encoding="utf-8").splitlines()[0].split(",")
        assert first[0] == ""
        assert float(first[1]) == pytest.approx(0.0)
        assert float(first[-1]) == pytest.approx(20.0)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",0,5\n1,0.4,0.4\n2,oops,0.4\n", encoding="utf-8")
        with pytest.raises(ValueError, match="non-numeric"):
            GridCpSurface.from_csv(path)

    def test_too_small_table(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text(",0\n1,0.4\n", encoding="utf-8")
        with pytest.raises(ValueError, match="2x2"):
            GridCpSurface.from_csv(path)


def test_default_grid_surface_bounds():
    surf = default_grid_surface()
    assert surf.lam_bounds == (1.0, 15.0)
    assert surf.theta_bounds[1] == pytest.approx(math.radians(30.0))


class TestNonUniformGrid:
    def make(self):
        lam = np.array([1.0, 2.0, 4.0, 7.0, 11.0])
        theta = np.array([0.0, 0.05, 0.15, 0.4])
        values = 0.3 + 0.01 * lam[:, None] - 0.2 * theta[None, :]
        return GridCpSurface(lam, theta, values), lam, theta, values

    def test_node_identity(self):
        surf, lam, theta, values = self.make()
        for i in range(lam.size):
            for j in range(theta.size):
                assert surf.evaluate(float(lam[i]), float(theta[j])) == pytest.approx(
                    values[i, j], abs=1e-14
                )

    def test_partials_match_gradient_at_nodes(self):
        surf, lam, theta, values = self.make()
        d_lam = np.gradient(values, lam, axis=0)
        d_theta = np.gradient(values, theta, axis=1)
        for i in (0, 2, 4):
            for j in (0, 1, 3):
                got = surf.partials(float(lam[i]), float(theta[j]))
                assert got[0] == pytest.approx(d_lam[i, j], rel=1e-10)
                assert got[1] == pytest.approx(d_theta[i, j], rel=1e-10)

    def test_interpolation_linear_inside_cell(self):
        surf, lam, theta, _ = self.make()
        # the plane 0.3 + 0.01 lam - 0.2 theta is reproduced exactly
        assert surf.evaluate(5.5, 0.1) == pytest.approx(0.3 + 0.055 - 0.02, abs=1e-14)


SURFACES = {"analytic": AnalyticCpSurface(), "grid": default_grid_surface()}


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(sorted(SURFACES)),
    lam=st.floats(-5.0, 30.0),
    theta=st.floats(-0.5, 1.0),
    offset=st.floats(-0.7, 0.7),
)
def test_fused_lookup_obeys_the_clamp_rules(kind, lam, theta, offset):
    """One fused lookup equals the separate calls exactly, inside and outside the bounds."""
    surf = SURFACES[kind].with_offset(offset)
    val, d_lam, d_theta = surf.eval_with_partials(lam, theta)
    assert (val, d_lam, d_theta) == (surf.evaluate(lam, theta), *surf.partials(lam, theta))
    assert 0.0 <= val <= CP_CEILING
    lam_lo, lam_hi = surf.lam_bounds
    th_lo, th_hi = surf.theta_bounds
    if not lam_lo <= lam <= lam_hi:
        assert d_lam == 0.0
    if not th_lo <= theta <= th_hi:
        assert d_theta == 0.0


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(sorted(SURFACES)),
    lam=st.floats(-5.0, 30.0),
    theta=st.floats(-0.5, 1.0),
    offsets=st.lists(st.floats(-0.7, 0.7), min_size=1, max_size=4),
)
def test_one_lookup_serves_every_offset(kind, lam, theta, offsets):
    """A pitch-fixed lookup equals ``evaluate`` and ``eval_with_partials`` on the
    surface with the offset it is given, bit for bit, across the clamps."""
    surf = SURFACES[kind].with_offset(0.1)
    at = surf.at_pitch(theta)
    shifted = [SURFACES[kind].with_offset(d) for d in offsets]
    assert hexes(*at.evaluate_offsets(lam, offsets)) == hexes(
        *(s.evaluate(lam, theta) for s in shifted)
    )
    for d, s in zip(offsets, shifted):
        assert hexes(*at.eval_with_dlam(lam, d)) == hexes(*s.eval_with_partials(lam, theta)[:2])
    assert all(surf.shares_base(s) for s in shifted)


def test_shares_base_tells_surfaces_apart():
    grid = default_grid_surface()
    assert grid.shares_base(grid.with_offset(0.04))
    assert not grid.shares_base(AnalyticCpSurface())
    assert not grid.shares_base(quad_grid())
    assert not AnalyticCpSurface().shares_base(AnalyticCpSurface(lam_bounds=(1.0, 20.0)))


def plain_bilinear(lam_axis, theta_axis, grid, lam, theta):
    """Bilinear interpolation over the four nodes of the cell holding (lam, theta)."""
    la, ta, g = lam_axis.tolist(), theta_axis.tolist(), grid.tolist()
    i = min(max(bisect.bisect_right(la, lam) - 1, 0), len(la) - 2)
    j = min(max(bisect.bisect_right(ta, theta) - 1, 0), len(ta) - 2)
    t = (lam - la[i]) / (la[i + 1] - la[i])
    u = (theta - ta[j]) / (ta[j + 1] - ta[j])
    a = g[i][j] + t * (g[i + 1][j] - g[i][j])
    b = g[i][j + 1] + t * (g[i + 1][j + 1] - g[i][j + 1])
    return a + u * (b - a)


def increasing_axis(start, gaps):
    return np.cumsum([start] + gaps)


@st.composite
def grid_and_point(draw):
    """A grid on strictly increasing, non-uniform axes and a point on a node, on the
    top edge, inside or outside the bounds."""
    gaps = st.floats(0.01, 3.0)
    lam = increasing_axis(draw(st.floats(0.0, 5.0)), draw(st.lists(gaps, min_size=1, max_size=7)))
    theta = increasing_axis(draw(st.floats(-0.2, 0.2)),
                            draw(st.lists(gaps, min_size=1, max_size=7)))
    values = np.array(draw(st.lists(
        st.floats(-0.3, 0.9), min_size=lam.size * theta.size, max_size=lam.size * theta.size
    ))).reshape(lam.size, theta.size)
    point = []
    for axis in (lam, theta):
        kind = draw(st.sampled_from(["node", "top", "inside", "outside"]))
        if kind == "node":
            point.append(float(axis[draw(st.integers(0, axis.size - 1))]))
        elif kind == "top":
            point.append(float(axis[-1]))
        elif kind == "inside":
            point.append(draw(st.floats(float(axis[0]), float(axis[-1]))))
        else:
            point.append(draw(st.one_of(
                st.floats(float(axis[0]) - 10.0, float(axis[0]), exclude_max=True),
                st.floats(float(axis[-1]), float(axis[-1]) + 10.0, exclude_min=True),
            )))
    return lam, theta, values, *point


def hexes(*values):
    return [float(v).hex() for v in values]


@settings(max_examples=500, deadline=None)
@given(case=grid_and_point(), offset=st.sampled_from([0.0, 0.04, -0.5]))
@example(case=(np.array([1.0, 2.5, 7.0]), np.array([0.0, 0.1]), np.array([[0.1, 0.2], [0.3, 0.35],
                                                                         [0.2, 0.05]]), 7.0, 0.1),
         offset=0.0)  # the top corner node
def test_cell_table_equals_the_plain_bilinear_form(case, offset):
    """Every lookup of the cell table equals bilinear interpolation over the four
    nodes, and of the nodal derivative grids, bit for bit, clamps included."""
    lam_axis, theta_axis, values, lam, theta = case
    surf = GridCpSurface(lam_axis, theta_axis, values, offset=offset)
    lam_c = min(max(lam, lam_axis[0]), lam_axis[-1])
    theta_c = min(max(theta, theta_axis[0]), theta_axis[-1])
    val = plain_bilinear(lam_axis, theta_axis, values, lam_c, theta_c) + offset
    val = min(max(val, 0.0), CP_CEILING)
    d_lam, d_theta = (
        plain_bilinear(lam_axis, theta_axis, np.gradient(values, axis_, axis=k), lam_c, theta_c)
        for k, axis_ in enumerate((lam_axis, theta_axis))
    )
    d_lam = d_lam if lam == lam_c else 0.0
    d_theta = d_theta if theta == theta_c else 0.0
    assert hexes(surf.evaluate(lam, theta)) == hexes(val)
    assert hexes(*surf.eval_with_partials(lam, theta)) == hexes(val, d_lam, d_theta)
    at = surf.at_pitch(theta)
    assert hexes(*at.eval_with_dlam(lam, offset)) == hexes(val, d_lam)
    assert hexes(*at.evaluate_offsets(lam, [offset])) == hexes(val)


def test_grid_arrays_are_read_only_and_copies_share_the_cell_table():
    values = np.array([[0.1, 0.2], [0.3, 0.4]])
    surf = GridCpSurface([1.0, 2.0], [0.0, 0.1], values)
    values[0, 0] = 0.5  # the surface holds its own copy
    assert surf.values[0, 0] == 0.1
    for array in (surf.lam_axis, surf.theta_axis, surf.values):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    shifted = surf.with_offset(0.05)
    assert shifted._search is surf._search
    assert shifted.evaluate(1.5, 0.05) == surf.evaluate(1.5, 0.05) + 0.05
    assert default_grid_surface() is default_grid_surface()
