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
        rng = np.random.default_rng(1)
        for _ in range(50):
            lam = rng.uniform(2.0, 12.0)
            th = rng.uniform(0.0, math.radians(20.0))
            assert surf.evaluate(lam, th, 0.03) == pytest.approx(
                surf.evaluate(lam, th) + 0.03, abs=1e-14
            )

    def test_offset_matches_a_shifted_base_map(self):
        surf = quad_grid()
        shifted = GridCpSurface(surf.lam_axis, surf.theta_axis, surf.values + 0.02)
        assert surf.evaluate(7.3, 0.1, 0.02) == pytest.approx(
            shifted.evaluate(7.3, 0.1), abs=1e-15
        )

    def test_clamp_beyond_bounds_equals_edge(self):
        surf = quad_grid()
        assert surf.evaluate(99.0, 0.1) == surf.evaluate(12.0, 0.1)
        assert surf.evaluate(-3.0, 0.1) == surf.evaluate(2.0, 0.1)
        assert surf.evaluate(5.0, 2.0) == surf.evaluate(5.0, float(surf.theta_axis[-1]))

    def test_value_clamped_to_betz_window(self):
        assert GridCpSurface.constant(0.58).evaluate(5.0, 0.1, 0.2) == CP_CEILING
        assert GridCpSurface.constant(0.02).evaluate(5.0, 0.1, -0.2) == 0.0

    def test_plus_minus_offsets_symmetric_about_nominal(self):
        surf = quad_grid()
        rng = np.random.default_rng(2)
        for _ in range(50):
            lam = rng.uniform(2.5, 11.5)
            th = rng.uniform(0.0, math.radians(18.0))
            base = surf.evaluate(lam, th)
            assert surf.evaluate(lam, th, 0.04) - base == pytest.approx(
                base - surf.evaluate(lam, th, -0.04), abs=1e-14
            )


def d_lam(surf, lam, theta):
    """dCp/dlambda from the surface's pitch lookup."""
    return surf.at_pitch(theta).eval_with_dlam(lam, 0.0)[1]


class TestGridPartials:
    def test_interior_partials_match_quadratic(self):
        # central differences reproduce the derivative of a quadratic exactly
        assert d_lam(quad_grid(), 7.5, math.radians(10.0)) == pytest.approx(
            -0.005 * 2 * 0.5, rel=1e-10
        )

    def test_partials_zero_outside_bounds(self):
        surf = quad_grid()
        assert d_lam(surf, 13.0, 0.1) == 0.0
        assert d_lam(surf, 1.0, 0.1) == 0.0
        # a pitch outside its bounds is clamped; lambda's direction stays live
        assert d_lam(surf, 5.0, -0.2) == d_lam(surf, 5.0, 0.0) != 0.0

    def test_partials_unaffected_by_value_clamp(self):
        # an offset of 1 clamps the value to the ceiling everywhere
        val, d = quad_grid().at_pitch(math.radians(10.0)).eval_with_dlam(7.5, 1.0)
        assert val == CP_CEILING
        assert d == pytest.approx(-0.005, rel=1e-10)


class TestAnalyticSurface:
    def test_peak_location_and_value(self, analytic_surface):
        lams = np.linspace(2.0, 14.0, 2401)
        vals = [analytic_surface.evaluate(float(l), 0.0) for l in lams]
        best = int(np.argmax(vals))
        assert lams[best] == pytest.approx(8.1, abs=0.01)
        assert vals[best] == pytest.approx(0.48, abs=0.001)

    def test_partials_match_finite_differences(self, analytic_surface):
        """dCp/dlambda against central differences of the raw base map."""
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(300):
            lam = rng.uniform(2.0, 14.0)
            at = analytic_surface.at_pitch(rng.uniform(0.0, math.radians(20.0)))
            fd = (at._base_at(lam + h)[0] - at._base_at(lam - h)[0]) / (2 * h)
            assert at._base_at(lam)[1] == pytest.approx(fd, rel=1e-5, abs=1e-9)

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

    @pytest.mark.parametrize("name", ["lam_axis", "theta_axis"])
    def test_axis_spacing_must_be_finite(self, name):
        """Finite nodes whose spacing overflows a double are rejected, naming the
        axis, with no overflow warning (which the test configuration makes an error)."""
        axes = {"lam_axis": [0.0, 0.1], "theta_axis": [0.0, 0.1], name: [-1e308, 1e308]}
        with pytest.raises(ValueError, match=f"^grid axis {name} spacing must be finite$"):
            GridCpSurface(values=[[0.1, 0.2], [0.3, 0.4]], **axes)

    def test_spacing_too_fine_for_the_values_is_rejected(self):
        with pytest.raises(ValueError, match="dCp/dlambda must be finite"):
            GridCpSurface([0.0, 1e-320, 2e-320], [0.0, 0.1], [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])

    def test_value_differences_past_a_double_are_rejected(self):
        """Neighbouring values 1e308 and -1e308 differ by more than a double holds;
        the grid is rejected, naming them, with no overflow warning (which the
        test configuration makes an error) and no NaN lookup."""
        values = [[0.0, 0.0], [1e308, 1e308], [-1e308, -1e308], [0.0, 0.0]]
        with pytest.raises(ValueError, match=r"^grid values 1e\+308 and -1e\+308 at neighbouring "
                                             r"nodes differ by more than a double holds$"):
            GridCpSurface([0.0, 1.0, 2.0, 3.0], [0.0, 0.1], values)
        with pytest.raises(ValueError, match=r"^grid values 1e\+308 and -1e\+308 "):
            GridCpSurface([0.0, 1.0], [0.0, 0.1, 0.2], [[0.0, 1e308, -1e308], [0.0, 0.0, 0.0]])

    def test_slope_differences_past_a_double_are_rejected(self):
        """Finite values and finite nodal slopes 1e308 and -9e307, whose difference
        a lookup would interpolate across, are rejected the same way."""
        values = [[v, v] for v in (0.0, 0.5e308, 1e308, -0.4e308, 0.45e308)]
        with pytest.raises(ValueError, match=r"^grid dCp/dlambda 1e\+308 and -9e\+307 at "):
            GridCpSurface([0.0, 0.5, 1.0, 1.5, 2.0], [0.0, 0.1], values)

    def test_span_near_the_largest_double_interpolates(self):
        """Three nodes spanning 2e308 have finite spacing; the surface builds without
        a warning and interpolates bilinearly."""
        grid = GridCpSurface([-1e308, 0.0, 1e308], [0.0, 0.1], [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        assert grid.evaluate(0.0, 0.05) == pytest.approx(0.35, rel=1e-15)
        assert grid.evaluate(5e307, 0.05) == pytest.approx(0.45, rel=1e-15)


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

    def test_value_differences_past_a_double_name_the_file(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text(",0,5\n0,0,0\n1,1e308,1e308\n2,-1e308,-1e308\n3,0,0\n",
                        encoding="utf-8")
        with pytest.raises(ValueError) as info:
            GridCpSurface.from_csv(path)
        assert str(info.value) == (
            f"{path}: grid values 1e+308 and -1e+308 at neighbouring nodes differ by more "
            f"than a double holds"
        )

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
        want = np.gradient(values, lam, axis=0)
        for i in (0, 2, 4):
            for j in (0, 1, 3):
                got = d_lam(surf, float(lam[i]), float(theta[j]))
                assert got == pytest.approx(want[i, j], rel=1e-10)

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
    """A pitch lookup keeps Cp in [0, CP_CEILING], gives dCp/dlambda = 0 outside
    the lambda bounds, and takes dCp/dlambda before the value clamp."""
    surf = SURFACES[kind]
    val, d = surf.at_pitch(theta).eval_with_dlam(lam, offset)
    assert hexes(val) == hexes(surf.evaluate(lam, theta, offset))
    assert 0.0 <= val <= CP_CEILING
    lam_lo, lam_hi = surf.lam_bounds
    if not lam_lo <= lam <= lam_hi:
        assert d == 0.0
    else:  # taken before the value clamp: every offset gives the same slope
        assert d == surf.at_pitch(theta).eval_with_dlam(lam, 0.0)[1]


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(sorted(SURFACES)),
    lam=st.floats(-5.0, 30.0),
    theta=st.floats(-0.5, 1.0),
    offsets=st.lists(st.floats(-0.7, 0.7), min_size=1, max_size=4),
)
def test_one_lookup_serves_every_offset(kind, lam, theta, offsets):
    """One pitch lookup gives, under each offset, ``evaluate`` with that offset
    and the value of ``eval_with_dlam``, bit for bit, across the clamps."""
    surf = SURFACES[kind]
    at = surf.at_pitch(theta)
    want = [surf.evaluate(lam, theta, d) for d in offsets]
    assert hexes(*at.evaluate_offsets(lam, offsets)) == hexes(*want)
    assert hexes(*(at.eval_with_dlam(lam, d)[0] for d in offsets)) == hexes(*want)


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
    nodes, and of the nodal dCp/dlambda grid, bit for bit, clamps included."""
    lam_axis, theta_axis, values, lam, theta = case
    surf = GridCpSurface(lam_axis, theta_axis, values)
    lam_c = min(max(lam, lam_axis[0]), lam_axis[-1])
    theta_c = min(max(theta, theta_axis[0]), theta_axis[-1])
    val = plain_bilinear(lam_axis, theta_axis, values, lam_c, theta_c) + offset
    val = min(max(val, 0.0), CP_CEILING)
    d_lam = plain_bilinear(lam_axis, theta_axis, np.gradient(values, lam_axis, axis=0),
                           lam_c, theta_c)
    d_lam = d_lam if lam == lam_c else 0.0
    assert hexes(surf.evaluate(lam, theta, offset)) == hexes(val)
    at = surf.at_pitch(theta)
    assert hexes(*at.eval_with_dlam(lam, offset)) == hexes(val, d_lam)
    assert hexes(*at.evaluate_offsets(lam, [offset])) == hexes(val)


def test_grid_arrays_are_read_only_and_the_builtin_grid_is_built_once():
    values = np.array([[0.1, 0.2], [0.3, 0.4]])
    surf = GridCpSurface([1.0, 2.0], [0.0, 0.1], values)
    values[0, 0] = 0.5  # the surface holds its own copy
    assert surf.values[0, 0] == 0.1
    for array in (surf.lam_axis, surf.theta_axis, surf.values):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    assert default_grid_surface() is default_grid_surface()
