import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from axisphere.energy import MeridianField
from axisphere.geometry import (
    INFINITY,
    ConeDipoleMap,
    RadialProfile,
    chart_to_colatitude,
    degree_from_flux,
    geometric_grid,
    u0_profile,
    u_eps_profile,
)


class TestChartConversions:
    @pytest.mark.parametrize("f,phi", [(0.0, 0.0), (1.0, math.pi / 2), (INFINITY, math.pi)])
    def test_trivial_values(self, f, phi):
        assert chart_to_colatitude(f) == pytest.approx(phi, abs=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            chart_to_colatitude(-0.1)

    @pytest.mark.filterwarnings("error")
    def test_nan_rejected(self):
        # inf stays valid: it is the south pole
        with pytest.raises(ValueError):
            chart_to_colatitude(math.nan)

    def test_monotone_and_invertible(self):
        f = np.geomspace(1e-8, 1e8, 400)
        phi = np.array([chart_to_colatitude(v) for v in f])
        assert np.all(np.diff(phi) > 0.0)
        back = np.tan(0.5 * phi)
        # the colatitude resolution near the far pole floors the recovery
        # error at ~ f * eps, which overtakes 1e-12 relative beyond f ~ 5e3
        tol = np.maximum(1e-12, 4.0 * np.finfo(float).eps * f)
        assert np.all(np.abs(back - f) <= tol * f)


class TestProfiles:
    def test_u0_constant_at_alpha_zero(self):
        p = u0_profile(0.0, 2, geometric_grid(1e-4, 1.0, 64))
        assert np.all(p.phi == 0.0)

    def test_u0_pointwise_value(self):
        # f = alpha r^n at r = 1: phi = 2 arctan(0.25)
        p = u0_profile(0.25, 2, np.array([0.5, 1.0]))
        assert p.phi[-1] == pytest.approx(2.0 * math.atan(0.25), abs=1e-15)
        assert p.phi[-1] == pytest.approx(0.4899573263, abs=1e-9)

    def test_u0_equator_at_alpha_one(self):
        p = u0_profile(1.0, 1, np.array([0.5, 1.0]))
        assert p.phi[-1] == pytest.approx(math.pi / 2, abs=1e-15)

    def test_u_eps_continuity_and_outer_match(self):
        grid = geometric_grid(1e-5, 1.0, 512)
        alpha, n, eps = 0.25, 2, 0.1
        pe = u_eps_profile(alpha, n, eps, grid)
        p0 = u0_profile(alpha, n, pe.grid)
        outer = pe.grid >= eps
        assert np.array_equal(pe.phi[outer], p0.phi[outer])
        # both branches at r = eps
        k = np.searchsorted(pe.grid, eps)
        f_at = alpha * eps ** n
        assert pe.phi[k] == pytest.approx(2.0 * math.atan(f_at), abs=1e-15)

    def test_u_eps_inner_branch_value(self):
        grid = np.array([0.05, 0.1, 1.0])
        pe = u_eps_profile(0.25, 2, 0.1, grid)
        f_inner = math.tan(pe.phi[0] / 2.0)
        assert f_inner == pytest.approx(0.01, rel=1e-12)

    def test_u_eps_diverges_at_axis(self):
        grid = geometric_grid(1e-9, 1.0, 256)
        pe = u_eps_profile(0.25, 2, 0.1, grid)
        assert pe.phi[0] > math.pi - 1e-3

    def test_u_eps_inserts_eps_in_order(self):
        grid = geometric_grid(1e-6, 1.0, 1025)
        profile = u_eps_profile(0.25, 2, 0.1, grid)
        np.testing.assert_array_equal(profile.grid, np.sort(np.append(grid, 0.1)))

    def test_u_eps_rejects_bad_eps(self):
        for eps in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                u_eps_profile(0.25, 2, eps, np.array([0.1, 1.0]))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.0, 0.05, 0.25, 3.0])
    def test_u0_in_place_is_the_clipped_arctan(self, n, alpha):
        grid = geometric_grid(1e-6, 1.0, 65537)
        expected = np.clip(2.0 * np.arctan(alpha * grid ** n), 0.0, math.pi)
        np.testing.assert_array_equal(u0_profile(alpha, n, grid).phi, expected)

    @staticmethod
    def where_formula(alpha, n, eps, grid):
        """u_eps's colatitudes as both branches on the whole grid give them."""
        f = np.where(grid >= eps, alpha * grid ** n, alpha * eps ** (2 * n) * grid ** (-n))
        return np.clip(2.0 * np.arctan(f), 0.0, math.pi)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("eps", [0.2, 0.025, "node"])
    def test_u_eps_branches_equal_the_where_formula(self, n, eps):
        grid = geometric_grid(1e-6, 1.0, 65537)
        eps = grid[30000] if eps == "node" else eps
        pe = u_eps_profile(0.25, n, eps, grid)
        assert pe.grid.size == (grid.size if eps in grid else grid.size + 1)
        np.testing.assert_array_equal(pe.phi, self.where_formula(0.25, n, eps, pe.grid))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [2, 3])  # r^-1 does not overflow above 1e-300
    def test_u_eps_is_pi_below_the_overflow_radius(self, n):
        pe = u_eps_profile(0.25, n, 0.1, geometric_grid(1e-300, 1.0, 2049))
        with np.errstate(over="ignore"):
            overflows = np.isinf(pe.grid ** (-n))
        assert overflows.any()
        assert np.all(pe.phi[overflows] == math.pi)
        inner = pe.grid < 0.1
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(pe.phi[inner],
                                          self.where_formula(0.25, n, 0.1, pe.grid)[inner])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_u_eps_is_pi_at_an_axis_node(self):
        pe = u_eps_profile(0.25, 2, 0.1, np.array([0.0, 0.05, 1.0]))
        assert pe.phi[0] == math.pi

    def test_u_eps_memory_is_its_outputs(self):
        # the grid with eps inserted, phi and the profile's clipped copy,
        # 0.52 MB each at 65537 nodes; no full-length temporary besides
        grid = geometric_grid(1e-6, 1.0, 65537)
        tracemalloc.start()
        try:
            u_eps_profile(0.25, 2, 0.1, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.7e6

    def test_profile_keeps_its_own_copy(self):
        grid, phi = np.array([0.1, 0.5, 1.0]), np.array([0.1, 0.2, 0.3])
        p = RadialProfile(grid=grid, phi=phi, n=1)
        phi[:] = 3.0
        np.testing.assert_array_equal(p.phi, [0.1, 0.2, 0.3])

    def test_profile_invariants(self):
        with pytest.raises(ValueError):
            RadialProfile(grid=np.array([1.0, 0.5]), phi=np.array([0.0, 0.0]), n=1)
        with pytest.raises(ValueError):
            RadialProfile(grid=np.array([0.5, 1.0]), phi=np.array([0.0, 4.0]), n=1)
        with pytest.raises(ValueError):
            RadialProfile(grid=np.array([1.0]), phi=np.array([0.0]), n=1)

    @pytest.mark.parametrize("values,message", [
        ([0.1, math.nan, 0.3], "NaN"),
        ([math.nan, 0.1, 0.3], "NaN"),
        ([0.1, 0.2, -1e-11], r"\[0, pi\]"),
        ([0.1, math.pi + 1e-11, 0.3], r"\[0, pi\]"),
    ])
    def test_value_errors(self, values, message):
        with pytest.raises(ValueError, match=message):
            RadialProfile(grid=np.array([0.1, 0.5, 1.0]), phi=np.array(values), n=1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("grid", [[0.1, 1.0, math.inf], [0.1, math.nan, 1.0], [math.nan, 0.5, 1.0]])
    def test_non_finite_radius_rejected(self, grid):
        with pytest.raises(ValueError):
            RadialProfile(grid=np.array(grid), phi=np.array([0.1, 0.2, 0.3]), n=1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [1.5, 2.7, 2.0, np.float64(2.0), True, 0, -1, np.int64(0), "2"])
    def test_winding_number_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="winding number"):
            RadialProfile(grid=np.array([0.1, 0.5, 1.0]), phi=np.array([0.1, 0.2, 0.3]), n=n)

    @pytest.mark.parametrize("n", [2, np.int64(2), np.int32(2), np.uint8(2)])
    def test_numpy_integer_winding_number(self, n):
        p = RadialProfile(grid=np.array([0.1, 0.5, 1.0]), phi=np.array([0.1, 0.2, 0.3]), n=n)
        assert p.n == 2 and type(p.n) is int


# Each builder stores a 1-D column of colatitudes through one of the three
# callers of the colatitude check and returns the stored array and the
# array it checked: the profile itself, a field's broadcast column, or a
# field's owned copy.
def _profile_phi(col):
    grid = np.linspace(0.1, 1.0, col.size)
    return RadialProfile(grid=grid, phi=col, n=1).phi, col


def _column_field_phi(col):
    phi = np.broadcast_to(col[:, None], (col.size, 3))
    fld = MeridianField(np.linspace(0.1, 1.0, col.size), np.linspace(-1.0, 1.0, 3), phi, 1)
    assert fld.phi.strides[1] == 0
    return fld.phi[:, 0], col


def _owned_field_phi(col):
    phi = np.tile(col[:, None], (1, 3))
    fld = MeridianField(np.linspace(0.1, 1.0, col.size), np.linspace(-1.0, 1.0, 3), phi, 1)
    assert fld.phi.flags.owndata
    return fld.phi, phi


_BUILDERS = pytest.mark.parametrize("build", [_profile_phi, _column_field_phi, _owned_field_phi])


class TestCheckedColatitudes:
    @_BUILDERS
    def test_in_range_is_an_owned_copy(self, build):
        col = np.array([0.1, 0.2, 0.3, 3.0])
        stored, given_phi = build(col)
        expected = stored.copy()
        given_phi[...] = 1.0
        np.testing.assert_array_equal(stored, expected)
        assert not np.shares_memory(stored, col)

    @_BUILDERS
    def test_bounds_keep_their_bits(self, build):
        col = np.array([-0.0, 0.5, math.pi, 0.0])
        stored, _ = build(col)
        column = stored if stored.ndim == 1 else stored[:, 0]
        assert column.tobytes() == col.tobytes()
        assert np.signbit(column[0]) and not np.signbit(column[3])

    @_BUILDERS
    def test_small_excursions_are_clipped(self, build):
        stored, _ = build(np.array([-1e-13, 1.0, math.pi + 1e-13]))
        column = stored if stored.ndim == 1 else stored[:, 0]
        assert column.tolist() == [0.0, 1.0, math.pi]

    # RadialProfile's own cases are TestProfiles.test_value_errors
    @pytest.mark.parametrize("build", [_column_field_phi, _owned_field_phi])
    @pytest.mark.parametrize("values,message", [
        ([0.1, math.nan, 0.3], "NaN"),
        ([math.nan, -1.0, 0.3], "NaN"),
        ([0.1, 0.2, -1e-11], r"\[0, pi\]"),
        ([0.1, math.pi + 1e-11, 0.3], r"\[0, pi\]"),
    ])
    def test_nan_and_larger_excursions_raise(self, build, values, message):
        with pytest.raises(ValueError, match=message):
            build(np.array(values))

    @pytest.mark.parametrize("layout", ["F", "reversed", "strided", "broadcast row"])
    @pytest.mark.parametrize("shift", [0.0, -1e-13])
    def test_owned_field_keeps_the_clip_layout(self, layout, shift):
        rng = np.random.default_rng(5)
        base = rng.uniform(0.0, math.pi, (6, 4))
        base[0, 0] = shift
        phi = {"F": np.asfortranarray(base), "reversed": base[::-1, ::-1],
               "strided": rng.uniform(0.0, math.pi, (6, 8))[:, ::2],
               "broadcast row": np.broadcast_to(base[0], (6, 4))}[layout]
        fld = MeridianField(np.linspace(0.1, 1.0, 6), np.linspace(-1.0, 1.0, 4), phi, 1)
        clipped = np.clip(phi, 0.0, math.pi)
        assert fld.phi.strides == clipped.strides
        assert fld.phi.tobytes(order="A") == clipped.tobytes(order="A")

    def test_profile_keeps_the_clip_layout(self):
        col = np.linspace(0.0, math.pi, 11)[::-2]
        phi = RadialProfile(grid=np.linspace(0.1, 1.0, col.size), phi=col, n=1).phi
        assert phi.strides == np.clip(col, 0.0, math.pi).strides == (8,)


class TestGeometricGrid:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(1e-300, 1e300), st.floats(1e-300, 1e300), st.integers(2, 70000))
    @example(1e-6, 1.0, 65537)
    @example(1.0, 1.0 + 2.0 ** -52, 70000)
    @example(1e10, 1e10 * (1.0 + 2.0 ** -52), 3)
    def test_is_exp_of_linspace_bit_for_bit(self, r_min, r_max, nodes):
        assume(r_min < r_max)
        grid = geometric_grid(r_min, r_max, nodes)
        reference = np.exp(np.linspace(math.log(r_min), math.log(r_max), nodes))
        reference[0], reference[-1] = r_min, r_max
        assert grid.dtype == np.float64 and grid.flags.c_contiguous
        assert grid.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("nodes", [5.0, 2.5, np.float64(5.0), "5"])
    def test_non_integer_nodes_raise_type_error(self, nodes):
        with pytest.raises(TypeError):
            geometric_grid(1e-3, 1.0, nodes)

    def test_numpy_integer_nodes(self):
        assert geometric_grid(1e-3, 1.0, np.int64(5)).tobytes() == geometric_grid(1e-3, 1.0, 5).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("r_min,r_max,nodes", [
        (1e-3, math.inf, 5), (1e-3, math.nan, 5), (math.nan, 1.0, 5),
        (0.0, 1.0, 5), (1.0, 1.0, 5), (1.0, 0.5, 5), (1e-3, 1.0, 1),
    ])
    def test_value_errors(self, r_min, r_max, nodes):
        with pytest.raises(ValueError):
            geometric_grid(r_min, r_max, nodes)

    @pytest.mark.parametrize("nodes", [2, 256, 8193, 16385, 32769, 65537])
    @pytest.mark.parametrize("r_min,r_max", [(1e-6, 1.0), (1e-4, 1.0), (0.3, 0.9)])
    def test_matches_geomspace(self, r_min, r_max, nodes):
        grid = geometric_grid(r_min, r_max, nodes)
        assert grid.shape == (nodes,)
        assert grid[0] == r_min and grid[-1] == r_max
        assert np.all(np.diff(grid) > 0.0)
        reference = np.geomspace(r_min, r_max, nodes)
        assert np.max(np.abs(grid - reference) / reference) <= 4e-15


class TestConeDipoleMap:
    def test_inside_upper_cone_value(self):
        m = ConeDipoleMap(alpha=0.25, n=2)
        f = m.chart_value(0.2, 1.6)
        assert f == pytest.approx(0.81, rel=1e-12)

    def test_matches_smooth_map_outside_cones(self):
        m = ConeDipoleMap(alpha=0.25, n=2)
        for r, z in [(0.5, 0.0), (1.0, 0.5), (0.3, -0.9), (1.2, 1.1)]:
            assert m.chart_value(r, z) == pytest.approx(0.25 * r ** 2, rel=1e-12)

    def test_continuous_across_cone_boundary(self):
        m = ConeDipoleMap(alpha=0.25, n=2)
        for z in np.linspace(1.05, 1.8, 17):
            r = z - 1.0
            inner = m.chart_value(r * (1.0 - 1e-9), z)
            outer = m.chart_value(r * (1.0 + 1e-9), z)
            assert abs(inner - outer) < 1e-10 * max(1.0, outer)

    def test_even_in_z(self):
        m = ConeDipoleMap(alpha=0.25, n=2)
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = rng.uniform(0.0, 1.9)
            r = rng.uniform(0.0, math.sqrt(max(1e-12, 4.0 - z * z)))
            if r == 0.0 and abs(z) == 1.0:
                continue
            assert m.chart_value(r, z) == m.chart_value(r, -z)

    def test_singular_points_rejected(self):
        m = ConeDipoleMap(alpha=0.25, n=2)
        for z in (1.0, -1.0):
            with pytest.raises(ValueError):
                m.chart_value(0.0, z)

    def test_outside_ball_rejected(self):
        m = ConeDipoleMap(alpha=0.25, n=2)
        with pytest.raises(ValueError):
            m.chart_value(2.5, 0.0)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            ConeDipoleMap(alpha=0.3, n=2)
        with pytest.raises(ValueError):
            ConeDipoleMap(alpha=0.0, n=2)

    @pytest.mark.parametrize("n", [1.5, True, 0])
    def test_winding_number_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="winding number"):
            ConeDipoleMap(alpha=0.25, n=n)


class TestDegreeFromFlux:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cone_map_degrees(self, n):
        m = ConeDipoleMap(alpha=0.25, n=n)
        top = degree_from_flux(m.colatitude, n, (0.0, 0.0, 1.0), 0.5)
        bot = degree_from_flux(m.colatitude, n, (0.0, 0.0, -1.0), 0.5)
        assert top.degree == -n
        assert bot.degree == n
        assert top.residual < 1e-3
        assert bot.residual < 1e-3

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.floats(0.01, 0.25), st.floats(0.1, 1.0),
           st.sampled_from([-1.0, 1.0]))
    # the thinnest cone on the smallest and the largest sphere
    @example(1, 0.01, 0.1, 1.0)
    @example(1, 0.01, 0.1, -1.0)
    @example(1, 0.01, 1.0, 1.0)
    @example(1, 0.01, 1.0, -1.0)
    @example(2, 0.01, 0.1, 1.0)
    @example(2, 0.01, 0.1, -1.0)
    @example(2, 0.01, 1.0, 1.0)
    @example(2, 0.01, 1.0, -1.0)
    @example(3, 0.01, 0.1, 1.0)
    @example(3, 0.01, 0.1, -1.0)
    @example(3, 0.01, 1.0, 1.0)
    @example(3, 0.01, 1.0, -1.0)
    def test_integer_degree_around_singular_point(self, n, alpha, radius, side):
        # criterion 8 over the whole cone: the sphere's axis point inside the
        # cone maps to the south pole however thin the cone's jump is
        res = degree_from_flux(ConeDipoleMap(alpha=alpha, n=n).colatitude, n,
                               (0.0, 0.0, side), radius)
        assert res.degree == -side * n
        assert res.residual == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.floats(0.01, 0.25), st.floats(-0.5, 0.5),
           st.floats(0.05, 0.45))
    def test_integer_degree_zero_without_singular_point(self, n, alpha, center, radius):
        # spheres inside the unit ball miss both cones: the map is smooth there
        res = degree_from_flux(ConeDipoleMap(alpha=alpha, n=n).colatitude, n,
                               (0.0, 0.0, center), radius)
        assert res.degree == 0
        assert res.residual < 1e-3

    def test_radius_independence(self):
        m = ConeDipoleMap(alpha=0.25, n=2)
        d1 = degree_from_flux(m.colatitude, 2, (0.0, 0.0, 1.0), 0.3)
        d2 = degree_from_flux(m.colatitude, 2, (0.0, 0.0, 1.0), 0.7)
        assert d1.degree == d2.degree == -2

    def test_constant_map(self):
        res = degree_from_flux(lambda r, z: 1.0, 5, (0.0, 0.0, 0.0), 0.5)
        assert res.degree == 0
        assert res.raw == pytest.approx(0.0, abs=1e-12)

    def test_smooth_region_degree_zero(self):
        m = ConeDipoleMap(alpha=0.25, n=2)
        res = degree_from_flux(m.colatitude, 2, (0.0, 0.0, 0.0), 0.5)
        assert res.degree == 0

    def test_off_axis_center_rejected(self):
        with pytest.raises(ValueError):
            degree_from_flux(lambda r, z: 0.0, 1, (0.5, 0.0, 0.0), 0.1)

    @pytest.mark.parametrize("north,south", [(math.pi / 2, 0.0), (math.pi, 1.0)])
    def test_axis_point_off_pole_raises(self, north, south):
        # a colatitude that is not a pole at an axis point: the map is
        # discontinuous there and its degree is not an integer
        def colatitude(r, z):
            return north if z > 0.0 else south

        with pytest.raises(ValueError, match="not a pole"):
            degree_from_flux(colatitude, 1, (0.0, 0.0, 0.0), 0.5)
