import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import axisphere
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


class TestGeometricGrid:
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

    def test_cli_import_leaves_out_scipy_integrate(self):
        src = str(Path(axisphere.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, axisphere.cli; print('scipy.integrate' in sys.modules)"],
            capture_output=True, text=True, check=True, env=env)
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("north,south", [(math.pi / 2, 0.0), (math.pi, 1.0)])
    def test_axis_point_off_pole_raises(self, north, south):
        # a colatitude that is not a pole at an axis point: the map is
        # discontinuous there and its degree is not an integer
        def colatitude(r, z):
            return north if z > 0.0 else south

        with pytest.raises(ValueError, match="not a pole"):
            degree_from_flux(colatitude, 1, (0.0, 0.0, 0.0), 0.5)
