import itertools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, solve_banded, solveh_banded
from scipy.optimize import minimize

from axisphere import energy
from axisphere.energy import (
    _BLOCK_CELLS,
    EnergyReport,
    MeridianField,
    _MeridianSystem,
    area_radial,
    conformality_gap,
    dipole_half_box,
    dipole_ladder,
    dirichlet_energy_radial,
    energy_3d,
    meridian_cell_energy,
    meridian_cell_energy_grad,
    meridian_from_profile,
    minimize_meridian_energy,
    monotone_area_bound,
)
from axisphere.geometry import RadialProfile, geometric_grid, u0_profile, u_eps_profile

FOUR_PI = 4.0 * math.pi


def field_cells(fld):
    """Slice energies, slice areas and the z-derivative part of a field, as
    energy_3d's pass computes them."""
    return energy._cells(fld.r_grid, fld.phi, fld.n, 1.0 / np.diff(fld.z_grid))


def slice_profile(fld, j):
    return RadialProfile(grid=fld.r_grid, phi=fld.phi[:, j], n=fld.n)


# r = (1, 2), phi = (0.84, 1.88), n = 2: its discrete E - A is -0.78, from
# the angular trapezoid rule
COUNTEREXAMPLE = RadialProfile(grid=np.array([1.0, 2.0]), phi=np.array([0.84, 1.88]), n=2)


def random_profile(rng, n=2, nodes=400, smooth=True):
    """A wiggly but admissible colatitude profile on a log grid."""
    grid = geometric_grid(1e-3, 1.0, nodes)
    x = np.log(grid)
    k = rng.integers(1, 4)
    phi = 0.0
    for _ in range(k):
        amp = rng.uniform(0.1, 0.8)
        freq = rng.uniform(0.2, 1.5)
        shift = rng.uniform(0.0, 2 * math.pi)
        phi = phi + amp * (1.0 + np.sin(freq * x + shift))
    phi = np.clip(phi, 0.0, math.pi)
    return RadialProfile(grid=grid, phi=phi, n=n)


class TestDirichletEnergy:
    def test_constant_profile_zero(self):
        p = RadialProfile(grid=np.array([0.1, 1.0]), phi=np.array([0.0, 0.0]), n=2)
        assert dirichlet_energy_radial(p) == 0.0

    def test_u0_closed_form(self):
        n, alpha = 2, 0.25
        p = u0_profile(alpha, n, geometric_grid(1e-6, 1.0, 65537))
        exact = FOUR_PI * n * alpha ** 2 / (1.0 + alpha ** 2)
        assert dirichlet_energy_radial(p, (0.0, 1.0)) == pytest.approx(exact, rel=1e-6)

    def test_dilation_invariance(self):
        n, alpha = 2, 0.2
        base = u0_profile(alpha, n, geometric_grid(1e-5, 1.0, 4096))
        e0 = dirichlet_energy_radial(base)
        for lam in (0.1, 0.5, 2.0, 10.0):
            scaled = RadialProfile(grid=base.grid * lam, phi=base.phi, n=n)
            assert dirichlet_energy_radial(scaled) == pytest.approx(e0, rel=1e-9)

    def test_interval_outside_grid_rejected(self):
        p = u0_profile(0.25, 2, geometric_grid(1e-3, 1.0, 64))
        with pytest.raises(ValueError):
            dirichlet_energy_radial(p, (0.5, 2.0))
        with pytest.raises(ValueError):
            dirichlet_energy_radial(p, (0.9, 0.1))


class TestAreaAndBound:
    def test_full_cover_area(self):
        # monotone phi from 0 to pi covers the sphere n times
        grid = np.linspace(0.1, 1.0, 300)
        phi = np.linspace(0.0, math.pi, 300)
        p = RadialProfile(grid=grid, phi=phi, n=3)
        assert area_radial(p) == pytest.approx(FOUR_PI * 3, rel=1e-12)

    def test_constant_profile_zero_area(self):
        p = RadialProfile(grid=np.array([0.1, 1.0]), phi=np.array([1.0, 1.0]), n=2)
        assert area_radial(p) == 0.0

    @pytest.mark.parametrize(
        "a,b,n,expected",
        [
            (0.3, 0.3, 2, 0.0),
            (0.0, math.inf, 2, 8.0 * math.pi),
            (0.1, 0.5, 2, FOUR_PI * 2 * (0.25 / 1.25 - 0.01 / 1.01)),
        ],
    )
    def test_bound_values(self, a, b, n, expected):
        assert monotone_area_bound(a, b, n) == pytest.approx(expected, abs=1e-12)

    def test_bound_symmetric_in_endpoints(self):
        assert monotone_area_bound(0.5, 0.1, 2) == monotone_area_bound(0.1, 0.5, 2)
        assert monotone_area_bound(math.inf, 0.2, 1) == monotone_area_bound(0.2, math.inf, 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            monotone_area_bound(-0.1, 0.5, 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a, b, n", [
        (math.nan, 1.0, 1), (0.0, math.nan, 2), (0.0, 1.0, 1.5), (0.0, 1.0, 0), (0.0, 1.0, True),
    ])
    def test_nan_value_or_bad_winding_rejected(self, a, b, n):
        with pytest.raises(ValueError):
            monotone_area_bound(a, b, n)

    def test_monotone_profile_attains_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            grid = geometric_grid(1e-3, 1.0, 200)
            f_a, f_b = sorted(rng.uniform(0.0, 3.0, 2))
            steps = rng.uniform(0.0, 1.0, 199)
            f = f_a + (f_b - f_a) * np.concatenate(([0.0], np.cumsum(steps) / steps.sum()))
            p = RadialProfile(grid=grid, phi=2.0 * np.arctan(f), n=n)
            bound = monotone_area_bound(f_a, f_b, n)
            assert area_radial(p) == pytest.approx(bound, rel=1e-8, abs=1e-12)

    def test_non_monotone_profile_exceeds_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            grid = geometric_grid(1e-3, 1.0, 200)
            f_a, f_b = rng.uniform(0.1, 2.0, 2)
            t = np.linspace(0.0, 1.0, 200)
            # overshoot strictly above both endpoints, then come back down
            amp = abs(f_b - f_a) + rng.uniform(0.2, 1.0)
            f = np.clip(f_a + (f_b - f_a) * t + amp * np.sin(2 * math.pi * t), 0.01, None)
            f[0], f[-1] = f_a, f_b
            p = RadialProfile(grid=grid, phi=2.0 * np.arctan(f), n=n)
            assert area_radial(p) > monotone_area_bound(f_a, f_b, n) + 1e-8


    @pytest.mark.parametrize("nodes", [2, 1000, 16001])
    def test_one_block_area_is_the_one_line_sum(self, nodes):
        # up to 16001 nodes (16000 cells) the blocked sum is one block: the
        # same bits as summing every increment at once
        p = random_profile(np.random.default_rng(nodes), n=3, nodes=nodes)
        one_line = 2.0 * math.pi * 3 * float(np.sum(np.abs(np.diff(np.cos(p.phi)))))
        assert energy._BLOCK_CELLS == 16000
        assert area_radial(p) == one_line

    @pytest.mark.parametrize("interval", [None, (2e-3, 0.5)])
    def test_multi_block_area_matches_the_kernel(self, interval):
        # 40001 nodes are three blocks sharing two seam nodes
        p = random_profile(np.random.default_rng(40001), nodes=40001)
        reference = energy._radial_energy_area(p, interval)[1]
        assert area_radial(p, interval) == pytest.approx(reference, rel=1e-14)

    def test_multi_block_monotone_profile_attains_bound(self):
        rng = np.random.default_rng(13)
        for n in (1, 2, 3):
            f_a, f_b = sorted(rng.uniform(0.0, 3.0, 2))
            steps = rng.uniform(0.0, 1.0, 40000)
            f = f_a + (f_b - f_a) * np.concatenate(([0.0], np.cumsum(steps) / steps.sum()))
            p = RadialProfile(grid=geometric_grid(1e-3, 1.0, f.size), phi=2.0 * np.arctan(f), n=n)
            assert area_radial(p) == pytest.approx(monotone_area_bound(f_a, f_b, n),
                                                   rel=1e-12, abs=1e-12)

    def test_memory_is_block_sized(self):
        # a 65537-node profile's cosines are 0.52 MB; the blocked sum keeps
        # two block-sized arrays (0.13 MB each) at a time
        p = u0_profile(0.25, 2, geometric_grid(1e-6, 1.0, 65537))
        tracemalloc.start()
        try:
            area_radial(p)
            area_radial(p, (0.0, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.52e6

class TestAreaProperties:
    """Criterion 2 as properties, at its tolerance (relative 1e-8, and the
    1e-12 absolute floor of the unit tests above)."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3), st.floats(0.0, 3.0), st.floats(0.0, 3.0),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=63))
    def test_monotone_profile_attains_bound(self, n, f_a, f_b, steps):
        ramp = np.concatenate(([0.0], np.cumsum(steps)))
        assume(ramp[-1] > 0.0)
        f = np.clip(f_a + (f_b - f_a) * ramp / ramp[-1], min(f_a, f_b), max(f_a, f_b))
        p = RadialProfile(grid=geometric_grid(1e-3, 1.0, f.size), phi=2.0 * np.arctan(f), n=n)
        bound = monotone_area_bound(f[0], f[-1], n)
        assert area_radial(p) == pytest.approx(bound, rel=1e-8, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3), st.lists(st.floats(0.0, 3.0), min_size=2, max_size=64))
    def test_area_covers_forced_variation(self, n, values):
        # the image runs from c(f_a) to c(f_b) through max c and min c,
        # c = f^2/(1+f^2), so its area is at least 4 pi n (2 (max c - min c)
        # - |c_b - c_a|): the bound, plus twice any overshoot of the endpoints
        f = np.array(values)
        c = f * f / (1.0 + f * f)
        forced = FOUR_PI * n * (2.0 * (c.max() - c.min()) - abs(c[-1] - c[0]))
        p = RadialProfile(grid=geometric_grid(1e-3, 1.0, f.size), phi=2.0 * np.arctan(f), n=n)
        assert area_radial(p) >= forced - max(1e-8 * forced, 1e-12)
        assert forced >= monotone_area_bound(f[0], f[-1], n) - 1e-12


class TestConformalityGap:
    @pytest.mark.parametrize("anti", [False, True])
    def test_conformal_branches_zero(self, anti):
        grid = geometric_grid(1e-4, 1.0, 2048)
        n, c = 2, 0.7
        f = c * grid ** (-n if anti else n)
        p = RadialProfile(grid=grid, phi=2.0 * np.arctan(f), n=n)
        e, a = dirichlet_energy_radial(p), area_radial(p)
        assert conformality_gap(p) == pytest.approx(e - a, abs=1e-12)
        assert conformality_gap(p) <= 1e-9 * max(e, 1.0)

    @staticmethod
    def assert_dominates_up_to_angular_quadrature(p):
        # the discrete E - A can be negative (the counterexample's is -0.78);
        # what the cell rules guarantee is E - A >= the angular trapezoid
        # excess (see TestFieldProperties)
        e, a = dirichlet_energy_radial(p), area_radial(p)
        excess = angular_trapezoid_excess(meridian_from_profile(p, [0.0, 1.0]))[0]
        assert e - a - excess >= -1e-12 * (e + a)

    def test_matches_energy_minus_area(self):
        rng = np.random.default_rng(13)
        profiles = [COUNTEREXAMPLE] + [random_profile(rng) for _ in range(50)]
        for p in profiles:
            gap = conformality_gap(p)
            diff = dirichlet_energy_radial(p) - area_radial(p)
            assert gap == pytest.approx(diff, rel=1e-8)
            self.assert_dominates_up_to_angular_quadrature(p)

    def test_constant_segment_analytic(self):
        # f = a on [t0, tau0]: gap = 4 pi n^2 a^2 / (1+a^2)^2 * log(tau0/t0)
        n, a, t0, tau0 = 2, 0.05, 0.1, 0.6
        grid = geometric_grid(t0, tau0, 4096)
        p = RadialProfile(grid=grid, phi=np.full(grid.size, 2.0 * math.atan(a)), n=n)
        exact = FOUR_PI * n ** 2 * a ** 2 / (1.0 + a ** 2) ** 2 * math.log(tau0 / t0)
        assert conformality_gap(p) == pytest.approx(exact, rel=1e-6)
        assert exact == pytest.approx(FOUR_PI * n ** 2 * a ** 2 * math.log(tau0 / t0), rel=5e-3)

    def test_energy_dominates_area(self):
        rng = np.random.default_rng(14)
        profiles = [COUNTEREXAMPLE] + [random_profile(rng, n=int(rng.integers(1, 4)))
                                       for _ in range(100)]
        for p in profiles:
            self.assert_dominates_up_to_angular_quadrature(p)
        assert dirichlet_energy_radial(COUNTEREXAMPLE) - area_radial(COUNTEREXAMPLE) < -0.7

    def test_whole_grid_interval_is_no_interval(self):
        p = random_profile(np.random.default_rng(16))
        grid = p.grid
        for interval in [(0.0, grid[-1]), (grid[0] / 2, grid[-1]),
                         (0.0, grid[-1] * (1.0 + 1e-13))]:
            for functional in (dirichlet_energy_radial, area_radial, conformality_gap):
                assert functional(p, interval) == functional(p)

    def test_zero_length_interval_is_zero(self):
        p = random_profile(np.random.default_rng(15))
        for interval in [(0.3, 0.3), (0.0, p.grid[0]), (p.grid[-1], p.grid[-1])]:
            for functional in (dirichlet_energy_radial, area_radial, conformality_gap):
                assert functional(p, interval) == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("interval", [(math.nan, 1.0), (0.5, math.nan), (math.nan, 0.5),
                                          (math.nan, math.nan)])
    def test_nan_interval_endpoint_rejected(self, interval):
        p = random_profile(np.random.default_rng(17))
        for functional in (dirichlet_energy_radial, area_radial, conformality_gap):
            with pytest.raises(ValueError, match="NaN endpoint"):
                functional(p, interval)


class TestEnergyReport:
    def test_assemble(self):
        rep = EnergyReport.assemble(E=2.0, A=1.5, mass_term=3.0)
        assert rep.gap == 0.5
        assert rep.total == 5.0


class TestMeridianField:
    def make_u0_field(self, n=2, alpha=0.25, r_nodes=4097, z_nodes=33):
        profile = u0_profile(alpha, n, geometric_grid(1e-4, 1.0, r_nodes))
        return meridian_from_profile(
            profile, np.linspace(-1.0, 1.0, z_nodes), defects=[(-1.0, 1.0)]
        )

    def test_validation(self):
        r, z = np.array([0.1, 1.0]), np.array([-1.0, 1.0])
        phi = np.zeros((2, 2))
        with pytest.raises(ValueError):
            MeridianField(r, z, phi, 2, defects=[(0.5, 0.1)])
        with pytest.raises(ValueError):
            MeridianField(r, z, phi, 2, defects=[(-2.0, 0.0)])
        with pytest.raises(ValueError):
            MeridianField(r, z, phi, 2, defects=[(-1.0, 0.5), (0.0, 1.0)])
        with pytest.raises(ValueError):
            MeridianField(r, z, np.full((2, 2), np.nan), 2)
        with pytest.raises(ValueError, match="radii must be nonnegative"):
            MeridianField(np.array([-1.0, 0.5, 1.0]), z, np.ones((3, 2)), 1)
        # a leading node on the axis stays allowed
        fld = MeridianField(np.array([0.0, 0.5, 1.0]), z, np.ones((3, 2)), 1)
        assert fld.r_grid[0] == 0.0 and math.isfinite(energy_3d(fld).E)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("r,z", [
        ([0.1, 1.0, math.inf], [-1.0, 1.0]),
        ([0.1, 1.0, 2.0], [-math.inf, 1.0]),
        ([0.1, 1.0, 2.0], [-1.0, math.inf]),
        ([0.1, 1.0, 2.0], [-1.0, math.nan]),
    ])
    @pytest.mark.parametrize("column", [False, True])
    def test_non_finite_nodes_rejected(self, r, z, column):
        phi = np.broadcast_to(np.ones((3, 1)), (3, 2)) if column else np.ones((3, 2))
        with pytest.raises(ValueError):
            MeridianField(np.array(r), np.array(z), phi, 1)

    @pytest.mark.parametrize("n", [1.5, 2.7, np.float64(2.0), True, 0, "2"])
    def test_winding_number_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="winding number"):
            MeridianField(np.array([0.1, 1.0]), np.array([-1.0, 1.0]), np.ones((2, 2)), n)

    def test_numpy_integer_winding_number(self):
        fld = MeridianField(np.array([0.1, 1.0]), np.array([-1.0, 1.0]), np.ones((2, 2)), np.int64(3))
        assert fld.n == 3 and type(fld.n) is int

    def test_reference_total(self):
        # extruded smooth profile with the full axis as defect:
        # total = 2 (4 pi n alpha^2/(1+alpha^2) + 4 pi n)
        n, alpha = 2, 0.25
        fld = self.make_u0_field(n=n, alpha=alpha, r_nodes=32769, z_nodes=65)
        rep = energy_3d(fld)
        slice_e = FOUR_PI * n * alpha ** 2 / (1.0 + alpha ** 2)
        assert rep.mass_term == pytest.approx(FOUR_PI * n * 2.0, rel=1e-15)
        assert rep.total == pytest.approx(2.0 * (slice_e + FOUR_PI * n), rel=1e-6)

    def test_constant_field_zero(self):
        r, z = np.array([0.1, 1.0]), np.array([-1.0, 1.0])
        fld = MeridianField(r, z, np.zeros((2, 2)), 2, defects=())
        rep = energy_3d(fld)
        assert rep.total == 0.0

    def test_z_perturbation_raises_energy(self):
        fld = self.make_u0_field(r_nodes=257, z_nodes=17)
        base = energy_3d(fld).E
        wobble = fld.phi + 0.05 * np.sin(math.pi * fld.z_grid)[None, :]
        bumped = MeridianField(fld.r_grid, fld.z_grid, np.clip(wobble, 0, math.pi),
                               fld.n, defects=fld.defects)
        assert energy_3d(bumped).E > base

    def test_decomposition(self):
        rng = np.random.default_rng(21)
        fld = self.make_u0_field(r_nodes=257, z_nodes=17)
        phi = np.clip(fld.phi + 0.2 * rng.random(fld.phi.shape), 0.0, math.pi)
        fld = MeridianField(fld.r_grid, fld.z_grid, phi, fld.n, defects=fld.defects)
        rep = energy_3d(fld)
        z = fld.z_grid
        w_z = np.zeros_like(z)
        w_z[:-1] += np.diff(z) / 2.0
        w_z[1:] += np.diff(z) / 2.0
        per_slice = np.array(
            [dirichlet_energy_radial(slice_profile(fld, j)) for j in range(z.size)]
        )
        energies, _, e_z = field_cells(fld)
        pieces = float(per_slice @ w_z) + e_z + rep.mass_term
        assert rep.total == pytest.approx(pieces, rel=1e-9)
        assert np.allclose(per_slice, energies, rtol=1e-12)


def trapezoid(x):
    w = np.zeros_like(x)
    w[:-1] += np.diff(x) / 2.0
    w[1:] += np.diff(x) / 2.0
    return w


def separate_sweeps(fld):
    """The field functionals as three whole-field sweeps: the reference the
    blocked kernel is checked against."""
    r, z, phi, n = fld.r_grid, fld.z_grid, fld.phi, fld.n
    dr = np.diff(r)[:, None]
    slope = np.diff(phi, axis=0) / dr
    kin = np.sum(slope ** 2 * (r[1:, None] ** 2 - r[:-1, None] ** 2), axis=0) / 2.0
    dens = np.zeros_like(phi)
    np.divide(np.sin(phi) ** 2, r[:, None], out=dens, where=r[:, None] > 0.0)
    ang = n ** 2 * np.sum((dens[:-1, :] + dens[1:, :]) / 2.0 * dr, axis=0)
    energies = math.pi * (kin + ang)
    areas = 2.0 * math.pi * n * np.sum(np.abs(np.diff(np.cos(phi), axis=0)), axis=0)
    dz = np.diff(z)[None, :]
    col = np.sum((np.diff(phi, axis=1) / dz) ** 2 * dz, axis=1)
    e_z = math.pi * float(np.sum(col * r * trapezoid(r)))
    w_z = trapezoid(z)
    return energies, areas, e_z, float(np.sum(energies * w_z)) + e_z, float(np.sum(areas * w_z))


def random_field(r_nodes, z_nodes):
    rng = np.random.default_rng(1000 * r_nodes + z_nodes)
    r = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 1.0, r_nodes - 1)))) / r_nodes
    z = np.cumsum(rng.uniform(0.05, 1.0, z_nodes)) - 1.0
    phi = rng.uniform(0.0, math.pi, (r_nodes, z_nodes))
    return MeridianField(r, z, phi, 2, defects=[(z[0], z[-1])])


def block_rows(columns):
    """Rows per block of the radial kernel for ``columns`` columns."""
    return max(1, _BLOCK_CELLS // columns)


def radial_reference(r, phi, n):
    """E and E - A of a profile by the 1-D cell rules as whole-profile sums."""
    dr = np.diff(r)
    kinetic = np.sum((np.diff(phi) / dr) ** 2 * (r[1:] ** 2 - r[:-1] ** 2)) / 2.0
    dens = np.zeros_like(phi)
    np.divide(np.sin(phi) ** 2, r, out=dens, where=r > 0.0)
    angular = n ** 2 * np.sum((dens[:-1] + dens[1:]) / 2.0 * dr)
    cross = 2.0 * n * np.sum(np.abs(np.diff(np.cos(phi))))
    return math.pi * (kinetic + angular), math.pi * (kinetic + angular - cross)


class TestAngularTermNearPoles:
    """The kernel forms sin^2 phi as (1 - cos phi)(1 + cos phi), which is
    accurate in absolute terms next to either pole."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("near_pi", [False, True])
    def test_matches_sine_reference(self, n, near_pi):
        r = geometric_grid(1e-3, 1.0, 4097)
        bump = 1e-3 * r ** n
        phi = math.pi - bump if near_pi else bump
        p = RadialProfile(grid=r, phi=phi, n=n)
        e = dirichlet_energy_radial(p)
        bound = 1e-15 * math.pi * n ** 2 * np.sum(trapezoid(r) / r)
        assert abs(e - radial_reference(r, phi, n)[0]) <= bound
        a = area_radial(p)
        assert conformality_gap(p) == pytest.approx(e - a, abs=1e-15 * (e + a))


class TestFieldKernel:
    """The blocked pass of the radial kernel against whole-field and
    whole-profile sums, at row counts on both sides of the block seams."""

    B = 512

    @pytest.mark.parametrize("z_nodes", [2, 17])
    @pytest.mark.parametrize("r_nodes", [2, 3, B, B + 1, B + 2, 2 * B + 1, 3 * B + 7])
    def test_matches_separate_sweeps(self, r_nodes, z_nodes, monkeypatch):
        # blocks of B rows at either column count
        monkeypatch.setattr(energy, "_BLOCK_CELLS", self.B * z_nodes)
        self.check_field(random_field(r_nodes, z_nodes))

    @pytest.mark.parametrize("z_nodes", [2, 65])
    def test_matches_separate_sweeps_at_derived_blocks(self, z_nodes):
        self.check_field(random_field(2 * block_rows(z_nodes) + 1, z_nodes))

    @staticmethod
    def check_field(fld):
        z = fld.z_grid
        energies, areas, e_z, E, A = separate_sweeps(fld)
        kernel_energies, kernel_areas, kernel_e_z = field_cells(fld)
        np.testing.assert_allclose(kernel_energies, energies, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(kernel_areas, areas, rtol=1e-13, atol=0.0)
        assert kernel_e_z == pytest.approx(e_z, rel=1e-13, abs=0.0)
        rep = energy_3d(fld)
        assert rep.E == pytest.approx(E, rel=1e-13, abs=0.0)
        assert rep.A == pytest.approx(A, rel=1e-13, abs=0.0)
        assert rep.mass_term == FOUR_PI * 2 * (z[-1] - z[0])

    @pytest.mark.parametrize("offset", [(1, -1), (1, 0), (1, 1), (1, 2), (2, 1)],
                             ids=["B-1", "B", "B+1", "B+2", "2B+1"])
    def test_single_column_seams(self, offset):
        # a profile is one column: blocks of block_rows(1) r-cells.  A smooth
        # phi keeps the kinetic term from swamping one node's angular term.
        r_nodes = offset[0] * block_rows(1) + offset[1]
        rng = np.random.default_rng(r_nodes)
        r = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 1.0, r_nodes - 1)))) / r_nodes
        phi = math.pi / 2 + 1.5 * np.sin(rng.uniform(2.0, 20.0) * r + rng.uniform(0.0, 6.0))
        p = RadialProfile(grid=r, phi=phi, n=3)
        e, gap = radial_reference(p.grid, p.phi, p.n)
        assert dirichlet_energy_radial(p) == pytest.approx(e, rel=1e-13, abs=0.0)
        assert abs(conformality_gap(p) - gap) <= 1e-13 * e

    @pytest.mark.parametrize("z_nodes", [1, 17])
    def test_many_blocks_match_one_block(self, z_nodes, monkeypatch):
        # at the module's block size: a 65537-node column spans 5 blocks and
        # a z-dependent 6000 x 17 field 7; one block holds either whole
        r = geometric_grid(1e-6, 1.0, 65537 if z_nodes == 1 else 6000)
        z = np.linspace(-1.0, 1.0, z_nodes)
        phi = 2.0 * np.arctan(0.25 * r[:, None] ** 2 * (1.0 + 0.5 * z ** 2))
        inv_dz = 1.0 / np.diff(z)
        assert math.ceil((r.size - 1) / block_rows(z_nodes)) >= 5
        blocked = energy._cells(r, phi, 2, inv_dz)
        monkeypatch.setattr(energy, "_BLOCK_CELLS", r.size * z_nodes)
        whole = energy._cells(r, phi, 2, inv_dz)
        for got, want in zip(blocked, whole):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        assert (blocked[2] > 0.0) == (z_nodes > 1)

    def test_memory_is_block_sized(self):
        # the criterion-7 field: 32769 x 65 doubles, 17 MB; whole-field
        # sweeps allocate several arrays of that size
        profile = u0_profile(0.25, 2, geometric_grid(1e-4, 1.0, 32769))
        fld = meridian_from_profile(profile, np.linspace(-1.0, 1.0, 65), defects=[(-1.0, 1.0)])
        tracemalloc.start()
        try:
            energy_3d(fld)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_memory_of_building_and_evaluating_is_block_sized(self):
        # building the criterion-7 field keeps one column, not a 17 MB copy
        profile = u0_profile(0.25, 2, geometric_grid(1e-4, 1.0, 32769))
        z = np.linspace(-1.0, 1.0, 65)
        tracemalloc.start()
        try:
            fld = meridian_from_profile(profile, z, defects=[(-1.0, 1.0)])
            energy_3d(fld)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_memory_is_block_sized_off_the_extruded_case(self):
        # the same size with every column distinct: the blocked pass over all
        # slices, not the one-column evaluation of an extruded field
        profile = u0_profile(0.25, 2, geometric_grid(1e-4, 1.0, 32769))
        z = np.linspace(-1.0, 1.0, 65)
        fld = MeridianField(profile.grid, z, profile.phi[:, None] * (1.0 - 0.1 * z ** 2), 2,
                            defects=[(-1.0, 1.0)])
        assert field_cells(fld)[2] > 0.0
        tracemalloc.start()
        try:
            energy_3d(fld)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6


class TestExtrudedField:
    """A field stored as one broadcast column is evaluated on that column;
    an owned copy with a single entry moved takes the blocked pass."""

    @staticmethod
    def blocked_pass(fld):
        """E, A and z-part of a field as the blocked pass over all slices gives them."""
        energies, areas, e_z = field_cells(fld)
        w_z = energy._trapezoid_weights(np.diff(fld.z_grid))
        return float(energies @ w_z) + e_z, float(areas @ w_z), e_z

    @staticmethod
    def criterion_7_field(n, alpha):
        profile = u0_profile(alpha, n, geometric_grid(1e-4, 1.0, 32769))
        return meridian_from_profile(profile, np.linspace(-1.0, 1.0, 65), defects=[(-1.0, 1.0)])

    @pytest.mark.parametrize("n, alpha", [(1, 0.1), (2, 0.25), (3, 0.0)])
    def test_matches_the_blocked_pass(self, n, alpha):
        fld = self.criterion_7_field(n, alpha)
        E, A, e_z = self.blocked_pass(fld)
        assert e_z == 0.0
        rep = energy_3d(fld)
        assert rep.E == pytest.approx(E, rel=1e-14, abs=0.0)
        assert rep.A == pytest.approx(A, rel=1e-14, abs=0.0)

    def test_one_moved_entry_takes_the_blocked_pass(self):
        fld = self.criterion_7_field(2, 0.25)
        phi = fld.phi.copy()
        phi[16384, 7] += 1e-9
        moved = MeridianField(fld.r_grid, fld.z_grid, phi, fld.n, fld.defects)
        E, A, e_z = self.blocked_pass(moved)
        assert e_z > 0.0
        rep = energy_3d(moved)
        assert (rep.E, rep.A) == (E, A)
        assert rep.E != energy_3d(fld).E


class TestFieldConstruction:
    def test_extruded_phi_is_a_read_only_column_view(self):
        profile = u0_profile(0.25, 2, geometric_grid(1e-3, 1.0, 65))
        z = np.linspace(-1.0, 1.0, 9)
        fld = meridian_from_profile(profile, z, defects=[(-1.0, 1.0)])
        assert np.array_equal(fld.phi, np.tile(profile.phi[:, None], (1, z.size)))
        assert fld.phi.strides[1] == 0
        with pytest.raises(ValueError):
            fld.phi[0, 0] = 0.0
        before = fld.phi.copy()
        profile.phi[0] = 0.0
        assert np.array_equal(fld.phi, before)

    @staticmethod
    def column_view(column, z_nodes=5):
        return np.broadcast_to(np.asarray(column, dtype=float)[:, None], (len(column), z_nodes))

    @pytest.mark.parametrize("column,message", [
        ([0.0, 1.0, math.nan], "NaN"),
        ([0.0, 1.0, math.pi + 1e-9], r"\[0, pi\]"),
        ([-1e-9, 1.0, 2.0], r"\[0, pi\]"),
    ])
    def test_column_view_errors_match_the_owned_array(self, column, message):
        r, z = np.array([0.1, 0.5, 1.0]), np.linspace(-1.0, 1.0, 5)
        view = self.column_view(column)
        assert view.strides[1] == 0
        for phi in (view, view.copy()):
            with pytest.raises(ValueError, match=message):
                MeridianField(r, z, phi, 1)

    def test_column_view_is_clipped_in_every_column(self):
        r, z = np.array([0.1, 0.5, 1.0]), np.linspace(-1.0, 1.0, 5)
        view = self.column_view([-1e-13, 1.0, math.pi + 1e-13])
        fld = MeridianField(r, z, view, 1)
        owned = MeridianField(r, z, view.copy(), 1)
        assert np.array_equal(fld.phi, owned.phi)
        assert np.all(fld.phi[0] == 0.0) and np.all(fld.phi[2] == math.pi)
        assert view[0, 0] == -1e-13

    def test_owned_equal_columns_take_the_blocked_pass(self, monkeypatch):
        profile = u0_profile(0.25, 2, geometric_grid(1e-4, 1.0, 4097))
        z = np.linspace(-1.0, 1.0, 33)
        view = meridian_from_profile(profile, z, defects=[(-1.0, 1.0)])
        tiled = MeridianField(profile.grid, z, np.tile(profile.phi[:, None], (1, z.size)),
                              profile.n, defects=view.defects)
        assert tiled.phi.strides[1] != 0
        columns = []
        cells = energy._cells

        def counted(r, phi, n, inv_dz):
            columns.append(phi.shape[1])
            return cells(r, phi, n, inv_dz)

        monkeypatch.setattr(energy, "_cells", counted)
        rep_view, rep_tiled = energy_3d(view), energy_3d(tiled)
        assert columns == [1, z.size]
        assert field_cells(tiled)[2] == 0.0
        assert rep_tiled.E == pytest.approx(rep_view.E, rel=1e-14, abs=0.0)
        assert rep_tiled.A == pytest.approx(rep_view.A, rel=1e-14, abs=0.0)

    def test_clip_leaves_the_input(self):
        phi = np.array([[-1e-13, 1.0], [2.0, math.pi + 1e-13]])
        fld = MeridianField(np.array([0.1, 1.0]), np.array([-1.0, 1.0]), phi, 1)
        assert fld.phi[0, 0] == 0.0 and fld.phi[1, 1] == math.pi
        assert phi[0, 0] == -1e-13

    @pytest.mark.parametrize("values,message", [
        ([[0.0, 1.0], [math.nan, 1.0]], "NaN"),
        ([[0.0, -5.0], [math.nan, 1.0]], "NaN"),
        ([[0.0, 1.0], [1.0, math.nan]], "NaN"),
        ([[0.0, 1.0], [-1e-11, 1.0]], r"\[0, pi\]"),
        ([[0.0, 1.0], [1.0, math.pi + 1e-11]], r"\[0, pi\]"),
    ])
    def test_value_errors(self, values, message):
        with pytest.raises(ValueError, match=message):
            MeridianField(np.array([0.1, 1.0]), np.array([-1.0, 1.0]), np.array(values), 1)


steps = st.floats(min_value=0.1, max_value=1.0)


@st.composite
def fields(draw, axis=True, max_r_nodes=30, max_z_nodes=6):
    """A random admissible field: phi in [0, pi] on non-uniform grids, the
    innermost radius 0 (if ``axis``) or in [0.01, 1]."""
    n = draw(st.integers(min_value=1, max_value=3))
    r_nodes = draw(st.integers(min_value=2, max_value=max_r_nodes))
    z_nodes = draw(st.integers(min_value=2, max_value=max_z_nodes))
    r0 = draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0)) if axis else st.floats(0.01, 1.0))
    r = r0 + np.cumsum([0.0] + draw(st.lists(steps, min_size=r_nodes - 1, max_size=r_nodes - 1)))
    z = np.cumsum(draw(st.lists(steps, min_size=z_nodes, max_size=z_nodes))) - 1.0
    values = st.floats(min_value=0.0, max_value=math.pi)
    phi = draw(st.lists(values, min_size=r_nodes * z_nodes, max_size=r_nodes * z_nodes))
    return MeridianField(r, z, np.reshape(phi, (r_nodes, z_nodes)), n)


GAUSS_X, GAUSS_W = np.polynomial.legendre.leggauss(64)
# ulps of 1 per node or cell in the cell kernel's absolute error; the largest
# seen against 200-bit references was 0.75 per node and 0.99 per cell
KERNEL_ULPS = 4.0


def angular_trapezoid_excess(fld):
    """Per slice, pi n^2 * sum over r-cells of (trapezoid - exact) integral
    of sin^2(phi)/r for the piecewise-linear phi, the exact integral taken by
    64-point Gauss-Legendre in log r.  Needs r > 0."""
    r, phi = fld.r_grid, fld.phi
    r0, r1 = r[:-1, None, None], r[1:, None, None]
    p0, p1 = phi[:-1, :, None], phi[1:, :, None]
    log_len = np.log(r1 / r0)
    rr = r0 * np.exp(log_len * (GAUSS_X + 1.0) / 2.0)
    exact = np.sum(np.sin(p0 + (p1 - p0) * (rr - r0) / (r1 - r0)) ** 2 * GAUSS_W, axis=2)
    exact *= log_len[..., 0] / 2.0
    trap = (np.sin(p0[..., 0]) ** 2 / r0[..., 0] + np.sin(p1[..., 0]) ** 2 / r1[..., 0])
    trap *= (r1 - r0)[..., 0] / 2.0
    return math.pi * fld.n ** 2 * np.sum(trap - exact, axis=0)


class TestFieldProperties:
    """Properties of the 3-D functionals on random admissible fields."""

    @settings(max_examples=150, deadline=None)
    @given(fields())
    def test_slice_gap_is_conformality_gap(self, fld):
        energies, areas, _ = field_cells(fld)
        for j in range(fld.z_grid.size):
            gap = conformality_gap(slice_profile(fld, j))
            assert abs(energies[j] - areas[j] - gap) <= 1e-13 * (energies[j] + areas[j])

    @settings(max_examples=150, deadline=None)
    @given(fields(axis=False, max_z_nodes=4))
    @example(MeridianField(np.array([1.0, 2.0]), np.array([0.0, 1.0]),
                           np.array([[0.84, 0.84], [1.88, 1.88]]), 2))
    @example(MeridianField(np.array([1.0, 2.0]), np.array([0.0, 1.0]),
                           np.array([[0.0, 6.26745347e-112], [0.0, 0.0]]), 3))
    @example(MeridianField(np.array([1.0, 2.0]), np.array([0.0, 1.0]),
                           np.array([[math.pi, np.nextafter(math.pi, 0.0)],
                                     [math.pi, math.pi]]), 3))
    @example(MeridianField(np.array([1.0, 2.0]), np.array([0.0, 1.0]),
                           np.array([[1e-8, 2e-8], [1e-8, 1e-8]]), 1))
    def test_energy_dominates_area_up_to_angular_quadrature(self, fld):
        # E >= A holds for the integrals, and the kinetic and area cell rules
        # are exact for the piecewise-linear phi; the angular trapezoid rule
        # is not, so the discrete E - A can be negative (the first example's
        # is -0.78).  What remains, E - A - (trapezoid - exact angular), is
        # pi * sum of the integrals of (|phi_r| - n sin(phi)/r)^2 r >= 0.
        # The kernel's sin^2 phi = (1 - cos)(1 + cos) and its per-cell
        # |d cos phi| are accurate to about one ulp of 1 in absolute terms
        # only, so near a pole (the other examples) its angular term can
        # vanish: the bound adds KERNEL_ULPS ulps per node of the angular
        # weights n^2 t_i / r_i and per cell of the area to the relative part.
        energies, areas, _ = field_cells(fld)
        rest = energies - areas - angular_trapezoid_excess(fld)
        r, n = fld.r_grid, fld.n
        kernel_error = KERNEL_ULPS * np.finfo(float).eps * math.pi * (
            n ** 2 * np.sum(energy._trapezoid_weights(np.diff(r)) / r) + 2.0 * n * (r.size - 1))
        assert np.all(rest >= -1e-12 * (energies + areas) - kernel_error)

    @settings(max_examples=150, deadline=None)
    @given(fields())
    def test_slices_match_radial_functionals(self, fld):
        energies, areas, _ = field_cells(fld)
        for j in range(fld.z_grid.size):
            p = slice_profile(fld, j)
            assert dirichlet_energy_radial(p) == pytest.approx(energies[j], rel=1e-13, abs=0.0)
            assert area_radial(p) == pytest.approx(areas[j], rel=1e-13, abs=0.0)

    @settings(max_examples=150, deadline=None)
    @given(fields(), st.floats(min_value=0.01, max_value=100.0))
    def test_dilation_scales_energy_and_area(self, fld, lam):
        rep = energy_3d(fld)
        scaled = energy_3d(MeridianField(lam * fld.r_grid, lam * fld.z_grid, fld.phi, fld.n))
        assert abs(scaled.E - lam * rep.E) <= 1e-12 * lam * rep.E
        assert abs(scaled.A - lam * rep.A) <= 1e-12 * lam * rep.A


class TestPsiGain:
    """A slice replaced by the reference profile gains at most
    psi = 4 pi n (1 + alpha^2/(1+alpha^2)) - E(slice), the z-derivative part
    left out; the bounds on psi are stated on the slice energy."""

    def test_high_energy_slice_nonpositive(self):
        # a slice covering the sphere twice has energy >= 8 pi n, above the
        # replacement threshold, so psi <= 0
        n, alpha = 2, 0.25
        grid = geometric_grid(1e-6, 1.0, 8193)
        x = np.log(grid)
        t = (x - x[0]) / (x[-1] - x[0])
        phi = math.pi * (1.0 - np.abs(2.0 * t - 1.0))  # 0 -> pi -> 0
        energy = dirichlet_energy_radial(RadialProfile(grid=grid, phi=phi, n=n))
        assert energy >= 2.0 * FOUR_PI * n
        assert energy >= FOUR_PI * n * (1.0 + alpha ** 2 / (1.0 + alpha ** 2))

    def test_dip_slice_bounded_by_minimum_value(self):
        # descending to a, flat, ascending to alpha: 0 < psi <= 8 pi n a^2/(1+a^2)
        n, alpha, a = 2, 0.25, 0.05
        r_a, r_b = 0.3, (a / alpha) ** (1.0 / n)
        grid = geometric_grid(1e-8, 1.0, 16385)
        f = np.where(grid <= r_a, a * (r_a / grid) ** n,
                     np.where(grid <= r_b, a, a * (grid / r_b) ** n))
        energy = dirichlet_energy_radial(RadialProfile(grid=grid, phi=2.0 * np.arctan(f), n=n))
        psi = FOUR_PI * n * (1.0 + alpha ** 2 / (1.0 + alpha ** 2)) - energy
        bound = 8.0 * math.pi * n * a ** 2 / (1.0 + a ** 2)
        assert psi <= bound + 1e-9
        assert psi > 0.0


def box_mask(shape):
    fixed = np.zeros(shape, dtype=bool)
    fixed[0, :] = fixed[-1, :] = fixed[:, 0] = fixed[:, -1] = True
    return fixed


def dense_hessian(system, cos2, convex=False, active=None):
    """The dense Hessian over the free nodes whose lower band is
    ``system.band(cos2, convex, active)``."""
    band = system.band(cos2, convex, active)
    size = band.shape[1]
    d, q = np.nonzero(np.arange(band.shape[0])[:, None] + np.arange(size) < size)
    dense = np.zeros((size, size))
    dense[q + d, q] = dense[q, q + d] = band[d, q]
    return dense


class TestMeridianKernel:
    """The fused energy/gradient/curvature pass and the banded Hessian of
    the relaxation, against the reference cell functions."""

    @staticmethod
    def field(rng, low, high):
        r = np.geomspace(1e-2, 1.0, 9)
        z = np.linspace(-0.5, 0.5, 7)
        return r, z, rng.uniform(low, high, (r.size, z.size))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fused_matches_reference(self, n):
        rng = np.random.default_rng(n)
        r, z, phi = self.field(rng, 0.0, math.pi)
        energy, grad, cos2 = _MeridianSystem(r, z, box_mask(phi.shape), n).evaluate(phi)
        assert energy == pytest.approx(meridian_cell_energy(r, z, phi, n), rel=1e-13)
        ref = meridian_cell_energy_grad(r, z, phi, n)
        assert np.max(np.abs(grad - ref)) <= 1e-13 * np.max(np.abs(ref))
        phi_m = (phi[:-1, :-1] + phi[1:, :-1] + phi[:-1, 1:] + phi[1:, 1:]) / 4.0
        assert np.allclose(cos2, np.cos(2.0 * phi_m), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2])
    def test_gradient_central_differences(self, n):
        rng = np.random.default_rng(10 + n)
        r, z, phi = self.field(rng, 0.0, math.pi)
        grad = meridian_cell_energy_grad(r, z, phi, n)
        h = 1e-6
        for i, j in zip(rng.integers(0, r.size, 12), rng.integers(0, z.size, 12)):
            up, down = phi.copy(), phi.copy()
            up[i, j] += h
            down[i, j] -= h
            fd = (meridian_cell_energy(r, z, up, n) - meridian_cell_energy(r, z, down, n)) / (2 * h)
            assert fd == pytest.approx(grad[i, j], abs=1e-7 * np.max(np.abs(grad)))

    @pytest.mark.parametrize("n", [1, 2])
    def test_hessian_vector_products(self, n):
        # phi_m on both sides of pi/4: the curvature term changes sign
        rng = np.random.default_rng(20 + n)
        r, z, phi = self.field(rng, math.pi / 4 - 0.5, math.pi / 4 + 0.5)
        fixed = box_mask(phi.shape)
        system = _MeridianSystem(r, z, fixed, n)
        _, _, cos2 = system.evaluate(phi)
        assert np.any(cos2 > 0.1) and np.any(cos2 < -0.1)
        hess = dense_hessian(system, cos2)
        h = 1e-5
        for _ in range(4):
            v = rng.normal(size=phi.shape)
            v[fixed] = 0.0
            g_up = system.evaluate(phi + h * v)[1]
            g_down = system.evaluate(phi - h * v)[1]
            fd = ((g_up - g_down) / (2 * h))[~fixed]
            hv = hess @ v[~fixed]
            assert np.max(np.abs(hv - fd)) <= 1e-7 * np.max(np.abs(hv))
        # clipping the curvature at 0 leaves a positive definite matrix, and
        # active nodes keep only their kinetic diagonal
        assert np.min(np.linalg.eigvalsh(dense_hessian(system, cos2, convex=True))) > 0.0
        active = rng.random(system.kinetic_diag.size) < 0.3
        masked = dense_hessian(system, cos2, active=active)
        assert np.array_equal(np.diag(masked)[active], system.kinetic_diag[active])
        off = masked - np.diag(np.diag(masked))
        assert not off[active].any() and not off[:, active].any()
        keep = ~active
        assert np.array_equal(masked[np.ix_(keep, keep)], hess[np.ix_(keep, keep)])
        # numbered along z within each r-row: the band reaches from a node to
        # its neighbour one r-row out and one z-node up
        free_per_row = z.size - 2
        assert system.band(cos2).shape[0] - 1 == free_per_row + 1


def pair_loop_band(system, fixed, cos2, convex=False):
    """The lower band of ``system``'s Hessian in row-major band storage,
    summed by ``np.bincount`` corner pair by corner pair: for each pair
    (k, l) in order, the terms of every cell whose corners k and l are both
    free, k's number not below l's."""
    free = ~fixed
    size = int(np.count_nonzero(free))
    nr, nz = fixed.shape
    ids = np.full(fixed.shape, -1)
    ids[free] = np.arange(size)
    corners = [ids[di:nr - 1 + di, dj:nz - 1 + dj].ravel()
               for di, dj in ((0, 0), (1, 0), (0, 1), (1, 1))]
    a, b = (-1.0, 1.0, -1.0, 1.0), (-1.0, -1.0, 1.0, 1.0)
    q = system.c_m * cos2 / 8.0
    if convex:
        q = np.maximum(q, 0.0)
    rows, cols, curvature, kinetic = [], [], [], []
    for k in range(4):
        for l in range(4):
            cell = np.flatnonzero((corners[l] >= 0) & (corners[k] >= corners[l]))
            rows.append(corners[k][cell])
            cols.append(corners[l][cell])
            curvature.append(q.ravel()[cell])
            kinetic.append(2.0 * (a[k] * a[l] * system.c_r.ravel()[cell]
                                  + b[k] * b[l] * system.c_z.ravel()[cell]))
    row, col = np.concatenate(rows), np.concatenate(cols)
    width = int(np.max(row - col)) + 1
    entries = (row - col) * size + col
    band = np.bincount(entries, weights=np.concatenate(curvature), minlength=width * size)
    band += np.bincount(entries, weights=np.concatenate(kinetic), minlength=width * size)
    return band.reshape(width, size)


class TestBandPattern:
    """Systems on masks with equal contents share one read-only band
    pattern, and their bands are bit-identical to bands built with no
    pattern kept and to bands summed corner pair by corner pair."""

    @staticmethod
    def rows_fixed(fixed, j):
        """``fixed`` with its r-rows 1 to j + 1 fixed as well."""
        mask = fixed.copy()
        mask[1:2 + j] = True
        return mask

    @staticmethod
    def bands(r, z, phi, fixed):
        """The plain, convex and masked bands of the system on ``fixed``."""
        system = _MeridianSystem(r, z, fixed, 2)
        cos2 = system.evaluate(phi)[2]
        size = system.kinetic_diag.size
        active = np.random.default_rng(size).random(size) < 0.2
        return [system.band(cos2), system.band(cos2, convex=True),
                system.band(cos2, active=active)]

    @staticmethod
    def fresh_bands(r, z, phi, fixed):
        energy._cached_pattern.cache_clear()
        return TestBandPattern.bands(r, z, phi, fixed)

    def test_bands_match_bands_without_kept_pattern(self):
        # the box mask, and the half box's with its z = 0 row free
        r, z, phi, half = half_box(2, 0.05, 17)
        box = box_mask(half.shape)
        mutated = half.copy()
        energy._cached_pattern.cache_clear()
        kept = [self.bands(r, z, phi, fixed) for fixed in (box, half, mutated, box)]
        # a mask changed in place after a system was built on it
        mutated[3, 0] = True
        kept.append(self.bands(r, z, phi, mutated))
        assert kept[0][0].shape != kept[1][0].shape
        assert kept[4][0].shape[1] == kept[1][0].shape[1] - 1
        for got, fixed in zip(kept, (box, half, half, box, mutated)):
            for a, b in zip(got, self.fresh_bands(r, z, phi, fixed)):
                assert a.shape == b.shape
                assert a.tobytes(order="F") == b.tobytes(order="F")

    def test_shared_arrays_reject_writes(self):
        r, z, _, fixed = half_box(2, 0.05, 17)
        first, second = _MeridianSystem(r, z, fixed, 1), _MeridianSystem(r, z, fixed.copy(), 2)
        pattern = first._pattern
        assert second._pattern is pattern
        for name in ("index", "entries", "cells", "sign_r", "sign_z", "offsets"):
            with pytest.raises(ValueError):
                getattr(pattern, name)[...] = 0

    def test_indices_are_intp(self):
        # take, put and bincount would copy any other index type on each call
        r, z, _, fixed = half_box(2, 0.05, 17)
        pattern = _MeridianSystem(r, z, fixed, 2)._pattern
        for name in ("index", "entries", "cells"):
            assert getattr(pattern, name).dtype == np.intp

    @pytest.mark.parametrize("n", [1, 2])
    def test_band_matches_pair_loop(self, n):
        r, z, phi, half = half_box(n, 0.25 if n == 1 else 0.05, 33)
        for fixed in (half, box_mask(half.shape)):
            system = _MeridianSystem(r, z, fixed, n)
            cos2 = system.evaluate(phi)[2]
            for convex in (False, True):
                got, want = system.band(cos2, convex), pair_loop_band(system, fixed, cos2, convex)
                assert got.shape == want.shape
                assert got.tobytes(order="C") == want.tobytes()

    def test_kept_patterns_bounded(self):
        r, z, _, fixed = half_box(2, 0.05, 17)
        energy._cached_pattern.cache_clear()
        for j in range(energy._PATTERNS_KEPT + 2):
            _MeridianSystem(r, z, self.rows_fixed(fixed, j), 2)
        assert energy._cached_pattern.cache_info().currsize == energy._PATTERNS_KEPT

    def test_threads_share_patterns(self):
        # more masks than are kept, so that threads also evict and rebuild
        r, z, phi, half = half_box(2, 0.05, 17)
        masks = [self.rows_fixed(half, j) for j in range(energy._PATTERNS_KEPT + 2)]
        want = [self.fresh_bands(r, z, phi, fixed) for fixed in masks]
        energy._cached_pattern.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(self.bands, r, z, phi, masks[k % len(masks)])
                           for k in range(80)]
                got = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for k, bands in enumerate(got):
            for a, b in zip(bands, want[k % len(masks)]):
                assert a.tobytes(order="F") == b.tobytes(order="F")


def full_box(n, alpha, delta, r_box, nodes_r, nodes_z):
    """The full dipole-tradeoff box [r_box 1e-3, r_box] x [-delta, delta]
    with its background field; every edge node is fixed."""
    r = np.geomspace(r_box * 1e-3, r_box, nodes_r)
    z = np.linspace(-delta, delta, nodes_z)
    phi = np.tile(2.0 * np.arctan(alpha * r ** n)[:, None], (1, nodes_z))
    return r, z, phi, box_mask(phi.shape)


def dipole_box(rng, n, nodes, jitter=0.1):
    """The full dipole-tradeoff box [r_box 1e-3, r_box] x [-delta, delta] at
    r_box = delta: the background profile pinned on the outer edge and the
    z ends, the axis flipped to pi, and the interior started from the
    background plus seeded noise."""
    alpha, delta = (0.25, 0.35) if n == 1 else (0.05, 0.35)
    r, z, phi, fixed = full_box(n, alpha, delta, delta, nodes, nodes)
    phi[0, 1:-1] = math.pi
    phi[~fixed] = np.clip(phi[~fixed] + rng.normal(0.0, jitter, int(np.sum(~fixed))),
                          0.0, math.pi)
    return r, z, phi, fixed


class TestBandedNewtonSolve:
    """Each Newton step is solved by banded Cholesky, and by banded LU on
    the same band only where the matrix is indefinite."""

    def test_solves_match_dense_solve(self, monkeypatch):
        inner = energy.dgbsv
        lu_calls = []

        def counted(*args, **kwargs):
            lu_calls.append(None)
            return inner(*args, **kwargs)

        solve = _MeridianSystem.solve
        solves = []

        def checked(system, g, cos2, convex, active):
            before = len(lu_calls)
            x = solve(system, g, cos2, convex, active)
            solves.append((dense_hessian(system, cos2, convex=convex, active=active), g, x,
                           len(lu_calls) > before, active.any()))
            return x

        monkeypatch.setattr(energy, "dgbsv", counted)
        monkeypatch.setattr(_MeridianSystem, "solve", checked)
        # the jittered full boxes stay positive definite at every step; the
        # n = 2 spindle starts of the half boxes are indefinite
        for n, nodes in itertools.product((1, 2), (17, 33)):
            boxes = [dipole_box(np.random.default_rng([n, nodes]), n, nodes),
                     half_box(n, 0.25 if n == 1 else 0.05, nodes)]
            for r, z, phi0, fixed in boxes:
                assert minimize_meridian_energy(r, z, phi0, fixed, n, gtol=1e-8).converged
        assert len(solves) > 100
        assert any(has_active for *_, has_active in solves)
        for hess, g, x, _, _ in solves:
            ref = np.linalg.solve(hess, g)
            assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))
        lu = [hess for hess, _, _, used_lu, _ in solves if used_lu]
        assert lu
        for hess in lu:
            assert np.min(np.linalg.eigvalsh(hess)) < 0.0


class TestFixedColumnOrder:
    """Every Newton step factors its own Hessian in the grid's natural
    column order, z within each r-row: no reordering and no factor kept
    from an earlier step."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_solves_match_per_call_factorization(self, n, monkeypatch):
        solve = _MeridianSystem.solve
        solves = []

        def checked(system, g, cos2, convex, active):
            x = solve(system, g, cos2, convex, active)
            solves.append((system, dense_hessian(system, cos2, convex=convex, active=active),
                           g, x, active.any()))
            return x

        monkeypatch.setattr(_MeridianSystem, "solve", checked)
        grids = []
        for nodes in (17, 33):
            r, z, phi0, fixed = dipole_box(np.random.default_rng([n, nodes]), n, nodes)
            grids.append(fixed)
            assert minimize_meridian_energy(r, z, phi0, fixed, n, gtol=1e-8).converged
        assert len(solves) > 20
        assert any(has_active for *_, has_active in solves)
        systems = list({id(system): system for system, *_ in solves}.values())
        assert ([system.c_r.shape for system in systems]
                == [tuple(np.subtract(fixed.shape, 1)) for fixed in grids])
        for system, fixed in zip(systems, grids):
            # one row of free nodes plus one wide in the natural order
            width = int(np.count_nonzero(~fixed[1])) + 1
            cos2 = np.zeros(np.subtract(fixed.shape, 1))
            assert system.band(cos2).shape == (width + 1, np.count_nonzero(~fixed))
        for _, hess, g, x, _ in solves:
            width = int(np.max(np.abs(np.subtract(*np.nonzero(hess)))))
            size = hess.shape[0]
            lower = np.zeros((width + 1, size))
            full = np.zeros((2 * width + 1, size))
            for d in range(width + 1):
                lower[d, :size - d] = np.diagonal(hess, -d)
                full[width + d, :size - d] = np.diagonal(hess, -d)
                full[width - d, d:] = np.diagonal(hess, d)
            try:
                ref = solveh_banded(lower, g, lower=True)
            except LinAlgError:
                ref = solve_banded((width, width), full, g)
            assert np.array_equal(x, ref)


class TestMeridianRelaxation:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("nodes", [17, 33])
    def test_certificate(self, n, nodes):
        rng = np.random.default_rng([n, nodes])
        r, z, phi0, fixed = dipole_box(rng, n, nodes)
        # near the reference's own gtol: at 1e-5 the flat directions of the
        # n = 2 box leave up to 2e-9 of relative energy on the table
        gtol = 1e-8
        res = minimize_meridian_energy(r, z, phi0, fixed, n, gtol=gtol)
        free = ~fixed
        x = res.phi[free]
        g = meridian_cell_energy_grad(r, z, res.phi, n)[free]
        g[((x <= 0.0) & (g > 0.0)) | ((x >= math.pi) & (g < 0.0))] = 0.0
        assert res.converged
        assert np.max(np.abs(g)) <= gtol
        assert res.grad_norm == pytest.approx(np.max(np.abs(g)), rel=1e-9, abs=1e-15)
        assert np.all(res.phi >= 0.0) and np.all(res.phi <= math.pi)
        assert np.array_equal(res.phi[fixed], phi0[fixed])
        assert res.energy == pytest.approx(meridian_cell_energy(r, z, res.phi, n), rel=1e-13)
        assert res.energy <= meridian_cell_energy(r, z, phi0, n)

        work = phi0.copy()

        def fun(v):
            work[free] = v
            return (meridian_cell_energy(r, z, work, n),
                    meridian_cell_energy_grad(r, z, work, n)[free])

        ref = minimize(fun, phi0[free], jac=True, method="L-BFGS-B",
                       bounds=[(0.0, math.pi)] * int(np.sum(free)),
                       options={"maxiter": 20000, "maxcor": 20, "ftol": 1e-15, "gtol": 1e-9})
        assert res.energy <= ref.fun + 1e-9 * abs(ref.fun)

    def test_iteration_limit_reported(self):
        r, z, phi0, fixed = dipole_box(np.random.default_rng(0), 2, 17)
        res = minimize_meridian_energy(r, z, phi0, fixed, 2, maxiter=1)
        assert res.iterations == 1
        assert not res.converged
        assert res.grad_norm > 1e-5


def half_box(n, alpha, nodes):
    """The half box of the full box of ``nodes`` z-nodes at
    delta = r_box = 0.35, started from the spindle: (r, z, phi, fixed)."""
    return dipole_half_box(n, alpha, 0.35, 0.35, nodes, nodes // 2 + 1)[:4]


def mirrored(phi):
    """The even field on the full box whose upper half is ``phi``."""
    return np.concatenate([phi[:, :0:-1], phi], axis=1)


def spindle_box(n, alpha, nodes):
    """The full box at delta = r_box = 0.35, started from the mirrored
    spindle of its half box, and the index of its z = 0 row."""
    r, z, _, fixed = full_box(n, alpha, 0.35, 0.35, nodes, nodes)
    return r, z, mirrored(half_box(n, alpha, nodes)[2]), fixed, nodes // 2


class TestDipoleLadder:
    """Every rung's nodes are every other node of the next rung's, and the
    prolongation between them is bilinear in (log r, z)."""

    @pytest.mark.parametrize("nodes", [(65, 65), (49, 49), (21, 21), (17, 17), (33, 33)])
    def test_rungs_nest(self, nodes):
        rungs = dipole_ladder(*nodes)
        assert rungs[-2:] == [(nodes[0], nodes[1] // 2 + 1), (2 * nodes[0] - 1, nodes[1])]
        grids = [dipole_half_box(2, 0.05, 0.3, 0.3, nr, nz)[:2] for nr, nz in rungs]
        for (r_c, z_c), (r_f, z_f) in zip(grids, grids[1:]):
            assert np.array_equal(r_f[::2], r_c) and np.array_equal(z_f[::2], z_c)

    @pytest.mark.parametrize("nodes", [(64, 65), (65, 67)])
    def test_unnested_sizes_start_at_the_coarse_level(self, nodes):
        assert len(dipole_ladder(*nodes)) == 2

    @pytest.mark.parametrize("nodes", [33, 65])
    def test_prolongation_is_bilinear(self, nodes):
        m = nodes // 2 + 1
        coarse = np.random.default_rng(nodes).uniform(0.0, math.pi, (m, m))
        r_c, z_c = dipole_half_box(2, 0.05, 0.3, 0.3, m, m)[:2]
        r, z, phi, fixed, _ = dipole_half_box(2, 0.05, 0.3, 0.3, nodes, nodes, coarse)
        in_r = np.stack([np.interp(np.log(r), np.log(r_c), column) for column in coarse.T], axis=1)
        ref = np.stack([np.interp(z, z_c, row) for row in in_r])
        assert np.max(np.abs(phi - ref)[~fixed]) <= 1e-13
        with pytest.raises(ValueError):
            dipole_half_box(2, 0.05, 0.3, 0.3, nodes + 1, nodes, coarse)


def stable_at(r, z, phi, fixed, n):
    """The relaxation's second-order test of ``phi`` itself: no Newton step
    is taken."""
    return minimize_meridian_energy(r, z, phi, fixed, n, maxiter=0).stable


def blocked_nodes(r, z, phi, n):
    """The nodes on a bound of [0, pi] whose gradient pushes onto it."""
    g = meridian_cell_energy_grad(r, z, phi, n)
    return ((phi <= 0.0) & (g > 0.0)) | ((phi >= math.pi) & (g < 0.0))


class TestHalfBox:
    """An even field's full-box energy is twice its upper half's, and so is
    the relaxed energy of the half box with its z = 0 row free."""

    @pytest.mark.parametrize("n, alpha", [(1, 0.25), (2, 0.05)])
    @pytest.mark.parametrize("nodes", [17, 33])
    def test_twice_half_energy_is_full_energy(self, n, alpha, nodes):
        r, z, phi0, fixed, mid = spindle_box(n, alpha, nodes)
        assert 2.0 * meridian_cell_energy(r, z[mid:], phi0[:, mid:], n) == pytest.approx(
            meridian_cell_energy(r, z, phi0, n), rel=1e-13)
        full = minimize_meridian_energy(r, z, phi0, fixed, n)
        half = minimize_meridian_energy(r, z[mid:], phi0[:, mid:], fixed[:, mid:], n)
        assert full.converged and half.converged
        assert 2.0 * half.energy == pytest.approx(full.energy, rel=1e-9)
        # both relaxed states are stable, the full box's on both parities
        assert full.stable and half.stable


class TestStable:
    """The half box's Hessian with the z = 0 row free is definite exactly
    when the mirrored full box's is: at an even state the full box's Hessian
    is twice it on even perturbations and twice its principal submatrix
    without the z = 0 row on odd ones."""

    @pytest.mark.parametrize("n, alpha", [(1, 0.25), (2, 0.05), (2, 0.25)])
    @pytest.mark.parametrize("nodes", [17, 33])
    def test_half_box_agrees_with_full_box(self, n, alpha, nodes):
        r, z, phi0, fixed = half_box(n, alpha, nodes)
        _, z_full, _, fixed_full = full_box(n, alpha, 0.35, 0.35, nodes, nodes)
        relaxed = minimize_meridian_energy(r, z, phi0, fixed, n)
        assert relaxed.converged and relaxed.stable
        for phi, expected in ((relaxed.phi, True), (phi0, None if n == 1 else False)):
            stable = stable_at(r, z, phi, fixed, n)
            assert stable == stable_at(r, z_full, mirrored(phi), fixed_full, n)
            assert expected is None or stable == expected


class TestHessianDefinite:
    """The banded Cholesky test agrees with the eigenvalues of a central-
    difference Hessian over the free nodes."""

    @staticmethod
    def smallest_eigenvalue(r, z, phi, fixed, n, h=1e-6):
        free = np.flatnonzero(~fixed)
        cols = []
        for k in free:
            step = np.zeros(phi.size)
            step[k] = h
            step = step.reshape(phi.shape)
            cols.append((meridian_cell_energy_grad(r, z, phi + step, n)
                         - meridian_cell_energy_grad(r, z, phi - step, n)).ravel()[free] / (2 * h))
        hess = np.array(cols)
        return np.min(np.linalg.eigvalsh((hess + hess.T) / 2))

    @pytest.mark.parametrize("alpha", [0.05, 0.25])
    @pytest.mark.parametrize("nodes", [17, 33])
    def test_unrelaxed_start_indefinite(self, alpha, nodes):
        r, z, phi0, free_z0 = half_box(2, alpha, nodes)
        # with the z = 0 row pinned as well, only the z-odd directions
        pinned_z0 = free_z0.copy()
        pinned_z0[:, 0] = True
        for fixed in (free_z0, pinned_z0):
            assert not stable_at(r, z, phi0, fixed, 2)
            assert self.smallest_eigenvalue(r, z, phi0, fixed, 2) < 0.0
            # so is a symmetric interior at the equator
            equator = np.where(fixed, phi0, math.pi / 2)
            assert not stable_at(r, z, equator, fixed, 2)

    def test_relaxed_state_definite(self):
        r, z, phi0, fixed = half_box(2, 0.05, 17)
        res = minimize_meridian_energy(r, z, phi0, fixed, 2)
        assert res.stable and stable_at(r, z, res.phi, fixed, 2)
        assert self.smallest_eigenvalue(r, z, res.phi, fixed, 2) > 0.0


class TestStableAtExit:
    """``stable`` describes the state the relaxation returns, on an early
    exit too: it agrees with the central-difference Hessian at the returned
    ``phi`` over the free nodes that are not blocked."""

    @staticmethod
    def early_exits():
        r, z, phi0, fixed = half_box(2, 0.05, 17)
        # the spindle start is indefinite; one step is not enough, two are
        for maxiter, stable in ((1, False), (2, True)):
            res = minimize_meridian_energy(r, z, phi0, fixed, 2, maxiter=maxiter)
            yield r, z, fixed, res, stable
        # the 5x5 rung of the 3x3 -> 5x5 ladder at delta = r_box = 0.3
        r, z, phi0, fixed, _ = dipole_half_box(2, 0.05, 0.3, 0.3, 3, 3)
        coarse = minimize_meridian_energy(r, z, phi0, fixed, 2)
        r, z, phi0, fixed, _ = dipole_half_box(2, 0.05, 0.3, 0.3, 5, 5, coarse.phi)
        res = minimize_meridian_energy(r, z, phi0, fixed, 2)
        assert res.message == "line search failed" and res.iterations == 2
        yield r, z, fixed, res, False

    def test_stable_describes_returned_phi(self):
        for r, z, fixed, res, expected in self.early_exits():
            assert not res.converged
            assert res.stable == expected == stable_at(r, z, res.phi, fixed, 2)
            unblocked = fixed | blocked_nodes(r, z, res.phi, 2)
            lowest = TestHessianDefinite.smallest_eigenvalue(r, z, res.phi, unblocked, 2)
            assert (lowest > 0.0) == expected
