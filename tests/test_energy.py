import json
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from axisphere.energy import (
    EnergyReport,
    MeridianField,
    _MeridianSystem,
    area_radial,
    conformality_gap,
    detect_defect_intervals,
    dirichlet_energy_radial,
    energy_3d,
    meridian_cell_energy,
    meridian_cell_energy_grad,
    meridian_from_profile,
    minimize_meridian_energy,
    monotone_area_bound,
    psi_gain,
    slice_energies,
    z_derivative_energy,
)
from axisphere.geometry import RadialProfile, geometric_grid, u0_profile, u_eps_profile

FOUR_PI = 4.0 * math.pi


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

    def test_matches_energy_minus_area(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = random_profile(rng)
            gap = conformality_gap(p)
            diff = dirichlet_energy_radial(p) - area_radial(p)
            assert gap == pytest.approx(diff, rel=1e-8)
            assert gap >= -1e-10

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
        for _ in range(100):
            p = random_profile(rng, n=int(rng.integers(1, 4)))
            assert dirichlet_energy_radial(p) - area_radial(p) >= -1e-10


class TestEnergyReport:
    def test_assemble_and_json(self):
        rep = EnergyReport.assemble(E=2.0, A=1.5, mass_term=3.0)
        assert rep.gap == 0.5
        assert rep.total == 5.0
        loaded = json.loads(rep.to_json())
        assert set(loaded) == {"E", "A", "gap", "mass_term", "total"}
        assert EnergyReport.from_json(rep.to_json()) == rep


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

    def test_axis_consistency(self):
        fld = self.make_u0_field(r_nodes=129, z_nodes=9)
        assert fld.axis_consistency_ok()
        flipped = MeridianField(fld.r_grid, fld.z_grid, math.pi - fld.phi, fld.n,
                                defects=fld.defects)
        assert not flipped.axis_consistency_ok()

    def test_detect_defects(self):
        fld = self.make_u0_field(r_nodes=129, z_nodes=9)
        detected = detect_defect_intervals(fld)
        assert len(detected) == 1
        assert detected[0] == (-1.0, 1.0)

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
            [dirichlet_energy_radial(fld.slice_profile(j)) for j in range(z.size)]
        )
        pieces = float(per_slice @ w_z) + z_derivative_energy(fld) + rep.mass_term
        assert rep.total == pytest.approx(pieces, rel=1e-9)
        assert np.allclose(per_slice, slice_energies(fld), rtol=1e-12)

    def test_csv_round_trip(self, tmp_path):
        fld = self.make_u0_field(r_nodes=33, z_nodes=5)
        path = tmp_path / "field.csv"
        fld.to_csv(path)
        back = MeridianField.from_csv(path)
        assert np.array_equal(back.phi, fld.phi)
        assert back.defects == fld.defects
        assert back.n == fld.n


class TestPsiGain:
    def test_reference_slice(self):
        # the smooth-profile slice realizes psi = 4 pi n exactly
        n, alpha = 2, 0.25
        profile = u0_profile(alpha, n, geometric_grid(1e-6, 1.0, 32769))
        fld = meridian_from_profile(profile, np.linspace(-1, 1, 9), defects=[(-1.0, 1.0)])
        assert psi_gain(fld, 0.0, alpha) == pytest.approx(FOUR_PI * n, rel=1e-6)

    def test_high_energy_slice_nonpositive(self):
        # a slice covering the sphere twice has energy >= 8 pi n, above the
        # replacement threshold, so psi <= 0
        n, alpha = 2, 0.25
        grid = geometric_grid(1e-6, 1.0, 8193)
        x = np.log(grid)
        t = (x - x[0]) / (x[-1] - x[0])
        phi = math.pi * (1.0 - np.abs(2.0 * t - 1.0))  # 0 -> pi -> 0
        p = RadialProfile(grid=grid, phi=phi, n=n)
        fld = meridian_from_profile(p, np.linspace(-1, 1, 5), defects=[(-1.0, 1.0)])
        psi = psi_gain(fld, 0.0, alpha)
        assert psi <= 0.0

    def test_dip_slice_bounded_by_minimum_value(self):
        # descending to a, flat, ascending to alpha: psi <= 8 pi n a^2/(1+a^2)
        n, alpha, a = 2, 0.25, 0.05
        r_a, r_b = 0.3, (a / alpha) ** (1.0 / n)
        grid = geometric_grid(1e-8, 1.0, 16385)
        f = np.where(grid <= r_a, a * (r_a / grid) ** n,
                     np.where(grid <= r_b, a, a * (grid / r_b) ** n))
        p = RadialProfile(grid=grid, phi=2.0 * np.arctan(f), n=n)
        fld = meridian_from_profile(p, np.linspace(-1, 1, 3), defects=())
        psi = psi_gain(fld, 0.0, alpha)
        bound = 8.0 * math.pi * n * a ** 2 / (1.0 + a ** 2)
        assert psi <= bound + 1e-9
        assert psi > 0.0

    def test_off_grid_z_rejected(self):
        profile = u0_profile(0.25, 2, geometric_grid(1e-3, 1.0, 65))
        fld = meridian_from_profile(profile, np.linspace(-1, 1, 5), defects=[(-1.0, 1.0)])
        with pytest.raises(ValueError):
            psi_gain(fld, 0.123, 0.25)


def box_mask(shape):
    fixed = np.zeros(shape, dtype=bool)
    fixed[0, :] = fixed[-1, :] = fixed[:, 0] = fixed[:, -1] = True
    return fixed


class TestMeridianKernel:
    """The fused energy/gradient/curvature pass and the sparse Hessian of
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
        hess = system.hessian(cos2)
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
        assert np.min(np.linalg.eigvalsh(system.hessian(cos2, convex=True).toarray())) > 0.0
        active = rng.random(system.kinetic_diag.size) < 0.3
        masked = system.hessian(cos2, active=active).toarray()
        assert np.array_equal(np.diag(masked)[active], system.kinetic_diag[active])
        off = masked - np.diag(np.diag(masked))
        assert not off[active].any() and not off[:, active].any()
        keep = ~active
        assert np.array_equal(masked[np.ix_(keep, keep)], hess.toarray()[np.ix_(keep, keep)])


def dipole_box(rng, n, nodes, jitter=0.1):
    """The dipole-tradeoff box [0, r_box] x [-delta, delta]: the background
    profile pinned on the outer edge and the z ends, the axis flipped to pi,
    and the interior started from the background plus seeded noise."""
    alpha, delta = (0.25, 0.35) if n == 1 else (0.05, 0.35)
    r = np.geomspace(1e-3 * delta, delta, nodes)
    z = np.linspace(-delta, delta, nodes)
    phi = np.tile(2.0 * np.arctan(alpha * r ** n)[:, None], (1, nodes))
    fixed = box_mask(phi.shape)
    phi[0, 1:-1] = math.pi
    phi[~fixed] = np.clip(phi[~fixed] + rng.normal(0.0, jitter, int(np.sum(~fixed))),
                          0.0, math.pi)
    return r, z, phi, fixed


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
