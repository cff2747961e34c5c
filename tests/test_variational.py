import math

import mpmath
import numpy as np
import pytest

from axisphere.cli import _S_TILDE, ExperimentSpec, run_proposition_sweep
from axisphere.geometry import NumericalError, geometric_grid
from axisphere.variational import (
    ConeConstraint,
    I_functional,
    _GAUSS_NODES,
    _GAUSS_WEIGHTS,
    _I_and_gap,
    _segment_gradient,
    _segment_quadratic,
    _solve_segment,
    compute_t0,
    compute_tau0,
    eta_profile,
    g0_construct,
    gap_lower_bound,
    minimize_I_numerical,
    zeta_profile,
)


def fd_el_residual(profile, r, h=1e-5):
    """-(r g')' + (n^2/r) g by central differences."""
    gp = (profile.value(r + h) - profile.value(r - h)) / (2 * h)
    gpp = (profile.value(r + h) - 2 * profile.value(r) + profile.value(r - h)) / h ** 2
    return -gp - r * gpp + profile.n ** 2 / r * profile.value(r)


def random_cone(rng):
    alpha = rng.uniform(0.01, 0.25)
    a = alpha * rng.uniform(0.1, 1.0)
    s = rng.uniform(0.005, 0.3)
    s_tilde = rng.uniform(s * 1.2, 1.0)
    return ConeConstraint(s=s, s_tilde=s_tilde, a=a, alpha=alpha)


def random_cone_profile(rng, c, grid):
    """A random feasible member of the constraint cone, sampled on grid."""
    st_idx = int(np.searchsorted(grid, c.s_tilde))
    m1, m2 = st_idx + 1, grid.size - st_idx
    down = np.sort(rng.uniform(0.0, 1.0, m1 - 2)) if m1 > 2 else np.empty(0)
    g1 = np.concatenate(([c.b], c.b + (c.a - c.b) * down, [c.a]))
    up = np.sort(rng.uniform(0.0, 1.0, m2 - 2)) if m2 > 2 else np.empty(0)
    g2 = np.concatenate(([c.a], c.a + (c.alpha - c.a) * up, [c.alpha]))
    return np.concatenate([g1, g2[1:]])


class TestClosedFormArcs:
    def test_eta_endpoints(self):
        eta = eta_profile(0.3, 0.1, 0.1, 0.5, 2)
        assert eta.value(0.1) == pytest.approx(0.5, abs=1e-12)
        assert eta.value(0.3) == pytest.approx(0.1, abs=1e-12)

    def test_zeta_endpoints(self):
        zeta = zeta_profile(0.5, 0.05, 0.25, 2)
        assert zeta.value(0.5) == pytest.approx(0.05, abs=1e-12)
        assert zeta.value(1.0) == pytest.approx(0.25, abs=1e-12)

    def test_degenerate_arguments_rejected(self):
        with pytest.raises(ValueError):
            eta_profile(0.1, 0.1, 0.1, 0.5, 2)
        with pytest.raises(ValueError):
            zeta_profile(1.0, 0.05, 0.25, 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stationarity_equation_residual(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            s = rng.uniform(0.01, 0.3)
            t = rng.uniform(s * 1.5, 0.9)
            a, b = rng.uniform(0.01, 0.2), 0.5
            eta = eta_profile(t, s, a, b, n)
            r = np.linspace(s, t, 100)
            assert np.max(np.abs(fd_el_residual(eta, r[5:-5]))) < 1e-4

    def test_zeta_constant_limit(self):
        # a = alpha, tau -> 1: the arc flattens to the constant alpha
        for tau in (0.99, 0.999):
            zeta = zeta_profile(tau, 0.25, 0.25, 2)
            r = np.linspace(tau, 1.0, 50)
            assert np.max(np.abs(zeta.value(r) - 0.25)) < 0.25 * (1 - tau) * 10


class TestZeroSlopeRadii:
    def test_t0_equals_s_at_a_equals_b(self):
        assert compute_t0(0.1, 0.5, 0.5, 2) == pytest.approx(0.1, abs=1e-15)

    def test_t0_reference_value(self):
        t0 = compute_t0(0.1, 0.1, 0.5, 2)
        assert t0 ** 2 == pytest.approx(5 * (1 + math.sqrt(0.96)) * 0.01, rel=1e-12)
        assert t0 == pytest.approx(0.314626, abs=1e-6)

    def test_t0_solves_quadratic_and_beats_discarded_root(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            s, b = rng.uniform(0.01, 0.4), 0.5
            a = rng.uniform(0.01, b)
            t0 = compute_t0(s, a, b, n)
            # a y^2 - 2 b s^n y + a s^{2n} = 0 in y = t0^n
            roots = np.roots([a, -2 * b * s ** n, a * s ** (2 * n)])
            big, small = max(roots), min(roots)
            assert t0 ** n == pytest.approx(big, rel=1e-10)
            assert small ** (1.0 / n) <= s * (1 + 1e-12)
            assert t0 > s * (1 - 1e-12)

    def test_t0_small_a_expansion(self):
        s, b, n = 0.05, 0.5, 2
        for a in (1e-3, 1e-4):
            t0n = compute_t0(s, a, b, n) ** n
            lead = (2 * b / a) * s ** n
            assert t0n / lead == pytest.approx(1 - a ** 2 / (4 * b ** 2), abs=1e-6)

    def test_t0_rejections(self):
        with pytest.raises(ValueError):
            compute_t0(0.1, 0.6, 0.5, 2)
        with pytest.raises(ValueError):
            compute_t0(0.1, 0.0, 0.5, 2)

    def test_tau0_equals_one_iff_a_equals_alpha(self):
        assert compute_tau0(0.25, 0.25, 2) == pytest.approx(1.0, abs=1e-15)
        assert compute_tau0(0.2499, 0.25, 2) < 1.0

    def test_tau0_reference_value(self):
        tau0 = compute_tau0(0.05, 0.25, 2)
        assert tau0 ** 2 == pytest.approx(5 * (1 - math.sqrt(0.96)), rel=1e-12)
        assert tau0 == pytest.approx(0.317837, abs=1e-6)

    def test_tau0_lower_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            alpha = rng.uniform(1e-3, 0.25)
            a = alpha * rng.uniform(1e-3, 1.0)
            tau0 = compute_tau0(a, alpha, n)
            assert tau0 ** n >= 0.5 * (a / alpha) * (1 - 1e-12)
            assert tau0 <= 1.0 + 1e-15

    def test_tau0_rejections(self):
        with pytest.raises(ValueError):
            compute_tau0(0.3, 0.25, 2)

    def test_zero_slope_at_junctions(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            b = 0.5
            s = rng.uniform(0.01, 0.4)
            a = rng.uniform(0.01, 0.25)
            alpha = rng.uniform(a, 0.25)
            t0 = compute_t0(s, a, b, n)
            eta = eta_profile(t0, s, a, b, n)
            assert abs(eta.derivative(t0)) <= 1e-9
            tau0 = compute_tau0(a, alpha, n)
            if tau0 < 1.0:
                zeta = zeta_profile(tau0, a, alpha, n)
                assert abs(zeta.derivative(tau0)) <= 1e-9


class TestConeConstraint:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConeConstraint(s=0.5, s_tilde=0.2, a=0.1, alpha=0.2)
        with pytest.raises(ValueError):
            ConeConstraint(s=0.1, s_tilde=0.5, a=0.3, alpha=0.2)
        with pytest.raises(ValueError):
            ConeConstraint(s=0.1, s_tilde=0.5, a=0.1, alpha=0.3)
        with pytest.raises(ValueError):
            ConeConstraint(s=0.1, s_tilde=1.0, a=0.1, alpha=0.2)


class TestExplicitMinimizer:
    def test_generic_three_pieces(self):
        c = ConeConstraint(s=0.02, s_tilde=0.3, a=0.025, alpha=0.05)
        g0 = g0_construct(c, 2)
        assert g0.t0 < c.s_tilde < g0.tau0 < 1.0
        assert g0.arc_end == pytest.approx(g0.t0)
        assert g0.plateau_end == pytest.approx(g0.tau0)
        # zero slope where the arcs meet the plateau
        assert abs(g0.eta.derivative(g0.t0)) <= 1e-9
        assert abs(g0.zeta.derivative(g0.tau0)) <= 1e-9

    def test_boundary_case_constant_tail(self):
        # a = alpha with s_tilde = 1: an arc then a plateau to the boundary
        c = ConeConstraint(s=0.05, s_tilde=1.0, a=0.05, alpha=0.05)
        g0 = g0_construct(c, 2)
        assert g0.zeta is None
        assert g0.plateau_end == 1.0
        r = np.geomspace(g0.arc_end, 1.0, 50)
        assert np.all(g0.sample(r) == c.a)

    def test_endpoint_arc_when_t0_beyond_s_tilde(self):
        c = ConeConstraint(s=0.1, s_tilde=0.15, a=0.05, alpha=0.1)
        assert compute_t0(c.s, c.a, c.b, 2) > c.s_tilde
        g0 = g0_construct(c, 2)
        assert g0.arc_end == c.s_tilde
        assert g0.eta.value(c.s_tilde) == pytest.approx(c.a, abs=1e-12)

    def test_rising_arc_starts_at_s_tilde_when_tau0_below(self):
        c = ConeConstraint(s=0.01, s_tilde=0.5, a=0.01, alpha=0.2)
        g0 = g0_construct(c, 2)
        assert g0.t0 < g0.tau0 <= c.s_tilde < 1.0
        assert g0.plateau_end == c.s_tilde and g0.zeta.r_lo == c.s_tilde
        assert g0.zeta.value(c.s_tilde) == pytest.approx(c.a, abs=1e-12)
        assert g0.zeta.value(1.0) == pytest.approx(c.alpha, abs=1e-12)
        # the corner at s_tilde: the arc leaves the plateau rising
        assert g0.zeta.derivative(c.s_tilde) > 0.0

    def test_breakpoints_clip_t0_and_tau0(self):
        rng = np.random.default_rng(47)
        reached = set()
        for i in range(400):
            c = random_cone(rng)
            if i % 4 == 0:  # a = alpha: tau0 = 1, at s_tilde < 1 or = 1
                s_tilde = 1.0 if i % 8 == 0 else c.s_tilde
                c = ConeConstraint(s=c.s, s_tilde=s_tilde, a=c.alpha, alpha=c.alpha)
            n = int(rng.integers(1, 4))
            g0 = g0_construct(c, n)
            t0 = compute_t0(c.s, c.a, c.b, n)
            tau0 = 1.0 if c.s_tilde == 1.0 else compute_tau0(c.a, c.alpha, n)
            assert (g0.t0, g0.tau0) == (t0, tau0)
            assert g0.arc_end == min(t0, c.s_tilde)
            assert g0.plateau_end == min(max(tau0, c.s_tilde), 1.0)
            assert (g0.zeta is None) == (g0.plateau_end == 1.0)
            reached.add((t0 < c.s_tilde, tau0 <= c.s_tilde, tau0 < 1.0, c.s_tilde < 1.0))
        assert {key[:2] for key in reached} >= {(True, True), (True, False), (False, False)}
        assert {key[2:] for key in reached} == {(True, True), (False, True), (False, False)}

    def test_continuity_and_cone_membership(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            c = random_cone(rng)
            n = int(rng.integers(1, 4))
            g0 = g0_construct(c, n)
            grid = np.unique(np.concatenate([
                np.geomspace(c.s, 1.0, 800), [c.s_tilde, g0.arc_end, g0.plateau_end]]))
            vals = g0.sample(grid)
            assert vals[0] == pytest.approx(c.b, abs=1e-12)
            assert vals[-1] == pytest.approx(c.alpha, abs=1e-12)
            # continuity: no jump exceeds the local mesh scale times slope bound
            assert np.max(np.abs(np.diff(vals))) < 0.2
            left = grid <= c.s_tilde * (1 + 1e-12)
            assert np.all(np.diff(vals[left]) <= 1e-12)
            right = grid >= c.s_tilde * (1 - 1e-12)
            assert np.all(np.diff(vals[right]) >= -1e-12)
            at_st = np.interp(c.s_tilde, grid, vals)
            assert at_st == pytest.approx(c.a, abs=1e-12)

    def test_variational_inequality(self):
        # one-sided derivative toward feasible competitors is nonnegative
        rng = np.random.default_rng(43)
        c = ConeConstraint(s=0.05, s_tilde=0.2, a=0.025, alpha=0.05)
        n = 2
        g0 = g0_construct(c, n)
        grid = np.unique(np.concatenate([np.geomspace(c.s, 1.0, 100001), [c.s_tilde]]))
        base = g0.sample(grid)
        i_base = I_functional(grid, base, n)
        eps = 1e-4
        for _ in range(50):
            comp = random_cone_profile(rng, c, grid)
            mixed = base + eps * (comp - base)
            derivative = (I_functional(grid, mixed, n) - i_base) / eps
            assert derivative >= -1e-8


class TestIFunctional:
    @pytest.mark.parametrize("anti", [False, True])
    def test_conformal_branches_vanish(self, anti):
        n, cval = 2, 0.3
        r = np.geomspace(0.05, 1.0, 4096)
        g = cval * r ** (-n if anti else n)
        scale = n * n * float(np.max(g)) ** 2 * math.log(r[-1] / r[0])
        assert I_functional(r, g, n) <= 1e-12 * scale

    def test_constant_segment_analytic(self):
        n, a, t0, tau0 = 2, 0.05, 0.1, 0.6
        r = np.geomspace(t0, tau0, 2048)
        g = np.full(r.size, a)
        assert I_functional(r, g, n) == pytest.approx(
            n * n * a * a * math.log(tau0 / t0), rel=1e-12)

    def test_convexity_on_cone(self):
        rng = np.random.default_rng(47)
        c = ConeConstraint(s=0.05, s_tilde=0.3, a=0.02, alpha=0.1)
        grid = np.unique(np.concatenate([np.geomspace(c.s, 1.0, 257), [c.s_tilde]]))
        for _ in range(50):
            g1 = random_cone_profile(rng, c, grid)
            g2 = random_cone_profile(rng, c, grid)
            lam = rng.uniform(0.0, 1.0)
            mix = lam * g1 + (1 - lam) * g2
            bound = lam * I_functional(grid, g1, 2) + (1 - lam) * I_functional(grid, g2, 2)
            assert I_functional(grid, mix, 2) <= bound + 1e-10

    def test_gradient_matches_finite_differences(self):
        # the assembled segment quadratic is the discrete I of a monotone
        # profile, and its gradient matches central differences of I
        rng = np.random.default_rng(53)
        grid = np.geomspace(0.05, 0.3, 65)
        dx, p, q = _segment_quadratic(grid, 2, -1.0)
        for _ in range(20):
            down = np.sort(rng.uniform(0.0, 1.0, 63))
            g = np.concatenate(([0.5], 0.5 - 0.48 * down, [0.02]))
            quadratic = float(np.sum(dx * (p * g[:-1] + q * g[1:]) ** 2))
            assert quadratic == pytest.approx(I_functional(grid, g, 2), rel=1e-12)
            grad = _segment_gradient(dx, p, q, g)
            for idx in rng.integers(1, 64, size=4):
                h = 1e-7
                gp, gm = g.copy(), g.copy()
                gp[idx] += h
                gm[idx] -= h
                fd = (I_functional(grid, gp, 2) - I_functional(grid, gm, 2)) / (2 * h)
                assert fd == pytest.approx(grad[idx], rel=1e-6, abs=1e-9)


class TestNumericalMinimizer:
    def test_matches_explicit_minimizer(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            c = random_cone(rng)
            n = int(rng.integers(1, 3))
            res = minimize_I_numerical(c, n, nodes=256)
            assert res.converged
            ref = I_functional(res.r, g0_construct(c, n).sample(res.r), n)
            scale = max(ref, n * n * c.a * c.a)
            assert abs(res.objective - ref) <= 1e-4 * scale

    def test_degenerate_constant_segment(self):
        # a = alpha = b is excluded by the cone, but a = alpha with s_tilde = 1
        # and t0 < 1 forces a plateau whose value is the analytic log integral
        c = ConeConstraint(s=0.02, s_tilde=1.0, a=0.05, alpha=0.05)
        n = 2
        res = minimize_I_numerical(c, n, nodes=128)
        g0 = g0_construct(c, n)
        plateau = n * n * c.a ** 2 * math.log(1.0 / g0.t0)
        assert res.objective == pytest.approx(g0.objective_closed_form(), rel=1e-3)
        assert res.objective > plateau * (1 - 1e-9)

    def test_grid_self_convergence(self):
        c = ConeConstraint(s=0.05, s_tilde=0.2, a=0.025, alpha=0.05)
        r1 = minimize_I_numerical(c, 2, nodes=256)
        r2 = minimize_I_numerical(c, 2, nodes=512)
        assert abs(r2.objective - r1.objective) <= 1e-4 * r1.objective * 10

    def test_node_minimum(self):
        c = ConeConstraint(s=0.05, s_tilde=0.2, a=0.025, alpha=0.05)
        with pytest.raises(ValueError):
            minimize_I_numerical(c, 2, nodes=32)


def segment_certificate(r, g, n):
    """KKT check of one monotone segment, independent of the solver's own:
    the multipliers of the tight chain constraints come from a dense
    least-squares solve of interior stationarity, grad_j = sign (lam_{j-1} -
    lam_j).  Returns the stationarity residual and the smallest multiplier,
    both relative to max |g| / min dx (the solver's residual scale)."""
    sign = -1.0 if g[0] > g[-1] else 1.0
    dx, p, q = _segment_quadratic(r, n, sign)
    grad = _segment_gradient(dx, p, q, g)[1:-1]
    tight = np.flatnonzero(np.diff(g) == 0.0)
    jac = np.zeros((g.size - 2, tight.size))
    for col, i in enumerate(tight):
        if i >= 1:
            jac[i - 1, col] = -sign
        if i + 1 <= g.size - 2:
            jac[i, col] = sign
    lam = np.linalg.lstsq(jac, grad, rcond=None)[0] if tight.size else np.zeros(0)
    scale = np.max(np.abs(g)) / np.min(dx)
    residual = np.max(np.abs(jac @ lam - grad)) / scale
    return residual, (lam.min() / scale if lam.size else 0.0)


class TestActiveSetCertificate:
    TOL = 1e-10

    @staticmethod
    def cases():
        rng = np.random.default_rng(71)
        for nodes in (64, 256, 512):
            for n in (1, 2, 3):
                for _ in range(3):
                    yield random_cone(rng), n, nodes

    def test_kkt_certificate(self):
        for c, n, nodes in self.cases():
            res = minimize_I_numerical(c, n, nodes=nodes)
            assert res.converged and res.residual <= self.TOL
            k = int(np.argmin(np.abs(res.r - c.s_tilde)))
            assert res.r[k] == c.s_tilde
            assert (res.g[0], res.g[k], res.g[-1]) == (c.b, c.a, c.alpha)
            assert np.all(np.diff(res.g[:k + 1]) <= 0.0)
            assert np.all(np.diff(res.g[k:]) >= 0.0)
            for lo, hi in ((0, k + 1), (k, res.r.size)):
                residual, lam_min = segment_certificate(res.r[lo:hi], res.g[lo:hi], n)
                assert residual <= 1e-8, (c, n, nodes)
                assert lam_min >= -self.TOL, (c, n, nodes)

    def test_not_above_sampled_explicit_minimizer(self):
        # the sampled explicit minimizer is feasible for the discrete cone
        for c, n, nodes in self.cases():
            res = minimize_I_numerical(c, n, nodes=nodes)
            ref = I_functional(res.r, g0_construct(c, n).sample(res.r), n)
            assert res.objective <= ref * (1 + 1e-12)

    def test_independent_of_closed_forms(self, monkeypatch):
        c = ConeConstraint(s=0.05, s_tilde=0.2, a=0.025, alpha=0.05)
        before = minimize_I_numerical(c, 2, nodes=256)

        def forbidden(*args, **kwargs):
            raise AssertionError("closed form used by the numerical route")
        for name in ("g0_construct", "compute_t0", "compute_tau0",
                     "eta_profile", "zeta_profile"):
            monkeypatch.setattr(f"axisphere.variational.{name}", forbidden)
        after = minimize_I_numerical(c, 2, nodes=256)
        assert np.array_equal(after.g, before.g) and np.array_equal(after.r, before.r)
        assert after.objective == before.objective
        assert after.iterations == before.iterations


def dense_kkt_solution(r, lo, hi, n, tight):
    """The segment objective's minimizer with g pinned at both ends and
    g_{i+1} = g_i for each i in ``tight``, from one dense np.linalg.solve of
    the KKT system [[H, A^T], [A, 0]]."""
    sign = -1.0 if lo > hi else 1.0
    dx, p, q = _segment_quadratic(r, n, sign)
    m = r.size
    hess = np.zeros((m, m))
    for i in range(m - 1):
        cell = np.array([p[i], q[i]])
        hess[i:i + 2, i:i + 2] += 2.0 * dx[i] * np.outer(cell, cell)
    rows = np.zeros((2 + len(tight), m))
    rows[0, 0] = rows[1, -1] = 1.0
    for row, i in enumerate(tight, start=2):
        rows[row, i], rows[row, i + 1] = -1.0, 1.0
    kkt = np.block([[hess, rows.T], [rows, np.zeros((rows.shape[0],) * 2)]])
    rhs = np.concatenate([np.zeros(m), [lo, hi], np.zeros(len(tight))])
    return np.linalg.solve(kkt, rhs)[:m]


class TestSegmentSolve:
    """Segments whose final working set leaves one interior block (solved by
    one division) or two (one 2x2 gtsv call).  ``changes`` is the number of
    times the working set changes on the way; each working set is solved
    once, so the solver reports changes + 1 subproblem solves."""

    @pytest.mark.parametrize("nodes,r_lo,r_hi,lo,hi,n,changes,interior", [
        (3, 0.1, 0.2, 0.5, 0.1, 1, 0, 1),
        (4, 0.05, 0.5, 0.1, 0.25, 1, 1, 1),
        (4, 0.3, 1.0, 0.5, 0.1, 3, 1, 1),
        (4, 0.1, 0.2, 0.5, 0.1, 1, 0, 2),
        (5, 0.05, 0.5, 0.1, 0.25, 1, 1, 2),
        (5, 0.05, 0.5, 0.5, 0.02, 2, 1, 2),
    ])
    def test_matches_dense_kkt(self, nodes, r_lo, r_hi, lo, hi, n, changes, interior):
        r = np.geomspace(r_lo, r_hi, nodes)
        g, objective, converged, count, residual = _solve_segment(r, lo, hi, n)
        tight = np.flatnonzero(np.diff(g) == 0.0)
        assert nodes - tight.size - 2 == interior
        assert converged is True and residual <= 1e-10
        assert count == changes + 1
        ref = dense_kkt_solution(r, lo, hi, n, tight)
        np.testing.assert_allclose(g, ref, rtol=1e-12, atol=0.0)
        assert objective == pytest.approx(I_functional(r, ref, n), rel=1e-12)

    def test_flat_segment_converged_is_a_bool(self):
        *_, converged, count, residual = _solve_segment(np.geomspace(0.2, 1.0, 9), 0.1, 0.1, 2)
        assert converged is True and count == 0 and residual == 0.0

    def test_singular_subproblem_raises(self, monkeypatch):
        def singular(dl, d, du, b):
            return dl, d, du, b, 1
        monkeypatch.setattr("axisphere.variational._gtsv", singular)
        c = ConeConstraint(s=0.05, s_tilde=0.2, a=0.025, alpha=0.05)
        with pytest.raises(NumericalError, match="singular segment subproblem"):
            minimize_I_numerical(c, 2, nodes=64)

    @pytest.mark.parametrize("c,n", [
        (ConeConstraint(s=0.05, s_tilde=0.2, a=0.025, alpha=0.05), 2),
        (ConeConstraint(s=0.01, s_tilde=0.02, a=0.05, alpha=0.25), 1),
        (ConeConstraint(s=0.04, s_tilde=1.0, a=0.1, alpha=0.1), 3),
    ])
    def test_primal_loop_finishes_one_round(self, monkeypatch, c, n):
        # one all-free round leaves the running maximum of the unconstrained
        # arcs; the primal loop must drop the plateau back to the optimum
        full = minimize_I_numerical(c, n, nodes=512)
        monkeypatch.setattr("axisphere.variational._ROUNDS", 1)
        capped = minimize_I_numerical(c, n, nodes=512)
        assert capped.converged and capped.residual <= 1e-10
        # the round and the primal loop's final solve are two; more are pivots
        assert capped.iterations > 2
        np.testing.assert_allclose(capped.g, full.g, rtol=1e-12, atol=0.0)
        assert capped.objective == pytest.approx(full.objective, rel=1e-12)

    def test_solves_per_segment_stay_few(self):
        rng = np.random.default_rng(18)
        for nodes in (64, 512, 4096, 32768):
            for n in (1, 2, 3):
                for choice, s_tilde in [*_S_TILDE.items()] * 2:
                    # as in proposition-sweep: s = C0 a with C0 in [1, 20], s < 1/2
                    alpha = rng.uniform(0.01, 0.25)
                    a = alpha if choice == "1" else alpha * rng.uniform(0.1, 1.0)
                    s = a * rng.uniform(1.0, min(20.0, 0.5 / a))
                    c = ConeConstraint(s=s, s_tilde=s_tilde(s), a=a, alpha=alpha)
                    res = minimize_I_numerical(c, n, nodes=nodes)
                    # the sampled arcs meet their pins only up to the rounding
                    # of their coefficients, which cancel on a thin segment
                    # (s_tilde = 2s near 1); pinned, the sample is in the cone
                    g0 = g0_construct(c, n).sample(res.r)
                    g0[[0, np.searchsorted(res.r, c.s_tilde), -1]] = c.b, c.a, c.alpha
                    ref = I_functional(res.r, g0, n)
                    assert res.converged and res.residual <= 1e-10, (c, n, nodes)
                    assert res.objective <= ref * (1 + 1e-12), (c, n, nodes)
                    assert res.iterations <= 16, (c, n, nodes, res.iterations)


class TestGapBound:
    def test_plateau_bound_holds(self):
        c = ConeConstraint(s=0.05, s_tilde=0.2, a=0.025, alpha=0.05)
        gb = gap_lower_bound(c, 2)
        assert not gb.vacuous
        assert gb.log_bound == pytest.approx(
            math.pi * 4 * c.a ** 2 * math.log(gb.tau0 / gb.t0), rel=1e-12)
        assert gb.gap >= math.pi * gb.I_closed * 0.9
        assert gb.gap >= gb.log_bound

    def test_vacuous_when_arcs_cross(self):
        # large s pushes t0 past tau0: the plateau is empty
        c = ConeConstraint(s=0.5, s_tilde=0.7, a=0.2, alpha=0.25)
        gb = gap_lower_bound(c, 2)
        assert gb.vacuous
        assert gb.log_bound == 0.0

    def test_ratio_bound(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            c = random_cone(rng)
            n = int(rng.integers(2, 4))
            gb = gap_lower_bound(c, n)
            assert gb.ratio <= gb.ratio_bound * (1 + 1e-12)

    def test_carries_the_explicit_minimizer(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            c = random_cone(rng)
            n = int(rng.integers(1, 4))
            assert gap_lower_bound(c, n).minimizer == g0_construct(c, n), (c, n)

    def test_weighted_gap_dominates_pi_I(self):
        rng = np.random.default_rng(67)
        c = ConeConstraint(s=0.03, s_tilde=0.4, a=0.02, alpha=0.1)
        grid = np.unique(np.concatenate([np.geomspace(c.s, 1.0, 513), [c.s_tilde]]))
        for _ in range(50):
            g = random_cone_profile(rng, c, grid)
            i_disc, gap = _I_and_gap(grid, g, 2)
            assert i_disc == I_functional(grid, g, 2)
            assert gap >= math.pi * i_disc - 1e-12

    @staticmethod
    def one_array_gap(c, n):
        """The defect of the explicit minimizer sampled on 16385 log-spaced
        nodes with s_tilde inserted, criterion 5's grid."""
        grid = geometric_grid(c.s, 1.0, 16385)
        if c.s_tilde not in grid:
            grid = np.insert(grid, np.searchsorted(grid, c.s_tilde), c.s_tilde)
        return _I_and_gap(grid, g0_construct(c, n).sample(grid), n)[1]

    def test_exact_gap_matches_sampled_on_random_cones(self):
        rng = np.random.default_rng(83)
        for _ in range(60):
            c = random_cone(rng)
            n = int(rng.integers(1, 4))
            gb = gap_lower_bound(c, n)
            assert gb.gap == pytest.approx(self.one_array_gap(c, n), rel=1e-6), (c, n)
            assert gb.gap_err <= 1e-12 * gb.gap, (c, n)

    def test_tiny_alpha_cone_fails_where_sampling_held(self):
        # a 16385-node sampled grid reads 1.48e-14 here, above rhs, and holds
        spec = ExperimentSpec(command="proposition-sweep", params={
            "n": 1, "alpha": [1e-8], "a_frac": [1.0], "c0": [1.0], "s_tilde": ["mid"],
            "nodes": 512})
        (row,), _, _ = run_proposition_sweep(spec)
        assert row["feasible"]
        assert row["gap"] == pytest.approx(8.71e-16, rel=1e-3)
        assert row["rhs"] == pytest.approx(2.51e-15, rel=1e-3)
        assert row["gap"] < row["rhs"] and not row["holds"]

    def test_sampled_gap_converges_at_second_order(self):
        # cones with a small a at alpha <= 0.05 are still pre-asymptotic at
        # 128 nodes: with s_tilde mid, orders from 128 to 256 nodes go down
        # to -1.0 (alpha 0.02, a_frac 0.1, C0 1)
        params = {"n": 2, "alpha": [0.25, 0.1], "a_frac": [1.0, 0.5, 0.1],
                  "c0": [1.0, 5.0], "s_tilde": ["2s", "mid", "1"]}
        errors = []
        for nodes in (128, 256, 512):
            spec = ExperimentSpec(command="proposition-sweep", params={**params, "nodes": nodes})
            rows = [r for r in run_proposition_sweep(spec)[0] if r["feasible"]]
            errors.append(np.array([abs(r["gap_sampled"] - r["gap"]) for r in rows]))
        assert errors[0].size >= 12
        orders = np.log2(errors[:-1]) - np.log2(errors[1:])
        assert orders.min() >= 1.8, orders

    def test_defect_matches_mpmath(self):
        rng = np.random.default_rng(89)
        for _ in range(3):
            c = random_cone(rng)
            for n in (1, 2, 5):
                g0 = g0_construct(c, n)
                want = n * n * mpmath.mpf(c.a) ** 2 * mpmath.log(
                    mpmath.mpf(g0.plateau_end) / g0.arc_end) / (1 + mpmath.mpf(c.a) ** 2) ** 2
                for arc, decreasing in ((g0.eta, True), (g0.zeta, False)):
                    if arc is None:
                        continue
                    cp, cm = mpmath.mpf(arc.c_plus), mpmath.mpf(arc.c_minus)

                    def integrand(x):
                        up = mpmath.exp(n * x)
                        e = 2 * n * (cp * up if decreasing else cm / up)
                        return e * e / (1 + (cp * up + cm / up) ** 2) ** 2

                    lo, hi = mpmath.log(arc.r_lo), mpmath.log(arc.r_hi)
                    with mpmath.workdps(30):
                        want += mpmath.quad(integrand, mpmath.linspace(lo, hi, 6))
                gap, err = g0.defect()
                assert gap == pytest.approx(float(4 * mpmath.pi * want), rel=1e-13), (c, n)
                assert err <= 1e-12 * gap

    def test_gauss_rules_match_mpmath(self):
        # nodes within 1 ulp of 40-digit roots of P_k, weights within 32 ulp
        nodes, weights = _GAUSS_NODES, _GAUSS_WEIGHTS
        for k, x, w in ((8, nodes[:8], weights[:8]), (16, nodes[8:], weights[8:])):
            with mpmath.workdps(40):
                for xi, wi in zip(x, w):
                    root = mpmath.findroot(lambda t: mpmath.legendre(k, t), mpmath.mpf(xi))
                    dp = k * (root * mpmath.legendre(k, root) - mpmath.legendre(k - 1, root)) / (
                        root * root - 1)
                    exact = 2 / ((1 - root * root) * dp * dp)
                    assert abs(mpmath.mpf(xi) - root) <= np.spacing(abs(xi)), (k, xi)
                    assert abs(mpmath.mpf(wi) - exact) <= 32 * np.spacing(wi), (k, wi)
            # the roots found are the k distinct ones, from +1 down to -1
            assert np.all(np.diff(x) < 0.0) and x.size == k

    def test_gauss_rules_integrate_their_degree_exactly(self):
        nodes, weights = _GAUSS_NODES, _GAUSS_WEIGHTS
        for x, w in ((nodes[:8], weights[:8]), (nodes[8:], weights[8:])):
            for degree in range(2 * x.size):
                exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
                assert np.sum(w * x ** degree) == pytest.approx(exact, abs=1e-14)
