"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -s`` and in failure reports) and enforces its runtime budget.
"""

import itertools
import math
import time
import warnings

import numpy as np
import pytest

from axisphere.cli import ExperimentSpec, run_dipole_tradeoff
from axisphere.connection import (
    SingularityConfig,
    kantorovich_dual,
    min_connection_assignment,
    min_connection_bruteforce,
)
from axisphere.energy import (
    area_radial,
    dirichlet_energy_radial,
    energy_3d,
    meridian_from_profile,
    monotone_area_bound,
)
from axisphere.geometry import (
    ConeDipoleMap,
    RadialProfile,
    degree_from_flux,
    geometric_grid,
    u0_profile,
    u_eps_profile,
)
from axisphere.variational import (
    ConeConstraint,
    I_functional,
    compute_t0,
    compute_tau0,
    eta_profile,
    g0_construct,
    gap_lower_bound,
    minimize_I_numerical,
    zeta_profile,
)

from assignment_reference import reference_search

FOUR_PI = 4.0 * math.pi


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_conformal_slice_energy():
    t0 = time.perf_counter()
    n, alpha = 2, 0.25
    profile = u0_profile(alpha, n, geometric_grid(1e-6, 1.0, 65537))
    energy = dirichlet_energy_radial(profile, (0.0, 1.0))
    area = area_radial(profile, (0.0, 1.0))
    exact = FOUR_PI * n * alpha ** 2 / (1.0 + alpha ** 2)
    err_e = abs(energy - exact) / exact
    err_a = abs(area - exact) / exact
    elapsed = time.perf_counter() - t0
    ok = err_e <= 1e-6 and err_a <= 1e-6 and elapsed < 1.0
    report(1, ok, f"E rel err {err_e:.2e}, A rel err {err_a:.2e}, {elapsed:.2f}s")
    assert err_e <= 1e-6
    assert err_a <= 1e-6
    assert elapsed < 1.0


def test_criterion_2_monotone_area_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    grid = geometric_grid(1e-3, 1.0, 256)
    worst_eq, worst_gap = 0.0, math.inf
    for _ in range(100):
        n = int(rng.integers(1, 4))
        f_a, f_b = rng.uniform(0.0, 3.0, 2)
        steps = rng.uniform(0.0, 1.0, grid.size - 1)
        ramp = np.concatenate(([0.0], np.cumsum(steps) / steps.sum()))
        f = f_a + (f_b - f_a) * ramp
        p = RadialProfile(grid=grid, phi=2.0 * np.arctan(f), n=n)
        bound = monotone_area_bound(f_a, f_b, n)
        worst_eq = max(worst_eq, abs(area_radial(p) - bound) / max(bound, 1e-12))
    for _ in range(100):
        n = int(rng.integers(1, 4))
        f_a, f_b = rng.uniform(0.1, 2.0, 2)
        t = np.linspace(0.0, 1.0, grid.size)
        amp = abs(f_b - f_a) + rng.uniform(0.2, 1.0)
        f = np.clip(f_a + (f_b - f_a) * t + amp * np.sin(2 * math.pi * t), 0.01, None)
        f[0], f[-1] = f_a, f_b
        p = RadialProfile(grid=grid, phi=2.0 * np.arctan(f), n=n)
        worst_gap = min(worst_gap, area_radial(p) - monotone_area_bound(f_a, f_b, n))
    elapsed = time.perf_counter() - t0
    ok = worst_eq <= 1e-8 and worst_gap >= 1e-8 and elapsed < 5.0
    report(2, ok, f"monotone dev {worst_eq:.2e}, non-monotone excess {worst_gap:.2e}, {elapsed:.2f}s")
    assert worst_eq <= 1e-8
    assert worst_gap >= 1e-8
    assert elapsed < 5.0


def test_criterion_3_minimal_connection_triple():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 9))
        cfg = SingularityConfig(
            positives=rng.uniform(-1, 1, (k, 3)),
            negatives=rng.uniform(-1, 1, (k, 3)),
        )
        brute = min_connection_bruteforce(cfg).length
        fast = min_connection_assignment(cfg).length
        dual = kantorovich_dual(cfg)
        # the tests' own Hungarian method: an oracle that shares no code with
        # the search behind fast and dual
        dist = cfg.distance_matrix()
        oracle = dist[np.arange(k), reference_search(dist)[0]].sum()
        worst = max(worst, abs(brute - fast), abs(brute - dual), abs(oracle - fast))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    report(3, ok, f"max route disagreement {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_4_optimizer_matches_explicit_minimizer():
    t0 = time.perf_counter()
    n = 2
    alphas = [0.25, 0.15, 0.1, 0.05, 0.02]
    fracs = [1.0, 0.75, 0.5, 0.25, 0.1]
    s_values = [0.01, 0.03, 0.07, 0.15, 0.3]
    worst_obj, worst_stat = 0.0, 0.0
    count = 0
    for alpha, frac, s in itertools.product(alphas, fracs, s_values):
        a = frac * alpha
        trio = [
            ConeConstraint(s=s, s_tilde=2 * s, a=a, alpha=alpha),
            ConeConstraint(s=s, s_tilde=(s + 1) / 2, a=a, alpha=alpha),
            ConeConstraint(s=s, s_tilde=1.0, a=alpha, alpha=alpha),
        ]
        for cone in trio:
            count += 1
            res = minimize_I_numerical(cone, n, nodes=512)
            assert res.converged
            ref = I_functional(res.r, g0_construct(cone, n).sample(res.r), n)
            worst_obj = max(worst_obj, abs(res.objective - ref) / ref)
            t_star = compute_t0(cone.s, cone.a, cone.b, n)
            eta = eta_profile(t_star, cone.s, cone.a, cone.b, n)
            worst_stat = max(worst_stat, abs(eta.derivative(t_star)))
            if cone.a < cone.alpha:
                tau_star = compute_tau0(cone.a, cone.alpha, n)
                zeta = zeta_profile(tau_star, cone.a, cone.alpha, n)
                worst_stat = max(worst_stat, abs(zeta.derivative(tau_star)))
    elapsed = time.perf_counter() - t0
    ok = worst_obj <= 1e-4 and worst_stat <= 1e-9 and elapsed < 120.0
    report(4, ok, f"{count} runs, worst objective dev {worst_obj:.2e}, "
                  f"worst stationarity {worst_stat:.2e}, {elapsed:.0f}s")
    assert worst_obj <= 1e-4
    assert worst_stat <= 1e-9
    assert elapsed < 120.0


def test_criterion_5_gap_bound_chain():
    t0 = time.perf_counter()
    n = 2
    alphas = [0.25, 0.1, 0.05, 0.02]
    fracs = [1.0, 0.5, 0.1]
    c0s = [1.0, 5.0, 20.0]
    chain_ok = True
    gate_ok = True
    checked, gated = 0, 0
    for alpha, frac, c0 in itertools.product(alphas, fracs, c0s):
        a = frac * alpha
        s = c0 * a
        if s >= 0.5:
            continue
        tilde_choices = [2 * s, (s + 1) / 2] + ([1.0] if frac == 1.0 else [])
        for st in tilde_choices:
            if not s < st <= 1.0:
                continue
            cone = ConeConstraint(s=s, s_tilde=st, a=a, alpha=alpha)
            gb = gap_lower_bound(cone, n)
            grid = np.unique(np.concatenate([np.geomspace(s, 1.0, 16385), [st]]))
            i_disc = I_functional(grid, g0_construct(cone, n).sample(grid), n)
            checked += 1
            if not gb.vacuous and i_disc < n * n * a * a * math.log(gb.tau0 / gb.t0) - 1e-8:
                chain_ok = False
            if gb.gap < math.pi * i_disc - 1e-8:
                chain_ok = False
            if gb.holds_fast and not gb.holds:
                chain_ok = False
            if c0 == 1.0 and alpha <= 0.05:
                gated += 1
                if not gb.holds:
                    gate_ok = False
    elapsed = time.perf_counter() - t0
    ok = chain_ok and gate_ok and elapsed < 120.0
    report(5, ok, f"{checked} points chained, replacement-gain inequality at "
                  f"{gated} gated points (C0=1, alpha<=0.05), {elapsed:.1f}s")
    assert chain_ok
    assert gate_ok
    assert elapsed < 120.0


def test_criterion_6_relaxation_limit():
    t0 = time.perf_counter()
    alpha = 0.25
    eps_list = [0.2, 0.1, 0.05, 0.025]
    worst = 0.0
    for n in (1, 2, 3):
        limit = FOUR_PI * n + FOUR_PI * n * alpha ** 2 / (1.0 + alpha ** 2)
        deficits = []
        for eps in eps_list:
            profile = u_eps_profile(alpha, n, eps, geometric_grid(1e-6, 1.0, 8193))
            energy = area_radial(profile)  # branchwise conformal: E equals A
            quad = dirichlet_energy_radial(profile)
            assert abs(quad - energy) / energy < 1e-5
            deficits.append(limit - energy)
        assert all(d > 0 for d in deficits)
        assert all(a > b for a, b in zip(deficits, deficits[1:]))
        slope = float(np.polyfit(np.log(eps_list), np.log(deficits), 1)[0])
        worst = max(worst, abs(slope - 2 * n))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.2 and elapsed < 30.0
    report(6, ok, f"worst exponent deviation {worst:.3f}, {elapsed:.1f}s")
    assert worst <= 0.2
    assert elapsed < 30.0


def test_criterion_7_reference_energy_accounting():
    t0 = time.perf_counter()
    worst = 0.0
    z_grid = np.linspace(-1.0, 1.0, 65)
    for n in (1, 2, 3):
        for alpha in (0.25, 0.1):
            profile = u0_profile(alpha, n, geometric_grid(1e-4, 1.0, 32769))
            fld = meridian_from_profile(profile, z_grid, defects=[(-1.0, 1.0)])
            rep = energy_3d(fld)
            closed = 2.0 * (FOUR_PI * n * alpha ** 2 / (1.0 + alpha ** 2) + FOUR_PI * n)
            worst = max(worst, abs(rep.total - closed) / closed)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    report(7, ok, f"worst total rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_criterion_8_degree_flux():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3):
        cone_map = ConeDipoleMap(alpha=0.25, n=n)
        top = degree_from_flux(cone_map.colatitude, n, (0.0, 0.0, 1.0), 0.5)
        bot = degree_from_flux(cone_map.colatitude, n, (0.0, 0.0, -1.0), 0.5)
        assert top.degree == -n
        assert bot.degree == n
        worst = max(worst, top.residual, bot.residual)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < 10.0
    report(8, ok, f"degrees -+n for n in 1..3, worst residual {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-3
    assert elapsed < 10.0


def test_criterion_9_dipole_contrast_evidence():
    t0 = time.perf_counter()
    spec_n1 = ExperimentSpec(command="dipole-tradeoff", params=dict(
        n=1, alpha=0.25, delta=[0.35, 0.5], rbox_factors=[1.0],
        nodes_r=49, nodes_z=49))
    rows1, summary1, code1 = run_dipole_tradeoff(spec_n1)
    spec_n2 = ExperimentSpec(command="dipole-tradeoff", params=dict(
        n=2, alpha=0.05, delta=[0.35], rbox_factors=[1.0, 2.0],
        nodes_r=49, nodes_z=49))
    rows2, summary2, code2 = run_dipole_tradeoff(spec_n2)
    elapsed = time.perf_counter() - t0

    all_converged = all(r["converged"] for r in rows1 + rows2)
    n1_positive = summary1["any_positive_net"]
    n2_none_positive = not summary2["any_positive_net"]
    detail = (
        f"EVIDENCE (non-gating): n=1 positive net {'found' if n1_positive else 'not resolved'} "
        f"(best extrapolated {summary1['best_net']:+.4f}, best finite-level "
        f"{summary1['best_net_fine']:+.4f}); n=2 positive net "
        f"{'absent' if n2_none_positive else 'seen at finite level'} "
        f"(best extrapolated {summary2['best_net']:+.4f}); "
        f"convergence diagnostics {'all pass' if all_converged else 'FAILED'}, {elapsed:.0f}s"
    )
    report(9, all_converged, detail)
    if not (n1_positive and n2_none_positive):
        warnings.warn(
            "dipole contrast evidence inconclusive at this resolution: " + detail
        )
    assert all_converged
    # every relaxed level is stable on both parities of the full box
    assert all(r["stable"] for r in rows1 + rows2)
    assert code1 in (0,)
    assert code2 in (0,)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
