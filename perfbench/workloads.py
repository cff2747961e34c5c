"""Workloads of the axisphere benchmark.

A workload's inputs are a list of items: a few blocks, each drawn from a seed
and the block index, in an order drawn from the workload seed, so the same
seed always gives the same inputs.  An item runs through the entry points the command line uses
(the ``axisphere.cli.run_*`` runners) or, for checks that have no command,
through the package's public functions.  Every result is checked against an
independent route or a closed form, at the tolerance the acceptance tests use;
a check returns the list of what went wrong, empty when the item passed.

Importing this module puts the ``src`` directory of the checkout first on
``sys.path``, so the package measured is the one beside the benchmark.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
if not (SRC / "axisphere" / "__init__.py").is_file():
    raise ImportError(f"axisphere sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from axisphere import cli, energy, geometry, variational  # noqa: E402
from axisphere.energy import meridian_cell_energy as _start_energy  # noqa: E402

FOUR_PI = 4.0 * math.pi

# Acceptance tolerances (tests/test_acceptance.py, criteria 1 to 8).
TOL_CLOSED_FORM = 1e-6     # criteria 1 and 7: relative error against the closed form
TOL_AREA = 1e-8            # criterion 2: monotone identity / non-monotone excess
TOL_ROUTES = 1e-9          # criterion 3: brute force, assignment and dual agree
TOL_OPTIMIZER = 1e-4       # criterion 4: numerical I against the explicit minimizer
TOL_STATIONARY = 1e-9      # criterion 4: arc slope at t0
TOL_CHAIN = 1e-8           # criterion 5: bound chain
TOL_QUAD = 1e-5            # criterion 6: slice quadrature against the area
TOL_EXPONENT = 0.2         # criterion 6: fitted deficit exponent against 2n
TOL_DEGREE = 1e-3          # criterion 8: pre-rounding residual

CONE_NODES = 512           # the grid at which criterion 4 sets its tolerance
CONE_B = 0.5               # the crossing level g(s) = b
CHAIN_NODES = 16385        # criterion 5's grid for the bound chain
DIPOLE_NODES = 21          # coarse level; the fine level has 41 nodes
SLICE_NODES = 65537
DEFICIT_NODES = 8193
FIELD_R_NODES, FIELD_Z_NODES = 32769, 65
AREA_NODES = 256
SLICE_ITEMS = 2
AREA_PROFILES = 50         # of each kind (monotone, oscillating) per block
SMALL_K = tuple(range(1, 10))
SMALL_K_COPIES = 2
LARGE_K = (40, 60, 80, 100, 120)


@dataclass(frozen=True)
class Item:
    kind: str
    params: dict[str, Any]

    def label(self) -> str:
        shown = {k: v for k, v in self.params.items() if np.ndim(v) == 0}
        return f"{self.kind} {json.dumps(shown, default=str)}"


@dataclass(frozen=True)
class Kind:
    run: Callable[[dict], Any]
    check: Callable[[dict, Any], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    make_block: Callable[[np.random.Generator, Path], list[Item]]
    blocks: int  # blocks in the item list
    pool_seed: int | None = None  # draws the blocks instead of the workload seed


def block_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2 ** 63, index])


def make_list(workload: Workload, seed: int, workdir: Path) -> list[Item]:
    """The workload's item list for ``seed``: its blocks, drawn from the seed
    (or from the workload's fixed pool seed), in an order drawn from the seed."""
    draw = seed if workload.pool_seed is None else workload.pool_seed
    items = []
    for index in range(workload.blocks):
        block_dir = workdir / f"block{index}"
        block_dir.mkdir(parents=True, exist_ok=True)
        items += workload.make_block(block_rng(draw, index), block_dir)
    order = np.random.default_rng(seed % 2 ** 63).permutation(len(items))
    return [items[i] for i in order]


def run_item(item: Item) -> Any:
    return KINDS[item.kind].run(item.params)


def check_item(item: Item, outcome: Any) -> list[str]:
    return KINDS[item.kind].check(item.params, outcome)


def _rel(value: float, exact: float) -> float:
    return abs(value - exact) / abs(exact)


def _single_row(out) -> tuple[dict | None, list[str]]:
    rows, _summary, code = out[:3]
    fails = [] if code == cli.EXIT_OK else [f"exit code {code}"]
    if len(rows) != 1:
        return None, fails + [f"{len(rows)} rows, expected 1"]
    return rows[0], fails


# ---------------------------------------------------------------------------
# cone-sweep: one proposition-sweep point per item
# ---------------------------------------------------------------------------

# (alpha, a/alpha, C0) per s_tilde choice: points of the proposition-sweep
# grid that together cover its alpha, a/alpha and C0 values
_CONE_DESIGN = {
    "2s": ((0.25, 0.5, 1.0), (0.1, 0.1, 20.0), (0.05, 1.0, 5.0), (0.02, 0.5, 20.0)),
    "mid": ((0.25, 0.1, 1.0), (0.1, 0.5, 5.0), (0.05, 0.1, 20.0), (0.02, 1.0, 1.0)),
    "1": ((0.25, 1.0, 1.0), (0.1, 1.0, 1.0), (0.05, 1.0, 5.0), (0.02, 1.0, 20.0)),
}
CONE_JITTER = 0.1  # each parameter is scaled by exp(U(-0.1, 0.1))


def _cone_block(rng: np.random.Generator, workdir: Path) -> list[Item]:
    """Every design point once, each parameter scaled by a seeded factor
    (alpha kept <= 1/4, a/alpha <= 1, and a/alpha = 1 for s_tilde = 1),
    redrawn until s = C0 a < 1/2 so that the runner solves the point."""
    items = []
    for choice, points in _CONE_DESIGN.items():
        for alpha0, frac0, c00 in points:
            while True:
                scale = np.exp(rng.uniform(-CONE_JITTER, CONE_JITTER, 3))
                alpha = min(0.25, alpha0 * scale[0])
                frac = 1.0 if choice == "1" else min(1.0, frac0 * scale[1])
                c0 = c00 * scale[2]
                if c0 * frac * alpha < 0.5:
                    break
            items.append(Item("cone", {"alpha": float(alpha), "a_frac": float(frac),
                                       "c0": float(c0), "s_tilde": choice}))
    return items


def _run_cone(p: dict):
    spec = cli.ExperimentSpec(command="proposition-sweep", params={
        "n": 2, "alpha": [p["alpha"]], "a_frac": [p["a_frac"]], "c0": [p["c0"]],
        "s_tilde": [p["s_tilde"]], "nodes": CONE_NODES, "b": CONE_B}, workers=1)
    return cli.run_proposition_sweep(spec)


def _check_cone(p: dict, out) -> list[str]:
    row, fails = _single_row(out)
    if row is None:
        return fails
    if not row["feasible"]:
        return fails + ["point skipped as infeasible"]
    if not row["converged"]:
        fails.append(f"optimizer did not converge ({row['iterations']} iterations)")
    if not row["agreement"] <= TOL_OPTIMIZER:
        fails.append(f"numerical I off the explicit minimizer by {row['agreement']:.3g}")
    n, s, s_tilde, a, alpha = row["n"], row["s"], row["s_tilde"], row["a"], row["alpha"]
    # criterion 4: both arcs of the explicit minimizer leave their plateaus
    # with zero slope, at radii computed here rather than read from the row
    t0 = variational.compute_t0(s, a, CONE_B, n)
    if not _rel(row["t0"], t0) <= TOL_STATIONARY:
        fails.append(f"reported t0 {row['t0']!r}, computed {t0!r}")
    slope = float(variational.eta_profile(t0, s, a, CONE_B, n).derivative(t0))
    if not abs(slope) <= TOL_STATIONARY:
        fails.append(f"descending arc slope {slope:.3g} at t0")
    tau0 = 1.0
    if a < alpha:
        tau0 = variational.compute_tau0(a, alpha, n)
        slope = float(variational.zeta_profile(tau0, a, alpha, n).derivative(tau0))
        if not abs(slope) <= TOL_STATIONARY:
            fails.append(f"ascending arc slope {slope:.3g} at tau0")
    # criterion 5: defect >= pi I >= pi n^2 a^2 log(tau0/t0), with I of the
    # explicit minimizer on a fine grid of its own
    cone = variational.ConeConstraint(s=s, s_tilde=s_tilde, a=a, alpha=alpha, b=CONE_B)
    grid = np.unique(np.concatenate([np.geomspace(s, 1.0, CHAIN_NODES), [s_tilde]]))
    pi_i = math.pi * variational.I_functional(grid, variational.g0_construct(cone, n).sample(grid), n)
    if not row["gap"] >= pi_i - TOL_CHAIN:
        fails.append(f"defect {row['gap']:.10g} below pi I = {pi_i:.10g}")
    if t0 < tau0 and not pi_i >= math.pi * n * n * a * a * math.log(tau0 / t0) - TOL_CHAIN:
        fails.append(f"pi I = {pi_i:.10g} below the log bound")
    if row["holds_fast"] and not row["holds"]:
        fails.append("log bound beats the threshold but the defect does not")
    return fails


# ---------------------------------------------------------------------------
# dipole-relax: one dipole-tradeoff point per item
# ---------------------------------------------------------------------------

# the two regimes of criterion 9, and the strata of [0.3, 0.5] that each
# draws one delta from
_DIPOLE_POINTS = ((1, 0.25, 2), (2, 0.05, 4))


def _dipole_block(rng: np.random.Generator, workdir: Path) -> list[Item]:
    """Points from both regimes, one delta drawn from each stratum of
    [0.3, 0.5], around criterion 9's 0.35 and 0.5, so that the list spans
    the range.  The slower regime, n = 2, has more points, so that the median
    and the tail of the item times fall among its points rather than in the
    gap between the regimes."""
    items = []
    for n, alpha, strata in _DIPOLE_POINTS:
        width = 0.2 / strata
        items += [Item("dipole", {"n": n, "alpha": alpha,
                                  "delta": float(rng.uniform(0.3 + i * width, 0.3 + (i + 1) * width))})
                  for i in range(strata)]
    return items


@contextmanager
def _recording_relaxations():
    """Record (start energy, result) of every relaxation the runner makes."""
    levels = []
    inner = cli.minimize_meridian_energy

    def recorded(r, z, phi_init, fixed, n, *args, **kwargs):
        start = _start_energy(r, z, phi_init, n)
        result = inner(r, z, phi_init, fixed, n, *args, **kwargs)
        levels.append((start, result))
        return result

    cli.minimize_meridian_energy = recorded
    try:
        yield levels
    finally:
        cli.minimize_meridian_energy = inner


def _run_dipole(p: dict):
    spec = cli.ExperimentSpec(command="dipole-tradeoff", params={
        "n": p["n"], "alpha": p["alpha"], "delta": [p["delta"]], "rbox_factors": [1.0],
        "nodes_r": DIPOLE_NODES, "nodes_z": DIPOLE_NODES, "maxiter": 3000,
        "jitter": 0.0}, workers=1)
    with _recording_relaxations() as levels:
        rows, summary, code = cli.run_dipole_tradeoff(spec)
    return rows, summary, code, levels


def _check_dipole(p: dict, out) -> list[str]:
    row, fails = _single_row(out)
    if row is None:
        return fails
    levels = out[3]
    if not levels:
        fails.append("no relaxation ran")
    if not row["converged"]:
        fails.append("runner reports non-convergence")
    for start, res in levels:
        if not res.converged:
            fails.append(f"relaxation did not converge: {res.message}")
        if not res.energy <= start + 1e-12 * abs(start):
            fails.append(f"relaxed energy {res.energy:.10g} above its start {start:.10g}")
        if not (np.all(res.phi >= 0.0) and np.all(res.phi <= math.pi)):
            fails.append("relaxed phi leaves [0, pi]")
    if not math.isfinite(row["net"]):
        fails.append("net saving is not finite")
    return fails


# ---------------------------------------------------------------------------
# checks: closed-form and cross-route checks at acceptance sizes
# ---------------------------------------------------------------------------

def _checks_block(rng: np.random.Generator, workdir: Path) -> list[Item]:
    """The closed-form and cross-route checks of acceptance criteria 1, 2,
    3, 6, 7 and 8, at their sizes; the seed draws n, alpha, the area
    profiles and the charge positions."""
    items = [Item("slice-energy", {"n": int(rng.integers(1, 4)),
                                   "alpha": float(rng.uniform(0.05, 0.25))})
             for _ in range(SLICE_ITEMS)]
    for _ in range(AREA_PROFILES):
        n = int(rng.integers(1, 4))
        f_a, f_b = rng.uniform(0.0, 3.0, 2)
        steps = rng.uniform(0.0, 1.0, AREA_NODES - 1)
        ramp = np.concatenate(([0.0], np.cumsum(steps) / steps.sum()))
        items.append(Item("area-monotone", {"n": n, "f_a": float(f_a), "f_b": float(f_b),
                                            "f": f_a + (f_b - f_a) * ramp}))
    for _ in range(AREA_PROFILES):
        n = int(rng.integers(1, 4))
        f_a, f_b = rng.uniform(0.1, 2.0, 2)
        t = np.linspace(0.0, 1.0, AREA_NODES)
        amp = abs(f_b - f_a) + rng.uniform(0.2, 1.0)
        f = np.clip(f_a + (f_b - f_a) * t + amp * np.sin(2 * math.pi * t), 0.01, None)
        f[0], f[-1] = f_a, f_b
        items.append(Item("area-oscillating", {"n": n, "f_a": float(f_a), "f_b": float(f_b),
                                               "f": f}))
    for n in (1, 2, 3):
        # criterion 6 fits at alpha = 1/4: below it the part of the domain
        # under r_min = 1e-6 distorts the n = 1 fit (1.66 at alpha = 0.204)
        items.append(Item("deficit-fit", {"n": n, "alpha": 0.25}))
        for lo, hi in ((0.1, 0.175), (0.175, 0.25)):
            items.append(Item("energy-3d", {"n": n, "alpha": float(rng.uniform(lo, hi))}))
        items.append(Item("degree", {"n": n, "alpha": float(rng.uniform(0.05, 0.25))}))
    items += [_charges_item(rng, workdir, k, copy) for copy in range(SMALL_K_COPIES)
              for k in SMALL_K]
    return items


def _run_slice_energy(p: dict):
    profile = geometry.u0_profile(p["alpha"], p["n"], geometry.geometric_grid(1e-6, 1.0, SLICE_NODES))
    return (energy.dirichlet_energy_radial(profile, (0.0, 1.0)),
            energy.area_radial(profile, (0.0, 1.0)))


def _check_slice_energy(p: dict, out) -> list[str]:
    exact = FOUR_PI * p["n"] * p["alpha"] ** 2 / (1.0 + p["alpha"] ** 2)
    fails = []
    for name, value in zip(("energy", "area"), out):
        if not _rel(value, exact) <= TOL_CLOSED_FORM:
            fails.append(f"slice {name} off the closed form by {_rel(value, exact):.3g}")
    return fails


def _run_area(p: dict):
    profile = geometry.RadialProfile(grid=geometry.geometric_grid(1e-3, 1.0, AREA_NODES),
                                     phi=2.0 * np.arctan(p["f"]), n=p["n"])
    return energy.area_radial(profile), energy.monotone_area_bound(p["f_a"], p["f_b"], p["n"])


def _check_area_monotone(p: dict, out) -> list[str]:
    area, bound = out
    dev = abs(area - bound) / max(bound, 1e-12)
    return [] if dev <= TOL_AREA else [f"monotone area off the identity by {dev:.3g}"]


def _check_area_oscillating(p: dict, out) -> list[str]:
    area, bound = out
    excess = area - bound
    return [] if excess >= TOL_AREA else [f"non-monotone area excess {excess:.3g}"]


_EPS = (0.2, 0.1, 0.05, 0.025)


def _run_deficit_fit(p: dict):
    spec = cli.ExperimentSpec(command="relaxation-check", params={
        "n": [p["n"]], "alpha": p["alpha"], "eps": list(_EPS), "nodes": DEFICIT_NODES,
        "r_min": 1e-6}, workers=1)
    return cli.run_relaxation_check(spec)


def _check_deficit_fit(p: dict, out) -> list[str]:
    rows, _summary, code = out
    n, alpha = p["n"], p["alpha"]
    fails = [] if code == cli.EXIT_OK else [f"exit code {code}"]
    by_eps = {row["eps"]: row for row in rows if not math.isnan(row["eps"])}
    if sorted(by_eps) != sorted(_EPS):
        return fails + [f"rows for eps {sorted(by_eps)}"]
    limit = FOUR_PI * n + FOUR_PI * n * alpha ** 2 / (1.0 + alpha ** 2)
    deficits = [limit - by_eps[eps]["slice_energy"] for eps in _EPS]
    for eps in _EPS:
        row = by_eps[eps]
        err = _rel(row["slice_energy_quadrature"], row["slice_energy"])
        if not err <= TOL_QUAD:
            fails.append(f"eps {eps}: quadrature off the area by {err:.3g}")
    if not (all(d > 0.0 for d in deficits) and all(a > b for a, b in zip(deficits, deficits[1:]))):
        fails.append(f"deficits not positive and decreasing: {deficits}")
    else:
        slope = float(np.polyfit(np.log(_EPS), np.log(deficits), 1)[0])
        if not abs(slope - 2 * n) <= TOL_EXPONENT:
            fails.append(f"fitted exponent {slope:.4f}, expected {2 * n}")
    return fails


def _run_energy_3d(p: dict):
    spec = cli.ExperimentSpec(command="t0-energy", params={
        "n": [p["n"]], "alpha": [p["alpha"]], "r_nodes": FIELD_R_NODES,
        "z_nodes": FIELD_Z_NODES, "r_min": 1e-4}, workers=1)
    return cli.run_t0_energy(spec)


def _check_energy_3d(p: dict, out) -> list[str]:
    row, fails = _single_row(out)
    if row is None:
        return fails
    n, alpha = p["n"], p["alpha"]
    exact = 2.0 * (FOUR_PI * n * alpha ** 2 / (1.0 + alpha ** 2) + FOUR_PI * n)
    if not _rel(row["total"], exact) <= TOL_CLOSED_FORM:
        fails.append(f"total energy off the closed form by {_rel(row['total'], exact):.3g}")
    return fails


def _run_degree(p: dict):
    cone_map = geometry.ConeDipoleMap(alpha=p["alpha"], n=p["n"])
    return (geometry.degree_from_flux(cone_map.colatitude, p["n"], (0.0, 0.0, 1.0), 0.5),
            geometry.degree_from_flux(cone_map.colatitude, p["n"], (0.0, 0.0, -1.0), 0.5))


def _check_degree(p: dict, out) -> list[str]:
    fails = []
    for name, res, expected in (("top", out[0], -p["n"]), ("bottom", out[1], p["n"])):
        if res.degree != expected:
            fails.append(f"{name} degree {res.degree}, expected {expected}")
        if not res.residual < TOL_DEGREE:
            fails.append(f"{name} residual {res.residual:.3g}")
    return fails


# ---------------------------------------------------------------------------
# charges: one sigma configuration file per item (checks and charges-large)
# ---------------------------------------------------------------------------

def _charges_item(rng: np.random.Generator, workdir: Path, k: int, copy: int = 0) -> Item:
    pos = rng.uniform(-1.0, 1.0, (k, 3))
    neg = rng.uniform(-1.0, 1.0, (k, 3))
    path = workdir / f"charges-{k}-{copy}.json"
    path.write_text(json.dumps({"multiplicity": 1, "positives": pos.tolist(),
                                "negatives": neg.tolist()}))
    return Item("charges", {"k": k, "config": str(path), "positives": pos, "negatives": neg})


def _large_block(rng: np.random.Generator, workdir: Path) -> list[Item]:
    return [_charges_item(rng, workdir, k) for k in LARGE_K]


def _run_charges(p: dict):
    spec = cli.ExperimentSpec(command="sigma", params={"config": p["config"]}, workers=1)
    return cli.run_sigma(spec)


def _check_charges(p: dict, out) -> list[str]:
    row, fails = _single_row(out)
    if row is None:
        return fails
    k = p["k"]
    if row["k"] != k:
        return fails + [f"k {row['k']}, expected {k}"]
    matching = [int(tok) for tok in row["matching"].split("|")] if k else []
    if sorted(matching) != list(range(k)):
        return fails + ["matching is not a permutation"]
    # the length of the reported pairing, from the input coordinates
    paired = float(np.sum(np.linalg.norm(p["positives"] - p["negatives"][matching], axis=1))) if k else 0.0
    routes = {"matching": paired, "dual": row["dual"]}
    if k <= 9:
        routes["bruteforce"] = row["bruteforce"]
    for name, value in routes.items():
        if not abs(value - row["length"]) <= TOL_ROUTES:
            fails.append(f"{name} {value!r} differs from the assignment length "
                         f"{row['length']!r} by {abs(value - row['length']):.3g}")
    return fails


KINDS: dict[str, Kind] = {
    "cone": Kind(_run_cone, _check_cone),
    "dipole": Kind(_run_dipole, _check_dipole),
    "slice-energy": Kind(_run_slice_energy, _check_slice_energy),
    "area-monotone": Kind(_run_area, _check_area_monotone),
    "area-oscillating": Kind(_run_area, _check_area_oscillating),
    "deficit-fit": Kind(_run_deficit_fit, _check_deficit_fit),
    "energy-3d": Kind(_run_energy_3d, _check_energy_3d),
    "degree": Kind(_run_degree, _check_degree),
    "charges": Kind(_run_charges, _check_charges),
}

# cone-sweep and dipole-relax draw their inputs from a fixed pool seed and
# take only their order from the workload seed.  Their solvers' iteration
# counts are chaotic in the inputs, so a list drawn from each seed would
# differ in work from seed to seed by more than the host varies in speed.
# A 0.1% change of one cone moved the optimizer between 1,260 and 16,402
# iterations, and the work of a 12-cone block varied by 12% over 48 seeds.
# The fine relaxation of an n = 2 dipole point took either about 1,240 or
# about 1,500 iterations, depending on the draw of delta, and the time of a
# six-point list varied by 18% over five seeds.  Two draws per design point,
# rather than the design points themselves, keep the slow cones in the list:
# the unjittered point (0.25, 0.5, 1.0, 2s) takes 1,328 iterations, its draws
# 6,107 on average.
POOL_SEED = 0

WORKLOADS: dict[str, Workload] = {
    "cone-sweep": Workload("cone-sweep", _cone_block, blocks=2, pool_seed=POOL_SEED),
    "dipole-relax": Workload("dipole-relax", _dipole_block, blocks=1, pool_seed=POOL_SEED),
    "checks": Workload("checks", _checks_block, blocks=2),
    "charges-large": Workload("charges-large", _large_block, blocks=2),
}
