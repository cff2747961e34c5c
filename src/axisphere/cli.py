"""Command-line experiment harness.

Commands
--------
t0-energy          Energy accounting of the reference configuration: the
                   smooth winding-n map with a full-axis vertical defect.
relaxation-check   Slice energies of the regularized maps u_eps and the
                   convergence rate of their deficit as eps -> 0.
proposition-sweep  Constrained-minimizer sweep: closed form vs. numerical
                   optimizer, the logarithmic gap bound, and the
                   replacement-gain inequality, over (alpha, a, C0) grids.
dipole-tradeoff    Does removing a piece of the vertical defect and paying
                   Dirichlet energy for a dipole ever win?  (Exploratory.)
sigma              Minimal connection of a point-charge configuration file.

All commands are deterministic given their parameters; CSV output uses 12
significant digits and re-runs are bit-identical; JSON output is strict,
with non-finite values written as null.  Exit codes: 0 success, 2 input
error, 3 optimizer non-convergence, 4 numerical failure (a quadrature too
coarse to resolve, a failed LP, or a bound chain contradicting itself).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from typing import Any, Callable, Sequence

import numpy as np

from .connection import (
    SingularityConfig,
    kantorovich_dual,
    min_connection_assignment,
    min_connection_bruteforce,
)
from .energy import (
    area_radial,
    dirichlet_energy_radial,
    energy_3d,
    meridian_cell_energy,
    meridian_from_profile,
    minimize_meridian_energy,
)
from .geometry import NumericalError, geometric_grid, u0_profile, u_eps_profile
from .variational import (
    ConeConstraint,
    I_functional,
    g0_construct,
    gap_lower_bound,
    minimize_I_numerical,
)

__all__ = ["main", "ExperimentSpec", "InputError"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NUMERICAL = 4

_FOUR_PI = 4.0 * math.pi


class InputError(ValueError):
    """Invalid experiment parameters (exit code 2)."""


@dataclass
class ExperimentSpec:
    """A validated experiment: command name, parameters, output destination."""

    command: str
    params: dict[str, Any]
    out: str | None = None
    fmt: str = "csv"
    workers: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.fmt not in ("csv", "json"):
            raise InputError(f"unknown format {self.fmt!r}")
        if self.workers < 1:
            raise InputError("workers must be >= 1")


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _json_safe(value: Any) -> Any:
    """Non-finite floats become None (null), which strict JSON admits."""
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        return None
    return value


def _write_rows(rows: list[dict], summary: dict, spec: ExperimentSpec) -> None:
    if spec.out is None:
        return
    if spec.fmt == "json":
        with open(spec.out, "w") as fh:
            json.dump(_json_safe({"rows": rows, "summary": summary}), fh, indent=1,
                      default=float, allow_nan=False)
            fh.write("\n")
        return
    with open(spec.out, "w", newline="") as fh:
        if rows:
            cols = list(rows[0].keys())
            fh.write(",".join(cols) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(row[c]) for c in cols) + "\n")


def _parallel_map(fn: Callable[[Any], dict], points: Sequence[Any], workers: int) -> list[dict]:
    if workers <= 1 or len(points) <= 1:
        return [fn(p) for p in points]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, points))


def _floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in str(text).split(",") if tok != ""]
    except ValueError as exc:
        raise InputError(f"bad numeric list {text!r}") from exc


def _ints(text: str) -> list[int]:
    vals = _floats(text)
    if not all(math.isfinite(v) and v == int(v) for v in vals):
        raise InputError(f"expected integers, got {text!r}")
    return [int(v) for v in vals]


# ---------------------------------------------------------------------------
# t0-energy
# ---------------------------------------------------------------------------

def run_t0_energy(spec: ExperimentSpec) -> tuple[list[dict], dict, int]:
    p = spec.params
    ns, alphas = p["n"], p["alpha"]
    r_nodes, z_nodes, r_min = p["r_nodes"], p["z_nodes"], p["r_min"]
    for n in ns:
        if n < 1:
            raise InputError("n must be >= 1")
    for alpha in alphas:
        if not 0.0 <= alpha <= 0.25:
            raise InputError("alpha must lie in [0, 1/4]")

    z_grid = np.linspace(-1.0, 1.0, z_nodes)

    def one(point: tuple[int, float]) -> dict:
        n, alpha = point
        profile = u0_profile(alpha, n, geometric_grid(r_min, 1.0, r_nodes))
        fld = meridian_from_profile(profile, z_grid, defects=[(-1.0, 1.0)])
        rep = energy_3d(fld)
        slice_quad = dirichlet_energy_radial(profile)
        slice_closed = _FOUR_PI * n * alpha ** 2 / (1.0 + alpha ** 2)
        total_closed = 2.0 * (slice_closed + _FOUR_PI * n)
        return {
            "n": n, "alpha": alpha,
            "slice_energy": slice_quad, "slice_closed": slice_closed,
            "E": rep.E, "A": rep.A, "gap": rep.gap,
            "mass_term": rep.mass_term, "total": rep.total,
            "total_closed": total_closed,
            "rel_err": abs(rep.total - total_closed) / total_closed,
        }

    points = [(n, alpha) for n in ns for alpha in alphas]
    rows = _parallel_map(one, points, spec.workers)
    summary = {"max_rel_err": max(r["rel_err"] for r in rows)}
    return rows, summary, EXIT_OK


# ---------------------------------------------------------------------------
# relaxation-check
# ---------------------------------------------------------------------------

def run_relaxation_check(spec: ExperimentSpec) -> tuple[list[dict], dict, int]:
    p = spec.params
    ns, alpha, eps_list, nodes, r_min = p["n"], p["alpha"], p["eps"], p["nodes"], p["r_min"]
    if not 0.0 < alpha <= 0.25:
        raise InputError("alpha must lie in (0, 1/4]")
    if not eps_list or any(not 0.0 < e < 1.0 for e in eps_list):
        raise InputError("eps values must lie in (0, 1)")
    eps_list = sorted(eps_list, reverse=True)

    rows: list[dict] = []
    fits: dict[int, float] = {}
    for n in ns:
        limit = _FOUR_PI * n + _FOUR_PI * n * alpha ** 2 / (1.0 + alpha ** 2)
        deficits = []
        for eps in eps_list:
            profile = u_eps_profile(alpha, n, eps, geometric_grid(r_min, 1.0, nodes))
            # both branches are conformal, so the slice energy equals the
            # area, which the cell rule integrates exactly branch by branch
            e_area = area_radial(profile)
            e_quad = dirichlet_energy_radial(profile)
            deficit = limit - e_area
            deficits.append(deficit)
            rows.append({
                "n": n, "alpha": alpha, "eps": eps,
                "slice_energy": e_area, "slice_energy_quadrature": e_quad,
                "quad_rel_err": abs(e_quad - e_area) / e_area,
                "limit": limit, "deficit": deficit,
            })
        slope = float(np.polyfit(np.log(eps_list), np.log(deficits), 1)[0])
        fits[n] = slope
        monotone = bool(np.all(np.diff(deficits) < 0.0) and np.all(np.array(deficits) > 0.0))
        rows.append({
            "n": n, "alpha": alpha, "eps": float("nan"),
            "slice_energy": float("nan"), "slice_energy_quadrature": float("nan"),
            "quad_rel_err": float("nan"), "limit": limit, "deficit": float("nan"),
        })
        rows[-1]["fitted_exponent"] = slope
        rows[-1]["deficits_positive_decreasing"] = monotone

    # uniform columns across rows
    for row in rows:
        row.setdefault("fitted_exponent", float("nan"))
        row.setdefault("deficits_positive_decreasing", True)
    summary = {"fitted_exponents": {str(n): fits[n] for n in ns},
               "expected_exponents": {str(n): 2 * n for n in ns}}
    return rows, summary, EXIT_OK


# ---------------------------------------------------------------------------
# proposition-sweep
# ---------------------------------------------------------------------------

def _s_tilde_value(choice: str, s: float) -> float:
    if choice == "2s":
        return 2.0 * s
    if choice == "mid":
        return (s + 1.0) / 2.0
    if choice == "1":
        return 1.0
    raise InputError(f"unknown s_tilde choice {choice!r} (use 2s, mid, 1)")


def run_proposition_sweep(spec: ExperimentSpec) -> tuple[list[dict], dict, int]:
    p = spec.params
    n = p["n"]
    alphas, a_fracs, c0s = p["alpha"], p["a_frac"], p["c0"]
    choices, nodes, b = p["s_tilde"], p["nodes"], p["b"]
    if n < 1:
        raise InputError("n must be >= 1")
    if any(not 0.0 < alpha <= 0.25 for alpha in alphas):
        raise InputError("alpha values must lie in (0, 1/4]")
    if any(not 0.0 < f <= 1.0 for f in a_fracs):
        raise InputError("a fractions must lie in (0, 1]")
    if any(c0 <= 0.0 for c0 in c0s):
        raise InputError("C0 values must be positive")

    points = [
        (alpha, frac, c0, choice)
        for alpha in alphas for frac in a_fracs for c0 in c0s for choice in choices
    ]

    def one(point: tuple[float, float, float, str]) -> dict:
        alpha, frac, c0, choice = point
        a = frac * alpha
        s = c0 * a
        row: dict[str, Any] = {
            "n": n, "alpha": alpha, "a": a, "s": s, "s_tilde": float("nan"),
            "t0": float("nan"), "tau0": float("nan"),
            "I_closed": float("nan"), "I_numeric": float("nan"),
            "bound": float("nan"), "gap": float("nan"), "rhs": float("nan"),
            "holds": False, "holds_fast": False, "vacuous": False,
            "agreement": float("nan"), "C0": c0, "s_tilde_choice": choice,
            "feasible": False, "converged": True, "iterations": 0,
        }
        if s >= 0.5:  # annulus too thin: the crossing radius reaches b's level
            return row
        s_tilde = _s_tilde_value(choice, s)
        if choice == "1" and frac != 1.0:
            return row  # s_tilde = 1 pins g(1) twice; only meaningful at a = alpha
        if not s < s_tilde <= 1.0:
            return row
        a_eff = alpha if choice == "1" else a
        cone = ConeConstraint(s=s, s_tilde=s_tilde, a=a_eff, alpha=alpha, b=b)
        gb = gap_lower_bound(cone, n)
        num = minimize_I_numerical(cone, n, nodes=nodes)
        g0 = g0_construct(cone, n)
        i_g0_disc = I_functional(num.r, g0.sample(num.r), n)
        denom = max(i_g0_disc, 1e-300)
        row.update({
            "s_tilde": s_tilde, "t0": gb.t0, "tau0": gb.tau0,
            "I_closed": gb.I_closed, "I_numeric": num.objective,
            "bound": gb.log_bound, "gap": gb.gap, "rhs": gb.rhs,
            "holds": gb.holds, "holds_fast": gb.holds_fast, "vacuous": gb.vacuous,
            "agreement": abs(num.objective - i_g0_disc) / denom,
            "feasible": True, "converged": num.converged, "iterations": num.iterations,
        })
        return row

    rows = _parallel_map(one, points, spec.workers)

    # empirical alpha0 per C0: the largest swept alpha whose feasible points
    # all satisfy the replacement-gain inequality
    alpha0: dict[str, float] = {}
    for c0 in c0s:
        best = 0.0
        for alpha in alphas:
            sel = [r for r in rows if r["C0"] == c0 and r["alpha"] == alpha and r["feasible"]]
            if sel and all(r["holds"] for r in sel):
                best = max(best, alpha)
        alpha0[_fmt(c0)] = best
    fast_path_consistent = all(r["holds"] for r in rows if r["feasible"] and r["holds_fast"])
    bad = [r for r in rows if r["feasible"] and not r["converged"]]
    summary = {
        "empirical_alpha0_by_C0": alpha0,
        "fast_path_consistent": fast_path_consistent,
        "n_points": len(rows),
        "n_feasible": sum(r["feasible"] for r in rows),
        "n_nonconverged": len(bad),
    }
    return rows, summary, EXIT_NO_CONVERGENCE if bad else EXIT_OK


# ---------------------------------------------------------------------------
# dipole-tradeoff
# ---------------------------------------------------------------------------

def _dipole_grids(r_box: float, delta: float, nodes_r: int, nodes_z: int):
    r = np.geomspace(r_box * 1e-3, r_box, nodes_r)
    z = np.linspace(-delta, delta, nodes_z)
    return r, z


def _dipole_boundary(n: int, alpha: float, r: np.ndarray, z: np.ndarray):
    """Baseline field, fixed-node mask, and boundary values for the box."""
    phi0 = 2.0 * np.arctan(alpha * r ** n)
    phi_base = np.tile(phi0[:, None], (1, z.size))
    fixed = np.zeros((r.size, z.size), dtype=bool)
    fixed[-1, :] = True
    fixed[:, 0] = True
    fixed[:, -1] = True
    fixed[0, :] = True
    return phi_base, fixed


def _apply_dipole_bcs(phi: np.ndarray, phi_base: np.ndarray) -> None:
    phi[-1, :] = phi_base[-1, :]
    phi[:, 0] = phi_base[:, 0]
    phi[:, -1] = phi_base[:, -1]
    phi[0, 1:-1] = math.pi  # defect removed: the axis limit flips to the far pole


def _bilinear_refine(phi: np.ndarray, r_c, z_c, r_f, z_f) -> np.ndarray:
    x_c, x_f = np.log(r_c), np.log(r_f)
    tmp = np.empty((x_f.size, z_c.size))
    for j in range(z_c.size):
        tmp[:, j] = np.interp(x_f, x_c, phi[:, j])
    out = np.empty((x_f.size, z_f.size))
    for i in range(x_f.size):
        out[i, :] = np.interp(z_f, z_c, tmp[i, :])
    return out


def _dipole_point(
    n: int, alpha: float, delta: float, r_box: float,
    nodes_r: int, nodes_z: int, maxiter: int, rng: np.random.Generator,
    jitter: float,
) -> tuple[dict, dict]:
    """Relax the meridian energy in the box [0, r_box] x [-delta, delta] with
    the vertical defect removed inside, at the coarse level (nodes_r, nodes_z)
    and the fine level (2 nodes_r - 1, 2 nodes_z - 1).

    One coarse-to-fine grid ladder ends in the two levels; each rung
    warm-starts from the interpolated previous solution, and the jitter
    noise is drawn once, at the bottom rung.  Returns the coarse and fine
    results; ``iterations`` counts the Newton steps of the ladder up to the
    level.
    """
    ladder = [(nodes_r, nodes_z)]
    while ladder[-1][0] > 40:
        nr, nz = ladder[-1]
        ladder.append((nr // 2 + 1, nz // 2 + 1))
    ladder.reverse()
    ladder.append((2 * nodes_r - 1, 2 * nodes_z - 1))

    phi_prev = r_prev = z_prev = None
    total_it = 0
    levels = []
    for nr, nz in ladder:
        r, z = _dipole_grids(r_box, delta, nr, nz)
        phi_base, fixed = _dipole_boundary(n, alpha, r, z)
        if phi_prev is None:
            # spindle-shaped start: an anti-conformal plug whose radius
            # shrinks to zero at the interval ends, matched to the background
            rho = 0.5 * r_box * np.sqrt(np.maximum(0.0, 1.0 - (z / delta) ** 2))
            with np.errstate(divide="ignore", over="ignore"):
                f_plug = alpha * rho[None, :] ** (2 * n) * r[:, None] ** (-float(n))
            phi_init = 2.0 * np.arctan(np.maximum(alpha * r[:, None] ** n, f_plug))
            if jitter > 0.0:
                phi_init += rng.normal(0.0, jitter, phi_init.shape)
                phi_init = np.clip(phi_init, 0.0, math.pi)
        else:
            phi_init = _bilinear_refine(phi_prev, r_prev, z_prev, r, z)
        _apply_dipole_bcs(phi_init, phi_base)
        res = minimize_meridian_energy(r, z, phi_init, fixed, n, maxiter=maxiter)
        total_it += res.iterations
        phi_prev, r_prev, z_prev = res.phi, r, z
        levels.append((r, z, phi_base, res, total_it))

    mass_saving = _FOUR_PI * n * 2.0 * delta
    out = []
    for r, z, phi_base, res, iterations in levels[-2:]:
        e_base = meridian_cell_energy(r, z, phi_base, n)
        delta_e = res.energy - e_base
        out.append({
            "E_base": e_base, "E_new": res.energy, "delta_E": delta_e,
            "mass_saving": mass_saving, "net": mass_saving - delta_e,
            "converged": res.converged, "iterations": iterations,
            "grad_norm": res.grad_norm,
        })
    return out[0], out[1]


def run_dipole_tradeoff(spec: ExperimentSpec) -> tuple[list[dict], dict, int]:
    p = spec.params
    n, alpha = p["n"], p["alpha"]
    deltas, factors = p["delta"], p["rbox_factors"]
    nodes_r, nodes_z, maxiter, jitter = p["nodes_r"], p["nodes_z"], p["maxiter"], p["jitter"]
    if n < 1:
        raise InputError("n must be >= 1")
    if not 0.0 < alpha <= 0.25:
        raise InputError("alpha must lie in (0, 1/4]")
    if not deltas or any(not 0.0 < d <= 0.5 for d in deltas):
        raise InputError("delta values must lie in (0, 0.5]")

    points = [(d, f) for d in deltas for f in factors]

    def one(point: tuple[float, float]) -> dict:
        delta, factor = point
        rng = np.random.default_rng(spec.seed)
        r_box = min(1.0, factor * delta)
        coarse, fine = _dipole_point(n, alpha, delta, r_box, nodes_r, nodes_z,
                                     maxiter, rng, jitter)
        # the grid under-resolves the two axis singularities, deflating the
        # relaxed energy; two-level extrapolation estimates the limit, and a
        # sign disagreement between the finest level and the extrapolation
        # marks the point inconclusive
        net_extrap = 2.0 * fine["net"] - coarse["net"]
        if fine["net"] > 0.0 and net_extrap > 0.0:
            verdict = "positive"
        elif fine["net"] <= 0.0 and net_extrap <= 0.0:
            verdict = "negative"
        else:
            verdict = "inconclusive"
        return {
            "n": n, "alpha": alpha, "delta": delta, "r_box": r_box,
            "E_base": fine["E_base"], "E_new": fine["E_new"],
            "delta_E": fine["delta_E"], "mass_saving": fine["mass_saving"],
            "net_coarse": coarse["net"], "net_fine": fine["net"],
            "net": net_extrap, "verdict": verdict,
            "converged": coarse["converged"] and fine["converged"],
            "iterations": max(coarse["iterations"], fine["iterations"]),
            "grad_norm": max(coarse["grad_norm"], fine["grad_norm"]),
        }

    rows = _parallel_map(one, points, spec.workers)
    bad = [r for r in rows if not r["converged"]]
    summary = {
        "any_positive_net": any(r["verdict"] == "positive" for r in rows),
        "any_inconclusive": any(r["verdict"] == "inconclusive" for r in rows),
        "best_net": max((r["net"] for r in rows), default=float("nan")),
        "best_net_fine": max((r["net_fine"] for r in rows), default=float("nan")),
        "n_nonconverged": len(bad),
        "note": "exploratory evidence, not a proof",
    }
    return rows, summary, EXIT_NO_CONVERGENCE if bad else EXIT_OK


# ---------------------------------------------------------------------------
# sigma
# ---------------------------------------------------------------------------

def run_sigma(spec: ExperimentSpec) -> tuple[list[dict], dict, int]:
    path = spec.params["config"]
    if path is None:
        raise InputError("sigma requires --spec <config.json>")
    try:
        with open(path) as fh:
            cfg = SingularityConfig.from_json(fh.read())
    except (OSError, ValueError, KeyError) as exc:
        raise InputError(f"cannot load charge configuration: {exc}") from exc

    primal = min_connection_assignment(cfg)
    dual = kantorovich_dual(cfg)
    row: dict[str, Any] = {
        "k": cfg.k, "multiplicity": cfg.multiplicity,
        "length": primal.length, "mass": primal.mass,
        "matching": "|".join(str(i) for i in primal.matching),
        "primal": primal.length, "dual": dual,
        "primal_dual_gap": abs(primal.length - dual),
    }
    if cfg.k <= 9:
        brute = min_connection_bruteforce(cfg)
        row["bruteforce"] = brute.length
    else:
        row["bruteforce"] = float("nan")
    summary = {"length": primal.length, "mass": primal.mass}
    return [row], summary, EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default=None, help="output file path")
    sub.add_argument("--format", default="csv", choices=["csv", "json"], dest="fmt")
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--spec", default=None, help="JSON file overriding parameters")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="axisphere",
        description="energies, minimal connections, and profile minimizers "
                    "of n-axially symmetric sphere-valued maps",
    )
    subs = ap.add_subparsers(dest="command", required=True)

    s = subs.add_parser("t0-energy", help="reference-configuration energy accounting")
    s.add_argument("--n", default="2")
    s.add_argument("--alpha", default="0.25")
    s.add_argument("--r-nodes", type=int, default=16385, dest="r_nodes")
    s.add_argument("--z-nodes", type=int, default=65, dest="z_nodes")
    s.add_argument("--r-min", type=float, default=1e-4, dest="r_min")
    _add_common(s)

    s = subs.add_parser("relaxation-check", help="u_eps slice energies and deficit rate")
    s.add_argument("--n", default="1,2,3")
    s.add_argument("--alpha", type=float, default=0.25)
    s.add_argument("--eps", default="0.2,0.1,0.05,0.025")
    s.add_argument("--nodes", type=int, default=16385)
    s.add_argument("--r-min", type=float, default=1e-6, dest="r_min")
    _add_common(s)

    s = subs.add_parser("proposition-sweep", help="constrained-minimizer bound sweep")
    s.add_argument("--n", type=int, default=2)
    s.add_argument("--alpha", default="0.25,0.1,0.05,0.02")
    s.add_argument("--a-frac", default="1,0.5,0.1", dest="a_frac")
    s.add_argument("--c0", default="1,5,20")
    s.add_argument("--s-tilde", default="2s,mid,1", dest="s_tilde",
                   help="comma list from {2s, mid, 1}")
    s.add_argument("--nodes", type=int, default=256)
    s.add_argument("--b", type=float, default=0.5, help=argparse.SUPPRESS)
    _add_common(s)

    s = subs.add_parser("dipole-tradeoff", help="defect-removal energy trade-off")
    s.add_argument("--n", type=int, default=2)
    s.add_argument("--alpha", type=float, default=0.25)
    s.add_argument("--delta", default="0.1,0.2,0.3,0.4,0.5")
    s.add_argument("--rbox-factors", default="1,2,4", dest="rbox_factors")
    s.add_argument("--nodes-r", type=int, default=65, dest="nodes_r")
    s.add_argument("--nodes-z", type=int, default=65, dest="nodes_z")
    s.add_argument("--maxiter", type=int, default=3000)
    s.add_argument("--jitter", type=float, default=0.0)
    _add_common(s)

    s = subs.add_parser("sigma", help="minimal connection of a charge configuration")
    _add_common(s)

    return ap


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    if args.spec is not None and args.command != "sigma":
        try:
            with open(args.spec) as fh:
                overrides = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read spec file: {exc}") from exc
        for key, value in overrides.items():
            attr = key.replace("-", "_")
            if not hasattr(args, attr):
                raise InputError(f"unknown parameter {key!r} in spec file")
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            setattr(args, attr, value)

    cmd = args.command
    if cmd == "t0-energy":
        params = {"n": _ints(args.n), "alpha": _floats(args.alpha),
                  "r_nodes": int(args.r_nodes), "z_nodes": int(args.z_nodes),
                  "r_min": float(args.r_min)}
    elif cmd == "relaxation-check":
        params = {"n": _ints(args.n), "alpha": float(args.alpha),
                  "eps": _floats(args.eps), "nodes": int(args.nodes),
                  "r_min": float(args.r_min)}
    elif cmd == "proposition-sweep":
        params = {"n": int(args.n), "alpha": _floats(args.alpha),
                  "a_frac": _floats(args.a_frac), "c0": _floats(args.c0),
                  "s_tilde": [tok.strip() for tok in str(args.s_tilde).split(",") if tok],
                  "nodes": int(args.nodes), "b": float(args.b)}
    elif cmd == "dipole-tradeoff":
        params = {"n": int(args.n), "alpha": float(args.alpha),
                  "delta": _floats(args.delta), "rbox_factors": _floats(args.rbox_factors),
                  "nodes_r": int(args.nodes_r), "nodes_z": int(args.nodes_z),
                  "maxiter": int(args.maxiter), "jitter": float(args.jitter)}
    elif cmd == "sigma":
        params = {"config": args.spec}
    else:  # pragma: no cover
        raise InputError(f"unknown command {cmd!r}")
    for key in ("n", "alpha", "eps", "delta", "a_frac", "c0"):
        if key in params and isinstance(params[key], list) and not params[key]:
            raise InputError(f"parameter {key!r} must be a non-empty list")
    return ExperimentSpec(command=cmd, params=params, out=args.out,
                          fmt=args.fmt, workers=args.workers, seed=args.seed)


_RUNNERS = {
    "t0-energy": run_t0_energy,
    "relaxation-check": run_relaxation_check,
    "proposition-sweep": run_proposition_sweep,
    "dipole-tradeoff": run_dipole_tradeoff,
    "sigma": run_sigma,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = _spec_from_args(args)
        rows, summary, code = _RUNNERS[spec.command](spec)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _write_rows(rows, summary, spec)
    print(f"{spec.command}: {len(rows)} rows")
    for key, value in summary.items():
        print(f"  {key}: {value}")
    if spec.out:
        print(f"  wrote {spec.out}")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
