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
error (an output file that cannot be written included, caught before any
computation), 3 optimizer non-convergence, 4 numerical failure (a quadrature
too coarse to resolve, a failed Kantorovich search or certificate, a bound
chain contradicting itself, or a singular segment subproblem).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
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
    dipole_half_box,
    dipole_ladder,
    dirichlet_energy_radial,
    energy_3d,
    meridian_from_profile,
    meridian_hessian_definite,
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

    def __post_init__(self) -> None:
        if self.fmt not in ("csv", "json"):
            raise InputError(f"unknown format {self.fmt!r}")
        if self.workers < 1:
            raise InputError("workers must be >= 1")
        if self.out is not None:
            folder = os.path.dirname(os.path.abspath(self.out))
            if os.path.isdir(self.out) or not os.access(folder, os.W_OK | os.X_OK) or (
                    os.path.exists(self.out) and not os.access(self.out, os.W_OK)):
                raise InputError(f"cannot write output file {self.out!r}")


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
    if len(eps_list) < 2 or len(set(eps_list)) != len(eps_list):
        raise InputError("eps needs two or more distinct values, none repeated")
    eps_list = sorted(eps_list, reverse=True)

    rows: list[dict] = []
    fits: dict[str, float] = {}
    monotone: dict[str, bool] = {}
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
        fits[str(n)] = float(np.polyfit(np.log(eps_list), np.log(deficits), 1)[0])
        monotone[str(n)] = bool(np.all(np.diff(deficits) < 0.0)
                                and np.all(np.array(deficits) > 0.0))

    summary = {"fitted_exponents": fits,
               "expected_exponents": {str(n): 2 * n for n in ns},
               "deficits_positive_decreasing": monotone}
    return rows, summary, EXIT_OK


# ---------------------------------------------------------------------------
# proposition-sweep
# ---------------------------------------------------------------------------

_S_TILDE = {"2s": lambda s: 2.0 * s, "mid": lambda s: (s + 1.0) / 2.0, "1": lambda s: 1.0}


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
    if any(choice not in _S_TILDE for choice in choices):
        raise InputError(f"unknown s_tilde choice in {choices} (use 2s, mid, 1)")

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
        s_tilde = _S_TILDE[choice](s)
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

def _dipole_point(
    n: int, alpha: float, delta: float, r_box: float,
    nodes_r: int, nodes_z: int, maxiter: int,
) -> tuple[dict, dict]:
    """Relax the meridian energy in the box [0, r_box] x [-delta, delta] with
    the vertical defect removed inside, at the coarse level (nodes_r, nodes_z)
    and the fine level (2 nodes_r - 1, 2 nodes_z - 1), for odd nodes_z.

    Each rung of the ladder relaxes the upper half box, warm-started from
    the rung below; the full energy of the even field is twice the half's.
    ``stable`` tests the half box's Hessian with the z = 0 row free, which
    certifies the full box's on both parities.
    Returns the coarse and fine results; ``iterations`` counts the Newton
    steps of the ladder up to the level.
    """
    res = None
    total_it = 0
    levels = []
    for nr, nz in dipole_ladder(nodes_r, nodes_z):
        r, z, phi_init, fixed, e_base = dipole_half_box(
            n, alpha, delta, r_box, nr, nz, None if res is None else res.phi)
        res = minimize_meridian_energy(r, z, phi_init, fixed, n, maxiter=maxiter)
        total_it += res.iterations
        levels.append((r, z, fixed, e_base, res, total_it))

    mass_saving = _FOUR_PI * n * 2.0 * delta
    out = []
    for r, z, fixed, e_base, res, iterations in levels[-2:]:
        e_new = 2.0 * res.energy
        out.append({
            "E_base": e_base, "E_new": e_new, "delta_E": e_new - e_base,
            "mass_saving": mass_saving, "net": mass_saving - (e_new - e_base),
            "converged": res.converged, "iterations": iterations,
            "grad_norm": res.grad_norm,
            "stable": meridian_hessian_definite(r, z, res.phi, fixed, n),
        })
    return out[0], out[1]


def run_dipole_tradeoff(spec: ExperimentSpec) -> tuple[list[dict], dict, int]:
    p = spec.params
    n, alpha = p["n"], p["alpha"]
    deltas, factors = p["delta"], p["rbox_factors"]
    nodes_r, nodes_z, maxiter = p["nodes_r"], p["nodes_z"], p["maxiter"]
    if n < 1:
        raise InputError("n must be >= 1")
    if not 0.0 < alpha <= 0.25:
        raise InputError("alpha must lie in (0, 1/4]")
    if not deltas or any(not 0.0 < d <= 0.5 for d in deltas):
        raise InputError("delta values must lie in (0, 0.5]")
    if min(nodes_r, nodes_z) < 3:
        raise InputError("nodes-r and nodes-z must be >= 3 (a box needs an interior node)")
    if nodes_z % 2 == 0:
        raise InputError("nodes-z must be odd (the half box needs a z = 0 row)")

    points = [(d, min(1.0, f * d)) for d in deltas for f in factors]

    def one(point: tuple[float, float]) -> dict:
        delta, r_box = point
        coarse, fine = _dipole_point(n, alpha, delta, r_box, nodes_r, nodes_z, maxiter)
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
            "stable": coarse["stable"] and fine["stable"],
        }

    # factors whose boxes clamp to the same r_box share one solve
    boxes = list(dict.fromkeys(points))
    solved = dict(zip(boxes, _parallel_map(one, boxes, spec.workers)))
    rows = [solved[point] for point in points]
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

def _int(value: Any) -> int:
    """A strict integer: an int, or a string that spells one."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError("expected an integer")
    return int(value)


def _text(value: Any) -> str | None:
    if value is not None and not isinstance(value, str):
        raise ValueError("expected a string")
    return value


def _list_of(item: Callable[[Any], Any]) -> Callable[[Any], list]:
    """A non-empty list from a comma-separated string, a JSON list or one value."""
    def convert(value: Any) -> list:
        tokens = value.split(",") if isinstance(value, str) else (
            value if isinstance(value, list) else [value])
        items = [item(tok) for tok in tokens if tok != ""]
        if not items:
            raise ValueError("expected a non-empty list")
        return items
    return convert


_INTS, _FLOATS = _list_of(_int), _list_of(float)
_WORDS = _list_of(lambda tok: str(tok).strip())

# Each parameter once: name -> (conversion, default).  Its flag is the name
# with "-" for "_"; a spec file key may be spelled either way.
_COMMON = {"out": (_text, None), "format": (_text, "csv"), "workers": (_int, 1)}
_COMMANDS: dict[str, tuple[str, dict[str, tuple[Callable[[Any], Any], Any]]]] = {
    "t0-energy": ("reference-configuration energy accounting", {
        "n": (_INTS, [2]), "alpha": (_FLOATS, [0.25]), "r_nodes": (_int, 16385),
        "z_nodes": (_int, 65), "r_min": (float, 1e-4)}),
    "relaxation-check": ("u_eps slice energies and deficit rate", {
        "n": (_INTS, [1, 2, 3]), "alpha": (float, 0.25),
        "eps": (_FLOATS, [0.2, 0.1, 0.05, 0.025]), "nodes": (_int, 16385),
        "r_min": (float, 1e-6)}),
    "proposition-sweep": ("constrained-minimizer bound sweep", {
        "n": (_int, 2), "alpha": (_FLOATS, [0.25, 0.1, 0.05, 0.02]),
        "a_frac": (_FLOATS, [1, 0.5, 0.1]), "c0": (_FLOATS, [1, 5, 20]),
        "s_tilde": (_WORDS, ["2s", "mid", "1"]), "nodes": (_int, 256), "b": (float, 0.5)}),
    "dipole-tradeoff": ("defect-removal energy trade-off", {
        "n": (_int, 2), "alpha": (float, 0.25),
        "delta": (_FLOATS, [0.1, 0.2, 0.3, 0.4, 0.5]), "rbox_factors": (_FLOATS, [1, 2, 4]),
        "nodes_r": (_int, 65), "nodes_z": (_int, 65), "maxiter": (_int, 3000)}),
    "sigma": ("minimal connection of a charge configuration", {}),
}
_HELP = {"s_tilde": "comma list from {2s, mid, 1}", "b": argparse.SUPPRESS,
         "out": "output file path"}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="axisphere",
        description="energies, minimal connections, and profile minimizers "
                    "of n-axially symmetric sphere-valued maps",
    )
    subs = ap.add_subparsers(dest="command", required=True)
    for command, (summary, params) in _COMMANDS.items():
        sub = subs.add_parser(command, help=summary)
        for name in (*params, *_COMMON):
            sub.add_argument("--" + name.replace("_", "-"), dest=name,
                             default=argparse.SUPPRESS, help=_HELP.get(name))
        sub.add_argument("--spec", default=None, help="JSON file overriding parameters")
    return ap


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    """Convert the given flags, overridden by the spec file's keys, and the
    defaults of the rest; sigma's --spec is its charge file instead."""
    values = dict(vars(args))
    command, path = values.pop("command"), values.pop("spec")
    table = {**_COMMANDS[command][1], **_COMMON}
    if path is not None and command != "sigma":
        try:
            with open(path) as fh:
                overrides = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read spec file: {exc}") from exc
        if not isinstance(overrides, dict):
            raise InputError("spec file must hold a JSON object")
        for key, value in overrides.items():
            name = key.replace("-", "_")
            if name not in table:
                raise InputError(f"unknown parameter {key!r} in spec file")
            values[name] = value
    resolved = {}
    for name, (convert, default) in table.items():
        value = values.get(name, default)
        try:
            resolved[name] = convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"bad value {value!r} for {name!r}: {exc}") from exc
    out, fmt, workers = (resolved.pop(name) for name in _COMMON)
    params = {"config": path} if command == "sigma" else resolved
    return ExperimentSpec(command=command, params=params, out=out, fmt=fmt, workers=workers)


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
