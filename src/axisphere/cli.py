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
computation), 3 optimizer non-convergence, 4 numerical failure (a failed
Kantorovich search or certificate, a current mass that overflows, a bound
chain contradicting itself, a singular segment subproblem, or a dipole box
whose relaxation starts from a non-finite energy).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, NoReturn, Sequence

import numpy as np

from .connection import (
    _BRUTEFORCE_MAX,
    SingularityConfig,
    kantorovich_dual,
    min_connection_assignment,
    min_connection_bruteforce,
)
from .energy import (
    _radial_energy_area,
    dipole_half_box,
    dipole_ladder,
    energy_3d,
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
    # every command runs in one thread; the field stays so that callers
    # which pass workers=1, perfbench's runners among them, still build
    workers: int = 1

    def __post_init__(self) -> None:
        if self.fmt not in ("csv", "json"):
            raise InputError(f"unknown format {self.fmt!r}")
        if self.workers != 1:
            raise InputError("workers must be 1 (every command runs in one thread)")
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


# ---------------------------------------------------------------------------
# t0-energy
# ---------------------------------------------------------------------------

# criterion 7's z grid; the field is one column along z, so no result depends
# on its node count
_T0_Z_GRID = np.linspace(-1.0, 1.0, 65)


def run_t0_energy(spec: ExperimentSpec) -> tuple[list[dict], dict, int]:
    p = spec.params
    ns, alphas, r_nodes, r_min = p["n"], p["alpha"], p["r_nodes"], p["r_min"]
    for n in ns:
        if n < 1:
            raise InputError("n must be >= 1")
    for alpha in alphas:
        if not 0.0 <= alpha <= 0.25:
            raise InputError("alpha must lie in [0, 1/4]")

    def one(n: int, alpha: float) -> dict:
        profile = u0_profile(alpha, n, geometric_grid(r_min, 1.0, r_nodes))
        fld = meridian_from_profile(profile, _T0_Z_GRID, defects=[(-1.0, 1.0)])
        rep = energy_3d(fld)
        # the field is one column along z, so E is the slice energy times
        # the z-length, from energy_3d's single column pass
        slice_quad = rep.E / (_T0_Z_GRID[-1] - _T0_Z_GRID[0])
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

    rows = [one(n, alpha) for n in ns for alpha in alphas]
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
    # at or below r_min, eps would be the grid's first node and its inner
    # branch would cover no cell
    if any(e <= r_min for e in eps_list):
        raise InputError(f"eps values must exceed r_min = {r_min!r}")
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
            e_quad, e_area = _radial_energy_area(profile, None)
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
    choices, nodes = p["s_tilde"], p["nodes"]
    if n < 1:
        raise InputError("n must be >= 1")
    if any(not 0.0 < alpha <= 0.25 for alpha in alphas):
        raise InputError("alpha values must lie in (0, 1/4]")
    if any(not 0.0 < f <= 1.0 for f in a_fracs):
        raise InputError("a fractions must lie in (0, 1]")
    if any(not 0.0 < c0 < math.inf for c0 in c0s):
        raise InputError("C0 values must be finite and positive")
    if any(choice not in _S_TILDE for choice in choices):
        raise InputError(f"unknown s_tilde choice in {choices} (use 2s, mid, 1)")
    if nodes < 64:
        raise InputError("nodes must be >= 64")

    def one(alpha: float, frac: float, c0: float, choice: str) -> dict:
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
        cone = ConeConstraint(s=s, s_tilde=s_tilde, a=a, alpha=alpha)
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

    rows = [one(alpha, frac, c0, choice) for alpha in alphas for frac in a_fracs
            for c0 in c0s for choice in choices]

    # empirical alpha0 per C0: the largest swept alpha at and below which
    # every feasible point satisfies the replacement-gain inequality; 0.0 when
    # the smallest alpha fails, and an alpha without feasible points is skipped
    alpha0: dict[str, float] = {}
    for c0 in c0s:
        best = 0.0
        for alpha in sorted(set(alphas)):
            sel = [r for r in rows if r["C0"] == c0 and r["alpha"] == alpha and r["feasible"]]
            if not sel:
                continue
            if not all(r["holds"] for r in sel):
                break
            best = alpha
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
    nodes_r: int, nodes_z: int,
) -> dict:
    """The row of the box [r_box 1e-3, r_box] x [-delta, delta] with the
    vertical defect removed inside, relaxed at the coarse level (nodes_r,
    nodes_z) and the fine level (2 nodes_r - 1, 2 nodes_z - 1), for odd
    nodes_z.

    Each rung of the ladder relaxes the upper half box, warm-started from
    the rung below; the full energy of the even field is twice the half's.
    ``stable`` is the relaxation's own second-order test of the state it
    stops at: the half box's Hessian with the z = 0 row free, which
    certifies the full box's on both parities; the row is stable when both
    levels are.  ``iterations`` counts the Newton steps of the whole ladder.
    """
    res = None
    iterations = 0
    rungs = []
    for nr, nz in dipole_ladder(nodes_r, nodes_z):
        r, z, phi_init, fixed, e_base = dipole_half_box(
            n, alpha, delta, r_box, nr, nz, None if res is None else res.phi)
        res = minimize_meridian_energy(r, z, phi_init, fixed, n)
        iterations += res.iterations
        rungs.append((e_base, res))

    (e_base_coarse, coarse), (e_base, fine) = rungs[-2:]
    mass_saving = _FOUR_PI * n * 2.0 * delta
    e_new = 2.0 * fine.energy
    net_coarse = mass_saving - (2.0 * coarse.energy - e_base_coarse)
    net_fine = mass_saving - (e_new - e_base)
    # the grid under-resolves the two axis singularities, deflating the
    # relaxed energy; two-level extrapolation estimates the limit, and a
    # sign disagreement between the finest level and the extrapolation
    # marks the point inconclusive
    net = 2.0 * net_fine - net_coarse
    if net_fine > 0.0 and net > 0.0:
        verdict = "positive"
    elif net_fine <= 0.0 and net <= 0.0:
        verdict = "negative"
    else:
        verdict = "inconclusive"
    return {
        "n": n, "alpha": alpha, "delta": delta, "r_box": r_box,
        "E_base": e_base, "E_new": e_new, "delta_E": e_new - e_base,
        "mass_saving": mass_saving, "net_coarse": net_coarse, "net_fine": net_fine,
        "net": net, "verdict": verdict,
        "converged": coarse.converged and fine.converged, "iterations": iterations,
        "grad_norm": max(coarse.grad_norm, fine.grad_norm),
        "stable": coarse.stable and fine.stable,
    }


def run_dipole_tradeoff(spec: ExperimentSpec) -> tuple[list[dict], dict, int]:
    p = spec.params
    n, alpha = p["n"], p["alpha"]
    deltas, factors = p["delta"], p["rbox_factors"]
    nodes_r, nodes_z = p["nodes_r"], p["nodes_z"]
    if n < 1:
        raise InputError("n must be >= 1")
    if not 0.0 < alpha <= 0.25:
        raise InputError("alpha must lie in (0, 1/4]")
    if not deltas or any(not 0.0 < d <= 0.5 for d in deltas):
        raise InputError("delta values must lie in (0, 0.5]")
    if any(not f > 0.0 for f in factors):
        raise InputError("rbox-factors must be positive")
    if min(nodes_r, nodes_z) < 3:
        raise InputError("nodes-r and nodes-z must be >= 3 (a box needs an interior node)")
    if nodes_z % 2 == 0:
        raise InputError("nodes-z must be odd (the half box needs a z = 0 row)")

    points = [(d, min(1.0, f * d)) for d in deltas for f in factors]
    # factors whose boxes clamp to the same r_box share one solve
    solved = {box: _dipole_point(n, alpha, *box, nodes_r, nodes_z)
              for box in dict.fromkeys(points)}
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
    row["bruteforce"] = (min_connection_bruteforce(cfg).length if cfg.k <= _BRUTEFORCE_MAX
                         else float("nan"))
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


class _Command(NamedTuple):
    """A command, declared once: its help line, its runner, and its
    parameters as name -> (conversion, default).  A parameter's flag is its
    name with "-" for "_"; a spec file key may be spelled either way."""

    summary: str
    run: Callable[[ExperimentSpec], tuple[list[dict], dict, int]]
    params: dict[str, tuple[Callable[[Any], Any], Any]]


_COMMON = {"out": (_text, None), "format": (_text, "csv")}
_COMMANDS: dict[str, _Command] = {
    "t0-energy": _Command("reference-configuration energy accounting", run_t0_energy, {
        "n": (_INTS, [2]), "alpha": (_FLOATS, [0.25]), "r_nodes": (_int, 16385),
        "r_min": (float, 1e-4)}),
    "relaxation-check": _Command("u_eps slice energies and deficit rate", run_relaxation_check, {
        "n": (_INTS, [1, 2, 3]), "alpha": (float, 0.25),
        "eps": (_FLOATS, [0.2, 0.1, 0.05, 0.025]), "nodes": (_int, 16385),
        "r_min": (float, 1e-6)}),
    "proposition-sweep": _Command("constrained-minimizer bound sweep", run_proposition_sweep, {
        "n": (_int, 2), "alpha": (_FLOATS, [0.25, 0.1, 0.05, 0.02]),
        "a_frac": (_FLOATS, [1, 0.5, 0.1]), "c0": (_FLOATS, [1, 5, 20]),
        "s_tilde": (_WORDS, ["2s", "mid", "1"]), "nodes": (_int, 256)}),
    "dipole-tradeoff": _Command("defect-removal energy trade-off", run_dipole_tradeoff, {
        "n": (_int, 2), "alpha": (float, 0.25),
        "delta": (_FLOATS, [0.1, 0.2, 0.3, 0.4, 0.5]), "rbox_factors": (_FLOATS, [1, 2, 4]),
        "nodes_r": (_int, 65), "nodes_z": (_int, 65)}),
    "sigma": _Command("minimal connection of a charge configuration", run_sigma, {}),
}
_HELP = {"s_tilde": "comma list from {2s, mid, 1}", "out": "output file path"}


class _Parser(argparse.ArgumentParser):
    """An unknown flag or missing value exits 2 with one ``error:`` line,
    like a bad value does, not with argparse's usage block."""

    def error(self, message: str) -> NoReturn:
        self.exit(EXIT_INPUT, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="axisphere",
        description="energies, minimal connections, and profile minimizers "
                    "of n-axially symmetric sphere-valued maps",
    )
    subs = ap.add_subparsers(dest="command", required=True)
    for command, (summary, _, params) in _COMMANDS.items():
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
    table = {**_COMMANDS[command].params, **_COMMON}
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
    out, fmt = (resolved.pop(name) for name in _COMMON)
    params = {"config": path} if command == "sigma" else resolved
    return ExperimentSpec(command=command, params=params, out=out, fmt=fmt)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = _spec_from_args(args)
        rows, summary, code = _COMMANDS[spec.command].run(spec)
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
