"""Minimal connections between signed point singularities.

The minimal connection of a balanced configuration {P_i}, {N_i} is the
shortest total length over pairings

    min over permutations sigma of  sum_i |P_i - N_{sigma(i)}|,

an assignment problem.  Its linear-programming dual is the Kantorovich form:
maximize sum xi(P_i) - sum xi(N_i) over 1-Lipschitz potentials xi, which on
finite supports needs only the pairwise constraints |xi(x) - xi(y)| <= |x-y|.
The current mass is multiplicity * length, and the relaxed Dirichlet energy
adds 4 pi times the mass to the Dirichlet term.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog

from .geometry import NumericalError

__all__ = [
    "SingularityConfig",
    "ConnectionResult",
    "min_connection_bruteforce",
    "min_connection_assignment",
    "kantorovich_dual",
    "relaxed_energy",
]

_BRUTEFORCE_MAX = 9


@dataclass(frozen=True)
class SingularityConfig:
    """Signed, integer-weighted point charges in R^3.

    ``positives`` and ``negatives`` must be balanced (equal counts; total
    degree zero) and each sign class must consist of distinct points.  A
    positive may coincide with a negative (a removable pair).  All charges
    carry the same absolute degree ``multiplicity``.
    """

    positives: np.ndarray
    negatives: np.ndarray
    multiplicity: int = 1

    def __post_init__(self) -> None:
        pos = np.asarray(self.positives, dtype=float).reshape(-1, 3)
        neg = np.asarray(self.negatives, dtype=float).reshape(-1, 3)
        if pos.shape[0] != neg.shape[0]:
            raise ValueError(
                f"unbalanced charges: {pos.shape[0]} positives, {neg.shape[0]} negatives"
            )
        for name, pts in (("positives", pos), ("negatives", neg)):
            for i in range(pts.shape[0]):
                for j in range(i + 1, pts.shape[0]):
                    if np.all(pts[i] == pts[j]):
                        raise ValueError(f"duplicate point in {name}: {pts[i]}")
        if int(self.multiplicity) < 1:
            raise ValueError("multiplicity must be a positive integer")
        object.__setattr__(self, "positives", pos)
        object.__setattr__(self, "negatives", neg)
        object.__setattr__(self, "multiplicity", int(self.multiplicity))

    @property
    def k(self) -> int:
        return self.positives.shape[0]

    def distance_matrix(self) -> np.ndarray:
        diff = self.positives[:, None, :] - self.negatives[None, :, :]
        return np.sqrt(np.sum(diff ** 2, axis=-1))

    @classmethod
    def from_json(cls, text: str) -> "SingularityConfig":
        d = json.loads(text)
        return cls(
            positives=np.array(d.get("positives", []), dtype=float).reshape(-1, 3),
            negatives=np.array(d.get("negatives", []), dtype=float).reshape(-1, 3),
            multiplicity=int(d.get("multiplicity", 1)),
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "multiplicity": self.multiplicity,
                "positives": self.positives.tolist(),
                "negatives": self.negatives.tolist(),
            }
        )


@dataclass(frozen=True)
class ConnectionResult:
    """Minimal connection: geometric length, current mass, and the pairing."""

    length: float
    mass: float
    matching: tuple[int, ...]


@lru_cache(maxsize=16)
def _permutation_table(k: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(k))), dtype=np.intp)


def min_connection_bruteforce(cfg: SingularityConfig) -> ConnectionResult:
    """Exact minimal connection by exhausting all pairings (k <= 9).

    Ties break to the lexicographically smallest permutation.
    """
    k = cfg.k
    if k > _BRUTEFORCE_MAX:
        raise ValueError(f"brute force limited to k <= {_BRUTEFORCE_MAX}, got {k}")
    if k == 0:
        return ConnectionResult(length=0.0, mass=0.0, matching=())
    dist = cfg.distance_matrix()
    perms = _permutation_table(k)
    totals = dist[np.arange(k)[None, :], perms].sum(axis=1)
    best = int(np.argmin(totals))  # first minimum = lexicographically smallest
    length = float(totals[best])
    return ConnectionResult(
        length=length, mass=cfg.multiplicity * length, matching=tuple(int(v) for v in perms[best])
    )


def min_connection_assignment(cfg: SingularityConfig) -> ConnectionResult:
    """Minimal connection via the O(k^3) assignment solver."""
    if cfg.k == 0:
        return ConnectionResult(length=0.0, mass=0.0, matching=())
    dist = cfg.distance_matrix()
    rows, cols = linear_sum_assignment(dist)
    length = float(dist[rows, cols].sum())
    matching = tuple(int(c) for c in cols[np.argsort(rows)])
    return ConnectionResult(length=length, mass=cfg.multiplicity * length, matching=matching)


def kantorovich_dual(cfg: SingularityConfig) -> float:
    """Dual value: max sum xi(P_i) - sum xi(N_i) over potentials xi with
    |xi(x) - xi(y)| <= |x - y| on every pair of charge locations.

    Equals the primal minimal-connection length on finite supports.  The LP
    is always feasible (xi = 0); an infeasible status indicates a bug.
    """
    k = cfg.k
    if k == 0:
        return 0.0
    points = np.vstack([cfg.positives, cfg.negatives])
    m = points.shape[0]
    c = np.concatenate([-np.ones(k), np.ones(k)])  # minimize -> maximize
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    rows = []
    rhs = []
    for i, j in pairs:
        d = float(np.linalg.norm(points[i] - points[j]))
        row = np.zeros(m)
        row[i], row[j] = 1.0, -1.0
        rows.append(row.copy())
        rhs.append(d)
        row[i], row[j] = -1.0, 1.0
        rows.append(row)
        rhs.append(d)
    # xi is defined up to an additive constant; pin the first potential.
    bounds = [(0.0, 0.0)] + [(None, None)] * (m - 1)
    res = linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=bounds, method="highs")
    if res.status != 0:
        raise NumericalError(f"Kantorovich LP failed (status {res.status}): {res.message}")
    return float(-res.fun)


def relaxed_energy(E_dirichlet: float, cfg: SingularityConfig) -> float:
    """Relaxed Dirichlet energy: E + 4 pi * (multiplicity * minimal length)."""
    if E_dirichlet < 0.0:
        raise ValueError("Dirichlet energy must be nonnegative")
    result = min_connection_assignment(cfg)
    return E_dirichlet + 4.0 * math.pi * result.mass
