"""Minimal connections between signed point singularities.

The minimal connection of a balanced configuration {P_i}, {N_i} is the
shortest total length over pairings

    min over permutations sigma of  sum_i |P_i - N_{sigma(i)}|,

an assignment problem.  Its linear relaxation is the transport LP

    min sum_ij |P_i - N_j| x_ij   over x >= 0 with unit row and column sums,

whose vertices are permutations (Birkhoff), so its optimum is the minimal
length.  The dual of the transport LP is the Kantorovich form: maximize
sum xi(P_i) - sum xi(N_j) over potentials with xi(P_i) - xi(N_j) <=
|P_i - N_j| for every positive-negative pair.  Its optimum equals the
all-pairs 1-Lipschitz form, because any bipartite-feasible potential extends
to the 1-Lipschitz xi(x) = min_j (xi(N_j) + |x - N_j|) (McShane), which does
not lower the objective.  ``kantorovich_dual`` solves the transport LP and
reads the potentials from the duals of its 2k equality rows; it returns
their value only once they pass the pair constraints, so the value is a
certified lower bound on every pairing (weak duality).
``min_connection_bruteforce`` is a third, exhaustive route for k <= 9: a
dynamic program over the 2^k subsets of negatives (O(k 2^k) time, 2^k
memory) that calls neither the assignment solver nor the LP.
The current mass is multiplicity * length, and the relaxed Dirichlet energy
adds 4 pi times the mass to the Dirichlet term.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import csr_array

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
# HiGHS's smallest feasibility tolerances; at the default 1e-7 a near-tie of
# 1e-8 between two pairings moved the dual value by 2e-8.
_LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def _point_rows(points, name: str) -> np.ndarray:
    """``points`` as a ``(k, 3)`` array; an empty class has k = 0, and any
    other shape raises ValueError rather than being re-cut into rows."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return pts.reshape(0, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"{name} must be a list of [x, y, z] rows, got shape {pts.shape}")
    return pts


@dataclass(frozen=True)
class SingularityConfig:
    """Signed, integer-weighted point charges in R^3.

    ``positives`` and ``negatives`` are ``(k, 3)`` arrays of points and
    must be balanced (equal counts; total degree zero), and each sign class
    must consist of distinct points.  A positive may coincide with a
    negative (a removable pair).  All charges carry the same absolute
    degree ``multiplicity``.
    """

    positives: np.ndarray
    negatives: np.ndarray
    multiplicity: int = 1

    def __post_init__(self) -> None:
        pos = _point_rows(self.positives, "positives")
        neg = _point_rows(self.negatives, "negatives")
        if pos.shape[0] != neg.shape[0]:
            raise ValueError(
                f"unbalanced charges: {pos.shape[0]} positives, {neg.shape[0]} negatives"
            )
        for name, pts in (("positives", pos), ("negatives", neg)):
            if not np.all(np.isfinite(pts)):
                raise ValueError(f"non-finite coordinate in {name}")
            unique, counts = np.unique(pts, axis=0, return_counts=True)
            if np.any(counts > 1):
                raise ValueError(f"duplicate point in {name}: {unique[np.argmax(counts > 1)]}")
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
        """Load ``{"multiplicity", "positives", "negatives"}``; each class is
        a list of ``[x, y, z]`` rows, and an empty or missing class has none."""
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError("charge configuration must be a JSON object")
        return cls(
            positives=d.get("positives", []),
            negatives=d.get("negatives", []),
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


def min_connection_bruteforce(cfg: SingularityConfig) -> ConnectionResult:
    """Exact minimal connection over every pairing (k <= 9), by dynamic
    programming over subsets of negatives: O(k 2^k) time, 2^k memory.

    ``h[m]`` is the least length pairing positives popcount(m)..k-1 with the
    negatives outside ``m``.  From m = 0 each positive takes the smallest
    free j with ``dist[i, j] + h[m | 1 << j] == h[m]``, the float expression
    that set ``h[m]``, so ties break to the lexicographically smallest
    permutation.  The length is the matched pairs' sum, not ``h[0]``, whose
    additions run in another order.
    """
    k = cfg.k
    if k > _BRUTEFORCE_MAX:
        raise ValueError(f"brute force limited to k <= {_BRUTEFORCE_MAX}, got {k}")
    if k == 0:
        return ConnectionResult(length=0.0, mass=0.0, matching=())
    dist = cfg.distance_matrix()
    masks = np.arange(1 << k)
    bits = 1 << np.arange(k)
    free = (masks[:, None] & bits) == 0
    used = k - free.sum(axis=1)
    h = np.full(1 << k, np.inf)
    h[-1] = 0.0
    for i in range(k - 1, -1, -1):
        m = masks[used == i]
        h[m] = np.where(free[m], dist[i] + h[m[:, None] | bits], np.inf).min(axis=1)
    matching, m = [], 0
    for i in range(k):
        j = next(j for j in range(k) if free[m, j] and dist[i, j] + h[m | 1 << j] == h[m])
        matching.append(j)
        m |= 1 << j
    length = float(dist[np.arange(k), matching].sum())
    return ConnectionResult(length=length, mass=cfg.multiplicity * length, matching=tuple(matching))


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
    """Dual value: max sum xi(P_i) - sum xi(N_j) over potentials xi with
    xi(P_i) - xi(N_j) <= |P_i - N_j| for every positive-negative pair.

    Solves the transport LP, min sum d_ij x_ij over x >= 0 with one unit of
    mass leaving each positive and one reaching each negative: 2k equality
    rows, k^2 columns of two nonzeros each.  The duals of those rows are the
    potentials, u_i = xi(P_i) and v_j = -xi(N_j), and the returned value is
    their sum.  It is returned only after the pair constraints u_i + v_j <=
    d_ij hold to 1e-9, so by weak duality it is a lower bound on every
    pairing, and by strong duality it equals the minimal-connection length.
    The assignment solver is never consulted.  The LP is always feasible
    (the identity pairing); a non-zero status or a violated pair constraint
    raises NumericalError.
    """
    k = cfg.k
    if k == 0:
        return 0.0
    dist = cfg.distance_matrix()
    # column i*k + j is x_ij; row i is positive i, row k + j is negative j
    pos, neg = np.divmod(np.arange(k * k), k)
    A_eq = csr_array(
        (np.ones(2 * k * k), (np.concatenate([pos, k + neg]), np.tile(np.arange(k * k), 2))),
        shape=(2 * k, k * k),
    )
    res = linprog(dist.ravel(), A_eq=A_eq, b_eq=np.ones(2 * k), bounds=(0.0, None),
                  method="highs", options=_LP_OPTIONS)
    if res.status != 0:
        raise NumericalError(f"Kantorovich LP failed (status {res.status}): {res.message}")
    duals = res.eqlin.marginals
    violation = float(np.max(duals[:k, None] + duals[None, k:] - dist))
    if not violation <= 1e-9:  # also rejects NaN duals
        raise NumericalError(
            f"Kantorovich row duals violate a pair constraint by {violation:.3g}"
        )
    return float(np.sum(duals))


def relaxed_energy(E_dirichlet: float, cfg: SingularityConfig) -> float:
    """Relaxed Dirichlet energy: E + 4 pi * (multiplicity * minimal length)."""
    if E_dirichlet < 0.0:
        raise ValueError("Dirichlet energy must be nonnegative")
    result = min_connection_assignment(cfg)
    return E_dirichlet + 4.0 * math.pi * result.mass
