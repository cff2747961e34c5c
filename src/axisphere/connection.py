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
not lower the objective.  ``kantorovich_dual`` finds optimal potentials by
shortest augmenting paths (the Hungarian method with Dijkstra on reduced
costs), its own search that never calls the assignment solver; it returns
their value only once they pass the pair constraints, so the value is a
certified lower bound on every pairing (weak duality).
``min_connection_bruteforce`` is a third, exhaustive route for k <= 9: a
dynamic program over the 2^k subsets of negatives (O(k 2^k) time, 2^k
memory) that calls neither the assignment solver nor the dual search.
The current mass is multiplicity * length, and the relaxed Dirichlet energy
adds 4 pi times the mass to the Dirichlet term.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

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
    negative (a removable pair).  Every positive-negative distance must be
    finite in floating point (below about 1.3e154).  All charges carry the
    same absolute degree ``multiplicity``.
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
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(self.distance_matrix())):
                raise ValueError("a positive-negative distance overflows to inf")

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


def _shortest_augmenting_paths(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Optimal matching and potentials of the square cost matrix ``dist``.

    Returns ``(matching, u, v)``: positive i is paired with negative
    ``matching[i]``, and u_i + v_j <= dist[i, j] holds with equality on the
    matched pairs.  Throughout the search the reduced costs dist[i, j] - u_i
    - v_j are nonnegative and zero on matched pairs, and u_i = 0 on unmatched
    rows, so only v is stored.  It starts from v_j = min_i dist[i, j] and
    matches each row to the first column whose minimum it holds.  Each
    unmatched row then grows a Dijkstra tree over the columns on reduced
    costs, one vectorised pass per column it reaches, until it reaches an
    unmatched column; v moves by the tree's distances, which keeps the
    reduced costs nonnegative and makes the tree's path tight, and the path
    is flipped.  Finally u is read off the matching, u_i = dist[i,
    matching[i]] - v[matching[i]], and v is recomputed from u as v_j =
    min_i (dist[i, j] - u_i).  O(k^3) time, O(k^2) memory (``dist``).  A
    non-finite tentative distance raises NumericalError.
    """
    k = dist.shape[0]
    v = dist.min(axis=0)
    matching = np.full(k, -1)
    row_of = np.full(k, -1)
    rows, cols = np.unique(dist.argmin(axis=0), return_index=True)
    matching[rows], row_of[cols] = cols, rows
    tentative = np.empty(k)  # distance to each column not yet reached; inf once reached
    reached = np.empty(k)  # distance at which each column was reached
    open_ = np.empty(k, dtype=bool)
    pred = np.empty(k, dtype=np.intp)  # the row each column was last relaxed from
    for free in np.flatnonzero(matching < 0):
        tentative.fill(np.inf)
        open_.fill(True)
        i, offset = free, 0.0  # tree distance to row i minus u_i; u = 0 on a free row
        while True:
            cost = dist[i] - v
            cost += offset
            closer = cost < tentative
            closer &= open_
            np.copyto(tentative, cost, where=closer)
            np.copyto(pred, i, where=closer)
            j = int(tentative.argmin())
            dj = tentative[j]
            if not (dj < np.inf and open_[j]):  # also rejects NaN
                raise NumericalError(
                    f"Kantorovich search found no finite augmenting path from positive {free}"
                )
            open_[j], reached[j], tentative[j] = False, dj, np.inf
            if row_of[j] < 0:
                break
            i = row_of[j]
            offset = dj - dist[i, j] + v[j]
        closed = ~open_
        v[closed] += reached[closed] - dj
        while True:  # flip the path back to the free row
            i = pred[j]
            row_of[j] = i
            matching[i], j = j, matching[i]
            if i == free:
                break
    u = dist[np.arange(k), matching] - v[matching]
    # the largest v that u allows: equal to v in exact arithmetic, but the
    # rounding of the updates above drops out of the pair constraints
    v = (dist - u[:, None]).min(axis=0)
    return matching, u, v


def kantorovich_dual(cfg: SingularityConfig) -> float:
    """Dual value: max sum xi(P_i) - sum xi(N_j) over potentials xi with
    xi(P_i) - xi(N_j) <= |P_i - N_j| for every positive-negative pair.

    The potentials u_i = xi(P_i) and v_j = -xi(N_j) come from a shortest
    augmenting path search on d_ij = |P_i - N_j| (the Hungarian method in
    its Dijkstra form), which keeps every reduced cost d_ij - u_i - v_j
    nonnegative and ends with a permutation sigma on which they are zero;
    u_i = d[i, sigma(i)] - v[sigma(i)], and v_j = min_i (d_ij - u_i) is
    recomputed from u.  Their sum is returned only after the pair
    constraints u_i + v_j <= d_ij hold to 1e-9, so by weak duality it is a
    lower bound on every pairing, and since sigma's length equals it, it is
    the minimal-connection length.  The assignment solver is never
    consulted.  A failed search or a violated pair constraint raises
    NumericalError.
    """
    k = cfg.k
    if k == 0:
        return 0.0
    dist = cfg.distance_matrix()
    _, u, v = _shortest_augmenting_paths(dist)
    violation = float(np.max(u[:, None] + v[None, :] - dist))
    if not violation <= 1e-9:  # also rejects NaN duals
        raise NumericalError(
            f"Kantorovich potentials violate a pair constraint by {violation:.3g}"
        )
    return float(np.sum(u) + np.sum(v))


def relaxed_energy(E_dirichlet: float, cfg: SingularityConfig) -> float:
    """Relaxed Dirichlet energy: E + 4 pi * (multiplicity * minimal length)."""
    if E_dirichlet < 0.0:
        raise ValueError("Dirichlet energy must be nonnegative")
    result = min_connection_assignment(cfg)
    return E_dirichlet + 4.0 * math.pi * result.mass
