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
The current mass is multiplicity * length.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import NumericalError

__all__ = [
    "SingularityConfig",
    "ConnectionResult",
    "min_connection_bruteforce",
    "min_connection_assignment",
    "kantorovich_dual",
]

_BRUTEFORCE_MAX = 9


def _point_rows(points, name: str) -> np.ndarray:
    """``points`` as a read-only ``(k, 3)`` copy; an empty class has k = 0,
    and any other shape raises ValueError rather than being re-cut into
    rows."""
    pts = np.array(points, dtype=float)
    if pts.size == 0:
        pts = pts.reshape(0, 3)
    elif pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"{name} must be a list of [x, y, z] rows, got shape {pts.shape}")
    pts.flags.writeable = False
    return pts


@dataclass(frozen=True)
class SingularityConfig:
    """Signed, integer-weighted point charges in R^3.

    ``positives`` and ``negatives`` are ``(k, 3)`` arrays of points and
    must be balanced (equal counts; total degree zero), and each sign class
    must consist of distinct points.  A positive may coincide with a
    negative (a removable pair).  Every positive-negative distance must be
    finite in floating point (below about 1.3e154).  All charges carry the
    same absolute degree ``multiplicity``, a Python or numpy integer >= 1
    (not a bool).  The points are stored as read-only copies, so the
    distance matrix built here stays theirs.
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
            ordered = pts[np.lexsort(pts.T[::-1])]  # rows sorted by x, then y, then z
            repeats = np.flatnonzero((ordered[1:] == ordered[:-1]).all(axis=1))
            if repeats.size:
                raise ValueError(f"duplicate point in {name}: {ordered[repeats[0]]}")
        mult = self.multiplicity
        if isinstance(mult, bool) or not isinstance(mult, (int, np.integer)) or mult < 1:
            raise ValueError(f"multiplicity must be an integer >= 1, got {mult!r}")
        object.__setattr__(self, "positives", pos)
        object.__setattr__(self, "negatives", neg)
        object.__setattr__(self, "multiplicity", int(self.multiplicity))
        # |P_i - N_j| one coordinate at a time: the same operations, in the
        # same order, as sqrt(sum(diff ** 2, axis=-1)) over a (k, k, 3) diff
        with np.errstate(over="ignore"):
            dist = np.subtract.outer(pos[:, 0], neg[:, 0])
            dist *= dist
            for c in (1, 2):
                diff = np.subtract.outer(pos[:, c], neg[:, c])
                diff *= diff
                dist += diff
            np.sqrt(dist, out=dist)
        if not np.all(np.isfinite(dist)):
            raise ValueError("a positive-negative distance overflows to inf")
        dist.flags.writeable = False
        object.__setattr__(self, "_dist", dist)

    @property
    def k(self) -> int:
        return self.positives.shape[0]

    def distance_matrix(self) -> np.ndarray:
        """The read-only ``(k, k)`` matrix of |P_i - N_j|, built once at
        construction and shared by every route."""
        return self._dist

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
            multiplicity=d.get("multiplicity", 1),
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
    costs until it reaches an unmatched column.  ``red`` holds dist[i, j] -
    v_j, with inf in the columns the tree has reached, so each scanned row
    takes three calls: its costs ``red[i] + offset``, their elementwise
    minimum with the tentative distances, and the argmin.  v moves by the
    tree's distances, which keeps the reduced costs nonnegative and makes the
    tree's path tight; the path is flipped, and ``red`` is rebuilt from v.
    Along the path, each column's predecessor is the first scanned row whose
    cost equals the column's distance, the row that set it.  Finally u is
    read off the matching, u_i = dist[i, matching[i]] - v[matching[i]], and v
    is recomputed from u as v_j = min_i (dist[i, j] - u_i).  O(k^3) time,
    O(k^2) memory (``dist`` and ``red``).  A non-finite tentative distance
    raises NumericalError.
    """
    k = dist.shape[0]
    v = dist.min(axis=0)
    matching = np.full(k, -1)
    row_of = np.full(k, -1)
    rows, cols = np.unique(dist.argmin(axis=0), return_index=True)
    matching[rows], row_of[cols] = cols, rows
    row_of = row_of.tolist()
    red = dist - v
    cost = np.empty(k)
    tentative = np.empty(k)  # distance to each column not yet reached; inf once reached
    for free in np.flatnonzero(matching < 0).tolist():
        tentative.fill(np.inf)
        i, offset = free, 0.0  # tree distance to row i minus u_i; u = 0 on a free row
        scanned, offsets, reached, labels = [], [], [], []  # in scan order
        while True:
            scanned.append(i)
            offsets.append(offset)
            np.add(red[i], offset, out=cost)
            np.minimum(tentative, cost, out=tentative)
            j = int(tentative.argmin())
            dj = tentative.item(j)
            if not dj < np.inf:  # also rejects NaN
                raise NumericalError(
                    f"Kantorovich search found no finite augmenting path from positive {free}"
                )
            reached.append(j)
            labels.append(dj)
            tentative[j] = red[:, j] = np.inf
            i = row_of[j]
            if i < 0:
                break
            offset = dj - dist.item(i, j) + v.item(j)
        t = len(reached) - 1
        while True:  # flip the path back to the free row, scanned[0]
            j, vj = reached[t], v.item(reached[t])
            s = 0
            while (dist.item(scanned[s], j) - vj) + offsets[s] != labels[t]:
                s += 1
            i = scanned[s]
            row_of[j], matching[i] = i, j
            if s == 0:
                break
            t = s - 1  # scanned[s] was reached through column reached[s - 1]
        closed = np.array(reached)
        v[closed] += np.array(labels) - dj
        np.subtract(dist, v, out=red)
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
    constraints u_i + v_j <= d_ij hold to 1e-9 * max(1, max d_ij), so by
    weak duality it is a lower bound on every pairing, and since sigma's
    length equals it, it is the minimal-connection length.  The tolerance
    scales with the distances: u, v and d each carry rounding errors of
    order 1e-16 max d_ij, which pass an absolute 1e-9 once the distances
    reach ~1e7.  The assignment solver is never consulted.  A failed search
    or a violated pair constraint raises NumericalError.
    """
    if cfg.k == 0:  # the search's column minima of a 0 x 0 matrix would raise
        return 0.0
    dist = cfg.distance_matrix()
    _, u, v = _shortest_augmenting_paths(dist)
    violation = float(np.max(u[:, None] + v[None, :] - dist))
    if not violation <= 1e-9 * max(1.0, float(dist.max())):  # also rejects NaN duals
        raise NumericalError(
            f"Kantorovich potentials violate a pair constraint by {violation:.3g}"
        )
    return float(np.sum(u) + np.sum(v))
