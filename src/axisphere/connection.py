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
not lower the objective.

The package has one assignment solver, run at most once per
configuration: scipy's compiled ``linear_sum_assignment`` (a shortest
augmenting path search, Crouse 2016) pairs the charges, and a vectorised
Bellman-Ford on the columns recovers Kantorovich potentials for that
pairing.  The potentials are checked when the search runs: every pair
constraint must hold, and every matched pair must be tight.
``min_connection_assignment`` reports the permutation's length, an upper
bound on the minimum, and ``kantorovich_dual`` the potentials' value, a lower
bound by weak duality.  Tight matched pairs make the two equal, so the
pairing is certified minimal, however the search found it.
``min_connection_bruteforce`` is a third, exhaustive route for k <= 9 that
shares no code with the search: a dynamic program over the 2^k subsets of
negatives (O(k 2^k) time, 2^k memory).  The current mass is multiplicity *
length.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._lapack import linear_sum_assignment
from .geometry import NumericalError

__all__ = [
    "SingularityConfig",
    "ConnectionResult",
    "min_connection_bruteforce",
    "min_connection_assignment",
    "kantorovich_dual",
]

_BRUTEFORCE_MAX = 9
# Bellman-Ford's stop margin in units of max d_ij: 4 ulps
_TIE_ULPS = 4.0 * np.finfo(float).eps


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
    (not a bool) that a float can hold (below about 1.8e308).  The points
    are stored as read-only copies, so the distance matrix built here, and
    the one pairing search run on it, stay theirs.
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
        try:
            float(mult)
        except OverflowError:
            raise ValueError(f"multiplicity must be below about 1.8e308, got an integer "
                             f"of {int(mult).bit_length()} bits") from None
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
        object.__setattr__(self, "_found", None)

    @property
    def k(self) -> int:
        return self.positives.shape[0]

    def distance_matrix(self) -> np.ndarray:
        """The read-only ``(k, k)`` matrix of |P_i - N_j|, built once at
        construction and shared by every route."""
        return self._dist

    def _search(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The read-only ``(matching, u, v)`` of the assignment search on the
        distance matrix, run on the first call and kept.

        The certificate is checked once, as the search runs, to 1e-9 *
        max(1, max d_ij): the pair constraints u_i + v_j <= d_ij, and their
        equality on the matched pairs d[i, sigma(i)] = u_i + v[sigma(i)].
        Together they make the matching's length equal the potentials' sum,
        so a non-optimal matching cannot pass.  The tolerance scales with the
        distances: u, v and d each carry rounding errors of order 1e-16
        max d_ij, which pass an absolute 1e-9 once the distances reach ~1e7.
        A failed search or certificate raises NumericalError and keeps
        nothing, so the next call searches again.
        """
        if self._found is None:
            dist = self._dist
            if self.k == 0:  # the search's column minima of a 0 x 0 matrix would raise
                found = (np.empty(0, dtype=np.intp), np.empty(0), np.empty(0))
            else:
                found = _shortest_augmenting_paths(dist)
                matching, u, v = found
                tolerance = 1e-9 * max(1.0, float(dist.max()))
                violation = float(np.max(u[:, None] + v[None, :] - dist))
                if not violation <= tolerance:  # also rejects NaN
                    raise NumericalError(
                        f"Kantorovich potentials violate a pair constraint by {violation:.3g}"
                    )
                slack = float(np.max(np.abs(dist[np.arange(self.k), matching] - u - v[matching])))
                if not slack <= tolerance:
                    raise NumericalError(
                        f"a matched pair is {slack:.3g} short of tight under the Kantorovich "
                        f"potentials: the pairing is not certified minimal"
                    )
            for array in found:
                array.flags.writeable = False
            object.__setattr__(self, "_found", tuple(found))
        return self._found

    @classmethod
    def from_json(cls, text: str) -> "SingularityConfig":
        """Load ``{"multiplicity", "positives", "negatives"}``; each class is
        a list of ``[x, y, z]`` rows, and an empty or missing class has none.
        Any other key raises, so that a misspelled one is not read as absent."""
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError("charge configuration must be a JSON object")
        unknown = sorted(set(d) - {"multiplicity", "positives", "negatives"})
        if unknown:
            raise ValueError(f"unknown keys {unknown} (use multiplicity, positives, negatives)")
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


def _connection(cfg: SingularityConfig, matching: list[int] | np.ndarray) -> ConnectionResult:
    """The pairing of positive i with negative ``matching[i]``: its length is
    the matched distances summed in row order.  A mass that overflows raises
    NumericalError."""
    length = float(cfg.distance_matrix()[np.arange(cfg.k), matching].sum())
    mass = cfg.multiplicity * length
    if not math.isfinite(mass):
        raise NumericalError(f"the current mass, multiplicity {float(cfg.multiplicity):.6g} "
                             f"times length {length:.6g}, overflows")
    return ConnectionResult(length=length, mass=mass, matching=tuple(int(j) for j in matching))


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
    return _connection(cfg, matching)


def min_connection_assignment(cfg: SingularityConfig) -> ConnectionResult:
    """Minimal connection: the pairing that the assignment search ends
    with, which ``kantorovich_dual``'s potentials from the same search
    certify.  On tied inputs it may be another minimal pairing than another
    solver's.  A failed search or certificate raises NumericalError.
    """
    matching, _, _ = cfg._search()
    return _connection(cfg, matching)


def _shortest_augmenting_paths(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Optimal matching and potentials of the square cost matrix ``dist``.

    Returns ``(matching, u, v)``: positive i is paired with negative
    ``matching[i]``, and u_i + v_j <= dist[i, j] holds with equality on the
    matched pairs.  scipy's compiled ``linear_sum_assignment`` (a shortest
    augmenting path search, Crouse 2016) finds the matching.  The potentials
    are then shortest-path distances on the columns: with u_i =
    dist[i, matching[i]] - v[matching[i]], the pair constraints read v_j <=
    v_c + w[c, j] for w[c, j] = dist[r, j] - dist[r, c], r the row matched to
    column c.  An optimal matching leaves no negative cycle in w, so
    Bellman-Ford from v = 0 (:func:`_column_potentials`) converges within k
    rounds.  Finally u is read off the matching and v recomputed from u as
    v_j = min_i (dist[i, j] - u_i).  O(k^2) memory (``dist`` and ``w``).  A
    matrix with no finite matching, or with a NaN, raises NumericalError.
    """
    k = dist.shape[0]
    try:
        _, matching = linear_sum_assignment(dist)
    except ValueError as exc:  # "cost matrix is infeasible" or "invalid numeric entries"
        raise NumericalError(f"Kantorovich search found no finite augmenting path: {exc}") from None
    row_of = np.empty(k, dtype=np.intp)
    row_of[matching] = np.arange(k)
    w = dist[row_of]
    w -= dist[row_of, np.arange(k)][:, None]
    v, _ = _column_potentials(w, _TIE_ULPS * float(dist.max()))
    u = dist[np.arange(k), matching] - v[matching]
    # the largest v that u allows: equal to v in exact arithmetic, but the
    # rounding of the path sums above drops out of the pair constraints
    v = (dist - u[:, None]).min(axis=0)
    return matching, u, v


def _column_potentials(w: np.ndarray, margin: float) -> tuple[np.ndarray, int]:
    """Shortest-path distances v from v = 0 on the column graph ``w``, by
    Bellman-Ford, and the number of rounds run (at most k).

    Each round relaxes from the columns that the round before lowered, and a
    column is lowered only by more than ``margin``.  On exact ties a cycle
    of rounded weights can sum to a few ulps below 0, and without the margin
    every lap around it would lower v again until the cap.
    """
    k = w.shape[0]
    v = np.zeros(k)
    reach = w.min(axis=0)  # the first round: every column relaxes from v = 0
    for rounds in range(1, k + 1):
        lowered = np.flatnonzero(reach < v - margin)
        if lowered.size == 0:
            break
        v[lowered] = reach[lowered]
        reach = (w[lowered] + v[lowered, None]).min(axis=0)
    return v, rounds


def kantorovich_dual(cfg: SingularityConfig) -> float:
    """Dual value: max sum xi(P_i) - sum xi(N_j) over potentials xi with
    xi(P_i) - xi(N_j) <= |P_i - N_j| for every positive-negative pair.

    The potentials u_i = xi(P_i) and v_j = -xi(N_j) belong to the pairing
    sigma that the assignment search on d_ij = |P_i - N_j| ends with: v is a
    shortest-path distance on the columns, found by Bellman-Ford, u_i =
    d[i, sigma(i)] - v[sigma(i)], and v_j = min_i (d_ij - u_i) is recomputed
    from u.  The search runs once per configuration, and its certificate is
    checked then, to 1e-9 * max(1, max d_ij): every pair constraint u_i + v_j
    <= d_ij holds, so by weak duality the sum is a lower bound on every
    pairing, and every matched pair is tight, so sigma's length, which
    ``min_connection_assignment`` reports, meets it.  A failed search or
    certificate raises NumericalError.
    """
    _, u, v = cfg._search()
    return float(np.sum(u) + np.sum(v))
