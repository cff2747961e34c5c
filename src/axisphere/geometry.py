"""Chart conversions, radial profiles, and explicit map constructions.

An n-axially symmetric sphere-valued map is determined by a single chart
profile f: in cylindrical coordinates (r, theta, z),

    u(r, theta, z) = Pi^{-1}( f(r, z) * (cos(n theta), sin(n theta)) ),

where Pi is the stereographic projection from the south pole.  Internally
profiles are stored as the image colatitude

    phi = 2 * arctan(f)  in [0, pi],

because f = +inf on points mapping to the south pole would make chart-value
grids singular, while phi stays bounded.  All energy formulas used elsewhere
are written in the phi variable.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "INFINITY",
    "RadialProfile",
    "ConeDipoleMap",
    "DegreeResult",
    "NumericalError",
    "chart_to_colatitude",
    "geometric_grid",
    "u0_profile",
    "u_eps_profile",
    "degree_from_flux",
]

#: Marker for an infinite chart value (image = south pole).  A value, not an error.
INFINITY: float = math.inf


class NumericalError(RuntimeError):
    """A numerical route failed or contradicted an independent one."""


def chart_to_colatitude(f: float) -> float:
    """Colatitude phi with tan(phi/2) = f.  Accepts f = inf (-> pi)."""
    if f < 0.0:
        raise ValueError(f"chart value must be nonnegative, got {f!r}")
    return 2.0 * math.atan(f)


def geometric_grid(r_min: float, r_max: float, nodes: int) -> np.ndarray:
    """Log-spaced radial grid; resolves power-law behaviour near the axis.

    ``exp(np.linspace(log r_min, log r_max, nodes))`` with exact endpoints,
    bit for bit, formed by the operations ``np.linspace`` runs inside
    (arange, times the step, plus log r_min) without its Python layer; within
    4e-15 relative of ``np.geomspace``, which takes base-10 powers and is
    several times slower.  ``nodes`` must be an integer (a float raises
    TypeError, as in ``np.linspace``) and ``r_max`` finite.
    """
    nodes = operator.index(nodes)
    if not 0.0 < r_min < r_max < math.inf:
        raise ValueError("need 0 < r_min < r_max < inf")
    if nodes < 2:
        raise ValueError("need at least 2 nodes")
    log_min = math.log(r_min)
    grid = np.arange(nodes, dtype=float)
    grid *= (math.log(r_max) - log_min) / (nodes - 1)
    grid += log_min
    np.exp(grid, out=grid)
    grid[0], grid[-1] = r_min, r_max
    return grid


def _checked_colatitudes(phi: np.ndarray) -> np.ndarray:
    """A copy of the colatitudes ``phi`` clipped to [0, pi], never a view.

    One min and one max scan.  When both lie in [0, pi] the clip is the
    identity, -0.0 included, and the result is a plain copy in the layout
    ``np.clip`` would allocate: a "K"-order copy, or ``np.positive(phi)``
    (a ufunc, as ``np.clip`` is) where an axis is broadcast with stride 0.
    Otherwise NaN and values more than 1e-12 outside raise, and smaller
    excursions are clipped.
    """
    lo = np.minimum.reduce(phi, axis=None)  # a NaN propagates into both
    hi = np.maximum.reduce(phi, axis=None)
    if 0.0 <= lo and hi <= math.pi:
        return np.positive(phi) if 0 in phi.strides else phi.copy(order="K")
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError("phi contains NaN")
    if lo < -1e-12 or hi > math.pi + 1e-12:
        raise ValueError("phi values must lie in [0, pi]")
    return np.clip(phi, 0.0, math.pi)


def _winding_number(n) -> int:
    """``n`` as an int: a Python or numpy integer >= 1, not a bool."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"winding number n must be an integer >= 1, got {n!r}")
    return int(n)


@dataclass(frozen=True)
class RadialProfile:
    """A sampled colatitude profile phi(r) of an n-axially symmetric map.

    Attributes
    ----------
    grid :
        Strictly increasing finite radii, at least 2 nodes, all positive (a
        leading node at r = 0 is allowed for fields reaching the axis).
    phi :
        Colatitude values in [0, pi] at each node.
    n :
        Winding number of the map, a Python or numpy integer >= 1 (not a
        bool), stored as an int.
    """

    grid: np.ndarray
    phi: np.ndarray
    n: int

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must be 1-D with at least 2 nodes")
        if phi.shape != grid.shape:
            raise ValueError("phi and grid must have the same shape")
        if not (grid[1:] > grid[:-1]).all():
            raise ValueError("grid must be strictly increasing")
        if grid[0] < 0.0:
            raise ValueError("radii must be nonnegative")
        if not grid[-1] < math.inf:  # increasing: the last node is the largest
            raise ValueError("radii must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "phi", _checked_colatitudes(phi))
        object.__setattr__(self, "n", _winding_number(self.n))


def u0_profile(alpha: float, n: int, grid: np.ndarray) -> RadialProfile:
    """Profile of the smooth map with chart value f(r) = alpha * r^n.
    phi = 2 arctan(alpha r^n) is formed in one array, in place."""
    if alpha < 0.0:
        raise ValueError("alpha must be nonnegative")
    grid = np.asarray(grid, dtype=float)
    phi = np.power(grid, n)
    np.multiply(phi, alpha, out=phi)
    np.arctan(phi, out=phi)
    np.multiply(phi, 2.0, out=phi)
    return RadialProfile(grid=grid, phi=phi, n=n)


def u_eps_profile(alpha: float, n: int, eps: float, grid: np.ndarray) -> RadialProfile:
    """Profile of the regularized map: conformal outside radius eps,
    anti-conformal inside.

    f(r) = alpha r^n for r >= eps and f(r) = alpha eps^{2n} r^{-n} for
    r <= eps; the two branches agree at r = eps.  The radius eps is inserted
    in order into the grid if absent, so each branch is sampled monotonically.
    Each branch is formed only on its part of the grid, in one array.  Near
    r = 0 the inner branch's r^{-n} overflows to inf (below r ~ 1e-154 at
    n = 2), and 2 arctan(inf) = pi is its exact limit, so the overflow is
    not reported; nor is r^{-n} = inf at a node r = 0.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps!r}")
    grid = np.asarray(grid, dtype=float)
    k = int(np.searchsorted(grid, eps))  # the nodes r >= eps of a sorted grid are grid[k:]
    if k == grid.size or grid[k] != eps:
        grid = np.insert(grid, k, eps)
    phi = np.empty_like(grid)  # the chart value f, then 2 arctan f in place
    inner, outer = phi[:k], phi[k:]
    np.multiply(np.power(grid[k:], n, out=outer), alpha, out=outer)
    with np.errstate(over="ignore", divide="ignore"):
        np.power(grid[:k], -n, out=inner)
    np.multiply(inner, alpha * eps ** (2 * n), out=inner)
    np.arctan(phi, out=phi)
    np.multiply(phi, 2.0, out=phi)
    return RadialProfile(grid=grid, phi=phi, n=n)


@dataclass(frozen=True)
class ConeDipoleMap:
    """The cone-modified map: equal to the smooth f = alpha r^n map outside
    the two axis cones |z| > 1, r < |z| - 1, and anti-conformal inside them.

    Inside the upper cone the chart value is alpha (z-1)^{2n} r^{-n}; the
    lower cone is the mirror image z -> -z.  The map is continuous on the
    closed ball of radius 2 except at the two singular points (0, 0, +-1),
    which carry degrees -+ n.
    """

    alpha: float
    n: int

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 0.25:
            raise ValueError("alpha must lie in (0, 1/4]")
        object.__setattr__(self, "n", _winding_number(self.n))

    def chart_value(self, r: float, z: float) -> float:
        """Chart magnitude f(r, z); inf on the axis inside the cones."""
        if r < 0.0:
            raise ValueError("radius must be nonnegative")
        if r * r + z * z > 4.0 + 1e-12:
            raise ValueError("point outside the ball of radius 2")
        az = abs(z)
        if r == 0.0 and az == 1.0:
            raise ValueError("evaluation at a singular point (0, 0, +-1)")
        if az > 1.0 and r < az - 1.0:
            if r == 0.0:
                return INFINITY
            return self.alpha * (az - 1.0) ** (2 * self.n) * r ** (-self.n)
        return self.alpha * r ** self.n

    def colatitude(self, r: float, z: float) -> float:
        return chart_to_colatitude(self.chart_value(r, z))


@dataclass(frozen=True)
class DegreeResult:
    """Degree of a map restricted to a sphere, with its distance from an
    integer."""

    degree: int
    residual: float
    raw: float


def degree_from_flux(
    colatitude_fn: Callable[[float, float], float],
    winding: int,
    center: tuple[float, float, float],
    radius: float,
) -> DegreeResult:
    """Topological degree of an axially symmetric map on a sphere, via flux.

    The flux of the pullback field through the sphere, divided by 4*pi, equals
    the degree of the restriction.  For image colatitude Phi and longitude
    (winding * theta) it collapses to a colatitude integral with an exact
    antiderivative,

        deg = (winding / 2) * Int_0^pi sin(Phi) Phi' d(beta)
            = (winding / 2) * (cos Phi(north) - cos Phi(south)),

    where beta parametrizes the sphere around ``center`` (on the symmetry
    axis) from its north pole, and Phi is read from ``colatitude_fn(r, z)``
    at the two axis points (0, cz +- radius).  Exact for every map continuous
    on the sphere, whose Phi at an axis point is a pole, 0 or pi.  A result
    more than 1e-9 from an integer means Phi at an axis point is not a pole,
    i.e. the map is discontinuous there, and raises ValueError.
    """
    cx, cy, cz = center
    if abs(cx) > 1e-12 or abs(cy) > 1e-12:
        raise ValueError("center must lie on the symmetry axis for the 1-D reduction")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    north, south = (math.cos(colatitude_fn(0.0, cz + side * radius)) for side in (1.0, -1.0))
    raw = 0.5 * winding * (north - south)
    degree = round(raw)
    residual = abs(raw - degree)
    if residual > 1e-9:
        raise ValueError(
            f"degree {raw:.12g} is not an integer: the colatitude at an axis point "
            f"of the sphere is not a pole, so the map is discontinuous there")
    return DegreeResult(degree=degree, residual=residual, raw=raw)
