"""Constrained profile optimization for the conformality-defect functional.

On an annulus [s, 1], the defect of a chart profile g is controlled by

    I(g) = Int_s^1 ( |g'(r)| - (n/r) g(r) )^2 r dr,

which vanishes exactly on the conformal branches g = c r^{+-n}.  Minimizing
I over the cone of profiles pinned to g(s) = b, g(s_tilde) = a, g(1) = alpha
and monotone on each side of s_tilde (decreasing, then increasing) has an
explicit piecewise solution: an arc of the two-parameter family
c_+ r^n + c_- r^{-n} descending from b, a flat plateau at the minimum value
a, and a symmetric arc rising to alpha.  The arc endpoints t0 and tau0 where
the arcs meet the plateau with zero slope have closed forms, and the plateau
alone forces

    I(g) >= n^2 a^2 log(tau0 / t0),

the logarithmic gap that grows without bound as alpha -> 0.

The numerical route discretizes I in log-radius (where the arc family is a
linear combination of e^{+-n x}).  On each monotone segment the discrete I
is a strictly convex quadratic under chain constraints, which an exact
active-set method solves with one tridiagonal solve per working set: a few
primal-dual rounds find the working set, and a primal loop certifies it.
The active constraints at the optimum are the discrete plateau.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .geometry import NumericalError, geometric_grid

__all__ = [
    "ClosedFormProfile",
    "ConeConstraint",
    "PiecewiseMinimizer",
    "MinimizeIResult",
    "GapBound",
    "eta_profile",
    "zeta_profile",
    "compute_t0",
    "compute_tau0",
    "g0_construct",
    "I_functional",
    "minimize_I_numerical",
    "gap_lower_bound",
]


_GAUSS_ORDER = 8  # points of the defect quadrature's lower-order rule


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1] of the m- and then the 2m-point
    Gauss-Legendre rule, m = _GAUSS_ORDER: the roots x of the Legendre
    polynomial P_k by Newton's method on its three-term recurrence from
    cos(pi (i - 1/4) / (k + 1/2)), and 2 / ((1 - x^2) P_k'(x)^2) at them."""
    rules = []
    for k in (_GAUSS_ORDER, 2 * _GAUSS_ORDER):
        x, step = np.cos(math.pi * (np.arange(k) + 0.75) / (k + 0.5)), math.inf
        while True:  # the pass after the last step evaluates P_k' at the roots
            p0, p1 = np.ones(k), x
            for j in range(2, k + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = k * (x * p1 - p0) / (x * x - 1.0)
            if step <= 1e-15:
                break
            step = float(np.max(np.abs(p1 / dp)))
            x = x - p1 / dp
        rules.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    return np.concatenate([x for x, _ in rules]), np.concatenate([w for _, w in rules])


@dataclass(frozen=True)
class ClosedFormProfile:
    """A profile c_plus r^n + c_minus r^{-n} on [r_lo, r_hi].

    The family solves the stationarity equation -(r g')' + (n^2/r) g = 0 of
    the defect functional, so every member has identically zero residual.
    """

    c_plus: float
    c_minus: float
    r_lo: float
    r_hi: float
    n: int

    def value(self, r):
        r = np.asarray(r, dtype=float)
        return self.c_plus * r ** self.n + self.c_minus * r ** (-self.n)

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        n = self.n
        return n * self.c_plus * r ** (n - 1) - n * self.c_minus * r ** (-n - 1)


def eta_profile(t: float, s: float, a: float, b: float, n: int) -> ClosedFormProfile:
    """Descending arc with eta(s) = b and eta(t) = a."""
    if not 0.0 < s < t:
        raise ValueError(f"need 0 < s < t, got s={s}, t={t}")
    if a <= 0.0 or b <= 0.0:
        raise ValueError("endpoint values must be positive")
    den = t ** (2 * n) - s ** (2 * n)
    if den == 0.0:
        raise NumericalError(f"t**{2 * n} - s**{2 * n} underflows to 0 at s={s}, t={t}")
    c_plus = (a * t ** n - b * s ** n) / den
    c_minus = s ** n * t ** n * (b * t ** n - a * s ** n) / den
    return ClosedFormProfile(c_plus=c_plus, c_minus=c_minus, r_lo=s, r_hi=t, n=n)


def zeta_profile(tau: float, a: float, alpha: float, n: int) -> ClosedFormProfile:
    """Ascending arc with zeta(tau) = a and zeta(1) = alpha."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"need 0 < tau < 1, got tau={tau}")
    if a <= 0.0 or alpha <= 0.0:
        raise ValueError("endpoint values must be positive")
    den = 1.0 - tau ** (2 * n)
    c_plus = (alpha - a * tau ** n) / den
    c_minus = tau ** n * (a - alpha * tau ** n) / den
    return ClosedFormProfile(c_plus=c_plus, c_minus=c_minus, r_lo=tau, r_hi=1.0, n=n)


def compute_t0(s: float, a: float, b: float, n: int) -> float:
    """Radius t0 > s at which the descending arc from (s, b) to (t0, a) has
    zero slope: t0^n = (b/a) (1 + sqrt(1 - a^2/b^2)) s^n.

    The discarded quadratic root lies at or below s.  Requires 0 < a <= b;
    a = 0 is rejected (t0 would be infinite).
    """
    if a <= 0.0:
        raise ValueError("a must be positive (a = 0 pushes t0 to infinity)")
    if a > b:
        raise ValueError(f"need a <= b, got a={a} > b={b}")
    ratio = a / b
    return s * ((b / a) * (1.0 + math.sqrt(max(0.0, 1.0 - ratio * ratio)))) ** (1.0 / n)


def compute_tau0(a: float, alpha: float, n: int) -> float:
    """Radius tau0 <= 1 at which the ascending arc to (1, alpha) leaves the
    plateau with zero slope: tau0^n = (alpha/a) (1 - sqrt(1 - a^2/alpha^2)).

    The minus root keeps tau0 <= 1, with equality if and only if a = alpha.
    """
    if a <= 0.0:
        raise ValueError("a must be positive")
    if a > alpha:
        raise ValueError(f"need a <= alpha, got a={a} > alpha={alpha}")
    beta = (a / alpha) ** 2
    # 1 - sqrt(1 - beta) evaluated cancellation-free
    root = beta / (1.0 + math.sqrt(max(0.0, 1.0 - beta)))
    return ((alpha / a) * root) ** (1.0 / n)


@dataclass(frozen=True)
class ConeConstraint:
    """The admissible cone: g(s) = b, g(s_tilde) = a, g(1) = alpha, with g
    decreasing on [s, s_tilde] and increasing on [s_tilde, 1].

    b is the fixed crossing level 1/2 (overridable only for sensitivity
    studies); the interior minimum a satisfies 0 < a <= alpha <= 1/4.
    s_tilde = 1 forces a = alpha (both pin g at r = 1).
    """

    s: float
    s_tilde: float
    a: float
    alpha: float
    b: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.s < self.s_tilde <= 1.0:
            raise ValueError(f"need 0 < s < s_tilde <= 1, got s={self.s}, s_tilde={self.s_tilde}")
        if not 0.0 < self.a <= self.alpha:
            raise ValueError(f"need 0 < a <= alpha, got a={self.a}, alpha={self.alpha}")
        if self.alpha > 0.25 + 1e-12:
            raise ValueError(f"alpha must not exceed 1/4, got {self.alpha}")
        if self.alpha >= self.b:
            raise ValueError(f"alpha={self.alpha} must stay below the crossing level b={self.b}")
        if self.s_tilde == 1.0 and abs(self.a - self.alpha) > 1e-12:
            raise ValueError("s_tilde = 1 pins g(1) twice; requires a = alpha")


@dataclass(frozen=True)
class PiecewiseMinimizer:
    """The explicit minimizer of I over a constraint cone.

    Pieces, in order: a descending arc on [s, arc_end], a plateau at the
    value a on [arc_end, plateau_end], and (unless it is empty) an ascending
    arc on [plateau_end, 1].  ``t0``/``tau0`` are the unconstrained zero-slope
    radii; the realized breakpoints clip them to the cone.
    """

    constraint: ConeConstraint
    n: int
    eta: ClosedFormProfile
    zeta: ClosedFormProfile | None
    arc_end: float
    plateau_end: float
    t0: float
    tau0: float

    def sample(self, grid: np.ndarray) -> np.ndarray:
        r = np.asarray(grid, dtype=float)
        out = np.full(r.shape, self.constraint.a, dtype=float)
        left = r <= self.arc_end
        out[left] = self.eta.value(r[left])
        if self.zeta is not None:
            right = r >= self.plateau_end
            out[right] = self.zeta.value(r[right])
        return out

    def objective_closed_form(self) -> float:
        """I at the minimizer: exact arc integrals plus the plateau term
        n^2 a^2 log(plateau_end / arc_end).  The integrand (|g'| - (n/r) g)^2 r
        reduces to (2 n c_plus r^{n-1})^2 r on the descending arc and to
        (2 n c_minus r^{-n-1})^2 r on the ascending one."""
        n, a, eta, zeta = self.n, self.constraint.a, self.eta, self.zeta
        total = 2.0 * n * eta.c_plus ** 2 * (eta.r_hi ** (2 * n) - eta.r_lo ** (2 * n))
        if self.plateau_end > self.arc_end:
            total += n * n * a * a * math.log(self.plateau_end / self.arc_end)
        if zeta is not None:
            total += 2.0 * n * zeta.c_minus ** 2 * (zeta.r_lo ** (-2 * n) - zeta.r_hi ** (-2 * n))
        return total

    def defect(self) -> tuple[float, float]:
        """E - A of the map generated by the minimizer, 4 pi Int e^2 /
        (1 + g^2)^2 dx in x = log r with e = |dg/dx| - n g, and its error.

        On the plateau e = -n a: exactly n^2 a^2 log(plateau_end / arc_end) /
        (1 + a^2)^2.  On an arc e = -2 n c_plus r^n (descending) or
        -2 n c_minus r^{-n} (ascending), a function of n x: both rules of
        :func:`_gauss_legendre` run on panels at most min(1/2, 1/n) long in
        x, and the error is their difference."""
        n, a = self.n, self.constraint.a
        nodes, weights = _gauss_legendre()
        total = err = 0.0
        for arc, decreasing in ((self.eta, True), (self.zeta, False)):
            if arc is None:
                continue
            lo, hi = math.log(arc.r_lo), math.log(arc.r_hi)
            panels = max(1, math.ceil((hi - lo) * max(2, n)))
            half = (hi - lo) / (2 * panels)
            up = np.exp(n * ((lo + half * np.arange(1, 2 * panels, 2))[:, None] + half * nodes))
            e = 2.0 * n * (arc.c_plus * up if decreasing else arc.c_minus / up)
            e /= 1.0 + (arc.c_plus * up + arc.c_minus / up) ** 2
            sums = half * (e * e).sum(axis=0) * weights
            fine = float(sums[_GAUSS_ORDER:].sum())
            total, err = total + fine, err + abs(fine - float(sums[:_GAUSS_ORDER].sum()))
        if self.plateau_end > self.arc_end:
            total += n * n * a * a * math.log(self.plateau_end / self.arc_end) / (1.0 + a * a) ** 2
        return 4.0 * math.pi * total, 4.0 * math.pi * err


def g0_construct(c: ConeConstraint, n: int) -> PiecewiseMinimizer:
    """Build the explicit minimizer of I over the cone.

    The descending arc ends at min(t0, s_tilde): with zero slope at t0, or
    as the endpoint arc to s_tilde.  Symmetrically the ascending arc starts
    at tau0 clipped to [s_tilde, 1], and there is none when that is 1
    (tau0 = 1 at a = alpha), which leaves the plateau running to the
    boundary.
    """
    s, st, a, alpha, b = c.s, c.s_tilde, c.a, c.alpha, c.b
    t0 = compute_t0(s, a, b, n)
    tau0 = 1.0 if st == 1.0 else compute_tau0(a, alpha, n)
    arc_end = min(t0, st)
    # the outer min keeps a tau0 that rounds above 1 at the boundary
    plateau_end = min(max(tau0, st), 1.0)
    eta = eta_profile(arc_end, s, a, b, n)
    zeta = zeta_profile(plateau_end, a, alpha, n) if plateau_end < 1.0 else None
    return PiecewiseMinimizer(
        constraint=c, n=n, eta=eta, zeta=zeta,
        arc_end=arc_end, plateau_end=plateau_end, t0=t0, tau0=tau0,
    )


# ---------------------------------------------------------------------------
# Discretized functional (log-radius cells) and the active-set solve
# ---------------------------------------------------------------------------

def _log_cells(r: np.ndarray, g: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The discrete I's cells (|dg/dx| - n g_mid)^2 dx in x = log r, and g_mid."""
    dx = np.diff(np.log(r))
    gm = (g[:-1] + g[1:]) / 2.0
    return (np.abs(np.diff(g)) / dx - n * gm) ** 2 * dx, gm


def I_functional(r: np.ndarray, g: np.ndarray, n: int) -> float:
    """Discrete I on a sampled profile: in x = log r the integrand becomes
    (|dg/dx| - n g)^2 dx, evaluated per cell with one-sided differences and
    midpoint values of g."""
    r = np.asarray(r, dtype=float)
    g = np.asarray(g, dtype=float)
    return float(np.sum(_log_cells(r, g, n)[0]))


def _I_and_gap(r: np.ndarray, g: np.ndarray, n: int) -> tuple[float, float]:
    """The discrete I of :func:`I_functional`, bit for bit, and, on the same
    log-radius cells, the conformality defect E - A of the map generated by
    the chart profile g: 4 pi * Int (|g'| - (n/r) g)^2 / (1 + g^2)^2 r dr.

    Since (1 + g^2)^2 <= 4 for g <= 1, each defect cell dominates pi times
    the corresponding I cell.
    """
    cells, gm = _log_cells(r, g, n)
    return float(np.sum(cells)), 4.0 * math.pi * float(np.sum(cells / (1.0 + gm * gm) ** 2))


# KKT tolerance of the active-set solve, relative to its rounding level; the
# residual it reaches is ~1e-15
_KKT_TOL = 1e-10
_gtsv = _lapack.dgtsv  # float64 tridiagonal solve
# primal-dual rounds that start each segment solve; the primal loop finishes
# whatever they leave open
_ROUNDS = 8


@dataclass(frozen=True)
class MinimizeIResult:
    """Result of :func:`minimize_I_numerical`.

    ``iterations`` counts the equality subproblems solved, one tridiagonal
    solve each for the primal-dual rounds and the primal pivots, on the
    busier of the two segments; ``residual`` is the KKT residual, the larger
    of the reduced-gradient norm and the most negative multiplier, relative
    to G / min dx, the segment's larger pin G times the scale of its largest
    Hessian entry (the rounding level of the solves).
    """

    r: np.ndarray
    g: np.ndarray
    objective: float
    converged: bool
    iterations: int
    residual: float


def _segment_quadratic(r_nodes: np.ndarray, n: int, sign: float):
    """Cell widths dx and coefficients p, q of the segment objective
    sum dx_i (p_i g_i + q_i g_{i+1})^2, which is the discrete I of a profile
    that is monotone in the direction of ``sign`` (-1 decreasing)."""
    dx = np.diff(np.log(r_nodes))
    return dx, -sign / dx - n / 2.0, sign / dx - n / 2.0


def _solve_segment(r_nodes: np.ndarray, lo_val: float, hi_val: float,
                   n: int) -> tuple[np.ndarray, float, bool, int, float]:
    """Exact minimizer of the segment objective under the chain constraints
    sign (g_{i+1} - g_i) >= 0, with g pinned to lo_val and hi_val at the ends.

    Works on h = sign g (an exact flip; h is nondecreasing).  A working set
    fuses adjacent nodes into blocks, so each equality subproblem is
    tridiagonal in the block values: one LAPACK gtsv call, or a division for
    one interior block.  The solve starts with at most _ROUNDS primal-dual
    active-set rounds (Hintermueller-Ito-Kunisch) from the all-free set: the
    next set keeps the active constraints with a positive multiplier and adds
    the free ones the subproblem solution breaks, until the set repeats.  The
    running maximum of the last solution, clipped to the pins, is feasible;
    with its equal neighbours fused it starts a primal active-set loop.  There
    a step to the subproblem solution stops at the first constraints it would
    break, which join the working set; at a subproblem optimum the most
    negative multiplier (below -_KKT_TOL relative to the residual scale of
    :class:`MinimizeIResult`) leaves it.  Only this loop decides convergence.
    Each working set is solved once, so the primal loop's first solve is the
    last round's when that round's set survives.  Returns the profile,
    objective, convergence flag (KKT residual at most _KKT_TOL within 4 m
    pivots), number of subproblem solves and KKT residual.
    """
    m = r_nodes.size
    sign = -1.0 if lo_val > hi_val else 1.0
    lo, hi = sign * lo_val, sign * hi_val
    dx, p, q = _segment_quadratic(r_nodes, n, sign)
    wpp, wqq, wpq = dx * p * p, dx * q * q, dx * p * q
    scale = max(abs(lo), abs(hi)) / dx.min()
    solves, latest = 0, []

    def subproblem(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Node values of the equality subproblem's solution (block values v
        with v[0] = lo, v[-1] = hi) and the mask of active constraints; the
        latest working set's solution is reused, not solved again."""
        nonlocal solves
        if latest and np.array_equal(block, latest[0]):
            return latest[1], latest[2]
        solves += 1
        active = block[1:] == block[:-1]
        k = block[-1] + 1
        diag = (np.bincount(block[:-1], wpp, k) + np.bincount(block[1:], wqq, k)
                + 2.0 * np.bincount(block[:-1], wpq * active, k))
        off = wpq[~active]  # coupling of blocks j and j + 1
        v = np.empty(k)
        v[0], v[-1] = lo, hi
        if k == 3:
            v[1] = -(off[0] * lo + off[1] * hi) / diag[1]
        elif k > 3:
            rhs = np.zeros(k - 2)
            rhs[0], rhs[-1] = -off[0] * lo, -off[-1] * hi
            _, _, _, v[1:-1], info = _gtsv(off[1:-1], diag[1:-1], off[1:-1], rhs)
            if info != 0:
                raise NumericalError(f"singular segment subproblem (gtsv info {info})")
        latest[:] = block.copy(), v[block], active
        return latest[1], active

    # a flat segment's cone holds only the constant
    h = np.full(m, lo)
    if lo != hi:
        working = np.zeros(m - 1, dtype=bool)
        for _ in range(_ROUNDS):
            block = np.concatenate(([0], np.cumsum(~working)))
            sol, _ = subproblem(block)
            kept = working.copy()
            if working.any():
                kept[working] = _multipliers(dx, p, q, sol, working, block)[0] > 0.0
            updated = kept | (sol[1:] < sol[:-1])
            if np.array_equal(updated, working):
                break
            working = updated
        h = np.maximum.accumulate(np.clip(sol, lo, hi))
    block = np.concatenate(([0], np.cumsum(h[1:] > h[:-1])))

    max_pivots = 4 * m
    pivots, residual = 0, 0.0 if lo == hi else math.inf
    while pivots <= max_pivots and block[-1]:
        target, active = subproblem(block)
        slack, step = h[1:] - h[:-1], target[1:] - target[:-1]  # step 0 if active
        blocking = (step < 0.0).nonzero()[0]
        if blocking.size:
            frac = np.maximum(slack[blocking], 0.0) / (slack[blocking] - step[blocking])
            t = frac.min()
            h = h + t * (target - h)
            for i in blocking[frac == t]:
                block[i + 1:] -= 1
            pivots += 1
            continue

        h = target
        lam, reduced = _multipliers(dx, p, q, h, active, block)
        worst = float(lam.min()) if lam.size else 0.0
        residual = max(float(np.max(np.abs(reduced), initial=0.0)), -worst, 0.0) / scale
        if worst >= -_KKT_TOL * scale:
            break
        block[active.nonzero()[0][np.argmin(lam)] + 1:] += 1
        pivots += 1
    e = p * h[:-1] + q * h[1:]
    # a Python bool: residual is a numpy float unless the segment is flat
    converged = bool(pivots <= max_pivots and residual <= _KKT_TOL)
    return sign * h, float(np.sum(dx * e * e)), converged, solves, float(residual)


def _segment_gradient(dx: np.ndarray, p: np.ndarray, q: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of the segment objective sum dx_i (p_i g_i + q_i g_{i+1})^2."""
    e = 2.0 * dx * (p * g[:-1] + q * g[1:])
    grad = np.zeros(g.size)
    grad[:-1] += p * e
    grad[1:] += q * e
    return grad


def _multipliers(dx: np.ndarray, p: np.ndarray, q: np.ndarray, h: np.ndarray,
                 active: np.ndarray, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multipliers of the active constraints and the reduced gradient of
    the free blocks, at the block-constant solution h of an equality
    subproblem.

    With the Lagrangian F - sum lam_i (h_{i+1} - h_i), stationarity gives
    lam_i = -(sum of dF/dh over the block up to node i), summed from the
    block's left end, whose left constraint is inactive; in the block holding
    pinned node 0 the sum runs from the right end instead.
    """
    cs = np.cumsum(_segment_gradient(dx, p, q, h))
    starts = np.flatnonzero(np.concatenate(([True], ~active)))
    ends = np.append(starts[1:] - 1, h.size - 1)
    before = np.concatenate(([0.0], cs))[starts]
    lam = before[block[:-1]] - cs[:-1]
    first = block[:-1] == 0
    lam[first] = cs[ends[0]] - cs[:-1][first]
    reduced = cs[ends[1:-1]] - before[1:-1]
    return lam[active], reduced


def minimize_I_numerical(c: ConeConstraint, n: int, nodes: int = 256) -> MinimizeIResult:
    """Minimize the discretized I over the discretized cone.

    The two monotone segments decouple (all three pin values are endpoints),
    so each is solved exactly and independently on its own log-spaced grid
    and the sampled profiles are joined at s_tilde.  The reported objective
    is the discrete I on the joined grid, comparable to the explicit
    minimizer sampled on the same nodes; no closed-form radius is used.
    """
    if nodes < 64:
        raise ValueError("need at least 64 nodes")
    s, st, a, alpha, b = c.s, c.s_tilde, c.a, c.alpha, c.b
    len1 = math.log(st / s)
    len2 = math.log(1.0 / st)
    if len2 == 0.0:
        n1, n2 = nodes + 1, 0
    else:
        n1 = max(9, int(round((nodes + 1) * len1 / (len1 + len2))))
        n1 = min(n1, nodes + 1 - 9)
        n2 = nodes + 1 - n1

    r1 = geometric_grid(s, st, n1)
    g1, obj1, conv1, it1, res1 = _solve_segment(r1, b, a, n)
    if n2 == 0:
        return MinimizeIResult(r=r1, g=g1, objective=obj1, converged=conv1,
                               iterations=it1, residual=res1)
    r2 = geometric_grid(st, 1.0, n2 + 1)
    g2, obj2, conv2, it2, res2 = _solve_segment(r2, a, alpha, n)
    return MinimizeIResult(
        r=np.concatenate([r1, r2[1:]]), g=np.concatenate([g1, g2[1:]]),
        objective=obj1 + obj2, converged=conv1 and conv2,
        iterations=max(it1, it2), residual=max(res1, res2),
    )


# ---------------------------------------------------------------------------
# The logarithmic lower bound and the full gap chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapBound:
    """Bound chain at one constraint cone.

    ``log_bound`` is pi n^2 a^2 log(tau0/t0) (0 and ``vacuous`` when
    t0 >= tau0); ``gap`` is the conformality defect E - A of the map
    generated by the explicit minimizer and ``gap_err`` its quadrature error
    (:meth:`PiecewiseMinimizer.defect`); ``rhs`` is the replacement-gain
    threshold 8 pi n a^2/(1+a^2).  ``ratio_bound`` bounds t0/tau0 by
    (4 b (s/a)^n alpha a^{n-2})^{1/n}.
    """

    t0: float
    tau0: float
    vacuous: bool
    log_bound: float
    I_closed: float
    gap: float
    gap_err: float
    rhs: float
    ratio: float
    ratio_bound: float

    @property
    def holds_fast(self) -> bool:
        """Sufficient condition: the log bound alone beats the threshold."""
        return self.log_bound > self.rhs

    @property
    def holds(self) -> bool:
        """The full inequality gap > rhs."""
        return self.gap > self.rhs


def gap_lower_bound(c: ConeConstraint, n: int) -> GapBound:
    """Evaluate the bound chain at one cone.

    Computes t0, tau0, the plateau bound pi n^2 a^2 log(tau0/t0) and the
    defect of the explicit minimizer (:meth:`PiecewiseMinimizer.defect`),
    and verifies gap >= pi I_closed >= log_bound, each link to 1e-12
    relative and the first also to gap_err, before returning (a failure
    indicates an internal inconsistency and raises).
    """
    g0 = g0_construct(c, n)
    t0, tau0 = g0.t0, g0.tau0
    a, alpha, s, b = c.a, c.alpha, c.s, c.b
    vacuous = t0 >= tau0
    log_bound = 0.0 if vacuous else math.pi * n * n * a * a * math.log(tau0 / t0)
    gap, gap_err = g0.defect()
    I_closed = g0.objective_closed_form()
    pi_I = math.pi * I_closed
    if gap < pi_I * (1.0 - 1e-12) - gap_err or pi_I < log_bound * (1.0 - 1e-12):
        raise NumericalError(f"bound chain violated: defect {gap:.17g}, pi I {pi_I:.17g}, "
                             f"log bound {log_bound:.17g}")
    return GapBound(
        t0=t0, tau0=tau0, vacuous=vacuous, log_bound=log_bound, I_closed=I_closed,
        gap=gap, gap_err=gap_err, rhs=8.0 * math.pi * n * a * a / (1.0 + a * a),
        ratio=t0 / tau0, ratio_bound=(4.0 * b * (s / a) ** n * alpha * a ** (n - 2)) ** (1.0 / n),
    )
