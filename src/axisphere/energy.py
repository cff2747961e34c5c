"""Dirichlet energy, area with multiplicity, conformality defect, and the
full meridian (3-D) energy with the vertical mass term.

All functionals act on colatitude profiles phi = 2 arctan f (see
:mod:`axisphere.geometry`).  In that variable, for a winding-n map generated
by a radial profile on a planar annulus,

    E = pi * Int ( phi'^2 + n^2 sin^2(phi) / r^2 ) r dr        (Dirichlet)
    A = 2 pi n * Int sin(phi) |phi'| dr                        (area)
    E - A = pi * Int ( |phi'| - n sin(phi) / r )^2 r dr        (defect)

and E >= A always, with equality exactly for conformal profiles
f = c r^{+-n}.  A monotone profile's area telescopes to the closed form
4 pi n |f_b^2/(1+f_b^2) - f_a^2/(1+f_a^2)|.

Quadrature follows the piecewise-linear interpolant of the stored nodes:
derivative terms are integrated exactly per cell, the angular term by the
trapezoid rule, and the area term by the exact per-cell increment
|cos(phi_i) - cos(phi_{i+1})| (no smoothing across sign changes of phi').
The discrete E - A is the integral above plus the angular term's trapezoid
error, so it is not bounded below by 0: a conformal profile's is O(dr^2) and
of either sign.  One kernel applies these rules in a pass over blocks of
r-rows: to a profile as a single column, and to all of a field's slices
together with its z-derivative part.  A field stored as one column
broadcast along z (an extruded profile, z-stride 0) is evaluated on that
column alone, with z-part 0; any other field takes the blocked pass.  The
kernel evaluates one cosine per node and forms the angular term's sin^2 phi
from it as (1 - cos phi)(1 + cos phi), which is accurate in absolute terms
(~2e-16), not relative to sin^2 phi.  Its r-weights are formed per block
too, and every block temporary stays under glibc's 128 KiB mmap threshold,
so it reuses the heap memory of the block before instead of new pages.
`area_radial`, which needs no other term, sums its increments over the
same blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError

from ._lapack import dgbsv, dpbsv, dpbtrf
from .geometry import NumericalError, RadialProfile, _checked_colatitudes, _winding_number

__all__ = [
    "EnergyReport",
    "MeridianField",
    "MeridianRelaxResult",
    "dirichlet_energy_radial",
    "area_radial",
    "monotone_area_bound",
    "conformality_gap",
    "energy_3d",
    "meridian_from_profile",
    "meridian_cell_energy",
    "meridian_cell_energy_grad",
    "minimize_meridian_energy",
    "dipole_ladder",
    "dipole_half_box",
]

_FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class EnergyReport:
    """Structured record of an energy computation.

    ``gap = E - A`` and ``total = E + mass_term`` by construction; the
    mass term is 4 pi times the mass of the vertical defect.
    """

    E: float
    A: float
    gap: float
    mass_term: float
    total: float

    @classmethod
    def assemble(cls, E: float, A: float, mass_term: float = 0.0) -> "EnergyReport":
        return cls(E=E, A=A, gap=E - A, mass_term=mass_term, total=E + mass_term)


def _clamped_cells(
    grid: np.ndarray, phi: np.ndarray, interval: tuple[float, float] | None
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and values restricted to ``interval``, with linear interpolation
    at cut points.

    The lower endpoint is clamped up to the first grid node (an interval
    starting at 0 means "from the axis", which the stored grid represents by
    its innermost node).  A NaN endpoint, or an upper endpoint beyond the
    grid, is an error; one within 1e-12 relative past the last node is
    clamped down to it.  An interval that covers the whole grid returns
    ``grid`` and ``phi`` themselves, so it gives the same value as no
    interval.  An interval of zero length gives a single node, which has no
    cells.
    """
    if interval is None:
        return grid, phi
    r_a, r_b = float(interval[0]), float(interval[1])
    if math.isnan(r_a) or math.isnan(r_b):
        raise ValueError(f"interval [{r_a}, {r_b}] has a NaN endpoint")
    if r_a > r_b:
        raise ValueError(f"empty interval [{r_a}, {r_b}]")
    if r_b > grid[-1] * (1.0 + 1e-12):
        raise ValueError(f"interval end {r_b} beyond grid range {grid[-1]}")
    if r_b < grid[0]:
        raise ValueError(f"interval [{r_a}, {r_b}] below grid range")
    if r_a <= grid[0] and r_b >= grid[-1]:
        return grid, phi
    r_a = max(r_a, grid[0])
    r_b = min(r_b, grid[-1])
    if r_b <= r_a:
        return np.array([r_a]), np.array([np.interp(r_a, grid, phi)])
    inner = (grid > r_a) & (grid < r_b)
    nodes = np.concatenate(([r_a], grid[inner], [r_b]))
    values = np.concatenate(
        ([np.interp(r_a, grid, phi)], phi[inner], [np.interp(r_b, grid, phi)])
    )
    return nodes, values


def _radial_energy_area(profile: RadialProfile,
                        interval: tuple[float, float] | None) -> tuple[float, float]:
    """Dirichlet energy and area of ``profile`` over ``interval`` from one
    pass of the radial cell rules, as a single column with z-part 0."""
    r, phi = _clamped_cells(profile.grid, profile.phi, interval)
    energy, area, _ = _cells(r, phi[:, None], profile.n, np.empty(0))
    return float(energy[0]), float(area[0])


def dirichlet_energy_radial(
    profile: RadialProfile, interval: tuple[float, float] | None = None
) -> float:
    """Dirichlet energy pi * Int (phi'^2 + n^2 sin^2 phi / r^2) r dr.

    Equals half the squared-gradient integral of the generated map over the
    annulus.  Invariant under grid dilation r -> lambda r.
    """
    return _radial_energy_area(profile, interval)[0]


def area_radial(
    profile: RadialProfile, interval: tuple[float, float] | None = None
) -> float:
    """Area with multiplicity 2 pi n * Int sin(phi) |phi'| dr.

    Integrated exactly per grid cell: each cell contributes
    2 pi n |cos phi_i - cos phi_{i+1}|, so a monotone profile telescopes to
    the closed-form bound and a non-monotone one strictly exceeds it.
    The increments are summed per block of ``_BLOCK_CELLS`` cells, blocks
    sharing their seam node as in the cell kernel, so every temporary is of
    block size; a profile of at most 16001 nodes is one block.
    """
    _, phi = _clamped_cells(profile.grid, profile.phi, interval)
    total = 0.0
    for lo in range(0, phi.size - 1, _BLOCK_CELLS):
        c = np.cos(phi[lo:lo + _BLOCK_CELLS + 1])
        d = np.subtract(c[1:], c[:-1])
        total += float(np.abs(d, out=d).sum())
    return 2.0 * math.pi * profile.n * total


def monotone_area_bound(a: float, b: float, n: int) -> float:
    """Closed-form area of a monotone chart profile running from a to b:
    4 pi n |b^2/(1+b^2) - a^2/(1+a^2)|, with the convention inf^2/(1+inf^2)=1.

    Any profile with these endpoint values has at least this area; equality
    holds exactly for monotone profiles.  ``n`` is a winding number, an
    integer >= 1.
    """
    if not (a >= 0.0 and b >= 0.0):  # also rejects NaN
        raise ValueError("chart values must be nonnegative (or inf)")
    n = _winding_number(n)

    def covered(v: float) -> float:
        if math.isinf(v):
            return 1.0
        return v * v / (1.0 + v * v)

    return _FOUR_PI * n * abs(covered(b) - covered(a))


def conformality_gap(
    profile: RadialProfile, interval: tuple[float, float] | None = None
) -> float:
    """Conformality defect E - A as the single integral
    pi * Int (|phi'| - n sin(phi)/r)^2 r dr.

    Expanding the square, it is the energy minus the area, and both come
    from one pass of the radial cell rules, so the result agrees with
    dirichlet_energy_radial - area_radial to rounding.  The integral is zero
    exactly on conformal profiles f = c r^{+-n}; the discrete value keeps the
    angular term's trapezoid error, O(dr^2) and of either sign.
    """
    energy, area = _radial_energy_area(profile, interval)
    return energy - area


@dataclass(frozen=True)
class MeridianField:
    """An axially symmetric configuration on a cylinder: a colatitude field
    phi(r, z) plus the vertical defect intervals on the axis.

    ``phi`` has shape ``(len(r_grid), len(z_grid))`` and is a clipped copy
    of the given values, never a view of the caller's memory.  A ``phi``
    with z-stride 0 (one column broadcast along z) is checked and clipped as
    that one column and stored as a read-only broadcast view of the clipped
    column, z-stride 0 again; any other ``phi`` is stored as an owned,
    writeable copy.  The grids are strictly increasing and finite, the
    radii nonnegative, and ``n`` is a Python or numpy integer >= 1 (not a
    bool).  Each defect interval carries multiplicity n.  On the
    axis the map hits a pole: near the innermost radius, phi is close to 0
    over defect intervals (the graph closes through the vertical part there)
    and close to pi off them.
    """

    r_grid: np.ndarray
    z_grid: np.ndarray
    phi: np.ndarray
    n: int
    defects: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        r = np.asarray(self.r_grid, dtype=float)
        z = np.asarray(self.z_grid, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        if r.ndim != 1 or z.ndim != 1 or r.size < 2 or z.size < 2:
            raise ValueError("grids must be 1-D with at least 2 nodes")
        if not ((r[1:] > r[:-1]).all() and (z[1:] > z[:-1]).all()):
            raise ValueError("grids must be strictly increasing")
        if r[0] < 0.0:
            raise ValueError("radii must be nonnegative")
        # increasing grids: their end nodes are their extremes
        if not (r[-1] < math.inf and -math.inf < z[0] and z[-1] < math.inf):
            raise ValueError("grid nodes must be finite")
        if phi.shape != (r.size, z.size):
            raise ValueError(f"phi must have shape {(r.size, z.size)}, got {phi.shape}")
        if phi.strides[1] == 0:
            # every column is the same memory: checking one checks them all
            phi = np.broadcast_to(_checked_colatitudes(phi[:, 0])[:, None], phi.shape)
        else:
            phi = _checked_colatitudes(phi)
        n = _winding_number(self.n)
        ivs = sorted((float(a), float(b)) for a, b in self.defects)
        for z0, z1 in ivs:
            if not z0 < z1:
                raise ValueError(f"degenerate defect interval ({z0}, {z1})")
            if z0 < z[0] - 1e-12 or z1 > z[-1] + 1e-12:
                raise ValueError(f"defect interval ({z0}, {z1}) outside z-range")
        for (_, b0), (a1, _) in zip(ivs, ivs[1:]):
            if a1 < b0 - 1e-12:
                raise ValueError("defect intervals must be disjoint")
        object.__setattr__(self, "r_grid", r)
        object.__setattr__(self, "z_grid", z)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "defects", tuple(ivs))

    def defect_length(self) -> float:
        return sum(b - a for a, b in self.defects)


def meridian_from_profile(
    profile: RadialProfile,
    z_grid: np.ndarray,
    defects: Sequence[tuple[float, float]] = (),
) -> MeridianField:
    """z-independent field built by extruding a radial profile.

    The field's ``phi`` is a read-only view with z-stride 0 of one clipped
    copy of ``profile.phi``: one column of memory, whatever the z grid, and
    no later write to the profile reaches it.  :func:`energy_3d` evaluates
    such a field on that one column.
    """
    z_grid = np.asarray(z_grid, dtype=float)
    phi = np.broadcast_to(profile.phi[:, None], (profile.phi.size, z_grid.size))
    return MeridianField(r_grid=profile.grid, z_grid=z_grid, phi=phi,
                         n=profile.n, defects=tuple(defects))


# Entries of phi per block of the radial quadrature: an m-column block has
# _BLOCK_CELLS // m rows, so each temporary holds at most _BLOCK_CELLS + m
# doubles, under glibc's default 128 KiB (16384 doubles) mmap threshold while
# m < 384.  Above it, until a larger block is freed, every allocation is
# mapped and faulted in anew; below it, each block reuses the heap memory the
# block before freed.  A 65-node z grid takes 246 rows, a profile 16000.
_BLOCK_CELLS = 16000


def _trapezoid_weights(dx: np.ndarray) -> np.ndarray:
    """Trapezoid weights of the nodes of a grid with spacings ``dx``."""
    half = dx / 2.0
    w = np.zeros(dx.size + 1)
    w[:-1] += half
    w[1:] += half
    return w


def _cells(r: np.ndarray, phi: np.ndarray, n: int,
           inv_dz: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-column Dirichlet energies and areas of ``phi`` (shape (r.size, m))
    and its z-derivative part, for column spacings 1/dz = ``inv_dz``, in one
    pass over blocks of r-rows.  The radial cell rules: per r-cell the exact
    kinetic term and area increment |cos phi_{i+1} - cos phi_i|, per node
    (trapezoid weights t_i in r) the angular term n^2 sin^2(phi_i) t_i / r_i
    (0 at r = 0) and the z-part r_i t_i sum_j (phi_{i,j+1} - phi_{i,j})^2 / dz_j.
    A single column with an empty ``inv_dz`` has z-part 0; a single node has
    no cells and sums to 0.

    One transcendental per node: sin^2 phi is formed from the area's cosine
    as (1 - cos phi)(1 + cos phi).  Each factor is exact where it is small
    (Sterbenz: 1 - cos near phi = 0, 1 + cos near phi = pi), so the product
    is accurate to ~2e-16 in absolute terms, the rounding of cos itself, but
    not relative to sin^2 phi: a constant phi = 1e-8 gives an angular term
    of 0.

    Blocks share their seam row: a block's node terms stop before its last
    row, which the next block takes.  Temporaries, the r-weights included,
    are of block size.
    """
    m = phi.shape[1]
    kin, ang, area = (np.zeros(m) for _ in range(3))
    e_z = 0.0
    last = r.size - 1
    rows = max(1, _BLOCK_CELLS // m)
    for lo in range(0, last, rows):
        hi = min(lo + rows, last)
        top = last + 1 if hi == last else hi  # end of the block's node rows
        block, nodes = phi[lo:hi + 1], phi[lo:top]
        r_cells, r_nodes = r[lo:hi + 1], r[lo:top]
        before = max(lo - 1, 0)  # the node rows' trapezoid weights need the cell before
        dr = np.diff(r[before:top + 1])
        t = _trapezoid_weights(dr)[lo - before:top - before]
        # (r1^2 - r0^2) / (2 dr^2) without the squares, which underflow near
        # r = 1e-160; formed in the block's cell spacings, which t no longer needs
        w_kin = np.multiply(dr[lo - before:hi - before], 2.0, out=dr[lo - before:hi - before])
        np.divide(r_cells[1:] + r_cells[:-1], w_kin, out=w_kin)
        w_ang = n ** 2 * t
        axis = np.searchsorted(r_nodes, 0.0, side="right")  # a node at r = 0 has no angular term
        w_ang[:axis] = 0.0
        w_ang[axis:] /= r_nodes[axis:]
        d = block[1:] - block[:-1]
        # einsum, not BLAS: a threaded gemv took one 32769-node column 2 -> 24 ms
        kin += np.einsum("i,ij->j", w_kin, np.multiply(d, d, out=d))
        c = np.cos(block)
        area += np.abs(np.subtract(c[1:], c[:-1], out=d), out=d).sum(axis=0)
        c = c[:top - lo]
        s2 = np.add(1.0, c)
        ang += np.einsum("i,ij->j", w_ang, np.multiply(s2, np.subtract(1.0, c, out=c), out=s2))
        if inv_dz.size:
            d_z = nodes[:, 1:] - nodes[:, :-1]
            e_z += float((r_nodes * t) @ (np.multiply(d_z, d_z, out=d_z) @ inv_dz))
    return math.pi * (kin + ang), 2.0 * math.pi * n * area, math.pi * e_z


def energy_3d(field: MeridianField) -> EnergyReport:
    """Full meridian energy report for a configuration (u, L).

    E integrates the 3-D Dirichlet density
    pi (phi_r^2 + phi_z^2 + n^2 sin^2 phi / r^2) r over the cylinder
    (trapezoid weights in z over the radial cell rule, plus the z-derivative
    part); A integrates the slice areas over z; the mass term is
    4 pi n * (total defect length); total = E + mass_term.

    A field whose ``phi`` has z-stride 0 (as :func:`meridian_from_profile`
    builds it) is one column in memory and is evaluated on that column: its
    energy and area stand for every slice, and the z-derivative part is
    exactly 0.  The test reads the stride, not the values, so it costs
    nothing.  Any other field, an owned array with equal columns included,
    takes one blocked pass over all its slices and its z-differences, which
    agrees with the column to rounding.
    """
    phi = field.phi
    dz = np.diff(field.z_grid)
    w_z = _trapezoid_weights(dz)
    if phi.strides[1] == 0:
        energy, area, e_z = _cells(field.r_grid, phi[:, :1], field.n, np.empty(0))
        energies, areas = np.broadcast_to(energy, w_z.shape), np.broadcast_to(area, w_z.shape)
    else:
        energies, areas, e_z = _cells(field.r_grid, phi, field.n, 1.0 / dz)
    E = float(energies @ w_z) + e_z
    A = float(areas @ w_z)
    mass_term = _FOUR_PI * field.n * field.defect_length()
    return EnergyReport.assemble(E=E, A=A, mass_term=mass_term)


# ---------------------------------------------------------------------------
# Cell-based meridian energy and constrained relaxation (dipole experiments)
# ---------------------------------------------------------------------------

def _cell_geometry(r: np.ndarray, z: np.ndarray):
    dr = np.diff(r)[:, None]
    dz = np.diff(z)[None, :]
    r_mid = ((r[:-1] + r[1:]) / 2.0)[:, None]
    w = r_mid * dr * dz  # exact integral of r over the cell
    return dr, dz, r_mid, w


def meridian_cell_energy(r: np.ndarray, z: np.ndarray, phi: np.ndarray, n: int) -> float:
    """Meridian Dirichlet energy by bilinear cells (midpoint angular term).

    The energy the relaxation minimizes (its solver evaluates it in a fused
    pass with the gradient); agrees with :func:`energy_3d`'s trapezoid rule
    to the shared discretization order.
    """
    dr, dz, r_mid, w = _cell_geometry(r, z)
    p00 = phi[:-1, :-1]; p10 = phi[1:, :-1]; p01 = phi[:-1, 1:]; p11 = phi[1:, 1:]
    phi_r = (p10 + p11 - p00 - p01) / (2.0 * dr)
    phi_z = (p01 + p11 - p00 - p10) / (2.0 * dz)
    phi_m = (p00 + p10 + p01 + p11) / 4.0
    dens = phi_r ** 2 + phi_z ** 2 + (n ** 2) * np.sin(phi_m) ** 2 / r_mid ** 2
    return math.pi * float(np.sum(w * dens))


def meridian_cell_energy_grad(r: np.ndarray, z: np.ndarray, phi: np.ndarray, n: int) -> np.ndarray:
    """Analytic gradient of :func:`meridian_cell_energy` with respect to phi."""
    dr, dz, r_mid, w = _cell_geometry(r, z)
    p00 = phi[:-1, :-1]; p10 = phi[1:, :-1]; p01 = phi[:-1, 1:]; p11 = phi[1:, 1:]
    phi_r = (p10 + p11 - p00 - p01) / (2.0 * dr)
    phi_z = (p01 + p11 - p00 - p10) / (2.0 * dz)
    phi_m = (p00 + p10 + p01 + p11) / 4.0
    gr = 2.0 * w * phi_r / (2.0 * dr)
    gz = 2.0 * w * phi_z / (2.0 * dz)
    gm = w * (n ** 2) * np.sin(2.0 * phi_m) / r_mid ** 2 / 4.0
    grad = np.zeros_like(phi)
    grad[:-1, :-1] += -gr - gz + gm
    grad[1:, :-1] += gr - gz + gm
    grad[:-1, 1:] += -gr + gz + gm
    grad[1:, 1:] += gr + gz + gm
    return math.pi * grad


# Corner order of a cell's nodes: (i, j), (i+1, j), (i, j+1), (i+1, j+1).
# phi_r, phi_z and phi_m are the cell's stencils a, b and c applied to its
# corner values, scaled by 1/(2 dr), 1/(2 dz) and 1/4.
_CORNERS = ((0, 0), (1, 0), (0, 1), (1, 1))
_STENCIL_R = np.array([-1.0, 1.0, -1.0, 1.0])
_STENCIL_Z = np.array([-1.0, -1.0, 1.0, 1.0])
# Below this distance from a bound, a node whose gradient pushes it onto the
# bound leaves the Newton system (Bertsekas's epsilon-active set).
_ACTIVE_EPS = 1e-3
_ARMIJO = 1e-4
_MIN_STEP = 1e-12
# Band patterns kept, one per recent mask (a dipole ladder has a few rungs).
_PATTERNS_KEPT = 8


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class _BandPattern:
    """Where the Hessian's cell terms land in the lower band over the free
    nodes of one mask; read-only, shared by the systems built on it.

    The band is stored flat in LAPACK's column-major layout: entry (p, q),
    p >= q, at ``band[p - q, q]``, flat index ``q * ldab + p - q``.  Corner
    pair (k, l) of a cell adds to entry (corner k, corner l) where both are
    free and corner k's number is not below corner l's, and each entry sums
    its terms in the order of (k, l, cell).
    """
    index: np.ndarray           # flat grid index of each free node, in order
    shape: tuple[int, int]      # (ldab, number of free nodes)
    entries: np.ndarray         # flat band index of each corner pair
    cells: np.ndarray           # flat cell index of each corner pair
    sign_r: np.ndarray          # a_k a_l of each corner pair, +-1 as int8
    sign_z: np.ndarray          # b_k b_l of each corner pair, +-1 as int8
    # from a node's diagonal entry to its column and its row left of it
    offsets: np.ndarray


@lru_cache(maxsize=_PATTERNS_KEPT)
def _cached_pattern(shape: tuple[int, int], mask: bytes) -> _BandPattern:
    free = ~np.frombuffer(mask, dtype=bool).reshape(shape)
    size = int(np.count_nonzero(free))
    nr, nz = shape
    ids = np.full(shape, -1)
    ids[free] = np.arange(size)
    corners = [ids[di:nr - 1 + di, dj:nz - 1 + dj].ravel() for di, dj in _CORNERS]
    rows, cols, cells = [], [], []
    for k in range(4):
        for l in range(4):
            cell = np.flatnonzero((corners[l] >= 0) & (corners[k] >= corners[l]))
            rows.append(corners[k][cell])
            cols.append(corners[l][cell])
            cells.append(cell)
    row, col = np.concatenate(rows), np.concatenate(cols)
    ldab = int(np.max(row - col, initial=0)) + 1
    # bincount adds each entry's terms in list order, (k, l, cell)
    entries = col * ldab + (row - col)
    counts = [cell.size for cell in cells]

    def signs(stencil: np.ndarray) -> np.ndarray:
        pairs = np.repeat(np.outer(stencil, stencil).ravel(), counts)
        return _read_only(pairs.astype(np.int8))

    return _BandPattern(
        index=_read_only(np.flatnonzero(free)),
        shape=(ldab, size),
        entries=_read_only(entries),
        cells=_read_only(np.concatenate(cells)),
        sign_r=signs(_STENCIL_R),
        sign_z=signs(_STENCIL_Z),
        offsets=_read_only(np.concatenate([np.arange(ldab), -(ldab - 1) * np.arange(1, ldab)])),
    )


class _MeridianSystem:
    """The relaxation problem on one grid: per-cell coefficients, the fused
    energy/gradient/curvature kernel, and the 9-point Hessian over the free
    nodes as a symmetric band.

    Per cell, with corner values p and weight w = r_mid dr dz,
    E_cell = pi w ((a.p)^2/(4 dr^2) + (b.p)^2/(4 dz^2) + n^2 sin^2(phi_m)/r_mid^2)
    and its Hessian is
    pi w (a a^T/(2 dr^2) + b b^T/(2 dz^2) + 2 n^2 cos(2 phi_m)/r_mid^2 c c^T),
    c = (1, 1, 1, 1)/4.  Only the last term changes with phi.

    The free nodes are numbered along z within each r-row, so the Hessian is
    banded, one row of free nodes plus one wide.  It is kept as LAPACK's
    lower band in column-major order: entry (p, q), p >= q, at
    ``band[p - q, q]``.
    """

    def __init__(self, r: np.ndarray, z: np.ndarray, fixed: np.ndarray, n: int) -> None:
        dr, dz, r_mid, w = _cell_geometry(r, z)
        self.c_r = math.pi * w / (4.0 * dr ** 2)
        self.c_z = math.pi * w / (4.0 * dz ** 2)
        self.c_m = math.pi * w * n ** 2 / r_mid ** 2
        self._c_r2 = 2.0 * self.c_r
        self._c_z2 = 2.0 * self.c_z

        fixed = np.asarray(fixed, dtype=bool)
        pattern = self._pattern = _cached_pattern(fixed.shape, fixed.tobytes())
        self.index = pattern.index
        ldab, size = pattern.shape
        kinetic = pattern.sign_r * self.c_r.take(pattern.cells)
        kinetic += pattern.sign_z * self.c_z.take(pattern.cells)
        kinetic *= 2.0
        self._kinetic = np.bincount(pattern.entries, weights=kinetic, minlength=ldab * size)
        self.kinetic_diag = self._kinetic[::ldab].copy()

    def evaluate(self, phi: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """Energy, gradient over all nodes and cell curvatures cos(2 phi_m),
        in one pass over the cells."""
        p00 = phi[:-1, :-1]; p10 = phi[1:, :-1]; p01 = phi[:-1, 1:]; p11 = phi[1:, 1:]
        d_r = p10 + p11
        d_r -= p00
        d_r -= p01
        d_z = p01 + p11
        d_z -= p00
        d_z -= p10
        phi_m = p00 + p10
        phi_m += p01
        phi_m += p11
        phi_m /= 4.0
        sin_m = np.sin(phi_m)
        cos_m = np.cos(phi_m, out=phi_m)
        sin2 = np.square(sin_m)
        dens = np.square(d_r)
        dens *= self.c_r
        term = np.square(d_z)
        term *= self.c_z
        dens += term
        dens += np.multiply(self.c_m, sin2, out=term)
        energy = float(dens.sum())
        # the cell's gradient parts, in place, and its corner terms
        # -gr - gz + gm, gr - gz + gm, -gr + gz + gm and gr + gz + gm
        gr, gz, gm = d_r, d_z, sin_m
        gr *= self._c_r2
        gz *= self._c_z2
        gm *= self.c_m
        gm *= cos_m
        gm /= 2.0
        both = gr + gz
        diff = np.subtract(gr, gz, out=gz)
        grad = np.zeros(phi.shape)
        grad[:-1, :-1] += np.subtract(gm, both, out=gr)
        grad[1:, :-1] += np.add(diff, gm, out=gr)
        grad[:-1, 1:] += np.subtract(gm, diff, out=diff)
        both += gm
        grad[1:, 1:] += both
        sin2 *= 2.0
        return energy, grad, np.subtract(1.0, sin2, out=sin2)

    def band(self, cos2: np.ndarray, convex: bool = False,
             active: np.ndarray | None = None) -> np.ndarray:
        """The lower band of the Hessian over the free nodes, for cell
        curvatures ``cos2``, as a new column-major array.

        ``convex`` clips the curvature term at 0, which leaves a positive
        semidefinite sum of rank-one cell terms.  Rows and columns of the
        ``active`` free nodes are replaced by the kinetic diagonal.
        """
        pattern = self._pattern
        q = np.multiply(self.c_m, cos2)
        q /= 8.0
        if convex:
            np.maximum(q, 0.0, out=q)
        band = np.bincount(pattern.entries, weights=q.take(pattern.cells),
                           minlength=self._kinetic.size)
        band += self._kinetic
        ldab, size = pattern.shape
        if active is not None and active.any():
            diagonal = np.flatnonzero(active) * ldab
            # the column of each active node a and its row left of the
            # diagonal; a negative index wraps to an entry whose row is past
            # the matrix's last, unused and 0 already
            band[diagonal[:, None] + pattern.offsets] = 0.0
            band[diagonal] = self.kinetic_diag[active]
        return band.reshape(size, ldab).T

    def solve(self, g: np.ndarray, cos2: np.ndarray, convex: bool,
              active: np.ndarray) -> np.ndarray:
        """The Hessian ``band(cos2, convex, active)`` solved against ``g``:
        by banded Cholesky, or by banded LU where the matrix is not positive
        definite."""
        _, x, info = dpbsv(self.band(cos2, convex, active), g, lower=1, overwrite_ab=1)
        if info == 0:
            return x
        # the failed factorization overwrote its band.  LU takes the upper
        # band too, superdiagonal d being subdiagonal d shifted right by d,
        # below ``width`` rows for the fill of pivoting; in Fortran order,
        # which LAPACK would otherwise copy it into
        band = self.band(cos2, convex, active)
        width = band.shape[0] - 1
        full = np.zeros((3 * width + 1, band.shape[1]), order="F")
        full[2 * width:] = band
        for d in range(1, width + 1):
            full[2 * width - d, d:] = band[d, :-d]
        _, _, x, info = dgbsv(width, width, full, g, overwrite_ab=1)
        if info:
            raise LinAlgError("singular Newton system")
        return x


@dataclass(frozen=True)
class MeridianRelaxResult:
    """The state :func:`minimize_meridian_energy` stops at and what it knows
    of it.

    ``energy`` is the cell energy of ``phi``; ``grad_norm`` the infinity
    norm of its projected gradient over the free nodes, and ``converged``
    whether that is at most gtol.  ``iterations`` counts Newton steps and
    ``message`` says why the loop stopped.  ``stable`` is the second-order
    test of ``phi``: whether the 9-point Hessian is positive definite over
    the free nodes that are not blocked (on a bound of [0, pi] with the
    gradient pushing onto it).  All of them describe ``phi``, on every exit.
    """

    phi: np.ndarray
    energy: float
    converged: bool
    iterations: int
    grad_norm: float
    message: str
    stable: bool


def minimize_meridian_energy(
    r: np.ndarray,
    z: np.ndarray,
    phi_init: np.ndarray,
    fixed: np.ndarray,
    n: int,
    maxiter: int = 3000,
    gtol: float = 1e-5,
) -> MeridianRelaxResult:
    """Relax the meridian energy over the non-fixed nodes, phi in [0, pi].

    ``fixed`` is a boolean mask of pinned nodes (boundary conditions).  A
    projected Newton method (Bertsekas): nodes in the epsilon-active set take
    a diagonally scaled gradient step, the others the Newton step of the
    banded 9-point Hessian: banded Cholesky, or banded LU where the Hessian
    is not positive definite.  A step that is not a descent direction is
    solved again with the curvature clipped at 0, and an Armijo search
    along the projection onto [0, pi] sets its length.  ``iterations``
    counts Newton steps; ``converged`` means the infinity norm of the
    projected gradient is at most ``gtol``.

    ``stable`` comes from one banded Cholesky factorization (LAPACK dpbtrf)
    of the Hessian at the returned state, with its blocked nodes keeping
    only their kinetic diagonal, which is positive and so does not change
    the answer: it succeeds exactly when the Hessian is positive definite
    over the directions the bounds leave open.
    """
    phi = np.array(phi_init, dtype=float)
    # cells whose sizes underflow give non-finite coefficients, and a NaN
    # start node a NaN energy; such a start is rejected, not warned about
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        system = _MeridianSystem(r, z, fixed, n)
        free = system.index
        phi.put(free, np.clip(phi.take(free), 0.0, math.pi))
        energy, grad, cos2 = system.evaluate(phi)
    if not math.isfinite(energy):
        raise NumericalError(f"the relaxation's start energy is {energy}")
    trial = phi.copy()
    message = "iteration limit reached"
    iterations = 0
    while True:
        x, g = phi.take(free), grad.take(free)
        # where the gradient pushes a node up, and where down
        up, down = g < 0.0, g > 0.0
        blocked = ((x <= 0.0) & down) | ((x >= math.pi) & up)
        grad_norm = float(np.abs(g[~blocked]).max(initial=0.0))
        if grad_norm <= gtol:
            message = "projected gradient below gtol"
            break
        if iterations >= maxiter:
            break
        width = np.abs(x - np.clip(x - g / system.kinetic_diag, 0.0, math.pi)).max()
        eps = min(_ACTIVE_EPS, width)
        active = ((x <= eps) & down) | ((x >= math.pi - eps) & up)
        for convex in (False, True):
            step = -system.solve(g, cos2, convex, active)
            if g @ step < 0.0:
                break
        t = 1.0
        while t >= _MIN_STEP:
            x_new = np.clip(x + t * step, 0.0, math.pi)
            trial.put(free, x_new)
            e_new, g_new, c_new = system.evaluate(trial)
            if e_new <= energy + _ARMIJO * (g @ (x_new - x)):
                break
            t /= 2.0
        else:
            message = "line search failed"
            break
        phi, trial = trial, phi
        energy, grad, cos2 = e_new, g_new, c_new
        iterations += 1
    # phi, grad, cos2 and blocked are the returned state's on every exit
    _, info = dpbtrf(system.band(cos2, active=blocked), lower=1, overwrite_ab=1)
    return MeridianRelaxResult(
        phi=phi, energy=energy, converged=grad_norm <= gtol,
        iterations=iterations, grad_norm=grad_norm, message=message,
        stable=info == 0,
    )


def dipole_ladder(nodes_r: int, nodes_z: int) -> list[tuple[int, int]]:
    """Rungs (r nodes, half-box z nodes) of the dipole box's coarse-to-fine
    ladder, ending in the coarse level (nodes_r, nodes_z // 2 + 1) and the
    fine level (2 nodes_r - 1, nodes_z), for odd ``nodes_z``.  Below the
    coarse level, (nr, nz) -> (nr // 2 + 1, nz // 2 + 1) while nr > 40 and
    both are odd: each rung's nodes are every other node of the next's."""
    ladder = [(nodes_r, nodes_z // 2 + 1)]
    while ladder[-1][0] > 40 and ladder[-1][0] % 2 and ladder[-1][1] % 2:
        nr, nz = ladder[-1]
        ladder.append((nr // 2 + 1, nz // 2 + 1))
    return ladder[::-1] + [(2 * nodes_r - 1, nodes_z)]


def dipole_half_box(
    n: int, alpha: float, delta: float, r_box: float,
    nodes_r: int, nodes_z: int, coarse: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """The upper half [0, delta] of the box [r_box 1e-3, r_box] x
    [-delta, delta] around the removed defect: ``nodes_r`` geometric r-nodes
    and the upper ``nodes_z`` of the full box's 2 nodes_z - 1 z-nodes.

    Every edge node but the z = 0 row is fixed to the background
    2 arctan(alpha r^n), flipped to pi on the axis below z = delta.  The
    start is the spindle, an anti-conformal plug whose radius shrinks to 0 at
    z = delta, or ``coarse``, given on every other node, interpolated
    bilinearly in (log r, z).  Returns ``(r, z, phi_init, fixed, e_base)``,
    with ``e_base`` the full box's energy of the background.
    """
    r = np.geomspace(r_box * 1e-3, r_box, nodes_r)
    z_full = np.linspace(-delta, delta, 2 * nodes_z - 1)
    z = z_full[nodes_z - 1:]
    background = 2.0 * np.arctan(alpha * r ** n)[:, None]
    # a box whose cell sizes underflow has no finite energy; its start is
    # rejected by minimize_meridian_energy
    with np.errstate(divide="ignore", invalid="ignore"):
        e_base = meridian_cell_energy(
            r, z_full, np.broadcast_to(background, (nodes_r, z_full.size)), n)
    fixed = np.zeros((nodes_r, nodes_z), dtype=bool)
    fixed[[0, -1], :] = True
    fixed[:, -1] = True
    if coarse is None:
        rho = 0.5 * r_box * np.sqrt(np.maximum(0.0, 1.0 - (z / delta) ** 2))
        # where rho^2n underflows and r^-n overflows, 0 * inf is NaN: a
        # start that minimize_meridian_energy rejects
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            f_plug = alpha * rho[None, :] ** (2 * n) * r[:, None] ** (-float(n))
        phi = 2.0 * np.arctan(np.maximum(alpha * r[:, None] ** n, f_plug))
    else:
        # the new nodes are midpoints in log r or in z
        phi = np.empty((2 * coarse.shape[0] - 1, 2 * coarse.shape[1] - 1))
        phi[::2, ::2] = coarse
        phi[1::2, ::2] = 0.5 * (coarse[:-1] + coarse[1:])
        phi[:, 1::2] = 0.5 * (phi[:, :-1:2] + phi[:, 2::2])
    phi_init = np.where(fixed, background, phi)
    phi_init[0, :-1] = math.pi
    return r, z, phi_init, fixed, e_base
