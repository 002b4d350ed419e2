"""Particle-tracking finite volume scheme for Burgers flow with a point
particle coupled through drag.

The uniform mesh translates with the particle so the particle always sits at
the interface between cells 0 and 1.  One explicit step updates the fluid by
flux differences evaluated at the current particle speed (with a dedicated
flux pair around the particle), updates the particle velocity by conservation
of total momentum, and shifts the mesh.  An implicit variant evaluates all
fluxes at the new particle velocity, removing the mass restriction on the
time step for light particles.

Two domain realizations are provided: a padded window emulating the infinite
lattice (wide enough that no disturbance reaches the boundary before the
final time, with a runtime guard) and a periodic box.  A padded step updates
only the active range of cells that differ from the far-field values, widened
by one cell on each side; every other cell keeps its bits exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import chain, pairwise

import numpy as np

from .diagnostics import BoundsEnvelope, RecordBlock, bounds_envelope, make_record
from .flux import (
    BulkFluxKind, InterfaceFluxKind, bulk_flux, flux_difference, interface_fluxes, lipschitz_bound,
)


class Domain(Enum):
    PADDED = "padded"
    PERIODIC = "periodic"


class VelocityUpdate(Enum):
    EXPLICIT = "explicit"
    IMPLICIT = "implicit"


class BoundaryGuardError(RuntimeError):
    """A disturbance reached the padded boundary before the final time."""


@dataclass(frozen=True)
class PiecewiseConstant:
    """Piecewise-constant function: values[i] on (breakpoints[i-1], breakpoints[i])."""

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        bps = tuple(float(x) for x in self.breakpoints)
        # + 0.0 turns -0.0 into 0.0: a window reads every cell outside its
        # active range as the far-field value, so the two zeros must be one.
        vals = tuple(float(x) + 0.0 for x in self.values)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        if len(vals) != len(bps) + 1:
            raise ValueError("key 'values' must hold one value more than key 'breakpoints'")
        if any(b <= a for a, b in zip(bps, bps[1:])):
            raise ValueError("key 'breakpoints' must be strictly increasing")
        if not all(map(math.isfinite, bps + vals)):
            raise ValueError("breakpoints and values must be finite")

    @classmethod
    def riemann(cls, left: float, right: float, x_jump: float = 0.0) -> "PiecewiseConstant":
        return cls(breakpoints=(x_jump,), values=(left, right))

    def __call__(self, x):
        idx = np.searchsorted(self.breakpoints, np.asarray(x, dtype=float), side="right")
        return np.asarray(self.values)[idx]

    def antiderivative(self, x):
        """Exact integral from the first breakpoint (or 0 for a constant)."""
        x = np.asarray(x, dtype=float)
        bps = np.asarray(self.breakpoints)
        vals = np.asarray(self.values)
        if bps.size == 0:
            return vals[0] * x
        seg = vals[1:-1] * np.diff(bps)
        cum = np.concatenate([[0.0], np.cumsum(seg)])  # value at each breakpoint
        idx = np.searchsorted(bps, x, side="right")
        anchor = np.where(idx == 0, bps[0], bps[np.maximum(idx - 1, 0)])
        base = np.where(idx == 0, 0.0, cum[np.maximum(idx - 1, 0)])
        return base + vals[idx] * (x - anchor)

    def cell_averages(self, edges: np.ndarray) -> np.ndarray:
        """Exact averages over the cells [edges[i], edges[i+1]).

        Cells without an interior breakpoint take the piece value directly
        (bit-exact constant regions); straddling cells get the exact integral.
        """
        bps = np.asarray(self.breakpoints)
        vals = np.asarray(self.values)
        left, right = edges[:-1], edges[1:]
        idx = np.searchsorted(bps, left, side="right")
        out = vals[idx].astype(float)
        if bps.size:
            split = np.searchsorted(bps, right, side="left") > idx
            F = self.antiderivative
            for i in np.nonzero(split)[0]:
                out[i] = (F(right[i]) - F(left[i])) / (right[i] - left[i])
        return out

    def side_bounds(self, x0: float) -> tuple[float, float, float, float]:
        """(inf, sup) of the values on each side of x0: (inf_l, sup_l, inf_r, sup_r)."""
        bps, vals = self.breakpoints, self.values
        k = len(bps)
        left = [vals[i] for i in range(k + 1) if i == 0 or bps[i - 1] < x0]
        right = [vals[i] for i in range(k + 1) if i == k or bps[i] > x0]
        return min(left), max(left), min(right), max(right)


@dataclass(frozen=True)
class ParticleState:
    """The particle's position and velocity; its mass is ``SchemeConfig.m_p``."""

    h: float
    v: float

    def __post_init__(self):
        if not (math.isfinite(self.h) and math.isfinite(self.v)):
            raise ValueError("particle position and velocity must be finite")


@dataclass(frozen=True)
class SchemeConfig:
    lam: float
    mu: float
    T: float
    m_p: float
    bulk: BulkFluxKind = BulkFluxKind.GODUNOV
    iface: InterfaceFluxKind = InterfaceFluxKind.MAX_GERM
    velocity_update: VelocityUpdate = VelocityUpdate.EXPLICIT
    domain: Domain = Domain.PADDED
    half_width: float | None = None

    def __post_init__(self):
        if self.half_width is not None and self.domain is not Domain.PERIODIC:
            raise ValueError("key 'half_width' applies only to domain = periodic")
        if self.lam <= 0.0:
            raise ValueError(f"key 'lambda' (friction) must be positive, got lam={self.lam}")
        if self.mu <= 0.0:
            raise ValueError(f"key 'mu' (mesh ratio) must be positive, got mu={self.mu}")
        if self.T < 0.0:
            raise ValueError(f"key 'T' (final time) must be nonnegative, got T={self.T}")
        if self.m_p <= 0.0:
            raise ValueError(f"key 'mass' (particle mass) must be positive, got m_p={self.m_p}")
        if self.domain is Domain.PERIODIC:
            if self.half_width is None or self.half_width <= 0.0:
                raise ValueError("periodic domain needs a positive 'half_width'")


def _active_range(cells, a: int, p0: int, first: float, last: float) -> tuple[int, int]:
    """Smallest [lo, hi) inside [a, a + len(cells)) holding the particle cells
    p0, p0 + 1 and every cell that differs from its far-field value: first
    left of the particle, last right of it.  ``cells``, an array or a list,
    holds cells a, a + 1, ...; the caller knows every other cell equals its
    far-field value.  The scan runs inward from the ends, in Python: a step
    widens the range by at most one cell a side, so it stops after a few."""
    lo, hi = a, a + len(cells)
    while lo < p0 and cells[lo - a] == first:
        lo += 1
    while hi > p0 + 2 and cells[hi - 1 - a] == last:
        hi -= 1
    return lo, hi


class FluidGrid:
    """Cell averages on a uniform mesh; the particle sits between cells 0 and 1.

    Cell j (j from j_min upward) occupies [left_edge + (j - j_min) * dx,
    left_edge + (j - j_min + 1) * dx) in the lab frame.

    ``[lo, hi)`` is the active range of array indices: every cell left of
    ``lo`` equals the far-field value ``first`` (``u[0]``), every cell from
    ``hi`` on equals ``last`` (``u[-1]``), and the particle cells are inside
    it.  The compact form is the only stored form of the ``n`` cells:
    ``cells`` holds those of the active range, so a padded step costs its
    active cells and a grid holds no window.  ``u`` is the whole window,
    read-only, built on each read.  The constructor derives the active range
    from ``u``, keeps a copy of its active cells and reads -0.0 as 0.0.
    Periodic grids have no far field and use the full range.  ``leak`` is
    the momentum that left a padded window through its edges during the
    step that produced this grid (0 for a constructed or periodic grid).
    ``fixed`` is ``(v, dt, cfg)`` when the step that produced this grid kept
    both its cells (the same object) and the bits of ``v``: a fixed point,
    which ``step`` repeats for the same three inputs without a flux.  It is
    None for every other grid, a constructed one included, and never changes.
    """

    __slots__ = ("cells", "first", "last", "n", "dx", "left_edge", "j_min", "periodic", "lo",
                 "hi", "leak", "fixed")

    def __init__(
        self, u: np.ndarray, dx: float, left_edge: float, j_min: int, periodic: bool = False
    ):
        u = np.asarray(u, dtype=float)
        if dx <= 0.0:
            raise ValueError(f"cell width must be positive, got dx={dx}")
        if u.ndim != 1 or u.shape[0] < 4:
            raise ValueError("grid needs at least 4 cells")
        n = u.shape[0]
        p0 = -j_min
        if not (0 <= p0 < n - 1):
            raise ValueError("particle interface must lie inside the grid")
        if periodic:
            lo, hi = 0, n
        else:
            left = np.flatnonzero(u[:p0] != u[0])
            right = np.flatnonzero(u[p0 + 2 :] != u[-1])
            lo = int(left[0]) if left.size else p0
            hi = p0 + 3 + int(right[-1]) if right.size else p0 + 2
        # cells outside the active range are copies of u[0] and u[-1]
        if not (
            np.all(np.isfinite(u[lo:hi])) and math.isfinite(u[0]) and math.isfinite(u[-1])
        ):
            raise ValueError("cell values must be finite")
        # a copy the caller cannot move; + 0.0 reads -0.0 as 0.0, as in PiecewiseConstant
        cells = u[lo:hi] + 0.0
        cells.flags.writeable = False
        first, last = float(u[0]) + 0.0, float(u[-1]) + 0.0
        self._set(cells, first, last, n, dx, left_edge, j_min, periodic, lo, hi, 0.0, None)

    def _set(self, cells, first, last, n, dx, left_edge, j_min, periodic, lo, hi, leak, fixed):
        self.cells, self.first, self.last, self.n = cells, first, last, n
        self.dx, self.left_edge, self.j_min, self.periodic = dx, left_edge, j_min, periodic
        self.lo, self.hi, self.leak, self.fixed = lo, hi, leak, fixed

    @classmethod
    def _trusted(
        cls, cells: np.ndarray, first: float, last: float, mesh: "FluidGrid", left_edge: float,
        lo: int, hi: int, leak: float, fixed: tuple | None = None,
    ) -> "FluidGrid":
        """A step's new grid in compact form on the mesh of ``mesh``, moved to
        ``left_edge``, with the mark ``fixed``.  The step has placed the range,
        so only the new cells are checked: they must be finite.  Cells shared
        with ``mesh`` were checked when it was made."""
        if cells is not mesh.cells and not np.isfinite(cells).all():
            raise ValueError("cell values must be finite")
        grid = cls.__new__(cls)
        grid._set(
            cells, first, last, mesh.n, mesh.dx, left_edge, mesh.j_min, mesh.periodic, lo, hi, leak,
            fixed,
        )
        return grid

    @property
    def u(self) -> np.ndarray:
        """Every cell of the window, read-only; built on each read."""
        u = np.empty(self.n)
        u[: self.lo] = self.first
        u[self.lo : self.hi] = self.cells
        u[self.hi :] = self.last
        u.flags.writeable = False
        return u

    @property
    def particle_index(self) -> int:
        """Array index of cell 0 (the cell immediately left of the particle)."""
        return -self.j_min

    @property
    def right_edge(self) -> float:
        return self.left_edge + self.n * self.dx

    @property
    def interface_position(self) -> float:
        return self.left_edge + (self.particle_index + 1) * self.dx

    def cell_edges(self) -> np.ndarray:
        return self.left_edge + self.dx * np.arange(self.n + 1)

    def cell_centers(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Centers of cells start..stop-1, all by default; elementwise, so a
        part has the bits of the whole."""
        return self.left_edge + self.dx * (np.arange(start, self.n if stop is None else stop) + 0.5)


@dataclass(frozen=True)
class Trajectory:
    """A run as one float64 column per quantity, one entry per time level
    (the columns from ``momentum`` on are ``make_record``'s), and snapshots.

    ``boundary_flux`` is the cumulative momentum that left the (co-moving)
    padded window through its edges (the sum of each step's ``grid.leak``);
    the exact discrete law is momentum + boundary_flux == momentum[0].  It is
    zero on periodic domains and for data with equal far-field fluxes.
    """

    times: np.ndarray
    h: np.ndarray
    v: np.ndarray
    boundary_flux: np.ndarray
    accel: np.ndarray
    momentum: np.ndarray
    tv: np.ndarray
    u_min: np.ndarray
    u_max: np.ndarray
    trace_germ_dist: np.ndarray
    snapshots: list[tuple[float, FluidGrid]]
    env: BoundsEnvelope


def time_step(cfg: SchemeConfig, env: BoundsEnvelope, dx: float) -> tuple[float, float, str]:
    """The nominal step dt, its ratio dt/dx and the config key that sets it:
    the CFL step for L*mu <= 1/2, or for an explicit velocity update the
    mass step m_p/(4L) (4*L*dt/m_p <= 1) when smaller.  ``run`` takes this
    step and ``init_state`` sizes the padded window with it.  A ratio that
    underflows to 0 is refused, naming the key, and so is a mass so small
    that dt/m_p times the drag bound 2*L*(sup|u| + lam + sup|v|) over the
    envelope is not finite: a velocity update would overflow.  The
    envelope's sup|u| bounds the datum's sup|u0|, which ``check_run``'s
    acceleration limit takes, from above."""
    L = lipschitz_bound(cfg.bulk, env.m, env.M, env.v_lo, env.v_hi, cfg.lam)
    if not math.isfinite(L):
        raise ValueError(
            "the flux Lipschitz bound is not finite; check 'lambda', 'v0' and the datum "
            "('u_minus'/'u_plus' or 'values')"
        )
    ratio = cfg.mu if L == 0.0 else min(cfg.mu, 0.5 / L)
    dt, key = ratio * dx, "'mu'"
    if cfg.velocity_update is VelocityUpdate.EXPLICIT and L > 0.0:
        dt_mass = cfg.m_p / (4.0 * L)
        if dt_mass < dt:
            dt, ratio, key = dt_mass, dt_mass / dx, "'mass'"
    if not ratio > 0.0:
        raise ValueError(f"the time step {dt!r} has dt/dx = {ratio!r}; check {key}")
    # every state of the envelope lies in [m, M], so sup |u0| <= max(|m|, |M|)
    u_sup, v_sup = max(-env.m, env.M), max(-env.v_lo, env.v_hi)
    drag = 2.0 * L * (u_sup + cfg.lam + v_sup)
    if not dt / cfg.m_p * drag < math.inf:
        raise ValueError(
            f"the time step {dt!r} over the mass {cfg.m_p!r} times the drag bound {drag!r} "
            "is not finite; check 'mass'"
        )
    return dt, ratio, key


# Most cells init_state lays out.  A step stores and updates only the active
# cells, but init_state averages every cell and each snapshot file writes one
# row per cell, so this bounds a run's output: 10^7 rows, about 0.4 GB a file.
MAX_CELLS = 10**7


def _refuse_oversized(cells: float, keys: str) -> None:
    """Refuse a window of more than MAX_CELLS cells (or a NaN or infinite
    count), naming the config keys that size it."""
    if not cells <= MAX_CELLS:
        raise ValueError(
            f"the window would hold {cells:.9g} cells, more than {MAX_CELLS}; check {keys}"
        )


def _check_start(h0: float, v0: float, dx: float) -> None:
    if dx <= 0.0:
        raise ValueError(f"cell width must be positive, got dx={dx}")
    if not (math.isfinite(h0) and math.isfinite(v0)):
        raise ValueError("initial position and velocity must be finite")


def _half_cells(cfg: SchemeConfig, dx: float) -> int:
    """Cells on each side of the particle in the periodic box, once a box of
    more than MAX_CELLS cells is refused (``round`` fails on inf)."""
    _refuse_oversized(2.0 * cfg.half_width / dx, "'half_width' and 'dx'")
    return max(2, round(cfg.half_width / dx))


def init_state(
    u0: PiecewiseConstant,
    h0: float,
    v0: float,
    cfg: SchemeConfig,
    dx: float,
) -> tuple[FluidGrid, ParticleState]:
    """Exact cell averaging of the initial datum on a mesh aligned with h0.

    The padded domain covers the datum's support widened on each side by
    three cells per step of ``time_step`` (a disturbance moves at most one
    cell per step) and six more.  The periodic domain uses the configured
    half width, which ``run`` checks against the step it takes before it
    lays the box out.  A window of more than MAX_CELLS cells, more rows than
    a snapshot file may hold, is refused before anything is allocated, and a
    mesh that floating point cannot keep uniform before its cells are averaged.
    """
    _check_start(h0, v0, dx)
    if cfg.domain is Domain.PERIODIC:
        m_c = _half_cells(cfg, dx)
        n_left = n_right = m_c
        j_min = 1 - m_c
    else:
        _, ratio, key = time_step(cfg, bounds_envelope(u0, v0, cfg.lam, split=h0), dx)
        # Three times the influence length, plus six cells: the datum starts
        # clear of the three far-field cells a side a step must keep.
        pad = 3.0 * cfg.T / ratio + 6.0 * dx
        span = (h0, *u0.breakpoints)
        span_lo, span_hi = min(span), max(span)
        left = (h0 - (span_lo - pad)) / dx
        right = ((span_hi + pad) - h0) / dx
        keys = f"'T', {key} and 'dx'"
        _refuse_oversized(left + right, keys)  # math.ceil fails on inf
        n_left = max(6, math.ceil(left))
        n_right = max(6, math.ceil(right))
        _refuse_oversized(n_left + n_right, keys)
        j_min = 1 - n_left
    # An edge h0 + k*dx is off by about the float spacing at the largest |edge|:
    # at most 2**-20 of dx keeps each cell width within a few millionths of dx.
    spacing = math.ulp(max(abs(h0 - n_left * dx), abs(h0 + n_right * dx)))
    if not spacing <= 2.0**-20 * dx:
        raise ValueError(
            f"floats near the mesh edges at h0={h0!r} are {spacing!r} apart, more than 2**-20 of "
            f"dx={dx!r}, so edges are uneven or not strictly increasing; check 'h0' and 'dx'"
        )
    # anchor the mesh at the particle so the interface sits exactly at h0
    edges = h0 + dx * (np.arange(n_left + n_right + 1) - n_left)
    left_edge = float(edges[0])
    u = u0.cell_averages(edges)
    grid = FluidGrid(
        u=u,
        dx=dx,
        left_edge=left_edge,
        j_min=j_min,
        periodic=cfg.domain is Domain.PERIODIC,
    )
    return grid, ParticleState(h=h0, v=v0)


# Most cells a padded update takes in Python floats instead of numpy arrays.
# Its time over the array update's, for each bulk flux (interleaved medians,
# 2-core Xeon VM): 0.59-0.72 at 4 updated cells, 0.94-0.97 at 7, 1.01-1.05 at 8.
FLOAT_UPDATE_CELLS = 7


def _fluid_update(
    grid: FluidGrid, v_flux: float, dt: float, fm: float, fp: float, cfg: SchemeConfig,
    left_edge: float, fixed: tuple | None = None,
) -> FluidGrid:
    """Flux-difference update at flux speed v_flux: the new grid, with its
    left edge at ``left_edge``, marked ``fixed`` if it shares the old cells.

    A padded window updates only the cells that can change: the active range
    widened by one cell on each side.  Any other cell sits between two equal
    neighbors, whose flux is one deterministic value on both sides, so the
    update would return it unchanged, bit for bit.  The new grid keeps the
    updated cells of its active range and nothing of the window.

    One pass of ``bulk_flux`` over the faces, their difference with the
    interface pair patched in, and the update run in four arrays allocated
    here: the cells with their neighbors, which the update overwrites with
    the new cells, and three buffers that die with the call, so concurrent
    runs share nothing.  A padded update of at most FLOAT_UPDATE_CELLS cells
    does the same operations in Python floats instead, through float calls
    of ``bulk_flux``, with the bits of the array call; when it changes no
    cell and leaves the active range as it was, the new grid shares the old
    grid's cells, so an unchanged state allocates and checks no cells.  A
    padded window's leak is the flux through its outer faces.
    """
    n, lo, hi, cells = grid.n, grid.lo, grid.hi, grid.cells
    p0 = grid.particle_index
    # w: the updated cells with one neighbor a side.  A periodic box updates
    # every cell, and the neighbors wrap around; a padded window updates
    # cells a .. hi, the active range widened by one cell a side, whose
    # outer neighbors are far-field cells.
    a = 0 if grid.periodic else lo - 1
    if not grid.periodic and hi - lo + 2 <= FLOAT_UPDATE_CELLS:
        # Face k, between the particle cells, is not evaluated: the pair
        # replaces it, fm as the right face of cell p0, fp as the left of p0 + 1.
        # A face between the same two values as the face before it (three
        # equal cells; a bulk flux gives 0.0 and -0.0 one value) reuses it.
        old = cells.tolist()
        w = [grid.first] * 2 + old + [grid.last] * 2
        faces, k = [], p0 - a + 1
        for i in range(len(w) - 1):
            if i != k:
                same = faces and i - 1 != k and w[i - 1] == w[i] == w[i + 1]
                faces.append(faces[-1] if same else bulk_flux(cfg.bulk, w[i], w[i + 1], v_flux))
        pairs = chain(pairwise(faces[:k] + [fm]), pairwise([fp] + faces[k:]))
        ratio = dt / grid.dx
        new = [u - (r - f) * ratio for u, (f, r) in zip(w[1:-1], pairs)]
    else:
        old = None  # never shared: comparing would cost a pass over every cell
        if grid.periodic:
            w = np.empty(cells.shape[0] + 2)
            w[0], w[1:-1], w[-1] = cells[-1], cells, cells[0]
        else:
            w = np.empty(hi - lo + 4)
            w[:2], w[2:-2], w[-2:] = grid.first, cells, grid.last
        m = w.shape[0] - 1  # faces
        scratch = np.empty(m), np.empty(m), np.empty(m)
        faces = bulk_flux(cfg.bulk, w[:-1], w[1:], v_flux, scratch)
        d = flux_difference(faces, p0 - a, fm, fp, scratch[0][:-1])
        d *= dt / grid.dx
        new = np.subtract(w[1:-1], d, out=w[1:-1])  # the new cells, in w's memory
        if grid.periodic:
            first, last = float(new[0]), float(new[-1])
            return FluidGrid._trusted(new, first, last, grid, left_edge, 0, n, 0.0)
    new_lo, new_hi = _active_range(new, a, p0, grid.first, grid.last)
    # Guard: three far-field cells a side before and after the step, or the
    # padding was too narrow for this run.  So the particle cells lie in
    # [3, n-3), every updated cell in [2, n-2), and first, last are fixed.
    if min(lo, new_lo) < 3 or max(hi, new_hi) > n - 3:
        raise BoundaryGuardError("disturbance reached the padded boundary; enlarge the domain")
    leak = dt * float(faces[-1] - faces[0])
    kept = new[new_lo - a : new_hi - a]  # new is an array or a list
    # == on floats is bitwise here: no cell is -0.0 (the constructor reads it
    # as 0.0, and u - d is -0.0 only for u = -0.0), and a NaN equals nothing.
    same = old is not None and (new_lo, new_hi) == (lo, hi) and kept == old
    kept, fixed = (cells, fixed) if same else (np.asarray(kept), None)
    return FluidGrid._trusted(
        kept, grid.first, grid.last, grid, left_edge, new_lo, new_hi, leak, fixed
    )


def step(
    grid: FluidGrid, particle: ParticleState, cfg: SchemeConfig, dt: float
) -> tuple[FluidGrid, ParticleState]:
    """One step with every flux at the flux speed w that ``cfg.velocity_update``
    picks: v^n for an explicit config, the root of the velocity equation
    (v^{n+1}) for an implicit one.  The velocity update conserves momentum
    with the interface pair at w; the mesh shifts by v^n.

    A step that keeps both the cells (the same object) and the bits of v is
    a fixed point: it marks its grid with (v, dt, cfg).  Given a grid marked
    with the bits of v, the same dt and the same cfg object, the step moves
    grid and particle by v*dt and evaluates no flux.  That is exact: the
    step's inputs are then those of the step that marked the grid, apart
    from the positions, which enter nothing but the shift; the leak reads
    the same cells, flux speed and dt, and the guard the same ranges."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"time step dt must be positive and finite, got dt={dt}")
    v = particle.v
    fixed = grid.fixed
    if fixed is not None and fixed[2] is cfg and fixed[1] == dt and _same_bits(fixed[0], v):
        moved = FluidGrid._trusted(grid.cells, grid.first, grid.last, grid, grid.left_edge + v * dt,
                                   grid.lo, grid.hi, grid.leak, fixed)
        return moved, ParticleState(h=particle.h + v * dt, v=v)
    p0 = grid.particle_index
    u0, u1 = grid.cells[p0 - grid.lo : p0 - grid.lo + 2].tolist()
    if cfg.velocity_update is VelocityUpdate.IMPLICIT:
        w, fm, fp = _solve_implicit_velocity(u0, u1, particle, cfg, dt)
    else:
        w, fm, fp = v, *interface_fluxes(cfg.iface, cfg.bulk, u0, u1, v, cfg.lam)
    fm, fp = float(fm), float(fp)
    v_new = v + (dt / cfg.m_p) * (fm - fp)
    mark = (v, dt, cfg) if _same_bits(v_new, v) else None  # for a grid that keeps its cells
    new_grid = _fluid_update(grid, w, dt, fm, fp, cfg, grid.left_edge + v * dt, mark)
    return new_grid, ParticleState(h=particle.h + v * dt, v=v_new)


def _same_bits(a: float, b: float) -> bool:
    """a == b with the sign of zero: == alone takes -0.0 for 0.0."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


# run calls step by this name for an implicit config, so a tracer that wraps
# each name times the two updates apart.
step_implicit = step


def _solve_implicit_velocity(
    u0: float, u1: float, particle: ParticleState, cfg: SchemeConfig, dt: float
) -> tuple[float, float, float]:
    """Root w of r(w) = w - v^n - (dt/m_p) * (g_minus - g_plus)(u0, u1, w),
    returned with the interface pair (g_minus, g_plus) evaluated at it.

    The root lies in [lo, hi] = [min(u0, u1, v^n) - lam, max(u0, u1, v^n) + lam].
    At w = lo every trace is at least w + lam, so each flux of the pair is
    upwinded from the left, and the MAX_GERM substitution reduces to the
    G1_ONLY shifts u1 + lam and u0 - lam.  The drag is then f_w(u0) -
    f_w(u0 - lam) (averaged with f_w(u1 + lam) - f_w(u1) for Rusanov), >= 0
    since f_w increases right of w, so r(lo) <= lo - v^n <= -lam < 0.  At
    w = hi every flux is upwinded from the right and r(hi) >= lam > 0.

    The solve evaluates r(v^n) first, since v^n lies inside the bracket: a
    particle at equilibrium with its traces, as a light one soon is, gets
    v^n back after that one evaluation; otherwise v^n replaces the end of the
    bracket on its side of the root.  Then rounds of Ridders' method (IEEE
    Trans. Circuits Syst. 26(11), 1979): evaluate the midpoint m; form
    m - (m - lo)*r(m)/hypot(r(m), sqrt(-r(lo))*sqrt(r(hi))) from the bracket
    before splitting it at m; evaluate that point and split again if it lies
    strictly inside the new bracket.  So the bracket at least halves each
    round, and tiny residuals neither underflow nor divide by zero.  The
    solve returns w once |r| is within its rounding bound 4*eps*(|w| + |v^n|
    + (dt/m_p)*(|g_minus| + |g_plus|)); when no float lies strictly inside
    the bracket, or the rounded r(lo), r(hi) do not straddle 0, it returns
    the end with the smaller |r|, lo on a tie.  On 1200 random cases a solve
    makes at most 38 evaluations.
    """
    v_n = particle.v
    scale = dt / cfg.m_p
    eps4 = 2.0**-50  # 4 * eps

    def resid(w: float) -> tuple[float, float, tuple[float, float]]:
        gm, gp = interface_fluxes(cfg.iface, cfg.bulk, u0, u1, w, cfg.lam)
        bound = eps4 * (abs(w) + abs(v_n) + scale * (abs(gm) + abs(gp)))
        return w - v_n - scale * (gm - gp), bound, (gm, gp)

    r, bound, g = resid(v_n)
    if abs(r) <= bound:
        return (v_n, *g)
    lo = min(u0, u1, v_n) - cfg.lam
    hi = max(u0, u1, v_n) + cfg.lam
    # The bracket's ends (w, r(w), pair at w), lo then hi: a new point
    # replaces ends[r > 0], the end on its side of the root.
    ends = [(v_n, r, g)] * 2
    far = hi if r < 0.0 else lo
    r_far, _, g_far = resid(far)
    ends[r < 0.0] = (far, r_far, g_far)
    while ends[0][1] < 0.0 < ends[1][1]:
        (lo, r_lo, _), (hi, r_hi, _) = ends
        m = 0.5 * (lo + hi)
        if not lo < m < hi:
            break
        r, bound, g = resid(m)
        if abs(r) <= bound:
            return (m, *g)
        w = m - (m - lo) * r / math.hypot(r, math.sqrt(-r_lo) * math.sqrt(r_hi))
        ends[r > 0.0] = (m, r, g)
        if ends[0][0] < w < ends[1][0]:
            r, bound, g = resid(w)
            if abs(r) <= bound:
                return (w, *g)
            ends[r > 0.0] = (w, r, g)
    (lo, r_lo, g_lo), (hi, r_hi, g_hi) = ends
    return (lo, *g_lo) if abs(r_lo) <= abs(r_hi) else (hi, *g_hi)


def run(
    u0: PiecewiseConstant,
    h0: float,
    v0: float,
    cfg: SchemeConfig,
    dx: float,
    snapshot_times: tuple[float, ...] = (),
) -> Trajectory:
    """Integrate the coupled system up to the final time.

    The nominal step comes from ``time_step``; the last step is truncated
    so the final time is hit exactly.  Snapshots are stored at t = 0, at the
    final time and at every requested time (the state whose time slab covers
    it).
    """
    _check_start(h0, v0, dx)
    env = bounds_envelope(u0, v0, cfg.lam, split=h0)
    dt_nom, _, key = time_step(cfg, env, dx)
    if cfg.domain is Domain.PERIODIC and cfg.T > 0.0:
        a_eff = _half_cells(cfg, dx) * dx
        guard = 3.0 * cfg.T * dx / dt_nom
        if a_eff < guard * (1.0 - 1e-12):
            raise ValueError(
                f"periodic 'half_width' {a_eff} is below the effective influence "
                f"guard 3*T*dx/dt = {guard} of the step {key} sets"
            )
    req = sorted(set(float(t) for t in snapshot_times))
    if req and (req[0] < 0.0 or req[-1] > cfg.T):
        raise ValueError("key 'snapshots' times must lie in [0, T]")
    grid, particle = init_state(u0, h0, v0, cfg, dx)

    advance = step if cfg.velocity_update is VelocityUpdate.EXPLICIT else step_implicit

    # one row per state: (t, h, v, boundary flux, |v - prev_v|/dt);
    # make_record's columns come per block of states
    rows = [(0.0, particle.h, particle.v, 0.0, 0.0)]
    records: list[list[float]] = [[] for _ in range(5)]
    block = RecordBlock(grid)
    block.add(grid, particle)
    snapshots: list[tuple[float, FluidGrid]] = [(0.0, grid)]
    next_req = 0
    t = 0.0
    eps = 1e-12 * max(1.0, cfg.T)
    while t < cfg.T - eps:
        remaining = cfg.T - t
        if dt_nom >= remaining - eps:
            dt = remaining
            t_next = cfg.T
        else:
            dt = dt_nom
            t_next = t + dt
        while next_req < len(req) and t <= req[next_req] < t_next:
            if snapshots[-1][0] != t:
                snapshots.append((t, grid))
            next_req += 1
        prev_v, leak = particle.v, rows[-1][3]
        grid, particle = advance(grid, particle, cfg, dt)
        t = t_next
        rows.append((t, particle.h, particle.v, leak + grid.leak, abs(particle.v - prev_v) / dt))
        if block.add(grid, particle):
            for column, values in zip(records, make_record(block, cfg)):
                column += values
            block = RecordBlock(grid)
    if block.states:
        for column, values in zip(records, make_record(block, cfg)):
            column += values
    if snapshots[-1][0] != t:
        snapshots.append((t, grid))
    return Trajectory(
        *np.array(rows).T, *map(np.array, records), snapshots=snapshots, env=env)


def sample_solution(traj: Trajectory, t: float, x: float) -> tuple[float, float, float]:
    """(u, h, v) of the numerical solution at lab-frame point (t, x).

    Time slabs are left-closed: t in [t^n, t^{n+1}) reads state n.  Within a
    slab the cells shear with the particle speed, the particle path is linear
    and the velocity constant.  Requires a stored snapshot covering t.
    """
    T = float(traj.times[-1])
    if not 0.0 <= t <= T:
        raise ValueError(f"time {t} outside [0, {T}]")
    idx = bisect_right(traj.times.tolist(), t) - 1
    t_n = float(traj.times[idx])
    v_n = float(traj.v[idx])
    h_val = float(traj.h[idx]) + v_n * (t - t_n)
    snap = next((g for ts, g in traj.snapshots if ts == t_n), None)
    if snap is None:
        raise ValueError(f"no snapshot covering t={t} (step time {t_n})")
    x_back = x - v_n * (t - t_n)
    k = math.floor((x_back - snap.left_edge) / snap.dx)
    if not 0 <= k < snap.n:
        raise ValueError(f"position {x} outside the stored grid at t={t}")
    lo, hi = snap.lo, snap.hi  # the cell from the compact form; no window is built
    u = snap.first if k < lo else snap.last if k >= hi else float(snap.cells[k - lo])
    return u, h_val, v_n
