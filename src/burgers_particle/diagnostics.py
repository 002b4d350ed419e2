"""Verification instruments: bound envelopes, conservation and entropy
residuals, flux-property probes, and convergence studies.

Probes are pure and deterministic for a given sample layout or seed; they
never mutate simulation state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .flux import BulkFluxKind, InterfaceFluxKind, bulk_flux, interface_fluxes, lipschitz_bound
from .germ import GermRegion, classify, dist1_to_H, in_germ

if TYPE_CHECKING:  # pragma: no cover
    from .scheme import FluidGrid, ParticleState, PiecewiseConstant, SchemeConfig, Trajectory

# Tolerance for nonnegativity / monotonicity probes; dominated by rounding
# accumulation in ~1e3-term expressions.
TAU_NUM = 1e-10


@dataclass(frozen=True)
class BoundsEnvelope:
    """A priori fluid and particle-velocity bounds for a run."""

    m: float
    M: float
    v_lo: float
    v_hi: float


@dataclass(frozen=True)
class ConvergenceRow:
    dx: float
    err_u_L1: float
    err_h_sup: float
    err_v_sup: float
    order_u: float | None
    order_h: float | None


def bounds_envelope(
    u0: "PiecewiseConstant", v0: float, lam: float, split: float = 0.0
) -> BoundsEnvelope:
    """Invariant-region envelope from the initial datum and particle speed.

    The fluid stays in [m, M] with m widened below on the left of the
    particle and M widened above on the right by the friction parameter; the
    particle velocity stays between min(m, v0) and max(M, v0).
    """
    inf_l, sup_l, inf_r, sup_r = u0.side_bounds(split)
    m = min(inf_l - lam, inf_r)
    M = max(sup_l, sup_r + lam)
    return BoundsEnvelope(m=m, M=M, v_lo=min(m, v0), v_hi=max(M, v0))


def check_run(traj: "Trajectory", cfg: "SchemeConfig", u0: "PiecewiseConstant") -> list[tuple]:
    """Every violation of the run's a priori bounds as (check, value, limit),
    state by state, and within a state in the order momentum_drift,
    invariant_region, total_variation, velocity_bounds, acceleration_bound."""
    env, lam = traj.env, cfg.lam
    L = lipschitz_bound(cfg.bulk, env.m, env.M, env.v_lo, env.v_hi, lam)
    u0_sup = max(abs(v) for v in u0.values)
    v_sup = max(abs(env.v_lo), abs(env.v_hi))
    accel_limit = (2.0 * L / cfg.m_p) * (u0_sup + lam + v_sup)
    tv_limit = traj.tv[0] + 2.0 * lam + TAU_NUM
    mom0 = traj.momentum[0]
    columns = (traj.momentum, traj.boundary_flux, traj.u_min, traj.u_max, traj.tv, traj.v, traj.accel)
    out = []
    for n, (mom, bflux, u_min, u_max, tv, v, accel) in enumerate(zip(*(c.tolist() for c in columns))):
        # On a padded domain the co-moving window exchanges momentum through
        # its edges; the exact identity includes that boundary flux.
        drift = abs(mom + bflux - mom0)
        if drift > 1e-12 * (1 + n):
            out.append(("momentum_drift", drift, 1e-12 * (1 + n)))
        if u_min < env.m - TAU_NUM or u_max > env.M + TAU_NUM:
            out.append(("invariant_region", (u_min, u_max), (env.m, env.M)))
        if tv > tv_limit:
            out.append(("total_variation", tv, tv_limit))
        if not env.v_lo - TAU_NUM <= v <= env.v_hi + TAU_NUM:
            out.append(("velocity_bounds", v, (env.v_lo, env.v_hi)))
        if accel > accel_limit + TAU_NUM:
            out.append(("acceleration_bound", accel, accel_limit))
    return out


def _copies(c: float, k: int) -> list[float]:
    """Two floats whose exact sum is k * c: the rounded product and its
    remainder, split in integer arithmetic (c = num / 2**e)."""
    num, den = c.as_integer_ratio()
    exact = k * num
    head = float(exact)
    e = den.bit_length() - 1
    return [math.ldexp(head, -e), math.ldexp(float(exact - int(head)), -e)]


def _fsum(x: np.ndarray, tails: Sequence[tuple[int, float]]) -> float:
    terms = x.tolist()
    for k, c in tails:
        terms += _copies(c, k)
    return math.fsum(terms)


def _rounded(total: int, shift: int, tails, frac: float, err: int) -> float | None:
    """The float nearest to (total + R) / 2**shift + sum(k * c for its tails)
    when every R within err / 2**52 of ``frac`` gives that float and the
    sums exclude 0, else None.  With err == 0 (and frac == 0.0) that is the
    correctly rounded sum, or None when the sum is 0."""
    total, e = (total << -shift, 0) if shift < 0 else (total, shift)
    for count, c in tails:
        if count and c:  # count * c == count * num / 2**d
            num, den = c.as_integer_ratio()
            d = den.bit_length() - 1
            if d > e:
                total, e = total << (d - e), d
            total += count * num << (e - d)
    if not err:  # frac is 0.0: the sum is exact
        return total / (1 << e) if total else None
    # in units of 2**-(e + d): the sum is total << d plus R << (e - shift)
    num, den = frac.as_integer_ratio()
    d = max(den.bit_length() - 1, 52)
    mid = (total << d) + (num << (d - den.bit_length() + 1) << (e - shift))
    half = err << (d - 52) << (e - shift)
    if mid - half <= 0 <= mid + half:
        return None
    unit = 1 << (e + d)
    low = (mid - half) / unit
    return low if low == (mid + half) / unit else None


def _exact_sum(
    x: np.ndarray, tails: Sequence = (), extremes=None, scratch=None
) -> float | list[float]:
    """Correctly rounded row sums: the bits of ``math.fsum`` over the same
    terms.

    ``x`` is one row (1-D; ``tails`` is a sequence of (k, c) pairs and the
    result a float) or a block of rows (2-D; ``tails`` holds one such
    sequence per row and the result a list).  A row sums to sum(row) +
    sum(k * c for k, c in its tails).

    Error-free extraction (Rump, Ogita and Oishi, SISC 2008), row by row:
    each row is scaled by its own power of two 2**s so that every |x| < 2**b
    with n * 2**b <= 2**53; then the integer parts of a row sum exactly in
    floating point, and each pass adds every row's sum into a Python int and
    leaves the fractions, which the next pass scales by 2**b.  The tails add
    exactly from their integer ratios, and one division per row rounds.

    A row stops as soon as its rounding is decided (Ziv's rounding test, ACM
    TOMS 1991).  After a pass, the float sum F of its n fractions, each below
    1, lies within gamma_(n-1) * sum|f| < n*n * 2**-52 of their exact sum
    (Higham's bound, whatever order numpy adds them in); when total + F +-
    n*n * 2**-52 rounds to one float at both ends and excludes 0, that float
    is the correctly rounded sum.  A row of dense data stops after its first
    pass; a row that is not decided takes further passes until its fractions
    are all 0.  A zero sum (fsum's signed-zero rule) and a row whose scaling
    would underflow go to ``math.fsum``.  ``extremes`` is (row maxima, row
    minima) of a block, when the caller has them; ``scratch`` is a free array
    of x's shape to work in.
    """
    if x.ndim == 1:
        return _exact_sum(x[None], [tails])[0]
    k, n = x.shape
    if n == 0:
        x, n = np.zeros((k, 1)), 1
    top, bottom = extremes if extremes is not None else (x.max(axis=1), x.min(axis=1))
    b = 53 - n.bit_length()
    # 2**1023 is the largest finite factor; a smaller shift keeps |x| < 2**b
    shifts = [
        min(b - math.frexp(max(t, -m))[1], 1023) for t, m in zip(top.tolist(), bottom.tolist())
    ]
    factors = np.array([2.0**si for si in shifts])[:, None]
    y = x * factors  # exact unless a term underflows
    lossy = set()
    if min(shifts) < 0:
        down = [i for i, si in enumerate(shifts) if si < 0]
        lost = (y[down] / factors[down] != x[down]).any(axis=1)
        lossy = {i for i, bad in zip(down, lost.tolist()) if bad}
    whole = np.empty_like(y) if scratch is None else scratch
    scale = float(1 << b)
    rows, totals, out = list(range(k)), [0] * k, [0.0] * k
    while True:
        # integer and fractional parts, as np.modf splits them but faster;
        # the subtraction is exact
        part = whole[: len(rows)]
        np.trunc(y, out=part)
        y -= part
        fracs = y.sum(axis=1).tolist()
        # a row whose fractions are all 0 has its exact sum
        live = y.any(axis=1).tolist() if 0.0 in fracs else [True] * len(rows)
        undecided = []
        for j, (i, w, f, more) in enumerate(zip(rows, part.sum(axis=1).tolist(), fracs, live)):
            totals[i] = (totals[i] << b) + int(w)
            r = None if i in lossy else _rounded(totals[i], shifts[i], tails[i], f, more * n * n)
            if r is None and more and i not in lossy:
                undecided.append(j)
            else:  # fsum for a lossy row and for an exact sum of 0
                out[i] = _fsum(x[i], tails[i]) if r is None else r
        if not undecided:
            return out
        if len(undecided) < len(rows):
            y, rows = y[undecided], [rows[j] for j in undecided]
        y *= scale
        for i in rows:
            shifts[i] += b


def total_momentum(grid: "FluidGrid", particle: "ParticleState") -> float:
    """m_p * v + dx * sum(u), with the cells summed exactly.

    The constant tails outside the active range enter as their exact sums
    k * c, so the correctly rounded sum has the bits ``math.fsum`` gives
    over every cell.
    """
    tails = ((grid.lo, grid.first), (grid.n - grid.hi, grid.last))
    return particle.m_p * particle.v + grid.dx * _exact_sum(grid.cells, tails)


# numpy's sum of a float64 row is a pairwise tree (pairwise_sum in numpy's
# loops): ranges of at most _LEAF terms are leaves, summed with 8
# accumulators; a longer range splits after half its terms, rounded down to
# a multiple of 8.
_LEAF = 128


def _split(s: int, e: int) -> int | None:
    """Where numpy's pairwise sum splits the terms [s, e); None at a leaf."""
    half = (e - s) // 2
    return None if e - s <= _LEAF else s + half - half % 8


def _leaf(p: int, n: int) -> tuple[int, int]:
    """The leaf [s, e) that holds term p of a pairwise sum of n terms."""
    s, e = 0, n
    while (m := _split(s, e)) is not None:
        s, e = (s, m) if p < m else (m, e)
    return s, e


def _pairwise_sum(terms: np.ndarray, a: int, s: int, e: int) -> np.ndarray:
    """Per row, numpy's pairwise sum over the terms [s, e), a node of the
    tree of a sum that starts at term 0, bit for bit.  ``terms`` (k x w)
    holds the terms [a, a + w) of every row, every other term is 0.0, and
    [a, a + w) starts and ends on leaf boundaries (``_leaf``).

    numpy sums a node as it would sum its terms alone, so a node inside
    [a, a + w) is one numpy sum; a node outside sums to 0.0, and adding 0.0
    changes no sum, so it is skipped.
    """
    if a <= s and e <= a + terms.shape[1]:
        return terms[:, s - a : e - a].sum(axis=1)
    m = _split(s, e)
    if m <= a:
        return _pairwise_sum(terms, a, m, e)
    if m >= a + terms.shape[1]:
        return _pairwise_sum(terms, a, s, m)
    return _pairwise_sum(terms, a, s, m) + _pairwise_sum(terms, a, m, e)


def _variation_cells(n: int, lo: int, hi: int) -> tuple[int, int]:
    """Cells [a, b) that the total variation of a window of n cells with
    active range [lo, hi) reads: those of the leaves of the pairwise sum of
    its n - 1 differences that hold the differences u[j+1] - u[j], j in
    [lo - 1, hi), which can be nonzero."""
    if lo <= 1 and hi >= n - 1:
        return 0, n  # every leaf; no need to look them up
    a = _leaf(max(lo - 1, 0), n - 1)[0]
    b = _leaf(min(hi, n - 1) - 1, n - 1)[1] + 1
    return a, b


def _variation(cells: np.ndarray, a: int, n: int, periodic: bool, scratch=None) -> np.ndarray:
    """Total variation of each row of ``cells``, the cells ``_variation_cells``
    names of windows of n cells, with the bits of ``np.sum`` over the whole
    window, plus the wrap interface of a periodic box.  The differences go
    to ``scratch``, a free array of cells' shape, when given."""
    k, w = cells.shape
    if scratch is not None:
        scratch = scratch.reshape(-1)[: k * (w - 1)].reshape(k, w - 1)
    terms = np.subtract(cells[:, 1:], cells[:, :-1], out=scratch)  # np.diff, without its overhead
    tv = _pairwise_sum(np.abs(terms, out=terms), a, 0, n - 1)
    if periodic:
        tv += np.abs(cells[:, 0] - cells[:, -1])
    return tv


def total_variation(grid: "FluidGrid") -> float:
    """Sum of |u_j - u_{j-1}| over interfaces (including the periodic wrap)."""
    a, b = _variation_cells(grid.n, grid.lo, grid.hi)
    return float(_variation(grid.u[None, a:b], a, grid.n, grid.periodic)[0])


# Cell values in the row matrix of one ``make_record`` call: 128 KiB of
# float64, glibc malloc's default mmap threshold.  The call's arrays of that
# shape (the rows, the scaled copy ``_exact_sum`` works on, and one scratch
# that the sum and then the variation write) stay below it.  A larger
# temporary can be mapped afresh and fault its pages in on every call; with
# blocks of two 12000-cell states a periodic-dense run took 0.85 s against
# 0.55 s (2-core Xeon VM).
RECORD_BLOCK_CELLS = 1 << 14


class RecordBlock:
    """Consecutive states of one run waiting for ``make_record``: each
    state's active cells and the scalars its record needs."""

    def __init__(self, grid: "FluidGrid"):
        self.n, self.dx, self.periodic = grid.n, grid.dx, grid.periodic
        self.states: list[tuple] = []
        self.lo, self.hi = grid.n, 0  # union of the active ranges

    def add(self, grid: "FluidGrid", particle: "ParticleState") -> bool:
        """Add a state.  True when the block is full: one more state as
        wide as the union of the active ranges would take the row matrix, at
        most two leaves wider than that union, past RECORD_BLOCK_CELLS
        values.

        The block keeps the grid's own cells, no copy: no step changes a
        grid's cells in place."""
        cells, lo, hi, k = grid.cells, grid.lo, grid.hi, grid.particle_index - grid.lo
        self.states.append((
            cells, lo, hi, grid.first, grid.last, float(cells[k]), float(cells[k + 1]),
            particle.v, particle.m_p * particle.v,
        ))
        self.lo, self.hi = min(self.lo, lo), max(self.hi, hi)
        width = self.hi - self.lo + 2 * _LEAF
        return (len(self.states) + 1) * width > RECORD_BLOCK_CELLS


def make_record(block: RecordBlock, lam: float) -> tuple[list[float], ...]:
    """Columns (momentum, tv, u_min, u_max, trace_germ_dist) of the
    states of a block, one float per state, with the bits of
    ``total_momentum``, ``total_variation`` and min/max over each window.

    The states' cells are laid out as rows over the union of their active
    ranges, widened to the leaves ``total_variation`` reads; a row holds its
    window's cells there, far-field values included, and every cell outside
    equals the row's far-field value on that side.
    """
    n = block.n
    a, b = _variation_cells(n, block.lo, block.hi)
    cells, lo, hi, first, last, u_p0, u_p1, v, mv = zip(*block.states)
    if len(cells) == 1 and cells[0].shape[0] == b - a:
        rows = cells[0][None]  # one state whose active cells are the rows
    else:
        rows = np.empty((len(cells), b - a))
        for row, c, l, h, f, z in zip(rows, cells, lo, hi, first, last):
            row[: l - a] = f
            row[l - a : h - a] = c
            row[h - a :] = z
    tails = [((a, f), (n - b, z)) for f, z in zip(first, last)]
    u_min, u_max = rows.min(axis=1), rows.max(axis=1)
    scratch = np.empty_like(rows)
    sums = _exact_sum(rows, tails, (u_max, u_min), scratch)
    return (
        [m + block.dx * s for m, s in zip(mv, sums)],
        _variation(rows, a, n, block.periodic, scratch).tolist(),
        u_min.tolist(),
        u_max.tolist(),
        [dist1_to_H((p, q), w, lam) for p, q, w in zip(u_p0, u_p1, v)],
    )


def entropy_residual(
    prev: tuple["FluidGrid", "ParticleState"],
    next: tuple["FluidGrid", "ParticleState"],
    cfg: "SchemeConfig",
    dt: float,
    c: tuple[float, float],
) -> np.ndarray:
    """Per-cell residuals of the discrete entropy inequality for one step.

    For a reference pair ``c = (c_minus, c_plus)`` placed left/right of the
    particle, the residual of cell j is

        (|u'_j - c_j| - |u_j - c_j|)/dt + (G_{j+1/2,-} - G_{j-1/2,+})/dx
            - eps_j * (A/dx) * dist1(c, G1|G2 at v)

    with numerical entropy fluxes G built from max/min comparisons, the
    interface fluxes entering only through the two cells adjacent to the
    particle (eps_j = 1 there), and A = 2*L_c + 2*dx/dt with L_c the flux
    Lipschitz bound over the state hull.  Nonpositive residuals certify the
    inequality; the distance term vanishes when c is admissible.

    Returns the residuals of all flux-updated cells (interior cells for a
    padded grid, every cell for a periodic one).
    """
    from .scheme import _flux_difference

    grid, particle = prev
    grid2, _ = next
    if grid.u.shape != grid2.u.shape or grid.dx != grid2.dx:
        raise ValueError("mismatched grids")
    u, u2 = grid.u, grid2.u
    n = u.shape[0]
    v = particle.v
    mu = dt / grid.dx
    p0 = grid.particle_index
    c_minus, c_plus = float(c[0]), float(c[1])
    c_arr = np.where(np.arange(n) <= p0, c_minus, c_plus)
    a, b = (0, n) if grid.periodic else (1, n - 1)

    def faces(w):
        # the bulk faces of the cells w and the interface pair
        gm, gp = interface_fluxes(cfg.iface, cfg.bulk, w[p0], w[p0 + 1], v, cfg.lam)
        ext = np.concatenate((w[-1:], w, w[:1])) if grid.periodic else w
        return bulk_flux(cfg.bulk, ext[:-1], ext[1:], v), gm, gp

    top, gm_top, gp_top = faces(np.maximum(u, c_arr))
    bot, gm_bot, gp_bot = faces(np.minimum(u, c_arr))
    G = _flux_difference(top - bot, p0 - a, gm_top - gm_bot, gp_top - gp_bot)

    L_c = lipschitz_bound(
        cfg.bulk,
        min(float(u.min()), c_minus, c_plus),
        max(float(u.max()), c_minus, c_plus),
        v,
        v,
        cfg.lam,
    )
    A = 2.0 * L_c + 2.0 / mu
    dist = dist1_to_H((c_minus, c_plus), v, cfg.lam)
    eps = np.zeros(b - a)
    eps[p0 - a : p0 - a + 2] = 1.0
    return (
        (np.abs(u2 - c_arr) - np.abs(u - c_arr))[a:b] / dt
        + G / grid.dx
        - eps * (A / grid.dx) * dist
    )


def dissipativity_probe(
    iface: InterfaceFluxKind,
    bulk: BulkFluxKind,
    lam: float,
    box: tuple[float, float],
    v: float,
    n: int,
    difference_fn: Callable | None = None,
) -> tuple[float, float]:
    """Worst negative forward difference of g_minus - g_plus over a state grid.

    Samples an n x n grid over ``box`` (applied to both trace arguments) and
    returns the most negative forward difference in each argument, 0.0 when
    none is negative.  ``difference_fn`` replaces the flux difference for
    probe self-checks.
    """
    if n < 2:
        raise ValueError(f"need at least a 2x2 grid, got n={n}")
    lo, hi = box
    a = np.linspace(lo, hi, n)
    A, B = np.meshgrid(a, a, indexing="ij")
    if difference_fn is not None:
        D = difference_fn(A, B)
    else:
        gm, gp = interface_fluxes(iface, bulk, A, B, v, lam)
        D = gm - gp
    d1 = np.diff(D, axis=0)
    d2 = np.diff(D, axis=1)
    return min(0.0, float(d1.min())), min(0.0, float(d2.min()))


def sample_maximal_subset(v: float, lam: float, n: int) -> np.ndarray:
    """Deterministic sample of the closure of G1 | G2 at speed v.

    Half the budget goes to the line (parameterized over [v-4*lam, v+4*lam]),
    the rest to a grid over the subsonic box restricted to
    u_minus - u_plus <= lam.
    """
    n_line = max(2, n // 2)
    t = np.linspace(v - 4.0 * lam, v + 4.0 * lam, n_line)
    line = np.column_stack([t, t - lam])
    # the diagonal constraint keeps about half the grid, so double the budget
    k = max(2, int(math.isqrt(max(2 * (n - n_line), 4))))
    um = np.linspace(v, v + lam, k)
    up = np.linspace(v - lam, v, k)
    A, B = np.meshgrid(um, up, indexing="ij")
    keep = (A - B) <= lam
    box = np.column_stack([A[keep], B[keep]])
    return np.vstack([line, box])


@dataclass(frozen=True)
class MaximalityVerdict:
    point: tuple[float, float]
    min_xi: float
    passes: bool
    region: GermRegion
    consistent: bool  # passing the criterion implies germ membership


# Candidates per block in ``maximality_probe``: the small per-candidate work
# runs as 2-D arrays over a block.  Against the one-candidate-at-a-time probe,
# a 1000-candidate probe peaked about 0.4 MiB higher with blocks of 64, 0.8
# MiB with blocks of 256 and 3.7 MiB with one block of 1000.
_PROBE_BLOCK = 64

# Candidate-adapted line parameters: anchor + d * offset, d the candidate's
# offset from the line.
_LINE_OFFSETS = np.array(
    [-4.0, -2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0]
)
_REFINE_STEPS = np.arange(17.0)  # points of one local line refinement


def _f(q, v):
    """f_v(q) = q^2/2 - v*q, in ``germ.kruzhkov_flux``'s operation order."""
    return 0.5 * q * q - v * q


def _pairing(a, b, qm, qp, f_qm, f_qp, v):
    """xi((a, b), (qm, qp), v) against sample points with fluxes f_qm, f_qp.

    Broadcasts over all arguments.  Reproduces ``germ.kruzhkov_flux``'s
    operation order, with np.sign(0) == 0 for its sign(0) = 0, so each value
    has the bits of ``germ.xi`` on the same pair of points.  Works in place
    on two temporaries: on 10^4 points, allocating one array per operation
    took up to twice as long.
    """
    phi_m = a - qm
    np.sign(phi_m, out=phi_m)
    phi_m *= _f(a, v) - f_qm
    phi_p = b - qp
    np.sign(phi_p, out=phi_p)
    phi_p *= _f(b, v) - f_qp
    phi_m -= phi_p
    return phi_m


def _line_pairing(a, b, ts, lam, v):
    """Pairing of candidates (a, b) with the line points (ts, ts - lam)."""
    tp = ts - lam
    return _pairing(a, b, ts, tp, _f(ts, v), _f(tp, v), v)


def _three_smallest(x: np.ndarray) -> np.ndarray:
    """``np.argsort(x)[:3]``, without sorting x when its four smallest
    values are distinct (then the three are strictly below every other
    value, and any sort orders them alike)."""
    i = np.argpartition(x, 3)[:4]
    i = i[np.argsort(x[i])]
    s = x[i]
    if s[0] < s[1] < s[2] < s[3]:
        return i[:3]
    return np.argsort(x)[:3]


def _linspace17(start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """``np.linspace(start[i], stop[i], 17)`` along a new last axis, with
    linspace's own arithmetic (including its branch for steps that
    underflow to zero), so the points have its bits."""
    delta = stop - start
    step = delta / 16
    y = _REFINE_STEPS * step[..., None]
    zero = step == 0
    if zero.any():
        y[zero] = _REFINE_STEPS / 16 * delta[zero][:, None]
    y += start[..., None]
    y[..., -1] = stop
    return y


def _row_min(vals: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``np.min`` of the kept entries of each row, as ``np.min`` gives it
    for those entries alone.

    Filling the dropped entries with +inf changes how np.min pairs the
    entries, and with it the sign of a zero minimum reached by both 0.0 and
    -0.0, so rows with a zero minimum are reduced again one at a time.
    """
    m = np.where(keep, vals, np.inf).min(axis=1)
    for i in np.flatnonzero(m == 0):
        m[i] = vals[i][keep[i]].min()
    return m


def _keep_first(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Elementwise ``min(m, x)`` with Python's rule: m unless x < m, so a
    tie of 0.0 and -0.0 keeps the earlier one (``np.minimum`` may not)."""
    return np.where(x < m, x, m)


def _block_min_xi(a, b, lam, v, q, f_q, n_line, spacing):
    """Smallest pairing of each candidate (a[i], b[i]) over the base sample
    and its candidate-adapted points, combined in the order of the
    per-candidate search: base, adapted line, adapted box, then each of the
    three best line parameters through its three refinement levels.

    ``q`` holds the base sample's u_minus and u_plus rows, ``f_q`` their
    fluxes; its first ``n_line`` points are the line points.
    """
    k = a.shape[0]
    qm, qp = q
    f_qm, f_qp = f_q
    line_ts = qm[:n_line]
    m = np.empty(k)
    t0 = np.empty((k, 3))
    # One O(n_h) pass per candidate; its first n_line values are the
    # pairings with the sample's line points.
    for i, (ai, bi) in enumerate(zip(a.tolist(), b.tolist())):
        vals = _pairing(ai, bi, qm, qp, f_qm, f_qp, v)
        m[i] = vals.min()
        t0[i] = line_ts[_three_smallest(vals[:n_line])]
    A, B = a[:, None], b[:, None]
    # Candidate-adapted line points: the window of detecting line points
    # for a pair at L1 offset d from the line has width of order d.  Each
    # row is contiguous, so np.min reduces it as it would the row alone.
    d = a - b - lam
    anchors = np.column_stack([0.5 * (a + b + lam), a, b + lam])
    ts = np.concatenate(
        [(anchors[:, :, None] + d[:, None, None] * _LINE_OFFSETS).reshape(k, -1), anchors],
        axis=1,
    )
    m = _keep_first(m, _line_pairing(A, B, ts, lam, v).min(axis=1))
    # Box points tailored to each candidate: clamped coordinates and
    # corners.  For a pair just outside the box, the pairing turns negative
    # against the nearest edge point sharing the in-range coordinate, so
    # these points make near-boundary violations detectable at any sample
    # size.  Which zero a clamp returns when 0.0 meets -0.0 does not matter:
    # no pairing value depends on the sign of a zero coordinate.
    ca = np.clip(a, v, v + lam)
    cb = np.clip(b, v - lam, v)
    vc, vl, vh = np.full(k, v), np.full(k, v - lam), np.full(k, v + lam)
    bm = np.column_stack([ca, ca, ca, vc, vh, vc, vh, vc, 0.5 * (v + ca), ca])
    bp = np.column_stack([cb, vl, vc, cb, cb, vc, vc, vl, cb, 0.5 * (v - lam + cb)])
    box = _pairing(A, B, bm, bp, _f(bm, v), _f(bp, v), v)
    m = _keep_first(m, _row_min(box, (bm - bp) <= lam))
    # Local refinement around the best coarse line parameters: each level
    # recentres on the best of 17 points and shrinks the half-width 8x.
    best = np.empty((k, 3, 3))  # candidate, line parameter, level
    h = spacing
    A, B = A[:, :, None], B[:, :, None]
    for level in range(3):
        ts = _linspace17(t0 - h, t0 + h)
        vals = _line_pairing(A, B, ts, lam, v)
        j = vals.argmin(axis=2)[..., None]
        t0 = np.take_along_axis(ts, j, axis=2)[..., 0]
        best[:, :, level] = np.take_along_axis(vals, j, axis=2)[..., 0]
        h /= 8.0
    for x in best.reshape(k, 9).T:
        m = _keep_first(m, x)
    return m


def maximality_probe(
    lam: float,
    v: float,
    n_h: int,
    candidates: Sequence[tuple[float, float]] | np.ndarray,
    boundary_tol: float = 1e-6,
) -> list[MaximalityVerdict]:
    """Test candidate trace pairs against the entropy-pairing criterion.

    A candidate passes when xi(candidate, q) >= -TAU_NUM against a dense
    sample of the closure of G1 | G2.  The base sample is refined adaptively:
    extra line points scaled by the candidate's offset from the line, and
    local refinements around the coarse minimizers, so near-boundary
    violations are not missed by the finite sample.  Each verdict
    cross-checks that a passing candidate lies in the germ with boundaries
    inflated by ``boundary_tol`` (pairs closer to the boundary than the
    pairing resolution sqrt(2*TAU_NUM) are indistinguishable from members).

    ``candidates`` is a sequence of pairs or an (n, 2) array.  Each
    candidate makes one pass over the base sample; the adapted points and
    refinements of blocks of candidates are evaluated together.
    """
    if n_h < 100:
        raise ValueError(f"need at least 100 sample points, got {n_h}")
    # rows, not columns: contiguous points read faster in the O(n_h) passes
    q = sample_maximal_subset(v, lam, n_h).T.copy()
    f_q = _f(q, v)
    n_line = max(2, n_h // 2)
    spacing = 8.0 * lam / (n_line - 1)
    pts = np.asarray(candidates, dtype=float).reshape(len(candidates), 2)
    out = []
    for start in range(0, pts.shape[0], _PROBE_BLOCK):
        block = pts[start : start + _PROBE_BLOCK]
        m = _block_min_xi(block[:, 0], block[:, 1], lam, v, q, f_q, n_line, spacing)
        for (a, b), min_xi in zip(block.tolist(), m.tolist()):
            passes = min_xi >= -TAU_NUM
            out.append(
                MaximalityVerdict(
                    point=(a, b),
                    min_xi=min_xi,
                    passes=passes,
                    region=classify((a, b), v, lam),
                    consistent=(not passes) or in_germ((a, b), v, lam, tol=boundary_tol),
                )
            )
    return out


def convergence_study(
    u0: "PiecewiseConstant",
    h0: float,
    v0: float,
    cfg: "SchemeConfig",
    levels: Sequence[float],
    reference=None,
) -> list[ConvergenceRow]:
    """Run the scheme on a ladder of mesh widths and report errors and orders.

    ``reference`` may be a ParticleRiemannProblem (exact path), a Trajectory
    (e.g. a finest-level run used as a self-consistency reference), or None
    to pick automatically: the exact solution when the datum is a two-state
    admissible profile with its jump at the particle, otherwise a run on a
    mesh twice finer than the last level.
    """
    from . import scheme

    levels = [float(dx) for dx in levels]
    if len(levels) < 3:
        raise ValueError(f"key 'dx' must list at least 3 mesh levels, got {len(levels)}")
    if any(b >= a for a, b in zip(levels, levels[1:])):
        raise ValueError("key 'dx' must list strictly decreasing mesh levels")

    if reference is None:
        reference = _auto_reference(u0, h0, v0, cfg, levels)

    rows: list[ConvergenceRow] = []
    prev: ConvergenceRow | None = None
    for dx in levels:
        traj = scheme.run(u0, h0, v0, cfg, dx)
        err_u, err_h, err_v = _errors_against(traj, reference)
        order_u = order_h = None
        if prev is not None:
            r = math.log(prev.dx / dx)
            if err_u > 0 and prev.err_u_L1 > 0:
                order_u = math.log(prev.err_u_L1 / err_u) / r
            if err_h > 0 and prev.err_h_sup > 0:
                order_h = math.log(prev.err_h_sup / err_h) / r
        row = ConvergenceRow(dx, err_u, err_h, err_v, order_u, order_h)
        rows.append(row)
        prev = row
    return rows


def _auto_reference(u0, h0, v0, cfg, levels):
    from . import scheme
    from .exact import ParticleRiemannProblem

    bps = u0.breakpoints
    if len(bps) == 1 and bps[0] == h0 and u0.values[0] > u0.values[1]:
        try:
            return ParticleRiemannProblem(
                u_minus=u0.values[0],
                u_plus=u0.values[1],
                v0=v0,
                m_p=cfg.m_p,
                lam=cfg.lam,
                h0=h0,
            )
        except ValueError:
            pass
    return scheme.run(u0, h0, v0, cfg, levels[-1] / 2.0)


def _errors_against(traj, reference):
    from .exact import ParticleRiemannProblem, germ2_path

    times = traj.times
    if isinstance(reference, ParticleRiemannProblem):
        h_ref, v_ref = germ2_path(reference, times)
        h_T = float(h_ref[-1])
        final = traj.snapshots[-1][1]
        err_u = _l1_against_two_state(
            final, h_T, reference.u_minus, reference.u_plus
        )
    else:
        h_ref = np.interp(times, reference.times, reference.h)
        idx = np.clip(
            np.searchsorted(reference.times, times, side="right") - 1,
            0,
            len(reference.times) - 1,
        )
        v_ref = reference.v[idx]
        err_u = _l1_between_grids(traj.snapshots[-1][1], reference.snapshots[-1][1])
    err_h = float(np.max(np.abs(traj.h - h_ref)))
    err_v = float(np.max(np.abs(traj.v - v_ref)))
    return err_u, err_h, err_v


def _l1_against_two_state(grid, x_jump, u_minus, u_plus) -> float:
    edges = grid.cell_edges()
    left = np.clip(x_jump - edges[:-1], 0.0, grid.dx)
    err = np.abs(grid.u - u_minus) * left + np.abs(grid.u - u_plus) * (grid.dx - left)
    return float(np.sum(err))


def _l1_between_grids(g1, g2) -> float:
    lo = max(g1.left_edge, g2.left_edge)
    hi = min(g1.right_edge, g2.right_edge)
    if hi <= lo:
        raise ValueError("grids do not overlap")
    edges = np.union1d(g1.cell_edges(), g2.cell_edges())
    edges = edges[(edges >= lo) & (edges <= hi)]
    mids = 0.5 * (edges[:-1] + edges[1:])
    lens = np.diff(edges)
    v1 = g1.u[np.clip(((mids - g1.left_edge) / g1.dx).astype(int), 0, len(g1.u) - 1)]
    v2 = g2.u[np.clip(((mids - g2.left_edge) / g2.dx).astype(int), 0, len(g2.u) - 1)]
    return float(np.sum(np.abs(v1 - v2) * lens))
