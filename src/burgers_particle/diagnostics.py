"""Verification instruments: bound envelopes, conservation and entropy
residuals, flux-property probes, and convergence studies.

Probes are pure and deterministic for a given sample layout or seed; they
never mutate simulation state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .flux import BulkFluxKind, InterfaceFluxKind, bulk_flux, interface_fluxes, lipschitz_bound
from .germ import GermRegion, classify, dist1_to_H, in_germ

if TYPE_CHECKING:  # pragma: no cover
    from .scheme import FluidGrid, ParticleState, PiecewiseConstant, SchemeConfig

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
class DiagnosticsRecord:
    t: float
    momentum: float
    tv: float
    u_min: float
    u_max: float
    v: float
    accel: float
    trace_germ_dist: float


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


def _copies(c: float, k: int) -> list[float]:
    """Two floats whose exact sum is k * c: the rounded product and its
    remainder, split in integer arithmetic (c = num / 2**e)."""
    num, den = c.as_integer_ratio()
    exact = k * num
    head = float(exact)
    e = den.bit_length() - 1
    return [math.ldexp(head, -e), math.ldexp(float(exact - int(head)), -e)]


# Below this many terms ``math.fsum`` over a list beats the numpy passes of
# ``_exact_sum``: both take about 27 us at 550-600 terms (numpy 2.4, Python
# 3.11, a 2-core Xeon VM); at 12000 terms fsum takes about 7x longer.
EXACT_SUM_MIN_LEN = 600


def _fsum(x: np.ndarray, tails: Sequence[tuple[int, float]]) -> float:
    terms = x.tolist()
    for k, c in tails:
        terms += _copies(c, k)
    return math.fsum(terms)


def _exact_sum(x: np.ndarray, tails: Sequence[tuple[int, float]] = ()) -> float:
    """Correctly rounded sum(x) + sum(k * c for k, c in tails): the bits of
    ``math.fsum`` over the same terms.

    Error-free extraction (Rump, Ogita and Oishi, SISC 2008): x is scaled by
    2**s so that every |x| < 2**b with n * 2**b <= 2**53; then the integer
    parts of the n terms sum exactly in floating point, and each pass adds
    their sum into a Python int and moves on to the fractions times 2**b,
    until no fraction is left.  The tails add exactly from their integer
    ratios, and one division rounds.  Short inputs, a zero total (fsum's
    signed-zero rule) and scalings that would underflow go to ``math.fsum``.
    """
    n = x.shape[0]
    if n < EXACT_SUM_MIN_LEN:
        return _fsum(x, tails)
    b = 53 - n.bit_length()
    s = b - math.frexp(max(float(x.max()), -float(x.min())))[1]
    y = np.ldexp(x, s)
    if s < 0 and not np.array_equal(np.ldexp(y, -s), x):
        return _fsum(x, tails)
    whole = np.empty_like(y)
    scale = float(1 << b)
    total = 0
    shift = s - b  # sum(x) == total / 2**shift after each pass
    while True:
        # integer and fractional parts, as np.modf splits them but faster;
        # the subtraction is exact
        np.trunc(y, out=whole)
        y -= whole
        total = (total << b) + int(whole.sum())
        shift += b
        if not y.any():
            break
        y *= scale
    exact_tails = []  # k * c == num / 2**d
    for k, c in tails:
        num, den = c.as_integer_ratio()
        exact_tails.append((k * num, den.bit_length() - 1))
    e = max([shift, 0] + [d for _, d in exact_tails])
    total <<= e - shift
    for num, d in exact_tails:
        total += num << (e - d)
    if total == 0:
        return _fsum(x, tails)
    return total / (1 << e)


def total_momentum(grid: "FluidGrid", particle: "ParticleState") -> float:
    """m_p * v + dx * sum(u), with the cells summed exactly.

    The constant tails outside the active range enter as their exact sums
    k * c, so the correctly rounded sum has the bits ``math.fsum`` gives
    over every cell.
    """
    u, lo, hi = grid.u, grid.lo, grid.hi
    tails = ((lo, float(u[0])), (grid.n - hi, float(u[-1])))
    return particle.m_p * particle.v + grid.dx * _exact_sum(u[lo:hi], tails)


def total_variation(grid: "FluidGrid") -> float:
    """Sum of |u_j - u_{j-1}| over interfaces (including the periodic wrap)."""
    tv = float(np.sum(np.abs(np.diff(grid.u))))
    if grid.periodic:
        tv += abs(float(grid.u[0]) - float(grid.u[-1]))
    return tv


def make_record(
    grid: "FluidGrid",
    particle: "ParticleState",
    lam: float,
    t: float,
    prev_v: float | None = None,
    dt_prev: float | None = None,
) -> DiagnosticsRecord:
    p0 = grid.particle_index
    u = grid.u
    active = u[grid.lo : grid.hi]
    accel = 0.0
    if prev_v is not None and dt_prev:
        accel = abs(particle.v - prev_v) / dt_prev
    return DiagnosticsRecord(
        t=t,
        momentum=total_momentum(grid, particle),
        tv=total_variation(grid),
        u_min=float(min(active.min(), u[0], u[-1])),
        u_max=float(max(active.max(), u[0], u[-1])),
        v=particle.v,
        accel=accel,
        trace_germ_dist=dist1_to_H(
            (float(grid.u[p0]), float(grid.u[p0 + 1])), particle.v, lam
        ),
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
    top = np.maximum(u, c_arr)
    bot = np.minimum(u, c_arr)

    def g(a, b):
        return bulk_flux(cfg.bulk, a, b, v)

    def g_pm(a0, b0):
        return interface_fluxes(cfg.iface, cfg.bulk, a0, b0, v, cfg.lam)

    gm_top, gp_top = g_pm(top[p0], top[p0 + 1])
    gm_bot, gp_bot = g_pm(bot[p0], bot[p0 + 1])
    G_minus_half = gm_top - gm_bot
    G_plus_half = gp_top - gp_bot

    L_c = lipschitz_bound(
        cfg.bulk,
        cfg.iface,
        min(float(u.min()), c_minus, c_plus),
        max(float(u.max()), c_minus, c_plus),
        v,
        v,
        cfg.lam,
    )
    A = 2.0 * L_c + 2.0 / mu
    dist = dist1_to_H((c_minus, c_plus), v, cfg.lam)

    if grid.periodic:
        G = g(top, np.roll(top, -1)) - g(bot, np.roll(bot, -1))
        GR = G.copy()
        GR[p0] = G_minus_half
        GL = np.roll(G, 1)
        GL[p0 + 1] = G_plus_half
        cells = np.arange(n)
    else:
        G = g(top[:-1], top[1:]) - g(bot[:-1], bot[1:])
        GR = np.empty(n)
        GR[: n - 1] = G
        GR[n - 1] = np.nan
        GR[p0] = G_minus_half
        GL = np.empty(n)
        GL[1:] = G
        GL[0] = np.nan
        GL[p0 + 1] = G_plus_half
        cells = np.arange(1, n - 1)

    eps = np.zeros(n)
    eps[p0] = 1.0
    eps[p0 + 1] = 1.0
    resid = (
        (np.abs(u2 - c_arr) - np.abs(u - c_arr)) / dt
        + (GR - GL) / grid.dx
        - eps * (A / grid.dx) * dist
    )
    return resid[cells]


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
    tau: float = TAU_NUM,
    boundary_tol: float = 1e-6,
) -> list[MaximalityVerdict]:
    """Test candidate trace pairs against the entropy-pairing criterion.

    A candidate passes when xi(candidate, q) >= -tau against a dense sample
    of the closure of G1 | G2.  The base sample is refined adaptively: extra
    line points scaled by the candidate's offset from the line, and local
    refinements around the coarse minimizers, so near-boundary violations
    are not missed by the finite sample.  Each verdict cross-checks that a
    passing candidate lies in the germ with boundaries inflated by
    ``boundary_tol`` (pairs closer to the boundary than the pairing
    resolution sqrt(2*tau) are indistinguishable from members).

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
            passes = min_xi >= -tau
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
    dt_overrides: Sequence[float] | None = None,
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
        raise ValueError("need at least 3 mesh levels")
    if any(b >= a for a, b in zip(levels, levels[1:])):
        raise ValueError("mesh levels must be strictly decreasing")

    if reference is None:
        reference = _auto_reference(u0, h0, v0, cfg, levels)

    rows: list[ConvergenceRow] = []
    prev: ConvergenceRow | None = None
    for i, dx in enumerate(levels):
        if dt_overrides is not None:
            run_cfg = replace(cfg, dt_override=dt_overrides[i])
        else:
            run_cfg = cfg
        traj = scheme.run(u0, h0, v0, run_cfg, dx)
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
