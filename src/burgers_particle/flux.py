"""Numerical fluxes for the moving-frame Burgers flux f_v(u) = u^2/2 - v*u.

Three monotone two-point bulk fluxes (Godunov, Rusanov, Engquist-Osher) and
the two interface-flux families used around the particle:

* ``MAX_GERM`` substitutes the neighbor state through the subsonic box, so
  the pair reproduces the one-sided exact fluxes on all of G1 | G2,
* ``G1_ONLY`` shifts one argument by the friction parameter and reproduces
  the exact fluxes on the line G1 only.

Both families substitute symmetrically: the two fluxes of the pair see the
same jump between their arguments.  The Rusanov pair also shares one speed,
so its stabilization terms cancel in the drag g_minus - g_plus, which stays
nondecreasing in both traces (see ``interface_fluxes``).

Everything accepts scalars or numpy arrays (broadcasting).  Each flux is
one kernel written with ``maximum``, ``minimum`` and ``abs`` alone: calls
whose states and speed are all floats pass two-float versions of the
builtins ``max``/``min``, which cost a fraction of numpy on 0-d values, and
any other call passes ``np.maximum``/``np.minimum``.  The kernels do the
same operations in the same order either way, so a float call returns the
bits of the same state in an array call.  A time step makes a few float
calls (the particle interface and the window edges); in an implicit step the
velocity solve makes the interface calls, about four, and its last one gives
the pair at the root.
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class BulkFluxKind(Enum):
    GODUNOV = "godunov"
    RUSANOV = "rusanov"
    ENGQUIST_OSHER = "eo"


class InterfaceFluxKind(Enum):
    MAX_GERM = "max-germ"
    G1_ONLY = "g1-only"


def f_v(u, v):
    """Moving-frame Burgers flux u^2/2 - v*u, written about the sonic point."""
    d = u - v
    return 0.5 * d * d - 0.5 * v * v


def _godunov(a, b, v, maximum, minimum):
    # Exact Riemann flux of the convex f_v in closed form (LeVeque 2002,
    # ch. 12): max(f_v(max(a, v)), f_v(min(b, v))).  f_v is symmetric about
    # v and its rounded value never decreases with the distance from v, so
    # this is f_v's arithmetic on the larger of the two clamped distances.
    d = maximum(maximum(a, v) - v, v - minimum(b, v))
    return 0.5 * d * d - 0.5 * v * v


def _rusanov(a, b, v, maximum, minimum, s=None):
    # ``s`` overrides the local speed max(|a-v|, |b-v|); the interface pair
    # passes one speed shared by both of its fluxes.
    if s is None:
        s = maximum(abs(a - v), abs(b - v))
    return 0.5 * (f_v(a, v) + f_v(b, v)) - 0.5 * s * (b - a)


def _engquist_osher(a, b, v, maximum, minimum):
    up = maximum(a - v, 0.0)
    dn = minimum(b - v, 0.0)
    return f_v(v, v) + 0.5 * up * up + 0.5 * dn * dn


_BULK = {
    BulkFluxKind.GODUNOV: _godunov,
    BulkFluxKind.RUSANOV: _rusanov,
    BulkFluxKind.ENGQUIST_OSHER: _engquist_osher,
}


def _max(x, y):
    # builtin max(x, y), without the cost of its iterable handling
    return y if y > x else x


def _min(x, y):
    return y if y < x else x


def _max_min(a, b, v):
    """The (maximum, minimum) pair for these arguments: two-float builtins
    when all three are floats, numpy ufuncs otherwise."""
    if isinstance(a, float) and isinstance(b, float) and isinstance(v, float):
        return _max, _min
    return np.maximum, np.minimum


def bulk_flux(kind: BulkFluxKind, a, b, v):
    """Two-point numerical flux between states a (left) and b (right)."""
    maximum, minimum = _max_min(a, b, v)
    return _BULK[kind](a, b, v, maximum, minimum)


def interface_fluxes(kind: InterfaceFluxKind, bulk: BulkFluxKind, a, b, v, lam: float):
    """Left/right fluxes (g_minus, g_plus) at the particle interface.

    ``a`` is the state in the cell left of the particle, ``b`` on the right.
    The pair is g_minus = g(a, b~) and g_plus = g(a~, b), with the shifted
    traces chosen so that both fluxes see the same jump J = b~ - a = b - a~:

    * ``G1_ONLY``: b~ = b + lam, a~ = a - lam, so J = b - a + lam;
    * ``MAX_GERM``: b~ = min(b + lam, max(a, v) + max(b - v, 0)) and
      a~ = max(a - lam, min(b, v) - max(v - a, 0)), so
      J = min(b - a + lam, max(v - a, 0) + max(b - v, 0)).  J vanishes on the
      line G1 and on the subsonic box, where the pair is exact.

    Godunov and Engquist-Osher are constant in y on g(a, y) for
    y >= max(a, v) and constant in x on g(x, b) for x <= min(b, v); the
    MAX_GERM substitution only moves arguments inside those ranges, so any
    substitution through the box gives them the same values.

    The Rusanov pair uses one speed for both fluxes,
    s = max |w - v| over w in {a, b + lam, a - lam, b}.  It bounds |f_v'| at
    every argument of the pair, and it grows with a trace only where the
    jump J has the sign that keeps each flux monotone.  With the common jump
    the stabilization terms -s*J/2 cancel in the drag,
    g_minus - g_plus = (f(a) - f(a~) + f(b~) - f(b)) / 2 whatever s is, which
    is nondecreasing in both traces (criterion 05).  A local speed per flux,
    or a jump that differs between the two fluxes, leaves a viscous
    remainder in the drag that decreases in spots.
    """
    maximum, minimum = _max_min(a, b, v)
    g = _BULK[bulk]
    if kind is InterfaceFluxKind.G1_ONLY:
        b_sh = b + lam
        a_sh = a - lam
    else:
        b_sh = minimum(b + lam, maximum(a, v) + maximum(b - v, 0.0))
        a_sh = maximum(a - lam, minimum(b, v) - maximum(v - a, 0.0))
    if bulk is BulkFluxKind.RUSANOV:
        s = maximum(
            maximum(abs(a - v), abs(b + lam - v)),
            maximum(abs(a - lam - v), abs(b - v)),
        )
        return g(a, b_sh, v, maximum, minimum, s), g(a_sh, b, v, maximum, minimum, s)
    return g(a, b_sh, v, maximum, minimum), g(a_sh, b, v, maximum, minimum)


def lipschitz_bound(
    bulk: BulkFluxKind,
    m: float,
    M: float,
    v_lo: float,
    v_hi: float,
    lam: float,
) -> float:
    """Bound on the state-slopes of all active fluxes over the invariant box.

    States are taken in ``[m - lam, M + lam]`` (the widening covers the
    shifted arguments of the interface fluxes) and speeds in ``[v_lo, v_hi]``.
    Godunov and Engquist-Osher slopes are bounded by the largest wave speed
    over that set.  The Rusanov flux has slopes up to twice the wave speed:
    its speed s is at most the wave speed and varies with the states, so the
    stabilization term contributes up to |J|/2 on top of it, where J is the
    jump between the flux's arguments.  Both arguments lie in the widened
    box, so |J| <= 2 * wave, and the factor two covers the bulk flux and the
    interface pair, whose shared speed is also taken over the widened box.
    """
    if not (np.isfinite(m) and np.isfinite(M) and np.isfinite(v_lo) and np.isfinite(v_hi)):
        raise ValueError("state and speed bounds must be finite")
    if m > M:
        raise ValueError(f"need m <= M, got m={m}, M={M}")
    if v_lo > v_hi:
        raise ValueError(f"need v_lo <= v_hi, got v_lo={v_lo}, v_hi={v_hi}")
    wave = max(abs(m - lam - v_hi), abs(M + lam - v_lo))
    if bulk is BulkFluxKind.RUSANOV:
        return 2.0 * wave
    return wave
