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

Everything accepts scalars or numpy arrays (broadcasting).  Each bulk flux
is one kernel: a cell half, the values each left state a and each right
state b give the face (Godunov: max(a, v) - v and v - min(b, v);
Engquist-Osher: (0.5*up)*up and (0.5*dn)*dn of the clamped distances;
Rusanov: f_v and |u - v| of both), and a face half that combines them.  On
the shifted views w[:-1], w[1:] of an array of cells it is one pass over the
faces, in which Godunov and Engquist-Osher take each half once per cell
(Rusanov's face reads both halves of both states, so it takes them on each
view).  The kernel's operations are numpy's ufuncs, each writing into an
``out`` buffer when the caller gives three, or for all-float calls the same
operations in Python's float arithmetic, which cost a fraction of numpy's
on 0-d values.  So a float call returns the bits of the same state in an
array call, and an array call given buffers allocates nothing.  A time step
makes one array call, or a float call per face on a few padded cells, and
one interface pair, or in an implicit step one or more from the velocity solve.
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


def _half_square(d, v, multiply, out):
    """f_v's arithmetic on the distance d = u - v: (0.5*d)*d - (0.5*v)*v."""
    f = multiply(d, 0.5, out=out)
    f *= d
    f -= 0.5 * v * v
    return f


def _godunov(a, b, v, ops, o0=None, o1=None, o2=None, s=None):
    # Exact Riemann flux of the convex f_v in closed form (LeVeque 2002,
    # ch. 12): max(f_v(max(a, v)), f_v(min(b, v))).  f_v is symmetric about
    # v and its rounded value never decreases with the distance from v, so
    # the flux is f_v's arithmetic on the larger of the clamped distances.
    maximum, minimum, subtract, multiply, add, absolute = ops
    p = maximum(a, v, out=o0)
    p -= v
    n = subtract(v, minimum(b, v, out=o1), out=o1)
    return _half_square(maximum(p, n, out=o0), v, multiply, o1)


def _rusanov(a, b, v, ops, o0=None, o1=None, o2=None, s=None):
    # 0.5 * (f_v(a) + f_v(b)) - 0.5 * s * (b - a).  ``s`` overrides the local
    # speed max(|a-v|, |b-v|); the interface pair passes one speed shared by
    # both of its fluxes.
    maximum, minimum, subtract, multiply, add, absolute = ops
    f = _half_square(subtract(a, v, out=o1), v, multiply, o2)
    f = add(f, _half_square(subtract(b, v, out=o1), v, multiply, o0), out=o2)
    f *= 0.5
    if s is None:
        s = maximum(
            absolute(subtract(a, v, out=o0), out=o0),
            absolute(subtract(b, v, out=o1), out=o1),
            out=o0,
        )
    visc = multiply(s, 0.5, out=o0)
    visc *= subtract(b, a, out=o1)
    return subtract(f, visc, out=o2)


def _engquist_osher(a, b, v, ops, o0=None, o1=None, o2=None, s=None):
    # up = max(a - v, 0) is max(a, v) - v, and dn = min(b - v, 0) is
    # min(b, v) - v, bit for bit
    maximum, minimum, subtract, multiply, add, absolute = ops
    up = maximum(a, v, out=o0)
    up -= v
    p = multiply(up, 0.5, out=o1)
    p *= up
    dn = minimum(b, v, out=o0)
    dn -= v
    n = multiply(dn, 0.5, out=o2)
    n *= dn
    return add(add(p, f_v(v, v), out=o1), n, out=o1)


_BULK = {
    BulkFluxKind.GODUNOV: _godunov,
    BulkFluxKind.RUSANOV: _rusanov,
    BulkFluxKind.ENGQUIST_OSHER: _engquist_osher,
}


def _max(x, y, out=None):
    # builtin max(x, y), without the cost of its iterable handling
    return y if y > x else x


def _min(x, y, out=None):
    return y if y < x else x


# The operations of the kernels: numpy's ufuncs, or for float arguments the
# same IEEE operations in Python's float arithmetic, which ignore ``out``.
_NUMPY = (np.maximum, np.minimum, np.subtract, np.multiply, np.add, np.absolute)
_FLOATS = (
    _max,
    _min,
    lambda x, y, out=None: x - y,
    lambda x, y, out=None: x * y,
    lambda x, y, out=None: x + y,
    lambda x, out=None: abs(x),
)


def _ops(a, b, v):
    """``_FLOATS`` when all three arguments are floats, ``_NUMPY`` otherwise."""
    if isinstance(a, float) and isinstance(b, float) and isinstance(v, float):
        return _FLOATS
    return _NUMPY


def bulk_flux(kind: BulkFluxKind, a, b, v, out=()):
    """Two-point numerical flux between states a (left) and b (right).

    On the shifted views w[:-1], w[1:] of an array of cells this is one pass
    over the faces between them.  ``out``, for array calls, is three float
    arrays of the result's shape to work in: the fluxes are returned in the
    second or third, the first is free again, and nothing is allocated.
    """
    return _BULK[kind](a, b, v, _ops(a, b, v), *out)


def flux_difference(faces: np.ndarray, k: int, fm: float, fp: float, out=None) -> np.ndarray:
    """Right face minus left face of each cell between the faces: entry i is
    faces[i + 1] - faces[i], except around the particle, where the interface
    pair stands: fm is the right face of cell k, the cell left of the
    particle, and fp the left face of cell k + 1."""
    d = np.subtract(faces[1:], faces[:-1], out)
    d[k] = fm - faces[k]
    d[k + 1] = faces[k + 2] - fp
    return d


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
    g, ops = _BULK[bulk], _ops(a, b, v)
    maximum, minimum = ops[0], ops[1]
    if kind is InterfaceFluxKind.G1_ONLY:
        b_sh = b + lam
        a_sh = a - lam
    else:
        b_sh = minimum(b + lam, maximum(a, v) + maximum(b - v, 0.0))
        a_sh = maximum(a - lam, minimum(b, v) - maximum(v - a, 0.0))
    s = None
    if bulk is BulkFluxKind.RUSANOV:
        s = maximum(
            maximum(abs(a - v), abs(b + lam - v)),
            maximum(abs(a - lam - v), abs(b - v)),
        )
    return g(a, b_sh, v, ops, s=s), g(a_sh, b, v, ops, s=s)


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
