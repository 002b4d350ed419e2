"""Reference solutions for a particle immersed in a two-state fluid profile.

When the initial fluid velocity is ``u_minus`` left of the particle and
``u_plus`` on its right with ``(u_minus, u_plus)`` admissible at the initial
particle speed, the profile travels unchanged with the particle and the
particle velocity relaxes exponentially toward the mean state.  The closed
form is cross-checked by a fixed-step RK4 integration of the drag ODE

    m_p * h''(t) = (u_minus - u_plus) * ((u_minus + u_plus)/2 - h'(t)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .germ import in_germ


@dataclass(frozen=True)
class ParticleRiemannProblem:
    """Two-state initial datum with the jump at the particle, which starts
    at h0."""

    u_minus: float
    u_plus: float
    v0: float
    m_p: float
    lam: float
    h0: float = 0.0

    def __post_init__(self):
        if self.m_p <= 0.0:
            raise ValueError(f"particle mass must be positive, got {self.m_p}")
        if not self.u_minus > self.u_plus:
            raise ValueError(
                f"need u_minus > u_plus, got ({self.u_minus}, {self.u_plus})"
            )
        if not in_germ((self.u_minus, self.u_plus), self.v0, self.lam, tol=1e-9):
            raise ValueError(
                f"({self.u_minus}, {self.u_plus}) is not admissible at speed {self.v0}"
            )

    @property
    def mean_state(self) -> float:
        return 0.5 * (self.u_minus + self.u_plus)


def germ2_exact(p: ParticleRiemannProblem, t: float):
    """Exact (h, h', u-profile) at time t for an admissible two-state datum.

    h and h' are ``germ2_path``'s closed form.  The returned profile is a
    callable x -> u(t, x).  The trace pair is checked to stay admissible at
    the current particle speed.
    """
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    h, hprime = (float(x) for x in germ2_path(p, t))
    if not in_germ((p.u_minus, p.u_plus), hprime, p.lam, tol=1e-9):
        raise RuntimeError(
            f"trace pair left the admissible set at t={t} (speed {hprime})"
        )

    def profile(x):
        return np.where(np.asarray(x) < h, p.u_minus, p.u_plus)

    return h, hprime, profile


def germ2_path(p: ParticleRiemannProblem, times) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (h(t), h'(t)) over an array of times (for error tables):
    h(t) = w*t + (v0 - w) * (m_p/du) * (1 - exp(-du*t/m_p)) + h0 with
    w = (u_minus + u_plus)/2 and du = u_minus - u_plus."""
    t = np.asarray(times, dtype=float)
    w = p.mean_state
    du = p.u_minus - p.u_plus
    decay = np.exp(-du * t / p.m_p)
    h = w * t + (p.v0 - w) * (p.m_p / du) * (1.0 - decay) + p.h0
    return h, w + (p.v0 - w) * decay


def ode_oracle(
    u_minus: float,
    u_plus: float,
    v0: float,
    m_p: float,
    t: float,
):
    """(h, h') at time t from RK4 integration of the frozen-trace drag ODE.

    Fixed step count keeps the oracle deterministic; 1e5 steps put the global
    error well below 1e-10 at desk scales.  Independent of the closed form.
    """
    if m_p <= 0.0:
        raise ValueError(f"particle mass must be positive, got {m_p}")
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if t == 0.0:
        return 0.0, v0
    k = (u_minus - u_plus) / m_p
    w = 0.5 * (u_minus + u_plus)
    dt = t / 100_000
    h, vel = 0.0, v0
    for _ in range(100_000):
        k1h, k1v = vel, k * (w - vel)
        y = vel + 0.5 * dt * k1v
        k2h, k2v = y, k * (w - y)
        y = vel + 0.5 * dt * k2v
        k3h, k3v = y, k * (w - y)
        y = vel + dt * k3v
        k4h, k4v = y, k * (w - y)
        h += (dt / 6.0) * (k1h + 2.0 * k2h + 2.0 * k3h + k4h)
        vel += (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return h, vel
