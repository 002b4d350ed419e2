import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from burgers_particle.diagnostics import (
    bounds_envelope,
    total_momentum,
    total_variation,
)
from burgers_particle import diagnostics, scheme
from burgers_particle.flux import (
    BulkFluxKind, InterfaceFluxKind, bulk_flux, interface_fluxes, lipschitz_bound,
)
from burgers_particle.scheme import (
    BoundaryGuardError,
    Domain,
    FluidGrid,
    ParticleState,
    PiecewiseConstant,
    SchemeConfig,
    VelocityUpdate,
    init_state,
    run,
    sample_solution,
    step,
    step_implicit,
    time_step,
)
from conftest import random_piecewise
from test_acceptance import _chain_state

BULKS = list(BulkFluxKind)
IFACES = list(InterfaceFluxKind)


def base_cfg(**kw):
    defaults = dict(lam=1.0, mu=0.25, T=1.0, m_p=1.0)
    defaults.update(kw)
    return SchemeConfig(**defaults)


# ---------------------------------------------------------------- datum


def test_piecewise_constant_eval_and_averages():
    u0 = PiecewiseConstant(breakpoints=(0.0, 1.0), values=(1.0, -1.0, 2.0))
    assert u0(-0.5) == 1.0
    assert u0(0.0) == -1.0  # right-closed at breakpoints
    assert u0(1.5) == 2.0
    edges = np.array([-1.0, -0.5, 0.25, 1.5])
    avg = u0.cell_averages(edges)
    assert avg[0] == 1.0
    assert avg[1] == pytest.approx((0.5 * 1.0 + 0.25 * (-1.0)) / 0.75)
    assert avg[2] == pytest.approx((0.75 * (-1.0) + 0.5 * 2.0) / 1.25)


def test_piecewise_constant_validation():
    with pytest.raises(ValueError):
        PiecewiseConstant(breakpoints=(0.0,), values=(1.0,))
    with pytest.raises(ValueError):
        PiecewiseConstant(breakpoints=(1.0, 0.0), values=(1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        PiecewiseConstant(breakpoints=(0.0,), values=(1.0, math.inf))


# ---------------------------------------------------------------- init_state


def test_init_breakpoint_on_interface():
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    grid, part = init_state(u0, 0.0, 0.0, base_cfg(), 0.1)
    p0 = grid.particle_index
    assert np.all(grid.u[: p0 + 1] == 1.0)
    assert np.all(grid.u[p0 + 1 :] == -1.0)
    assert grid.interface_position == pytest.approx(0.0, abs=1e-12)
    assert part == ParticleState(h=0.0, v=0.0)


def test_init_straddling_cell_average():
    u0 = PiecewiseConstant(breakpoints=(0.05,), values=(1.0, -1.0))
    grid, _ = init_state(u0, 0.0, 0.0, base_cfg(), 0.1)
    p0 = grid.particle_index
    assert grid.u[p0 + 1] == pytest.approx(0.0, abs=1e-15)  # cell [0, 0.1)
    assert np.all(grid.u[: p0 + 1] == 1.0)
    assert np.all(grid.u[p0 + 2 :] == -1.0)


def test_init_periodic_guard():
    u0 = PiecewiseConstant.riemann(0.2, -0.2, 0.0)
    ok = base_cfg(T=1.0, mu=0.5, domain=Domain.PERIODIC, half_width=6.0)
    grid, _ = init_state(u0, 0.0, 0.0, ok, 0.1)
    assert grid.periodic and grid.n == 120
    # init_state lays out any positive half width; run refuses a box below
    # the influence guard of the step it takes
    with pytest.raises(ValueError, match="'half_width'"):
        bad = base_cfg(T=1.0, mu=0.5, domain=Domain.PERIODIC, half_width=5.0)
        run(u0, 0.0, 0.0, bad, 0.1)


def test_init_aligns_mesh_at_offset_particle():
    u0 = PiecewiseConstant.riemann(0.9, -0.9, 0.3)
    grid, part = init_state(u0, 0.3, 0.1, base_cfg(), 0.07)
    assert grid.interface_position == pytest.approx(0.3, abs=1e-12)
    p0 = grid.particle_index
    assert np.all(grid.u[: p0 + 1] == 0.9)
    assert np.all(grid.u[p0 + 1 :] == -0.9)
    assert part.h == 0.3 and part.v == 0.1


def test_init_periodic_rounds_cell_count():
    u0 = PiecewiseConstant.riemann(0.1, -0.1, 0.0)
    cfg = base_cfg(T=0.1, mu=0.5, domain=Domain.PERIODIC, half_width=1.03)
    grid, _ = init_state(u0, 0.0, 0.0, cfg, 0.1)
    assert grid.n == 20  # effective half width 1.0
    assert grid.periodic


def test_init_rejects_bad_inputs():
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        init_state(u0, 0.0, 0.0, base_cfg(), -0.1)
    with pytest.raises(ValueError):
        init_state(u0, math.nan, 0.0, base_cfg(), 0.1)
    # run checks the mesh before it sizes the step or the periodic box
    periodic = base_cfg(domain=Domain.PERIODIC, half_width=1.0)
    for cfg in (base_cfg(), periodic):
        with pytest.raises(ValueError, match="cell width must be positive"):
            run(u0, 0.0, 0.0, cfg, 0.0)


def test_init_refuses_a_mesh_that_floating_point_cannot_resolve():
    # Near 1e17 floats are 16 apart: the edges h0 + k*dx with dx = 0.1 take
    # only a few distinct values, so the cells would have no width.
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 1e17)
    with pytest.raises(ValueError, match="not strictly increasing") as err:
        init_state(u0, 1e17, 0.0, base_cfg(T=0.5), 0.1)
    assert "'h0'" in str(err.value) and "'dx'" in str(err.value)
    periodic = base_cfg(T=0.5, domain=Domain.PERIODIC, half_width=10.0)
    with pytest.raises(ValueError, match="'h0' and 'dx'"):
        init_state(u0, 1e17, 0.0, periodic, 0.1)
    far = PiecewiseConstant.riemann(1.0, -1.0, 1e6)
    grid, _ = init_state(far, 1e6, 0.0, base_cfg(T=0.5), 0.1)  # resolved: laid out
    assert np.all(np.diff(grid.cell_edges()) > 0)


def test_init_refuses_a_mesh_that_floating_point_cannot_keep_uniform():
    # Near 1e15 floats are 0.125 apart: the edges h0 + k*dx with dx = 0.2
    # still increase, but their widths alternate between 0.125 and 0.25.
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 1e15)
    for cfg in (base_cfg(T=0.5), base_cfg(T=0.5, domain=Domain.PERIODIC, half_width=10.0)):
        with pytest.raises(ValueError, match="'h0' and 'dx'"):
            init_state(u0, 1e15, 0.5, cfg, 0.2)


def test_scheme_config_refuses_a_half_width_without_a_periodic_domain():
    with pytest.raises(ValueError, match="'half_width'"):
        SchemeConfig(lam=1.0, mu=0.25, T=0.5, m_p=1.0, domain=Domain.PADDED, half_width=1.0)


# ---------------------------------------------------------------- time_step


def test_time_step_cfl_only():
    # A degenerate envelope forces L = 1 at lam = 1; the CFL ratio 0.5/L
    # equals mu and the mass step 1/4 is longer.
    from burgers_particle.diagnostics import BoundsEnvelope

    env = BoundsEnvelope(m=0.0, M=0.0, v_lo=0.0, v_hi=0.0)
    dt, ratio, key = time_step(base_cfg(mu=0.5), env, 0.1)
    assert (dt, ratio, key) == (pytest.approx(0.05, rel=1e-15), 0.5, "'mu'")


def test_time_step_mass_condition_binds():
    from burgers_particle.diagnostics import BoundsEnvelope

    env = BoundsEnvelope(m=0.0, M=0.0, v_lo=0.0, v_hi=0.0)  # L = 1 at lam = 1
    dt, ratio, key = time_step(base_cfg(mu=0.5, m_p=0.1), env, 0.1)
    assert (dt, ratio, key) == (pytest.approx(0.025, rel=1e-15), pytest.approx(0.25), "'mass'")
    cfg_imp = base_cfg(mu=0.5, m_p=0.1, velocity_update=VelocityUpdate.IMPLICIT)
    dt, ratio, key = time_step(cfg_imp, env, 0.1)
    assert (dt, ratio, key) == (pytest.approx(0.05, rel=1e-15), 0.5, "'mu'")


@pytest.mark.parametrize("bulk", BULKS)
@pytest.mark.parametrize("update", list(VelocityUpdate))
def test_padded_window_holds_three_cells_per_step_beyond_the_datum(bulk, update):
    # A light particle: the mass condition sets the explicit step, several
    # times shorter than the CFL step.  The window is sized by the step the
    # run takes, so it holds at least 3 cells per step beyond the datum's
    # span on each side, and no disturbance reaches the boundary guard.
    u0 = PiecewiseConstant(breakpoints=(-0.1, 0.0, 0.1), values=(0.0, 1.0, -0.5, 0.0))
    cfg = base_cfg(T=0.002, m_p=1e-4, bulk=bulk, velocity_update=update)
    dx = 0.01
    traj = run(u0, 0.0, 0.0, cfg, dx)
    grid = traj.snapshots[0][1]
    dt = time_step(cfg, traj.env, dx)[0]
    assert (dt < 0.25 * cfg.mu * dx) is (update is VelocityUpdate.EXPLICIT)
    steps = len(traj.times) - 1
    assert steps == math.ceil(cfg.T / dt - 1e-9)
    assert round((-0.1 - grid.left_edge) / dx) >= 3 * steps
    assert round((grid.right_edge - 0.1) / dx) >= 3 * steps


_COMPACT = PiecewiseConstant(breakpoints=(-0.4, 0.0, 0.3), values=(0.0, 1.1, -0.8, 0.0))
_DATUM = PiecewiseConstant(breakpoints=(-0.1, 0.0, 0.1), values=(0.0, 1.0, -0.5, 0.0))
_RIEMANN = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
_LIGHT_IMPLICIT = dict(mu=0.5, m_p=0.002, velocity_update=VelocityUpdate.IMPLICIT)


@pytest.mark.parametrize(
    "u0,v0,kw,dx,n,n_left",
    [
        # the benchmark's compact-run (CFL-bound)
        (_COMPACT, 0.2, {}, 0.0025, 15173, 7606),
        (_COMPACT, 0.2, {}, 0.01, 3802, 1906),
        # the three implicit-light levels (implicit, CFL-bound)
        *[
            (_RIEMANN, 0.5, _LIGHT_IMPLICIT, dx, n, n_left)
            for dx, n, n_left in ((0.02, 1812, 906), (0.01, 3612, 1806), (0.005, 7212, 3606))
        ],
        (_DATUM, 0.2, dict(T=0.3, mu=0.1, bulk=BulkFluxKind.ENGQUIST_OSHER), 0.01, 1832, 916),
    ],
)
def test_cfl_windows_keep_their_cell_counts(u0, v0, kw, dx, n, n_left):
    # Pinned window sizes: the padding 3*T/ratio + 6*dx must keep its float
    # for every step the mass condition does not set, or the window moves
    # and the CLI's CSV bytes change.
    grid, _ = init_state(u0, 0.0, v0, base_cfg(**kw), dx)
    assert (grid.n, 1 - grid.j_min) == (n, n_left)


# ---------------------------------------------------------------- step


@pytest.mark.parametrize(
    "bulk,iface",
    [(b, i) for b in BULKS for i in IFACES
     if not (b is BulkFluxKind.RUSANOV and i is InterfaceFluxKind.G1_ONLY)],
)
def test_uniform_state_is_bit_exact_fixed_point(bulk, iface):
    u0 = PiecewiseConstant(breakpoints=(), values=(0.5,))
    cfg = base_cfg(T=0.0, bulk=bulk, iface=iface)
    grid, part = init_state(u0, 0.0, 0.5, cfg, 0.1)
    env = bounds_envelope(u0, 0.5, 1.0)
    dt = time_step(cfg, env, grid.dx)[0]
    g, p = grid, part
    for _ in range(20):
        g, p = step(g, p, cfg, dt)
        assert np.array_equal(g.u, grid.u)
        assert p.v == 0.5
    assert p.h == pytest.approx(20 * dt * 0.5, rel=1e-12)


def test_uniform_state_rusanov_shifted_family_keeps_velocity_only():
    # The shifted family evaluates the stabilization on (v, v + lam), so the
    # two interface cells pick up artificial diffusion; the velocity update
    # still cancels exactly.
    u0 = PiecewiseConstant(breakpoints=(), values=(0.5,))
    cfg = base_cfg(T=2.0, bulk=BulkFluxKind.RUSANOV, iface=InterfaceFluxKind.G1_ONLY)
    grid, part = init_state(u0, 0.0, 0.5, cfg, 0.1)
    env = bounds_envelope(u0, 0.5, 1.0)
    dt = time_step(cfg, env, grid.dx)[0]
    g, p = grid, part
    for _ in range(50):
        g, p = step(g, p, cfg, dt)
        assert p.v == 0.5
    assert not np.array_equal(g.u, grid.u)


def test_step_takes_the_particle_mass_from_the_config():
    # The particle state is (h, v); the config owns the mass.  One state
    # stepped under two configs that differ only in m_p gets each config's
    # velocity update v + (dt/m_p)*(fm - fp).
    assert [f.name for f in dataclasses.fields(ParticleState)] == ["h", "v"]
    grid = FluidGrid(u=[1.0] * 6 + [-1.0] * 6, dx=0.1, left_edge=-0.6, j_min=-5)
    part = ParticleState(h=0.0, v=0.5)
    dt = 0.01
    velocities = []
    for m_p in (1.0, 0.25):
        cfg = base_cfg(m_p=m_p)
        fm, fp = interface_fluxes(cfg.iface, cfg.bulk, 1.0, -1.0, part.v, cfg.lam)
        _, p = step(grid, part, cfg, dt)
        assert p.v == part.v + (dt / m_p) * (float(fm) - float(fp))
        velocities.append(p.v)
    assert velocities[0] != velocities[1]


def test_step_implicit_takes_the_particle_mass_from_the_config():
    # The implicit update solves w = v + (dt/m_p)*(g_minus - g_plus)(w) with
    # the config's m_p: one state under two configs that differ only in m_p
    # gets a root of each config's residual, up to a few roundings.
    grid = FluidGrid(u=[1.0] * 6 + [-1.0] * 6, dx=0.1, left_edge=-0.6, j_min=-5)
    part = ParticleState(h=0.0, v=0.5)
    dt = 0.01
    velocities = []
    for m_p in (1.0, 0.001):
        cfg = base_cfg(m_p=m_p, velocity_update=VelocityUpdate.IMPLICIT)
        _, p = step_implicit(grid, part, cfg, dt)
        fm, fp = interface_fluxes(cfg.iface, cfg.bulk, 1.0, -1.0, p.v, cfg.lam)
        scale = dt / m_p
        resid = p.v - part.v - scale * (float(fm) - float(fp))
        assert abs(resid) <= 1e-12 * (1.0 + scale * (abs(fm) + abs(fp)))
        velocities.append(p.v)
    assert velocities[0] != velocities[1]


def test_step_takes_the_velocity_update_its_config_names():
    # step reads cfg.velocity_update: under an implicit config it takes the
    # implicit step of that config's run, bit for bit, and step_implicit,
    # the name run calls it by for an implicit config, is step itself.
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    cfg = base_cfg(m_p=0.002, velocity_update=VelocityUpdate.IMPLICIT)
    dt = time_step(cfg, bounds_envelope(u0, 0.5, cfg.lam), 0.05)[0]
    cfg = dataclasses.replace(cfg, T=dt)
    traj = run(u0, 0.0, 0.5, cfg, 0.05)
    grid, part = step(*init_state(u0, 0.0, 0.5, cfg, 0.05), cfg, dt)
    assert step_implicit is step
    assert (part.h, part.v) == (traj.h[-1], traj.v[-1])
    assert grid.u.tobytes() == traj.snapshots[-1][1].u.tobytes()


def test_standing_interface_profile_is_preserved():
    # two-state profile admissible at zero speed: fluxes match on both sides
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    cfg = base_cfg(T=0.0, iface=InterfaceFluxKind.G1_ONLY)
    grid, part = init_state(u0, 0.0, 0.0, cfg, 0.1)
    env = bounds_envelope(u0, 0.0, 1.0)
    dt = time_step(cfg, env, grid.dx)[0]
    g, p = step(grid, part, cfg, dt)
    assert p.v == 0.0
    assert np.array_equal(g.u, grid.u)


@pytest.mark.parametrize("domain", [Domain.PADDED, Domain.PERIODIC])
def test_momentum_telescopes_across_one_step(domain, rng):
    u0 = PiecewiseConstant(breakpoints=(-0.3, 0.0, 0.4), values=(0.0, 0.8, -0.5, 0.0))
    kw = dict(domain=domain)
    if domain is Domain.PERIODIC:
        kw["half_width"] = 12.0
    cfg = base_cfg(T=1.0, **kw)
    grid, part = init_state(u0, 0.0, 0.2, cfg, 0.1)
    env = bounds_envelope(u0, 0.2, 1.0)
    dt = time_step(cfg, env, grid.dx)[0]
    before = total_momentum(grid, part, cfg)
    g, p = grid, part
    for _ in range(5):
        g, p = step(g, p, cfg, dt)
    assert total_momentum(g, p, cfg) == pytest.approx(before, abs=1e-13)


def test_guard_triggers_when_padding_too_narrow():
    # rarefaction datum: the fan spreads forever and must hit a short pad
    u0 = PiecewiseConstant.riemann(-1.0, 1.0, 0.0)
    cfg = base_cfg(T=0.05)  # padding sized for a much shorter run
    grid, part = init_state(u0, 0.0, 0.0, cfg, 0.1)
    env = bounds_envelope(u0, 0.0, 1.0)
    dt = time_step(cfg, env, grid.dx)[0]
    g, p = grid, part
    steps = 0
    with pytest.raises(BoundaryGuardError):
        for steps in range(500):
            g, p = step(g, p, cfg, dt)
    # the 44-cell window takes 24 steps; the last good range keeps exactly
    # three far-field cells a side, and the next step would spread past them
    assert (grid.n, steps, g.lo, g.hi) == (44, 24, 3, 41)


@pytest.mark.parametrize(
    "cells,raises",
    [
        # cell 1 differs from u[0]: the step would rewrite cell 0
        ([0.0] + [-1.0] * 11, True),
        # cell 1 differs from u[0] and changes
        ([0.0, 1.0] + [0.0] * 10, True),
        # cell 2 differs from u[0]: a standing shock, nothing moves there,
        # but the window no longer keeps three far-field cells on the left
        ([1.0, 1.0] + [-1.0] * 10, True),
        # cell 2 differs from u[0] and changes
        ([0.0, 0.0, 1.0] + [0.0] * 9, True),
        # the mirror images on the right: cell n - 2 differs from u[-1]
        ([1.0] * 11 + [-1.0], True),
        ([0.0] * 10 + [1.0, 0.0], True),
    ],
)
def test_guard_on_a_hand_built_grid_with_a_disturbed_guard_zone(cells, raises):
    # The guard raises when one of cells 0, 1, 2, n-3, n-2 and n-1 is off
    # the far field before or after the step; a step it lets through
    # matches the whole-window loop, leak included.
    grid = FluidGrid(u=np.array(cells), dx=0.1, left_edge=-0.6, j_min=-5)
    part = ParticleState(h=0.0, v=0.0)
    cfg = base_cfg()
    if raises:
        with pytest.raises(BoundaryGuardError):
            step(grid, part, cfg, 0.01)
        return
    u_ref, v_ref, leak_ref = _loop_reference_step(grid, part, cfg, 0.01)
    g, p = step(grid, part, cfg, 0.01)
    assert g.u.tobytes() == u_ref.tobytes()
    assert _bits(g.leak) == _bits(leak_ref) and p.v == v_ref


_guard_values = st.sampled_from([-1.0, 0.0, 0.5, 1.0]) | st.floats(-2.0, 2.0)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(8, 14),
    p0=st.integers(3, 9),
    first=_guard_values,
    last=_guard_values,
    disturbed=st.dictionaries(st.integers(0, 13), _guard_values, max_size=4),
    v=_guard_values,
    m_p=st.floats(0.01, 10.0),
    bulk=st.sampled_from(BULKS),
    iface=st.sampled_from(IFACES),
    update=st.sampled_from(list(VelocityUpdate)),
)
@example(
    n=12, p0=5, first=-1.0, last=-1.0, disturbed={0: 0.0}, v=0.0, m_p=1.0,
    bulk=BulkFluxKind.GODUNOV, iface=InterfaceFluxKind.MAX_GERM,
    update=VelocityUpdate.EXPLICIT,
)
def test_a_padded_step_keeps_the_momentum_identity_or_refuses(
    n, p0, first, last, disturbed, v, m_p, bulk, iface, update
):
    # A hand-built window with disturbances anywhere, the outermost cells
    # included: a step either raises BoundaryGuardError or keeps
    # total_momentum(after) + leak == total_momentum(before) to rounding.
    p0 = min(p0, n - 5)
    u = np.where(np.arange(n) <= p0, first, last)
    for i, value in disturbed.items():
        u[i % n] = value
    grid = FluidGrid(u=u, dx=0.1, left_edge=-0.1 * (p0 + 1), j_min=-p0)
    part = ParticleState(h=0.0, v=v)
    cfg = base_cfg(m_p=m_p, bulk=bulk, iface=iface, velocity_update=update)
    advance = step if update is VelocityUpdate.EXPLICIT else step_implicit
    try:
        g, p = advance(grid, part, cfg, 0.01)
    except BoundaryGuardError:
        return
    before = total_momentum(grid, part, cfg)
    scale = 1.0 + grid.dx * float(np.abs(u).sum()) + m_p * abs(v)
    assert abs(total_momentum(g, p, cfg) + g.leak - before) <= 1e-12 * scale


@settings(max_examples=200, deadline=None)
@given(
    cells=st.lists(_guard_values, min_size=4, max_size=10),
    right=st.booleans(),
    v=_guard_values,
    m_p=st.floats(0.01, 10.0),
    bulk=st.sampled_from(BULKS),
    iface=st.sampled_from(IFACES),
    update=st.sampled_from(list(VelocityUpdate)),
)
@example(
    cells=[1.0, -1.0, 0.5, 0.0], right=False, v=0.5, m_p=1.0, bulk=BulkFluxKind.GODUNOV,
    iface=InterfaceFluxKind.MAX_GERM, update=VelocityUpdate.EXPLICIT,
)
def test_a_periodic_step_with_the_particle_at_either_end_of_the_box(
    cells, right, v, m_p, bulk, iface, update
):
    # The particle cells are the first two of the box (j_min = 0) or the
    # last two; their outer neighbors are the wrap-around cells.  A step
    # matches the whole-box loop.
    n = len(cells)
    j_min = 2 - n if right else 0
    grid = FluidGrid(u=np.array(cells), dx=0.1, left_edge=0.1 * j_min, j_min=j_min, periodic=True)
    part = ParticleState(h=0.1, v=v)
    cfg = base_cfg(m_p=m_p, bulk=bulk, iface=iface, velocity_update=update,
                   domain=Domain.PERIODIC, half_width=0.1 * n / 2)
    u_ref, v_ref, _ = _loop_reference_step(grid, part, cfg, 0.01)
    advance = step if update is VelocityUpdate.EXPLICIT else step_implicit
    g, p = advance(grid, part, cfg, 0.01)
    assert g.u.tobytes() == u_ref.tobytes()
    assert _bits(p.v) == _bits(v_ref) and g.leak == 0.0


_SMALL = scheme.FLOAT_UPDATE_CELLS  # most updated cells of the float update


@settings(max_examples=300, deadline=None)
@given(
    active=st.lists(_guard_values, min_size=2, max_size=_SMALL + 3),
    first=_guard_values,
    last=_guard_values,
    at=st.integers(0, 20),
    sides=st.tuples(st.integers(2, 5), st.integers(2, 5)),
    v=_guard_values,
    m_p=st.floats(0.01, 10.0),
    bulk=st.sampled_from(BULKS),
    iface=st.sampled_from(IFACES),
    update=st.sampled_from(list(VelocityUpdate)),
)
@example(  # the widest float update, and one cell more: the array update
    active=[0.25 * i - 1.0 for i in range(_SMALL - 2)], first=1.0, last=-1.5, at=1, sides=(4, 4),
    v=0.5, m_p=0.5, bulk=BulkFluxKind.GODUNOV, iface=InterfaceFluxKind.MAX_GERM,
    update=VelocityUpdate.IMPLICIT,
)
@example(
    active=[0.25 * i - 1.0 for i in range(_SMALL - 1)], first=1.0, last=-1.5, at=1, sides=(4, 4),
    v=0.5, m_p=0.5, bulk=BulkFluxKind.GODUNOV, iface=InterfaceFluxKind.MAX_GERM,
    update=VelocityUpdate.IMPLICIT,
)
@example(  # implicit-light's static pair, one cell short of the guard on the right
    active=[1.0, -1.0], first=1.0, last=-1.0, at=0, sides=(3, 2), v=0.5, m_p=0.002,
    bulk=BulkFluxKind.GODUNOV, iface=InterfaceFluxKind.MAX_GERM, update=VelocityUpdate.IMPLICIT,
)
def test_a_small_padded_step_has_the_bits_of_the_loop_reference(
    active, first, last, at, sides, v, m_p, bulk, iface, update
):
    # Active ranges from the two particle cells to a few cells past the
    # float update's limit, with two to five far-field cells a side: a step
    # raises BoundaryGuardError when the grid before or after it keeps fewer
    # than three far-field cells a side, and otherwise matches the
    # whole-window loop, leak and velocity included, hex for hex.
    p0 = sides[0] + at % (len(active) - 1)
    u = np.array([first] * sides[0] + active + [last] * sides[1])
    grid = FluidGrid(u=u, dx=0.1, left_edge=-0.1 * (p0 + 1), j_min=-p0)
    part = ParticleState(h=0.0, v=v)
    cfg = base_cfg(m_p=m_p, bulk=bulk, iface=iface, velocity_update=update)
    advance = step if update is VelocityUpdate.EXPLICIT else step_implicit
    u_ref, v_ref, leak_ref = _loop_reference_step(grid, part, cfg, 0.01)
    ref = FluidGrid(u=u_ref, dx=grid.dx, left_edge=grid.left_edge, j_min=grid.j_min)
    if min(grid.lo, ref.lo) < 3 or max(grid.hi, ref.hi) > grid.n - 3:
        with pytest.raises(BoundaryGuardError):
            advance(grid, part, cfg, 0.01)
        return
    g, p = advance(grid, part, cfg, 0.01)
    assert g.u.tobytes() == u_ref.tobytes() and (g.lo, g.hi) == (ref.lo, ref.hi)
    assert _bits(g.leak) == _bits(leak_ref) and _bits(p.v) == _bits(v_ref)


_share_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]) | st.floats(-2.0, 2.0)


@settings(max_examples=300, deadline=None)
@given(
    active=st.lists(_share_values, min_size=2, max_size=_SMALL - 2),
    first=_share_values,
    last=_share_values,
    at=st.integers(0, 20),
    v=_share_values,
    m_p=st.sampled_from([0.002, 0.5, 1.0]),
    bulk=st.sampled_from(BULKS),
    iface=st.sampled_from(IFACES),
    update=st.sampled_from(list(VelocityUpdate)),
)
@example(  # implicit-light's stationary pair: every step keeps its cells
    active=[1.0, -1.0], first=1.0, last=-1.0, at=0, v=0.5, m_p=0.002,
    bulk=BulkFluxKind.GODUNOV, iface=InterfaceFluxKind.MAX_GERM, update=VelocityUpdate.IMPLICIT,
)
@example(  # a uniform zero state, from cells of both signs
    active=[-0.0, 0.0], first=0.0, last=-0.0, at=0, v=0.0, m_p=1.0,
    bulk=BulkFluxKind.RUSANOV, iface=InterfaceFluxKind.G1_ONLY, update=VelocityUpdate.EXPLICIT,
)
def test_a_float_step_shares_its_cells_exactly_when_it_keeps_their_bits(
    active, first, last, at, v, m_p, bulk, iface, update
):
    # Padded steps through the float update: a new grid shares the old
    # grid's cells if and only if its active range and cell bytes equal the
    # old grid's, which float == can decide only because no cell of any
    # state is -0.0.
    p0 = 6 + at % (len(active) - 1)
    u = np.array([first] * 6 + active + [last] * 6)
    grid = FluidGrid(u=u, dx=0.1, left_edge=-0.1 * (p0 + 1), j_min=-p0)
    part = ParticleState(h=0.0, v=v)
    cfg = base_cfg(m_p=m_p, bulk=bulk, iface=iface, velocity_update=update)
    for _ in range(3):
        if grid.hi - grid.lo + 2 > _SMALL:
            break  # the array update's range
        try:
            new, part = step(grid, part, cfg, 0.01)
        except BoundaryGuardError:
            break
        same = (new.lo, new.hi) == (grid.lo, grid.hi)
        same = same and new.cells.tobytes() == grid.cells.tobytes()
        assert (new.cells is grid.cells) == same
        for g in (grid, new):
            values = [g.first, g.last, *g.cells.tolist()]
            assert not any(x == 0.0 and math.copysign(1.0, x) < 0.0 for x in values)
        grid = new


def test_a_padded_step_allocates_its_active_cells_not_its_window():
    # The mass-bound compact datum lays out 74482 cells, 70 of them active.
    # A step stores and updates only the active cells, so its peak allocation
    # stays far below one window-sized array (596 kB).
    cfg = base_cfg(m_p=1e-3)
    grid, part = init_state(_COMPACT, 0.0, 0.2, cfg, 0.01)
    assert (grid.n, grid.hi - grid.lo) == (74482, 70)
    dt = time_step(cfg, bounds_envelope(_COMPACT, 0.2, 1.0, split=0.0), grid.dx)[0]
    grid, part = step(grid, part, cfg, dt)  # the first call of every code path
    tracemalloc.start()
    try:
        step(grid, part, cfg, dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def _face_fluxes_reference(w, k, v_flux, fm, fp, bulk):
    # Reference assembly: the bulk faces of the cells w[1:-1] as separate
    # left and right arrays, with the interface pair put in.  The one-pass
    # fluid update must give its bits.
    F = bulk_flux(bulk, w[:-1], w[1:], v_flux)
    left, right = F[:-1], F[1:].copy()
    right[k] = fm
    left[k + 1] = fp
    return left, right


def _fluid_update_reference(grid, v_flux, dt, fm, fp, bulk):
    """The window after the fluid update, and its leak, by that assembly."""
    cells, lo, hi, p0 = grid.cells, grid.lo, grid.hi, grid.particle_index
    if grid.periodic:
        a, leak = 0, 0.0
        ext = np.concatenate((cells[-1:], cells, cells[:1]))
    else:
        a = lo - 1
        ext = np.empty(hi - lo + 4)
        ext[:2], ext[2:-2], ext[-2:] = grid.first, cells, grid.last
        leak = dt * (
            bulk_flux(bulk, grid.last, grid.last, v_flux)
            - bulk_flux(bulk, grid.first, grid.first, v_flux)
        )
    left, right = _face_fluxes_reference(ext, p0 - a, v_flux, fm, fp, bulk)
    new = ext[1:-1] - (dt / grid.dx) * (right - left)
    if grid.periodic:
        return new, leak
    # the updated cells, of which those equal to the far field read as it
    new_lo, new_hi = scheme._active_range(new, a, p0, grid.first, grid.last)
    u = np.empty(grid.n)
    u[:new_lo], u[new_lo:new_hi], u[new_hi:] = grid.first, new[new_lo - a : new_hi - a], grid.last
    return u, leak


_update_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324]) | st.floats(-2.0, 2.0)


@settings(max_examples=300, deadline=None)
@given(
    middle=st.lists(_update_values, min_size=4, max_size=12),
    first=_update_values,
    last=_update_values,
    at=st.integers(0, 10),
    periodic=st.booleans(),
    v=_update_values,
    pair=st.tuples(_update_values, _update_values),
    dt=st.floats(1e-4, 0.05),
    bulk=st.sampled_from(BULKS),
)
@example(
    middle=[0.0, -0.0, 0.0, 1.0], first=-0.0, last=0.0, at=0, periodic=False, v=0.0,
    pair=(0.0, -0.0), dt=0.01, bulk=BulkFluxKind.GODUNOV,
)
def test_fluid_update_has_the_bits_of_the_face_flux_assembly(
    middle, first, last, at, periodic, v, pair, dt, bulk
):
    # The one-pass update, its patched difference and the leak through the
    # outer faces give the window and leak bits of the face_fluxes assembly,
    # in a periodic box and in a padded window with four far-field cells a
    # side.
    p0 = 4 + at % (len(middle) - 1)
    u = np.array([first] * 4 + middle + [last] * 4)
    if periodic:
        u, p0 = np.array(middle), at % (len(middle) - 1)
    grid = FluidGrid(u=u, dx=0.1, left_edge=-0.1 * (p0 + 1), j_min=-p0, periodic=periodic)
    cfg = base_cfg(bulk=bulk)
    u_ref, leak_ref = _fluid_update_reference(grid, v, dt, *pair, bulk)
    new = scheme._fluid_update(grid, v, dt, *pair, cfg, grid.left_edge)
    assert new.u.tobytes() == u_ref.tobytes()
    assert _bits(new.leak) == _bits(leak_ref)


def test_a_constructed_grid_stores_only_its_active_cells():
    # The constructor keeps a copy of the active range, not a view into a
    # window of all n cells; u is built from it on each read.
    window = np.full(1000, 0.5)
    window[498:503] = (1.0, -1.0, 2.0, 0.25, 0.75)
    grid = FluidGrid(u=window, dx=0.1, left_edge=-50.0, j_min=-499)
    assert (grid.lo, grid.hi) == (498, 503)
    assert grid.cells.base is None and grid.cells.nbytes == 8 * (grid.hi - grid.lo)
    assert grid.u.tobytes() == window.tobytes()
    assert grid.u is not grid.u  # nothing is cached


def test_a_grid_keeps_its_cells_when_the_caller_changes_its_array():
    a = np.array([0, 0, 0, 0, 1.0, 2.0, 0, 0, 0, 0])
    grid = FluidGrid(u=a, dx=0.1, left_edge=-0.5, j_min=-4)
    a[1] = 3.0
    assert (grid.lo, grid.hi) == (4, 6)
    assert grid.u.tolist() == [0, 0, 0, 0, 1.0, 2.0, 0, 0, 0, 0]
    assert not grid.u.flags.writeable and not grid.cells.flags.writeable


@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0, -0.01])
def test_a_step_names_a_time_step_that_is_not_positive_and_finite(dt):
    cfg = base_cfg()
    grid, part = init_state(PiecewiseConstant.riemann(1.0, 0.0), 0.0, 0.5, cfg, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for advance in (step, step_implicit):
            with pytest.raises(ValueError, match="time step dt must be positive and finite"):
                advance(grid, part, cfg, dt)


def _loop_reference_step(grid, part, cfg, dt):
    """Plain-loop transliteration of one step over the whole window (indexing
    oracle): returns (u_new, v_new, leak), where leak is the momentum that
    left a padded window through its edges.  The implicit update evaluates
    every flux at the root of the velocity equation."""
    from burgers_particle.flux import bulk_flux, interface_fluxes
    from burgers_particle.scheme import _solve_implicit_velocity

    u = grid.u
    n = grid.n
    p0 = grid.particle_index
    mu = dt / grid.dx
    v = part.v
    if cfg.velocity_update is VelocityUpdate.IMPLICIT:
        v = _solve_implicit_velocity(float(u[p0]), float(u[p0 + 1]), part, cfg, dt)[0]
    fm, fp = interface_fluxes(cfg.iface, cfg.bulk, float(u[p0]), float(u[p0 + 1]), v, cfg.lam)
    fm, fp = float(fm), float(fp)

    def flux(i, j):
        return float(bulk_flux(cfg.bulk, float(u[i]), float(u[j]), v))

    def iface_flux(i):
        # flux between cell i and cell i+1 (mod n when periodic)
        j = (i + 1) % n if grid.periodic else i + 1
        if i == p0:
            return None  # replaced by the pair
        return flux(i, j)

    u_new = u.copy()
    cells = range(n) if grid.periodic else range(1, n - 1)
    for k in cells:
        right = fm if k == p0 else iface_flux(k)
        left_i = (k - 1) % n if grid.periodic else k - 1
        left = fp if k == p0 + 1 else iface_flux(left_i)
        u_new[k] = u[k] - mu * (right - left)
    leak = 0.0
    if not grid.periodic:
        u_new[0] = u_new[1]
        u_new[-1] = u_new[-2]
        leak = dt * (flux(n - 2, n - 1) - flux(0, 1))
    v_new = part.v + (dt / cfg.m_p) * (fm - fp)
    return u_new, v_new, leak


@pytest.mark.parametrize("domain", [Domain.PADDED, Domain.PERIODIC])
@pytest.mark.parametrize("bulk", BULKS)
def test_step_matches_loop_reference(domain, bulk, rng):
    u0 = random_piecewise(rng, value_range=(-1.5, 1.5))
    kw = {"half_width": 9.0} if domain is Domain.PERIODIC else {}
    for iface in IFACES:
        cfg = base_cfg(T=0.2, bulk=bulk, iface=iface, domain=domain, **kw)
        grid, part = init_state(u0, 0.0, 0.2, cfg, 0.1)
        env = bounds_envelope(u0, 0.2, 1.0)
        dt = time_step(cfg, env, grid.dx)[0]
        for _ in range(3):
            u_ref, v_ref, _ = _loop_reference_step(grid, part, cfg, dt)
            grid, part = step(grid, part, cfg, dt)
            assert np.array_equal(grid.u, u_ref)
            assert part.v == v_ref


def _bits(x) -> str:
    return float(x).hex()


_COLUMNS = (
    "times", "h", "v", "boundary_flux", "momentum", "tv", "u_min", "u_max", "accel",
    "trace_germ_dist",
)


def _every_state(u0, h0, v0, cfg, dx):
    """Snapshot times that make run(u0, h0, v0, cfg, dx) store every state:
    the times of an identical first run."""
    return tuple(run(u0, h0, v0, cfg, dx).times.tolist())


def _reference_run(u0, h0, v0, cfg, dx):
    """Full-window transliteration of a run that stores every state: every cell is
    updated every step and every diagnostic sums the whole window.  Returns
    the states (t, u) and every Trajectory column by name."""
    from burgers_particle.germ import dist1_to_H

    env = bounds_envelope(u0, v0, cfg.lam, split=h0)
    grid, part = init_state(u0, h0, v0, cfg, dx)
    dt_nom = time_step(cfg, env, grid.dx)[0]
    p0 = grid.particle_index

    def record(g, p, t, bflux, accel):
        u = g.u
        tv = float(np.sum(np.abs(np.diff(u))))
        if g.periodic:
            tv += abs(float(u[0]) - float(u[-1]))
        return (
            t,
            p.h,
            p.v,
            bflux,
            cfg.m_p * p.v + g.dx * math.fsum(u.tolist()),
            tv,
            float(u.min()),
            float(u.max()),
            accel,
            dist1_to_H((float(u[p0]), float(u[p0 + 1])), p.v, cfg.lam),
        )

    states = [(0.0, grid.u)]
    rows = [record(grid, part, 0.0, 0.0, 0.0)]
    t = 0.0
    eps = 1e-12 * max(1.0, cfg.T)
    while t < cfg.T - eps:
        remaining = cfg.T - t
        dt, t_next = (remaining, cfg.T) if dt_nom >= remaining - eps else (dt_nom, t + dt_nom)
        u_new, v_new, leak = _loop_reference_step(grid, part, cfg, dt)
        grid = FluidGrid(
            u=u_new,
            dx=grid.dx,
            left_edge=grid.left_edge + part.v * dt,
            j_min=grid.j_min,
            periodic=grid.periodic,
        )
        prev_v = part.v
        part = ParticleState(h=part.h + part.v * dt, v=v_new)
        t = t_next
        states.append((t, grid.u))
        rows.append(record(grid, part, t, rows[-1][3] + leak, abs(part.v - prev_v) / dt))
    return states, dict(zip(_COLUMNS, zip(*rows)))


def _assert_matches_reference(traj, states, columns, min_states=11):
    assert len(traj.snapshots) == len(states) >= min_states
    for (t, grid), (t_ref, u_ref) in zip(traj.snapshots, states):
        assert t == t_ref
        assert grid.u.tobytes() == u_ref.tobytes()
    # every array column of the trajectory, hex for hex
    arrays = [f.name for f in dataclasses.fields(traj) if isinstance(getattr(traj, f.name), np.ndarray)]
    assert sorted(arrays) == sorted(columns)
    for name, ref in columns.items():
        col = getattr(traj, name)
        assert col.dtype == np.float64, name
        assert [_bits(x) for x in col] == [_bits(x) for x in ref], name


@pytest.mark.parametrize("update", list(VelocityUpdate))
@pytest.mark.parametrize("bulk", BULKS)
@pytest.mark.parametrize("iface", IFACES)
def test_run_matches_full_window_reference(iface, bulk, update):
    # Unequal, nonzero far-field values whose waves move outward: the active
    # range widens, the tails enter the momentum as exact sums, and momentum
    # leaks through the window edges.
    u0 = PiecewiseConstant(breakpoints=(-0.3, 0.0, 0.25), values=(-0.6, 1.1, -0.7, 0.9))
    cfg = base_cfg(T=0.3, m_p=0.5, bulk=bulk, iface=iface, velocity_update=update)
    traj = run(u0, 0.0, 0.2, cfg, 0.05, snapshot_times=_every_state(u0, 0.0, 0.2, cfg, 0.05))
    _assert_matches_reference(traj, *_reference_run(u0, 0.0, 0.2, cfg, 0.05))
    assert traj.boundary_flux[-1] != 0.0
    first, last = traj.snapshots[0][1], traj.snapshots[-1][1]
    assert 1 < last.lo < first.lo and first.hi < last.hi < last.n - 1


_piece_values = st.floats(-1.5, 1.5, allow_nan=False)


@settings(max_examples=30, deadline=None)
@given(
    breakpoints=st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=4, unique=True),
    data=st.data(),
    v0=st.floats(-1.0, 1.0),
    bulk=st.sampled_from(BULKS),
    iface=st.sampled_from(IFACES),
    update=st.sampled_from(list(VelocityUpdate)),
)
def test_run_matches_full_window_reference_on_random_data(
    breakpoints, data, v0, bulk, iface, update
):
    # Random padded piecewise-constant data with unequal far fields: every
    # state and every column of the compact run has the bits of the loop
    # that updates and sums the whole window.
    values = data.draw(
        st.lists(_piece_values, min_size=len(breakpoints) + 1, max_size=len(breakpoints) + 1)
        .filter(lambda vals: vals[0] != vals[-1]),
        label="values",
    )
    u0 = PiecewiseConstant(breakpoints=tuple(sorted(breakpoints)), values=tuple(values))
    cfg = base_cfg(T=0.2, m_p=0.5, bulk=bulk, iface=iface, velocity_update=update)
    traj = run(u0, 0.0, v0, cfg, 0.05, snapshot_times=_every_state(u0, 0.0, v0, cfg, 0.05))
    _assert_matches_reference(traj, *_reference_run(u0, 0.0, v0, cfg, 0.05))


def test_negative_zero_pieces_match_the_full_window_reference():
    # A -0.0 piece next to a 0.0 far field: cells outside the active range
    # read as the far-field value, in the grid and in the record alike.
    u0 = PiecewiseConstant(breakpoints=(-0.4, -0.2, 0.1), values=(0.0, -0.0, 1.0, 0.5))
    cfg = base_cfg(T=0.2, m_p=0.5)
    traj = run(u0, 0.0, 0.1, cfg, 0.05, snapshot_times=_every_state(u0, 0.0, 0.1, cfg, 0.05))
    _assert_matches_reference(traj, *_reference_run(u0, 0.0, 0.1, cfg, 0.05))


@pytest.mark.parametrize("domain", list(Domain))
def test_run_matches_full_window_reference_on_long_sums(domain):
    # Long sums: the records must have the bits of fsum and np.sum over the
    # whole window.  The periodic box sums all its cells; the padded active
    # range starts below 600 cells and ends above, so the rows of a record
    # block differ in width.
    u0 = PiecewiseConstant(breakpoints=(-5.9, 0.0, 5.9), values=(-0.6, 1.1, -0.7, 0.9))
    kw = {"half_width": 6.5} if domain is Domain.PERIODIC else {}
    cfg = base_cfg(T=0.15, m_p=0.5, bulk=BulkFluxKind.ENGQUIST_OSHER, domain=domain, **kw)
    traj = run(u0, 0.0, 0.2, cfg, 0.02, snapshot_times=_every_state(u0, 0.0, 0.2, cfg, 0.02))
    _assert_matches_reference(traj, *_reference_run(u0, 0.0, 0.2, cfg, 0.02))
    sizes = [grid.hi - grid.lo for _, grid in traj.snapshots]
    if domain is Domain.PERIODIC:
        assert min(sizes) >= 600
    else:
        assert sizes[0] < 600 <= sizes[-1]


def _record_blocks(monkeypatch, cells=None):
    """The states of each make_record call of run, one list per call; with
    ``cells``, cap the blocks at that many cell values."""
    if cells is not None:
        monkeypatch.setattr(diagnostics, "RECORD_BLOCK_CELLS", cells)
    blocks = []
    real = scheme.make_record

    def make_record(block, cfg):
        blocks.append(list(block.states))
        return real(block, cfg)

    monkeypatch.setattr(scheme, "make_record", make_record)
    return blocks


@pytest.mark.parametrize("domain", list(Domain))
@pytest.mark.parametrize("every_state", [True, False])
def test_run_records_across_block_boundaries(domain, every_state, monkeypatch):
    # Small blocks: the run's states split into several make_record calls,
    # and the last block is shorter than the others.  Every column keeps
    # its bits; a run that stores no extra state has the columns of the run
    # that stores every state.  The blocks hold the run's own grids, no copies.
    u0 = PiecewiseConstant(breakpoints=(-0.3, 0.0, 0.25), values=(-0.6, 1.1, -0.7, 0.9))
    kw = {"half_width": 9.0} if domain is Domain.PERIODIC else {}
    cfg = base_cfg(T=0.3, m_p=0.5, domain=domain, **kw)
    reference = _reference_run(u0, 0.0, 0.2, cfg, 0.05)
    times = _every_state(u0, 0.0, 0.2, cfg, 0.05)
    full = run(u0, 0.0, 0.2, cfg, 0.05, snapshot_times=times)
    # three states of the 360-cell periodic box per block
    blocks = _record_blocks(monkeypatch, cells=3 * (360 + 2 * 128))
    traj = run(u0, 0.0, 0.2, cfg, 0.05, snapshot_times=times if every_state else ())
    sizes = [len(states) for states in blocks]
    assert len(sizes) > 2 and sum(sizes) == len(traj.times)
    assert sizes[-1] < max(sizes)
    grids = [grid for states in blocks for grid, _ in states]
    stored = [grid for _, grid in traj.snapshots]
    assert grids[0] is stored[0] and grids[-1] is stored[-1]
    assert [p.v for states in blocks for _, p in states] == traj.v.tolist()
    if every_state:
        assert len(grids) == len(stored) and all(a is b for a, b in zip(grids, stored))
        _assert_matches_reference(traj, *reference)
    for name in _COLUMNS:
        assert getattr(traj, name).tobytes() == getattr(full, name).tobytes(), name


@pytest.mark.parametrize("domain", list(Domain))
@pytest.mark.parametrize("T", [0.0, 0.005])
def test_run_records_a_single_block_of_one_or_two_states(domain, T, monkeypatch):
    # T = 0 records the initial state alone; T = 0.005 is a single step
    # (the nominal step is 1/180).
    u0 = PiecewiseConstant(breakpoints=(-0.3, 0.0, 0.25), values=(-0.6, 1.1, -0.7, 0.9))
    kw = {"half_width": 4.0} if domain is Domain.PERIODIC else {}
    cfg = base_cfg(T=T, m_p=0.5, domain=domain, **kw)
    times = _every_state(u0, 0.0, 0.2, cfg, 0.05)
    blocks = _record_blocks(monkeypatch)
    traj = run(u0, 0.0, 0.2, cfg, 0.05, snapshot_times=times)
    states, columns = _reference_run(u0, 0.0, 0.2, cfg, 0.05)
    assert [len(b) for b in blocks] == [len(states)] == [1 if T == 0.0 else 2]
    _assert_matches_reference(traj, states, columns, min_states=len(states))


def test_an_unchanged_state_shares_its_cells_and_takes_one_record_row(monkeypatch):
    # implicit-light's datum at its coarsest level: the stationary profile
    # keeps its cells bit for bit while v relaxes, so from the first steady
    # step on the grids share one cells object, and make_record sums one
    # row per distinct cells object of a block.  Every column keeps the bits
    # of the per-state definitions.
    cfg = base_cfg(**_LIGHT_IMPLICIT)
    times = _every_state(_RIEMANN, 0.0, 0.5, cfg, 0.02)
    rows = []
    real = diagnostics._exact_sum

    def exact_sum(x, tails, extremes, scratch):
        rows.append(x.shape[0])
        return real(x, tails, extremes, scratch)

    monkeypatch.setattr(diagnostics, "_exact_sum", exact_sum)
    blocks = _record_blocks(monkeypatch)
    traj = run(_RIEMANN, 0.0, 0.5, cfg, 0.02, snapshot_times=times)
    grids = [grid for _, grid in traj.snapshots]
    shared = [b.cells is a.cells for a, b in zip(grids, grids[1:])]
    assert len(grids) == 301 and all(shared[shared.index(True) :])
    assert rows == [len({id(grid.cells) for grid, _ in states}) for states in blocks]
    assert sum(rows) < len(blocks) + 2
    _assert_matches_reference(traj, *_reference_run(_RIEMANN, 0.0, 0.5, cfg, 0.02))


def test_run_propagates_a_guard_error_raised_inside_a_block(monkeypatch):
    # The fifth step raises while its block still waits for make_record:
    # the error reaches the caller, no record is made, and run returns
    # nothing.
    blocks = _record_blocks(monkeypatch)
    real_step = scheme.step
    steps = []

    def step(grid, particle, cfg, dt):
        steps.append(dt)
        if len(steps) == 5:
            raise BoundaryGuardError("disturbance reached the padded boundary; enlarge the domain")
        return real_step(grid, particle, cfg, dt)

    monkeypatch.setattr(scheme, "step", step)
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    result = []
    with pytest.raises(BoundaryGuardError):
        result.append(run(u0, 0.0, 0.5, base_cfg(T=0.5), 0.05))
    assert len(steps) == 5 and blocks == [] and result == []


@pytest.mark.parametrize(
    "kw,keys",
    [
        ({"mu": 1e-9}, ("'T'", "'mu'", "'dx'")),  # about 3e10 cells of padding
        ({"mu": 5e-324}, ("'T'", "'mu'", "'dx'")),  # 3*T/mu overflows to inf
        ({"T": 0.01, "m_p": 1e-12}, ("'T'", "'mass'", "'dx'")),  # 1.2e11 mass-bound steps
        ({"domain": Domain.PERIODIC, "half_width": 1e6}, ("'half_width'", "'dx'")),
    ],
)
def test_init_state_refuses_oversized_windows(kw, keys):
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    with pytest.raises(ValueError, match="more than 10000000") as err:
        init_state(u0, 0.0, 0.0, base_cfg(**kw), 0.1)
    assert all(key in str(err.value) for key in keys)


def test_run_refuses_a_periodic_box_below_the_guard_before_laying_it_out():
    # 2*10^6 cells against a guard of 180000 half-width units: run refuses
    # from the config and dx alone, without averaging the box (66 MB).
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    cfg = base_cfg(T=1e4, domain=Domain.PERIODIC, half_width=1000.0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="periodic 'half_width' 1000.0 is below"):
            run(u0, 0.0, 0.0, cfg, 0.001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


def test_init_state_counts_whole_cells_against_the_limit():
    # The CFL ratio mu = 0.05 sets the step (L = 4, so the mass step 1/16 is
    # longer).  Unrounded, the window holds 4999999.3 + 5000000.6 < 10^7
    # cells; each side rounds up to whole cells, 10000001 in all, which is
    # refused.
    u0 = PiecewiseConstant(breakpoints=(0.0, 1.3), values=(0.0, 1.0, 0.0))
    cfg = base_cfg(T=4999993.3 * 0.05 / 3.0, mu=0.05)
    with pytest.raises(ValueError, match="would hold 10000001 cells.*check 'T', 'mu'"):
        init_state(u0, 0.0, 0.0, cfg, 1.0)


def test_implicit_boundary_flux_uses_the_flux_speed():
    # The implicit step evaluates every flux at the root w of the velocity
    # equation; the window-edge leak must use w too, not v^{n+1}, which
    # differs from w by the solver residual.
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    cfg = base_cfg(T=0.5, mu=0.5, m_p=0.002, velocity_update=VelocityUpdate.IMPLICIT)
    traj = run(u0, 0.0, 0.5, cfg, 0.01)
    mom = traj.momentum
    assert traj.boundary_flux[-1] != 0.0
    assert np.abs(mom + traj.boundary_flux - mom[0]).max() <= 1e-16


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.3, 0.8, 1.2]), min_size=1, max_size=5),
    cuts=st.lists(st.floats(-0.6, 0.6), min_size=4, max_size=4),
    v0=st.sampled_from([-0.5, 0.0, 0.2, 0.7]),
    bulk=st.sampled_from(BULKS),
    iface=st.sampled_from(IFACES),
    update=st.sampled_from(list(VelocityUpdate)),
)
def test_active_range_holds_every_changed_cell(values, cuts, v0, bulk, iface, update):
    # After every step the carried range equals the range recomputed from
    # u alone: cells left of lo equal u[0], cells from hi on equal u[-1], and
    # it is as tight as the particle cells allow.
    bps = tuple(sorted(set(cuts)))[: len(values) - 1]
    u0 = PiecewiseConstant(breakpoints=bps, values=tuple(values[: len(bps) + 1]))
    cfg = base_cfg(T=0.3, bulk=bulk, iface=iface, velocity_update=update)
    grid, part = init_state(u0, 0.0, v0, cfg, 0.05)
    dt = time_step(cfg, bounds_envelope(u0, v0, 1.0), grid.dx)[0]
    advance = step if update is VelocityUpdate.EXPLICIT else step_implicit
    for _ in range(12):
        grid, part = advance(grid, part, cfg, dt)
        u, lo, hi, p0 = grid.u, grid.lo, grid.hi, grid.particle_index
        assert np.all(u[:lo] == u[0]) and np.all(u[hi:] == u[-1])
        assert lo <= p0 and p0 + 2 <= hi
        fresh = FluidGrid(u=u, dx=grid.dx, left_edge=grid.left_edge, j_min=grid.j_min)
        assert (lo, hi) == (fresh.lo, fresh.hi)


def test_step_rejects_bad_dt():
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    cfg = base_cfg()
    grid, part = init_state(u0, 0.0, 0.0, cfg, 0.1)
    with pytest.raises(ValueError):
        step(grid, part, cfg, 0.0)


# ---------------------------------------------------------------- implicit


def test_implicit_uniform_fixed_point():
    u0 = PiecewiseConstant(breakpoints=(), values=(0.3,))
    cfg = base_cfg(T=0.0, velocity_update=VelocityUpdate.IMPLICIT)
    grid, part = init_state(u0, 0.0, 0.3, cfg, 0.1)
    g, p = step_implicit(grid, part, cfg, 0.01)
    assert abs(p.v - 0.3) <= 1e-12
    assert np.array_equal(g.u, grid.u)


def test_implicit_matches_explicit_to_second_order():
    u0 = PiecewiseConstant.riemann(1.0, 0.8, 0.0)
    cfg_e = base_cfg(T=0.0, mu=0.5)
    cfg_i = base_cfg(T=0.0, mu=0.5, velocity_update=VelocityUpdate.IMPLICIT)
    diffs = []
    for dt in (0.01, 0.005):
        grid, part = init_state(u0, 0.0, 0.1, cfg_e, 0.1)
        _, pe = step(grid, part, cfg_e, dt)
        _, pi = step_implicit(grid, part, cfg_i, dt)
        diffs.append(abs(pe.v - pi.v))
    assert 3.5 <= diffs[0] / diffs[1] <= 4.5


def test_implicit_solve_brackets_and_ends_at_its_rounding_bound(monkeypatch):
    # Every flux/family pair, state centres from 0 to 1e6 and dt/m_p from
    # 1e-8 to 1e8: the bracket ends straddle the root, and the solve returns
    # a point of the bracket whose residual is within its rounding bound, or
    # an end of a bracket with no float inside.  Each Ridders round at least
    # halves the bracket, and no case takes more than 38 flux calls.
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return interface_fluxes(*args)

    monkeypatch.setattr(scheme, "interface_fluxes", counted)
    rng = np.random.default_rng(0)
    eps4 = 4.0 * np.finfo(float).eps
    for bulk in BULKS:
        for iface in IFACES:
            for centre in (0.0, 1.0, 1e3, 1e6):
                for _ in range(50):
                    lam, m_p, dt = (10.0 ** rng.uniform([-1, -8, -6], [1, 2, 0])).tolist()
                    u0, u1, v = (centre * rng.choice([-1, 1]) + rng.uniform(-3, 3, 3)).tolist()
                    cfg = base_cfg(lam=lam, m_p=m_p, bulk=bulk, iface=iface)

                    def resid(w):
                        gm, gp = interface_fluxes(iface, bulk, u0, u1, w, lam)
                        bound = eps4 * (abs(w) + abs(v) + dt / m_p * (abs(gm) + abs(gp)))
                        return w - v - dt / m_p * (gm - gp), bound

                    lo, hi = min(u0, u1, v) - lam, max(u0, u1, v) + lam
                    assert resid(lo)[0] < 0.0 < resid(hi)[0]
                    calls[0] = 0
                    w = scheme._solve_implicit_velocity(
                        u0, u1, ParticleState(h=0.0, v=v), cfg, dt
                    )[0]
                    assert calls[0] <= 38
                    assert lo <= w <= hi
                    r, bound = resid(w)
                    if abs(r) > bound:  # collapsed: w is the better of two adjacent ends
                        r_next = resid(math.nextafter(w, hi if r < 0.0 else lo))[0]
                        assert r_next * r < 0.0 and abs(r) <= abs(r_next)


def _count_calls(monkeypatch, *names):
    """Count the calls made through the scheme module's globals ``names``."""
    calls = [0]

    def counted(real):
        def call(*args):
            calls[0] += 1
            return real(*args)
        return call

    for name in names:
        monkeypatch.setattr(scheme, name, counted(getattr(scheme, name)))
    return calls


def test_implicit_solve_makes_fewer_calls_on_the_mean_than_from_the_bracket_ends(monkeypatch):
    # The 1200 random cases of the bracket test above, drawn the same way:
    # the solve that evaluated both bracket ends first made 10147 calls on
    # them, the Illinois solve from v^n 8115 and Ridders' rounds from v^n
    # 8040.  A change to the solve must not make more in total.
    calls = _count_calls(monkeypatch, "interface_fluxes")
    rng = np.random.default_rng(0)
    for bulk in BULKS:
        for iface in IFACES:
            for centre in (0.0, 1.0, 1e3, 1e6):
                for _ in range(50):
                    lam, m_p, dt = (10.0 ** rng.uniform([-1, -8, -6], [1, 2, 0])).tolist()
                    u0, u1, v = (centre * rng.choice([-1, 1]) + rng.uniform(-3, 3, 3)).tolist()
                    cfg = base_cfg(lam=lam, m_p=m_p, bulk=bulk, iface=iface)
                    scheme._solve_implicit_velocity(
                        u0, u1, ParticleState(h=0.0, v=v), cfg, dt
                    )
    assert calls[0] <= 8115


def test_an_implicit_step_at_equilibrium_makes_one_flux_call(monkeypatch):
    # A state at rest (r(v^n) = 0 exactly), and implicit-light's static
    # 1 | -1 pair once its light particle has reached equilibrium with the
    # traces: each solve evaluates r(v^n), finds it within its rounding
    # bound, and returns v^n with that interface pair, which the step reuses.
    # A grid rebuilt through the constructor carries no fixed-point mark, so
    # its step solves; the loop's own grids are marked, and their steps make
    # no call at all.
    calls = _count_calls(monkeypatch, "interface_fluxes")
    cfg = base_cfg(velocity_update=VelocityUpdate.IMPLICIT)
    w = scheme._solve_implicit_velocity(0.3, 0.3, ParticleState(h=0.0, v=0.3), cfg, 0.01)
    assert w[0] == 0.3
    assert calls[0] == 1
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    cfg = base_cfg(mu=0.5, m_p=0.002, velocity_update=VelocityUpdate.IMPLICIT)
    grid, part = init_state(u0, 0.0, 0.5, cfg, 0.005)
    dt = time_step(cfg, bounds_envelope(u0, 0.5, 1.0), grid.dx)[0]
    for _ in range(100):
        grid, part = step_implicit(grid, part, cfg, dt)
    assert grid.fixed is not None
    for _ in range(5):
        calls[0] = 0
        rebuilt = FluidGrid(grid.u, grid.dx, grid.left_edge, grid.j_min)
        g, p = step_implicit(rebuilt, part, cfg, dt)
        assert calls[0] == 1 and p.v == part.v
        assert g.cells.tolist() == rebuilt.cells.tolist() == [1.0, -1.0]
        calls[0] = 0
        g, p = step_implicit(grid, part, cfg, dt)
        assert calls[0] == 0 and p.v == part.v
        assert g.cells is grid.cells and g.cells.tolist() == [1.0, -1.0]
        grid, part = g, p


def _state_bits(state):
    grid, part = state
    return (
        grid.cells.tobytes(), grid.lo, grid.hi, _bits(grid.first), _bits(grid.last),
        _bits(grid.leak), _bits(grid.left_edge), _bits(part.h), _bits(part.v),
    )


@pytest.mark.parametrize("u0, v0, v", [
    (_RIEMANN, 0.0, 0.0), (_RIEMANN, 0.0, -0.0), (_RIEMANN, 0.5, None),
    (PiecewiseConstant.riemann(1.5, -0.5), 0.5, None),
])
@pytest.mark.parametrize("update", list(VelocityUpdate))
def test_a_step_from_a_marked_grid_has_the_bits_of_a_full_step(update, u0, v0, v, monkeypatch):
    # implicit-light's stationary profile 1 | -1 is a fixed point of both
    # updates with the particle at rest, and with the equilibrium speed
    # (about 5e-17) that a particle starting at 0.5 relaxes to; so is the
    # profile moved by 0.5 (Galilean invariance) with the particle at 0.5.
    # Each step keeps the cells and v's bits, and marks its grid.  From that
    # grid, a step with the same v bits (v = None: the particle's own), dt
    # and cfg object moves grid and particle and evaluates no flux; with
    # v = -0.0 (the full step gives 0.0), another dt or an equal but
    # distinct cfg it takes the full step.  Either way the result has the
    # bits of the full step from the grid rebuilt through the constructor,
    # which carries no mark.
    cfg = base_cfg(**dict(_LIGHT_IMPLICIT, velocity_update=update))
    grid, part = init_state(u0, 0.0, v0, cfg, 0.02)
    dt = time_step(cfg, bounds_envelope(u0, v0, 1.0), grid.dx)[0]
    assert grid.fixed is None
    for _ in range(400):
        grid, part = step(grid, part, cfg, dt)
        if grid.fixed is not None:
            break
    assert grid.fixed == (part.v, dt, cfg) and grid.fixed[2] is cfg
    if v is not None:
        part = ParticleState(h=part.h, v=v)
    rebuilt = FluidGrid(grid.u, grid.dx, grid.left_edge, grid.j_min)
    assert rebuilt.fixed is None
    calls = _count_calls(monkeypatch, "bulk_flux", "interface_fluxes")
    other = dataclasses.replace(cfg)
    assert other == cfg and other is not cfg
    shortcut = v is None or math.copysign(1.0, v) > 0.0
    for c, d, free in ((cfg, dt, shortcut), (cfg, 0.5 * dt, False), (other, dt, False)):
        calls[0] = 0
        full = step(rebuilt, part, c, d)
        assert calls[0] > 0
        calls[0] = 0
        new = step(grid, part, c, d)
        assert (calls[0] == 0) == free
        assert _state_bits(new) == _state_bits(full)
        assert new[0].cells is grid.cells and new[0].fixed == full[0].fixed
        if free:
            assert new[0].fixed is grid.fixed
        elif new[0].fixed is not None:  # marked for its own inputs
            assert new[0].fixed[1:] == (d, c) and new[0].fixed[2] is c
        if v == 0.0 and math.copysign(1.0, v) < 0.0:  # the full step gives 0.0
            assert new[0].fixed is None


def test_a_periodic_run_never_marks_its_grids(monkeypatch):
    # A uniform box at rest is a fixed point too, but a periodic step takes
    # the array update, whose new cells are never the old ones: every step
    # evaluates its fluxes.
    cfg = base_cfg(T=0.1, domain=Domain.PERIODIC, half_width=2.0)
    u0 = PiecewiseConstant((), (0.0,))
    times = _every_state(u0, 0.0, 0.0, cfg, 0.05)
    calls = _count_calls(monkeypatch, "bulk_flux", "interface_fluxes")
    traj = run(u0, 0.0, 0.0, cfg, 0.05, snapshot_times=times)
    grids = [grid for _, grid in traj.snapshots]
    assert len(grids) == len(traj.times) > 5
    assert all(g.fixed is None for g in grids)
    assert traj.v.tolist() == [0.0] * len(grids) and calls[0] >= 2 * (len(grids) - 1)


def test_an_implicit_stiff_transient_takes_at_most_six_flux_calls_a_step(monkeypatch):
    # compact-run's datum with a light particle: 2480 implicit steps, most
    # of them away from equilibrium, as the passing waves keep moving the
    # traces.  Ridders' rounds take at most 6 calls a step here (5.31 on
    # the mean).
    calls = _count_calls(monkeypatch, "interface_fluxes")
    u0 = PiecewiseConstant((-0.4, 0.0, 0.3), (0.0, 1.1, -0.8, 0.0))
    cfg = base_cfg(m_p=1e-3, velocity_update=VelocityUpdate.IMPLICIT)
    grid, part = init_state(u0, 0.0, 0.2, cfg, 0.0025)
    dt = time_step(cfg, bounds_envelope(u0, 0.2, 1.0, split=0.0), grid.dx)[0]
    most = 0
    for _ in range(round(1.0 / dt)):
        calls[0] = 0
        grid, part = step_implicit(grid, part, cfg, dt)
        most = max(most, calls[0])
    assert most <= 6


def test_implicit_light_particle_stays_bounded():
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    env = bounds_envelope(u0, 0.5, 1.0)
    from burgers_particle.flux import lipschitz_bound

    L = lipschitz_bound(BulkFluxKind.GODUNOV, env.m, env.M, env.v_lo, env.v_hi, 1.0)
    dt = 10.0 * 1e-3 / (4.0 * L)  # ten times the explicit mass limit
    cfg = base_cfg(T=100 * dt, mu=dt / 0.05, m_p=1e-3, velocity_update=VelocityUpdate.IMPLICIT)
    traj = run(u0, 0.0, 0.5, cfg, 0.05)
    assert np.all(traj.v >= env.v_lo - 1e-10)
    assert np.all(traj.v <= env.v_hi + 1e-10)


# ---------------------------------------------------------------- run


def test_run_zero_final_time():
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    traj = run(u0, 0.0, 0.5, base_cfg(T=0.0), 0.1)
    assert traj.times.tolist() == [0.0]
    assert len(traj.momentum) == 1
    assert traj.snapshots[0][0] == 0.0


def test_run_is_deterministic():
    u0 = PiecewiseConstant(breakpoints=(-0.2, 0.0), values=(0.7, -0.4, 0.1))
    cfg = base_cfg(T=0.4)
    t1 = run(u0, 0.0, 0.2, cfg, 0.05)
    t2 = run(u0, 0.0, 0.2, cfg, 0.05)
    assert np.array_equal(t1.v, t2.v)
    assert np.array_equal(t1.h, t2.h)
    assert np.array_equal(t1.snapshots[-1][1].u, t2.snapshots[-1][1].u)


def test_run_lands_exactly_on_final_time():
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    traj = run(u0, 0.0, 0.5, base_cfg(T=0.33), 0.07)
    assert traj.times[-1] == 0.33
    dts = np.diff(traj.times)
    assert np.all(dts[:-1] >= dts[-1] - 1e-15)


def test_run_snapshot_policy():
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    traj = run(u0, 0.0, 0.5, base_cfg(T=0.5), 0.05, snapshot_times=(0.21,))
    ts = [t for t, _ in traj.snapshots]
    assert ts[0] == 0.0 and ts[-1] == 0.5
    covering = [t for t in traj.times if t <= 0.21]
    assert covering[-1] in ts
    with pytest.raises(ValueError):
        run(u0, 0.0, 0.5, base_cfg(T=0.5), 0.05, snapshot_times=(0.9,))
    # requesting the endpoints does not duplicate entries
    traj = run(u0, 0.0, 0.5, base_cfg(T=0.5), 0.05, snapshot_times=(0.0, 0.5))
    ts = [t for t, _ in traj.snapshots]
    assert ts == sorted(set(ts))


@pytest.mark.parametrize("times", [(-0.1,), (0.2, 0.5 + 1e-9)])
def test_run_refuses_snapshot_times_outside_the_run(times):
    # run alone owns the range [0, T] of the snapshot times; its refusal
    # names the config key.
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    with pytest.raises(ValueError, match="key 'snapshots'"):
        run(u0, 0.0, 0.5, base_cfg(T=0.5), 0.05, snapshot_times=times)


def test_run_truncates_final_step():
    # mu = 0.04 is below the CFL bound 1/6 and the mass step 1/12 is longer,
    # so every step but the last is 0.004 and 0.25 ends on a half step.
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    cfg = base_cfg(T=0.25, mu=0.04)
    traj = run(u0, 0.0, 0.5, cfg, 0.1)
    assert traj.times[-1] == 0.25
    dts = np.diff(traj.times)
    assert np.all(np.abs(dts[:-1] - 0.004) < 1e-15)
    assert dts[-1] <= 0.004 + 1e-15


def test_run_conserves_momentum_on_periodic_domain():
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    cfg = base_cfg(T=1.0, mu=0.25, domain=Domain.PERIODIC, half_width=19.0)
    traj = run(u0, 0.0, 0.0, cfg, 0.05)
    mom = traj.momentum
    assert np.abs(mom - mom[0]).max() <= 1e-12 * len(mom)
    assert np.all(traj.boundary_flux == 0.0)


def test_run_boundary_flux_accounts_for_window_leakage():
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    traj = run(u0, 0.0, 0.5, base_cfg(T=0.5), 0.05)
    mom = traj.momentum
    drift = np.abs(mom + traj.boundary_flux - mom[0])
    assert drift.max() <= 1e-12 * len(mom)
    assert traj.boundary_flux[-1] != 0.0  # unequal far-field fluxes leak


# ---------------------------------------------------------------- sampling


def test_sample_solution_conventions():
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    cfg = base_cfg(T=0.4)
    traj = run(u0, 0.0, 0.5, cfg, 0.1, snapshot_times=_every_state(u0, 0.0, 0.5, cfg, 0.1))
    t0, t1 = traj.times[2], traj.times[3]
    u_val, h_val, v_val = sample_solution(traj, float(t0), -1.05)
    assert v_val == traj.v[2]
    assert h_val == traj.h[2]
    # half-way through the slab: particle path is linear, cells shear
    tm = 0.5 * (t0 + t1)
    _, h_mid, v_mid = sample_solution(traj, float(tm), -1.05)
    assert h_mid == pytest.approx(traj.h[2] + traj.v[2] * (tm - t0), abs=1e-15)
    assert v_mid == traj.v[2]
    # a probe just left of the sheared interface sees the left state
    x_probe = traj.h[2] + traj.v[2] * (tm - t0) - 1e-6
    u_left, _, _ = sample_solution(traj, float(tm), float(x_probe))
    assert u_left == 1.0
    with pytest.raises(ValueError):
        sample_solution(traj, 0.4 + 1e-6, 0.0)
    with pytest.raises(ValueError):
        sample_solution(traj, 0.1, 1e9)


def test_sample_solution_reads_the_compact_cells(monkeypatch):
    # The far fields and the active cells of a snapshot give sample_solution
    # the bits of its window, and the window is never built.
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    traj = run(u0, 0.0, 0.5, base_cfg(T=0.4), 0.1)
    grid = traj.snapshots[-1][1]
    assert 0 < grid.lo and grid.hi < grid.n
    xs, expected = grid.cell_centers().tolist(), grid.u.tobytes()

    def whole_window(grid):
        raise AssertionError("grid.u was built")

    monkeypatch.setattr(FluidGrid, "u", property(whole_window))
    assert np.array([sample_solution(traj, 0.4, x)[0] for x in xs]).tobytes() == expected


def test_sample_solution_requires_snapshot():
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    traj = run(u0, 0.0, 0.5, base_cfg(T=0.4), 0.1)  # snapshots at 0 and T only
    with pytest.raises(ValueError):
        sample_solution(traj, float(traj.times[2]), 0.0)


# ---------------------------------------------------------------- bounds


@pytest.mark.parametrize("bulk", BULKS)
def test_invariant_region_and_tv_budget(bulk, rng):
    for _ in range(5):
        u0 = random_piecewise(rng)
        v0 = float(rng.uniform(-2, 2))
        cfg = base_cfg(T=0.0, bulk=bulk, mu=0.4)
        grid, part = init_state(u0, 0.0, v0, cfg, 0.05)
        env = bounds_envelope(u0, v0, 1.0)
        dt = time_step(cfg, env, grid.dx)[0]
        cfg = base_cfg(T=40 * dt, bulk=bulk, mu=0.4)
        grid, part = init_state(u0, 0.0, v0, cfg, 0.05)
        tv0 = total_variation(grid)
        g, p = grid, part
        for _ in range(30):
            g, p = step(g, p, cfg, dt)
            assert g.u.min() >= env.m - 1e-10
            assert g.u.max() <= env.M + 1e-10
            assert total_variation(g) <= tv0 + 2.0 * 1.0 + 1e-10
            assert env.v_lo - 1e-10 <= p.v <= env.v_hi + 1e-10


def test_concurrent_runs_match_serial_runs():
    # distinct simulations share no state; threads must reproduce serial runs
    from concurrent.futures import ThreadPoolExecutor

    u0 = PiecewiseConstant(breakpoints=(-0.2, 0.1), values=(0.6, -0.3, 0.2))
    cfgs = [base_cfg(T=0.3, bulk=b) for b in BULKS]
    # a dense box: every step works in buffers as wide as the box
    cfgs.append(base_cfg(T=0.3, bulk=BulkFluxKind.ENGQUIST_OSHER, domain=Domain.PERIODIC,
                         half_width=7.0))
    serial = [run(u0, 0.0, 0.25, c, 0.05) for c in cfgs]
    with ThreadPoolExecutor(max_workers=len(cfgs)) as pool:
        threaded = list(pool.map(lambda c: run(u0, 0.0, 0.25, c, 0.05), cfgs))
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.v, b.v)
        assert a.momentum.tobytes() == b.momentum.tobytes()
        assert a.tv.tobytes() == b.tv.tobytes()
        assert np.array_equal(a.snapshots[-1][1].u, b.snapshots[-1][1].u)


@pytest.mark.parametrize("update", list(VelocityUpdate))
@pytest.mark.parametrize("iface", IFACES)
@pytest.mark.parametrize("bulk", BULKS)
def test_order_preservation_over_every_scheme(bulk, iface, update):
    # Criterion 09's construction (ordered periodic chain states with total
    # rise <= lam, ordered particle speeds, its dt bound) for every bulk
    # flux, interface family and velocity update: the step is monotone, so
    # the ordered pairs stay ordered.
    rng = np.random.default_rng(11)
    lam, n_half, dx, tau = 1.0, 12, 0.1, 1e-10
    advance = step if update is VelocityUpdate.EXPLICIT else step_implicit
    for trial in range(40):
        w1, w2 = (_chain_state(rng, n_half, lam, 1.0) for _ in range(2))
        u_lo, u_hi = np.minimum(w1, w2), np.maximum(w1, w2)
        v_lo = float(rng.uniform(-1.5, 1.5))
        v_hi = v_lo + float(rng.uniform(0.0, 1.0))
        m_p = [0.1, 1.0, 10.0][trial % 3]
        m, M = float(u_lo.min()), float(u_hi.max())
        vb_lo, vb_hi = min(m, v_lo), max(M, v_hi)
        L = lipschitz_bound(bulk, m, M, vb_lo, vb_hi, lam)
        B3 = max(abs(m - lam), abs(M + lam), abs(vb_lo), abs(vb_hi))
        dt = 0.99 * min(0.5 * dx / L, m_p / (2.0 * B3), m_p / (4.0 * L))
        cfg = base_cfg(
            mu=dt / dx, m_p=m_p, bulk=bulk, iface=iface, velocity_update=update,
            domain=Domain.PERIODIC, half_width=n_half * dx,
        )
        lo, hi = (
            (FluidGrid(u=u, dx=dx, left_edge=-n_half * dx, j_min=1 - n_half, periodic=True),
             ParticleState(h=0.0, v=v))
            for u, v in ((u_lo, v_lo), (u_hi, v_hi))
        )
        for _ in range(50):
            lo, hi = advance(*lo, cfg, dt), advance(*hi, cfg, dt)
            assert float(np.max(lo[0].u - hi[0].u)) <= tau
            assert lo[1].v - hi[1].v <= tau


def test_one_sided_invariant_region_shifted_family():
    # subsonic-box datum, shifted interface family: each side stays in its
    # one-sided band, ordered toward the particle
    u0 = PiecewiseConstant.riemann(0.4, -0.4, 0.0)
    cfg = base_cfg(T=2.0, iface=InterfaceFluxKind.G1_ONLY, mu=0.3)
    traj = run(u0, 0.0, 0.0, cfg, 0.02, snapshot_times=_every_state(u0, 0.0, 0.0, cfg, 0.02))
    tau = 1e-10
    for _, g in traj.snapshots:
        p0 = g.particle_index
        left, right = g.u[: p0 + 1], g.u[p0 + 1 :]
        assert np.all(np.diff(left) >= -tau)
        assert np.all(np.diff(right) >= -tau)
        assert left.min() >= 0.4 - tau and left.max() <= 1.4 + tau
        assert right.min() >= -1.4 - tau and right.max() <= -0.4 + tau
        assert g.u[p0] - g.u[p0 + 1] <= 1.0 + tau
