"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see every line.
"""

import math
import time

import numpy as np
import pytest

from burgers_particle.diagnostics import (
    bounds_envelope,
    dissipativity_probe,
    entropy_residual,
    maximality_probe,
    total_variation,
)
from burgers_particle.exact import ParticleRiemannProblem, germ2_exact, germ2_path, ode_oracle
from burgers_particle.flux import (
    BulkFluxKind,
    InterfaceFluxKind,
    f_v,
    interface_fluxes,
    lipschitz_bound,
)
from burgers_particle.germ import in_germ
from burgers_particle.scheme import (
    Domain,
    FluidGrid,
    ParticleState,
    PiecewiseConstant,
    SchemeConfig,
    VelocityUpdate,
    init_state,
    run,
    step,
    time_step,
)

BULKS = list(BulkFluxKind)
IFACES = list(InterfaceFluxKind)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")


def _assert_conservation(traj, label: str) -> None:
    """Criterion 2 bookkeeping for every acceptance run: the total momentum,
    corrected by the padded window's boundary exchange, is constant."""
    mom = traj.momentum
    drift = np.abs(mom + traj.boundary_flux - mom[0])
    budget = 1e-12 * (1 + np.arange(len(mom)))
    assert np.all(drift <= budget), f"momentum drift in {label}: {drift.max():.3e}"


# ---------------------------------------------------------------- criterion 1


def test_criterion_01_exact_solution_convergence():
    t0 = time.monotonic()
    prob = ParticleRiemannProblem(u_minus=1.0, u_plus=-1.0, v0=0.5, m_p=1.0, lam=1.0)
    h1, _, _ = germ2_exact(prob, 1.0)
    assert h1 == pytest.approx(0.25 * (1.0 - math.exp(-2.0)), abs=1e-14)
    h_ode, _ = ode_oracle(1.0, -1.0, 0.5, 1.0, 1.0)
    assert abs(h1 - h_ode) <= 1e-9

    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    levels = [0.04, 0.02, 0.01, 0.005]
    worst_ratio = math.inf
    for iface in IFACES:
        cfg = SchemeConfig(
            lam=1.0, mu=0.25, T=1.0, m_p=1.0, bulk=BulkFluxKind.GODUNOV, iface=iface
        )
        errs = []
        for dx in levels:
            traj = run(u0, 0.0, 0.5, cfg, dx)
            _assert_conservation(traj, f"criterion 1 {iface.value} dx={dx}")
            h_ref, v_ref = germ2_path(prob, traj.times)
            err_h = float(np.max(np.abs(traj.h - h_ref)))
            err_v = float(np.max(np.abs(traj.v - v_ref)))
            grid = traj.snapshots[-1][1]
            x_jump = float(h_ref[-1])
            edges = grid.cell_edges()
            left = np.clip(x_jump - edges[:-1], 0.0, grid.dx)
            err_u = float(
                np.sum(np.abs(grid.u - 1.0) * left + np.abs(grid.u + 1.0) * (grid.dx - left))
            )
            errs.append((err_u, err_h, err_v))
        for a, b in zip(errs, errs[1:]):
            assert b[0] < a[0], f"L1 error not decreasing for {iface.value}"
            for k in (1, 2):
                ratio = a[k] / b[k]
                worst_ratio = min(worst_ratio, ratio)
                assert ratio >= 1.3, f"ratio {ratio} below 1.3 for {iface.value}"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(1, True, f"both families converge, worst ratio {worst_ratio:.2f}, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2


def test_criterion_02_conservation():
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    cfg = SchemeConfig(
        lam=1.0, mu=0.25, T=1.0, m_p=1.0, domain=Domain.PERIODIC, half_width=19.0
    )
    traj = run(u0, 0.0, 0.0, cfg, 0.05)
    mom = traj.momentum
    budget = 1e-12 * (1 + np.arange(len(mom)))
    assert np.all(np.abs(mom - mom[0]) <= budget)
    assert np.all(traj.boundary_flux == 0.0)

    # compact-variation datum on the padded window: no boundary exchange
    u0c = PiecewiseConstant(breakpoints=(-0.4, 0.0, 0.3), values=(0.0, 1.1, -0.8, 0.0))
    cfgc = SchemeConfig(lam=1.0, mu=0.3, T=1.0, m_p=2.0)
    trajc = run(u0c, 0.0, 0.4, cfgc, 0.02)
    momc = trajc.momentum
    budget = 1e-12 * (1 + np.arange(len(momc)))
    assert np.all(np.abs(momc - momc[0]) <= budget)
    assert np.all(trajc.boundary_flux == 0.0)
    _report(2, True, f"periodic and padded drift <= 1e-12*(1+n); worst "
                     f"{max(np.abs(mom - mom[0]).max(), np.abs(momc - momc[0]).max()):.2e}")


# ---------------------------------------------------------------- criterion 3


def test_criterion_03_a_priori_bounds():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    lams = [0.5, 1.0, 2.0]
    masses = [0.1, 1.0, 10.0]
    combos = [(b, i) for b in BULKS for i in IFACES]
    tau = 1e-10
    checked = 0
    for run_idx in range(200):
        n_pieces = int(rng.integers(1, 21))
        vals = tuple(float(x) for x in rng.uniform(-2, 2, size=n_pieces))
        bps = (
            tuple(float(x) for x in np.sort(rng.uniform(-1.0, 1.0, size=n_pieces - 1)))
            if n_pieces > 1
            else ()
        )
        u0 = PiecewiseConstant(breakpoints=bps, values=vals)
        v0 = float(rng.uniform(-2, 2))
        lam = lams[run_idx % 3]
        m_p = masses[(run_idx // 3) % 3]
        bulk, iface = combos[run_idx % 6]
        dx = 0.05
        env = bounds_envelope(u0, v0, lam)
        L = lipschitz_bound(bulk, env.m, env.M, env.v_lo, env.v_hi, lam)
        probe_cfg = SchemeConfig(lam=lam, mu=0.45, T=0.0, m_p=m_p, bulk=bulk, iface=iface)
        grid, part = init_state(u0, 0.0, v0, probe_cfg, dx)
        dt = time_step(probe_cfg, env, grid.dx)[0]
        cfg = SchemeConfig(lam=lam, mu=0.45, T=105 * dt, m_p=m_p, bulk=bulk, iface=iface)
        grid, part = init_state(u0, 0.0, v0, cfg, dx)
        tv0 = total_variation(grid)
        u0_sup = max(abs(x) for x in vals)
        v_sup = max(abs(env.v_lo), abs(env.v_hi))
        acc_lim = (2.0 * L / m_p) * (u0_sup + lam + v_sup)
        for _ in range(100):
            pv = part.v
            grid, part = step(grid, part, cfg, dt)
            assert grid.u.min() >= env.m - tau
            assert grid.u.max() <= env.M + tau
            assert total_variation(grid) <= tv0 + 2.0 * lam + tau
            assert env.v_lo - tau <= part.v <= env.v_hi + tau
            assert abs(part.v - pv) / dt <= acc_lim + tau
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(3, True, f"{checked} step-checks over 200 random data, zero violations, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 4


def test_criterion_04_well_balancing(rng):
    # interface fluxes reproduce the exact one-sided fluxes on the line ...
    for iface in IFACES:
        for _ in range(1000):
            bulk = BULKS[int(rng.integers(0, 3))]
            v = float(rng.uniform(-2, 2))
            lam = float(rng.choice([0.5, 1.0, 2.0]))
            b = float(rng.uniform(-2, 2))
            a = b + lam
            gm, gp = interface_fluxes(iface, bulk, a, b, v, lam)
            for got, ref in ((float(gm), f_v(a, v)), (float(gp), f_v(b, v))):
                assert abs(got - ref) <= 4 * np.spacing(abs(ref) + 1e-300)
    # ... and, for the substituting family, on the whole admissible set
    for _ in range(1000):
        bulk = BULKS[int(rng.integers(0, 3))]
        v = float(rng.uniform(-2, 2))
        lam = float(rng.choice([0.5, 1.0, 2.0]))
        if rng.integers(0, 2):
            b = float(rng.uniform(-2, 2))
            a = b + lam
        else:
            while True:
                a = float(rng.uniform(v, v + lam))
                b = float(rng.uniform(v - lam, v))
                if a - b < lam:
                    break
        gm, gp = interface_fluxes(InterfaceFluxKind.MAX_GERM, bulk, a, b, v, lam)
        for got, ref in ((float(gm), f_v(a, v)), (float(gp), f_v(b, v))):
            assert abs(got - ref) <= 4 * np.spacing(abs(ref) + 1e-300)

    # tip state: bit-exact fixed point of the step for >= 100 steps.  The
    # shifted family on the Rusanov flux smears the tip cells (its
    # stabilization s*J/2 has J = lam on the shifted pair), so it keeps only
    # the velocity fixed; all other combinations freeze the state exactly.
    u0 = PiecewiseConstant(breakpoints=(), values=(0.5,))
    for bulk in BULKS:
        for iface in IFACES:
            velocity_only = (
                bulk is BulkFluxKind.RUSANOV and iface is InterfaceFluxKind.G1_ONLY
            )
            cfg = SchemeConfig(
                lam=1.0, mu=0.3, T=10.0, m_p=1.0, bulk=bulk, iface=iface
            )
            grid, part = init_state(u0, 0.0, 0.5, cfg, 0.1)
            env = bounds_envelope(u0, 0.5, 1.0)
            dt = time_step(cfg, env, grid.dx)[0]
            g, p = grid, part
            for _ in range(100):
                g, p = step(g, p, cfg, dt)
                assert p.v == 0.5
                if not velocity_only:
                    assert np.array_equal(g.u, grid.u)
    _report(4, True, "one-sided fluxes exact to 4 ulps on 2x1000 samples; tip state frozen")


# ---------------------------------------------------------------- criterion 5


@pytest.mark.parametrize("iface", IFACES, ids=lambda x: x.value)
@pytest.mark.parametrize("bulk", BULKS, ids=lambda x: x.value)
def test_criterion_05_dissipativity(bulk, iface):
    worst = 0.0
    for v in (-1.0, 0.0, 1.0):
        d1, d2 = dissipativity_probe(iface, bulk, 1.0, (-2.0, 2.0), v, 200)
        worst = min(worst, d1, d2)
    ok = worst >= -1e-10
    _report(5, ok, f"{bulk.value}+{iface.value}: worst forward difference {worst:.3e}")
    assert ok, (
        f"g_minus - g_plus decreases for {bulk.value}+{iface.value} "
        f"(worst forward difference {worst:.3e})"
    )


# ---------------------------------------------------------------- criterion 6


def test_criterion_06_maximality():
    rng = np.random.default_rng(2024)
    candidates = [tuple(p) for p in rng.uniform(-3.0, 3.0, size=(1000, 2))]
    verdicts = maximality_probe(1.0, 0.0, 10_000, candidates)
    bad = [x for x in verdicts if not x.consistent]
    assert not bad, f"criterion passed outside the germ at {bad[:3]}"
    # double-check against an independent membership test
    assert all(
        in_germ(x.point, 0.0, 1.0, tol=1e-6) for x in verdicts if x.passes
    )
    n_pass = sum(x.passes for x in verdicts)
    _report(6, True, f"1000 candidates, {n_pass} pass and all of those lie in the germ")


# ---------------------------------------------------------------- criterion 7


def test_criterion_07_entropy_inequality():
    rng = np.random.default_rng(7)
    cfg0 = SchemeConfig(lam=1.0, mu=0.4, T=0.1, m_p=1.0)
    worst = -math.inf
    for k in range(50):
        n_pieces = int(rng.integers(2, 12))
        vals = tuple(float(x) for x in rng.uniform(-2, 2, size=n_pieces))
        bps = tuple(float(x) for x in np.sort(rng.uniform(-1, 1, size=n_pieces - 1)))
        u0 = PiecewiseConstant(breakpoints=bps, values=vals)
        v0 = float(rng.uniform(min(vals), max(vals)))
        grid, part = init_state(u0, 0.0, v0, cfg0, 0.05)
        env = bounds_envelope(u0, v0, 1.0)
        dt = time_step(cfg0, env, grid.dx)[0]
        nxt = step(grid, part, cfg0, dt)
        if k % 2:
            t = float(rng.uniform(env.m, env.M))
            c = (t, t - 1.0)
        else:
            a = float(rng.uniform(v0, v0 + 1.0))
            b = float(rng.uniform(max(v0 - 1.0, a - 1.0 + 1e-9), v0))
            c = (a, b)
        r = entropy_residual((grid, part), nxt, cfg0, dt, c)
        worst = max(worst, float(r.max()))
    assert worst <= 1e-10
    _report(7, True, f"50 random data, admissible references, max residual {worst:.2e}")


# ---------------------------------------------------------------- criterion 8


def test_criterion_08_symmetry():
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    dx = 0.02
    worst = 0.0
    for bulk in BULKS:
        for iface in IFACES:
            probe_cfg = SchemeConfig(
                lam=1.0, mu=0.25, T=0.0, m_p=1.0, bulk=bulk, iface=iface,
                domain=Domain.PERIODIC, half_width=3.0 * 1000 * dx,
            )
            grid, part = init_state(u0, 0.0, 0.0, probe_cfg, dx)
            env = bounds_envelope(u0, 0.0, 1.0)
            dt = time_step(probe_cfg, env, grid.dx)[0]
            cfg = SchemeConfig(
                lam=1.0, mu=0.25, T=1000 * dt, m_p=1.0, bulk=bulk, iface=iface,
                domain=Domain.PERIODIC, half_width=3.0 * 1000 * dx,
            )
            tol = 32 * np.spacing(max(1.0, abs(part.v)))
            for _ in range(1000):
                grid, part = step(grid, part, cfg, dt)
                worst = max(worst, abs(part.v - 0.0))
                assert abs(part.v - 0.0) <= tol
    _report(8, True, f"mean-speed start stays put for 1000 steps, all fluxes; "
                     f"worst |v - v0| = {worst:.1e}")


# ---------------------------------------------------------------- criterion 9


def _chain_state(rng, n_half, lam, scale):
    # nondecreasing from cell 1 around the torus to cell 0, total rise <= lam
    n = 2 * n_half
    total = float(rng.uniform(0.0, lam))
    incr = rng.dirichlet(np.ones(n - 1)) * total
    w = float(rng.uniform(-scale, scale)) + np.concatenate([[0.0], np.cumsum(incr)])
    return np.roll(w, n_half)


def test_criterion_09_order_preservation():
    rng = np.random.default_rng(11)
    lam = 1.0
    n_half = 12
    dx = 0.1
    tau = 1e-10
    for trial in range(100):
        w1 = _chain_state(rng, n_half, lam, 1.0)
        w2 = _chain_state(rng, n_half, lam, 1.0)
        u_lo, u_hi = np.minimum(w1, w2), np.maximum(w1, w2)
        v_lo = float(rng.uniform(-1.5, 1.5))
        v_hi = v_lo + float(rng.uniform(0.0, 1.0))
        m_p = [0.1, 1.0, 10.0][trial % 3]
        m, M = float(u_lo.min()), float(u_hi.max())
        vb_lo, vb_hi = min(m, v_lo), max(M, v_hi)
        L = lipschitz_bound(BulkFluxKind.GODUNOV, m, M, vb_lo, vb_hi, lam)
        B3 = max(abs(m - lam), abs(M + lam), abs(vb_lo), abs(vb_hi))
        dt = 0.99 * min(0.5 * dx / L, m_p / (2.0 * B3), m_p / (4.0 * L))
        cfg = SchemeConfig(
            lam=lam, mu=dt / dx, T=1.0, m_p=m_p,
            bulk=BulkFluxKind.GODUNOV, iface=InterfaceFluxKind.G1_ONLY,
            domain=Domain.PERIODIC, half_width=n_half * dx,
        )
        g_lo = FluidGrid(u=u_lo, dx=dx, left_edge=-n_half * dx, j_min=1 - n_half, periodic=True)
        g_hi = FluidGrid(u=u_hi, dx=dx, left_edge=-n_half * dx, j_min=1 - n_half, periodic=True)
        p_lo = ParticleState(h=0.0, v=v_lo)
        p_hi = ParticleState(h=0.0, v=v_hi)
        for _ in range(50):
            g_lo, p_lo = step(g_lo, p_lo, cfg, dt)
            g_hi, p_hi = step(g_hi, p_hi, cfg, dt)
            assert float(np.max(g_lo.u - g_hi.u)) <= tau
            assert p_lo.v - p_hi.v <= tau
    _report(9, True, "100 ordered pairs stay ordered through 50 steps")


# ---------------------------------------------------------------- criterion 10


def test_criterion_10_implicit_variant():
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    env = bounds_envelope(u0, 0.5, 1.0)
    L = lipschitz_bound(BulkFluxKind.GODUNOV, env.m, env.M, env.v_lo, env.v_hi, 1.0)
    m_p = 1e-3
    dt = 10.0 * m_p / (4.0 * L)  # mass condition violated tenfold
    cfg = SchemeConfig(
        lam=1.0, mu=dt / 0.05, T=1000 * dt, m_p=m_p,
        velocity_update=VelocityUpdate.IMPLICIT,
    )
    traj = run(u0, 0.0, 0.5, cfg, 0.05)
    assert len(traj.times) == 1001
    assert np.all(traj.v >= env.v_lo - 1e-10)
    assert np.all(traj.v <= env.v_hi + 1e-10)
    _assert_conservation(traj, "criterion 10 light particle")

    # single-step agreement with the explicit update is second order
    u0s = PiecewiseConstant.riemann(1.0, 0.8, 0.0)
    cfg_e = SchemeConfig(lam=1.0, mu=0.5, T=0.0, m_p=1.0)
    cfg_i = SchemeConfig(lam=1.0, mu=0.5, T=0.0, m_p=1.0, velocity_update=VelocityUpdate.IMPLICIT)
    diffs = []
    for dt1 in (0.01, 0.005):
        grid, part = init_state(u0s, 0.0, 0.1, cfg_e, 0.1)
        _, pe = step(grid, part, cfg_e, dt1)
        from burgers_particle.scheme import step_implicit

        _, pi = step_implicit(grid, part, cfg_i, dt1)
        diffs.append(abs(pe.v - pi.v))
    ratio = diffs[0] / diffs[1]
    assert 3.5 <= ratio <= 4.5
    _report(10, True, f"light particle bounded for 1000 oversized steps; "
                      f"Richardson ratio {ratio:.2f}")
