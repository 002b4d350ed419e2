"""The run contract, ``diagnostics.check_run``: the a priori bounds that
``burgers-particle run`` gates, checked on whole runs.  These tests sit next
to the acceptance gate (criteria 02 and 03 check the same bounds step by
step) and do not replace it."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burgers_particle.diagnostics import TAU_NUM, bounds_envelope, check_run
from burgers_particle.flux import BulkFluxKind, InterfaceFluxKind, lipschitz_bound
from burgers_particle.scheme import (
    Domain,
    PiecewiseConstant,
    SchemeConfig,
    VelocityUpdate,
    run,
    time_step,
)

COMBOS = [
    (bulk, iface, update, domain)
    for bulk in BulkFluxKind
    for iface in InterfaceFluxKind
    for update in VelocityUpdate
    for domain in Domain
]


@pytest.mark.parametrize(
    "bulk,iface,update,domain", COMBOS,
    ids=["-".join(x.value for x in combo) for combo in COMBOS],
)
@settings(max_examples=10, deadline=None)
@given(
    values=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6),
    cuts=st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5),
    v0=st.floats(-2.0, 2.0),
    lam=st.sampled_from([0.5, 1.0, 2.0]),
    m_p=st.sampled_from([0.1, 1.0, 10.0]),
)
def test_check_run_finds_no_violation_on_random_data(
    bulk, iface, update, domain, values, cuts, v0, lam, m_p
):
    bps = tuple(sorted(set(cuts)))[: len(values) - 1]
    u0 = PiecewiseConstant(breakpoints=bps, values=tuple(values[: len(bps) + 1]))
    T, dx = 0.3, 0.05
    cfg = SchemeConfig(lam=lam, mu=0.4, T=T, m_p=m_p, bulk=bulk, iface=iface,
                       velocity_update=update)
    if domain is Domain.PERIODIC:
        # a box wider than the influence guard 3*T*dx/dt of the step run takes
        dt = time_step(cfg, bounds_envelope(u0, v0, lam), dx)[0]
        cfg = dataclasses.replace(cfg, domain=domain, half_width=3.0 * T * dx / dt + 2.0)
    traj = run(u0, 0.0, v0, cfg, dx)
    assert check_run(traj, cfg, u0) == []


def test_check_run_returns_each_planted_violation_in_order():
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    cfg = SchemeConfig(lam=1.0, mu=0.25, T=0.5, m_p=1.0)
    traj = run(u0, 0.0, 0.5, cfg, 0.1)
    assert check_run(traj, cfg, u0) == []
    env = traj.env
    L = lipschitz_bound(cfg.bulk, env.m, env.M, env.v_lo, env.v_hi, cfg.lam)
    accel_limit = (2.0 * L / cfg.m_p) * (1.0 + cfg.lam + max(abs(env.v_lo), abs(env.v_hi)))
    # one violation at state 1, then one of each check at state 3, planted
    # in the reverse of the documented order
    traj.v[1] = env.v_lo - 1.0
    traj.accel[3] = accel_limit + 1.0
    traj.v[3] = env.v_hi + 1.0
    traj.tv[3] = traj.tv[0] + 3.0
    traj.u_min[3] = env.m - 1.0
    traj.momentum[3] += 1e-6
    found = check_run(traj, cfg, u0)
    assert [check for check, _, _ in found] == [
        "velocity_bounds",
        "momentum_drift",
        "invariant_region",
        "total_variation",
        "velocity_bounds",
        "acceleration_bound",
    ]
    assert found[0][1:] == (env.v_lo - 1.0, (env.v_lo, env.v_hi))
    drift, limit = found[1][1:]
    assert drift == pytest.approx(1e-6, rel=1e-5) and limit == 4e-12
    assert found[2][1:] == ((env.m - 1.0, traj.u_max[3]), (env.m, env.M))
    assert found[3][1:] == (traj.tv[0] + 3.0, traj.tv[0] + 2.0 * cfg.lam + TAU_NUM)
    assert found[4][1:] == (env.v_hi + 1.0, (env.v_lo, env.v_hi))
    assert found[5][1:] == (accel_limit + 1.0, accel_limit)
