import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from burgers_particle import diagnostics, flux
from burgers_particle.diagnostics import dissipativity_probe
from burgers_particle.flux import (
    BulkFluxKind,
    InterfaceFluxKind,
    bulk_flux,
    f_v,
    interface_fluxes,
    lipschitz_bound,
)

BULKS = list(BulkFluxKind)
IFACES = list(InterfaceFluxKind)


def godunov_oracle(a, b, v, n=10_001):
    """Exact Riemann flux by dense enumeration of f_v over [a, b]."""
    u = np.linspace(min(a, b), max(a, b), n)
    f = 0.5 * u * u - v * u
    return float(f.min()) if a <= b else float(max(f[0], f[-1]))


def eo_oracle(a, b, v, n=200_001):
    """Engquist-Osher flux by quadrature of |f_v'| between the states."""
    fa = 0.5 * a * a - v * a
    fb = 0.5 * b * b - v * b
    u = np.linspace(a, b, n)
    integral = float(np.trapezoid(np.abs(u - v), u))
    return 0.5 * (fa + fb) - 0.5 * integral


def test_consistency_is_exact(rng):
    a = rng.uniform(-3, 3, size=500)
    v = rng.uniform(-2, 2, size=500)
    for kind in BULKS:
        assert np.array_equal(bulk_flux(kind, a, a, v), f_v(a, v))
        np.testing.assert_allclose(
            bulk_flux(kind, a, a, v), 0.5 * a * a - v * a, rtol=0, atol=1e-14
        )


def test_godunov_examples():
    god = BulkFluxKind.GODUNOV
    assert bulk_flux(god, 1, 1, 0) == 0.5
    assert bulk_flux(god, 2, 2, 1) == 0.0
    assert bulk_flux(god, -1, 1, 0) == 0.0  # sonic rarefaction
    assert bulk_flux(god, 1, -1, 0) == 0.5  # standing shock


def test_rusanov_and_eo_examples():
    assert bulk_flux(BulkFluxKind.RUSANOV, 1, -1, 0) == 1.5
    assert bulk_flux(BulkFluxKind.ENGQUIST_OSHER, 1, -1, 0) == 1.0


def test_godunov_matches_enumeration_oracle(rng):
    # 1e4 grid points resolve the quadratic minimum to ~(gap/n)^2/8, so keep
    # the state gap within 2.
    for _ in range(200):
        a, v = rng.uniform(-3, 3, size=2)
        b = a + rng.uniform(-2, 2)
        got = float(bulk_flux(BulkFluxKind.GODUNOV, a, b, v))
        assert got == pytest.approx(godunov_oracle(a, b, v), abs=1e-8)


def test_eo_matches_quadrature_oracle(rng):
    for _ in range(40):
        a, b, v = rng.uniform(-3, 3, size=3)
        got = float(bulk_flux(BulkFluxKind.ENGQUIST_OSHER, a, b, v))
        assert got == pytest.approx(eo_oracle(a, b, v), abs=1e-8)


@pytest.mark.parametrize("kind", BULKS)
def test_bulk_monotonicity(kind, rng):
    # nondecreasing in the left state, nonincreasing in the right
    a = rng.uniform(-3, 3, size=2000)
    b = rng.uniform(-3, 3, size=2000)
    v = rng.uniform(-2, 2, size=2000)
    eps = 1e-6
    d1 = bulk_flux(kind, a + eps, b, v) - bulk_flux(kind, a, b, v)
    d2 = bulk_flux(kind, a, b + eps, v) - bulk_flux(kind, a, b, v)
    assert float(d1.min()) >= -1e-10
    assert float(d2.max()) <= 1e-10


@pytest.mark.parametrize("iface", IFACES)
@pytest.mark.parametrize("kind", BULKS)
def test_interface_monotonicity(iface, kind, rng):
    a = rng.uniform(-3, 3, size=1000)
    b = rng.uniform(-3, 3, size=1000)
    v = rng.uniform(-2, 2, size=1000)
    eps = 1e-6
    for pick in (0, 1):
        base = interface_fluxes(iface, kind, a, b, v, 1.0)[pick]
        up1 = interface_fluxes(iface, kind, a + eps, b, v, 1.0)[pick]
        up2 = interface_fluxes(iface, kind, a, b + eps, v, 1.0)[pick]
        assert float((up1 - base).min()) >= -1e-10
        assert float((up2 - base).max()) <= 1e-10


def test_interface_flux_examples():
    god = BulkFluxKind.GODUNOV
    mg, g1 = InterfaceFluxKind.MAX_GERM, InterfaceFluxKind.G1_ONLY
    assert interface_fluxes(mg, god, 1.0, 0.0, 0.0, 1.0) == (0.5, 0.0)
    gm, gp = interface_fluxes(mg, god, 0.5, -0.5, 0.0, 1.0)
    assert (gm, gp) == (0.125, 0.125)
    assert interface_fluxes(g1, god, 2.0, 0.0, 0.0, 1.0) == (2.0, 0.5)


@pytest.mark.parametrize("iface", IFACES)
@pytest.mark.parametrize("kind", BULKS)
def test_line_well_balance(iface, kind, rng):
    # On the line u_minus = u_plus + lam both fluxes reduce to the one-sided
    # exact fluxes, to within 4 ulps.
    for _ in range(300):
        b = float(rng.uniform(-3, 3))
        v = float(rng.uniform(-2, 2))
        lam = float(rng.choice([0.5, 1.0, 2.0]))
        a = b + lam
        gm, gp = interface_fluxes(iface, kind, a, b, v, lam)
        for got, ref in ((gm, f_v(a, v)), (gp, f_v(b, v))):
            assert abs(float(got) - ref) <= 4 * np.spacing(abs(ref) + 1e-300)


@pytest.mark.parametrize("kind", BULKS)
def test_box_well_balance_max_germ(kind, rng):
    # The substituting family reproduces exact one-sided fluxes on the whole
    # subsonic box as well.
    mg = InterfaceFluxKind.MAX_GERM
    for _ in range(300):
        v = float(rng.uniform(-2, 2))
        lam = float(rng.choice([0.5, 1.0, 2.0]))
        while True:
            a = float(rng.uniform(v, v + lam))
            b = float(rng.uniform(v - lam, v))
            if a - b < lam:
                break
        gm, gp = interface_fluxes(mg, kind, a, b, v, lam)
        for got, ref in ((gm, f_v(a, v)), (gp, f_v(b, v))):
            assert abs(float(got) - ref) <= 4 * np.spacing(abs(ref) + 1e-300)


@pytest.mark.parametrize("iface", IFACES)
@pytest.mark.parametrize("kind", BULKS)
def test_tip_condition(iface, kind, rng):
    for _ in range(200):
        v = float(rng.uniform(-2, 2))
        lam = float(rng.choice([0.5, 1.0, 2.0]))
        gm, gp = interface_fluxes(iface, kind, v, v, v, lam)
        assert abs(float(gm) - float(gp)) <= 4 * np.spacing(abs(float(gm)) + 1e-300)


@pytest.mark.parametrize("kind", BULKS)
def test_reflection_symmetry(kind, rng):
    # g(v - A, v - B, v) == g(v + B, v + A, v)
    for _ in range(300):
        A, B, v = rng.uniform(-3, 3, size=3)
        lhs = float(bulk_flux(kind, v - A, v - B, v))
        rhs = float(bulk_flux(kind, v + B, v + A, v))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_lipschitz_examples():
    god = BulkFluxKind.GODUNOV
    assert lipschitz_bound(god, -1, 1, -1, 1, 1) == 3.0
    assert lipschitz_bound(god, 0, 0, 0, 0, 1) == 1.0
    small = lipschitz_bound(god, 0.3, 0.3, -0.2, -0.2, 1e-3)
    assert small >= abs(0.3 - (-0.2)) + 1e-3 - 1e-15


def test_lipschitz_rejects_bad_bounds():
    god = BulkFluxKind.GODUNOV
    with pytest.raises(ValueError):
        lipschitz_bound(god, 1, -1, 0, 0, 1)
    with pytest.raises(ValueError):
        lipschitz_bound(god, 0, 0, 1, -1, 1)
    with pytest.raises(ValueError):
        lipschitz_bound(god, 0, math.nan, 0, 0, 1)


@pytest.mark.parametrize("iface", IFACES)
@pytest.mark.parametrize("kind", BULKS)
def test_lipschitz_dominates_sampled_slopes(iface, kind, rng):
    m, M, v_lo, v_hi, lam = -1.0, 1.0, -1.0, 1.0, 1.0
    L = lipschitz_bound(kind, m, M, v_lo, v_hi, lam)
    a = rng.uniform(m - lam, M + lam, size=3000)
    b = rng.uniform(m - lam, M + lam, size=3000)
    v = rng.uniform(v_lo, v_hi, size=3000)
    eps = 1e-7
    d1 = (bulk_flux(kind, a + eps, b, v) - bulk_flux(kind, a, b, v)) / eps
    d2 = (bulk_flux(kind, a, b + eps, v) - bulk_flux(kind, a, b, v)) / eps
    assert float(np.abs(d1).max()) <= L + 1e-5
    assert float(np.abs(d2).max()) <= L + 1e-5
    # interface fluxes stay within the same bound (their arguments shift by
    # at most lam, covered by the widened box)
    am = rng.uniform(m, M, size=3000)
    bm = rng.uniform(m, M, size=3000)
    for pick in (0, 1):
        base = interface_fluxes(iface, kind, am, bm, v, lam)[pick]
        s1 = (interface_fluxes(iface, kind, am + eps, bm, v, lam)[pick] - base) / eps
        s2 = (interface_fluxes(iface, kind, am, bm + eps, v, lam)[pick] - base) / eps
        assert float(np.abs(s1).max()) <= L + 1e-5
        assert float(np.abs(s2).max()) <= L + 1e-5


def test_rusanov_slopes_exceed_wave_speed(rng):
    # The bulk flux's local-speed stabilization contributes |a - b|/2 on top
    # of the wave speed, so the plain wave bound would undershoot; the
    # returned bound carries the factor two.
    god = lipschitz_bound(BulkFluxKind.GODUNOV, -1, 1, -1, 1, 1)
    rus = lipschitz_bound(BulkFluxKind.RUSANOV, -1, 1, -1, 1, 1)
    assert rus == 2 * god
    a, b, v = 2.0, -2.0, -1.0
    eps = 1e-7
    slope = (bulk_flux(BulkFluxKind.RUSANOV, a + eps, b, v) - bulk_flux(BulkFluxKind.RUSANOV, a, b, v)) / eps
    assert slope > god + 1.0


@pytest.mark.parametrize(
    "kind,iface",
    [
        (BulkFluxKind.GODUNOV, InterfaceFluxKind.MAX_GERM),
        (BulkFluxKind.GODUNOV, InterfaceFluxKind.G1_ONLY),
        (BulkFluxKind.ENGQUIST_OSHER, InterfaceFluxKind.MAX_GERM),
        (BulkFluxKind.ENGQUIST_OSHER, InterfaceFluxKind.G1_ONLY),
    ],
)
def test_dissipativity_godunov_eo(kind, iface):
    for v in (-1.0, 0.0, 1.0):
        d1, d2 = dissipativity_probe(iface, kind, 1.0, (-2.0, 2.0), v, 200)
        assert min(d1, d2) >= -1e-10


def _local_speed_rusanov_pair(iface, a, b, v, lam):
    # Each flux of the pair with its own local speed, and the asymmetric
    # max-germ substitution: the construction the shared-speed pair replaces.
    rus = BulkFluxKind.RUSANOV
    if iface is InterfaceFluxKind.G1_ONLY:
        return bulk_flux(rus, a, b + lam, v), bulk_flux(rus, a - lam, b, v)
    g_minus = bulk_flux(rus, a, np.minimum(b + lam, np.maximum(a, v)), v)
    g_plus = bulk_flux(rus, np.maximum(a - lam, np.minimum(b, v)), b, v)
    return g_minus, g_plus


@pytest.mark.parametrize("iface", IFACES)
def test_dissipativity_probe_detects_rusanov_violation(iface, monkeypatch):
    # A Rusanov pair whose fluxes carry their own local speeds makes
    # g_minus - g_plus decrease in spots (e.g. lam=1, v=-1, u_plus=1.5,
    # u_minus near 0); the probe has to report such a genuine, small violation.
    def pair(iface, bulk, A, B, v, lam):
        return _local_speed_rusanov_pair(iface, A, B, v, lam)

    monkeypatch.setattr(diagnostics, "interface_fluxes", pair)
    worst = 0.0
    for v in (-1.0, 0.0, 1.0):
        d1, d2 = dissipativity_probe(iface, BulkFluxKind.RUSANOV, 1.0, (-2.0, 2.0), v, 200)
        worst = min(worst, d1, d2)
    assert worst < -1e-6


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _clip_where_godunov(a, b, v):
    # The Godunov kernel written case by case (sonic point clipped into the
    # interval for rarefactions, larger endpoint flux for shocks): the
    # reference for the closed form max(f_v(max(a, v)), f_v(min(b, v))).
    sonic = np.clip(v, np.minimum(a, b), np.maximum(a, b))
    return np.where(a <= b, f_v(sonic, v), np.maximum(f_v(a, v), f_v(b, v)))


def test_float_path_matches_array_path_bit_for_bit():
    # Each kernel runs on two-float versions of the builtins max/min for
    # float calls and on np.maximum/np.minimum for arrays; both must return
    # the same bits, and Godunov's closed form the bits of the case-by-case
    # kernel, including on ties (a == b), sonic points (v equal to a trace),
    # signed zeros and subnormals.
    rng = np.random.default_rng(7)
    pool = np.array([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5, 5e-324, -5e-324])
    for x, y in itertools.product(pool.tolist(), repeat=2):
        assert _bits(flux._max(x, y)) == _bits(max(x, y))
        assert _bits(flux._min(x, y)) == _bits(min(x, y))
    n = 3000

    def draw():
        return np.where(rng.random(n) < 0.5, rng.choice(pool, n), rng.uniform(-3, 3, n))

    a, b, v = draw(), draw(), draw()
    tie = rng.random(n) < 0.15
    b[tie] = a[tie]
    sonic = rng.random(n)
    v = np.where(sonic < 0.2, a, np.where(sonic < 0.4, b, v))
    lams = rng.choice([0.5, 1.0, 2.0], n)
    on_line = rng.random(n) < 0.1  # b = a - lam: the line G1
    b[on_line] = a[on_line] - lams[on_line]
    godunov = bulk_flux(BulkFluxKind.GODUNOV, a, b, v)
    assert godunov.tobytes() == _clip_where_godunov(a, b, v).tobytes()
    for kind in BULKS:
        whole = bulk_flux(kind, a, b, v)
        for k in range(n):
            got = bulk_flux(kind, float(a[k]), float(b[k]), float(v[k]))
            assert isinstance(got, float)
            assert _bits(got) == _bits(whole[k]), (kind, a[k], b[k], v[k])
        for iface in IFACES:
            gm, gp = interface_fluxes(iface, kind, a, b, v, lams)
            for k in range(n):
                pair = interface_fluxes(
                    iface, kind, float(a[k]), float(b[k]), float(v[k]), float(lams[k])
                )
                assert (_bits(pair[0]), _bits(pair[1])) == (_bits(gm[k]), _bits(gp[k])), (
                    iface, kind, a[k], b[k], v[k], lams[k],
                )


_face_states = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 5e-324, -5e-324, 1e-160, -3e-155]),
    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(
    w=st.lists(_face_states, min_size=2, max_size=40),
    v=_face_states,
    at_v=st.lists(st.integers(0, 39), max_size=6),
    kind=st.sampled_from(BULKS),
)
@example(w=[0.0, -0.0, -0.0, 0.0, 1.0], v=0.0, at_v=[], kind=BulkFluxKind.GODUNOV)
@example(w=[-0.0, 0.0, -1.0, 0.0], v=-0.0, at_v=[0], kind=BulkFluxKind.ENGQUIST_OSHER)
@example(w=[1e-160, -3e-155, 5e-324], v=0.0, at_v=[], kind=BulkFluxKind.RUSANOV)
def test_one_pass_faces_have_the_bits_of_the_two_point_flux(w, v, at_v, kind):
    # bulk_flux over the shifted views of one array of cells, working in
    # three buffers, is the fluid update's one pass over the faces.  It must
    # give the bits of the allocating call and of a float call at every
    # face, on signed zeros, subnormals, squares that underflow, cells equal
    # to v and v = 0.
    w = np.array(w)
    w[[i % len(w) for i in at_v]] = v
    out = tuple(np.full(len(w) - 1, np.nan) for _ in range(3))
    faces = bulk_flux(kind, w[:-1], w[1:], v, out)
    assert any(faces is buffer for buffer in out[1:])
    assert faces.tobytes() == bulk_flux(kind, w[:-1], w[1:], v).tobytes()
    floats = [bulk_flux(kind, a, b, v) for a, b in zip(w[:-1].tolist(), w[1:].tolist())]
    assert all(isinstance(f, float) for f in floats)
    assert faces.tobytes() == np.array(floats).tobytes()


@settings(max_examples=300, deadline=None)
@given(a=_face_states, b=_face_states, v=_face_states, kind=st.sampled_from(BULKS))
@example(a=-0.0, b=0.0, v=-0.0, kind=BulkFluxKind.RUSANOV)
def test_a_bulk_flux_gives_equal_states_one_value(a, b, v, kind):
    # States that compare equal (0.0 and -0.0) give the bits of one flux:
    # the float update of a few cells reuses a face between three equal
    # cells for the next face.
    def signs(x):
        return (x, -x) if x == 0.0 else (x,)

    fluxes = {_bits(bulk_flux(kind, x, y, v)) for x in signs(a) for y in signs(b)}
    assert len(fluxes) == 1
