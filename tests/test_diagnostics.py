import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from burgers_particle import diagnostics
from burgers_particle.diagnostics import (
    TAU_NUM,
    MaximalityVerdict,
    _exact_sum,
    _leaf,
    _linspace17,
    _pairwise_sum,
    _row_min,
    _three_smallest,
    bounds_envelope,
    convergence_study,
    dissipativity_probe,
    entropy_residual,
    maximality_probe,
    sample_maximal_subset,
    total_momentum,
    total_variation,
)
from burgers_particle.exact import ParticleRiemannProblem
from burgers_particle.flux import (
    BulkFluxKind,
    InterfaceFluxKind,
    bulk_flux,
    interface_fluxes,
    lipschitz_bound,
)
from burgers_particle.germ import GermRegion, classify, dist1_to_H, in_germ
from burgers_particle.scheme import (
    Domain,
    FluidGrid,
    ParticleState,
    PiecewiseConstant,
    SchemeConfig,
    VelocityUpdate,
    init_state,
    step,
    step_implicit,
    time_step,
)
from conftest import random_piecewise


def test_bounds_envelope_examples():
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    env = bounds_envelope(u0, 0.0, 1.0)
    assert (env.m, env.M, env.v_lo, env.v_hi) == (-1.0, 1.0, -1.0, 1.0)
    env = bounds_envelope(PiecewiseConstant(breakpoints=(), values=(0.0,)), 2.0, 1.0)
    assert (env.m, env.M, env.v_lo, env.v_hi) == (-1.0, 1.0, -1.0, 2.0)
    env = bounds_envelope(PiecewiseConstant(breakpoints=(), values=(0.7,)), 0.7, 0.25)
    assert (env.m, env.M) == (0.7 - 0.25, 0.7 + 0.25)
    assert (env.v_lo, env.v_hi) == (0.7 - 0.25, 0.7 + 0.25)


def test_bounds_envelope_monotone_in_datum_range(rng):
    for _ in range(50):
        u0 = random_piecewise(rng, value_range=(-1.0, 1.0))
        wider = PiecewiseConstant(
            breakpoints=u0.breakpoints + (max(u0.breakpoints, default=0.0) + 1.0,),
            values=u0.values + (1.5,),
        )
        e0 = bounds_envelope(u0, 0.2, 1.0)
        e1 = bounds_envelope(wider, 0.2, 1.0)
        assert e1.m <= e0.m and e1.M >= e0.M
        assert e1.v_lo <= e0.v_lo and e1.v_hi >= e0.v_hi


def _cfg(m_p):
    return SchemeConfig(lam=1.0, mu=0.5, T=0.0, m_p=m_p)


def test_total_momentum_examples():
    grid = FluidGrid(u=np.zeros(10), dx=0.1, left_edge=-0.5, j_min=-4)
    assert total_momentum(grid, ParticleState(h=0, v=0), _cfg(1.0)) == 0.0
    grid = FluidGrid(u=np.ones(10), dx=0.1, left_edge=-0.5, j_min=-4)
    assert total_momentum(grid, ParticleState(h=0, v=0.5), _cfg(2.0)) == 2.0


def _record(grid, particle, m_p=1.0):
    """make_record's columns for a block of the one state."""
    block = diagnostics.RecordBlock(grid)
    block.add(grid, particle)
    return diagnostics.make_record(block, _cfg(m_p))


_values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    c_left=_values,
    c_right=_values,
    k_left=st.integers(1, 20_000),
    k_right=st.integers(1, 20_000),
    middle=st.lists(_values, min_size=2, max_size=30),
    v=_values,
    m_p=st.floats(1e-3, 1e3),
    dx=st.floats(1e-4, 1.0),
)
def test_total_momentum_with_tails_is_bit_exact(
    c_left, c_right, k_left, k_right, middle, v, m_p, dx
):
    # Long constant tails enter the record's sum as their exact totals k*c,
    # so the record has the bits of total_momentum, fsum over every cell.
    u = np.concatenate([np.full(k_left, c_left), middle, np.full(k_right, c_right)])
    grid = FluidGrid(u=u, dx=dx, left_edge=0.0, j_min=-k_left)
    particle = ParticleState(h=0.0, v=v)
    expected = m_p * v + dx * math.fsum(u.tolist())
    assert total_momentum(grid, particle, _cfg(m_p)).hex() == expected.hex()
    assert _record(grid, particle, m_p)[0][0].hex() == expected.hex()


def _sums(x, tails=()):
    """``_exact_sum`` through its one block form.  A 1-D ``x`` is one row
    whose ``tails`` are its (k, c) pairs, and gives a float; a 2-D ``x``
    takes one tails sequence per row and gives a list.  A record row is
    never empty: a row of no terms here stands for its tails alone, as one
    0.0 term, which changes no sum."""
    block, per_row = (x[None], [tails]) if x.ndim == 1 else (x, tails)
    if block.shape[1] == 0:
        block = np.zeros((block.shape[0], 1))
    extremes = (block.max(axis=1), block.min(axis=1))
    sums = _exact_sum(block, per_row, extremes, np.empty_like(block))
    return sums[0] if x.ndim == 1 else sums


_SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
    1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0, 0.1, 2.0**52 + 1,
]
_pool_values = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
    st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(
    pool=st.lists(_pool_values, min_size=1, max_size=8),
    n=st.one_of(
        st.integers(0, 1200),
        st.sampled_from([599, 600, 5000]),
    ),
    seed=st.integers(0, 2**32 - 1),
    mirror=st.booleans(),
    tails=st.lists(st.tuples(st.integers(0, 20_000), _pool_values), max_size=3),
)
def test_exact_sum_has_the_bits_of_fsum(pool, n, seed, mirror, tails):
    # Terms drawn from a small pool mix signed zeros, subnormals and
    # magnitudes from 1e-300 to 1e300; a mirrored half cancels to an exact
    # zero.  The tails stand for up to 20000 copies of one value each.
    x = np.random.default_rng(seed).choice(np.array(pool), n)
    if mirror:
        x = np.concatenate([x, -x[::-1]])
    terms = x.tolist()
    for k, c in tails:
        terms += [c] * k
    assert _sums(x, tails).hex() == math.fsum(terms).hex()


@pytest.mark.parametrize("tiny", [5e-324, 1e-300, -1e-300])
def test_exact_sum_keeps_terms_that_scaling_would_flush(tiny):
    # 2**1000 + 2**947 lies halfway between two floats, so the sign of a
    # tiny third term decides the rounding; scaling the large terms into
    # range must not flush it to zero.
    x = np.zeros(1200)
    x[:3] = 2.0**1000, 2.0**947, tiny
    assert _sums(x).hex() == math.fsum(x.tolist()).hex()


@settings(max_examples=150, deadline=None)
@given(
    widths=st.lists(st.integers(0, 700), min_size=1, max_size=6),
    pool=st.lists(_pool_values, min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    mirror=st.lists(st.booleans(), min_size=6, max_size=6),
    tails=st.lists(
        st.lists(st.tuples(st.integers(0, 20_000), _pool_values), max_size=2),
        min_size=6,
        max_size=6,
    ),
)
def test_exact_sum_of_a_block_has_the_bits_of_fsum_per_row(widths, pool, seed, mirror, tails):
    # A block of rows of mixed widths, zero-padded to the widest: rows of
    # width 0 sum their tails alone, mirrored rows cancel to an exact zero,
    # and a row mixing 1e300 with 1e-300 takes the fsum fallback, while the
    # other rows of the block take the extraction.
    rng = np.random.default_rng(seed)
    terms = []
    for width, m in zip(widths, mirror):
        x = rng.choice(np.array(pool), width).tolist()
        terms.append(x + [-t for t in reversed(x)] if m else x)
    block = np.zeros((len(terms), max(map(len, terms))))
    for row, x in zip(block, terms):
        row[: len(x)] = x
    tails = tails[: len(terms)]
    expected = [math.fsum(x + [c for k, c in t for _ in range(k)]) for x, t in zip(terms, tails)]
    assert [r.hex() for r in _sums(block, tails)] == [e.hex() for e in expected]


def test_exact_sum_of_a_block_with_an_underflowing_row():
    # The middle row needs the fsum fallback (its scaling would flush
    # 5e-324), the last one sums to an exact zero; both sit between rows
    # that take the extraction.
    rows = np.zeros((4, 5))
    rows[0, :3] = 0.1, 0.2, 0.3
    rows[1, :3] = 2.0**1000, 2.0**947, 5e-324
    rows[2, :2] = 1e-300, 3.0
    rows[3, :4] = 0.5, -0.25, -0.25, -0.0
    tails = [((3, 0.1),), (), ((2, -1e-300),), ((7, 0.0), (0, 2.5))]
    expected = [
        math.fsum(row.tolist() + [c for k, c in t for _ in range(k)])
        for row, t in zip(rows, tails)
    ]
    assert [r.hex() for r in _sums(rows, tails)] == [e.hex() for e in expected]


def _fsum_rows(rows, tails):
    return [
        math.fsum(list(row) + [c for k, c in t for _ in range(k)]) for row, t in zip(rows, tails)
    ]


@pytest.fixture
def passes(monkeypatch):
    """The ``_rounded`` calls each row of the next ``_exact_sum`` calls
    makes, keyed by the row's tails object: one for a row its pass scales
    up, none for a row that goes straight to ``_fsum``."""
    calls = {}
    rounded = diagnostics._rounded

    def counted(total, shift, tails, frac, err):
        calls[id(tails)] = calls.get(id(tails), 0) + 1
        return rounded(total, shift, tails, frac, err)

    monkeypatch.setattr(diagnostics, "_rounded", counted)
    return calls


@pytest.fixture
def deferred(monkeypatch):
    """The ``_fsum`` calls of the next ``_exact_sum`` calls, keyed by the
    row's tails object."""
    calls = {}
    fsum = diagnostics._fsum

    def counted(x, tails):
        calls[id(tails)] = calls.get(id(tails), 0) + 1
        return fsum(x, tails)

    monkeypatch.setattr(diagnostics, "_fsum", counted)
    return calls


_H = 2.0**-53  # half an ulp of 1.0


@pytest.mark.parametrize(
    "row, to_fsum",
    [
        ([1.0, _H], True),  # a tie: rounds to even, down
        ([1.0 + 2 * _H, _H], True),  # a tie: rounds to even, up
        ([1.0, _H, _H * 2.0**-40], False),  # 2**-40 of half an ulp above the tie
        ([1.0, _H, -_H * 2.0**-40], False),  # and below it
        ([1.0, _H, 2.0**-150], True),  # off the tie by less than the pass resolves
        ([_H, 1.0, -(2.0**-150)], True),
        ([1.0, _H, 2.0**-200, 2.0**-260 - 2.0**-200], True),
        ([1.0, -1.0, 1e-300], True),  # cancels, then a tiny remainder
        ([0.5, -0.25, -0.25, -0.0], False),  # exact after the pass: 0, as +0.0
        ([-0.0, -0.0], False),
        ([3.0, -7.0, 2.0**-30], False),  # integers and a dyadic: exact
    ],
)
def test_exact_sum_rounds_once_and_defers_an_undecided_row_to_fsum(
    passes, deferred, row, to_fsum
):
    tails = ()
    assert _sums(np.array(row), tails).hex() == math.fsum(row).hex()
    assert passes[id(tails)] == 1
    assert deferred.get(id(tails), 0) == to_fsum


def test_exact_sum_of_dense_data_takes_one_pass(passes):
    # a row like a periodic-dense state: its first pass decides it
    row = np.random.default_rng(0).uniform(-0.5, 0.5, 12_000)
    tails = ((0, 0.25), (0, -0.1))
    assert _sums(row, tails).hex() == math.fsum(row.tolist()).hex()
    assert passes[id(tails)] == 1


def test_exact_sum_of_a_block_of_decided_undecided_and_shifted_down_rows(passes, deferred):
    # A dense row decided by its pass, a row near a tie that the pass leaves
    # undecided, a row cancelling to 0 exactly, a row whose scaling would
    # shift it down and flush 5e-324, and a row of an integer and a dyadic,
    # all with nonzero tails.  Each row the pass scales up makes one
    # _rounded call; the undecided and the shifted-down rows go to _fsum.
    width = 600
    rows = np.zeros((5, width))
    rows[0] = np.random.default_rng(1).uniform(-1.0, 1.0, width)
    rows[1, :3] = 1.0, _H, 2.0**-150
    rows[2, :4] = 0.5, -0.25, -0.25, -0.0
    rows[3, :3] = 2.0**1000, 2.0**947, 5e-324
    rows[4, :2] = 3.0, 2.0**-30
    tails = [((7, 0.1), (3, -0.1)), ((2, 0.25),), ((2, 0.25), (1, -0.5)), ((4, 1e-300),), ((9, 0.5),)]
    got = _sums(rows, tails)
    assert [r.hex() for r in got] == [e.hex() for e in _fsum_rows(rows.tolist(), tails)]
    assert [passes.get(id(t), 0) for t in tails] == [1, 1, 1, 0, 1]
    assert [deferred.get(id(t), 0) for t in tails] == [0, 1, 0, 1, 0]


# Values that no row scaling flushes: zeros and magnitudes in [1e-100, 1e100].
_unflushed = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 2.0**52 + 1]),
    st.floats(-1e100, 1e100).filter(lambda x: x == 0.0 or abs(x) >= 1e-100),
)


@settings(max_examples=200, deadline=None)
@given(
    pool=st.lists(_unflushed, min_size=1, max_size=6),
    n=st.integers(0, 700),
    seed=st.integers(0, 2**32 - 1),
    tails=st.lists(st.tuples(st.integers(0, 20_000), _unflushed), max_size=2),
    negative_zeros=st.booleans(),
)
@example(pool=[-0.0], n=3, seed=0, tails=[(5, -0.0)], negative_zeros=True)
def test_a_row_that_sums_to_exactly_zero_is_fsums_zero(pool, n, seed, tails, negative_zeros):
    # Mirrored cells with tails of k copies of c and of -c, or cells and
    # tails of -0.0 only: the exact total is 0, which fsum returns as +0.0,
    # and so does _exact_sum, alone and in a block.  A row whose pass is
    # exact, of -0.0 or of small integers, gives it without calling _fsum.
    x = np.random.default_rng(seed).choice(np.array(pool), n)
    row = np.concatenate([x, -x[::-1]])
    tails = tails + [(k, -c) for k, c in tails]
    if negative_zeros:
        row, tails = np.full(2 * n, -0.0), [(k, -0.0) for k, _ in tails]
    terms = row.tolist() + [c for k, c in tails for _ in range(k)]
    expected = math.fsum(terms).hex()
    with mock.patch.object(diagnostics, "_fsum", wraps=diagnostics._fsum) as fsum:
        one = _sums(row, tails)
        block = _sums(np.stack([row, np.ones_like(row), row]), [tails, (), tails])
    if negative_zeros or all(c.is_integer() and abs(c) < 2**20 for c in pool):
        fsum.assert_not_called()
    assert one.hex() == expected == (0.0).hex()
    assert [block[0].hex(), block[2].hex()] == [expected] * 2


def test_an_exact_zero_block_calls_fsum_for_its_lossy_row_only():
    # Rows that cancel to 0 beside a row whose scaling would flush 5e-324:
    # only that row goes to _fsum.
    rows = np.zeros((3, 4))
    rows[0] = 0.5, -0.25, -0.25, -0.0
    rows[1, :3] = 2.0**1000, 2.0**947, 5e-324
    rows[2] = -0.0
    tails = [((2, 0.25), (1, -0.5)), (), ((3, -0.0),)]
    with mock.patch.object(diagnostics, "_fsum", wraps=diagnostics._fsum) as fsum:
        got = _sums(rows, tails)
    assert [r.hex() for r in got] == [e.hex() for e in _fsum_rows(rows.tolist(), tails)]
    assert fsum.call_count == 1 and fsum.call_args.args[0].tolist() == rows[1].tolist()


def test_the_record_of_a_one_minus_one_window_sums_without_fsum():
    # implicit-light's static 1 | -1 pair: the window sums to exactly 0, and
    # the record's momentum has the bits of fsum over every cell.
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    cfg = SchemeConfig(lam=1.0, mu=0.5, T=1.0, m_p=0.002)
    grid, part = init_state(u0, 0.0, 0.5, cfg, 0.005)
    assert math.fsum(grid.u.tolist()) == 0.0
    block = diagnostics.RecordBlock(grid)
    for _ in range(3):
        block.add(grid, part)
    with mock.patch.object(diagnostics, "_fsum") as fsum:
        momentum = diagnostics.make_record(block, cfg)[0]
        alone = total_momentum(grid, part, cfg)
    fsum.assert_not_called()
    expected = cfg.m_p * part.v + grid.dx * math.fsum(grid.u.tolist())
    assert [m.hex() for m in momentum + [alone]] == [expected.hex()] * 4


_near_tie = st.floats(1.0, 2.0, exclude_max=True)


@settings(max_examples=300, deadline=None)
@given(
    x0=_near_tie,
    scale=st.integers(-60, 60),
    k=st.integers(0, 80),
    sign=st.sampled_from([1.0, -1.0, 0.0]),
    cancel=st.floats(-1e6, 1e6, allow_nan=False),
    n=st.integers(2, 3000),
    seed=st.integers(0, 2**32 - 1),
)
@example(x0=1.0, scale=0, k=40, sign=1.0, cancel=0.0, n=2, seed=0)
def test_exact_sum_near_a_rounding_midpoint_has_the_bits_of_fsum(
    x0, scale, k, sign, cancel, n, seed
):
    # x0 plus half its ulp is a tie; a third term 2**-k of half an ulp moves
    # the sum just off it (or not, at sign 0), and a cancelling pair and
    # zeros pad the row, shuffled.
    x0 = math.ldexp(x0, scale)
    half = math.ulp(x0) / 2
    terms = [x0, half, sign * half * 2.0**-k, cancel, -cancel] + [0.0] * (n - 2)
    row = np.random.default_rng(seed).permutation(np.array(terms))
    assert _sums(row).hex() == math.fsum(terms).hex()


_LEAF_EDGES = [1, 5, 7, 8, 9, 127, 128, 129, 136, 255, 256, 257, 20_000]


@settings(max_examples=300, deadline=None)
@given(
    n=st.one_of(st.integers(1, 20_000), st.sampled_from(_LEAF_EDGES)),
    data=st.data(),
)
def test_pairwise_sum_has_the_bits_of_np_sum(n, data):
    # numpy's np.sum of a float64 row is a pairwise tree whose shape is an
    # implementation detail; the emulation must give its bits for every
    # length, including a lone leaf (below 8 terms, exactly 128) and the
    # first split (129), for nonzero ranges anywhere, starting or ending on
    # a leaf boundary, at magnitudes from 1e-12 to 1e6.  If a numpy release
    # changes the tree, this fails instead of the CSV bytes changing.
    r0 = data.draw(st.integers(0, n - 1), label="r0")
    r1 = data.draw(st.integers(r0 + 1, n), label="r1")
    if data.draw(st.booleans(), label="start on a leaf boundary"):
        r0 = _leaf(r0, n)[0]
    if data.draw(st.booleans(), label="end on a leaf boundary"):
        r1 = _leaf(r1 - 1, n)[1]
    k = data.draw(st.integers(1, 4), label="rows")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    terms = np.zeros((k, n))
    scale = 10.0 ** rng.uniform(-12.0, 6.0, (k, 1))
    terms[:, r0:r1] = np.abs(rng.standard_normal((k, r1 - r0))) * scale
    a, b = _leaf(r0, n)[0], _leaf(r1 - 1, n)[1]
    got = _pairwise_sum(terms[:, a:b], a, 0, n)
    assert [x.hex() for x in got.tolist()] == [float(np.sum(row)).hex() for row in terms]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(4, 20_000),
    data=st.data(),
    periodic=st.booleans(),
)
def test_total_variation_has_the_bits_of_np_sum_over_the_window(n, data, periodic):
    # One window: cells outside the active range [lo, hi) hold the
    # far-field values, and the record's variation, read from the leaves
    # around the range, has the bits of total_variation: np.sum over the
    # whole window.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    scale = 10.0 ** rng.uniform(-12.0, 6.0)
    first, last = rng.uniform(-1.0, 1.0, 2) * scale
    if periodic:
        lo, hi, p0 = 0, n, data.draw(st.integers(0, n - 2), label="p0")
    else:
        p0 = data.draw(st.integers(1, n - 3), label="p0")
        lo = data.draw(st.integers(1, p0), label="lo")
        hi = data.draw(st.integers(p0 + 2, n - 1), label="hi")
    middle = rng.uniform(-1.0, 1.0, hi - lo) * scale
    u = np.concatenate([np.full(lo, first), middle, np.full(n - hi, last)])
    grid = FluidGrid(u=u, dx=0.1, left_edge=0.0, j_min=-p0, periodic=periodic)
    assert (grid.lo, grid.hi) == (lo, hi)
    expected = float(np.sum(np.abs(np.diff(u))))
    if periodic:
        expected += abs(float(u[0]) - float(u[-1]))
    assert total_variation(grid).hex() == expected.hex()
    assert _record(grid, ParticleState(h=0.0, v=0.0))[1][0].hex() == expected.hex()


def test_total_variation_examples():
    mk = lambda vals, per=False: FluidGrid(
        u=np.array(vals, dtype=float), dx=0.1, left_edge=0.0, j_min=-1, periodic=per
    )
    assert total_variation(mk([3, 3, 3, 3])) == 0.0
    assert total_variation(mk([1, 1, -1, -1])) == 2.0
    assert total_variation(mk([0, 1, 0, 1])) == 3.0
    assert total_variation(mk([0, 1, 0, 1], per=True)) == 4.0  # wrap interface


def _single_step(u0, v0, cfg0, dx=0.05):
    grid, part = init_state(u0, 0.0, v0, cfg0, dx)
    env = bounds_envelope(u0, v0, cfg0.lam)
    dt = time_step(cfg0, env, grid.dx)[0]
    advance = step_implicit if cfg0.velocity_update is VelocityUpdate.IMPLICIT else step
    nxt = advance(grid, part, cfg0, dt)
    return (grid, part), nxt, dt, env


def test_entropy_residual_zero_on_matching_constant():
    u0 = PiecewiseConstant(breakpoints=(), values=(0.0,))
    cfg = SchemeConfig(lam=1.0, mu=0.4, T=0.1, m_p=1.0)
    prev, nxt, dt, _ = _single_step(u0, 0.0, cfg)
    r = entropy_residual(prev, nxt, cfg, dt, (0.0, 0.0))
    assert np.all(r == 0.0)


def test_entropy_residual_kappa_away_from_particle(rng):
    # classical single-constant reference: nonpositive away from the particle
    for _ in range(10):
        u0 = random_piecewise(rng)
        v0 = float(rng.uniform(-1, 1))
        cfg = SchemeConfig(lam=1.0, mu=0.4, T=0.1, m_p=1.0)
        prev, nxt, dt, _ = _single_step(u0, v0, cfg)
        kappa = float(rng.uniform(-2.5, 2.5))
        r = entropy_residual(prev, nxt, cfg, dt, (kappa, kappa))
        p0 = prev[0].particle_index
        away = np.ones(len(r), dtype=bool)
        away[p0 - 1] = away[p0] = False  # residuals are offset by one cell
        assert float(r[away].max()) <= 1e-10


def test_entropy_residual_admissible_reference(rng):
    worst = -np.inf
    for k in range(20):
        u0 = random_piecewise(rng)
        lo = min(u0.values)
        hi = max(u0.values)
        v0 = float(rng.uniform(lo, hi))
        cfg = SchemeConfig(lam=1.0, mu=0.4, T=0.1, m_p=1.0)
        prev, nxt, dt, env = _single_step(u0, v0, cfg)
        if k % 2:
            t = float(rng.uniform(env.m, env.M))
            c = (t, t - 1.0)
        else:
            a = float(rng.uniform(v0, v0 + 1.0))
            b = float(rng.uniform(max(v0 - 1.0, a - 1.0 + 1e-9), v0))
            c = (a, b)
        r = entropy_residual(prev, nxt, cfg, dt, c)
        worst = max(worst, float(r.max()))
    assert worst <= 1e-10


@pytest.mark.parametrize("m_p", [1.0, 1e-3])
def test_entropy_residual_takes_an_implicit_step_at_its_solved_flux_speed(m_p, rng):
    # G1 references (t, t - lam) are admissible at every speed, so each
    # residual of an implicit step is at most rounding once the fluxes run
    # at the speed the step solved for.  At v^n the worst residual here read
    # 0.22 at m_p = 1 and 31 at m_p = 1e-3.
    cfg = SchemeConfig(lam=1.0, mu=0.4, T=0.1, m_p=m_p, velocity_update=VelocityUpdate.IMPLICIT)
    worst = -np.inf
    for _ in range(20):
        u0 = random_piecewise(rng)
        prev, nxt, dt, env = _single_step(u0, float(rng.uniform(-1, 1)), cfg)
        t = float(rng.uniform(env.m, env.M))
        worst = max(worst, float(entropy_residual(prev, nxt, cfg, dt, (t, t - 1.0)).max()))
    assert worst <= 1e-10


def test_entropy_residual_refuses_a_reference_jump_on_a_periodic_box():
    # No particle sits at a periodic box's wrap face, where c_minus meets
    # c_plus again, so only an equal pair has residuals there.
    u0 = PiecewiseConstant.riemann(1.0, -0.5, 0.3)
    cfg = SchemeConfig(lam=1.0, mu=0.4, T=0.1, m_p=1.0, domain=Domain.PERIODIC, half_width=1.0)
    prev, nxt, dt, _ = _single_step(u0, 0.2, cfg)
    assert entropy_residual(prev, nxt, cfg, dt, (0.5, 0.5)).shape == (prev[0].n,)
    with pytest.raises(ValueError, match=r"reference c = \(0\.5, -0\.5\)"):
        entropy_residual(prev, nxt, cfg, dt, (0.5, -0.5))


def _assembled_entropy_residual(prev, next, cfg, dt, c):
    # entropy_residual as it was before it shared the scheme's face fluxes:
    # its own padded and periodic flux assembly.  The reference for the
    # residual bits.
    grid, particle = prev
    u, u2 = grid.u, next[0].u
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
    if grid.periodic:
        G = g(top, np.roll(top, -1)) - g(bot, np.roll(bot, -1))
        GR = G.copy()
        GR[p0] = gm_top - gm_bot
        GL = np.roll(G, 1)
        GL[p0 + 1] = gp_top - gp_bot
        cells = np.arange(n)
    else:
        G = g(top[:-1], top[1:]) - g(bot[:-1], bot[1:])
        GR = np.empty(n)
        GR[: n - 1] = G
        GR[n - 1] = np.nan
        GR[p0] = gm_top - gm_bot
        GL = np.empty(n)
        GL[1:] = G
        GL[0] = np.nan
        GL[p0 + 1] = gp_top - gp_bot
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


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("iface", list(InterfaceFluxKind))
@pytest.mark.parametrize("bulk", list(BulkFluxKind))
def test_entropy_residual_bits_match_its_own_flux_assembly(bulk, iface, periodic, rng):
    domain = dict(domain=Domain.PERIODIC, half_width=2.0) if periodic else {}
    cfg = SchemeConfig(lam=1.0, mu=0.4, T=0.1, m_p=1.0, bulk=bulk, iface=iface, **domain)
    for k in range(6):
        u0 = random_piecewise(rng)
        v0 = float(rng.uniform(-1, 1))
        prev, nxt, dt, env = _single_step(u0, v0, cfg)
        t = float(rng.uniform(env.m, env.M))
        c = [(t, t), (t, t - 1.0), (t, float(rng.uniform(env.m, env.M)))][k % 3]
        if periodic and c[0] != c[1]:  # a jump at the wrap face too: refused
            with pytest.raises(ValueError, match="reference c = "):
                entropy_residual(prev, nxt, cfg, dt, c)
            continue
        got = entropy_residual(prev, nxt, cfg, dt, c)
        assert got.tobytes() == _assembled_entropy_residual(prev, nxt, cfg, dt, c).tobytes()


def test_entropy_residual_rejects_mismatched_grids():
    u0 = PiecewiseConstant(breakpoints=(), values=(0.0,))
    cfg = SchemeConfig(lam=1.0, mu=0.4, T=0.1, m_p=1.0)
    prev, nxt, dt, _ = _single_step(u0, 0.0, cfg)
    other, _ = init_state(u0, 0.0, 0.0, cfg, 0.025)
    with pytest.raises(ValueError):
        entropy_residual(prev, (other, nxt[1]), cfg, dt, (0.0, 0.0))


def test_dissipativity_probe_examples(monkeypatch):
    for bulk in (BulkFluxKind.GODUNOV, BulkFluxKind.ENGQUIST_OSHER):
        d1, d2 = dissipativity_probe(
            InterfaceFluxKind.MAX_GERM, bulk, 1.0, (-2.0, 2.0), 0.0, 200
        )
        assert d1 >= -1e-10 and d2 >= -1e-10
    # sanity: a deliberately decreasing difference g_minus - g_plus = -a - b
    # is reported
    monkeypatch.setattr(
        diagnostics, "interface_fluxes", lambda iface, bulk, a, b, v, lam: (-a - b, 0.0 * a)
    )
    d1, d2 = dissipativity_probe(
        InterfaceFluxKind.MAX_GERM, BulkFluxKind.GODUNOV, 1.0, (-2.0, 2.0), 0.0, 50
    )
    assert d1 < 0 and d2 < 0
    with pytest.raises(ValueError):
        dissipativity_probe(InterfaceFluxKind.MAX_GERM, BulkFluxKind.GODUNOV, 1.0, (-2, 2), 0.0, 1)


def test_the_probes_form_no_overflow_up_to_their_refusal():
    # Each probe refuses a friction whose states would overflow its fluxes;
    # just below that bound every value it forms is finite (a numpy overflow
    # warning fails the test).  The germ probe's candidates are the corners
    # of probe-germ's box [-3 lam, 3 lam]^2, where its adapted points reach
    # 33 lam.
    def corners(lam):
        c = 3.0 * lam
        return [(c, c), (c, -c), (-c, c), (-c, -c), (c, 0.0), (0.0, -c)]

    maximality_probe(1.4e152, 0.0, 1000, corners(1.4e152))
    with pytest.raises(ValueError, match="check 'lambda'"):
        maximality_probe(1.5e152, 0.0, 1000, corners(1.5e152))
    for iface, bulk in itertools.product(InterfaceFluxKind, BulkFluxKind):
        dissipativity_probe(iface, bulk, 4.7e153, (-2.0, 2.0), 1.0, 20)
        with pytest.raises(ValueError, match="check 'lambda'"):
            dissipativity_probe(iface, bulk, 4.8e153, (-2.0, 2.0), 1.0, 20)


def test_sample_maximal_subset_members_only():
    pts = sample_maximal_subset(0.3, 0.8, 2000)
    assert len(pts) >= 1000
    for a, b in pts[::37]:
        assert in_germ((float(a), float(b)), 0.3, 0.8, tol=1e-12)


def test_maximality_probe_examples_and_determinism():
    r1 = maximality_probe(1.0, 0.0, 1000, [(1.0, 0.0), (2.0, 0.0)])
    r2 = maximality_probe(1.0, 0.0, 1000, [(1.0, 0.0), (2.0, 0.0)])
    assert r1 == r2
    assert r1[0].passes and r1[0].region is GermRegion.G1 and r1[0].consistent
    assert not r1[1].passes and r1[1].region is GermRegion.OUTSIDE
    assert r1[1].consistent  # failing outside is the expected combination
    with pytest.raises(ValueError):
        maximality_probe(1.0, 0.0, 50, [(1.0, 0.0)])


def test_maximality_probe_detects_clearly_outside_points(rng):
    # every candidate at L1 distance >= 0.05 from the germ must fail
    cands = []
    while len(cands) < 40:
        p = tuple(rng.uniform(-3, 3, size=2))
        if not in_germ(p, 0.0, 1.0, tol=0.05):
            cands.append(p)
    for verdict in maximality_probe(1.0, 0.0, 2000, cands):
        assert not verdict.passes
        assert verdict.min_xi < 0.0


def test_maximality_probe_accepts_members(rng):
    from conftest import random_germ_point

    cands = [random_germ_point(rng, 0.0, 1.0) for _ in range(60)]
    for verdict in maximality_probe(1.0, 0.0, 2000, cands):
        assert verdict.passes


# The per-candidate loop of the first maximality_probe, kept verbatim as the
# oracle of the batched probe: min_xi must match it bit for bit.
def _ref_xi_values(p, Q, v):
    a, b = p
    qm, qp = Q[:, 0], Q[:, 1]
    fa = 0.5 * a * a - v * a
    fb = 0.5 * b * b - v * b
    phi_m = np.sign(a - qm) * (fa - (0.5 * qm * qm - v * qm))
    phi_p = np.sign(b - qp) * (fb - (0.5 * qp * qp - v * qp))
    return phi_m - phi_p


def _ref_line_points(ts, lam):
    return np.column_stack([ts, ts - lam])


def _ref_adapted_box_points(a, b, v, lam):
    ca = min(max(a, v), v + lam)
    cb = min(max(b, v - lam), v)
    pts = [
        (ca, cb),
        (ca, v - lam), (ca, v),
        (v, cb), (v + lam, cb),
        (v, v), (v + lam, v), (v, v - lam),
        (0.5 * (v + ca), cb), (ca, 0.5 * (v - lam + cb)),
    ]
    arr = np.array(pts)
    keep = (arr[:, 0] - arr[:, 1]) <= lam
    return arr[keep]


def _reference_maximality_probe(lam, v, n_h, candidates, tau=TAU_NUM, boundary_tol=1e-6):
    base = sample_maximal_subset(v, lam, n_h)
    n_line = max(2, n_h // 2)
    spacing = 8.0 * lam / (n_line - 1)
    offsets = np.array(
        [-4.0, -2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0]
    )
    line_ts = base[:n_line, 0]
    out = []
    for cand in candidates:
        a, b = float(cand[0]), float(cand[1])
        m = float(np.min(_ref_xi_values((a, b), base, v)))
        d = a - b - lam
        anchors = np.array([0.5 * (a + b + lam), a, b + lam])
        ts = np.concatenate([(anchors[:, None] + d * offsets[None, :]).ravel(), anchors])
        m = min(m, float(np.min(_ref_xi_values((a, b), _ref_line_points(ts, lam), v))))
        box_adapted = _ref_adapted_box_points(a, b, v, lam)
        m = min(m, float(np.min(_ref_xi_values((a, b), box_adapted, v))))
        line_vals = _ref_xi_values((a, b), _ref_line_points(line_ts, lam), v)
        for t0 in line_ts[np.argsort(line_vals)[:3]]:
            h = spacing
            for _ in range(3):
                ts = np.linspace(t0 - h, t0 + h, 17)
                vals = _ref_xi_values((a, b), _ref_line_points(ts, lam), v)
                j = int(np.argmin(vals))
                t0 = ts[j]
                m = min(m, float(vals[j]))
                h /= 8.0
        passes = m >= -tau
        out.append(
            MaximalityVerdict(
                point=(a, b),
                min_xi=m,
                passes=passes,
                region=classify((a, b), v, lam),
                consistent=(not passes) or in_germ((a, b), v, lam, tol=boundary_tol),
            )
        )
    return out


def _assert_matches_reference(lam, v, n_h, candidates):
    got = maximality_probe(lam, v, n_h, candidates)
    want = _reference_maximality_probe(lam, v, n_h, [tuple(p) for p in candidates])
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.point == w.point
        assert g.min_xi.hex() == w.min_xi.hex(), (g.point, g.min_xi, w.min_xi)
        assert g == w
    return got


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("v", [0.0, 0.3, -0.6])
def test_maximality_probe_matches_reference_loop(lam, v):
    rng = np.random.default_rng(int(100 * lam + 10 * v) + 7)
    cands = rng.uniform(v - 3.0 * lam, v + 3.0 * lam, size=(120, 2))
    cands[::3] = np.round(cands[::3] * 4.0) / 4.0  # exact pairings, zeros
    _assert_matches_reference(lam, v, 1000, cands)


@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 1000])
def test_maximality_probe_matches_reference_at_block_edges(count):
    cands = np.random.default_rng(count).uniform(-3.0, 3.0, size=(count, 2))
    assert len(_assert_matches_reference(1.0, 0.0, 10_000, cands)) == count


_CRAFTED = [0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 0.75, -0.75, 1.0, -1.0, 1.5, -1.5,
            2.0, -2.0, 3.0, -3.0]


@pytest.mark.parametrize("lam", [0.25, 0.5, 1.0, 2.0])
def test_maximality_probe_matches_reference_on_signed_zeros(lam):
    # Many candidates on the sample's lattice reach an exact zero minimum,
    # some as -0.0: the group minima must keep the reference's sign of zero
    # (np.minimum, or a masked np.min, would not).
    cands = np.array([(a, b) for a in _CRAFTED for b in _CRAFTED])
    zeros = 0
    for v in (0.0, 0.5, -0.5, 0.25, -1.0):
        got = _assert_matches_reference(lam, v, 1000, cands)
        zeros += sum(r.min_xi == 0.0 for r in got)
    assert zeros > 50


def test_maximality_probe_matches_reference_on_tied_line_values():
    # A candidate on a sample line point sees two equal line values beside
    # its zero, so the top-3 search must fall back to a full argsort.
    lam, v, n_h = 1.0, 0.0, 1000
    line = sample_maximal_subset(v, lam, n_h)[: n_h // 2]
    tied = 0
    for a, b in line:
        vals = np.sort(_ref_xi_values((float(a), float(b)), line, v))[:4]
        tied += not (vals[0] < vals[1] < vals[2] < vals[3])
    assert tied > 0
    _assert_matches_reference(lam, v, n_h, line)


@pytest.mark.parametrize("v", [0.0, -0.0, 0.3])
@pytest.mark.parametrize("lam", [1.0, 2.5])
def test_maximality_probe_matches_reference_on_sample_coordinates(lam, v):
    # The probe finds where sign(a - u_minus) and sign(b - u_plus) change
    # by binary search in the sorted parts of its sample.  At the CLI's
    # sample size, candidates on sample coordinates (the first and last
    # points included) put a run of sign 0 there: a on a line t or a box
    # u_minus, b on a line t - lam or a box u_plus, both at once, and
    # signed zeros.
    n_h = 10_000
    pts = sample_maximal_subset(v, lam, n_h)
    line, box = pts[: n_h // 2], pts[n_h // 2 :]
    rng = np.random.default_rng(12)

    def some(x, k=6):
        return [float(x[0]), float(x[-1])] + rng.choice(x, k).tolist()

    free = rng.uniform(v - 3.0 * lam, v + 3.0 * lam, 3).tolist() + [0.0, -0.0]
    a_on = some(line[:, 0]) + some(box[:, 0])
    b_on = some(line[:, 1]) + some(box[:, 1])
    cands = [(a, b) for a in a_on for b in free[::2]] + [(a, b) for a in free[1::2] for b in b_on]
    cands += [tuple(p) for p in line[rng.choice(len(line), 8)]]
    cands += [tuple(p) for p in box[rng.choice(len(box), 8)]]
    cands += list(zip(a_on, b_on))
    cands += [(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
    _assert_matches_reference(lam, v, n_h, np.array(cands))


@pytest.mark.parametrize("n", [100, 1000, 10_000])
def test_the_sample_ascends_where_the_probe_reads_its_signs(n):
    # maximality_probe reads its signs off the sample's order: u_minus does
    # not decrease on the line points or on the box points, nor u_plus on
    # the line points.  Where |v| dwarfs lam the points collapse onto few
    # values, which must still not decrease.  The box's u_plus restarts on
    # each row, so the probe takes its signs point by point.
    n_line = max(2, n // 2)
    for v, lam in itertools.product([0.0, 0.6, -0.6, 1e10], [1e-12, 0.25, 1.0, 2.5, 1e6]):
        pts = sample_maximal_subset(v, lam, n)
        for x in (pts[:n_line, 0], pts[n_line:, 0], pts[:n_line, 1]):
            assert (x[1:] >= x[:-1]).all(), (v, lam)
    collapsed = sample_maximal_subset(1e10, 1e-12, n)
    assert len(set(collapsed[:, 0].tolist())) < n_line
    box_up = sample_maximal_subset(0.0, 1.0, n)[n_line:, 1]
    assert (box_up[1:] < box_up[:-1]).any()


def test_maximality_probe_refuses_a_sample_out_of_order(monkeypatch):
    sample = diagnostics.sample_maximal_subset

    def shuffled(v, lam, n):
        return np.random.default_rng(3).permutation(sample(v, lam, n))

    monkeypatch.setattr(diagnostics, "sample_maximal_subset", shuffled)
    with pytest.raises(ValueError, match="must ascend"):
        maximality_probe(1.0, 0.0, 1000, [(1.0, 0.0)])

    def box_up_descending(v, lam, n):
        pts = sample(v, lam, n)
        box = pts[n // 2 :]
        return np.vstack([pts[: n // 2], box[np.lexsort((-box[:, 1], box[:, 0]))]])

    # the box's u_plus may come in any order
    monkeypatch.setattr(diagnostics, "sample_maximal_subset", box_up_descending)
    assert maximality_probe(1.0, 0.0, 1000, [(1.0, 0.0)])[0].passes


def test_three_smallest_is_argsort_prefix_with_ties():
    rng = np.random.default_rng(5)
    pool = np.array([-0.0, 0.0, 1.0, -1.0, 2.0, 0.5])
    for n in (4, 5, 8, 50):
        for _ in range(200):
            x = rng.choice(pool, size=n)
            assert np.array_equal(_three_smallest(x), np.argsort(x)[:3])
    x = rng.uniform(size=100)
    assert np.array_equal(_three_smallest(x), np.argsort(x)[:3])
    # Valleys, as the probe's line values are, some of them on a lattice
    # that ties values; a second, deeper valley; plateaus tied at the third
    # smallest value near the minimum, or between it and the second.
    for n in (4, 5, 6, 9, 10, 17, 100, 1000, 5000):
        for _ in range(40):
            x = np.abs(np.arange(n) - rng.uniform(0, n)) * rng.uniform(0.1, 3.0)
            if rng.random() < 0.5:
                x = np.round(x * 2.0) / 2.0
            j = int(x.argmin())
            third = np.sort(x[max(0, j - 4) : j + 5])[2]
            far = rng.choice(n, rng.integers(1, n + 1))
            kind = rng.integers(4)
            if kind == 1:
                x[far] = x.min() - rng.uniform(0.0, 1.0, len(far))
            elif kind == 2:
                x[far] = third
            elif kind == 3:
                x[far] = 0.5 * (np.sort(x)[1] + third)
            assert np.array_equal(_three_smallest(x), np.argsort(x)[:3]), (n, kind)


def test_row_min_keeps_the_sign_of_zero_of_each_row():
    rng = np.random.default_rng(6)
    vals = rng.choice(np.array([0.0, -0.0, 1.0, 2.0]), size=(2000, 10))
    keep = rng.random((2000, 10)) < 0.7
    keep[:, 0] = True
    want = [vals[i][keep[i]].min() for i in range(len(vals))]
    got = _row_min(vals, keep)
    assert [x.hex() for x in got.tolist()] == [float(x).hex() for x in want]


def test_linspace17_has_the_bits_of_linspace():
    tiny = 5e-324
    start = np.array([-1.0, 0.3, 2.0, 0.0, 0.0, -8 * tiny, 1e-300, 7.0])
    stop = np.array([1.0, 0.30000000000000004, 2.0, 8 * tiny, 40 * tiny, tiny, 2e-300, 7.5])
    got = _linspace17(start, stop)
    for i in range(len(start)):
        want = np.linspace(start[i], stop[i], 17)
        assert [x.hex() for x in got[i].tolist()] == [x.hex() for x in want.tolist()]


_probe_coord = st.one_of(
    st.floats(-4.0, 4.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0]),
)


@settings(max_examples=40, deadline=None)
@given(
    cands=st.lists(st.tuples(_probe_coord, _probe_coord), max_size=70),
    v=st.sampled_from([0.0, -0.0, 0.5, -1.0]) | st.floats(-2.0, 2.0, allow_nan=False),
    lam=st.sampled_from([0.5, 1.0, 2.0]),
)
def test_maximality_probe_matches_reference_property(cands, v, lam):
    _assert_matches_reference(lam, v, 200, np.array(cands, dtype=float).reshape(-1, 2))


def test_convergence_self_reference_decreases():
    u0 = PiecewiseConstant.riemann(0.4, -0.4, 0.0)
    cfg = SchemeConfig(lam=1.0, mu=0.3, T=0.4, m_p=1.0)
    rows = convergence_study(u0, 0.0, 0.1, cfg, [0.16, 0.08, 0.04])
    errs = [(r.err_u_L1, r.err_h_sup, r.err_v_sup) for r in rows]
    for a, b in zip(errs, errs[1:]):
        assert b[0] < a[0] and b[1] < a[1] and b[2] < a[2]
    assert rows[0].order_u is None and rows[1].order_u is not None


def test_convergence_against_exact_reference():
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    prob = ParticleRiemannProblem(u_minus=1.0, u_plus=-1.0, v0=0.5, m_p=1.0, lam=1.0)
    cfg = SchemeConfig(lam=1.0, mu=0.25, T=0.5, m_p=1.0)
    # an admissible two-state datum with its jump at the particle: the study
    # takes this exact solution as its reference
    assert diagnostics._auto_reference(u0, 0.0, 0.5, cfg, [0.08, 0.04, 0.02]) == prob
    rows = convergence_study(u0, 0.0, 0.5, cfg, [0.08, 0.04, 0.02])
    for a, b in zip(rows, rows[1:]):
        assert b.err_h_sup < a.err_h_sup
        assert b.err_v_sup < a.err_v_sup
        assert b.err_u_L1 < a.err_u_L1
        assert b.order_h == pytest.approx(1.0, abs=0.2)


def test_convergence_study_validates_levels():
    u0 = PiecewiseConstant.riemann(1.0, -1.0, 0.0)
    cfg = SchemeConfig(lam=1.0, mu=0.25, T=0.1, m_p=1.0)
    with pytest.raises(ValueError):
        convergence_study(u0, 0.0, 0.0, cfg, [0.1, 0.05])
    with pytest.raises(ValueError):
        convergence_study(u0, 0.0, 0.0, cfg, [0.1, 0.1, 0.05])


def test_exact_convergence_reference_starts_at_h0():
    # The automatic exact reference follows the particle from its own h0:
    # moving the whole problem to h0 = 0.3 moves the errors only by rounding.
    cfg = SchemeConfig(lam=1.0, mu=0.25, T=0.5, m_p=1.0)
    levels = [0.04, 0.02, 0.01]
    at = {
        h0: convergence_study(PiecewiseConstant.riemann(1.0, -1.0, h0), h0, 0.5, cfg, levels)
        for h0 in (0.0, 0.3)
    }
    for a, b in zip(at[0.0], at[0.3]):
        assert b.err_h_sup == pytest.approx(a.err_h_sup, rel=1e-9)
        assert b.err_u_L1 == pytest.approx(a.err_u_L1, rel=1e-9)
        assert b.err_v_sup == pytest.approx(a.err_v_sup, rel=1e-9)
    for row in at[0.3][1:]:
        assert row.order_u == pytest.approx(1.0, abs=0.01)
        assert row.order_h == pytest.approx(1.0, abs=0.01)
