import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplus import (
    Grid,
    GridFn,
    GridMismatchError,
    Kernel,
    NEG_INF,
    POS_INF,
    ValidationError,
    WindowSides,
    coercivity_report,
    conjugate,
    legendre_fast,
    otimes,
    subdifferential_map,
    superlevel_compactness_report,
)
from maxplus import _kernels
from oracles import dense_bilinear_2d, dense_matvec_bilinear, slow_conjugate, slow_envelope_merge

NEG = NEG_INF
POS = POS_INF


def identity_kernel(n):
    g = Grid.line(0.0, float(n - 1), n) if n > 1 else Grid.line(0.0, 0.0, 1)
    t = np.full((n, n), NEG)
    np.fill_diagonal(t, 0.0)
    return Kernel.from_table(g, g, t), g


def random_piecewise_fn(rng, grid, allow_neg_inf=True):
    """Piecewise affine/quadratic/constant values with ±inf segments."""
    n = grid.size
    c = grid.coords
    k = int(rng.integers(0, 7))
    bps = np.sort(rng.choice(n, size=min(k, n - 1), replace=False)) if k and n > 1 else np.array([], int)
    bounds = np.concatenate([[0], bps, [n]]).astype(int)
    vals = np.empty(n)
    for s in range(len(bounds) - 1):
        lo, hi = bounds[s], bounds[s + 1]
        if lo >= hi:
            continue
        xs = c[lo:hi]
        t = int(rng.integers(0, 10))
        if t < 3:
            vals[lo:hi] = rng.uniform(-30, 30) * xs + rng.uniform(-50, 50)
        elif t < 6:
            x0 = rng.uniform(c[0], c[-1])
            vals[lo:hi] = rng.uniform(-10, 10) * (xs - x0) ** 2 + rng.uniform(-20, 20)
        elif t < 8:
            vals[lo:hi] = rng.uniform(-50, 50)
        else:
            vals[lo:hi] = POS
    if not (np.isfinite(vals)).any():
        vals[int(rng.integers(n))] = float(rng.uniform(-10, 10))
    if allow_neg_inf and rng.random() < 0.05:
        vals[int(rng.integers(n))] = NEG
    return GridFn(grid, vals)


# ---------------------------------------------------------------------------
# conjugate
# ---------------------------------------------------------------------------

def test_identity_kernel_negates():
    k, g = identity_kernel(2)
    f = GridFn(g, [2.0, 5.0])
    assert np.array_equal(conjugate(f, k).values, [-2.0, -5.0])


def test_bilinear_quadratic_three_nodes():
    g = Grid.line(-1, 1, 3)
    k = Kernel.bilinear(g, g)
    f = GridFn(g, g.coords**2 / 2)
    out = conjugate(f, k)
    assert np.array_equal(out.values, [0.5, 0.0, 0.5])


def test_all_plus_inf_f_gives_neg_inf():
    g = Grid.line(-1, 1, 3)
    k = Kernel.bilinear(g, g)
    out = conjugate(GridFn(g, [POS, POS, POS]), k)
    assert np.all(np.isneginf(out.values))


def test_grid_mismatch_is_structured():
    k = Kernel.bilinear(Grid.line(0, 1, 3), Grid.line(0, 1, 3))
    with pytest.raises(GridMismatchError):
        conjugate(GridFn(Grid.line(0, 1, 4), np.zeros(4)), k)


def test_conjugate_matches_slow_oracle(rng):
    for _ in range(40):
        nx, ny = rng.integers(1, 9, 2)
        b = rng.uniform(-5, 5, (int(nx), int(ny)))
        b[rng.random(b.shape) < 0.2] = NEG
        if not (np.isfinite(b).any(axis=1).all() and np.isfinite(b).any(axis=0).all()):
            continue
        xg = Grid.line(0, 1, int(nx)) if nx > 1 else Grid.line(0, 0, 1)
        yg = Grid.line(0, 1, int(ny)) if ny > 1 else Grid.line(0, 0, 1)
        k = Kernel.from_table(xg, yg, b)
        f = rng.uniform(-5, 5, int(ny))
        f[rng.random(int(ny)) < 0.2] = POS
        f[rng.random(int(ny)) < 0.1] = NEG
        got = conjugate(GridFn(yg, f), k).values
        want = slow_conjugate(b.tolist(), f.tolist())
        assert np.array_equal(got, np.asarray(want))


def test_conjugate_2d_matches_slow_oracle(rng):
    xg = Grid.box((-1, 0), (1, 2), (3, 4))
    yg = Grid.box((-2, -1), (2, 1), (4, 3))
    k = Kernel.bilinear(xg, yg)
    f = rng.uniform(-3, 3, yg.size)
    got = conjugate(GridFn(yg, f.reshape(yg.shape)), k).values.reshape(-1)
    want = slow_conjugate(k.matrix().tolist(), f.tolist())
    assert np.array_equal(got, np.asarray(want))


def test_kernel_rejects_plus_inf_and_empty_rows():
    g3 = Grid.line(0, 1, 2)
    with pytest.raises(ValidationError):
        Kernel.from_table(g3, g3, [[0.0, POS], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        Kernel.from_table(g3, g3, [[NEG, NEG], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        Kernel.from_table(g3, g3, [[NEG, 0.0], [NEG, 0.0]])


# ---------------------------------------------------------------------------
# fast Legendre path
# ---------------------------------------------------------------------------

def test_legendre_matches_brute_force_quadratic():
    g = Grid.line(-1, 1, 101)
    f = GridFn(g, g.coords**2 / 2)
    k = Kernel.bilinear(g, g)
    fast = legendre_fast(f, k)
    brute = conjugate(f, k)
    assert np.array_equal(fast.values, brute.values)


def test_legendre_abs_value():
    yg = Grid.line(-2, 2, 41)
    xg = Grid.line(-2, 2, 41)
    f = GridFn(yg, np.abs(yg.coords))
    k = Kernel.bilinear(xg, yg)
    out = legendre_fast(f, k)
    # zero on [-1, 1], then linear growth: value 2 at x = 2
    assert out.values[np.abs(xg.coords) <= 1].max() == 0.0
    assert out.values[-1] == 2.0 * 2.0 - 2.0
    assert np.array_equal(out.values, conjugate(f, k).values)


def test_legendre_single_x_node():
    yg = Grid.line(-1, 1, 11)
    out = legendre_fast(GridFn(yg, np.zeros(11)), Kernel.bilinear(Grid.line(0, 0, 1), yg))
    assert np.array_equal(out.values, [0.0])


def test_legendre_of_all_plus_inf_is_neg_inf():
    yg = Grid.line(-1, 1, 5)
    f = GridFn(yg, np.full(5, POS))
    k = Kernel.bilinear(yg, yg)
    fast = legendre_fast(f, k)
    assert np.array_equal(fast.values, conjugate(f, k).values)
    assert np.all(np.isneginf(fast.values))


@pytest.mark.parametrize("vals", [[NEG, POS, POS], [NEG, NEG, NEG]], ids=["neg-inf-and-plus-inf", "all-neg-inf"])
def test_legendre_neg_inf_without_finite_values(vals):
    yg = Grid.line(-1, 1, 3)
    f = GridFn(yg, vals)
    k = Kernel.bilinear(yg, yg)
    fast = legendre_fast(f, k)
    assert np.array_equal(fast.values, conjugate(f, k).values)
    assert np.all(np.isposinf(fast.values))


def test_legendre_neg_inf_propagates():
    yg = Grid.line(-1, 1, 5)
    vals = np.array([0.0, NEG, 1.0, 2.0, 3.0])
    k = Kernel.bilinear(yg, yg)
    fast = legendre_fast(GridFn(yg, vals), k)
    brute = conjugate(GridFn(yg, vals), k)
    assert np.all(np.isposinf(fast.values))
    assert np.array_equal(fast.values, brute.values)


def test_legendre_checks_its_kernel_and_grid():
    yg, xg = Grid.line(-1, 1, 5), Grid.line(-2, 2, 7)
    f = GridFn(yg, yg.coords**2)
    with pytest.raises(GridMismatchError):
        legendre_fast(f, Kernel.bilinear(xg, Grid.line(-1, 1, 6)))
    with pytest.raises(ValidationError, match="1-D bilinear kernel"):
        legendre_fast(f, Kernel.from_table(xg, yg, np.zeros((7, 5))))
    box = Grid.box((-1, -1), (1, 1), (2, 2))
    with pytest.raises(ValidationError, match="1-D bilinear kernel"):
        legendre_fast(GridFn(box, np.zeros((2, 2))), Kernel.bilinear(box, box))


def test_legendre_bit_exact_stress(rng):
    for trial in range(300):
        ny = int(rng.integers(2, 400))
        nx = int(rng.integers(1, 400))
        ylo = float(rng.uniform(-10, 5))
        yg = Grid.line(ylo, ylo + float(rng.uniform(0.1, 20)), ny)
        xlo = float(rng.uniform(-10, 5))
        xg = Grid.line(xlo, xlo + float(rng.uniform(0.1, 20)), nx) if nx > 1 else Grid.line(xlo, xlo, 1)
        f = random_piecewise_fn(rng, yg)
        if not np.isfinite(f.values).any():
            continue
        k = Kernel.bilinear(xg, yg)
        fast = legendre_fast(f, k)
        brute = conjugate(f, k)
        assert np.array_equal(fast.values, brute.values), f"trial {trial}"


# ---------------------------------------------------------------------------
# kernels: blocked evaluation against one-shot dense expressions
# ---------------------------------------------------------------------------

BUDGET = _kernels._CELL_BUDGET
CHUNK = _kernels._CHUNK_ROWS  # X-nodes per chunk of the pruned 2-D action
ROWS_97 = _kernels.block_rows(97)  # X-rows per dense block at |Y| = 97

# row counts on both sides of the 2-D chunk and of the dense block at |Y| = 97
KERNEL_ROWS = [1, CHUNK - 1, CHUNK, CHUNK + 1, 600, ROWS_97 - 1, ROWS_97, ROWS_97 + 1]

# (|X|, |Y|) at the block edges where |Y| decides the block height: rows
# either side of a 7-row block, a |Y| wider than the budget (one row per
# block) and |Y| = 1 (the budget's worth of rows per block)
EDGE_SHAPES = [
    (6, BUDGET // 7), (7, BUDGET // 7), (8, BUDGET // 7),
    (3, BUDGET + 1), (BUDGET - 1, 1), (BUDGET, 1), (BUDGET + 1, 1),
]
EDGE_IDS = [f"{nx}x{ny}" for nx, ny in EDGE_SHAPES]


def test_block_rows_fill_the_budget():
    assert ROWS_97 == BUDGET // 97
    assert _kernels.block_rows(BUDGET // 7) == 7
    assert _kernels.block_rows(BUDGET + 1) == 1
    assert _kernels.block_rows(1) == BUDGET


def assert_zero_rule_bits(got, want):
    """got is want + 0.0 bit for bit: -0 turns into +0 and nothing else moves."""
    want = want + 0.0
    diff = got.view(np.uint64) != want.view(np.uint64)
    assert not diff.any(), (np.flatnonzero(diff)[:3], got[diff][:3], want[diff][:3])
    assert not np.signbit(got[got == 0]).any()


def kernel_neg_f(rng, ny):
    """-f for an f that is +inf on about 5% of the nodes."""
    neg_f = rng.uniform(-5, 5, ny)
    neg_f[rng.random(ny) < 0.05] = NEG
    return neg_f


@pytest.mark.parametrize("nx", KERNEL_ROWS)
def test_matvec_table_bit_exact_against_dense(rng, nx):
    ny = 97
    table = rng.uniform(-5, 5, (nx, ny))
    table[rng.random((nx, ny)) < 0.1] = NEG
    neg_f = kernel_neg_f(rng, ny)
    # f = -inf on three nodes, which only a few rows reach with a finite entry
    pos = rng.choice(ny, 3, replace=False)
    neg_f[pos] = POS
    table[:, pos] = NEG
    table[rng.random(nx) < 0.05, pos[0]] = 1.0
    with np.errstate(invalid="ignore"):
        dense = np.where(table == NEG, NEG, table + neg_f[None, :]).max(axis=1)
    assert np.isfinite(dense).any()
    assert np.array_equal(_kernels.matvec_table(table, neg_f), dense)


@pytest.mark.parametrize("nx", KERNEL_ROWS)
def test_matvec_bilinear_bit_exact_against_dense(rng, nx):
    ny = 97
    x = np.sort(rng.uniform(-3, 3, nx))
    y = np.linspace(-2, 2, ny)
    neg_f = kernel_neg_f(rng, ny)
    dense = (x[:, None] * y[None, :] + neg_f[None, :]).max(axis=1)
    assert np.array_equal(_kernels.matvec_bilinear(x, y, neg_f), dense)


@pytest.mark.parametrize("nx", KERNEL_ROWS)
def test_matvec_bilinear_2d_bit_exact_against_dense(rng, nx):
    ny = 97
    x0, x1 = rng.uniform(-3, 3, (2, nx))
    y0, y1 = rng.uniform(-2, 2, (2, ny))
    neg_f = kernel_neg_f(rng, ny)
    dense = (
        x0[:, None] * y0[None, :] + x1[:, None] * y1[None, :] + neg_f[None, :]
    ).max(axis=1)
    assert np.array_equal(_kernels.matvec_bilinear_2d(x0, x1, y0, y1, neg_f), dense)


@pytest.mark.parametrize("nx,ny", EDGE_SHAPES, ids=EDGE_IDS)
def test_dense_actions_at_block_edges(rng, nx, ny):
    neg_f = kernel_neg_f(rng, ny)
    table = rng.uniform(-5, 5, (nx, ny))
    table[rng.random((nx, ny)) < 0.1] = NEG
    dense = np.where(table == NEG, NEG, table + neg_f[None, :]).max(axis=1)
    assert np.array_equal(_kernels.matvec_table(table, neg_f), dense)
    x = rng.uniform(-3, 3, nx)
    y = rng.uniform(-2, 2, ny)
    dense = (x[:, None] * y[None, :] + neg_f[None, :]).max(axis=1)
    assert np.array_equal(_kernels.matvec_bilinear(x, y, neg_f), dense)


@pytest.mark.parametrize("nx", KERNEL_ROWS)
def test_envelope_merge_bit_exact_against_dense(rng, nx):
    ny = 97
    slopes = np.linspace(-2, 2, ny)
    icepts = rng.uniform(-4, 4, ny)
    xs = np.sort(rng.uniform(-3, 3, nx))
    dense = (xs[:, None] * slopes[None, :] + icepts[None, :]).max(axis=1)
    assert np.array_equal(_kernels.envelope_merge(slopes, icepts, xs), dense)


def test_dense_actions_hold_one_block(rng):
    """A dense action allocates one block buffer per call, not one per block."""
    n = 4096
    x = np.sort(rng.uniform(-3, 3, n))
    y = np.linspace(-2, 2, n)
    neg_f = kernel_neg_f(rng, n)
    table = np.broadcast_to(y, (n, n))  # the table's rows, without 128 MiB of them
    limit = 1.5 * BUDGET * 8 + n * 8  # 1.5 blocks plus the output
    for action, args in ((_kernels.matvec_bilinear, (x, y, neg_f)),
                         (_kernels._dense_bilinear, (x, y, neg_f)),
                         (_kernels.matvec_table, (table, neg_f))):
        tracemalloc.start()
        try:
            action(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, (action.__name__, peak, limit)


# ---------------------------------------------------------------------------
# upper-envelope merge against the dense max, bit for bit
# ---------------------------------------------------------------------------

def dense_envelope(slopes, icepts, xs):
    """max over lines of fl(x*s) + c, every cell: the dense action's expression."""
    return (np.multiply.outer(xs, slopes) + icepts[None, :]).max(axis=1)


def assert_envelope_exact(slopes, icepts, xs):
    got = _kernels.envelope_merge(slopes, icepts, xs)
    assert_zero_rule_bits(got, dense_envelope(slopes, icepts, xs))
    return got


def near_collinear(rng, n):
    """Lines through nearly one point (x0, y0): nearly collinear (s, c) points."""
    s = np.unique(rng.uniform(-3, 3, n))
    x0, y0 = rng.uniform(-2, 2, 2)
    c = y0 - x0 * s + rng.integers(-2, 3, s.size) * 1e-16
    xs = np.sort(x0 + rng.integers(-4, 5, 40) * np.spacing(x0))
    return s, c, xs


def test_envelope_near_collinear_lines(rng):
    old_differs = 0
    for _ in range(400):
        s, c, xs = near_collinear(rng, int(rng.integers(2, 60)))
        got = assert_envelope_exact(s, c, xs)
        old = slow_envelope_merge(s, c, xs)
        old_differs += not np.array_equal(old.view(np.uint64), got.view(np.uint64))
    # the pointer walk over the hull misses lines the hull dropped
    assert old_differs > 0


def test_envelope_nodes_within_an_ulp_of_crossings(rng):
    for _ in range(100):
        n = int(rng.integers(2, 50))
        s = np.unique(rng.uniform(-3, 3, n))
        c = rng.uniform(-4, 4, s.size)
        # crossing points of every consecutive pair, and the floats either side
        t = (c[:-1] - c[1:]) / (s[1:] - s[:-1])
        t = t[np.abs(t) < 10]
        xs = np.sort(np.concatenate([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)]))
        if xs.size:
            assert_envelope_exact(s, c, xs)


def test_envelope_matches_the_old_loop_in_general_position(rng):
    for _ in range(100):
        n = int(rng.integers(1, 300))
        s = np.unique(rng.uniform(-3, 3, n))
        c = rng.uniform(-4, 4, s.size)
        xs = np.sort(rng.uniform(-4, 4, int(rng.integers(1, 300))))
        got = assert_envelope_exact(s, c, xs)
        assert np.array_equal(got.view(np.uint64), slow_envelope_merge(s, c, xs).view(np.uint64))


@pytest.mark.parametrize("case", ["one line", "one x", "equal slopes", "duplicate lines"])
def test_envelope_degenerate_hulls(rng, case):
    xs = np.sort(rng.uniform(-3, 3, 50))
    if case == "one line":
        s, c = np.array([0.5]), np.array([-1.25])
    elif case == "one x":
        s, c = np.linspace(-2, 2, 97), rng.uniform(-4, 4, 97)
        xs = xs[:1]
    elif case == "equal slopes":
        # a one-line hull and no neighbour in slope: every line is a
        # candidate everywhere, more pairs than one cell budget
        s, c = np.full(3000, 1.5), rng.uniform(-4, 4, 3000)
    else:  # non-decreasing slopes, each line twice
        s = np.repeat(np.linspace(-2, 2, 9), 2)
        c = np.repeat(rng.uniform(-4, 4, 9), 2)
    assert_envelope_exact(s, c, xs)


@pytest.mark.parametrize("f_zero", [0.0, -0.0])
def test_envelope_signed_zero_ties(f_zero):
    # every pattern of ±0 lines meets x = ±0; a zero max reads +0
    slopes = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])
    for xs in (np.array([-0.0]), np.array([0.0]), np.array([-0.0, 0.0]), np.array([-1.0, -0.0, 0.0, 1.0])):
        for pattern in range(2**slopes.size):
            # f = f_zero on the chosen nodes and 1 elsewhere: ties at 0 only
            chosen = (pattern >> np.arange(slopes.size)) & 1 == 1
            icepts = np.where(chosen, -f_zero, -1.0)
            assert_envelope_exact(slopes, icepts, xs)
            icepts[~chosen] = NEG  # f = +inf: -inf lines between the zeros
            if chosen.any():
                assert_envelope_exact(slopes, icepts, xs)


def test_envelope_huge_intercepts_take_every_line(rng):
    # 4*(M + max|s|) overflows: every line is a candidate, still exact
    s = np.linspace(-2, 2, 33)
    c = rng.uniform(-1, 1, 33) * 1e308
    assert_envelope_exact(s, c, np.sort(rng.uniform(-3, 3, 40)))


def test_envelope_all_neg_inf_lines():
    out = _kernels.envelope_merge(np.array([0.0, 1.0]), np.array([NEG, NEG]), np.array([0.5]))
    assert np.array_equal(out, [NEG])


@st.composite
def lines_and_nodes(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["uniform", "near-collinear", "quantized", "quadratic"]))
    if kind == "near-collinear":
        s, c, xs = near_collinear(rng, n)
    else:
        s = np.sort(rng.uniform(-3, 3, n)) if kind != "quantized" else np.unique(rng.integers(-4, 5, n) / 2.0)
        if kind == "uniform":
            c = rng.uniform(-4, 4, s.size)
        elif kind == "quantized":
            c = rng.integers(-4, 5, s.size) / 4.0
        else:
            c = -np.round(s * s / 2, 1)
        xs = np.sort(rng.choice([rng.uniform(-3, 3), 0.0, -0.0, 0.5], size=draw(st.integers(1, 30))))
    if draw(st.booleans()):
        c = c.copy()
        c[rng.random(c.size) < 0.2] = NEG
    return s, c, xs


@settings(max_examples=300, deadline=None)
@given(lines_and_nodes())
def test_envelope_property_against_dense(case):
    assert_envelope_exact(*case)


def test_legendre_fast_matches_dense_with_plus_inf_nodes_and_zero_ties(rng):
    yg = Grid.line(-2, 2, 9)  # nodes -2, -1.5, ..., 2 with an exact 0
    xg = Grid.line(-1, 1, 5)
    for _ in range(200):
        vals = rng.choice([0.0, -0.0, 1.0, POS], size=9)
        if not np.isfinite(vals).any():
            continue
        f = GridFn(yg, vals)
        k = Kernel.bilinear(xg, yg)
        fast = legendre_fast(f, k).values
        dense = conjugate(f, k).values
        assert np.array_equal(fast.view(np.uint64), dense.view(np.uint64))


# ---------------------------------------------------------------------------
# 1-D bilinear action: the envelope merge above the crossover, bit for bit
# ---------------------------------------------------------------------------

ROWS = _kernels._ENVELOPE_ROWS  # X-nodes above which the action merges envelopes


def assert_action_exact(x, y, neg_f, want=None):
    got = _kernels.matvec_bilinear(x, y, neg_f)
    if want is None:
        want = dense_matvec_bilinear(x, y, neg_f)
    assert_zero_rule_bits(got, want)
    return got


@pytest.fixture
def merges(monkeypatch):
    """The |X| of every envelope merge taken through ``_kernels``."""
    calls = []
    merge = _kernels.envelope_merge

    def counted(slopes, icepts, xs, *args, **kwargs):
        calls.append(xs.shape[0])
        return merge(slopes, icepts, xs, *args, **kwargs)

    monkeypatch.setattr(_kernels, "envelope_merge", counted)
    return calls


@pytest.mark.parametrize("nx", [ROWS, ROWS + 1])
def test_action_at_the_crossover(rng, merges, nx):
    x = np.sort(rng.uniform(-3, 3, nx))
    y = np.linspace(-2, 2, 97)
    assert_action_exact(x, y, kernel_neg_f(rng, 97))
    assert merges == ([nx] if nx > ROWS else [])


@pytest.mark.parametrize("unsorted", ["x", "y"])
def test_action_unsorted_takes_the_dense_sweep(rng, merges, unsorted):
    x = np.sort(rng.uniform(-3, 3, 2 * ROWS))
    y = np.linspace(-2, 2, 97)
    if unsorted == "x":
        x = rng.permutation(x)
    else:
        y = rng.permutation(y)
    assert_action_exact(x, y, kernel_neg_f(rng, 97))
    assert merges == []


@pytest.mark.parametrize("nx,ny", [(1, 97), (2 * ROWS, 1)], ids=["one x", "one y"])
def test_action_one_node_axes(rng, merges, nx, ny):
    x = np.sort(rng.uniform(-3, 3, nx))
    y = np.sort(rng.uniform(-2, 2, ny))
    assert_action_exact(x, y, rng.uniform(-5, 5, ny))
    assert len(merges) == (nx > ROWS)


@pytest.mark.parametrize("case", ["all -inf", "one +inf"])
def test_action_infinite_neg_f(rng, case):
    y = np.linspace(-2, 2, 97)
    for nx in (ROWS, ROWS + 1):
        x = np.sort(rng.uniform(-3, 3, nx))
        if case == "all -inf":
            neg_f = np.full(97, NEG)
        else:
            neg_f = kernel_neg_f(rng, 97)
            neg_f[40] = POS
        got = assert_action_exact(x, y, neg_f)
        assert np.all(got == (NEG if case == "all -inf" else POS))


@pytest.mark.parametrize("f_zero", [0.0, -0.0])
def test_action_signed_zero_ties_above_the_crossover(rng, merges, f_zero):
    x = np.sort(np.concatenate([rng.uniform(-3, 3, ROWS), np.zeros(9)]))
    zeros = np.flatnonzero(x == 0)
    x[zeros] = rng.choice([0.0, -0.0], zeros.size)  # still non-decreasing
    y = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])
    for pattern in range(1, 2**y.size):
        # f = f_zero on the chosen nodes and 1 (then +inf) elsewhere
        chosen = (pattern >> np.arange(y.size)) & 1 == 1
        neg_f = np.where(chosen, -f_zero, -1.0)
        assert_action_exact(x, y, neg_f)
        neg_f[~chosen] = NEG
        assert_action_exact(x, y, neg_f)
    assert merges == [x.size] * 2 * (2**y.size - 1)


@pytest.mark.parametrize("case", ["products", "intercepts"])
def test_action_where_the_envelope_bound_overflows(rng, merges, case):
    # 4(M + max|y|) overflows, so the merge takes every line at every x
    nx, ny = ROWS + 1, 33
    if case == "products":  # some products overflow to +-inf as well
        x, y = np.linspace(-1e200, 1e200, nx), np.linspace(-1e200, 1e200, ny)
        neg_f = rng.uniform(-1, 1, ny)
    else:
        x, y = np.sort(rng.uniform(-3, 3, nx)), np.linspace(-2, 2, ny)
        neg_f = rng.uniform(-1, 1, ny) * 1e308
    with np.errstate(over="ignore"):
        want = dense_matvec_bilinear(x, y, neg_f)
    assert_action_exact(x, y, neg_f, want)
    assert merges == [nx]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("nx", [5, ROWS + 1])
def test_kernel_rejects_overflowing_products(rng, nx):
    # b(x, y) = x*y must be a float: 1e200 * 1e200 is not, so the kernel is
    # rejected where the actions once met +inf products; at ROWS + 1 X-nodes
    # the action on the largest admissible grid takes the envelope merge
    big, unit = Grid.line(-1e200, 1e200, nx), Grid.line(-1, 1, 3)
    for xg, yg in ((big, big), (big, Grid.line(0, 1e200, 2)), (Grid.line(1e200, 1e200, 1), big)):
        for x, y in ((xg, yg), (yg, xg)):
            with pytest.raises(ValidationError, match="bilinear kernel"):
                Kernel.bilinear(x, y)
    edge = Grid.line(-1e154, 1e154, nx)  # 1e308 is a float
    for x, y in ((big, unit), (unit, big), (edge, edge)):
        k = Kernel.bilinear(x, y)
        assert np.isfinite(k.matrix()).all() and np.isfinite(k.transpose().matrix()).all()
    y = Grid.line(-1e154, 1e154, 41).coords
    neg_f = np.where(rng.random(41) < 0.2, NEG, rng.uniform(-1, 1, 41))
    assert np.isfinite(assert_action_exact(edge.coords, y, neg_f)).all()


@st.composite
def action_inputs(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)

    def axis(n, scale):
        kind = draw(st.sampled_from(["uniform", "grid", "half-integer"]))
        if kind == "uniform":
            return np.sort(rng.uniform(-scale, scale, n))
        if kind == "grid":
            return Grid.line(-scale, scale, n).coords if n > 1 else np.array([scale])
        a = np.sort(rng.integers(-4, 5, n) / 2.0)
        zeros = np.flatnonzero(a == 0)
        a[zeros] = rng.choice([0.0, -0.0], zeros.size)  # ±0 ties
        return a

    x = axis(draw(st.integers(ROWS + 1, ROWS + 200)), 3.0)
    y = axis(draw(st.integers(1, 60)), 2.0)
    kind = draw(st.sampled_from(["uniform", "quantized", "convex", "zero"]))
    if kind == "uniform":
        f = rng.uniform(-4, 4, y.size)
    elif kind == "quantized":
        f = rng.integers(-4, 5, y.size) / 4.0
    elif kind == "convex":
        f = np.round(y * y / 2, 1)
    else:
        f = rng.choice([0.0, -0.0], y.size)
    if draw(st.booleans()):
        f[rng.random(y.size) < 0.2] = POS
    return x, y, -f


@settings(max_examples=150, deadline=None)
@given(action_inputs())
def test_action_property_above_the_crossover(case):
    assert_action_exact(*case)


# ---------------------------------------------------------------------------
# a zero maximum reads +0, in every action
# ---------------------------------------------------------------------------

def dense_table(table, neg_f):
    """The table action over every cell; -inf meeting +inf (NaN) reads -inf."""
    with np.errstate(invalid="ignore"):
        t = table + neg_f[None, :]
    t[np.isnan(t)] = NEG
    return t.max(axis=1)


def signed_axis(rng, n, signs="signed"):
    """n sorted coordinates with exact ties, zero products and -0.0; a
    non-negative axis makes x*y -0 wherever x < 0 meets y = +0."""
    if signs == "non-negative":
        return np.sort(rng.choice([0.0, 0.5, 1.0, 2.0], n))
    return np.sort(rng.choice([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0], n))


def half_grid(n, signs="signed"):
    """n nodes a half apart, from 0 or centred on it (a node at 0 when n is odd)."""
    if signs == "non-negative":
        return Grid.line(0.0, (n - 1) / 2, n)
    return Grid.line(-(n - 1) / 4, (n - 1) / 4, n)


def tie_f(rng, n, infs, values="ties"):
    """f of +0, of ±0, or of ±0, ±1 and 0.5, with +inf nodes or one -inf node."""
    f = rng.choice({"+0": [0.0], "±0": [0.0, -0.0], "ties": [0.0, -0.0, 1.0, -1.0, 0.5]}[values], n)
    if infs == "+inf nodes":
        f[rng.random(n) < 0.3] = POS
    elif infs == "a -inf node":
        f[rng.integers(n)] = NEG
    return f


def zero_rule_table(rng, nx, ny, infs, signs, values):
    cols = rng.choice([0.0, -0.0, 1.0, -1.0, NEG], (ny, nx)).T  # column-major
    rows = np.ascontiguousarray(cols)
    neg_f = -tie_f(rng, ny, infs, values)
    got = _kernels.matvec_table(cols, neg_f)
    assert_zero_rule_bits(got, dense_table(rows, neg_f))
    assert_zero_rule_bits(_kernels.matvec_table(rows, neg_f), got)


def zero_rule_bilinear(rng, nx, ny, infs, signs, values):
    # the dense sweep at or below ROWS X-nodes, the envelope merge above
    x, y = signed_axis(rng, nx), signed_axis(rng, ny, signs)
    neg_f = -tie_f(rng, ny, infs, values)
    assert_zero_rule_bits(_kernels.matvec_bilinear(x, y, neg_f), dense_matvec_bilinear(x, y, neg_f))


def zero_rule_bilinear_2d(rng, nx, ny, infs, signs, values):
    n = rng.integers(1, 10, 4)
    a0, a1 = signed_axis(rng, n[0]), signed_axis(rng, n[1])
    b0, b1 = signed_axis(rng, n[2], signs), signed_axis(rng, n[3], signs)
    x0, x1 = (c.ravel() for c in np.meshgrid(a0, a1, indexing="ij"))
    y0, y1 = (c.ravel() for c in np.meshgrid(b0, b1, indexing="ij"))
    neg_f = -tie_f(rng, y0.size, infs, values)
    assert_zero_rule_bits(
        _kernels.matvec_bilinear_2d(x0, x1, y0, y1, neg_f), dense_bilinear_2d(x0, x1, y0, y1, neg_f)
    )


def zero_rule_envelope(rng, nx, ny, infs, signs, values):
    xs, slopes = signed_axis(rng, nx), signed_axis(rng, ny, signs)
    f = tie_f(rng, ny, infs, values)
    icepts = np.where(f == NEG, NEG, -f)  # intercepts lie in R ∪ {-inf}
    assert_zero_rule_bits(_kernels.envelope_merge(slopes, icepts, xs), dense_envelope(slopes, icepts, xs))


def zero_rule_legendre_fast(rng, nx, ny, infs, signs, values):
    xg, yg = half_grid(nx), half_grid(ny, signs)
    f = GridFn(yg, tie_f(rng, ny, infs, values))
    got = legendre_fast(f, Kernel.bilinear(xg, yg)).values
    assert_zero_rule_bits(got, dense_matvec_bilinear(xg.coords, yg.coords, -f.flat))


def zero_rule_conjugate(rng, nx, ny, infs, signs, values):
    # a 1-D and a 2-D bilinear kernel, and a table kernel and its transpose
    xg, yg = half_grid(nx), half_grid(ny, signs)
    f = GridFn(yg, tie_f(rng, ny, infs, values))
    want = dense_matvec_bilinear(xg.coords, yg.coords, -f.flat)
    assert_zero_rule_bits(conjugate(f, Kernel.bilinear(xg, yg)).values, want)
    n = rng.integers(1, 10, 4)
    xb = Grid.box(-(n[:2] - 1) / 4, (n[:2] - 1) / 4, n[:2])
    yb = Grid.box(-(n[2:] - 1) / 4, (n[2:] - 1) / 4, n[2:])
    fb = GridFn(yb, tie_f(rng, yb.size, infs, values))
    xc, yc = xb.coords, yb.coords
    want = dense_bilinear_2d(xc[:, 0], xc[:, 1], yc[:, 0], yc[:, 1], -fb.flat)
    assert_zero_rule_bits(conjugate(fb, Kernel.bilinear(xb, yb)).values.ravel(), want)
    table = rng.choice([0.0, -0.0, 1.0, -1.0, NEG], (nx, ny))
    table[0] = table[:, 0] = -0.0  # every row and column holds a finite entry
    k = Kernel.from_table(xg, yg, table)
    assert_zero_rule_bits(conjugate(f, k).values, dense_table(table, -f.flat))
    g = GridFn(xg, tie_f(rng, nx, infs, values))
    assert_zero_rule_bits(conjugate(g, k.transpose()).values, dense_table(table.T, -g.flat))


ZERO_RULE = {
    "matvec_table": zero_rule_table,
    "matvec_bilinear": zero_rule_bilinear,
    "matvec_bilinear_2d": zero_rule_bilinear_2d,
    "envelope_merge": zero_rule_envelope,
    "legendre_fast": zero_rule_legendre_fast,
    "conjugate": zero_rule_conjugate,
}


@pytest.mark.parametrize("action", list(ZERO_RULE))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2, 7, ROWS, ROWS + 1, ROWS + 90]),  # |X| about the crossover
    st.integers(1, 40),  # |Y|
    st.sampled_from(["finite", "+inf nodes", "a -inf node"]),
    st.sampled_from(["signed", "non-negative"]),  # Y-coordinates
    st.sampled_from(["+0", "±0", "ties"]),  # finite values of f
))
def test_every_action_reads_a_zero_max_as_plus_zero(action, case):
    """Each action equals its dense oracle + 0.0 bit for bit, on ±0 ties,
    ±inf in f and signed-zero coordinates; a column-major table gives the
    bits of its row-major copy."""
    seed, *sizes_and_kinds = case
    ZERO_RULE[action](np.random.default_rng(seed), *sizes_and_kinds)


# ---------------------------------------------------------------------------
# kernel blocks
# ---------------------------------------------------------------------------

def block_kernels(rng):
    """A 1-D bilinear, a 2-D bilinear and a table kernel with -inf entries."""
    x1, y1 = Grid.line(-3, 3, 37), Grid.line(-2, 2, 23)
    x2, y2 = Grid.box((-1, -2), (1, 2), (5, 7)), Grid.box((-3, 0), (3, 1), (4, 6))
    table = rng.uniform(-5, 5, (37, 23))
    table[rng.random((37, 23)) < 0.2] = NEG
    table[:, 0] = table[0] = 1.0
    return [Kernel.bilinear(x1, y1), Kernel.bilinear(x2, y2), Kernel.from_table(x1, y1, table)]


def test_kernel_rows_bit_exact_against_matrix(rng):
    for k in block_kernels(rng):
        m = k.matrix()
        nx = k.x_grid.size
        idx = rng.permutation(nx)[: nx // 2]
        assert np.array_equal(k.rows(slice(None)), m)
        assert np.array_equal(k.rows(slice(3, 11)), m[3:11])
        assert np.array_equal(k.rows(idx), m[idx])
        assert k.rows(idx[:0]).shape == (0, k.y_grid.size)
        for i in (0, nx // 2, nx - 1):
            assert np.array_equal(k.row(i).flat, m[i])
        # the bilinear cells are the products the conjugate itself takes
        if k.kind == "bilinear" and k.x_grid.dim == 1:
            want = np.multiply.outer(k.x_grid.coords, k.y_grid.coords)
            assert np.array_equal(m.view(np.int64), want.view(np.int64))


def dense_attain(g, k):
    """The attainment matrix in one dense evaluation: a term attains where
    it equals a dual above -inf (terms that overflow to -inf attain nothing)."""
    b = k.matrix()
    gv = g.flat
    dual = conjugate(g, k.transpose()).flat
    term = otimes(b, -gv[:, None])
    return np.isfinite(b) & (gv[:, None] < POS) & (term == dual) & (dual > NEG)


@pytest.mark.parametrize(
    "nx,ny", [(1, 97), (ROWS_97 - 1, 97), (ROWS_97, 97), (ROWS_97 + 1, 97)]
    + [s for s in EDGE_SHAPES if s[0] < 100] + [(5, 1)],
)
def test_subdifferential_map_bit_exact_at_block_edges(rng, nx, ny):
    xg = Grid.line(-2, 2, nx) if nx > 1 else Grid.line(0.0, 0.0, 1)
    yg = Grid.line(-3, 3, ny) if ny > 1 else Grid.line(0.0, 0.0, 1)
    g = np.round(rng.uniform(-2, 2, nx) + xg.coords**2, 1)
    g[rng.random(nx) < 0.05] = POS
    k = Kernel.bilinear(xg, yg)
    for gv in (g, xg.coords**2 / 2):
        fn = GridFn(xg, gv)
        sd = subdifferential_map(fn, k)
        assert np.array_equal(sd.attain, dense_attain(fn, k))
        assert not sd.attain.flags.writeable


# attainment from the envelope merge: above ROWS Y-nodes the dual of a
# 1-D bilinear kernel merges envelopes and marks the attaining pairs among
# its candidates; ties and near-ties must match the dense test bit for bit
ATTAIN_CASES = ["affine", "affine plus c", "zero", "+inf nodes", "one decimal", "one -inf"]


def attain_g(rng, xg, yg, case):
    x = xg.coords
    a = yg.coords[yg.size // 3]
    if case == "affine":  # every line x -> x*y - g(x) meets the others at y = a
        return a * x
    if case == "affine plus c":
        return a * x + 0.375
    if case == "zero":
        return np.zeros(x.size)
    if case == "one decimal":
        return np.round(rng.uniform(-2, 2, x.size) + x**2, 1)
    g = x**2 / 2
    if case == "+inf nodes":
        g[rng.random(x.size) < 0.1] = POS
    else:  # one -inf node: the dual is +inf everywhere, from the dense walk
        g[x.size // 2] = NEG
    return g


@pytest.fixture
def walks(monkeypatch):
    """The row blocks that ``Kernel.rows`` builds."""
    calls = []
    rows = Kernel.rows

    def counted(self, idx, out=None):
        calls.append(idx)
        return rows(self, idx, out)

    monkeypatch.setattr(Kernel, "rows", counted)
    return calls


@pytest.mark.parametrize("ny", [ROWS, ROWS + 1, 1601])
@pytest.mark.parametrize("case", ATTAIN_CASES)
def test_attainment_from_the_merge_bit_exact(rng, merges, walks, ny, case):
    xg, yg = Grid.line(-2, 2, 129), Grid.line(-3, 3, ny)  # a dyadic X-grid
    k = Kernel.bilinear(xg, yg)
    fn = GridFn(xg, attain_g(rng, xg, yg, case))
    sd = subdifferential_map(fn, k)
    merged = ny > ROWS and case != "one -inf"
    assert merges == ([ny] if merged else [])
    assert (walks == []) == merged  # the merge marks attainment without a walk
    assert np.array_equal(sd.attain, dense_attain(fn, k))
    assert not sd.attain.flags.writeable
    want = dense_matvec_bilinear(yg.coords, xg.coords, -fn.flat)
    assert_zero_rule_bits(sd.dual.flat, want)
    if case == "affine":
        assert sd.attain[:, yg.size // 3].all()


@pytest.mark.parametrize("case", ["intercepts", "terms"])
def test_attainment_where_the_envelope_bound_overflows(merges, walks, case):
    # magnitudes near the float limit make every line a merge candidate at
    # every node
    if case == "intercepts":  # the line of g = -1e308 ties with itself everywhere
        xg, yg = Grid.line(-2, 2, 9), Grid.line(-3, 3, ROWS + 1)
        g = 1e308 * np.linspace(-1, 1, 9)
    else:  # every term at the first Y-node overflows to -inf: no attainment
        xg, yg = Grid.line(1e154, 1.5e154, 9), Grid.line(-1e154, 1e154, ROWS + 1)
        g = np.full(9, 1e308)
    k = Kernel.bilinear(xg, yg)
    fn = GridFn(xg, g)
    sd = subdifferential_map(fn, k)
    assert merges == [ROWS + 1] and walks == []
    with np.errstate(over="ignore"):  # the oracle's sums overflow too
        assert np.array_equal(sd.attain, dense_attain(fn, k))
    if case == "intercepts":
        assert sd.attain[0].all()
    else:
        assert sd.dual.flat[0] == NEG and not sd.attain[:, 0].any()


# ---------------------------------------------------------------------------
# subdifferentials
# ---------------------------------------------------------------------------

def test_subdiff_bilinear_quadratic():
    g = Grid.line(-1, 1, 3)
    k = Kernel.bilinear(g, g)
    fn = GridFn(g, g.coords**2 / 2)
    sd = subdifferential_map(fn, k)
    assert np.flatnonzero(sd.attain[1]).tolist() == [1]  # x = 0 maps to y = 0 only


def test_subdiff_identity_kernel():
    k, g = identity_kernel(3)
    fn = GridFn(g, [1.0, -2.0, 0.5])
    sd = subdifferential_map(fn, k)
    for i in range(3):
        assert np.flatnonzero(sd.attain[i]).tolist() == [i]
        assert sd.preimage(i).tolist() == [i]


def test_subdiff_zero_kernel_all_attain():
    g = Grid.line(0, 1, 2)
    k = Kernel.from_table(g, g, np.zeros((2, 2)))
    sd = subdifferential_map(GridFn(g, np.zeros(2)), k)
    assert sd.attain.all()


def test_subdiff_directions_are_transposes(rng):
    from conftest import random_kernel_and_g

    for _ in range(20):
        k, g = random_kernel_and_g(rng)
        sd = subdifferential_map(g, k)
        for x in range(k.x_grid.size):
            for y in np.flatnonzero(sd.attain[x]):
                assert x in sd.preimage(y)
        for y in range(k.y_grid.size):
            for x in sd.preimage(y):
                assert sd.attain[x, y]
        # membership implies a finite kernel entry
        b = k.matrix()
        assert np.isfinite(b[sd.attain]).all()


# ---------------------------------------------------------------------------
# order properties
# ---------------------------------------------------------------------------

def test_galois_composition_under_g(rng):
    from conftest import random_kernel_and_g

    for _ in range(60):
        k, g = random_kernel_and_g(rng)
        back = conjugate(conjugate(g, k.transpose()), k)
        le = (back.values <= g.values) | (
            np.isposinf(back.values) & np.isposinf(g.values)
        ) | (np.isneginf(back.values))
        assert le.all()


def test_conjugate_antitone(rng):
    yg = Grid.line(-1, 1, 9)
    xg = Grid.line(-2, 2, 7)
    k = Kernel.bilinear(xg, yg)
    for _ in range(30):
        f1 = rng.uniform(-4, 4, 9)
        f2 = f1 + rng.uniform(0, 3, 9)  # f2 >= f1
        c1 = conjugate(GridFn(yg, f1), k).values
        c2 = conjugate(GridFn(yg, f2), k).values
        assert (c1 >= c2).all()


def test_additive_homogeneity_dyadic(rng):
    from conftest import dyadic

    yg = Grid.line(-2, 2, 17)
    xg = Grid.line(-2, 2, 9)
    k = Kernel.bilinear(xg, yg)
    for _ in range(30):
        f = dyadic(rng, 17)
        lam = float(dyadic(rng, 1)[0])
        shifted = conjugate(GridFn(yg, f + lam), k).values
        base = conjugate(GridFn(yg, f), k).values
        assert np.array_equal(shifted, base - lam)


# ---------------------------------------------------------------------------
# coercivity diagnostics
# ---------------------------------------------------------------------------

def test_bilinear_halfline_window_is_coercive_evidence():
    # mirrors a product kernel on [0, inf) x [a, inf): the lower edges are
    # genuine boundaries, the upper edges emulate infinity
    xg = Grid.line(0.0, 1.2, 13)
    yg = Grid.line(-1.0, 40.0, 83)
    k = Kernel.bilinear(xg, yg)
    rep = coercivity_report(
        k, sides=WindowSides.half_line(), x_sides=WindowSides.half_line()
    )
    assert rep.all_coercive
    assert rep.all_upper_coercive
    assert rep.coercive[0] == "EVIDENCE"  # genuine boundary x = 0 is testable
    assert rep.coercive[-1] == "EDGE"  # the top x edge only emulates infinity


def test_zero_kernel_violates_coercivity():
    g = Grid.line(0, 1, 11)
    k = Kernel.from_table(g, g, np.zeros((11, 11)))
    rep = coercivity_report(k)
    assert all(v == "VIOLATION" for v in rep.coercive[1:-1])
    assert not rep.all_coercive
    # a constant kernel is still bounded above on every sublevel set
    assert rep.all_upper_coercive


def test_single_x_node_bilinear_violates():
    xg = Grid.line(0.0, 0.0, 1)
    yg = Grid.line(-5, 5, 21)
    k = Kernel.bilinear(xg, yg)
    rep = coercivity_report(k)
    assert rep.coercive == ["VIOLATION"]


def test_superlevel_confinement_quadratic_vs_linear():
    yg = Grid.line(-5, 5, 41)
    xg = Grid.line(-5, 5, 11)
    k = Kernel.bilinear(xg, yg)
    quad = superlevel_compactness_report(GridFn(yg, yg.coords**2), k)
    assert quad.all_evidence
    flat = superlevel_compactness_report(GridFn(yg, np.zeros(41)), k)
    assert flat.verdicts[-1] == "VIOLATION"  # x = 5: superlevel {y >= beta} hits the edge


def test_superlevel_all_infinite_f_is_trivially_confined():
    yg = Grid.line(-5, 5, 21)
    xg = Grid.line(0, 1, 3)
    k = Kernel.bilinear(xg, yg)
    rep = superlevel_compactness_report(GridFn(yg, np.full(21, POS)), k)
    assert rep.all_evidence


def test_coercivity_2d_bilinear_box():
    xg = Grid.box((-1, -1), (1, 1), (5, 5))
    yg = Grid.box((-4, -4), (4, 4), (17, 17))
    k = Kernel.bilinear(xg, yg)
    rep = coercivity_report(k)
    tested = [v for v in rep.coercive if v != "EDGE"]
    assert tested and all(v == "EVIDENCE" for v in tested)
