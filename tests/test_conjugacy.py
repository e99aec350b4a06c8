import numpy as np
import pytest

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
from oracles import slow_conjugate

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
    assert out.tag == "plain"


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
    fast = legendre_fast(f, g)
    brute = conjugate(f, Kernel.bilinear(g, g))
    assert np.array_equal(fast.values, brute.values)


def test_legendre_abs_value():
    yg = Grid.line(-2, 2, 41)
    xg = Grid.line(-2, 2, 41)
    f = GridFn(yg, np.abs(yg.coords))
    out = legendre_fast(f, xg)
    # zero on [-1, 1], then linear growth: value 2 at x = 2
    assert out.values[np.abs(xg.coords) <= 1].max() == 0.0
    assert out.values[-1] == 2.0 * 2.0 - 2.0
    assert np.array_equal(out.values, conjugate(f, Kernel.bilinear(xg, yg)).values)


def test_legendre_single_x_node():
    yg = Grid.line(-1, 1, 11)
    out = legendre_fast(GridFn(yg, np.zeros(11)), Grid.line(0, 0, 1))
    assert np.array_equal(out.values, [0.0])


def test_legendre_rejects_all_infinite():
    yg = Grid.line(-1, 1, 5)
    with pytest.raises(ValidationError):
        legendre_fast(GridFn(yg, np.full(5, POS)), yg)


def test_legendre_neg_inf_propagates():
    yg = Grid.line(-1, 1, 5)
    vals = np.array([0.0, NEG, 1.0, 2.0, 3.0])
    fast = legendre_fast(GridFn(yg, vals), yg)
    brute = conjugate(GridFn(yg, vals), Kernel.bilinear(yg, yg))
    assert np.all(np.isposinf(fast.values))
    assert np.array_equal(fast.values, brute.values)


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
        fast = legendre_fast(f, xg)
        brute = conjugate(f, Kernel.bilinear(xg, yg))
        assert np.array_equal(fast.values, brute.values), f"trial {trial}"


# ---------------------------------------------------------------------------
# kernels: chunked evaluation against one-shot dense expressions
# ---------------------------------------------------------------------------

# row counts on both sides of the kernels' chunk size
KERNEL_ROWS = [1, _kernels._CHUNK_ROWS - 1, _kernels._CHUNK_ROWS, _kernels._CHUNK_ROWS + 1, 600]


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


@pytest.mark.parametrize("nx", KERNEL_ROWS)
def test_envelope_merge_bit_exact_against_dense(rng, nx):
    ny = 97
    slopes = np.linspace(-2, 2, ny)
    icepts = rng.uniform(-4, 4, ny)
    xs = np.sort(rng.uniform(-3, 3, nx))
    dense = (xs[:, None] * slopes[None, :] + icepts[None, :]).max(axis=1)
    assert np.array_equal(_kernels.envelope_merge(slopes, icepts, xs), dense)


# ---------------------------------------------------------------------------
# subdifferentials
# ---------------------------------------------------------------------------

def test_subdiff_bilinear_quadratic():
    g = Grid.line(-1, 1, 3)
    k = Kernel.bilinear(g, g)
    fn = GridFn(g, g.coords**2 / 2)
    sd = subdifferential_map(fn, k)
    assert sd.at(1).tolist() == [1]  # x = 0 maps to y = 0 only


def test_subdiff_identity_kernel():
    k, g = identity_kernel(3)
    fn = GridFn(g, [1.0, -2.0, 0.5])
    sd = subdifferential_map(fn, k)
    for i in range(3):
        assert sd.at(i).tolist() == [i]
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
            for y in sd.at(x):
                assert x in sd.preimage(y)
        for y in range(k.y_grid.size):
            for x in sd.preimage(y):
                assert y in sd.at(x)
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
        k, 0.1, sides=WindowSides.half_line(), x_sides=WindowSides.half_line()
    )
    assert rep.all_coercive
    assert rep.all_upper_coercive
    assert rep.coercive[0] == "EVIDENCE"  # genuine boundary x = 0 is testable
    assert rep.coercive[-1] == "EDGE"  # the top x edge only emulates infinity
    assert rep.strongly_coercive == rep.coercive  # finite stencil neighborhoods
    assert rep.finite_neighborhoods


def test_zero_kernel_violates_coercivity():
    g = Grid.line(0, 1, 11)
    k = Kernel.from_table(g, g, np.zeros((11, 11)))
    rep = coercivity_report(k, 0.1)
    assert all(v == "VIOLATION" for v in rep.coercive[1:-1])
    assert not rep.all_coercive
    # a constant kernel is still bounded above on every sublevel set
    assert rep.all_upper_coercive


def test_single_x_node_bilinear_violates():
    xg = Grid.line(0.0, 0.0, 1)
    yg = Grid.line(-5, 5, 21)
    k = Kernel.bilinear(xg, yg)
    rep = coercivity_report(k, 0.1)
    assert rep.coercive == ["VIOLATION"]


def test_superlevel_confinement_quadratic_vs_linear():
    yg = Grid.line(-5, 5, 41)
    xg = Grid.line(-5, 5, 11)
    k = Kernel.bilinear(xg, yg)
    quad = superlevel_compactness_report(GridFn(yg, yg.coords**2), k, 0.1)
    assert quad.all_evidence
    flat = superlevel_compactness_report(GridFn(yg, np.zeros(41)), k, 0.1)
    assert flat.verdicts[-1] == "VIOLATION"  # x = 5: superlevel {y >= beta} hits the edge


def test_superlevel_all_infinite_f_is_trivially_confined():
    yg = Grid.line(-5, 5, 21)
    xg = Grid.line(0, 1, 3)
    k = Kernel.bilinear(xg, yg)
    rep = superlevel_compactness_report(GridFn(yg, np.full(21, POS)), k, 0.1)
    assert rep.all_evidence


def test_coercivity_2d_bilinear_box():
    xg = Grid.box((-1, -1), (1, 1), (5, 5))
    yg = Grid.box((-4, -4), (4, 4), (17, 17))
    k = Kernel.bilinear(xg, yg)
    rep = coercivity_report(k, 0.1)
    tested = [v for v in rep.coercive if v != "EDGE"]
    assert tested and all(v == "EVIDENCE" for v in tested)
