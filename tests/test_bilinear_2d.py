"""The pruned 2-D bilinear action against the dense sweep, bit for bit.

``_kernels.matvec_bilinear_2d`` evaluates only the Y-rows whose 1-D
estimate comes within the rounding slack of the best one.  Its results
must equal those of ``oracles.dense_bilinear_2d``, which evaluates every
cell, including the sign of a zero: results are compared through their
bit patterns.  Inputs are product boxes with one-node axes, X != Y, row
counts across the chunk size, quantized f with exact ties, x0 = 0 and
signed-zero coordinates, +inf and -inf values of f, and magnitudes near
the overflow threshold; a kernel whose sums overflow is rejected.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplus import Grid, Kernel, ValidationError, _kernels
from oracles import dense_bilinear_2d

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

NEG = float("-inf")
POS = float("inf")
U = 2.0**-53


def product(a0, a1):
    """Row-major nodes of the box a0 x a1, as two coordinate arrays."""
    g0, g1 = np.meshgrid(np.asarray(a0, float), np.asarray(a1, float), indexing="ij")
    return g0.ravel().copy(), g1.ravel().copy()


def assert_bits_equal(x0, x1, y0, y1, neg_f):
    got = _kernels.matvec_bilinear_2d(x0, x1, y0, y1, neg_f)
    want = dense_bilinear_2d(x0, x1, y0, y1, neg_f)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (
        got[got.view(np.uint64) != want.view(np.uint64)][:5],
        want[got.view(np.uint64) != want.view(np.uint64)][:5],
    )


# axis nodes: uniform, integer (exact ties, an exact 0) or with -0.0
axis_kinds = st.sampled_from(["uniform", "integer", "signed-zero"])


@st.composite
def axes(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    kind = draw(axis_kinds)
    if kind == "uniform":
        lo = draw(st.floats(-3, 0))
        hi = draw(st.floats(0, 3))
        return np.linspace(lo, hi, n) if n > 1 else np.array([lo])
    a = np.arange(n, dtype=float) - (n // 2)
    if kind == "signed-zero":
        a[a == 0] = -0.0
    return a


@st.composite
def boxes_and_f(draw):
    x0, x1 = product(draw(axes()), draw(axes()))
    y0, y1 = product(draw(axes()), draw(axes()))
    ny = y0.size
    kind = draw(st.sampled_from(["uniform", "quantized", "constant", "zero", "quadratic"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        f = rng.uniform(-5, 5, ny)
    elif kind == "quantized":
        f = rng.integers(-2, 3, ny) / 2.0
    elif kind == "constant":
        f = np.full(ny, float(rng.integers(-2, 3)))
    elif kind == "zero":
        f = np.zeros(ny)
    else:
        f = np.round((y0 * y0 + y1 * y1) / 2, 1)
    extra = draw(st.sampled_from(["none", "+inf nodes", "all +inf", "-inf node"]))
    if extra == "+inf nodes":
        f[rng.random(ny) < 0.3] = POS
    elif extra == "all +inf":
        f[:] = POS
    elif extra == "-inf node":
        f[rng.integers(ny)] = NEG
    return x0, x1, y0, y1, -f


@settings(max_examples=400, deadline=None)
@given(boxes_and_f())
def test_pruned_matches_dense_bits(case):
    assert_bits_equal(*case)


@pytest.mark.parametrize("shape", [(1, 1), (15, 17), (16, 16), (1, 257), (257, 1), (20, 30)])
@pytest.mark.parametrize("f_kind", ["smooth", "quantized", "zero"])
def test_pruned_across_chunks(rng, shape, f_kind):
    # |X| = 1, 255, 256, 257 and 600 around the chunk size, X != Y
    x0, x1 = product(np.linspace(-2, 2, shape[0]), np.linspace(-1.5, 1.5, shape[1]))
    y0, y1 = product(np.arange(9.0) - 4, np.linspace(-1, 1, 11))
    if f_kind == "smooth":
        f = (y0 * y0 + y1 * y1) / 2 + rng.uniform(-0.05, 0.05, y0.size)
    elif f_kind == "quantized":
        f = rng.integers(-1, 2, y0.size).astype(float)
    else:
        f = np.zeros(y0.size)
    f[rng.random(y0.size) < 0.05] = POS
    assert_bits_equal(x0, x1, y0, y1, -f)


@pytest.mark.parametrize("n", [2, 3, 7, 40])
def test_zero_ties_take_the_dense_sign(n):
    # at x = (0, 0) with f = 0 every cell is +0 or -0 (-0 where y0 < 0 and
    # y1 < 0), and which sign the max takes depends on the order of the
    # cells; y0 descends, so grouping rows by y0 reverses that order
    x0, x1 = product([-1.0, 0.0, 1.0], [0.0, -0.0, 2.0])
    y0, y1 = product(np.linspace(1, -1, n), np.linspace(-1, 0.5, n))
    for neg_f in (-np.zeros(y0.size), np.zeros(y0.size)):
        assert_bits_equal(x0, x1, y0, y1, neg_f)


@pytest.mark.parametrize("f_kind", ["one +inf", "all +inf", "all -inf", "-inf and +inf"])
def test_infinite_f(f_kind):
    x0, x1 = product(np.linspace(-1, 1, 5), np.linspace(-2, 2, 3))
    y0, y1 = product(np.linspace(-1, 1, 4), np.linspace(0, 1, 6))
    f = np.linspace(0, 1, y0.size)
    if f_kind == "one +inf":
        f[7] = POS
    elif f_kind == "all +inf":
        f[:] = POS
    elif f_kind == "all -inf":
        f[:] = NEG
    else:
        f[3], f[9] = NEG, POS
    assert_bits_equal(x0, x1, y0, y1, -f)


@pytest.mark.parametrize("scale", [2.0**500, 2.0**511, 1.5 * 2.0**511])
def test_magnitudes_near_overflow(rng, scale):
    # at 1.5 * 2**511 sums of two products overflow, the slack is not
    # finite and every row is evaluated; below it the pruning still runs
    with np.errstate(over="ignore"):
        x0, x1 = product(np.linspace(-scale, scale, 7), np.linspace(-scale, scale, 5))
        y0, y1 = product(np.linspace(-scale, scale, 6), np.linspace(-scale, scale, 4))
        neg_f = rng.uniform(-1, 1, y0.size) * 2.0**1000
        assert_bits_equal(x0, x1, y0, y1, neg_f)


def test_large_f_magnitudes(rng):
    x0, x1 = product(np.linspace(-1, 1, 9), np.linspace(-1, 1, 9))
    y0, y1 = product(np.linspace(-1, 1, 8), np.linspace(-1, 1, 8))
    neg_f = rng.uniform(-1, 1, y0.size) * 2.0**1000
    neg_f[5] = NEG
    assert_bits_equal(x0, x1, y0, y1, neg_f)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kernel_rejects_overflowing_sums():
    # x0*y0 and x1*y1 are floats near 1.6e308 each, their sum is not
    a = 1.5 * 2.0**511
    box = Grid.box((-a, -a), (a, a), (3, 3))
    with pytest.raises(ValidationError, match="bilinear kernel"):
        Kernel.bilinear(box, box)
    half = Grid.box((-a, -1), (a, 1), (3, 3))
    k = Kernel.bilinear(box, half)
    assert np.isfinite(k.matrix()).all()
    big = Grid.box((-1e200, -1), (1e200, 1), (3, 3))
    for x, y in ((big, big), (big, half)):
        with pytest.raises(ValidationError, match="bilinear kernel"):
            Kernel.bilinear(x, y)


def test_slack_covers_the_proved_bound():
    # the docstring's argument: |D - E| <= (4 + 2u)u M per cell, with room
    # for rounding M and the window in floats
    assert _kernels._SLACK * (1 - 4 * U) >= (4 + 2 * U) * U


def test_slack_keeps_a_near_tie_across_rows():
    # two one-node rows at x = (1, 1): row 0 holds the dense max, yet its
    # estimate fl(A + fl(B + C)) lies 3.2u M below row 1's, the largest gap
    # a search over sums of three near-equal terms found
    h = float.fromhex
    y0 = np.array([h("0x1.0000000000d02p+0"), h("0x1.00000000002f6p+0")])
    y1 = np.array([h("0x1.8000000000ee6p+1"), h("0x1.80000000015f6p+1")])
    neg_f = np.array([h("0x1.000000000087ep+0"), h("0x1.000000000046ap+0")])
    one = np.array([1.0])
    dense = (y0 + y1) + neg_f
    est = y0 + (y1 + neg_f)
    assert dense[0] > dense[1] and est[0] < est[1]
    assert_bits_equal(one, one, y0, y1, neg_f)
