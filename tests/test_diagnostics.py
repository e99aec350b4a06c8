"""Window diagnostics against their per-row definitions.

``coercivity_report``, ``superlevel_compactness_report`` and the witness
search of ``tightness_criterion`` run as array code over blocks of
X-rows.  Each report must equal, field by field, what the per-row loops
in ``tests/oracles.py`` return: on table kernels with sprinkled -inf, on
1-D and 2-D bilinear kernels, on single-node axes, and at row counts
that cross the block boundary.  No RuntimeWarning may fire.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplus import Grid, GridFn, Kernel, WindowSides, _kernels, tightness_criterion
from maxplus.conjugacy import (
    _row_quantiles,
    coercivity_report,
    superlevel_compactness_report,
)
from oracles import (
    slow_coercivity_report,
    slow_superlevel_compactness_report,
    slow_tightness_witness,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

NEG = float("-inf")
POS = float("inf")

CHUNK = _kernels._CHUNK_ROWS
ROW_COUNTS = [1, CHUNK - 1, CHUNK, CHUNK + 1, 600]

SIDES = {
    "open": None,
    "closed": WindowSides((True,), (True,)),
    "half": WindowSides.half_line(),
}


def line(n, lo=-3.0, hi=3.0):
    return Grid.line(lo, hi, n) if n > 1 else Grid.line(0.0, 0.0, 1)


def assert_reports_equal(k, f, *, radius=1, sides=None, x_sides=None, betas=None,
                         f_betas=None):
    kw = dict(stencil_radius=radius, sides=sides, x_sides=x_sides, betas=betas)
    assert coercivity_report(k, 0.1, **kw) == slow_coercivity_report(k, 0.1, **kw)
    kw = dict(sides=sides, betas=f_betas)
    assert superlevel_compactness_report(f, k, 0.1, **kw) == (
        slow_superlevel_compactness_report(f, k, 0.1, **kw)
    )


def assert_tightness_equal(k, g, *, radius=1, sides=None, x_sides=None):
    crit = tightness_criterion(
        k, g, sides=sides, x_sides=x_sides, stencil_radius=radius
    )
    assert crit.witness == slow_tightness_witness(
        k, g, sides=sides, stencil_radius=radius
    )
    assert crit.coercivity == slow_coercivity_report(
        k, 0.1, stencil_radius=radius, sides=sides, x_sides=x_sides
    )


# ---------------------------------------------------------------------------
# random table kernels
# ---------------------------------------------------------------------------

values = st.one_of(
    st.integers(-16, 16).map(lambda v: v / 4.0),  # ties and exact sums
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def table_cases(draw):
    nx = draw(st.integers(1, 12))
    ny = draw(st.integers(1, 12))
    b = np.array(draw(st.lists(values, min_size=nx * ny, max_size=nx * ny)))
    b = b.reshape(nx, ny)
    holes = np.array(draw(st.lists(st.booleans(), min_size=nx * ny, max_size=nx * ny)))
    b[holes.reshape(nx, ny) & (draw(st.integers(0, 3)) > 0)] = NEG
    # keep every row and every column finite somewhere
    for i in range(nx):
        if not np.isfinite(b[i]).any():
            b[i, i % ny] = 0.0
    for j in range(ny):
        if not np.isfinite(b[:, j]).any():
            b[j % nx, j] = 0.0
    f = np.array(draw(st.lists(
        st.one_of(values, st.sampled_from([NEG, POS])), min_size=ny, max_size=ny
    )))
    if draw(st.booleans()):
        f[:] = POS
    g = np.array(draw(st.lists(
        st.one_of(values, st.sampled_from([NEG, POS])), min_size=nx, max_size=nx
    )))
    xg, yg = line(nx, 0.0, 1.0), line(ny, 0.0, 1.0)
    k = Kernel.from_table(xg, yg, b)
    return k, GridFn(yg, f), GridFn(xg, g)


@settings(max_examples=150, deadline=None)
@given(
    table_cases(),
    st.integers(0, 2),
    st.sampled_from(sorted(SIDES)),
    st.sampled_from(sorted(SIDES)),
    st.sampled_from([None, [], [-1.0], [0.5], [2.0, -1.0, 2.0]]),
)
def test_table_kernel_reports_equal_per_row_loops(case, radius, sides, x_sides, betas):
    k, f, g = case
    assert_reports_equal(
        k, f, radius=radius, sides=SIDES[sides], x_sides=SIDES[x_sides],
        betas=betas, f_betas=betas,
    )
    assert_tightness_equal(k, g, radius=radius, sides=SIDES[sides], x_sides=SIDES[x_sides])


@pytest.mark.parametrize("nx", ROW_COUNTS)
@pytest.mark.parametrize("radius", [0, 1, 2])
def test_banded_table_across_blocks(nx, radius):
    # a band of finite entries, so the finite inner count differs by row
    rng = np.random.default_rng(nx + 10 * radius)
    ny = 48
    i = np.arange(nx)[:, None] * (ny - 1) // max(nx - 1, 1)
    j = np.arange(ny)[None, :]
    b = np.where(np.abs(i - j) <= 6, np.round(rng.normal(0, 4, (nx, ny)), 1), NEG)
    b[0, ~np.isfinite(b).any(axis=0)] = 0.0  # a single row covers every column
    xg, yg = line(nx), line(ny)
    k = Kernel.from_table(xg, yg, b)
    f = GridFn(yg, np.where(rng.random(ny) < 0.1, POS, rng.normal(0, 2, ny)))
    assert_reports_equal(k, f, radius=radius)
    g = GridFn(xg, np.where(rng.random(nx) < 0.1, POS, 0.0))
    assert_tightness_equal(k, g, radius=radius)


# ---------------------------------------------------------------------------
# bilinear kernels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nx", ROW_COUNTS)
@pytest.mark.parametrize(
    "radius,sides", [(0, "open"), (1, "open"), (1, "half"), (2, "closed")]
)
def test_bilinear_1d_across_blocks(nx, radius, sides):
    xg, yg = line(nx, -2.0, 2.0), line(61, -4.0, 4.0)
    k = Kernel.bilinear(xg, yg)
    f = GridFn(yg, yg.coords**2 / 2)
    assert_reports_equal(k, f, radius=radius, sides=SIDES[sides], x_sides=SIDES[sides])
    g = GridFn(xg, xg.coords**2)
    assert_tightness_equal(k, g, radius=radius, sides=SIDES[sides], x_sides=SIDES[sides])


@pytest.mark.parametrize("betas", [[], [-1.0], [0.0], [3.0, 0.25, 3.0]])
@pytest.mark.parametrize("ny", [2, 41])  # two Y-nodes leave the inner window empty
def test_explicit_betas(betas, ny):
    xg, yg = line(300, -2.0, 2.0), line(ny, -4.0, 4.0)
    k = Kernel.bilinear(xg, yg)
    f = GridFn(yg, yg.coords**2 / 2)
    assert_reports_equal(k, f, betas=betas, f_betas=betas)


@pytest.mark.parametrize("f_kind", ["inf_entries", "all_posinf", "all_neginf"])
def test_infinite_f(f_kind):
    xg, yg = line(257, -2.0, 2.0), line(41, -4.0, 4.0)
    k = Kernel.bilinear(xg, yg)
    vals = yg.coords**2 / 2
    if f_kind == "inf_entries":
        vals = np.where(np.arange(41) % 7 == 0, POS, vals)
        vals[20] = NEG
    else:
        vals = np.full(41, POS if f_kind == "all_posinf" else NEG)
    assert_reports_equal(k, GridFn(yg, vals))


BOXES = [
    (1, 7), (7, 1), (1, 1), (5, 5),
    (40, 15),   # 17 first-axis slices per block: halos cross blocks
    (3, 300),   # one slice per block, wider than a block
    (600, 1), (1, 600),
]


@pytest.mark.parametrize("n", BOXES, ids=[f"{a}x{b}" for a, b in BOXES])
@pytest.mark.parametrize("radius", [0, 1, 2])
def test_bilinear_2d_across_blocks(n, radius):
    lo = tuple(-1.0 if m > 1 else 0.0 for m in n)
    hi = tuple(1.0 if m > 1 else 0.0 for m in n)
    xg = Grid(lo, hi, n)
    yg = Grid.box((-3.0, -3.0), (3.0, 3.0), (9, 7))
    k = Kernel.bilinear(xg, yg)
    f = GridFn(yg, (yg.coords**2).sum(axis=1))
    closed = WindowSides((True, False), (False, True))
    sides = closed if radius == 1 else None
    assert_reports_equal(k, f, radius=radius, sides=sides, x_sides=sides)
    g = GridFn(xg, (xg.coords**2).sum(axis=1))
    assert_tightness_equal(k, g, radius=radius, x_sides=closed)


# ---------------------------------------------------------------------------
# the quantiles behind the default betas
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6).flatmap(lambda m: st.integers(1, 9).flatmap(lambda n: st.tuples(
        st.lists(values, min_size=m * n, max_size=m * n).map(
            lambda v: np.array(v).reshape(m, n)),
        st.lists(st.booleans(), min_size=m * n, max_size=m * n).map(
            lambda v: np.array(v).reshape(m, n)),
    ))),
    st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0])),
             min_size=0, max_size=4),
)
def test_row_quantiles_match_np_quantile(case, quantiles):
    vals, keep = case
    levels, use = _row_quantiles(vals, keep, quantiles)
    for i in range(vals.shape[0]):
        assert use[i].tolist() == [bool(keep[i].any())] * len(quantiles)
        if keep[i].any():
            ref = [float(np.quantile(vals[i][keep[i]], q)) for q in quantiles]
            assert levels[i].tolist() == ref
