"""Window diagnostics against their per-row definitions.

``coercivity_report``, ``superlevel_compactness_report`` and the witness
search of ``tightness_criterion`` run as array code over blocks of
X-rows.  Each report must equal, field by field, what the per-row loops
in ``tests/oracles.py`` return: on table kernels with sprinkled -inf, on
1-D and 2-D bilinear kernels, on single-node axes, and at row counts
on both sides of the dense block edges.  The assumption labels that
``covering.verdict`` and ``ldp.pipeline`` read from these reports must be
the per-row loops' labels too.  No RuntimeWarning may fire.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxplus import (
    GartnerInput,
    Grid,
    GridFn,
    Kernel,
    MaxPlusForm,
    WindowSides,
    _kernels,
    pipeline,
    quasicontinuity_check,
    tightness_criterion,
    verdict,
)
from maxplus import conjugacy
from maxplus.conjugacy import (
    EDGE,
    EVIDENCE,
    VIOLATION,
    _level_below,
    _row_blocks,
    _row_quantile,
    coercivity_report,
    conjugate,
    inner_window_mask,
    superlevel_compactness_report,
)
from maxplus.covering import AssumptionEvidence, lifted_candidate
from conftest import dyadic, random_kernel_and_g
from oracles import (
    constant_sequence,
    slow_coercivity_report,
    slow_superlevel_compactness_report,
    slow_tightness_witness,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

NEG = float("-inf")
POS = float("inf")

BUDGET = _kernels._CELL_BUDGET
# row counts up to and past a 256-node chunk; at |Y| <= 61 all but 600
# fit in one dense block
ROW_COUNTS = [1, 255, 256, 257, 600]
# (|X|, |Y|) at the edges of the budget's blocks: rows on both sides of a
# 7-row block, |Y| wider than the budget (one row per block), |Y| = 1, and
# |Y| = 2, whose inner window is empty
EDGE_SHAPES = [
    (6, BUDGET // 7), (7, BUDGET // 7), (8, BUDGET // 7), (3, BUDGET + 1), (5, 1),
    (300, 2),
]

SIDES = {
    "open": None,
    "closed": WindowSides((True,), (True,)),
    "half": WindowSides.half_line(),
}


def line(n, lo=-3.0, hi=3.0):
    return Grid.line(lo, hi, n) if n > 1 else Grid.line(0.0, 0.0, 1)


def assert_reports_equal(k, f, *, sides=None, x_sides=None):
    kw = dict(sides=sides, x_sides=x_sides)
    assert coercivity_report(k, **kw) == slow_coercivity_report(k, **kw)
    kw = dict(sides=sides)
    assert superlevel_compactness_report(f, k, **kw) == (
        slow_superlevel_compactness_report(f, k, **kw)
    )


def assert_tightness_equal(k, g, *, sides=None, x_sides=None):
    crit = tightness_criterion(k, g, sides=sides, x_sides=x_sides)
    assert crit.witness == slow_tightness_witness(k, g, sides=sides)
    assert crit.coercivity == slow_coercivity_report(k, sides=sides, x_sides=x_sides)


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
@given(table_cases(), st.sampled_from(sorted(SIDES)), st.sampled_from(sorted(SIDES)))
def test_table_kernel_reports_equal_per_row_loops(case, sides, x_sides):
    k, f, g = case
    assert_reports_equal(k, f, sides=SIDES[sides], x_sides=SIDES[x_sides])
    assert_tightness_equal(k, g, sides=SIDES[sides], x_sides=SIDES[x_sides])


def assert_banded_table_equal(nx, ny, seed):
    # a band of finite entries, so the finite inner count differs by row
    rng = np.random.default_rng(nx + 10 * seed)
    i = np.arange(nx)[:, None] * (ny - 1) // max(nx - 1, 1)
    j = np.arange(ny)[None, :]
    b = np.where(np.abs(i - j) <= 6, np.round(rng.normal(0, 4, (nx, ny)), 1), NEG)
    b[0, ~np.isfinite(b).any(axis=0)] = 0.0  # a single row covers every column
    xg, yg = line(nx), line(ny)
    k = Kernel.from_table(xg, yg, b)
    f = GridFn(yg, np.where(rng.random(ny) < 0.1, POS, rng.normal(0, 2, ny)))
    assert_reports_equal(k, f)
    g = GridFn(xg, np.where(rng.random(nx) < 0.1, POS, 0.0))
    assert_tightness_equal(k, g)


@pytest.mark.parametrize("nx", ROW_COUNTS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_banded_table_across_blocks(nx, seed):
    assert_banded_table_equal(nx, 48, seed)


@pytest.mark.parametrize("nx,ny", EDGE_SHAPES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_banded_table_at_block_edges(nx, ny, seed):
    assert_banded_table_equal(nx, ny, seed)


# ---------------------------------------------------------------------------
# bilinear kernels
# ---------------------------------------------------------------------------

# the Y-window [-4 + shift, 4 + shift]: a shifted window moves the ring
# against the X-window, so different rows reach it
@pytest.mark.parametrize("nx", ROW_COUNTS)
@pytest.mark.parametrize(
    "shift,sides", [(0, "open"), (1, "open"), (1, "half"), (2, "closed")]
)
def test_bilinear_1d_across_blocks(nx, shift, sides):
    xg, yg = line(nx, -2.0, 2.0), line(61, -4.0 + shift, 4.0 + shift)
    k = Kernel.bilinear(xg, yg)
    f = GridFn(yg, yg.coords**2 / 2)
    assert_reports_equal(k, f, sides=SIDES[sides], x_sides=SIDES[sides])
    g = GridFn(xg, xg.coords**2)
    assert_tightness_equal(k, g, sides=SIDES[sides], x_sides=SIDES[sides])


@pytest.mark.parametrize("nx,ny", EDGE_SHAPES)
@pytest.mark.parametrize("shift,sides", [(0, "open"), (1, "half"), (2, "closed")])
def test_bilinear_1d_at_block_edges(nx, ny, shift, sides):
    xg, yg = line(nx, -2.0, 2.0), line(ny, -4.0 + shift, 4.0 + shift)
    k = Kernel.bilinear(xg, yg)
    f = GridFn(yg, yg.coords**2 / 2)
    assert_reports_equal(k, f, sides=SIDES[sides], x_sides=SIDES[sides])
    g = GridFn(xg, xg.coords**2)
    assert_tightness_equal(k, g, sides=SIDES[sides], x_sides=SIDES[sides])


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


# the witness from each row's end cells and the window's end cells: rows
# that change sign, subnormal and underflowing products, single-node axes
# and a 2-node Y-axis, whose inner window is empty
WITNESS_GRIDS = {
    "crosses 0": (Grid.line(-1.0, 3.0, 37), Grid.line(-2.5, 1.5, 29)),
    "positive": (Grid.line(0.5, 2.5, 17), Grid.line(1.0, 5.0, 21)),
    "subnormal x": (Grid.line(-5e-324, 5e-324, 3), Grid.line(-3.0, 3.0, 13)),
    "subnormal y": (Grid.line(-2.0, 2.0, 9), Grid.line(-5e-324, 5e-324, 3)),
    "1e-300": (Grid.line(-1e-300, 1e-300, 7), Grid.line(-1e-300, 3e-300, 11)),
    "one x": (Grid.line(0.7, 0.7, 1), Grid.line(-3.0, 3.0, 13)),
    "one y": (Grid.line(-2.0, 2.0, 9), Grid.line(-0.3, -0.3, 1)),
    "two y": (Grid.line(-2.0, 2.0, 9), Grid.line(-1.0, 1.0, 2)),
}


@pytest.mark.parametrize("grids", list(WITNESS_GRIDS))
@pytest.mark.parametrize("sides", list(SIDES))
@pytest.mark.parametrize("g_kind", ["square", "+inf nodes"])
def test_bilinear_1d_witness_from_row_ends(grids, sides, g_kind):
    xg, yg = WITNESS_GRIDS[grids]
    g = xg.coords**2 / 2
    if g_kind == "+inf nodes":
        g[::3] = POS
    k = Kernel.bilinear(xg, yg)
    assert_tightness_equal(k, GridFn(xg, g), sides=SIDES[sides], x_sides=SIDES[sides])


@pytest.mark.parametrize("sides", list(SIDES))
def test_bilinear_1d_witness_on_sampled_grids(sides):
    # bounds from ±0 to ±3, subnormal and 1e±300 magnitudes, so products
    # underflow, round to a few ulps or tie at signed zeros
    rng = np.random.default_rng(301)
    ends = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 0.5, -1.5, 3.0, -3.0, 1e150, -1e150]
    found = 0
    for _ in range(150):
        grids = []
        for _ in range(2):
            n = int(rng.integers(1, 10))
            lo, hi = sorted(rng.choice(ends, 2, replace=False).tolist())
            grids.append(Grid.line(lo, hi, n) if n > 1 and lo < hi else Grid.line(hi, hi, 1))
        xg, yg = grids
        g = rng.choice([0.0, 1.0, POS], xg.size, p=[0.45, 0.45, 0.1])
        k = Kernel.bilinear(xg, yg)
        crit = tightness_criterion(k, GridFn(xg, g), sides=SIDES[sides])
        assert crit.witness == slow_tightness_witness(k, GridFn(xg, g), sides=SIDES[sides])
        found += crit.witness is not None
    assert 10 < found < 140


def test_bilinear_1d_witness_at_benchmark_size():
    k, _ = gauss_ldp_case()
    g = GridFn(k.x_grid, 0.5 * k.x_grid.coords**2)
    assert tightness_criterion(k, g).witness == slow_tightness_witness(k, g) == 800


BOXES = [(1, 7), (7, 1), (1, 1), (5, 5), (40, 15), (3, 300), (600, 1), (1, 600)]

# X-boxes at the block edges of a 128x128 Y-box, whose blocks hold 8 rows:
# 7, 8 and 9 one-node slices; two 4-node slices per block, so that halos
# cross blocks; 9-node slices, one per block and wider than the budget
EDGE_BOXES = [(7, 1), (8, 1), (9, 1), (5, 4), (3, 9)]


# the window sides of a box, by index: all open, one closed side per
# axis, all closed
BOX_SIDES = [
    None, WindowSides((True, False), (False, True)), WindowSides((True, True), (True, True)),
]


def assert_box_reports_equal(n, y_n, window):
    lo = tuple(-1.0 if m > 1 else 0.0 for m in n)
    hi = tuple(1.0 if m > 1 else 0.0 for m in n)
    xg = Grid(lo, hi, n)
    yg = Grid.box((-3.0, -3.0), (3.0, 3.0), y_n)
    k = Kernel.bilinear(xg, yg)
    f = GridFn(yg, (yg.coords**2).sum(axis=1))
    sides = BOX_SIDES[window]
    assert_reports_equal(k, f, sides=sides, x_sides=sides)
    g = GridFn(xg, (xg.coords**2).sum(axis=1))
    assert_tightness_equal(k, g, x_sides=BOX_SIDES[1])


@pytest.mark.parametrize("n", BOXES, ids=[f"{a}x{b}" for a, b in BOXES])
@pytest.mark.parametrize("window", [0, 1, 2])
def test_bilinear_2d_across_blocks(n, window):
    assert_box_reports_equal(n, (9, 7), window)


@pytest.mark.parametrize("n", EDGE_BOXES, ids=[f"{a}x{b}" for a, b in EDGE_BOXES])
@pytest.mark.parametrize("window", [0, 1, 2])
def test_bilinear_2d_at_block_edges(n, window):
    assert _kernels.block_rows(128 * 128) == 8
    assert_box_reports_equal(n, (128, 128), window)


# ---------------------------------------------------------------------------
# the ring tests: sets that reach the ring, and windows without inner or ring
# ---------------------------------------------------------------------------

@st.composite
def ring_cases(draw):
    """Tables whose gain sublevel sets all reach the ring.

    The ring columns are constant along X, so their gain is 0, the least
    any gain can be, and every level reaches them.  When ``forced``, their
    entries exceed every inner one, so the max of b(x, ·) over each set
    lies in the ring and every tested row is an upper-coercive VIOLATION;
    otherwise they may tie with inner entries or stay below them.
    """
    nx, ny = draw(st.integers(3, 10)), draw(st.integers(3, 14))
    inner = inner_window_mask(line(ny, 0.0, 1.0))
    b = np.array(draw(st.lists(
        st.integers(-32, 32).map(lambda v: v / 4.0), min_size=nx * ny, max_size=nx * ny
    ))).reshape(nx, ny)
    high = st.integers(36, 64).map(lambda v: v / 4.0)
    forced = draw(st.booleans())
    ring = np.array(draw(st.lists(
        high if forced else st.one_of(high, st.sampled_from(b.ravel().tolist())),
        min_size=ny, max_size=ny,
    )))
    b[:, ~inner] = ring[~inner]
    return b, draw(st.sampled_from(["open", "closed"])), forced


@settings(max_examples=100, deadline=None)
@given(ring_cases())
def test_upper_violations_through_the_ring(case):
    b, x_sides, forced = case
    nx, ny = b.shape
    k = Kernel.from_table(line(nx, 0.0, 1.0), line(ny, 0.0, 1.0), b)
    rep = coercivity_report(k, x_sides=SIDES[x_sides])
    assert rep == slow_coercivity_report(k, x_sides=SIDES[x_sides])
    if not forced:
        return
    tested = [v for v in rep.upper_coercive if v != EDGE]
    assert tested and all(v == VIOLATION for v in tested)
    assert all(v == VIOLATION for v in rep.coercive if v != EDGE)


@st.composite
def tied_cases(draw):
    """Tables and densities over a few values, so that levels, ring
    extremes and row maxima tie often, with -inf in the ring."""
    nx, ny = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    cells = st.sampled_from([0.0, 1.0, 2.0, NEG])
    b = np.array(draw(st.lists(cells, min_size=nx * ny, max_size=nx * ny))).reshape(nx, ny)
    b[~np.isfinite(b).any(axis=1), 0] = 0.0
    b[0, ~np.isfinite(b).any(axis=0)] = 0.0
    f = np.array(draw(st.lists(
        st.sampled_from([0.0, 1.0, NEG, POS]), min_size=ny, max_size=ny
    )))
    xg, yg = line(nx, 0.0, 1.0), line(ny, 0.0, 1.0)
    return Kernel.from_table(xg, yg, b), GridFn(yg, f)


@settings(max_examples=300, deadline=None)
@given(tied_cases(), st.sampled_from(sorted(SIDES)), st.sampled_from(sorted(SIDES)))
def test_tied_levels_equal_per_row_loops(case, sides, x_sides):
    k, f = case
    assert_reports_equal(k, f, sides=SIDES[sides], x_sides=SIDES[x_sides])


@settings(max_examples=100, deadline=None)
@given(table_cases(), st.sampled_from(["no inner", "no ring"]))
def test_windows_without_inner_or_ring(case, window):
    # two open-sided Y-nodes leave the inner window empty; closed sides
    # leave the ring empty
    k, f, _ = case
    ny = k.y_grid.size
    b = k.matrix()
    if window == "no inner":
        ny = 2
        b = np.column_stack([b[:, 0], b[:, -1]])
        b[0, ~np.isfinite(b).any(axis=0)] = 0.0
        b[~np.isfinite(b).any(axis=1), 0] = 0.0
        f = GridFn(line(2, 0.0, 1.0), f.flat[[0, -1]])
        sides = None
    else:
        sides = SIDES["closed"]
    k = Kernel.from_table(k.x_grid, line(ny, 0.0, 1.0), b)
    f = GridFn(k.y_grid, f.flat)
    assert_reports_equal(k, f, sides=sides)
    if window == "no inner":
        assert all(v in (EDGE, VIOLATION) for v in coercivity_report(k).coercive)


# ---------------------------------------------------------------------------
# the assumption labels of covering.verdict and ldp.pipeline
# ---------------------------------------------------------------------------

def oracle_evidence(k, cand, *, sides, x_sides, closing_tol):
    """The labels of the per-row reports and the candidate's closing."""
    co = slow_coercivity_report(k, sides=sides, x_sides=x_sides)
    fc = slow_superlevel_compactness_report(cand, k, sides=sides)
    label = {True: EVIDENCE, False: VIOLATION}
    return AssumptionEvidence(
        coercive=label[co.all_coercive],
        upper_coercive=label[co.all_upper_coercive],
        dual_superlevel_compact=label[fc.all_evidence],
        quasicontinuous_dual=quasicontinuity_check(cand, closing_tol)[0],
    )


@pytest.mark.parametrize("sides", ["open", "closed"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verdict_assumptions_are_the_oracle_labels(seed, sides):
    # the closing is held to tolerance 0; verdict samples no X-sides
    rng = np.random.default_rng(20240817 + seed)
    for _ in range(25):
        k, g = random_kernel_and_g(rng)
        cand = lifted_candidate(conjugate(g, k.transpose()))
        assert verdict(g, k, None, sides=SIDES[sides]).assumptions == oracle_evidence(
            k, cand, sides=SIDES[sides], x_sides=None, closing_tol=0.0
        )


@pytest.mark.parametrize("sides", ["open", "closed"])
def test_pipeline_assumptions_are_the_oracle_labels(rng, sides):
    # the closing held to one Y-grid step
    for _ in range(25):
        k, _ = random_kernel_and_g(rng)
        f = dyadic(rng, k.y_grid.size)
        f[rng.random(f.size) < 0.15] = POS
        gin = GartnerInput(
            (constant_sequence(MaxPlusForm(GridFn(k.y_grid, f)), (1, 2, 3)),), k
        )
        out = pipeline(gin, sides=SIDES[sides], x_sides=SIDES[sides])
        assert out.assumptions == oracle_evidence(
            k, lifted_candidate(out.rate_lower), sides=SIDES[sides],
            x_sides=SIDES[sides], closing_tol=k.y_grid.step(0),
        )


# ---------------------------------------------------------------------------
# the benchmark size: 1601 nodes, 20 blocks
# ---------------------------------------------------------------------------

def gauss_ldp_case(n=1601):
    # the kernel and rate density of the 1601-node Gaussian ldp: the limit
    # log-moment is x^2/2 exactly, and the density its lifted dual
    grid = Grid.line(-2.0, 2.0, n)
    k = Kernel.bilinear(grid, grid)
    g = GridFn(grid, 0.5 * grid.coords**2)
    return k, lifted_candidate(conjugate(g, k.transpose()))


def test_reports_at_benchmark_size_equal_per_row_loops():
    k, f = gauss_ldp_case()
    assert len(list(_row_blocks(k.x_grid, k.y_grid.size))) == 20
    co = coercivity_report(k)
    assert co == slow_coercivity_report(k)
    assert co.coercive.count(EDGE) == 2 and co.all_coercive and co.all_upper_coercive
    sl = superlevel_compactness_report(f, k)
    assert sl == slow_superlevel_compactness_report(f, k)
    assert sl.verdicts.count(VIOLATION) == 640


def test_window_reports_hold_few_blocks():
    # per-call buffers: a few block-sized arrays at once, not fresh
    # temporaries for every step of every block
    import tracemalloc

    k, f = gauss_ldp_case()
    block = _kernels._CELL_BUDGET * 8
    for call, blocks in (
        (lambda: coercivity_report(k), 3),
        (lambda: superlevel_compactness_report(f, k), 2),
    ):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < blocks * block, f"peak {peak / block:.2f} blocks"


def test_reports_at_benchmark_size_sort_no_row(monkeypatch):
    # the rank counts decide every row of both reports, and no coercivity
    # row reaches the ring here, so no level is read from a sorted row
    k, f = gauss_ldp_case()
    rows = []

    def counted(s, q):
        rows.append(len(s))
        return row_quantile(s, q)

    row_quantile = conjugacy._row_quantile
    monkeypatch.setattr(conjugacy, "_row_quantile", counted)
    coercivity_report(k)
    superlevel_compactness_report(f, k)
    assert sum(rows) == 0


# ---------------------------------------------------------------------------
# the quantiles behind the levels
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
    # dropped cells become infinities of both signs, sorted to the row ends
    pad = np.where(np.arange(vals.size).reshape(vals.shape) % 2, NEG, POS)
    rows = np.sort(np.where(keep, vals, pad), axis=1)
    for q in quantiles:
        level, use = _row_quantile(rows, q)
        assert use.tolist() == keep.any(axis=1).tolist()
        for i in np.flatnonzero(use):
            assert level[i] == float(np.quantile(vals[i][keep[i]], q, method="lower"))


def test_level_of_a_row_whose_span_overflows_is_finite():
    # the levels are order statistics of the row, so an interpolation whose
    # span b - a overflows never runs (this module turns warnings to errors)
    span = [-1e308] * 4 + [1e308]
    levels = [_row_quantile(np.array([span]), q)[0][0] for q in np.linspace(0, 1, 41)]
    assert set(levels) <= set(span)
    assert levels[0] == -1e308 and levels[-1] == 1e308
    assert levels == sorted(levels)
    assert _row_quantile(np.array([span]), 0.75)[0][0] == -1e308  # position 3
    assert _row_quantile(np.array([span]), 0.9)[0][0] == -1e308  # position 3
    # margin 0.1 keeps Y-nodes 1..5 in the inner window: the row's ring is
    # its two end cells, and the 0.75 level is -1e308
    yg = Grid.line(0.0, 6.0, 7)
    f = GridFn(yg, np.zeros(7))
    for ring, want in ((-1.5e308, EVIDENCE), (-1e308, VIOLATION)):
        k = Kernel.from_table(Grid.line(0.0, 0.0, 1), yg, [[ring] + span + [ring]])
        assert superlevel_compactness_report(f, k).verdicts == [want]


# cells that tie, signed zeros, infinities and spans whose difference
# overflows
RANK_CELLS = st.one_of(
    st.integers(-8, 8).map(lambda v: v / 4.0),
    st.sampled_from([0.0, -0.0, NEG, POS, 1e308, -1e308, 5e-324]),
)


@st.composite
def rank_cases(draw):
    """Rows of inner cells and ring values, the rings often equal to a cell."""
    m, w = draw(st.integers(1, 6)), draw(st.integers(0, 9))
    cells = np.array(draw(st.lists(RANK_CELLS, min_size=m * w, max_size=m * w)))
    cells = cells.reshape(m, w)
    ring = np.array([
        draw(st.one_of(RANK_CELLS, st.sampled_from(row.tolist())) if w else RANK_CELLS)
        for row in cells
    ])
    return cells, ring


# rows with no finite value, one, signed zeros and an overflowing span,
# against rings of 0, +inf, -0 and -inf
EXTREME_ROWS = (
    np.array([[NEG, POS, NEG], [POS, 1.0, NEG], [-0.0, 0.0, 0.0], [-1e308, 1e308, 0.5]]),
    np.array([0.0, POS, -0.0, NEG]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rank_cases(), st.sampled_from([0.5, 0.75]), st.booleans())
@example(EXTREME_ROWS, 0.5, False)
@example(EXTREME_ROWS, 0.75, True)
def test_rank_decision_matches_the_sorted_level(case, q, box):
    cells, ring = case
    level, use = _row_quantile(np.sort(cells, axis=1), q)
    inner = cells.reshape(cells.shape[0], 1, -1) if box else cells
    buf = np.ones((cells.shape[0] + 2, cells.shape[1]), dtype=bool)
    # coercivity: the ring minimum reaches the level iff ring <= level
    below, got_use = _level_below(inner, ring, q, np.less, buf)
    assert got_use.tolist() == use.tolist()
    assert (use & ~below).tolist() == (use & (ring <= level)).tolist()
    assert not below[~use].any()
    # superlevel: the ring maximum reaches the level iff level <= ring
    below, _ = _level_below(inner, ring, q, np.less_equal, buf)
    assert below.tolist() == (use & (level <= ring)).tolist()
