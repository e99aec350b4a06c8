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
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplus import (
    CoveringConfig,
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
from maxplus.conjugacy import (
    EDGE,
    EVIDENCE,
    VIOLATION,
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


def assert_reports_equal(k, f, *, radius=1, sides=None, x_sides=None):
    kw = dict(stencil_radius=radius, sides=sides, x_sides=x_sides)
    assert coercivity_report(k, 0.1, **kw) == slow_coercivity_report(k, 0.1, **kw)
    kw = dict(sides=sides)
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
)
def test_table_kernel_reports_equal_per_row_loops(case, radius, sides, x_sides):
    k, f, g = case
    assert_reports_equal(k, f, radius=radius, sides=SIDES[sides], x_sides=SIDES[x_sides])
    assert_tightness_equal(k, g, radius=radius, sides=SIDES[sides], x_sides=SIDES[x_sides])


def assert_banded_table_equal(nx, ny, radius):
    # a band of finite entries, so the finite inner count differs by row
    rng = np.random.default_rng(nx + 10 * radius)
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


@pytest.mark.parametrize("nx", ROW_COUNTS)
@pytest.mark.parametrize("radius", [0, 1, 2])
def test_banded_table_across_blocks(nx, radius):
    assert_banded_table_equal(nx, 48, radius)


@pytest.mark.parametrize("nx,ny", EDGE_SHAPES)
@pytest.mark.parametrize("radius", [0, 1, 2])
def test_banded_table_at_block_edges(nx, ny, radius):
    assert_banded_table_equal(nx, ny, radius)


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


@pytest.mark.parametrize("nx,ny", EDGE_SHAPES)
@pytest.mark.parametrize("radius,sides", [(0, "open"), (1, "half"), (2, "closed")])
def test_bilinear_1d_at_block_edges(nx, ny, radius, sides):
    xg, yg = line(nx, -2.0, 2.0), line(ny, -4.0, 4.0)
    k = Kernel.bilinear(xg, yg)
    f = GridFn(yg, yg.coords**2 / 2)
    assert_reports_equal(k, f, radius=radius, sides=SIDES[sides], x_sides=SIDES[sides])
    g = GridFn(xg, xg.coords**2)
    assert_tightness_equal(k, g, radius=radius, sides=SIDES[sides], x_sides=SIDES[sides])


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


BOXES = [(1, 7), (7, 1), (1, 1), (5, 5), (40, 15), (3, 300), (600, 1), (1, 600)]

# X-boxes at the block edges of a 128x128 Y-box, whose blocks hold 8 rows:
# 7, 8 and 9 one-node slices; two 4-node slices per block, so that halos
# cross blocks; 9-node slices, one per block and wider than the budget
EDGE_BOXES = [(7, 1), (8, 1), (9, 1), (5, 4), (3, 9)]


def assert_box_reports_equal(n, y_n, radius):
    lo = tuple(-1.0 if m > 1 else 0.0 for m in n)
    hi = tuple(1.0 if m > 1 else 0.0 for m in n)
    xg = Grid(lo, hi, n)
    yg = Grid.box((-3.0, -3.0), (3.0, 3.0), y_n)
    k = Kernel.bilinear(xg, yg)
    f = GridFn(yg, (yg.coords**2).sum(axis=1))
    closed = WindowSides((True, False), (False, True))
    sides = closed if radius == 1 else None
    assert_reports_equal(k, f, radius=radius, sides=sides, x_sides=sides)
    g = GridFn(xg, (xg.coords**2).sum(axis=1))
    assert_tightness_equal(k, g, radius=radius, x_sides=closed)


@pytest.mark.parametrize("n", BOXES, ids=[f"{a}x{b}" for a, b in BOXES])
@pytest.mark.parametrize("radius", [0, 1, 2])
def test_bilinear_2d_across_blocks(n, radius):
    assert_box_reports_equal(n, (9, 7), radius)


@pytest.mark.parametrize("n", EDGE_BOXES, ids=[f"{a}x{b}" for a, b in EDGE_BOXES])
@pytest.mark.parametrize("radius", [0, 1, 2])
def test_bilinear_2d_at_block_edges(n, radius):
    assert _kernels.block_rows(128 * 128) == 8
    assert_box_reports_equal(n, (128, 128), radius)


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
    radius = draw(st.integers(1, 2))
    nx, ny = draw(st.integers(2 * radius + 1, 10)), draw(st.integers(3, 14))
    inner = inner_window_mask(line(ny, 0.0, 1.0), 0.1)
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
    return b, radius, draw(st.sampled_from(["open", "closed"])), forced


@settings(max_examples=100, deadline=None)
@given(ring_cases())
def test_upper_violations_through_the_ring(case):
    b, radius, x_sides, forced = case
    nx, ny = b.shape
    k = Kernel.from_table(line(nx, 0.0, 1.0), line(ny, 0.0, 1.0), b)
    kw = dict(stencil_radius=radius, x_sides=SIDES[x_sides])
    rep = coercivity_report(k, 0.1, **kw)
    assert rep == slow_coercivity_report(k, 0.1, **kw)
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
@given(
    tied_cases(),
    st.integers(0, 2),
    st.sampled_from(sorted(SIDES)),
    st.sampled_from(sorted(SIDES)),
)
def test_tied_levels_equal_per_row_loops(case, radius, sides, x_sides):
    k, f = case
    assert_reports_equal(k, f, radius=radius, sides=SIDES[sides], x_sides=SIDES[x_sides])


@settings(max_examples=100, deadline=None)
@given(table_cases(), st.sampled_from(["no inner", "no ring"]), st.integers(0, 2))
def test_windows_without_inner_or_ring(case, window, radius):
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
    assert_reports_equal(k, f, radius=radius, sides=sides)
    if window == "no inner":
        assert all(v in (EDGE, VIOLATION) for v in coercivity_report(k, 0.1).coercive)


# ---------------------------------------------------------------------------
# the assumption labels of covering.verdict and ldp.pipeline
# ---------------------------------------------------------------------------

def oracle_evidence(k, cand, *, radius, sides, x_sides, closing_tol):
    """The labels of the per-row reports and the candidate's closing."""
    co = slow_coercivity_report(k, 0.1, stencil_radius=radius, sides=sides, x_sides=x_sides)
    fc = slow_superlevel_compactness_report(cand, k, 0.1, sides=sides)
    label = {True: EVIDENCE, False: VIOLATION}
    return AssumptionEvidence(
        coercive=label[co.all_coercive],
        upper_coercive=label[co.all_upper_coercive],
        dual_superlevel_compact=label[fc.all_evidence],
        quasicontinuous_dual=quasicontinuity_check(cand, radius, closing_tol)[0],
    )


@pytest.mark.parametrize("sides", ["open", "closed"])
@pytest.mark.parametrize("radius", [0, 1, 2])
def test_verdict_assumptions_are_the_oracle_labels(rng, radius, sides):
    # the closing is held to tolerance 0; verdict samples no X-sides
    for _ in range(25):
        k, g = random_kernel_and_g(rng)
        cfg = CoveringConfig(stencil_radius=radius, sides=SIDES[sides])
        cand = lifted_candidate(conjugate(g, k.transpose()))
        assert verdict(g, k, None, cfg).assumptions == oracle_evidence(
            k, cand, radius=radius, sides=SIDES[sides], x_sides=None, closing_tol=0.0
        )


@pytest.mark.parametrize("sides", ["open", "closed"])
def test_pipeline_assumptions_are_the_oracle_labels(rng, sides):
    # radius 1 throughout, the closing held to one Y-grid step
    for _ in range(25):
        k, _ = random_kernel_and_g(rng)
        f = dyadic(rng, k.y_grid.size)
        f[rng.random(f.size) < 0.15] = POS
        gin = GartnerInput(
            (constant_sequence(MaxPlusForm(GridFn(k.y_grid, f)), (1, 2, 3)),), k
        )
        out = pipeline(gin, sides=SIDES[sides], x_sides=SIDES[sides])
        assert out.assumptions == oracle_evidence(
            k, lifted_candidate(out.rate_lower), radius=1, sides=SIDES[sides],
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
    assert len(list(_row_blocks(k.x_grid, 1, k.y_grid.size))) == 20
    co = coercivity_report(k, 0.1)
    assert co == slow_coercivity_report(k, 0.1)
    assert co.coercive.count(EDGE) == 2 and co.all_coercive and co.all_upper_coercive
    sl = superlevel_compactness_report(f, k, 0.1)
    assert sl == slow_superlevel_compactness_report(f, k, 0.1)
    assert sl.verdicts.count(VIOLATION) == 640


def test_window_reports_hold_few_blocks():
    # per-call buffers: a few block-sized arrays at once, not fresh
    # temporaries for every step of every block
    import tracemalloc

    k, f = gauss_ldp_case()
    block = _kernels._CELL_BUDGET * 8
    for call, blocks in (
        (lambda: coercivity_report(k, 0.1), 6),
        (lambda: superlevel_compactness_report(f, k, 0.1), 4),
    ):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < blocks * block, f"peak {peak / block:.2f} blocks"


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
            assert level[i] == float(np.quantile(vals[i][keep[i]], q))


def test_level_of_a_row_whose_span_overflows_is_finite():
    # np.quantile gives (-1e308, NaN, -inf) at (0.5, 0.75, 0.9) here: b - a
    # overflows in its interpolation, with a RuntimeWarning
    span = [-1e308] * 4 + [1e308]
    levels = [_row_quantile(np.array([span]), q)[0][0] for q in np.linspace(0, 1, 41)]
    assert np.all(np.isfinite(levels))
    assert levels[0] == -1e308 and levels[-1] == 1e308
    assert np.all(np.diff(levels) >= 0)
    assert _row_quantile(np.array([span]), 0.75)[0][0] == -1e308  # type 7: t = 0
    assert _row_quantile(np.array([span]), 0.9)[0][0] == pytest.approx(2e307, rel=1e-14)
    # margin 0.1 keeps Y-nodes 1..5 in the inner window: the row's ring is
    # its two end cells, and the 0.75 level is -1e308
    yg = Grid.line(0.0, 6.0, 7)
    f = GridFn(yg, np.zeros(7))
    for ring, want in ((-1.5e308, EVIDENCE), (-1e308, VIOLATION)):
        k = Kernel.from_table(Grid.line(0.0, 0.0, 1), yg, [[ring] + span + [ring]])
        assert superlevel_compactness_report(f, k, 0.1).verdicts == [want]
