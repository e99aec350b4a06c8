import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplus import (
    FormSequence,
    GartnerInput,
    GaussianMeanForm,
    Grid,
    GridFn,
    Kernel,
    LogIntegralForm,
    MaxPlusForm,
    MertonParams,
    NEG_INF,
    POS_INF,
    WindowSides,
    conjugate,
    gaussian_mean_sequence,
    growth_conjugate,
    growth_input,
    growth_value,
    limit_log_moment,
    pipeline,
    rate_threshold,
    tightness_criterion,
)
from maxplus.errors import ValidationError
from maxplus.forms import QuasiLinearForm
from oracles import constant_sequence, slow_coercivity_report, slow_limit_log_moment

NEG = NEG_INF
POS = POS_INF

P = MertonParams(r=0.05, alpha=0.10, sigma=0.20)


def gaussian_input(n=101, span=2.0, n_list=(64, 128, 256, 512)):
    g = Grid.line(-span, span, n)
    return GartnerInput(
        sequences=(gaussian_mean_sequence(g, n_list),),
        kernel=Kernel.bilinear(g, g),
        mode="limit-asserted",
    )


def test_limit_values_gaussian_exact():
    gin = gaussian_input()
    g, diag = limit_log_moment(gin)
    x = gin.kernel.x_grid.coords
    assert np.array_equal(g.values, 0.5 * x * x)
    assert not diag.downgraded
    assert diag.limit_gaps.max() == 0.0


def test_limit_values_constant_maxplus_is_conjugate():
    yg = Grid.line(-1, 1, 21)
    xg = Grid.line(-2, 2, 11)
    k = Kernel.bilinear(xg, yg)
    f = GridFn(yg, np.abs(yg.coords))
    F = MaxPlusForm(f)
    gin = GartnerInput(
        sequences=(FormSequence(lambda n: F, (1, 2, 3), yg),),
        kernel=k,
        mode="limit-asserted",
    )
    g, _ = limit_log_moment(gin)
    assert np.array_equal(g.values, conjugate(f, k).values)


def test_limit_values_downgrade_warning():
    yg = Grid.line(-1, 1, 5)
    f1 = MaxPlusForm(GridFn(yg, np.zeros(5)))
    f2 = MaxPlusForm(GridFn(yg, np.full(5, 1.0)))
    seq = FormSequence(lambda n: f1 if n % 2 else f2, (1, 2, 3, 4, 5, 6), yg)
    gin = GartnerInput(
        sequences=(seq,), kernel=Kernel.bilinear(yg, yg), mode="limit-asserted"
    )
    with pytest.warns(UserWarning, match="downgrading"):
        g, diag = limit_log_moment(gin)
    assert diag.downgraded


def test_gaussian_pipeline_full_identification():
    gin = gaussian_input()
    out = pipeline(gin)
    assert out.verdict == "FULL_LDP"
    assert out.covering.covered and out.covering.minimal_top
    y = gin.kernel.y_grid.coords
    assert np.abs(out.rate_lower.values - 0.5 * y * y).max() <= 0.04**2
    # interior nodes are pinned (identified)
    pinned = set(out.pinned.tolist())
    assert all(i in pinned for i in range(1, 100))
    assert out.assumptions.tightness.holds


def test_gaussian_pipeline_needs_asserted_limits_for_full():
    gin = gaussian_input()
    gin = GartnerInput(sequences=gin.sequences, kernel=gin.kernel, mode="limsup")
    out = pipeline(gin)
    assert out.verdict == "BOUNDS_ONLY"


def test_pipeline_computes_coercivity_once(monkeypatch):
    from maxplus import ldp

    calls = []
    original = ldp.coercivity_report

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ldp, "coercivity_report", counted)
    gin = gaussian_input()
    out = pipeline(gin)
    assert len(calls) == 1
    assert out.verdict == "FULL_LDP"
    a = out.assumptions
    assert (a.coercive, a.upper_coercive) == ("EVIDENCE", "EVIDENCE")
    assert (a.dual_superlevel_compact, a.quasicontinuous_dual) == ("VIOLATION", True)
    t = a.tightness
    assert (t.holds, t.witness, t.coercivity.all_coercive) == (True, 50, True)
    assert t.coercivity == slow_coercivity_report(gin.kernel, 0.1)
    assert "coercivity" not in repr(t)


def test_pipeline_builds_domain_masks_once(monkeypatch):
    from maxplus import covering, grids, ldp

    calls = []
    original = grids.domain_masks

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (grids, covering, ldp):  # every module that bound it
        monkeypatch.setattr(module, "domain_masks", counted)
    out = pipeline(gaussian_input())
    assert len(calls) == 1
    assert out.verdict == "FULL_LDP"
    assert out.covering.masks.idom is not None


def test_pipeline_peak_memory_below_one_dense_kernel():
    # the kernel is walked in cache-sized blocks: no |X| x |Y| float matrix
    import tracemalloc

    n = 1601
    gin = gaussian_input(n=n)
    tracemalloc.start()
    try:
        out = pipeline(gin)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.verdict == "FULL_LDP"
    assert peak < 8 * n * n, f"peak {peak / 1e6:.1f} MB"


def test_tightness_criterion_zero_row_witness():
    g = Grid.line(-2, 2, 41)
    k = Kernel.bilinear(g, g)
    vals = GridFn(g, 0.5 * g.coords**2)
    crit = tightness_criterion(k, vals)
    assert crit.holds
    assert k.x_grid.coords[crit.witness] == 0.0


# ---------------------------------------------------------------------------
# investment family
# ---------------------------------------------------------------------------

def merton_grids():
    # the dual map sends equally spaced y to x with density 1/g'', so the
    # x-grid must outresolve the y-grid for pieces to stay distinguishable;
    # these steps keep single-node pieces for y up to roughly 0.36
    xg = Grid.line(0.0, 1.2, 121)
    yg = Grid.line(0.0, 2.0, 101)
    return xg, yg


def merton_pipeline_output(clip=0.0, horizons=(400, 800, 1600, 3200)):
    xg, yg = merton_grids()
    gin = growth_input(
        P, xg, yg, np.arange(0.0, 40.0 + 1e-9, 0.05), horizons, clip_floor=clip
    )
    return pipeline(
        gin,
        sides=WindowSides.half_line(),
        x_sides=WindowSides.half_line(),
        sup_edge_to_inf=True,
    )


@pytest.fixture(scope="module")
def merton_out():
    return merton_pipeline_output()


def test_merton_limit_values_match_closed_form(merton_out):
    xg, _ = merton_grids()
    g = merton_out.log_moment.values
    # control-grid suboptimality is at most x(1-x) sigma^2 (step/2)^2 / 2
    slack = 0.04 * 0.25 * 0.025**2 / 2 + 1e-9
    for i, x in enumerate(xg.coords):
        want = growth_value(x, P)
        if x < 0.97:
            assert want - slack <= g[i] <= want + 1e-12
        elif x >= 1.0:
            assert g[i] == POS  # control grid sup climbs into the edge


def test_merton_rate_lower_is_conjugate_restriction(merton_out):
    _, yg = merton_grids()
    got = merton_out.rate_lower.values
    want = growth_conjugate(yg.coords, P)
    # conjugation error grows with the curvature of the value function at
    # the maximising node, so the tolerance is tiered in y
    low = yg.coords <= 1.0
    assert np.abs(got[low] - want[low]).max() < 1e-3
    rest = ~low
    assert (np.abs(got[rest] - want[rest]) / np.maximum(want[rest], 0.05)).max() < 0.02


def test_merton_pinned_set_sits_above_threshold(merton_out):
    _, yg = merton_grids()
    z0 = rate_threshold(P)
    pinned = yg.coords[merton_out.pinned]
    h = yg.step(0)
    # nothing identified below the threshold
    assert pinned.min() >= z0 - h
    # solid identification on the band the grids can resolve
    band = (yg.coords >= 0.12) & (yg.coords <= 0.30)
    assert np.isin(yg.coords[band], pinned).all()
    # and the identified set reaches well above the threshold
    assert pinned.max() >= 0.3


def test_merton_bounds_only_with_display_inequalities(merton_out):
    assert merton_out.verdict == "BOUNDS_ONLY"
    assert merton_out.assumptions.tightness.holds
    xg, _ = merton_grids()
    assert xg.coords[merton_out.assumptions.tightness.witness] == 0.0
    # upper deviation bound on a closed tail set evaluates to -g*(c)
    _, yg = merton_grids()
    fbar = merton_out.limit_form
    c = 0.12
    tail = yg.coords >= c
    got = fbar.eval_on_set(tail)
    # node quantization: the grid tail starts at the first node >= c
    c_node = yg.coords[tail][0]
    assert abs(got + growth_conjugate(c_node, P)) < 1e-3


def test_merton_untruncated_criterion_fails():
    xg = Grid.line(-0.2, 1.2, 71)
    yg = Grid.line(-8.0, 8.0, 161)
    gin = growth_input(
        P, xg, yg, np.arange(0.0, 40.0 + 1e-9, 0.05), (400, 800, 1600, 3200)
    )
    g, _ = limit_log_moment(gin, sup_edge_to_inf=True)
    crit = tightness_criterion(xg and Kernel.bilinear(xg, yg), g)
    assert not crit.holds
    assert crit.witness is None


def test_merton_tail_trend_stays_below_limit_bound(merton_out):
    # finite-horizon values of the closed tail set never exceed the
    # deviation bound from the candidate limit form
    xg, yg = merton_grids()
    gin = growth_input(
        P, xg, yg, [1.8, 2.0], (50, 100, 200, 400), clip_floor=0.0
    )
    fbar = merton_out.limit_form
    tail = yg.coords >= 0.12
    bound = fbar.eval_on_set(tail)
    for seq in gin.sequences:
        vals = [f.eval_on_set(tail) for _, f in seq.forms()]
        assert max(vals) <= bound + 1e-9


def test_candidate_limit_density_inequalities():
    # the candidate density f must satisfy B f <= g with equality on the
    # locally bounded nodes, and dominate the computed rate lower bound
    gin = gaussian_input()
    out = pipeline(gin)
    g = out.log_moment
    grid = gin.kernel.y_grid
    f = GridFn(grid, 0.5 * grid.coords**2)
    bf = conjugate(f, gin.kernel)
    tol = 1e-12
    assert (bf.values <= g.values + tol).all()
    masks_idom = np.abs(bf.values - g.values) <= tol
    assert masks_idom.all()  # idom g is every node here
    assert (f.values >= out.rate_lower.values - tol).all()
    # on the pinned set the density is forced onto the rate lower bound
    pinned = out.pinned
    assert np.abs(f.flat[pinned] - out.rate_lower.flat[pinned]).max() <= 0.04**2


def test_pipeline_constant_shift_invariance():
    # adding a constant to every member shifts the limit values by the
    # same constant and nothing else
    c = 0.75

    class Shifted:
        def __init__(self, base):
            self.base = base
            self.grid = base.grid
            self.join_defect_bound = base.join_defect_bound

        def evaluate(self, phi):
            return c + self.base.evaluate(phi)

        def evaluate_affine(self, slope, intercept=0.0):
            return c + self.base.evaluate_affine(slope, intercept)

        def eval_on_set(self, mask):
            return c + self.base.eval_on_set(mask)

    grid = Grid.line(-2, 2, 41)
    base = gaussian_mean_sequence(grid, (64, 128, 256, 512))
    shifted = FormSequence(
        generator=lambda n, g=base.generator: Shifted(g(n)),
        n_list=base.n_list,
        y_grid=grid,
    )
    k = Kernel.bilinear(grid, grid)
    g0, _ = limit_log_moment(GartnerInput((base,), k))
    g1, _ = limit_log_moment(GartnerInput((shifted,), k))
    assert np.array_equal(g1.values, g0.values + c)
    r0 = conjugate(g0, k.transpose())
    r1 = conjugate(GridFn(k.x_grid, g1.values - c), k.transpose())
    # (v + c) - c re-rounds, so the rates agree to rounding, not bits
    assert np.abs(r0.values - r1.values).max() <= 1e-15


# ---------------------------------------------------------------------------
# batched limit values against the per-node loop
# ---------------------------------------------------------------------------

def _merton_case(clip_floor):
    def build(nlen):
        ns = {1: (400,), 2: (400, 800), 4: (200, 400, 800, 1600)}[nlen]
        xi = np.arange(0.0, 6.0 + 1e-9, 0.5)  # xi = 0 is the point-mass member
        return growth_input(
            P, Grid.line(-0.2, 1.2, 29), Grid.line(0.0, 2.0, 11), xi, ns,
            clip_floor=clip_floor,
        ), True
    return build


def _gaussian_case(nlen):
    g = Grid.line(-2.0, 2.0, 41)
    ns = (64, 128, 256, 512)[:nlen]
    return GartnerInput((gaussian_mean_sequence(g, ns),), Kernel.bilinear(g, g)), False


def _constant_maxplus_case(nlen):
    yg = Grid.line(-1.0, 1.0, 21)
    f = np.abs(yg.coords)
    f[:3] = POS  # +inf density: those nodes never carry mass
    seq = constant_sequence(MaxPlusForm(GridFn(yg, f)), (1, 2, 3, 4)[:nlen])
    return GartnerInput((seq,), Kernel.bilinear(Grid.line(-2.0, 2.0, 11), yg)), False


def _table_case(nlen):
    rng = np.random.default_rng(5)
    xg, yg = Grid.line(0.0, 1.0, 9), Grid.line(0.0, 1.0, 7)
    b = rng.integers(-3, 4, size=(9, 7)).astype(float)
    b[rng.random((9, 7)) < 0.3] = NEG
    b[:, 0] = 0.0  # every row and column keeps a finite entry
    b[0, :] = 0.0
    f0 = rng.uniform(0.0, 2.0, 7)
    f0[0] = POS  # rows finite only at node 0 evaluate to -inf
    ns = (1, 2, 3, 4)[:nlen]
    fitted = FormSequence(
        lambda n: MaxPlusForm(GridFn(yg, f0 + 1.0 / n)), ns, yg
    )
    parity = FormSequence(  # no smooth trend: the tail branch, and a downgrade
        lambda n: MaxPlusForm(GridFn(yg, f0 + (n % 2))), ns, yg
    )
    w = rng.uniform(0.5, 1.5, 7)
    logint = FormSequence(lambda n: LogIntegralForm(yg, 1.0 / n, w), ns, yg)
    return GartnerInput((fitted, parity, logint), Kernel.from_table(xg, yg, b)), True


def _bilinear_2d_case(nlen):
    xg = Grid.box((-1.0, -1.0), (1.0, 1.0), (4, 3))
    yg = Grid.box((-2.0, -2.0), (2.0, 2.0), (5, 5))
    q = (yg.coords**2).sum(axis=1).reshape(yg.shape)
    ns = (1, 2, 4, 8)[:nlen]
    seq = FormSequence(lambda n: MaxPlusForm(GridFn(yg, q + 1.0 / n)), ns, yg)
    return GartnerInput((seq,), Kernel.bilinear(xg, yg)), False


def _mixed_nlists_case(nlen):
    """Members whose n_lists differ, interleaved in member order."""
    a = {1: (400,), 2: (400, 800), 4: (200, 400, 800, 1600)}[nlen]
    b = {1: (500,), 2: (300, 900), 4: (250, 500, 1000, 2000)}[nlen]
    xi = np.arange(0.0, 6.0 + 1e-9, 0.5)
    xg, yg = Grid.line(-0.2, 1.2, 29), Grid.line(0.0, 2.0, 11)
    ina = growth_input(P, xg, yg, xi, a, clip_floor=0.0)
    inb = growth_input(P, xg, yg, xi, b, clip_floor=0.0)
    seqs = [
        sa if i % 2 else sb
        for i, (sa, sb) in enumerate(zip(ina.sequences, inb.sequences))
    ]
    seqs.insert(5, gaussian_mean_sequence(yg, a))
    return GartnerInput(seqs, ina.kernel), True


class _ScalarOnlyMerton(QuasiLinearForm):
    """A Merton form behind an interface with no ``affine_rows``."""

    def __init__(self, inner):
        self.inner = inner
        self.grid = inner.grid

    def evaluate_affine(self, slope, intercept=0.0):
        return self.inner.evaluate_affine(slope, intercept)


def _merton_beside_scalar_only_case(nlen):
    """Merton members and scalar-only members sharing one n_list."""
    gin, edge = _merton_case(0.0)(nlen)
    seqs = list(gin.sequences)
    for i in range(1, len(seqs), 3):
        seqs[i] = FormSequence(
            lambda n, gen=seqs[i].generator: _ScalarOnlyMerton(gen(n)),
            seqs[i].n_list,
            seqs[i].y_grid,
        )
    return GartnerInput(seqs, gin.kernel), edge


def _merton_tiny_case(nlen):
    """A clipped family whose fractions near 20 leave equal tiny columns
    such as [-1.3e-273, 0] at many x-nodes."""
    ns = {1: (400,), 2: (400, 800), 4: (400, 800, 1600, 3200)}[nlen]
    xi = np.concatenate([[0.0, 2.0], np.arange(20.0, 21.6 + 1e-9, 0.2), [40.0]])
    return growth_input(
        P, Grid.line(0.0, 1.2, 13), Grid.line(0.0, 2.0, 11), xi, ns, clip_floor=0.0,
    ), True


BATCH_CASES = {
    "merton": _merton_case(None),
    "merton-clipped": _merton_case(0.0),
    "merton-mixed-nlists": _mixed_nlists_case,
    "merton-beside-scalar-only": _merton_beside_scalar_only_case,
    "merton-tiny": _merton_tiny_case,
    "gaussian": _gaussian_case,
    "constant-maxplus": _constant_maxplus_case,
    "table": _table_case,
    "bilinear-2d": _bilinear_2d_case,
}


@pytest.mark.parametrize("mode", ["limsup", "limit-asserted"])
@pytest.mark.parametrize("nlen", [1, 2, 4])
@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_limit_log_moment_bit_identical_to_per_node_loop(case, nlen, mode):
    gin, edge = BATCH_CASES[case](nlen)
    gin = GartnerInput(gin.sequences, gin.kernel, mode=mode)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g, diag = limit_log_moment(gin, sup_edge_to_inf=edge)
    ref_g, ref_gaps, ref_down, ref_edge = slow_limit_log_moment(gin, sup_edge_to_inf=edge)
    assert g.values.reshape(-1).tobytes() == ref_g.tobytes()
    assert diag.limit_gaps.tobytes() == ref_gaps.tobytes()
    assert diag.downgraded == ref_down
    assert np.array_equal(diag.edge_unbounded, ref_edge)
    assert any("downgrading" in str(w.message) for w in caught) == ref_down
    if case == "table" and nlen == 4 and mode == "limit-asserted":
        assert ref_down  # the parity sequence reaches the downgrade
    if case.startswith("merton") and nlen == 4:
        assert ref_edge.size and np.isfinite(ref_g).any()


def test_tiny_case_repeats_tiny_columns():
    gin, _ = _merton_tiny_case(4)
    k = gin.kernel
    cols = [
        tuple(form.evaluate_affine(x) for _, form in seq.forms())
        for seq in gin.sequences for x in k.x_grid.coords
    ]
    tiny = [c for c in cols if 0.0 < max(map(abs, c)) < 2.0**-900]
    assert len(tiny) > 2 * len(set(tiny)) > 0


class _CountingGaussian(GaussianMeanForm):
    calls = []

    def evaluate_affine(self, slope, intercept=0.0):
        self.calls.append(np.ndim(slope))
        return super().evaluate_affine(slope, intercept)


class _ScalarOnly(QuasiLinearForm):
    """A form that declares no array support; records what it is given."""

    calls = []

    def __init__(self, n, grid):
        self.inner = GaussianMeanForm(n, grid)
        self.grid = grid

    def evaluate_affine(self, slope, intercept=0.0):
        self.calls.append(np.ndim(slope))
        return self.inner.evaluate_affine(slope, intercept)


def test_array_call_only_for_forms_that_declare_it():
    grid = Grid.line(-2.0, 2.0, 41)
    ns = (64, 128, 256)
    k = Kernel.bilinear(grid, grid)
    for cls in (_CountingGaussian, _ScalarOnly):
        cls.calls.clear()
        seq = FormSequence(lambda n, cls=cls: cls(n, grid), ns, grid)
        g, _ = limit_log_moment(GartnerInput((seq,), k))
        assert np.array_equal(g.values, 0.5 * grid.coords**2)
    assert _CountingGaussian.calls == [1] * len(ns)  # one call per form
    assert _ScalarOnly.calls == [0] * (len(ns) * grid.size)


# ---------------------------------------------------------------------------
# degenerate inputs: a verdict or a ValidationError, never NaN or a crash
# ---------------------------------------------------------------------------

@st.composite
def degenerate_pipelines(draw):
    """Table kernels with ±inf entries and densities with ±inf values, on
    grids down to single nodes; all-infinite limit values leave X' (the
    locally bounded nodes) empty."""
    nx, ny = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    finite = st.integers(-4, 4).map(lambda v: v / 2.0)
    cells = st.one_of(finite, finite, st.sampled_from([NEG, NEG, POS]))
    b = np.array(draw(st.lists(cells, min_size=nx * ny, max_size=nx * ny))).reshape(nx, ny)
    if draw(st.booleans()):
        b[b == POS] = 0.0  # most tables are valid kernels
    f = np.array(draw(st.lists(
        st.one_of(finite, st.sampled_from([NEG, POS])), min_size=ny, max_size=ny
    )))
    return b, f, draw(st.sampled_from(["limsup", "limit-asserted"]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(degenerate_pipelines())
def test_pipeline_on_degenerate_inputs(case):
    b, f, mode = case
    nx, ny = b.shape
    xg = Grid.line(-1, 1, nx) if nx > 1 else Grid.line(0, 0, 1)
    yg = Grid.line(-1, 1, ny) if ny > 1 else Grid.line(0, 0, 1)
    try:
        k = Kernel.from_table(xg, yg, b)
    except ValidationError:
        fin = np.isfinite(b)
        assert np.isposinf(b).any() or not (fin.any(axis=1).all() and fin.any(axis=0).all())
        return
    gin = GartnerInput(
        sequences=(constant_sequence(MaxPlusForm(GridFn(yg, f)), (1, 2, 3)),),
        kernel=k,
        mode=mode,
    )
    try:
        out = pipeline(gin)
    except ValidationError:
        return
    assert out.verdict in ("FULL_LDP", "BOUNDS_ONLY", "INCONCLUSIVE")
    for arr in (out.log_moment.values, out.rate_lower.values):
        assert not np.isnan(arr).any()
    a = out.assumptions
    for label in (a.coercive, a.upper_coercive, a.dual_superlevel_compact):
        assert label in ("EVIDENCE", "VIOLATION")
    assert set(out.pinned.tolist()) <= set(range(ny))
