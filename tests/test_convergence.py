import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplus import (
    FormSequence,
    GaussianMeanForm,
    Grid,
    GridFn,
    LogIntegralForm,
    MaxPlusForm,
    NEG_INF,
    asymptotic_tightness_check,
    constant_sequence,
    default_interval_sets,
    estimate_rate,
    gaussian_mean_sequence,
    ldp_bounds_check,
    weak_convergence_check,
)
from maxplus.convergence import (
    _trend_basis,
    liminf_trend,
    limsup_trend,
    trend_limit,
    trend_pair,
    trend_pairs,
)
from maxplus.grids import stencil_min
from oracles import gauss_log_mass

NEG = NEG_INF


def gaussian_bin_form(grid, n):
    """Discretise the law of the mean of n standard Gaussians onto nodes.

    Density-proportional weights avoid the half-cell bias that interval
    binning would put into tilted sums (cell mass concentrates at the
    inner edge while the node value applies).
    """
    h = grid.step(0)
    w = h * math.sqrt(n / (2 * math.pi)) * np.exp(-n * grid.coords**2 / 2)
    return LogIntegralForm(grid, 1.0 / n, w)


def gaussian_bin_sequence(grid, n_list):
    return FormSequence(
        generator=lambda n: gaussian_bin_form(grid, n),
        n_list=tuple(n_list),
        y_grid=grid,
    )


# ---------------------------------------------------------------------------
# trend extrapolation
# ---------------------------------------------------------------------------

finite_vals = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
ext_vals = st.one_of(finite_vals, st.sampled_from([NEG, float("inf")]))


@st.composite
def trend_columns(draw):
    """Index lists with value columns of every kind trend_pair branches on."""
    ns = sorted(draw(st.sets(st.integers(1, 5000), min_size=1, max_size=6)))
    m = len(ns)
    A = _trend_basis(ns)
    cols = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(
            ["const", "finite", "sprinkled", "tail", "boundary", "extreme"]
        ))
        if kind == "const":
            col = [draw(ext_vals)] * m
        elif kind == "finite":
            col = draw(st.lists(finite_vals, min_size=m, max_size=m))
        elif kind == "extreme":
            # magnitudes the least-squares solver rescales
            scale = draw(st.sampled_from([1e-300, 1e-290, 1e280, 1e289]))
            col = [scale * x for x in draw(st.lists(finite_vals, min_size=m, max_size=m))]
        elif kind == "sprinkled":
            col = draw(st.lists(ext_vals, min_size=m, max_size=m))
        elif kind == "tail":
            k = draw(st.integers(0, m))
            col = draw(st.lists(finite_vals, min_size=m, max_size=m))
            col[k:] = [draw(st.sampled_from([NEG, float("inf")]))] * (m - k)
        else:
            # a smooth trend plus a wiggle scaled so the fit residual sits
            # on the tolerance, give or take a few ulps
            coef = draw(st.lists(finite_vals, min_size=A.shape[1], max_size=A.shape[1]))
            wiggle = np.array(draw(st.lists(
                st.floats(-1.0, 1.0, allow_nan=False), min_size=m, max_size=m
            )))
            c, *_ = np.linalg.lstsq(A, wiggle, rcond=None)
            r = np.abs(A @ c - wiggle).max()
            scale = 1e-2 / r * (1.0 + draw(st.integers(-4, 4)) * 2.2e-16) if r > 1e-9 else 0.0
            col = list(A @ np.array(coef) + scale * wiggle)
        cols.append(col)
    return ns, np.array(cols, dtype=np.float64).T


@settings(max_examples=400, deadline=None)
@given(trend_columns())
def test_trend_pairs_equal_trend_pair_column_by_column(case):
    ns, V = case
    lo, hi = trend_pairs(ns, V)
    for j in range(V.shape[1]):
        ref = np.array(trend_pair(ns, V[:, j]))
        assert np.array([lo[j], hi[j]]).tobytes() == ref.tobytes()


@pytest.mark.filterwarnings("error")
def test_overflowing_fit_takes_the_trailing_half_without_warning():
    # the fits overflow: residual NaN for the first column, inf for the second
    ns = (3, 320, 321)
    V = np.array([[6.5e303, -6.5e303, 6.5e303], [0.0, 0.0, 6.5e303]]).T
    lo, hi = trend_pairs(ns, V)
    for j in range(V.shape[1]):
        tail = V[1:, j]
        ref = np.array([tail.min(), tail.max()])
        assert np.array(trend_pair(ns, V[:, j])).tobytes() == ref.tobytes()
        assert np.array([lo[j], hi[j]]).tobytes() == ref.tobytes()


def test_trend_constant_is_exact():
    assert trend_limit([2, 4, 8], [0.3, 0.3, 0.3]) == 0.3


def test_trend_recovers_one_over_n():
    ns = [8, 16, 32, 64]
    vals = [1.5 + 2.0 / n for n in ns]
    assert abs(trend_limit(ns, vals) - 1.5) < 1e-12


def test_trend_recovers_log_term():
    ns = [64, 128, 256, 512]
    vals = [-0.5 - 0.5 * math.log(n) / n - 0.3 / n for n in ns]
    assert abs(trend_limit(ns, vals) + 0.5) < 1e-10


def test_liminf_limsup_of_alternating():
    ns = [1, 2, 3, 4, 5, 6]
    vals = [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]
    assert limsup_trend(ns, vals) == 1.0
    assert liminf_trend(ns, vals) == 0.0


def test_trend_eventually_neg_inf():
    assert trend_limit([1, 2, 3], [0.5, NEG, NEG]) == NEG


# ---------------------------------------------------------------------------
# exact Gaussian member vs quadrature oracle
# ---------------------------------------------------------------------------

def _quad_log_moment(coords, vals, n):
    """High-precision E[e^{n phi(Z_n)}] with phi piecewise linear."""
    with mpmath.workdps(30):
        sd = mpmath.mpf(1) / mpmath.sqrt(n)
        pieces = []
        slopes = [(vals[j + 1] - vals[j]) / (coords[j + 1] - coords[j]) for j in range(len(vals) - 1)]
        icepts = [vals[j] - slopes[j] * coords[j] for j in range(len(vals) - 1)]
        pieces.append((mpmath.mpf("-inf"), coords[0], slopes[0], icepts[0]))
        for j in range(len(slopes)):
            pieces.append((coords[j], coords[j + 1], slopes[j], icepts[j]))
        pieces.append((coords[-1], mpmath.mpf("inf"), slopes[-1], icepts[-1]))
        total = mpmath.mpf(0)
        for a, b, s, q in pieces:
            f = lambda z: mpmath.e ** (n * (s * z + q)) * mpmath.npdf(z, 0, sd)
            total += mpmath.quad(f, [a, b])
        return float(mpmath.log(total) / n)


@pytest.mark.parametrize("n", [4, 16])
def test_gaussian_member_matches_quadrature(n):
    g = Grid.line(-2.0, 2.0, 21)
    phi_vals = np.minimum(g.coords, 1.0)
    F = GaussianMeanForm(n, g)
    got = F.evaluate(GridFn(g, phi_vals))
    want = _quad_log_moment(g.coords.tolist(), phi_vals.tolist(), n)
    assert abs(got - want) < 1e-9


def test_gaussian_member_affine_is_exact_mgf():
    g = Grid.line(-2, 2, 11)
    for n in (1, 7, 64):
        F = GaussianMeanForm(n, g)
        for x in (-1.5, 0.0, 0.25, 2.0):
            assert F.evaluate_affine(x) == 0.5 * x * x


def test_gaussian_member_set_mass_matches_mpmath():
    g = Grid.line(-2.0, 2.0, 41)
    n = 25
    F = GaussianMeanForm(n, g)
    mask = (g.coords >= 1.0) & (g.coords <= 1.5)
    got = F.eval_on_set(mask)
    want = gauss_log_mass(1.0, 1.5, 0.0, 1.0 / math.sqrt(n)) / n
    assert abs(got - want) < 1e-12


# ---------------------------------------------------------------------------
# weak convergence
# ---------------------------------------------------------------------------

def quadratic_limit_form(grid):
    return MaxPlusForm(GridFn(grid, grid.coords**2 / 2, tag="lsc"))


def test_weak_convergence_gaussian_bins_to_quadratic():
    # the kinked test function leaves an n^(-3/2) term the basis cannot
    # absorb, so the fit window starts past the small-n regime
    g = Grid.line(-3, 3, 121)
    seq = gaussian_bin_sequence(g, (32, 64, 128, 256))
    F = quadratic_limit_form(g)
    phis = [
        GridFn(g, np.minimum(g.coords, 1.0)),
        GridFn(g, -np.abs(g.coords)),
        GridFn(g, np.cos(g.coords)),
    ]
    rep = weak_convergence_check(seq, F, phis, tol=1e-2)
    assert rep.all_pass()
    # the raw value at n = 64 is already within a percent for min(y, 1)
    v64 = gaussian_bin_form(g, 64).evaluate(phis[0])
    assert abs(v64 - 0.5) < 1e-2


def test_weak_convergence_constant_sequence_zero_margin():
    g = Grid.line(-1, 1, 11)
    F = MaxPlusForm(GridFn(g, np.abs(g.coords)))
    seq = constant_sequence(F, (1, 2, 3, 4))
    rep = weak_convergence_check(seq, F, [GridFn(g, g.coords)], tol=0.0)
    assert rep.all_pass()
    assert rep.results["weak"].margin == 0.0


def test_weak_convergence_alternating_fails():
    g = Grid.line(-1, 1, 5)
    f1 = MaxPlusForm(GridFn(g, np.zeros(5)))
    f2 = MaxPlusForm(GridFn(g, np.full(5, 1.0)))
    seq = FormSequence(
        generator=lambda n: f1 if n % 2 == 0 else f2,
        n_list=(1, 2, 3, 4, 5, 6),
        y_grid=g,
    )
    rep = weak_convergence_check(seq, f1, [GridFn(g, np.zeros(5))], tol=1e-6)
    assert rep.results["weak"].verdict == "FAIL"
    assert rep.results["weak"].witness is not None


def test_weak_convergence_short_prefix_inconclusive():
    g = Grid.line(-1, 1, 5)
    F = MaxPlusForm(GridFn(g, np.zeros(5)))
    seq = constant_sequence(F, (1, 2))
    rep = weak_convergence_check(seq, F, [GridFn(g, np.zeros(5))])
    assert rep.results["weak"].verdict == "INCONCLUSIVE"


# ---------------------------------------------------------------------------
# set bounds
# ---------------------------------------------------------------------------

def test_ldp_bounds_gaussian_tail_sets():
    g = Grid.line(-3, 3, 121)
    seq = gaussian_mean_sequence(g, (64, 128, 256, 512))
    F = quadratic_limit_form(g)
    closed = [g.coords >= 1.0]
    open_ = [g.coords > 1.0]
    rep = ldp_bounds_check(seq, F, open_sets=open_, closed_sets=closed, tol=1e-3)
    assert rep.all_pass()
    row = [r for r in rep.to_rows() if r.kind == "closed"][0]
    assert abs(row.lhs_trend + 0.5) < 5e-3  # the tail trend sits near -1/2


def test_ldp_bounds_wrong_limit_fails_open_side():
    g = Grid.line(-3, 3, 121)
    seq = gaussian_mean_sequence(g, (64, 128, 256, 512))
    wrong = MaxPlusForm(GridFn(g, np.zeros(121)))  # flat density
    closed = [g.coords >= 1.0]
    open_ = [g.coords > 1.0]
    rep = ldp_bounds_check(seq, wrong, open_sets=open_, closed_sets=closed, tol=1e-3)
    assert rep.results["closed_limsup"].verdict == "PASS"
    assert rep.results["open_liminf"].verdict == "FAIL"


def test_bound_implication_ladder():
    # one-sided passes imply the two-sided pass; closed-set bounds imply
    # compact-set bounds on the same sets
    g = Grid.line(-3, 3, 121)
    seq = gaussian_mean_sequence(g, (64, 128, 256, 512))
    F = quadratic_limit_form(g)
    phis = [GridFn(g, np.minimum(g.coords, 1.0))]
    wrep = weak_convergence_check(seq, F, phis, tol=1e-2)
    if (
        wrep.results["lsc_liminf"].verdict == "PASS"
        and wrep.results["usc_limsup"].verdict == "PASS"
    ):
        assert wrep.results["weak"].verdict == "PASS"
    inner = np.abs(g.coords) <= 2.0
    sets = [g.coords >= 1.0, np.abs(g.coords) >= 0.5]
    rep = ldp_bounds_check(
        seq,
        F,
        closed_sets=sets,
        compact_sets=[s & inner for s in sets],
        tol=1e-3,
    )
    if rep.results["closed_limsup"].verdict == "PASS":
        assert rep.results["compact_limsup"].verdict == "PASS"


# ---------------------------------------------------------------------------
# asymptotic tightness
# ---------------------------------------------------------------------------

def test_gaussian_sequence_asymptotically_tight():
    g = Grid.line(-5, 5, 101)
    seq = gaussian_mean_sequence(g, (16, 32, 64, 128))
    windows = [np.abs(g.coords) <= r for r in (1.0, 2.0, 3.0, 4.0)]
    res = asymptotic_tightness_check(seq, windows)
    assert res.evidence
    # the trace tracks the rate at the first node outside each window
    for t, w in zip(res.trace, windows):
        edge = np.abs(g.coords[~w]).min()
        assert abs(t + edge * edge / 2) < 0.05


def test_fixed_outside_mass_not_tight():
    g = Grid.line(-5, 5, 101)
    w = np.full(101, 1e-9)
    w[0] = 0.5
    w[50] = 0.5
    seq = constant_sequence(LogIntegralForm(g, 0.5, w), (4, 8, 16))
    windows = [np.abs(g.coords) <= r for r in (1.0, 2.0, 3.0)]
    res = asymptotic_tightness_check(seq, windows)
    assert not res.evidence


def test_single_tight_form_repeated():
    g = Grid.line(-5, 5, 101)
    w = np.zeros(101)
    w[50] = 1.0
    seq = constant_sequence(LogIntegralForm(g, 0.5, w), (4, 8, 16))
    windows = [np.abs(g.coords) <= r for r in (1.0, 2.0)]
    res = asymptotic_tightness_check(seq, windows)
    assert res.evidence
    assert res.trace[0] == NEG


# ---------------------------------------------------------------------------
# rate estimation
# ---------------------------------------------------------------------------

def test_rate_estimate_constant_maxplus_is_stencil_min(rng):
    g = Grid.line(-2, 2, 41)
    f = rng.uniform(0, 3, 41)
    seq = constant_sequence(MaxPlusForm(GridFn(g, f)), (2, 4, 8))
    est = estimate_rate(seq, g.step(0))
    assert np.array_equal(est.values, stencil_min(f, 1))


def test_rate_estimate_gaussian_recovers_quadratic():
    g = Grid.line(-2, 2, 41)
    delta = g.step(0)
    seq = gaussian_mean_sequence(g, (64, 128, 256, 512))
    est = estimate_rate(seq, delta)
    c = g.coords
    for i in range(g.size):
        ball = np.abs(c - c[i]) <= delta * (1 + 1e-12)
        lo, hi = c[ball].min(), c[ball].max()
        oracle = 0.0 if lo <= 0 <= hi else min(lo * lo, hi * hi) / 2
        assert abs(est.values[i] - oracle) < 1e-2


def test_rate_estimate_point_mass_hits_ceiling():
    g = Grid.line(-2, 2, 11)
    w = np.zeros(11)
    w[5] = 1.0
    seq = constant_sequence(LogIntegralForm(g, 0.25, w), (2, 4, 8))
    est = estimate_rate(seq, g.step(0), ceiling=1e6)
    assert est.values[5] == 0.0
    assert est.values[0] == 1e6


# ---------------------------------------------------------------------------
# default families
# ---------------------------------------------------------------------------

def test_default_interval_sets_cap_and_shape():
    g = Grid.line(0, 1, 101)
    fam = default_interval_sets(g, cap=200)
    assert len(fam) == 200
    again = default_interval_sets(g, cap=200)
    for (c1, o1), (c2, o2) in zip(fam, again):
        assert np.array_equal(c1, c2) and np.array_equal(o1, o2)
    for closed, open_ in fam:
        assert closed.sum() >= 4
        assert open_.sum() >= 2
        idx = np.flatnonzero(closed)
        want = closed.copy()
        want[idx[0]] = want[idx[-1]] = False
        assert np.array_equal(open_, want)


def test_report_exports(tmp_path):
    import json
    from maxplus.convergence import report_to_csv, report_to_json
    from maxplus.serialize import dumps

    g = Grid.line(-3, 3, 61)
    seq = gaussian_mean_sequence(g, (64, 128, 256))
    rep = ldp_bounds_check(seq, quadratic_limit_form(g),
                           closed_sets=[g.coords >= 1.0], tol=1e-2)
    path = tmp_path / "rows.csv"
    report_to_csv(rep, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "set_id,kind,lhs_trend,rhs,margin,verdict"
    assert len(lines) == 2
    obj = json.loads(dumps(report_to_json(rep)))
    assert obj["statements"]["closed_limsup"]["verdict"] == "PASS"
    assert len(obj["sets"]) == 1


@pytest.mark.filterwarnings("error")
def test_trend_limit_of_an_overflowing_fit_is_nan():
    # the fit's residual is inf, so there is no usable trend
    assert math.isnan(trend_limit((3, 320, 321), [0.0, 0.0, 6.5e303]))
    assert math.isnan(trend_limit((3, 320, 321), [6.5e303, -6.5e303, 6.5e303]))
    assert trend_limit((1, 2, 4), [1.0, 1.5, 1.75]) == pytest.approx(2.0)
