import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplus import (
    GartnerInput,
    GaussianMeanForm,
    Grid,
    GridFn,
    Kernel,
    MaxPlusForm,
    MertonParams,
    NEG_INF,
    ValidationError,
    default_interval_sets,
    gaussian_mean_sequence,
    growth_input,
    ldp_bounds_check,
    pipeline,
)
from maxplus.convergence import (
    FormSequence,
    _trend_basis,
    liminf_trend,
    limsup_trend,
    trend_pairs,
)
from maxplus._normal import mask_runs
from oracles import (
    constant_sequence,
    gauss_log_mass,
    slow_mask_runs,
    slow_set_bound_rows,
    trend_pair,
)

NEG = NEG_INF


@pytest.mark.parametrize(
    "n_list", [(64.7, 128), (64.0, 128), (True, 2), ("64", 128), (0, 1), (-5,)],
    ids=["fraction", "integral-float", "bool", "string", "zero", "negative"],
)
def test_form_sequence_rejects_non_integer_indices(n_list):
    g = Grid.line(-1.0, 1.0, 5)
    with pytest.raises(ValidationError, match="positive integers"):
        gaussian_mean_sequence(g, n_list)


def test_form_sequence_takes_numpy_integers():
    g = Grid.line(-1.0, 1.0, 5)
    seq = gaussian_mean_sequence(g, np.array([64, 128]))
    assert seq.n_list == (64, 128) and type(seq.n_list[0]) is int


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
            ["const", "finite", "sprinkled", "tail", "boundary", "extreme", "spread"]
        ))
        if kind == "const":
            col = [draw(ext_vals)] * m
        elif kind == "finite":
            col = draw(st.lists(finite_vals, min_size=m, max_size=m))
        elif kind == "extreme":
            # magnitudes gelsd would rescale, subnormal ones and ones whose
            # fit overflows included
            scale = draw(st.sampled_from(
                [1e-320, 1e-300, 1e-290, 2.0**-1000, 1e280, 1e289, 2.0**1000, 1e302]
            ))
            col = [scale * x for x in draw(st.lists(finite_vals, min_size=m, max_size=m))]
        elif kind == "spread":
            # tiny, normal and huge entries in one column
            scales = draw(st.lists(
                st.sampled_from([0.0, 1e-318, 1e-300, 1.0, 1e290]), min_size=m, max_size=m
            ))
            col = [a * x for a, x in zip(scales, draw(
                st.lists(finite_vals, min_size=m, max_size=m)
            ))]
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


def test_trend_pairs_makes_one_lstsq_call(monkeypatch):
    ns = (400, 800, 1600, 3200)
    tiny = np.array([-1.3275e-273, 0.0, 0.0, 0.0])
    up = tiny.copy()
    up[0] = np.nextafter(tiny[0], 0.0)  # 1 ulp apart
    signed = np.array([-1.3275e-273, -0.0, 0.0, 0.0])  # apart in bits only
    spread = np.array([3e-280, -1e-290, 2e-285, 5e-300])
    huge = np.array([1e300, 2e300, -1e299, 3e300])
    huge_up = huge.copy()
    huge_up[2] = np.nextafter(huge[2], np.inf)
    normal = np.array([0.5, 0.25, 0.125, 0.0625])
    distinct = [tiny, up, signed, spread, huge, huge_up, normal]
    order = [0, 1, 0, 2, 3, 0, 4, 5, 4, 3, 1, 2, 0, 6, 6]
    V = np.stack([distinct[i] for i in order], axis=1)

    solves = []
    lstsq = np.linalg.lstsq

    def counting(A, b, **kw):
        solves.append(np.shape(b))
        return lstsq(A, b, **kw)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    lo, hi = trend_pairs(ns, V)
    assert solves == [V.shape]
    monkeypatch.undo()
    for j in range(V.shape[1]):
        ref = np.array(trend_pair(ns, V[:, j]))
        assert np.array([lo[j], hi[j]]).tobytes() == ref.tobytes()


def test_trend_pairs_peak_memory_in_blocks_of_the_input():
    # the merton-family block: 201 members x 121 x-nodes at 4 horizons,
    # half the columns smooth, 600 of them tiny
    rng = np.random.default_rng(27)
    ns = np.array([400, 800, 1600, 3200])
    V = rng.uniform(-1.0, 1.0, (4, 24321))
    V[:, ::2] = 1.5 + 2.0 / ns[:, None] + 1e-4 * V[:, ::2]
    V[:, 1:1200:2] *= 1e-280
    tracemalloc.start()
    try:
        trend_pairs(ns, V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 3.96 blocks measured with numpy 2.4: the scaled copy (1 block), the
    # arrays inside lstsq (1.75, its output coefficients 0.75 of them), the
    # trailing-half bounds (0.5), the frexp mantissas and exponents and the
    # fitted-column indices (0.63).  Half a block of margin for lstsq's
    # arrays in other numpy builds; the former dedupe and refit peaked at
    # 6.71 blocks on this input.
    assert peak <= 4.5 * V.nbytes, peak / V.nbytes


@pytest.mark.filterwarnings("error")
def test_overflowing_fit_takes_the_trailing_half_without_warning():
    cases = [
        # the scaled-back residuals are about 1e292
        ((3, 320, 321), [[6.5e303, -6.5e303, 6.5e303], [0.0, 0.0, 6.5e303]]),
        # the residual is exactly 0 and the limit overflows to -inf
        ((29, 30), [[9.83113433127829e306, -8.426686569667106e306]]),
    ]
    for ns, cols in cases:
        V = np.array(cols).T
        lo, hi = trend_pairs(ns, V)
        for j in range(V.shape[1]):
            tail = V[len(ns) // 2:, j]
            ref = np.array([tail.min(), tail.max()])
            assert np.array(trend_pair(ns, V[:, j])).tobytes() == ref.tobytes()
            assert np.array([lo[j], hi[j]]).tobytes() == ref.tobytes()


def test_trend_constant_is_exact():
    lo, hi = trend_pairs([2, 4, 8], np.array([[0.3, NEG], [0.3, NEG], [0.3, NEG]]))
    assert lo.tolist() == hi.tolist() == [0.3, NEG]


def test_trend_recovers_one_over_n():
    ns = [8, 16, 32, 64]
    vals = [1.5 + 2.0 / n for n in ns]
    assert abs(limsup_trend(ns, vals) - 1.5) < 1e-12
    assert liminf_trend(ns, vals) == limsup_trend(ns, vals)
    assert limsup_trend((1, 2, 4), [1.0, 1.5, 1.75]) == pytest.approx(2.0)


def test_trend_recovers_log_term():
    ns = [64, 128, 256, 512]
    vals = [-0.5 - 0.5 * math.log(n) / n - 0.3 / n for n in ns]
    assert abs(limsup_trend(ns, vals) + 0.5) < 1e-10


def _mp_least_squares(ns, vals):
    """Limit and max residual of the {1, 1/n, log(n)/n} fit, in 50 digits."""
    with mpmath.workdps(50):
        A = mpmath.matrix([[1, mpmath.mpf(1) / n, mpmath.log(n) / n] for n in ns])
        v = mpmath.matrix([mpmath.mpf(x) for x in vals])
        coef = mpmath.lu_solve(A.T * A, A.T * v)
        return coef[0], max(abs(x) for x in A * coef - v)


@pytest.mark.parametrize("scale, fits", [(0.0099, True), (0.0101, False)])
def test_trend_pairs_against_a_50_digit_fit(scale, fits):
    # 1.5 + 2/n + 0.25 log(n)/n plus `scale` times the unit vector
    # orthogonal to the basis: the fit's limit is 1.5 and its max residual
    # `scale`, on either side of the 1e-2 tolerance
    ns = (1, 2, 4, 8)
    with mpmath.workdps(50):
        A = mpmath.matrix([[1, mpmath.mpf(1) / n, mpmath.log(n) / n] for n in ns])
        z = mpmath.eye(4) - A * mpmath.inverse(A.T * A) * A.T
        z = z[:, 0] / max(abs(x) for x in z[:, 0])
        vals = [float(A[i, 0] * 1.5 + A[i, 1] * 2 + A[i, 2] / 4 + scale * z[i]) for i in range(4)]
    limit, resid = _mp_least_squares(ns, vals)
    assert abs(limit - 1.5) < 1e-14 and abs(resid - scale) < 1e-14
    lo, hi = trend_pairs(ns, np.array(vals)[:, None])
    if fits:
        assert lo[0] == hi[0] and abs(lo[0] - limit) < 1e-14
    else:
        assert (lo[0], hi[0]) == (min(vals[2:]), max(vals[2:]))
    assert trend_pair(ns, vals) == (lo[0], hi[0])


def test_liminf_limsup_of_alternating():
    ns = [1, 2, 3, 4, 5, 6]
    vals = [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]
    assert limsup_trend(ns, vals) == 1.0
    assert liminf_trend(ns, vals) == 0.0


_COLUMN_KINDS = {
    "finite": lambda rng, ns: rng.uniform(-4.0, 4.0, len(ns)),
    "smooth": lambda rng, ns: 1.5 + 2.0 / np.asarray(ns, dtype=np.float64)
    + rng.uniform(-1e-3, 1e-3, len(ns)),
    "infinities": lambda rng, ns: rng.choice([NEG, float("inf"), -1.5, 2.0], len(ns)),
    "signed-zeros": lambda rng, ns: rng.choice([-0.0, 0.0], len(ns)),
    "constant": lambda rng, ns: np.full(len(ns), rng.uniform(-4.0, 4.0)),
    "tiny": lambda rng, ns: rng.uniform(-1.0, 1.0, len(ns)) * 2.0**-950,
    "huge": lambda rng, ns: rng.uniform(-1.0, 1.0, len(ns)) * 2.0**950,
}


@pytest.mark.parametrize("m", range(6))
@pytest.mark.parametrize("kind", sorted(_COLUMN_KINDS))
def test_one_sided_trends_equal_trend_pair(kind, m):
    rng = np.random.default_rng(m)
    for _ in range(20):
        ns = np.sort(rng.choice(np.arange(1, 5001), m, replace=False)).tolist()
        col = _COLUMN_KINDS[kind](rng, ns)
        lo, hi = trend_pair(ns, col)
        assert np.float64(liminf_trend(ns, col)).tobytes() == np.float64(lo).tobytes()
        assert np.float64(limsup_trend(ns, col)).tobytes() == np.float64(hi).tobytes()


def test_trend_eventually_neg_inf():
    assert liminf_trend([1, 2, 3], [0.5, NEG, NEG]) == NEG
    assert limsup_trend([1, 2, 3], [0.5, NEG, NEG]) == NEG


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


@pytest.mark.parametrize("index", [2.9, 2.0, True, np.float64(4.0), 0, -3])
def test_gaussian_member_index_is_a_positive_integer(index):
    # 2.9 once read as the index 2, and True as 1
    with pytest.raises(ValidationError, match="index is an integer >= 1"):
        GaussianMeanForm(index, Grid.line(-2.0, 2.0, 5))


def test_gaussian_member_index_takes_numpy_integers():
    F = GaussianMeanForm(np.int64(7), Grid.line(-2.0, 2.0, 5))
    assert F.index == 7 and type(F.index) is int


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


@st.composite
def grids_and_masks(draw):
    """A 1-D grid with a mask: empty, full, one node, runs at either end."""
    n = draw(st.integers(1, 40))
    g = Grid.line(-1.0, 3.0, n) if n > 1 else Grid.line(0.5, 0.5, 1)
    kind = draw(st.sampled_from(["random", "empty", "full", "ends"]))
    if kind == "random":
        mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    elif kind == "ends":
        mask = [False] * n
        mask[0] = mask[-1] = True
    else:
        mask = [kind == "full"] * n
    return g, np.array(mask, dtype=bool)


@settings(max_examples=300, deadline=None)
@given(grids_and_masks())
def test_mask_runs_equal_the_node_loop(case):
    g, mask = case
    got = mask_runs(g, mask)
    assert got == slow_mask_runs(g, mask)
    assert all(type(a) is float and type(b) is float for a, b in got)


# ---------------------------------------------------------------------------
# set bounds
# ---------------------------------------------------------------------------

def quadratic_limit_form(grid):
    return MaxPlusForm(GridFn(grid, grid.coords**2 / 2))


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


def test_set_bounds_short_prefix_inconclusive():
    g = Grid.line(-1, 1, 5)
    F = MaxPlusForm(GridFn(g, np.zeros(5)))
    seq = constant_sequence(F, (1, 2))
    rep = ldp_bounds_check(seq, F, open_sets=[g.coords > 0], closed_sets=[g.coords >= 0])
    assert rep.results["open_liminf"].verdict == "INCONCLUSIVE"
    assert rep.results["closed_limsup"].verdict == "INCONCLUSIVE"


def test_bound_implication_ladder():
    # on a finite grid every set is compact, so the closed-limsup bound is
    # also the compact one; it holds on a tail and on a two-sided set
    g = Grid.line(-3, 3, 121)
    seq = gaussian_mean_sequence(g, (64, 128, 256, 512))
    F = quadratic_limit_form(g)
    sets = [g.coords >= 1.0, np.abs(g.coords) >= 0.5]
    rep = ldp_bounds_check(seq, F, closed_sets=sets, tol=1e-3)
    assert rep.results["closed_limsup"].verdict == "PASS"


def _criterion_5_case():
    grid = Grid.line(-2.0, 2.0, 101)
    seq = gaussian_mean_sequence(grid, (1024, 2048, 4096, 8192))
    gin = GartnerInput(sequences=(seq,), kernel=Kernel.bilinear(grid, grid),
                       mode="limit-asserted")
    return seq, pipeline(gin).limit_form, default_interval_sets(grid, cap=200)


def _merton_case():
    # below the floor the clipped law has no mass: those sets evaluate to -inf
    yg = Grid.line(-1.0, 2.0, 31)
    gin = growth_input(
        MertonParams(r=0.05, alpha=0.10, sigma=0.20), Grid.line(0.0, 1.2, 13), yg,
        [0.5, 1.8], (50, 100, 200, 400), clip_floor=0.0,
    )
    F = MaxPlusForm(GridFn(yg, yg.coords**2))
    return gin.sequences[1], F, default_interval_sets(yg, cap=60)


def _short_case():
    g = Grid.line(-1.0, 1.0, 9)
    F = MaxPlusForm(GridFn(g, g.coords**2))
    return constant_sequence(F, (1, 2)), F, default_interval_sets(g, cap=10)


def _oscillating_case():
    # no smooth fit explains alternating values: liminf and limsup differ
    g = Grid.line(-1.0, 1.0, 9)
    forms = [MaxPlusForm(GridFn(g, g.coords**2)), MaxPlusForm(GridFn(g, 1.0 - g.coords))]
    seq = FormSequence(lambda n: forms[n % 2], tuple(range(1, 9)), g)
    return seq, forms[0], default_interval_sets(g, cap=10)


@pytest.mark.parametrize(
    "case", [_criterion_5_case, _merton_case, _short_case, _oscillating_case],
    ids=["criterion-5", "merton-neg-inf", "short-n-list", "oscillating"],
)
def test_ldp_bounds_check_rows_equal_per_set_fits(case):
    seq, F, fam = case()
    sets = dict(open_sets=[o for _, o in fam], closed_sets=[c for c, _ in fam])
    rows = ldp_bounds_check(seq, F, **sets).to_rows()
    want = slow_set_bound_rows(seq, F, **sets)
    assert len(rows) == len(want) == 2 * len(fam)

    def bits(v):
        return np.float64(v).tobytes()

    for row, (sid, kind, lhs, rhs, margin, verdict) in zip(rows, want):
        assert (row.set_id, row.kind, row.verdict) == (sid, kind, verdict)
        assert [bits(row.lhs_trend), bits(row.rhs), bits(row.margin)] == [
            bits(lhs), bits(rhs), bits(margin)
        ]


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
