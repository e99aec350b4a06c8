import math
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxplus.merton
from maxplus import (
    Grid,
    GridFn,
    MertonParams,
    MertonValueForm,
    POS_INF,
    ValidationError,
    brute_force_growth,
    growth_conjugate,
    growth_value,
    optimal_fraction,
    rate_threshold,
    simulate,
    tail_rate_experiment,
)
from maxplus._normal import log_ndtr
from maxplus.merton import constant_control_rate, exact_tail_value, growth_input
from oracles import (
    clipped_merton_affine,
    unskipped_clipped_rows,
    risk_sensitive_exact,
    risk_sensitive_value,
    slow_constant_samples,
    slow_exact_tail_value,
    slow_tail_rate_experiment,
)

P = MertonParams(r=0.05, alpha=0.10, sigma=0.20)


def random_params(rng):
    r = float(rng.uniform(0.01, 0.08))
    alpha = r + float(rng.uniform(0.01, 0.15))
    sigma = float(rng.uniform(0.05, 0.5))
    return MertonParams(r=r, alpha=alpha, sigma=sigma)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_reference_values():
    assert rate_threshold(P) == 0.08125
    assert growth_value(0.5, P) == 0.05625
    assert optimal_fraction(0.5, P) == pytest.approx(2.5, abs=1e-12)
    assert growth_conjugate(0.12, P) == pytest.approx(0.0077086, abs=1e-7)
    assert growth_conjugate(0.07, P) == 0.0
    assert growth_value(0.0, P) == 0.0


def test_growth_value_infinite_outside_unit_interval():
    for x in (-0.5, 1.0, 1.5):
        assert growth_value(x, P) == POS_INF


def test_brute_force_oracle_example():
    xi = np.arange(0.0, 2 * optimal_fraction(0.9, P) + 1e-4, 1e-4)
    got = brute_force_growth(0.9, P, xi)
    assert got == pytest.approx(0.32625, abs=1e-6)
    assert brute_force_growth(0.0, P, xi) == 0.0


def test_closed_form_matches_brute_force(rng):
    for _ in range(20):
        p = random_params(rng)
        for x in np.arange(0.0, 0.91, 0.1):
            xi = np.arange(0.0, 2 * optimal_fraction(x, p) + 1e-4, 1e-4)
            assert abs(growth_value(x, p) - brute_force_growth(x, p, xi)) < 1e-6


def test_conjugate_matches_fraction_minimization(rng):
    # independent route: minimise the per-fraction tail rate on a grid
    for _ in range(10):
        p = random_params(rng)
        z0 = rate_threshold(p)
        for c in (z0 + 0.01, z0 + 0.05):
            xi = np.arange(1e-3, 80, 1e-3)
            rates = constant_control_rate(c, xi, p)
            assert abs(rates.min() - growth_conjugate(c, p)) < 1e-5


@pytest.mark.parametrize("w0", [float("nan"), POS_INF], ids=["nan", "inf"])
def test_initial_wealth_is_finite(w0):
    with pytest.raises(ValidationError, match="initial wealth"):
        MertonParams(r=0.05, alpha=0.1, sigma=0.2, w0=w0)


@pytest.mark.parametrize("name", ["r", "alpha", "sigma", "w0"])
def test_params_are_real_numbers(name):
    kwargs = dict(r=0.05, alpha=0.1, sigma=0.2, w0=1.0)
    for bad in (True, "0.1"):
        with pytest.raises(ValidationError, match=f"{name} is a real number"):
            MertonParams(**{**kwargs, name: bad})


def test_param_validation():
    with pytest.raises(ValidationError):
        MertonParams(r=0.05, alpha=0.04, sigma=0.2)
    with pytest.raises(ValidationError):
        MertonParams(r=0.05, alpha=0.1, sigma=0.0)
    with pytest.raises(ValidationError):
        MertonParams(r=0.05, alpha=0.1, sigma=0.2, w0=0.0)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_riskless_control_is_deterministic():
    p = MertonParams(r=0.05, alpha=0.10, sigma=0.20, w0=2.0)
    (s,) = simulate(p, [0.0], 10.0, 1000, seed=1)
    expect = math.log(2.0) / 10.0 + 0.05
    assert np.all(s == expect)


def test_simulated_mean_matches_drift():
    (s,) = simulate(P, [1.0], 10.0, 100_000, seed=2)
    drift = 0.05 + 0.05 - 0.5 * 0.04  # r + excess - sigma^2/2 = 0.08
    se = 0.2 / math.sqrt(10.0) / math.sqrt(100_000)
    assert abs(s.mean() - drift) < 3 * se


def test_seeded_determinism():
    (a,) = simulate(P, [1.5], 5.0, 1000, seed=42)
    (b,) = simulate(P, [1.5], 5.0, 1000, seed=42)
    assert np.array_equal(a, b)
    (c,) = simulate(P, [1.5], 5.0, 1000, seed=43)
    assert not np.array_equal(a, c)


def test_simulate_rejects_unknown_controls():
    for xi in (None, {"xi": 1.0}, "1.0", ["1.0"], [True], [[1.0]], [1.0, None],
               [1.0, float("nan")], [float("-inf")]):
        with pytest.raises(ValidationError, match="finite fractions"):
            simulate(P, xi, 10.0, 10, seed=0)


def test_nonpositive_horizon_rejected():
    with pytest.raises(ValidationError):
        simulate(P, [1.0], 0.0, 10, seed=0)


XIS = [0.0, -1.5, -0.05, 0.5, 2.0, 8.0]
# fractions whose square under libm pow is not the product xi * xi
POW_SQUARED = [2.759, 6.555000000000001]


def test_simulate_shares_one_draw_across_controls():
    # common random numbers: fraction j of one call gets the bits that a
    # one-fraction call with the same seed gets
    for T, seed in ((25.0, 3), (333.3, np.random.SeedSequence(5, spawn_key=(1,)))):
        got = list(simulate(P, XIS, T, 4097, seed))
        assert len(got) == len(XIS)
        assert len({id(a) for a in got}) == len(XIS)
        for xi, values in zip(XIS, got):
            assert not values.flags.writeable
            (alone,) = simulate(P, [xi], T, 4097, seed)
            assert values.tobytes() == alone.tobytes()


def paths_and_counts(paths, c):
    """The per-fraction counts of the sorted draw, and of every sample array."""
    return paths.tail_counts(c).tolist(), [int(np.count_nonzero(a >= c)) for a in paths]


# fractions whose samples all equal the base (sigma |xi| underflows to 0
# at 5e-324, and at +-1e-300 z * scale is below half an ulp of the base:
# all or none count), negative ones, which reverse the order, and
# ordinary ones
FRACTIONS = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324]),
        st.floats(-8.0, 8.0),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    FRACTIONS,
    st.floats(1e-2, 1e4),
    st.one_of(st.integers(1, 5), st.integers(6, 5000)),
    st.integers(0, 2**32 - 1),
    st.one_of(st.floats(-2.0, 2.0), st.sampled_from([P.r, 0.0, -0.0])),
)
def test_tail_counts_of_the_sorted_draw_equal_the_sample_counts(xi, T, n_paths, seed, c):
    p = MertonParams(r=0.05, alpha=0.10, sigma=0.20, w0=float(seed % 3 + 1))
    got, want = paths_and_counts(simulate(p, xi, T, n_paths, seed), c)
    assert got == want


@pytest.mark.parametrize("pick", [0, 1, 2, -1], ids=["first", "second", "middle", "last"])
def test_tail_counts_at_a_sample_value(pick):
    # c equal to a sample of one fraction counts that sample, and every
    # fraction counts its ties with c, whichever way its samples run
    for T in (25.0, 1e4):
        paths = simulate(P, XIS, T, 2001, 9)
        for values in paths:
            c = float(np.sort(values)[[0, 1, 1000, -1][pick]])
            got, want = paths_and_counts(paths, c)
            assert got == want
            assert got[XIS.index(0.0)] in (0, 2001)


def test_tail_rate_calls_simulate_once_over_the_monte_carlo_horizons(monkeypatch):
    # merton.simulate is the sampling entry point of the tail-rate
    # experiment, called through the module once, on the seed's first
    # child, for all Monte Carlo horizons together
    calls = []
    original = maxplus.merton.simulate

    def counting(*args, **kwargs):
        calls.append((list(args[2]), args[3], args[4].entropy, args[4].spawn_key))
        return original(*args, **kwargs)

    monkeypatch.setattr(maxplus.merton, "simulate", counting)
    kw = dict(c=0.12, p=P, horizons=[25, 50, 100], n_paths=300, seed=4,
              xi_grid=np.array([0.5, 1.0]))
    for mc_horizons, want in ((None, [[25, 50, 100]]), ([100, 50], [[50, 100]]), ([], [])):
        calls.clear()
        tail_rate_experiment(mc_horizons=mc_horizons, **kw)
        assert calls == [(T, 300, 4, (0,)) for T in want]


def test_simulate_over_horizons_is_the_one_horizon_calls():
    # cell (h, j) of a multi-horizon call gets the bits of fraction j of a
    # one-horizon call on the same seed, negative and zero fractions too
    horizons = [25, 333.3, 1e-3, 4096.0]
    for seed in (3, np.random.SeedSequence(5, spawn_key=(0,))):
        for hs in (horizons, tuple(horizons[:1]), np.array(horizons[1:])):
            paths = simulate(P, XIS, hs, 4097, seed)
            got = list(paths)
            assert len(got) == len(hs) * len(XIS)
            alone = [simulate(P, XIS, T, 4097, seed) for T in hs]
            want = [a for one in alone for a in one]
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
            for name in ("scale", "base"):
                cells = np.concatenate([getattr(one, name) for one in alone])
                assert getattr(paths, name).tobytes() == cells.tobytes()
            for c in (0.1, P.r, -0.3):
                counts = np.concatenate([one.tail_counts(c) for one in alone])
                assert paths.tail_counts(c).tolist() == counts.tolist()


def test_tail_rate_first_horizon_keeps_its_per_horizon_draw():
    # with every horizon sampling, the first horizon's cells are those of
    # a one-horizon draw on SeedSequence(seed).spawn(|T|)[0], as if each
    # horizon drew from its own child
    horizons, xi, n = [25, 50, 100], np.arange(-0.5, 3.0, 0.25), 2000
    rep = tail_rate_experiment(c=0.1, p=P, horizons=horizons, n_paths=n, seed=42,
                               xi_grid=xi)
    first = np.random.SeedSequence(42).spawn(len(horizons))[0]
    counts = simulate(P, xi, 25, n, first).tail_counts(0.1).tolist()
    mc = [math.log(k / n) / 25 if k else math.nan for k in counts]
    se = [math.sqrt((1.0 - k / n) / (k / n * n)) / 25 if k else math.nan for k in counts]
    assert rep.mc[0].tobytes() == np.array(mc).tobytes()
    assert rep.mc_se[0].tobytes() == np.array(se).tobytes()
    assert not np.isnan(rep.mc[0]).all()


@pytest.mark.parametrize(
    "xi,horizon,n_paths",
    [
        (1.0, 10.0, 10),
        ([], 10.0, 10),
        ((x for x in [1.0]), 10.0, 10),
        ([1.0], float("nan"), 10),
        ([1.0], float("inf"), 10),
        ([1.0], "10", 10),
        ([1.0], 10.0, 0),
        ([1.0], 10.0, 2.5),
        ([1.0], 10.0, True),
        ([1.0], [], 10),
        ([1.0], [10.0, 10], 10),
        ([1.0], (10.0, -1.0), 10),
        ([1.0], np.array([[10.0]]), 10),
    ],
    ids=["bare-control", "no-controls", "generator", "nan-T", "inf-T", "string-T",
         "zero-paths", "fractional-paths", "bool-paths", "no-T", "repeated-T",
         "negative-T-in-tuple", "2-D-T"],
)
def test_simulate_checks_arguments_at_the_call(xi, horizon, n_paths):
    # the error comes from the call itself, before any array is asked for
    with pytest.raises(ValidationError):
        simulate(P, xi, horizon, n_paths, seed=0)


# ---------------------------------------------------------------------------
# risk-sensitive values
# ---------------------------------------------------------------------------

def test_exact_value_reference():
    assert risk_sensitive_exact(0.5, 1.0, P, 10.0) == pytest.approx(0.045, abs=1e-15)
    assert risk_sensitive_exact(0.0, 3.0, P, 7.0) == 0.0


@pytest.mark.parametrize("to_float", [float, np.float64], ids=["float", "float64"])
@pytest.mark.parametrize("c, xi", [(1e308, 0.05), (0.12, 1e-200)], ids=["c-huge", "xi-tiny"])
def test_tail_rate_beyond_the_float_range_is_plus_inf(c, xi, to_float):
    # (c - m)^2 overflowed, or sigma^2 xi^2 underflowed to 0, with a
    # RuntimeWarning (Python floats: an OverflowError)
    assert constant_control_rate(c, to_float(xi), P) == POS_INF


def test_tail_value_beyond_the_float_range_is_minus_inf():
    # log P / T overflowed with a RuntimeWarning
    assert exact_tail_value(0.12, 0.5, P, 5e-324) == -POS_INF
    assert math.isfinite(exact_tail_value(0.12, 0.5, P, 1e-300))


@pytest.mark.parametrize("xi", [0.0, 5e-324, -5e-324])
def test_tail_value_of_a_vanishing_spread_is_the_point_mass(xi):
    # sigma |xi| underflowed to 0 and the division by it raised ZeroDivisionError
    assert exact_tail_value(0.12, xi, P, 25.0) == -POS_INF
    assert exact_tail_value(0.04, xi, P, 25.0) == 0.0


@pytest.mark.parametrize("xi", [1.4e154, -1e200, 1e155])
def test_fractions_whose_variance_overflows_are_rejected(xi):
    grid = Grid.line(0.0, 1.0, 5)
    with pytest.raises(ValidationError, match="sigma\\^2 xi\\^2 leaves the float range"):
        tail_rate_experiment(0.12, P, [25], xi_grid=[0.5, xi])
    with pytest.raises(ValidationError, match="sigma\\^2 xi\\^2 leaves the float range"):
        growth_input(P, grid, grid, [0.5, xi], [200])
    with pytest.raises(ValidationError, match="sigma\\^2 xi\\^2 leaves the float range"):
        simulate(P, [0.5, xi], 25, 10, seed=0)
    # xi^2 itself must be finite: sigma < 1 keeps the largest such fraction
    big = float(np.sqrt(np.finfo(float).max)) * 0.999
    assert tail_rate_experiment(0.12, P, [25], mc_horizons=[], xi_grid=[big]).xi[0] == big


@pytest.mark.parametrize(
    "xi",
    [1e200, -1e200, float("nan"), "0.5", True, [0.5, True], [0.5, float("nan")], ["0.5", True]],
    ids=["huge", "huge-negative", "nan", "string", "bool", "bool-in-list", "nan-in-list",
         "string-and-bool"],
)
def test_closed_forms_reject_bad_fractions(xi):
    # 1e200 raised a bare OverflowError, NaN read NaN, and a string or a
    # bool read as the number it converts to
    grid = xi if isinstance(xi, list) else [0.5, xi]
    with pytest.raises(ValidationError, match="finite fractions"):
        constant_control_rate(0.12, xi, P)
    with pytest.raises(ValidationError, match="finite fractions"):
        exact_tail_value(0.12, xi, P, 25)
    with pytest.raises(ValidationError, match="finite fractions"):
        tail_rate_experiment(0.12, P, [25], mc_horizons=[], xi_grid=grid)
    with pytest.raises(ValidationError, match="finite fractions"):
        simulate(P, grid, 25, 10, seed=0)
    with pytest.raises(ValidationError, match="finite fractions"):
        growth_input(P, Grid.line(0.0, 1.0, 5), Grid.line(0.0, 1.0, 5), grid, [200])


@pytest.mark.parametrize("xi", [0.5, [[0.5, 1.0]]], ids=["scalar", "2-D"])
def test_tail_rate_rejects_a_grid_that_is_not_1d(xi):
    # a scalar grid raised TypeError, and a 2-D one ValueError
    with pytest.raises(ValidationError, match="xi grid is not 1-D"):
        tail_rate_experiment(0.12, P, [25], mc_horizons=[], xi_grid=xi)


@pytest.mark.parametrize(
    "horizon", [0, 0.0, -5, float("nan"), float("inf"), "25", True],
    ids=["zero", "zero-float", "negative", "nan", "inf", "string", "bool"],
)
def test_exact_tail_value_rejects_bad_horizons(horizon):
    # T = 0 raised ZeroDivisionError, and T = -5 a math domain error
    with pytest.raises(ValidationError, match="horizon"):
        exact_tail_value(0.12, 0.5, P, horizon)


def test_empirical_matches_exact_within_se():
    T, n = 10.0, 100_000
    for x, xi in ((0.5, 1.0), (0.5, 2.5), (-0.3, 1.0)):
        (s,) = simulate(P, [xi], T, n, seed=11)
        got = risk_sensitive_value(x, s, T)
        want = risk_sensitive_exact(x, xi, P, T)
        # bootstrap standard error of the log-mean estimate
        w = np.exp(x * T * s - (x * T * s).max())
        se = w.std() / w.mean() / math.sqrt(n) / T
        assert abs(got - want) < 3 * se


# ---------------------------------------------------------------------------
# exact per-horizon forms
# ---------------------------------------------------------------------------

def _mpmath_clipped_moment(x, p, T, xi, a):
    """E[e^{x T (L ∨ a)}] via high precision, L the per-time log growth."""
    with mpmath.workdps(30):
        mu = p.r + p.excess * xi - p.sigma**2 * xi**2 / 2 + mpmath.log(p.w0) / T
        sd = p.sigma * abs(xi) / mpmath.sqrt(T)
        k = x * T
        atom = mpmath.e ** (k * a) * mpmath.ncdf((a - mu) / sd)
        tail = mpmath.quad(
            lambda l: mpmath.e ** (k * l) * mpmath.npdf(l, mu, sd), [a, mpmath.inf]
        )
        return float(mpmath.log(atom + tail) / T)


def test_exact_form_affine_matches_risk_sensitive():
    F = MertonValueForm(P, 25.0, 1.7)
    for x in (-1.0, 0.0, 0.5, 0.9):
        assert F.evaluate_affine(x) == risk_sensitive_exact(x, 1.7, P, 25.0)


@pytest.mark.parametrize("x,a", [(0.5, 0.0), (0.3, 0.05), (0.0, 0.0)])
def test_exact_form_clipped_affine_matches_quadrature(x, a):
    T, xi = 25.0, 2.5
    F = MertonValueForm(P, T, xi, clip_floor=a)
    got = F.evaluate_affine(x)
    want = _mpmath_clipped_moment(x, P, T, xi, a)
    assert abs(got - want) < 1e-10


def test_exact_form_set_mass():
    g = Grid.line(0.0, 0.3, 31)
    T, xi = 50.0, 2.0
    F = MertonValueForm(P, T, xi, lookup_grid=g)
    mask = g.coords >= 0.12
    got = F.eval_on_set(mask)
    from oracles import gauss_log_mass

    mu = 0.05 + 0.05 * 2 - 0.02 * 4
    sd = 0.2 * 2 / math.sqrt(T)
    want = gauss_log_mass(0.12, 0.3, mu, sd) / T
    assert abs(got - want) < 1e-12


# ---------------------------------------------------------------------------
# state truncation
# ---------------------------------------------------------------------------

def test_truncation_keeps_upper_indicators():
    grid = Grid.line(-0.5, 0.5, 101)
    F = MertonValueForm(P, 10.0, 1.0, lookup_grid=grid)
    G = MertonValueForm(P, 10.0, 1.0, lookup_grid=grid, clip_floor=0.0)
    up = grid.coords >= 0.1  # truncation point outside the set
    assert G.eval_on_set(up) == F.eval_on_set(up)
    # the clipped mass stays below the cut; the law's mass below the
    # grid, about 9 sd under the mean, is all that differs
    down = grid.coords <= 0.1
    assert G.eval_on_set(down) == pytest.approx(F.eval_on_set(down), abs=1e-15)


def test_kernel_slice_truncation_identity():
    # b(x, max(y, a)) = max(b(x, y), x a) pointwise, bit-exact for x >= 0
    y = np.linspace(-2, 2, 401)
    for x in (0.0, 0.3, 1.7):
        for a in (-0.5, 0.0, 0.4):
            lhs = x * np.maximum(y, a)
            rhs = np.maximum(x * y, x * a)
            assert np.array_equal(lhs, rhs)


def test_truncated_exact_form_converges_to_untruncated():
    gaps = []
    for T in (100.0, 200.0, 400.0):
        base = MertonValueForm(P, T, 2.5).evaluate_affine(0.5)
        trunc = MertonValueForm(P, T, 2.5, clip_floor=0.0).evaluate_affine(0.5)
        assert trunc >= base
        gaps.append(trunc - base)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 1e-6


# ---------------------------------------------------------------------------
# tail-rate experiment
# ---------------------------------------------------------------------------

def test_tail_rate_oracle_and_trend():
    rep = tail_rate_experiment(
        c=0.12,
        p=P,
        horizons=[25, 50, 100, 200],
        n_paths=20_000,
        seed=9,
        xi_grid=np.arange(1e-3, 8.0, 1e-3),
        mc_horizons=[25],
    )
    assert abs(rep.oracle_rate - growth_conjugate(0.12, P)) < 1e-5
    assert rep.target == -growth_conjugate(0.12, P)
    sups = [rep.sup_by_horizon[float(T)][0] for T in (25, 50, 100, 200)]
    assert sups == sorted(sups)  # monotone toward the target
    assert all(s < rep.target for s in sups)
    # Monte Carlo cross-check at the shortest horizon
    sampled = ~np.isnan(rep.mc[0])
    assert sampled.any()
    within = np.abs(rep.mc[0] - rep.exact[0]) < 3 * rep.mc_se[0]
    assert within[sampled].mean() > 0.98
    assert np.isnan(rep.mc[1:]).all()


def test_tail_rate_below_threshold_degenerates_to_zero():
    rep = tail_rate_experiment(
        c=0.07,
        p=P,
        horizons=[50, 200, 800],
        n_paths=1000,
        seed=10,
        xi_grid=np.arange(0.05, 4.0, 0.05),
        mc_horizons=[],
    )
    assert rep.target == 0.0
    sups = [rep.sup_by_horizon[float(T)][0] for T in (50, 200, 800)]
    assert sups[-1] > -1e-3  # probability tends to a constant, rate to 0
    assert not rep.degenerate  # c > r, so the experiment is informative


def test_tail_rate_below_riskless_flagged_degenerate():
    rep = tail_rate_experiment(
        c=0.04,
        p=P,
        horizons=[50],
        n_paths=100,
        seed=1,
        xi_grid=np.array([0.0, 1.0]),
        mc_horizons=[],
    )
    assert rep.degenerate


def test_tail_rate_zero_hits_inconclusive():
    rep = tail_rate_experiment(
        c=0.5,  # far above reach at short horizons
        p=P,
        horizons=[25],
        n_paths=200,
        seed=3,
        xi_grid=np.array([0.5]),
    )
    assert np.isnan(rep.mc).all() and np.isnan(rep.mc_se).all()


def test_tail_rate_report_deterministic():
    kw = dict(
        c=0.12, p=P, horizons=[25, 50], n_paths=5000,
        xi_grid=np.arange(0.5, 4.0, 0.5),
    )
    a = tail_rate_experiment(seed=77, **kw)
    b = tail_rate_experiment(seed=77, **kw)
    assert a.csv_rows() == b.csv_rows()


def test_clipped_affine_on_slope_arrays_matches_libm_closed_form():
    # numpy's vectorised exp and log round differently from libm on some
    # arguments; the array evaluation must still give the scalar bits
    slopes = np.linspace(-0.5, 1.5, 81)
    for T in (25.0, 400.0, 3200.0):
        for xi in (0.0, 0.05, 0.5, 2.0, 8.0):
            for floor in (0.0, 0.1):
                F = MertonValueForm(P, T, xi, clip_floor=floor)
                ref = [clipped_merton_affine(P, T, xi, floor, s) for s in slopes]
                assert F.evaluate_affine(slopes).tobytes() == np.array(ref).tobytes()
                assert [F.evaluate_affine(s) for s in slopes] == ref


def skipped_share(forms, slopes):
    """The share of cells whose t2 tail ``affine_rows`` leaves uncomputed."""
    T, a, mu, sd = (np.array(c)[:, None] for c in zip(
        *[(f.horizon, f.clip_floor, *f._law()) for f in forms]
    ))
    t1 = T * (0.0 + slopes * a) + log_ndtr((a - mu) / sd)
    head = T * 0.0 + T * slopes * mu + T * slopes * slopes * sd * sd * T / 2.0
    return float(np.mean(head - t1 < -37.0))


def test_clipped_rows_skip_no_bit_on_the_criterion_8_family():
    # where head - t1 < -37 the pair sum reads t1 alone, so leaving t2's
    # Gaussian tail uncomputed there moves no bit
    slopes = Grid.line(0.0, 1.2, 121).coords
    xi = np.arange(0.05, 40.0 + 1e-9, 0.05)
    for T in (400.0, 800.0, 1600.0, 3200.0):
        forms = [MertonValueForm(P, T, float(x), clip_floor=0.0) for x in xi]
        got = MertonValueForm.affine_rows(forms, slopes)
        assert got.tobytes() == unskipped_clipped_rows(forms, slopes).tobytes()
        assert skipped_share(forms, slopes) > 0.5


def test_clipped_rows_skip_no_bit_on_random_forms():
    rng = np.random.default_rng(34)
    for _ in range(40):
        p = random_params(rng)
        T = float(rng.choice([1.0, 25.0, 400.0, 3200.0, 1e5]))
        floor = float(rng.uniform(-0.2, 0.3))
        forms = [
            MertonValueForm(p, T, float(x), clip_floor=floor)
            for x in rng.uniform(-3.0, 40.0, 30)
        ]
        slopes = np.sort(rng.uniform(-2.0, 4.0, 50))
        got = MertonValueForm.affine_rows(forms, slopes)
        assert got.tobytes() == unskipped_clipped_rows(forms, slopes).tobytes()


def test_exact_tail_value_on_an_array_is_the_scalar_loop():
    xi = np.concatenate([[0.0, -0.5, 1e-320, *POW_SQUARED], np.linspace(-3.0, 8.0, 57)])
    for p in (P, MertonParams(r=0.03, alpha=0.11, sigma=0.35, w0=2.5)):
        for c in (-0.2, 0.04, 0.12, 3.0):
            for T in (1e-300, 1.0, 25.0, 3200.0):
                got = exact_tail_value(c, xi, p, T)
                scalars = [exact_tail_value(c, x, p, T) for x in xi.tolist()]
                want = [slow_exact_tail_value(c, x, p, T) for x in xi.tolist()]
                assert type(got) is np.ndarray and all(type(v) is float for v in scalars)
                assert got.tobytes() == np.array(scalars).tobytes()
                assert got.tobytes() == np.array(want).tobytes()
                assert exact_tail_value(c, xi.reshape(2, 31), p, T).tobytes() == got.tobytes()
                assert type(exact_tail_value(c, np.float64(0.5), p, T)) is float


def test_tail_rate_calls_exact_tail_value_once_per_horizon(monkeypatch):
    calls = []
    inner = maxplus.merton.exact_tail_value

    def counting(c, xi, p, horizon):
        calls.append(np.shape(xi))
        return inner(c, xi, p, horizon)

    monkeypatch.setattr(maxplus.merton, "exact_tail_value", counting)
    tail_rate_experiment(
        c=0.12, p=P, horizons=[25, 50, 100], xi_grid=np.arange(0.5, 4.0, 0.5),
        mc_horizons=[],
    )
    assert calls == [(7,)] * 3


def test_tail_rate_cell_seeds_match_spawned_children():
    # every Monte Carlo cell counts the samples that a one-fraction,
    # one-horizon simulate draws from SeedSequence(seed).spawn(1)[0]
    horizons, xi = [25, 50, 100], np.arange(0.25, 3.0, 0.25)
    for mc_horizons in (None, [50]):
        rep = tail_rate_experiment(
            c=0.1, p=P, horizons=horizons, n_paths=500, seed=42, xi_grid=xi,
            mc_horizons=mc_horizons,
        )
        (kid,) = np.random.SeedSequence(42).spawn(1)
        for ti, T in enumerate(horizons):
            for xj, x in enumerate(xi):
                mc = rep.mc[ti, xj]
                if mc_horizons is not None and T not in mc_horizons:
                    assert math.isnan(mc)
                    continue
                (ref,) = simulate(P, [float(x)], T, 500, kid)
                hits = int(np.count_nonzero(ref >= 0.1))
                assert math.isnan(mc) == (hits == 0)
                if hits:
                    assert mc == math.log(hits / 500) / T
        assert not np.isnan(rep.mc).all()


def test_tail_rate_exact_only_needs_no_paths_or_seed():
    rep = tail_rate_experiment(
        c=0.12, p=P, horizons=[25, 50], xi_grid=np.array([0.5, 1.0]),
        mc_horizons=[],
    )
    assert np.isnan(rep.mc).all()
    assert rep.sup_by_horizon[25.0][0] == max(
        exact_tail_value(0.12, x, P, 25) for x in (0.5, 1.0)
    )


@pytest.mark.parametrize("xi", XIS + POW_SQUARED)
def test_simulate_constant_matches_base_plus_scale_z(xi):
    # the in-place draw rounds as base + scale * z does, bit for bit
    for p in (P, MertonParams(r=0.03, alpha=0.11, sigma=0.35, w0=2.5)):
        for T in (1, 25.0, 333.3):
            for seed in (0, 7, np.random.SeedSequence(5, spawn_key=(3,))):
                (got,) = simulate(p, [xi], T, 4097, seed)
                want = slow_constant_samples(p, xi, T, 4097, seed)
                assert got.tobytes() == want.tobytes()


def assert_report_matches_oracle(rep, want):
    for name in ("exact", "mc", "mc_se"):
        assert getattr(rep, name).tobytes() == getattr(want, name).tobytes(), name
    assert rep.csv_rows() == want.rows
    for name in ("sup_by_horizon", "trend", "target", "oracle_rate", "oracle_xi",
                 "degenerate"):
        assert getattr(rep, name) == getattr(want, name), name


@pytest.mark.parametrize("callers", [1, 2])
@pytest.mark.parametrize("n_paths", [1, 2000])
@pytest.mark.parametrize("mc_horizons", [None, [50], []], ids=["all", "subset", "none"])
@pytest.mark.parametrize("seed", [0, 1, 77])
def test_tail_rate_matches_serial_oracle(seed, mc_horizons, n_paths, callers):
    # with two callers, a second experiment runs on another thread at the
    # same time; the library keeps no state between calls, so both match
    kw = dict(c=0.1, p=P, horizons=[25, 50, 100], n_paths=n_paths, seed=seed,
              mc_horizons=mc_horizons)
    for xi in (np.arange(0.25, 3.0, 0.25), np.array(POW_SQUARED), np.array([1.5])):
        want = slow_tail_rate_experiment(xi_grid=xi, **kw)
        others = []
        threads = [
            threading.Thread(
                target=lambda: others.append(tail_rate_experiment(xi_grid=xi, **kw))
            )
            for _ in range(callers - 1)
        ]
        for t in threads:
            t.start()
        got = tail_rate_experiment(xi_grid=xi, **kw)
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert len(others) == callers - 1
        for rep in (got, *others):
            assert_report_matches_oracle(rep, want)
    if mc_horizons != [] and n_paths > 1:
        assert not np.isnan(got.mc).all()


@pytest.mark.parametrize("c", [P.r, -10.0], ids=["riskless-rate", "all-tied"])
def test_tail_rate_counts_samples_at_the_threshold(c):
    # at xi = 0 every sample is r exactly (w0 = 1), so c = r counts them
    # all; at c = -10 every exact value is a signed zero and the first
    # fraction is the argmax.  Negative fractions spread the law by |xi|.
    kw = dict(c=c, p=P, horizons=[25, 50], n_paths=1000, seed=5,
              xi_grid=np.array([-1.5, -0.05, 0.0, 0.5, 2.0]))
    rep = tail_rate_experiment(**kw)
    assert_report_matches_oracle(rep, slow_tail_rate_experiment(**kw))
    assert (rep.mc[:, 2] == 0.0).all()
    if c < 0:
        assert (rep.exact == 0.0).all()
        assert all(xi == -1.5 for _, xi in rep.sup_by_horizon.values())


def test_tail_rate_worker_error_propagates_and_joins():
    before = threading.active_count()
    with pytest.raises(ValidationError, match="at least one path"):
        tail_rate_experiment(c=0.12, p=P, horizons=[25, 50], n_paths=0, seed=1,
                             xi_grid=np.array([0.5, 1.0]))
    assert threading.active_count() == before


def test_tail_rate_holds_a_few_path_arrays():
    # 120 fractions share one draw, counted one array at a time: the
    # experiment never holds a fractions x paths array (96 MB here)
    n_paths = 100_000
    xi = np.arange(0.05, 6.0 + 1e-9, 0.05)
    assert xi.size == 120
    kw = dict(c=0.12, p=P, horizons=[25, 50], seed=3)
    tail_rate_experiment(n_paths=10, xi_grid=xi[:2], **kw)  # lazy imports done
    tracemalloc.start()
    try:
        rep = tail_rate_experiment(n_paths=n_paths, xi_grid=xi, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not np.isnan(rep.mc).all()
    assert peak < 4 * n_paths * 8, peak


@pytest.mark.parametrize(
    "horizons",
    [[], [0], [-5], [25, 0.0], [25, 25], [25, 25.0], [float("nan")], [float("inf")],
     ["25"], [True], [None]],
    ids=["empty", "zero", "negative", "zero-float", "duplicate", "duplicate-float",
         "nan", "inf", "string", "bool", "null"],
)
def test_tail_rate_rejects_bad_horizons(horizons):
    with pytest.raises(ValidationError):
        tail_rate_experiment(c=0.12, p=P, horizons=horizons, n_paths=10, seed=1,
                             xi_grid=np.array([0.5, 1.0]))


@pytest.mark.parametrize("mc_horizons", [[30], [30, "x"], [25, 75]])
def test_tail_rate_rejects_monte_carlo_horizons_off_the_list(mc_horizons):
    # a stray entry once ran no Monte Carlo for it, leaving its cells NaN
    with pytest.raises(ValidationError, match="not among the horizons"):
        tail_rate_experiment(c=0.12, p=P, horizons=[25, 50], n_paths=10, seed=1,
                             xi_grid=np.array([0.5, 1.0]), mc_horizons=mc_horizons)


def test_growth_value_legendre_consistency():
    # conjugating the sampled value function reproduces the rate function
    # up to grid resolution: the two closed forms are duals
    from maxplus import Kernel, conjugate

    xg = Grid.line(0.0, 1.2, 241)
    yg = Grid.line(0.0, 1.0, 51)
    gfn = GridFn(xg, growth_value(xg.coords, P))
    dual = conjugate(gfn, Kernel.bilinear(xg, yg).transpose())
    want = growth_conjugate(yg.coords, P)
    # error bound: half the curvature of the value function at the
    # maximising node times the squared x-step
    hx = xg.step(0)
    x_at = 1.0 - np.sqrt(
        P.excess**2 / (2 * P.sigma**2) / np.maximum(yg.coords - P.r, 1e-6)
    )
    curv = (P.excess**2 / P.sigma**2) / np.maximum(1.0 - x_at, 1e-3) ** 3
    bound = np.maximum(curv * hx * hx / 2, 1e-12)
    assert (np.abs(dual.values - want) <= bound + 1e-9).all()
