import math
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest

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
from maxplus.merton import exact_tail_value
from oracles import (
    clipped_merton_affine,
    risk_sensitive_exact,
    risk_sensitive_value,
    slow_constant_samples,
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
    from maxplus.merton import constant_control_rate

    for _ in range(10):
        p = random_params(rng)
        z0 = rate_threshold(p)
        for c in (z0 + 0.01, z0 + 0.05):
            xi = np.arange(1e-3, 80, 1e-3)
            rates = np.array([constant_control_rate(c, x, p) for x in xi])
            assert abs(rates.min() - growth_conjugate(c, p)) < 1e-5


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
    ],
    ids=["bare-control", "no-controls", "generator", "nan-T", "inf-T", "string-T",
         "zero-paths", "fractional-paths", "bool-paths"],
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


def test_tail_rate_cell_seeds_match_spawned_children():
    # every Monte Carlo cell of horizon ti counts the samples that a
    # one-fraction simulate draws from SeedSequence(seed).spawn(|T|)[ti]
    horizons, xi = [25, 50, 100], np.arange(0.25, 3.0, 0.25)
    for mc_horizons in (None, [50]):
        rep = tail_rate_experiment(
            c=0.1, p=P, horizons=horizons, n_paths=500, seed=42, xi_grid=xi,
            mc_horizons=mc_horizons,
        )
        kids = np.random.SeedSequence(42).spawn(len(horizons))
        for ti, T in enumerate(horizons):
            for xj, x in enumerate(xi):
                mc = rep.mc[ti, xj]
                if mc_horizons is not None and T not in mc_horizons:
                    assert math.isnan(mc)
                    continue
                (ref,) = simulate(P, [float(x)], T, 500, kids[ti])
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


@pytest.mark.parametrize("xi", XIS)
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
    for xi in (np.arange(0.25, 3.0, 0.25), np.array([1.5])):
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
