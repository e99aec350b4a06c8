import math

import numpy as np
import pytest

from maxplus import (
    Grid,
    GridFn,
    LogIntegralForm,
    MaxPlusForm,
    NEG_INF,
    POS_INF,
    ValidationError,
    join_defect_estimate,
)

NEG = NEG_INF
POS = POS_INF

LN2 = math.log(2.0)


def grid(n=3, lo=0.0, hi=None):
    return Grid.line(lo, (n - 1.0) if hi is None else hi, n)


def uniform_two_point(eps=0.5):
    return LogIntegralForm(grid(2), eps, [0.5, 0.5])


@pytest.mark.parametrize(
    "eps", [float("nan"), POS, True, "0.5"], ids=["nan", "inf", "bool", "string"]
)
def test_log_integral_epsilon_is_a_finite_positive_number(eps):
    # NaN once built a form whose evaluate and eval_on_set gave NaN, and
    # +inf one that gave inf
    with pytest.raises(ValidationError, match="epsilon"):
        LogIntegralForm(grid(2), eps, [0.5, 0.5])


def test_log_integral_huge_weights_carry_mass():
    # the weights' sum overflows; the mass test does not need it
    F = LogIntegralForm(grid(2), 0.5, [1e308, 1e308])
    assert F.eval_on_set([0]) == 0.5 * math.log(1e308)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_maxplus_sup_with_zero_density():
    g = grid(3)
    F = MaxPlusForm(GridFn(g, np.zeros(3)))
    assert F.evaluate(GridFn(g, [1.0, -2.0, 3.0])) == 3.0


def test_log_integral_unit_mass_zero_function():
    F = uniform_two_point(0.5)
    assert F.evaluate(GridFn(grid(2), [0.0, 0.0])) == 0.0


def test_log_integral_half_mass_indicator():
    F = uniform_two_point(0.5)
    got = F.evaluate(GridFn(grid(2), [0.0, NEG]))
    assert got == 0.5 * math.log(0.5)
    assert abs(got - (-0.34657359027997264)) < 1e-15


def test_minus_inf_function_evaluates_to_minus_inf():
    g = grid(4)
    phi = GridFn(g, np.full(4, NEG))
    assert MaxPlusForm(GridFn(g, np.zeros(4))).evaluate(phi) == NEG
    assert LogIntegralForm(g, 1.0, np.ones(4)).evaluate(phi) == NEG


def test_log_integral_huge_values_do_not_overflow():
    g = grid(3)
    F = LogIntegralForm(g, 1e-3, [0.2, 0.5, 0.3])
    phi = GridFn(g, [900.0, 100.0, -1000.0])
    got = F.evaluate(phi)
    assert np.isfinite(got)
    assert abs(got - (900.0 + 1e-3 * math.log(0.2))) < 1e-9


# ---------------------------------------------------------------------------
# set evaluation
# ---------------------------------------------------------------------------

def test_eval_on_set_reduces_to_log_mass():
    F = uniform_two_point(0.5)
    assert abs(F.eval_on_set([0]) - 0.5 * math.log(0.5)) < 1e-15


def test_maxplus_whole_space_is_minus_min_density():
    g = grid(3)
    F = MaxPlusForm(GridFn(g, [4.0, -1.0, 2.0]))
    assert F.eval_on_set(np.ones(3, dtype=bool)) == 1.0


def test_empty_set_is_neg_inf():
    g = grid(3)
    for F in (
        MaxPlusForm(GridFn(g, np.zeros(3))),
        LogIntegralForm(g, 1.0, np.ones(3)),
    ):
        assert F.eval_on_set(np.zeros(3, dtype=bool)) == NEG


def test_set_isotonicity(rng):
    g = grid(8)
    forms = [
        MaxPlusForm(GridFn(g, rng.uniform(-3, 3, 8))),
        LogIntegralForm(g, 0.7, rng.uniform(0, 1, 8) + 0.01),
    ]
    for _ in range(50):
        a = rng.random(8) < 0.4
        b = a | (rng.random(8) < 0.4)
        for F in forms:
            assert F.eval_on_set(a) <= F.eval_on_set(b)


# ---------------------------------------------------------------------------
# join defect
# ---------------------------------------------------------------------------

def test_maxplus_join_defect_zero(rng):
    g = grid(5)
    F = MaxPlusForm(GridFn(g, rng.uniform(-2, 2, 5)))
    est = join_defect_estimate(F, n_pairs=200, rng_seed=1)
    assert est.defect == 0.0
    assert est.isotonicity_violations == 0


def test_log_integral_two_point_attains_bound():
    F = LogIntegralForm(grid(2), 1.0, [0.5, 0.5])
    est = join_defect_estimate(F, n_pairs=10, rng_seed=1)
    assert abs(est.defect - LN2) <= 1e-12
    assert est.defect <= F.join_defect_bound + 1e-12


def test_join_defect_never_exceeds_eps_log2(rng):
    for _ in range(10):
        n = int(rng.integers(2, 12))
        eps = float(rng.uniform(0.05, 2.0))
        w = rng.uniform(0, 1, n) + 1e-3
        F = LogIntegralForm(grid(n), eps, w)
        est = join_defect_estimate(F, n_pairs=100, rng_seed=int(rng.integers(1 << 30)))
        assert est.defect <= eps * LN2 + 1e-12
        assert est.isotonicity_violations == 0
        assert est.homogeneity_max_err <= 1e-12


# ---------------------------------------------------------------------------
# homogeneity and scaling limits
# ---------------------------------------------------------------------------

def test_additive_homogeneity_exact_for_maxplus_dyadic(rng):
    from conftest import dyadic
    from maxplus import otimes

    g = grid(9)
    F = MaxPlusForm(GridFn(g, dyadic(rng, 9)))
    for _ in range(200):
        phi = GridFn(g, dyadic(rng, 9))
        lam = float(dyadic(rng, 1)[0])
        shifted = GridFn(g, np.asarray(otimes(phi.values, lam)))
        assert F.evaluate(shifted) == lam + F.evaluate(phi)


def test_log_integral_homogeneity_tight(rng):
    g = grid(6)
    F = LogIntegralForm(g, 0.7, rng.uniform(0, 1, 6) + 0.01)
    worst = 0.0
    for _ in range(300):
        phi = GridFn(g, rng.uniform(-4, 4, 6))
        lam = float(rng.uniform(-2, 2))
        shifted = GridFn(g, phi.values + lam)
        worst = max(worst, abs(F.evaluate(shifted) - lam - F.evaluate(phi)))
    assert worst <= 1e-12  # exact up to a couple of rounding steps


def test_log_integral_tends_to_maxplus_as_eps_shrinks(rng):
    g = grid(6)
    w = rng.uniform(0.1, 1.0, 6)
    phi = GridFn(g, rng.uniform(-2, 2, 6))
    errs = []
    for eps in (1.0, 0.1, 0.01):
        F = LogIntegralForm(g, eps, w)
        limit = MaxPlusForm(GridFn(g, -eps * np.log(w)))
        errs.append(abs(F.evaluate(phi) - limit.evaluate(phi)))
    assert errs[0] > errs[1] > errs[2]
