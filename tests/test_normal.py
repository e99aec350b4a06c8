"""The array Gaussian helpers against their per-interval scalar oracles,
and the normal tails under them against mpmath and scipy."""

import importlib.util
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplus import _erfcx_table
from maxplus._normal import (
    erfcx,
    log_gauss_interval,
    log_gauss_mass,
    log_mgf_piecewise_linear,
    log_mgf_piecewise_linear_many,
    log_ndtr,
    ndtr,
)
from maxplus.errors import ValidationError
from oracles import (
    slow_log_gauss_interval,
    slow_log_gauss_mass,
    slow_log_mgf_piecewise_linear,
)

NEG = float("-inf")
POS = float("inf")


def outcome(fn, *args, **kwargs):
    """The result as bytes with its type, or the class of what it raised.

    A RuntimeWarning raises here, so a warning that one path gives and
    the other does not shows as a difference.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            out = fn(*args, **kwargs)
        except (RuntimeWarning, ValidationError) as e:
            return type(e)
    return type(out), np.asarray(out, dtype=np.float64).tobytes()


@st.composite
def piecewise_cases(draw):
    """A piecewise-linear function, a Gaussian law, a scale and a floor."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.integers(1, 4), st.integers(5, 300)))
    lo = draw(st.floats(-50.0, 50.0))
    width = draw(st.sampled_from([1e-3, 1.0, 10.0, 100.0]))
    if draw(st.booleans()):
        coords = lo + width * np.linspace(0.0, 1.0, n)
    else:
        coords = np.unique(lo + width * rng.random(n))
    amp = draw(st.sampled_from([0.0, 1e-3, 1.0, 30.0]))
    values = amp * rng.standard_normal(coords.size)
    scale = draw(st.one_of(st.sampled_from([1, 2, 64, 512, 10_000]), st.floats(1.0, 1e4)))
    sd = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(1.0, 10.0)))
    # the law's centre: on the grid, beside it, or deep in a tail of it
    mu = draw(st.one_of(
        st.floats(coords[0] - 1.0, coords[-1] + 1.0),
        st.floats(-40.0, 40.0).map(lambda k: coords[0] + k * max(sd, 1.0)),
        st.sampled_from([-1e3, 1e3]),
    ))
    floor = draw(st.sampled_from(["none", "below", "on", "between", "above"]))
    j = int(rng.integers(coords.size))
    state_floor = {
        "none": None,
        "below": float(coords[0] - width * rng.random() - 1e-3),
        "on": float(coords[j]),
        "between": float(coords[j] + (coords[min(j + 1, coords.size - 1)] - coords[j]) / 3),
        "above": float(coords[-1] + width * rng.random() + 1e-3),
    }[floor]
    return coords, values, scale, mu, sd, state_floor


@settings(max_examples=300, deadline=None, derandomize=True)
@given(piecewise_cases())
def test_piecewise_log_mgf_equals_the_segment_loop(case):
    coords, values, scale, mu, sd, state_floor = case
    got = outcome(log_mgf_piecewise_linear, coords, values, scale, mu, sd, state_floor)
    want = outcome(slow_log_mgf_piecewise_linear, coords, values, scale, mu, sd, state_floor)
    assert got == want
    assert got is RuntimeWarning or got[0] is float


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(piecewise_cases(), min_size=1, max_size=5))
def test_piecewise_log_mgf_many_is_each_law_in_turn(cases):
    # one normal-tail pass for all the laws, on the first case's values
    coords, values = cases[0][:2]
    laws = [case[2:] for case in cases]
    want = []
    for law in laws:
        want.append(outcome(log_mgf_piecewise_linear, coords, values, *law))
        if not isinstance(want[-1], tuple):
            break  # a law that raises or warns stops the sequence there
    got = outcome(log_mgf_piecewise_linear_many, coords, values, laws)
    if isinstance(want[-1], tuple):
        assert got == (list, b"".join(v for _, v in want))
    else:
        assert got is want[-1]


def test_piecewise_log_mgf_many_of_no_law_checks_nothing():
    assert log_mgf_piecewise_linear_many([0.0, 1.0], [0.0, NEG], []) == []


def test_piecewise_log_mgf_rejects_what_the_loop_rejects():
    coords = np.linspace(0.0, 1.0, 4)
    values = np.array([0.0, 1.0, NEG, 2.0])
    for sd in (0.0, 1.0):
        assert outcome(log_mgf_piecewise_linear, coords, values, 4, 0.0, sd) is ValidationError
        assert outcome(slow_log_mgf_piecewise_linear, coords, values, 4, 0.0, sd) is ValidationError


# interval endpoints: both tails, the centre, the infinities and far out,
# where log_ndtr is -inf at both ends and the tail rule meets -inf - -inf
ENDPOINTS = st.one_of(
    st.floats(-40.0, 40.0),
    st.sampled_from([NEG, POS, 0.0, -0.0, 1e-300, -1e-300, 1e155, -1e155]),
    st.floats(-1e3, 1e3),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(ENDPOINTS, ENDPOINTS), min_size=1, max_size=40))
def test_gauss_interval_is_the_scalar_rule_elementwise(pairs):
    a, b = (np.array(c) for c in zip(*pairs))
    scalar = [outcome(slow_log_gauss_interval, x, y) for x, y in pairs]
    got = outcome(log_gauss_interval, a, b)
    if any(w is RuntimeWarning for w in scalar):
        assert got is RuntimeWarning
        return
    assert got == (np.ndarray, b"".join(v for _, v in scalar))
    for (x, y), want in zip(pairs, scalar):
        assert outcome(log_gauss_interval, x, y) == want


# run starts: the centre, far out, and where (lo - mu) / sd overflows
RUN_STARTS = st.one_of(st.floats(-30.0, 30.0), st.sampled_from([NEG, -1e300, 1e300, 1e308]))
SDS = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.sampled_from([1e-10, 1e-300, 1e-310]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(RUN_STARTS, st.floats(0.0, 5.0)), max_size=12),
    st.one_of(st.floats(-20.0, 20.0), st.sampled_from([-1e308, 1e308])),
    st.one_of(SDS, SDS.map(np.float64)),
)
def test_gauss_mass_equals_the_interval_loop(runs, mu, sd):
    # an endpoint beyond the float range is infinite, with no warning, as
    # Python's float division gives it; the loop warned there for a numpy sd
    intervals = [(lo, lo + w) for lo, w in runs]
    assert outcome(log_gauss_mass, intervals, mu, sd) == outcome(
        slow_log_gauss_mass, intervals, mu, float(sd)
    )


def test_gauss_mass_of_a_tiny_spread_reads_infinite_endpoints():
    # (1 - 0) / 1e-310 overflows: the interval [1, 2] lies beyond the law's tail
    assert outcome(log_gauss_mass, [(1.0, 2.0)], 0.0, 1e-310) == (float, np.float64(NEG).tobytes())
    assert outcome(log_gauss_mass, [(-1.0, 1e300)], 0.0, 1e-10) == (float, np.float64(0.0).tobytes())


def test_piecewise_log_mgf_of_a_large_constant_row_is_that_constant():
    # scale * 1e307 leaves the float range, yet the log-moment of a
    # constant is that constant; a spread beyond the range is refused
    coords = np.linspace(-2.0, 2.0, 5)
    for value in (1e307, -1e307, 1.7e308):
        for floor in (None, 0.5):
            got = outcome(
                log_mgf_piecewise_linear, coords, np.full(5, value), 64, 0.0, 0.125, floor
            )
            assert got == (float, np.float64(value).tobytes())
    spread = np.array([-1e308, 0.0, 1.0, 1e308, 0.0])
    got = outcome(log_mgf_piecewise_linear, coords, spread, 64, 0.0, 0.125)
    assert got is ValidationError


def test_piecewise_log_mgf_refuses_a_steep_notch_without_a_warning():
    # shifted by its top, the row is [0, 0, -1e307, 0, 0]: the notch's
    # slopes of ±1e307 make its linear parts -inf and its quadratic parts
    # +inf, terms that no float holds, so the documented error is raised
    coords = np.linspace(-2.0, 2.0, 5)
    notch = np.array([1e307, 1e307, 0.0, 1e307, 1e307])
    got = outcome(log_mgf_piecewise_linear, coords, notch, 64, 0.0, 0.125)
    assert got is ValidationError


# -- erfcx, ndtr and log_ndtr against 50-digit mpmath ----------------------
#
# The error of a double d against the exact value v is |d - v| in units of
# the spacing of doubles at fl(v) (subnormal spacing below the normal range).
# Each function's bound holds on a fixed seeded sample of each region, and
# on the same sample it is no worse than scipy.special's error.

ERFCX_ULPS = 3
NDTR_ULPS = 5
LOG_NDTR_ULPS = 5


def ulps(got, exact):
    out = []
    for g, v in zip(np.asarray(got, dtype=np.float64).tolist(), exact):
        spacing = max(float(np.spacing(abs(float(v)))), 2.0**-1074)
        out.append(float(abs(mpmath.mpf(g) - v) / spacing))
    return np.array(out)


def exact_erfcx(t):
    t = mpmath.mpf(t)
    return mpmath.exp(t * t) * mpmath.erfc(t)


def exact_ndtr(x):
    return mpmath.erfc(-mpmath.mpf(x) / mpmath.sqrt(2)) / 2


def exact_log_ndtr(x):
    x = mpmath.mpf(x)
    if x > 0:
        return mpmath.log1p(-mpmath.erfc(x / mpmath.sqrt(2)) / 2)
    return mpmath.log(mpmath.erfc(-x / mpmath.sqrt(2)) / 2)


def t_sample(region):
    rng = np.random.default_rng(["[0, 1)", "[1, 10)", "[10, 50)", "[50, 1e8]"].index(region))
    if region == "[50, 1e8]":
        return np.exp(rng.uniform(np.log(50.0), np.log(1e8), 300))
    lo, hi = {"[0, 1)": (0.0, 1.0), "[1, 10)": (1.0, 10.0), "[10, 50)": (10.0, 50.0)}[region]
    return rng.uniform(lo, hi, 300)


def x_sample():
    """x from -1e4 to 40: both tails, the centre, and far down the lower tail."""
    rng = np.random.default_rng(40)
    return np.concatenate([
        rng.uniform(-40.0, 40.0, 400),
        rng.uniform(-5.0, 5.0, 200),
        -np.exp(rng.uniform(np.log(40.0), np.log(1e4), 100)),
    ])


@pytest.mark.parametrize("region", ["[0, 1)", "[1, 10)", "[10, 50)", "[50, 1e8]"])
def test_erfcx_within_its_bound_and_scipys_error(region):
    with mpmath.workdps(50):
        t = t_sample(region)
        exact = [exact_erfcx(v) for v in t]
        ours = ulps(erfcx(t), exact).max()
        theirs = ulps(scipy.special.erfcx(t), exact).max()
    assert ours <= ERFCX_ULPS
    assert ours <= theirs


@pytest.mark.parametrize("name", ["ndtr", "log_ndtr"])
def test_normal_tails_within_their_bounds_and_scipys_error(name):
    ours_fn, exact_fn, bound = {
        "ndtr": (ndtr, exact_ndtr, NDTR_ULPS),
        "log_ndtr": (log_ndtr, exact_log_ndtr, LOG_NDTR_ULPS),
    }[name]
    with mpmath.workdps(50):
        x = x_sample()
        exact = [exact_fn(v) for v in x]
        ours = ulps(ours_fn(x), exact).max()
        theirs = ulps(getattr(scipy.special, name)(x), exact).max()
    assert ours <= bound
    assert ours <= theirs


NEG0 = -0.0
SPECIAL = [
    # (x, erfcx(|x|), ndtr(x), log_ndtr(x)), with the sign of every zero
    (0.0, 1.0, 0.5, np.log(0.5)),
    (NEG0, 1.0, 0.5, np.log(0.5)),
    (POS, 0.0, 1.0, NEG0),
    (NEG, 0.0, 0.0, NEG),
    (40.0, None, 1.0, NEG0),
    (1e308, None, 1.0, NEG0),
    (-1e308, None, 0.0, NEG),
]


@pytest.mark.parametrize("x, e, nd, lnd", SPECIAL)
def test_normal_tails_at_zeros_and_infinities(x, e, nd, lnd):
    # no RuntimeWarning either: the test suite turns one into an error
    if e is not None:
        assert outcome(erfcx, abs(x)) == (np.float64, np.float64(e).tobytes())
    assert outcome(ndtr, x) == (np.float64, np.float64(nd).tobytes())
    assert outcome(log_ndtr, x) == (np.float64, np.float64(lnd).tobytes())


def test_normal_tails_of_nan_are_nan():
    for fn in (erfcx, ndtr, log_ndtr):
        assert np.isnan(fn(np.nan))
        got = fn(np.array([np.nan, 1.0, np.nan]))
        assert np.isnan(got[[0, 2]]).all() and np.isfinite(got[1])


def test_erfcx_refuses_a_negative_argument():
    with pytest.raises(ValidationError):
        erfcx(np.array([1.0, -1e-300]))


def test_scalar_zero_d_and_array_calls_give_the_same_bits():
    # scalars run as numpy scalar math and arrays as ufunc loops: the same
    # IEEE operations, and the same numpy exp, log and log1p loops
    x = np.concatenate([x_sample(), -x_sample(), [0.0, NEG0, POS, NEG, np.nan, 50.0 * 2**0.5]])
    for fn, arg in ((ndtr, x), (log_ndtr, x), (erfcx, np.abs(x))):
        whole = fn(arg)
        assert type(whole) is np.ndarray and whole.shape == arg.shape
        assert fn(arg.reshape(2, -1)).tobytes() == whole.tobytes()
        scalars = [fn(v) for v in arg.tolist()]
        assert all(type(v) is np.float64 for v in scalars)
        assert np.array(scalars).tobytes() == whole.tobytes()
        assert np.array([fn(np.array(v)) for v in arg]).tobytes() == whole.tobytes()
        assert fn(arg[:0]).shape == (0,)


def load_fit_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "fit_erfcx.py"
    spec = importlib.util.spec_from_file_location("fit_erfcx", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checked_in_erfcx_table_is_the_generators_fit():
    # a refit of every interval with 40-digit mpmath writes the same file
    fit = load_fit_tool()
    assert fit.render(fit.fit_table()) == Path(_erfcx_table.__file__).read_text()
    rows = np.frombuffer(bytes.fromhex(_erfcx_table.HEX), "<f8").reshape(-1, 8)
    assert rows.shape[0] == fit.INTERVALS - fit.FIRST
    for k in (fit.FIRST, 33, fit.INTERVALS - 1):
        assert [float(c) for c in fit.fit_interval(k)] == rows[k - fit.FIRST].tolist()
        assert fit.max_fit_error(k, samples=16) < 1e-19
