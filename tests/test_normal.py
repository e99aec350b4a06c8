"""The array Gaussian helpers against their per-interval scalar oracles."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplus._normal import log_gauss_interval, log_gauss_mass, log_mgf_piecewise_linear
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
