import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplus import (
    Grid,
    GridFn,
    Kernel,
    LogIntegralForm,
    MertonParams,
    NEG_INF,
    POS_INF,
    ValidationError,
    domain_masks,
    indicator,
    otimes,
)
from maxplus.grids import ball_extreme, node_mask, stencil_max, stencil_min

NEG = NEG_INF
POS = POS_INF

# dyadic scalars keep float addition exact, so the semiring laws hold on
# the nose instead of up to rounding
ext_real = st.one_of(
    st.just(NEG),
    st.just(POS),
    st.integers(-2**20, 2**20).map(lambda k: k / 8.0),
)


def test_neutral_and_absorbing_elements():
    assert np.maximum(NEG, 3.0) == 3.0
    assert otimes(NEG, POS) == NEG
    assert otimes(POS, NEG) == NEG
    assert otimes(2.0, 3.0) == 5.0
    assert otimes(POS, 5.0) == POS


@settings(max_examples=400, deadline=None)
@given(ext_real, ext_real, ext_real)
def test_semiring_laws(a, b, c):
    assert np.maximum(a, b) == np.maximum(b, a)
    assert otimes(a, b) == otimes(b, a)
    assert np.maximum(np.maximum(a, b), c) == np.maximum(a, np.maximum(b, c))
    assert otimes(otimes(a, b), c) == otimes(a, otimes(b, c))
    # distributivity and the identities
    assert otimes(a, np.maximum(b, c)) == np.maximum(otimes(a, b), otimes(a, c))
    assert np.maximum(a, NEG) == a
    assert otimes(a, 0.0) == a
    assert otimes(a, NEG) == NEG


def test_semiring_laws_bulk(rng):
    vals = np.concatenate([
        rng.integers(-64, 65, 10_000) / 8.0,
        np.full(200, NEG),
        np.full(200, POS),
    ])
    rng.shuffle(vals)
    a, b, c = vals[:3000], vals[3000:6000], vals[6000:9000]
    assert np.array_equal(otimes(otimes(a, b), c), otimes(a, otimes(b, c)))
    assert np.array_equal(otimes(a, np.maximum(b, c)), np.maximum(otimes(a, b), otimes(a, c)))


def test_nan_rejected():
    g = Grid.line(0, 1, 3)
    with pytest.raises(ValidationError):
        GridFn(g, [0.0, float("nan"), 1.0])


# inputs that numpy would read as numbers, though they are not: bools,
# numeric strings and objects
NOT_NUMBERS = {
    "str and bool": ["1", True],
    "bools": [True, False],
    "object": np.array([1.0, 2.0], dtype=object),
    "None": [1.0, None],
}


@pytest.mark.parametrize("values", list(NOT_NUMBERS))
def test_gridfn_values_must_be_numbers(values):
    with pytest.raises(ValidationError, match="values"):
        GridFn(Grid.line(0, 1, 2), NOT_NUMBERS[values])


@pytest.mark.parametrize("values", list(NOT_NUMBERS))
def test_kernel_table_must_be_numbers(values):
    g = Grid.line(0, 1, 2)
    row = NOT_NUMBERS[values]
    table = np.stack([row, row]) if isinstance(row, np.ndarray) else [row, row]
    with pytest.raises(ValidationError, match="kernel table"):
        Kernel.from_table(g, g, table)


@pytest.mark.parametrize("values", list(NOT_NUMBERS))
def test_log_integral_weights_must_be_numbers(values):
    with pytest.raises(ValidationError, match="weights"):
        LogIntegralForm(Grid.line(0, 1, 2), 0.5, NOT_NUMBERS[values])


def test_integer_and_float_values_convert():
    g = Grid.line(0, 1, 2)
    for values in ([1, 2], np.array([1, 2], dtype=np.uint8), np.float32([1, 2])):
        got = GridFn(g, values).values
        assert got.dtype == np.float64 and got.tolist() == [1.0, 2.0]


def test_grid_validation():
    with pytest.raises(ValidationError):
        Grid.line(1.0, 0.0, 5)
    with pytest.raises(ValidationError):
        Grid.line(0.0, 0.0, 2)
    Grid.line(0.0, 0.0, 1)  # degenerate single node allowed
    with pytest.raises(ValidationError):
        Grid.line(0.0, POS, 4)
    with pytest.raises(ValidationError):
        Grid.box((0, 0, 0), (1, 1, 1), (2, 2, 2))


@pytest.mark.parametrize(
    "n", [2.7, 2.0, np.float64(3.0), True, np.True_, "3"],
    ids=["fraction", "whole-float", "numpy-float", "bool", "numpy-bool", "string"],
)
def test_grid_node_counts_must_be_integers(n):
    # 2.7 once built 2 nodes, True 1 and "3" 3
    with pytest.raises(ValidationError, match="node counts are integers"):
        Grid.line(0.0, 1.0, n)
    with pytest.raises(ValidationError, match="node counts are integers"):
        Grid((0.0, 0.0), (1.0, 1.0), (3, n))
    with pytest.raises(ValidationError, match="node counts are integers"):
        Grid(0.0, 1.0, n)


def test_grid_node_counts_take_python_and_numpy_integers():
    for n in (3, np.int64(3), np.uint8(3), np.int32(3)):
        g = Grid.line(0.0, 1.0, n)
        assert g.n == (3,) and type(g.n[0]) is int
    assert Grid.box((0, 0), (1, 1), np.array([3, 4])).n == (3, 4)


@pytest.mark.parametrize(
    "lo, hi",
    [(False, True), ("0", "1.5"), (0.0, "1.5"), (np.False_, 1.0), (0.0, None), (0.0, 1j)],
    ids=["bools", "strings", "string-hi", "numpy-bool", "none", "complex"],
)
def test_grid_bounds_must_be_real_numbers(lo, hi):
    # float() once converted them: (False, True) built [0, 0.5, 1] and
    # ("0", "1.5") built [0, 0.75, 1.5]
    with pytest.raises(ValidationError, match="is a real number"):
        Grid.line(lo, hi, 3)
    with pytest.raises(ValidationError, match="is a real number"):
        Grid(lo, hi, 3)
    with pytest.raises(ValidationError, match="is a real number"):
        Grid.box((lo, 0.0), (hi, 1.0), (3, 2))


def test_grid_bounds_take_python_and_numpy_reals():
    for lo, hi in ((0, 2), (np.int64(0), np.float32(2.0)), (np.float64(0.0), 2.0)):
        g = Grid.line(lo, hi, 3)
        assert g.lo == (0.0,) and g.hi == (2.0,) and type(g.lo[0]) is float
        assert g.coords.tolist() == [0.0, 1.0, 2.0]


def test_grid_span_must_be_finite():
    # finite bounds whose span overflows: the step was inf and every
    # coordinate NaN (0 * inf), with a RuntimeWarning
    with pytest.raises(ValidationError, match="span"):
        Grid.line(-1e308, 1e308, 3)
    with pytest.raises(ValidationError, match="span"):
        Grid.box((0.0, -1e308), (1.0, 1e308), (2, 3))
    Grid.line(-8e307, 8e307, 3)  # the span is 1.6e308, a float


def test_coords_fixed_expression_order():
    g = Grid.line(-1.3, 2.7, 1001)
    h = (2.7 - (-1.3)) / 1000
    for i in (0, 1, 499, 1000):
        assert g.coords[i] == -1.3 + i * h


def test_coords_2d_row_major():
    g = Grid.box((0, 10), (1, 12), (2, 3))
    expect = [(0, 10), (0, 11), (0, 12), (1, 10), (1, 11), (1, 12)]
    assert np.array_equal(g.coords, np.array(expect, dtype=float))


def test_domain_masks_all_finite():
    g = Grid.line(0, 1, 5)
    m = domain_masks(GridFn(g, np.zeros(5)))
    for mask in (m.ldom, m.udom, m.dom, m.idom):
        assert mask.all()


def test_domain_masks_mixed():
    # hand-enumerated stencils of radius 1
    g = Grid.line(0, 4, 5)
    fn = GridFn(g, [POS, 1.0, 2.0, POS, NEG])
    m = domain_masks(fn)
    assert np.array_equal(m.ldom, [False, True, True, False, True])
    assert np.array_equal(m.udom, [True, True, True, True, False])
    assert np.array_equal(m.dom, [False, True, True, False, False])
    # every dom node has a +inf neighbour, so idom is empty
    assert not m.idom.any()


def test_domain_masks_monotone(rng):
    g = Grid.line(0, 1, 12)
    for _ in range(50):
        a = rng.uniform(-2, 2, 12)
        a[rng.random(12) < 0.2] = POS
        a[rng.random(12) < 0.2] = NEG
        bump = rng.uniform(0, 1, 12)
        b = otimes(a, bump)  # b >= a pointwise, infinities preserved
        ma, mb = domain_masks(GridFn(g, a)), domain_masks(GridFn(g, np.asarray(b)))
        assert (mb.ldom <= ma.ldom).all()
        assert (ma.udom <= mb.udom).all()


@pytest.mark.parametrize(
    "nodes",
    [[-1], [7], [5], [0, -5], np.ones(2, dtype=bool), np.ones(6, dtype=bool),
     [1.7], [1.0], np.array([2.0]), [True, 2], [2, np.True_], [[0], [True]]],
    ids=["negative", "past-the-end", "at-the-size", "most-negative", "short-mask",
         "long-mask", "fraction", "whole-float", "float-array", "bool-entry",
         "numpy-bool", "nested-bool"],
)
def test_node_sets_outside_the_grid_rejected(nodes):
    # a negative index once counted from the end; a wrong-sized mask or an
    # index past the end failed inside numpy; [1.7] marked node 1 and
    # [True, 2] nodes 1 and 2
    g = Grid.line(0, 1, 5)
    with pytest.raises(ValidationError):
        node_mask(g, nodes)
    with pytest.raises(ValidationError):
        indicator(g, nodes)


def test_node_sets_inside_the_grid():
    g = Grid.box((0, 0), (1, 1), (2, 3))
    assert not node_mask(g, []).any()
    assert np.array_equal(node_mask(g, [0, 5]), [True, False, False, False, False, True])
    for nodes in ((0, 5), [np.int64(0), 5], np.array([5, 0], dtype=np.uint8)):
        assert np.array_equal(node_mask(g, nodes), node_mask(g, [0, 5]))
    mask = np.eye(2, 3, dtype=bool)
    assert node_mask(g, mask).tolist() == mask.reshape(-1).tolist()
    assert np.array_equal(indicator(g, [4]).flat, [NEG, NEG, NEG, NEG, 0.0, NEG])
    assert (indicator(g, []).flat == NEG).all()


def test_gridfn_immutable():
    g = Grid.line(0, 1, 3)
    fn = GridFn(g, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fn.values[0] = 7.0


def test_2d_domain_masks():
    g = Grid.box((0, 0), (1, 1), (3, 3))
    vals = np.zeros((3, 3))
    vals[1, 1] = POS
    m = domain_masks(GridFn(g, vals))
    assert m.idom.sum() == 0  # every node neighbours the +inf centre
    vals2 = np.zeros((3, 3))
    vals2[0, 0] = POS
    m2 = domain_masks(GridFn(g, vals2))
    assert m2.idom.sum() == 5  # nodes not touching the corner


# -- the stencil against scipy.ndimage's edge-clamped filters ----------------

stencil_values = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.sampled_from([0.0, -0.0, NEG, POS]),
)


@st.composite
def stencil_arrays(draw):
    """1-D and 2-D float or bool arrays, single-node axes included."""
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=1, max_size=2)))
    size = int(np.prod(shape))
    if draw(st.booleans()):
        vals = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        return np.array(vals, dtype=bool).reshape(shape)
    vals = draw(st.lists(stencil_values, min_size=size, max_size=size))
    return np.array(vals, dtype=np.float64).reshape(shape)


@settings(max_examples=300, deadline=None)
@given(stencil_arrays())
def test_stencil_matches_ndimage_nearest(values):
    # the radius-1 ball is a 3-cell window per axis; compared with ==: the
    # sign ndimage gives a tie of +0 and -0 depends on the order of the cells
    from scipy import ndimage

    before = values.tobytes()
    size = 3
    for ours, ref, op in (
        (stencil_max, ndimage.maximum_filter, np.maximum),
        (stencil_min, ndimage.minimum_filter, np.minimum),
    ):
        want = ref(values, size=size, mode="nearest")
        got = ours(values)
        assert got.shape == want.shape and got.dtype == want.dtype and (got == want).all()
        # along the leading axes only, as the coercivity gain filters its
        # X axes and not the Y axis
        lead = range(values.ndim - 1)
        want = ref(values, size=(size,) * len(lead) + (1,), mode="nearest")
        got = ball_extreme(values, op, lead)
        assert got.dtype == values.dtype and (got == want).all()
    assert values.tobytes() == before  # the input is untouched


# ---------------------------------------------------------------------------
# constructors on extreme scalars
# ---------------------------------------------------------------------------

EXTREME_SCALARS = [
    float("nan"), POS_INF, NEG_INF, 0, -1, True, "1", 1e308, 5e-324,
]


def _log_integral(epsilon, weight, weights):
    return LogIntegralForm(Grid.line(0.0, 1.0, 3), epsilon, weights or [1.0, weight, 1.0])


# constructor and the keyword arguments it is built from; each case puts
# one scalar into one of them ("weights": into every weight)
CONSTRUCTORS = {
    "Grid": (Grid, dict(lo=0.0, hi=1.0, n=3)),
    "LogIntegralForm": (_log_integral, dict(epsilon=0.5, weight=1.0, weights=None)),
    "MertonParams": (MertonParams, dict(r=0.03, alpha=0.08, sigma=0.2, w0=1.0)),
}
CONSTRUCTOR_CASES = [
    (name, arg, value)
    for name, (_, base) in CONSTRUCTORS.items()
    for arg in base
    for value in EXTREME_SCALARS
]


@pytest.mark.parametrize(
    "name, arg, value", CONSTRUCTOR_CASES,
    ids=[f"{n}-{a}={v!r}" for n, a, v in CONSTRUCTOR_CASES],
)
def test_constructors_build_or_raise_validation_error(name, arg, value):
    # no other exception, and no RuntimeWarning (an error under the test
    # filter)
    build, base = CONSTRUCTORS[name]
    kwargs = {**base, arg: [value] * 3 if arg == "weights" else value}
    try:
        build(**kwargs)
    except ValidationError:
        pass
