import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplus import (
    Grid,
    GridFn,
    NEG_INF,
    POS_INF,
    ValidationError,
    domain_masks,
    otimes,
)
from maxplus.grids import ball_extreme, stencil_max, stencil_min

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
    m = domain_masks(GridFn(g, np.zeros(5)), 1)
    for mask in (m.ldom, m.udom, m.dom, m.idom):
        assert mask.all()


def test_domain_masks_mixed():
    # hand-enumerated stencils of radius 1
    g = Grid.line(0, 4, 5)
    fn = GridFn(g, [POS, 1.0, 2.0, POS, NEG])
    m = domain_masks(fn, 1)
    assert np.array_equal(m.ldom, [False, True, True, False, True])
    assert np.array_equal(m.udom, [True, True, True, True, False])
    assert np.array_equal(m.dom, [False, True, True, False, False])
    # every dom node has a +inf neighbour, so idom is empty
    assert not m.idom.any()
    # radius 0 collapses idom onto dom
    m0 = domain_masks(fn, 0)
    assert np.array_equal(m0.idom, m0.dom)


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


def test_gridfn_immutable():
    g = Grid.line(0, 1, 3)
    fn = GridFn(g, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fn.values[0] = 7.0


def test_2d_domain_masks():
    g = Grid.box((0, 0), (1, 1), (3, 3))
    vals = np.zeros((3, 3))
    vals[1, 1] = POS
    m = domain_masks(GridFn(g, vals), 1)
    assert m.idom.sum() == 0  # every node neighbours the +inf centre
    vals2 = np.zeros((3, 3))
    vals2[0, 0] = POS
    m2 = domain_masks(GridFn(g, vals2), 1)
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
@given(stencil_arrays(), st.integers(0, 3))
def test_stencil_matches_ndimage_nearest(values, radius):
    # compared with ==: the sign ndimage gives a tie of +0 and -0 depends
    # on the order of the cells
    from scipy import ndimage

    before = values.tobytes()
    size = 2 * radius + 1
    for ours, ref, op in (
        (stencil_max, ndimage.maximum_filter, np.maximum),
        (stencil_min, ndimage.minimum_filter, np.minimum),
    ):
        want = ref(values, size=size, mode="nearest")
        got = ours(values, radius)
        assert got.shape == want.shape and (got == want).all()
        if radius:
            assert got.dtype == want.dtype
        # along the leading axes only, as the coercivity gain filters its
        # X axes and not the Y axis
        lead = range(values.ndim - 1)
        want = ref(values, size=(size,) * len(lead) + (1,), mode="nearest")
        got = ball_extreme(values, radius, op, lead)
        assert got.dtype == values.dtype and (got == want).all()
    assert values.tobytes() == before  # the input is untouched

