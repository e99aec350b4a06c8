import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplus import (
    Grid,
    GridFn,
    Kernel,
    NEG_INF,
    POS_INF,
    ValidationError,
)
from maxplus.serialize import (
    dumps,
    grid_from_json,
    gridfn_from_json,
    gridfn_to_json,
    kernel_from_json,
    num_to_json,
    tokens,
    values_from_json,
    values_to_json,
)


def test_infinity_string_convention():
    assert num_to_json(POS_INF) == "+inf"
    assert num_to_json(NEG_INF) == "-inf"
    assert num_to_json(1.5) == 1.5
    assert values_from_json(["+inf", "-inf", 2]).tolist() == [POS_INF, NEG_INF, 2.0]
    with pytest.raises(ValidationError):
        values_from_json(["oops"])
    with pytest.raises(ValidationError):
        values_from_json([float("nan")])


def test_values_to_json_matches_the_per_value_rule():
    arr = np.array([1.5, -0.0, 0.0, POS_INF, NEG_INF, 1e-310, 2.0**70, -3.25])
    want = [num_to_json(v) for v in arr]
    got = values_to_json(arr)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]
    assert str(got) == str(want)  # signed zeros survive
    assert values_to_json(np.arange(3).reshape(3, 1)) == [0.0, 1.0, 2.0]
    assert values_to_json(np.empty(0)) == []
    with pytest.raises(ValidationError):
        values_to_json(np.array([0.0, np.nan, POS_INF]))


def test_gridfn_roundtrip_1d():
    g = Grid.line(-1.5, 2.5, 9)
    fn = GridFn(g, [0.0, 1.0, NEG_INF, 3.0, POS_INF, 5.0, 6.0, 7.0, 8.0])
    obj = gridfn_to_json(fn)
    assert obj["values"][2] == "-inf" and obj["values"][4] == "+inf"
    back = gridfn_from_json(json.loads(dumps(obj)))
    assert back.grid == g
    assert np.array_equal(back.values, fn.values)


def test_gridfn_roundtrip_2d_row_major():
    g = Grid.box((0, 0), (1, 2), (2, 3))
    fn = GridFn(g, np.arange(6.0).reshape(2, 3))
    back = gridfn_from_json(gridfn_to_json(fn))
    assert back.grid == g
    assert np.array_equal(back.values, fn.values)


def test_grid_unknown_fields_rejected():
    with pytest.raises(ValidationError):
        grid_from_json({"lo": 0, "hi": 1, "n": 3, "dim": 1, "pad": 2})
    with pytest.raises(ValidationError):
        grid_from_json({"lo": 0, "hi": 1})


def test_kernel_roundtrip():
    xg, yg = Grid.line(0, 1, 2), Grid.line(0, 1, 3)
    k = Kernel.from_table(xg, yg, [[0.0, NEG_INF, 1.0], [2.0, 3.0, NEG_INF]])
    obj = {"type": "table", "rows": [values_to_json(row) for row in k.table]}
    assert obj["rows"][0][1] == "-inf"
    back = kernel_from_json(json.loads(dumps(obj)), xg, yg)
    assert np.array_equal(back.table, k.table)
    bil = kernel_from_json({"type": "bilinear"}, xg, yg)
    assert bil.kind == "bilinear"
    with pytest.raises(ValidationError):
        kernel_from_json({"type": "mystery"}, xg, yg)


def _table_with(bad):
    """The 2 x 3 table of ``KERNEL_GRIDS`` with ``bad`` in its last row."""
    return [[0.0, "-inf", 1.0], [2.0, 3.0, bad]]


KERNEL_GRIDS = (Grid.line(0, 1, 2), Grid.line(0, 1, 3))


@pytest.mark.parametrize("rows, message", [
    (_table_with(True), "kernel rows: true is not a number"),
    (_table_with(None), "kernel rows: null is not a number"),
    (_table_with([2]), "kernel rows: [2] is not a number"),
    (_table_with({}), "kernel rows: {} is not a number"),
    (_table_with("1.5"), "unknown numeric literal '1.5'"),
    (_table_with("inf"), "unknown numeric literal 'inf'"),
    (_table_with("Infinity"), "unknown numeric literal 'Infinity'"),
    (_table_with(math.inf), "kernel rows: a number beyond the float range"),
    (_table_with(-math.inf), "kernel rows: a number beyond the float range"),
    (_table_with(10**400), "kernel rows: an integer beyond the float range"),
    (_table_with(math.nan), "NaN is not an extended real"),
    (_table_with("+inf"), "kernel entries must lie in R ∪ {-inf}"),
    ([[0.0, "-inf", 1.0], [2.0, 3.0]], "kernel: rows differ in length"),
    ([[0.0, "-inf", 1.0], 5], "kernel: rows is a JSON list of lists"),
    ("rows", "kernel: rows is a JSON list of lists"),
    ({"0": [0.0]}, "kernel: rows is a JSON list of lists"),
    ([[], []], "kernel table shape (2, 0) != (2, 3)"),
], ids=["true", "null", "list", "object", "numeric-string", "inf-string", "Infinity-string",
        "float-inf", "float-neg-inf", "huge-int", "nan", "plus-inf", "ragged",
        "non-list-row", "string-rows", "object-rows", "empty-rows"])
def test_kernel_table_entry_checks(rows, message):
    # the table is decoded row by row; each defect keeps the message the
    # flat decode of the whole table gave
    with pytest.raises(ValidationError) as err:
        kernel_from_json({"type": "table", "rows": rows}, *KERNEL_GRIDS)
    assert str(err.value) == message


def test_dumps_deterministic():
    g = Grid.line(0, 1, 3)
    obj = gridfn_to_json(GridFn(g, [1.0, NEG_INF, 2.0]))
    assert dumps(obj) == dumps(json.loads(dumps(obj)))


# ---------------------------------------------------------------------------
# dumps writes what json.dumps(indent=2) writes, through the C encoder
# ---------------------------------------------------------------------------

SCALARS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308,
                     math.inf, -math.inf, math.nan]),
    st.integers(),
    st.sampled_from([2**63, -(2**63) - 1, 10**30]),
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from([", ", "\n", '"', "'", "\\", "é", "\u2028", "a, b\n\"c\""]),
)
KEYS = st.one_of(st.text(), st.sampled_from(["", ", ", "\n", '"q"', "ключ", "\x00", "é"]))
JSON_TREES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.dictionaries(KEYS, inner, max_size=6),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(JSON_TREES)
def test_dumps_is_json_dumps_with_indent_2(obj):
    assert dumps(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_dumps_of_empty_and_nested_containers():
    for obj in ([], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[1.5, "x"], [], [[None]]],
                {"b": [1, 2], "a": {"c": (True, -0.0)}}, 1.5, "s", None):
        assert dumps(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_tokens_render_each_scalar_once():
    vals = [1.5, -0.0, 5e-324, "+inf", "-inf", 2**70, True, None, "a,\nb"]
    toks = tokens(vals)
    assert list(toks) == [json.dumps(v) for v in vals]
    # dumps writes Tokens as the list they render
    for obj, plain in ((toks, vals), ({"v": toks, "w": [toks, 1]}, {"v": vals, "w": [vals, 1]}),
                       (tokens([]), [])):
        assert dumps(obj) == json.dumps(plain, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("token", ["1e400", "-1e400", "1e999"])
def test_values_from_json_rejects_numbers_beyond_the_float_range(token):
    items = json.loads(f'[0.5, "+inf", {token}]')
    with pytest.raises(ValidationError, match="a number beyond the float range"):
        values_from_json(items)
    with pytest.raises(ValidationError, match="a number beyond the float range"):
        values_from_json([float(token)])
