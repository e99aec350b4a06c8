import json

import numpy as np
import pytest

from maxplus import (
    EmpiricalForm,
    Grid,
    GridFn,
    Kernel,
    LogIntegralForm,
    MaxPlusForm,
    NEG_INF,
    POS_INF,
    SupFamilyForm,
    ValidationError,
)
from maxplus.serialize import (
    dumps,
    empirical_form_from_csv,
    form_from_json,
    form_to_json,
    grid_from_json,
    grid_to_json,
    gridfn_from_json,
    gridfn_to_json,
    kernel_from_json,
    kernel_to_json,
    num_to_json,
    values_from_json,
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
    obj = kernel_to_json(k)
    assert obj["rows"][0][1] == "-inf"
    back = kernel_from_json(obj, xg, yg)
    assert np.array_equal(back.table, k.table)
    bil = kernel_from_json({"type": "bilinear"}, xg, yg)
    assert bil.kind == "bilinear"
    with pytest.raises(ValidationError):
        kernel_from_json({"type": "mystery"}, xg, yg)


def test_form_roundtrips(rng):
    g = Grid.line(-1, 1, 5)
    forms = [
        MaxPlusForm(GridFn(g, rng.uniform(-2, 2, 5), tag="lsc")),
        LogIntegralForm(g, 0.25, rng.uniform(0.1, 1, 5)),
        EmpiricalForm(epsilon=0.5, samples=rng.uniform(-1, 1, 7), lookup_grid=g),
    ]
    forms.append(SupFamilyForm((forms[0], forms[1])))
    phi = GridFn(g, rng.uniform(-1, 1, 5))
    for F in forms:
        back = form_from_json(json.loads(dumps(form_to_json(F))))
        assert back.evaluate(phi) == F.evaluate(phi)
        assert back.join_defect_bound == F.join_defect_bound


def test_empirical_from_csv(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("# growth samples\n0.25\n-0.5\n1.0\n")
    F = empirical_form_from_csv(path, epsilon=0.5)
    assert np.array_equal(F.samples, [0.25, -0.5, 1.0])
    assert F.evaluate_affine(0.0) == 0.0


def test_dumps_deterministic():
    g = Grid.line(0, 1, 3)
    obj = gridfn_to_json(GridFn(g, [1.0, NEG_INF, 2.0]))
    assert dumps(obj) == dumps(json.loads(dumps(obj)))
