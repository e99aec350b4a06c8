import json
import time
from pathlib import Path

import numpy as np
import pytest

from maxplus.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run(args):
    return main([str(a) for a in args])


def test_conjugate_scenario(tmp_path):
    rc = run(["conjugate", "--config", SCENARIOS / "conjugate_quadratic.json",
              "--out-dir", tmp_path, "--summary"])
    assert rc == 0
    out = json.loads((tmp_path / "conjugate_out.json").read_text())
    vals = np.array(out["values"], dtype=float)
    coords = np.linspace(-1, 1, 101)
    assert np.abs(vals - coords**2 / 2).max() < 1e-3


def test_covering_scenario(tmp_path, capsys):
    rc = run(["covering", "--config", SCENARIOS / "covering_identity.json",
              "--out-dir", tmp_path])
    assert rc == 0
    out = json.loads((tmp_path / "covering_out.json").read_text())
    assert out["existence"] == "YES"
    assert out["uniqueness"] == "UNIQUE"
    assert out["certificate"]["passed"] is True
    assert out["certificate"]["candidate"]["values"] == [-2.0, -5.0, 1.0]
    table = capsys.readouterr().out
    assert "y-node" in table and "piece" in table


def test_gaussian_ldp_scenario(tmp_path):
    t0 = time.perf_counter()
    rc = run(["ldp", "--config", SCENARIOS / "gaussian_ldp.json",
              "--out-dir", tmp_path, "--summary"])
    assert rc == 0
    assert time.perf_counter() - t0 < 60.0
    out = json.loads((tmp_path / "gaussian_ldp_out.json").read_text())
    assert out["verdict"] == "FULL_LDP"
    csv_lines = (tmp_path / "gaussian_ldp_out.csv").read_text().splitlines()
    assert csv_lines[0] == "y,rate_lower,in_pinned"
    assert len(csv_lines) == 102


def test_merton_scenario_target_column(tmp_path):
    t0 = time.perf_counter()
    rc = run(["merton", "--config", SCENARIOS / "merton_tailrate.json",
              "--out-dir", tmp_path, "--summary"])
    assert rc == 0
    assert time.perf_counter() - t0 < 60.0
    lines = (tmp_path / "merton_tailrate.csv").read_text().splitlines()
    head = lines[0].split(",")
    assert head == ["T", "xi", "exact_value", "mc_value", "mc_se",
                    "sup_over_xi", "target_minus_gstar"]
    last = lines[-1].split(",")
    assert abs(float(last[-1]) + 0.0077086) < 1e-7


def test_merton_via_flags(tmp_path):
    rc = run(["merton", "--out-dir", tmp_path, "--r", 0.05, "--alpha", 0.10,
              "--sigma", 0.20, "--c", 0.12, "--T", 25, "--paths", 1000,
              "--xi-min", 0.5, "--xi-max", 3.0, "--xi-step", 0.5,
              "--out", "flags.csv"])
    assert rc == 0
    assert (tmp_path / "flags.csv").exists()


def test_merton_ldp_scenario(tmp_path):
    obj = {
        "kind": "ldp",
        "x_grid": {"lo": 0.0, "hi": 1.2, "n": 61, "dim": 1},
        "y_grid": {"lo": 0.0, "hi": 1.0, "n": 51, "dim": 1},
        "kernel": {"type": "bilinear"},
        "sequence": {
            "type": "merton",
            "params": {"r": 0.05, "alpha": 0.10, "sigma": 0.20},
            "horizons": [200, 400, 800],
            "xi_min": 0.0, "xi_max": 40.0, "xi_step": 0.1,
            "truncate_at": 0.0,
        },
        "mode": "limit-asserted",
        "closed_below": True,
        "x_closed_below": True,
        "sup_edge_to_inf": True,
        "out_json": "m.json",
        "out_csv": "m.csv",
    }
    cfg = tmp_path / "mldp.json"
    cfg.write_text(json.dumps(obj))
    rc = run(["ldp", "--config", cfg, "--out-dir", tmp_path, "--summary"])
    assert rc == 0
    out = json.loads((tmp_path / "m.json").read_text())
    assert out["verdict"] in ("BOUNDS_ONLY", "FULL_LDP")
    assert out["assumptions"]["tightness_holds"] is True


def test_corrupt_json_exits_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "merton", ')
    assert run(["merton", "--config", bad, "--out-dir", tmp_path]) == 3


def test_unknown_field_rejected(tmp_path):
    obj = json.loads((SCENARIOS / "covering_identity.json").read_text())
    obj["surprise"] = 1
    bad = tmp_path / "extra.json"
    bad.write_text(json.dumps(obj))
    assert run(["covering", "--config", bad, "--out-dir", tmp_path]) == 3


def test_kind_mismatch_rejected(tmp_path):
    assert run(["ldp", "--config", SCENARIOS / "merton_tailrate.json",
                "--out-dir", tmp_path]) == 3


@pytest.mark.parametrize("top", [[1, 2], "merton"], ids=["array", "string"])
@pytest.mark.parametrize("command", ["conjugate", "covering", "ldp", "merton"])
def test_non_object_scenario_exits_3(tmp_path, capsys, command, top):
    cfg = tmp_path / "top.json"
    cfg.write_text(json.dumps(top))
    assert run([command, "--config", cfg, "--out-dir", tmp_path]) == 3
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("value", [[1], "gaussian_mean"], ids=["array", "string"])
def test_non_object_ldp_sequence_exits_3(tmp_path, capsys, value):
    obj = json.loads((SCENARIOS / "gaussian_ldp.json").read_text())
    obj["sequence"] = value
    cfg = tmp_path / "seq.json"
    cfg.write_text(json.dumps(obj))
    assert run(["ldp", "--config", cfg, "--out-dir", tmp_path]) == 3
    assert "sequence is a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("value", [[1], "r=0.05"], ids=["array", "string"])
def test_non_object_merton_params_exits_3(tmp_path, capsys, value):
    obj = json.loads((SCENARIOS / "gaussian_ldp.json").read_text())
    obj["sequence"] = {
        "type": "merton", "params": value, "horizons": [200, 400],
        "xi_min": 0.0, "xi_max": 1.0, "xi_step": 0.5,
    }
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps(obj))
    assert run(["ldp", "--config", cfg, "--out-dir", tmp_path]) == 3
    assert "params is a JSON object" in capsys.readouterr().err


def test_removed_flags_rejected(tmp_path):
    cfg = SCENARIOS / "conjugate_quadratic.json"
    with pytest.raises(SystemExit):
        run(["--threads", 2, "conjugate", "--config", cfg, "--out-dir", tmp_path])
    for command, scenario in (("conjugate", cfg),
                              ("covering", SCENARIOS / "covering_identity.json"),
                              ("ldp", SCENARIOS / "gaussian_ldp.json")):
        with pytest.raises(SystemExit):
            run([command, "--seed", 1, "--config", scenario, "--out-dir", tmp_path])
    assert not any(tmp_path.iterdir())


def test_merton_seed_flag_sets_the_sample(tmp_path):
    def csv(seed, out):
        rc = run(["merton", "--out-dir", tmp_path, "--r", 0.05, "--alpha", 0.10,
                  "--sigma", 0.20, "--c", 0.12, "--T", 25, "--paths", 300,
                  "--xi-min", 0.5, "--xi-max", 1.5, "--xi-step", 0.5,
                  "--seed", seed, "--out", out])
        assert rc == 0
        return (tmp_path / out).read_bytes()

    one = csv(1, "one.csv")
    assert csv(1, "again.csv") == one
    assert csv(2, "two.csv") != one


def test_missing_flags_rejected(tmp_path):
    assert run(["merton", "--out-dir", tmp_path]) == 3


def test_merton_truncation_field_rejected(tmp_path, capsys):
    obj = json.loads((SCENARIOS / "merton_tailrate.json").read_text())
    obj["a"] = 5.0
    cfg = tmp_path / "a.json"
    cfg.write_text(json.dumps(obj))
    assert run(["merton", "--config", cfg, "--out-dir", tmp_path]) == 3
    assert "truncation floor" in capsys.readouterr().err
    assert not (tmp_path / "merton_tailrate.csv").exists()


def test_merton_truncation_flag_rejected(tmp_path, capsys):
    rc = run(["merton", "--out-dir", tmp_path, "--r", 0.05, "--alpha", 0.10,
              "--sigma", 0.20, "--c", 0.12, "--T", 25, "--paths", 100,
              "--xi-min", 0.5, "--xi-max", 1.0, "--xi-step", 0.5, "--a", 5.0])
    assert rc == 3
    assert "truncation floor" in capsys.readouterr().err
    assert not (tmp_path / "merton_tailrate.csv").exists()


def test_uncovered_scenario_exits_2(tmp_path):
    obj = json.loads((SCENARIOS / "covering_identity.json").read_text())
    obj["g"]["values"] = ["+inf", 5.0, -1.0]
    obj["xprime"] = [0, 1, 2]
    cfg = tmp_path / "no.json"
    cfg.write_text(json.dumps(obj))
    assert run(["covering", "--config", cfg, "--out-dir", tmp_path]) == 2


def test_seeded_rerun_byte_identical(tmp_path):
    obj = json.loads((SCENARIOS / "merton_tailrate.json").read_text())
    obj["T"] = [25]
    obj["paths"] = 2000
    obj["xi_step"] = 0.5
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps(obj))
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run(["merton", "--config", cfg, "--out-dir", d1]) == 0
    assert run(["merton", "--config", cfg, "--out-dir", d2]) == 0
    assert (d1 / "merton_tailrate.csv").read_bytes() == (d2 / "merton_tailrate.csv").read_bytes()

    rc = run(["ldp", "--config", SCENARIOS / "gaussian_ldp.json", "--out-dir", d1])
    rc2 = run(["ldp", "--config", SCENARIOS / "gaussian_ldp.json", "--out-dir", d2])
    assert rc == rc2 == 0
    for name in ("gaussian_ldp_out.json", "gaussian_ldp_out.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [True]])
def test_conjugate_fast_must_be_boolean(tmp_path, capsys, value):
    obj = json.loads((SCENARIOS / "conjugate_quadratic.json").read_text())
    obj["fast"] = value
    cfg = tmp_path / "fast.json"
    cfg.write_text(json.dumps(obj))
    assert run(["conjugate", "--config", cfg, "--out-dir", tmp_path]) == 3
    assert "fast is a JSON boolean" in capsys.readouterr().err


def test_conjugate_2d_box_matches_dense_oracle(tmp_path):
    from maxplus import Grid, GridFn
    from maxplus.serialize import dumps, gridfn_to_json
    from oracles import dense_bilinear_2d

    xbox = {"dim": 2, "lo": [-1.5, -1.0], "hi": [1.5, 1.0], "n": [31, 21]}
    ybox = {"dim": 2, "lo": [-1.0, -1.0], "hi": [1.0, 1.0], "n": [17, 25]}
    yg = Grid.box(ybox["lo"], ybox["hi"], ybox["n"])
    xg = Grid.box(xbox["lo"], xbox["hi"], xbox["n"])
    y = yg.coords
    f = np.round((y[:, 0] ** 2 + 2 * y[:, 1] ** 2) / 2, 2)
    values = [("+inf" if abs(a) > 0.9 and abs(b) > 0.9 else v)
              for (a, b), v in zip(y.tolist(), f.tolist())]
    cfg = tmp_path / "box.json"
    cfg.write_text(json.dumps({
        "kind": "conjugate", "x_grid": xbox, "y_grid": ybox,
        "kernel": {"type": "bilinear"},
        "f": {"grid": ybox, "values": values}, "out": "box_out.json",
    }))
    assert run(["conjugate", "--config", cfg, "--out-dir", tmp_path]) == 0
    neg_f = np.array([-np.inf if v == "+inf" else -v for v in values])
    x = xg.coords
    want = dense_bilinear_2d(
        x[:, 0].copy(), x[:, 1].copy(), y[:, 0].copy(), y[:, 1].copy(), neg_f
    )
    expected = dumps(gridfn_to_json(GridFn(xg, want.reshape(xg.shape))))
    assert (tmp_path / "box_out.json").read_text() == expected


@pytest.mark.parametrize("bad", [None, [1.0], True, 10**400, "1.5", "inf"],
                         ids=["null", "list", "true", "huge-int", "numeric-string", "inf"])
@pytest.mark.parametrize("where", ["f", "table"])
def test_malformed_numbers_exit_3(tmp_path, capsys, bad, where):
    obj = json.loads((SCENARIOS / "covering_identity.json").read_text())
    if where == "f":
        obj["g"]["values"][1] = bad
    else:
        obj["kernel"]["rows"][0][1] = bad
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(obj))
    assert run(["covering", "--config", cfg, "--out-dir", tmp_path]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("rows", [[[0.0, "-inf"], [1.0]], [[0.0, "-inf"], 5], "rows", [[[0.0]]]],
                         ids=["ragged", "non-list-row", "string", "nested"])
def test_malformed_table_rows_exit_3(tmp_path, capsys, rows):
    obj = json.loads((SCENARIOS / "covering_identity.json").read_text())
    obj["kernel"]["rows"] = rows
    cfg = tmp_path / "rows.json"
    cfg.write_text(json.dumps(obj))
    assert run(["covering", "--config", cfg, "--out-dir", tmp_path]) == 3
    assert "error:" in capsys.readouterr().err
