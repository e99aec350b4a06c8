import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import maxplus.cli
import maxplus.convergence
import maxplus.merton
from maxplus import GridFn
from maxplus.cli import _xi_grid, main
from maxplus.conjugacy import SubdiffMap
from maxplus.errors import ValidationError
from oracles import slow_log_mgf_piecewise_linear

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


def test_no_run_builds_the_dense_attainment_matrix(tmp_path, monkeypatch, capsys):
    # the library reads the attaining pairs; ``SubdiffMap.attain`` is the
    # dense |X|x|Y| view for oracles and probes
    def refuse(self):
        raise AssertionError("SubdiffMap.attain read")

    monkeypatch.setattr(SubdiffMap, "attain", property(refuse))
    assert run(["ldp", "--config", SCENARIOS / "gaussian_ldp.json", "--out-dir", tmp_path]) == 0
    assert run(["covering", "--config", SCENARIOS / "covering_identity.json",
                "--out-dir", tmp_path]) == 0
    assert "piece (x-nodes)" in capsys.readouterr().out


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


def test_merton_scenario_samples_serially_within_3_se(tmp_path):
    # the checked-in tail-rate scenario, in a fresh process: no thread is
    # started, no executor module is imported, and the Monte Carlo cells
    # agree with their exact values
    import ast

    import maxplus

    for path in Path(maxplus.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names]
                if isinstance(node, ast.ImportFrom):
                    names.append(node.module or "")
                assert not any(n.split(".")[0] in ("concurrent", "threading", "multiprocessing")
                               for n in names), (path.name, names)

    code = "\n".join([
        "import json, sys, threading",
        "started = []",
        "start = threading.Thread.start",
        "def recording_start(self):",
        "    started.append(self.name)",
        "    start(self)",
        "threading.Thread.start = recording_start",
        "import maxplus.cli",
        "before = threading.active_count()",
        "argv = ['merton', '--config', sys.argv[1], '--out-dir', sys.argv[2]]",
        "rc = maxplus.cli.main(argv)",
        "print(json.dumps({'rc': rc, 'started': started,",
        "                  'threads': [before, threading.active_count()],",
        "                  'futures': 'concurrent.futures' in sys.modules}))",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(maxplus.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SCENARIOS / "merton_tailrate.json"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["rc"] == 0
    assert got["started"] == []
    assert got["threads"][0] == got["threads"][1]
    assert not got["futures"]
    conclusive = outside = 0
    for line in (tmp_path / "merton_tailrate.csv").read_text().splitlines()[1:]:
        _, _, exact, mc, se, _, _ = line.split(",")
        if mc:
            conclusive += 1
            outside += abs(float(mc) - float(exact)) > 3.0 * float(se)
    assert conclusive > 0
    assert outside <= 0.02 * conclusive, (outside, conclusive)


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


def small_merton_ldp(**fields):
    """A merton ldp scenario on a 13 x 11 node window, 9 fractions, 3 horizons."""
    obj = {
        "kind": "ldp",
        "x_grid": {"lo": 0.0, "hi": 1.2, "n": 13, "dim": 1},
        "y_grid": {"lo": 0.0, "hi": 1.0, "n": 11, "dim": 1},
        "kernel": {"type": "bilinear"},
        "sequence": {
            "type": "merton",
            "params": {"r": 0.05, "alpha": 0.10, "sigma": 0.20},
            "horizons": [200, 400, 800],
            "xi_min": 0.0, "xi_max": 4.0, "xi_step": 0.5,
        },
        "closed_below": True,
        "x_closed_below": True,
    }
    obj.update(fields)
    return obj


def run_ldp(tmp_path, obj, name):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(dict(obj, out_json=f"{name}_out.json", out_csv=f"{name}_out.csv")))
    return run(["ldp", "--config", cfg, "--out-dir", tmp_path])


@pytest.mark.parametrize("family, members", [
    ("gaussian_mean", 1), ("merton", 1), ("merton", 2), ("merton", 3),
])
def test_sup_edge_to_inf_needs_3_members(tmp_path, capsys, family, members):
    # a family of 1 or 2 members has no member between its edges; the rule
    # was once dropped there, and the run wrote the bytes of a run without it
    if family == "gaussian_mean":
        obj = json.loads((SCENARIOS / "gaussian_ldp.json").read_text())
        obj["sup_edge_to_inf"] = True
    else:
        obj = small_merton_ldp(sup_edge_to_inf=True)
        obj["sequence"].update(xi_min=0.5, xi_max=0.5 * members)
    rc = run_ldp(tmp_path, obj, "edge")
    if members >= 3:  # runs to a verdict
        assert rc in (0, 2) and (tmp_path / "edge_out.json").exists()
        return
    assert rc == 3
    err = capsys.readouterr().err
    assert f"sup_edge_to_inf needs a family of at least 3 members, got {members}" in err
    assert not (tmp_path / "edge_out.json").exists()


def _csv_number(field):
    try:
        return math.isfinite(float(field))
    except ValueError:
        return False


@pytest.mark.parametrize("scenario", ["gaussian", "merton"])
def test_ldp_csv_fields_are_plain_numbers(tmp_path, scenario):
    if scenario == "gaussian":
        obj = json.loads((SCENARIOS / "gaussian_ldp.json").read_text())
    else:
        obj = small_merton_ldp(sup_edge_to_inf=True)
    assert run_ldp(tmp_path, obj, scenario) == 0
    lines = (tmp_path / f"{scenario}_out.csv").read_text().splitlines()
    assert lines[0] == "y,rate_lower,in_pinned"
    assert len(lines) == obj["y_grid"]["n"] + 1
    for line in lines[1:]:
        y, rate, pinned = line.split(",")
        assert _csv_number(y), line
        assert _csv_number(rate) or rate in ("+inf", "-inf"), line
        assert pinned in ("0", "1"), line


@pytest.mark.parametrize("truncate_at", [None, 0.0], ids=["plain", "truncated"])
def test_merton_ldp_runs_on_its_table_kernel(tmp_path, truncate_at):
    obj = small_merton_ldp()
    if truncate_at is not None:
        obj["sequence"]["truncate_at"] = truncate_at
    x = np.linspace(0.0, 1.2, 13)
    y = np.linspace(0.0, 1.0, 11)
    table = dict(obj, kernel={"type": "table", "rows": np.multiply.outer(x, y).tolist()})
    zero = dict(obj, kernel={"type": "table", "rows": np.zeros((13, 11)).tolist()})
    codes = [run_ldp(tmp_path, o, name)
             for o, name in ((obj, "bilinear"), (table, "table"), (zero, "zero"))]
    outs = [json.loads((tmp_path / f"{name}_out.json").read_text())
            for name in ("bilinear", "table", "zero")]
    assert codes[0] == codes[1]
    assert outs[0]["verdict"] == outs[1]["verdict"]
    lm = [np.array(o["log_moment"]["values"], dtype=float) for o in outs]
    fin = np.isfinite(lm[0])
    assert fin.any()
    assert np.array_equal(fin, np.isfinite(lm[1]))
    assert np.abs(lm[1][fin] - lm[0][fin]).max() <= 1e-12
    # b = 0 makes every log-moment value 0: the kernel is read, not replaced
    assert np.abs(lm[0][fin]).max() > 1e-2
    assert np.abs(lm[2]).max() <= 1e-12


def test_merton_ldp_table_with_neg_inf_exits_3(tmp_path, capsys):
    rows = np.zeros((13, 11)).tolist()
    rows[4][6] = "-inf"
    obj = small_merton_ldp(kernel={"type": "table", "rows": rows})
    assert run_ldp(tmp_path, obj, "neginf") == 3
    assert "needs finite values" in capsys.readouterr().err
    assert not (tmp_path / "neginf_out.json").exists()


def table_kernel_ldp(sequence):
    """A table-kernel ldp scenario: 201 Gaussian nodes, or the truncated 13 x 11 Merton one."""
    if sequence == "merton":
        obj = small_merton_ldp()
        obj["sequence"]["truncate_at"] = 0.0
        x, y = np.linspace(0.0, 1.2, 13), np.linspace(0.0, 1.0, 11)
    else:
        obj = json.loads((SCENARIOS / "gaussian_ldp.json").read_text())
        for axis in ("x_grid", "y_grid"):
            obj[axis] = dict(obj[axis], n=201)
        x = y = np.linspace(-2.0, 2.0, 201)
    obj["kernel"] = {"type": "table", "rows": np.multiply.outer(x, y).tolist()}
    return obj, x.size


@pytest.mark.parametrize("sequence", ["gaussian_mean", "merton"])
def test_table_kernel_ldp_writes_the_segment_loops_bytes(tmp_path, monkeypatch, sequence):
    obj, nx = table_kernel_ldp(sequence)
    rc = run_ldp(tmp_path, obj, "array")
    calls = []

    def loop(coords, values, laws):
        calls.extend(laws)
        return [slow_log_mgf_piecewise_linear(coords, values, *law) for law in laws]

    for module in (maxplus.convergence, maxplus.merton):
        monkeypatch.setattr(module, "log_mgf_piecewise_linear_many", loop)
    assert run_ldp(tmp_path, obj, "loop") == rc
    # every (form, index, x-node) value went through the loop
    forms = 9 * 3 if sequence == "merton" else 4
    assert len(calls) == forms * nx
    for suffix in ("json", "csv"):
        array = (tmp_path / f"array_out.{suffix}").read_bytes()
        assert array == (tmp_path / f"loop_out.{suffix}").read_bytes()


def test_merton_ldp_on_2d_grids_exits_3(tmp_path, capsys):
    box = {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "n": [3, 3], "dim": 2}
    obj = small_merton_ldp(x_grid=box, y_grid=box)
    assert run_ldp(tmp_path, obj, "box") == 3
    assert "a Merton sequence lives on a 1-D grid" in capsys.readouterr().err
    assert not (tmp_path / "box_out.json").exists()


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
    # the merton parameters come from the scenario file alone
    for flag in ("--a", "--r"):
        with pytest.raises(SystemExit):
            run(["merton", flag, 5.0, "--config", SCENARIOS / "merton_tailrate.json",
                 "--out-dir", tmp_path])
    assert not any(tmp_path.iterdir())


def test_merton_seed_flag_sets_the_sample(tmp_path):
    obj = json.loads((SCENARIOS / "merton_tailrate.json").read_text())
    obj.update(T=[25], paths=300, xi_min=0.5, xi_max=1.5, xi_step=0.5)
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps(obj))

    def csv(seed, out_dir):
        rc = run(["merton", "--config", cfg, "--out-dir", tmp_path / out_dir,
                  "--seed", seed])
        assert rc == 0
        return (tmp_path / out_dir / "merton_tailrate.csv").read_bytes()

    one = csv(1, "one")
    assert csv(1, "again") == one
    assert csv(2, "two") != one


def test_missing_flags_rejected(tmp_path):
    for command in ("conjugate", "covering", "ldp", "merton"):
        with pytest.raises(SystemExit):
            run([command, "--out-dir", tmp_path])
    assert not any(tmp_path.iterdir())


def test_merton_truncation_field_rejected(tmp_path, capsys):
    obj = json.loads((SCENARIOS / "merton_tailrate.json").read_text())
    obj["a"] = 5.0
    cfg = tmp_path / "a.json"
    cfg.write_text(json.dumps(obj))
    assert run(["merton", "--config", cfg, "--out-dir", tmp_path]) == 3
    assert "merton scenario: unknown fields ['a']" in capsys.readouterr().err
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


@pytest.mark.parametrize("value", [5, None, ["out.json"]])
def test_conjugate_out_must_be_string(tmp_path, capsys, value):
    obj = json.loads((SCENARIOS / "conjugate_quadratic.json").read_text())
    obj["out"] = value
    cfg = tmp_path / "out.json"
    cfg.write_text(json.dumps(obj))
    assert run(["conjugate", "--config", cfg, "--out-dir", tmp_path]) == 3
    assert "out is a JSON string" in capsys.readouterr().err


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


def test_core_import_and_gaussian_ldp_load_no_scipy(tmp_path):
    # the CLI, the kernels and a Gaussian ldp need numpy only, and leave
    # concurrent.futures (and with it logging) unloaded
    import maxplus

    code = "\n".join([
        "import sys",
        "import maxplus.cli",
        "def scipy_modules():",
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
        "assert not scipy_modules(), scipy_modules()",
        "assert 'concurrent.futures' not in sys.modules",
        "argv = ['ldp', '--config', sys.argv[1], '--out-dir', sys.argv[2]]",
        "assert maxplus.cli.main(argv) == 0",
        "assert not scipy_modules(), scipy_modules()",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(maxplus.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SCENARIOS / "gaussian_ldp.json"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "gaussian_ldp_out.json").exists()


def clipped_merton_table_ldp():
    """A clipped Merton ldp on a small table kernel: it reaches the Gaussian
    interval masses and both normal tails."""
    x, y = np.linspace(0.0, 1.2, 13), np.linspace(0.0, 2.0, 11)
    return {
        "kind": "ldp",
        "x_grid": {"dim": 1, "lo": 0.0, "hi": 1.2, "n": 13},
        "y_grid": {"dim": 1, "lo": 0.0, "hi": 2.0, "n": 11},
        "kernel": {"type": "table", "rows": np.multiply.outer(x, y).tolist()},
        "sequence": {
            "type": "merton", "params": {"r": 0.05, "alpha": 0.1, "sigma": 0.2},
            "horizons": [400, 800, 1600], "xi_min": 0.0, "xi_max": 2.0, "xi_step": 0.5,
            "truncate_at": 0.0,
        },
        "closed_below": True, "x_closed_below": True, "sup_edge_to_inf": True,
        "out_json": "clipped_out.json", "out_csv": "clipped_out.csv",
    }


def test_every_run_goes_without_scipy(tmp_path):
    # with scipy refused by a meta-path finder, the CLI, the four checked-in
    # scenarios and a clipped Merton ldp exit as they do here and write the
    # same bytes, and no scipy module gets loaded
    import maxplus

    cfg = tmp_path / "clipped.json"
    cfg.write_text(json.dumps(clipped_merton_table_ldp()))
    runs = [(json.loads(p.read_text())["kind"], p) for p in sorted(SCENARIOS.glob("*.json"))]
    runs.append(("ldp", cfg))
    code = "\n".join([
        "import json, sys",
        "class NoScipy:",
        "    def find_spec(self, name, path=None, target=None):",
        "        if name.split('.')[0] == 'scipy':",
        "            raise ImportError('scipy is refused here')",
        "sys.meta_path.insert(0, NoScipy())",
        "import maxplus.cli",
        "codes = [maxplus.cli.main([kind, '--config', cfg, '--out-dir', out])",
        "         for kind, cfg, out in json.loads(sys.argv[1])]",
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']",
        "print(json.dumps(codes))",
    ])
    calls = [(kind, str(path), str(tmp_path / "without" / path.stem)) for kind, path in runs]
    env = dict(os.environ, PYTHONPATH=str(Path(maxplus.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(calls)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.splitlines()[-1])
    for (kind, path), got in zip(runs, codes):
        here = tmp_path / "here" / path.stem
        assert run([kind, "--config", path, "--out-dir", here]) == got
        there = tmp_path / "without" / path.stem
        assert sorted(p.name for p in here.iterdir()) == sorted(p.name for p in there.iterdir())
        for p in here.iterdir():
            assert p.read_bytes() == (there / p.name).read_bytes(), (path.name, p.name)
    assert codes[:4] == [0, 0, 0, 0]


def test_serialize_imports_neither_forms_nor_merton():
    # the package __init__ imports every module, so the wire formats are
    # loaded under a bare package object that skips it
    import maxplus

    code = "\n".join([
        "import sys, types",
        "pkg = types.ModuleType('maxplus')",
        "pkg.__path__ = [sys.argv[1]]",
        "sys.modules['maxplus'] = pkg",
        "import maxplus.serialize",
        "loaded = sorted(m for m in sys.modules if m.startswith('maxplus.'))",
        "assert 'maxplus.forms' not in loaded, loaded",
        "assert 'maxplus.merton' not in loaded, loaded",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code, str(Path(maxplus.__file__).parent)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr



@pytest.mark.parametrize(
    "values, want",
    [(["-inf", "+inf", "+inf"], "+inf"), (["-inf", "-inf", "-inf"], "+inf"),
     (["+inf", "+inf", "+inf"], "-inf")],
    ids=["neg-inf-and-plus-inf", "all-neg-inf", "all-plus-inf"],
)
def test_conjugate_fast_with_neg_inf_and_no_finite_value(tmp_path, values, want):
    line = {"lo": -1.0, "hi": 1.0, "n": 3, "dim": 1}
    for fast in (True, False):
        cfg = tmp_path / f"fast_{fast}.json"
        cfg.write_text(json.dumps({
            "kind": "conjugate", "x_grid": line, "y_grid": line,
            "kernel": {"type": "bilinear"}, "f": {"grid": line, "values": values},
            "fast": fast, "out": f"out_{fast}.json",
        }))
        assert run(["conjugate", "--config", cfg, "--out-dir", tmp_path]) == 0
    fast_bytes = (tmp_path / "out_True.json").read_bytes()
    assert fast_bytes == (tmp_path / "out_False.json").read_bytes()
    assert json.loads(fast_bytes)["values"] == [want] * 3


BIG_LINE = {"dim": 1, "lo": -1e200, "hi": 1e200, "n": 5}
BIG_BOX = {"dim": 2, "lo": [-1e200, -1e200], "hi": [1e200, 1e200], "n": [3, 3]}
OVERFLOWING_KERNEL_SCENARIOS = {
    "conjugate-2d": {
        "kind": "conjugate", "x_grid": BIG_BOX, "y_grid": BIG_BOX,
        "kernel": {"type": "bilinear"}, "f": {"grid": BIG_BOX, "values": [0.0] * 9},
    },
    "conjugate-1d-fast": {
        "kind": "conjugate", "x_grid": BIG_LINE, "y_grid": BIG_LINE,
        "kernel": {"type": "bilinear"}, "fast": True,
        "f": {"grid": BIG_LINE, "values": ["+inf", 0.0, 1.0, 0.0, "+inf"]},
    },
    "covering-1d": {
        "kind": "covering", "x_grid": BIG_LINE, "y_grid": BIG_LINE,
        "kernel": {"type": "bilinear"}, "g": {"grid": BIG_LINE, "values": [0.0] * 5},
    },
    "ldp-1d": {
        "kind": "ldp", "x_grid": BIG_LINE, "y_grid": BIG_LINE,
        "kernel": {"type": "bilinear"}, "mode": "limit-asserted",
        "sequence": {"type": "gaussian_mean", "n_list": [64, 128, 256, 512]},
    },
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(OVERFLOWING_KERNEL_SCENARIOS))
def test_overflowing_bilinear_kernel_exits_3(tmp_path, capsys, case):
    # x*y of 1e200 and 1e200 is no float: the kernel is rejected before any
    # action, where the 2-D conjugate gave NaN and the 1-D runs computed on
    # +inf kernel cells with overflow warnings
    obj = OVERFLOWING_KERNEL_SCENARIOS[case]
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps(obj))
    assert run([obj["kind"], "--config", cfg, "--out-dir", tmp_path / "out"]) == 3
    assert "bilinear kernel" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_covering_on_a_grid_whose_span_overflows_exits_3(tmp_path, capsys):
    # on [-1e308, 1e308] every coordinate was NaN, and the identity table
    # still read existence YES with exit 0
    obj = json.loads((SCENARIOS / "covering_identity.json").read_text())
    wide = {"dim": 1, "lo": -1e308, "hi": 1e308, "n": 3}
    obj["x_grid"] = obj["y_grid"] = obj["g"]["grid"] = wide
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps(obj))
    assert run(["covering", "--config", cfg, "--out-dir", tmp_path / "out"]) == 3
    assert "grid span" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fast", [True, False])
def test_conjugate_f_off_the_y_grid_exits_3(tmp_path, capsys, fast):
    # the fast path once built its kernel on f's own grid and ignored y_grid
    obj = json.loads((SCENARIOS / "conjugate_quadratic.json").read_text())
    obj["y_grid"] = {**obj["y_grid"], "n": 5}
    obj["fast"] = fast
    cfg = tmp_path / "conj.json"
    cfg.write_text(json.dumps(obj))
    assert run(["conjugate", "--config", cfg, "--out-dir", tmp_path / "out"]) == 3
    assert "expected grid" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


MALFORMED_MERTON_FIELDS = [
    ("paths", 200.7, "paths is a JSON integer"),
    ("paths", "200", "paths is a JSON integer"),
    ("paths", True, "paths is a JSON integer"),
    ("paths", 0, "paths must be at least 1"),
    ("seed", 1.5, "seed is a JSON integer"),
    ("seed", -1, "seed must be at least 0"),
    ("seed", True, "seed is a JSON integer"),
    ("r", "0.05", "r is a finite number"),
    ("sigma", None, "sigma is a finite number"),
    ("w0", True, "w0 is a finite number"),
    ("c", "0.12", "c is a finite number"),
    ("c", None, "c is a finite number"),
    # NaN and Infinity are not JSON: the file is refused as it loads
    ("c", float("nan"), "NaN is not a JSON number"),
    ("xi_min", "0.05", "xi_min is a finite number"),
    ("xi_max", [6.0], "xi_max is a finite number"),
    ("xi_step", "0.05", "xi_step is a finite number"),
    ("xi_step", float("inf"), "Infinity is not a JSON number"),
    ("xi_step", 0, "xi_step must be positive"),
    ("xi_step", -0.05, "xi_step must be positive"),
    # the node count np.arange would take: beyond the float range, beyond
    # the bound, or of a range far below xi_min, where np.arange raised
    ("xi_step", 5e-324, "not a count of at most 100000 nodes"),
    ("xi_max", 1e300, "not a count of at most 100000 nodes"),
    ("xi_min", 1e300, "xi grid is empty"),
    ("xi_max", -1e300, "xi grid is empty"),
    # closed forms beyond the float range, where Python's ** raised
    ("alpha", 1e300, "(alpha - r)^2 / (2 sigma^2) leaves the float range"),
    ("sigma", 1e-300, "sigma^2 leaves the float range"),
    ("T", 25, "T is a list"),
    ("T", [25, "50"], "T entry is a finite number"),
    ("T", [25, True], "T entry is a finite number"),
    ("T", [25, float("nan")], "NaN is not a JSON number"),
    ("T", [float("inf")], "Infinity is not a JSON number"),
    ("T", [], "at least one horizon"),
    ("T", [0], "finite and positive"),
    ("T", [-5], "finite and positive"),
    ("T", [25, 25], "repeated"),
    ("out", 5, "out is a JSON string"),
]


@pytest.mark.parametrize(
    "field, value, message",
    MALFORMED_MERTON_FIELDS,
    ids=[f"{f}={json.dumps(v)}" for f, v, _ in MALFORMED_MERTON_FIELDS],
)
def test_malformed_merton_field_exits_3(tmp_path, capsys, field, value, message):
    obj = json.loads((SCENARIOS / "merton_tailrate.json").read_text())
    obj["paths"] = 200
    obj[field] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(obj))
    assert run(["merton", "--config", cfg, "--out-dir", tmp_path]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "merton_tailrate.csv").exists()


def test_xi_grid_holds_at_most_100000_nodes():
    obj = {"xi_min": 0.0, "xi_max": 99999.5, "xi_step": 1.0}
    assert _xi_grid(obj, "scenario").size == 100_000
    with pytest.raises(ValidationError, match="at most 100000 nodes"):
        _xi_grid({**obj, "xi_max": 100000.5}, "scenario")
    # a kept xi_max counts against the bound
    with pytest.raises(ValidationError, match="at most 100000 nodes"):
        _xi_grid({**obj, "xi_max": 100000.0}, "scenario")


@pytest.mark.parametrize(
    "lo, hi, step, size",
    [(0.0, 20000.0, 0.5, 40001), (-20000.0, 0.5, 0.5, 40002), (0.0, 2.0**14, 1.0, 16385),
     (-1e300, -1e300, 1.0, 1), (1e300, 1e300, 1e290, 1), (0.0, 1e200, 1e196, 10001)],
)
def test_xi_grid_keeps_xi_max_at_any_magnitude(lo, hi, step, size):
    # beside a large |xi_min| or |xi_max| the former 1e-12 pad rounded
    # away, which dropped xi_max, or left a one-node grid empty
    xi = _xi_grid({"xi_min": lo, "xi_max": hi, "xi_step": step}, "scenario")
    assert xi.size == size
    assert xi[0] == lo
    assert abs(xi[-1] - hi) <= 1e-12 * abs(hi)
    # the nodes before xi_max are the former grid's, bit for bit
    assert xi[:-1].tobytes() == np.arange(lo, hi + 1e-12, step)[: size - 1].tobytes()


def _ordinary_xi_grids():
    """The checked-in and benchmark fraction grids, random decimal ones, and
    random ones whose step is below 1e-12."""
    grids = [(0.05, 6.0, 0.05), (0.0, 40.0, 1.0), (0.0, 40.0, 0.2), (0.0, 40.0, 0.1),
             (0.0, 4.0, 0.5), (0.0, 1.0, 0.5), (0.5, 1.5, 0.5), (0.0, 99999.5, 1.0)]
    rng = np.random.default_rng(2026)
    for _ in range(3000):
        digits = int(rng.integers(1, 4))
        lo = round(float(rng.uniform(-300.0, 300.0)), digits)
        step = max(round(float(rng.uniform(0.001, 5.0)), digits), 0.1)
        off = float(rng.choice([0.0, rng.uniform(-1.0, 1.0)])) * step
        hi = round(lo + step * int(rng.integers(0, 120)) + off, digits)
        grids.append((lo, hi, step))
    # steps below the 1e-12 pad: the former grid holds nodes past xi_max
    grids += [(0.0, 1e-10, 1e-13), (1.0, 1.0 + 1e-10, 3e-13)]
    for _ in range(300):
        lo = float(rng.uniform(-2.0, 2.0))
        step = float(rng.uniform(1e-14, 2e-12))
        grids.append((lo, lo + step * int(rng.integers(0, 2000)) + float(rng.uniform(-1.0, 1.0)) * step, step))
    return grids


def test_xi_grid_keeps_every_ordinary_grid_bit_for_bit():
    for lo, hi, step in _ordinary_xi_grids():
        before = np.arange(lo, hi + 1e-12, step) if hi + 1e-12 - lo > 0 else np.empty(0)
        xi = _xi_grid({"xi_min": lo, "xi_max": hi, "xi_step": step}, "scenario")
        assert xi.tobytes() == before.tobytes(), (lo, hi, step)


def test_huge_fraction_exits_3_in_merton(tmp_path, capsys):
    obj = json.loads((SCENARIOS / "merton_tailrate.json").read_text())
    obj.update(xi_min=0.0, xi_max=1e200, xi_step=1e196, paths=100)
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(obj))
    assert run(["merton", "--config", cfg, "--out-dir", tmp_path]) == 3
    assert "fraction 1e+196: sigma^2 xi^2 leaves the float range" in capsys.readouterr().err
    assert not (tmp_path / "merton_tailrate.csv").exists()


def test_huge_fraction_exits_3_in_ldp(tmp_path, capsys):
    obj = small_merton_ldp()
    obj["sequence"].update(xi_min=0.0, xi_max=1e200, xi_step=1e196)
    assert run_ldp(tmp_path, obj, "huge") == 3
    assert "fraction 1e+196: sigma^2 xi^2 leaves the float range" in capsys.readouterr().err
    assert not (tmp_path / "huge_out.json").exists()


def run_merton_fields(tmp_path, capsys, **fields):
    obj = json.loads((SCENARIOS / "merton_tailrate.json").read_text())
    obj.update(paths=200, **fields)
    cfg = tmp_path / "fields.json"
    cfg.write_text(json.dumps(obj))
    rc = run(["merton", "--config", cfg, "--out-dir", tmp_path])
    rows = (tmp_path / "merton_tailrate.csv").read_text().splitlines()[1:]
    return rc, capsys.readouterr().out, [row.split(",") for row in rows]


def test_huge_threshold_reads_infinite_rates_without_a_warning(tmp_path, capsys):
    # (c - m)^2 overflowed in constant_control_rate with a RuntimeWarning
    rc, out, rows = run_merton_fields(tmp_path, capsys, c=1e308, w0=1e-300)
    assert rc == 0
    assert "oracle_rate=inf" in out and "trend=-inf" in out
    assert {row[2] for row in rows} == {"-inf"}


def test_subnormal_horizon_reads_minus_inf_without_a_warning(tmp_path, capsys):
    # log P / T overflowed in exact_tail_value with a RuntimeWarning
    rc, out, rows = run_merton_fields(tmp_path, capsys, T=[5e-324])
    assert rc == 0
    assert {row[0] for row in rows} == {"5e-324"}
    assert {row[2] for row in rows} == {"-inf"}


def test_gaussian_ldp_on_a_huge_x_grid_reads_plus_inf_without_a_warning(tmp_path):
    # x^2 / 2 overflowed in GaussianMeanForm.evaluate_affine with a RuntimeWarning
    obj = json.loads((SCENARIOS / "gaussian_ldp.json").read_text())
    obj["x_grid"] = dict(obj["x_grid"], hi=1e300)
    assert run_ldp(tmp_path, obj, "huge") == 2
    values = json.loads((tmp_path / "huge_out.json").read_text())["log_moment"]["values"]
    assert values[0] == 2.0
    assert set(values[1:]) == {"+inf"}


def test_gaussian_ldp_on_a_huge_table_kernel_reads_plus_inf_without_a_warning(tmp_path):
    # the table x * y of the grid above: its rows' steep end segments
    # overflowed the segment terms into NaN (RuntimeWarnings, then exit 3
    # on "NaN is not an extended real"); they read +inf, as the bilinear
    # kernel does on these grids
    obj = json.loads((SCENARIOS / "gaussian_ldp.json").read_text())
    obj["x_grid"] = dict(obj["x_grid"], hi=1e300, n=11)
    obj["y_grid"] = dict(obj["y_grid"], n=11)
    x, y = np.linspace(-2.0, 1e300, 11), np.linspace(-2.0, 2.0, 11)
    obj["kernel"] = {"type": "table", "rows": np.multiply.outer(x, y).tolist()}
    assert run_ldp(tmp_path, obj, "huge") == 2
    values = json.loads((tmp_path / "huge_out.json").read_text())["log_moment"]["values"]
    assert math.isclose(values[0], 2.0, rel_tol=1e-12)
    assert set(values[1:]) == {"+inf"}


def test_negative_merton_seed_flag_exits_3(tmp_path, capsys):
    rc = run(["merton", "--config", SCENARIOS / "merton_tailrate.json",
              "--out-dir", tmp_path, "--seed", -1])
    assert rc == 3
    assert "seed must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, message",
    [("xi_step", 0, "sequence: xi_step must be positive"),
     ("xi_step", -0.1, "sequence: xi_step must be positive"),
     ("xi_step", "0.1", "sequence: xi_step is a finite number"),
     ("xi_min", None, "sequence: xi_min is a finite number"),
     ("alpha", "0.1", "params: alpha is a finite number"),
     ("xi_step", 1e-300, "sequence: (xi_max - xi_min) / xi_step"),
     ("xi_min", 1e300, "need at least one form sequence"),
     ("alpha", 1e300, "(alpha - r)^2 / (2 sigma^2) leaves the float range"),
     ("sigma", 1e-300, "sigma^2 leaves the float range")],
    ids=["step-zero", "step-negative", "step-string", "min-null", "alpha-string",
         "step-tiny", "min-huge", "alpha-huge", "sigma-tiny"],
)
def test_ldp_merton_bad_field_exits_3(tmp_path, capsys, field, value, message):
    obj = json.loads((SCENARIOS / "gaussian_ldp.json").read_text())
    seq = {
        "type": "merton", "params": {"r": 0.05, "alpha": 0.10, "sigma": 0.20},
        "horizons": [200, 400], "xi_min": 0.0, "xi_max": 1.0, "xi_step": 0.5,
    }
    if field in seq:
        seq[field] = value
    else:
        seq["params"][field] = value
    obj["sequence"] = seq
    cfg = tmp_path / "seq.json"
    cfg.write_text(json.dumps(obj))
    assert run(["ldp", "--config", cfg, "--out-dir", tmp_path]) == 3
    assert message in capsys.readouterr().err


MERTON_SEQUENCE = {
    "type": "merton", "params": {"r": 0.05, "alpha": 0.10, "sigma": 0.20},
    "horizons": [200, 400], "xi_min": 0.0, "xi_max": 1.0, "xi_step": 0.5,
}

# (where, field, value, message): "top" is the ldp scenario itself,
# "gaussian" and "merton" its sequence object of that type
MALFORMED_LDP_FIELDS = [
    ("top", "sup_edge_to_inf", "false", "sup_edge_to_inf is a JSON boolean"),
    ("top", "sup_edge_to_inf", 1, "sup_edge_to_inf is a JSON boolean"),
    ("top", "x_closed_below", "n", "x_closed_below is a JSON boolean or a list"),
    ("top", "closed_below", [1], "closed_below entry is a JSON boolean"),
    ("top", "closed_below", ["no"], "closed_below entry is a JSON boolean"),
    ("top", "closed_above", [True, True], "closed_above is a JSON boolean or a list of 1"),
    ("top", "x_closed_above", [], "x_closed_above is a JSON boolean or a list of 1"),
    ("top", "out_json", 5, "out_json is a JSON string"),
    ("top", "out_csv", ["a.csv"], "out_csv is a JSON string"),
    ("gaussian", "n_list", "ab", "n_list is a nonempty list of positive JSON integers"),
    ("gaussian", "n_list", [], "n_list is a nonempty list of positive JSON integers"),
    ("gaussian", "n_list", [64.7, 128], "n_list entry is a JSON integer"),
    ("gaussian", "n_list", ["64", 128], "n_list entry is a JSON integer"),
    ("gaussian", "n_list", [True, 128], "n_list entry is a JSON integer"),
    ("gaussian", "n_list", [0, 128], "n_list entry must be at least 1"),
    ("merton", "horizons", [-5], "horizons entry must be at least 1"),
    ("merton", "horizons", [200, "400"], "horizons entry is a JSON integer"),
    ("merton", "horizons", [200.5], "horizons entry is a JSON integer"),
    ("merton", "horizons", 200, "horizons is a nonempty list"),
    ("merton", "truncate_at", "0", "truncate_at is a finite number"),
    ("merton", "truncate_at", None, "truncate_at is a finite number"),
    # pipeline options that an ldp scenario does not set
    ("top", "stencil_radius", 1, "unknown fields ['stencil_radius']"),
    ("top", "window_margin", "0.1", "unknown fields ['window_margin']"),
    ("top", "window_margin", None, "unknown fields ['window_margin']"),
    ("top", "limit_tol", 1e-6, "unknown fields ['limit_tol']"),
    ("top", "open_sets", [[0, 3]], "unknown fields ['open_sets']"),
]


@pytest.mark.parametrize(
    "where, field, value, message",
    MALFORMED_LDP_FIELDS,
    ids=[f"{w}-{f}={json.dumps(v)}" for w, f, v, _ in MALFORMED_LDP_FIELDS],
)
def test_malformed_ldp_field_exits_3(tmp_path, capsys, where, field, value, message):
    obj = json.loads((SCENARIOS / "gaussian_ldp.json").read_text())
    if where == "merton":
        obj["sequence"] = json.loads(json.dumps(MERTON_SEQUENCE))
    target = obj if where == "top" else obj["sequence"]
    target[field] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(obj))
    assert run(["ldp", "--config", cfg, "--out-dir", tmp_path]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "gaussian_ldp_out.json").exists()


def test_ldp_side_flags_take_a_boolean_or_one_per_axis(tmp_path):
    obj = json.loads((SCENARIOS / "gaussian_ldp.json").read_text())
    for name, below in (("one", True), ("list", [True])):
        obj.update(closed_below=below, out_json=f"{name}.json", out_csv=f"{name}.csv")
        cfg = tmp_path / f"{name}_in.json"
        cfg.write_text(json.dumps(obj))
        assert run(["ldp", "--config", cfg, "--out-dir", tmp_path]) == 0
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "list.json").read_bytes()


MALFORMED_COVERING_FIELDS = [
    ("top", "config", [], "config is a JSON object"),
    ("top", "config", "exact", "config is a JSON object"),
    ("top", "out", 5, "out is a JSON string"),
    ("top", "xprime", [True, False, True], "xprime entry is a JSON integer"),
    ("top", "xprime", [0.7, 1.2], "xprime entry is a JSON integer"),
    ("top", "xprime", [-1], "xprime entry must be at least 0"),
    ("top", "xprime", [7], "xprime entry 7 is not below the 3 X-nodes"),
    ("top", "xprime", "ab", "xprime is a list of node indices"),
    ("config", "assume_finite_exact", "false", "assume_finite_exact is a JSON boolean"),
    ("config", "assume_finite_exact", 0, "assume_finite_exact is a JSON boolean"),
    # the stencil radius follows the topology: its former field is unknown
    ("config", "stencil_radius", 1.7, "unknown fields ['stencil_radius']"),
    ("config", "stencil_radius", "1", "unknown fields ['stencil_radius']"),
    ("config", "stencil_radius", -1, "unknown fields ['stencil_radius']"),
    # the certificate is exact: its former tolerances are unknown
    ("config", "le_tol", "0.5", "unknown fields ['le_tol']"),
    ("config", "le_tol", -1, "unknown fields ['le_tol']"),
    ("config", "eq_tol", "nan", "unknown fields ['eq_tol']"),
    ("config", "eq_tol", float("inf"), "Infinity is not a JSON number"),
    ("config", "window_margin", "0.1", "unknown fields ['window_margin']"),
    ("config", "closed_below", "yes", "closed_below is a JSON boolean or a list"),
    ("config", "closed_above", [1], "closed_above entry is a JSON boolean"),
]


@pytest.mark.parametrize(
    "where, field, value, message",
    MALFORMED_COVERING_FIELDS,
    ids=[f"{w}-{f}={json.dumps(v)}" for w, f, v, _ in MALFORMED_COVERING_FIELDS],
)
def test_malformed_covering_field_exits_3(tmp_path, capsys, where, field, value, message):
    obj = json.loads((SCENARIOS / "covering_identity.json").read_text())
    (obj if where == "top" else obj["config"])[field] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(obj))
    assert run(["covering", "--config", cfg, "--out-dir", tmp_path]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "covering_out.json").exists()


def test_covering_xprime_selects_target_nodes(tmp_path):
    obj = json.loads((SCENARIOS / "covering_identity.json").read_text())
    obj["xprime"] = [0, 2]
    cfg = tmp_path / "xprime.json"
    cfg.write_text(json.dumps(obj))
    assert run(["covering", "--config", cfg, "--out-dir", tmp_path]) == 0
    out = json.loads((tmp_path / "covering_out.json").read_text())
    assert out["existence"] == "YES"


@pytest.mark.parametrize("finite_exact", [True, False], ids=["finite-exact", "sampled"])
def test_covering_stencil_radius_is_an_unknown_field(tmp_path, capsys, finite_exact):
    # the radius follows the topology: the node itself on a discrete grid,
    # radius 1 on a sampled window; no radius is settable in either mode
    obj = json.loads((SCENARIOS / "covering_identity.json").read_text())
    obj["config"] = {"assume_finite_exact": finite_exact}
    for radius in (0, 1, 2):
        obj["config"]["stencil_radius"] = radius
        cfg = tmp_path / "radius.json"
        cfg.write_text(json.dumps(obj))
        assert run(["covering", "--config", cfg, "--out-dir", tmp_path]) == 3
        assert "unknown fields ['stencil_radius']" in capsys.readouterr().err
        assert not (tmp_path / "covering_out.json").exists()


@pytest.mark.parametrize("field, value", [
    ("window_margin", 0.1), ("closed_below", True), ("closed_above", [False]),
])
def test_covering_window_fields_rejected_with_assume_finite_exact(
    tmp_path, capsys, field, value
):
    # the window margin is a constant: its former field is unknown in both modes
    unknown = field == "window_margin"
    obj = json.loads((SCENARIOS / "covering_identity.json").read_text())
    assert obj["config"]["assume_finite_exact"] is True
    obj["config"][field] = value
    cfg = tmp_path / "window.json"
    cfg.write_text(json.dumps(obj))
    assert run(["covering", "--config", cfg, "--out-dir", tmp_path]) == 3
    message = (
        f"unknown fields ['{field}']" if unknown
        else f"{field} cannot be set with assume_finite_exact"
    )
    assert message in capsys.readouterr().err
    assert not (tmp_path / "covering_out.json").exists()
    # a side field alone is read once the window is sampled
    obj["config"]["assume_finite_exact"] = False
    cfg.write_text(json.dumps(obj))
    assert (run(["covering", "--config", cfg, "--out-dir", tmp_path]) == 3) == unknown


LINE = {"dim": 1, "lo": 0.0, "hi": 1.0, "n": 5}
BOX = {"dim": 2, "lo": [0.0, 0.0], "hi": [1.0, 1.0], "n": [3, 3]}

# (base grid, fields replaced, message): one malformed value each
MALFORMED_GRIDS = [
    (LINE, {"n": 5.7}, "grid: n is a JSON integer"),
    (LINE, {"n": 5.0}, "grid: n is a JSON integer"),
    (LINE, {"n": True}, "grid: n is a JSON integer"),
    (LINE, {"n": "5"}, "grid: n is a JSON integer"),
    (LINE, {"n": [5]}, "grid: n is a JSON integer"),
    (LINE, {"n": 0}, "grid: n must be at least 1"),
    (LINE, {"dim": "1"}, "grid: dim is the JSON integer 1 or 2"),
    (LINE, {"dim": True}, "grid: dim is the JSON integer 1 or 2"),
    (LINE, {"dim": 1.0}, "grid: dim is the JSON integer 1 or 2"),
    (LINE, {"dim": 3}, "grid: dim is the JSON integer 1 or 2"),
    (LINE, {"lo": "0"}, "grid: lo is a finite number"),
    (LINE, {"lo": None}, "grid: lo is a finite number"),
    (LINE, {"lo": [0.0]}, "grid: lo is a finite number"),
    (LINE, {"hi": True}, "grid: hi is a finite number"),
    # NaN and Infinity are not JSON: the file is refused as it loads
    (LINE, {"hi": float("inf")}, "Infinity is not a JSON number"),
    (LINE, {"hi": 10**400}, "grid: hi is a finite number"),
    (BOX, {"n": 3}, "grid: n is a list of 2 for dim 2"),
    (BOX, {"n": [3, 3, 3]}, "grid: n is a list of 2 for dim 2"),
    (BOX, {"n": [3, 2.5]}, "grid: n entry is a JSON integer"),
    (BOX, {"lo": 0.0}, "grid: lo is a list of 2 for dim 2"),
    (BOX, {"lo": [0.0, "0"]}, "grid: lo entry is a finite number"),
    (BOX, {"hi": [1.0, float("nan")]}, "NaN is not a JSON number"),
]


@pytest.mark.parametrize(
    "base, fields, message",
    MALFORMED_GRIDS,
    ids=[f"{b['dim']}d-{json.dumps(f)}" for b, f, _ in MALFORMED_GRIDS],
)
@pytest.mark.parametrize("scenario", [
    "conjugate_quadratic.json", "covering_identity.json", "gaussian_ldp.json",
])
def test_malformed_grid_exits_3(tmp_path, capsys, scenario, base, fields, message):
    obj = json.loads((SCENARIOS / scenario).read_text())
    obj["x_grid"] = {**base, **fields}
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(obj))
    assert run([obj["kind"], "--config", cfg, "--out-dir", tmp_path]) == 3
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["grid.json"]


@pytest.mark.parametrize("grid", [[0.0, 1.0, 5], "line"], ids=["array", "string"])
def test_non_object_grid_exits_3(tmp_path, capsys, grid):
    obj = json.loads((SCENARIOS / "gaussian_ldp.json").read_text())
    obj["y_grid"] = grid
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(obj))
    assert run(["ldp", "--config", cfg, "--out-dir", tmp_path]) == 3
    assert "grid is a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("value", [5, [[1]], [1]], ids=["number", "nested-list", "list"])
@pytest.mark.parametrize("scenario, field", [
    ("conjugate_quadratic.json", "f"), ("conjugate_quadratic.json", "kernel"),
    ("covering_identity.json", "g"), ("covering_identity.json", "kernel"),
    ("gaussian_ldp.json", "kernel"),
])
def test_non_object_kernel_or_grid_function_exits_3(tmp_path, capsys, scenario, field, value):
    obj = json.loads((SCENARIOS / scenario).read_text())
    obj[field] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(obj))
    assert run([obj["kind"], "--config", cfg, "--out-dir", tmp_path]) == 3
    what = "kernel" if field == "kernel" else "grid function"
    assert f"error: {what} is a JSON object" in capsys.readouterr().err


# SHA-256 of every artifact of the checked-in scenarios.  A change to one
# of these bytes is a change of results: make it on purpose, update the
# digest, and give the reason in CHANGES.md.
PINNED_DIGESTS = {
    "conjugate_quadratic.json": {
        "conjugate_out.json":
            "2d90d31780f500b0c7ca60ec754fb8f6b1e645e862e4a4a105b4f99ab050af56",
    },
    "covering_identity.json": {
        "covering_out.json":
            "6776b6fc7150d4086d8e8b1e694424e824716b3973572f9ebb4e11593c6a6460",
    },
    "gaussian_ldp.json": {
        "gaussian_ldp_out.csv":
            "7e290a8479042fab672378f00bf944d1bc8087722eaec55abc358777365093a1",
        "gaussian_ldp_out.json":
            "99c79026df7939d2099518039049bb52e6ae0800abc466f4432dfe401a42b60e",
    },
    "merton_tailrate.json": {
        "merton_tailrate.csv":
            "e97f8bc0bc078499980d1c04fc910bdc64372432c782f64cd9133bfd3beef801",
    },
}


def test_pinned_digests_cover_every_scenario():
    assert sorted(PINNED_DIGESTS) == sorted(p.name for p in SCENARIOS.glob("*.json"))


@pytest.mark.parametrize("scenario", sorted(PINNED_DIGESTS))
def test_scenario_artifacts_match_pinned_digests(tmp_path, scenario):
    path = SCENARIOS / scenario
    kind = json.loads(path.read_text())["kind"]
    assert run([kind, "--config", path, "--out-dir", tmp_path]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    for name, digest in PINNED_DIGESTS[scenario].items():
        assert written.get(name) == digest, (
            f"{scenario}: {name} changed (sha256 {written.get(name)}, pinned "
            f"{digest}); a deliberate change of artifact bytes updates the "
            "pinned digest and gives its reason in CHANGES.md"
        )
    assert sorted(written) == sorted(PINNED_DIGESTS[scenario])


# The checked-in Gaussian scenario runs on 101 nodes, one row block.  The
# same scenario on 1601 nodes walks the window diagnostics and the
# attainment map over 20 blocks; its artifacts are pinned as well.
GAUSSIAN_1601_DIGESTS = {
    "gaussian_ldp_out.csv":
        "55546952e15a9e873834949faf00339cb384688329214054aa92ede1d8309412",
    "gaussian_ldp_out.json":
        "cc3b43e76731e4b17ae188e231effec3e72db05e8d9515d1328679fe49d8334b",
}


def test_gaussian_ldp_on_1601_nodes_matches_pinned_digests(tmp_path):
    obj = json.loads((SCENARIOS / "gaussian_ldp.json").read_text())
    obj["x_grid"]["n"] = obj["y_grid"]["n"] = 1601
    cfg = tmp_path / "gaussian_ldp_1601.json"
    cfg.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert run(["ldp", "--config", cfg, "--out-dir", out]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == GAUSSIAN_1601_DIGESTS


# ---------------------------------------------------------------------------
# infinities are the strings "+inf"/"-inf": other spellings exit 3
# ---------------------------------------------------------------------------

NON_JSON_PLACES = {
    "f values": ("conjugate_quadratic.json", lambda obj: obj["f"]["values"]),
    "g values": ("covering_identity.json", lambda obj: obj["g"]["values"]),
    "table rows": ("covering_identity.json", lambda obj: obj["kernel"]["rows"][1]),
}


@pytest.mark.parametrize("token, message", [
    ("Infinity", "Infinity is not a JSON number"),
    ("-Infinity", "-Infinity is not a JSON number"),
    ("NaN", "NaN is not a JSON number"),
    ("1e400", "a number beyond the float range"),
    ("-1e400", "a number beyond the float range"),
])
@pytest.mark.parametrize("place", list(NON_JSON_PLACES))
def test_infinity_spelled_as_a_number_exits_3(tmp_path, capsys, place, token, message):
    scenario, items = NON_JSON_PLACES[place]
    obj = json.loads((SCENARIOS / scenario).read_text())
    items(obj)[1] = "@"  # replaced by the raw token below
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(obj).replace('"@"', token))
    assert run([obj["kind"], "--config", cfg, "--out-dir", tmp_path]) == 3
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


def test_cli_runs_no_pure_python_json_encoder(tmp_path, capsys, monkeypatch):
    # json.dumps with an indent runs json.encoder._make_iterencode, the
    # pure-Python encoder; no scenario's artifacts may go through it
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    for scenario in sorted(SCENARIOS.glob("*.json")):
        kind = json.loads(scenario.read_text())["kind"]
        assert run([kind, "--config", scenario, "--out-dir", tmp_path]) == 0
    assert len(list(tmp_path.iterdir())) == 5  # the ldp run writes a JSON and a CSV
    with pytest.raises(AssertionError, match="pure-Python"):
        json.dumps([1.5], indent=2)  # the patch is in force


def test_ldp_csv_rate_column_is_the_json_rate_values(tmp_path, monkeypatch):
    # the CSV takes the rate tokens the JSON writes: the same digits, and
    # the infinities as +inf and -inf without their JSON quotes
    real = maxplus.cli.pipeline

    def with_infinities(*args, **kwargs):
        out = real(*args, **kwargs)
        vals = out.rate_lower.values.copy()
        vals[:2], vals[-1] = math.inf, -math.inf
        return dataclasses.replace(out, rate_lower=GridFn(out.rate_lower.grid, vals))

    monkeypatch.setattr(maxplus.cli, "pipeline", with_infinities)
    obj = json.loads((SCENARIOS / "gaussian_ldp.json").read_text())
    assert run_ldp(tmp_path, obj, "inf") in (0, 2)
    rate = json.loads((tmp_path / "inf_out.json").read_text())["rate_lower"]["values"]
    lines = (tmp_path / "inf_out.csv").read_text().splitlines()[1:]
    assert len(rate) == len(lines) == obj["y_grid"]["n"]
    assert [line.split(",")[1] for line in lines] == [
        v if isinstance(v, str) else repr(v) for v in rate
    ]
    assert lines[0].split(",")[1] == "+inf" and lines[-1].split(",")[1] == "-inf"
