"""Smoke test of the benchmark harness at small sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench

Each workload runs one untraced and one traced pass on shrunken inputs;
the test checks that the passes are correct, that the tracer reaches
every module that bound a probed function and restores it afterwards,
and that a probe whose function is gone is reported absent.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from passes import import_cli  # noqa: E402
from tracer import Probe, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

cli = import_cli()


def _small(name, tmp_path, seed=3):
    wl = WORKLOADS[name]()
    in_dir = tmp_path / "inputs"
    in_dir.mkdir()
    calls = wl.write_inputs(in_dir, seed, small=True)
    return wl, calls, in_dir


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_passes_agree_and_pass_checks(name, tmp_path):
    wl, calls, in_dir = _small(name, tmp_path)
    judge = run.Judge(wl)
    layer, absent, silent, doc = run.run_traced(cli, wl, calls, in_dir, tmp_path, 0.0, judge)
    # warm-up, one untraced and one traced pass, all byte-identical
    assert (judge.attempted, judge.failed) == (3, 0)
    assert absent == [] and silent == []
    assert layer["cli.main.calls"] == len(calls)
    assert 0.5 < layer["trace.covered_frac"] <= 1.0
    assert len(doc["spans"]["name"]) == len(doc["spans"]["end_s"]) > len(calls)


def test_untraced_run_measures_every_end_to_end_metric(tmp_path):
    wl, calls, in_dir = _small("merton-tailrate", tmp_path)
    judge = run.Judge(wl)
    samples = run.run_untraced(cli, calls, in_dir, tmp_path, 0.0, judge)
    assert judge.failed == 0 and judge.attempted == 2 + run.MIN_PASSES
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    spec_names = {m["name"] for m in spec["end_to_end"]}
    assert spec_names <= set(samples)
    assert all(v > 0 for vals in samples.values() for v in vals)


def test_wrappers_reach_every_binding_and_are_removed(tmp_path):
    import maxplus.cli
    import maxplus.covering
    import maxplus.ldp

    originals = (maxplus.covering.build_covering, maxplus.covering.verdict)
    tracer = Tracer()
    tracer.install()
    try:
        assert maxplus.ldp.build_covering is maxplus.covering.build_covering
        assert maxplus.covering.build_covering is not originals[0]
        assert maxplus.cli.covering_verdict is maxplus.covering.verdict
        assert maxplus.cli.covering_verdict is not originals[1]
    finally:
        tracer.uninstall()
    assert maxplus.ldp.build_covering is originals[0]
    assert maxplus.cli.covering_verdict is originals[1]


def test_missing_functions_are_reported_absent():
    tracer = Tracer(probes=(
        Probe("grids", "no_such_function"),
        Probe("no_such_module", "f"),
        Probe("conjugacy", "Kernel.no_such_method"),
        Probe("grids", "domain_masks"),
    ))
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == [
        "grids.no_such_function", "no_such_module.f", "conjugacy.Kernel.no_such_method",
    ]
    assert run._sources("grids.no_such_function.calls") == ("grids.no_such_function",)


def test_a_wrong_result_fails_the_pass(tmp_path):
    wl, calls, in_dir = _small("gauss-ldp", tmp_path)
    judge = run.Judge(wl)
    out = tmp_path / "pass"
    assert run.timed_pass(cli, calls, in_dir, out, judge, "good") is not None
    text = (out / "gauss_ldp.json").read_text().replace("FULL_LDP", "BOUNDS_ONLY")
    (out / "gauss_ldp.json").write_text(text)
    judge.judge("tampered", [0], "", out)
    assert (judge.attempted, judge.failed) == (2, 1)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gauss-ldp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
