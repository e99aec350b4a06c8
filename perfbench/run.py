#!/usr/bin/env python3
"""Benchmark the ``maxplus`` CLI end to end, or layer by layer when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one caller, closed loop: each pass runs the workload's CLI
calls through ``maxplus.cli.main`` in-process, and the next pass starts
when the previous one has ended.  Every pass is checked (exit codes,
closed-form references, byte-identical artifacts across passes).  The
last line of standard output is the JSON result; the lines before it
give every metric by name with its unit, and the environment.  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from passes import import_cli, run_pass  # noqa: E402
from tracer import TREND_SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 7        # fresh interpreters timed per run for setup_s
CALIB_REF_S = 0.2     # calibration time on an idle host; the unit of setup_s
MIN_PASSES = 3        # timed passes per run, however long they take
CHILD_TIMEOUT_S = 120

# per-span checks of the traced run: the entry points each workload must
# go through; inner functions an optimisation may remove are not listed
EXPECTED_SPANS = {
    "gauss-ldp": (
        "cli.main", "cli._load_scenario", "ldp.pipeline", "ldp.limit_log_moment",
        "ldp.tightness_criterion", "conjugacy.coercivity_report",
        "conjugacy.superlevel_compactness_report", "covering.build_covering",
        "covering.quasicontinuity_check", "grids.domain_masks", "serialize.dumps",
    ),
    "merton-family": (
        "cli.main", "cli._load_scenario", "ldp.pipeline", "ldp.limit_log_moment",
        "ldp.tightness_criterion", "conjugacy.coercivity_report",
        "covering.build_covering", "serialize.dumps",
    ),
    "transforms": (
        "cli.main", "cli._load_scenario", "serialize.kernel_from_json",
        "serialize.gridfn_from_json", "serialize.dumps", "covering.verdict",
        "covering.build_covering", "covering.solve_preimage",
        "conjugacy.conjugate", "conjugacy.legendre_fast",
        "kernels.matvec_table", "kernels.matvec_bilinear",
        "kernels.matvec_bilinear_2d", "kernels.envelope_merge",
    ),
    "merton-tailrate": (
        "cli.main", "cli._load_scenario", "merton.tail_rate_experiment",
        "merton.simulate", "merton.exact_tail_value",
    ),
}

# probes a derived layer metric is computed from
DERIVED_SOURCES = {
    "convergence.trend.self_s": TREND_SPANS,
    "covering.attain_fill": ("conjugacy.subdifferential_map",),
    "covering.uncovered_frac": ("covering.build_covering",),
}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    import glob

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import importlib.util

    import maxplus
    import scipy

    backend = getattr(maxplus, "backend_name", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend_name": backend() if callable(backend) else "absent",
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def fresh_import_seconds():
    """Wall time of a fresh interpreter that imports maxplus.cli and exits."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import maxplus.cli"],
        cwd=ROOT, env=_child_env(), check=True, timeout=CHILD_TIMEOUT_S,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def child_pass(calls, in_dir, out_dir):
    """One pass in a fresh process: (exit codes, stdout, peak RSS in MB)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "passes.py"), str(in_dir), str(out_dir)]
        + [f"{sub}:{name}" for sub, name in calls],
        cwd=ROOT, env=_child_env(), timeout=CHILD_TIMEOUT_S,
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"exit code {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    return res["codes"], res["stdout"], res["peak_rss_mb"]


_CALIB_X = np.linspace(-1.0, 1.0, 2048)
_CALIB_V = np.arange(10.0)


def calibration_seconds():
    """Time a fixed piece of reference work, about 0.2 s on an idle host.

    It mixes what the workloads spend their time on: interpreted Python,
    a 2048 x 2048 streaming numpy reduction, and small numpy calls.  A
    shared host's speed can drift by tens of percent over minutes.  The
    median over passes of each pass's time divided by the mean of the
    calibrations just before and after it (``wall_rel``) cancels most of
    that drift, while a change in the program still shows in full.
    """
    t0 = time.perf_counter()
    for _ in range(3):  # long enough that a blip of the host averages out
        acc = 0.0
        for i in range(100_000):
            acc += (i % 7) * 0.5
        for _ in range(4):
            np.multiply.outer(_CALIB_X, _CALIB_X).max(axis=1)
        for _ in range(3000):
            _CALIB_V.max()
    return time.perf_counter() - t0


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


class Judge:
    """Checks passes: exit codes, the workload's references, and artifact
    bytes equal to those of the first pass of the run."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.checks = []  # CheckResult of every pass that got as far

    def judge(self, label, codes, stdout, out_dir):
        self.attempted += 1
        errors = []
        try:
            bad = [c for c in codes if c not in (0, 2)]  # 2 is a FAIL verdict
            if bad:
                errors.append(f"exit codes {codes}")
            res = self.workload.check(out_dir, stdout)
            self.checks.append(res)
            errors += res.errors
            digest = {
                name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                for name in self.workload.artifacts
            }
            if self.reference is None:
                self.reference = digest
            elif digest != self.reference:
                diff = sorted(n for n in digest if digest[n] != self.reference[n])
                errors.append(f"artifacts differ from the first pass: {diff}")
        except Exception:
            errors.append(traceback.format_exc())
        if errors:
            self.failed += 1
            print(f"FAILED {label}: " + "; ".join(errors), file=sys.stderr)

    def crashed(self, label):
        self.attempted += 1
        self.failed += 1
        print(f"FAILED {label}:\n{traceback.format_exc()}", file=sys.stderr)


def timed_pass(cli, calls, in_dir, out_dir, judge, label, tracer=None, pass_id=0):
    """Run and check one pass; return its wall time, or None if it raised."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        if tracer is None:
            codes, stdout = run_pass(cli, calls, in_dir, out_dir)
        else:
            tracer.install()
            try:
                codes, stdout = tracer.run_pass(
                    pass_id, lambda: run_pass(cli, calls, in_dir, out_dir)
                )
            finally:
                tracer.uninstall()
        wall = time.perf_counter() - t0
    except Exception:
        judge.crashed(label)
        return None
    judge.judge(label, codes, stdout, out_dir)
    return wall


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def run_untraced(cli, calls, in_dir, work, seconds, judge):
    # each import against the calibrations just before and after it, then
    # in seconds of a host on which the calibration takes CALIB_REF_S
    calibration_seconds()  # warm-up, untimed
    setup_raw, setup, c = [], [], [calibration_seconds()]
    for i in range(SETUP_REPS):
        setup_raw.append(fresh_import_seconds())
        c.append(calibration_seconds())
        setup.append(setup_raw[-1] / ((c[i] + c[i + 1]) / 2.0) * CALIB_REF_S)

    peak_rss = []
    try:
        codes, stdout, rss = child_pass(calls, in_dir, work / "child")
    except (subprocess.SubprocessError, RuntimeError, ValueError, KeyError, IndexError):
        judge.crashed("fresh-process pass")
    else:
        peak_rss.append(rss)
        judge.judge("fresh-process pass", codes, stdout, work / "child")

    # warm-up pass: lazy imports and allocator growth, untimed
    timed_pass(cli, calls, in_dir, work / "pass", judge, "warm-up pass")
    walls, rel, calib = [], [], [calibration_seconds()]
    n = 0
    t_start = time.perf_counter()
    while n < MIN_PASSES or time.perf_counter() - t_start < seconds:
        wall = timed_pass(cli, calls, in_dir, work / "pass", judge, f"pass {n}")
        calib.append(calibration_seconds())
        if wall is not None:
            # against the mean of the calibrations just before and after
            # the pass, so that drift within the run cancels pass by pass
            walls.append(wall)
            rel.append(wall / ((calib[n] + calib[n + 1]) / 2.0))
        n += 1
    return {"wall_rel": rel, "setup_s": setup, "peak_rss_mb": peak_rss,
            "wall_s": walls, "setup_raw_s": setup_raw, "calib_s": calib + c}


def run_traced(cli, wl, calls, in_dir, work, seconds, judge):
    """Alternate untraced and traced passes; the untraced ones give the
    tracing overhead.  Returns (layer metrics, absent probes, expected
    spans that never fired, the trace document)."""
    tracer = Tracer()
    timed_pass(cli, calls, in_dir, work / "pass", judge, "warm-up pass")
    plain, traced = [], []
    n = 0
    t_start = time.perf_counter()
    while n == 0 or time.perf_counter() - t_start < seconds:
        wall = timed_pass(cli, calls, in_dir, work / "pass", judge, f"untraced pass {n}")
        if wall is not None:
            plain.append(wall)
        wall = timed_pass(cli, calls, in_dir, work / "pass", judge, f"traced pass {n}", tracer, n)
        if wall is not None:
            traced.append(wall)
        n += 1

    layer = tracer.summary()
    if plain and traced:
        layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    fired = tracer.fired()
    silent = [s for s in EXPECTED_SPANS[wl.name] if s not in fired and s not in tracer.absent]
    doc = {
        "untraced_wall_s": plain,
        "traced_wall_s": traced,
        "absent": tracer.absent,
        "silent": silent,
        "summary": layer,
        "per_pass": {str(k): v for k, v in tracer.pass_metrics().items()},
        "spans": tracer.spans_json(),
    }
    return layer, tracer.absent, silent, doc


def _sources(metric):
    if metric in DERIVED_SOURCES:
        return DERIVED_SOURCES[metric]
    if metric.startswith("trace."):
        return ()
    return (metric.rsplit(".", 1)[0],)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_workload(cli, spec, env, name, seed, seconds, trace):
    """Run one workload, print its report, and return the result object."""
    wl = WORKLOADS[name]()
    work = HERE / "_work" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    in_dir = work / "inputs"
    in_dir.mkdir(parents=True)
    calls = wl.write_inputs(in_dir, seed)
    judge = Judge(wl)

    print(f"workload {wl.name}: seed {seed} (inputs {'depend on' if wl.seeded else 'ignore'} it), "
          f"{len(calls)} CLI call(s) per pass, trace {trace}")
    spans_ok = True
    metrics = {}
    if trace == 0:
        samples = run_untraced(cli, calls, in_dir, work, seconds, judge)
        bounded = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        printed = {"wall_s": "s", "setup_raw_s": "s", "calib_s": "s"}
        for name, unit in {**bounded, **printed}.items():
            vals = samples.get(name)
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            if name in bounded:
                metrics[name] = {"value": med, "unit": unit}
            print(f"  {name:<12} {med:.6g} {unit}  "
                  f"(q1 {q1:.6g}, q3 {q3:.6g}, min {min(vals):.6g}, max {max(vals):.6g}, n={len(vals)})")
        # deterministic quality figures: printed, not bounded (see README)
        ref = [c.ref_err for c in judge.checks]
        print(f"  {'ref_err':<12} {_fmt(max(ref) if ref else math.inf)} -  (max over {len(ref)} checked passes)")
        pinned = [c.pinned_frac for c in judge.checks if c.pinned_frac is not None]
        if pinned:
            print(f"  {'pinned_frac':<12} {_fmt(min(pinned))} -")
        uncovered = [c.uncovered_frac for c in judge.checks if c.uncovered_frac is not None]
        if uncovered:
            print(f"  {'covering.uncovered_frac':<12} {_fmt(max(uncovered))} -")
    else:
        layer, absent, silent, doc = run_traced(cli, wl, calls, in_dir, work, seconds, judge)
        missing = []
        for m in spec["per_layer"]:
            src = _sources(m["name"])
            if src and all(s in absent for s in src):
                missing.append(m["name"])
                continue
            metrics[m["name"]] = {"value": layer.get(m["name"], 0), "unit": m["unit"]}
            print(f"  {m['name']:<48} {_fmt(metrics[m['name']]['value'])} {m['unit']}")
        if missing:
            print(f"  absent (function no longer in the program): {', '.join(missing)}")
        if silent:
            spans_ok = False
            print(f"FAILED span check: expected spans never fired: {silent}", file=sys.stderr)
        trace_file = work / "trace.json"
        trace_file.write_text(json.dumps(
            {"workload": wl.name, "seed": seed, "environment": env, **doc}) + "\n")
        print(f"  spans written to {trace_file.relative_to(ROOT)}")

    print(f"  {'ops_failed':<12} {judge.failed}/{judge.attempted} = "
          f"{judge.failed / max(judge.attempted, 1):.6g} -")
    return {
        "correct": judge.failed == 0 and spans_ok,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all four in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    try:
        cli = import_cli()
    except ImportError as e:
        print(f"error: cannot import the program from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    env = environment()
    print(f"environment: {json.dumps(env, sort_keys=True)}")

    if args.workload != "all":
        result = run_workload(cli, spec, env, args.workload, args.seed, seconds, args.trace)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    results = {
        name: run_workload(cli, spec, env, name, args.seed, seconds, args.trace)
        for name in WORKLOADS
    }
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
