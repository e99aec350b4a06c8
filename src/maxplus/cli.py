"""Command-line entry point.

Four subcommands sharing one scenario-file convention::

    maxplus conjugate --config scenario.json [--out-dir DIR] [--summary]
    maxplus covering  --config scenario.json ...
    maxplus ldp       --config scenario.json ...
    maxplus merton    [--config scenario.json | flags] ...

A scenario file is a JSON object with a ``kind`` field matching the
subcommand plus the kind-specific payload; any other top level, and
unknown fields, are rejected.  ``merton`` alone takes ``--seed``, which
overrides the scenario's seed; the other subcommands draw no random
numbers.  Exit status: 0 on success/PASS, 2 on a FAIL verdict, 3 on
validation errors.  Re-running a scenario with the same seed writes
byte-identical artifacts.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .covering import CoveringConfig, verdict as covering_verdict
from .conjugacy import WindowSides, conjugate, legendre_fast
from .convergence import gaussian_mean_sequence
from .errors import MaxplusError, ValidationError
from .ldp import BOUNDS_ONLY, FULL_LDP, GartnerInput, pipeline
from .merton import MertonParams, growth_input, tail_rate_experiment
from .serialize import (
    _expect_keys,
    dumps,
    grid_from_json,
    gridfn_from_json,
    gridfn_to_json,
    kernel_from_json,
    num_to_json,
)


def _json_object(value, what):
    if not isinstance(value, dict):
        raise ValidationError(f"{what} is a JSON object, got {type(value).__name__}")
    return value


def _load_scenario(path, kind):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: line {e.lineno}, col {e.colno}: {e.msg}")
    _json_object(obj, f"{path}: a scenario")
    if obj.get("kind") != kind:
        raise ValidationError(
            f"{path}: scenario kind {obj.get('kind')!r} does not match subcommand {kind!r}"
        )
    return obj


def _sides_from(obj, dim):
    cb = obj.get("closed_below", [False] * dim)
    ca = obj.get("closed_above", [False] * dim)
    if isinstance(cb, bool):
        cb = [cb] * dim
    if isinstance(ca, bool):
        ca = [ca] * dim
    return WindowSides(tuple(cb), tuple(ca))


def _write(out_dir, name, text):
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


def _run_conjugate(obj, out_dir, summary):
    _expect_keys(
        obj,
        {"kind", "x_grid", "y_grid", "kernel", "f", "fast", "out"},
        "conjugate scenario",
        optional={"fast", "out"},
    )
    xg = grid_from_json(obj["x_grid"])
    yg = grid_from_json(obj["y_grid"])
    kernel = kernel_from_json(obj["kernel"], xg, yg)
    f = gridfn_from_json(obj["f"])
    fast = obj.get("fast", False)
    if type(fast) is not bool:
        raise ValidationError(f"conjugate scenario: fast is a JSON boolean, got {json.dumps(fast)}")
    if fast and kernel.kind == "bilinear" and xg.dim == 1:
        out = legendre_fast(f, xg)
    else:
        out = conjugate(f, kernel)
    name = obj.get("out", "conjugate.json")
    path = _write(out_dir, name, dumps(gridfn_to_json(out)))
    if summary:
        v = out.flat
        fin = v[np.isfinite(v)]
        rng = f"[{fin.min():.6g}, {fin.max():.6g}]" if fin.size else "all infinite"
        print(f"conjugate: {out.grid.size} nodes, finite range {rng} -> {path}")
    return 0


def _run_covering(obj, out_dir, summary):
    _expect_keys(
        obj,
        {
            "kind", "x_grid", "y_grid", "kernel", "g", "xprime", "config", "out",
        },
        "covering scenario",
        optional={"xprime", "config", "out"},
    )
    xg = grid_from_json(obj["x_grid"])
    yg = grid_from_json(obj["y_grid"])
    kernel = kernel_from_json(obj["kernel"], xg, yg)
    g = gridfn_from_json(obj["g"])
    xprime = None
    if "xprime" in obj:
        xprime = np.asarray(obj["xprime"], dtype=np.int64)
    cfg_obj = obj.get("config", {})
    _expect_keys(
        cfg_obj,
        {"stencil_radius", "window_margin", "le_tol", "eq_tol",
         "assume_finite_exact", "closed_below", "closed_above"},
        "covering config",
        optional={"stencil_radius", "window_margin", "le_tol", "eq_tol",
                  "assume_finite_exact", "closed_below", "closed_above"},
    )
    cfg = CoveringConfig(
        stencil_radius=int(cfg_obj.get("stencil_radius", 1)),
        window_margin=float(cfg_obj.get("window_margin", 0.1)),
        le_tol=float(cfg_obj.get("le_tol", 0.0)),
        eq_tol=float(cfg_obj.get("eq_tol", 0.0)),
        assume_finite_exact=bool(cfg_obj.get("assume_finite_exact", False)),
        sides=_sides_from(cfg_obj, yg.dim),
    )
    v = covering_verdict(g, kernel, xprime, cfg)
    rep = v.covering
    payload = {
        "existence": v.existence,
        "uniqueness": v.uniqueness,
        "covered": rep.covered,
        "uncovered_nodes": rep.uncovered_nodes.tolist(),
        "piece_index": rep.piece_index.tolist(),
        "alg_essential": rep.alg_essential.tolist(),
        "top_essential": rep.top_essential.tolist(),
        "pinned": rep.pinned.tolist(),
        "minimal_alg": rep.minimal_alg,
        "minimal_top": rep.minimal_top,
        "certificate": {
            "passed": v.certificate.passed,
            "le_margin": num_to_json(v.certificate.le_margin),
            "eq_residual": num_to_json(v.certificate.eq_residual),
            "candidate": gridfn_to_json(v.certificate.candidate),
        },
    }
    path = _write(out_dir, obj.get("out", "covering.json"), dumps(payload))
    print(f"existence={v.existence} uniqueness={v.uniqueness} -> {path}")
    print(f"{'y-node':>8} {'piece (x-nodes)':<28} {'alg':>4} {'top':>4}")
    for y in rep.piece_index[:40]:
        piece = rep.piece(int(y)).tolist()
        text = ",".join(map(str, piece[:8])) + ("..." if len(piece) > 8 else "")
        print(
            f"{y:>8} {text:<28} "
            f"{'*' if y in rep.alg_essential else '':>4} "
            f"{'*' if y in rep.top_essential else '':>4}"
        )
    if rep.piece_index.size > 40:
        print(f"  ... {rep.piece_index.size - 40} more pieces")
    return 0 if v.existence == "YES" else 2


def _build_ldp_input(obj, yg):
    seq_obj = obj["sequence"]  # a JSON object: _run_ldp checked it
    kind = seq_obj.get("type")
    if kind == "gaussian_mean":
        _expect_keys(seq_obj, {"type", "n_list"}, "sequence")
        seq = gaussian_mean_sequence(yg, tuple(seq_obj["n_list"]))
        return [seq], {}
    if kind == "merton":
        _expect_keys(
            seq_obj,
            {"type", "params", "horizons", "xi_min", "xi_max", "xi_step",
             "truncate_at"},
            "sequence",
            optional={"truncate_at"},
        )
        prm = _json_object(seq_obj["params"], "sequence: params")
        _expect_keys(prm, {"r", "alpha", "sigma", "w0"}, "params", optional={"w0"})
        p = MertonParams(
            r=prm["r"], alpha=prm["alpha"], sigma=prm["sigma"],
            w0=prm.get("w0", 1.0),
        )
        xi = np.arange(seq_obj["xi_min"], seq_obj["xi_max"] + 1e-12, seq_obj["xi_step"])
        return p, xi, seq_obj.get("truncate_at"), tuple(seq_obj["horizons"])
    raise ValidationError(f"unknown sequence type {kind!r}")


def _run_ldp(obj, out_dir, summary):
    _expect_keys(
        obj,
        {"kind", "x_grid", "y_grid", "kernel", "sequence", "mode",
         "window_margin", "closed_below", "closed_above", "x_closed_below",
         "x_closed_above", "sup_edge_to_inf", "out_json", "out_csv"},
        "ldp scenario",
        optional={"mode", "window_margin", "closed_below", "closed_above",
                  "x_closed_below", "x_closed_above", "sup_edge_to_inf",
                  "out_json", "out_csv"},
    )
    xg = grid_from_json(obj["x_grid"])
    yg = grid_from_json(obj["y_grid"])
    kernel = kernel_from_json(obj["kernel"], xg, yg)
    mode = obj.get("mode", "limit-asserted")
    sides = _sides_from(obj, yg.dim)
    x_sides = _sides_from(
        {"closed_below": obj.get("x_closed_below", False),
         "closed_above": obj.get("x_closed_above", False)},
        xg.dim,
    )
    margin = float(obj.get("window_margin", 0.1))

    seq_obj = _json_object(obj["sequence"], "ldp scenario: sequence")
    if seq_obj.get("type") == "gaussian_mean":
        seqs, _ = _build_ldp_input(obj, yg)
        ginput = GartnerInput(sequences=tuple(seqs), kernel=kernel, mode=mode)
    else:
        p, xi, trunc, horizons = _build_ldp_input(obj, yg)
        ginput = growth_input(
            p, xg, yg, xi, horizons, clip_floor=trunc, mode=mode
        )
    out = pipeline(
        ginput,
        window_margin=margin,
        sides=sides,
        x_sides=x_sides,
        sup_edge_to_inf=bool(obj.get("sup_edge_to_inf", False)),
    )

    pinned = set(out.pinned.tolist())
    payload = {
        "verdict": out.verdict,
        "log_moment": gridfn_to_json(out.log_moment),
        "rate_lower": gridfn_to_json(out.rate_lower),
        "pinned": sorted(pinned),
        "assumptions": {
            "coercive": out.assumptions.coercive,
            "upper_coercive": out.assumptions.upper_coercive,
            "dual_superlevel_compact": out.assumptions.dual_superlevel_compact,
            "quasicontinuous_dual": out.assumptions.quasicontinuous_dual,
            "tightness_holds": out.assumptions.tightness.holds,
            "tightness_witness": out.assumptions.tightness.witness,
        },
        "covered": out.covering.covered,
        "minimal_top": out.covering.minimal_top,
    }
    jpath = _write(out_dir, obj.get("out_json", "ldp.json"), dumps(payload))
    lines = ["y,rate_lower,in_pinned\n"]
    coords = yg.coords
    rl = out.rate_lower.flat
    for i in range(yg.size):
        v = num_to_json(rl[i])
        v = v if isinstance(v, str) else repr(v)
        lines.append(f"{coords[i]!r},{v},{int(i in pinned)}\n")
    cpath = _write(out_dir, obj.get("out_csv", "ldp.csv"), "".join(lines))
    print(f"verdict={out.verdict} -> {jpath}, {cpath}")
    if summary:
        print(
            f"covered={out.covering.covered} minimal_top={out.covering.minimal_top} "
            f"pinned={len(pinned)}/{yg.size} tightness={out.assumptions.tightness.holds}"
        )
    return 0 if out.verdict in (FULL_LDP, BOUNDS_ONLY) else 2


def _run_merton(obj, out_dir, summary, seed_override=None):
    if "a" in obj:
        raise ValidationError(
            "merton scenario: the tail-rate experiment has no truncation floor `a`"
        )
    _expect_keys(
        obj,
        {"kind", "r", "alpha", "sigma", "w0", "c", "T", "paths", "seed",
         "xi_min", "xi_max", "xi_step", "out"},
        "merton scenario",
        optional={"w0", "out", "seed"},
    )
    p = MertonParams(
        r=obj["r"], alpha=obj["alpha"], sigma=obj["sigma"], w0=obj.get("w0", 1.0)
    )
    seed = int(seed_override if seed_override is not None else obj.get("seed", 0))
    xi = np.arange(obj["xi_min"], obj["xi_max"] + 1e-12, obj["xi_step"])
    report = tail_rate_experiment(
        c=obj["c"],
        p=p,
        horizons=list(obj["T"]),
        n_paths=int(obj["paths"]),
        seed=seed,
        xi_grid=xi,
    )
    name = obj.get("out", "merton_tailrate.csv")
    rows = report.csv_rows()
    text = "".join(",".join(map(str, row)) + "\n" for row in rows)
    path = _write(out_dir, name, text)
    print(
        f"target={report.target!r} oracle_rate={report.oracle_rate!r} "
        f"(xi={report.oracle_xi}) trend={report.trend!r} -> {path}"
    )
    if summary:
        for T, (sup, xi_at) in sorted(report.sup_by_horizon.items()):
            print(f"  T={T:>8}: sup exact tail value {sup:.6f} at xi={xi_at}")
        if report.degenerate:
            print("  threshold below the riskless rate: rate is 0, experiment degenerate")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="maxplus",
        description="Max-plus conjugacies, coverings, and rate-function identification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("conjugate", "covering", "ldp"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out-dir", default=".")
        sp.add_argument("--summary", action="store_true")
    sp = sub.add_parser("merton")
    sp.add_argument("--config", default=None)
    sp.add_argument("--out-dir", default=".")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--summary", action="store_true")
    sp.add_argument("--r", type=float)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--sigma", type=float)
    sp.add_argument("--w0", type=float, default=1.0)
    sp.add_argument("--c", type=float)
    sp.add_argument("--T", type=float, action="append")
    sp.add_argument("--paths", type=int, default=100000)
    sp.add_argument("--xi-min", type=float, default=0.05)
    sp.add_argument("--xi-max", type=float, default=6.0)
    sp.add_argument("--xi-step", type=float, default=0.05)
    sp.add_argument("--a", type=float, default=None,
                    help="rejected: the tail-rate experiment has no truncation floor")
    sp.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    try:
        if args.command == "merton" and args.config is None:
            missing = [k for k in ("r", "alpha", "sigma", "c", "T") if getattr(args, k) is None]
            if missing:
                raise ValidationError(f"merton needs --config or flags: missing {missing}")
            obj = {
                "kind": "merton", "r": args.r, "alpha": args.alpha,
                "sigma": args.sigma, "w0": args.w0, "c": args.c, "T": args.T,
                "paths": args.paths, "seed": args.seed or 0,
                "xi_min": args.xi_min, "xi_max": args.xi_max,
                "xi_step": args.xi_step,
            }
            if args.a is not None:
                obj["a"] = args.a
            if args.out is not None:
                obj["out"] = args.out
            return _run_merton(obj, args.out_dir, args.summary)
        obj = _load_scenario(args.config, args.command)
        if args.command == "conjugate":
            return _run_conjugate(obj, args.out_dir, args.summary)
        if args.command == "covering":
            return _run_covering(obj, args.out_dir, args.summary)
        if args.command == "ldp":
            return _run_ldp(obj, args.out_dir, args.summary)
        return _run_merton(obj, args.out_dir, args.summary, args.seed)
    except (MaxplusError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
