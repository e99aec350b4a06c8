"""Command-line entry point.

Four subcommands sharing one scenario-file convention::

    maxplus conjugate --config scenario.json [--out-dir DIR] [--summary]
    maxplus covering  --config scenario.json ...
    maxplus ldp       --config scenario.json ...
    maxplus merton    --config scenario.json [--seed N] ...

A scenario file is a JSON object with a ``kind`` field matching the
subcommand plus the kind-specific payload; any other top level, and
unknown fields, are rejected.  ``merton`` alone takes ``--seed``, which
overrides the scenario's seed; the other subcommands draw no random
numbers.  Exit status: 0 on success/PASS, 2 on a FAIL verdict, 3 on
validation errors.  Re-running a scenario with the same seed writes
byte-identical artifacts.
"""

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .covering import verdict as covering_verdict
from .conjugacy import WindowSides, conjugate, legendre_fast
from .convergence import gaussian_mean_sequence
from .errors import MaxplusError, ValidationError
from .ldp import BOUNDS_ONLY, FULL_LDP, GartnerInput, pipeline
from .merton import MertonParams, growth_input, tail_rate_experiment
from .serialize import (
    _expect_keys,
    _json_count,
    _json_number,
    _json_object,
    dumps,
    grid_from_json,
    grid_to_json,
    gridfn_from_json,
    gridfn_to_json,
    kernel_from_json,
    num_to_json,
    tokens,
    values_to_json,
)


def _json_bool(value, what):
    if type(value) is not bool:
        raise ValidationError(f"{what} is a JSON boolean, got {json.dumps(value)}")
    return value


def _json_str(value, what):
    if type(value) is not str:
        raise ValidationError(f"{what} is a JSON string, got {json.dumps(value)}")
    return value


def _json_indices(value, what):
    """A nonempty list of positive JSON integers, as a tuple."""
    if not isinstance(value, list) or not value:
        raise ValidationError(
            f"{what} is a nonempty list of positive JSON integers, got {json.dumps(value)}"
        )
    return tuple(_json_count(v, f"{what} entry", 1) for v in value)


def _json_nodes(value, size, what):
    """A list of JSON integers in [0, size), as an index array."""
    if not isinstance(value, list):
        raise ValidationError(f"{what} is a list of node indices, got {json.dumps(value)}")
    for v in value:
        if _json_count(v, f"{what} entry", 0) >= size:
            raise ValidationError(f"{what} entry {v} is not below the {size} X-nodes")
    return np.asarray(value, dtype=np.int64)


_XI_NODES = 100_000  # far above the 801 fractions of acceptance criterion 8


def _xi_grid(obj, what):
    """The fraction grid xi_min, xi_min + xi_step, ... up to xi_max.

    The nodes are np.arange's.  xi_max is a node when it lies on the
    grid up to the rounding of xi_min, xi_max and xi_step, at any
    magnitude.  At most ``_XI_NODES`` nodes; an empty range gives an
    empty grid.
    """
    lo, hi, step = (
        _json_number(obj[k], f"{what}: {k}") for k in ("xi_min", "xi_max", "xi_step")
    )
    if not step > 0:
        raise ValidationError(f"{what}: xi_step must be positive, got {step}")
    with np.errstate(over="ignore"):
        # np.arange's node count before its ceil, and xi_max's place on the grid
        span = (np.float64(hi) + 1e-12 - lo) / step
        at = (np.float64(hi) - lo) / step
    n = int(np.ceil(span)) if np.isfinite(span) and span > 0 else 0
    # beside a large |xi_min| or |xi_max| the 1e-12 rounds away: an xi_max
    # within 8 roundoff units (2^-53) of its three fields of node n is a node
    if abs(at - n) <= 8 * 2.0**-53 * (abs(lo) + abs(hi)) / step:
        n += 1
    if not (np.isfinite(span) and n <= _XI_NODES):
        raise ValidationError(
            f"{what}: (xi_max - xi_min) / xi_step = {at:.6g}, "
            f"not a count of at most {_XI_NODES} nodes"
        )
    if n < 2:
        # beside a huge xi_min even half a step can round away from the stop
        return np.full(n, lo, dtype=np.float64)
    # a node's value depends on xi_min and xi_step alone, not on the stop;
    # a stop past both the former one and node n - 1 keeps the former
    # grid as a prefix and builds the n nodes counted
    stop = max(hi + 1e-12, lo + (n - 0.5) * step)
    return np.arange(lo, min(stop, sys.float_info.max), step)[:n]


def _merton_params(obj, what):
    """MertonParams from the r, alpha, sigma and optional w0 fields."""
    return MertonParams(
        **{k: _json_number(obj[k], f"{what}: {k}") for k in ("r", "alpha", "sigma")},
        w0=_json_number(obj.get("w0", 1.0), f"{what}: w0"),
    )


def _load_scenario(path, kind):
    def constant(token):  # Python's json reads these tokens, which JSON has not
        raise ValidationError(
            f'{path}: {token} is not a JSON number; the infinities are "+inf" and "-inf"'
        )

    try:
        with open(path, encoding="utf-8") as fh:  # JSON text is UTF-8 (RFC 8259, 8.1)
            obj = json.load(fh, parse_constant=constant)
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: line {e.lineno}, col {e.colno}: {e.msg}")
    except UnicodeDecodeError as e:
        raise ValidationError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}")
    except RecursionError:
        raise ValidationError(f"{path}: nests deeper than the JSON reader goes")
    _json_object(obj, f"{path}: a scenario")
    if obj.get("kind") != kind:
        raise ValidationError(
            f"{path}: scenario kind {obj.get('kind')!r} does not match subcommand {kind!r}"
        )
    return obj


def _json_side(value, dim, what):
    """A closed-side flag per axis: one JSON boolean, or a list of dim."""
    if type(value) is bool:
        return (value,) * dim
    if not isinstance(value, list) or len(value) != dim:
        raise ValidationError(
            f"{what} is a JSON boolean or a list of {dim} of them, got {json.dumps(value)}"
        )
    return tuple(_json_bool(v, f"{what} entry") for v in value)


def _sides_from(obj, dim, what, prefix=""):
    """WindowSides from the ``{prefix}closed_below/above`` fields."""
    return WindowSides(*(
        _json_side(obj.get(f"{prefix}closed_{s}", False), dim,
                   f"{what}: {prefix}closed_{s}")
        for s in ("below", "above")
    ))


def _write(out_dir, name, text):
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


def _run_conjugate(obj, out_dir, summary):
    _expect_keys(
        obj,
        {"kind", "x_grid", "y_grid", "kernel", "f"},
        "conjugate scenario",
        optional={"fast", "out"},
    )
    xg = grid_from_json(obj["x_grid"])
    yg = grid_from_json(obj["y_grid"])
    kernel = kernel_from_json(obj.pop("kernel"), xg, yg)
    f = gridfn_from_json(obj["f"])
    fast = _json_bool(obj.get("fast", False), "conjugate scenario: fast")
    name = _json_str(obj.get("out", "conjugate.json"), "conjugate scenario: out")
    if fast and kernel.kind == "bilinear" and xg.dim == 1:
        out = legendre_fast(f, kernel)
    else:
        out = conjugate(f, kernel)
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
        {"kind", "x_grid", "y_grid", "kernel", "g"},
        "covering scenario",
        optional={"xprime", "config", "out"},
    )
    xg = grid_from_json(obj["x_grid"])
    yg = grid_from_json(obj["y_grid"])
    kernel = kernel_from_json(obj.pop("kernel"), xg, yg)
    g = gridfn_from_json(obj["g"])
    xprime = None
    if "xprime" in obj:
        xprime = _json_nodes(obj["xprime"], xg.size, "covering scenario: xprime")
    out_name = _json_str(obj.get("out", "covering.json"), "covering scenario: out")
    cfg_obj = obj.get("config", {})
    _expect_keys(
        cfg_obj,
        (),
        "covering config",
        optional={"assume_finite_exact", "closed_below", "closed_above"},
    )
    what = "covering config"
    discrete = _json_bool(
        cfg_obj.get("assume_finite_exact", False), f"{what}: assume_finite_exact"
    )
    sides = _sides_from(cfg_obj, yg.dim, what)
    window = sorted({"closed_below", "closed_above"} & set(cfg_obj))
    if discrete and window:
        raise ValidationError(
            f"{what}: {', '.join(window)} cannot be set with assume_finite_exact, "
            "which samples no window"
        )
    v = covering_verdict(g, kernel, xprime, discrete=discrete, sides=sides)
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
    path = _write(out_dir, out_name, dumps(payload))
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


def _ldp_sequences(obj, xg, yg):
    """The form sequences of an ldp scenario's ``sequence`` object."""
    seq_obj = _json_object(obj["sequence"], "ldp scenario: sequence")
    kind = seq_obj.get("type")
    if kind == "gaussian_mean":
        _expect_keys(seq_obj, {"type", "n_list"}, "sequence")
        return (gaussian_mean_sequence(yg, _json_indices(seq_obj["n_list"], "sequence: n_list")),)
    if kind == "merton":
        _expect_keys(
            seq_obj,
            {"type", "params", "horizons", "xi_min", "xi_max", "xi_step"},
            "sequence",
            optional={"truncate_at"},
        )
        prm = seq_obj["params"]
        _expect_keys(prm, {"r", "alpha", "sigma"}, "params", optional={"w0"})
        p = _merton_params(prm, "params")
        xi = _xi_grid(seq_obj, "sequence")
        trunc = None
        if "truncate_at" in seq_obj:
            trunc = _json_number(seq_obj["truncate_at"], "sequence: truncate_at")
        horizons = _json_indices(seq_obj["horizons"], "sequence: horizons")
        return growth_input(p, xg, yg, xi, horizons, clip_floor=trunc).sequences
    raise ValidationError(f"unknown sequence type {kind!r}")


def _run_ldp(obj, out_dir, summary):
    _expect_keys(
        obj,
        {"kind", "x_grid", "y_grid", "kernel", "sequence"},
        "ldp scenario",
        optional={"mode", "closed_below", "closed_above",
                  "x_closed_below", "x_closed_above", "sup_edge_to_inf",
                  "out_json", "out_csv"},
    )
    xg = grid_from_json(obj["x_grid"])
    yg = grid_from_json(obj["y_grid"])
    kernel = kernel_from_json(obj.pop("kernel"), xg, yg)
    what = "ldp scenario"
    mode = obj.get("mode", "limit-asserted")
    sides = _sides_from(obj, yg.dim, what)
    x_sides = _sides_from(obj, xg.dim, what, prefix="x_")
    sup_edge_to_inf = _json_bool(
        obj.get("sup_edge_to_inf", False), f"{what}: sup_edge_to_inf"
    )
    json_name = _json_str(obj.get("out_json", "ldp.json"), f"{what}: out_json")
    csv_name = _json_str(obj.get("out_csv", "ldp.csv"), f"{what}: out_csv")

    ginput = GartnerInput(_ldp_sequences(obj, xg, yg), kernel, mode)
    out = pipeline(ginput, sides=sides, x_sides=x_sides, sup_edge_to_inf=sup_edge_to_inf)

    # the rate values are rendered once, for the JSON and the CSV alike
    rate = tokens(values_to_json(out.rate_lower.flat))
    payload = {
        "verdict": out.verdict,
        "log_moment": gridfn_to_json(out.log_moment),
        "rate_lower": {"grid": grid_to_json(out.rate_lower.grid), "values": rate},
        "pinned": out.pinned.tolist(),
        "assumptions": {
            "coercive": out.assumptions.coercive,
            "upper_coercive": out.assumptions.upper_coercive,
            "dual_superlevel_compact": out.assumptions.dual_superlevel_compact,
            "quasicontinuous_dual": out.assumptions.quasicontinuous_dual,
            "tightness_holds": out.tightness.holds,
            "tightness_witness": out.tightness.witness,
        },
        "covered": out.covering.covered,
        "minimal_top": out.covering.minimal_top,
    }
    jpath = _write(out_dir, json_name, dumps(payload))
    in_pinned = np.zeros(yg.size, dtype=np.int64)
    in_pinned[out.pinned] = 1
    rows = "".join(map("{!r},{},{}\n".format, yg.coords.tolist(), rate, in_pinned.tolist()))
    # the only quotes are those of the "+inf" and "-inf" tokens: the CSV has none
    cpath = _write(out_dir, csv_name, ("y,rate_lower,in_pinned\n" + rows).replace('"', ""))
    print(f"verdict={out.verdict} -> {jpath}, {cpath}")
    if summary:
        print(
            f"covered={out.covering.covered} minimal_top={out.covering.minimal_top} "
            f"pinned={out.pinned.size}/{yg.size} tightness={out.tightness.holds}"
        )
    return 0 if out.verdict in (FULL_LDP, BOUNDS_ONLY) else 2


def _run_merton(obj, out_dir, summary, seed_override=None):
    _expect_keys(
        obj,
        {"kind", "r", "alpha", "sigma", "c", "T", "paths", "xi_min", "xi_max",
         "xi_step"},
        "merton scenario",
        optional={"w0", "out", "seed"},
    )
    p = _merton_params(obj, "merton scenario")
    seed = _json_count(
        seed_override if seed_override is not None else obj.get("seed", 0),
        "merton scenario: seed", 0,
    )
    name = _json_str(obj.get("out", "merton_tailrate.csv"), "merton scenario: out")
    horizons = obj["T"]
    if not isinstance(horizons, list):
        raise ValidationError(f"merton scenario: T is a list, got {json.dumps(horizons)}")
    report = tail_rate_experiment(
        c=_json_number(obj["c"], "merton scenario: c"),
        p=p,
        horizons=[_json_number(T, "merton scenario: T entry") for T in horizons],
        n_paths=_json_count(obj["paths"], "merton scenario: paths", 1),
        seed=seed,
        xi_grid=_xi_grid(obj, "merton scenario"),
    )
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


@functools.cache
def _parser():
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="maxplus",
        description="Max-plus conjugacies, coverings, and rate-function identification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("conjugate", "covering", "ldp", "merton"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out-dir", default=".")
        sp.add_argument("--summary", action="store_true")
    # the loop ends on merton, the one subcommand that draws random numbers
    sp.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    try:
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
