"""JSON wire formats shared by the library and the CLI.

Extended reals serialize as JSON numbers, with the strings "-inf" and
"+inf" for the infinities.  Grid functions are
``{"grid": {"lo", "hi", "n", "dim"}, "values": [...]}`` with values in
row-major node order; kernels are ``{"type": "bilinear"}`` or
``{"type": "table", "rows": [[...]]}``.  Dumping is deterministic
(sorted keys, repr floats), so identical objects produce identical
bytes.
"""

import itertools
import json
import math

import numpy as np

from .errors import ValidationError
from .forms import (
    EmpiricalForm,
    LogIntegralForm,
    MaxPlusForm,
    SupFamilyForm,
)
from .grids import Grid, GridFn
from .conjugacy import Kernel


def num_to_json(v):
    v = float(v)
    if math.isinf(v):
        return "+inf" if v > 0 else "-inf"
    if math.isnan(v):
        raise ValidationError("NaN cannot be serialized")
    return v


def values_to_json(arr):
    return [num_to_json(v) for v in np.asarray(arr).reshape(-1)]


_INFINITIES = {"+inf": math.inf, "-inf": -math.inf}


def values_from_json(items, what="values"):
    """A JSON list of extended reals as one float64 array.

    Numbers and the strings "+inf"/"-inf" are converted in one pass;
    anything else (another string, null, a boolean, a nested list, an
    integer beyond the float range, NaN) is rejected.
    """
    if type(items) is not list:
        raise ValidationError(f"{what}: a JSON list of numbers, got {type(items).__name__}")
    try:
        vals = [_INFINITIES[v] if type(v) is str else v for v in items]
    except KeyError as e:
        raise ValidationError(f"unknown numeric literal {e.args[0]!r}") from None
    odd = set(map(type, vals)) - {float, int}
    if odd:
        bad = next(v for v in vals if type(v) in odd)
        raise ValidationError(f"{what}: {json.dumps(bad)} is not a number")
    try:
        arr = np.fromiter(vals, dtype=np.float64, count=len(vals))
    except OverflowError:
        raise ValidationError(f"{what}: an integer beyond the float range") from None
    if np.isnan(arr).any():
        raise ValidationError("NaN is not an extended real")
    return arr


def grid_to_json(grid):
    if grid.dim == 1:
        return {"lo": grid.lo[0], "hi": grid.hi[0], "n": grid.n[0], "dim": 1}
    return {"lo": list(grid.lo), "hi": list(grid.hi), "n": list(grid.n), "dim": 2}


def grid_from_json(obj):
    _expect_keys(obj, {"lo", "hi", "n", "dim"}, "grid")
    dim = int(obj["dim"])
    if dim == 1:
        return Grid.line(obj["lo"], obj["hi"], obj["n"])
    return Grid.box(obj["lo"], obj["hi"], obj["n"])


def gridfn_to_json(fn):
    return {"grid": grid_to_json(fn.grid), "values": values_to_json(fn.values)}


def gridfn_from_json(obj, tag="plain"):
    _expect_keys(obj, {"grid", "values"}, "grid function")
    grid = grid_from_json(obj["grid"])
    return GridFn(grid, values_from_json(obj["values"]), tag)


def kernel_to_json(k):
    if k.kind == "bilinear":
        return {"type": "bilinear"}
    rows = [
        [num_to_json(v) for v in row]
        for row in np.asarray(k.table)
    ]
    return {"type": "table", "rows": rows}


def kernel_from_json(obj, x_grid, y_grid):
    if obj.get("type") == "bilinear":
        _expect_keys(obj, {"type"}, "kernel")
        return Kernel.bilinear(x_grid, y_grid)
    if obj.get("type") == "table":
        _expect_keys(obj, {"type", "rows"}, "kernel")
        rows = obj["rows"]
        if type(rows) is not list or not all(type(r) is list for r in rows):
            raise ValidationError("kernel: rows is a JSON list of lists")
        if len({len(r) for r in rows}) > 1:
            raise ValidationError("kernel: rows differ in length")
        flat = values_from_json(list(itertools.chain.from_iterable(rows)), "kernel rows")
        ncols = len(rows[0]) if rows else 0
        return Kernel.from_table(x_grid, y_grid, flat.reshape(len(rows), ncols))
    raise ValidationError(f"unknown kernel type {obj.get('type')!r}")


def form_to_json(form):
    if isinstance(form, MaxPlusForm):
        return {"variant": "maxplus", "density": gridfn_to_json(form.density)}
    if isinstance(form, LogIntegralForm):
        return {
            "variant": "log_integral",
            "epsilon": form.epsilon,
            "grid": grid_to_json(form.weight_grid),
            "weights": values_to_json(form.weights),
        }
    if isinstance(form, SupFamilyForm):
        return {"variant": "sup", "members": [form_to_json(m) for m in form.members]}
    if isinstance(form, EmpiricalForm):
        out = {
            "variant": "empirical",
            "epsilon": form.epsilon,
            "samples": values_to_json(form.samples),
            "weights": values_to_json(form.sample_weights),
        }
        if form.lookup_grid is not None:
            out["grid"] = grid_to_json(form.lookup_grid)
        return out
    raise ValidationError(f"cannot serialize form {type(form).__name__}")


def form_from_json(obj):
    variant = obj.get("variant")
    if variant == "maxplus":
        _expect_keys(obj, {"variant", "density"}, "form")
        return MaxPlusForm(gridfn_from_json(obj["density"], tag="lsc"))
    if variant == "log_integral":
        _expect_keys(obj, {"variant", "epsilon", "grid", "weights"}, "form")
        grid = grid_from_json(obj["grid"])
        return LogIntegralForm(
            weight_grid=grid,
            epsilon=float(obj["epsilon"]),
            weights=values_from_json(obj["weights"]),
        )
    if variant == "sup":
        _expect_keys(obj, {"variant", "members"}, "form")
        return SupFamilyForm(tuple(form_from_json(m) for m in obj["members"]))
    if variant == "empirical":
        _expect_keys(obj, {"variant", "epsilon", "samples", "weights", "grid"},
                     "form", optional={"weights", "grid"})
        grid = grid_from_json(obj["grid"]) if "grid" in obj else None
        weights = values_from_json(obj["weights"]) if "weights" in obj else None
        return EmpiricalForm(
            epsilon=float(obj["epsilon"]),
            samples=values_from_json(obj["samples"]),
            sample_weights=weights,
            lookup_grid=grid,
        )
    raise ValidationError(f"unknown form variant {variant!r}")


def empirical_form_from_csv(path, epsilon, lookup_grid=None):
    """Load an empirical form from a one-column CSV of samples."""
    samples = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                samples.append(float(line.split(",")[0]))
    return EmpiricalForm(
        epsilon=epsilon, samples=np.array(samples), lookup_grid=lookup_grid
    )


def _expect_keys(obj, allowed, what, optional=frozenset()):
    extra = set(obj) - set(allowed)
    missing = set(allowed) - set(obj) - set(optional)
    if extra:
        raise ValidationError(f"{what}: unknown fields {sorted(extra)}")
    if missing:
        raise ValidationError(f"{what}: missing fields {sorted(missing)}")


def dumps(obj):
    """Deterministic JSON encoding (sorted keys, repr floats)."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
