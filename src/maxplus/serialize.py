"""JSON wire formats shared by the library and the CLI.

Extended reals serialize as JSON numbers, with the strings "-inf" and
"+inf" for the infinities.  Grid functions are
``{"grid": {"lo", "hi", "n", "dim"}, "values": [...]}`` with values in
row-major node order; kernels are ``{"type": "bilinear"}`` or
``{"type": "table", "rows": [[...]]}``.  Dumping is deterministic
(sorted keys, repr floats), so identical objects produce identical
bytes: the text of ``json.dumps(obj, sort_keys=True, indent=2)``, which
``dumps`` writes through the C encoder (see there).  In scenario files
the infinities are spelled only as those strings; a number token past
the float range, which json reads as an infinity, is rejected.
"""

import functools
import json
import math

import numpy as np

from .errors import ValidationError
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
    """A float array as a JSON list: numbers, with "+inf"/"-inf" for the infinities."""
    a = np.asarray(arr, dtype=np.float64).reshape(-1)
    if np.isnan(a).any():
        raise ValidationError("NaN cannot be serialized")
    out = a.tolist()
    for i in np.flatnonzero(np.isinf(a)).tolist():
        out[i] = "+inf" if out[i] > 0 else "-inf"
    return out


_BEYOND = object()  # a JSON number past the float range, which json reads as ±inf

# what a JSON list item reads as, by one dict lookup: the infinity strings
# as floats, an infinite number as _BEYOND, anything else as itself
_READS = {"+inf": math.inf, "-inf": -math.inf, math.inf: _BEYOND, -math.inf: _BEYOND}


def values_from_json(items, what="values"):
    """A JSON list of extended reals as one float64 array.

    Numbers and the strings "+inf"/"-inf" are converted in one pass;
    anything else (another string, null, a boolean, a nested list, a
    number beyond the float range, NaN) is rejected.  The infinities are
    spelled as strings only: a number token past the float range, such as
    1e400, reads as an infinite float, and the lookup that converts the
    strings flags it.
    """
    if type(items) is not list:
        raise ValidationError(f"{what}: a JSON list of numbers, got {type(items).__name__}")
    try:
        vals = list(map(_READS.get, items, items))
        odd = set(map(type, vals)) - {float, int}
    except TypeError:  # an unhashable item: a nested list or an object
        vals, odd = items, set(map(type, items)) - {float, int, str}
    if odd:
        bad = next(v for v in vals if type(v) in odd)
        if bad is _BEYOND:
            raise ValidationError(f"{what}: a number beyond the float range")
        if type(bad) is str:
            raise ValidationError(f"unknown numeric literal {bad!r}")
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
    """A Grid from ``{"lo", "hi", "n", "dim"}``.

    ``dim`` is the JSON integer 1 or 2.  Per axis, ``lo`` and ``hi`` are
    finite JSON numbers and ``n`` a JSON integer of at least 1: scalars
    for dim 1, lists of two for dim 2.
    """
    _expect_keys(obj, {"lo", "hi", "n", "dim"}, "grid")
    dim = obj["dim"]
    if type(dim) is not int or dim not in (1, 2):
        raise ValidationError(f"grid: dim is the JSON integer 1 or 2, got {json.dumps(dim)}")

    def per_axis(key, read):
        value = obj[key]
        if dim == 1:
            return read(value, f"grid: {key}")
        if type(value) is not list or len(value) != 2:
            raise ValidationError(
                f"grid: {key} is a list of 2 for dim 2, got {json.dumps(value)}"
            )
        return tuple(read(v, f"grid: {key} entry") for v in value)

    lo, hi = per_axis("lo", _json_number), per_axis("hi", _json_number)
    n = per_axis("n", lambda v, what: _json_count(v, what, 1))
    if dim == 1:
        return Grid.line(lo, hi, n)
    return Grid.box(lo, hi, n)


def gridfn_to_json(fn):
    return {"grid": grid_to_json(fn.grid), "values": values_to_json(fn.values)}


def gridfn_from_json(obj):
    _expect_keys(obj, {"grid", "values"}, "grid function")
    grid = grid_from_json(obj["grid"])
    return GridFn(grid, values_from_json(obj["values"]))


def kernel_from_json(obj, x_grid, y_grid):
    """A Kernel from ``{"type": "bilinear"}`` or ``{"type": "table", "rows": [[...]]}``.

    A table is decoded row by row into one float64 array, each row through
    the checks of ``values_from_json``.  A caller that hands ``obj`` over
    (``d.pop("kernel")``) lets the parsed rows go before the Kernel copies
    the table: they take several times the table's own size.
    """
    kind = _json_object(obj, "kernel").get("type")
    if kind == "bilinear":
        _expect_keys(obj, {"type"}, "kernel")
        return Kernel.bilinear(x_grid, y_grid)
    if kind == "table":
        _expect_keys(obj, {"type", "rows"}, "kernel")
        rows = obj["rows"]
        obj = None  # a handed-over obj goes now, leaving rows the one reference
        if type(rows) is not list or not all(type(r) is list for r in rows):
            raise ValidationError("kernel: rows is a JSON list of lists")
        if len({len(r) for r in rows}) > 1:
            raise ValidationError("kernel: rows differ in length")
        table = np.empty((len(rows), len(rows[0]) if rows else 0))
        for i, row in enumerate(rows):
            table[i] = values_from_json(row, "kernel rows")
        rows = row = None  # the parsed rows go before the Kernel copies the table
        return Kernel.from_table(x_grid, y_grid, table)
    raise ValidationError(f"unknown kernel type {kind!r}")


def _json_number(value, what):
    """A finite JSON number, returned as given."""
    finite = False
    if type(value) in (int, float):
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            pass
    if not finite:
        raise ValidationError(f"{what} is a finite number, got {json.dumps(value)}")
    return value


def _json_count(value, what, minimum):
    if type(value) is not int:
        raise ValidationError(f"{what} is a JSON integer, got {json.dumps(value)}")
    if value < minimum:
        raise ValidationError(f"{what} must be at least {minimum}, got {value}")
    return value


def _json_object(value, what):
    if not isinstance(value, dict):
        raise ValidationError(f"{what} is a JSON object, got {type(value).__name__}")
    return value


def _expect_keys(obj, required, what, optional=()):
    """Check that the JSON object ``obj`` has every ``required`` field
    and no field that is neither ``required`` nor ``optional``."""
    _json_object(obj, what)
    extra = set(obj) - set(required) - set(optional)
    missing = set(required) - set(obj)
    if extra:
        raise ValidationError(f"{what}: unknown fields {sorted(extra)}")
    if missing:
        raise ValidationError(f"{what}: missing fields {sorted(missing)}")


_SCALARS = frozenset((float, int, str, bool, type(None)))


class Tokens(tuple):
    """A list of JSON scalars rendered once, a token each, so that its text
    can go into more than one artifact; ``dumps`` writes it as that list."""


def tokens(items):
    """The list of JSON scalars ``items`` as Tokens, rendered by one call
    of the C encoder.  A JSON token holds no raw newline, so splitting the
    text at "," + newline is exact."""
    return Tokens(_encoder("\n")(items)[1:-1].split(",\n") if items else ())


def dumps(obj):
    """Deterministic JSON encoding (sorted keys, repr floats).

    The text is ``json.dumps(obj, sort_keys=True, indent=2) + "\n"`` byte
    for byte, for dicts with str keys, lists, tuples and scalars; a Tokens
    is written as the list it renders.  ``json.dumps`` with an indent runs
    the pure-Python encoder, at about 1 us a float.  Here the containers
    are walked in Python, and each one whose items are all scalars is one
    call of the C encoder.  The two encoders write a scalar alike (the
    float and int reprs, the same ASCII string escapes, NaN and Infinity)
    and sort keys alike; ``indent=2`` writes "," + newline + indent
    between items, which is the C call's item separator, and puts each
    bracket of a non-empty container on its own line, which the walk does.
    """
    out = []
    _emit(obj, "\n", out)
    out.append("\n")
    return "".join(out)


@functools.cache
def _encoder(nl):
    """The C encoder's ``encode``, writing the items of a container apart
    by "," + ``nl``, keys sorted."""
    return json.JSONEncoder(separators=("," + nl, ": "), sort_keys=True).encode


def _emit(obj, nl, out):
    """Append the JSON text of ``obj`` to ``out``, with ``nl`` (a newline
    and the indent) starting each line after the first."""
    inner = nl + "  "
    if type(obj) is Tokens:
        out += ("[", inner, ("," + inner).join(obj), nl, "]") if obj else ("[]",)
    elif isinstance(obj, dict) and obj and not set(map(type, obj.values())) <= _SCALARS:
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out += (sep, json.encoder.encode_basestring_ascii(key), ": ")
            _emit(value, inner, out)
            sep = "," + inner
        out += (nl, "}")
    elif isinstance(obj, (list, tuple)) and obj and not set(map(type, obj)) <= _SCALARS:
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _emit(item, inner, out)
            sep = "," + inner
        out += (nl, "]")
    elif isinstance(obj, (dict, list, tuple)) and obj:  # scalar items: one C call
        text = _encoder(inner)(obj)
        out += (text[0], inner, text[1:-1], nl, text[-1])
    else:  # a scalar or an empty container
        out.append(_encoder(nl)(obj))
