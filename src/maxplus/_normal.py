"""Stable log-scale normal-distribution helpers, as array code.

``log_gauss_interval`` is elementwise, its three branches masks, and
``log_mgf_piecewise_linear`` sums all its segment terms in one
log-sum-exp; both give the bits of the scalar loops in ``tests/oracles.py``.
Where a steep slope overflows the loop's segment terms into NaN, with a
``RuntimeWarning``, ``log_mgf_piecewise_linear`` reads +inf or raises.

``log_ndtr`` and ``ndtr`` are scipy's, imported at their first call so
that importing the package loads numpy only.  The first call rebinds
both names in this module to scipy's ufuncs; later calls, and callers
that look them up as ``_normal.log_ndtr``, reach scipy directly.
"""

import math

import numpy as np

from .errors import ValidationError
from .forms import logsumexp_weighted
from .grids import NEG_INF, POS_INF


def _bind_special():
    global log_ndtr, ndtr
    from scipy.special import log_ndtr, ndtr


def log_ndtr(x):
    _bind_special()
    return log_ndtr(x)


def ndtr(x):
    _bind_special()
    return ndtr(x)


def log_gauss_interval(a, b):
    """log P(a <= Z <= b) for standard normal Z, elementwise; floats give a float."""
    a, b = np.broadcast_arrays(np.asarray(a, np.float64), np.asarray(b, np.float64))
    out = np.full(a.shape, NEG_INF)
    whole = (a == NEG_INF) & (b == np.inf)
    out[whole] = 0.0
    todo = (b > a) & ~whole
    upper = todo & (a >= 0.0)
    tail = upper | (todo & (b <= 0.0))
    # an upper-tail interval [a, b] is the lower-tail one [-b, -a] mirrored
    lo = np.where(upper, -b, a)[tail]
    hi = np.where(upper, -a, b)[tail]
    with np.errstate(divide="ignore"):
        la = log_ndtr(lo)
        lb = log_ndtr(hi)
        out[tail] = lb + np.log1p(-np.exp(la - lb))
    # an interval straddling 0 has a probability far from underflow
    mid = todo & ~tail
    out[mid] = np.log(ndtr(b[mid]) - ndtr(a[mid]))
    return float(out) if out.ndim == 0 else out


def log_gauss_mass(intervals, mu=0.0, sd=1.0):
    """log P(X in union of intervals) for X ~ N(mu, sd^2).

    ``intervals`` is a sequence of (lo, hi) pairs, disjoint up to
    endpoints; sd == 0 degenerates to a point mass at mu.
    """
    lo, hi = np.asarray(intervals, dtype=np.float64).reshape(-1, 2).T
    if sd == 0.0:
        # a shared endpoint holding mu counts its mass once
        return 0.0 if ((lo <= mu) & (mu <= hi)).any() else NEG_INF
    # an endpoint beyond the float range is infinite, as in Python's float division
    with np.errstate(over="ignore"):
        lo, hi = (lo - mu) / sd, (hi - mu) / sd
    return logsumexp_weighted(log_gauss_interval(lo, hi))


def log_mgf_piecewise_linear(coords, values, scale, mu, sd, state_floor=None):
    """(1/scale) log E[exp(scale * phi(X))] for X ~ N(mu, sd^2).

    ``phi`` is the piecewise-linear interpolant of (coords, values) with
    its end segments extended to infinity; ``state_floor`` composes the
    state with max(X, floor) first.  Values must be finite, and scale > 0.
    Where scale times the largest value leaves the float range, phi is
    shifted down by that value and the result up by it: the log-moment of
    phi + c is c plus that of phi.  Values whose spread leaves the float
    range raise ``ValidationError``.  A segment whose slope puts its term
    beyond the float range makes the value +inf; a term that floats cannot
    form at all (such a slope against a shifted mass below the range),
    with no +inf term beside it, raises ``ValidationError``.
    """
    coords = np.asarray(coords, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValidationError("piecewise-linear log-mgf needs finite values")
    if coords.size == 1:
        return float(values[0])
    # the atom: at the state itself when sd == 0, else at the floor
    floor = None if state_floor is None else float(state_floor)
    if sd == 0.0:
        floor = mu if floor is None else max(mu, floor)
    if floor is not None:
        j = int(np.clip(np.searchsorted(coords, floor) - 1, 0, coords.size - 2))
        step = (values[j + 1] - values[j]) / (coords[j + 1] - coords[j])
        atom = values[j] + step * (floor - coords[j])
        if sd == 0.0:
            return float(atom)
    # Python floats: an overflow here reads inf, with no warning
    top = float(values.max())
    if math.isinf(float(scale) * top):
        if math.isinf(top - float(values.min())):
            raise ValidationError(
                "piecewise-linear log-mgf: the values' spread leaves the float range"
            )
        return top + log_mgf_piecewise_linear(
            coords, values - top, scale, mu, sd, state_floor
        )

    slopes = np.diff(values) / np.diff(coords)
    icepts = values[:-1] - slopes * coords[:-1]
    # segment k spans [lo[k], hi[k]]; the first and last extend to infinity
    k = np.clip(np.arange(-1, coords.size), 0, coords.size - 2)
    s, q = slopes[k], icepts[k]
    lo = np.concatenate(([NEG_INF], coords))
    hi = np.concatenate((coords, [np.inf]))
    head = []
    if floor is not None:
        keep = hi >= floor
        lo = np.where(floor > lo, floor, lo)[keep]
        hi, s, q = hi[keep], s[keep], q[keep]
        head = [scale * atom + log_ndtr((floor - mu) / sd)]
    with np.errstate(over="ignore"):
        # a slope too steep for the float range shifts the mass to ±inf
        shift = mu + scale * s * sd * sd
    z = np.stack([lo, hi])
    fin = np.isfinite(z)  # the end segments' infinite bounds stay
    z[fin] = (z[fin] - np.broadcast_to(shift, z.shape)[fin]) / sd
    # each segment's term is its Gaussian mass, shifted by its slope
    with np.errstate(over="ignore", invalid="ignore"):
        # such a slope makes the quadratic part +inf, and the term NaN where
        # that meets a linear part of -inf or a shifted mass below the range
        terms = scale * (q + s * mu)
        terms += scale * scale * s * s * sd * sd / 2.0
        terms += log_gauss_interval(*z)
    if (terms == POS_INF).any():
        # a term beyond the float range outweighs every other, NaN or not
        return POS_INF
    if np.isnan(terms).any():
        raise ValidationError("piecewise-linear log-mgf: a segment term leaves the float range")
    return float(logsumexp_weighted(np.concatenate((head, terms))) / scale)


def mask_runs(grid, mask):
    """Coordinate intervals of the maximal contiguous runs of a 1-D mask."""
    padded = np.zeros(np.size(mask) + 2, dtype=bool)
    padded[1:-1] = np.asarray(mask, dtype=bool).reshape(-1)
    # a run starts and ends where the padded mask changes (its np.diff)
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    c = grid.coords
    return list(zip(c[edges[::2]].tolist(), c[edges[1::2] - 1].tolist()))
