"""Stable log-scale normal-distribution helpers.

``log_ndtr`` and ``ndtr`` are scipy's, imported at their first call so
that importing the package loads numpy only.  The first call rebinds
both names in this module to scipy's ufuncs; later calls, and callers
that look them up as ``_normal.log_ndtr``, reach scipy directly.
"""

import numpy as np

from .errors import ValidationError
from .forms import logsumexp_weighted
from .grids import NEG_INF


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
    """log P(a <= Z <= b) for standard normal Z, stable in both tails."""
    a = float(a)
    b = float(b)
    if not b > a:
        return NEG_INF
    if a == NEG_INF and b == np.inf:
        return 0.0
    with np.errstate(divide="ignore"):
        if a >= 0.0:
            la = log_ndtr(-a)
            lb = log_ndtr(-b)
            return float(la + np.log1p(-np.exp(lb - la)))
        if b <= 0.0:
            la = log_ndtr(a)
            lb = log_ndtr(b)
            return float(lb + np.log1p(-np.exp(la - lb)))
    # interval straddles 0: the probability is far from underflow
    return float(np.log(ndtr(b) - ndtr(a)))


def log_gauss_mass(intervals, mu=0.0, sd=1.0):
    """log P(X in union of intervals) for X ~ N(mu, sd^2).

    ``intervals`` is an iterable of (lo, hi) pairs, disjoint up to
    endpoints; sd == 0 degenerates to a point mass at mu.
    """
    if sd == 0.0:
        # a shared endpoint holding mu counts its mass once
        return 0.0 if any(lo <= mu <= hi for lo, hi in intervals) else NEG_INF
    return logsumexp_weighted(
        [log_gauss_interval((lo - mu) / sd, (hi - mu) / sd) for lo, hi in intervals]
    )


def _interp_extrapolating(coords, values, t):
    """Piecewise-linear interpolation whose end segments extend outward."""
    if coords.size == 1:
        return float(values[0])
    j = int(np.clip(np.searchsorted(coords, t) - 1, 0, coords.size - 2))
    h = coords[j + 1] - coords[j]
    s = (values[j + 1] - values[j]) / h
    return float(values[j] + s * (t - coords[j]))


def log_mgf_piecewise_linear(coords, values, scale, mu, sd, state_floor=None):
    """(1/scale) log E[exp(scale * phi(X))] for X ~ N(mu, sd^2).

    ``phi`` is the piecewise-linear interpolant of (coords, values) with
    its end segments extended to infinity; ``state_floor`` composes the
    state with max(X, floor) first.  Values must be finite.
    """
    coords = np.asarray(coords, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValidationError("piecewise-linear log-mgf needs finite values")
    if sd == 0.0:
        state = mu if state_floor is None else max(mu, state_floor)
        return _interp_extrapolating(coords, values, state)
    if coords.size == 1:
        return float(values[0])

    h = np.diff(coords)
    slopes = np.diff(values) / h
    icepts = values[:-1] - slopes * coords[:-1]
    segs = [(NEG_INF, coords[0], slopes[0], icepts[0])]
    for j in range(slopes.size):
        segs.append((coords[j], coords[j + 1], slopes[j], icepts[j]))
    segs.append((coords[-1], np.inf, slopes[-1], icepts[-1]))

    terms = []
    if state_floor is not None:
        a0 = float(state_floor)
        segs = [
            (max(lo, a0), hi, s, q) for lo, hi, s, q in segs if hi >= a0
        ]
        terms.append(
            scale * _interp_extrapolating(coords, values, a0)
            + log_ndtr((a0 - mu) / sd)
        )
    for lo, hi, s, q in segs:
        shift = mu + scale * s * sd * sd
        za = NEG_INF if lo == NEG_INF else (lo - shift) / sd
        zb = np.inf if hi == np.inf else (hi - shift) / sd
        terms.append(
            scale * (q + s * mu) + scale * scale * s * s * sd * sd / 2.0
            + log_gauss_interval(za, zb)
        )
    return float(logsumexp_weighted(terms) / scale)


def mask_runs(grid, mask):
    """Coordinate intervals of the maximal contiguous runs of a 1-D mask."""
    padded = np.zeros(np.size(mask) + 2, dtype=bool)
    padded[1:-1] = np.asarray(mask, dtype=bool).reshape(-1)
    # a run starts and ends where the padded mask changes (its np.diff)
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    c = grid.coords
    return list(zip(c[edges[::2]].tolist(), c[edges[1::2] - 1].tolist()))
