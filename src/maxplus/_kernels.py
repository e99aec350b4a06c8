"""Hot numeric kernels: the max-plus matrix actions and the envelope merge.

The inner loops that dominate runtime (dense max-plus matrix action,
the on-the-fly bilinear actions and the linear-time conjugate transform)
are numpy code.  The matrix actions materialise at most ``_CHUNK_ROWS``
rows of the kernel at a time and evaluate every term with the same
floating-point expression as a one-shot dense evaluation, so the
chunked results are bit-identical to it.

Conventions: values are float64 where -inf is the max-plus zero and is
absorbing for addition; kernels never contain +inf; no NaN ever enters
(callers validate).
"""

import numpy as np

_CHUNK_ROWS = 256  # materialise at most this many kernel rows at a time


def matvec_table(table, neg_f):
    """Row-wise max of table[i, j] + neg_f[j] with -inf absorbing."""
    nx = table.shape[0]
    out = np.empty(nx)
    for lo in range(0, nx, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, nx)
        with np.errstate(invalid="ignore"):
            t = table[lo:hi] + neg_f[None, :]
        # -inf entries meeting +inf in neg_f give NaN; the convention is -inf
        t[np.isnan(t)] = -np.inf
        out[lo:hi] = t.max(axis=1)
    return out


def matvec_bilinear(x, y, neg_f):
    """Row-wise max of x[i]*y[j] + neg_f[j]; products are always finite."""
    nx = x.shape[0]
    out = np.empty(nx)
    for lo in range(0, nx, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, nx)
        t = np.multiply.outer(x[lo:hi], y) + neg_f[None, :]
        out[lo:hi] = t.max(axis=1)
    return out


def matvec_bilinear_2d(x0, x1, y0, y1, neg_f):
    """Like bilinear but b = x0*y0 + x1*y1 (fixed evaluation order)."""
    nx = x0.shape[0]
    out = np.empty(nx)
    for lo in range(0, nx, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, nx)
        t = np.multiply.outer(x0[lo:hi], y0) + np.multiply.outer(x1[lo:hi], y1)
        t += neg_f[None, :]
        out[lo:hi] = t.max(axis=1)
    return out


def envelope_merge(slopes, icepts, xs):
    """Upper envelope of finite lines x -> x*s + c, evaluated on sorted xs.

    ``slopes`` must be strictly increasing.  Near crossing points the
    pointer may lag by one line because of rounding, so the value at each
    x is the max over the current hull line and its two hull neighbours;
    every candidate is evaluated with the same expression the dense path
    uses (fl(x*s) + c).
    """
    m = slopes.shape[0]
    keep = np.empty(m, dtype=np.int64)
    k = 0
    for j in range(m):
        sj = slopes[j]
        cj = icepts[j]
        if k > 0 and slopes[keep[k - 1]] == sj:
            if icepts[keep[k - 1]] >= cj:
                continue
            k -= 1
        while k >= 2:
            a = keep[k - 2]
            b = keep[k - 1]
            # line b never strictly wins if its crossing with a is at or
            # past its crossing with j
            if (icepts[a] - icepts[b]) * (sj - slopes[b]) >= (icepts[b] - cj) * (slopes[b] - slopes[a]):
                k -= 1
            else:
                break
        keep[k] = j
        k += 1

    out = np.empty(xs.shape[0])
    p = 0
    for i in range(xs.shape[0]):
        x = xs[i]
        while p + 1 < k and x * slopes[keep[p + 1]] + icepts[keep[p + 1]] >= x * slopes[keep[p]] + icepts[keep[p]]:
            p += 1
        best = x * slopes[keep[p]] + icepts[keep[p]]
        if p > 0:
            v = x * slopes[keep[p - 1]] + icepts[keep[p - 1]]
            if v > best:
                best = v
        if p + 1 < k:
            v = x * slopes[keep[p + 1]] + icepts[keep[p + 1]]
            if v > best:
                best = v
        out[i] = best
    return out
