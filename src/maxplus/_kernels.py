"""Hot numeric kernels: the max-plus matrix actions and the envelope merge.

The inner loops that dominate runtime (dense max-plus matrix action,
the on-the-fly bilinear actions and the linear-time conjugate transform)
are numpy code.  Every dense walk over the kernel, here and in the
window diagnostics, takes ``block_rows(|Y|)`` X-rows at a time: as many
|Y|-wide rows as fit in ``_CELL_BUDGET`` float64 cells (1 MiB), so that
a block and its temporaries stay in cache and no |X|x|Y| matrix is ever
built.  Each block evaluates every term with the same floating-point
expression as a one-shot dense evaluation, so the blocked results are
bit-identical to it.  The 2-D bilinear action skips most terms: a 1-D
partial transform per Y-row bounds each row's best term to within a
proved rounding slack, and only the rows that can hold the maximum are
evaluated term by term.  It keeps chunks of ``_CHUNK_ROWS`` X-nodes,
since its temporaries are per-row estimates and candidate cells rather
than dense |Y|-wide slabs.

Conventions: values are float64 where -inf is the max-plus zero and is
absorbing for addition; kernels never contain +inf; no NaN ever enters
(callers validate).
"""

import numpy as np

_CELL_BUDGET = 2**17  # float64 cells per dense block (1 MiB)
_CHUNK_ROWS = 256  # X-nodes per chunk of the pruned 2-D action
_SLACK = 5 * 2.0**-53  # 2-D pruning: delta per unit of magnitude


def block_rows(ny):
    """X-rows per dense block when each row holds ``ny`` cells."""
    return max(1, _CELL_BUDGET // ny)


def matvec_table(table, neg_f):
    """Row-wise max of table[i, j] + neg_f[j] with -inf absorbing."""
    nx = table.shape[0]
    out = np.empty(nx)
    step = block_rows(neg_f.shape[0])
    for lo in range(0, nx, step):
        hi = min(lo + step, nx)
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
    step = block_rows(y.shape[0])
    for lo in range(0, nx, step):
        hi = min(lo + step, nx)
        t = np.multiply.outer(x[lo:hi], y) + neg_f[None, :]
        out[lo:hi] = t.max(axis=1)
    return out


def matvec_bilinear_2d(x0, x1, y0, y1, neg_f):
    """Row-wise max of (x0*y0 + x1*y1) + neg_f, bit-identical to the dense sweep.

    The 2-D transform factors through 1-D ones (Lucet 1997), so most
    cells are skipped.  Group the Y-nodes into rows of equal y0 and write
    A = fl(x0*y0) for a row, B = fl(x1*y1) and C = neg_f for a node.  The
    partial transforms h[x1, row] = max over the row of fl(B + C) cost
    |X1|*|Y| cells, and since rounding is monotone the estimate
    fl(A + h) is the max over the row of E = fl(A + fl(B + C)).  The dense
    value is D = fl(fl(A + B) + C).

    Slack: D and E each round the exact S = A + B + C twice, each time by
    at most u = 2**-53 times the rounded sum, so |D - S| and |E - S| are
    at most (2 + u)u*M with M = max|A| + max|B| + max finite |C| over the
    cells of x; with C = -inf both are -inf.  So delta = 5u*M bounds
    |D - E|, with room for computing M and delta in floats (sums below
    2**-1021 are exact, so an underflowing delta loses nothing).  If the
    dense max D* lies in row r*, then est[r*] >= D* - delta, and every
    estimate is at most D* + delta: only rows whose estimate lies within
    2*delta of the best can hold D*.  The gap best - est is rounded
    monotonically and the float window 2*delta is at least that bound, so
    comparing the two never drops such a row.  Those rows are evaluated
    with the dense expression, which makes every result bit-exact.

    Degenerate cases: with +inf in neg_f every x with a finite delta has
    a finite A + B meeting it, so the max is +inf; where delta is not
    finite (magnitudes overflow) every row is a candidate, which is the
    dense sweep.  A max equal to 0 is recomputed from its full dense row,
    because the sign numpy gives a tie of +0 and -0 depends on the order
    of the cells.  X is handled in chunks of ``_CHUNK_ROWS`` nodes sorted
    by x1, so no temporary holds more than a dense chunk's cells.
    """
    nx = x0.shape[0]
    out = np.empty(nx)
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.abs(neg_f[np.isfinite(neg_f)])
        mag = (np.abs(x0) * np.abs(y0).max() + np.abs(x1) * np.abs(y1).max()) + (
            c.max() if c.size else 0.0
        )
        window = 2 * _SLACK * mag  # 2 delta per x
    bounded = np.isfinite(window)
    todo = np.arange(nx)
    if np.isposinf(neg_f).any():
        out[bounded] = np.inf
        todo = todo[~bounded]

    u0, row_of = np.unique(y0, return_inverse=True)
    order = np.argsort(row_of, kind="stable")  # Y-nodes grouped by row
    sizes = np.bincount(row_of)
    starts = np.cumsum(sizes) - sizes
    v1, col_of = np.unique(x1[todo], return_inverse=True)
    by_col = np.argsort(col_of, kind="stable")
    todo, col_of = todo[by_col], col_of[by_col]
    y0_rows, y1_rows, neg_f_rows = y0[order], y1[order], neg_f[order]

    for lo in range(0, todo.size, _CHUNK_ROWS):
        idx = todo[lo : lo + _CHUNK_ROWS]
        col = col_of[lo : lo + _CHUNK_ROWS]
        with np.errstate(over="ignore", invalid="ignore"):
            h = np.maximum.reduceat(
                np.multiply.outer(v1[col[0] : col[-1] + 1], y1_rows) + neg_f_rows,
                starts,
                axis=1,
            )
            est = np.multiply.outer(x0[idx], u0) + h[col - col[0]]
            cand = est.max(axis=1)[:, None] - est <= window[idx, None]
        cand[~bounded[idx]] = True

        # the candidate rows' cells, row after row, with the dense expression
        xi, r = np.nonzero(cand)
        n = sizes[r]
        first = np.cumsum(n) - n
        at = np.repeat(starts[r] - first, n) + np.arange(n.sum())
        xa = np.repeat(x0[idx[xi]], n)
        xb = np.repeat(x1[idx[xi]], n)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = (xa * y0_rows[at] + xb * y1_rows[at]) + neg_f_rows[at]
        new_x = np.flatnonzero(np.diff(xi, prepend=-1))
        best = np.full(idx.size, -np.inf)  # no candidate: every cell is -inf
        if new_x.size:
            best[xi[new_x]] = np.maximum.reduceat(vals, first[new_x])

        zero = best == 0
        if zero.any():
            z = idx[zero]
            t = np.multiply.outer(x0[z], y0) + np.multiply.outer(x1[z], y1)
            t += neg_f[None, :]
            best[zero] = t.max(axis=1)
        out[idx] = best
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
