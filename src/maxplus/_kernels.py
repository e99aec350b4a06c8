"""Hot numeric kernels: the max-plus matrix actions and the envelope merge.

The inner loops that dominate runtime (dense max-plus matrix action,
the on-the-fly bilinear actions and the linear-time conjugate transform)
are numpy code.  Every dense walk over the kernel, here and in the
window diagnostics, takes ``block_rows(|Y|)`` X-rows at a time: as many
|Y|-wide rows as fit in ``_CELL_BUDGET`` float64 cells (1 MiB), so that
a block stays in cache and no |X|x|Y| matrix is ever built.  The dense
actions allocate one block buffer per call and evaluate each block in
place.  Each block evaluates every term with the same floating-point
expression as a one-shot dense evaluation, so the blocked results are
bit-identical to it.

Three kernels skip most terms and stay bit-exact by a proved rounding
bound.  The envelope merge gives every line an interval of x outside
which a neighbouring hull line beats it after rounding, and evaluates
each x only against the lines whose interval holds it; every line that
holds the max at an x is among them, so the merge also emits the
attaining pairs of ``conjugacy.subdifferential_map`` without a walk.
The 1-D bilinear action is that merge above ``_ENVELOPE_ROWS`` X-nodes
(``takes_merge``), and the dense sweep at or below it.  The 2-D bilinear
action bounds each Y-row's best term with a 1-D partial transform and
evaluates only the rows that can hold the maximum; it keeps chunks of
``_CHUNK_ROWS`` X-nodes, since its temporaries are per-row estimates and
candidate cells rather than dense |Y|-wide slabs.

The crossover is a count of X-nodes, not of cells.  Measured with numpy
2.4 on a 2-core x86-64 host, the dense sweep costs about 1.55 ns a cell
and the merge about 90 us, plus 0.14 us a line (the hull's array passes
and the candidates) and 0.01 us an x.  On 56 shapes (32 to 8192
X-nodes, 2 to 8192 Y-nodes), each with a convex and a random f, taking
the merge above 512 X-nodes is at most 5.0 times slower than the faster
path (the dense sweep at 512 x 1024 with a convex f).  It was 2.0 with
the hull as a loop over Python lists (0.43 us a line), and no count
from 64 to 1024 now stays within the 1.9 the crossover was chosen by:
256 gives 2.7, and lower counts lose to the merge's fixed cost on small
|Y|.  Each cell-count crossover tried (2**14 to 2**18 cells, with the
former hull) was 8 times slower or worse on some shape.

Conventions: values are float64 where -inf is the max-plus zero and is
absorbing for addition; kernels never contain +inf, and bilinear kernels
are built only where no product overflows (``conjugacy.Kernel``); no NaN
ever enters (callers validate).  A zero maximum reads +0: 0 is the unit
of R ∪ {-inf} and has no sign, while the zero numpy's max keeps from a
tie of +0 and -0 depends on the order of the cells.  Each action ends
with ``out += 0.0``, which under round-to-nearest turns -0 into +0 and
leaves every other value, ±inf included, as it is (IEEE 754-2019 §6.3).
"""

import numpy as np

from .grids import NEG_INF

_CELL_BUDGET = 2**17  # float64 cells per dense block (1 MiB)
_CHUNK_ROWS = 256  # X-nodes per chunk of the pruned 2-D action
_U = 2.0**-53  # unit roundoff
_SLACK = 5 * _U  # 2-D pruning: delta per unit of magnitude
_ENVELOPE_ROWS = 512  # the 1-D bilinear action merges envelopes above this |X|
_HULL_PASSES = 8  # array passes of the hull before a loop finishes it
_HULL_LOOP_LINES = 128  # ... and the line count at which the loop takes over


def block_rows(ny):
    """X-rows per dense block when each row holds ``ny`` cells."""
    return max(1, _CELL_BUDGET // ny)


def matvec_table(table, neg_f):
    """Row-wise max of table[i, j] + neg_f[j] with -inf absorbing."""
    nx, ny = table.shape
    out = np.empty(nx)
    step = min(block_rows(ny), nx)
    buf = np.empty((step, ny))  # one block, reused
    for lo in range(0, nx, step):
        hi = min(lo + step, nx)
        t = buf[: hi - lo]
        with np.errstate(over="ignore", invalid="ignore"):
            np.add(table[lo:hi], neg_f, out=t)
        # -inf entries meeting +inf in neg_f give NaN; the convention is -inf
        np.fmax(t, NEG_INF, out=t)
        t.max(axis=1, out=out[lo:hi])
    out += 0.0
    return out


def matvec_bilinear(x, y, neg_f):
    """Row-wise max of x[i]*y[j] + neg_f[j], bit-identical to the dense sweep.

    Above ``_ENVELOPE_ROWS`` X-nodes, with x and y non-decreasing (grid
    coordinates always are), the maxima come from ``envelope_merge(y,
    neg_f, x)``, which evaluates about |X| + |Y| candidate cells with the
    dense expression; otherwise from ``_dense_bilinear``, which evaluates
    every cell.  A +inf in neg_f (an f with a -inf node) gives +inf
    everywhere.
    """
    if np.isposinf(neg_f).any():
        return np.full(x.shape[0], np.inf)
    if takes_merge(x, y):
        return envelope_merge(y, neg_f, x)
    return _dense_bilinear(x, y, neg_f)


def takes_merge(x, y):
    """Whether ``matvec_bilinear(x, y, neg_f)`` merges envelopes for an
    neg_f without +inf: above ``_ENVELOPE_ROWS`` X-nodes, x and y sorted."""
    return x.shape[0] > _ENVELOPE_ROWS and _nondecreasing(x) and _nondecreasing(y)


def _nondecreasing(a):
    return bool((a[1:] >= a[:-1]).all())


def _dense_bilinear(x, y, neg_f):
    """Row-wise max of x[i]*y[j] + neg_f[j] over every cell, in blocks.

    neg_f holds no +inf.  Every cell is the one-shot dense expression.
    """
    nx = x.shape[0]
    out = np.empty(nx)
    step = min(block_rows(y.shape[0]), nx)
    buf = np.empty((step, y.shape[0]))  # one block, reused
    for lo in range(0, nx, step):
        hi = min(lo + step, nx)
        t = buf[: hi - lo]
        with np.errstate(over="ignore"):
            np.multiply.outer(x[lo:hi], y, out=t)
            t += neg_f
        t.max(axis=1, out=out[lo:hi])
    out += 0.0
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

    Degenerate cases: a +inf in neg_f gives +inf everywhere, as it does
    in every dense result that is not NaN.  Where delta is not finite
    (magnitudes overflow) every row is a candidate, which is the dense
    sweep.  X is handled in chunks of ``_CHUNK_ROWS`` nodes sorted
    by x1, so no temporary holds more than a dense chunk's cells.
    """
    nx = x0.shape[0]
    if np.isposinf(neg_f).any():
        return np.full(nx, np.inf)
    out = np.empty(nx)
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.abs(neg_f[np.isfinite(neg_f)])
        mag = (np.abs(x0) * np.abs(y0).max() + np.abs(x1) * np.abs(y1).max()) + (
            c.max() if c.size else 0.0
        )
        window = 2 * _SLACK * mag  # 2 delta per x
    bounded = np.isfinite(window)
    todo = np.arange(nx)

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
        out[idx] = best
    out += 0.0
    return out


def envelope_merge(slopes, icepts, xs, attain=False):
    """Max over the lines x -> fl(x*s) + c at each of the sorted xs.

    Bit-identical to the dense max over all lines (``_dense_bilinear(xs,
    slopes, icepts)``).  ``slopes`` are non-decreasing and finite, ``icepts``
    lie in R ∪ {-inf} (a -inf line is -inf everywhere and never wins).

    Write l_j(x) = x*s_j + c_j exactly and v_j(x) = fl(fl(x*s_j) + c_j).
    With u = 2**-53, M = max|x| * max|s| + max|c| over the finite lines and
    no overflow, each rounding errs by at most u times its result plus, on
    underflow, 2**-1075, so |v_j - l_j| <= (2 + u)u*M + 2**-1074 and

      (1) l_r(x) - l_j(x) > e := 4.01u*M + 2**-1072  implies  v_r(x) > v_j(x).

    Let L and R be the hull lines (upper envelope, built with the float
    cross-product test by ``_upper_hull``) of next smaller and next larger
    slope than s_j.  l_L - l_j = b - a*x with a = s_j - s_L > 0 and
    b = c_L - c_j, so by (1) line j loses to L wherever b - a*x > e.  The
    float lo_j = fl(fl(fl(b) - D) / fl(a)), with D = 16u*M + (1 + max|s|) *
    2**-1060 (at least 15.9u*M + (1 + max|s|) * 2**-1061 as computed),
    satisfies b - a*lo_j >= D(1 - 3.01u) - 4.02u|b| - a*2**-1075 >= e,
    since |b| <= 2M and a <= 2 max|s|; so every x < lo_j has b - a*x > e.
    A quotient that overflows to +inf stands for one beyond every float x,
    and one that overflows to -inf excludes nothing.  Likewise line j
    loses to R at every x > hi_j = fl(fl(fl(c_j - c_R) + D) / fl(s_R - s_j)).
    A line with no L (no R) gets lo_j = -inf (hi_j = +inf).  For a hull
    line these bounds are the crossing points with its hull neighbours,
    widened by D / (slope gap); a line far below the hull gets lo_j > hi_j.

    A line that loses to another does not hold the largest v(x), so at each
    x every line holding it has lo_j <= x <= hi_j, and the max over these
    candidates is the dense max.  Nothing here assumes the float hull is
    the exact one; a hull that is off only adds candidates.  This matters
    for near-collinear lines: there the computed max can belong to a line
    the hull dropped, which the hull lines next to x need not beat.  The
    candidates (x, j) come from ``searchsorted`` of lo_j and hi_j into xs;
    for lines in general position there are about |lines| + |xs| of them.

    Degenerate cases: where 4(M + max|s|) overflows, (1) and the bounds
    fail, so every line is a candidate at every x (a -inf line is never
    one, which is the dense sweep's absorbing rule); candidates are
    evaluated a cell budget at a time, so memory stays bounded however
    many there are.

    With ``attain`` true the merge returns (max, pairs), where ``pairs``
    holds the flat index j·|xs| + i of every (line j, node i) at which
    v_j(xs[i]) equals the max at xs[i] and that max is above -inf.  Every
    line holding the max is a candidate there, ties included, so these are
    all the attaining pairs of the dense max.  They come out strictly
    ascending, because the candidates run through the lines in order and
    through each line's nodes in order.
    """
    out = np.full(xs.shape[0], -np.inf)
    fin = np.flatnonzero(np.isfinite(icepts))
    if fin.size == 0:
        return (out, np.zeros(0, dtype=np.intp)) if attain else out
    s, c = slopes[fin], icepts[fin]
    first, n = _spans(s, c, _upper_hull(s, c), xs)

    # candidate pairs (x, line), in groups of lines holding about a cell
    # budget of pairs, so that degenerate inputs stay within memory
    cum = np.cumsum(n)
    cuts = np.searchsorted(cum, np.arange(_CELL_BUDGET, cum[-1], _CELL_BUDGET), "right")

    def candidates():
        for a, b in zip([0, *cuts], [*cuts, s.size]):
            k = n[a:b]
            line = np.repeat(np.arange(a, b), k)
            node = np.arange(line.size) + np.repeat(first[a:b] - (np.cumsum(k) - k), k)
            with np.errstate(over="ignore"):
                v = xs[node] * s[line] + c[line]
            yield line, node, v

    for _, node, v in candidates():
        np.maximum.at(out, node, v)
    pairs = []
    if attain:  # the max at a node is known once every group is in
        for line, node, v in candidates():
            hit = (v == out[node]) & (v > NEG_INF)
            pairs.append(fin[line[hit]] * xs.shape[0] + node[hit])
    out += 0.0
    return (out, np.concatenate(pairs)) if attain else out


def _spans(s, c, hull, xs):
    """Each finite line's candidate nodes in ``envelope_merge``: the first
    node at or past lo_j, and the count of nodes in [lo_j, hi_j].  ``hull``
    is (slopes, intercepts) of the lines taken as neighbours."""
    hs, hc = hull
    left = np.searchsorted(hs, s, "left") - 1  # hull line of next smaller slope
    right = np.searchsorted(hs, s, "right")  # ... and of next larger slope
    smax = np.abs(s).max()
    lo = np.full(s.size, -np.inf)
    hi = np.full(s.size, np.inf)
    with np.errstate(over="ignore"):
        mag = np.abs(xs).max() * smax + np.abs(c).max()
        d = 16 * _U * mag + (1 + smax) * 2.0**-1060
        if np.isfinite(4 * (mag + smax)):
            i = np.flatnonzero(left >= 0)
            lo[i] = ((hc[left[i]] - c[i]) - d) / (s[i] - hs[left[i]])
            i = np.flatnonzero(right < hs.size)
            hi[i] = ((c[i] - hc[right[i]]) + d) / (hs[right[i]] - s[i])
    first = np.searchsorted(xs, lo, "left")
    return first, np.maximum(np.searchsorted(xs, hi, "right") - first, 0)


def _upper_hull(s, c):
    """Slopes and intercepts of the upper envelope's lines, slopes increasing.

    Of lines with equal slopes the first of largest intercept is kept.  A
    line is dropped when the float cross-product test finds that it never
    strictly wins between its two neighbours.  Above ``_HULL_LOOP_LINES``
    lines the test runs as array code, in passes: a pass tests the lines at
    odd places, drops those that fail, then does the same on the new array,
    so that no two neighbours drop at once.  A pass that drops nothing ends
    the hull; a convex f's lines all stay, in one pass.  After
    ``_HULL_PASSES`` passes, or after a pass that drops under an eighth of
    the lines (a drop can expose its neighbour, one line a pass), a loop
    over the lines left finishes the hull.  A pass costs about 10 us plus
    0.005 us a line and the loop 0.3 us a line (numpy 2.4, 2-core x86-64),
    so a pass pays only where it drops many lines.  Which lines are dropped
    can depend on the order of the tests, but ``envelope_merge`` is exact
    for any slope-sorted subset of the lines.  A product that overflows
    reads ±inf and a NaN test keeps its line, as in the loop.
    """
    if s.size > 1:
        new = np.empty(s.size, dtype=bool)
        new[0] = True
        np.not_equal(s[1:], s[:-1], out=new[1:])
        if not new.all():
            run = np.cumsum(new) - 1
            best = np.flatnonzero(c == np.maximum.reduceat(c, np.flatnonzero(new))[run])
            first = best[np.flatnonzero(np.diff(run[best], prepend=-1))]
            s, c = s[first], c[first]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_HULL_PASSES):
            size = s.size
            if size <= _HULL_LOOP_LINES:
                break
            for q in (0, 1):
                n = (s.size - 1 - q) // 2
                mid = slice(q + 1, q + 1 + 2 * n, 2)  # lines q + 1, q + 3, ...
                left, right = slice(q, q + 2 * n, 2), slice(q + 2, q + 2 + 2 * n, 2)
                sm, cm = s[mid], c[mid]
                fails = (c[left] - cm) * (s[right] - sm) >= (cm - c[right]) * (sm - s[left])
                if fails.any():
                    keep = np.ones(s.size, dtype=bool)
                    keep[mid] = ~fails
                    s, c = s[keep], c[keep]
            if s.size == size:
                return s, c
            if 8 * (size - s.size) < size:
                break
    slopes, icepts = s.tolist(), c.tolist()
    ks, kc = [0.0] * len(slopes), [0.0] * len(slopes)
    k = 0
    for sj, cj in zip(slopes, icepts):
        while k >= 2:
            sb, cb = ks[k - 1], kc[k - 1]
            if (kc[k - 2] - cb) * (sj - sb) >= (cb - cj) * (sb - ks[k - 2]):
                k -= 1
            else:
                break
        ks[k], kc[k] = sj, cj
        k += 1
    return np.array(ks[:k]), np.array(kc[:k])
