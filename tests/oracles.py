"""Independent slow-path oracles the tests check the library against.

Everything here deliberately avoids the library's kernel code paths:
plain Python loops or direct numpy broadcasting for max-plus algebra,
exhaustive enumeration for pre-image problems, and mpmath for Gaussian
masses.  Conventions mirror the documented scalar rules (-inf absorbing,
no NaN).
"""

import itertools
import math
from types import SimpleNamespace

import mpmath
import numpy as np
from scipy.special import log_ndtr

NEG = float("-inf")
POS = float("inf")


def slow_term(b, neg_f):
    return NEG if b == NEG else b + neg_f


def slow_conjugate(b_rows, f):
    """Row-wise max-plus action, pure Python floats."""
    neg_f = [-v for v in f]
    out = []
    for row in b_rows:
        best = NEG
        for b, nf in zip(row, neg_f):
            t = slow_term(b, nf)
            if t > best:
                best = t
        out.append(best)
    return out


def slow_bilinear_conjugate(xs, ys, f):
    """Legendre transform by brute force, pure Python floats."""
    neg_f = [-v for v in f]
    out = []
    for x in xs:
        best = NEG
        for y, nf in zip(ys, neg_f):
            t = x * y + nf
            if t > best:
                best = t
        out.append(best)
    return out


def dense_matvec_bilinear(x, y, neg_f):
    """The 1-D bilinear action over every cell, in blocks of 2**17 cells.

    This was the library's kernel before it merged upper envelopes above
    a crossover; it stays as the oracle that the merge and the library's
    own dense sweep must match bit for bit, signed zeros included.  It
    has no absorbing rule: a +inf product meeting f = +inf gives NaN.
    """
    nx = x.shape[0]
    out = np.empty(nx)
    step = min(max(1, 2**17 // y.shape[0]), nx)
    buf = np.empty((step, y.shape[0]))  # one block, reused
    for lo in range(0, nx, step):
        hi = min(lo + step, nx)
        t = buf[: hi - lo]
        np.multiply.outer(x[lo:hi], y, out=t)
        t += neg_f
        t.max(axis=1, out=out[lo:hi])
    return out


def dense_bilinear_2d(x0, x1, y0, y1, neg_f, chunk=256):
    """The 2-D bilinear action over every cell, in chunks of X-rows.

    This was the library's kernel before it pruned rows; it stays as the
    oracle the pruned kernel must match bit for bit, signed zeros
    included.
    """
    nx = x0.shape[0]
    out = np.empty(nx)
    for lo in range(0, nx, chunk):
        hi = min(lo + chunk, nx)
        t = np.multiply.outer(x0[lo:hi], y0) + np.multiply.outer(x1[lo:hi], y1)
        t += neg_f[None, :]
        out[lo:hi] = t.max(axis=1)
    return out


def slow_envelope_merge(slopes, icepts, xs):
    """The library's upper-envelope merge before it became array code.

    A hull pass, then a pointer that walks the hull as x grows and takes
    the max over its current line and the two hull neighbours.  It equals
    the dense max for lines in general position, but not always for
    near-collinear lines, where the computed max can belong to a line the
    hull dropped.  ``slopes`` strictly increasing, ``icepts`` finite.
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


def enumerate_preimages(b_rows, g, xprime, value_set, cap=2):
    """Count solutions of the pre-image problem over a quantized value set.

    A candidate f solves the problem when Bf <= g everywhere and Bf = g on
    the X' nodes (exact extended-real equality).  Returns (count up to
    cap, first solutions found).  Vectorised over candidate batches but
    independent of the library's kernels.
    """
    b = np.asarray(b_rows, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    nx, ny = b.shape
    xprime = np.asarray(sorted(xprime), dtype=np.int64)
    values = np.asarray(sorted(value_set), dtype=np.float64)

    found = []
    count = 0
    batch = []

    def flush():
        nonlocal count
        if not batch or count >= cap:
            batch.clear()
            return
        F = np.asarray(batch, dtype=np.float64)  # (m, ny)
        m = F.shape[0]
        bf = np.full((m, nx), NEG)
        for i in range(nx):
            with np.errstate(invalid="ignore"):
                t = np.where(b[i][None, :] == NEG, NEG, b[i][None, :] - F)
            t[np.isnan(t)] = NEG
            bf[:, i] = t.max(axis=1)
        ok = np.ones(m, dtype=bool)
        for i in range(nx):
            ok &= (bf[:, i] <= g[i]) | (np.isposinf(bf[:, i]) & np.isposinf(g[i]))
        for i in xprime:
            ok &= bf[:, i] == g[i]
        for idx in np.flatnonzero(ok):
            if count < cap:
                found.append(F[idx].copy())
            count += 1
            if count >= cap:
                break
        batch.clear()

    for cand in itertools.product(values, repeat=ny):
        batch.append(cand)
        if len(batch) >= 65536:
            flush()
            if count >= cap:
                return count, found
    flush()
    return min(count, cap), found


def gauss_log_mass(a, b, mu=0.0, sd=1.0, dps=40):
    """log P(a <= X <= b), X ~ N(mu, sd), via high-precision mpmath."""
    with mpmath.workdps(dps):
        za = (mpmath.mpf(a) - mu) / sd if a != NEG else mpmath.mpf("-inf")
        zb = (mpmath.mpf(b) - mu) / sd if b != POS else mpmath.mpf("inf")
        p = mpmath.ncdf(zb) - mpmath.ncdf(za)
        if p <= 0:
            return NEG
        return float(mpmath.log(p))


def slow_mask_runs(grid, mask):
    """Coordinate intervals of the maximal runs of a 1-D mask, node by node.

    The per-node loop ``_normal.mask_runs`` replaced.
    """
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    c = grid.coords
    runs = []
    i = 0
    n = mask.size
    while i < n:
        if mask[i]:
            j = i
            while j + 1 < n and mask[j + 1]:
                j += 1
            runs.append((float(c[i]), float(c[j])))
            i = j + 1
        else:
            i += 1
    return runs


def gauss_log_mgf_affine(slope, intercept, scale, mu, sd):
    """(1/scale) log E[e^{scale (slope X + intercept)}], X ~ N(mu, sd)."""
    return intercept + slope * mu + scale * slope * slope * sd * sd / 2.0


def quantized_instance(rng, max_nodes=5, lo=-3, hi=3, p_neg=0.2, p_posinf=0.2):
    """Random small kernel table and g with integer-quantized values."""
    while True:
        nx = int(rng.integers(1, max_nodes + 1))
        ny = int(rng.integers(1, max_nodes + 1))
        b = rng.integers(lo, hi + 1, size=(nx, ny)).astype(np.float64)
        b[rng.random((nx, ny)) < p_neg] = NEG
        fin = np.isfinite(b)
        if not (fin.any(axis=1).all() and fin.any(axis=0).all()):
            continue
        g = rng.integers(lo, hi + 1, size=nx).astype(np.float64)
        g[rng.random(nx) < p_posinf] = POS
        xprime = [i for i in range(nx) if rng.random() < 0.7]
        return b, g, xprime


def _slice_values(seq, kernel, x_index):
    """F_n(b(x,·)) for every n, one form and one scalar slope at a time."""
    out = []
    if kernel.kind == "bilinear":
        coords = kernel.x_grid.coords
        slope = coords[x_index] if kernel.x_grid.dim == 1 else tuple(coords[x_index])
        for _, form in seq.forms():
            out.append(form.evaluate_affine(slope, 0.0))
    else:
        row = kernel.row(x_index)
        for _, form in seq.forms():
            out.append(form.evaluate(row))
    return out


def trend_pair(ns, values):
    """(liminf trend, limsup trend) of one column, by its own fit.

    The one-column rule ``convergence.trend_pairs`` batches, restated:
    fit the column, scaled by the power of two that puts its largest
    |entry| in [1/2, 1), against {1, 1/n, log(n)/n} with a one-column
    least-squares solve; the residual is the sum over the basis columns
    minus the column.  When the scaled-back limit is finite and the
    scaled-back max residual is within 1e-2, both sides equal the limit;
    otherwise min/max over the trailing half are reported.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return float("nan"), float("nan")
    if (v == v[0]).all():
        return float(v[0]), float(v[0])
    if np.isfinite(v).all():
        n = np.asarray(ns, dtype=np.float64)
        basis = [np.ones_like(n), 1.0 / n]
        if n.size >= 3:
            basis.append(np.log(n) / n)
        A = np.stack(basis, axis=1)
        e = math.frexp(float(np.abs(v).max()))[1]
        w = np.ldexp(v, -e)
        coef = np.linalg.lstsq(A, w, rcond=None)[0]
        r = A[:, 0] * coef[0]
        for j in range(1, A.shape[1]):
            r = r + A[:, j] * coef[j]
        with np.errstate(over="ignore"):
            limit = float(np.ldexp(coef[0], e))
            resid = float(np.ldexp(np.abs(r - w).max(), e))
        if math.isfinite(limit) and resid <= 1e-2:
            return limit, limit
    tail = v[v.size // 2:]
    return float(tail.min()), float(tail.max())


def slow_set_bound_rows(seq, limit_form, open_sets=(), closed_sets=()):
    """The rows of ``convergence.ldp_bounds_check`` at its default tol, one
    set at a time.

    The per-set loop before the sets of one role were fitted together:
    each set's values over the indices get their own ``trend_pair`` fit.
    Rows are (set id, kind, lhs trend, rhs, margin, verdict).
    """
    forms = [f for _, f in seq.forms()]
    rows = []
    for kind, sets in (("open", open_sets), ("closed", closed_sets)):
        for sid, mask in enumerate(sets):
            rhs = limit_form.eval_on_set(mask)
            if len(seq.n_list) < 3:
                rows.append((f"{kind}:{sid}", kind, float("nan"), rhs, 0.0, "INCONCLUSIVE"))
                continue
            lo, up = trend_pair(seq.n_list, [f.eval_on_set(mask) for f in forms])
            lhs = lo if kind == "open" else up
            # equal infinities count as zero margin
            if lhs == rhs:
                margin = 0.0
            else:
                margin = lhs - rhs if kind == "open" else rhs - lhs
            if math.isnan(margin):
                verdict, margin = "INCONCLUSIVE", 0.0
            else:
                verdict = "PASS" if margin >= -1e-3 else "FAIL"
            rows.append((f"{kind}:{sid}", kind, float(lhs), rhs, float(margin), verdict))
    return rows


def constant_sequence(form, n_list):
    """The same form at every index."""
    from maxplus.convergence import FormSequence

    return FormSequence(
        generator=lambda n: form, n_list=tuple(n_list), y_grid=form.grid
    )


def slow_limit_log_moment(gartner_input, *, sup_edge_to_inf=False):
    """Limit log-moment values node by node, one scalar trend fit each.

    The per-node loop of ``ldp.limit_log_moment`` before it was batched.
    Returns (g as a flat array, limit gaps, downgraded flag, indices of
    the nodes reported unbounded at the family's edge).
    """
    k = gartner_input.kernel
    nx = k.x_grid.size
    limit_asserted = gartner_input.mode == "limit-asserted"
    per_member = np.empty((len(gartner_input.sequences), nx))
    gaps = np.zeros(nx)
    for si, seq in enumerate(gartner_input.sequences):
        for xi in range(nx):
            lo, up = trend_pair(seq.n_list, _slice_values(seq, k, xi))
            per_member[si, xi] = up
            if limit_asserted:
                gap = 0.0 if up == lo else abs(up - lo)
                gaps[xi] = max(gaps[xi], gap)
    downgraded = limit_asserted and np.nanmax(gaps, initial=0.0) > 1e-6
    g = per_member.max(axis=0)
    edge = np.zeros(nx, dtype=bool)
    if sup_edge_to_inf and per_member.shape[0] >= 3:
        arg = per_member.argmax(axis=0)
        last = per_member.shape[0] - 1
        edge = ((arg == 0) & (per_member[0] > per_member[1])) | (
            (arg == last) & (per_member[last] > per_member[last - 1])
        )
        g = np.where(edge, POS, g)
    return g, gaps, bool(downgraded), np.flatnonzero(edge)


def clipped_merton_affine(p, horizon, xi, floor, slope):
    """(1/T) log E[e^{T slope max(X, floor)}], X ~ N(mu, sd^2), X the
    log-wealth rate under a constant fraction: the closed form, one
    scalar slope, through libm's exp and log."""
    T = horizon
    mu = p.r + (p.alpha - p.r) * xi - p.sigma**2 * xi**2 / 2.0 + math.log(p.w0) / T
    sd = p.sigma * abs(xi) / math.sqrt(T)
    if sd == 0.0:
        return slope * max(mu, floor)
    t1 = T * (0.0 + slope * floor) + log_ndtr((floor - mu) / sd)
    t2 = (
        T * 0.0
        + T * slope * mu
        + T * slope * slope * sd * sd * T / 2.0
        + log_ndtr(-(floor - mu - slope * sd * sd * T) / sd)
    )
    m = max(t1, t2)
    return float((m + math.log(math.exp(t1 - m) + math.exp(t2 - m))) / T)


# -- window diagnostics, one X-row at a time -------------------------------
#
# The per-row loops of ``conjugacy.coercivity_report``,
# ``conjugacy.superlevel_compactness_report``, the witness search of
# ``ldp.tightness_criterion`` and the interior pass of
# ``covering.build_covering`` before they became array code over blocks
# of rows.  The reports they return must equal the library's, field by
# field.


def ball_slices(grid, flat_index, radius):
    """Index bounds of the Chebyshev ball around a node, per axis."""
    idx = np.unravel_index(flat_index, grid.n)
    return tuple(
        (max(0, i - radius), min(k - 1, i + radius))
        for i, k in zip(np.atleast_1d(idx), grid.n)
    )


def _neighborhood_gain(b, grid, x_index, radius):
    """max_{z in ball(x)} b(z, ·) - b(x, ·) with max-plus conventions."""
    from maxplus.grids import otimes

    bounds = ball_slices(grid, x_index, radius)
    if grid.dim == 1:
        rows = range(bounds[0][0], bounds[0][1] + 1)
        flat_rows = list(rows)
    else:
        flat_rows = [
            int(np.ravel_multi_index((i0, i1), grid.n))
            for i0 in range(bounds[0][0], bounds[0][1] + 1)
            for i1 in range(bounds[1][0], bounds[1][1] + 1)
        ]
    sup = b[flat_rows].max(axis=0)
    return otimes(sup, -b[x_index])


def _default_betas(values, quantiles, inner):
    """Quantiles of the finite values inside the inner window."""
    fin = values[inner & np.isfinite(values)]
    if fin.size == 0:
        return []
    return [float(np.quantile(fin, q)) for q in quantiles]


def _window_clipped(grid, flat_index, radius, sides):
    """Is the Chebyshev ball clipped by an open window side?"""
    from maxplus.conjugacy import WindowSides

    cb, ca = (sides or WindowSides.all_open(grid.dim)).normalized(grid.dim)
    idx = np.unravel_index(flat_index, grid.n)
    for ax, i in enumerate(np.atleast_1d(idx)):
        if grid.n[ax] == 1:
            continue
        if i - radius < 0 and not cb[ax]:
            return True
        if i + radius > grid.n[ax] - 1 and not ca[ax]:
            return True
    return False


def slow_coercivity_report(
    k,
    window_margin,
    *,
    stencil_radius=1,
    sides=None,
    x_sides=None,
):
    """``coercivity_report`` with one Python iteration per x-node."""
    from maxplus.conjugacy import (
        EDGE, EVIDENCE, VIOLATION, CoercivityReport, inner_window_mask,
    )

    b = k.matrix()
    inner = inner_window_mask(k.y_grid, window_margin, sides)
    coercive = []
    upper = []
    for i in range(k.x_grid.size):
        if _window_clipped(k.x_grid, i, stencil_radius, x_sides):
            coercive.append(EDGE)
            upper.append(EDGE)
            continue
        gain = _neighborhood_gain(b, k.x_grid, i, stencil_radius)
        bs = _default_betas(gain, (0.5, 0.75, 0.9), inner)
        if bs:
            # cap the levels just under the ring minimum: sublevel-set
            # geometry need not match the window shape, but any level below
            # every ring value fits whenever no valley escapes; levels at or
            # above escaping valleys still flag violations
            ring = gain[~inner]
            ring = ring[np.isfinite(ring)]
            if ring.size:
                lo = ring.min()
                cap = lo - max(1e-12, 0.05 * abs(lo))
                floor = min(bs)
                bs = sorted({max(min(beta, cap), floor) for beta in bs})
        ok_c = True
        ok_u = True
        for beta in bs:
            sub = gain <= beta
            contained = not (sub & ~inner).any()
            if sub.any():
                vals = np.where(sub, b[i], NEG)
                top = vals.max()
                bounded = top == NEG or bool((inner & (vals == top)).any())
            else:
                bounded = True
            ok_c &= contained
            ok_u &= bounded
        if not bs:
            ok_c = False  # nothing finite to test against
        coercive.append(EVIDENCE if ok_c else VIOLATION)
        upper.append(EVIDENCE if ok_u else VIOLATION)
    return CoercivityReport(coercive=coercive, upper_coercive=upper)


def slow_superlevel_compactness_report(
    f,
    k,
    window_margin,
    *,
    sides=None,
):
    """``superlevel_compactness_report`` with one iteration per x-node."""
    from maxplus.conjugacy import (
        EVIDENCE, VIOLATION, SuperlevelReport, inner_window_mask,
    )
    from maxplus.grids import otimes

    b = k.matrix()
    inner = inner_window_mask(k.y_grid, window_margin, sides)
    neg_f = -f.flat
    verdicts = []
    for i in range(k.x_grid.size):
        vals = otimes(b[i], neg_f)
        bs = _default_betas(vals, (0.75, 0.9), inner)
        if not bs:
            # b(x,·) - f is -inf everywhere: all superlevel sets are empty
            verdicts.append(EVIDENCE)
            continue
        ok = True
        for beta in bs:
            ok &= not ((vals >= beta) & ~inner).any()
        verdicts.append(EVIDENCE if ok else VIOLATION)
    return SuperlevelReport(verdicts=verdicts)


def slow_tightness_witness(kernel, g, *, window_margin=0.1, sides=None, stencil_radius=1):
    """First idom node whose row minimum is finite and attained inside
    the window, or None: the witness search of ``tightness_criterion``."""
    from maxplus.conjugacy import inner_window_mask
    from maxplus.grids import domain_masks

    idom = domain_masks(g, stencil_radius).idom.reshape(-1)
    b = kernel.matrix()
    inner = inner_window_mask(kernel.y_grid, window_margin, sides)
    for x in np.flatnonzero(idom):
        row = b[x]
        lo = row.min()
        if lo == NEG:
            continue
        if (inner & (row == lo)).any():
            return int(x)
    return None


def _chebyshev_ball_mask(grid, flat_index, radius):
    mask = np.zeros(grid.n, dtype=bool)
    sl = tuple(
        slice(lo, hi + 1) for lo, hi in ball_slices(grid, flat_index, radius)
    )
    mask[sl] = True
    return mask.reshape(-1)


def slow_covering_interior(grid, top, dual_dom, radius):
    """Nodes of ``top`` whose Chebyshev ball meets no node of
    ``dual_dom`` outside ``top``, one ball at a time."""
    interior = np.zeros(grid.size, dtype=bool)
    for y in np.flatnonzero(top):
        ball = _chebyshev_ball_mask(grid, y, radius)
        if not (ball & dual_dom & ~top).any():
            interior[y] = True
    return interior


def slow_essential_pieces(attain, piece_mask, target, y_grid, radius):
    """(alg, top): the essential pieces of ``covering.build_covering``,
    one covered target node at a time.

    y is algebraically essential when some target node is covered by the
    piece y alone, and topologically essential when some target node's
    covering pieces all lie in the Chebyshev ball around y.
    """
    alg = np.zeros(y_grid.size, dtype=bool)
    top = np.zeros(y_grid.size, dtype=bool)
    for x in np.flatnonzero(target):
        ys = np.flatnonzero(attain[x] & piece_mask)
        if ys.size == 0:
            continue
        if ys.size == 1:
            alg[ys[0]] = True
        if y_grid.dim == 1:
            lo, hi = ys.min(), ys.max()
            if hi - lo <= 2 * radius:
                top[max(0, hi - radius) : lo + radius + 1] = True
        else:
            ij = np.array(np.unravel_index(ys, y_grid.n)).T
            lo = ij.max(axis=0) - radius
            hi = ij.min(axis=0) + radius
            if (lo <= hi).all():
                box = np.zeros(y_grid.n, dtype=bool)
                box[max(0, lo[0]) : hi[0] + 1, max(0, lo[1]) : hi[1] + 1] = True
                top |= box.reshape(-1)
    return alg, top & piece_mask


# -- risk-sensitive values of a constant fraction ----------------------------
#
# The closed form checks ``merton.MertonValueForm``; the sample estimate
# checks the law that ``merton.simulate`` draws from.


def risk_sensitive_exact(x, xi, p, horizon):
    """(1/T) log E[W_T^x] for a constant fraction, via the lognormal moment."""
    T = float(horizon)
    return x * math.log(p.w0) / T + x * (
        p.r + p.excess * xi + (x - 1.0) * p.sigma**2 * xi**2 / 2.0
    )


def risk_sensitive_value(x, values, horizon):
    """Empirical (1/T) log E[W_T^x] of samples of log(W_T)/T, log-sum-exp
    stabilised."""
    T = float(horizon)
    t = x * T * values
    m = t.max()
    if m == NEG:
        return NEG
    return float((m + math.log(np.exp(t - m).mean())) / T)


# -- tail-rate experiment, one cell at a time --------------------------------
#
# ``merton.tail_rate_experiment`` as one serial loop over (horizon,
# fraction), with the closed forms restated in the library's float
# operations.  Each cell draws its own samples as ``base + scale * z`` from
# its horizon's child seed, so the cells of one horizon see the same
# normals, as the library's common-random-numbers draw does without drawing
# them again.  The table must equal the library's bit for bit.


def slow_constant_samples(p, xi, horizon, n_paths, seed):
    """log(W_T)/T under a constant fraction, drawn as base + scale * z."""
    rng = np.random.default_rng(seed)
    T = float(horizon)
    drift = p.r + (p.alpha - p.r) * xi - p.sigma**2 * xi**2 / 2.0
    base = math.log(p.w0) / T + drift
    scale = p.sigma * xi / math.sqrt(T)
    return base + scale * rng.standard_normal(n_paths)


def slow_tail_rate_experiment(c, p, horizons, n_paths=100_000, seed=None, *, xi_grid, mc_horizons=None):
    """The experiment's table, suprema, trend, oracle and CSV rows."""
    xi_grid = np.asarray(xi_grid, dtype=np.float64)
    excess = p.alpha - p.r
    if c >= p.r + excess**2 / (2.0 * p.sigma**2):
        d = math.sqrt(c - p.r) - excess / (math.sqrt(2.0) * p.sigma)
        target = -(d**2)
    else:
        target = -0.0
    rates = []
    for xi in xi_grid:  # numpy scalars, as the library iterates the grid
        m = p.r + excess * xi - p.sigma**2 * xi**2 / 2.0
        if c <= m:
            rates.append(0.0)
        elif xi == 0.0:
            rates.append(math.inf)
        else:
            rates.append((c - m) ** 2 / (2.0 * p.sigma**2 * xi**2))
    best = int(np.argmin(rates))
    ss = np.random.SeedSequence(seed)
    mc_set = set(horizons if mc_horizons is None else mc_horizons)

    shape = (len(horizons), xi_grid.size)
    exact = np.empty(shape)
    mc = np.full(shape, np.nan)
    mc_se = np.full(shape, np.nan)
    sup_by_horizon = {}
    for ti, T in enumerate(horizons):
        Tf = float(T)
        best_val, best_xi = NEG, float(xi_grid[0])
        for xj, xi in enumerate(xi_grid.tolist()):
            if xi == 0.0:
                value = 0.0 if p.r + math.log(p.w0) / Tf >= c else NEG
            else:
                drift = p.r + excess * xi - p.sigma**2 * xi**2 / 2.0
                u = (c - drift - math.log(p.w0) / Tf) * math.sqrt(Tf) / (p.sigma * abs(xi))
                value = float(log_ndtr(-u) / Tf)
            exact[ti, xj] = value
            if value > best_val:
                best_val, best_xi = value, xi
            if T in mc_set:
                # the child ss.spawn(len(horizons))[ti] would be, made
                # only for the cells that sample
                child = np.random.SeedSequence(
                    ss.entropy, spawn_key=ss.spawn_key + (ti,), pool_size=ss.pool_size
                )
                values = slow_constant_samples(p, xi, T, n_paths, child)
                hits = int((values >= c).sum())
                if hits > 0:
                    phat = hits / n_paths
                    mc[ti, xj] = math.log(phat) / T
                    mc_se[ti, xj] = math.sqrt((1.0 - phat) / (phat * n_paths)) / T
        sup_by_horizon[Tf] = (best_val, best_xi)

    rows = [["T", "xi", "exact_value", "mc_value", "mc_se", "sup_over_xi",
             "target_minus_gstar"]]
    for ti, T in enumerate(horizons):
        for xj, xi in enumerate(xi_grid.tolist()):
            sampled = not math.isnan(mc[ti, xj])
            rows.append([
                repr(float(T)),
                repr(xi),
                repr(float(exact[ti, xj])),
                repr(float(mc[ti, xj])) if sampled else "",
                repr(float(mc_se[ti, xj])) if sampled else "",
                repr(sup_by_horizon[float(T)][0]),
                repr(target),
            ])
    sups = [sup_by_horizon[float(T)][0] for T in horizons]
    return SimpleNamespace(
        target=target,
        exact=exact,
        mc=mc,
        mc_se=mc_se,
        sup_by_horizon=sup_by_horizon,
        trend=trend_pair(list(horizons), sups)[1],
        oracle_rate=float(rates[best]),
        oracle_xi=float(xi_grid[best]),
        degenerate=c <= p.r,
        rows=rows,
    )
