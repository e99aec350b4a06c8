"""Independent slow-path oracles the tests check the library against.

Everything here deliberately avoids the library's kernel code paths:
plain Python loops or direct numpy broadcasting for max-plus algebra,
exhaustive enumeration for pre-image problems, and mpmath for Gaussian
masses.  Conventions mirror the documented scalar rules (-inf absorbing,
no NaN).
"""

import itertools
import math

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


def slow_limit_log_moment(gartner_input, *, limit_tol=1e-6, sup_edge_to_inf=False):
    """Limit log-moment values node by node, one scalar trend fit each.

    The per-node loop of ``ldp.limit_log_moment`` before it was batched.
    Returns (g as a flat array, limit gaps, downgraded flag, indices of
    the nodes reported unbounded at the family's edge).
    """
    from maxplus.convergence import trend_pair

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
    downgraded = limit_asserted and np.nanmax(gaps, initial=0.0) > limit_tol
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


def _neighborhood_gain(b, grid, x_index, radius):
    """max_{z in ball(x)} b(z, ·) - b(x, ·) with max-plus conventions."""
    from maxplus.grids import otimes

    bounds = grid.ball_slices(x_index, radius)
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
    betas=None,
    beta_quantiles=(0.5, 0.75, 0.9),
    sides=None,
    x_sides=None,
):
    """``coercivity_report`` with one Python iteration per x-node."""
    from maxplus.conjugacy import (
        EDGE, EVIDENCE, VIOLATION, CoercivityReport, LevelSetCheck,
        inner_window_mask,
    )

    b = k.matrix()
    inner = inner_window_mask(k.y_grid, window_margin, sides)
    coercive = []
    upper = []
    checks = []
    for i in range(k.x_grid.size):
        if _window_clipped(k.x_grid, i, stencil_radius, x_sides):
            coercive.append(EDGE)
            upper.append(EDGE)
            checks.append([])
            continue
        gain = _neighborhood_gain(b, k.x_grid, i, stencil_radius)
        bs = betas if betas is not None else _default_betas(gain, beta_quantiles, inner)
        if betas is None and bs:
            # cap default levels just under the ring minimum: sublevel-set
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
        row_checks = []
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
            row_checks.append(
                LevelSetCheck(
                    beta=float(beta),
                    set_size=int(sub.sum()),
                    contained=contained,
                    bounded_above=bounded,
                )
            )
        if not bs:
            ok_c = False  # nothing finite to test against
        coercive.append(EVIDENCE if ok_c else VIOLATION)
        upper.append(EVIDENCE if ok_u else VIOLATION)
        checks.append(row_checks)
    return CoercivityReport(
        margin=float(window_margin),
        coercive=coercive,
        upper_coercive=upper,
        checks=checks,
    )


def slow_superlevel_compactness_report(
    f,
    k,
    window_margin,
    *,
    betas=None,
    beta_quantiles=(0.75, 0.9),
    sides=None,
):
    """``superlevel_compactness_report`` with one iteration per x-node."""
    from maxplus.conjugacy import (
        EVIDENCE, VIOLATION, LevelSetCheck, SuperlevelReport, inner_window_mask,
    )
    from maxplus.grids import otimes

    b = k.matrix()
    inner = inner_window_mask(k.y_grid, window_margin, sides)
    neg_f = -f.flat
    verdicts = []
    checks = []
    for i in range(k.x_grid.size):
        vals = otimes(b[i], neg_f)
        bs = betas if betas is not None else _default_betas(vals, beta_quantiles, inner)
        if not bs:
            # b(x,·) - f is -inf everywhere: all superlevel sets are empty
            verdicts.append(EVIDENCE)
            checks.append([])
            continue
        row_checks = []
        ok = True
        for beta in bs:
            sup = vals >= beta
            contained = not (sup & ~inner).any()
            ok &= contained
            row_checks.append(
                LevelSetCheck(beta=float(beta), set_size=int(sup.sum()), contained=contained)
            )
        verdicts.append(EVIDENCE if ok else VIOLATION)
        checks.append(row_checks)
    return SuperlevelReport(margin=float(window_margin), verdicts=verdicts, checks=checks)


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
        slice(lo, hi + 1) for lo, hi in grid.ball_slices(flat_index, radius)
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
