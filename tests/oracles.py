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
