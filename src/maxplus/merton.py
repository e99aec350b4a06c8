"""Long-term investment growth: closed forms, simulation, tail rates.

A single risky asset with lognormal price (drift alpha, volatility
sigma) and a bank account at rate r; the control is the fraction of
wealth held in the asset.  For a constant fraction the terminal
log-wealth is Gaussian, so risk-sensitive values and tail probabilities
have closed forms; exact Gaussian sampling of the terminal log-wealth
cross-checks the tail probabilities by Monte Carlo.

The optimal growth value g(x) = sup over fractions of the risk-sensitive
growth rate is finite exactly on [0, 1); its convex conjugate is the
rate function of the long-term growth tail, strictly positive above the
threshold r + (alpha-r)^2 / (2 sigma^2).

State truncation (composing the growth state with max(·, a), the
``clip_floor`` of the exact forms) restores the bounded-below kernel row
that the tightness criterion needs, without changing the limit values
for nonnegative x.

A fraction squares as ``xi * xi``: one correctly rounded multiply, with
the same bits for a float, a numpy scalar and an array, where ``xi**2``
on a scalar goes through libm ``pow``, which is not correctly rounded.
The closed forms over fractions are array code, and a scalar fraction
gives a float.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _normal
from ._normal import (
    log_gauss_mass,
    log_mgf_piecewise_linear,
    log_mgf_piecewise_linear_many,
    mask_runs,
)
from .convergence import FormSequence, limsup_trend
from .conjugacy import Kernel
from .errors import ValidationError
from .forms import LOG2, QuasiLinearForm
from .grids import NEG_INF, POS_INF, Grid, check_real, check_values, node_mask


@dataclass(frozen=True)
class MertonParams:
    """Market parameters: alpha > r > 0, sigma > 0, finite initial wealth > 0.

    Each is a real number, not a bool or a string.  sigma^2 and
    (alpha - r)^2 / (2 sigma^2), which every closed form uses, must be
    positive and finite floats.
    """

    r: float
    alpha: float
    sigma: float
    w0: float = 1.0

    def __post_init__(self):
        for name in ("r", "alpha", "sigma", "w0"):
            check_real(getattr(self, name), name)
        if not (self.alpha > self.r > 0):
            raise ValidationError("need alpha > r > 0")
        if self.sigma <= 0:
            raise ValidationError("need sigma > 0")
        if not 0 < self.w0 < POS_INF:
            raise ValidationError(f"need finite positive initial wealth, got {self.w0!r}")
        # numpy scalars: Python's float ** raises OverflowError instead of giving inf
        with np.errstate(over="ignore", under="ignore"):
            var = np.float64(self.sigma) ** 2
            if not 0 < var < POS_INF:
                raise ValidationError(
                    f"sigma = {self.sigma!r}: sigma^2 leaves the float range"
                )
            if not np.isfinite(np.float64(self.excess) ** 2 / (2.0 * var)):
                raise ValidationError("(alpha - r)^2 / (2 sigma^2) leaves the float range")

    @property
    def excess(self):
        return self.alpha - self.r


def rate_threshold(p):
    """Growth level above which the tail rate becomes positive."""
    return p.r + p.excess**2 / (2.0 * p.sigma**2)


def growth_value(x, p):
    """Optimal risk-sensitive growth value; +inf outside [0, 1)."""
    x = check_values(x, "growth state x")
    inside = (x >= 0.0) & (x < 1.0)
    safe = np.where(inside, x, 0.5)
    val = safe * (p.r + p.excess**2 / (2.0 * p.sigma**2 * (1.0 - safe)))
    out = np.where(inside, val, POS_INF)
    return float(out) if out.ndim == 0 else out


def optimal_fraction(x, p):
    """The constant fraction attaining the growth value, for 0 <= x < 1."""
    x = check_values(x, "growth state x")
    if ((x < 0) | (x >= 1)).any():
        raise ValidationError("optimal fraction defined for 0 <= x < 1")
    out = p.excess / (p.sigma**2 * (1.0 - x))
    return float(out) if out.ndim == 0 else out


def growth_conjugate(y, p):
    """Rate function of the long-term growth tail (convex conjugate).

    Zero below the rate threshold, (sqrt(y - r) - excess / (sqrt(2)
    sigma))^2 above it.
    """
    y = check_values(y, "growth level y")
    z0 = rate_threshold(p)
    above = y >= z0
    safe = np.where(above, y, z0)
    val = (np.sqrt(safe - p.r) - p.excess / (math.sqrt(2.0) * p.sigma)) ** 2
    out = np.where(above, val, 0.0)
    return float(out) if out.ndim == 0 else out


def brute_force_growth(x, p, xi_grid):
    """Grid maximum of the risk-sensitive growth quadratic (oracle).

    The grid should span at least [0, 2 * optimal_fraction(x)] for the
    maximum to be interior.
    """
    if not (0 <= x < 1):
        raise ValidationError("brute force oracle covers 0 <= x < 1")
    xi = np.asarray(xi_grid, dtype=np.float64)
    vals = x * (p.r + p.excess * xi + (x - 1.0) * p.sigma**2 * (xi * xi) / 2.0)
    return float(vals.max())


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def drift_rate(xi, p):
    """Almost-sure growth rate of log-wealth under a constant fraction."""
    return p.r + p.excess * xi - p.sigma**2 * (xi * xi) / 2.0


def _check_fractions(p, xi):
    """``xi`` as a float64 array of fractions, each a number whose
    sigma^2 xi^2, which every closed form uses, lies in the float range."""
    what = "finite fractions"
    xi = check_values(xi, what)
    with np.errstate(over="ignore"):
        bad = ~np.isfinite(np.float64(p.sigma) ** 2 * (xi * xi))
    if bad.any():
        raise ValidationError(
            f"{what}: fraction {float(xi[bad][0])!r}: sigma^2 xi^2 leaves the float range"
        )
    return xi


def simulate(p, xi, horizon, n_paths, seed):
    """Sample log(W_T)/T under each constant fraction, with common random
    numbers.

    Under a constant fraction xi, log(W_T)/T is exactly base + scale * Z
    with Z standard normal at every horizon T, so one draw of ``n_paths``
    normals from ``seed`` serves every fraction and every horizon.  ``xi``
    is a nonempty 1-D array-like of finite fractions, and ``horizon`` a
    finite positive number or a nonempty sequence of distinct ones.
    Returns a ``ConstantPaths`` iterable whose cells run horizon-major over
    (horizon, fraction): iterating it yields, for each cell in order, a
    fresh read-only array of the samples, and its ``tail_counts(c)`` gives
    every cell's count of samples at or above c without building those
    arrays.  Each array alone has its cell's exact law; arrays of one call
    share their normals.  Cell (h, j) gets the bits of a one-horizon,
    one-fraction call on horizon h and fraction j with the same seed.

    The arguments are checked, and the normals drawn, at the call.
    """
    if isinstance(horizon, (list, tuple)) or np.ndim(horizon) == 1:
        horizons = _check_horizons(horizon)
    else:
        _check_horizon(horizon)
        horizons = [horizon]
    if isinstance(n_paths, bool) or not isinstance(n_paths, numbers.Integral) or n_paths < 1:
        raise ValidationError(f"need at least one path, got {n_paths!r}")
    if np.ndim(xi) != 1 or np.size(xi) == 0:
        raise ValidationError(f"need a nonempty 1-D array of finite fractions, got {xi!r}")
    fractions = _check_fractions(p, xi)
    z = np.random.default_rng(seed).standard_normal(n_paths)
    # (horizon x fraction), flattened horizon-major
    T = np.array(horizons, dtype=np.float64)[:, None]
    scale = p.sigma * fractions / np.sqrt(T)
    base = math.log(p.w0) / T + drift_rate(fractions, p)
    return ConstantPaths(scale=scale.ravel(), base=base.ravel(), z=z)


@dataclass(frozen=True)
class ConstantPaths:
    """The samples fl(fl(z * scale[j]) + base[j]) of cell j, for the
    normals ``z`` shared by all cells."""

    scale: np.ndarray
    base: np.ndarray
    z: np.ndarray

    def __iter__(self):
        for s, b in zip(self.scale.tolist(), self.base.tolist()):
            # base + scale * z with the same two roundings, in one array
            values = self.z * s
            values += b
            values.setflags(write=False)
            yield values

    def tail_counts(self, c):
        """Per cell, the number of its samples at or above c.

        IEEE rounding is monotone, so a cell's samples are
        non-decreasing in z when its scale is >= 0 (constant at ±0) and
        non-increasing when it is < 0: over the sorted draw, the samples
        at or above c form a suffix or a prefix.  One bisection for all
        cells finds where each one starts or ends, evaluating the
        same two-rounding expression, so the counts are exact.
        """
        zs = np.sort(self.z)
        n = zs.size
        falling = self.scale < 0
        # first k in [0, n] whose sample is >= c (rising) or is not (falling)
        lo = np.zeros(self.scale.shape, dtype=np.intp)
        hi = np.full(self.scale.shape, n, dtype=np.intp)
        while (searching := lo < hi).any():
            # a closed search (lo = hi = mid) reads some sample, keeps hi
            # at mid and lo by the guard below
            mid = (lo + hi) // 2
            v = zs[np.minimum(mid, n - 1)] * self.scale
            v += self.base
            past = (v >= c) != falling
            hi = np.where(past, mid, hi)
            lo = np.where(searching & ~past, mid + 1, lo)
        return np.where(falling, lo, n - lo)


# ---------------------------------------------------------------------------
# exact per-horizon forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MertonValueForm(QuasiLinearForm):
    """Exact quasi-linear form of log(W_T)/T under a constant fraction.

    Affine test functions evaluate through the lognormal moment, node
    sets through Gaussian interval masses.  ``clip_floor`` composes the
    state with max(·, floor) before evaluation.
    """

    params: MertonParams
    horizon: float
    xi: float
    lookup_grid: Grid = None
    clip_floor: float = None

    @property
    def grid(self):
        return self.lookup_grid

    @property
    def join_defect_bound(self):
        return LOG2 / self.horizon

    def _law(self):
        p, T = self.params, self.horizon
        mu = drift_rate(self.xi, p) + math.log(p.w0) / T
        sd = p.sigma * abs(self.xi) / math.sqrt(T)
        return mu, sd

    def evaluate_affine(self, slope, intercept=0.0):
        out = self.affine_rows([self], slope, intercept)[0]
        return float(out) if np.ndim(out) == 0 else out

    @classmethod
    def affine_rows(cls, forms, slopes, intercept=0.0):
        """Row s: ``forms[s]`` on y ↦ slope·y + intercept, for every slope.

        Each form's constants form a column that broadcasts against the
        slopes, so every entry takes the float operations of a one-form,
        one-slope evaluation.
        """
        slope = np.asarray(slopes, dtype=np.float64)
        out = np.empty((len(forms),) + slope.shape)
        plain, point, normal = [], [], []
        for i, f in enumerate(forms):
            p, T = f.params, f.horizon
            if f.clip_floor is None:
                plain.append(
                    (i, math.log(p.w0), T, p.r + p.excess * f.xi, p.sigma**2, f.xi * f.xi)
                )
                continue
            mu, sd = f._law()
            if sd == 0.0:
                point.append((i, max(mu, f.clip_floor)))
            else:
                normal.append((i, T, f.clip_floor, mu, sd))

        def columns(consts):
            rows, *cols = zip(*consts)
            shape = (-1,) + (1,) * slope.ndim
            return list(rows), [np.array(c, dtype=np.float64).reshape(shape) for c in cols]

        if plain:
            rows, (lw, T, c0, s2, x2) = columns(plain)
            out[rows] = intercept + slope * lw / T + slope * (
                c0 + (slope - 1.0) * s2 * x2 / 2.0
            )
        if point:
            rows, (top,) = columns(point)
            out[rows] = intercept + slope * top
        if normal:
            rows, (T, a, mu, sd) = columns(normal)
            t1 = T * (intercept + slope * a) + _normal.log_ndtr((a - mu) / sd)
            # t2 is this head plus a log-probability <= 0, so t2 <= head:
            # where head - t1 < -37 the pair sum below reads t1 alone,
            # whatever t2 is, and t2's Gaussian tail is left out
            t2 = T * intercept + T * slope * mu + T * slope * slope * sd * sd * T / 2.0
            live = ~(t2 - t1 < -37.0)
            z = -(a - mu - slope * sd * sd * T) / sd
            t2[live] += _normal.log_ndtr(z[live])
            m = np.maximum(t1, t2)
            # log(e^u + e^v) with u = t1 - m, v = t2 - m: one of them is 0,
            # so it is log(1 + e^d) for d the other.  Below -37, e^d < 2^-53
            # leaves it at exactly 0.  The rest go through libm one at a
            # time: numpy's vectorised exp and log differ in the last bit.
            d = np.minimum(t1 - m, t2 - m)
            s = np.zeros(d.shape)
            near = ~(d < -37.0)
            s[near] = [math.log(1.0 + math.exp(x)) for x in d[near].tolist()]
            out[rows] = (m + s) / T
        return out

    def eval_on_set(self, mask):
        if self.lookup_grid is None:
            raise ValidationError("set evaluation needs a lookup grid")
        runs = mask_runs(self.lookup_grid, node_mask(self.lookup_grid, mask))
        mu, sd = self._law()
        T = self.horizon
        if self.clip_floor is None:
            lp = log_gauss_mass(runs, mu, sd)
            return lp / T if np.isfinite(lp) else lp
        a = self.clip_floor
        terms = []
        clipped = [(max(lo, a), hi) for lo, hi in runs if hi >= a]
        if clipped:
            lp = log_gauss_mass(clipped, mu, sd)
            if lp > NEG_INF:
                terms.append(lp)
        if any(lo <= a <= hi for lo, hi in runs):
            if sd == 0.0:
                terms.append(0.0 if mu <= a else NEG_INF)
            else:
                terms.append(float(_normal.log_ndtr((a - mu) / sd)))
        if not terms:
            return NEG_INF
        m = max(terms)
        if m == NEG_INF:
            return NEG_INF
        # libm and a sequential sum, not forms.logsumexp_weighted: numpy's
        # vectorised exp, log and pairwise sum can differ in the last bit
        lp = m + math.log(sum(math.exp(t - m) for t in terms))
        return lp / T

    def evaluate(self, phi):
        if phi.grid.dim != 1:
            raise ValidationError("MertonValueForm evaluates 1-D grid functions")
        mu, sd = self._law()
        return log_mgf_piecewise_linear(
            phi.grid.coords,
            phi.flat,
            self.horizon,
            mu,
            sd,
            state_floor=self.clip_floor,
        )

    @classmethod
    def evaluate_many(cls, forms, phi):
        if phi.grid.dim != 1:
            raise ValidationError("MertonValueForm evaluates 1-D grid functions")
        laws = [(f.horizon, *f._law(), f.clip_floor) for f in forms]
        return log_mgf_piecewise_linear_many(phi.grid.coords, phi.flat, laws)


def growth_input(p, x_grid, y_grid, xi_values, horizons, *, clip_floor=None):
    """Pipeline input: one exact sequence per control fraction."""
    from .ldp import GartnerInput

    if y_grid.dim != 1:
        raise ValidationError("a Merton sequence lives on a 1-D grid")
    _check_fractions(p, xi_values)
    kernel = Kernel.bilinear(x_grid, y_grid)
    seqs = []
    for xi in xi_values:
        seqs.append(
            FormSequence(
                generator=lambda T, xi=float(xi): MertonValueForm(
                    p, float(T), xi, lookup_grid=y_grid, clip_floor=clip_floor
                ),
                n_list=tuple(horizons),
                y_grid=y_grid,
            )
        )
    return GartnerInput(sequences=seqs, kernel=kernel, mode="limit-asserted")


# ---------------------------------------------------------------------------
# tail-rate experiment
# ---------------------------------------------------------------------------

def constant_control_rate(c, xi, p):
    """Asymptotic tail rate of {log(W_T)/T >= c} under a constant fraction.

    ``xi`` is a fraction or an array of them, and the rate has its shape:
    a float for a scalar.  A rate beyond the float range is +inf, and so
    is the rate of a point mass (xi = 0, or sigma^2 xi^2 below the float
    range) above its drift.
    """
    c = _check_level(c)
    xi = _check_fractions(p, xi)
    m = drift_rate(xi, p)
    gap = c - m
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rate = gap * gap / (2.0 * p.sigma**2 * (xi * xi))
    out = np.where(c <= m, 0.0, rate)
    return float(out) if out.ndim == 0 else out


def exact_tail_value(c, xi, p, horizon):
    """(1/T) log P[log(W_T)/T >= c] under a constant fraction, exact.

    ``xi`` is a fraction or an array of them, and the value has its shape:
    a float for a scalar.  A value beyond the float range is -inf.
    """
    c = _check_level(c)
    _check_horizon(horizon)
    xi = _check_fractions(p, xi)
    T = float(horizon)
    drift, start = drift_rate(xi, p), math.log(p.w0) / T
    spread = p.sigma * np.abs(xi)
    # a point mass: xi = 0, or sigma |xi| below the float range
    point = spread == 0.0
    with np.errstate(over="ignore"):
        u = (c - drift - start) * math.sqrt(T) / np.where(point, 1.0, spread)
        tail = _normal.log_ndtr(-u) / T
    out = np.where(point, np.where(drift + start >= c, 0.0, NEG_INF), tail)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class TailRateReport:
    """The experiment as one (horizon x fraction) table.

    ``exact``, ``mc`` and ``mc_se`` have one row per horizon and one
    column per fraction; ``mc`` and ``mc_se`` are NaN where a cell is
    inconclusive.
    """

    target: float  # -g*(c)
    horizons: tuple  # the horizons as floats
    xi: np.ndarray
    exact: np.ndarray
    mc: np.ndarray
    mc_se: np.ndarray
    trend: float
    oracle_rate: float
    oracle_xi: float
    degenerate: bool

    @property
    def sup_by_horizon(self):
        """T -> (sup exact value, first fraction attaining it)."""
        best = self.exact.argmax(axis=1)
        return {
            T: (float(self.exact[ti, j]), float(self.xi[j]))
            for ti, (T, j) in enumerate(zip(self.horizons, best))
        }

    def csv_rows(self):
        rows = [
            ["T", "xi", "exact_value", "mc_value", "mc_se", "sup_over_xi", "target_minus_gstar"]
        ]
        # a value repeated down the column is formatted once
        xis = [repr(xi) for xi in self.xi.tolist()]
        target = repr(self.target)
        for ti, (T, (sup, _)) in enumerate(self.sup_by_horizon.items()):
            T, sup = repr(T), repr(sup)
            table = (self.exact[ti], self.mc[ti], self.mc_se[ti])
            for xi, exact, mc, se in zip(xis, *(a.tolist() for a in table)):
                # an inconclusive cell leaves mc_value and mc_se empty
                mc_cells = ["", ""] if math.isnan(mc) else [repr(mc), repr(se)]
                rows.append([T, xi, repr(exact), *mc_cells, sup, target])
        return rows


def _check_level(c):
    """The growth level c as a float: a finite real number."""
    c = check_real(c, "growth level c")
    if not math.isfinite(c):
        raise ValidationError(f"growth level c must be finite, got {c!r}")
    return c


def _check_horizon(T):
    """A horizon is a finite positive number."""
    if not (math.isfinite(check_real(T, "horizon")) and T > 0):
        raise ValidationError(f"horizons must be finite and positive, got {T!r}")


def _check_horizons(horizons):
    """The horizons as a list: nonempty, finite, positive and distinct."""
    hs = list(horizons)
    if not hs:
        raise ValidationError("need at least one horizon")
    seen = set()
    for T in hs:
        _check_horizon(T)
        if float(T) in seen:
            raise ValidationError(f"horizon {T!r} is repeated")
        seen.add(float(T))
    return hs


def tail_rate_experiment(
    c,
    p,
    horizons,
    n_paths=100_000,
    seed=None,
    *,
    xi_grid,
    mc_horizons=None,
):
    """Exact and Monte Carlo tail rates across horizons and fractions.

    For each horizon and constant fraction: the exact Gaussian tail value
    and (for horizons in ``mc_horizons``, default all) a Monte Carlo
    estimate with its standard error; cells whose tail count is zero are
    inconclusive.  Reports per-horizon suprema, their extrapolated trend
    (``convergence.limsup_trend`` over the horizons),
    the rate-function target, and an independent one-dimensional
    minimization oracle over the fraction grid.  ``n_paths`` and ``seed``
    matter only for the Monte Carlo horizons; a ``None`` seed draws fresh
    entropy once for the whole experiment.

    The level c is a finite real number.  Horizons must be distinct
    finite positive numbers, and each Monte Carlo horizon one of them.
    One ``simulate`` call over the Monte Carlo horizons draws one vector
    of normals from the first child seed, ``SeedSequence(seed).spawn(1)[0]``,
    shared by every (horizon, fraction) cell (common random numbers):
    every cell keeps its law and standard error, and the cells are
    correlated across fractions and horizons.
    """
    c = _check_level(c)
    horizons = _check_horizons(horizons)
    xi_grid = np.array(_check_fractions(p, xi_grid))  # a copy: the report keeps it
    if xi_grid.ndim != 1:
        raise ValidationError(f"xi grid is not 1-D: shape {xi_grid.shape}")
    if xi_grid.size == 0:
        raise ValidationError("xi grid is empty")
    degenerate = c <= p.r
    target = -growth_conjugate(c, p)
    rates = constant_control_rate(c, xi_grid, p)
    best = int(rates.argmin())
    ss = np.random.SeedSequence(seed)
    mc_horizons = horizons if mc_horizons is None else list(mc_horizons)
    stray = [T for T in mc_horizons if T not in horizons]
    if stray:
        raise ValidationError(f"mc_horizons {stray!r} are not among the horizons")

    shape = (len(horizons), xi_grid.size)
    exact = np.empty(shape)
    mc = np.full(shape, np.nan)
    mc_se = np.full(shape, np.nan)
    sampled = [ti for ti, T in enumerate(horizons) if T in mc_horizons]
    if sampled:
        # the paths, and with them the draw, are dropped once counted
        counts = simulate(
            p, xi_grid, [horizons[ti] for ti in sampled], n_paths, ss.spawn(1)[0]
        ).tail_counts(c)
        for ti, row in zip(sampled, counts.reshape(len(sampled), -1).tolist()):
            T = horizons[ti]
            for xj, hits in enumerate(row):
                if hits > 0:
                    phat = hits / n_paths
                    mc[ti, xj] = math.log(phat) / T
                    mc_se[ti, xj] = math.sqrt((1.0 - phat) / (phat * n_paths)) / T
    for ti, T in enumerate(horizons):
        exact[ti] = exact_tail_value(c, xi_grid, p, T)

    sups = exact[np.arange(len(horizons)), exact.argmax(axis=1)]
    return TailRateReport(
        target=float(target),
        horizons=tuple(float(T) for T in horizons),
        xi=xi_grid,
        exact=exact,
        mc=mc,
        mc_se=mc_se,
        trend=float(limsup_trend(horizons, sups)),
        oracle_rate=float(rates[best]),
        oracle_xi=float(xi_grid[best]),
        degenerate=degenerate,
    )
